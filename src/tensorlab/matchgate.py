"""Exact Pfaffians, sub-Pfaffian signature vectors, perfect-matching counts,
matchgate identities, and wire basis changes.

Planarity is never checked.  A graph's matchings are counted by one
Pfaffian exactly when some edge-sign vector makes |Pf| equal the brute-force
matching count, and the orientation search finds the first such vector.
Since Pf(DAD) = det(D) Pf(A) for a diagonal sign matrix D, it evaluates one
sign vector per coset of the cut space over F_2, the smallest, read off an
echelon cut basis with pivots at the most significant bits; the answer is
the one a scan of all 2^E sign vectors would give.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

from . import rings
from .errors import CapExceeded, ValidationError
from .rings import RATIONAL, Ring

MATCHING_NODE_CAP = 16
ORIENTATION_EDGE_CAP = 20
MGI_WIRE_CAP = 10


@dataclass(frozen=True)
class SkewMatrix:
    """Skew-symmetric matrix stored by its strict upper triangle."""

    size: int
    upper: tuple  # row-major strict upper triangle, length size*(size-1)/2
    ring: Ring = RATIONAL

    def __post_init__(self):
        if len(self.upper) != self.size * (self.size - 1) // 2:
            raise ValidationError("upper triangle length does not match size")

    @staticmethod
    def from_upper(size: int, entries: dict, ring: Ring = RATIONAL) -> "SkewMatrix":
        """Build from {(i, j): weight} with i < j; missing pairs are zero."""
        upper = []
        for i in range(size):
            for j in range(i + 1, size):
                upper.append(rings.coerce(entries.get((i, j), 0), ring))
        for (i, j) in entries:
            if not 0 <= i < j < size:
                raise ValidationError(f"bad skew entry position {(i, j)}")
        return SkewMatrix(size, tuple(upper), ring)

    def _upper_index(self, i: int, j: int) -> int:
        return i * (2 * self.size - i - 1) // 2 + (j - i - 1)

    def entry(self, i: int, j: int):
        if i == j:
            return rings.zero(self.ring)
        if i < j:
            return self.upper[self._upper_index(i, j)]
        return rings.reduce(-self.upper[self._upper_index(j, i)], self.ring)

    def to_rows(self) -> list[list]:
        return [[self.entry(i, j) for j in range(self.size)] for i in range(self.size)]


@dataclass(frozen=True)
class SignatureVector:
    """Length arity**wires vector indexed by wire assignments.

    For binary wires the integer index encodes the subset little-endian:
    bit i set means wire i is present.
    """

    wires: int
    entries: tuple
    ring: Ring = RATIONAL
    arity: int = 2

    def __post_init__(self):
        if len(self.entries) != self.arity**self.wires:
            raise ValidationError("signature length must be arity**wires")

    def __getitem__(self, idx: int):
        return self.entries[idx]

    def to_json(self) -> str:
        if self.arity == 2:
            return json.dumps([rings.format_scalar(x, self.ring) for x in self.entries])
        return json.dumps(
            {
                "wires": self.wires,
                "arity": self.arity,
                "entries": [rings.format_scalar(x, self.ring) for x in self.entries],
            }
        )

    @staticmethod
    def from_json(text: str, ring: Ring = RATIONAL) -> "SignatureVector":
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"bad signature JSON: {exc}") from exc
        if isinstance(obj, dict):
            entries = [rings.parse_scalar(str(x), ring) for x in obj["entries"]]
            return SignatureVector(int(obj["wires"]), tuple(entries), ring, int(obj["arity"]))
        entries = [rings.parse_scalar(str(x), ring) for x in obj]
        wires = len(entries).bit_length() - 1
        if 2**wires != len(entries):
            raise ValidationError("signature JSON length is not a power of two")
        return SignatureVector(wires, tuple(entries), ring)


# ---------------------------------------------------------------------------
# Pfaffians
# ---------------------------------------------------------------------------

def _pfaffian_on(indices: tuple[int, ...], a: SkewMatrix, memo: dict):
    """Pfaffian of the principal submatrix on the given index set.

    First-row expansion with subset memoization; the sign convention is
    anchored by Pf([[0, a], [-a, 0]]) = a, and odd sizes give 0.
    """
    if len(indices) % 2 == 1:
        return rings.zero(a.ring)
    if not indices:
        return rings.one(a.ring)
    key = indices
    hit = memo.get(key)
    if hit is not None:
        return hit
    first = indices[0]
    rest = indices[1:]
    total = rings.zero(a.ring)
    for t, j in enumerate(rest):
        w = a.entry(first, j)
        if rings.is_zero(w, a.ring):
            continue
        sub = rest[:t] + rest[t + 1 :]
        term = w * _pfaffian_on(sub, a, memo)
        total = total + term if t % 2 == 0 else total - term
    memo[key] = rings.reduce(total, a.ring)
    return memo[key]


def pfaffian(a: SkewMatrix):
    """Exact Pfaffian; zero for odd sizes and one for the empty matrix."""
    return _pfaffian_on(tuple(range(a.size)), a, {})


def sub_pfaffian_vector(a: SkewMatrix, universe: Optional[Sequence[int]] = None) -> SignatureVector:
    """Vector of principal sub-Pfaffians indexed by deleted subsets of the
    universe: entry at J is the Pfaffian with rows and columns J removed."""
    nodes = tuple(range(a.size)) if universe is None else tuple(sorted(set(universe)))
    if any(not 0 <= u < a.size for u in nodes):
        raise ValidationError("universe nodes out of range")
    k = len(nodes)
    memo: dict = {}
    entries = []
    for mask in range(2**k):
        deleted = {nodes[i] for i in range(k) if mask >> i & 1}
        kept = tuple(i for i in range(a.size) if i not in deleted)
        entries.append(_pfaffian_on(kept, a, memo))
    return SignatureVector(k, tuple(entries), a.ring)


# ---------------------------------------------------------------------------
# graphs and matchings
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeightedGraph:
    """Undirected graph with weighted edges (i < j), no loops or multiedges."""

    nodes: int
    edges: tuple  # ((i, j, weight), ...)
    ring: Ring = RATIONAL

    def __post_init__(self):
        seen = set()
        for i, j, _ in self.edges:
            if not 0 <= i < j < self.nodes:
                raise ValidationError(f"bad edge ({i}, {j})")
            if (i, j) in seen:
                raise ValidationError(f"duplicate edge ({i}, {j})")
            seen.add((i, j))

    @staticmethod
    def build(nodes: int, edges: Sequence[tuple], ring: Ring = RATIONAL) -> "WeightedGraph":
        packed = tuple(
            (min(i, j), max(i, j), rings.coerce(w, ring)) for i, j, w in edges
        )
        return WeightedGraph(nodes, packed, ring)

    def skew_matrix(self, signs: Optional[Sequence[int]] = None) -> SkewMatrix:
        """Signed adjacency matrix; signs (one per edge, +-1) orient the graph."""
        if signs is None:
            signs = [1] * len(self.edges)
        if len(signs) != len(self.edges):
            raise ValidationError("one sign per edge is required")
        entries = {}
        for (i, j, w), s in zip(self.edges, signs):
            entries[(i, j)] = w if s == 1 else s * w  # from_upper canonicalises
        return SkewMatrix.from_upper(self.nodes, entries, self.ring)


def complete_graph(n: int, weight=1, ring: Ring = RATIONAL) -> WeightedGraph:
    return WeightedGraph.build(
        n, [(i, j, weight) for i in range(n) for j in range(i + 1, n)], ring
    )


def complete_bipartite(m: int, n: int, weight=1, ring: Ring = RATIONAL) -> WeightedGraph:
    return WeightedGraph.build(
        m + n, [(i, m + j, weight) for i in range(m) for j in range(n)], ring
    )


def count_matchings(g: WeightedGraph):
    """Sum over perfect matchings of the product of matched edge weights."""
    if g.nodes > MATCHING_NODE_CAP:
        raise CapExceeded(f"matching count capped at {MATCHING_NODE_CAP} nodes")
    if g.nodes % 2 == 1:
        return rings.zero(g.ring)
    adjacency: dict[int, list[tuple[int, object]]] = {i: [] for i in range(g.nodes)}
    for i, j, w in g.edges:
        adjacency[i].append((j, w))
        adjacency[j].append((i, w))

    @lru_cache(maxsize=None)  # at most 2^n unmatched sets, not (n-1)!! matchings
    def recurse(unmatched: frozenset):
        if not unmatched:
            return rings.one(g.ring)
        lowest = min(unmatched)
        total = rings.zero(g.ring)
        for other, w in adjacency[lowest]:
            if other in unmatched and other != lowest:
                total = total + w * recurse(unmatched - {lowest, other})
        return rings.reduce(total, g.ring)

    return recurse(frozenset(range(g.nodes)))


@dataclass(frozen=True)
class OrientationResult:
    signs: Optional[tuple[int, ...]]
    candidates_tried: int
    matchings: object  # the matching count the search compared against

    @property
    def found(self) -> bool:
        return self.signs is not None


def _cut_pivots(g: WeightedGraph) -> int:
    """Pivot bits of the graph's cut space over F_2, as one mask.

    Each vertex contributes its cut: the code (edge b is bit E-1-b) with a
    1 at every edge that touches it.  Elimination gives an echelon basis
    whose vectors have distinct most significant bits, the pivots; an
    isolated vertex reduces to zero and adds none.  The pivots are exactly
    the most significant bits of the nonzero cut-space codes.
    """
    n_edges = len(g.edges)
    cuts = [0] * g.nodes
    for b, (i, j, _) in enumerate(g.edges):
        cuts[i] |= 1 << (n_edges - 1 - b)
        cuts[j] |= 1 << (n_edges - 1 - b)
    basis: dict[int, int] = {}  # a vector's bit_length, its pivot + 1 -> the vector
    for v in cuts:
        while v and v.bit_length() in basis:
            v ^= basis[v.bit_length()]
        if v:
            basis[v.bit_length()] = v
    return sum(1 << (length - 1) for length in basis)


def pfaffian_orientation_search(g: WeightedGraph) -> OrientationResult:
    """First edge-sign vector (lexicographic, +1 before -1) whose signed
    skew matrix has |Pf| equal to the matching count; None if all fail.

    A sign vector is the E-bit code with bit E-1-b set when edge b gets -1,
    so lexicographic order is increasing code order.  Flipping every sign
    at one vertex v conjugates the skew matrix A by D = diag(+-1) with -1 at
    v, and Pf(DAD) = det(D) Pf(A) = -Pf(A); the test accepts +-target, so it
    is constant on each coset of the F_2 cut space.  The cut space's
    echelon basis has its pivots at the most significant bits of its
    vectors (`_cut_pivots`), and every nonzero cut has a pivot as its top
    bit.  So each coset holds exactly one code that is zero at every pivot,
    and adding any nonzero cut sets a pivot bit above all changed bits: that
    code is the smallest in its coset.  Those codes, taken in increasing
    order, are therefore the coset minima in increasing order.  The first
    one that hits is the first code the full 2^E scan would hit, so `signs`
    and `candidates_tried` (that code + 1, or 2^E on no hit) are unchanged,
    while only 2^(E-V+c) Pfaffians are evaluated for c components.
    """
    n_edges = len(g.edges)
    if n_edges > ORIENTATION_EDGE_CAP:
        raise CapExceeded(f"orientation search capped at {ORIENTATION_EDGE_CAP} edges")
    target = count_matchings(g)
    neg_target = rings.reduce(-target, g.ring)
    free = (1 << n_edges) - 1 - _cut_pivots(g)
    code = 0
    while True:
        signs = tuple(1 if not (code >> (n_edges - 1 - b)) & 1 else -1 for b in range(n_edges))
        pf = pfaffian(g.skew_matrix(signs))
        if pf == target or pf == neg_target:
            return OrientationResult(signs, code + 1, target)
        code = (code - free) & free  # the next larger code that is zero at every pivot
        if not code:
            return OrientationResult(None, 2**n_edges, target)


# ---------------------------------------------------------------------------
# matchgate identities
# ---------------------------------------------------------------------------

def mgi_residuals(s: SignatureVector) -> list:
    """Residuals of the Pfaffian bilinear identities on a binary signature.

    For every pattern pair (alpha, beta), with p_1 < ... < p_l the positions
    where they differ, the alternating sum over flips
    sum_i (-1)^(i-1) s[alpha ^ bit p_i] * s[beta ^ bit p_i] must vanish on
    every vector of sub-Pfaffians.  The relation family is validated
    empirically by the test suite against random skew matrices, since it is
    the package's operational definition of the identities.
    """
    if s.arity != 2:
        raise ValidationError("matchgate identities apply to binary wires")
    if s.wires > MGI_WIRE_CAP:
        raise CapExceeded(f"matchgate identities capped at {MGI_WIRE_CAP} wires")
    n = 2**s.wires
    out = []
    for alpha in range(n):
        for beta in range(alpha + 1, n):
            diff = alpha ^ beta
            total = rings.zero(s.ring)
            sign = 1
            pos = 0
            d = diff
            while d:
                if d & 1:
                    bit = 1 << pos
                    term = s[alpha ^ bit] * s[beta ^ bit]
                    total = total + term if sign > 0 else total - term
                    sign = -sign
                d >>= 1
                pos += 1
            out.append(rings.reduce(total, s.ring))
    return out


def transform_signature(s: SignatureVector, b: Sequence[Sequence], side: str) -> SignatureVector:
    """Per-wire basis change by a 2 x c matrix.

    Output entry at the c-ary index (j_1 ... j_k) is
    sum_S s[S] * prod_i b[bit_i(S)][j_i].  Recognizers act as row vectors on
    the k-fold tensor power of b; generators see the transposed action on
    columns, which lands on the same entries for this orientation, so the
    side tag is recorded but does not change the arithmetic.
    """
    if side not in ("generator", "recognizer"):
        raise ValidationError('side must be "generator" or "recognizer"')
    if s.arity != 2:
        raise ValidationError("input signature must have binary wires")
    rows = [list(r) for r in b]
    if len(rows) != 2 or len({len(r) for r in rows}) != 1:
        raise ValidationError("basis change must be a 2 x c matrix")
    c = len(rows[0])
    if c < 1:
        raise ValidationError("basis change needs at least one column")
    bmat = [[rings.coerce(x, s.ring) for x in r] for r in rows]
    k = s.wires
    entries = []
    for idx in range(c**k):
        js = [(idx // c**i) % c for i in range(k)]  # little-endian wire values
        total = rings.zero(s.ring)
        for mask in range(2**k):
            coeff = s[mask]
            if rings.is_zero(coeff, s.ring):
                continue
            for i in range(k):
                coeff = coeff * bmat[(mask >> i) & 1][js[i]]
                if rings.is_zero(coeff, s.ring):
                    break
            total = total + coeff
        entries.append(rings.reduce(total, s.ring))
    return SignatureVector(k, tuple(entries), s.ring, c)


# ---------------------------------------------------------------------------
# graph text format: "graph v1" / node count / one "i j weight" line per edge
# ---------------------------------------------------------------------------

def dumps_graph(g: WeightedGraph) -> str:
    lines = ["graph v1", str(g.nodes)]
    for i, j, w in g.edges:
        lines.append(f"{i} {j} {rings.format_scalar(w, g.ring)}")
    return "\n".join(lines) + "\n"


def loads_graph(text: str, ring: Ring = RATIONAL) -> WeightedGraph:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].strip() != "graph v1":
        raise ValidationError('graph file must start with "graph v1"')
    try:
        nodes = int(lines[1])
    except (IndexError, ValueError) as exc:
        raise ValidationError("bad node count in graph file") from exc
    edges = []
    for ln in lines[2:]:
        parts = ln.split()
        if len(parts) != 3:
            raise ValidationError(f"bad edge line {ln!r}")
        i, j = int(parts[0]), int(parts[1])
        edges.append((i, j, rings.parse_scalar(parts[2], ring)))
    return WeightedGraph.build(nodes, edges, ring)
