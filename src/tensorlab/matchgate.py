"""Exact Pfaffians, sub-Pfaffian signature vectors, perfect-matching counts,
matchgate identities, and wire basis changes.

Planarity is never checked.  A graph's matchings are counted by one
Pfaffian exactly when some edge-sign vector makes |Pf| equal the brute-force
matching count, and the orientation search finds the first such vector.
Since Pf(DAD) = det(D) Pf(A) for a diagonal sign matrix D, it evaluates one
sign vector per coset of the cut space over F_2, the smallest, read off an
echelon cut basis with pivots at the most significant bits; the answer is
the one a scan of all 2^E sign vectors would give.  The graph's perfect
matchings are enumerated once with their signed weights, and a block of
coset codes gets its Pfaffians as a +-1 parity matrix times that weight
vector.

The two hot kernels work on whole numpy arrays in blocks of at most
BLOCK_ENTRIES entries, so their temporaries stay bounded: the orientation
search's (code, matching) parities, and the matchgate identities'
(difference pattern, alpha) residual grid, whose blocks fill the one int64
or object array that `mgi_residuals` returns.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from . import rings
from .errors import CapExceeded, ValidationError
from .rings import RATIONAL, Ring

MATCHING_NODE_CAP = 16
ORIENTATION_WORK_CAP = 10**8  # (coset, matching) pairs at ~42 ns each: about 4 s
MGI_WIRE_CAP = 10
BLOCK_ENTRIES = 1 << 14  # entries per block of the whole-array kernels


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
    universe: entry at J is the Pfaffian with rows and columns J removed.

    The vector has 2^k entries for a k-node universe, and the shared memo
    holds Pfaffians of up to 2^size index sets, so the size is capped at
    MATCHING_NODE_CAP, as the matching count is, before any Pfaffian."""
    if a.size > MATCHING_NODE_CAP:
        raise CapExceeded(f"sub-Pfaffian vector capped at {MATCHING_NODE_CAP} nodes")
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
    return _matching_sum(g)


def _matching_sum(g: WeightedGraph):
    # the orientation search counts unit-weight matchings for its work
    # estimate here, so `count_matchings` runs once per search
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


def _signed_matchings(g: WeightedGraph) -> tuple[np.ndarray, np.ndarray]:
    """Every perfect matching of g as (edge-code mask, signed weight).

    The mask has bit E-1-b for each matched edge b, as a sign code does.
    The weight is the matching's term in the Pfaffian of the all-plus skew
    matrix: the first-row expansion pairs the lowest unmatched vertex with
    the t-th of the others at sign (-1)^t, so the terms sum to `pfaffian`.
    """
    n_edges = len(g.edges)
    edge = {(i, j): (1 << (n_edges - 1 - b), w) for b, (i, j, w) in enumerate(g.edges)}
    masks, weights = [], []

    def extend(unmatched: tuple, mask: int, weight):
        if not unmatched:
            masks.append(mask)
            weights.append(rings.reduce(weight, g.ring))
            return
        first, rest = unmatched[0], unmatched[1:]
        for t, j in enumerate(rest):
            hit = edge.get((first, j))
            if hit is not None:
                term = weight * hit[1]
                extend(rest[:t] + rest[t + 1 :], mask | hit[0], term if t % 2 == 0 else -term)

    extend(tuple(range(g.nodes)), 0, rings.one(g.ring))
    return np.array(masks, dtype=np.int64), np.array(weights, dtype=object)


def _block_pfaffians(codes: np.ndarray, masks: np.ndarray, weights: np.ndarray, ring: Ring) -> np.ndarray:
    """Pfaffians of the signed skew matrices of a block of sign codes.

    Code c negates a matching's term once per minus-signed matched edge,
    so Pf(c) = sum_m (-1)^|c & mask_m| weight_m: a +-1 parity matrix times
    the object weight vector, exact over Q and F_p.
    """
    parity = codes[:, None] & masks[None, :]
    for shift in (32, 16, 8, 4, 2, 1):  # fold every bit onto bit 0
        parity ^= parity >> shift
    return rings.reduce((1 - 2 * (parity & 1)) @ weights, ring)


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

    The work, cosets x perfect matchings (at least one per coset), is
    checked against ORIENTATION_WORK_CAP before any matching is enumerated
    or any Pfaffian evaluated; under the cap E <= 15 + log2(cap) < 63, so
    codes and masks fit in int64.  The matchings are then enumerated once
    with their signed weights, and the coset codes go to
    `_block_pfaffians` in increasing order, in blocks of at most
    BLOCK_ENTRIES (code, matching) pairs; the search stops at the first
    block with a hit.
    """
    n_edges = len(g.edges)
    free = (1 << n_edges) - 1 - _cut_pivots(g)
    positions = [b for b in range(n_edges) if free >> b & 1]
    unit = WeightedGraph(g.nodes, tuple((i, j, 1) for i, j, _ in g.edges))
    cosets, per_coset = 2 ** len(positions), max(_matching_sum(unit), 1)
    work = cosets * per_coset
    if work > ORIENTATION_WORK_CAP:
        raise CapExceeded(
            f"orientation search estimated at {work} Pfaffian terms "
            f"(2^{len(positions)} cosets x {per_coset} matchings), over the cap of {ORIENTATION_WORK_CAP}"
        )
    target = count = count_matchings(g)
    masks, weights = _signed_matchings(g)
    if g.ring.kind == "rational":  # cleared denominators: int sums cost ~1/100 of Fraction sums
        scale = math.lcm(*(w.denominator for w in weights))
        weights = np.array([int(w * scale) for w in weights], dtype=object)
        target = target * scale
    neg_target = rings.reduce(-target, g.ring)
    step = max(1, BLOCK_ENTRIES // per_coset)
    for start in range(0, cosets, step):
        index = np.arange(start, min(start + step, cosets), dtype=np.int64)
        codes = np.zeros_like(index)
        for i, pos in enumerate(positions):  # deposit index bit i at free position i
            codes |= (index >> i & 1) << pos
        pf = _block_pfaffians(codes, masks, weights, g.ring)
        hits = np.flatnonzero((pf == target) | (pf == neg_target))
        if len(hits):
            code = int(codes[hits[0]])
            signs = tuple(-1 if code >> (n_edges - 1 - b) & 1 else 1 for b in range(n_edges))
            return OrientationResult(signs, code + 1, count)
    return OrientationResult(None, 2**n_edges, count)


# ---------------------------------------------------------------------------
# matchgate identities
# ---------------------------------------------------------------------------

def mgi_residuals(s: SignatureVector) -> np.ndarray:
    """Residuals of the Pfaffian bilinear identities on a binary signature.

    For every pattern pair (alpha, beta), with p_1 < ... < p_l the positions
    where they differ, the alternating sum over flips
    sum_i (-1)^(i-1) s[alpha ^ bit p_i] * s[beta ^ bit p_i] must vanish on
    every vector of sub-Pfaffians.  The relation family is validated
    empirically by the test suite against random skew matrices, since it is
    the package's operational definition of the identities.

    The sums run at once for every difference pattern d = alpha ^ beta with
    top bit h, on the (d, alpha) grid of every alpha with bit h clear (the
    pairs with alpha < beta), in row blocks of at most BLOCK_ENTRIES pairs.
    For each bit position in increasing order, the rows whose d has that
    bit add their term if an even number of lower bits of d are set and
    subtract it otherwise: the scalar loop's operations, in its order.
    Python int entries go in int64 when wires * max|s|^2 < 2^63, so no
    partial sum can overflow; any other entries go in an object array, so
    their own operators give the loop's values and types.  The result is
    one array of the residuals in (alpha, beta) order with alpha < beta,
    int64 or object: `.tolist()` is the loop's list.
    """
    if s.arity != 2:
        raise ValidationError("matchgate identities apply to binary wires")
    if s.wires > MGI_WIRE_CAP:
        raise CapExceeded(f"matchgate identities capped at {MGI_WIRE_CAP} wires")
    n = 2**s.wires
    if all(type(x) is int for x in s.entries) and s.wires * max(map(abs, s.entries)) ** 2 < 2**63:
        sig = np.array(s.entries, dtype=np.int64)
    else:
        sig = np.array(s.entries, dtype=object)
    out = np.empty(n * (n - 1) // 2, dtype=sig.dtype)
    alphas = np.arange(n)
    # floats overflow to inf silently, as they do in scalar arithmetic
    with np.errstate(all="ignore"):
        for h in range(s.wires):
            alpha = alphas[alphas & (1 << h) == 0]
            step = max(1, BLOCK_ENTRIES // len(alpha))
            for start in range(1 << h, 2 << h, step):
                diff = np.arange(start, min(start + step, 2 << h))
                beta = alpha ^ diff[:, None]
                total = np.full(beta.shape, rings.zero(s.ring), dtype=sig.dtype)
                odd = np.zeros(len(diff), dtype=bool)  # an odd number of lower bits of d
                for pos in range(h + 1):
                    bit = 1 << pos
                    has = diff & bit != 0
                    left = sig[alpha ^ bit]
                    plus, minus = np.flatnonzero(has & ~odd), np.flatnonzero(has & odd)
                    total[plus] = total[plus] + left * sig[beta[plus] ^ bit]
                    total[minus] = total[minus] - left * sig[beta[minus] ^ bit]
                    odd ^= has
                # (alpha, beta) comes after the n - 1 - a pairs of each a < alpha
                out[alpha * (2 * n - alpha - 3) // 2 + beta - 1] = rings.reduce(total, s.ring)
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
