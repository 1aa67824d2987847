"""Computable rank notions: flattening ranks, multilinear rank, border-rank
lower bounds, exhaustive rank search over small prime fields, and
symmetric ranks of binary forms by Sylvester's theorem from exact ranks:
the rank of the middle catalecticant gives the level, and that of a
Sylvester matrix decides square-freeness.

Rank over F_p can differ from rank over the complex numbers; every result
here is tagged by the field it was computed in and is never silently
promoted.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from . import rings
from .errors import CapExceeded, TensorlabError, ValidationError
from .linalg import Matrix, nullspace_exact, rank_exact, rank_numeric
from .rings import RATIONAL
from .tensors import MAX_FACTORS, Bipartition, DenseTensor, braid, flatten

BRUTE_FORCE_PRIMES = (2, 3, 5)


@dataclass(frozen=True)
class MultilinearRank:
    """Per-factor flattening ranks (r_1, ..., r_n)."""

    ranks: tuple[int, ...]

    def __iter__(self):
        return iter(self.ranks)


def f_rank(t: DenseTensor, b: Bipartition, rel_tol: float = 1e-8) -> int:
    """Rank of the tensor viewed as a matrix under the given bipartition."""
    m = flatten(t, b)
    if t.ring.kind == "float":
        return rank_numeric(m, rel_tol)
    return rank_exact(m)


def multilinear_rank(t: DenseTensor, rel_tol: float = 1e-8) -> MultilinearRank:
    """Mode-i flattening rank for every factor position i."""
    if t.order < 2:
        raise ValidationError("multilinear rank needs at least 2 factors")
    out = []
    for i in range(t.order):
        out.append(f_rank(t, Bipartition.of([i], t.order), rel_tol))
    return MultilinearRank(tuple(out))


def all_bipartitions(order: int):
    """Every bipartition up to complement (left part containing position 0)."""
    rest = list(range(1, order))
    for k in range(0, order - 1):
        for extra in itertools.combinations(rest, k):
            yield Bipartition.of((0,) + extra, order)


def border_rank_lower_bound(
    t: DenseTensor, rel_tol: float = 1e-8, mode_ranks: Optional[Sequence[int]] = None
) -> int:
    """Max flattening rank over all bipartitions: a valid border-rank bound.

    mode_ranks, when given, are t's `multilinear_rank`: a bipartition that
    splits off one position takes that mode's rank instead of being ranked
    again.
    """
    if t.order < 2:
        raise ValidationError("needs at least 2 factors")

    def rank(b: Bipartition) -> int:
        single = b.left if len(b.left) == 1 else b.right
        if mode_ranks is not None and len(single) == 1:
            return mode_ranks[single[0]]
        return f_rank(t, b, rel_tol)

    return max(map(rank, all_bipartitions(t.order)))


def w_state(n: int) -> DenseTensor:
    """Sum over positions k of x⊗...⊗y(at k)⊗...⊗x with x = e1, y = e2.

    A symmetric n-factor binary tensor of border rank 2 whose rank grows
    with n (certified exactly for n = 3 by the F_p search).  n is checked
    against MAX_FACTORS before the 2^n entries are built.
    """
    if not 2 <= n <= MAX_FACTORS:
        raise ValidationError(f"w_state needs 2 <= n <= {MAX_FACTORS}")
    shape = (2,) * n
    data = [0] * (2**n)
    for k in range(n):
        data[1 << (n - 1 - k)] = 1  # row-major: factor k contributes 2^(n-1-k)
    return DenseTensor(shape, tuple(data), RATIONAL)


def w_state_certificate(n: int) -> list[list[tuple[int, ...]]]:
    """Explicit n-term rank-one summands reconstructing w_state(n)."""
    if n < 2:
        raise ValidationError("w_state needs n >= 2")
    x, y = (1, 0), (0, 1)
    return [[y if j == k else x for j in range(n)] for k in range(n)]


# ---------------------------------------------------------------------------
# exhaustive rank over F_p
#
# Rank-one summands are normalized so every factor except the last has its
# first nonzero coordinate equal to 1; the last factor is then determined by
# a linear solve.  So t has rank <= r iff some r "prefix" candidates (the
# normalized rank-one tensors of the other factors) span a space containing
# the slice span S of t.  With s = dim S and k = r - s, that holds iff some
# space V = S + <u_1, ..., u_k> spanned by S and k candidates is spanned by
# the candidates inside it: a covering set spans such a V (extended by
# outside candidates when its span is smaller), and a basis of V from its
# inside candidates covers S.  The search enumerates u_1 < ... < u_(k-1) by
# index and then every u_k at once, by grouping the candidates by their
# line in F_p^n / (S + <u_1, ..., u_(k-1)>); the choices of u_(k-1) below
# one node are decided together, as the rows of one array.
# ---------------------------------------------------------------------------

def _normalized_vectors(dim: int, p: int):
    """All vectors in F_p^dim with first nonzero coordinate equal to 1."""
    for lead in range(dim):
        tail_len = dim - lead - 1
        for tail in itertools.product(range(p), repeat=tail_len):
            yield (0,) * lead + (1,) + tail


class _PackedFp:
    """Vectors of F_p^n packed in one int each, for p in BRUTE_FORCE_PRIMES.

    - p = 2: coordinate i is bit i, and addition is XOR.
    - p = 3: the pair of masks (ones, twos), ones in bits 0..n-1 and twos in
      bits n..2n-1.  Negation swaps the halves; addition takes six bitwise
      operations on the halves.
    - p = 5: coordinate i is the 4-bit lane at bit 4i.  A lane sum is at
      most 8, and it wraps by subtracting 5 where adding 3 reaches bit 3.

    Every operation is a few bitwise and integer operations, so it acts
    alike on one Python int and elementwise on a numpy array of them:
    int64 while a packed vector fits in 62 bits, an object array beyond.
    """

    def __init__(self, p: int, n: int):
        self.p, self.n = p, n
        self.lane = 4 if p == 5 else 1
        self.units = sum(1 << (self.lane * i) for i in range(n))  # 1 in every lane
        self.dtype = np.int64 if _packed_bits(p, n) <= 62 else object

    def pack(self, values) -> int:
        out = 0
        for i, x in enumerate(values):
            x %= self.p
            if self.p == 3 and x == 2:
                out |= 1 << (self.n + i)
            elif x:
                out |= x << (self.lane * i)
        return out

    def coef(self, v, i):
        """The coordinate i of v, in [0, p); v and i may be arrays."""
        if self.p == 3:
            return (v >> i & 1) | (v >> (self.n + i) & 1) << 1
        return v >> (self.lane * i) & (1 if self.p == 2 else 15)

    def add(self, a, b):
        if self.p == 2:
            return a ^ b
        if self.p == 3:
            mask = self.units
            a1, a2, b1, b2 = a & mask, a >> self.n, b & mask, b >> self.n
            t = (a1 | b2) ^ (a2 | b1)
            return ((a2 | b2) ^ t) | ((a1 | b1) ^ t) << self.n
        s = a + b
        return s - 5 * ((s + 3 * self.units) >> 3 & self.units)

    def neg(self, a):
        if self.p == 2:
            return a
        if self.p == 3:
            return (a & self.units) << self.n | a >> self.n
        return 5 * ((a | a >> 1 | a >> 2) & self.units) - a

    def times(self, a, c: int):
        c %= self.p
        if c == 0:
            return a & 0
        if c in (2, 3) and self.p == 5:
            a, c = self.add(a, a), 5 - 2 * c  # 2a, or 3a = -(2a)
        return a if c == 1 else self.neg(a)

    def line_key(self, v):
        """The least of the nonzero multiples of v: one key per line."""
        least = np.minimum if isinstance(v, np.ndarray) else min
        if self.p == 2:
            return v
        key = least(v, self.neg(v))
        if self.p == 5:
            d = self.add(v, v)
            key = least(key, least(d, self.neg(d)))
        return key

    def pivots(self, v: np.ndarray) -> np.ndarray:
        """The first nonzero coordinate of each (nonzero) entry of v."""
        if self.p == 3:
            v = (v | v >> self.n) & self.units
        elif self.p == 5:
            v = (v | v >> 1 | v >> 2) & self.units
        low = v & -v  # a power of two, so exact as a float
        return (np.frexp(np.asarray(low, dtype=float))[1] - 1) // self.lane

    def clear(self, v: np.ndarray, heads: np.ndarray, slot: np.ndarray) -> np.ndarray:
        """v[j] minus the multiple of heads[slot[j]] that clears it at the
        pivot of that head; v and slot broadcast together."""
        pivots = self.pivots(heads)
        inverse = np.array([0] + [pow(c, -1, self.p) for c in range(1, self.p)])
        scale = inverse[self.coef(heads, pivots).astype(np.int64, copy=False)]
        c = self.coef(v, pivots[slot]).astype(np.int64, copy=False) * scale[slot]
        multiples = np.stack([self.times(heads, x) for x in range(self.p)])
        return self.add(v, multiples[-c % self.p, slot])


def _prefix_candidates(field: _PackedFp, dims: Sequence[int]) -> np.ndarray:
    """The normalized rank-one tensors of the given shape, flattened
    row-major and packed, in itertools.product order of `_normalized_vectors`.

    Built from the last factor back: with T the packed tensors of the later
    factors (m coordinates), u (x) T is the sum over i of u_i T shifted to
    coordinates i*m and on, one array pass per coordinate of u.
    """
    out, m = np.ones(1, dtype=field.dtype), 1
    for d in reversed(dims):
        count = (field.p**d - 1) // (field.p - 1)
        flat = itertools.chain.from_iterable(_normalized_vectors(d, field.p))
        vecs = np.fromiter(flat, dtype=np.int8, count=count * d).reshape(count, d)
        multiples = np.stack([field.times(out, c) for c in range(field.p)])
        new = np.zeros((len(vecs), len(out)), dtype=field.dtype)
        for i in range(d):
            new |= multiples[vecs[:, i]] << (field.lane * i * m)
        out, m = new.reshape(-1), m * d
    return out


def _independent(field: _PackedFp, values: np.ndarray, group: np.ndarray, groups: int,
                 limit: int, pickable: Optional[np.ndarray] = None) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian elimination in every group of rows at once.

    group[j] in range(groups) is the group of row j, nondecreasing in j.
    Each step picks, in every group, its first pickable row not yet in the
    span of the group's picks, and clears each row of the group at that
    row's pivot, a few array passes over the rows not yet cleared.  Returns
    the picks, a (limit, groups) array of row indices with -1 once a group
    has no more, and the rows reduced modulo their group's picks.
    """
    values = values.copy()
    picks = np.full((limit, groups), -1)
    slot_of = np.full(groups, -1)
    for j in range(limit):
        live = np.flatnonzero(values)
        heads = live if pickable is None else live[pickable[live]]
        if not len(heads):
            break
        g = group[heads]
        first = np.empty(len(g), dtype=bool)  # the first pickable live row of each group
        first[0] = True
        np.not_equal(g[1:], g[:-1], out=first[1:])
        heads = heads[first]
        picks[j, group[heads]] = heads
        slot_of[:] = -1
        slot_of[group[heads]] = np.arange(len(heads))
        slot = slot_of[group[live]]
        live, slot = live[slot >= 0], slot[slot >= 0]
        values[live] = field.clear(values[live], values[heads], slot)
    return picks, values


# Work of the search in candidate steps, a step being about one array
# operation on one packed candidate.  Building the candidates costs a step
# a candidate and factor coordinate.  A search node at level r costs r steps
# a candidate (a leaf eliminates up to r times over the candidates, an
# inner node reduces them once) and COVER_NODE_STEPS more for the Python
# and numpy call overhead, most of it shared by the leaves of one batch.
# A candidate counts COVER_WIDE_STEPS once packed vectors pass 62 bits and
# the arrays hold Python ints.  Calibrated on random tensors admitted just
# under the cap (2 logical cores, Python 3.11; see CHANGES.md).
# COVER_MAX_BYTES bounds memory: the search holds about ten arrays of the
# candidates at once, and each takes 8 bytes a candidate in int64 and about
# 64 in an object array.  A batch of leaves holds arrays of LEAF_BATCH
# entries.
COVER_NODE_STEPS = 1000
COVER_WIDE_STEPS = 32
COVER_SEARCH_WORK_CAP = 4 * 10**8
COVER_MAX_BYTES = 2**23
LEAF_BATCH = 2**15


def _packed_bits(p: int, n: int) -> int:
    return n * {2: 1, 3: 2, 5: 4}[p]


def _cover_nodes(n_cands: int, k: int) -> int:
    """Search nodes at slack k: a rank test, or sum_(j<k) C(n_cands, j) at most."""
    return 1 if k == 0 else sum(math.comb(n_cands, j) for j in range(k))


def _cover_work(p: int, dims: Sequence[int], s: int, levels) -> int:
    """Estimated candidate steps to build the candidates of the factor
    dimensions dims and search each level r (slice-span dimension s); the
    sum stops once it passes COVER_SEARCH_WORK_CAP."""
    n_cands = math.prod((p**d - 1) // (p - 1) for d in dims)
    per_cand = 1 if _packed_bits(p, math.prod(dims)) <= 62 else COVER_WIDE_STEPS
    work = n_cands * sum(dims) * per_cand
    for r in levels:
        if work > COVER_SEARCH_WORK_CAP:
            break
        work += _cover_nodes(n_cands, r - s) * (r * n_cands * per_cand + COVER_NODE_STEPS)
    return work


def _cover_search(field: _PackedFp, cands: np.ndarray, slices: np.ndarray, r: int,
                  stats: Optional[dict] = None) -> Optional[list[int]]:
    """Indices of at most r candidates whose span contains the slice span, or None.

    cands holds the packed candidates, and slices packed vectors spanning
    the slice span S (see the section comment for the search).  With k = r -
    dim S, k = 0 is one rank test of the candidates inside S.  Otherwise a
    DFS picks u_1 < ... < u_(k-1) outside the span so far, keeping every
    candidate reduced modulo it, and skips a pick on the line of an earlier
    sibling (same span, fewer later picks).  At V' = S + <u_1, ..., u_(k-1)>,
    of dimension r - 1, let R be the span of the candidates inside V'.  The
    candidates outside V' fall into lines of F_p^n / V', and the line of u_k
    holds what V' + <u_k> adds to them, so u_k passes iff that line's
    candidates have rank r - dim R modulo R; a line with fewer members fails
    at once.  The leaves below one node, one per choice of u_(k-1), are
    decided together: R and the line ranks come from one elimination over
    all of them (`_independent`), LEAF_BATCH candidate rows at a time.
    stats["nodes"] counts the nodes, at most `_cover_nodes(len(cands), k)`.
    """
    r = min(r, field.n)
    rows = np.concatenate([slices, cands])
    basis, rows = _independent(field, rows, np.zeros(len(rows), dtype=np.int64), 1, len(slices),
                               np.arange(len(rows)) < len(slices))
    res = rows[len(slices):]  # the candidates modulo S
    k = r - int((basis >= 0).sum())
    if k < 0:
        return None
    nodes = 0

    def last_picks(rows: np.ndarray) -> Optional[list[int]]:
        """Row a holds the candidates reduced modulo a space V'_a of
        dimension r - 1: the witness for the first V'_a that some u_k
        completes, or None."""
        m, n_cands = rows.shape
        keys = field.line_key(rows)  # 0 exactly inside V'_a
        order = np.argsort(keys, axis=1, kind="stable")
        keys = np.take_along_axis(keys, order, axis=1)
        inside = keys == 0
        starts = np.ones((m, n_cands), dtype=bool)
        np.not_equal(keys[:, 1:], keys[:, :-1], out=starts[:, 1:])
        run = np.cumsum(starts) - 1  # runs of one line, never across rows
        run_len = np.bincount(run)[run].reshape(m, n_cands)
        # a line passes only with r - dim R members or more, where dim R of
        # the span R of the candidates inside is at most their count
        least = np.maximum(r - inside.sum(axis=1), 1)
        lines = ~inside & (run_len >= least[:, None])
        kept = (inside | lines) & lines.any(axis=1)[:, None]
        a, j = np.nonzero(kept)
        if not len(a):
            return None
        index, run, run_len = order[a, j], run.reshape(m, n_cands)[a, j], run_len[a, j]
        _, child = np.unique(a, return_inverse=True)
        # R_a, the span of the candidates inside V'_a, and every candidate
        # reduced modulo it
        base, rest = _independent(field, cands[index], child, child[-1] + 1, r - 1, inside[a, j])
        need = r - (base >= 0).sum(axis=0)
        out = ~inside[a, j] & (run_len >= need[child])
        if not out.any():
            return None
        _, line = np.unique(run[out], return_inverse=True)
        line_child = np.empty(line[-1] + 1, dtype=np.int64)
        line_child[line] = child[out]
        picks, _ = _independent(field, rest[out], line, len(line_child), int(need.max()))
        full = np.flatnonzero((picks >= 0).sum(axis=0) >= need[line_child])
        if not len(full):
            return None
        g = full[0]
        chosen = base[:, line_child[g]]
        return index[chosen[chosen >= 0]].tolist() + index[out][picks[:need[line_child[g]], g]].tolist()

    def descend(res, start: int, depth: int) -> Optional[list[int]]:
        nonlocal nodes
        nodes += 1
        lines, first = np.unique(field.line_key(res[start:]), return_index=True)
        picks = start + np.sort(first[lines != 0])  # the first pick on each line
        if depth == k - 2:
            step = max(1, LEAF_BATCH // len(res))
            for i in range(0, len(picks), step):
                chunk = picks[i : i + step]
                nodes += len(chunk)
                found = last_picks(field.clear(res[None, :], res[chunk], np.arange(len(chunk))[:, None]))
                if found is not None:
                    return found
            return None
        for i in picks.tolist():
            found = descend(field.clear(res, res[i : i + 1], 0), i + 1, depth + 1)
            if found is not None:
                return found
        return None

    if k == 0:
        nodes = 1
        inside = np.flatnonzero(res == 0)
        picks, _ = _independent(field, cands[inside], np.zeros(len(inside), dtype=np.int64), 1, r)
        found = inside[picks[:, 0]].tolist() if picks[-1, 0] >= 0 else None
    elif k == 1:
        nodes = 1
        found = last_picks(res[None, :])
    else:
        found = descend(res, 0, 0)
    if stats is not None:
        stats["nodes"] = stats.get("nodes", 0) + nodes
    return found


def _solve_mode_last(
    t: DenseTensor, mode_ranks: Optional[Sequence[int]] = None
) -> tuple[DenseTensor, int, int]:
    """t with its solved-for factor moved last, that factor's mode rank, and
    the number of prefix candidates.

    The solved-for factor is the one with the largest mode rank, which
    keeps the slack r - dim S as small as possible; ties go to the fewest
    candidates.  mode_ranks, when given, are t's `multilinear_rank`.
    """
    p = t.ring.p
    if mode_ranks is None:
        mode_ranks = multilinear_rank(t).ranks
    counts = [(p**d - 1) // (p - 1) for d in t.shape]
    n_cands = [math.prod(counts) // counts[i] for i in range(t.order)]
    mode = max(range(t.order), key=lambda i: (mode_ranks[i], -n_cands[i]))
    if mode != t.order - 1:
        t = braid(t, [i for i in range(t.order) if i != mode] + [mode])
    return t, mode_ranks[mode], n_cands[mode]


def _cover_problem(t: DenseTensor) -> tuple[_PackedFp, np.ndarray, np.ndarray]:
    """The packing, the packed prefix candidates and the packed slices of t,
    whose last factor is the solved-for one."""
    m = flatten(t, Bipartition.of(tuple(range(t.order - 1)), t.order))
    field = _PackedFp(t.ring.p, m.rows)
    slices = [field.pack(m.entries[j :: m.cols]) for j in range(m.cols)]
    return field, _prefix_candidates(field, t.shape[:-1]), np.array(slices, dtype=field.dtype)


def exact_rank_bruteforce(
    t: DenseTensor, r_max: int, mode_ranks: Optional[Sequence[int]] = None
) -> Optional[int]:
    """Smallest r <= r_max with t a sum of r rank-one tensors over F_p.

    Returns None when the rank exceeds r_max ("exceeds r_max").  Exact; only
    F_p with p in BRUTE_FORCE_PRIMES is accepted.  One factor is solved for
    (see `_solve_mode_last`), and `_cover_search` decides each r from the
    slice-span dimension s up to n - 1, where n, the coordinate count of
    the other factors, bounds the rank.  Before any candidate is built, the
    bytes of one candidate array and the work of every level up to r_max in
    candidate steps (`_cover_work`) are estimated; an estimate over
    COVER_MAX_BYTES or COVER_SEARCH_WORK_CAP raises CapExceeded.
    mode_ranks, when given, are t's `multilinear_rank`, which is not
    computed again.
    """
    if t.ring.kind != "fp" or t.ring.p not in BRUTE_FORCE_PRIMES:
        raise ValidationError(f"brute force needs F_p with p in {BRUTE_FORCE_PRIMES}")
    if t.order < 2:
        raise ValidationError("rank search needs at least 2 factors")
    if t.is_zero():
        return 0
    t, s, n_cands = _solve_mode_last(t, mode_ranks)
    dims = t.shape[:-1]
    n_coords = math.prod(dims)
    # s <= rank <= n_coords, the coordinate tensors being candidates: only
    # the levels in between are searched
    levels = range(s, min(r_max, n_coords - 1) + 1)
    if not levels:
        return n_coords if r_max >= n_coords else None
    size = n_cands * (8 if _packed_bits(t.ring.p, n_coords) <= 62 else 64)
    if size > COVER_MAX_BYTES:
        raise CapExceeded(
            f"rank search over {n_cands} candidates needs {size} bytes an array, "
            f"over the limit of {COVER_MAX_BYTES}"
        )
    work = _cover_work(t.ring.p, dims, s, levels)
    if work > COVER_SEARCH_WORK_CAP:
        raise CapExceeded(
            f"rank search up to r = {r_max} over {n_cands} candidates needs at least "
            f"{work} candidate steps, over the limit of {COVER_SEARCH_WORK_CAP}"
        )
    field, cands, slices = _cover_problem(t)
    for r in levels:
        if _cover_search(field, cands, slices, r) is not None:
            return r
    return n_coords if r_max >= n_coords else None


# ---------------------------------------------------------------------------
# symmetric rank of binary forms via catalecticant (Hankel) kernels
# ---------------------------------------------------------------------------

def normalized_form_coefficients(coeffs: Sequence) -> list[Fraction]:
    """Divide out binomials: F = sum_k C(d,k) a_k x^(d-k) y^k."""
    d = len(coeffs) - 1
    if d < 0 or all(c == 0 for c in coeffs):
        raise ValidationError("zero binary form")
    return [Fraction(c) / math.comb(d, k) for k, c in enumerate(coeffs)]


def catalecticant(coeffs: Sequence, s: int) -> Matrix:
    """Hankel matrix [a_(i+j)] with rows 0..d-s and columns 0..s."""
    a = normalized_form_coefficients(coeffs)
    d = len(coeffs) - 1
    if not 1 <= s <= d:
        raise ValidationError("catalecticant level out of range")
    return Matrix.from_rows(
        [[a[i + j] for j in range(s + 1)] for i in range(d - s + 1)], RATIONAL
    )


def _poly_deg(c: Sequence[Fraction]) -> int:
    for i in range(len(c) - 1, -1, -1):
        if c[i] != 0:
            return i
    return -1


def _sylvester_matrix(a: list, b: list) -> Matrix:
    """Sylvester matrix of two polynomials with nonzero leading coefficients
    (coefficient lists, constant term first): deg b shifts of a, then deg a
    shifts of b.  Its rank is deg a + deg b - deg gcd(a, b)."""
    m, n = len(a) - 1, len(b) - 1
    rows = [[0] * i + a + [0] * (n - 1 - i) for i in range(n)]
    return Matrix.from_rows(rows + [[0] * i + b + [0] * (m - 1 - i) for i in range(m)], RATIONAL)


def is_squarefree_binary(g: Sequence) -> bool:
    """Square-freeness of the homogeneous binary form sum_j g_j u^(s-j) v^j:
    P(t) = g(1, t) is square-free iff the Sylvester matrix of P and P' has
    full rank 2 deg P - 1, as gcd(P, P') is then constant."""
    s = len(g) - 1
    univ = [Fraction(c) for c in g]  # P(t) = g(1, t)
    deg = _poly_deg(univ)
    if deg < 0 or s - deg > 1:  # the zero form, or a root at (0:1) with multiplicity >= 2
        return False
    if deg == 0:
        return True  # c*u^s with s <= 1 by the multiplicity check above
    univ = univ[: deg + 1]
    deriv = [i * univ[i] for i in range(1, deg + 1)]
    return rank_exact(_sylvester_matrix(univ, deriv)) == 2 * deg - 1


def _squarefree_kernel_vector(kernel: list[list], s: int) -> Optional[list[Fraction]]:
    """Search the kernel span for a square-free degree-s form.

    Affine charts over each basis vector with a grid wide enough to beat the
    degree of the discriminant locus, so the search is complete.
    """
    dim = len(kernel)
    if dim == 0:
        return None
    grid = range(max(2 * s - 1, 1))
    budget = 200000
    for lead in range(dim):
        others = [kernel[j] for j in range(dim) if j != lead]
        combos = itertools.product(grid, repeat=len(others))
        for ts in combos:
            budget -= 1
            if budget < 0:
                raise CapExceeded("square-free kernel search exceeded 200000 candidates")
            vec = [Fraction(x) for x in kernel[lead]]
            for t, other in zip(ts, others):
                if t:
                    for i, x in enumerate(other):
                        vec[i] += t * Fraction(x)
            if any(vec) and is_squarefree_binary(vec):
                return vec
    return None


def apolar_kernel_form(coeffs: Sequence) -> tuple[int, list[Fraction]]:
    """Smallest level s with a square-free kernel form, plus the form.

    By Sylvester's theorem the apolar ideal is generated by forms g1 and g2
    of degrees r <= d - r + 2 without a common root, so the catalecticant at
    level s has rank min(s + 1, r, d - s + 1): the middle one, at level
    max(1, d // 2), has rank r, and level r is the first with a kernel.
    Every kernel form below level d - r + 2 is a multiple of g1.  The rank
    is r if g1 is square-free (always so for r = 1) and d - r + 2 <= d
    otherwise: one rank and at most two kernels decide it.
    """
    d = len(coeffs) - 1
    normalized_form_coefficients(coeffs)  # validates nonzero
    if d < 1:
        raise ValidationError("a binary form needs degree at least 1")
    r = rank_exact(catalecticant(coeffs, max(1, d // 2)))
    for s in (r, d - r + 2):
        kernel = nullspace_exact(catalecticant(coeffs, s))
        if not kernel:
            break
        g = _squarefree_kernel_vector(kernel, s)
        if g is not None:
            return s, g
    raise TensorlabError(f"no square-free form in the kernel at Sylvester level {s}; this is a bug")


def sylvester_symmetric_rank_binary(coeffs: Sequence) -> int:
    """Symmetric (Waring) rank of a binary form given by its coefficients.

    coeffs[k] is the coefficient of x^(d-k) y^k; the rank is the first
    catalecticant level whose kernel contains a square-free form.
    """
    s, _ = apolar_kernel_form(coeffs)
    return s
