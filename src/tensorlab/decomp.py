"""Decomposition-level certificates: the symmetry lemma for minimal
decompositions, Kruskal k-ranks and the classical uniqueness condition,
power-sum decompositions of binary forms, and direct-sum additivity
experiments over small prime fields.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from . import rings
from .errors import CapExceeded, TensorlabError, ValidationError
from .linalg import (
    WORD_PRIME,
    Matrix,
    _clear_denominators,
    _fp_eliminate,
    matrix_from_vectors,
    rank_exact,
    ranks_mod_p,
    solve_exact,
)
from .ranks import apolar_kernel_form, exact_rank_bruteforce, f_rank
from .rings import RATIONAL, Ring
from .tensors import Bipartition, DenseTensor, flatten, is_symmetric, multi_indices, rank_one, zeros

KRUSKAL_COLUMN_CAP = 12


@dataclass(frozen=True)
class Decomposition:
    """An ordered list of rank-one summands, each a list of factor vectors."""

    shape: tuple[int, ...]
    ring: Ring
    summands: tuple[tuple[tuple, ...], ...]

    def __post_init__(self):
        for summand in self.summands:
            if len(summand) != len(self.shape):
                raise ValidationError("summand factor count does not match shape")
            for v, d in zip(summand, self.shape):
                if len(v) != d:
                    raise ValidationError("factor vector length does not match shape")
                if all(rings.is_zero(x, self.ring) for x in v):
                    raise ValidationError("zero factor vector in a summand")

    def __len__(self) -> int:
        return len(self.summands)

    @staticmethod
    def from_vectors(summands: Sequence[Sequence[Sequence]], ring: Ring = RATIONAL) -> "Decomposition":
        packed = tuple(
            tuple(tuple(rings.coerce(x, ring) for x in v) for v in summand)
            for summand in summands
        )
        if not packed:
            raise ValidationError("empty decomposition")
        shape = tuple(len(v) for v in packed[0])
        return Decomposition(shape, ring, packed)

    def reconstruct(self) -> DenseTensor:
        total = zeros(self.shape, self.ring)
        for summand in self.summands:
            total = total + rank_one(summand, self.ring)
        return total

    def factor_matrix(self, j: int) -> Matrix:
        """Matrix whose i-th column is the j-th factor vector of summand i."""
        cols = [s[j] for s in self.summands]
        return Matrix.from_rows(
            [[cols[i][row] for i in range(len(cols))] for row in range(self.shape[j])],
            self.ring,
        )

    def to_json(self) -> str:
        return json.dumps(
            {
                "shape": list(self.shape),
                "ring": str(self.ring),
                "summands": [
                    [[rings.format_scalar(x, self.ring) for x in v] for v in summand]
                    for summand in self.summands
                ],
            },
            sort_keys=True,
        )

    @staticmethod
    def from_json(text: str) -> "Decomposition":
        try:
            obj = json.loads(text)
            ring = rings.parse_ring(obj["ring"])
            summands = [
                [[rings.parse_scalar(x, ring) for x in v] for v in summand]
                for summand in obj["summands"]
            ]
        except (KeyError, ValueError, TypeError, json.JSONDecodeError) as exc:
            raise ValidationError(f"bad decomposition JSON: {exc}") from exc
        return Decomposition.from_vectors(summands, ring)


# ---------------------------------------------------------------------------
# the symmetry lemma for decompositions of symmetric tensors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GrossReport:
    """Outcome of the independence-implies-symmetry certificate.

    independence maps each index subset I (|I| = d-2) to whether the
    projected summands were linearly independent.  When every check passes,
    certificates[i] lists scalars lam_k with a_i^(k) = lam_k * a_i^(1), so
    the verdict "symmetric" is established constructively.  When some check
    fails the hypothesis is not met and nothing is claimed either way.
    """

    independence: dict[tuple[int, ...], bool]
    hypothesis_met: bool
    symmetric_verdict: Optional[bool]
    certificates: Optional[tuple[tuple, ...]]

    @property
    def verdict(self) -> str:
        if not self.hypothesis_met:
            return "hypothesis not met"
        return "symmetric" if self.symmetric_verdict else "asymmetric"


def _proportionality_scalar(ref: Sequence, other: Sequence, ring: Ring):
    """Scalar lam with other = lam * ref, or None; ref keyed by its first
    nonzero coordinate."""
    pivot = next((i for i, x in enumerate(ref) if not rings.is_zero(x, ring)), None)
    if pivot is None:
        return None
    if ring.kind == "fp":
        lam = other[pivot] * pow(ref[pivot], -1, ring.p) % ring.p
    else:
        lam = Fraction(other[pivot]) / Fraction(ref[pivot])
        lam = lam.numerator if lam.denominator == 1 else lam
    for x, y in zip(ref, other):
        if not rings.is_zero(y - lam * x, ring):
            return None
    return lam


def gross_check(t: DenseTensor, d: Decomposition) -> GrossReport:
    """Certify symmetry of a decomposition of a symmetric tensor.

    For every subset I of factor positions with |I| = d-2 the projected
    summands must be linearly independent; the dual basis then contracts the
    tensor to rank-one symmetric 2-tensors, forcing the two complementary
    factors of every summand to be proportional.
    """
    order = len(t.shape)
    if order <= 2:
        raise ValidationError("the lemma needs more than 2 factors")
    if not is_symmetric(t):
        raise ValidationError("input tensor is not symmetric")
    if d.shape != t.shape or d.ring != t.ring:
        raise ValidationError("decomposition does not match the tensor")
    if d.reconstruct().data != t.data:
        raise ValidationError("decomposition does not reconstruct the tensor")

    r = len(d)
    independence: dict[tuple[int, ...], bool] = {}
    projections: dict[tuple[int, ...], Matrix] = {}
    for I in itertools.combinations(range(order), order - 2):
        rows = []
        for summand in d.summands:
            proj = rank_one([summand[j] for j in I], d.ring) if len(I) > 1 else None
            rows.append(proj.data if proj is not None else summand[I[0]])
        w = matrix_from_vectors(rows, d.ring)
        projections[I] = w
        independence[I] = rank_exact(w) == r

    if not all(independence.values()):
        return GrossReport(independence, False, None, None)

    # pairwise proportionality via the dual-basis contractions alpha_i(T)
    proportional: dict[tuple[int, int], list] = {}
    for I, w in projections.items():
        k, l = [p for p in range(order) if p not in I]
        # rows alpha_i with alpha_i(w_j) = delta_ij; W X = I is solvable over
        # any field because the projections are independent
        dual_t = solve_exact(w, Matrix.identity(r, d.ring))
        if dual_t is None:
            raise TensorlabError("dual basis solve failed despite independence")
        dual = dual_t.transpose()
        m = flatten(t, Bipartition.of(I, order))
        contracted = dual.matmul(m)  # row i = alpha_i(T), a d_k x d_l matrix
        dim = t.shape[k]
        scalars = []
        for i, summand in enumerate(d.summands):
            block = Matrix(dim, dim, tuple(contracted.row(i)), d.ring)
            if block.entries != block.transpose().entries:
                raise TensorlabError("contraction of a symmetric tensor must be symmetric")
            expected = rank_one([summand[k], summand[l]], d.ring)
            if tuple(expected.data) != block.entries:
                raise TensorlabError("dual-basis contraction disagrees with the summand")
            lam = _proportionality_scalar(summand[k], summand[l], d.ring)
            if lam is None:
                raise TensorlabError(
                    "independent projections but non-proportional factors; "
                    "this contradicts the lemma"
                )
            scalars.append(lam)
        proportional[(k, l)] = scalars

    # normalize: express every factor against factor 0 of its summand
    certificates = []
    for i, summand in enumerate(d.summands):
        lams = [rings.one(d.ring)]
        for k in range(1, order):
            lam = _proportionality_scalar(summand[0], summand[k], d.ring)
            if lam is None:
                raise TensorlabError("pairwise proportionality failed to chain")
            lams.append(lam)
        certificates.append(tuple(lams))
    return GrossReport(independence, True, True, tuple(certificates))


def gross_minimality_check(t: DenseTensor, d: Decomposition) -> bool:
    """True iff |D| equals a contiguous-split flattening rank of t.

    This certifies that D is a minimal decomposition (and hence symmetric,
    by the first assertion of the lemma).
    """
    order = len(t.shape)
    if order <= 2:
        raise ValidationError("needs more than 2 factors")
    if d.reconstruct().data != t.data:
        raise ValidationError("decomposition does not reconstruct the tensor")
    for k in range(1, order):
        if f_rank(t, Bipartition.of(tuple(range(k)), order)) == len(d):
            return True
    return False


# ---------------------------------------------------------------------------
# Kruskal ranks and the uniqueness condition
# ---------------------------------------------------------------------------

def kruskal_rank(m: Matrix) -> int:
    """Largest k such that every k columns of m are linearly independent.

    For each k, all C(cols, k) column subsets are ranked in one stacked call
    to `ranks_mod_p`, on the echelon form mod p of m.  Over F_p that rank is
    exact.  Over Q each row is first scaled to integers, which keeps the
    same columns independent, and ranked mod `WORD_PRIME`: a full rank mod p
    certifies independence over Q, and a subset that falls short mod p is
    confirmed by Bareiss `rank_exact` before k stops, so the result is exact
    in both rings.
    """
    if m.cols > KRUSKAL_COLUMN_CAP:
        raise CapExceeded(f"{m.cols} columns exceed the Kruskal cap {KRUSKAL_COLUMN_CAP}")
    cols = [tuple(m.entries[i * m.cols + j] for i in range(m.rows)) for j in range(m.cols)]
    for j, col in enumerate(cols):
        if all(rings.is_zero(x, m.ring) for x in col):
            return 0
    if m.ring.kind == "float":
        raise ValidationError("kruskal_rank needs an exact ring")
    p = m.ring.p if m.ring.kind == "fp" else WORD_PRIME
    rows = [[x % p for x in row] for row in _clear_denominators(m)[0]]
    # row operations keep the rank mod p of every column subset, and leave at
    # most cols nonzero rows, so the stacks below do not grow with m.rows
    rank = len(_fp_eliminate(rows, p)[0])
    residues = np.array(rows[:rank], dtype=np.int64).reshape(rank, m.cols)
    best = 0
    for k in range(1, min(m.rows, m.cols) + 1):
        subsets = list(itertools.combinations(range(m.cols), k))
        ranks = ranks_mod_p(residues[:, subsets].transpose(1, 0, 2), p)
        short = (subsets[i] for i in np.flatnonzero(ranks < k))
        if any(
            m.ring.kind == "fp"
            or rank_exact(matrix_from_vectors([cols[j] for j in subset], m.ring)) < k
            for subset in short
        ):
            break
        best = k
    return best


def kruskal_uniqueness(d: Decomposition, k_ranks: Optional[Sequence[int]] = None) -> bool:
    """Classical three-factor uniqueness test: k1 + k2 + k3 >= 2r + 2.

    k_ranks, when given, are the factor matrices' Kruskal ranks as
    `kruskal_rank` computes them, so a caller that reports them does not
    pay for them twice; otherwise they are computed here.  Rank-one
    decompositions are unique projectively, so r = 1 returns True by
    convention even though the inequality is vacuous there.
    """
    if len(d.shape) != 3:
        raise ValidationError("the uniqueness test needs exactly 3 factors")
    r = len(d)
    if r == 1:
        return True
    if k_ranks is None:
        k_ranks = [kruskal_rank(d.factor_matrix(j)) for j in range(3)]
    return sum(k_ranks) >= 2 * r + 2


# ---------------------------------------------------------------------------
# power-sum (Waring) decompositions of binary forms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PowerSumDecomposition:
    """F = sum_i c_i (alpha_i x + beta_i y)^d.

    exact is True when the nodes are rational and the reconstruction is
    exact; on the float path nodes and coefficients may be complex and the
    stored residual bounds the relative reconstruction error.
    """

    degree: int
    nodes: tuple[tuple, ...]
    coefficients: tuple
    exact: bool
    residual: float

    def reconstruct(self) -> list:
        d = self.degree
        out = [0] * (d + 1)
        for (alpha, beta), c in zip(self.nodes, self.coefficients):
            for k in range(d + 1):
                out[k] += c * math.comb(d, k) * alpha ** (d - k) * beta**k
        return out


def _rational_roots(poly: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    """Split a square-free rational polynomial into rational roots + remainder.

    Returns (roots, remaining coefficients ascending).
    """
    den_lcm = math.lcm(*(c.denominator for c in poly))
    ints = [int(c * den_lcm) for c in poly]
    while ints and ints[-1] == 0:
        ints.pop()
    roots: list[Fraction] = []
    while ints and ints[0] == 0:  # root t = 0
        roots.append(Fraction(0))
        ints = ints[1:]
    changed = True
    while changed and len(ints) > 1:
        changed = False
        a0, an = abs(ints[0]), abs(ints[-1])
        for p in _divisors(a0):
            for q in _divisors(an):
                for cand in (Fraction(p, q), Fraction(-p, q)):
                    if _poly_eval(ints, cand) == 0:
                        roots.append(cand)
                        ints = _deflate(ints, cand)
                        changed = True
                        break
                if changed:
                    break
            if changed:
                break
    return roots, [Fraction(c) for c in ints]


def _divisors(n: int) -> list[int]:
    n = abs(n)
    if n == 0:
        return [1]
    out = [d for d in range(1, int(math.isqrt(n)) + 1) if n % d == 0]
    return sorted(set(out + [n // d for d in out]))


def _poly_eval(coeffs: Sequence, x):
    out = 0
    for c in reversed(coeffs):
        out = out * x + c
    return out


def _deflate(ints: list[int], root: Fraction) -> list[int]:
    """Divide by (x - root), returning integer coefficients again."""
    coeffs = [Fraction(c) for c in ints]
    # synthetic division; out collects descending quotient coeffs + remainder
    out = [coeffs[-1]]
    for c in reversed(coeffs[:-1]):
        out.append(c + out[-1] * root)
    if out.pop() != 0:
        raise TensorlabError("deflation by a non-root; this is a bug")
    out.reverse()  # ascending quotient coefficients
    lcm = math.lcm(*(c.denominator for c in out))
    return [int(c * lcm) for c in out]


def sylvester_decompose_binary(coeffs: Sequence) -> PowerSumDecomposition:
    """Power-sum decomposition of a binary form from its apolar kernel form.

    The nodes are the projective roots of the first square-free kernel form
    in the catalecticant ladder; coefficients come from an exact linear
    solve when all roots are rational, otherwise from a complex
    least-squares solve against companion-matrix roots.
    """
    d = len(coeffs) - 1
    s, g = apolar_kernel_form(coeffs)
    if g is None:
        raise TensorlabError(
            "no square-free kernel form below the top level: "
            "rank exceeds the generic bound, no decomposition emitted"
        )
    # g_j is the coefficient of u^(s-j) v^j; roots (alpha:beta) give the nodes
    univ = [Fraction(c) for c in g]
    deg = next(i for i in range(len(univ) - 1, -1, -1) if univ[i] != 0)
    nodes: list[tuple] = []
    if s - deg == 1:
        nodes.append((Fraction(0), Fraction(1)))  # root at (0:1)
    rational_roots, leftover = _rational_roots(univ[: deg + 1])
    nodes.extend((Fraction(1), t) for t in rational_roots)

    if len(leftover) <= 1:  # fully split over the rationals: exact path
        mat = Matrix.from_rows(
            [
                [math.comb(d, k) * a ** (d - k) * b**k for (a, b) in nodes]
                for k in range(d + 1)
            ],
            RATIONAL,
        )
        rhs = Matrix.from_rows([[Fraction(c)] for c in coeffs], RATIONAL)
        sol = solve_exact(mat, rhs)
        if sol is None:
            raise TensorlabError("apolar nodes failed to span the form; this is a bug")
        cs = tuple(sol.entries)
        out = PowerSumDecomposition(d, tuple(nodes), cs, True, 0.0)
        recon = out.reconstruct()
        if any(Fraction(a) != Fraction(b) for a, b in zip(recon, coeffs)):
            raise TensorlabError("exact reconstruction failed; this is a bug")
        return out

    # float path: all roots of the kernel form via the companion matrix
    float_nodes: list[tuple] = []
    if s - deg == 1:
        float_nodes.append((0.0 + 0j, 1.0 + 0j))
    roots = np.roots([float(c) for c in reversed(univ[: deg + 1])])
    float_nodes.extend((1.0 + 0j, complex(t)) for t in roots)
    mat = np.array(
        [
            [math.comb(d, k) * a ** (d - k) * b**k for (a, b) in float_nodes]
            for k in range(d + 1)
        ],
        dtype=complex,
    )
    rhs = np.array([float(c) for c in coeffs], dtype=complex)
    cs, *_ = np.linalg.lstsq(mat, rhs, rcond=None)
    resid = float(np.linalg.norm(mat @ cs - rhs) / np.linalg.norm(rhs))
    return PowerSumDecomposition(d, tuple(float_nodes), tuple(cs.tolist()), False, resid)


# ---------------------------------------------------------------------------
# direct-sum additivity experiments over F_p
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StrassenRecord:
    """Brute-force ranks of two tensors and of their direct sum.

    None means the search was inconclusive at the given r_max.  additive is
    None unless all three ranks are known.
    """

    r1: Optional[int]
    r2: Optional[int]
    r_sum: Optional[int]

    @property
    def additive(self) -> Optional[bool]:
        if None in (self.r1, self.r2, self.r_sum):
            return None
        return self.r_sum == self.r1 + self.r2


def direct_sum(t1: DenseTensor, t2: DenseTensor) -> DenseTensor:
    """Block-diagonal embedding into the factor-wise direct sums."""
    if t1.order != t2.order or t1.ring != t2.ring:
        raise ValidationError("direct sum needs matching order and ring")
    shape = tuple(a + b for a, b in zip(t1.shape, t2.shape))
    out = list(zeros(shape, t1.ring).data)
    strides = DenseTensor(shape, tuple(out), t1.ring).strides()
    for t, offset in ((t1, (0,) * t1.order), (t2, t1.shape)):
        for idx, v in zip(multi_indices(t.shape), t.data):
            flat = sum(s * (i + o) for s, i, o in zip(strides, idx, offset))
            out[flat] = v
    return DenseTensor(shape, tuple(out), t1.ring)


def strassen_experiment(t1: DenseTensor, t2: DenseTensor, r_max: int) -> StrassenRecord:
    """Test rank additivity of a direct sum over F_p by exhaustive search."""
    if t1.order != 3 or t2.order != 3:
        raise ValidationError("the experiment needs 3-factor tensors")
    total = direct_sum(t1, t2)
    r1 = exact_rank_bruteforce(t1, r_max)
    r2 = exact_rank_bruteforce(t2, r_max)
    r_sum = exact_rank_bruteforce(total, r_max)
    if None not in (r1, r2, r_sum) and r_sum > r1 + r2:
        raise TensorlabError(
            f"direct-sum rank {r_sum} exceeded {r1} + {r2}; "
            "the subadditivity direction is unconditional, so this is a bug"
        )
    return StrassenRecord(r1, r2, r_sum)
