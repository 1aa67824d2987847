"""Decomposition-level certificates: the symmetry lemma for minimal
decompositions, Kruskal k-ranks and the classical uniqueness condition, and
power-sum decompositions of binary forms.
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
    FLOAT_PRIME,
    EchelonModP,
    Matrix,
    _clear_denominators,
    matrix_from_vectors,
    rank_exact,
    ranks_mod_p,
    solve_exact,
)
from .ranks import _poly_deg, apolar_kernel_form, f_rank
from .rings import RATIONAL, Ring
from .tensors import Bipartition, DenseTensor, is_symmetric, rank_one, zeros

KRUSKAL_COLUMN_CAP = 12
# trial divisions plus root evaluations (each weighted by degree + 1) that _rational_roots
# may spend: about 1 s on one x86-64 core, where trial division up to 10^7 takes 0.6-0.7 s
ROOT_SEARCH_WORK_CAP = 15 * 10**6


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
    projected summands were linearly independent, that is, of rank r.  When
    every check passes, certificates[i] lists scalars lam_k with
    a_i^(k) = lam_k * a_i^(0), read off the factors of summand i (lam_0 = 1),
    so the verdict "symmetric" is established constructively.  When some
    check fails the hypothesis is not met and nothing is claimed either way.
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
    summands must be linearly independent (one `rank_exact` per I).  Their
    dual basis alpha_i then contracts T, which the decomposition reconstructs
    exactly, to alpha_i(T) = a_i^(k) x a_i^(l), symmetric because T is, so the
    two complementary factors of every summand are proportional.  So nothing
    is contracted: each a_i^(k) = lam_k * a_i^(0) is checked exactly on the
    factors, and proportionality to factor 0 gives every pair.
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

    independence: dict[tuple[int, ...], bool] = {}
    for I in itertools.combinations(range(order), order - 2):
        rows = [rank_one([summand[j] for j in I], d.ring).data for summand in d.summands]
        independence[I] = rank_exact(matrix_from_vectors(rows, d.ring)) == len(d)

    if not all(independence.values()):
        return GrossReport(independence, False, None, None)

    certificates = []
    for summand in d.summands:
        scalars = [_proportionality_scalar(summand[0], v, d.ring) for v in summand[1:]]
        if any(lam is None for lam in scalars):
            raise TensorlabError(
                "independent projections but non-proportional factors; "
                "this contradicts the lemma"
            )
        certificates.append((rings.one(d.ring), *scalars))
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

    If every k-subset is independent, so is every smaller one, so k is
    found by bisection between 1 (no column is zero) and min(rows, cols),
    the top level first: on a generic matrix that one level decides.  A
    level ranks all C(cols, k) column subsets in one stacked call to
    `ranks_mod_p`, on the `EchelonModP` basis of the rows of m, so at most
    1 + ceil(log2 min(rows, cols)) calls are made.  Over F_p that rank is
    exact.  Over Q each row is first scaled to integers, which keeps the
    same columns independent, and ranked mod `FLOAT_PRIME` = 2^26 - 5, a
    prime in `ranks_mod_p`'s float64 lane: any prime certifies a full rank
    over Q, and a subset that falls short mod p is confirmed by the exact
    `rank_exact` (an integer kernel checked over Z, or Bareiss) before its
    level fails, so the result is exact in both rings.
    """
    if m.cols > KRUSKAL_COLUMN_CAP:
        raise CapExceeded(f"{m.cols} columns exceed the Kruskal cap {KRUSKAL_COLUMN_CAP}")
    cols = [tuple(m.entries[i * m.cols + j] for i in range(m.rows)) for j in range(m.cols)]
    for j, col in enumerate(cols):
        if all(rings.is_zero(x, m.ring) for x in col):
            return 0
    if m.ring.kind == "float":
        raise ValidationError("kruskal_rank needs an exact ring")
    p = m.ring.p if m.ring.kind == "fp" else FLOAT_PRIME
    # row operations keep the rank mod p of every column subset, and the
    # basis has at most cols rows, so the stacks below do not grow with m.rows
    echelon = EchelonModP(m.cols, p)
    echelon.extend(_clear_denominators(m)[0])
    basis = echelon.basis

    def independent(k: int) -> bool:
        subsets = list(itertools.combinations(range(m.cols), k))
        ranks = ranks_mod_p(basis[:, subsets].transpose(1, 0, 2), p)
        short = (subsets[i] for i in np.flatnonzero(ranks < k))
        return not any(
            m.ring.kind == "fp"
            or rank_exact(matrix_from_vectors([cols[j] for j in subset], m.ring)) < k
            for subset in short
        )

    lo, hi = 1, min(m.rows, m.cols)  # level lo holds; level hi is checked first
    if independent(hi):
        return hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if independent(mid) else (lo, mid)
    return lo


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
        rows = _power_rows(self.degree, self.nodes)
        return [sum(c * x for c, x in zip(self.coefficients, row)) for row in rows]


def _power_rows(d: int, nodes: Sequence[tuple]) -> list[list]:
    """Row k holds C(d,k) a^(d-k) b^k, the x^(d-k) y^k coefficient of (a x + b y)^d, per node."""
    return [[math.comb(d, k) * a ** (d - k) * b**k for (a, b) in nodes] for k in range(d + 1)]


def _rational_roots(poly: list[Fraction]) -> list[Fraction]:
    """Rational roots of a square-free rational polynomial, ascending coefficients.

    0 comes first.  The other candidates are p/q in lowest terms, p dividing
    the constant term and q the leading one, scanned once by p, then q, then
    sign (+ first); p/q is a root iff the integer sum of a_i p^i q^(n-i) is
    zero.  The trial divisions and the evaluations, each weighted by n + 1,
    are counted against ROOT_SEARCH_WORK_CAP before any is made.
    """
    den_lcm = math.lcm(*(c.denominator for c in poly))
    ints = [int(c * den_lcm) for c in poly]
    roots: list[Fraction] = []
    if ints[0] == 0:  # square-free: t = 0 is at most a simple root
        roots.append(Fraction(0))
        ints = ints[1:]
    n = len(ints) - 1
    if n < 1:
        return roots
    a0, an = abs(ints[0]), abs(ints[-1])
    work = math.isqrt(a0) + math.isqrt(an)
    if work <= ROOT_SEARCH_WORK_CAP:
        nums, dens = _divisors(a0), _divisors(an)
        work += 2 * len(nums) * len(dens) * (n + 1)
    if work > ROOT_SEARCH_WORK_CAP:
        raise CapExceeded(f"root search needs {work} steps, over ROOT_SEARCH_WORK_CAP {ROOT_SEARCH_WORK_CAP}")
    for p in nums:
        for q in dens:
            if math.gcd(p, q) > 1:
                continue
            for num in (p, -p):
                value, q_power = 0, 1
                for c in reversed(ints):
                    value = value * num + c * q_power
                    q_power *= q
                if value == 0:
                    roots.append(Fraction(num, q))
                    if len(roots) == len(poly) - 1:
                        return roots
    return roots


def _divisors(n: int) -> list[int]:
    out = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return sorted(set(out + [n // d for d in out]))


def sylvester_decompose_binary(coeffs: Sequence) -> PowerSumDecomposition:
    """Power-sum decomposition of a binary form from its apolar kernel form.

    The nodes are the projective roots of the square-free kernel form of
    `apolar_kernel_form`; coefficients come from an exact linear solve when
    all roots are rational, otherwise from a complex least-squares solve
    against companion-matrix roots.
    """
    d = len(coeffs) - 1
    s, g = apolar_kernel_form(coeffs)
    # g_j is the coefficient of u^(s-j) v^j; roots (alpha:beta) give the nodes
    deg = _poly_deg(g)
    roots = _rational_roots(g[: deg + 1])
    exact = len(roots) == deg  # fully split over the rationals
    if not exact:  # all roots of the kernel form via the companion matrix
        roots = [complex(t) for t in np.roots([float(c) for c in reversed(g[: deg + 1])])]
    zero, one = (Fraction(0), Fraction(1)) if exact else (0j, 1 + 0j)
    nodes = [(zero, one)] if s - deg == 1 else []  # root at (0:1)
    nodes.extend((one, t) for t in roots)
    rows = _power_rows(d, nodes)

    if exact:
        rhs = Matrix.from_rows([[Fraction(c)] for c in coeffs], RATIONAL)
        sol = solve_exact(Matrix.from_rows(rows, RATIONAL), rhs)
        if sol is None:
            raise TensorlabError("apolar nodes failed to span the form; this is a bug")
        out = PowerSumDecomposition(d, tuple(nodes), tuple(sol.entries), True, 0.0)
        if any(Fraction(a) != Fraction(b) for a, b in zip(out.reconstruct(), coeffs)):
            raise TensorlabError("exact reconstruction failed; this is a bug")
        return out

    mat = np.array(rows, dtype=complex)
    rhs = np.array([float(c) for c in coeffs], dtype=complex)
    cs, *_ = np.linalg.lstsq(mat, rhs, rcond=None)
    resid = float(np.linalg.norm(mat @ cs - rhs) / np.linalg.norm(rhs))
    return PowerSumDecomposition(d, tuple(nodes), tuple(cs.tolist()), False, resid)
