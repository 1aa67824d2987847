"""Minimum rank of matrix subspaces, the min-rank multiplicativity
counterexample family, and entanglement entropy of bipartite vectors.

Exact statements (F_p enumeration, the structured family) are kept separate
from sampled upper bounds, and every sampled output says so.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import rings
from .errors import CapExceeded, ValidationError
from .linalg import (
    WORD_PRIME, Matrix, kron, matrix_from_vectors, rank_exact, rank_exact_int64, ranks_mod_p, to_float_array,
)
from .rings import RATIONAL, Ring

FP_ENUMERATION_CAP = 10**6
# matrix entries ranked per stacked call, which bounds the memory: ~900 6x6 elements,
# 256 KiB as float64
FP_CHUNK_ENTRIES = 1 << 15
GURVITS_CAP = 8
# friedland_check builds a (4n^2) x (4n^2) witness, so memory grows as n^4: at n = 16
# (1024 x 1024) it took 0.67-0.78 s and peaked at 97 MB RSS per process on one x86-64
# core (Intel Xeon), and n = 17 peaked at 115 MB
FRIEDLAND_CAP = 16


@dataclass(frozen=True)
class MatrixSubspace:
    """Linear space of rows x cols matrices given by an independent basis."""

    rows: int
    cols: int
    basis: tuple[Matrix, ...]
    ring: Ring

    def __post_init__(self):
        if not self.basis:
            raise ValidationError("empty basis")
        for b in self.basis:
            if (b.rows, b.cols) != (self.rows, self.cols):
                raise ValidationError("basis matrix has the wrong ambient shape")
            if b.ring != self.ring:
                raise ValidationError("basis ring mismatch")
        stacked = matrix_from_vectors([b.entries for b in self.basis], self.ring)
        if rank_exact(stacked) != len(self.basis):
            raise ValidationError("basis matrices are linearly dependent")

    @property
    def dim(self) -> int:
        return len(self.basis)

    @staticmethod
    def span(matrices: Sequence[Matrix]) -> "MatrixSubspace":
        first = matrices[0]
        return MatrixSubspace(first.rows, first.cols, tuple(matrices), first.ring)

    def element(self, coeffs: Sequence) -> Matrix:
        ring = self.ring
        terms = [
            (c, b.entries)
            for b, c in zip(self.basis, (rings.coerce(c, ring) for c in coeffs))
            if not rings.is_zero(c, ring)
        ]
        entries = tuple(
            rings.reduce(sum((c * e[k] for c, e in terms), rings.zero(ring)), ring)
            for k in range(self.rows * self.cols)
        )
        return Matrix(self.rows, self.cols, entries, ring)

    def to_json(self) -> str:
        return json.dumps(
            {
                "rows": self.rows,
                "cols": self.cols,
                "ring": str(self.ring),
                "basis": [
                    [rings.format_scalar(x, self.ring) for x in b.entries]
                    for b in self.basis
                ],
            },
            sort_keys=True,
        )

    @staticmethod
    def from_json(text: str) -> "MatrixSubspace":
        try:
            obj = json.loads(text)
            ring = rings.parse_ring(obj["ring"])
            rows, cols = int(obj["rows"]), int(obj["cols"])
            basis = tuple(
                Matrix(rows, cols, tuple(rings.parse_scalar(x, ring) for x in ent), ring)
                for ent in obj["basis"]
            )
        except (KeyError, ValueError, TypeError, json.JSONDecodeError) as exc:
            raise ValidationError(f"bad subspace JSON: {exc}") from exc
        return MatrixSubspace(rows, cols, basis, ring)


@dataclass(frozen=True)
class BipartiteVector:
    """Vector in a two-factor tensor product, reshaped to d_A x d_B on demand."""

    dims: tuple[int, int]
    data: tuple

    def matrix_form(self) -> Matrix:
        return Matrix(self.dims[0], self.dims[1], tuple(float(x) for x in self.data), rings.FLOAT)


# ---------------------------------------------------------------------------
# minimum rank
# ---------------------------------------------------------------------------

def min_rank_exact_fp(s: MatrixSubspace) -> int:
    """Exact minimum rank over all nonzero elements of an F_p subspace.

    Coefficient vectors are normalized projectively (first nonzero
    coefficient equal to 1), which is exhaustive up to scale.  Read as a
    base-p number with coefficient 0 as its top digit, such a vector is an
    integer code in [p^k, 2p^k) for some k < dim; the codes are taken for k
    from dim - 1 down, each run in increasing order.  They are split into
    chunks of at most FP_CHUNK_ENTRIES matrix entries; a chunk's codes come
    from one np.arange of positions, its coefficients from codes // p^i mod
    p, its elements from one float64 (BLAS) product coeffs @ basis, and its
    ranks from `ranks_mod_p`, which is exact over F_p.  The product is exact:
    under FP_ENUMERATION_CAP every sum e is at most dim (p - 1)^2 <= 10^12.
    It is reduced to [0, p) as e - p floor((e + 1/2) / p), exact because the
    computed quotient is within (e + 1/2) 2^-52 / p < 1/(2p) of the true one,
    whose fractional part lies in [1/(2p), 1 - 1/(2p)].  A chunk holding a
    rank-1 element ends the search, since no nonzero element has a smaller
    rank.
    """
    if s.ring.kind != "fp":
        raise ValidationError("exact enumeration needs an F_p subspace")
    p = s.ring.p
    if p**s.dim > FP_ENUMERATION_CAP:
        raise CapExceeded(
            f"p**dim = {p**s.dim} exceeds the enumeration cap {FP_ENUMERATION_CAP}"
        )
    basis = np.array([[x % p for x in b.entries] for b in s.basis], dtype=np.float64)
    places = p ** np.arange(s.dim - 1, -1, -1, dtype=np.int64)  # p^k: run k's first code and length
    starts = np.cumsum(places) - places  # run k's first position in the enumeration
    total = int(places.sum())
    size = max(1, FP_CHUNK_ENTRIES // (s.rows * s.cols))
    best = min(s.rows, s.cols)
    for start in range(0, total, size):
        positions = np.arange(start, min(start + size, total))
        run = np.searchsorted(starts, positions, side="right") - 1
        codes = positions - starts[run] + places[run]
        elements = (codes[:, None] // places % p).astype(np.float64) @ basis
        elements -= p * np.floor((elements + 0.5) * (1 / p))
        elements = elements.reshape(-1, s.rows, s.cols)
        best = min(best, int(ranks_mod_p(elements, p).min()))
        if best == 1:
            return 1
    return best


def min_rank_sample(s: MatrixSubspace, trials: int = 200, seed: int = 0) -> int:
    """Sampled upper bound for the minimum rank of a rational subspace.

    Tries every basis element, all pairwise sums and differences, and
    `trials` random integer combinations.  The result is only an upper
    bound; exact minimum rank over the rationals is out of reach in general.
    """
    if s.ring.kind != "rational":
        raise ValidationError("sampling works over the rational ring")
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    candidates = [b for b in s.basis]
    for a, b in itertools.combinations(s.basis, 2):
        candidates.append(a + b)
        candidates.append(a - b)
    rng = random.Random(f"minrank:{seed}")
    for _ in range(trials):
        coeffs = [rng.randint(-10, 10) for _ in range(s.dim)]
        if any(coeffs):
            candidates.append(s.element(coeffs))
    best = min(s.rows, s.cols)
    for cand in candidates:
        if not cand.is_zero():
            best = min(best, rank_exact(cand))
    return best


# ---------------------------------------------------------------------------
# the structured counterexample family
# ---------------------------------------------------------------------------

def rotation_block() -> Matrix:
    """The 2 x 2 rotation generator [[0, 1], [-1, 0]]: no real eigenvalues."""
    return Matrix.from_rows([[0, 1], [-1, 0]], RATIONAL)


@dataclass(frozen=True)
class GurvitsRecord:
    """Min-rank data for the space spanned by M tensor I_n and the identity.

    minrank_x is exact (every nonzero a*M(x)I_n + b*I has rank 2n because M
    has no real eigenvalues; sampled coefficient ratios confirm it).  The
    witness ranks are exact ranks of the tensor-square element minus/plus
    the identity, and the decrement is (2n)^2 - witness_rank.
    """

    n: int
    space: MatrixSubspace
    minrank_x: int
    witness_rank_minus: int
    witness_rank_plus: int
    decrement: int


def gurvits_space(n: int) -> MatrixSubspace:
    m_block = kron(rotation_block(), Matrix.identity(n, RATIONAL))
    return MatrixSubspace.span([m_block, Matrix.identity(2 * n, RATIONAL)])


def gurvits_construction(n: int) -> GurvitsRecord:
    """Arbitrarily large drop between (min-rank)^2 and the tensored min-rank.

    The min rank is checked at the pencil points a/b in {0, +-1, +-2, +-3} and
    b = 0, all of rank 2n (det(aM + bI) = (a^2 + b^2)^n), as one int64 stack
    ranked by `ranks_mod_p` at WORD_PRIME: a full rank mod p is one over Q,
    and any other sample is ranked by `rank_exact_int64`.  So are the int64
    witnesses M(x)M -+ I: certified from 16 x 16 up (n >= 2), Bareiss below.
    """
    if n < 1:
        raise ValidationError("n must be >= 1")
    if n > GURVITS_CAP:
        raise CapExceeded(f"n = {n} exceeds GURVITS_CAP {GURVITS_CAP}")
    space = gurvits_space(n)
    m = np.array(space.basis[0].entries, dtype=np.int64).reshape(2 * n, 2 * n)
    samples = [(0, 1), (1, 1), (-1, 1), (2, 1), (-2, 1), (3, 1), (-3, 1), (1, 0)]
    pencil = np.array([a * m + b * np.eye(2 * n, dtype=np.int64) for a, b in samples])
    for (a, b), r, element in zip(samples, ranks_mod_p(pencil, WORD_PRIME), pencil):
        if r != 2 * n:
            r = rank_exact_int64(element)
        if r != 2 * n:
            raise ValidationError(f"pencil sample ({a},{b}) has rank {r}, expected {2*n}")
    rank_minus, rank_plus = map(rank_exact_int64, _square_minus_plus_identity(space.basis[0]))
    return GurvitsRecord(
        n=n,
        space=space,
        minrank_x=2 * n,
        witness_rank_minus=rank_minus,
        witness_rank_plus=rank_plus,
        decrement=(2 * n) ** 2 - rank_minus,
    )


def _square_minus_plus_identity(m: Matrix) -> tuple[np.ndarray, np.ndarray]:
    """kron(m, m) - I and kron(m, m) + I for an integer matrix m, as int64
    arrays from one np.kron, which `rank_exact_int64` ranks as they are."""
    a = np.array(m.entries, dtype=np.int64).reshape(m.rows, m.cols)
    square = np.kron(a, a)
    eye = np.eye(len(square), dtype=np.int64)
    return square - eye, square + eye


def gurvits_witness_vector(n: int) -> BipartiteVector:
    """(M x I_n) tensor (M x I_n) minus the identity, as a bipartite vector."""
    w, _ = _square_minus_plus_identity(kron(rotation_block(), Matrix.identity(n, RATIONAL)))
    return BipartiteVector((4 * n * n, 4 * n * n), tuple(w.astype(np.float64).ravel().tolist()))


# ---------------------------------------------------------------------------
# entanglement entropy
# ---------------------------------------------------------------------------

def entanglement_entropy(v: BipartiteVector, base: str | int = "e") -> float:
    """Shannon entropy of the squared singular-value spectrum.

    The vector is normalized first; the entropy is zero exactly on product
    vectors (rank-one matrix form, within tolerance 1e-10).
    """
    arr = to_float_array(v.matrix_form())
    norm = float(np.linalg.norm(arr))
    if norm == 0.0:
        raise ValidationError("zero vector has no entanglement entropy")
    sv = np.linalg.svd(arr / norm, compute_uv=False)
    probs = [float(s) ** 2 for s in sv if s > 1e-10]
    h = -sum(p * math.log(p) for p in probs if p > 0.0)
    if base == 2 or base == "2":
        return h / math.log(2)
    if base == "e":
        return h
    raise ValidationError('base must be 2 or "e"')


@dataclass(frozen=True)
class FriedlandRecord:
    """Additivity check for minimum entanglement entropy on the structured
    family: the sum of per-factor minima exceeds the joint upper bound by
    exactly log 2 for every n."""

    n: int
    sum_of_mins: float
    joint_min_upper: float
    violated: bool

    @property
    def margin(self) -> float:
        return self.sum_of_mins - self.joint_min_upper


def friedland_check(n: int, samples: int = 25, seed: int = 0) -> FriedlandRecord:
    """Entropy additivity fails: 2 log(2n) > log(2n^2), margin log 2.

    Every nonzero element of the structured space has 2n equal singular
    values (verified on random samples), so its minimal entropy is log(2n);
    the tensored witness has entropy log(2n^2), an upper bound for the
    joint minimum.  n above FRIEDLAND_CAP is refused before anything is built.
    """
    if n < 1:
        raise ValidationError("n must be >= 1")
    if n > FRIEDLAND_CAP:
        raise CapExceeded(f"n = {n} exceeds FRIEDLAND_CAP {FRIEDLAND_CAP}")
    space = gurvits_space(n)
    rng = random.Random(f"friedland:{seed}")
    min_single = math.log(2 * n)
    for _ in range(samples):
        a, b = rng.randint(-9, 9), rng.randint(-9, 9)
        if (a, b) == (0, 0):
            a = 1
        elem = space.element((a, b))
        vec = BipartiteVector((2 * n, 2 * n), tuple(float(x) for x in elem.entries))
        h = entanglement_entropy(vec)
        if abs(h - min_single) > 1e-9:
            raise ValidationError(
                f"sampled element entropy {h} differs from log(2n) = {min_single}"
            )
    joint = entanglement_entropy(gurvits_witness_vector(n))
    total = 2 * min_single
    return FriedlandRecord(n, total, joint, joint < total)
