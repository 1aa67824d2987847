"""Exact matrix primitives: Bareiss rank, nullspaces, Kronecker products, SVD.

Rank decisions over the rationals and over F_p are exact (no tolerances);
the float lane is served by numpy and a relative singular-value threshold.
`rank_mod_p` ranks integer rows modulo a word-size prime in numpy int64: a
lower bound on the rational rank, for callers that only need one.
`ranks_mod_p` does the same for a whole stack of small matrices at once.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import rings
from .errors import ValidationError
from .rings import RATIONAL, Ring

DEFAULT_REL_TOL = 1e-8
# the largest prime below 2^31: a product of two residues stays below 2^62,
# so an int64 row update a - f * b cannot overflow
WORD_PRIME = 2**31 - 1


@dataclass(frozen=True)
class Matrix:
    """Dense row-major matrix over a single ring.

    Entries are stored as a flat tuple; the value is immutable after
    construction, so instances are safe to share between threads.
    """

    rows: int
    cols: int
    entries: tuple
    ring: Ring

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValidationError("negative matrix dimensions")
        if len(self.entries) != self.rows * self.cols:
            raise ValidationError(
                f"entry count {len(self.entries)} != {self.rows}x{self.cols}"
            )

    @staticmethod
    def from_rows(rows: Sequence[Sequence], ring: Ring = RATIONAL) -> "Matrix":
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        flat = []
        for row in rows:
            if len(row) != ncols:
                raise ValidationError("ragged rows")
            flat.extend(rings.coerce(v, ring) for v in row)
        return Matrix(nrows, ncols, tuple(flat), ring)

    @staticmethod
    def identity(n: int, ring: Ring = RATIONAL) -> "Matrix":
        one = rings.one(ring)
        zero = rings.zero(ring)
        return Matrix(
            n, n, tuple(one if i == j else zero for i in range(n) for j in range(n)), ring
        )

    @staticmethod
    def zeros(rows: int, cols: int, ring: Ring = RATIONAL) -> "Matrix":
        return Matrix(rows, cols, (rings.zero(ring),) * (rows * cols), ring)

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_lists(self) -> list[list]:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "Matrix":
        ent = tuple(self.entries[i * self.cols + j] for j in range(self.cols) for i in range(self.rows))
        return Matrix(self.cols, self.rows, ent, self.ring)

    def __add__(self, other: "Matrix") -> "Matrix":
        _check_same_ring(self, other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValidationError("shape mismatch in matrix addition")
        ent = tuple(rings.reduce(a + b, self.ring) for a, b in zip(self.entries, other.entries))
        return Matrix(self.rows, self.cols, ent, self.ring)

    def __sub__(self, other: "Matrix") -> "Matrix":
        _check_same_ring(self, other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValidationError("shape mismatch in matrix subtraction")
        ent = tuple(rings.reduce(a - b, self.ring) for a, b in zip(self.entries, other.entries))
        return Matrix(self.rows, self.cols, ent, self.ring)

    def scale(self, c) -> "Matrix":
        c = rings.coerce(c, self.ring)
        ent = tuple(rings.reduce(c * a, self.ring) for a in self.entries)
        return Matrix(self.rows, self.cols, ent, self.ring)

    def matmul(self, other: "Matrix") -> "Matrix":
        _check_same_ring(self, other)
        if self.cols != other.rows:
            raise ValidationError("inner dimension mismatch in matmul")
        n, m, k = self.rows, other.cols, self.cols
        a, b = self.entries, other.entries
        out = []
        for i in range(n):
            arow = a[i * k : (i + 1) * k]
            for j in range(m):
                s = sum(arow[t] * b[t * m + j] for t in range(k))
                out.append(rings.reduce(s, self.ring))
        return Matrix(n, m, tuple(out), self.ring)

    def mul_vector(self, v: Sequence) -> list:
        if len(v) != self.cols:
            raise ValidationError("vector length mismatch")
        out = []
        for i in range(self.rows):
            s = sum(self.entries[i * self.cols + t] * v[t] for t in range(self.cols))
            out.append(rings.reduce(s, self.ring))
        return out

    def is_zero(self) -> bool:
        return all(rings.is_zero(a, self.ring) for a in self.entries)


def _check_same_ring(a: Matrix, b: Matrix):
    if a.ring != b.ring:
        raise ValidationError(f"ring mismatch: {a.ring} vs {b.ring}")


def matrix_from_vectors(vectors: Sequence[Sequence], ring: Ring) -> Matrix:
    """Stack vectors as the rows of a matrix."""
    return Matrix.from_rows([list(v) for v in vectors], ring)


# ---------------------------------------------------------------------------
# exact rank / determinant (Bareiss fraction-free elimination)
# ---------------------------------------------------------------------------

def _clear_denominators(m: Matrix) -> tuple[list[list[int]], int]:
    """Scale each row to integers; row scaling preserves rank.

    Returns (rows, scale), where scale is the product of the row scales, so
    the determinant of m is that of the integer rows divided by scale.
    """
    out = []
    scale = 1
    for i in range(m.rows):
        row = m.row(i)
        lcm = math.lcm(*(a.denominator for a in row if isinstance(a, Fraction)))
        scale *= lcm
        out.append([int(a * lcm) if isinstance(a, Fraction) else a * lcm for a in row])
    return out, scale


def _bareiss(rows: list[list[int]]) -> tuple[int, int, int]:
    """Fraction-free elimination in place.

    Pivots are chosen as the first nonzero entry of the trailing submatrix in
    row-major scan order; rows and columns are swapped to bring the pivot to
    the diagonal.  Returns (rank, last_pivot, swap_sign).
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    prev = 1
    sign = 1
    k = 0
    while k < min(m, n):
        pi = pj = -1
        for i in range(k, m):
            ri = rows[i]
            for j in range(k, n):
                if ri[j]:
                    pi, pj = i, j
                    break
            if pi >= 0:
                break
        if pi < 0:
            break
        if pi != k:
            rows[k], rows[pi] = rows[pi], rows[k]
            sign = -sign
        if pj != k:
            for r in rows:
                r[k], r[pj] = r[pj], r[k]
            sign = -sign
        piv = rows[k][k]
        rowk = rows[k]
        for r in range(k + 1, m):
            rowr = rows[r]
            lead = rowr[k]
            if lead:
                for c in range(k + 1, n):
                    rowr[c] = (rowr[c] * piv - lead * rowk[c]) // prev
                rowr[k] = 0
            elif piv != prev:
                # zero-lead rows still need the Sylvester rescale to keep
                # later divisions exact
                for c in range(k + 1, n):
                    rowr[c] = (rowr[c] * piv) // prev
        prev = piv
        k += 1
    return k, prev, sign


def _fp_eliminate(rows: list[list[int]], p: int) -> tuple[list[int], int]:
    """Reduced row echelon form over F_p, in place.

    Returns (pivot columns, det_factor): det_factor is the sign of the row
    swaps times the product of the pivots taken before normalisation, so for
    a square matrix of full rank it is the determinant mod p.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    pivots = []
    det_factor = 1
    for col in range(n):
        r = len(pivots)
        piv = next((i for i in range(r, m) if rows[i][col] % p), None)
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            det_factor = -det_factor
        lead = rows[r][col]
        det_factor = det_factor * lead % p
        inv = pow(lead, -1, p)
        rows[r] = [(x * inv) % p for x in rows[r]]
        for i in range(m):
            if i != r and rows[i][col] % p:
                f = rows[i][col]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        if len(pivots) == m:
            break
    return pivots, det_factor


def rank_exact(m: Matrix) -> int:
    """Exact rank over the rationals or F_p.

    Float matrices are rejected; use rank_numeric for those.
    """
    if m.ring.kind == "float":
        raise ValidationError("rank_exact rejects float matrices; use rank_numeric")
    if m.rows == 0 or m.cols == 0:
        return 0
    if m.ring.kind == "fp":
        return len(_fp_eliminate(m.to_lists(), m.ring.p)[0])
    rank, _, _ = _bareiss(_clear_denominators(m)[0])
    return rank


_is_prime = functools.lru_cache(maxsize=8)(rings.is_prime)


def rank_mod_p(rows: Sequence[Sequence[int]], p: int) -> int:
    """Rank over F_p of the matrix with these integer rows, for a prime p < 2^31.

    Reducing mod p can only lose rank, so this is a lower bound on the rank
    over the rationals; the two agree unless p divides every maximal nonzero
    minor.  The residues live in one numpy int64 array, which is
    row-reduced with one vectorised update per pivot.
    """
    if not (1 < p < 2**31 and _is_prime(p)):
        raise ValidationError(f"rank_mod_p needs a prime below 2^31, got {p}")
    if len(rows) == 0:
        return 0
    if len({len(row) for row in rows}) > 1:
        raise ValidationError("ragged rows")
    kinds = set(map(type, itertools.chain.from_iterable(rows)))
    if not all(issubclass(k, (int, np.integer)) for k in kinds):
        # numpy would truncate Fractions and floats to int64 without a word
        names = sorted(k.__name__ for k in kinds)
        raise ValidationError(f"rank_mod_p needs integer entries, got {names}")
    try:
        a = np.array(rows, dtype=np.int64)
    except OverflowError:
        a = np.array([[x % p for x in row] for row in rows], dtype=np.int64)
    a %= p
    if a.shape[0] > a.shape[1]:
        a = a.T  # eliminate along the shorter side: at most min(m, n) pivots
    rank = 0
    while a.shape[0]:
        head, a = a[0], a[1:]
        nonzero = np.flatnonzero(head)
        if nonzero.size:
            j = nonzero[0]
            head = head * pow(int(head[j]), -1, p) % p
            a = (a - np.outer(a[:, j], head)) % p
            rank += 1
    return rank


def ranks_mod_p(stack, p: int) -> np.ndarray:
    """Ranks over F_p of a (B, m, n) stack of integer matrices, p prime < 2^31.

    The B eliminations run side by side, as in `rank_mod_p`: each head row
    is scaled by the inverse of its first nonzero entry, found by Fermat
    powering lead^(p-2), and cleared from the rows below in one broadcast
    update.  Residues stay below 2^31, so every product stays below 2^62.
    Returns an int64 array of the B ranks.
    """
    if not (1 < p < 2**31 and _is_prime(p)):
        raise ValidationError(f"ranks_mod_p needs a prime below 2^31, got {p}")
    a = np.asarray(stack, dtype=np.int64) % p
    if a.ndim != 3:
        raise ValidationError(f"ranks_mod_p needs a (B, m, n) stack, got shape {a.shape}")
    if a.shape[1] > a.shape[2]:
        a = a.transpose(0, 2, 1)  # eliminate along the shorter side
    batch = np.arange(a.shape[0])
    ranks = np.zeros(a.shape[0], dtype=np.int64)
    while a.shape[1] and a.shape[2]:
        head, a = a[:, 0], a[:, 1:]
        j = np.argmax(head != 0, axis=1)  # 0 for a zero head, whose update is zero
        lead = head[batch, j]
        inv, base, e = np.ones_like(lead), lead, p - 2
        while e:
            if e & 1:
                inv = inv * base % p
            base = base * base % p
            e >>= 1
        head = head * inv[:, None] % p
        a = (a - a[batch, :, j][:, :, None] * head[:, None, :]) % p
        ranks += lead != 0
    return ranks


def det_exact(m: Matrix):
    """Exact determinant of a square rational or F_p matrix."""
    if m.ring.kind == "float":
        raise ValidationError("det_exact rejects float matrices")
    if m.rows != m.cols:
        raise ValidationError("determinant of a non-square matrix")
    n = m.rows
    if n == 0:
        return rings.one(m.ring)
    if m.ring.kind == "fp":
        pivots, det_factor = _fp_eliminate(m.to_lists(), m.ring.p)
        return det_factor if len(pivots) == n else 0
    int_rows, scale = _clear_denominators(m)
    rank, last_pivot, sign = _bareiss(int_rows)
    if rank < n:
        return 0
    det = Fraction(sign * last_pivot, scale)
    return det.numerator if det.denominator == 1 else det


def rref(m: Matrix) -> tuple[list[list], list[int]]:
    """Reduced row echelon form (exact rings); returns (rows, pivot columns)."""
    if m.ring.kind == "float":
        raise ValidationError("rref requires an exact ring")
    if m.ring.kind == "fp":
        rows = m.to_lists()
        return rows, _fp_eliminate(rows, m.ring.p)[0]
    rows = [[Fraction(x) for x in m.row(i)] for i in range(m.rows)]
    pivots = []
    for col in range(m.cols):
        r = len(pivots)
        piv = next((i for i in range(r, m.rows) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][col]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(m.rows):
            f = rows[i][col]
            if i != r and f != 0:
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        if len(pivots) == m.rows:
            break
    return rows, pivots


def nullspace_exact(m: Matrix) -> list[list]:
    """Basis of the right kernel; length cols - rank, with m @ v = 0 exactly."""
    if m.ring.kind == "float":
        raise ValidationError("nullspace_exact requires an exact ring")
    rows, pivots = rref(m)
    free = [c for c in range(m.cols) if c not in pivots]
    basis = []
    for f in free:
        v = [rings.zero(m.ring)] * m.cols
        v[f] = rings.one(m.ring)
        for r, pc in enumerate(pivots):
            coeff = rows[r][f]
            v[pc] = rings.reduce(-coeff, m.ring)
        if m.ring.kind == "rational":
            v = [x.numerator if isinstance(x, Fraction) and x.denominator == 1 else x for x in v]
        basis.append(v)
    return basis


def solve_exact(a: Matrix, rhs_cols: Matrix) -> Matrix | None:
    """Solve a @ X = rhs over an exact ring; None if inconsistent.

    When the system is underdetermined the free variables are set to zero.
    """
    _check_same_ring(a, rhs_cols)
    if a.rows != rhs_cols.rows:
        raise ValidationError("row mismatch in solve_exact")
    aug = Matrix(
        a.rows,
        a.cols + rhs_cols.cols,
        tuple(
            a.entries[i * a.cols + j] if j < a.cols else rhs_cols.entries[i * rhs_cols.cols + (j - a.cols)]
            for i in range(a.rows)
            for j in range(a.cols + rhs_cols.cols)
        ),
        a.ring,
    )
    rows, pivots = rref(aug)
    for r, pc in enumerate(pivots):
        if pc >= a.cols:
            return None  # pivot in the rhs block: inconsistent
    out = [[rings.zero(a.ring)] * rhs_cols.cols for _ in range(a.cols)]
    for r, pc in enumerate(pivots):
        for j in range(rhs_cols.cols):
            v = rows[r][a.cols + j]
            if a.ring.kind == "rational" and isinstance(v, Fraction) and v.denominator == 1:
                v = v.numerator
            out[pc][j] = v
    return Matrix.from_rows(out, a.ring)


def invert_exact(m: Matrix) -> Matrix:
    if m.rows != m.cols:
        raise ValidationError("inverse of a non-square matrix")
    inv = solve_exact(m, Matrix.identity(m.rows, m.ring))
    if inv is None or rank_exact(m) != m.rows:
        raise ValidationError("matrix is singular")
    return inv


# ---------------------------------------------------------------------------
# Kronecker product and the float lane
# ---------------------------------------------------------------------------

def kron(m1: Matrix, m2: Matrix) -> Matrix:
    """Kronecker product; row-block index runs over m1's rows."""
    _check_same_ring(m1, m2)
    r1, c1, r2, c2 = m1.rows, m1.cols, m2.rows, m2.cols
    ent = []
    for i1 in range(r1):
        for i2 in range(r2):
            for j1 in range(c1):
                a = m1.entries[i1 * c1 + j1]
                row2 = m2.entries[i2 * c2 : (i2 + 1) * c2]
                ent.extend(rings.reduce(a * b, m1.ring) for b in row2)
    return Matrix(r1 * r2, c1 * c2, tuple(ent), m1.ring)


def to_float_array(m: Matrix) -> np.ndarray:
    arr = np.array([float(x) for x in m.entries], dtype=float).reshape(m.rows, m.cols)
    if not np.all(np.isfinite(arr)):
        raise ValidationError("non-finite entries")
    return arr


def singular_values(m: Matrix) -> list[float]:
    """Singular values in descending order, length min(rows, cols)."""
    if m.rows == 0 or m.cols == 0:
        return []
    return [float(s) for s in np.linalg.svd(to_float_array(m), compute_uv=False)]


def rank_numeric(m: Matrix, rel_tol: float = DEFAULT_REL_TOL) -> int:
    """Number of singular values above rel_tol times the largest one."""
    if rel_tol <= 0:
        raise ValidationError("rel_tol must be positive")
    sv = singular_values(m)
    if not sv or sv[0] == 0.0:
        return 0
    return sum(1 for s in sv if s > rel_tol * sv[0])
