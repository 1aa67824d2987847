"""Exact matrix primitives: certified ranks, nullspaces, Kronecker products, SVD.

Rank decisions over the rationals and over F_p are exact (no tolerances);
the float lane is served by numpy and a relative singular-value threshold.
Exact work over the rationals has one eliminator, `_bareiss`: fraction-free
elimination of the rows scaled to integers.  It serves `det_exact` (in both
rings), `rref` over Q (and so `nullspace_exact` and `solve_exact`), and
`rank_exact` over Q, which first certifies its answer from a rank mod a
word-size prime (a lower bound) and an integer kernel checked over Z (an
upper bound), and eliminates only when the two cannot be certified;
`rank_exact_int64` does the same on an int64 array, with no Matrix.
F_p work has one kernel per shape: `EchelonModP` grows a reduced echelon
basis mod p by blocks of rows and keeps only its block off the pivot
columns, for the rank and `rref` of one F_p matrix; `ranks_mod_p` ranks a
stack of small matrices mod a prime below 2^31 without inverses, in float64
(exact, reduced by rounding) for p <= 2^26 and in int64 above.  A rank mod p
is a lower bound on the rational rank.
"""

from __future__ import annotations

import functools
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
# ranks_mod_p works in float64 up to this modulus: 2 (p - 1)^2 < 2^53
FLOAT_PRIME_CAP = 2**26
# the largest prime below FLOAT_PRIME_CAP: ranks over Q certified mod a prime in the float64 lane
FLOAT_PRIME = 2**26 - 5
# int64 entries of a block of rows that _certified_rank reduces or checks at once
RANK_BLOCK_ENTRIES = 2**16
# below this many rows or columns Bareiss in Python ints is faster than the
# numpy certificate's fixed cost (about equal at 16 x 16 on one x86-64 core)
CERTIFY_MIN_SIDE = 16


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
# exact rank / determinant: a mod-p certificate for ranks over Q, Bareiss
# fraction-free elimination as its fallback and for determinants, and the
# F_p kernels
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


def _bareiss(rows: list[list[int]], reduce: bool = False) -> tuple[list[int], int, int]:
    """Fraction-free (Bareiss) elimination of integer rows, in place.

    Pivots are taken column by column from the first row at or below the next
    pivot row that is nonzero there, with row swaps only; every entry stays an
    integer minor, so each division is exact.  Returns (pivot columns, last
    pivot, row-swap sign): a full-rank square matrix has determinant sign *
    last pivot.  Rows are cleared below each pivot, which is all a rank or a
    determinant needs; with reduce also above it, and the pivot rows end as
    last pivot times the reduced row echelon form.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    pivots = []
    prev = sign = 1
    for col in range(n):
        r = len(pivots)
        if r == m:
            break
        for k in range(r, m):
            if rows[k][col]:
                break
        else:
            continue
        if k != r:
            rows[r], rows[k] = rows[k], rows[r]
            sign = -sign
        head = rows[r]
        piv = head[col]
        for i in range(r + 1, m):
            row = rows[i]
            lead = row[col]
            if lead:
                for c in range(col + 1, n):
                    row[c] = (row[c] * piv - lead * head[c]) // prev
                row[col] = 0
            elif piv != prev:
                # zero-lead rows still need the Sylvester rescale to keep later divisions exact
                for c in range(col + 1, n):
                    row[c] = row[c] * piv // prev
        if reduce:
            for row in rows[:r]:
                lead = row[col]
                for c in range(n):
                    row[c] = (row[c] * piv - lead * head[c]) // prev
        prev = piv
        pivots.append(col)
    return pivots, prev, sign


def rank_exact(m: Matrix) -> int:
    """Exact rank over the rationals or F_p (use rank_numeric for floats).

    Over F_p the rows go into one `EchelonModP`.  Over the rationals, a
    matrix with at least CERTIFY_MIN_SIDE rows and columns has its rank
    certified by `_certified_rank` (the rank mod `WORD_PRIME` from below, an
    integer kernel checked over Z from above); Bareiss elimination decides
    smaller matrices, and the others when the bounds cannot be certified.
    No randomness is involved; every answer is exact.
    """
    if m.ring.kind == "float":
        raise ValidationError("rank_exact rejects float matrices; use rank_numeric")
    if m.rows == 0 or m.cols == 0:
        return 0
    if m.ring.kind == "fp":
        return EchelonModP(m.cols, m.ring.p).extend(m.to_lists())
    rank = _certified_rank(m) if min(m.rows, m.cols) >= CERTIFY_MIN_SIDE else None
    return len(_bareiss(_clear_denominators(m)[0])[0]) if rank is None else rank


_is_prime = functools.lru_cache(maxsize=8)(rings.is_prime)


def _check_word_prime(p: int, who: str):
    if not (1 < p < 2**31 and (p in (WORD_PRIME, FLOAT_PRIME) or _is_prime(p))):  # both are known primes
        raise ValidationError(f"{who} needs a prime below 2^31, got {p}")


def _residues(rows, p: int) -> np.ndarray:
    """Integers of any size and sign, as an int64 array of residues in [0, p)
    of the same shape: rows of a matrix, of a tensor, or the entries of a vector.
    An int64 array whose entries already lie in [0, p) is returned itself, not
    copied: a caller that writes into the result copies it first."""
    if isinstance(rows, np.ndarray) and rows.dtype == np.int64:
        if not rows.size or (rows.min() >= 0 and rows.max() < p):
            return rows
    try:
        a = np.array(rows, dtype=np.int64)
    except OverflowError:
        # one row of Python-int residues at a time, not a second copy of all rows
        a = np.empty((len(rows),) + np.shape(rows[0]), dtype=np.int64)
        for i, row in enumerate(rows):
            a[i] = np.asarray(row, dtype=object) % p
    a %= p
    return a


def _round_mod(a: np.ndarray, p: int) -> np.ndarray:
    """Subtract from each integer of a float64 array the nearest multiple of
    p, in place, as a - p * rint(a * (1/p)).  Take |a| < 2^52, or p <= 2^26
    and |a| <= 2 (p - 1)^2: either way |a| < p 2^51, so the computed quotient
    is within |a/p| 2^-52 < 1/2 of a/p and its rounding n within 1 of it.
    Then |a - p n| < p, and |p n| < |a| + p < 2^53 keeps every step exact:
    the result is congruent to a, and it is 0 exactly when p divides a."""
    t = a * (1 / p)
    np.rint(t, out=t)
    t *= p
    a -= t
    return a


def ranks_mod_p(stack, p: int) -> np.ndarray:
    """Ranks over F_p of a (B, m, n) stack of integer matrices, p prime < 2^31.

    The B eliminations run side by side, without inverses: with `lead` the
    first nonzero entry of a head row (1 where the head row is zero), every
    row below becomes lead * row - row[j] * head in one broadcast update.
    Scaling a row by a nonzero lead keeps the rank.  For p <= FLOAT_PRIME_CAP
    = 2^26 the stack is held in float64 and reduced by `_round_mod` after
    each update: entries start and stay below p in absolute value, so an
    update is at most 2 (p - 1)^2 < 2^53 in absolute value, exact in float64,
    and every zero test is exact.  Above 2^26 it is held in int64 and reduced
    by `%` (products stay below 2^62).  A float64 stack must hold integers
    below 2^52 in absolute value.  Returns the B ranks in int64.
    """
    _check_word_prime(p, "ranks_mod_p")
    in_float = p <= FLOAT_PRIME_CAP
    if in_float and isinstance(stack, np.ndarray) and stack.dtype == np.float64:
        a = _round_mod(stack.copy(), p)
    else:
        a = _residues(stack, p)
        a = a.astype(np.float64) if in_float else a
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
        ranks += lead != 0
        lead[lead == 0] = 1
        below = a[batch, :, j]
        a = lead[:, None, None] * a  # a fresh array, updated in place below
        a -= below[:, :, None] * head[:, None, :]
        if in_float:
            _round_mod(a, p)
        else:
            a %= p
    return ranks


def _matmul_mod_p(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b mod p for residue arrays, exact in int64: a is split into 16-bit
    limbs, so every partial sum of a limb product is below k * 2^16 * p for
    inner dimension k, which EchelonModP keeps below 2^63."""
    lo = (a & 0xFFFF) @ b
    lo %= p
    hi = (a >> 16) @ b
    hi %= p
    hi <<= 16
    lo += hi
    lo %= p
    return lo


class EchelonModP:
    """Reduced row echelon basis over F_p (p prime < 2^31) that grows by blocks.

    Only the block off the pivot columns is kept (as in FFPACK): `tail` is
    k x (ncols - k) on the sorted non-pivot columns `free`, and basis row i
    is 1 at `pivots[i]` and `tail[i]` at `free`.  `extend` reduces a block's
    free columns, x[:, free] - x[:, pivots] @ tail, eliminates them on their
    own, and keeps the columns still free, tail - tail[:, cols] @ new.
    """

    def __init__(self, ncols: int, p: int):
        _check_word_prime(p, "EchelonModP")
        if ncols * 2**16 * p >= 2**63:
            raise ValidationError(f"{ncols} columns overflow the int64 limb products mod {p}")
        self.p, self.ncols = p, ncols
        self.pivots = np.zeros(0, dtype=np.intp)
        self.free = np.arange(ncols)
        self.tail = np.zeros((0, ncols), dtype=np.int64)

    @property
    def rank(self) -> int:
        return len(self.pivots)

    @property
    def basis(self) -> np.ndarray:
        """The k x ncols reduced rows, in the order of `pivots`."""
        basis = np.zeros((self.rank, self.ncols), dtype=np.int64)
        basis[np.arange(self.rank), self.pivots] = 1
        basis[:, self.free] = self.tail
        return basis

    def extend(self, rows: Sequence[Sequence[int]]) -> int:
        """Add integer rows (reduced mod p) to the span; returns the new rank."""
        if len(rows) == 0:
            return self.rank
        p = self.p
        x = _residues(rows, p)
        shared = x is rows  # a block of residues is not copied; the caller's is never written
        del rows  # free big-int rows (when the caller holds no other reference) before eliminating
        if x.shape[1] != self.ncols:
            raise ValidationError(f"rows of width {x.shape[1]} for {self.ncols} columns")
        if self.rank:
            x = x[:, self.free] - _matmul_mod_p(x[:, self.pivots], self.tail, p)
            x %= p
        elif shared:
            x = x.copy()  # the loop below writes the block in place
        heads, cols = [], []
        for i, row in enumerate(x):  # row is a view, scaled in place
            nonzero = row.nonzero()[0]
            if not nonzero.size:
                continue
            j = nonzero[0]
            row *= pow(int(row[j]), -1, p)
            row %= p
            # clear column j in every other row, earlier heads too, in one update
            h = x[:, j].nonzero()[0]
            h = h[h != i]
            x[h] = (x[h] - x[h, j, None] * row) % p
            heads.append(i)
            cols.append(j)
        if cols:
            keep = np.ones(x.shape[1], dtype=bool)
            keep[cols] = False
            rest = keep.nonzero()[0]
            new = x[np.ix_(heads, rest)]
            del x, row  # row is a view of x: free x before the new tail is allocated
            # column-major, so the product's inner loop walks the tail contiguously
            tail = np.empty((self.rank + len(cols), len(rest)), dtype=np.int64, order="F")
            tail[: self.rank] = self.tail[:, rest]
            tail[: self.rank] -= _matmul_mod_p(self.tail[:, cols], new, p)
            tail[: self.rank] %= p
            tail[self.rank :] = new
            self.tail = tail
            self.pivots = np.concatenate([self.pivots, self.free[cols]])
            self.free = self.free[rest]
        return self.rank


def _certified_rank(m: Matrix) -> int | None:
    """Rank over Q of a nonempty rational matrix by `_certify`, or None: its
    rows scaled to integers (row scaling keeps the rank), in int64 or, for
    entries beyond int64, as residues mod WORD_PRIME."""
    kinds = set(map(type, m.entries))
    if not kinds <= {int, Fraction}:
        return None
    # scale rows first: numpy would truncate Fractions to int64 without a word
    rows = [m.entries] if kinds <= {int} else _clear_denominators(m)[0]
    try:
        a, fits = np.array(rows, dtype=np.int64), True
    except OverflowError:
        # a full rank mod p certifies itself at any entry size
        a, fits = _residues(rows, WORD_PRIME), False
    del rows  # scaled Python-int rows, before eliminating
    return _certify(a.reshape(m.rows, m.cols), fits)


def rank_exact_int64(a: np.ndarray) -> int:
    """Exact rank over Q of a 2-D int64 array, as `rank_exact` ranks the same
    integers as a Matrix: by `_certify` when both sides are at least
    CERTIFY_MIN_SIDE, by `_bareiss` below that or when the bounds fail."""
    if a.ndim != 2 or a.dtype != np.int64:
        raise ValidationError(f"rank_exact_int64 needs a 2-D int64 array, got {a.ndim}-D {a.dtype}")
    rank = _certify(a) if min(a.shape) >= CERTIFY_MIN_SIDE else None
    return len(_bareiss(a.tolist())[0]) if rank is None else rank


def _certify(a: np.ndarray, fits: bool = True) -> int | None:
    """Rank over Q of a nonempty 2-D int64 integer array A from two bounds, or
    None; with fits False, A holds only the residues mod p of integers beyond
    int64.  A is transposed so that its c columns are the shorter side.

    - Lower bound: `EchelonModP` reduces A mod p = WORD_PRIME, RANK_BLOCK_ENTRIES
      entries at a time, to rank r.  Some r x r minor is nonzero mod p, so it
      is a nonzero integer and rank_Q(A) >= r.  If r = c that is the answer.
    - Upper bound: with the echelon's `tail` S read as integers in
      (-p/2, p/2), K = (the identity on the free columns, -S on
      the pivot rows) has full column rank c - r by construction.  If
      A @ K = A[:, free] - A[:, pivots] @ S is zero over Z, then
      rank_Q(A) <= r.  The check sums over the nonzeros of S in int64, and
      runs only when no partial sum can overflow; a wrong guess of K only
      fails it.

    Returns None when c exceeds the width EchelonModP allows, or when r < c
    and fits is False, the check could overflow, or A @ K != 0.
    """
    if a.shape[0] < a.shape[1]:
        a = a.T
    n, c = a.shape
    if c * 2**16 * WORD_PRIME >= 2**63:
        return None
    block = max(1, RANK_BLOCK_ENTRIES // c)
    echelon = EchelonModP(c, WORD_PRIME)
    for i in range(0, n, block):
        if echelon.extend(a[i : i + block]) == c:
            return c
    pivots, free, s = echelon.pivots, echelon.free, echelon.tail
    s[s > WORD_PRIME // 2] -= WORD_PRIME
    a_max = max(int(a.max()), -int(a.min()))
    k_max = max(1, int(s.max(initial=0)), -int(s.min(initial=0)))
    if not fits or a_max * k_max * c >= 2**62:  # int64 A, and no partial sum of A @ K overflows
        return None
    # A @ K is summed over the nonzeros of S only (kernels of structured
    # matrices are sparse), in row blocks of at most about RANK_BLOCK_ENTRIES terms
    j, k = np.nonzero(s.T)  # S[k, j] != 0, ordered by free column j
    values = s[k, j]
    starts = np.flatnonzero(np.diff(j, prepend=-1))
    block = max(1, RANK_BLOCK_ENTRIES // max(1, len(j)))
    for i in range(0, n, block):
        rows = a[i : i + block]
        sums = np.zeros((len(rows), len(free)), dtype=np.int64)
        if len(j):
            sums[:, j[starts]] = np.add.reduceat(rows[:, pivots[k]] * values, starts, axis=1)
        if not np.array_equal(sums, rows[:, free]):
            return None
    return len(pivots)


def det_exact(m: Matrix):
    """Exact determinant of a square rational or F_p matrix, by Bareiss.

    Over F_p the residues are eliminated as integers: the determinant is an
    integer polynomial in the entries, so their integer determinant reduced
    mod p is the determinant over F_p.
    """
    if m.ring.kind == "float":
        raise ValidationError("det_exact rejects float matrices")
    if m.rows != m.cols:
        raise ValidationError("determinant of a non-square matrix")
    n = m.rows
    if n == 0:
        return rings.one(m.ring)
    int_rows, scale = _clear_denominators(m)
    pivots, last_pivot, sign = _bareiss(int_rows)
    if len(pivots) < n:
        return 0
    if m.ring.kind == "fp":
        return sign * last_pivot % m.ring.p
    det = Fraction(sign * last_pivot, scale)
    return det.numerator if det.denominator == 1 else det


def rref(m: Matrix) -> tuple[list[list], list[int]]:
    """Reduced row echelon form (exact rings); returns (rows, pivot columns).

    Over F_p it is the `EchelonModP` basis sorted by pivot column, padded
    with zero rows to m.rows rows.  Over the rationals the rows are scaled to
    integers and reduced by `_bareiss`; its pivot rows, divided by the last
    pivot, are the reduced form (row scaling keeps the row space, and the
    reduced form is unique), and every entry is a Fraction.
    """
    if m.ring.kind == "float":
        raise ValidationError("rref requires an exact ring")
    if m.ring.kind == "fp":
        echelon = EchelonModP(m.cols, m.ring.p)
        echelon.extend(m.to_lists())
        order = np.argsort(echelon.pivots)
        zero_rows = [[0] * m.cols for _ in range(m.rows - echelon.rank)]
        return echelon.basis[order].tolist() + zero_rows, echelon.pivots[order].tolist()
    rows, _ = _clear_denominators(m)
    pivots, last_pivot, _ = _bareiss(rows, reduce=True)
    return [[Fraction(x, last_pivot) for x in row] for row in rows], pivots


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
    aug = tuple(x for i in range(a.rows) for x in a.row(i) + rhs_cols.row(i))
    rows, pivots = rref(Matrix(a.rows, a.cols + rhs_cols.cols, aug, a.ring))
    if any(pc >= a.cols for pc in pivots):
        return None  # a pivot in the rhs block: inconsistent
    k = rhs_cols.cols
    out = [rings.zero(a.ring)] * (a.cols * k)
    for r, pc in enumerate(pivots):
        for j in range(k):
            v = rows[r][a.cols + j]
            if a.ring.kind == "rational" and isinstance(v, Fraction) and v.denominator == 1:
                v = v.numerator
            out[pc * k + j] = v
    return Matrix(a.cols, k, tuple(out), a.ring)


# ---------------------------------------------------------------------------
# Kronecker product and the float lane
# ---------------------------------------------------------------------------

def _object_array(entries: Sequence, shape: Sequence[int]) -> np.ndarray:
    """The entries, as the same Python objects, in an object array of the
    shape: numpy moves them, and `.tolist()` gives back each object as it
    was, so an int stays an int and a Fraction a Fraction."""
    return np.array(entries, dtype=object).reshape(shape)


def kron(m1: Matrix, m2: Matrix) -> Matrix:
    """Kronecker product; row-block index runs over m1's rows."""
    _check_same_ring(m1, m2)
    a = _object_array(m1.entries, (m1.rows, m1.cols))
    b = _object_array(m2.entries, (m2.rows, m2.cols))
    ent = tuple(rings.reduce(x, m1.ring) for x in np.kron(a, b).ravel().tolist())
    return Matrix(m1.rows * m2.rows, m1.cols * m2.cols, ent, m1.ring)


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
