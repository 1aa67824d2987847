"""Tensor and matrix constructions that only the tests use.

Each was once part of the package and either had no caller in it or was
replaced by another implementation; the tests keep them here with their
behaviour unchanged, the replaced ones as references to compare against.
"""

import itertools
import math
import random
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from tensorlab import rings
from tensorlab.decomp import Decomposition, GrossReport, _proportionality_scalar
from tensorlab.errors import CapExceeded, TensorlabError, ValidationError
from tensorlab.kronecker import _beta_mask, _partition_tuples
from tensorlab.linalg import (
    CERTIFY_MIN_SIDE,
    Matrix,
    _bareiss,
    _check_same_ring,
    _check_word_prime,
    _matmul_mod_p,
    _residues,
    kron,
    matrix_from_vectors,
    nullspace_exact,
    rank_exact,
    solve_exact,
)
from tensorlab.matchgate import (
    BLOCK_ENTRIES,
    MATCHING_NODE_CAP,
    MGI_WIRE_CAP,
    SignatureVector,
    SkewMatrix,
    _pfaffian_on,
)
from tensorlab.minrank import GURVITS_CAP, GurvitsRecord, MatrixSubspace, gurvits_space
from tensorlab.ranks import _poly_deg, _squarefree_kernel_vector, catalecticant, normalized_form_coefficients
from tensorlab.rings import RATIONAL, Ring
from tensorlab.tensors import (
    Bipartition,
    DenseTensor,
    _check_shape,
    flatten,
    is_symmetric,
    multi_indices,
    rank_one,
    zeros,
)


def segre_veronese_point(
    vectors: Sequence[Sequence], degrees: Sequence[int], ring: Ring = RATIONAL
) -> DenseTensor:
    """Tensor power of each factor to its degree, then the outer product."""
    if len(vectors) != len(degrees):
        raise ValidationError("one degree per factor vector is required")
    if any(d < 1 for d in degrees):
        raise ValidationError("degrees must be >= 1")
    factors = []
    for v, d in zip(vectors, degrees):
        factors.extend([v] * d)
    return rank_one(factors, ring)


def symmetrize(t: DenseTensor) -> DenseTensor:
    """Average over all factor permutations; idempotent."""
    if len(set(t.shape)) != 1:
        raise ValidationError("symmetrize needs equal factor dimensions")
    d = t.order
    if t.ring.kind == "fp" and math.factorial(d) % t.ring.p == 0:
        raise ValidationError(f"{d}! is not invertible in F_{t.ring.p}")
    perms = list(itertools.permutations(range(d)))
    sums = [
        sum((t[tuple(idx[p] for p in perm)] for perm in perms), rings.zero(t.ring))
        for idx in multi_indices(t.shape)
    ]
    if t.ring.kind == "float":
        return DenseTensor(t.shape, tuple(x / len(perms) for x in sums), t.ring)
    inv = pow(len(perms), -1, t.ring.p) if t.ring.kind == "fp" else Fraction(1, len(perms))
    # coerce, not reduce: the average of integers is an int again when it can be
    return DenseTensor(t.shape, tuple(rings.coerce(x * inv, t.ring) for x in sums), t.ring)


def random_tensor(shape: Sequence[int], ring: Ring = RATIONAL, seed: int = 0) -> DenseTensor:
    """Tensor with integer entries drawn uniformly from [-10, 10] (seeded)."""
    _check_shape(shape)
    rng = random.Random(seed)
    raw = [rng.randint(-10, 10) for _ in range(math.prod(shape))]
    data = tuple(rings.coerce(x, ring) for x in raw)
    return DenseTensor(tuple(shape), data, ring)


def invert_exact(m: Matrix) -> Matrix:
    if m.rows != m.cols:
        raise ValidationError("inverse of a non-square matrix")
    inv = solve_exact(m, Matrix.identity(m.rows, m.ring))
    if inv is None:
        raise ValidationError("matrix is singular")
    return inv


def cone_rows(blocks) -> list[tuple]:
    """kronecker.cone_sample's per-size blocks flattened to its rows,
    (lambda, mu, nu, K), in table order."""
    return [
        (lams[i], mus[j], nus[k], value)
        for lams, mus, nus, ijk, ks in blocks
        for (i, j, k), value in zip(ijk, ks)
    ]


@lru_cache(maxsize=None)
def _mn(mask: int, mu: tuple[int, ...]) -> int:
    """Murnaghan-Nakayama recursion: remove a border strip of size mu[0].

    The strip moves a bead from j + k to the empty position j; its height is
    the number of beads strictly between.  Beads left at 0, 1, ... are
    zero-length parts and are shifted away, so each partition has one mask.
    """
    if not mu:
        return 1
    k, rest = mu[0], mu[1:]
    between = (1 << (k - 1)) - 1
    total = 0
    moves = (mask >> k) & ~mask  # bit j: a bead at j + k and a gap at j
    while moves:
        j = moves.bit_length() - 1
        moves ^= 1 << j
        moved = mask ^ (1 << (j + k)) ^ (1 << j)
        moved >>= ((moved + 1) & ~moved).bit_length() - 1
        height = ((mask >> (j + 1)) & between).bit_count()
        total += (-1) ** height * _mn(moved, rest)
    return total


@lru_cache(maxsize=None)
def _character_row(parts: tuple[int, ...]) -> tuple[int, ...]:
    """chi_lambda on every class of S_|lambda|, in partitions_of order."""
    mask = _beta_mask(parts)
    return tuple(_mn(mask, rho) for rho in _partition_tuples(sum(parts)))


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


def rref_gauss_jordan(m: Matrix) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over Q by Gauss-Jordan on Fractions;
    returns (rows, pivot columns)."""
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


# stride loops that `tensors.flatten`, `is_symmetric`, `braid` and
# `linalg.kron` replaced with axis permutations of one object array


def flatten_loop(t: DenseTensor, b: Bipartition) -> Matrix:
    """Matrix of the tensor regrouped by the bipartition.

    Rows enumerate the left multi-indices in row-major order over ascending
    factor positions; columns do the same for the complement.  Entries are
    copied, no arithmetic happens.
    """
    if tuple(sorted(b.left + b.right)) != tuple(range(t.order)):
        raise ValidationError("bipartition does not match tensor order")
    left_shape = tuple(t.shape[p] for p in b.left)
    right_shape = tuple(t.shape[p] for p in b.right)
    rows, cols = math.prod(left_shape), math.prod(right_shape)
    strides = t.strides()
    ent = [None] * (rows * cols)
    for r, li in enumerate(multi_indices(left_shape)):
        base = sum(strides[p] * i for p, i in zip(b.left, li))
        row_off = r * cols
        for c, ri in enumerate(multi_indices(right_shape)):
            ent[row_off + c] = t.data[base + sum(strides[p] * i for p, i in zip(b.right, ri))]
    return Matrix(rows, cols, tuple(ent), t.ring)


def is_symmetric_loop(t: DenseTensor) -> bool:
    """True iff entries are invariant under adjacent factor transpositions."""
    dims = set(t.shape)
    if len(dims) != 1:
        raise ValidationError("symmetry needs equal factor dimensions")
    for k in range(t.order - 1):
        for idx in multi_indices(t.shape):
            if idx[k] < idx[k + 1]:
                swapped = list(idx)
                swapped[k], swapped[k + 1] = swapped[k + 1], swapped[k]
                if t[idx] != t[tuple(swapped)]:
                    return False
    return True


def braid_loop(t: DenseTensor, perm: Sequence[int]) -> DenseTensor:
    """Permute tensor factors: new factor j is old factor perm[j] (0-based)."""
    if sorted(perm) != list(range(t.order)):
        raise ValidationError(f"{tuple(perm)} is not a permutation of the factors")
    new_shape = tuple(t.shape[p] for p in perm)
    data = [None] * len(t.data)
    old = [0] * t.order
    for flat, idx in enumerate(multi_indices(new_shape)):
        for j, p in enumerate(perm):
            old[p] = idx[j]
        data[flat] = t[tuple(old)]
    return DenseTensor(new_shape, tuple(data), t.ring)


def kron_loop(m1: Matrix, m2: Matrix) -> Matrix:
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


def sub_pfaffian_vector_by_recursion(a: SkewMatrix, universe: Optional[Sequence[int]] = None) -> SignatureVector:
    """Vector of principal sub-Pfaffians indexed by deleted subsets of the
    universe: entry at J is the Pfaffian with rows and columns J removed
    (the per-entry loop the bitmask table of `matchgate.sub_pfaffian_vector`
    replaced).

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


def mgi_residuals_by_top_bit(s: SignatureVector) -> np.ndarray:
    """Residuals of the Pfaffian bilinear identities on a binary signature,
    summed per top bit of the difference pattern (the kernel the sign-folded
    products of `matchgate.mgi_residuals` replaced).

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


def bareiss_below_certified_size(rows, reduce=False):
    """`linalg._bareiss` that fails on a matrix large enough for the rank
    certificate; patched in, it requires that `rank_exact` certifies."""
    if min(len(rows), len(rows[0])) >= CERTIFY_MIN_SIDE:
        raise AssertionError("rank_exact fell back to Bareiss")
    return _bareiss(rows, reduce)


def poly_gcd_degree_euclid(a: list[Fraction], b: list[Fraction]) -> int:
    """Degree of gcd(a, b) over the rationals (Euclid; -1 for gcd of zeros);
    the square-free test that `ranks.is_squarefree_binary` replaced by the
    rank of a Sylvester matrix."""
    a, b = list(a), list(b)
    while _poly_deg(b) >= 0:
        da, db = _poly_deg(a), _poly_deg(b)
        if da < db:
            a, b = b, a
            continue
        lead = a[da] / b[db]
        for i in range(db + 1):
            a[da - db + i] -= lead * b[i]
        a = a[: _poly_deg(a) + 1] if _poly_deg(a) >= 0 else []
        if _poly_deg(a) < _poly_deg(b):
            a, b = b, a
    return _poly_deg(a)


def apolar_kernel_form_ladder(coeffs: Sequence) -> tuple[int, list[Fraction]]:
    """Smallest level s with a square-free kernel form, plus the form, by
    searching every catalecticant level from 1 up (the ladder that the two
    Sylvester levels of `ranks.apolar_kernel_form` replaced).

    The levels run up to d: the level-d kernel is a hyperplane, which the
    discriminant does not contain, so a binary form of degree d >= 1 always
    has rank at most d, attained by the x^(d-1)y family.
    """
    d = len(coeffs) - 1
    normalized_form_coefficients(coeffs)  # validates nonzero
    if d < 1:
        raise ValidationError("a binary form needs degree at least 1")
    for s in range(1, d + 1):
        g = _squarefree_kernel_vector(nullspace_exact(catalecticant(coeffs, s)), s)
        if g is not None:
            return s, g
    raise TensorlabError("no square-free form in the level-d kernel; this is a bug")


def gross_check_by_contraction(t: DenseTensor, d: Decomposition) -> GrossReport:
    """Certify symmetry of a decomposition of a symmetric tensor (the
    dual-basis contraction that `decomp.gross_check` replaced).

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
    duals: dict[tuple[int, ...], Optional[Matrix]] = {}
    for I in itertools.combinations(range(order), order - 2):
        rows = []
        for summand in d.summands:
            proj = rank_one([summand[j] for j in I], d.ring) if len(I) > 1 else None
            rows.append(proj.data if proj is not None else summand[I[0]])
        w = matrix_from_vectors(rows, d.ring)
        # rows alpha_i with alpha_i(w_j) = delta_ij: W X = I is solvable
        # exactly when the projections are linearly independent
        duals[I] = solve_exact(w, Matrix.identity(r, d.ring))
        independence[I] = duals[I] is not None

    if not all(independence.values()):
        return GrossReport(independence, False, None, None)

    # pairwise proportionality via the dual-basis contractions alpha_i(T)
    proportional: dict[tuple[int, int], list] = {}
    for I, dual_t in duals.items():
        k, l = [p for p in range(order) if p not in I]
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

    # every factor against factor 0 of its summand: the pairs (0, k) above
    certificates = tuple(
        (rings.one(d.ring),) + tuple(proportional[(0, k)][i] for k in range(1, order))
        for i in range(r)
    )
    return GrossReport(independence, True, True, certificates)


# The F_p echelon kernel before it kept only the free-column block: the full
# k x ncols basis, reduced and cleared over every column.  Unchanged but for
# its name and an explicit copy of each block, which `_residues` no longer
# makes of a block of residues; the reference for the differential tests of
# linalg.EchelonModP.
class EchelonModPFullBasis:
    """Reduced row echelon basis over F_p (p prime < 2^31) that grows by blocks.

    `basis` is k x ncols with `basis[:, pivots]` the identity.  `extend`
    reduces a block of rows against it in one product, x - x[:, pivots] @
    basis, eliminates what is left on its own, clears the basis at the new
    pivots in a second product and appends the new rows.  Growing a basis by
    blocks gives the rank mod p of all the rows stacked.
    """

    def __init__(self, ncols: int, p: int):
        _check_word_prime(p, "EchelonModP")
        if ncols * 2**16 * p >= 2**63:
            raise ValidationError(f"{ncols} columns overflow the int64 limb products mod {p}")
        self.p = p
        self.basis = np.zeros((0, ncols), dtype=np.int64)
        self.pivots = np.zeros(0, dtype=np.intp)

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def extend(self, rows: Sequence[Sequence[int]]) -> int:
        """Add integer rows (reduced mod p) to the span; returns the new rank."""
        if len(rows) == 0:
            return self.rank
        p = self.p
        x = np.array(_residues(rows, p))  # a copy: _residues returns a block of residues itself
        del rows  # free big-int rows (when the caller holds no other reference) before eliminating
        if x.shape[1] != self.basis.shape[1]:
            raise ValidationError(f"rows of width {x.shape[1]} for {self.basis.shape[1]} columns")
        if self.rank:
            x -= _matmul_mod_p(x[:, self.pivots], self.basis, p)
            x %= p
        heads, cols = [], []
        for i in range(len(x)):
            nonzero = np.flatnonzero(x[i])
            if not nonzero.size:
                continue
            j = nonzero[0]
            x[i] = x[i] * pow(int(x[i, j]), -1, p) % p
            # clear column j in every other row, earlier heads too, in one update
            h = np.flatnonzero(x[:, j])
            h = h[h != i]
            x[h] = (x[h] - x[h, j, None] * x[i]) % p
            heads.append(i)
            cols.append(j)
        if cols:
            new = x[heads]
            del x  # before the merged basis is allocated
            if self.rank:
                self.basis -= _matmul_mod_p(self.basis[:, cols], new, p)
                self.basis %= p
            # column-major, so the product's inner loop walks the basis contiguously
            basis = np.empty((self.rank + len(cols), new.shape[1]), dtype=np.int64, order="F")
            basis[: self.rank] = self.basis
            basis[self.rank :] = new
            self.basis = basis
            self.pivots = np.concatenate([self.pivots, cols])
        return self.rank


# The stacked F_p rank kernel before it worked in float64: the stack held in
# the narrowest int type exact for p, reduced by `%` after every update.
# Unchanged but for its name; the reference for the differential tests of
# linalg.ranks_mod_p.
def ranks_mod_p_in_narrow_ints(stack, p: int) -> np.ndarray:
    """Ranks over F_p of a (B, m, n) stack of integer matrices, p prime < 2^31.

    The B eliminations run side by side, without inverses: with `lead` the
    first nonzero entry of a head row (1 where the head row is zero), every
    row below becomes lead * row - row[j] * head in one broadcast update.
    Scaling a row by a nonzero lead keeps the rank.  Residues lie in [0, p),
    so every intermediate value lies within +-(p - 1)^2, and the stack is
    held in the narrowest int type that holds that: int16 for p <= 181,
    int32 for p <= 46337, int64 up to 2^31.  Returns the B ranks in int64.
    """
    _check_word_prime(p, "ranks_mod_p")
    a = np.asarray(stack, dtype=np.int64) % p
    if a.ndim != 3:
        raise ValidationError(f"ranks_mod_p needs a (B, m, n) stack, got shape {a.shape}")
    dtype = next(t for t in (np.int16, np.int32, np.int64) if (p - 1) ** 2 <= np.iinfo(t).max)
    a = a.astype(dtype, copy=False)
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
        a %= p
    return ranks


def tensor_subspace(s1: MatrixSubspace, s2: MatrixSubspace) -> MatrixSubspace:
    """Tensor product of subspaces, braided so rows pair with rows.

    The basis consists of all Kronecker products of basis pairs; the
    Kronecker product is exactly the braiding that regroups
    (rows1 x cols1) x (rows2 x cols2) into (rows1 rows2) x (cols1 cols2).
    """
    if s1.ring != s2.ring:
        raise ValidationError("ring mismatch in tensor_subspace")
    basis = tuple(kron(b1, b2) for b1 in s1.basis for b2 in s2.basis)
    return MatrixSubspace(s1.rows * s2.rows, s1.cols * s2.cols, basis, s1.ring)


def gurvits_construction_by_matrices(n: int) -> GurvitsRecord:
    """`minrank.gurvits_construction` with every rank taken by `rank_exact` of
    a `Matrix`: each pencil sample, and both witnesses as tuples of Python
    ints (the kernel it replaced; the package ranks int64 arrays instead)."""
    if n < 1:
        raise ValidationError("n must be >= 1")
    if n > GURVITS_CAP:
        raise CapExceeded(f"n = {n} exceeds GURVITS_CAP {GURVITS_CAP}")
    space = gurvits_space(n)
    m_block, identity = space.basis
    for a, b in [(0, 1), (1, 1), (-1, 1), (2, 1), (-2, 1), (3, 1), (-3, 1), (1, 0)]:
        r = rank_exact(space.element((a, b)))
        if r != 2 * n:
            raise ValidationError(f"pencil sample ({a},{b}) has rank {r}, expected {2*n}")
    a = np.array(m_block.entries, dtype=np.int64).reshape(m_block.rows, m_block.cols)
    square = np.kron(a, a)
    eye = np.eye(len(square), dtype=np.int64)
    minus, plus = (
        Matrix(*square.shape, tuple((square + sign * eye).ravel().tolist()), RATIONAL) for sign in (-1, 1)
    )
    rank_minus = rank_exact(minus)
    rank_plus = rank_exact(plus)
    return GurvitsRecord(
        n=n,
        space=space,
        minrank_x=2 * n,
        witness_rank_minus=rank_minus,
        witness_rank_plus=rank_plus,
        decrement=(2 * n) ** 2 - rank_minus,
    )
