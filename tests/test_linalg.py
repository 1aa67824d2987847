import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from helpers import _fp_eliminate, bareiss_below_certified_size, invert_exact, kron_loop, rref_gauss_jordan
from tensorlab import linalg
from tensorlab.errors import ValidationError
from tensorlab.linalg import (
    WORD_PRIME,
    Matrix,
    _bareiss,
    det_exact,
    kron,
    nullspace_exact,
    rank_exact,
    rank_exact_int64,
    rank_numeric,
    rref,
    singular_values,
    solve_exact,
)
from tensorlab.minrank import gurvits_construction
from tensorlab.rings import FLOAT, RATIONAL, fp


# --- independent oracles ----------------------------------------------------

def gauss_rank_oracle(rows):
    """Plain fraction Gaussian elimination with explicit partial pivoting."""
    m = [[Fraction(x) for x in row] for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, nrows) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(rank + 1, nrows):
            if m[i][col] != 0:
                f = m[i][col] / m[rank][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def det_oracle(rows):
    """Laplace expansion, fine for tiny matrices."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(rows[0][0])
    total = Fraction(0)
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        total += (-1) ** j * Fraction(rows[0][j]) * det_oracle(minor)
    return total


def random_matrix(rng, rows, cols, lo=-10, hi=10):
    return Matrix.from_rows([[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)])


# --- rank_exact -------------------------------------------------------------

def test_rank_identity():
    assert rank_exact(Matrix.identity(3)) == 3


def test_rank_proportional_rows():
    assert rank_exact(Matrix.from_rows([[1, 2], [2, 4]])) == 1


def test_rank_random_vs_gauss_oracle():
    rng = random.Random(101)
    for _ in range(40):
        rows = [
            [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(6)]
            for _ in range(6)
        ]
        assert rank_exact(Matrix.from_rows(rows)) == gauss_rank_oracle(rows)


def test_rank_rejects_floats():
    m = Matrix.from_rows([[1.0, 0.0]], FLOAT)
    with pytest.raises(ValidationError):
        rank_exact(m)


def test_rank_fp_matches_rational_when_entries_small():
    rng = random.Random(7)
    for _ in range(20):
        rows = [[rng.randint(0, 1) for _ in range(5)] for _ in range(4)]
        r_fp = rank_exact(Matrix.from_rows(rows, fp(101)))
        # entries 0/1 and p = 101 large: ranks agree with the rational rank
        assert r_fp == gauss_rank_oracle(rows)


def test_rank_invariant_under_permutation_and_scaling():
    rng = random.Random(11)
    for _ in range(20):
        m = random_matrix(rng, 5, 4)
        rows = m.to_lists()
        rng.shuffle(rows)
        i = rng.randrange(5)
        c = rng.choice([x for x in range(-5, 6) if x])
        rows[i] = [c * x for x in rows[i]]
        assert rank_exact(Matrix.from_rows(rows)) == rank_exact(m)


def test_rank_of_kron_multiplies():
    rng = random.Random(13)
    for _ in range(10):
        a = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        b = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        assert rank_exact(kron(a, b)) == rank_exact(a) * rank_exact(b)


def low_rank_product(rng, m, n, k, rational):
    def entry():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 4)) if rational else rng.randint(-3, 3)

    left = [[entry() for _ in range(k)] for _ in range(m)]
    right = [[entry() for _ in range(n)] for _ in range(k)]
    return [[sum((left[i][t] * right[t][j] for t in range(k)), 0) for j in range(n)] for i in range(m)]


def bareiss_rank(m):
    return len(_bareiss(linalg._clear_denominators(m)[0])[0])


def padded(rows):
    """rows block-diagonal with an identity of size CERTIFY_MIN_SIDE: rank + 16,
    and large enough for rank_exact to try the certificate."""
    pad = linalg.CERTIFY_MIN_SIDE
    width = len(rows[0])
    return [list(row) + [0] * pad for row in rows] + [
        [0] * width + [int(i == j) for j in range(pad)] for i in range(pad)
    ]


@pytest.fixture
def bareiss_calls(monkeypatch):
    """Count the Bareiss fallbacks rank_exact takes."""
    calls = []

    def counted(rows, reduce=False):
        calls.append(len(rows))
        return _bareiss(rows, reduce)

    monkeypatch.setattr(linalg, "_bareiss", counted)
    return calls


@pytest.mark.parametrize(
    "shape", [(1, 7), (7, 1), (4, 9), (9, 4), (7, 7), (1, 40), (40, 1), (16, 30), (30, 16), (18, 18)], ids=str
)
@pytest.mark.parametrize("rational", [False, True], ids=["int", "rational"])
def test_rank_of_low_rank_products_matches_bareiss_and_gauss(shape, rational):
    rng = random.Random(f"rank_exact:{shape}:{rational}")
    side = min(shape)
    certified = 0
    for k in sorted({0, 1, side // 2, side - 1, side, rng.randint(0, side), rng.randint(0, side)}):
        rows = low_rank_product(rng, *shape, k, rational)
        m = Matrix.from_rows(rows)
        expected = gauss_rank_oracle(rows)
        assert rank_exact(m) == bareiss_rank(m) == expected
        if not rational:  # the same integers as an int64 array, in both orientations, read only
            a = np.array(rows, dtype=np.int64)
            assert rank_exact_int64(a) == rank_exact_int64(a.T) == expected
            assert np.array_equal(a, rows)
        # the certificate, at any size: an exact rank or no answer
        rank = linalg._certified_rank(m)
        assert rank in (None, expected)
        certified += rank is not None
    assert certified > 0


def test_int64_array_rank_of_empty_and_small_arrays_and_bad_input(bareiss_calls):
    assert rank_exact_int64(np.zeros((0, 3), dtype=np.int64)) == 0
    assert rank_exact_int64(np.zeros((3, 0), dtype=np.int64)) == 0
    assert rank_exact_int64(np.array([[2, 1], [4, 2]], dtype=np.int64)) == 1
    assert rank_exact_int64(np.eye(linalg.CERTIFY_MIN_SIDE, dtype=np.int64)) == linalg.CERTIFY_MIN_SIDE
    assert len(bareiss_calls) == 3  # the certificate only at both sides >= CERTIFY_MIN_SIDE
    for bad in (np.eye(3), np.ones(3, dtype=np.int64), np.ones((2, 2, 2), dtype=np.int64)):
        with pytest.raises(ValidationError, match="2-D int64 array"):
            rank_exact_int64(bad)


@pytest.mark.parametrize(
    "rows, rank",
    [
        ([[1, 0], [0, WORD_PRIME]], 2),  # p divides the only 2 x 2 minor
        ([[2, 1], [4, 2]], 1),  # the kernel (1, -2)/2 is not integral
        ([[Fraction(2, 3), Fraction(1, 3)], [4, 2]], 1),  # scaled to [[2, 1], [4, 2]]
        ([[2**63, 1], [2**64, 2]], 1),  # entries beyond int64, and a rank short of full
        ([[2**62, 2**62], [1, 1], [3, 3]], 1),  # A @ K could overflow int64
        # beyond int64, and p divides the only 2 x 2 minor: a kernel of the residues is none of A
        ([[1 + 2**33 * WORD_PRIME, 1], [1, 1]], 2),
    ],
)
def test_rank_falls_back_to_bareiss_when_a_bound_is_not_certified(rows, rank, bareiss_calls):
    assert linalg._certified_rank(Matrix.from_rows(rows)) is None
    big = padded(rows)
    assert rank_exact(Matrix.from_rows(big)) == rank + linalg.CERTIFY_MIN_SIDE == gauss_rank_oracle(big)
    assert len(bareiss_calls) == 1
    if all(type(x) is int and abs(x) < 2**63 for row in rows for x in row):  # the int64 array falls back too
        assert rank_exact_int64(np.array(big, dtype=np.int64)) == rank + linalg.CERTIFY_MIN_SIDE
        assert len(bareiss_calls) == 2


def test_full_rank_mod_p_is_certified_beyond_int64(bareiss_calls):
    # no kernel check is needed, so the entries need not fit int64
    rows = [[2**63, 0], [0, 1]]
    assert linalg._certified_rank(Matrix.from_rows(rows)) == 2
    big = padded(rows)
    assert rank_exact(Matrix.from_rows(big)) == 2 + linalg.CERTIFY_MIN_SIDE == gauss_rank_oracle(big)
    assert bareiss_calls == []


def test_rank_certified_with_an_int64_kernel_check(monkeypatch):
    monkeypatch.setattr(linalg, "_bareiss", bareiss_below_certified_size)
    # |A| |K| cols near 2^56 * 2 * 18: int64 holds every partial sum
    assert rank_exact(Matrix.from_rows(padded([[2**55, 2**56], [1, 2], [-3, -6]]))) == 17
    assert rank_exact(Matrix.from_rows(padded([[2**55, 2**56, 0], [1, 2, 5]]))) == 18


@pytest.mark.parametrize("n", range(1, 9))
def test_gurvits_ranks_are_certified_without_bareiss(n, monkeypatch):
    # every pencil sample and +-I witness of 16 rows or more takes the certificate
    monkeypatch.setattr(linalg, "_bareiss", bareiss_below_certified_size)
    rec = gurvits_construction(n)
    assert rec.witness_rank_minus == rec.witness_rank_plus == 2 * n * n
    assert rec.decrement == 2 * n * n


# --- nullspace --------------------------------------------------------------

def test_nullspace_identity_empty():
    assert nullspace_exact(Matrix.identity(4)) == []


def test_nullspace_one_one():
    basis = nullspace_exact(Matrix.from_rows([[1, 1]]))
    assert len(basis) == 1
    v = basis[0]
    assert v[0] * 1 + v[1] * 1 == 0 and any(v)


def test_nullspace_catalecticant_of_sum_of_cubes():
    # hand row-reduction: [[1,0,0],[0,0,1]] has kernel spanned by (0,1,0)
    m = Matrix.from_rows([[1, 0, 0], [0, 0, 1]])
    basis = nullspace_exact(m)
    assert len(basis) == 1
    v = basis[0]
    assert v[0] == 0 and v[2] == 0 and v[1] != 0


def test_nullspace_vectors_annihilate_exactly():
    rng = random.Random(17)
    for _ in range(20):
        m = random_matrix(rng, 3, 6)
        basis = nullspace_exact(m)
        assert len(basis) == 6 - rank_exact(m)
        for v in basis:
            assert all(x == 0 for x in m.mul_vector(v))


def test_nullspace_fp():
    m = Matrix.from_rows([[1, 1, 0], [0, 1, 1]], fp(3))
    basis = nullspace_exact(m)
    assert len(basis) == 1
    for v in basis:
        assert all(x % 3 == 0 for x in m.mul_vector(v))


# --- kron -------------------------------------------------------------------

def test_kron_identity():
    assert kron(Matrix.identity(2), Matrix.identity(2)).entries == Matrix.identity(4).entries


def test_kron_rotation_square_eigenvalues():
    m = Matrix.from_rows([[0, 1], [-1, 0]])
    mm = kron(m, m)
    assert mm.entries == mm.transpose().entries  # symmetric
    # spectrum (1, 1, -1, -1): exact ranks of the eigen-spaces
    eye = Matrix.identity(4)
    assert rank_exact(mm - eye) == 2
    assert rank_exact(mm + eye) == 2
    ev = sorted(np.linalg.eigvalsh(np.array(mm.to_lists(), dtype=float)))
    assert np.allclose(ev, [-1, -1, 1, 1])


def test_kron_mixed_product():
    rng = random.Random(19)
    for _ in range(10):
        a, b, c, d = (random_matrix(rng, 2, 2) for _ in range(4))
        lhs = kron(a, b).matmul(kron(c, d))
        rhs = kron(a.matmul(c), b.matmul(d))
        assert lhs.entries == rhs.entries


@pytest.mark.parametrize("ring", [RATIONAL, fp(7), FLOAT], ids=str)
def test_kron_matches_the_four_loops_value_and_type(ring):
    rng = random.Random(f"kron {ring}")

    def entry():
        if ring == RATIONAL:  # Fraction(4) stays a Fraction, as the loops keep it
            return rng.choice([rng.randint(-5, 5), Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
                               Fraction(4)])
        return rng.uniform(-2, 2) if ring == FLOAT else rng.randrange(7)

    shapes = [(0, 2), (2, 0), (1, 1), (1, 3), (3, 1), (2, 2), (2, 3), (3, 4)]
    for (r1, c1), (r2, c2) in itertools.product(shapes, repeat=2):
        a = Matrix(r1, c1, tuple(entry() for _ in range(r1 * c1)), ring)
        b = Matrix(r2, c2, tuple(entry() for _ in range(r2 * c2)), ring)
        got, ref = kron(a, b), kron_loop(a, b)
        assert (got.rows, got.cols, got.ring) == (ref.rows, ref.cols, ref.ring)
        assert [(type(x), x) for x in got.entries] == [(type(x), x) for x in ref.entries]


# --- determinants / solving -------------------------------------------------

def test_det_against_laplace_oracle():
    rng = random.Random(23)
    for n in (1, 2, 3, 4):
        for _ in range(10):
            m = random_matrix(rng, n, n, -5, 5)
            assert Fraction(det_exact(m)) == det_oracle(m.to_lists())


# --- the shared F_p elimination ----------------------------------------------

@pytest.mark.parametrize("p", [2, 3, 101])
def test_det_fp_matches_rational_det_mod_p(p):
    rng = random.Random(31 + p)
    cases = [[[1, 1], [1, 1 + p]]]  # singular mod p only
    for n in range(7):
        for trial in range(12):
            rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            if n >= 2 and trial % 4 == 0:
                rows[-1] = [a + b for a, b in zip(rows[0], rows[1])]  # singular over Q too
            cases.append(rows)
    singular = 0
    for rows in cases:
        expected = det_exact(Matrix.from_rows(rows)) % p
        assert det_exact(Matrix.from_rows(rows, fp(p))) == expected
        singular += expected == 0
    assert singular >= 12


@pytest.mark.parametrize("p", [2, 3, 101])
def test_rref_fp_unit_pivots_and_rank(p):
    rng = random.Random(37 + p)
    for _ in range(40):
        r, c = rng.randint(1, 6), rng.randint(1, 6)
        m = Matrix.from_rows([[rng.randint(0, p - 1) for _ in range(c)] for _ in range(r)], fp(p))
        rows, pivots = rref(m)
        assert len(pivots) == rank_exact(m)
        assert pivots == sorted(set(pivots))
        for k, col in enumerate(pivots):
            assert [rows[i][col] % p for i in range(r)] == [int(i == k) for i in range(r)]
        assert all(x % p == 0 for row in rows[len(pivots) :] for x in row)
        # same row space: the echelon rows add nothing to the original rows
        assert rank_exact(Matrix.from_rows(m.to_lists() + rows, fp(p))) == len(pivots)


def fp_rows(rng, p, r, c, kind):
    """r x c residues mod p: zero (kind 0), of rank min(r, c) (kind 1), with
    one row a combination of two others (kind 2), or uniform (kind 3)."""
    if kind == 0:
        return [[0] * c for _ in range(r)]
    if kind == 1:  # unit diagonal, random above it, rows and columns shuffled
        rows = [[rng.randrange(p) if j > i else int(i == j) for j in range(c)] for i in range(r)]
        rng.shuffle(rows)
        perm = rng.sample(range(c), c)
        return [[row[j] for j in perm] for row in rows]
    rows = [[rng.randrange(p) for _ in range(c)] for _ in range(r)]
    if kind == 2 and r >= 3:
        rows[-1] = [(a + 2 * b) % p for a, b in zip(rows[0], rows[1])]
    return rows


def fp_matrix(rows, r, c, p):
    return Matrix(r, c, tuple(x for row in rows for x in row), fp(p))


@pytest.mark.parametrize("p", [2, 3, 65521])
def test_fp_rank_and_rref_match_the_gauss_jordan_oracle(p):
    rng = random.Random(f"fp-oracle:{p}")
    ranks = set()
    for r, c in [(0, 0), (0, 3), (3, 0), (1, 1), (1, 5), (6, 2), (7, 3), (2, 6), (5, 5), (8, 8)]:
        for trial in range(8):
            rows = fp_rows(rng, p, r, c, trial % 4)
            m = fp_matrix(rows, r, c, p)
            expected = [list(row) for row in rows]
            pivots, _ = _fp_eliminate(expected, p)
            assert rank_exact(m) == len(pivots)
            got_rows, got_pivots = rref(m)
            assert (got_rows, got_pivots) == (expected, pivots)
            assert all(type(x) is int for row in got_rows for x in row)
            assert all(type(j) is int for j in got_pivots)
            # the zero rows are fresh lists, not one shared list
            assert len({id(row) for row in got_rows}) == r
            ranks.add((len(pivots) == 0, len(pivots) == min(r, c)))
    assert {(True, False), (False, True), (False, False)} <= ranks


@pytest.mark.parametrize("p", [2, 3, 65521])
def test_det_fp_matches_the_gauss_jordan_oracle(p):
    rng = random.Random(f"fp-det-oracle:{p}")
    values = set()
    for n in range(9):
        for trial in range(8):
            rows = fp_rows(rng, p, n, n, trial % 4)
            pivots, det_factor = _fp_eliminate([list(row) for row in rows], p)
            expected = det_factor if len(pivots) == n else 0
            got = det_exact(fp_matrix(rows, n, n, p))
            assert got == expected and type(got) is int
            values.add(expected)
    assert 0 in values and len(values) >= min(p, 3)


# --- the Q eliminator: _bareiss against Gauss-Jordan on Fractions -----------

Q_SHAPES = [(0, 0), (0, 3), (3, 0), (1, 1), (1, 5), (5, 1), (6, 2), (7, 3), (2, 6), (3, 7), (5, 5), (8, 8)]


def q_rows(rng, r, c, kind):
    """r x c rationals: zero (kind 0), of rank min(r, c) (kind 1), a product of
    rank about half the side (kind 2), small uniform (kind 3), or with
    numerators near 10^15 and denominators near 10^12 (kind 4)."""
    if kind == 0:
        return [[0] * c for _ in range(r)]
    if kind == 1:  # unit diagonal, random above it, rows and columns shuffled
        rows = [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) if j > i else int(i == j) for j in range(c)]
                for i in range(r)]
        rng.shuffle(rows)
        perm = rng.sample(range(c), c)
        return [[row[j] for j in perm] for row in rows]
    if kind == 2:
        return low_rank_product(rng, r, c, min(r, c) // 2, True)
    if kind == 3:
        return [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(c)] for _ in range(r)]
    return [[Fraction(rng.randint(-10**15, 10**15), rng.randint(1, 10**12)) for _ in range(c)] for _ in range(r)]


def q_matrix(rows, r, c):
    return Matrix(r, c, tuple(Fraction(x) for row in rows for x in row), RATIONAL)


def q_cases(seed):
    rng = random.Random(seed)
    for r, c in Q_SHAPES:
        for kind in range(5):
            for _ in range(3):
                yield q_matrix(q_rows(rng, r, c, kind), r, c)


def test_rational_rref_rank_and_nullspace_match_the_gauss_jordan_oracle():
    ranks = set()
    for m in q_cases("q-oracle"):
        rows, pivots = rref_gauss_jordan(m)
        got_rows, got_pivots = rref(m)
        assert (got_rows, got_pivots) == (rows, pivots)
        assert all(type(x) is Fraction for row in got_rows for x in row)
        assert all(type(j) is int for j in got_pivots) and len(got_rows) == m.rows
        assert rank_exact(m) == len(pivots)
        # the kernel basis is fixed by the reduced form: a unit at each free column
        free = [j for j in range(m.cols) if j not in pivots]
        expected = [[-rows[pivots.index(j)][f] if j in pivots else int(j == f) for j in range(m.cols)]
                    for f in free]
        kernel = nullspace_exact(m)
        assert kernel == expected
        assert all(type(x) is int for v in kernel for x in v if Fraction(x).denominator == 1)
        ranks.add((len(pivots) == 0, len(pivots) == min(m.rows, m.cols)))
    assert {(True, True), (True, False), (False, True), (False, False)} <= ranks


def test_rational_solve_matches_the_gauss_jordan_oracle():
    rng = random.Random("q-solve-oracle")
    consistent = 0
    for m in q_cases("q-solve-matrices"):
        if m.rows == 0:
            continue
        rhs = q_matrix(q_rows(rng, m.rows, 2, rng.choice([0, 3, 4])), m.rows, 2)
        if rng.random() < 0.5 and m.cols:  # a consistent right-hand side
            x = q_matrix(q_rows(rng, m.cols, 2, 3), m.cols, 2)
            rhs = m.matmul(x)
        aug = Matrix(m.rows, m.cols + 2, tuple(
            v for i in range(m.rows) for v in m.row(i) + rhs.row(i)), RATIONAL)
        rows, pivots = rref_gauss_jordan(aug)
        got = solve_exact(m, rhs)
        if pivots and pivots[-1] >= m.cols:
            assert got is None
            continue
        consistent += 1
        expected = [[0, 0] for _ in range(m.cols)]  # free variables are zero
        for r, pc in enumerate(pivots):
            expected[pc] = rows[r][m.cols :]
        assert got.to_lists() == expected
        if m.cols:
            assert m.matmul(got).entries == rhs.entries
    assert consistent >= 40


def test_rational_det_matches_the_laplace_oracle_and_the_rank():
    values = set()
    for m in q_cases("q-det-oracle"):
        if m.rows != m.cols or m.rows > 7:
            continue
        det = det_exact(m)
        assert det == det_oracle(m.to_lists())
        assert (det != 0) == (len(rref_gauss_jordan(m)[1]) == m.rows)
        assert type(det) is (int if Fraction(det).denominator == 1 else Fraction)
        values.add(det == 0)
    assert values == {True, False}


def test_bareiss_reduced_pivot_rows_are_last_pivot_times_rref():
    for m in q_cases("q-bareiss-reduce"):
        rows, pivots = rref_gauss_jordan(m)
        reduced = linalg._clear_denominators(m)[0]
        got_pivots, last_pivot, sign = _bareiss(reduced, reduce=True)
        assert got_pivots == pivots
        k = len(pivots)
        assert reduced[:k] == [[last_pivot * x for x in row] for row in rows[:k]]
        assert all(x == 0 for row in reduced[k:] for x in row)
        assert all(type(x) is int for row in reduced for x in row)
        # clearing only below each pivot finds the same pivots, last pivot and sign
        assert _bareiss(linalg._clear_denominators(m)[0]) == (pivots, last_pivot, sign)
        if m.rows == m.cols == k and k <= 7:
            int_rows, scale = linalg._clear_denominators(m)
            assert sign * last_pivot == det_oracle(int_rows)


def test_solve_and_invert():
    rng = random.Random(29)
    for _ in range(10):
        m = random_matrix(rng, 3, 3)
        if rank_exact(m) < 3:
            continue
        inv = invert_exact(m)
        assert m.matmul(inv).entries == Matrix.identity(3).entries
        rhs = random_matrix(rng, 3, 2)
        x = solve_exact(m, rhs)
        assert m.matmul(x).entries == rhs.entries


@pytest.mark.parametrize("ring", [RATIONAL, fp(5)], ids=str)
def test_solve_with_no_unknowns_or_no_equations_has_the_solution_shape(ring):
    # no unknowns: consistent exactly when the right-hand side is zero
    a = Matrix(3, 0, (), ring)
    x = solve_exact(a, Matrix.zeros(3, 2, ring))
    assert (x.rows, x.cols) == (0, 2)
    assert a.matmul(x) == Matrix.zeros(3, 2, ring)
    assert solve_exact(a, Matrix.from_rows([[0, 0], [1, 0], [0, 0]], ring)) is None
    # no equations: every unknown is free, so zero
    a = Matrix(0, 3, (), ring)
    x = solve_exact(a, Matrix(0, 2, (), ring))
    assert x == Matrix.zeros(3, 2, ring)
    assert a.matmul(x) == Matrix(0, 2, (), ring)
    # no right-hand sides
    a = Matrix.from_rows([[1, 2], [3, 4]], ring)
    assert solve_exact(a, Matrix(2, 0, (), ring)) == Matrix(2, 0, (), ring)


def test_invert_singular_matrix_raises():
    for rows in ([[1, 2], [2, 4]], [[0, 0], [0, 0]], [[1, 0, 1], [0, 1, 1], [1, 1, 2]]):
        with pytest.raises(ValidationError, match="matrix is singular"):
            invert_exact(Matrix.from_rows(rows))
    with pytest.raises(ValidationError, match="matrix is singular"):
        invert_exact(Matrix.from_rows([[1, 1], [1, 1]], fp(5)))


# --- float lane -------------------------------------------------------------

def test_singular_values_diag():
    sv = singular_values(Matrix.from_rows([[3.0, 0.0], [0.0, 2.0]], FLOAT))
    assert np.allclose(sv, [3.0, 2.0])


def test_singular_values_bell():
    s = 1 / math.sqrt(2)
    sv = singular_values(Matrix.from_rows([[s, 0.0], [0.0, s]], FLOAT))
    assert np.allclose(sv, [s, s])


def test_singular_values_frobenius():
    rng = random.Random(31)
    for _ in range(10):
        rows = [[rng.uniform(-3, 3) for _ in range(5)] for _ in range(5)]
        m = Matrix.from_rows(rows, FLOAT)
        frob = sum(x * x for row in rows for x in row)
        assert abs(sum(s * s for s in singular_values(m)) - frob) < 1e-10


def test_rank_numeric_identity_and_zero():
    assert rank_numeric(Matrix.identity(4, FLOAT), 1e-8) == 4
    assert rank_numeric(Matrix.zeros(3, 3, FLOAT)) == 0


def test_rank_numeric_matches_exact_on_float_cast():
    rng = random.Random(37)
    for _ in range(100):
        m = random_matrix(rng, 8, 8)
        cast = Matrix.from_rows([[float(x) for x in row] for row in m.to_lists()], FLOAT)
        assert rank_numeric(cast, 1e-8) == rank_exact(m)
