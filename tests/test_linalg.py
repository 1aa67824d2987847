import math
import random
from fractions import Fraction

import numpy as np
import pytest

from tensorlab.errors import ValidationError
from tensorlab.linalg import (
    Matrix,
    det_exact,
    invert_exact,
    kron,
    nullspace_exact,
    rank_exact,
    rank_numeric,
    rref,
    singular_values,
    solve_exact,
)
from tensorlab.rings import FLOAT, fp


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
