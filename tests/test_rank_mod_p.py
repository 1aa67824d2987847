"""Differential tests: ranks modulo a prime, one matrix or a stack, against the
exact kernels (Bareiss over Q, F_p elimination)."""

import random
from fractions import Fraction

import numpy as np
import pytest

from tensorlab.errors import ValidationError
from tensorlab.linalg import WORD_PRIME, Matrix, _fp_eliminate, rank_exact, rank_mod_p, ranks_mod_p
from tensorlab.rings import fp
from tensorlab.secants import parse_variety, secant_dimension, terracini_rows


def bareiss(rows):
    return rank_exact(Matrix.from_rows(rows)) if rows else 0


def random_rows(rng, m, n, lo=-10, hi=10):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)]


@pytest.mark.parametrize("shape", [(12, 5), (5, 12), (9, 9), (1, 7), (7, 1)], ids=str)
def test_random_matrices_agree(shape):
    rng = random.Random(f"rank_mod_p:{shape}")
    for _ in range(5):
        rows = random_rows(rng, *shape)
        assert rank_mod_p(rows, WORD_PRIME) == bareiss(rows)


def test_empty_and_zero_matrices():
    assert rank_mod_p([], WORD_PRIME) == 0
    assert rank_mod_p([[], []], WORD_PRIME) == 0
    assert rank_mod_p([[0] * 6 for _ in range(4)], WORD_PRIME) == 0
    assert bareiss([[0] * 6 for _ in range(4)]) == 0


def test_rank_deficient_products_agree():
    rng = random.Random("rank_mod_p:products")
    for m, k, n in [(10, 3, 8), (6, 6, 9), (15, 7, 12), (8, 1, 8), (12, 11, 12)]:
        a = random_rows(rng, m, k)
        b = random_rows(rng, k, n)
        prod = [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(n)] for i in range(m)]
        assert rank_mod_p(prod, WORD_PRIME) == bareiss(prod) <= k


def test_negative_and_huge_entries_agree():
    rng = random.Random("rank_mod_p:huge")
    big = 2**63
    for _ in range(5):
        rows = random_rows(rng, 7, 6, -(2**70), 2**70)
        rows[0][0] = big  # one entry above int64 forces the Python-int reduction
        rows[1][1] = -big - 5
        assert rank_mod_p(rows, WORD_PRIME) == bareiss(rows)
    # rows that are multiples of each other by huge and negative factors
    base = random_rows(rng, 1, 5)[0]
    rows = [base, [-(big + 3) * x for x in base], [(2**100) * x for x in base]]
    assert rank_mod_p(rows, WORD_PRIME) == bareiss(rows) == 1


def test_rank_mod_p_sees_what_p_divides():
    # rank over Q is 2, but the second row vanishes mod p: a lower bound only
    rows = [[1, 0], [0, WORD_PRIME]]
    assert bareiss(rows) == 2
    assert rank_mod_p(rows, WORD_PRIME) == 1


def test_small_prime_matches_fp_ring():
    rng = random.Random("rank_mod_p:fp")
    for p in (2, 3, 7, 65521):
        for _ in range(4):
            rows = random_rows(rng, 6, 8, 0, p - 1)
            assert rank_mod_p(rows, p) == rank_exact(Matrix.from_rows(rows, fp(p)))


def test_rejects_non_integers_and_bad_moduli():
    with pytest.raises(ValidationError, match="integer"):
        rank_mod_p([[1, Fraction(1, 2)]], WORD_PRIME)
    with pytest.raises(ValidationError, match="integer"):
        rank_mod_p([[1, 2.5]], WORD_PRIME)
    with pytest.raises(ValidationError, match="ragged"):
        rank_mod_p([[1, 2], [3]], WORD_PRIME)
    for p in (1, 4, 2**31 + 11, 2**61 - 1):
        with pytest.raises(ValidationError, match="prime"):
            rank_mod_p([[1]], p)


# every small shipped cell, one trial each: the exact matrix secant_dimension ranks
TERRACINI_CELLS = [
    ("segre:2,2,2,2", 3),
    ("segre:3,3,3", 4),
    ("veronese:3,4", 5),
    ("segver:3,3@2,2", 7),
    ("segver:3,3@2,2", 8),
    ("sub:4,4,4@2,2,2", 2),
    ("sub:4,4,4@2,2,2", 4),
    ("symsub:5@2,3", 3),
    ("symsub:5@2,3", 4),
]


@pytest.mark.parametrize("variety,r", TERRACINI_CELLS, ids=lambda x: str(x))
def test_terracini_matrices_agree(variety, r):
    rows = terracini_rows(parse_variety(variety), r, seed=0, trial=0)
    assert rank_mod_p(rows, WORD_PRIME) == bareiss(rows)


def test_veronese_2_30_beyond_int64():
    spec = parse_variety("veronese:2,30")
    rows = terracini_rows(spec, 8, seed=0, trial=0)
    assert max(abs(x) for row in rows for x in row) >= 2**63
    # binary forms are never defective: sigma_8 of the degree-30 curve has dim 16
    report = secant_dimension(spec, 8)
    assert report.computed_affine_dim == report.expected_affine_dim == 16
    for r in (12, 16):
        trials = [terracini_rows(spec, r, seed=0, trial=t) for t in range(3)]
        assert secant_dimension(spec, r).computed_affine_dim == max(map(bareiss, trials))


# --- stacked ranks: ranks_mod_p against the exact per-matrix kernels --------------------

STACK_SHAPES = [(4, 4), (6, 6), (8, 3), (3, 8), (1, 5), (5, 1)]


def random_stack(rng, count, shape, lo, hi):
    stack = []
    for i in range(count):
        rows = random_rows(rng, *shape, lo, hi)
        if i % 4 == 1:
            rows = [[0] * shape[1] for _ in range(shape[0])]
        elif i % 4 == 2 and shape[0] > 1:
            rows[-1] = list(rows[0])  # a repeated row
        elif i % 4 == 3:
            for row in rows:
                for j in range(shape[1]):
                    if rng.random() < 0.5:
                        row[j] = 0
        stack.append(rows)
    return stack


@pytest.mark.parametrize("p", [2, 3, 101])
@pytest.mark.parametrize("shape", STACK_SHAPES, ids=str)
def test_ranks_mod_p_matches_fp_rank_exact(p, shape):
    rng = random.Random(f"ranks_mod_p:{p}:{shape}")
    stack = random_stack(rng, 40, shape, -p, 2 * p)  # unreduced and negative entries too
    expected = [rank_exact(Matrix.from_rows(rows, fp(p))) for rows in stack]
    assert ranks_mod_p(np.array(stack, dtype=np.int64), p).tolist() == expected


@pytest.mark.parametrize("shape", STACK_SHAPES, ids=str)
def test_ranks_mod_p_word_prime_matches_bareiss_and_fp_elimination(shape):
    rng = random.Random(f"ranks_mod_p:word:{shape}")
    # |entries| <= 9 and at most 6 x 6: every nonzero minor is below 9^6 6^3 < 2^31
    # in absolute value, so WORD_PRIME divides none and the two ranks agree
    small = random_stack(rng, 40, shape, -9, 9)
    expected = [bareiss(rows) for rows in small]
    assert ranks_mod_p(np.array(small, dtype=np.int64), WORD_PRIME).tolist() == expected
    # full-range residues, where products of two entries come near 2^62
    big = random_stack(rng, 40, shape, WORD_PRIME - 2**20, WORD_PRIME - 1)
    expected = [len(_fp_eliminate([list(r) for r in rows], WORD_PRIME)[0]) for rows in big]
    assert ranks_mod_p(np.array(big, dtype=np.int64), WORD_PRIME).tolist() == expected


def test_ranks_mod_p_products_and_empty_stacks():
    rng = random.Random("ranks_mod_p:products")
    stack = []
    for k in (1, 2, 3, 5):
        a, b = random_rows(rng, 5, k), random_rows(rng, k, 6)
        stack.append([[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(6)] for i in range(5)])
    assert ranks_mod_p(np.array(stack), 101).tolist() == [
        rank_exact(Matrix.from_rows(rows, fp(101))) for rows in stack
    ]
    assert ranks_mod_p(np.zeros((0, 3, 4), dtype=np.int64), 3).tolist() == []
    assert ranks_mod_p(np.zeros((2, 0, 4), dtype=np.int64), 3).tolist() == [0, 0]
    assert ranks_mod_p(np.zeros((2, 4, 0), dtype=np.int64), 3).tolist() == [0, 0]


def test_ranks_mod_p_rejects_bad_moduli_and_shapes():
    for p in (1, 4, 2**31 + 11):
        with pytest.raises(ValidationError, match="prime"):
            ranks_mod_p(np.ones((1, 2, 2), dtype=np.int64), p)
    with pytest.raises(ValidationError, match="stack"):
        ranks_mod_p(np.ones((2, 2), dtype=np.int64), 3)
