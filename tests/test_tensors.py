import itertools
import math
import random
from fractions import Fraction

import pytest

from helpers import (
    braid_loop,
    flatten_loop,
    is_symmetric_loop,
    random_tensor,
    segre_veronese_point,
    symmetrize,
)
from tensorlab.errors import ValidationError
from tensorlab.linalg import Matrix, rank_exact
from tensorlab.rings import FLOAT, RATIONAL, fp
from tensorlab.tensors import (
    MAX_FACTORS,
    Bipartition,
    DenseTensor,
    braid,
    dumps_tensor,
    flatten,
    is_symmetric,
    loads_tensor,
    mode_apply,
    multi_indices,
    rank_one,
    to_ring,
    veronese_point,
    zeros,
)


def outer_product_oracle(vectors):
    """Direct nested-loop outer product."""
    shape = tuple(len(v) for v in vectors)
    data = []
    for idx in multi_indices(shape):
        prod = 1
        for v, i in zip(vectors, idx):
            prod *= v[i]
        data.append(prod)
    return tuple(data)


# --- rank-one constructions ---------------------------------------------------

def test_rank_one_matrix_unit():
    t = rank_one([(1, 0), (1, 0)])
    assert t.data == (1, 0, 0, 0)


def test_rank_one_all_ones():
    t = rank_one([(1, 1), (1, 1)])
    assert t.data == (1, 1, 1, 1)


def test_rank_one_rejects_zero_vector():
    with pytest.raises(ValidationError):
        rank_one([(1, 0), (0, 0)])


def test_rank_one_flattenings_have_rank_one():
    rng = random.Random(5)
    for _ in range(10):
        vecs = [
            [rng.randint(-5, 5) for _ in range(rng.randint(2, 3))] for _ in range(3)
        ]
        if any(not any(v) for v in vecs):
            continue
        t = rank_one(vecs)
        for left in [(0,), (1,), (2,), (0, 1), (0, 2)]:
            assert rank_exact(flatten(t, Bipartition.of(left, 3))) == 1


def test_veronese_point_examples():
    assert veronese_point((1, 1), 2).data == (1, 1, 1, 1)
    assert veronese_point((1, 0), 3).data == (1, 0, 0, 0, 0, 0, 0, 0)
    assert veronese_point((1, 2), 2).data == outer_product_oracle([(1, 2), (1, 2)])
    assert is_symmetric(veronese_point((2, -1, 3), 3))


def test_segre_veronese_reductions():
    vecs = [(1, 2), (3, 1)]
    assert segre_veronese_point(vecs, [1, 1]).data == rank_one(vecs).data
    assert segre_veronese_point([(1, 2)], [3]).data == veronese_point((1, 2), 3).data


def test_segre_veronese_example_slices():
    t = segre_veronese_point([(1, 1), (1, 0)], [2, 1])
    assert t.shape == (2, 2, 2)
    assert t.data == outer_product_oracle([(1, 1), (1, 1), (1, 0)])


# --- flatten ------------------------------------------------------------------

def test_flatten_diagonal_tensor():
    t = zeros((2, 2, 2))
    data = list(t.data)
    data[0] = 1  # T_000
    data[7] = 1  # T_111
    t = DenseTensor((2, 2, 2), tuple(data), RATIONAL)
    m = flatten(t, Bipartition.of((0,), 3))
    # 2 x 4 matrix carrying the identity pattern on the diagonal slots
    assert m.rows == 2 and m.cols == 4
    assert m.to_lists() == [[1, 0, 0, 0], [0, 0, 0, 1]]
    assert rank_exact(m) == 2


def test_flatten_entry_layout():
    t = DenseTensor((2, 3), tuple(range(6)), RATIONAL)
    m = flatten(t, Bipartition.of((1,), 2))
    assert m.to_lists() == [[0, 3], [1, 4], [2, 5]]


def test_flatten_invalid_bipartition():
    with pytest.raises(ValidationError):
        Bipartition.of((), 3)
    with pytest.raises(ValidationError):
        Bipartition.of((0, 1, 2), 3)


# --- symmetry -----------------------------------------------------------------

def test_symmetrize_e1e2():
    t = rank_one([(1, 0), (0, 1)])
    s = symmetrize(t)
    assert s.data == (0, Fraction(1, 2), Fraction(1, 2), 0)


def test_symmetrize_idempotent_and_symmetric():
    t = random_tensor((3, 3, 3), seed=9)
    s = symmetrize(t)
    assert is_symmetric(s)
    assert symmetrize(s).data == s.data


def test_symmetrize_permutation_sum_oracle():
    import itertools

    t = rank_one([(1, 0), (1, 0), (0, 1)])
    s = symmetrize(t)
    # oracle: explicit sum over all 6 index permutations
    acc = {}
    for idx in multi_indices((2, 2, 2)):
        total = Fraction(0)
        for perm in itertools.permutations(range(3)):
            total += Fraction(t[tuple(idx[p] for p in perm)])
        acc[idx] = total / 6
    for flat, idx in enumerate(multi_indices((2, 2, 2))):
        assert Fraction(s.data[flat]) == acc[idx]


def test_symmetrize_fp_rejects_small_characteristic():
    t = to_ring(random_tensor((2, 2, 2), seed=1), fp(3))
    with pytest.raises(ValidationError):
        symmetrize(t)  # 3! is not invertible mod 3


def test_is_symmetric_examples():
    assert not is_symmetric(rank_one([(1, 0), (0, 1)]))
    assert is_symmetric(veronese_point((1, 2), 4))


# --- braid / mode products -----------------------------------------------------

def test_braid_identity_and_involution():
    t = random_tensor((2, 3, 2), seed=2)
    assert braid(t, (0, 1, 2)).data == t.data
    swapped = braid(t, (0, 2, 1))
    assert braid(swapped, (0, 2, 1)).data == t.data


def test_braid_of_rank_one_permutes_factors():
    v1, v2, v3 = (1, 2), (3, 4), (5, 7)
    t = rank_one([v1, v2, v3])
    # new factor j is old factor perm[j]: (1,2,0) sends (v1,v2,v3) to (v2,v3,v1)
    assert braid(t, (1, 2, 0)).data == rank_one([v2, v3, v1]).data


def test_flatten_commutes_with_braid_up_to_rank():
    t = random_tensor((2, 3, 4), seed=3)
    b = braid(t, (2, 0, 1))
    r1 = rank_exact(flatten(t, Bipartition.of((2,), 3)))
    r2 = rank_exact(flatten(b, Bipartition.of((0,), 3)))
    assert r1 == r2


def test_mode_apply_matches_flatten_mul():
    rng = random.Random(4)
    t = random_tensor((2, 3, 2), seed=8)
    a = Matrix.from_rows([[rng.randint(-3, 3) for _ in range(3)] for _ in range(4)])
    out = mode_apply(t, 1, a)
    assert out.shape == (2, 4, 2)
    lhs = flatten(out, Bipartition.of((1,), 3))
    rhs = a.matmul(flatten(t, Bipartition.of((1,), 3)))
    assert lhs.entries == rhs.entries


def test_random_tensor_deterministic_and_bounded():
    t1 = random_tensor((2, 2, 2), seed=42)
    t2 = random_tensor((2, 2, 2), seed=42)
    assert t1.data == t2.data
    assert all(-10 <= x <= 10 for x in t1.data)


# --- axis permutations against the stride loops ----------------------------------

RINGS = [RATIONAL, fp(7), FLOAT]


def typed(entries):
    return [(type(x), x) for x in entries]


def mixed_entry(rng, ring):
    """An int or a Fraction over Q (some Fractions with denominator 1, which
    the loops copy as they are), a residue over F_p, a float otherwise."""
    if ring == RATIONAL:
        return rng.choice([rng.randint(-9, 9), Fraction(rng.randint(-9, 9), rng.randint(1, 4))])
    if ring == FLOAT:
        return rng.uniform(-2, 2)
    return rng.randrange(ring.p)


def mixed_tensor(shape, ring, rng):
    return DenseTensor(tuple(shape), tuple(mixed_entry(rng, ring) for _ in range(math.prod(shape))), ring)


SHAPES_UP_TO_5 = [
    (1, 1), (3, 1), (2, 3), (1, 1, 1), (2, 1, 3), (3, 2, 2),
    (1, 4, 1, 2), (2, 3, 1, 2), (2, 1, 3, 1, 2), (2, 2, 2, 2, 2),
]


@pytest.mark.parametrize("ring", RINGS, ids=str)
@pytest.mark.parametrize("shape", SHAPES_UP_TO_5, ids=str)
def test_flatten_and_braid_match_the_stride_loops(shape, ring):
    rng = random.Random(f"{shape} {ring}")
    t = mixed_tensor(shape, ring, rng)
    order = len(shape)
    for k in range(1, order):
        for left in itertools.combinations(range(order), k):
            b = Bipartition.of(left, order)
            m, ref = flatten(t, b), flatten_loop(t, b)
            assert (m.rows, m.cols, m.ring) == (ref.rows, ref.cols, ref.ring)
            assert typed(m.entries) == typed(ref.entries)
    for perm in itertools.permutations(range(order)):
        got, ref = braid(t, perm), braid_loop(t, perm)
        assert (got.shape, got.ring) == (ref.shape, ref.ring)
        assert typed(got.data) == typed(ref.data)


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_flatten_and_braid_match_the_stride_loops_at_max_factors(ring):
    rng = random.Random(f"max {ring}")
    shape = (2, 1, 2, 2, 1, 2, 2, 1, 2, 2, 2, 1)
    assert len(shape) == MAX_FACTORS
    t = mixed_tensor(shape, ring, rng)
    for _ in range(8):
        b = Bipartition.of(rng.sample(range(MAX_FACTORS), rng.randint(1, MAX_FACTORS - 1)), MAX_FACTORS)
        assert typed(flatten(t, b).entries) == typed(flatten_loop(t, b).entries)
        perm = rng.sample(range(MAX_FACTORS), MAX_FACTORS)
        assert typed(braid(t, perm).data) == typed(braid_loop(t, perm).data)


@pytest.mark.parametrize("ring", RINGS, ids=str)
@pytest.mark.parametrize(
    "shape", [(1,), (3,), (1, 1, 1), (2, 2), (2, 2, 2), (3, 3, 3), (2,) * 5, (2,) * MAX_FACTORS], ids=str
)
def test_is_symmetric_matches_the_stride_loop(shape, ring):
    # an entry that depends only on the sorted multi-index makes a symmetric
    # tensor; changing one off-diagonal entry breaks one or more transpositions
    rng = random.Random(f"{shape} {ring}")
    by_class = {}
    data = [by_class.setdefault(tuple(sorted(idx)), mixed_entry(rng, ring)) for idx in multi_indices(shape)]
    t = DenseTensor(shape, tuple(data), ring)
    assert is_symmetric(t) is is_symmetric_loop(t) is True
    for flat in rng.sample(range(len(data)), min(6, len(data))):
        changed = list(data)
        changed[flat] = mixed_entry(rng, ring) + 1
        u = DenseTensor(shape, tuple(changed), ring)
        assert is_symmetric(u) == is_symmetric_loop(u)
    u = mixed_tensor(shape, ring, rng)
    assert is_symmetric(u) == is_symmetric_loop(u)


# --- text format ----------------------------------------------------------------

def test_tensor_format_round_trip_rational():
    t = DenseTensor((2, 2), (Fraction(1, 2), 3, -4, Fraction(7, 3)), RATIONAL)
    text = dumps_tensor(t)
    back = loads_tensor(text)
    assert back.shape == t.shape and back.ring == t.ring
    assert [Fraction(x) for x in back.data] == [Fraction(x) for x in t.data]
    assert dumps_tensor(back) == text  # canonical fixed point


def test_tensor_format_fp_and_float():
    t = to_ring(random_tensor((2, 3), seed=6), fp(5))
    assert loads_tensor(dumps_tensor(t)).data == t.data
    tf = to_ring(random_tensor((2, 2), seed=7), FLOAT)
    assert loads_tensor(dumps_tensor(tf)).data == tf.data


def test_tensor_format_rejects_bad_header():
    with pytest.raises(ValidationError):
        loads_tensor("tensor v2\n2 2\nrational\n1 2 3 4\n")


def test_factor_cap():
    with pytest.raises(ValidationError):
        zeros((2,) * 13)
