"""Over F_p every function returns its rational result reduced mod p.

Loops compute with plain Python operators and reduce once per stored or
returned value, so these differential tests pin both halves of that
convention: the F_p value equals the rational value mod p, and every F_p
entry is canonical (an int in [0, p)).
"""

import random
from fractions import Fraction

import pytest

from helpers import symmetrize
from tensorlab import matchgate, tensors
from tensorlab.linalg import Matrix
from tensorlab.minrank import MatrixSubspace
from tensorlab.rings import RATIONAL, fp

PRIMES = [2, 3, 101]
SEEDS = range(4)


def mod(x, p):
    x = Fraction(x)
    return x.numerator * pow(x.denominator, -1, p) % p


def assert_reduces(fp_values, q_values, p):
    fp_values, q_values = list(fp_values), list(q_values)
    assert fp_values == [mod(x, p) for x in q_values]
    assert all(type(x) is int and 0 <= x < p for x in fp_values)


def ints(rng, n, lo=-9, hi=9):
    return [rng.randint(lo, hi) for _ in range(n)]


def nonzero_mod(v, p):
    return v if any(x % p for x in v) else [1] + v[1:]


def both_tensors(values, shape, p):
    q = tensors.DenseTensor(tuple(shape), tuple(values), RATIONAL)
    return q, tensors.to_ring(q, fp(p))


def both_matrices(values, rows, cols, p):
    flat = [values[i * cols : (i + 1) * cols] for i in range(rows)]
    return Matrix.from_rows(flat, RATIONAL), Matrix.from_rows(flat, fp(p))


# --- matchgate ---------------------------------------------------------------------

def skew_pair(rng, size, p):
    entries = {(i, j): rng.randint(-9, 9) for i in range(size) for j in range(i + 1, size)}
    return (
        matchgate.SkewMatrix.from_upper(size, entries, RATIONAL),
        matchgate.SkewMatrix.from_upper(size, entries, fp(p)),
    )


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("seed", SEEDS)
def test_pfaffians_and_skew_rows_reduce_mod_p(p, seed):
    rng = random.Random(f"pf:{p}:{seed}")
    for size in (2, 5, 6):
        q, f = skew_pair(rng, size, p)
        assert_reduces([matchgate.pfaffian(f)], [matchgate.pfaffian(q)], p)
        assert_reduces(
            matchgate.sub_pfaffian_vector(f).entries, matchgate.sub_pfaffian_vector(q).entries, p
        )
        assert_reduces(
            [x for row in f.to_rows() for x in row], [x for row in q.to_rows() for x in row], p
        )


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("seed", SEEDS)
def test_matching_counts_reduce_mod_p(p, seed):
    rng = random.Random(f"match:{p}:{seed}")
    nodes = 6
    edges = [(i, j, rng.randint(-9, 9)) for i in range(nodes) for j in range(i + 1, nodes)]
    edges = [e for e in edges if rng.random() < 0.7]
    q = matchgate.WeightedGraph.build(nodes, edges, RATIONAL)
    f = matchgate.WeightedGraph.build(nodes, edges, fp(p))
    assert_reduces([matchgate.count_matchings(f)], [matchgate.count_matchings(q)], p)


def signature_pair(rng, wires, p):
    values = ints(rng, 2**wires)
    q = matchgate.SignatureVector(wires, tuple(values), RATIONAL)
    return q, matchgate.SignatureVector(wires, tuple(x % p for x in values), fp(p))


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("seed", SEEDS)
def test_mgi_residuals_reduce_mod_p(p, seed):
    rng = random.Random(f"mgi:{p}:{seed}")
    q, f = signature_pair(rng, 4, p)
    assert_reduces(matchgate.mgi_residuals(f).tolist(), matchgate.mgi_residuals(q).tolist(), p)
    sq, sf = skew_pair(rng, 6, p)
    vq = matchgate.sub_pfaffian_vector(sq, [0, 2, 3, 5])
    vf = matchgate.sub_pfaffian_vector(sf, [0, 2, 3, 5])
    assert_reduces(matchgate.mgi_residuals(vf).tolist(), matchgate.mgi_residuals(vq).tolist(), p)


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("seed", SEEDS)
def test_transform_signature_reduces_mod_p(p, seed):
    rng = random.Random(f"transform:{p}:{seed}")
    q, f = signature_pair(rng, 3, p)
    basis = [ints(rng, 3), ints(rng, 3)]
    out_q = matchgate.transform_signature(q, basis, "recognizer")
    out_f = matchgate.transform_signature(f, basis, "recognizer")
    assert out_f.arity == out_q.arity == 3
    assert_reduces(out_f.entries, out_q.entries, p)


# --- tensors -----------------------------------------------------------------------

@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("seed", SEEDS)
def test_rank_one_reduces_mod_p(p, seed):
    rng = random.Random(f"rank_one:{p}:{seed}")
    vecs = [nonzero_mod(ints(rng, d), p) for d in (2, 3, 2)]
    assert_reduces(tensors.rank_one(vecs, fp(p)).data, tensors.rank_one(vecs, RATIONAL).data, p)


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("seed", SEEDS)
def test_mode_apply_reduces_mod_p(p, seed):
    rng = random.Random(f"mode_apply:{p}:{seed}")
    shape = (2, 3, 2)
    tq, tf = both_tensors(ints(rng, 12), shape, p)
    for pos in range(3):
        mq, mf = both_matrices(ints(rng, 4 * shape[pos]), 4, shape[pos], p)
        out_f, out_q = tensors.mode_apply(tf, pos, mf), tensors.mode_apply(tq, pos, mq)
        assert_reduces(out_f.data, out_q.data, p)


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("seed", SEEDS)
def test_symmetrize_reduces_mod_p(p, seed):
    rng = random.Random(f"symmetrize:{p}:{seed}")
    for order in (1, 2, 3):
        if p <= order:
            continue  # order! is not invertible in F_p
        tq, tf = both_tensors(ints(rng, 3**order), (3,) * order, p)
        assert_reduces(symmetrize(tf).data, symmetrize(tq).data, p)


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("seed", SEEDS)
def test_tensor_add_sub_scale_reduce_mod_p(p, seed):
    rng = random.Random(f"tensor:{p}:{seed}")
    shape = (2, 2, 3)
    aq, af = both_tensors(ints(rng, 12), shape, p)
    bq, bf = both_tensors(ints(rng, 12), shape, p)
    c = rng.randint(-9, 9)
    assert_reduces((af + bf).data, (aq + bq).data, p)
    assert_reduces((af - bf).data, (aq - bq).data, p)
    assert_reduces(af.scale(c).data, aq.scale(c).data, p)


# --- matrices and subspaces ------------------------------------------------------------

@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("seed", SEEDS)
def test_matrix_add_sub_scale_reduce_mod_p(p, seed):
    rng = random.Random(f"matrix:{p}:{seed}")
    aq, af = both_matrices(ints(rng, 12), 3, 4, p)
    bq, bf = both_matrices(ints(rng, 12), 3, 4, p)
    c = rng.randint(-9, 9)
    assert_reduces((af + bf).entries, (aq + bq).entries, p)
    assert_reduces((af - bf).entries, (aq - bq).entries, p)
    assert_reduces(af.scale(c).entries, aq.scale(c).entries, p)


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("seed", SEEDS)
def test_subspace_element_reduces_mod_p(p, seed):
    rng = random.Random(f"element:{p}:{seed}")
    rows, cols, dim = 2, 3, 3
    # basis k has a 1 at entry k and zeros before it: independent over Q and every F_p
    flats = [[0] * k + [1] + ints(rng, rows * cols - k - 1) for k in range(dim)]
    sq = MatrixSubspace.span([both_matrices(v, rows, cols, p)[0] for v in flats])
    sf = MatrixSubspace.span([both_matrices(v, rows, cols, p)[1] for v in flats])
    for _ in range(5):
        coeffs = ints(rng, dim)
        assert_reduces(sf.element(coeffs).entries, sq.element(coeffs).entries, p)
