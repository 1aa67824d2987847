import itertools
import math
import random
from fractions import Fraction

import pytest

from tensorlab import decomp
from tensorlab.decomp import (
    Decomposition,
    direct_sum,
    gross_check,
    gross_minimality_check,
    kruskal_rank,
    kruskal_uniqueness,
    strassen_experiment,
    sylvester_decompose_binary,
)
from tensorlab.errors import CapExceeded, TensorlabError, ValidationError
from tensorlab.linalg import WORD_PRIME, Matrix, matrix_from_vectors, rank_exact
from tensorlab.ranks import w_state, w_state_certificate
from tensorlab.rings import FLOAT, RATIONAL, fp
from tensorlab.tensors import rank_one, to_ring, veronese_point, zeros


def symmetric_sum(vectors, d):
    total = None
    for v in vectors:
        t = veronese_point(v, d)
        total = t if total is None else total + t
    return total


def random_generic_vectors(rng, count, dim):
    while True:
        vs = [tuple(rng.randint(-5, 5) for _ in range(dim)) for _ in range(count)]
        if all(any(v) for v in vs):
            m = matrix_from_vectors(vs, RATIONAL)
            if rank_exact(m) == min(count, dim):
                return vs


# --- symmetry certificates ----------------------------------------------------

def test_gross_single_power():
    v = (1, 2, -1)
    t = veronese_point(v, 3)
    dec = Decomposition.from_vectors([[v, v, v]])
    rep = gross_check(t, dec)
    assert rep.hypothesis_met and rep.symmetric_verdict
    assert rep.verdict == "symmetric"
    assert all(rep.independence.values())


def test_gross_random_symmetric_rank3():
    rng = random.Random(31)
    vs = random_generic_vectors(rng, 3, 4)
    t = symmetric_sum(vs, 3)
    dec = Decomposition.from_vectors([[v] * 3 for v in vs])
    rep = gross_check(t, dec)
    assert rep.verdict == "symmetric"
    assert rep.certificates == ((1, 1, 1),) * 3
    # independence verified by the rank oracle directly
    for I in itertools.combinations(range(3), 1):
        w = matrix_from_vectors([dec.summands[i][I[0]] for i in range(3)], RATIONAL)
        assert rank_exact(w) == 3


def test_gross_scaled_factors_still_symmetric_up_to_scale():
    rng = random.Random(37)
    vs = random_generic_vectors(rng, 2, 3)
    # scale factors: (2v) x v x (v/2) reconstructs v^3 with non-unit scalars
    dec = Decomposition.from_vectors(
        [
            [tuple(2 * x for x in v), v, tuple(Fraction(x, 2) for x in v)]
            for v in vs
        ]
    )
    t = symmetric_sum(vs, 3)
    rep = gross_check(t, dec)
    assert rep.verdict == "symmetric"
    for lams in rep.certificates:
        assert lams[0] == 1
        assert lams[1] == Fraction(1, 2)  # second factor is half the first
        assert lams[2] == Fraction(1, 4)


def test_gross_dependent_projection_reports_hypothesis_not_met():
    v, w = (1, 2, 0, 0), (0, 1, 1, 0)
    vm = tuple(a - b for a, b in zip(v, w))
    t = veronese_point(v, 3)
    dec = Decomposition.from_vectors([[v, v, w], [v, v, vm]])
    rep = gross_check(t, dec)
    assert rep.verdict == "hypothesis not met"
    assert rep.symmetric_verdict is None
    assert not all(rep.independence.values())


def test_gross_symmetrized_summands_reconstruct():
    rng = random.Random(41)
    vs = random_generic_vectors(rng, 2, 3)
    t = symmetric_sum(vs, 4)
    dec = Decomposition.from_vectors([[v] * 4 for v in vs])
    rep = gross_check(t, dec)
    assert rep.verdict == "symmetric"
    total = zeros(t.shape)
    for summand, lams in zip(dec.summands, rep.certificates):
        scale = math.prod(lams)
        total = total + veronese_point(summand[0], 4).scale(scale)
    assert total.data == t.data


def test_gross_minimality_implies_split_independence():
    # when |D| equals the flattening rank of a contiguous split, the
    # projections of the summands onto either side of that split must be
    # linearly independent (the proof chain of the first assertion)
    rng = random.Random(71)
    for _ in range(10):
        d = rng.choice([3, 4])
        dim = rng.choice([3, 4])
        r = rng.randint(1, dim)
        vs = random_generic_vectors(rng, r, dim)
        t = symmetric_sum(vs, d)
        dec = Decomposition.from_vectors([[v] * d for v in vs])
        if not gross_minimality_check(t, dec):
            continue
        from tensorlab.ranks import f_rank
        from tensorlab.tensors import Bipartition, rank_one as r1

        for k in range(1, d):
            if f_rank(t, Bipartition.of(tuple(range(k)), d)) != r:
                continue
            for side in (tuple(range(k)), tuple(range(k, d))):
                rows = []
                for summand in dec.summands:
                    if len(side) == 1:
                        rows.append(summand[side[0]])
                    else:
                        rows.append(r1([summand[j] for j in side]).data)
                assert rank_exact(matrix_from_vectors(rows, RATIONAL)) == r


def test_gross_works_over_prime_fields():
    # the dual-basis construction must not rely on characteristic-0 Gram
    # inverses: F_7 with d = 3 keeps 3! invertible
    vs = [(1, 2, 0), (0, 1, 1)]
    t = None
    for v in vs:
        pw = veronese_point(v, 3, fp(7))
        t = pw if t is None else t + pw
    dec = Decomposition.from_vectors([[v] * 3 for v in vs], fp(7))
    rep = gross_check(t, dec)
    assert rep.verdict == "symmetric"


def test_gross_rejects_bad_inputs():
    v = (1, 1)
    t = veronese_point(v, 3)
    with pytest.raises(ValidationError):
        gross_check(t, Decomposition.from_vectors([[v, v, (1, 2)]]))  # wrong sum
    with pytest.raises(ValidationError):
        gross_check(rank_one([v, (1, 0)]), Decomposition.from_vectors([[v, (1, 0)]]))


def test_gross_minimality_examples():
    diag = zeros((3, 3, 3))
    data = list(diag.data)
    es = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    for i in range(3):
        data[i * 9 + i * 3 + i] = 1
    diag = type(diag)((3, 3, 3), tuple(data), diag.ring)
    dec = Decomposition.from_vectors([[e] * 3 for e in es])
    assert gross_minimality_check(diag, dec) is True

    w3 = w_state(3)
    wdec = Decomposition.from_vectors(w_state_certificate(3))
    assert gross_minimality_check(w3, wdec) is False  # flattening rank 2 < 3

    rng = random.Random(43)
    vs = random_generic_vectors(rng, 2, 2)
    t = symmetric_sum(vs, 3)
    dec2 = Decomposition.from_vectors([[v] * 3 for v in vs])
    assert gross_minimality_check(t, dec2) is True


# --- Kruskal ranks --------------------------------------------------------------

def kruskal_rank_oracle(m):
    cols = [tuple(m.entries[i * m.cols + j] for i in range(m.rows)) for j in range(m.cols)]
    if any(not any(c) for c in cols):
        return 0
    best = 0
    for k in range(1, min(m.rows, m.cols) + 1):
        if all(
            rank_exact(matrix_from_vectors([cols[j] for j in sub], m.ring)) == k
            for sub in itertools.combinations(range(m.cols), k)
        ):
            best = k
        else:
            break
    return best


def test_kruskal_identity():
    assert kruskal_rank(Matrix.identity(3)) == 3


def test_kruskal_repeated_column():
    m = Matrix.from_rows([[1, 2, 1], [0, 1, 0], [3, 0, 3]])
    assert kruskal_rank(m) == 1


def test_kruskal_zero_column():
    m = Matrix.from_rows([[1, 0], [0, 0]])
    assert kruskal_rank(m) == 0


def test_kruskal_random_4x6():
    rng = random.Random(47)
    hits = 0
    for _ in range(10):
        m = Matrix.from_rows([[rng.randint(-9, 9) for _ in range(6)] for _ in range(4)])
        k = kruskal_rank(m)
        assert k == kruskal_rank_oracle(m)
        if k == 4:
            hits += 1
    assert hits >= 8  # generic matrices reach the row bound


def test_kruskal_bounded_by_rank():
    rng = random.Random(53)
    for _ in range(10):
        m = Matrix.from_rows([[rng.randint(-2, 2) for _ in range(5)] for _ in range(3)])
        assert kruskal_rank(m) <= rank_exact(m)


def test_kruskal_cap():
    with pytest.raises(CapExceeded):
        kruskal_rank(Matrix.zeros(2, 13))


def random_kruskal_matrix(rng, ring, draw):
    rows, cols = rng.randint(2, 5), rng.randint(2, 7)
    columns = []
    for j in range(cols):
        if j >= 2 and rng.random() < 0.3:  # a combination of two earlier columns
            a, b = rng.sample(columns, 2)
            columns.append([x + 2 * y for x, y in zip(a, b)])
        else:
            columns.append([draw() for _ in range(rows)])
    return Matrix.from_rows([[c[i] for c in columns] for i in range(rows)], ring)


def test_kruskal_matches_oracle_on_fraction_columns():
    rng = random.Random("kruskal:fractions")
    for _ in range(60):
        m = random_kruskal_matrix(
            rng, RATIONAL, lambda: Fraction(rng.randint(-3, 3), rng.randint(1, 4))
        )
        assert kruskal_rank(m) == kruskal_rank_oracle(m)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_kruskal_matches_oracle_on_fp_columns(p, monkeypatch):
    rng = random.Random(f"kruskal:fp{p}")
    cases = [random_kruskal_matrix(rng, fp(p), lambda: rng.randrange(p)) for _ in range(60)]
    expected = [kruskal_rank_oracle(m) for m in cases]
    bareiss = []
    monkeypatch.setattr(decomp, "rank_exact", lambda m: bareiss.append(m) or rank_exact(m))
    assert [kruskal_rank(m) for m in cases] == expected
    assert bareiss == []  # the stacked rank over F_p is already exact
    assert len(set(expected)) >= 3


def test_kruskal_stacks_do_not_grow_with_the_row_count(monkeypatch):
    stacks = []
    ranks_mod_p = decomp.ranks_mod_p
    monkeypatch.setattr(decomp, "ranks_mod_p", lambda a, p: stacks.append(a.shape) or ranks_mod_p(a, p))
    rng = random.Random("kruskal:tall")
    for ring, draw in ((RATIONAL, lambda: rng.randint(-2, 2)), (fp(3), lambda: rng.randrange(3))):
        columns = [[draw() for _ in range(300)] for _ in range(4)]
        columns.append([x - y for x, y in zip(columns[0], columns[1])])  # k-rank 2
        m = Matrix.from_rows([list(row) for row in zip(*columns)], ring)
        assert kruskal_rank(m) == kruskal_rank_oracle(m) == 2
    assert max(rows for _, rows, _ in stacks) <= 5


def test_kruskal_confirms_subsets_short_mod_p_by_bareiss(monkeypatch):
    bareiss = []
    monkeypatch.setattr(decomp, "rank_exact", lambda m: bareiss.append(m) or rank_exact(m))
    # columns (1, 0), (0, P), (1/2, 1): column 1 and the minors of pairs {0, 1}
    # and {1, 2} (P and -P/2) vanish mod P, yet every pair is independent over Q
    m = Matrix.from_rows([[1, 0, Fraction(1, 2)], [0, WORD_PRIME, 1]])
    assert kruskal_rank(m) == kruskal_rank_oracle(m) == 2
    assert len(bareiss) == 3
    # a pair that is dependent over Q as well: Bareiss confirms and k stops at 1
    bareiss.clear()
    m = Matrix.from_rows([[1, 2, 0], [WORD_PRIME, 2 * WORD_PRIME, 1]])
    assert kruskal_rank(m) == kruskal_rank_oracle(m) == 1
    assert len(bareiss) == 1
    bareiss.clear()
    assert kruskal_rank(Matrix.identity(4)) == 4
    assert bareiss == []  # full rank mod p certifies independence: no Bareiss call


def test_kruskal_rejects_float_matrices():
    with pytest.raises(ValidationError, match="exact ring"):
        kruskal_rank(Matrix.from_rows([[1.0, 0.0], [0.0, 1.0]], FLOAT))


def test_kruskal_uniqueness_reuses_given_k_ranks(monkeypatch):
    es = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    diag = Decomposition.from_vectors([[e] * 3 for e in es])
    monkeypatch.setattr(decomp, "kruskal_rank", lambda m: pytest.fail("k-rank recomputed"))
    assert kruskal_uniqueness(diag, [3, 3, 3]) is True  # 9 >= 8
    assert kruskal_uniqueness(diag, [3, 3, 1]) is False  # 7 < 8


def test_kruskal_uniqueness_cases():
    es = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    diag = Decomposition.from_vectors([[e] * 3 for e in es])
    assert kruskal_uniqueness(diag) is True  # 9 >= 8

    single = Decomposition.from_vectors([[(1, 2), (3, 4), (1, 1)]])
    assert kruskal_uniqueness(single) is True  # stated convention at r = 1

    rng = random.Random(59)
    vs = [random_generic_vectors(rng, 3, 5) for _ in range(3)]
    dec = Decomposition.from_vectors(
        [[vs[0][i], vs[1][i], vs[2][i]] for i in range(3)]
    )
    assert kruskal_uniqueness(dec) is True

    with pytest.raises(ValidationError):
        kruskal_uniqueness(Decomposition.from_vectors([[(1, 0), (1, 0)]]))


# --- binary form decompositions ----------------------------------------------

def test_decompose_sum_of_cubes():
    out = sylvester_decompose_binary([1, 0, 0, 1])
    assert out.exact and out.residual == 0.0
    assert len(out.nodes) == 2
    assert [Fraction(c) for c in out.reconstruct()] == [1, 0, 0, 1]


def test_decompose_pure_power():
    out = sylvester_decompose_binary([1, 0, 0, 0, 0])
    assert out.exact
    assert out.nodes == ((Fraction(1), Fraction(0)),)
    assert out.coefficients == (1,)


def test_decompose_rational_nodes_exact():
    # (x + y)^3 + (x - 2y)^3 has rational apolar roots
    coeffs = [2, 3 - 6, 3 + 12, 1 - 8]
    out = sylvester_decompose_binary(coeffs)
    assert out.exact
    assert [Fraction(c) for c in out.reconstruct()] == [Fraction(c) for c in coeffs]


def test_decompose_generic_degree5_float():
    rng = random.Random(61)
    for _ in range(10):
        coeffs = [rng.randint(-9, 9) for _ in range(6)]
        if not any(coeffs):
            continue
        out = sylvester_decompose_binary(coeffs)
        assert len(out.nodes) in (3, 4, 5)
        if out.exact:
            assert [Fraction(c) for c in out.reconstruct()] == [Fraction(c) for c in coeffs]
        else:
            assert out.residual <= 1e-8
            recon = out.reconstruct()
            err = max(abs(complex(a) - complex(b)) for a, b in zip(recon, coeffs))
            scale = max(1.0, max(abs(complex(c)) for c in coeffs))
            assert err / scale <= 1e-8


def test_decompose_reports_every_reconstruction():
    # reconstruction invariant across paths on assorted forms
    forms = [[1, 0, 0, 1], [3, -2, 5, 7], [1, 1, 1, 1, 1]]
    for coeffs in forms:
        out = sylvester_decompose_binary(coeffs)
        if out.exact:
            assert [Fraction(c) for c in out.reconstruct()] == [Fraction(c) for c in coeffs]
        else:
            assert out.residual <= 1e-8


def test_decompose_refuses_max_rank_forms():
    # x^(d-1) y never yields a square-free kernel form below the top level
    with pytest.raises(TensorlabError, match="no decomposition emitted"):
        sylvester_decompose_binary([0, 1, 0, 0])


# --- direct sums ------------------------------------------------------------------

def test_direct_sum_layout():
    a = to_ring(rank_one([(1, 1), (1, 0), (1, 0)]), fp(2))
    b = to_ring(rank_one([(1, 0), (1, 1), (0, 1)]), fp(2))
    total = direct_sum(a, b)
    assert total.shape == (4, 4, 4)
    assert total[(0, 0, 0)] == a[(0, 0, 0)]
    assert total[(2, 2, 2)] == b[(0, 0, 0)]
    assert total[(0, 2, 2)] == 0


def test_strassen_rank_ones():
    a = to_ring(rank_one([(1, 1), (1, 0), (1, 0)]), fp(2))
    b = to_ring(rank_one([(1, 0), (1, 1), (0, 1)]), fp(2))
    rec = strassen_experiment(a, b, 2)
    assert (rec.r1, rec.r2, rec.r_sum) == (1, 1, 2)
    assert rec.additive is True


def test_strassen_matrix_case():
    # 2x2 matrices as degenerate 3-tensors: block-diagonal rank adds
    m1 = to_ring(rank_one([(1, 1), (1, 0), (1,)]), fp(3))
    m2 = to_ring(rank_one([(1, 2), (0, 1), (1,)]), fp(3))
    rec = strassen_experiment(m1, m2, 3)
    assert rec.additive is True

    # full-rank 2x2 matrices: block-diagonal rank is 2 + 2
    from tensorlab.tensors import DenseTensor
    from tensorlab.rings import fp as fp_ring

    g1 = DenseTensor((2, 2, 1), (1, 2, 1, 0), fp(3))
    g2 = DenseTensor((2, 2, 1), (2, 1, 1, 1), fp(3))
    rec = strassen_experiment(g1, g2, 4)
    assert (rec.r1, rec.r2, rec.r_sum) == (2, 2, 4)
    assert rec.additive is True


def test_strassen_random_2x2x2_over_f2():
    rng = random.Random(67)
    from tensorlab.tensors import random_tensor

    for _ in range(5):
        t1 = to_ring(random_tensor((2, 2, 2), seed=rng.randint(0, 10**6)), fp(2))
        t2 = to_ring(random_tensor((2, 2, 2), seed=rng.randint(0, 10**6)), fp(2))
        if t1.is_zero() or t2.is_zero():
            continue
        rec = strassen_experiment(t1, t2, 4)
        if None not in (rec.r1, rec.r2, rec.r_sum):
            assert rec.r_sum <= rec.r1 + rec.r2  # the unconditional direction


# --- serialization ------------------------------------------------------------------

def test_decomposition_json_round_trip():
    dec = Decomposition.from_vectors(
        [[(Fraction(1, 2), 1), (2, 3)], [(1, 0), (0, 1)]]
    )
    text = dec.to_json()
    back = Decomposition.from_json(text)
    assert back.to_json() == text
    assert back.reconstruct().data == dec.reconstruct().data


def test_decomposition_rejects_zero_vector():
    with pytest.raises(ValidationError):
        Decomposition.from_vectors([[(0, 0), (1, 2)]])
