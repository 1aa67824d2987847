import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from helpers import direct_sum, gross_check_by_contraction, random_tensor
from tensorlab import decomp, tensors
from tensorlab.decomp import (
    Decomposition,
    gross_check,
    gross_minimality_check,
    kruskal_rank,
    kruskal_uniqueness,
    sylvester_decompose_binary,
)
from tensorlab.errors import CapExceeded, ValidationError
from tensorlab.linalg import FLOAT_PRIME, Matrix, matrix_from_vectors, rank_exact
from tensorlab.ranks import exact_rank_bruteforce, w_state, w_state_certificate
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


def test_gross_certificates_are_per_summand():
    # summand i is (a v_i) x (b v_i) x (c v_i), with its own scalars
    rng = random.Random(43)
    vs = random_generic_vectors(rng, 3, 4)
    scalars = [(1, 2, 3), (5, Fraction(1, 2), -1), (Fraction(2, 3), 7, 4)]
    dec = Decomposition.from_vectors(
        [[tuple(x * a for x in v) for a in abc] for v, abc in zip(vs, scalars)]
    )
    rep = gross_check(dec.reconstruct(), dec)
    assert rep.verdict == "symmetric"
    assert rep.certificates == tuple((1, Fraction(b, a), Fraction(c, a)) for a, b, c in scalars)


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


def _gross_cases(count, seed=2323):
    """Seeded symmetric tensors with decompositions into scaled powers.

    Summand i is (c_i0 v_i, ..., c_i(d-1) v_i) over Q or an odd F_p, order 3
    or 4, dim 2..4, r <= dim + 1, entries in [-2, 2], so some projections are
    dependent and the hypothesis is not always met.
    """
    rng = random.Random(seed)
    rationals = [1, -1, 2, -2, 3, Fraction(1, 2), Fraction(-2, 3)]
    cases = []
    while len(cases) < count:
        ring = rng.choice([RATIONAL, fp(3), fp(5), fp(7), fp(101)])
        order, dim = rng.choice([3, 4]), rng.randint(2, 4)
        r = rng.randint(1, dim + 1)
        vs = [[rng.randint(-2, 2) for _ in range(dim)] for _ in range(r)]
        if ring.kind == "fp":
            vs = [[x % ring.p for x in v] for v in vs]
        if any(not any(v) for v in vs):
            continue
        scalars = rationals if ring.kind == "rational" else range(1, ring.p)
        summands = [[[c * x for x in v] for c in rng.choices(scalars, k=order)] for v in vs]
        dec = Decomposition.from_vectors(summands, ring)
        cases.append((dec.reconstruct(), dec))
    return cases


def test_gross_check_matches_the_dual_basis_contraction():
    met = 0
    for t, dec in _gross_cases(600):
        rep, oracle = gross_check(t, dec), gross_check_by_contraction(t, dec)
        assert rep == oracle
        if rep.hypothesis_met:
            met += 1
            assert [list(map(type, c)) for c in rep.certificates] == [
                list(map(type, c)) for c in oracle.certificates
            ]
    assert 300 < met < 600  # both verdicts are exercised


def test_gross_check_reads_certificates_off_the_factors(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("the Gross check solved for or contracted with a dual basis")

    monkeypatch.setattr(decomp, "solve_exact", never)
    monkeypatch.setattr(tensors, "flatten", never)
    monkeypatch.setattr(Matrix, "matmul", never)
    monkeypatch.setattr(Matrix, "transpose", never)
    verdicts = {gross_check(t, dec).verdict for t, dec in _gross_cases(40, seed=23)}
    assert verdicts == {"symmetric", "hypothesis not met"}


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


@pytest.mark.parametrize("ring", [RATIONAL, fp(2), fp(3), fp(65521)], ids=str)
def test_kruskal_on_tall_matrices_matches_the_oracle(ring):
    rng = random.Random(f"kruskal:tall-oracle:{ring}")
    if ring.kind == "fp":
        draw = lambda: rng.randrange(ring.p)  # noqa: E731
    else:
        draw = lambda: Fraction(rng.randint(-3, 3), rng.randint(1, 3))  # noqa: E731
    ks = set()
    for trial in range(24):
        cols = rng.randint(2, 5)
        rows = rng.randint(cols + 1, 9)
        base = [[draw() for _ in range(cols)] for _ in range(rng.randint(1, cols))]
        if trial % 2:  # the rows span fewer than cols dimensions
            m = [[sum(rng.randint(-1, 1) * b[j] for b in base) for j in range(cols)] for _ in range(rows)]
        else:
            m = [[draw() for _ in range(cols)] for _ in range(rows)]
            if trial % 4 == 2:  # one column a combination of two others
                for row in m:
                    row[-1] = row[0] + 2 * row[1]
        m = Matrix.from_rows(m, ring)
        k = kruskal_rank(m)
        assert k == kruskal_rank_oracle(m)
        ks.add(k)
    assert len(ks) >= 3


def test_kruskal_confirms_subsets_short_mod_p_by_bareiss(monkeypatch):
    bareiss = []
    monkeypatch.setattr(decomp, "rank_exact", lambda m: bareiss.append(m) or rank_exact(m))
    # columns (1, 0), (0, P), (1/2, 1): column 1 and the minors of pairs {0, 1}
    # and {1, 2} (P and -P/2) vanish mod P, yet every pair is independent over Q;
    # the top level k = 2 is checked first, so the two short pairs are confirmed
    # and level 1 (column 1 alone) is never ranked
    m = Matrix.from_rows([[1, 0, Fraction(1, 2)], [0, FLOAT_PRIME, 1]])
    assert kruskal_rank(m) == kruskal_rank_oracle(m) == 2
    assert len(bareiss) == 2
    # a pair that is dependent over Q as well: Bareiss confirms and k stops at 1
    bareiss.clear()
    m = Matrix.from_rows([[1, 2, 0], [FLOAT_PRIME, 2 * FLOAT_PRIME, 1]])
    assert kruskal_rank(m) == kruskal_rank_oracle(m) == 1
    assert len(bareiss) == 1
    bareiss.clear()
    assert kruskal_rank(Matrix.identity(4)) == 4
    assert bareiss == []  # full rank mod p certifies independence: no Bareiss call


def planted_circuit_matrix(rng, ring, draw, size):
    """A 6 x 12 matrix whose first `size` columns are a circuit: they sum to
    zero and any size - 1 of them are independent.  Its other columns are
    random, so the Kruskal rank is at most size - 1."""
    while True:
        columns = [[draw() for _ in range(6)] for _ in range(12)]
        columns[size - 1] = [-sum(c[i] for c in columns[: size - 1]) for i in range(6)]
        m = Matrix.from_rows([[c[i] for c in columns] for i in range(6)], ring)
        if size == 1 or rank_exact(matrix_from_vectors(columns[: size - 1], ring)) == size - 1:
            return m


@pytest.mark.parametrize("ring", [RATIONAL, fp(2), fp(3), fp(7)], ids=str)
def test_kruskal_matches_oracle_on_planted_circuits(ring, monkeypatch):
    calls = []
    ranks_mod_p = decomp.ranks_mod_p
    monkeypatch.setattr(decomp, "ranks_mod_p", lambda a, p: calls.append(a.shape) or ranks_mod_p(a, p))
    rng = random.Random(f"kruskal:circuits:{ring}")
    if ring.kind == "fp":
        draw = lambda: rng.randrange(ring.p)  # noqa: E731
    else:
        draw = lambda: Fraction(rng.randint(-4, 4), rng.randint(1, 3))  # noqa: E731
    for size in range(1, 7):
        for _ in range(2):
            m = planted_circuit_matrix(rng, ring, draw, size)
            calls.clear()
            k = kruskal_rank(m)
            assert k == kruskal_rank_oracle(m)
            # over Q the other columns are generic, so the circuit decides k
            assert k == size - 1 if ring == RATIONAL else k <= size - 1
            assert len(calls) <= 1 + math.ceil(math.log2(6))


def test_kruskal_decides_a_generic_factor_with_one_stacked_call(monkeypatch):
    calls = []
    ranks_mod_p = decomp.ranks_mod_p
    monkeypatch.setattr(decomp, "ranks_mod_p", lambda a, p: calls.append(a.shape) or ranks_mod_p(a, p))
    rng = random.Random("kruskal:generic6x12")
    m = Matrix.from_rows(
        [[Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(12)] for _ in range(6)]
    )
    assert kruskal_rank(m) == 6
    assert calls == [(math.comb(12, 6), 6, 6)]


@pytest.mark.parametrize("rows,cols", [(1, 3), (2, 5), (3, 3), (4, 9), (5, 12), (6, 12), (8, 10)])
def test_kruskal_stacked_calls_stay_within_the_bisection_bound(rows, cols, monkeypatch):
    calls = []
    ranks_mod_p = decomp.ranks_mod_p
    monkeypatch.setattr(decomp, "ranks_mod_p", lambda a, p: calls.append(a.shape) or ranks_mod_p(a, p))
    rng = random.Random(f"kruskal:bound:{rows}x{cols}")
    kmax = min(rows, cols)
    for ring, draw in ((RATIONAL, lambda: rng.randint(-1, 1)), (fp(2), lambda: rng.randrange(2))):
        for _ in range(8):
            m = Matrix.from_rows([[draw() for _ in range(cols)] for _ in range(rows)], ring)
            calls.clear()
            assert kruskal_rank(m) == kruskal_rank_oracle(m)
            assert len(calls) <= 1 + math.ceil(math.log2(kmax))


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


def test_decompose_max_rank_forms_take_d_nodes():
    # x^(d-1) y has no square-free kernel form below the top level, and one at
    # level d; so have x + 2y and x^2 + y^2
    forms = [[0, 1] + [0] * (d - 1) for d in range(1, 13)] + [[1, 2], [1, 0, 1]]
    for coeffs in forms:
        out = sylvester_decompose_binary(coeffs)
        assert len(out.nodes) == len(coeffs) - 1
        if out.exact:
            assert [Fraction(c) for c in out.reconstruct()] == coeffs
        else:
            assert out.residual <= 1e-8
            assert max(abs(complex(a) - b) for a, b in zip(out.reconstruct(), coeffs)) <= 1e-8


def test_rational_roots_are_found_once_each_in_scan_order():
    # (t - 1)(t + 2)(2t - 5): 2/2 = 1 is a candidate again before 5/2 is reached
    poly = [Fraction(10), Fraction(-9), Fraction(-3), Fraction(2)]
    assert decomp._rational_roots(poly) == [1, -2, Fraction(5, 2)]
    rng = random.Random("rational-roots")
    for _ in range(200):
        roots = {Fraction(rng.randint(-12, 12), rng.randint(1, 6)) for _ in range(rng.randint(1, 5))}
        poly = [Fraction(rng.randint(1, 4))]
        for r in roots:  # times (t - r)
            poly = [(poly[i - 1] if i else 0) - r * (poly[i] if i < len(poly) else 0) for i in range(len(poly) + 1)]
        if rng.random() < 0.5:  # times t^2 + 1, which has no rational root
            poly = [a + (poly[i - 2] if i >= 2 else 0) for i, a in enumerate(poly + [0, 0])]
        order = sorted(roots, key=lambda r: (abs(r.numerator), r.denominator, r < 0))
        assert decomp._rational_roots(poly) == order


def test_rational_roots_charge_the_work_cap_before_any_division(monkeypatch):
    # 15 - 8t + t^2 = (t - 3)(t - 5): isqrt(15) + isqrt(1) = 4 trial divisions,
    # then 2 signs x 4 numerators x 1 denominator x 3 coefficients = 24
    poly = [Fraction(15), Fraction(-8), Fraction(1)]
    monkeypatch.setattr(decomp, "ROOT_SEARCH_WORK_CAP", 28)
    assert decomp._rational_roots(poly) == [3, 5]
    monkeypatch.setattr(decomp, "ROOT_SEARCH_WORK_CAP", 27)
    with pytest.raises(CapExceeded, match="needs 28 steps"):
        decomp._rational_roots(poly)
    monkeypatch.setattr(decomp, "ROOT_SEARCH_WORK_CAP", 3)
    monkeypatch.setattr(decomp, "_divisors", lambda n: pytest.fail("trial division past the cap"))
    with pytest.raises(CapExceeded, match="needs 4 steps"):
        decomp._rational_roots(poly)


def test_decompose_refuses_a_root_search_over_the_cap_and_admits_large_nodes():
    # nodes 100000000003 and 100000000019: the kernel form's constant term is
    # their product, about 10^22, so trial division alone needs ~10^11 steps
    big = [2, 600000000066, 60000000013200000001110, 2000000000660000000111000000006886]
    start = time.perf_counter()
    with pytest.raises(CapExceeded, match="ROOT_SEARCH_WORK_CAP"):
        sylvester_decompose_binary(big)
    assert time.perf_counter() - start < 5  # refused up front, not after the search
    out = sylvester_decompose_binary([2, 6000108, 6000216003294, 2000108003294035964])
    assert out.exact and out.nodes == ((1, 1000003), (1, 1000033)) and out.coefficients == (1, 1)


# --- direct sums ------------------------------------------------------------------

def test_direct_sum_layout():
    a = to_ring(rank_one([(1, 1), (1, 0), (1, 0)]), fp(2))
    b = to_ring(rank_one([(1, 0), (1, 1), (0, 1)]), fp(2))
    total = direct_sum(a, b)
    assert total.shape == (4, 4, 4)
    assert total[(0, 0, 0)] == a[(0, 0, 0)]
    assert total[(2, 2, 2)] == b[(0, 0, 0)]
    assert total[(0, 2, 2)] == 0


def direct_sum_ranks(t1, t2, r_max):
    """Brute-force ranks of t1, t2 and of their direct sum; None past r_max."""
    return tuple(exact_rank_bruteforce(t, r_max) for t in (t1, t2, direct_sum(t1, t2)))


def test_strassen_rank_ones():
    a = to_ring(rank_one([(1, 1), (1, 0), (1, 0)]), fp(2))
    b = to_ring(rank_one([(1, 0), (1, 1), (0, 1)]), fp(2))
    assert direct_sum_ranks(a, b, 2) == (1, 1, 2)  # additive


def test_strassen_matrix_case():
    # 2x2 matrices as degenerate 3-tensors: block-diagonal rank adds
    m1 = to_ring(rank_one([(1, 1), (1, 0), (1,)]), fp(3))
    m2 = to_ring(rank_one([(1, 2), (0, 1), (1,)]), fp(3))
    r1, r2, r_sum = direct_sum_ranks(m1, m2, 3)
    assert r_sum == r1 + r2

    # full-rank 2x2 matrices: block-diagonal rank is 2 + 2
    from tensorlab.tensors import DenseTensor

    g1 = DenseTensor((2, 2, 1), (1, 2, 1, 0), fp(3))
    g2 = DenseTensor((2, 2, 1), (2, 1, 1, 1), fp(3))
    assert direct_sum_ranks(g1, g2, 4) == (2, 2, 4)  # additive


def test_strassen_random_2x2x2_over_f2():
    rng = random.Random(67)
    for _ in range(5):
        t1 = to_ring(random_tensor((2, 2, 2), seed=rng.randint(0, 10**6)), fp(2))
        t2 = to_ring(random_tensor((2, 2, 2), seed=rng.randint(0, 10**6)), fp(2))
        if t1.is_zero() or t2.is_zero():
            continue
        r1, r2, r_sum = direct_sum_ranks(t1, t2, 4)
        if None not in (r1, r2, r_sum):
            assert r_sum <= r1 + r2  # the unconditional direction


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
