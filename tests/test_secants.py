import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from helpers import _fp_eliminate
from tangent_oracle import exact_tangent_rows, power_coeff_vector
from tensorlab import secants
from tensorlab.errors import CapExceeded, TensorlabError, ValidationError
from tensorlab.linalg import WORD_PRIME, Matrix, det_exact, rank_exact
from tensorlab.ranks import sylvester_symmetric_rank_binary
from tensorlab.secants import (
    affine_tangent_basis,
    ambient_affine_dim,
    cone_dim,
    defect_scan,
    exponents,
    generic_rank,
    parse_variety,
    sample_params,
    secant_dimension,
    segre,
    segre_veronese,
    subspace,
    sym_subspace,
    veronese,
)
from tensorlab.tensors import rank_one


def perm_sign(perm):
    sign = 1
    for i, j in itertools.combinations(range(len(perm)), 2):
        if perm[i] > perm[j]:
            sign = -sign
    return sign


def rank_mod_word_prime(rows):
    return len(_fp_eliminate(np.asarray(rows).tolist(), WORD_PRIME)[0])


def residues(rows):
    return [[x % WORD_PRIME for x in row] for row in rows]


def det_permutation_oracle(rows):
    n = len(rows)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        term = Fraction(perm_sign(perm))
        for i in range(n):
            term *= rows[i][perm[i]]
        total += term
    return total


# --- variety specs --------------------------------------------------------------

def test_parse_variety_grammar():
    assert str(parse_variety("segre:2,2,2")) == "segre:2,2,2"
    assert str(parse_variety("veronese:3,4")) == "veronese:3,4"
    assert str(parse_variety("segver:2,3@2,1")) == "segver:2,3@2,1"
    assert str(parse_variety("sub:4,4,4@2,2,2")) == "sub:4,4,4@2,2,2"
    assert str(parse_variety("symsub:3@2,3")) == "symsub:3@2,3"
    with pytest.raises(ValidationError):
        parse_variety("grassmann:2,4")
    with pytest.raises(ValidationError):
        parse_variety("sub:2,2,2@1,3,1")  # rank above dimension


def test_multirank_constraint():
    with pytest.raises(ValidationError):
        subspace((4, 4, 4), (4, 1, 1))  # violates r_i <= r_j r_k


def test_ambient_and_cone_dims():
    assert ambient_affine_dim(segre((2, 2, 2))) == 8
    assert cone_dim(segre((2, 2, 2))) == 4
    assert ambient_affine_dim(veronese(3, 4)) == 15
    assert cone_dim(veronese(3, 4)) == 3
    assert ambient_affine_dim(segre_veronese((2, 2), (2, 1))) == 6
    assert cone_dim(segre_veronese((2, 2), (2, 1))) == 3
    assert ambient_affine_dim(subspace((4, 4, 4), (2, 2, 2))) == 64
    assert cone_dim(subspace((4, 4, 4), (2, 2, 2))) == 20
    assert ambient_affine_dim(sym_subspace(3, 2, 3)) == 10
    assert cone_dim(sym_subspace(3, 2, 3)) == 4 + 2


# --- tangent spaces --------------------------------------------------------------

def test_segre_tangent_at_unit_point():
    spec = segre((2, 2))
    basis = affine_tangent_basis(spec, [(1, 0), (1, 0)])
    assert rank_mod_word_prime(basis) == 3
    # span contains e1 x e1, e2 x e1, e1 x e2 but not e2 x e2
    assert rank_mod_word_prime(basis.tolist() + [[0, 0, 0, 1]]) == 4


def test_veronese_tangent_at_unit_point():
    basis = affine_tangent_basis(veronese(2, 2), [(1, 0)])
    # coordinates over monomials x^2, xy, y^2: span of {x^2, xy}
    assert rank_mod_word_prime(basis) == 2
    for v in basis:
        assert v[2] == 0


def test_segre_tangent_cone_dim_random():
    rng = random.Random(0)
    spec = segre((2, 2, 2))
    basis = affine_tangent_basis(spec, sample_params(spec, rng))
    assert rank_mod_word_prime(basis) == 4


def old_segre_veronese_rows(spec, vectors):
    """Tangent rows as rank_one built them: one row per (factor, direction)."""
    degrees = spec.degrees or (1,) * len(spec.dims)
    rows = []
    for pos, (n, d) in enumerate(zip(spec.dims, degrees)):
        for j in range(n):
            if spec.kind == "segre":
                unit = tuple(1 if i == j else 0 for i in range(n))
                parts = [unit if q == pos else v for q, v in enumerate(vectors)]
            elif spec.kind == "veronese":
                parts = [power_coeff_vector(vectors[0], d, exponents(n, d), drop=j)]
            else:
                parts = [
                    power_coeff_vector(v, e, exponents(m, e), drop=j if q == pos else None)
                    for q, (v, m, e) in enumerate(zip(vectors, spec.dims, degrees))
                ]
            rows.append(rank_one(parts).data)
    return rows


@pytest.mark.parametrize(
    "text",
    [
        "segre:2,2", "segre:3,1,4", "segre:1,2", "segre:2,2,2,2", "segre:4",
        "veronese:2,5", "veronese:3,4", "veronese:3,1", "veronese:1,3",
        "segver:2,3@2,1", "segver:3,2@1,3", "segver:1,3@2,2",
    ],
)
def test_segre_veronese_tangent_matches_rank_one_oracle(text):
    spec = parse_variety(text)
    for seed in range(5):
        vectors = sample_params(spec, random.Random(seed))
        basis = affine_tangent_basis(spec, vectors)
        oracle = old_segre_veronese_rows(spec, vectors)
        assert basis.dtype == np.int64
        assert basis.tolist() == residues(oracle)
        assert len(basis) == sum(spec.dims)


def test_subspace_core_rows_match_rank_one_of_factor_columns():
    spec = subspace((4, 3, 3), (2, 2, 1))
    for seed in range(5):
        core, factors = sample_params(spec, random.Random(seed))
        basis = affine_tangent_basis(spec, (core, factors))
        oracle = [
            rank_one([f[:, jq].tolist() for f, jq in zip(factors, jidx)]).data
            for jidx in itertools.product(*(range(r) for r in spec.ranks))
        ]
        assert basis[: len(oracle)].tolist() == residues(oracle)


def test_tangent_rejects_zero_factor():
    with pytest.raises(ValidationError):
        affine_tangent_basis(segre((2, 2)), [(0, 0), (1, 0)])


def test_subspace_tangent_rank_at_r1():
    # cone dim formula validated by the sampled rank at r = 1
    spec = subspace((4, 4, 4), (2, 2, 2))
    rep = secant_dimension(spec, 1, trials=2, seed=5)
    assert rep.computed_affine_dim == cone_dim(spec) == 20


def test_sym_subspace_tangent_rank_at_r1():
    spec = sym_subspace(3, 2, 3)
    rep = secant_dimension(spec, 1, trials=2, seed=5)
    assert rep.computed_affine_dim == cone_dim(spec) == 6


# --- secant dimensions ------------------------------------------------------------

def test_segre_222_fills_at_two():
    rep = secant_dimension(segre((2, 2, 2)), 2)
    assert rep.computed_affine_dim == rep.ambient_affine_dim == 8
    assert rep.defect == 0


def test_matrix_pencil_oracle_for_generic_2x2x2():
    # cross-check: a generic 2x2x2 tensor splits into 2 rank-one terms via
    # the eigenvectors of the slice pencil
    import numpy as np

    rng = np.random.default_rng(12)
    t = rng.integers(-9, 10, size=(2, 2, 2)).astype(float)
    s0, s1 = t[:, :, 0], t[:, :, 1]
    w = s0 @ np.linalg.inv(s1)
    eigvals, eigvecs = np.linalg.eig(w)
    assert abs(eigvals[0] - eigvals[1]) > 1e-8
    a = eigvecs  # columns
    coeffs = np.linalg.solve(a, t.reshape(2, 4))
    recon = np.zeros((2, 2, 2), dtype=complex)
    for i in range(2):
        block = coeffs[i].reshape(2, 2)
        u, s, vh = np.linalg.svd(block)
        assert s[1] < 1e-8 * max(1.0, s[0])  # rank-one slices
        recon += np.einsum("i,jk->ijk", a[:, i], block)
    assert np.allclose(recon.real, t, atol=1e-6)


def test_veronese_34_exceptional_case():
    rep = secant_dimension(veronese(3, 4), 5)
    assert rep.ambient_affine_dim == 15
    assert rep.expected_affine_dim == 15
    assert rep.computed_affine_dim == 14
    assert rep.defect == 1


def middle_catalecticant(nodes):
    """6x6 catalecticant of sum of fourth powers of ternary linear forms."""
    exps2 = exponents(3, 2)
    rows = []
    for alpha in exps2:
        row = []
        for beta in exps2:
            gamma = tuple(a + b for a, b in zip(alpha, beta))
            entry = Fraction(0)
            for v in nodes:
                term = Fraction(1)
                for vi, g in zip(v, gamma):
                    term *= Fraction(vi) ** g
                entry += term
            row.append(entry)
        rows.append(row)
    return rows


def test_veronese_34_catalecticant_singularity_oracle():
    # every point of the 5th secant of the quartic Veronese surface kills
    # the 6x6 middle catalecticant determinant, bounding the dimension by 14
    rng = random.Random(77)
    for _ in range(5):
        nodes = [tuple(rng.randint(-9, 9) for _ in range(3)) for _ in range(5)]
        if any(not any(v) for v in nodes):
            continue
        cat = middle_catalecticant(nodes)
        assert det_permutation_oracle(cat) == 0
        assert rank_exact(Matrix.from_rows(cat)) <= 5
    # a generic 6-node point has full catalecticant: the oracle separates
    nodes = [tuple(rng.randint(-9, 9) for _ in range(3)) for _ in range(6)]
    assert det_permutation_oracle(middle_catalecticant(nodes)) != 0


def test_segre_2222_unique_defective_case():
    rep = secant_dimension(segre((2, 2, 2, 2)), 3)
    assert (rep.computed_affine_dim, rep.expected_affine_dim) == (14, 15)
    assert rep.defect == 1


def test_generic_rank_matrices():
    res = generic_rank(segre((2, 2)))
    assert res.rank == 2


def test_generic_rank_segre_333_with_strassen_defect():
    res = generic_rank(segre((3, 3, 3)), seed=1)
    assert res.rank == 5
    by_r = {rep.r: rep for rep in res.profile}
    assert by_r[4].computed_affine_dim == 26
    assert by_r[4].defect == 1
    for r in (1, 2, 3):
        assert by_r[r].defect == 0


def test_generic_rank_binary_forms_matches_sylvester():
    rng = random.Random(55)
    for d in (3, 5, 7):
        res = generic_rank(veronese(2, d))
        assert res.rank == (d + 1) // 2
        # cross-oracle: catalecticant ladder on a random form of degree d
        coeffs = [rng.randint(-9, 9) for _ in range(d + 1)]
        coeffs[0] = coeffs[0] or 1
        assert sylvester_symmetric_rank_binary(coeffs) == res.rank


@pytest.mark.parametrize(
    "spec, defective", [(veronese(3, 4), True), (segre((2, 2, 3)), False)], ids=str
)
def test_generic_rank_profile_is_the_defect_scan(spec, defective):
    res = generic_rank(spec, trials=2, seed=4)
    scan = defect_scan([spec], trials=2, seed=4)
    assert res.profile == tuple(scan)
    assert res.rank == scan[-1].r
    assert any(rep.defect for rep in scan) == defective


def test_segre_matrix_case_matches_determinantal_dimension():
    for d1, d2 in ((2, 3), (3, 3), (2, 4)):
        for r in range(1, min(d1, d2) + 1):
            rep = secant_dimension(segre((d1, d2)), r)
            assert rep.computed_affine_dim == min(r * (d1 + d2 - r), d1 * d2)


def test_scan_reports_known_cells_by_their_dimension_only():
    spec = segre((2, 2, 2))  # ambient 8, saturated at r = 2
    full = list(secants.scan(spec, 3, 0))
    assert full == [secant_dimension(spec, r, trials=3, seed=0) for r in (1, 2)]
    # a known cell is not yielded, and its dimension decides saturation
    assert list(secants.scan(spec, 3, 0, known={1: full[0].computed_affine_dim})) == full[1:]
    assert list(secants.scan(spec, 3, 0, known={1: 8})) == []
    assert list(secants.scan(spec, 3, 0, r_max=1)) == full[:1]
    with pytest.raises(TensorlabError, match="failed to saturate"):
        list(secants.scan(spec, 3, 0, known={r: 0 for r in range(1, 10)}))


def test_defect_scan_p1_families():
    reports = defect_scan([segre((2,) * n) for n in (3, 4, 5)], seed=3)
    defective = [(r.variety, r.r) for r in reports if r.defect > 0]
    assert defective == [("segre:2,2,2,2", 3)]
    # generic ranks: saturation points
    saturated = {
        r.variety: r.r for r in reports if r.computed_affine_dim == r.ambient_affine_dim
    }
    assert saturated == {"segre:2,2,2": 2, "segre:2,2,2,2": 4, "segre:2,2,2,2,2": 6}


def test_monotonicity_and_expected_bound():
    spec = segre((2, 3, 2))
    prev = 0
    ambient = ambient_affine_dim(spec)
    for r in range(1, 5):
        rep = secant_dimension(spec, r, trials=2, seed=9)
        assert rep.computed_affine_dim <= rep.expected_affine_dim <= ambient
        assert rep.computed_affine_dim >= prev
        if prev < ambient:
            assert rep.computed_affine_dim > prev
        prev = rep.computed_affine_dim


def test_terracini_rank_invariant_under_factor_basis_change():
    rng = random.Random(66)
    spec = segre((2, 2, 2))
    points = [sample_params(spec, random.Random(f"pt{i}")) for i in range(3)]
    rows = []
    for pt in points:
        rows.extend(affine_tangent_basis(spec, pt))
    base_rank = rank_mod_word_prime(rows)
    # apply one invertible map per factor to every sampled point
    gs = []
    for _ in range(3):
        while True:
            g = Matrix.from_rows([[rng.randint(-4, 4) for _ in range(2)] for _ in range(2)])
            if det_exact(g) != 0:
                gs.append(g)
                break
    moved = [[tuple(int(x) for x in g.mul_vector(list(v))) for g, v in zip(gs, pt)] for pt in points]
    assert any(x < 0 for pt in moved for v in pt for x in v)  # the builder reduces these mod p
    rows = [row for pt in moved for row in affine_tangent_basis(spec, pt)]
    assert rank_mod_word_prime(rows) == base_rank


def test_subspace_generic_rank_experiment_is_stable():
    spec = subspace((4, 4, 4), (2, 2, 2))
    res1 = generic_rank(spec, trials=2, seed=0)
    res2 = generic_rank(spec, trials=2, seed=123)
    assert res1.rank == res2.rank
    # experimental output: the profile saturates monotonically
    dims = [rep.computed_affine_dim for rep in res1.profile]
    assert dims == sorted(dims)
    assert dims[-1] == 64


def test_ambient_cap():
    with pytest.raises(CapExceeded):
        secant_dimension(segre((12, 12, 12, 12)), 1)


def test_degree_cap(monkeypatch):
    # one-variable factors keep the ambient dimension small at any degree
    def no_points(*args):
        raise AssertionError("a point was drawn")

    monkeypatch.setattr(secants, "sample_params", no_points)
    for spec in (veronese(1, 3_000_000), segre_veronese((1, 2), (3_000_000, 1)), veronese(1, 20001)):
        assert ambient_affine_dim(spec) <= 2
        with pytest.raises(CapExceeded, match="degree"):
            secant_dimension(spec, 1)
        with pytest.raises(CapExceeded, match="degree"):
            defect_scan([spec])


# the varieties of CI smoke lines and CLI tests that the survey and the benchmark do not hold
SMOKE_VARIETIES = ["segre:6,6,6,6", "segre:2,2,2", "segre:1200"]


def test_memory_cap_admits_every_survey_benchmark_and_smoke_variety(monkeypatch):
    def no_points(*args):
        raise AssertionError("a point was drawn")

    monkeypatch.setattr(secants, "sample_params", no_points)
    for text in SURVEY + BENCHMARK_VARIETIES + SMOKE_VARIETIES:
        secants._trials(parse_variety(text), 3, 0)  # as a scan: k runs up to N
    # cells up to r bound k by r times the cone dimension, 281 for segre:141,141 (N = 19881):
    # 6 x 1124 x 18757 x 8 bytes fit in 1 GiB at r = 4, 6 x 1405 x 18476 x 8 do not at r = 5
    spec = parse_variety("segre:141,141")
    assert len(secants._trials(spec, 3, 0, 4)[1]) == 3
    for r_max in (5, None):
        with pytest.raises(CapExceeded, match="over the cap of 1073741824 bytes"):
            secants._trials(spec, 3, 0, r_max)
    with pytest.raises(CapExceeded, match="1405 x 18476 int64"):
        secant_dimension(spec, 5)
    with pytest.raises(CapExceeded, match="9940 x 9941 int64"):
        next(secants.scan(spec, 3, 0))


def test_power_at_the_largest_admitted_degree():
    # k!/alpha! from factorial tables mod p, not a factorial per coefficient
    spec = veronese(2, 19999)
    assert ambient_affine_dim(spec) == 20000
    basis = affine_tangent_basis(spec, [(1, 1)])
    assert basis[0, :3].tolist() == [1, 19998, 19998 * 19997 // 2]
    assert secant_dimension(spec, 1, trials=1).computed_affine_dim == 2
    assert secant_dimension(veronese(1, 20000), 1, trials=1).computed_affine_dim == 1


def test_exponent_enumeration_order():
    assert exponents(2, 2) == [(2, 0), (1, 1), (0, 2)]
    assert exponents(3, 1) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert len(exponents(3, 4)) == 15


def exponents_recursive(nvars, degree):
    """The recursion, one level per variable, that `exponents` replaced."""
    if nvars == 1:
        return [(degree,)]
    out = []
    for e in range(degree, -1, -1):
        out.extend((e,) + tail for tail in exponents_recursive(nvars - 1, degree - e))
    return out


def test_exponents_match_the_recursive_enumeration():
    for n in range(1, 7):
        for k in range(6):
            assert exponents(n, k) == exponents_recursive(n, k), (n, k)


def test_exponents_do_not_recurse_per_variable():
    # past Python's default recursion limit of 1000
    exps = exponents(1500, 1)
    assert len(exps) == 1500 and exps[0][0] == 1 and exps[-1][-1] == 1


def test_generic_rank_binary_forms_of_degree_30():
    # the old [-10, 10] sampler drew proportional points here and reported 17
    for seed in range(10):
        res = generic_rank(veronese(2, 30), seed=seed)
        assert res.rank == 16
        assert all(rep.defect == 0 for rep in res.profile)


# every cell of these scans is nondefective except the ones listed, which are
# the classical defects: Alexander-Hirschowitz, the (P^1)^4 exception,
# Strassen's 3x3x3 hypersurface, P^2 x P^2 in O(2,2), and three that follow
# from them or from matrix rank
SURVEY = [
    "segre:2,2", "segre:2,3", "segre:3,4", "segre:2,2,2", "segre:2,2,3", "segre:2,3,3",
    "segre:2,2,2,2", "segre:2,2,2,3", "segre:2,2,2,2,2", "segre:3,3,3", "segre:3,3,4",
    "segre:4,4,4",
    "veronese:2,5", "veronese:2,30", "veronese:3,3", "veronese:3,4", "veronese:3,5",
    "veronese:3,6", "veronese:4,3", "veronese:4,4", "veronese:5,3", "veronese:5,4",
    "veronese:6,3",
    "segver:2,2@2,1", "segver:2,3@2,1", "segver:2,2@1,3", "segver:3,2@1,2", "segver:2,2@2,2",
    "segver:3,3@2,2",
    "sub:4,4,4@2,2,2", "sub:4,3,3@2,2,1", "sub:3,3,3@1,2,2", "sub:3,3,3@2,2,2",
    "symsub:3@2,3", "symsub:4@2,3", "symsub:5@2,3", "symsub:4@3,3",
]
KNOWN_DEFECTS = {
    ("veronese:3,4", 5): 1,
    ("veronese:4,4", 9): 1,
    ("veronese:5,4", 14): 1,
    ("veronese:5,3", 7): 1,
    ("segre:2,2,2,2", 3): 1,
    ("segre:3,3,3", 4): 1,
    ("segver:3,3@2,2", 7): 2,
    ("segver:3,3@2,2", 8): 1,
    # rank-2 3x4 matrices: 2 (3 + 4 - 2) = 10 < 12
    ("segre:3,4", 2): 2,
    # P^1 x P^1 in O(2,2): the 3x3 catalecticant of a sum of 3 points is singular
    ("segver:2,2@2,2", 3): 1,
    # two (2,2,2) blocks have Segre rank 4, inside Strassen's hypersurface
    ("sub:3,3,3@2,2,2", 2): 1,
}


def test_defect_survey_shows_exactly_the_known_defects():
    reports = defect_scan([parse_variety(text) for text in SURVEY], seed=0)
    assert {rep.variety for rep in reports} == set(SURVEY)
    found = {(rep.variety, rep.r): rep.defect for rep in reports if rep.defect}
    assert found == KNOWN_DEFECTS


# the benchmark's other Terracini cells are in the survey
BENCHMARK_VARIETIES = ["segre:5,5,5", "segre:9,9,9,9"]


@pytest.mark.parametrize("text", SURVEY + BENCHMARK_VARIETIES)
def test_tangent_rows_are_the_exact_rows_mod_p(text):
    spec = parse_variety(text)
    for seed in range(3):
        params = sample_params(spec, random.Random(f"oracle:{seed}"))
        basis = affine_tangent_basis(spec, params)
        assert basis.dtype == np.int64
        assert basis.tolist() == residues(exact_tangent_rows(spec, params))


@pytest.mark.parametrize("text", ["segre:2,3", "veronese:3,4", "segver:2,2@2,1", "sub:3,3,3@1,2,2", "symsub:4@2,3"])
def test_tangent_rows_reduce_coordinates_of_any_size_and_sign(text):
    spec = parse_variety(text)
    params = sample_params(spec, random.Random(text))
    offset = -(2**70) * WORD_PRIME  # negative and beyond int64, zero mod p
    if spec.kind == "subspace":
        core, factors = params
        moved = (np.asarray(core, dtype=object) + offset, [np.asarray(f, dtype=object) + offset for f in factors])
    elif spec.kind == "sym_subspace":
        moved = tuple(np.asarray(a, dtype=object) + offset for a in params)
    else:
        moved = [tuple(x + offset for x in v) for v in params]
    basis = affine_tangent_basis(spec, moved)
    assert basis.tolist() == affine_tangent_basis(spec, params).tolist()
    assert basis.tolist() == residues(exact_tangent_rows(spec, moved))
