import itertools
import math
import random

import numpy as np
import pytest

from helpers import gurvits_construction_by_matrices, tensor_subspace
from tensorlab import minrank
from tensorlab.errors import CapExceeded, ValidationError
from tensorlab.linalg import Matrix, kron, rank_exact
from tensorlab.minrank import (
    BipartiteVector,
    MatrixSubspace,
    entanglement_entropy,
    friedland_check,
    gurvits_construction,
    gurvits_space,
    gurvits_witness_vector,
    min_rank_exact_fp,
    min_rank_sample,
    rotation_block,
)
from tensorlab.rings import RATIONAL, fp
from tensorlab.tensors import DenseTensor, braid


def min_rank_enumeration_oracle(space):
    """Loop over every nonzero coefficient vector of the F_p space."""
    p = space.ring.p
    best = min(space.rows, space.cols)
    for coeffs in itertools.product(range(p), repeat=space.dim):
        if not any(coeffs):
            continue
        best = min(best, rank_exact(space.element(coeffs)))
    return best


# --- exact minimum rank over F_p ---------------------------------------------------

def test_min_rank_identity_span():
    sp = MatrixSubspace.span([Matrix.identity(2, fp(3))])
    assert min_rank_exact_fp(sp) == 2


def test_min_rank_single_unit():
    e11 = Matrix.from_rows([[1, 0], [0, 0]], fp(3))
    assert min_rank_exact_fp(MatrixSubspace.span([e11])) == 1


def test_min_rank_rotation_span_depends_on_quadratic_residues():
    # det(aM + bI) = a^2 + b^2: zero divisors exist exactly when -1 is a
    # square mod p, so the real-field value 2 transfers to p = 3 (mod 4)
    # fields only
    for p, expected in ((3, 2), (7, 2), (5, 1), (13, 1)):
        m = Matrix.from_rows([[0, 1], [p - 1, 0]], fp(p))
        sp = MatrixSubspace.span([m, Matrix.identity(2, fp(p))])
        got = min_rank_exact_fp(sp)
        assert got == expected
        assert got == min_rank_enumeration_oracle(sp)


def test_min_rank_matches_enumeration_oracle():
    rng = random.Random(11)
    for _ in range(5):
        while True:
            b1 = Matrix.from_rows([[rng.randint(0, 2) for _ in range(3)] for _ in range(3)], fp(3))
            b2 = Matrix.from_rows([[rng.randint(0, 2) for _ in range(3)] for _ in range(3)], fp(3))
            try:
                sp = MatrixSubspace.span([b1, b2])
                break
            except ValidationError:
                continue
        assert min_rank_exact_fp(sp) == min_rank_enumeration_oracle(sp)


def random_fp_space(rng, p, dim, rows, cols):
    while True:
        basis = [
            Matrix.from_rows([[rng.randrange(p) for _ in range(cols)] for _ in range(rows)], fp(p))
            for _ in range(dim)
        ]
        try:
            return MatrixSubspace.span(basis)
        except ValidationError:
            continue


@pytest.mark.parametrize(
    "p,dim,rows,cols",
    [(2, 4, 3, 3), (2, 5, 2, 4), (3, 3, 4, 2), (3, 4, 3, 3), (5, 2, 3, 4), (5, 3, 2, 2)],
)
def test_min_rank_matches_oracle_on_small_fields_and_shapes(p, dim, rows, cols):
    rng = random.Random(f"minrank:{p}:{dim}:{rows}x{cols}")
    for _ in range(6):
        sp = random_fp_space(rng, p, dim, rows, cols)
        assert min_rank_exact_fp(sp) == min_rank_enumeration_oracle(sp)


@pytest.mark.parametrize("p,dim", [(2, 5), (7, 3), (31, 2), (103, 2)])
def test_min_rank_with_every_basis_entry_p_minus_1(p, dim, monkeypatch):
    # the nonzero basis entries are all p - 1, so each float64 product sum reaches
    # dim (p - 1)^2 and many sums are multiples of p; every stack is exact residues.
    # In float64 103 * (1/103) < 1, so a reduction by floor(e / p) alone leaves p
    # in place of 0 for e = 103
    stacks = []
    ranks_mod_p = minrank.ranks_mod_p
    monkeypatch.setattr(minrank, "ranks_mod_p", lambda a, q: stacks.append(a.copy()) or ranks_mod_p(a, q))
    rng = random.Random(f"minrank:top:{p}:{dim}")
    for _ in range(2):
        while True:
            masks = [[[rng.random() < 0.8 for _ in range(4)] for _ in range(3)] for _ in range(dim)]
            basis = [Matrix.from_rows([[(p - 1) * x for x in row] for row in m], fp(p)) for m in masks]
            try:
                sp = MatrixSubspace.span(basis)
                break
            except ValidationError:
                continue
        stacks.clear()
        assert min_rank_exact_fp(sp) == min_rank_enumeration_oracle(sp)
        elements = np.concatenate(stacks)
        assert np.all((0 <= elements) & (elements < p) & (elements == np.rint(elements)))


def test_min_rank_across_many_small_chunks(monkeypatch):
    # chunks of 7 to 2 elements: every space below crosses several chunk boundaries
    monkeypatch.setattr(minrank, "FP_CHUNK_ENTRIES", 7 * 9)
    stacks = []
    ranks_mod_p = minrank.ranks_mod_p
    monkeypatch.setattr(minrank, "ranks_mod_p", lambda a, p: stacks.append(a.shape) or ranks_mod_p(a, p))
    rng = random.Random("minrank:chunks")
    for p, dim, rows, cols in [(2, 5, 3, 4), (3, 3, 3, 3), (5, 2, 4, 3), (2, 6, 4, 4)]:
        for _ in range(4):
            sp = random_fp_space(rng, p, dim, rows, cols)
            assert min_rank_exact_fp(sp) == min_rank_enumeration_oracle(sp)
    assert max(b * m * n for b, m, n in stacks) <= 7 * 9


def normalized_coefficients(dim, p):
    """Every coefficient vector with first nonzero entry 1, in the order of
    the enumeration: lead position 0 first, tails in itertools.product order."""
    for lead in range(dim):
        for tail in itertools.product(range(p), repeat=dim - lead - 1):
            yield (0,) * lead + (1,) + tail


@pytest.mark.parametrize("p,dim,chunk", [(2, 5, 7), (3, 4, 5), (5, 3, 4), (2, 1, 3), (3, 3, 13)])
def test_min_rank_chunks_follow_the_normalized_enumeration(p, dim, chunk, monkeypatch):
    # each stacked call ranks the next `chunk` elements of the tuple enumeration, in order
    monkeypatch.setattr(minrank, "FP_CHUNK_ENTRIES", chunk * 6)
    stacks = []
    monkeypatch.setattr(minrank, "ranks_mod_p", lambda a, q: stacks.append(a.copy()) or np.full(len(a), 2))
    sp = random_fp_space(random.Random(f"minrank:order:{p}:{dim}"), p, dim, 2, 3)
    assert min_rank_exact_fp(sp) == 2
    coeffs = list(normalized_coefficients(dim, p))
    expected = [
        [sp.element(c).to_lists() for c in coeffs[i : i + chunk]] for i in range(0, len(coeffs), chunk)
    ]
    assert [a.tolist() for a in stacks] == expected
    assert len(stacks) == math.ceil((p**dim - 1) / (p - 1) / chunk)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_min_rank_stops_after_the_chunk_with_a_rank_one_element(p, monkeypatch):
    # chunks of 4 elements; a rank-1 element at each position of the
    # enumeration in turn ends the search with the chunk that holds it
    monkeypatch.setattr(minrank, "FP_CHUNK_ENTRIES", 4 * 9)
    calls = []
    ranks_mod_p = minrank.ranks_mod_p
    monkeypatch.setattr(minrank, "ranks_mod_p", lambda a, q: calls.append(len(a)) or ranks_mod_p(a, q))
    rng = random.Random(f"minrank:stop:{p}")
    dim = 3
    coeffs = list(normalized_coefficients(dim, p))
    target = Matrix.from_rows([[1, 2, 0], [2, 4, 0], [0, 0, 0]], fp(p))  # rank 1
    for position, c in enumerate(coeffs):
        lead = c.index(1)
        while True:
            sp = random_fp_space(rng, p, dim, 3, 3)
            # make element c equal to target: c . basis = target, solved at the lead
            rest = [b.scale(x) for b, x in zip(sp.basis, c) if x][1:]
            lead_matrix = target
            for m in rest:
                lead_matrix = lead_matrix - m
            basis = list(sp.basis)
            basis[lead] = lead_matrix
            try:
                sp = MatrixSubspace.span(basis)
            except ValidationError:
                continue
            if all(rank_exact(sp.element(d)) > 1 for d in coeffs[:position]):
                break
        assert rank_exact(sp.element(c)) == 1
        calls.clear()
        assert min_rank_exact_fp(sp) == min_rank_enumeration_oracle(sp) == 1
        assert len(calls) == position // 4 + 1


def test_min_rank_found_in_a_later_chunk():
    # a 5 x 6 space of dimension 11 over F_2 has 2047 projective elements, in
    # chunks of 1092; the rank-1 element b_2 + b_3 + b_4 sits at position
    # 1024 + 0b110000000 = 1408 of the enumeration, in the second chunk
    assert minrank.FP_CHUNK_ENTRIES // 30 == 1092
    rng = random.Random("minrank:late")
    target = Matrix.from_rows([[1, 0, 1, 0, 0, 1]] + [[0] * 6] * 3 + [[1, 0, 1, 0, 0, 1]], fp(2))
    while True:
        sp = random_fp_space(rng, 2, 11, 5, 6)
        b = list(sp.basis)
        b[1] = target + b[2] + b[3]
        try:
            sp = MatrixSubspace.span(b)
        except ValidationError:
            continue
        first_chunk = itertools.islice(
            itertools.chain(
                ((1,) + tail for tail in itertools.product(range(2), repeat=10)),
                ((0, 1) + tail for tail in itertools.product(range(2), repeat=9)),
            ),
            1092,
        )
        if min(rank_exact(sp.element(c)) for c in first_chunk) > 1:
            break
    assert rank_exact(sp.element((0, 1, 1, 1) + (0,) * 7)) == 1
    assert min_rank_exact_fp(sp) == min_rank_enumeration_oracle(sp) == 1


def test_min_rank_never_zero_and_bounded_by_basis():
    rng = random.Random(13)
    b1 = Matrix.from_rows([[1, 0], [0, 1]], fp(5))
    b2 = Matrix.from_rows([[0, 1], [0, 0]], fp(5))
    sp = MatrixSubspace.span([b1, b2])
    r = min_rank_exact_fp(sp)
    assert 1 <= r <= min(rank_exact(b) for b in sp.basis)


def test_min_rank_cap():
    basis = []
    eye = Matrix.identity(4, fp(5))
    rng = random.Random(17)
    while len(basis) < 9:
        cand = Matrix.from_rows([[rng.randint(0, 4) for _ in range(4)] for _ in range(4)], fp(5))
        try:
            MatrixSubspace.span(basis + [cand])
            basis.append(cand)
        except ValidationError:
            continue
    with pytest.raises(CapExceeded):
        min_rank_exact_fp(MatrixSubspace.span(basis))


# --- sampled upper bounds ------------------------------------------------------------

def test_min_rank_sample_identity():
    sp = MatrixSubspace.span([Matrix.identity(2, RATIONAL)])
    assert min_rank_sample(sp, trials=5) == 2


def test_min_rank_sample_finds_gurvits_witness():
    x = gurvits_space(1)
    y = tensor_subspace(x, x)
    assert [rank_exact(b) for b in y.basis] == [4, 4, 4, 4]
    assert min_rank_sample(y, trials=10) == 2  # found at M(x)M - I


def test_min_rank_sample_upper_bounds_fp_value():
    # consistency: the rational upper bound cannot undercut the exact value
    # of the mod-p reduction when entries are small
    rng = random.Random(19)
    b1 = Matrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]], RATIONAL)
    b2 = Matrix.from_rows([[0, 1, 0], [0, 0, 1], [0, 0, 0]], RATIONAL)
    sp = MatrixSubspace.span([b1, b2])
    bound = min_rank_sample(sp, trials=100, seed=3)
    sp3 = MatrixSubspace.span(
        [Matrix.from_rows([[x % 3 for x in row] for row in b.to_lists()], fp(3)) for b in sp.basis]
    )
    assert bound >= min_rank_exact_fp(sp3)


# --- tensor products of subspaces ------------------------------------------------------

def test_tensor_subspace_identity():
    s = MatrixSubspace.span([Matrix.identity(2, RATIONAL)])
    prod = tensor_subspace(s, s)
    assert prod.dim == 1
    assert prod.basis[0].entries == Matrix.identity(4, RATIONAL).entries


def test_tensor_subspace_gurvits_basis():
    x = gurvits_space(1)
    y = tensor_subspace(x, x)
    assert y.dim == 4
    m = rotation_block()
    eye = Matrix.identity(2, RATIONAL)
    expected = {kron(a, b).entries for a in (m, eye) for b in (m, eye)}
    assert {b.entries for b in y.basis} == expected


def test_multiplicativity_upper_direction():
    # product of witnesses gives min_rank(S1 x S2) <= r(S1) r(S2)
    rng = random.Random(23)
    e11 = Matrix.from_rows([[1, 0], [0, 0]], RATIONAL)
    s1 = MatrixSubspace.span([e11, Matrix.identity(2, RATIONAL)])
    s2 = MatrixSubspace.span([Matrix.from_rows([[0, 1], [0, 0]], RATIONAL)])
    prod = tensor_subspace(s1, s2)
    r1 = min_rank_sample(s1, trials=50)
    r2 = min_rank_sample(s2, trials=50)
    assert min_rank_sample(prod, trials=50) <= r1 * r2


def test_braid_on_four_way_tensor_is_involution():
    rng = random.Random(29)
    data = tuple(rng.randint(-5, 5) for _ in range(16))
    t = DenseTensor((2, 2, 2, 2), data, RATIONAL)
    perm = (0, 2, 1, 3)  # swap the middle factors: the braiding move
    assert braid(braid(t, perm), perm).data == t.data


# --- the structured counterexample family ----------------------------------------------

def test_gurvits_n1_matches_known_values():
    rec = gurvits_construction(1)
    assert rec.minrank_x == 2
    assert rec.witness_rank_minus == 2
    assert rec.witness_rank_plus == 2
    assert rec.decrement == 2


def test_gurvits_decrement_grows():
    for n in (1, 2, 3):
        rec = gurvits_construction(n)
        assert rec.minrank_x == 2 * n
        assert rec.witness_rank_minus == 2 * n * n
        assert rec.witness_rank_plus == 2 * n * n
        assert rec.decrement == (2 * n) ** 2 - 2 * n * n == 2 * n * n


def test_gurvits_witnesses_are_the_tuple_kron_minus_and_plus_identity():
    for n in range(1, 9):
        m_block = gurvits_space(n).basis[0]
        square = kron(m_block, m_block)
        identity = Matrix.identity(4 * n * n, RATIONAL)
        minus, plus = minrank._square_minus_plus_identity(m_block)
        assert minus.dtype == plus.dtype == np.int64
        assert minus.shape == plus.shape == (4 * n * n, 4 * n * n)
        entries = tuple(minus.ravel().tolist()), tuple(plus.ravel().tolist())
        assert entries == ((square - identity).entries, (square + identity).entries)
        assert all(type(x) is int for x in entries[0] + entries[1])
        if n <= 3:
            data = gurvits_witness_vector(n).data
            assert all(type(x) is float for x in data)
            assert data == tuple(float(x) for x in entries[0])


@pytest.mark.parametrize("n", range(1, 9))
def test_gurvits_record_equals_the_matrix_oracle(n):
    assert gurvits_construction(n) == gurvits_construction_by_matrices(n)


def test_gurvits_pencil_takes_the_exact_rank_only_where_mod_p_is_short(monkeypatch):
    n = 3
    expected = gurvits_construction(n)
    true_ranks, exact = minrank.ranks_mod_p, minrank.rank_exact_int64
    ranked = []

    def short_at_sample_4(stack, p):  # (-2, 1) reported one short mod p
        ranks = true_ranks(stack, p)
        ranks[4] -= 1
        return ranks

    def counted(a):
        ranked.append(a.shape)
        return exact(a)

    monkeypatch.setattr(minrank, "ranks_mod_p", short_at_sample_4)
    monkeypatch.setattr(minrank, "rank_exact_int64", counted)
    assert gurvits_construction(n) == expected
    # the one short sample, then the two witnesses
    assert ranked == [(2 * n, 2 * n), (4 * n * n, 4 * n * n), (4 * n * n, 4 * n * n)]
    monkeypatch.setattr(minrank, "rank_exact_int64", lambda a: 2 * n - 1 if len(a) == 2 * n else exact(a))
    with pytest.raises(ValidationError, match=r"pencil sample \(-2,1\) has rank 5, expected 6"):
        gurvits_construction(n)


def test_gurvits_cap():
    with pytest.raises(CapExceeded):
        gurvits_construction(9)
    for n in (0, -1):
        with pytest.raises(ValidationError, match="n must be >= 1"):
            gurvits_construction(n)


# --- entanglement entropy ----------------------------------------------------------------

def test_entropy_product_vector():
    v = BipartiteVector((2, 3), (1, 2, 3, 2, 4, 6))  # (1,2) x (1,2,3)
    assert entanglement_entropy(v) == pytest.approx(0.0, abs=1e-10)


def test_entropy_bell_state():
    s = 1 / math.sqrt(2)
    v = BipartiteVector((2, 2), (s, 0, 0, s))
    assert entanglement_entropy(v) == pytest.approx(math.log(2), abs=1e-12)
    assert entanglement_entropy(v, base=2) == pytest.approx(1.0, abs=1e-12)


def test_entropy_zero_vector_rejected():
    with pytest.raises(ValidationError):
        entanglement_entropy(BipartiteVector((2, 2), (0, 0, 0, 0)))


def test_entropy_gurvits_witness():
    for n in (1, 2, 3):
        v = gurvits_witness_vector(n)
        assert entanglement_entropy(v) == pytest.approx(math.log(2 * n * n), abs=1e-9)


def test_entropy_invariant_under_local_orthogonals():
    rng = np.random.default_rng(31)
    data = rng.normal(size=12)
    v = BipartiteVector((3, 4), tuple(data))
    base = entanglement_entropy(v)
    for _ in range(5):
        qa, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        qb, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        moved = qa @ data.reshape(3, 4) @ qb.T
        v2 = BipartiteVector((3, 4), tuple(moved.ravel()))
        assert entanglement_entropy(v2) == pytest.approx(base, abs=1e-8)


# --- entropy additivity violation ---------------------------------------------------------

def test_friedland_n1():
    rec = friedland_check(1)
    assert rec.violated
    assert rec.sum_of_mins == pytest.approx(2 * math.log(2), abs=1e-12)
    assert rec.joint_min_upper == pytest.approx(math.log(2), abs=1e-9)


def test_friedland_margin_is_log_two():
    for n in range(1, 6):
        rec = friedland_check(n)
        assert rec.violated
        assert rec.margin == pytest.approx(math.log(2), abs=1e-9)


def test_friedland_n2_numbers():
    rec = friedland_check(2)
    assert rec.sum_of_mins == pytest.approx(2 * math.log(4), abs=1e-12)
    assert rec.joint_min_upper == pytest.approx(math.log(8), abs=1e-9)


# --- serialization --------------------------------------------------------------------------

def test_subspace_json_round_trip():
    sp = gurvits_space(2)
    text = sp.to_json()
    back = MatrixSubspace.from_json(text)
    assert back.to_json() == text


def test_subspace_rejects_dependent_basis():
    with pytest.raises(ValidationError):
        MatrixSubspace.span(
            [Matrix.identity(2, RATIONAL), Matrix.identity(2, RATIONAL).scale(3)]
        )
