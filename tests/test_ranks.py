import itertools
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from cover_oracle import basis_insert, cover_search, oracle_rank, prefix_problem, reduce_mod_p
from helpers import apolar_kernel_form_ladder, bareiss_below_certified_size, poly_gcd_degree_euclid, random_tensor
from tensorlab import linalg, ranks
from tensorlab.errors import CapExceeded, TensorlabError, ValidationError
from tensorlab.linalg import Matrix, det_exact, nullspace_exact, rank_exact, solve_exact
from tensorlab.ranks import (
    _normalized_vectors,
    all_bipartitions,
    border_rank_lower_bound,
    catalecticant,
    exact_rank_bruteforce,
    f_rank,
    is_squarefree_binary,
    multilinear_rank,
    sylvester_symmetric_rank_binary,
    w_state,
    w_state_certificate,
)
from tensorlab.rings import fp
from tensorlab.tensors import (
    Bipartition,
    DenseTensor,
    flatten,
    is_symmetric,
    mode_apply,
    multi_indices,
    rank_one,
    to_ring,
    zeros,
)


def reconstruct(summands, ring=None):
    total = None
    for s in summands:
        t = rank_one(s) if ring is None else rank_one(s, ring)
        total = t if total is None else total + t
    return total


# --- f_rank and multilinear rank ---------------------------------------------

def test_f_rank_rank_one_all_bipartitions():
    t = rank_one([(1, 2), (3, -1), (2, 5)])
    for b in all_bipartitions(3):
        assert f_rank(t, b) == 1


def test_f_rank_w_state_single_factor():
    w = w_state(3)
    m = flatten(w, Bipartition.of((0,), 3))
    assert m.rows == 2 and m.cols == 4
    assert f_rank(w, Bipartition.of((0,), 3)) == rank_exact(m) == 2


def test_f_rank_bounded_by_grouped_dims():
    rng = random.Random(3)
    for _ in range(10):
        t = random_tensor((2, 3, 4), seed=rng.randint(0, 10**6))
        for b in all_bipartitions(3):
            left = 1
            for p in b.left:
                left *= t.shape[p]
            right = 1
            for p in b.right:
                right *= t.shape[p]
            assert f_rank(t, b) <= min(left, right)


def test_multilinear_rank_examples():
    t = rank_one([(1, 2), (3, -1), (2, 5)])
    assert multilinear_rank(t).ranks == (1, 1, 1)
    assert multilinear_rank(w_state(3)).ranks == (2, 2, 2)
    for seed in range(20):
        t = random_tensor((2, 2, 2), seed=seed)
        # generic tensors have full mode ranks
        per_mode = tuple(
            rank_exact(flatten(t, Bipartition.of((i,), 3))) for i in range(3)
        )
        assert multilinear_rank(t).ranks == per_mode


def test_f_rank_float_lane():
    from tensorlab.rings import FLOAT

    t = to_ring(w_state(3), FLOAT)
    assert f_rank(t, Bipartition.of((0,), 3)) == 2
    assert multilinear_rank(t).ranks == (2, 2, 2)
    assert border_rank_lower_bound(t) == 2


def test_multilinear_rank_bounds_and_genericity():
    rng = random.Random(9)
    for _ in range(10):
        shape = tuple(rng.choice([2, 3]) for _ in range(3))
        t = random_tensor(shape, seed=rng.randint(0, 10**6))
        mr = multilinear_rank(t).ranks
        for i, r in enumerate(mr):
            rest = 1
            for j, d in enumerate(shape):
                if j != i:
                    rest *= d
            assert r <= min(shape[i], rest)


# --- border rank lower bound ---------------------------------------------------

def test_border_bound_rank_one():
    assert border_rank_lower_bound(rank_one([(1, 1), (2, 1), (1, 3)])) == 1


def test_border_bound_w_state_is_two():
    for n in range(2, 7):
        assert border_rank_lower_bound(w_state(n)) == 2


def test_border_bound_diagonal():
    t = zeros((3, 3, 3))
    data = list(t.data)
    for i in range(3):
        data[i * 9 + i * 3 + i] = 1
    t = type(t)((3, 3, 3), tuple(data), t.ring)
    assert border_rank_lower_bound(t) == 3


def test_border_bound_invariant_under_braid_and_substitution():
    from tensorlab.tensors import braid

    rng = random.Random(21)
    for seed in range(5):
        t = random_tensor((2, 2, 3), seed=seed)
        base = border_rank_lower_bound(t)
        assert border_rank_lower_bound(braid(t, (2, 0, 1))) == base
        for pos in range(3):
            d = t.shape[pos]
            while True:
                g = Matrix.from_rows(
                    [[rng.randint(-4, 4) for _ in range(d)] for _ in range(d)]
                )
                if det_exact(g) != 0:
                    break
            assert border_rank_lower_bound(mode_apply(t, pos, g)) == base


# --- W states -------------------------------------------------------------------

def test_w_state_construction():
    w2 = w_state(2)
    assert w2.data == (0, 1, 1, 0)
    assert rank_exact(flatten(w2, Bipartition.of((0,), 2))) == 2
    w3 = w_state(3)
    nonzero = {idx for idx in multi_indices((2, 2, 2)) if w3[idx] != 0}
    assert nonzero == {(0, 0, 1), (0, 1, 0), (1, 0, 0)}
    w4 = w_state(4)
    assert is_symmetric(w4)
    assert multilinear_rank(w4).ranks == (2, 2, 2, 2)


def test_w_state_certificate_reconstructs():
    for n in range(2, 7):
        assert reconstruct(w_state_certificate(n)).data == w_state(n).data


# --- exhaustive rank over F_p ----------------------------------------------------

def test_bruteforce_zero_and_rank_one():
    z = to_ring(zeros((2, 2, 2)), fp(2))
    assert exact_rank_bruteforce(z, 2) == 0
    t = to_ring(rank_one([(1, 1), (1, 0), (0, 1)]), fp(3))
    assert exact_rank_bruteforce(t, 2) == 1


def test_bruteforce_w_state_refutes_rank_two():
    for p in (2, 3):
        w = to_ring(w_state(3), fp(p))
        assert exact_rank_bruteforce(w, 2) is None
        assert exact_rank_bruteforce(w, 3) == 3


def test_bruteforce_matches_flattening_bound():
    rng = random.Random(33)
    for _ in range(10):
        t = to_ring(random_tensor((2, 2, 2), seed=rng.randint(0, 10**6)), fp(2))
        r = exact_rank_bruteforce(t, 4)
        assert r is not None
        for b in all_bipartitions(3):
            assert f_rank(t, b) <= r


def test_bruteforce_agrees_with_known_decompositions():
    # sum of r generic rank-ones over F_3 has rank between the flattening
    # bound and r
    rng = random.Random(35)
    for r in (1, 2):
        for _ in range(5):
            summands = [
                [
                    [rng.randint(0, 2) for _ in range(2)],
                    [rng.randint(0, 2) for _ in range(2)],
                    [rng.randint(0, 2) for _ in range(2)],
                ]
                for _ in range(r)
            ]
            if any(not any(v) for s in summands for v in s):
                continue
            t = reconstruct(summands, fp(3))
            found = exact_rank_bruteforce(t, 3)
            assert found is not None and found <= r


def matmul_tensor(n, ring):
    """<n,n,n>: the coefficient of a_ij (x) b_jk (x) c_ki is 1."""
    data = [0] * n**6
    for i, j, k in itertools.product(range(n), repeat=3):
        data[((i * n + j) * n * n + j * n + k) * n * n + k * n + i] = 1
    return DenseTensor((n * n,) * 3, tuple(data), ring)


def no_candidates(*args):
    raise AssertionError("candidates built")


def test_bruteforce_caps(monkeypatch):
    mm = matmul_tensor(2, fp(2))
    monkeypatch.setattr(ranks, "_prefix_candidates", no_candidates)
    # <2,2,2> at r_max 8 needs C(225, 3) nodes at r = 8: refused before any candidate
    started = time.perf_counter()
    with pytest.raises(CapExceeded, match=r"needs at least \d+ candidate steps, over the limit of "
                       + str(ranks.COVER_SEARCH_WORK_CAP)):
        exact_rank_bruteforce(mm, 8)
    # (2^21 - 1)^2 candidates, and 397852 of 98 packed bits (object arrays):
    # over the memory bound
    for shape, p in (((21, 21, 21), 2), ((6, 7, 7), 3)):
        with pytest.raises(CapExceeded, match="bytes an array, over the limit of " + str(ranks.COVER_MAX_BYTES)):
            exact_rank_bruteforce(to_ring(random_tensor(shape, seed=3), fp(p)), 30)
    assert time.perf_counter() - started < 1
    # a full slice span (s = 90 coordinates) decides the rank without a search
    full = [0] * 8100
    for c in range(90):
        full[c * 91] = 1  # T[i, j, 10 i + j] = 1
    full = DenseTensor((9, 10, 90), tuple(full), fp(2))
    assert exact_rank_bruteforce(full, 90) == 90
    assert exact_rank_bruteforce(full, 89) is None
    monkeypatch.undo()
    # the estimate at r_max 7: 225 candidates of 4 + 4 factor coordinates,
    # then 1, 1, 1 + 225 and 1 + 225 + C(225, 2) nodes at r = 4..7
    nodes = {4: 1, 5: 1, 6: 226, 7: 25426}
    estimate = 225 * 8 + sum(c * (r * 225 + ranks.COVER_NODE_STEPS) for r, c in nodes.items())
    assert ranks._cover_work(2, (4, 4), 4, range(4, 8)) == estimate <= ranks.COVER_SEARCH_WORK_CAP
    # past 62 packed bits every candidate counts COVER_WIDE_STEPS
    wide = ranks._cover_work(2, (2, 2, 2, 2, 2, 2), 2, [2])
    assert wide == 729 * 12 * ranks.COVER_WIDE_STEPS + 2 * 729 * ranks.COVER_WIDE_STEPS + ranks.COVER_NODE_STEPS
    # past the old size caps (r_max <= 4, 64 entries): r_max 9 on 72 entries
    big = to_ring(random_tensor((3, 3, 8), seed=1), fp(2))
    assert exact_rank_bruteforce(big, 9) == oracle_rank(big, 9)
    with pytest.raises(ValidationError):
        exact_rank_bruteforce(zeros((2, 2)), 2)  # rational ring rejected


def test_bruteforce_takes_rank_n_from_refuted_levels(monkeypatch):
    # rank <= n, the coordinate count of the other factors: with every level
    # below n refuted, the rank is n, and level n is never searched
    levels = []
    monkeypatch.setattr(ranks, "_cover_search", lambda field, cands, slices, r: levels.append(r))
    t = to_ring(w_state(3), fp(2))
    assert exact_rank_bruteforce(t, 4) == 4 and levels == [2, 3]
    assert exact_rank_bruteforce(t, 3) is None


def test_bruteforce_many_candidates():
    # 12285 candidates of 24 coordinates: a sum of 14 random rank-one terms
    # in F_2^2 x F_2^12 x F_2^12 with slice span 12 and rank 13, where r = 12
    # is a rank test of all the candidates and r = 13 ends in one batch of leaves
    rng = random.Random(12)
    summands = [[[rng.randint(0, 1) for _ in range(d - 1)] + [1] for d in (2, 12, 12)] for _ in range(14)]
    t = reconstruct(summands, fp(2))
    t2, s, n_cands = ranks._solve_mode_last(t)
    assert (s, n_cands) == (12, 12285)
    started = time.perf_counter()
    assert exact_rank_bruteforce(t, 13) == 13
    assert time.perf_counter() - started < 5
    field, cands, slices = ranks._cover_problem(t2)
    assert ranks._cover_search(field, cands, slices, 12) is None
    stats = {}
    check_witness(t2, ranks._cover_search(field, cands, slices, 13, stats), 13)
    assert stats["nodes"] == ranks._cover_nodes(n_cands, 1) == 1


def test_matmul_222_has_rank_7_over_f2():
    # Hopcroft-Kerr 1971: r <= 6 refuted, r = 7 found, under the work cap
    mm = matmul_tensor(2, fp(2))
    assert exact_rank_bruteforce(mm, 6) is None
    assert exact_rank_bruteforce(mm, 7) == 7


# --- the packed F_p cover search against the old dict-basis DFS ----------------------

def test_packed_arithmetic_is_arithmetic_mod_p():
    rng = random.Random(5)
    # small n exhaustively; wide n (past 62 packed bits, object arrays) at random
    for p, wide in ((2, 70), (3, 40), (5, 20)):
        for n in (1, 2, 3, wide):
            field = ranks._PackedFp(p, n)
            assert (field.dtype is object) == (n == wide)
            if n < wide:
                vecs = list(itertools.product(range(p), repeat=n))
            else:
                vecs = [tuple(rng.randrange(p) for _ in range(n)) for _ in range(40)]
            packed = [field.pack(v) for v in vecs]
            arr = np.array(packed, dtype=field.dtype)
            for v, x in zip(vecs, packed):
                assert [field.coef(x, i) for i in range(n)] == list(v)
                assert field.neg(x) == field.pack([-a for a in v])
                for c in range(p):
                    assert field.times(x, c) == field.pack([c * a for a in v])
                if any(v):
                    line = {field.pack([c * a for a in v]) for c in range(1, p)}
                    assert field.line_key(x) == min(line)
            pairs = list(zip(vecs, packed))
            others = itertools.product(pairs, repeat=2) if n < wide else zip(pairs, pairs[1:] + pairs[:1])
            for (v, x), (w, y) in others:
                assert field.add(x, y) == field.pack([a + b for a, b in zip(v, w)])
            # the array operations agree with the scalar ones entry by entry
            rolled = np.roll(arr, 1)
            assert field.add(arr, rolled).tolist() == [field.add(x, y) for x, y in zip(packed, rolled.tolist())]
            assert field.line_key(arr).tolist() == [field.line_key(x) for x in packed]
            assert field.coef(arr, n - 1).tolist() == [field.coef(x, n - 1) for x in packed]
            heads = [(v, x) for v, x in zip(vecs, packed) if any(v)]
            pivots = [next(i for i, a in enumerate(v) if a) for v, _ in heads]
            head_arr = np.array([x for _, x in heads], dtype=field.dtype)
            assert field.pivots(head_arr).tolist() == pivots
            # clearing v at the pivot i of a head h: v - (v_i / h_i) h
            slot = np.arange(len(vecs)) % len(heads)
            expected = []
            for v, j in zip(vecs, slot.tolist()):
                h, i = heads[j][0], pivots[j]
                c = v[i] * pow(h[i], -1, p)
                expected.append(field.pack([a - c * b for a, b in zip(v, h)]))
            assert field.clear(arr, head_arr, slot).tolist() == expected
            assert field.clear(arr[:1], head_arr, 0).tolist() == expected[:1]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_independent_picks_greedy_bases_in_every_group(p):
    rng = random.Random(p)
    for n in (3, 6, 40):
        field = ranks._PackedFp(p, n)
        rows = [[rng.randrange(p) if rng.random() < 0.4 else 0 for _ in range(n)] for _ in range(60)]
        group = np.sort(np.array([rng.randrange(7) for _ in rows]))
        group = np.unique(group, return_inverse=True)[1]
        pickable = np.array([rng.random() < 0.7 for _ in rows])
        values = np.array([field.pack(v) for v in rows], dtype=field.dtype)
        for mask in (None, pickable):
            picks, rest = ranks._independent(field, values, group, group[-1] + 1, 4, mask)
            for g in range(group[-1] + 1):
                basis, expected = {}, []
                for j in np.flatnonzero(group == g).tolist():
                    if (mask is None or mask[j]) and len(expected) < 4 and basis_insert(rows[j], basis, p):
                        expected.append(j)
                assert picks[: len(expected), g].tolist() == expected
                assert (picks[len(expected):, g] == -1).all()
                # every row of the group is reduced modulo the span of its picks
                for j in np.flatnonzero(group == g).tolist():
                    assert (rest[j] == 0) == (reduce_mod_p(rows[j], basis, p) is None)


def random_cases():
    rng = random.Random(15)
    out = []
    for p in (2, 3, 5):
        for shape in ((2, 2, 2), (2, 2, 3), (2, 3, 3), (3, 3, 2), (2, 2, 2, 2)):
            r_max = 5 if p < 5 and len(shape) == 3 else 4
            for _ in range(2):
                out.append((p, shape, rng.randint(0, 10**6), r_max))
    return out


RANDOM_CASES = random_cases()


def packed_problem(candidates, slice_basis, p):
    """The oracle's candidates and slice basis, packed for the new search."""
    field = ranks._PackedFp(p, len(candidates[0]))
    pack = lambda rows: np.array([field.pack(w) for w in rows], dtype=field.dtype)
    return field, pack(candidates), pack(slice_basis.values())


@pytest.mark.parametrize("case", RANDOM_CASES, ids=lambda c: f"p{c[0]}-{c[1]}-{c[2]}")
def test_cover_search_matches_the_old_dfs(case):
    p, shape, seed, r_max = case
    t = to_ring(random_tensor(shape, seed=seed), fp(p))
    t2, slice_basis, factors, candidates = prefix_problem(t)
    field, cands, slices = packed_problem(candidates, slice_basis, p)
    assert ranks._prefix_candidates(field, t2.shape[:-1]).tolist() == cands.tolist()
    s = len(slice_basis)
    inside = [w for w in candidates if reduce_mod_p(w, slice_basis, p) is None]
    for r in range(max(s, 1), r_max + 1):
        stats = {}
        found = ranks._cover_search(field, cands, slices, r, stats)
        old = cover_search(inside if r == s else candidates, slice_basis, r, p)
        assert (found is not None) == old, r
        assert stats["nodes"] <= ranks._cover_nodes(len(candidates), r - s)
    assert exact_rank_bruteforce(t, r_max) == oracle_rank(t, r_max)


def check_witness(t, witness, r):
    """Solve for the last factors over F_p; the r-term expansion must be t."""
    p = t.ring.p
    factors = list(itertools.product(*(_normalized_vectors(d, p) for d in t.shape[:-1])))
    assert len(set(witness)) == len(witness) <= r
    chosen = [factors[i] for i in witness]
    cols = [rank_one(f, t.ring).data if len(f) > 1 else f[0] for f in chosen]
    a = Matrix.from_rows([list(row) for row in zip(*cols)], t.ring)
    slices = flatten(t, Bipartition.of(tuple(range(t.order - 1)), t.order))
    last = solve_exact(a, slices)
    assert last is not None
    # past the rank some solved factors can be zero; those terms vanish
    summands = [list(f) + [c] for f, c in zip(chosen, last.to_lists()) if any(c)]
    assert reconstruct(summands, t.ring).data == t.data


# (3, 3, 9) over F_3: a full slice span, so the slack-0 level ranks all 169
# candidates at once
WITNESS_CASES = [("mm222", 2), (3, (3, 3, 9), 4, 9)] + RANDOM_CASES


@pytest.mark.parametrize(
    "case", WITNESS_CASES, ids=lambda c: "mm222" if c[0] == "mm222" else f"p{c[0]}-{c[1]}-{c[2]}"
)
def test_cover_search_witness_expands_to_the_tensor(case):
    if case[0] == "mm222":
        t, r_max = matmul_tensor(2, fp(2)), 7
    else:
        p, shape, seed, r_max = case
        t = to_ring(random_tensor(shape, seed=seed), fp(p))
    if t.is_zero():
        return
    t2, s, n_cands = ranks._solve_mode_last(t)
    field, cands, slices = ranks._cover_problem(t2)
    for r in range(max(s, 1), r_max + 1):
        stats = {}
        witness = ranks._cover_search(field, cands, slices, r, stats)
        assert stats["nodes"] <= ranks._cover_nodes(n_cands, r - s)
        if witness is not None:
            assert r == exact_rank_bruteforce(t, r_max)
            check_witness(t2, witness, r)
            break
    else:
        assert exact_rank_bruteforce(t, r_max) is None


# --- binary-form ranks ------------------------------------------------------------

def waring_2node_oracle(coeffs):
    """Brute-force search for 2-term power sums with small rational nodes."""
    d = len(coeffs) - 1
    nodes = [(Fraction(1), Fraction(t)) for t in range(-4, 5)] + [(Fraction(0), Fraction(1))]
    for (a1, b1), (a2, b2) in itertools.combinations(nodes, 2):
        mat = Matrix.from_rows(
            [
                [
                    __import__("math").comb(d, k) * a1 ** (d - k) * b1**k,
                    __import__("math").comb(d, k) * a2 ** (d - k) * b2**k,
                ]
                for k in range(d + 1)
            ]
        )
        from tensorlab.linalg import solve_exact

        sol = solve_exact(mat, Matrix.from_rows([[Fraction(c)] for c in coeffs]))
        if sol is not None and mat.matmul(sol).entries == tuple(Fraction(c) for c in coeffs):
            return True
    return False


def test_catalecticant_shape_and_example():
    m = catalecticant([1, 0, 0, 1], 2)
    assert m.to_lists() == [[1, 0, 0], [0, 0, 1]]


def test_sylvester_pure_power():
    for d in (1, 2, 3, 5, 8):
        coeffs = [1] + [0] * d
        assert sylvester_symmetric_rank_binary(coeffs) == 1


def test_sylvester_sum_of_cubes():
    assert sylvester_symmetric_rank_binary([1, 0, 0, 1]) == 2
    assert waring_2node_oracle([1, 0, 0, 1])


def test_sylvester_degenerate_form_has_max_rank():
    # x^(d-1) y needs d powers of linear forms
    for d in (3, 4, 5):
        coeffs = [0, 1] + [0] * (d - 1)
        assert sylvester_symmetric_rank_binary(coeffs) == d


def test_sylvester_generic_rank():
    rng = random.Random(41)
    for d in (3, 5, 7):
        hits = 0
        for _ in range(20):
            coeffs = [rng.randint(-9, 9) for _ in range(d + 1)]
            if not any(coeffs):
                continue
            r = sylvester_symmetric_rank_binary(coeffs)
            assert r <= d
            if r == (d + 1) // 2:
                hits += 1
        assert hits >= 18  # generic rank ceil((d+1)/2) holds off a null set


def test_squarefree_test():
    assert is_squarefree_binary([0, 1, 0])  # uv
    assert not is_squarefree_binary([0, 0, 1])  # v^2
    assert not is_squarefree_binary([1, 0, 0])  # u^2
    assert is_squarefree_binary([1, 0, 1])  # u^2 + v^2
    assert is_squarefree_binary([2, 3])  # linear
    assert not is_squarefree_binary([1, 2, 1])  # (u+v)^2


def squarefree_by_euclid(g) -> bool:
    """is_squarefree_binary by Euclid's gcd of P(t) = g(1, t) and P'."""
    univ = [Fraction(c) for c in g]
    deg = ranks._poly_deg(univ)
    if deg < 0 or len(g) - 1 - deg > 1:
        return False
    return deg == 0 or poly_gcd_degree_euclid(univ[: deg + 1], [i * univ[i] for i in range(1, deg + 1)]) == 0


def _seeded_polynomial(rng: random.Random, kind: str, s: int) -> list:
    """Coefficients g_0..g_s: small integers, fractions, a product f * h^2,
    or a form with its last coefficients zero (roots at (0:1))."""
    if kind == "int":
        return [rng.randint(-3, 3) for _ in range(s + 1)]
    if kind == "fraction":
        return [Fraction(rng.randint(-20, 20), rng.randint(1, 9)) for _ in range(s + 1)]
    if kind == "zero-lead":
        k = rng.randint(1, s + 1)
        return [rng.randint(-3, 3) for _ in range(s + 1 - k)] + [0] * k
    if s < 2:
        return [rng.randint(-3, 3) for _ in range(s + 1)]
    e = rng.randint(1, s // 2)  # f * h^2 with deg h = e
    h = [rng.randint(-3, 3) for _ in range(e)] + [rng.choice((-2, -1, 1, 2))]
    f = [rng.randint(-3, 3) for _ in range(s - 2 * e + 1)]
    return _poly_mul(_poly_mul(h, h), f)


def _poly_mul(a: list, b: list) -> list:
    return [sum(a[j] * b[k - j] for j in range(len(a)) if 0 <= k - j < len(b)) for k in range(len(a) + len(b) - 1)]


def test_squarefree_matches_euclid_on_seeded_polynomials():
    rng = random.Random("squarefree:euclid")
    seen = {True: 0, False: 0}
    count = 0
    for s in range(13):
        for kind in ("int", "fraction", "zero-lead", "square"):
            for _ in range(20):
                g = _seeded_polynomial(rng, kind, s)
                expected = squarefree_by_euclid(g)
                assert is_squarefree_binary(g) == expected, g
                seen[expected] += 1
                count += 1
    assert count >= 1000 and min(seen.values()) >= 200


def test_squarefree_sylvester_rank_is_certified_beyond_int64(monkeypatch):
    # the first level-18 kernel form of the seeded degree-34 form has P of
    # degree 17 and 371-bit coefficients: its 33 x 33 Sylvester matrix
    # overflows int64, and its full rank mod p is certified without Bareiss
    rng = random.Random(34)
    coeffs = [rng.randint(-9, 9) for _ in range(35)]
    g = nullspace_exact(catalecticant(coeffs, 18))[0]
    assert ranks._poly_deg(g) == 17
    monkeypatch.setattr(linalg, "_bareiss", bareiss_below_certified_size)
    assert is_squarefree_binary(g) == squarefree_by_euclid(g) is True


def test_sylvester_rejects_zero_form():
    with pytest.raises(ValidationError):
        sylvester_symmetric_rank_binary([0, 0, 0])


def _seeded_binary_form(rng: random.Random, kind: str, d: int) -> list[int]:
    """A nonzero binary form of degree d, coeffs[k] on x^(d-k) y^k, of one kind:
    random coefficients, c l^d, l1^i l2^(d-i), or a sum of 1-3 terms c_j l_j^d,
    each l = a x + b y with small integers a, b."""

    def linear():
        a, b = 0, 0
        while a == b == 0:
            a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        return a, b

    def power(a, b, e):
        return [math.comb(e, k) * a ** (e - k) * b**k for k in range(e + 1)]

    while True:
        if kind == "random":
            coeffs = [rng.randint(-3, 3) for _ in range(d + 1)]
        elif kind == "power":
            c = rng.choice((-2, -1, 1, 3))
            coeffs = [c * x for x in power(*linear(), d)]
        elif kind == "product":
            i = rng.randint(1, max(d - 1, 1))
            f, g = power(*linear(), i), power(*linear(), d - i)
            coeffs = [sum(f[j] * g[k - j] for j in range(len(f)) if 0 <= k - j < len(g)) for k in range(d + 1)]
        else:
            coeffs = [0] * (d + 1)
            for _ in range(rng.randint(1, 3)):
                c = rng.choice((-3, -2, -1, 1, 2, 3))
                coeffs = [x + c * y for x, y in zip(coeffs, power(*linear(), d))]
        if any(coeffs):
            return coeffs


def test_sylvester_levels_match_the_ladder_on_seeded_forms():
    # the two Sylvester levels return the level and the form that searching
    # every level from 1 up finds first; the ladder is kept off products of
    # degree 7 or more, some of which take it 35 s at degree 7
    rng = random.Random("sylvester:ladder")
    kinds = ("random", "power", "product", "sums")
    cells = [(kind, d) for d in range(1, 8) for kind in kinds if (kind, d) != ("product", 7)]
    cells += [(kind, d) for d in range(8, 14) for kind in kinds if kind != "product"]
    checked = set()
    for kind, d in cells:
        for _ in range(16):
            coeffs = _seeded_binary_form(rng, kind, d)
            assert ranks.apolar_kernel_form(coeffs) == apolar_kernel_form_ladder(coeffs), coeffs
            checked.add(tuple(coeffs))
    assert len(checked) >= 600


def test_middle_catalecticant_rank_is_the_first_level_with_a_kernel():
    # the ladder of nullspaces that the one rank replaced, products included
    rng = random.Random("sylvester:middle")
    checked = set()
    for d in range(1, 14):
        for kind in ("random", "power", "product", "sums"):
            for _ in range(16):
                coeffs = _seeded_binary_form(rng, kind, d)
                first = next(s for s in range(1, d + 1) if nullspace_exact(catalecticant(coeffs, s)))
                assert rank_exact(catalecticant(coeffs, max(1, d // 2))) == first, coeffs
                checked.add(tuple(coeffs))
    assert len(checked) >= 700


def test_sylvester_searches_at_most_two_levels(monkeypatch):
    # the first level r with a kernel, then d - r + 2 only if g1 is not square-free
    levels = []
    search = ranks._squarefree_kernel_vector
    monkeypatch.setattr(ranks, "_squarefree_kernel_vector", lambda kernel, s: levels.append(s) or search(kernel, s))

    def searched(coeffs):
        levels.clear()
        s, _ = ranks.apolar_kernel_form(coeffs)
        assert s == levels[-1]
        return tuple(levels)

    for d in range(3, 13):  # x^(d-1) y: g1 = y^2 at level 2, then level d
        assert searched([0, 1] + [0] * (d - 1)) == (2, d)
    for d in range(1, 13):  # (x - 2y)^d: g1 is linear
        assert searched([math.comb(d, k) * (-2) ** k for k in range(d + 1)]) == (1,)
    assert searched([1, 0, 0, 1]) == (2,)  # x^3 + y^3: g1 = xy


def test_sylvester_level_without_a_kernel_is_a_bug(monkeypatch):
    # the middle catalecticant's rank is a level with a kernel, by the theorem
    monkeypatch.setattr(ranks, "nullspace_exact", lambda m: [])
    with pytest.raises(TensorlabError, match="this is a bug"):
        ranks.apolar_kernel_form([1, 0, 0, 1])


def test_cover_search_finds_a_witness_at_every_r_from_the_rank_up():
    # past the rank, the last level meets spaces already spanned by the
    # candidates inside them, and every larger r must still succeed
    rng = random.Random(21)
    for p in (2, 3, 5):
        for shape in ((2, 2, 2), (2, 3, 3), (2, 2, 2, 2)):
            summand = [[rng.randint(0, p - 1) or 1 for _ in range(d)] for d in shape]
            for t, rank in ((to_ring(rank_one(summand), fp(p)), 1), (to_ring(w_state(3), fp(p)), 3)):
                t2, s, _ = ranks._solve_mode_last(t)
                field, cands, slices = ranks._cover_problem(t2)
                for r in range(rank, field.n + 1):
                    witness = ranks._cover_search(field, cands, slices, r)
                    assert witness is not None, (p, shape, r)
                    check_witness(t2, witness, r)


def test_cover_search_completes_a_space_its_inside_candidates_span():
    # S = <e1> and the candidates e1, e2, e3 of F_2^3: at r = 3 the leaf
    # V' = <e1, e2> is spanned by the candidates inside it, so e3, alone
    # on its line, completes it
    field = ranks._PackedFp(2, 3)
    cands = np.array([1, 2, 4], dtype=np.int64)
    for r in (1, 2, 3):
        assert sorted(ranks._cover_search(field, cands, np.array([1]), r)) == list(range(r))


def test_cover_search_visits_one_node_per_line():
    # <2,2,2> over F_3 at r = 6 (slack 2) is refuted: the root, then one
    # child per line of F_3^16 / S that holds a candidate
    t2, s, _ = ranks._solve_mode_last(matmul_tensor(2, fp(3)))
    _, slice_basis, _, candidates = prefix_problem(t2)
    lines = {reduce_mod_p(w, slice_basis, 3) for w in candidates} - {None}
    field, cands, slices = ranks._cover_problem(t2)
    stats = {}
    assert ranks._cover_search(field, cands, slices, 6, stats) is None
    assert stats["nodes"] == 1 + len(lines) < 1 + len(candidates)
