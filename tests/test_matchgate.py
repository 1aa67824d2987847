import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from tensorlab import matchgate, rings
from tensorlab.errors import CapExceeded, ValidationError
from tensorlab.linalg import Matrix, det_exact
from tensorlab.matchgate import (
    OrientationResult,
    SignatureVector,
    SkewMatrix,
    WeightedGraph,
    complete_bipartite,
    complete_graph,
    count_matchings,
    dumps_graph,
    loads_graph,
    mgi_residuals,
    pfaffian,
    pfaffian_orientation_search,
    sub_pfaffian_vector,
    transform_signature,
)
from tensorlab.rings import FLOAT, RATIONAL, fp


def random_skew(n, rng, lo=-9, hi=9):
    return SkewMatrix.from_upper(
        n, {(i, j): rng.randint(lo, hi) for i in range(n) for j in range(i + 1, n)}
    )


def pfaffian_matching_oracle(sk):
    """Signed sum over perfect matchings of the index set: the combinatorial
    definition of the Pfaffian."""
    n = sk.size
    if n % 2 == 1:
        return 0
    if n == 0:
        return 1

    def pairings(items):
        if not items:
            yield []
            return
        first = items[0]
        for k in range(1, len(items)):
            rest = items[1:k] + items[k + 1 :]
            for tail in pairings(rest):
                yield [(first, items[k])] + tail

    total = 0
    for pairing in pairings(list(range(n))):
        flat = [x for pair in pairing for x in pair]
        sign = 1
        for a, b in itertools.combinations(range(n), 2):
            if flat[a] > flat[b]:
                sign = -sign
        term = sign
        for i, j in pairing:
            term *= sk.entry(i, j)
        total += term
    return total


# --- Pfaffians -------------------------------------------------------------------

def test_pfaffian_sign_anchor():
    assert pfaffian(SkewMatrix.from_upper(2, {(0, 1): Fraction(7, 2)})) == Fraction(7, 2)


def test_pfaffian_odd_and_empty():
    assert pfaffian(SkewMatrix.from_upper(3, {(0, 1): 1, (1, 2): 1})) == 0
    assert pfaffian(SkewMatrix.from_upper(0, {})) == 1


def test_pfaffian_4x4_formula():
    rng = random.Random(1)
    for _ in range(10):
        sk = random_skew(4, rng)
        a = sk.entry
        expected = a(0, 1) * a(2, 3) - a(0, 2) * a(1, 3) + a(0, 3) * a(1, 2)
        assert pfaffian(sk) == expected == pfaffian_matching_oracle(sk)


def test_pfaffian_squared_is_determinant():
    rng = random.Random(2)
    for _ in range(60):
        n = rng.choice([2, 3, 4, 5, 6, 7, 8])
        sk = random_skew(n, rng)
        pf = pfaffian(sk)
        assert pf * pf == det_exact(Matrix.from_rows(sk.to_rows()))


def test_pfaffian_alternating_under_swaps():
    rng = random.Random(3)
    for _ in range(10):
        sk = random_skew(6, rng)
        i, j = sorted(rng.sample(range(6), 2))
        perm = list(range(6))
        perm[i], perm[j] = perm[j], perm[i]
        swapped = SkewMatrix.from_upper(
            6,
            {
                (a, b): sk.entry(perm[a], perm[b])
                for a in range(6)
                for b in range(a + 1, 6)
            },
        )
        assert pfaffian(swapped) == -pfaffian(sk)


# --- sub-Pfaffian vectors -----------------------------------------------------------

def test_sub_pfaffian_2x2_example():
    sk = SkewMatrix.from_upper(2, {(0, 1): 9})
    sv = sub_pfaffian_vector(sk)
    assert sv.entries == (9, 0, 0, 1)


def test_sub_pfaffian_zero_matrix():
    sv = sub_pfaffian_vector(SkewMatrix.from_upper(3, {}))
    # only the full deletion leaves the empty matrix with Pfaffian 1
    assert sv.entries[-1] == 1
    assert all(x == 0 for x in sv.entries[:-1])


def test_sub_pfaffian_matches_per_entry_calls():
    rng = random.Random(4)
    for _ in range(10):
        sk = random_skew(4, rng)
        sv = sub_pfaffian_vector(sk)
        for mask in range(16):
            deleted = {i for i in range(4) if mask >> i & 1}
            kept = {(i, j): sk.entry(i, j) for i in range(4) for j in range(i + 1, 4)
                    if i not in deleted and j not in deleted}
            remap = sorted(set(range(4)) - deleted)
            single = SkewMatrix.from_upper(
                len(remap),
                {(remap.index(i), remap.index(j)): w for (i, j), w in kept.items()},
            )
            assert sv[mask] == pfaffian(single)


def test_sub_pfaffian_odd_cosize_entries_vanish():
    rng = random.Random(5)
    sk = random_skew(5, rng)
    sv = sub_pfaffian_vector(sk)
    for mask in range(32):
        if (5 - bin(mask).count("1")) % 2 == 1:
            assert sv[mask] == 0


def test_sub_pfaffian_partial_universe():
    rng = random.Random(6)
    sk = random_skew(4, rng)
    sv = sub_pfaffian_vector(sk, universe=[1, 3])
    assert sv.wires == 2
    assert sv[0] == pfaffian(sk)


# --- matchings and orientations ------------------------------------------------------

def test_count_matchings_examples():
    assert count_matchings(complete_graph(4)) == 3
    assert count_matchings(WeightedGraph.build(2, [(0, 1, 5)])) == 5
    assert count_matchings(complete_graph(5)) == 0  # odd node count
    assert count_matchings(complete_bipartite(3, 3)) == 6


def test_count_matchings_weighted():
    g = WeightedGraph.build(4, [(0, 1, 2), (2, 3, 3), (0, 2, 1), (1, 3, 7)])
    # matchings: {01, 23} weight 6 and {02, 13} weight 7
    assert count_matchings(g) == 13


def matchings_unmemoized(g):
    """The plain recursion over every perfect matching, with no memo."""
    zero, one = (0.0, 1.0) if g.ring == FLOAT else (0, 1)

    def recurse(unmatched):
        if not unmatched:
            return one
        lowest = min(unmatched)
        total = zero
        for i, j, w in g.edges:
            other = j if i == lowest else i if j == lowest else None
            if other in unmatched:
                total = total + w * recurse(unmatched - {lowest, other})
        return total % g.ring.p if g.ring.kind == "fp" else total

    return recurse(frozenset(range(g.nodes)))


CUBE = WeightedGraph.build(
    8, [(v, v | 1 << b, 1) for v in range(8) for b in range(3) if not v >> b & 1]
)


@pytest.mark.parametrize("ring", [RATIONAL, fp(3), FLOAT], ids=str)
@pytest.mark.parametrize(
    "shape",
    [complete_graph(4), complete_bipartite(3, 3), CUBE, complete_graph(8)],
    ids=["K4", "K3,3", "cube", "K8"],
)
def test_memoized_count_matches_unmemoized_recursion(shape, ring):
    rng = random.Random(f"{len(shape.edges)} {ring}")

    def weight():
        if ring == FLOAT:
            return rng.uniform(-2, 2)
        if ring == RATIONAL:
            return Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        return rng.randrange(3)

    g = WeightedGraph.build(shape.nodes, [(i, j, weight()) for i, j, _ in shape.edges], ring)
    assert count_matchings(g) == matchings_unmemoized(g)
    unit = WeightedGraph.build(shape.nodes, shape.edges, ring)
    assert count_matchings(unit) == matchings_unmemoized(unit)


def test_orientation_search_k4():
    res = pfaffian_orientation_search(complete_graph(4))
    assert res.found
    assert res.matchings == 3  # the count the search compared against
    oriented = complete_graph(4).skew_matrix(res.signs)
    assert abs(pfaffian(oriented)) == 3


def test_orientation_search_k33_fails_after_512():
    res = pfaffian_orientation_search(complete_bipartite(3, 3))
    assert not res.found
    assert res.candidates_tried == 512
    assert res.matchings == 6


def test_orientation_search_single_edge():
    res = pfaffian_orientation_search(WeightedGraph.build(2, [(0, 1, 1)]))
    assert res.found and res.signs == (1,)


def test_orientation_search_cap():
    # K8: 2^21 cosets x 105 matchings; K7 (21 edges) has no perfect matching,
    # so it costs one term per coset, and its first code hits
    with pytest.raises(CapExceeded, match=r"220200960 Pfaffian terms .* over the cap of 100000000"):
        pfaffian_orientation_search(complete_graph(8))
    assert pfaffian_orientation_search(complete_graph(7)) == OrientationResult((1,) * 21, 1, 0)


def signed_matchings(g):
    """(edge code, term) per perfect matching of g: the term is the
    matching's signed weight in the Pfaffian of the all-plus skew matrix, by
    the combinatorial definition, and the code has bit E-1-b for each
    matched edge b, as in a sign code."""
    n_edges = len(g.edges)
    out = []

    def extend(unmatched, chosen):
        if not unmatched:
            flat = [v for b in chosen for v in g.edges[b][:2]]
            term = (-1) ** sum(flat[a] > flat[c] for a, c in itertools.combinations(range(len(flat)), 2))
            for b in chosen:
                term *= g.edges[b][2]
            out.append((sum(1 << (n_edges - 1 - b) for b in chosen), term))
            return
        lowest = min(unmatched)
        for b, (i, j, _) in enumerate(g.edges):
            if i == lowest and j in unmatched:
                extend(unmatched - {i, j}, chosen + [b])

    extend(frozenset(range(g.nodes)), [])
    return out


def matching_pfaffian(terms, code, ring):
    """Pfaffian under sign code `code` from `signed_matchings` terms: each
    term is negated once per minus-signed edge in its matching."""
    return rings.reduce(sum(-t if bin(code & m).count("1") % 2 else t for m, t in terms), ring)


def exhaustive_search(g):
    """The full 2^E scan: every sign code in increasing order, first hit
    wins.  Pfaffians come from `matching_pfaffian`, so the reference shares
    no code with `pfaffian` and a 65536-candidate K4,4 scan stays fast."""
    n_edges = len(g.edges)
    terms = signed_matchings(g)
    target = count_matchings(g)
    neg_target = rings.reduce(-target, g.ring)
    for code in range(2**n_edges):
        signs = tuple(1 if not (code >> (n_edges - 1 - b)) & 1 else -1 for b in range(n_edges))
        pf = matching_pfaffian(terms, code, g.ring)
        if pf == target or pf == neg_target:
            return OrientationResult(signs, code + 1, target)
    return OrientationResult(None, 2**n_edges, target)


def relabel_keeping_orientation(g, rng):
    """A random topological order of g oriented from low to high label, as
    new labels: every edge keeps i < j and its place in the edge list."""
    order = []
    while len(order) < g.nodes:
        ready = [v for v in range(g.nodes) if v not in order
                 and all(i in order for i, j, _ in g.edges if j == v)]
        order.append(rng.choice(ready))
    label = {v: k for k, v in enumerate(order)}
    return WeightedGraph.build(g.nodes, [(label[i], label[j], w) for i, j, w in g.edges])


def random_graph(rng):
    """4, 6 or 8 nodes, a perfect matching plus random edges, at most 14
    edges in random order, nonzero rational weights of either sign."""
    nodes = rng.choice([4, 6, 8])
    perm = rng.sample(range(nodes), nodes)
    matching = {tuple(sorted(perm[k : k + 2])) for k in range(0, nodes, 2)}
    others = [(i, j) for i in range(nodes) for j in range(i + 1, nodes) if (i, j) not in matching]
    extra = rng.sample(others, min(len(others), rng.randint(nodes // 2, 14 - nodes // 2)))
    pairs = sorted(matching | set(extra))
    rng.shuffle(pairs)
    return WeightedGraph.build(
        nodes, [(i, j, Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4))) for i, j in pairs]
    )


def per_coset_search(g):
    """The per-coset loop the block search replaced: one SkewMatrix and one
    first-row Pfaffian per coset minimum, in increasing code order."""
    n_edges = len(g.edges)
    target = count_matchings(g)
    neg_target = rings.reduce(-target, g.ring)
    free = (1 << n_edges) - 1 - matchgate._cut_pivots(g)
    code = 0
    while True:
        signs = tuple(1 if not (code >> (n_edges - 1 - b)) & 1 else -1 for b in range(n_edges))
        pf = pfaffian(g.skew_matrix(signs))
        if pf == target or pf == neg_target:
            return OrientationResult(signs, code + 1, target)
        code = (code - free) & free  # the next larger code that is zero at every pivot
        if not code:
            return OrientationResult(None, 2**n_edges, target)


GRID = WeightedGraph.build(  # the 4 x 4 grid: 24 edges, 2^9 cosets, 36 matchings
    16, [(v, v + d, 1) for v in range(16) for d in (1, 4) if v + d < 16 and (d == 4 or v % 4 < 3)]
)


def test_coset_search_matches_the_per_coset_loop_on_the_grid():
    # a 2^24 scan is out of reach; the per-coset loop was checked against it
    rng = random.Random(16)
    weighted = WeightedGraph.build(16, [(i, j, Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 3)))
                                        for i, j, _ in GRID.edges])
    over_f5 = WeightedGraph.build(16, [(i, j, rng.randrange(1, 5)) for i, j, _ in GRID.edges], fp(5))
    for g in (GRID, weighted, over_f5):
        res = pfaffian_orientation_search(g)
        assert res == per_coset_search(g)
        assert res.found
    assert pfaffian_orientation_search(GRID).candidates_tried == 86024


def test_coset_search_matches_exhaustive_search():
    rng = random.Random(2008)
    k4 = complete_graph(4)
    k33 = complete_bipartite(3, 3)
    graphs = {
        "K4": k4, "K3,3": k33, "K6": complete_graph(6), "K4,4": complete_bipartite(4, 4),
        "cube": CUBE,
        "K5 (odd)": complete_graph(5),
        "K4 and an isolated vertex": WeightedGraph.build(5, k4.edges),
        "K4 beside K3,3": WeightedGraph.build(
            10, list(k4.edges) + [(4 + i, 4 + j, w) for i, j, w in k33.edges]),
        "cube over F_3": WeightedGraph.build(
            8, [(i, j, rng.choice([1, 2])) for i, j, _ in CUBE.edges], fp(3)),
    }
    for k in range(3):
        graphs[f"cube relabeled {k}"] = relabel_keeping_orientation(CUBE, rng)
    for k in range(30):
        graphs[f"random {k}"] = random_graph(rng)
    for name, g in graphs.items():
        terms = signed_matchings(g)
        for code in (0, rng.randrange(2 ** len(g.edges))):  # the reference's Pfaffian
            signs = [-1 if code >> (len(g.edges) - 1 - b) & 1 else 1 for b in range(len(g.edges))]
            assert pfaffian(g.skew_matrix(signs)) == matching_pfaffian(terms, code, g.ring), name
        expected = exhaustive_search(g)
        assert pfaffian_orientation_search(g) == expected == per_coset_search(g), name


def test_signed_matchings_are_the_pfaffian_terms():
    rng = random.Random(2009)
    for g in [complete_graph(4), complete_bipartite(3, 3), complete_graph(6), CUBE, complete_graph(5)] + [
        random_graph(rng) for _ in range(10)
    ]:
        masks, weights = matchgate._signed_matchings(g)
        assert sorted(zip(masks.tolist(), weights.tolist())) == sorted(signed_matchings(g))


def test_block_pfaffians_fold_every_code_bit():
    # K10 less five edges: 40 edges, so sign codes reach past bit 32
    rng = random.Random(40)
    dropped = {(0, 1), (2, 5), (3, 9), (4, 7), (6, 8)}
    g = WeightedGraph.build(10, [(i, j, rng.randint(1, 5)) for i, j, _ in complete_graph(10).edges
                                 if (i, j) not in dropped])
    masks, weights = matchgate._signed_matchings(g)
    codes = [(1 << 40) - 1, 1 << 39, 1 << 32 | 1] + [rng.getrandbits(40) for _ in range(5)]
    pfs = matchgate._block_pfaffians(np.array(codes, dtype=np.int64), masks, weights, RATIONAL)
    for code, pf in zip(codes, pfs.tolist()):
        signs = [-1 if code >> (39 - b) & 1 else 1 for b in range(40)]
        assert pf == pfaffian(g.skew_matrix(signs))


@pytest.mark.parametrize(
    "g, pfaffians",
    [(complete_bipartite(3, 3), 16), (complete_graph(6), 1024), (complete_bipartite(4, 4), 512)],
    ids=["K3,3", "K6", "K4,4"],
)
def test_coset_search_evaluates_one_pfaffian_per_coset(g, pfaffians, monkeypatch):
    # no hit, so every coset is tried: 2^(E - V + 1) for a connected graph
    codes = []
    block = matchgate._block_pfaffians
    monkeypatch.setattr(matchgate, "_block_pfaffians", lambda c, *rest: codes.extend(c.tolist()) or block(c, *rest))
    res = pfaffian_orientation_search(g)
    assert not res.found and res.candidates_tried == 2 ** len(g.edges)
    assert len(codes) == len(set(codes)) == pfaffians == 2 ** (len(g.edges) - g.nodes + 1)
    assert codes == sorted(codes)


@pytest.mark.parametrize("entries", [1, 7, 100, 1 << 14])
def test_coset_search_blocks_keep_the_answer(entries, monkeypatch):
    # blocks of one code up to every code at once give the same first hit
    monkeypatch.setattr(matchgate, "BLOCK_ENTRIES", entries)
    for g in (complete_bipartite(3, 3), CUBE, GRID):
        assert pfaffian_orientation_search(g) == per_coset_search(g)


def test_found_early_search_evaluates_one_block(monkeypatch):
    blocks = []
    block = matchgate._block_pfaffians
    monkeypatch.setattr(matchgate, "_block_pfaffians", lambda c, *rest: blocks.append(len(c)) or block(c, *rest))
    res = pfaffian_orientation_search(CUBE)  # 2^5 cosets x 9 matchings, found at code 78
    assert res.found and res.candidates_tried == 79
    assert blocks == [32]


# --- matchgate identities --------------------------------------------------------------

def test_mgi_vanishes_on_all_sub_pfaffian_vectors():
    # the operational validation of the relation family: 500 random skew
    # matrices of sizes 2 through 8, every residual exactly zero
    rng = random.Random(7)
    sizes = [2, 3, 4, 5, 6, 7, 8]
    checked = 0
    for trial in range(500):
        n = sizes[trial % len(sizes)]
        sv = sub_pfaffian_vector(random_skew(n, rng, -5, 5))
        res = mgi_residuals(sv)
        assert all(x == 0 for x in res)
        checked += 1
    assert checked == 500


def test_mgi_nonzero_on_random_non_pfaffian_vectors():
    rng = random.Random(8)
    hits = 0
    for _ in range(20):
        entries = tuple(rng.randint(-5, 5) for _ in range(16))
        if not any(entries):
            continue
        res = mgi_residuals(SignatureVector(4, entries))
        if any(x != 0 for x in res):
            hits += 1
    assert hits >= 19  # random vectors are essentially never sub-Pfaffian


def test_mgi_nae_signature_fails():
    nae = SignatureVector(3, (0, 1, 1, 1, 1, 1, 1, 0))
    res = mgi_residuals(nae)
    assert any(x != 0 for x in res)


def test_mgi_binary_equality_signature_passes():
    eq = SignatureVector(2, (0, 1, 1, 0))
    res = mgi_residuals(eq)
    assert all(x == 0 for x in res)
    # it is standard: realized by a 3-node path with unit weights
    path = SkewMatrix.from_upper(3, {(0, 2): 1, (1, 2): 1})
    sv = sub_pfaffian_vector(path, universe=[0, 1])
    assert sv.entries == (0, 1, 1, 0)


def mgi_residuals_loop(s):
    """The scalar loop over (alpha, beta) pairs that mgi_residuals replaced."""
    n = 2**s.wires
    out = []
    for alpha in range(n):
        for beta in range(alpha + 1, n):
            total = rings.zero(s.ring)
            sign = 1
            pos = 0
            d = alpha ^ beta
            while d:
                if d & 1:
                    bit = 1 << pos
                    term = s[alpha ^ bit] * s[beta ^ bit]
                    total = total + term if sign > 0 else total - term
                    sign = -sign
                d >>= 1
                pos += 1
            out.append(rings.reduce(total, s.ring))
    return out


def typed(values):
    return [(type(x), repr(x)) for x in values]


def mgi_cases():
    """(name, signature, the dtype mgi_residuals must return)."""
    rng = random.Random("mgi:differential")
    edge = math.isqrt((2**63 - 1) // 4)  # the largest entry of the 4-wire int64 path
    yield "q-pfaffian", sub_pfaffian_vector(random_skew(6, rng, -5, 5)), np.int64
    yield "q-random", SignatureVector(5, tuple(rng.randint(-9, 9) for _ in range(32))), np.int64
    yield "q-int64-edge", SignatureVector(4, tuple(rng.choice((edge, -edge, 1)) for _ in range(16))), np.int64
    edge8 = math.isqrt((2**63 - 1) // 8)  # and of the 8-wire path
    yield "q-int64-edge-8", SignatureVector(8, tuple(rng.choice((edge8, -edge8, 1)) for _ in range(256))), np.int64
    yield "q-past-int64-8", SignatureVector(8, tuple(rng.choice((edge8 + 1, -1)) for _ in range(256))), object
    # 4 (2^31 + 1)^2 > 2^63: same-sign terms of these entries overflow int64
    past = 2**31 + 1
    yield "q-past-int64", SignatureVector(4, tuple(rng.choice((past, -past, 3)) for _ in range(16))), object
    yield "q-huge", SignatureVector(4, tuple(rng.randint(-(2**70), 2**70) for _ in range(16))), object
    frac_skew = SkewMatrix.from_upper(
        5, {(i, j): Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for i in range(5) for j in range(i + 1, 5)}
    )
    yield "q-fraction-pfaffian", sub_pfaffian_vector(frac_skew), object
    yield "q-fraction-mixed", SignatureVector(
        4, tuple(rng.choice((Fraction(rng.randint(-4, 4), 3), rng.randint(-4, 4))) for _ in range(16))
    ), object
    for p in (2, 7, 65521):
        yield f"fp{p}", SignatureVector(5, tuple(rng.randrange(p) for _ in range(32)), fp(p)), np.int64
    # the float ring's zero is 0.0, so even int entries give float residuals
    floats = (0.0, -0.0, 0.5, -1.25, 1e300, 2, 3)
    yield "float", SignatureVector(5, tuple(rng.choice(floats) for _ in range(32)), FLOAT), object
    for wires in range(6, 9):
        yield f"q-pfaffian-{wires}", sub_pfaffian_vector(random_skew(wires, rng, -5, 5)), np.int64
    yield "q-fraction-7", SignatureVector(
        7, tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(128))
    ), object
    yield "float-6", SignatureVector(6, tuple(rng.choice(floats) for _ in range(64)), FLOAT), object


MGI_CASES = [pytest.param(sv, dtype, id=name) for name, sv, dtype in mgi_cases()]


@pytest.mark.filterwarnings("error")  # float overflow to inf is silent in the loop too
@pytest.mark.parametrize("sv, dtype", MGI_CASES)
def test_mgi_residuals_match_the_scalar_loop_value_and_type(sv, dtype):
    residuals = mgi_residuals(sv)
    assert residuals.dtype == dtype
    assert typed(residuals.tolist()) == typed(mgi_residuals_loop(sv))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("entries", [5, 64])
@pytest.mark.parametrize("sv, dtype", MGI_CASES)
def test_mgi_residuals_in_small_blocks_match_the_scalar_loop(sv, dtype, entries, monkeypatch):
    # a block holds max(1, entries // 2^(w-1)) difference patterns: at 5 entries
    # one pattern per block, at 64 entries 8 patterns for w = 4, 2 for w = 6,
    # and one for w = 8, so every top bit from 3 up spans several blocks
    monkeypatch.setattr(matchgate, "BLOCK_ENTRIES", entries)
    residuals = mgi_residuals(sv)
    assert residuals.dtype == dtype
    assert typed(residuals.tolist()) == typed(mgi_residuals_loop(sv))


def test_mgi_wire_cap():
    with pytest.raises(CapExceeded):
        mgi_residuals(SignatureVector(11, (0,) * 2**11))


# --- signature transforms ----------------------------------------------------------------

def test_transform_identity():
    s = SignatureVector(2, (3, 1, 4, 1))
    out = transform_signature(s, [[1, 0], [0, 1]], "generator")
    assert out.entries == s.entries


def test_transform_single_wire():
    s = SignatureVector(1, (1, 0))
    out = transform_signature(s, [[3, 4], [5, 6]], "recognizer")
    assert out.entries == (3, 4)  # first row of the basis matrix
    s2 = SignatureVector(1, (0, 1))
    assert transform_signature(s2, [[3, 4], [5, 6]], "recognizer").entries == (5, 6)


def test_transform_equality_under_hadamard():
    eq = SignatureVector(2, (1, 0, 0, 1))
    out = transform_signature(eq, [[1, 1], [1, -1]], "recognizer")
    # direct 4x4 tensor-square multiplication oracle
    b = [[1, 1], [1, -1]]
    expected = []
    for j2 in range(2):
        for j1 in range(2):
            total = 0
            for mask in range(4):
                total += eq[mask] * b[mask & 1][j1] * b[(mask >> 1) & 1][j2]
            expected.append(total)
    assert list(out.entries) == expected == [2, 0, 0, 2]


def test_transform_invertible_round_trip():
    rng = random.Random(9)
    s = SignatureVector(2, tuple(rng.randint(-5, 5) for _ in range(4)))
    b = [[1, 2], [3, 4]]
    binv = [[Fraction(-2), Fraction(1)], [Fraction(3, 2), Fraction(-1, 2)]]
    fwd = transform_signature(s, b, "recognizer")
    back = transform_signature(SignatureVector(2, fwd.entries), binv, "recognizer")
    assert [Fraction(x) for x in back.entries] == [Fraction(x) for x in s.entries]


def test_transform_to_three_wire_values():
    s = SignatureVector(2, (1, 2, 3, 4))
    out = transform_signature(s, [[1, 0, 1], [0, 1, 1]], "generator")
    assert out.arity == 3 and len(out.entries) == 9


def test_transform_validation():
    s = SignatureVector(1, (1, 0))
    with pytest.raises(ValidationError):
        transform_signature(s, [[1, 0], [0, 1]], "verifier")
    with pytest.raises(ValidationError):
        transform_signature(s, [[1, 0]], "generator")


# --- serialization -------------------------------------------------------------------------

def test_graph_format_round_trip():
    g = WeightedGraph.build(4, [(0, 1, Fraction(1, 2)), (1, 2, 3), (0, 3, -2)])
    text = dumps_graph(g)
    assert dumps_graph(loads_graph(text)) == text


def test_graph_format_rejects_garbage():
    with pytest.raises(ValidationError):
        loads_graph("graph v2\n3\n0 1 1\n")
    with pytest.raises(ValidationError):
        loads_graph("graph v1\n3\n0 1\n")


def test_graph_validation():
    with pytest.raises(ValidationError):
        WeightedGraph.build(3, [(0, 0, 1)])
    with pytest.raises(ValidationError):
        WeightedGraph.build(3, [(0, 1, 1), (1, 0, 2)])


def test_signature_json_round_trip():
    sv = SignatureVector(2, (Fraction(1, 3), 0, 2, 1))
    back = SignatureVector.from_json(sv.to_json())
    assert back.entries == sv.entries
    tri = SignatureVector(1, (1, 2, 3), RATIONAL, 3)
    back = SignatureVector.from_json(tri.to_json())
    assert back.arity == 3 and back.entries == (1, 2, 3)
