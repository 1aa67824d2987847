import itertools
import random
from fractions import Fraction

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
    with pytest.raises(CapExceeded):
        pfaffian_orientation_search(complete_graph(7))  # 21 edges


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
        assert pfaffian_orientation_search(g) == exhaustive_search(g), name


@pytest.mark.parametrize(
    "g, pfaffians",
    [(complete_bipartite(3, 3), 16), (complete_graph(6), 1024), (complete_bipartite(4, 4), 512)],
    ids=["K3,3", "K6", "K4,4"],
)
def test_coset_search_evaluates_one_pfaffian_per_coset(g, pfaffians, monkeypatch):
    # no hit, so every coset is tried: 2^(E - V + 1) for a connected graph
    calls = []
    monkeypatch.setattr(matchgate, "pfaffian", lambda a: calls.append(a) or pfaffian(a))
    res = pfaffian_orientation_search(g)
    assert not res.found and res.candidates_tried == 2 ** len(g.edges)
    assert len(calls) == pfaffians == 2 ** (len(g.edges) - g.nodes + 1)


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
