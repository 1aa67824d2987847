"""Seeded inputs for the benchmark workloads.

`build(seed, directory)` writes every input file a pass needs (graphs,
signatures, subspaces, tensors, decompositions) and a `plan.json` that lists,
per case, the CLI invocations and the payload each one must produce.  The
seed only moves inputs through transformations whose effect on the answer is
known, so every expectation holds at every seed:

- the CLI `--seed` (Terracini point sampling);
- node relabelings of graphs;
- GL changes of basis for F_p subspaces, W states and decomposition factors;
- permuting a Kronecker triple and conjugating two of its partitions;
- fresh random skew matrices for the matchgate-identity cases.

The work a case does is kept independent of the seed wherever a search could
stop early: the min-rank subspace has no rank-1 element, the Kruskal subsets
are enumerated in a fixed column order, and the planar cube is relabeled only
by orderings that keep every edge's orientation, so its orientation search
visits the same candidates at every seed.

This module uses no tensorlab code: values it computes itself (sub-Pfaffian
vectors) are independent references for the checker.
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

# (workload, case, why): the order is the order a pass runs them in.
CASES = [
    ("terracini", "t.segre555",
     "exact Bareiss rank of big rational Terracini matrices dominates; generic rank 10"),
    ("terracini", "t.veronese54",
     "Alexander-Hirschowitz: quartics in 5 variables are defective by 1 at r=14, generic rank 15"),
    ("terracini", "t.sub444", "subspace variety: mode_apply tangent build, generic rank 4"),
    ("terracini", "t.symsub", "symmetric subspace variety: polynomial tangent build"),
    ("terracini", "t.segver", "Segre-Veronese P2xP2 in O(2,2): defective at r=7 and r=8"),
    ("terracini", "t.segre2222scan",
     "the one defective binary Segre cell (r=3); one record per cell through CLI persistence"),
    ("terracini", "t.segre9999r1",
     "one wide cell: mostly tangent build and Matrix.from_rows, bypasses the scan loop"),
    ("kron", "k.cone444-10", "cone table at the CLI maximum: per-call overhead of character sums"),
    ("kron", "k.cone333-10", "warm characters, so only the coefficient-loop overhead"),
    ("kron", "k.triples",
     "single triples at n=11..14, beyond the cone: a full character table costs more here"),
    ("kron", "k.rect", "rectangular Kronecker coefficients at d*n = 12 and 14"),
    ("kron", "k.weyl", "zero-weight Weyl invariants: plethysm by weight enumeration, no characters"),
    ("search", "s.orient-k6", "exhaustive orientation search, not found: 2^15 Pfaffians"),
    ("search", "s.orient-cube", "planar 3-cube: orientation found early, signs re-verified"),
    ("search", "s.orient-k33", "criterion 8: K3,3 has no Pfaffian orientation, 512 candidates"),
    ("search", "s.mgi10",
     "sub-Pfaffian vector of a seeded 10-node skew matrix, then its 523776 identities"),
    ("search", "s.mgi9-bad", "a 9-wire sub-Pfaffian vector with one entry perturbed violates them"),
    ("search", "s.minrank-f3", "6x6, dim-9 F_3 subspace: ~10k tiny F_p ranks, no early exit"),
    ("search", "s.bruteforce-w4", "W_4 in random F_3 bases: exhaustive rank search over F_3"),
    ("search", "s.kruskal666", "12 summands in (6,6,6): thousands of tiny rational subset ranks"),
    ("search", "s.gurvits8", "256x256 sparse rational ranks and Kronecker products"),
]

WORKLOADS = {
    "terracini": "exact rank of big rational Terracini matrices and the tangent build",
    "kron": "per-call overhead of character sums; no linalg at all, the rank-kernel control",
    "search": "exhaustive searches over small exact objects: many tiny ranks and Pfaffians",
}


def cases_of(workload: str) -> list[str]:
    return [name for w, name, _ in CASES if w == workload]


# ---------------------------------------------------------------------------
# base instances and their seed-independent answers
# ---------------------------------------------------------------------------

GENERIC_RANK = {
    # variety: (generic rank, computed affine dims r = 1..GR, defects r = 1..GR)
    "segre:5,5,5": (10, [min(13 * r, 125) for r in range(1, 11)], [0] * 10),
    "veronese:5,4": (15, [min(5 * r, 70) - (r == 14) for r in range(1, 16)],
                     [int(r == 14) for r in range(1, 16)]),
    "sub:4,4,4@2,2,2": (4, [20, 40, 60, 64], [0, 0, 0, 0]),
    "symsub:5@2,3": (4, [10, 20, 30, 35], [0, 0, 0, 0]),
    "segver:3,3@2,2": (9, [5, 10, 15, 20, 25, 30, 33, 35, 36], [0, 0, 0, 0, 0, 0, 2, 1, 0]),
}

CONE = {
    # bounds: (positive rows, sha256 of the sorted "lambda;mu;nu;K" lines)
    "4,4,4,10": (15440, "582c1e04045c7733cf35ad41d5310715b91567017c648b4c3f25ae8804a26119"),
    "3,3,3,10": (3794, "16c547a1ce36faa6448c8adff0cb3becd06546c231e9bc2a96f3f8ace76b0354"),
}

# (lambda, mu, nu, K): five triples each at n = 11, 12, 13, 14
TRIPLES = [
    ((3, 3, 3, 1, 1), (4, 2, 2, 1, 1, 1), (4, 4, 3), 11),
    ((5, 5, 1), (2, 2, 2, 2, 2, 1), (3, 2, 2, 2, 1, 1), 2),
    ((3, 3, 2, 1, 1, 1), (4, 4, 1, 1, 1), (6, 3, 2), 21),
    ((5, 2, 2, 1, 1), (3, 3, 3, 2), (6, 3, 2), 17),
    ((6, 2, 1, 1, 1), (3, 3, 2, 1, 1, 1), (6, 2, 2, 1), 24),
    ((5, 5, 2), (4, 4, 3, 1), (3, 3, 2, 2, 2), 10),
    ((6, 2, 2, 1, 1), (5, 2, 2, 1, 1, 1), (5, 4, 1, 1, 1), 92),
    ((4, 4, 2, 2), (6, 2, 1, 1, 1, 1), (4, 3, 2, 2, 1), 74),
    ((6, 3, 3), (6, 5, 1), (4, 3, 2, 2, 1), 17),
    ((4, 2, 2, 2, 2), (6, 4, 2), (4, 3, 2, 1, 1, 1), 60),
    ((6, 6, 1), (5, 4, 2, 1, 1), (5, 4, 4), 11),
    ((5, 4, 1, 1, 1, 1), (5, 3, 2, 2, 1), (5, 3, 3, 2), 364),
    ((6, 2, 2, 2, 1), (4, 2, 2, 2, 2, 1), (5, 3, 3, 2), 94),
    ((3, 3, 3, 2, 2), (5, 5, 3), (6, 4, 1, 1, 1), 17),
    ((3, 3, 3, 2, 1, 1), (6, 2, 2, 1, 1, 1), (6, 2, 2, 1, 1, 1), 99),
    ((6, 4, 2, 2), (6, 2, 2, 2, 2), (5, 4, 2, 1, 1, 1), 437),
    ((4, 4, 3, 3), (6, 3, 2, 1, 1, 1), (5, 3, 3, 2, 1), 556),
    ((5, 5, 1, 1, 1, 1), (6, 3, 2, 1, 1, 1), (6, 2, 2, 2, 1, 1), 266),
    ((6, 4, 2, 1, 1), (5, 5, 3, 1), (4, 3, 3, 2, 2), 552),
    ((5, 5, 4), (6, 3, 2, 2, 1), (6, 3, 2, 2, 1), 279),
]

# (lambda, d, n, K)
RECTANGULAR = [
    ((4, 4, 2, 2), 3, 4, 2),
    ((5, 3, 2, 1, 1), 4, 3, 4),
    ((4, 4, 3, 2, 1), 2, 7, 0),
    ((6, 4, 2, 2), 7, 2, 1),
]

WEYL = [((3, 3, 3, 3), 4, False), ((4, 4, 4), 3, True), ((6, 6), 2, True)]

ORIENTATION = {
    # graph: (nodes, edges, matchings, found, candidates_tried)
    "k6": (6, 15, 15, False, 2**15),
    "cube": (8, 12, 9, True, 79),
    "k33": (6, 9, 6, False, 512),
}

MIN_RANK_F3 = 4
W4_F3 = {"rank": 4, "multilinear_rank": [2, 2, 2, 2], "border_rank_lower_bound": 2}
KRUSKAL = {"k_ranks": [6, 6, 6], "r": 12, "unique": False}
GURVITS_N = 8


# ---------------------------------------------------------------------------
# small exact helpers, independent of tensorlab
# ---------------------------------------------------------------------------

def rank_mod_p(rows: list[list[int]], p: int) -> int:
    rows = [[x % p for x in r] for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        rows[rank] = [x * inv % p for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def random_gl_mod_p(rng: random.Random, n: int, p: int) -> list[list[int]]:
    while True:
        g = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        if rank_mod_p(g, p) == n:
            return g


def matmul(a, b, p=None):
    out = [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]
    return [[x % p for x in row] for row in out] if p else out


def random_unimodular(rng: random.Random, n: int) -> list[list[int]]:
    """Product of a unit lower and a unit upper triangular integer matrix."""
    low = [[1 if i == j else (rng.randint(-2, 2) if j < i else 0) for j in range(n)] for i in range(n)]
    up = [[1 if i == j else (rng.randint(-2, 2) if j > i else 0) for j in range(n)] for i in range(n)]
    return matmul(low, up)


def pfaffian_subsets(n: int, entry) -> dict:
    """Pfaffian of every principal submatrix, keyed by the kept index tuple.

    First-row expansion with subset memoization; entry(i, j) for i < j.
    """
    memo: dict = {(): 1}

    def pf(kept: tuple) -> int:
        hit = memo.get(kept)
        if hit is not None:
            return hit
        if len(kept) % 2:
            memo[kept] = 0
            return 0
        first, rest = kept[0], kept[1:]
        total = 0
        for t, j in enumerate(rest):
            w = entry(first, j)
            if w:
                term = w * pf(rest[:t] + rest[t + 1:])
                total += term if t % 2 == 0 else -term
        memo[kept] = total
        return total

    for mask in range(2**n):
        pf(tuple(i for i in range(n) if not mask >> i & 1))
    return memo


def sub_pfaffian_vector(n: int, weights: dict) -> list[int]:
    """Entry at mask J is the Pfaffian with the nodes in J deleted."""
    memo = pfaffian_subsets(n, lambda i, j: weights.get((i, j), 0))
    return [memo[tuple(i for i in range(n) if not mask >> i & 1)] for mask in range(2**n)]


def signed_pfaffian(nodes: int, edges: list[tuple[int, int, int]], signs: list[int]) -> int:
    weights = {(i, j): s * w for (i, j, w), s in zip(edges, signs)}
    return pfaffian_subsets(nodes, lambda i, j: weights.get((i, j), 0))[tuple(range(nodes))]


def conjugate(parts: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sum(1 for p in parts if p > i) for i in range(parts[0])) if parts else ()


def fmt_partition(parts: tuple[int, ...]) -> str:
    return ",".join(map(str, parts)) if parts else "-"


def fmt_rational(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def dumps_graph(nodes: int, edges: list[tuple[int, int, int]]) -> str:
    return "\n".join(["graph v1", str(nodes)] + [f"{i} {j} {w}" for i, j, w in edges]) + "\n"


# ---------------------------------------------------------------------------
# base graphs and their seeded relabelings
# ---------------------------------------------------------------------------

def base_graph(name: str) -> tuple[int, list[tuple[int, int, int]]]:
    if name == "k6":
        return 6, [(i, j, 1) for i in range(6) for j in range(i + 1, 6)]
    if name == "k33":
        return 6, [(i, 3 + j, 1) for i in range(3) for j in range(3)]
    # the 3-cube: nodes are bit vectors, edges join vectors one bit apart
    return 8, sorted((i, i ^ 1 << b, 1) for i in range(8) for b in range(3) if i < i ^ 1 << b)


def relabel_any(rng: random.Random, nodes: int, edges):
    """Random node permutation and edge order (for exhaustive searches)."""
    perm = list(range(nodes))
    rng.shuffle(perm)
    out = [(min(perm[i], perm[j]), max(perm[i], perm[j]), w) for i, j, w in edges]
    rng.shuffle(out)
    return out


def relabel_keeping_orientation(rng: random.Random, nodes: int, edges):
    """Random relabeling that keeps i < j on every edge, edges in base order.

    The labels are a random topological order of the graph oriented from
    low to high label, so the signed skew matrix of every sign vector is a
    permutation conjugate of the base one: |Pf| and hence the orientation
    search's candidate sequence are unchanged.
    """
    preds = {v: {i for i, j, _ in edges if j == v} for v in range(nodes)}
    order = []
    while len(order) < nodes:
        ready = sorted(v for v in range(nodes) if v not in order and preds[v] <= set(order))
        order.append(rng.choice(ready))
    label = {v: k for k, v in enumerate(order)}
    return [(label[i], label[j], w) for i, j, w in edges]


# ---------------------------------------------------------------------------
# the plan
# ---------------------------------------------------------------------------

def _terracini_steps(case: str) -> list[dict]:
    if case == "t.segre2222scan":
        return [{"argv": ["terracini", "--variety", "segre:2,2,2,2", "--scan"],
                 "expect": {"kind": "scan", "variety": "segre:2,2,2,2",
                            "computed": [5, 10, 14, 16], "defects": [0, 0, 1, 0]}}]
    if case == "t.segre9999r1":
        return [{"argv": ["terracini", "--variety", "segre:9,9,9,9", "--r", "1"],
                 "expect": {"kind": "scan", "variety": "segre:9,9,9,9",
                            "computed": [33], "defects": [0], "first_r": 1}}]
    variety = {
        "t.segre555": "segre:5,5,5",
        "t.veronese54": "veronese:5,4",
        "t.sub444": "sub:4,4,4@2,2,2",
        "t.symsub": "symsub:5@2,3",
        "t.segver": "segver:3,3@2,2",
    }[case]
    gr, computed, defects = GENERIC_RANK[variety]
    return [{"argv": ["terracini", "--variety", variety, "--generic-rank"],
             "expect": {"kind": "generic_rank", "variety": variety, "generic_rank": gr,
                        "computed": computed, "defects": defects}}]


def _kron_steps(case: str, rng: random.Random) -> list[dict]:
    if case.startswith("k.cone"):
        bounds = "4,4,4,10" if case == "k.cone444-10" else "3,3,3,10"
        rows, digest = CONE[bounds]
        return [{"argv": ["kron", "--cone", bounds],
                 "expect": {"kind": "cone", "rows": rows, "sha256": digest}}]
    if case == "k.triples":
        steps = []
        for lam, mu, nu, k in TRIPLES:
            triple = [lam, mu, nu]
            rng.shuffle(triple)
            keep = rng.choice([0, 1, 2, None])
            if keep is not None:
                triple = [p if i == keep else conjugate(p) for i, p in enumerate(triple)]
            text = ";".join(fmt_partition(p) for p in triple)
            steps.append({"argv": ["kron", "--triple", text],
                          "expect": {"kind": "triple", "partitions": text.split(";"), "K": k}})
        return steps
    if case == "k.rect":
        steps = []
        for lam, d, n, k in RECTANGULAR:
            if rng.random() < 0.5:
                d, n = n, d
            steps.append({"argv": ["kron", "--rectangular", fmt_partition(lam),
                                   "--d", str(d), "--n", str(n)],
                          "expect": {"kind": "rectangular", "K": k,
                                     "exceeds_length_bound": len(lam) > n * n}})
        return steps
    return [{"argv": ["kron", "--weyl", fmt_partition(lam), "--dim", str(dim)],
             "expect": {"kind": "weyl", "invariant_exists": exists}}
            for lam, dim, exists in WEYL]


def _write(directory: Path, name: str, text: str) -> str:
    (directory / name).write_text(text)
    return name


def _search_steps(case: str, rng: random.Random, directory: Path) -> list[dict]:
    if case.startswith("s.orient-"):
        graph = case.split("-", 1)[1]
        nodes, edges = base_graph(graph)
        if graph == "cube":
            edges = relabel_keeping_orientation(rng, nodes, edges)
        else:
            edges = relabel_any(rng, nodes, edges)
        _, n_edges, matchings, found, tried = ORIENTATION[graph]
        name = _write(directory, f"{graph}.graph", dumps_graph(nodes, edges))
        return [{"argv": ["matchgate", "--graph", "@" + name],
                 "expect": {"kind": "orientation", "nodes": nodes, "edges": n_edges,
                            "matchings": matchings, "found": found,
                            "candidates_tried": tried, "graph": edges}}]
    if case == "s.mgi10":
        n = 10
        weights = {(i, j): rng.choice([x for x in range(-9, 10) if x])
                   for i in range(n) for j in range(i + 1, n)}
        edges = [(i, j, w) for (i, j), w in sorted(weights.items())]
        gname = _write(directory, "mgi10.graph", dumps_graph(n, edges))
        vector = sub_pfaffian_vector(n, weights)
        sname = _write(directory, "mgi10.signature.json", json.dumps(vector))
        return [
            {"argv": ["matchgate", "--graph", "@" + gname, "--subpfaffian"],
             "expect": {"kind": "subpfaffian", "wires": n, "signature": [str(x) for x in vector]}},
            {"argv": ["matchgate", "--signature", "@" + sname],
             "expect": {"kind": "mgi", "relations": 2**n * (2**n - 1) // 2, "satisfied": True}},
        ]
    if case == "s.mgi9-bad":
        n = 9
        weights = {(i, j): rng.choice([x for x in range(-9, 10) if x])
                   for i in range(n) for j in range(i + 1, n)}
        vector = sub_pfaffian_vector(n, weights)
        nonzero = [i for i, x in enumerate(vector) if x]
        vector[rng.choice(nonzero)] += 1
        sname = _write(directory, "mgi9-bad.signature.json", json.dumps(vector))
        return [{"argv": ["matchgate", "--signature", "@" + sname],
                 "expect": {"kind": "mgi", "relations": 2**n * (2**n - 1) // 2, "satisfied": False}}]
    if case == "s.minrank-f3":
        p, size, dim = 3, 6, 9
        base = _base_minrank_basis()
        g = random_gl_mod_p(rng, dim, p)
        left, right = random_gl_mod_p(rng, size, p), random_gl_mod_p(rng, size, p)
        basis = []
        for row in g:
            mixed = [sum(c * b[k] for c, b in zip(row, base)) % p for k in range(size * size)]
            mat = [mixed[i * size:(i + 1) * size] for i in range(size)]
            mat = matmul(matmul(left, mat, p), right, p)
            basis.append([str(x) for r in mat for x in r])
        text = json.dumps({"rows": size, "cols": size, "ring": f"fp {p}", "basis": basis},
                          sort_keys=True)
        name = _write(directory, "minrank-f3.subspace.json", text)
        return [{"argv": ["minrank", "--subspace", "@" + name],
                 "expect": {"kind": "min_rank", "min_rank": MIN_RANK_F3, "dim": dim,
                            "field": f"fp {p}"}}]
    if case == "s.bruteforce-w4":
        p, order = 3, 4
        data = {idx: 0 for idx in itertools.product(range(2), repeat=order)}
        for k in range(order):
            data[tuple(int(i == k) for i in range(order))] = 1
        for mode in range(order):
            g = random_gl_mod_p(rng, 2, p)
            new = {}
            for idx in data:
                new[idx] = sum(g[idx[mode]][a] * data[idx[:mode] + (a,) + idx[mode + 1:]]
                               for a in range(2)) % p
            data = new
        body = " ".join(str(data[idx]) for idx in itertools.product(range(2), repeat=order))
        text = f"tensor v1\n{' '.join(['2'] * order)}\nfp {p}\n{body}\n"
        name = _write(directory, "w4-f3.tensor", text)
        return [{"argv": ["rank", "--tensor", "@" + name, "--bruteforce", "4"],
                 "expect": {"kind": "bruteforce", "tensor": text, "field": f"fp {p}", **W4_F3}}]
    if case == "s.kruskal666":
        summands = _base_kruskal_summands()
        maps = [random_unimodular(rng, 6) for _ in range(3)]
        out = []
        for summand in summands:
            factors = []
            for g, v in zip(maps, summand):
                scale = Fraction(rng.choice([-1, 1]) * rng.randint(1, 5), rng.randint(1, 5))
                factors.append([fmt_rational(scale * sum(a * b for a, b in zip(row, v)))
                                for row in g])
            out.append(factors)
        text = json.dumps({"shape": [6, 6, 6], "ring": "rational", "summands": out},
                          sort_keys=True)
        name = _write(directory, "kruskal666.decomposition.json", text)
        return [{"argv": ["decompose", "--decomposition", "@" + name, "--kruskal"],
                 "expect": {"kind": "kruskal", **KRUSKAL}}]
    n = GURVITS_N
    return [{"argv": ["minrank", "--gurvits", str(n)],
             "expect": {"kind": "gurvits", "n": n, "minrank_x": 2 * n,
                        "witness_rank_minus": 2 * n * n, "witness_rank_plus": 2 * n * n,
                        "decrement": 2 * n * n}}]


def _base_minrank_basis() -> list[list[int]]:
    """A fixed independent 9-dim subspace of 6x6 F_3 matrices (min rank 4)."""
    rng = random.Random("perfbench:minrank-f3")
    while True:
        basis = [[rng.randrange(3) for _ in range(36)] for _ in range(9)]
        if rank_mod_p(basis, 3) == 9:
            return basis


def _base_kruskal_summands() -> list[list[list[int]]]:
    rng = random.Random("perfbench:kruskal666")
    return [[[rng.randint(-9, 9) for _ in range(6)] for _ in range(3)] for _ in range(12)]


def build(seed: int, directory: Path) -> dict:
    """Write the inputs for `seed` into `directory`; return and store the plan.

    Input paths in argv are written as "@<file name>", relative to the
    directory.  The same seed writes byte-identical files.
    """
    directory.mkdir(parents=True, exist_ok=True)
    plan = {"seed": seed, "cases": {}}
    for workload, case, why in CASES:
        rng = random.Random(f"perfbench:{seed}:{case}")
        if workload == "terracini":
            steps = _terracini_steps(case)
        elif workload == "kron":
            steps = _kron_steps(case, rng)
        else:
            steps = _search_steps(case, rng, directory)
        plan["cases"][case] = {"workload": workload, "why": why, "steps": steps}
    (directory / "plan.json").write_text(json.dumps(plan, indent=1, sort_keys=True) + "\n")
    return plan
