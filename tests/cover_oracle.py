"""The F_p cover search the ranks module once shipped, kept as a test oracle:
tuple vectors reduced against dict echelon bases {pivot: row}, and a DFS that
picks candidates in index order while the slice span is not yet covered.

`oracle_levels(t, r_max)` runs the old `exact_rank_bruteforce` set-up without
its caps and returns everything the comparisons need: the braided tensor,
the prefix factors and flattened candidates, the slice basis, and the search
answer at each level r.
"""

import itertools

from tensorlab.linalg import rank_exact
from tensorlab.ranks import _normalized_vectors
from tensorlab.tensors import Bipartition, braid, flatten, rank_one


def reduce_mod_p(vec, basis, p):
    """Reduce vec against an echelon basis {pivot: row}; None if it vanishes."""
    v = list(vec)
    for piv in sorted(basis):
        c = v[piv] % p
        if c:
            row = basis[piv]
            for i in range(piv, len(v)):
                v[i] = (v[i] - c * row[i]) % p
    for x in v:
        if x % p:
            inv = pow(x, -1, p)
            return tuple((y * inv) % p for y in v)
    return None


def basis_insert(vec, basis, p):
    """Insert vec into the echelon basis; True iff it enlarged the span."""
    red = reduce_mod_p(vec, basis, p)
    if red is None:
        return False
    piv = next(i for i, x in enumerate(red) if x % p)
    basis[piv] = red
    return True


def cover_search(candidates, slice_basis, r, p):
    """DFS for r candidates whose span contains the slice span."""

    def dfs(start, depth, span, joint):
        deficiency = len(joint) - len(span)
        if deficiency == 0:
            return True
        if depth == r or deficiency > r - depth:
            return False
        for i in range(start, len(candidates)):
            w = candidates[i]
            span2 = dict(span)
            if not basis_insert(w, span2, p):
                continue
            joint2 = dict(joint)
            basis_insert(w, joint2, p)
            if dfs(i + 1, depth + 1, span2, joint2):
                return True
        return False

    return dfs(0, 0, {}, dict(slice_basis))


def prefix_problem(t):
    """The old set-up: solve mode last, slice basis, prefix factors, candidates."""
    p = t.ring.p
    mode_ranks = [
        rank_exact(flatten(t, Bipartition.of((i,), t.order))) for i in range(t.order)
    ]

    def prefix_count(mode):
        out = 1
        for j, d in enumerate(t.shape):
            if j != mode:
                out *= (p**d - 1) // (p - 1)
        return out

    solve_mode = max(range(t.order), key=lambda i: (mode_ranks[i], -prefix_count(i)))
    if solve_mode != t.order - 1:
        perm = [i for i in range(t.order) if i != solve_mode] + [solve_mode]
        t = braid(t, perm)
    m = flatten(t, Bipartition.of(tuple(range(t.order - 1)), t.order))
    slice_basis = {}
    for j in range(m.cols):
        basis_insert(tuple(m.entries[i * m.cols + j] % p for i in range(m.rows)), slice_basis, p)
    factors = list(itertools.product(*(_normalized_vectors(d, p) for d in t.shape[:-1])))
    candidates = []
    for vecs in factors:
        flat = rank_one(vecs, t.ring).data if len(vecs) > 1 else vecs[0]
        candidates.append(tuple(x % p for x in flat))
    return t, slice_basis, factors, candidates


def oracle_levels(t, r_max):
    """{r: whether some r candidates cover the slice span} for s <= r <= r_max."""
    t, slice_basis, factors, candidates = prefix_problem(t)
    p = t.ring.p
    s = len(slice_basis)
    inside = [w for w in candidates if reduce_mod_p(w, slice_basis, p) is None]
    levels = {}
    for r in range(max(s, 1), r_max + 1):
        pool = inside if r == s else candidates
        levels[r] = cover_search(pool, slice_basis, r, p)
    return levels


def oracle_rank(t, r_max):
    """The old exact_rank_bruteforce answer, without its caps."""
    if t.is_zero():
        return 0
    return next((r for r, hit in sorted(oracle_levels(t, r_max).items()) if hit), None)
