"""Differential tests: ranks modulo a prime, of a stack or a growing echelon
form, against the exact kernels (Bareiss over Q, F_p elimination)."""

import random

import numpy as np
import pytest

from helpers import EchelonModPFullBasis, _fp_eliminate, ranks_mod_p_in_narrow_ints
from tangent_oracle import exact_tangent_rows
from tensorlab import cli, linalg, rings, secants
from tensorlab.errors import ValidationError
from tensorlab.linalg import (
    FLOAT_PRIME,
    FLOAT_PRIME_CAP,
    WORD_PRIME,
    EchelonModP,
    Matrix,
    _bareiss,
    rank_exact,
    ranks_mod_p,
)
from tensorlab.rings import fp
from tensorlab.secants import (
    _Trial,
    _trial_rng,
    affine_tangent_basis,
    parse_variety,
    sample_params,
    secant_dimension,
    veronese,
)


def bareiss(rows):
    """Rank over Q by Bareiss elimination alone, not by rank_exact's mod-p path."""
    return len(_bareiss([[int(x) for x in row] for row in rows])[0])


def fp_rank(rows, p):
    """Rank over F_p by Python-int Gauss-Jordan elimination."""
    return len(_fp_eliminate([[int(x) for x in row] for row in rows], p)[0])


def echelon_rank(rows, p):
    """Rank over F_p of integer rows put into one EchelonModP at once."""
    return EchelonModP(len(rows[0]) if len(rows) else 0, p).extend(rows)


def terracini_rows(spec, r, seed, trial):
    """One trial's first r points: their exact tangent rows (the oracle's)
    and the residues affine_tangent_basis builds, in the trial's row order."""
    rng = _trial_rng(spec, seed, trial)
    exact, residues = [], []
    for _ in range(r):
        params = sample_params(spec, rng)
        exact.extend(exact_tangent_rows(spec, params))
        residues.extend(affine_tangent_basis(spec, params).tolist())
    assert residues == [[x % WORD_PRIME for x in row] for row in exact]
    return exact, residues


def random_rows(rng, m, n, lo=-10, hi=10):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)]


@pytest.mark.parametrize("shape", [(12, 5), (5, 12), (9, 9), (1, 7), (7, 1)], ids=str)
def test_random_matrices_agree(shape):
    rng = random.Random(f"rank_mod_p:{shape}")
    for _ in range(5):
        rows = random_rows(rng, *shape)
        assert echelon_rank(rows, WORD_PRIME) == fp_rank(rows, WORD_PRIME) == bareiss(rows)


def test_empty_and_zero_matrices():
    assert echelon_rank([], WORD_PRIME) == fp_rank([], WORD_PRIME) == 0
    assert echelon_rank([[], []], WORD_PRIME) == fp_rank([[], []], WORD_PRIME) == 0
    assert echelon_rank([[0] * 6 for _ in range(4)], WORD_PRIME) == 0
    assert bareiss([[0] * 6 for _ in range(4)]) == 0


def test_rank_deficient_products_agree():
    rng = random.Random("rank_mod_p:products")
    for m, k, n in [(10, 3, 8), (6, 6, 9), (15, 7, 12), (8, 1, 8), (12, 11, 12)]:
        a = random_rows(rng, m, k)
        b = random_rows(rng, k, n)
        prod = [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(n)] for i in range(m)]
        assert echelon_rank(prod, WORD_PRIME) == fp_rank(prod, WORD_PRIME) == bareiss(prod) <= k


def test_negative_and_huge_entries_agree():
    rng = random.Random("rank_mod_p:huge")
    big = 2**63
    for _ in range(5):
        rows = random_rows(rng, 7, 6, -(2**70), 2**70)
        rows[0][0] = big  # one entry above int64 forces the Python-int reduction
        rows[1][1] = -big - 5
        assert echelon_rank(rows, WORD_PRIME) == fp_rank(rows, WORD_PRIME) == bareiss(rows)
    # rows that are multiples of each other by huge and negative factors
    base = random_rows(rng, 1, 5)[0]
    rows = [base, [-(big + 3) * x for x in base], [(2**100) * x for x in base]]
    assert echelon_rank(rows, WORD_PRIME) == fp_rank(rows, WORD_PRIME) == bareiss(rows) == 1


def test_rank_mod_p_sees_what_p_divides():
    # rank over Q is 2, but the second row vanishes mod p: a lower bound only
    rows = [[1, 0], [0, WORD_PRIME]]
    assert bareiss(rows) == 2
    assert echelon_rank(rows, WORD_PRIME) == fp_rank(rows, WORD_PRIME) == 1


def test_small_prime_matches_fp_ring():
    rng = random.Random("rank_mod_p:fp")
    for p in (2, 3, 7, 65521):
        for _ in range(4):
            rows = random_rows(rng, 6, 8, 0, p - 1)
            assert echelon_rank(rows, p) == rank_exact(Matrix.from_rows(rows, fp(p)))


# every small shipped cell, one trial each: the matrix secant_dimension ranks
TERRACINI_CELLS = [
    ("segre:2,2,2,2", 3),
    ("segre:3,3,3", 4),
    ("veronese:3,4", 5),
    ("segver:3,3@2,2", 7),
    ("segver:3,3@2,2", 8),
    ("sub:4,4,4@2,2,2", 2),
    ("sub:4,4,4@2,2,2", 4),
    ("symsub:5@2,3", 3),
    ("symsub:5@2,3", 4),
]


@pytest.mark.parametrize("variety,r", TERRACINI_CELLS, ids=lambda x: str(x))
def test_terracini_matrices_agree(variety, r):
    spec = parse_variety(variety)
    exact, rows = terracini_rows(spec, r, seed=0, trial=0)
    rank = fp_rank(rows, WORD_PRIME)
    assert _Trial(spec, 0, 0).rank(r) == rank
    # the rank mod p bounds the rank over Q from below: a full one is exact
    if rank < min(len(exact), len(exact[0])):
        assert bareiss(exact) == rank


@pytest.mark.parametrize("variety,r", TERRACINI_CELLS, ids=lambda x: str(x))
def test_incremental_trial_matches_from_scratch_rank_at_every_r(variety, r):
    # one state advanced point by point, against a fresh elimination per r
    spec = parse_variety(variety)
    for trial in range(3):
        state = _Trial(spec, 0, trial)
        for k in range(1, r + 1):
            _, rows = terracini_rows(spec, k, seed=0, trial=trial)
            assert state.rank(k) == fp_rank(rows, WORD_PRIME)
        assert state.ranks == [0] + [state.rank(k) for k in range(1, r + 1)]


@pytest.mark.parametrize("variety,r", TERRACINI_CELLS, ids=lambda x: str(x))
def test_stopped_cell_is_the_maximum_over_full_trials(variety, r, monkeypatch):
    spec = parse_variety(variety)
    states = []

    class Recorded(_Trial):
        def __init__(self, *args):
            super().__init__(*args)
            states.append(self)

    monkeypatch.setattr(secants, "_Trial", Recorded)
    report = secant_dimension(spec, r, trials=3, seed=0)
    monkeypatch.undo()
    full = [_Trial(spec, 0, t).rank(r) for t in range(3)]
    assert report.computed_affine_dim == max(full)
    assert report.trials == 3
    # trials after the first one that certifies the cell are never run
    first = next((t for t in range(3) if full[t] == report.expected_affine_dim), 2)
    assert [len(state.ranks) > 1 for state in states] == [t <= first for t in range(3)]


def test_veronese_2_30_beyond_int64():
    # tangent rows of the degree-30 rational normal curve at the integer points
    # (1, k): exact entries such as 30 k^29 exceed 2^63, and the builder's
    # residues must be theirs mod p.  The r points are distinct, so Hermite
    # interpolation gives the rank min(2r, 31) over Q, and p divides none of
    # the minors.
    spec = veronese(2, 30)
    for r in (8, 12, 16):
        exact = [row for k in range(1, r + 1) for row in exact_tangent_rows(spec, [(1, k)])]
        assert max(abs(x) for row in exact for x in row) >= 2**63
        rows = np.concatenate([affine_tangent_basis(spec, [(1, k)]) for k in range(1, r + 1)])
        assert rows.tolist() == [[x % WORD_PRIME for x in row] for row in exact]
        assert echelon_rank(rows, WORD_PRIME) == bareiss(exact) == min(2 * r, 31)
    # binary forms are never defective; the old [-10, 10] sampler reported
    # false defects at r = 12 and 16
    for r in (8, 12, 16):
        report = secant_dimension(spec, r)
        assert report.computed_affine_dim == report.expected_affine_dim == min(2 * r, 31)


# --- the growing echelon form: EchelonModP against F_p elimination -------------------

@pytest.mark.parametrize("p", [2, 3, 101, WORD_PRIME])
def test_echelon_blocks_match_rank_mod_p(p):
    rng = random.Random(f"echelon:{p}")
    for n, blocks in [(9, [3, 4, 2, 5]), (6, [1, 1, 6, 2]), (12, [5, 0, 5, 5])]:
        a, b = random_rows(rng, 14, 4), random_rows(rng, 4, n)
        low_rank = [[sum(a[i][t] * b[t][j] for t in range(4)) for j in range(n)] for i in range(14)]
        for rows in (random_rows(rng, sum(blocks), n, 0, p - 1), low_rank[: sum(blocks)]):
            echelon, start = EchelonModP(n, p), 0
            for size in blocks:
                start += size
                assert echelon.extend(rows[start - size : start]) == fp_rank(rows[:start], p)
                basis = echelon.basis.tolist()
                assert all(0 <= x < p for row in basis for x in row)
                # basis[:, pivots] is the identity
                assert echelon.basis[:, echelon.pivots].tolist() == np.eye(echelon.rank, dtype=int).tolist()
                assert fp_rank(basis + rows[:start], p) == echelon.rank


def test_echelon_limb_products_are_exact_near_p():
    # full-range residues make every limb product of the reduction large
    rng = random.Random("echelon:limbs")
    n = 40
    rows = random_rows(rng, 60, n, WORD_PRIME - 2**16, WORD_PRIME - 1)
    rows[30:] = [[(x + y) % WORD_PRIME for x, y in zip(rows[i], rows[i + 1])] for i in range(30)]
    echelon = EchelonModP(n, WORD_PRIME)
    for i in range(0, 60, 7):
        echelon.extend(rows[i : i + 7])
        assert echelon.rank == len(_fp_eliminate([list(r) for r in rows[: i + 7]], WORD_PRIME)[0])


def test_echelon_rejects_bad_moduli_and_widths():
    for p in (1, 4, 2**31 + 11):
        with pytest.raises(ValidationError, match="prime"):
            EchelonModP(3, p)
    with pytest.raises(ValidationError, match="overflow"):
        EchelonModP(2**16 + 1, WORD_PRIME)  # 2^16 columns are still exact
    assert EchelonModP(5, 7).extend([]) == 0
    with pytest.raises(ValidationError, match="width"):
        EchelonModP(5, 7).extend([[1, 2, 3]])


def test_word_prime_is_prime_and_needs_no_trial_division(monkeypatch):
    assert rings.is_prime(WORD_PRIME)
    # the largest prime in ranks_mod_p's float64 lane
    assert rings.is_prime(FLOAT_PRIME) and not any(map(rings.is_prime, range(FLOAT_PRIME + 1, FLOAT_PRIME_CAP + 1)))

    def never(p):
        raise AssertionError(f"trial division of {p}")

    monkeypatch.setattr(linalg, "_is_prime", never)
    assert EchelonModP(3, WORD_PRIME).extend([[1, 2, 3]]) == 1
    assert ranks_mod_p(np.array([[[1, 2], [2, 4]]]), FLOAT_PRIME).tolist() == [1]
    with pytest.raises(AssertionError, match="trial division"):
        EchelonModP(3, 2**31 - 19)  # any other prime is still checked


# --- the free-column block against the full-basis kernel it replaced ---------------------

def assert_same_echelon(echelon, oracle):
    assert echelon.rank == oracle.rank
    assert echelon.pivots.tolist() == oracle.pivots.tolist()
    assert echelon.basis.tolist() == oracle.basis.tolist()
    # tail is the basis on the sorted non-pivot columns, and nothing more
    assert sorted(echelon.free.tolist() + echelon.pivots.tolist()) == list(range(echelon.ncols))
    assert echelon.free.tolist() == sorted(echelon.free.tolist())
    assert echelon.tail.shape == (echelon.rank, echelon.ncols - echelon.rank)
    assert echelon.tail.tolist() == oracle.basis[:, echelon.free].tolist()
    if echelon.rank == echelon.ncols:
        assert echelon.tail.size == 0


def kronecker_sparse_rows(rng, m, dims, p):
    """Rows that are Kronecker products of vectors with one or two nonzeros,
    as Segre tangent rows at sparse points are."""
    rows = []
    for _ in range(m):
        row = np.ones(1, dtype=np.int64)
        for d in dims:
            v = np.zeros(d, dtype=np.int64)
            for i in rng.sample(range(d), rng.randint(1, 2)):
                v[i] = rng.randrange(1, p)
            row = np.kron(row, v) % p
        rows.append(row.tolist())
    return rows


def echelon_block_sequences(p):
    """(ncols, blocks) cases: each block a list of integer rows."""
    rng = random.Random(f"echelon-oracle:{p}")
    cases = []
    for n, sizes in [(9, [3, 4, 2, 5]), (12, [5, 0, 5, 5]), (20, [7, 7, 7, 7])]:
        rows = random_rows(rng, sum(sizes), n, 0, p - 1)
        # wide integers too: negative, and beyond int64 in the last block
        rows[-1] = [x - p * rng.randint(0, 3) for x in rows[-1]]
        rows[-2] = [x + 2**70 for x in rows[-2]]
        cases.append((n, split(rows, sizes)))
        a, b = random_rows(rng, sum(sizes), 3), random_rows(rng, 3, n)
        low_rank = [[sum(a[i][t] * b[t][j] for t in range(3)) for j in range(n)] for i in range(sum(sizes))]
        cases.append((n, split(low_rank, sizes)))
    cases.append((6, [[[0] * 6] * 3, random_rows(rng, 2, 6), [[0] * 6] * 2]))  # zero blocks
    cases.append((1, [[[0]], [[0], [rng.randint(1, p - 1)]], [[3]]]))  # width 1
    # saturating: past full rank, then more blocks after saturation
    cases.append((8, split(random_rows(rng, 22, 8, 0, p - 1), [5, 5, 5, 7])))
    cases.append((64, split(kronecker_sparse_rows(rng, 40, (4, 4, 4), p), [4, 12, 12, 12])))
    return cases


def split(rows, sizes):
    out, start = [], 0
    for size in sizes:
        out.append(rows[start : start + size])
        start += size
    return out


@pytest.mark.parametrize("p", [2, 3, 101, WORD_PRIME])
def test_echelon_equals_the_full_basis_kernel(p):
    for n, blocks in echelon_block_sequences(p):
        echelon, oracle = EchelonModP(n, p), EchelonModPFullBasis(n, p)
        for block in blocks:
            assert echelon.extend(block) == oracle.extend(block)
            assert_same_echelon(echelon, oracle)
    saturated = EchelonModP(3, p)
    saturated.extend([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]])
    assert saturated.rank == 3 and saturated.tail.size == 0
    assert saturated.basis.tolist() == np.eye(3, dtype=int).tolist()


def test_residues_keep_a_block_of_residues_and_reduce_the_rest():
    p = 101
    block = np.array([[0, 5, 100], [7, 0, 1]], dtype=np.int64)
    assert linalg._residues(block, p) is block
    view = block[:, ::2]
    assert linalg._residues(view, p) is view
    for rows in ([[0, 5, 101]], [[-1, 5, 3]], np.array([[0, 5, 101]]), np.array([[0, 5, 3]], dtype=np.int32)):
        got = linalg._residues(rows, p)
        assert got is not rows and got.dtype == np.int64
        assert got.tolist() == [[x % p for x in row] for row in np.asarray(rows).tolist()]


@pytest.mark.parametrize("p", [2, 101, WORD_PRIME])
def test_extend_never_writes_the_callers_block(p):
    # _certified_rank passes views of the integer rows it later checks over Z: blocks
    # of residues are read in place, at rank 0 (copied once for the loop) and after
    for n, blocks in echelon_block_sequences(p):
        echelon, oracle = EchelonModP(n, p), EchelonModPFullBasis(n, p)
        for block in blocks:
            block = np.array([[x % p for x in row] for row in block], dtype=np.int64).reshape(-1, n)
            kept = block.copy()
            block.setflags(write=False)
            assert echelon.extend(block) == oracle.extend(block)
            assert_same_echelon(echelon, oracle)
            assert np.array_equal(block, kept)
    # one read-only array, reduced in row blocks as _certified_rank reduces it
    rng = random.Random(f"echelon-readonly:{p}")
    a = np.array(random_rows(rng, 40, 9, 0, p - 1), dtype=np.int64)
    a[20:] = a[:20] * 2 % p  # the second half repeats the first, scaled
    a.setflags(write=False)
    echelon = EchelonModP(9, p)
    for i in range(0, 40, 8):
        echelon.extend(a[i : i + 8])
    oracle = EchelonModPFullBasis(9, p)
    oracle.extend(a.tolist())
    assert_same_echelon(echelon, oracle)


class _CheckedEchelon(EchelonModP):
    """EchelonModP that runs every block through the full-basis kernel too."""

    extends = 0

    def __init__(self, ncols, p):
        super().__init__(ncols, p)
        self.oracle = EchelonModPFullBasis(ncols, p)

    def extend(self, rows):
        rows = np.array(rows)  # the same block for both kernels
        rank = super().extend(rows)
        assert rank == self.oracle.extend(rows)
        assert_same_echelon(self, self.oracle)
        type(self).extends += 1
        return rank


# the terracini workload's cases: t.segre555, t.veronese54, t.sub444, t.symsub, t.segver,
# t.segre2222scan and t.segre9999r1
TERRACINI_CASES = [
    ["--variety", "segre:5,5,5", "--generic-rank"],
    ["--variety", "veronese:5,4", "--generic-rank"],
    ["--variety", "sub:4,4,4@2,2,2", "--generic-rank"],
    ["--variety", "symsub:5@2,3", "--generic-rank"],
    ["--variety", "segver:3,3@2,2", "--generic-rank"],
    ["--variety", "segre:2,2,2,2", "--scan"],
    ["--variety", "segre:9,9,9,9", "--r", "1"],
]


@pytest.mark.parametrize("argv", TERRACINI_CASES, ids=lambda argv: argv[1])
def test_terracini_extend_sequences_equal_the_full_basis_kernel(argv, tmp_path, monkeypatch):
    monkeypatch.setattr(secants, "EchelonModP", _CheckedEchelon)
    monkeypatch.setattr(_CheckedEchelon, "extends", 0)
    assert cli.main(["terracini", *argv, "--output", str(tmp_path / "out.jsonl")]) == 0
    assert _CheckedEchelon.extends > 0


# --- stacked ranks: ranks_mod_p against the exact per-matrix kernels --------------------

STACK_SHAPES = [(4, 4), (6, 6), (8, 3), (3, 8), (1, 5), (5, 1)]


def random_stack(rng, count, shape, lo, hi):
    stack = []
    for i in range(count):
        rows = random_rows(rng, *shape, lo, hi)
        if i % 4 == 1:
            rows = [[0] * shape[1] for _ in range(shape[0])]
        elif i % 4 == 2 and shape[0] > 1:
            rows[-1] = list(rows[0])  # a repeated row
        elif i % 4 == 3:
            for row in rows:
                for j in range(shape[1]):
                    if rng.random() < 0.5:
                        row[j] = 0
        stack.append(rows)
    return stack


@pytest.mark.parametrize("p", [2, 3, 101])
@pytest.mark.parametrize("shape", STACK_SHAPES, ids=str)
def test_ranks_mod_p_matches_fp_rank_exact(p, shape):
    rng = random.Random(f"ranks_mod_p:{p}:{shape}")
    stack = random_stack(rng, 40, shape, -p, 2 * p)  # unreduced and negative entries too
    expected = [rank_exact(Matrix.from_rows(rows, fp(p))) for rows in stack]
    assert ranks_mod_p(np.array(stack, dtype=np.int64), p).tolist() == expected


@pytest.mark.parametrize("shape", STACK_SHAPES, ids=str)
def test_ranks_mod_p_word_prime_matches_bareiss_and_fp_elimination(shape):
    rng = random.Random(f"ranks_mod_p:word:{shape}")
    # |entries| <= 9 and at most 6 x 6: every nonzero minor is below 9^6 6^3 < 2^31
    # in absolute value, so WORD_PRIME divides none and the two ranks agree
    small = random_stack(rng, 40, shape, -9, 9)
    expected = [bareiss(rows) for rows in small]
    assert ranks_mod_p(np.array(small, dtype=np.int64), WORD_PRIME).tolist() == expected
    # full-range residues, where products of two entries come near 2^62
    big = random_stack(rng, 40, shape, WORD_PRIME - 2**20, WORD_PRIME - 1)
    expected = [len(_fp_eliminate([list(r) for r in rows], WORD_PRIME)[0]) for rows in big]
    assert ranks_mod_p(np.array(big, dtype=np.int64), WORD_PRIME).tolist() == expected


def test_ranks_mod_p_products_and_empty_stacks():
    rng = random.Random("ranks_mod_p:products")
    stack = []
    for k in (1, 2, 3, 5):
        a, b = random_rows(rng, 5, k), random_rows(rng, k, 6)
        stack.append([[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(6)] for i in range(5)])
    assert ranks_mod_p(np.array(stack), 101).tolist() == [
        rank_exact(Matrix.from_rows(rows, fp(101))) for rows in stack
    ]
    assert ranks_mod_p(np.zeros((0, 3, 4), dtype=np.int64), 3).tolist() == []
    assert ranks_mod_p(np.zeros((2, 0, 4), dtype=np.int64), 3).tolist() == [0, 0]
    assert ranks_mod_p(np.zeros((2, 4, 0), dtype=np.int64), 3).tolist() == [0, 0]


def fermat_ranks_mod_p(stack, p):
    """The stacked kernel as it was with inverses: each head row is scaled by
    lead^(p-2) before it is cleared from the rows below, all in int64."""
    a = np.asarray(stack, dtype=np.int64) % p
    if a.shape[1] > a.shape[2]:
        a = a.transpose(0, 2, 1)
    batch = np.arange(a.shape[0])
    ranks = np.zeros(a.shape[0], dtype=np.int64)
    while a.shape[1] and a.shape[2]:
        head, a = a[:, 0], a[:, 1:]
        j = np.argmax(head != 0, axis=1)
        lead = head[batch, j]
        inv, base, e = np.ones_like(lead), lead, p - 2
        while e:
            if e & 1:
                inv = inv * base % p
            base = base * base % p
            e >>= 1
        head = head * inv[:, None] % p
        a = (a - a[batch, :, j][:, :, None] * head[:, None, :]) % p
        ranks += lead != 0
    return ranks


# the largest primes whose (p - 1)^2 fits int16 and int32, the primes just
# above them (both sides of each boundary of the integer kernel's stack type),
# the largest and smallest primes on either side of FLOAT_PRIME_CAP = 2^26,
# where ranks_mod_p goes from float64 to int64, and the word prime
DTYPE_EDGE_PRIMES = [2, 3, 181, 191, 46337, 46349, 2**26 - 5, 2**26 + 15, WORD_PRIME]


@pytest.mark.parametrize("p", DTYPE_EDGE_PRIMES)
@pytest.mark.parametrize("shape", STACK_SHAPES + [(2, 7), (7, 2)], ids=str)
def test_ranks_mod_p_without_inverses_matches_both_oracles(p, shape):
    rng = random.Random(f"ranks_mod_p:edges:{p}:{shape}")
    # residues at the top of the range make every lead * row product reach (p - 1)^2
    stack = random_stack(rng, 32, shape, max(0, p - 4), p - 1) + random_stack(rng, 32, shape, -p, 2 * p)
    for rows in stack[::3]:
        rows[0] = [0] * shape[1]  # a zero head row
    expected = [fp_rank(rows, p) for rows in stack]
    if p <= 2**16:  # the largest modulus of an fp ring
        assert expected == [rank_exact(Matrix.from_rows(rows, fp(p))) for rows in stack]
    a = np.array(stack, dtype=np.int64)
    assert ranks_mod_p(a, p).tolist() == expected
    assert fermat_ranks_mod_p(a, p).tolist() == expected


@pytest.mark.parametrize("p", DTYPE_EDGE_PRIMES)
@pytest.mark.parametrize("shape", [(4, 6), (6, 4)], ids=str)
def test_ranks_mod_p_planted_ranks_zero_matrices_and_empty_stacks(p, shape):
    rng = random.Random(f"ranks_mod_p:planted:{p}:{shape}")
    m, n = shape
    stack = []
    for k in range(6):  # products of m x k and k x n factors: rank at most k
        for _ in range(8):
            a = [[rng.randrange(p) for _ in range(k)] for _ in range(m)]
            b = [[rng.randrange(p) for _ in range(n)] for _ in range(k)]
            product = [[sum(a[i][t] * b[t][j] for t in range(k)) % p for j in range(n)] for i in range(m)]
            stack.append(product)
    expected = [fp_rank(rows, p) for rows in stack]
    assert all(r <= i // 8 for i, r in enumerate(expected))
    assert expected[0] == 0 and len(set(expected)) >= 4
    assert ranks_mod_p(np.array(stack, dtype=np.int64), p).tolist() == expected
    assert ranks_mod_p(np.zeros((3, m, n), dtype=np.int64), p).tolist() == [0, 0, 0]
    assert ranks_mod_p(np.zeros((0, m, n), dtype=np.int64), p).tolist() == []
    assert ranks_mod_p(np.zeros((4, 0, 0), dtype=np.int64), p).tolist() == [0] * 4


def test_ranks_mod_p_rejects_bad_moduli_and_shapes():
    for p in (1, 4, 2**31 + 11):
        with pytest.raises(ValidationError, match="prime"):
            ranks_mod_p(np.ones((1, 2, 2), dtype=np.int64), p)
    with pytest.raises(ValidationError, match="stack"):
        ranks_mod_p(np.ones((2, 2), dtype=np.int64), 3)


# --- the float64 arm of ranks_mod_p against the integer kernel it replaced ------------

DIFFERENTIAL_PRIMES = [2, 3, 5, 101, 181, 191, 46337, 46349, 65521, 2**26 - 5, 2**26 + 15, WORD_PRIME]
DIFFERENTIAL_SHAPES = [(6, 6), (7, 3), (3, 7), (1, 5), (5, 1), (2, 9)]


def differential_stack(rng, p, shape):
    """Residue matrices of one shape: every entry p - 1 (the largest first
    products), entries in [p - 3, p - 1], products of m x k and k x n random
    factors (rank at most k, for every k), and zero matrices."""
    m, n = shape
    stack = [[[p - 1] * n for _ in range(m)] for _ in range(3)]
    stack += [[[rng.randint(max(0, p - 3), p - 1) for _ in range(n)] for _ in range(m)] for _ in range(16)]
    for k in range(min(m, n) + 1):
        for _ in range(6):
            a = [[rng.randrange(p) for _ in range(k)] for _ in range(m)]
            b = [[rng.randrange(p) for _ in range(n)] for _ in range(k)]
            stack.append([[sum(a[i][t] * b[t][j] for t in range(k)) % p for j in range(n)] for i in range(m)])
    return stack + [[[0] * n for _ in range(m)] for _ in range(2)]


@pytest.mark.parametrize("p", DIFFERENTIAL_PRIMES)
@pytest.mark.parametrize("shape", DIFFERENTIAL_SHAPES, ids=str)
def test_ranks_mod_p_equals_the_integer_kernel(p, shape):
    rng = random.Random(f"ranks_mod_p:float:{p}:{shape}")
    a = np.array(differential_stack(rng, p, shape), dtype=np.int64)
    expected = ranks_mod_p_in_narrow_ints(a, p).tolist()
    assert len(set(expected)) == min(shape) + 1  # every rank from 0 to min(m, n) occurs
    assert ranks_mod_p(a, p).tolist() == expected
    # a float64 stack, as min_rank_exact_fp passes it
    assert ranks_mod_p(a.astype(np.float64), p).tolist() == expected
    # the same matrices shifted by multiples of p, negative entries too
    shifted = a + p * np.array([rng.randint(-3, 3) for _ in range(a.size)]).reshape(a.shape)
    assert ranks_mod_p(shifted, p).tolist() == expected
    assert ranks_mod_p(shifted.astype(np.float64), p).tolist() == expected


@pytest.mark.parametrize("p", DIFFERENTIAL_PRIMES)
def test_ranks_mod_p_of_empty_stacks_and_python_ints_of_any_size(p):
    for shape in [(0, 3, 4), (2, 0, 4), (2, 4, 0), (3, 0, 0), (0, 0, 0)]:
        for dtype in (np.int64, np.float64):
            assert ranks_mod_p(np.zeros(shape, dtype=dtype), p).tolist() == [0] * shape[0]
    rng = random.Random(f"ranks_mod_p:words:{p}")
    stack = differential_stack(rng, p, (4, 5))
    # negative and multi-word lifts of the same residues
    lifted = [[[x + p * rng.randint(-(2**80), 2**80) for x in row] for row in rows] for rows in stack]
    expected = ranks_mod_p_in_narrow_ints(stack, p).tolist()
    assert ranks_mod_p(lifted, p).tolist() == expected
    assert expected == [fp_rank(rows, p) for rows in lifted]


def test_ranks_mod_p_works_in_float64_up_to_the_cap_only(monkeypatch):
    # entries stay below p in absolute value, so an update is at most 2 (p - 1)^2
    assert 2 * (FLOAT_PRIME_CAP - 1) ** 2 < 2**53 <= 2 * FLOAT_PRIME_CAP**2
    reductions = []
    round_mod = linalg._round_mod
    monkeypatch.setattr(linalg, "_round_mod", lambda a, p: reductions.append(p) or round_mod(a, p))
    stack = np.array([[[1, 2, 3], [4, 5, 6]]], dtype=np.int64)
    for p in (2, 65521, 2**26 - 5, 2**26 + 15, WORD_PRIME):
        reductions.clear()
        assert ranks_mod_p(stack, p).tolist() == [2]
        assert reductions == ([p] * 2 if p <= FLOAT_PRIME_CAP else [])


@pytest.mark.parametrize("p", [p for p in DIFFERENTIAL_PRIMES if p <= FLOAT_PRIME_CAP])
def test_round_mod_is_exact_up_to_the_largest_update(p):
    # the largest updates, 2 (p - 1)^2, every multiple of p near them and near 2^52
    # (the largest float64 input), and random integers in between
    rng = random.Random(f"round_mod:{p}")
    bound = 2 * (p - 1) ** 2
    values = [bound, -bound, 0, p, -p, 2**52 - 1, 1 - 2**52]
    for top in (bound, 2**52 - 1):
        values += [k * p for k in range(top // p - 200, top // p + 1)]
        values += [-k * p for k in range(top // p - 200, top // p + 1)]
        values += [rng.randint(-top, top) for _ in range(500)]
        values += [p * rng.randint(-top // p, top // p) for _ in range(500)]
    a = np.array(values, dtype=np.float64)
    assert [int(x) for x in a] == values  # each value is exact in float64
    r = linalg._round_mod(a.copy(), p)
    assert np.all(np.abs(r) < p) and np.all(r == np.rint(r))
    assert [int(x) % p for x in r] == [v % p for v in values]
    assert np.array_equal(r == 0, np.array([v % p == 0 for v in values]))

