import itertools
import math
from collections import Counter
from functools import lru_cache

import numpy as np
import pytest

from helpers import _character_row, _mn, cone_rows
from tensorlab import kronecker
from tensorlab.errors import CapExceeded, TensorlabError, ValidationError
from tensorlab.kronecker import (
    Partition,
    character,
    class_size,
    cone_sample,
    kronecker_coefficient,
    partitions_of,
    rectangle,
    rectangular_kronecker,
    weyl_zero_weight_invariant_exists,
)
from tensorlab.secants import exponents

P = Partition.of


# --- independent oracles --------------------------------------------------------

def partition_count_oracle(n):
    """Partition function by the classic coin-change recurrence."""
    table = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            table[total] += table[total - part]
    return table[n]


def standard_tableaux_oracle(parts):
    """Count standard Young tableaux by brute-force growth."""
    n = sum(parts)
    rows = len(parts)

    def grow(filled, counts):
        if filled == n:
            return 1
        total = 0
        for r in range(rows):
            if counts[r] < parts[r] and (r == 0 or counts[r] < counts[r - 1]):
                counts[r] += 1
                total += grow(filled + 1, counts)
                counts[r] -= 1
        return total

    return grow(0, [0] * rows)


def kronecker_oracle(lam, mu, nu):
    """Class-weighted triple character sum through the public, checked
    `class_size` and `character`, one class at a time."""
    n = lam.size
    total = sum(
        class_size(rho) * character(lam, rho) * character(mu, rho) * character(nu, rho)
        for rho in partitions_of(n)
    )
    value, rest = divmod(total, math.factorial(n))
    assert rest == 0
    return value


def cone_oracle(p, q, r, n_max):
    """The plain triple loop over the oracle, in lambda, mu, nu order."""
    rows = []
    for n in range(1, n_max + 1):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                for nu in partitions_of(n):
                    if len(lam) <= p and len(mu) <= q and len(nu) <= r:
                        k = kronecker_oracle(lam, mu, nu)
                        if k > 0:
                            rows.append((lam, mu, nu, k))
    return rows


# --- test-local copies of the scalar kernels the array code replaced --------------

def _partition_from_beta(beta):
    bs = sorted(beta, reverse=True)
    parts = (b - (len(bs) - 1 - i) for i, b in enumerate(bs))
    return tuple(p for p in parts if p > 0)


@lru_cache(maxsize=None)
def beta_list_character(lam, mu):
    """Murnaghan-Nakayama on sorted beta lists: remove a strip of size mu[0]."""
    if not mu:
        return 1
    k, rest = mu[0], mu[1:]
    beta = tuple(lam[i] + (len(lam) - 1 - i) for i in range(len(lam)))
    total = 0
    for i, b in enumerate(beta):
        if b - k < 0 or (b - k) in beta:
            continue
        height = sum(1 for c in beta if b - k < c < b)
        new_beta = list(beta)
        new_beta[i] = b - k
        total += (-1) ** height * beta_list_character(_partition_from_beta(new_beta), rest)
    return total


def scalar_cone(p, q, r, n_max):
    """One dot product per (lambda, mu, nu), in lambda, mu, nu order."""
    rows = []
    for n in range(1, n_max + 1):
        parts = partitions_of(n)
        weights = kronecker._class_sizes(n).tolist()
        for lam in (x for x in parts if len(x) <= p):
            for mu in (x for x in parts if len(x) <= q):
                for nu in (x for x in parts if len(x) <= r):
                    rows_ = (_character_row(x.parts) for x in (lam, mu, nu))
                    total = sum(w * a * b * c for w, a, b, c in zip(weights, *rows_))
                    k, rest = divmod(total, math.factorial(n))
                    assert rest == 0 and k >= 0
                    if k > 0:
                        rows.append((lam, mu, nu, k))
    return rows


@lru_cache(maxsize=None)
def itertools_weights(a, d, n):
    """Weight multiplicities of Sym^d(Sym^n) in a variables, one multiset at a time."""
    counts = {}
    for combo in itertools.combinations_with_replacement(exponents(a, n), d):
        w = tuple(sum(x) for x in zip(*combo))
        counts[w] = counts.get(w, 0) + 1
    return counts


def weyl_oracle(lam, a):
    """The alternating Weyl-group sum over the itertools weight dicts."""
    size = lam.size
    rho = tuple(range(a - 1, -1, -1))
    lam_rho = [l + r for l, r in zip(lam.parts + (0,) * (a - len(lam)), rho)]
    for d in (d for d in range(1, size + 1) if size % d == 0):
        weights = itertools_weights(a, d, size // d)
        total = 0
        for sigma in itertools.permutations(range(a)):
            sign = round(np.linalg.det(np.eye(a)[list(sigma)]))
            total += sign * weights.get(tuple(lam_rho[sigma[i]] - rho[i] for i in range(a)), 0)
        if total > 0:
            return True
    return False


# (lambda, mu, nu, g) at n = 11..14, the benchmark's triple table
LARGE_TRIPLES = [
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


# --- partitions ------------------------------------------------------------------

def test_partitions_of_zero():
    assert partitions_of(0) == [P([])]


def test_partitions_counts():
    for n in (4, 7, 10, 12):
        assert len(partitions_of(n)) == partition_count_oracle(n)


def test_partitions_reverse_lex_order():
    got = [p.parts for p in partitions_of(5)]
    assert got[0] == (5,)
    assert got[-1] == (1, 1, 1, 1, 1)
    assert got == sorted(got, reverse=True)


def test_partition_validation():
    with pytest.raises(ValidationError):
        P([1, 2])
    with pytest.raises(ValidationError):
        P([2, 0])


def test_partition_conjugate_and_dimension():
    assert P([3, 1]).conjugate().parts == (2, 1, 1)
    assert P([2, 1]).dimension() == standard_tableaux_oracle((2, 1)) == 2
    for parts in [(3, 2), (4, 1), (2, 2, 1), (3, 3)]:
        assert P(parts).dimension() == standard_tableaux_oracle(parts)


def test_partitions_cap():
    with pytest.raises(CapExceeded):
        partitions_of(21)


# --- characters ------------------------------------------------------------------

def test_trivial_character():
    for mu in partitions_of(6):
        assert character(P([6]), mu) == 1


def test_sign_character():
    for mu in partitions_of(6):
        assert character(P([1] * 6), mu) == (-1) ** (6 - len(mu))


def test_character_dimension_column():
    for lam in partitions_of(7):
        assert character(lam, P([1] * 7)) == lam.dimension()


def test_character_orthogonality():
    for n in (4, 5, 6):
        parts = partitions_of(n)
        for lam in parts:
            for mu in parts:
                total = sum(
                    class_size(rho) * character(lam, rho) * character(mu, rho)
                    for rho in parts
                )
                assert total == (math.factorial(n) if lam == mu else 0)


def test_class_sizes_sum_to_group_order():
    for n in (5, 8):
        assert sum(class_size(mu) for mu in partitions_of(n)) == math.factorial(n)


def test_bitmask_recursion_matches_beta_lists_on_every_pair_up_to_12():
    for n in range(13):
        parts = partitions_of(n)
        table = kronecker._character_table(n)
        for lam, table_row in zip(parts, table.tolist()):
            mask = kronecker._beta_mask(lam.parts)
            row = _character_row(lam.parts)
            for rho, value, from_table in zip(parts, row, table_row):
                assert _mn(mask, rho.parts) == value == from_table == beta_list_character(lam.parts, rho.parts)


def test_character_table_matches_the_recursion_on_every_pair_up_to_14():
    for n in range(15):
        rows = [_character_row(parts) for parts in kronecker._partition_tuples(n)]
        table = kronecker._character_table(n)
        assert table.dtype == np.int64 and table.shape == (len(rows), len(rows))
        assert table.tolist() == [list(row) for row in rows]  # table 0 is [[1]]


def test_character_matches_the_recursion_on_a_seeded_sample_at_15_and_16():
    rng = np.random.default_rng(1516)
    for n in (15, 16):
        parts = partitions_of(n)
        for i, j in rng.integers(len(parts), size=(60, 2)).tolist():
            lam, rho = parts[i], parts[j]
            value = character(lam, rho)
            assert type(value) is int
            assert value == _mn(kronecker._beta_mask(lam.parts), rho.parts)
    with pytest.raises(CapExceeded):
        character(P([17]), P([17]))


def test_character_table_orthogonality_up_to_14():
    for n in range(15):
        table, w = kronecker._character_table(n), kronecker._class_sizes(n)
        fact = math.factorial(n)
        # row orthogonality with the class weights, and column orthogonality
        assert np.array_equal(table * w @ table.T, fact * np.eye(len(w), dtype=np.int64))
        assert np.array_equal(table.T @ table, np.diag(fact // w))


def test_character_table_and_class_sizes_are_read_only():
    table, w = kronecker._character_table(6), kronecker._class_sizes(6)
    assert not table.flags.writeable and not w.flags.writeable
    with pytest.raises(ValueError):
        table[0, 0] = 2
    with pytest.raises(ValueError):
        w[0] = 2
    assert kronecker._character_table(6)[0, 0] == 1


def test_character_size_mismatch():
    with pytest.raises(ValidationError):
        character(P([2, 1]), P([2]))


# --- Kronecker coefficients --------------------------------------------------------

def test_kronecker_trivial_row():
    for mu in partitions_of(5):
        for nu in partitions_of(5):
            assert kronecker_coefficient(P([5]), mu, nu) == (1 if mu == nu else 0)


def test_kronecker_sign_twist():
    for mu in partitions_of(5):
        for nu in partitions_of(5):
            expected = 1 if mu == nu.conjugate() else 0
            assert kronecker_coefficient(P([1] * 5), mu, nu) == expected


def test_kronecker_s3_example():
    # direct character-sum oracle over the 3 classes of the symmetric group on 3
    # letters: chi_(2,1) = (2, 0, -1) on classes (1^3), (2,1), (3) with sizes 1, 3, 2
    assert kronecker_coefficient(P([2, 1]), P([2, 1]), P([2, 1])) == 1
    by_hand = (1 * 2**3 + 3 * 0 + 2 * (-1) ** 3) // 6
    assert by_hand == 1


def test_kronecker_full_symmetry():
    for n in (4, 5):
        parts = partitions_of(n)
        for lam, mu, nu in itertools.combinations_with_replacement(parts, 3):
            base = kronecker_coefficient(lam, mu, nu)
            for perm in itertools.permutations((lam, mu, nu)):
                assert kronecker_coefficient(*perm) == base


def test_kronecker_conjugation_covariance():
    for n in (4, 5, 6):
        parts = partitions_of(n)
        for lam in parts:
            for mu in parts[:4]:
                for nu in parts[:4]:
                    assert kronecker_coefficient(lam, mu, nu) == kronecker_coefficient(
                        lam, mu.conjugate(), nu.conjugate()
                    )


def test_kronecker_dimension_identity():
    for n in (4, 5, 6):
        parts = partitions_of(n)
        for lam in parts:
            for mu in parts:
                total = sum(
                    kronecker_coefficient(lam, mu, nu) * nu.dimension() for nu in parts
                )
                assert total == lam.dimension() * mu.dimension()


def test_kronecker_matches_oracle_on_every_small_triple():
    for n in range(1, 8):
        parts = partitions_of(n)
        for lam, mu, nu in itertools.product(parts, repeat=3):
            assert kronecker_coefficient(lam, mu, nu) == kronecker_oracle(lam, mu, nu)


@pytest.mark.parametrize("lam,mu,nu,expected", LARGE_TRIPLES)
def test_kronecker_matches_oracle_on_large_triples(lam, mu, nu, expected):
    lam, mu, nu = P(lam), P(mu), P(nu)
    assert kronecker_coefficient(lam, mu, nu) == kronecker_oracle(lam, mu, nu) == expected


@pytest.mark.parametrize("lam,mu,nu,expected", LARGE_TRIPLES)
def test_kronecker_matches_the_recursion_rows_summed_as_python_ints(lam, mu, nu, expected):
    n = sum(lam)
    weights = [class_size(rho) for rho in partitions_of(n)]
    rows = (_character_row(x) for x in (lam, mu, nu))
    total = sum(w * a * b * c for w, a, b, c in zip(weights, *rows))
    assert divmod(total, math.factorial(n)) == (expected, 0)
    assert kronecker_coefficient(P(lam), P(mu), P(nu)) == expected


def _add_one_on_the_identity_class(table):
    out = table.copy()
    out[:, -1] += 1
    return out


@pytest.mark.parametrize(
    "corrupt,message",
    [
        # one more on the identity class breaks n!-divisibility
        (_add_one_on_the_identity_class, "not divisible"),
        # a negated table gives -g, which is divisible but negative
        (lambda table: -table, "negative"),
    ],
    ids=["divisibility", "sign"],
)
def test_coefficient_checks_fire_on_a_corrupted_row(corrupt, message, monkeypatch):
    good = kronecker._character_table
    for n in range(4):
        good(n)  # cached, so the corrupted tables are not built from corrupted ones
    monkeypatch.setattr(kronecker, "_character_table", lambda n: corrupt(good(n)))
    with pytest.raises(TensorlabError, match=message):
        kronecker_coefficient(P([3]), P([3]), P([3]))
    with pytest.raises(TensorlabError, match=message):
        cone_sample(1, 1, 1, 3)


def test_kronecker_cap_and_mismatch():
    with pytest.raises(ValidationError):
        kronecker_coefficient(P([2]), P([1, 1]), P([3]))
    with pytest.raises(CapExceeded):
        kronecker_coefficient(P([15]), P([15]), P([15]))


# --- rectangles ----------------------------------------------------------------------

def test_rectangular_single_row_always_one():
    for d, n in ((2, 2), (3, 2), (2, 3)):
        rec = rectangular_kronecker(P([d * n]), d, n)
        assert rec.value == 1
        assert rec.conjugate_value == 1


def test_rectangular_scan_matches_direct_computation():
    d = n = 2
    rect = rectangle(d, n)
    for lam in partitions_of(4):
        rec = rectangular_kronecker(lam, d, n)
        assert rec.value == kronecker_coefficient(lam, rect, rect)
        assert rec.conjugate_value == rec.value  # conjugation covariance
        assert rec.exceeds_length_bound == (len(lam) > 4)


@pytest.mark.parametrize("lam,d,n", [((), 0, 3), ((6,), -2, -3), ((), 3, 0), ((4,), 4, -1)])
def test_rectangular_refuses_d_or_n_below_one_before_any_rectangle(lam, d, n, monkeypatch):
    def no_rectangle(*args):
        raise AssertionError("a rectangle was built")

    monkeypatch.setattr(kronecker, "rectangle", no_rectangle)
    with pytest.raises(ValidationError, match="d and n must be >= 1"):
        rectangular_kronecker(P(lam), d, n)


def test_rectangular_length_flag():
    lam = P([1] * 6)
    rec = rectangular_kronecker(lam, 3, 2)
    assert rec.exceeds_length_bound is True  # 6 rows > n^2 = 4


# --- cone sampling ---------------------------------------------------------------------

def test_cone_sample_matches_direct():
    rows = cone_rows(cone_sample(2, 2, 2, 3))
    for lam, mu, nu, k in rows:
        assert k == kronecker_coefficient(lam, mu, nu) > 0
        assert len(lam) <= 2 and len(mu) <= 2 and len(nu) <= 2
    # the trivial triple is always present at every size
    for n in (1, 2, 3):
        assert any(
            l.parts == (n,) and m.parts == (n,) and v.parts == (n,) for l, m, v, _ in rows
        )


@pytest.mark.parametrize("bounds", [(4, 4, 4, 8), (2, 3, 4, 9)])
def test_cone_sample_matches_naive_loop_row_for_row(bounds):
    assert cone_rows(cone_sample(*bounds)) == cone_oracle(*bounds)


def test_cone_semigroup_property_on_samples():
    rows = cone_rows(cone_sample(2, 2, 2, 4))
    for lam, mu, nu, k in rows:
        if lam.size > 5:
            continue
        doubled = tuple(2 * p for p in lam.parts), tuple(2 * p for p in mu.parts), tuple(
            2 * p for p in nu.parts
        )
        k2 = kronecker_coefficient(P(doubled[0]), P(doubled[1]), P(doubled[2]))
        assert k2 > 0  # stretching keeps positivity


@pytest.mark.parametrize("bounds", [(4, 4, 4, 8), (2, 3, 4, 10)])
def test_array_cone_matches_scalar_loop(bounds):
    rows = cone_rows(cone_sample(*bounds))
    assert rows == scalar_cone(*bounds)
    assert all(type(k) is int for *_, k in rows)


def test_cone_int64_bound_holds_up_to_the_kronecker_cap():
    # p(n) * n!^(3/2) < 2^63, squared to stay in integers
    def holds(n):
        return len(partitions_of(n)) ** 2 * math.factorial(n) ** 3 < 2**126

    assert all(holds(n) for n in range(1, kronecker.KRONECKER_CAP + 1))
    assert not holds(kronecker.KRONECKER_CAP + 1)
    with pytest.raises(CapExceeded, match="n_max <= 14"):
        cone_sample(1, 1, 1, kronecker.KRONECKER_CAP + 1)


def test_cone_sample_caps(monkeypatch):
    # a triple count over the work cap is refused before any table is built
    def no_tables(n):
        raise AssertionError("a character table was built")

    monkeypatch.setattr(kronecker, "_character_table", no_tables)
    with pytest.raises(CapExceeded, match="enumerate 2853720 triples, over the limit of 1500000"):
        cone_sample(8, 8, 8, 14)
    with pytest.raises(CapExceeded, match="enumerate 1608723 triples"):
        cone_sample(14, 4, 14, 14)  # only mu is bounded, so the count sees which bound is which
    with pytest.raises(CapExceeded):
        cone_sample(2, 2, 2, 15)


def test_cone_sample_admits_the_large_bounds():
    # the row counts the scalar kernel gave with its size caps lifted
    assert len(cone_rows(cone_sample(4, 4, 4, 14))) == 175447
    assert len(cone_rows(cone_sample(6, 6, 6, 12))) == 256802
    assert cone_rows(cone_sample(5, 2, 2, 4)) == scalar_cone(5, 2, 2, 4)


@pytest.mark.parametrize("bounds", [(2, 3, 4, 9), (1, 1, 1, 6), (4, 4, 4, 10)])
def test_cone_sample_returns_one_block_per_size(bounds):
    p, q, r, n_max = bounds
    blocks = cone_sample(*bounds)
    assert len(blocks) == n_max
    for n, (lams, mus, nus, ijk, ks) in enumerate(blocks, start=1):
        # the bounded partitions of n, in partitions_of order
        for xs, b in ((lams, p), (mus, q), (nus, r)):
            assert xs == [x for x in partitions_of(n) if len(x) <= b]
        assert type(ijk) is list and all(type(t) is list and len(t) == 3 for t in ijk)
        assert ijk == sorted(ijk) and len(set(map(tuple, ijk))) == len(ijk)
        assert len(ks) == len(ijk) and all(type(k) is int and k > 0 for k in ks)


@pytest.mark.parametrize("bounds", [(0, 2, 2, 3), (2, 0, 2, 3), (2, 2, 0, 3), (2, 2, 2, 0)])
def test_cone_sample_with_an_empty_bound_has_no_blocks(bounds):
    assert cone_sample(*bounds) == []


@pytest.mark.parametrize("bounds", [(-1, 2, 2, 3), (2, -1, 2, 3), (2, 2, -1, 3), (2, 2, 2, -3)])
def test_cone_sample_rejects_negative_bounds_before_any_work(bounds, monkeypatch):
    def no_work(*args):
        raise AssertionError("partitions were enumerated")

    monkeypatch.setattr(kronecker, "_partition_tuples", no_work)
    with pytest.raises(ValidationError, match="non-negative"):
        cone_sample(*bounds)


# --- zero-weight Weyl invariants ----------------------------------------------------------

def test_weyl_single_row():
    assert weyl_zero_weight_invariant_exists(P([4]), 2) is True
    assert weyl_zero_weight_invariant_exists(P([6]), 3) is True


def test_weyl_alternating_square_has_no_invariant():
    assert weyl_zero_weight_invariant_exists(P([1, 1]), 2) is False


@pytest.mark.parametrize("a", [1, 2, 3, 4])
def test_weyl_empty_partition_has_an_invariant(a):
    # S_() is the trivial module S^0 = C: its own zero weight space, fixed by W.
    # weyl_oracle only loops over d >= 1, so it cannot check this case.
    assert weyl_zero_weight_invariant_exists(P([]), a) is True


def test_weyl_two_two():
    assert weyl_zero_weight_invariant_exists(P([2, 2]), 2) is True


def test_weight_keys_match_itertools_counts():
    for a in range(1, 5):
        for n in range(1, 13):
            for d in range(1, 12 // n + 1):
                radix = d * n + 1
                expected = Counter(
                    {sum(w * radix**i for i, w in enumerate(weight)): c
                     for weight, c in itertools_weights(a, d, n).items()}
                )
                assert Counter(kronecker._weight_keys(a, d, n).tolist()) == expected


def test_weyl_matches_itertools_oracle():
    for a in range(1, 5):
        for size in range(a, 13, a):
            for lam in partitions_of(size):
                if len(lam) <= a:
                    assert weyl_zero_weight_invariant_exists(lam, a) is weyl_oracle(lam, a)


def test_weyl_validation():
    with pytest.raises(ValidationError):
        weyl_zero_weight_invariant_exists(P([3]), 2)  # size not divisible
    with pytest.raises(CapExceeded):
        weyl_zero_weight_invariant_exists(P([13, 13]), 2)
