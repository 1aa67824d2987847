"""Symmetric-group characters and Kronecker coefficients.

The character table of S_n is built once per n, as one read-only int64
array.  By the Murnaghan-Nakayama rule applied to the largest part k of a
class, the columns with rho_1 = k are one product per border-strip size k,
H_k @ T_{n-k}, where H_k holds the signed strip removals found by bead moves
on beta sets held as int bitmasks: removing a strip of size k moves a bead
from b to b - k, and its sign is the parity of the beads in between.
Character values stay below sqrt(n!) <= 2^23 for n <= CHARACTER_CAP = 16.
Kronecker coefficients are the plain class-weighted character sums over
three rows of the table, divided exactly by n!; these sums are exact in
int64 for n <= KRONECKER_CAP = 14 by the bound stated in `cone_sample`.  The
cone table contracts all its rows of one size n in a single int64 product
and returns them as one block per size, from which the CLI renders the rows
per size; the zero-weight Weyl test counts plethysm weights over numpy
index arrays.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Optional, Sequence

import numpy as np

from .errors import CapExceeded, TensorlabError, ValidationError
from .secants import exponents

PARTITIONS_CAP = 20
CHARACTER_CAP = 16
KRONECKER_CAP = 14
# cone_sample's work cap, in triples enumerated: at (6,6,6,14), 1.44M triples
# and 1.12M rows, the CLI takes ~2.2 s and ~330 MB on a 2-core x86_64 machine
CONE_TRIPLE_CAP = 1_500_000
WEYL_SIZE_CAP = 12
WEYL_DIM_CAP = 4


@dataclass(frozen=True)
class Partition:
    """Weakly decreasing positive parts; the empty partition is allowed."""

    parts: tuple[int, ...]

    def __post_init__(self):
        if any(p <= 0 for p in self.parts):
            raise ValidationError("partition parts must be positive")
        if any(a < b for a, b in zip(self.parts, self.parts[1:])):
            raise ValidationError("partition parts must be weakly decreasing")

    @staticmethod
    def of(parts: Sequence[int]) -> "Partition":
        return Partition(tuple(parts))

    @property
    def size(self) -> int:
        return sum(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __str__(self):
        return self._label

    @cached_property
    def _label(self) -> str:
        return ",".join(map(str, self.parts)) if self.parts else "-"

    def conjugate(self) -> "Partition":
        if not self.parts:
            return self
        cols = [sum(1 for p in self.parts if p > i) for i in range(self.parts[0])]
        return Partition(tuple(cols))

    def dimension(self) -> int:
        """Number of standard Young tableaux, by the hook length formula."""
        if not self.parts:
            return 1
        conj = self.conjugate().parts
        out = math.factorial(self.size)
        for i, row in enumerate(self.parts):
            for j in range(row):
                out //= row - j + conj[j] - i - 1
        return out


def rectangle(d: int, n: int) -> Partition:
    """n parts each equal to d."""
    return Partition((d,) * n)


def partitions_of(n: int) -> list[Partition]:
    """All partitions of n in reverse-lexicographic order, (n) first."""
    if not 0 <= n <= PARTITIONS_CAP:
        raise CapExceeded(f"partition enumeration capped at n <= {PARTITIONS_CAP}")
    return [Partition(p) for p in _partition_tuples(n)]


@lru_cache(maxsize=None)
def _partition_tuples(n: int, max_part: Optional[int] = None) -> tuple[tuple[int, ...], ...]:
    if n == 0:
        return ((),)
    cap = n if max_part is None else min(max_part, n)
    out = []
    for first in range(cap, 0, -1):
        out.extend((first,) + rest for rest in _partition_tuples(n - first, first))
    return tuple(out)


# ---------------------------------------------------------------------------
# characters
# ---------------------------------------------------------------------------

def _beta_mask(parts: tuple[int, ...]) -> int:
    """Beta set as a bitmask: bit parts[i] + (len - 1 - i) for each part."""
    ell = len(parts)
    return sum(1 << (part + ell - 1 - i) for i, part in enumerate(parts))


@lru_cache(maxsize=None)
def _rows(n: int) -> dict[int, int]:
    """Index of each partition of n in partitions_of order, keyed by beta mask."""
    return {_beta_mask(parts): i for i, parts in enumerate(_partition_tuples(n))}


@lru_cache(maxsize=None)
def _character_table(n: int) -> np.ndarray:
    """chi_lambda(rho), lambda down the rows and rho across the columns, both
    in partitions_of(n) order.  The columns with rho_1 = k are (k,) before
    the partitions of n - k with parts <= k, the last columns of T_{n-k}.  A
    k-strip moves a bead from j + k to the gap at j, its height is the number
    of beads strictly between, and beads left at 0, 1, ... are zero-length
    parts, shifted away so that each partition has one mask.
    """
    rows = _rows(n)
    blocks = [np.ones((1, 1), dtype=np.int64)] if n == 0 else []
    for k in range(n, 0, -1):
        cols = _rows(n - k)
        strips = np.zeros((len(rows), len(cols)), dtype=np.int64)
        between = (1 << (k - 1)) - 1
        for i, mask in enumerate(rows):
            moves = (mask >> k) & ~mask  # bit j: a bead at j + k and a gap at j
            while moves:
                j = moves.bit_length() - 1
                moves ^= 1 << j
                moved = mask ^ (1 << (j + k)) ^ (1 << j)
                moved >>= ((moved + 1) & ~moved).bit_length() - 1
                strips[i, cols[moved]] = (-1) ** ((mask >> (j + 1)) & between).bit_count()
        rest = _character_table(n - k)
        blocks.append(strips @ rest[:, len(cols) - len(_partition_tuples(n - k, k)):])
    table = np.hstack(blocks)
    table.setflags(write=False)
    return table


def character(lam: Partition, mu: Partition) -> int:
    """Irreducible symmetric-group character value chi_lambda(mu)."""
    if lam.size != mu.size:
        raise ValidationError("partition sizes differ")
    if lam.size > CHARACTER_CAP:
        raise CapExceeded(f"character computation capped at n <= {CHARACTER_CAP}")
    rows = _rows(lam.size)
    return int(_character_table(lam.size)[rows[_beta_mask(lam.parts)], rows[_beta_mask(mu.parts)]])


def _class_size(parts: tuple[int, ...]) -> int:
    z = 1
    for part, count in itertools.groupby(parts):
        m = len(list(count))
        z *= part**m * math.factorial(m)
    return math.factorial(sum(parts)) // z


def class_size(mu: Partition) -> int:
    """Number of permutations with cycle type mu."""
    return _class_size(mu.parts)


@lru_cache(maxsize=None)
def _class_sizes(n: int) -> np.ndarray:
    """Class sizes of S_n in partitions_of(n) order, a read-only int64 array."""
    sizes = np.array([_class_size(parts) for parts in _partition_tuples(n)], dtype=np.int64)
    sizes.setflags(write=False)
    return sizes


# ---------------------------------------------------------------------------
# Kronecker coefficients
# ---------------------------------------------------------------------------

def kronecker_coefficient(lam: Partition, mu: Partition, nu: Partition) -> int:
    """Class-weighted triple character sum, divided exactly by n!."""
    n = lam.size
    if mu.size != n or nu.size != n:
        raise ValidationError("partition sizes differ")
    if n > KRONECKER_CAP:
        raise CapExceeded(f"Kronecker coefficients capped at n <= {KRONECKER_CAP}")
    # exact in int64 by the bound in cone_sample's docstring
    rows, table = _rows(n), _character_table(n)
    a, b, c = (table[rows[_beta_mask(x.parts)]] for x in (lam, mu, nu))
    return _coefficient(int(_class_sizes(n) * a * b @ c), math.factorial(n))


def _coefficient(total, fact: int):
    """The character sum divided by n!, checked to be exact and non-negative;
    an int64 array of sums is checked and divided as a whole."""
    value, rest = divmod(total, fact)
    if np.any(rest):
        raise TensorlabError("character sum not divisible by n!; this is a bug")
    if np.any(value < 0):
        raise TensorlabError("negative Kronecker coefficient; this is a bug")
    return value


@dataclass(frozen=True)
class RectangularKronecker:
    value: int
    conjugate_value: int
    exceeds_length_bound: bool


def rectangular_kronecker(lam: Partition, d: int, n: int) -> RectangularKronecker:
    """Kronecker coefficient of lambda against the d x n rectangle twice.

    Both rectangle orientations (n parts of d, and its conjugate) are
    computed; conjugation covariance makes them equal, and the report keeps
    both so the agreement is visible. exceeds_length_bound flags partitions
    with more than n^2 rows, which cannot appear for an n x n matrix space.
    """
    if d < 1 or n < 1:
        raise ValidationError("d and n must be >= 1")
    if lam.size != d * n:
        raise ValidationError("|lambda| must equal d*n")
    value = kronecker_coefficient(lam, rectangle(d, n), rectangle(d, n))
    conj = kronecker_coefficient(lam, rectangle(n, d), rectangle(n, d))
    return RectangularKronecker(value, conj, len(lam) > n * n)


def cone_sample(p: int, q: int, r: int, n_max: int) -> list[tuple]:
    """Positivity table of Kronecker coefficients under length bounds.

    Enumerates triples (lambda, mu, nu) of equal size <= n_max with
    len(lambda) <= p, len(mu) <= q, len(nu) <= r and keeps those with a
    positive coefficient, in lambda, mu, nu order.  Experimental substrate
    only: no facet claims.  The table comes as one block per size n that has
    rows, (lams, mus, nus, ijk, K): row t is (lams[i], mus[j], nus[k], K[t])
    with (i, j, k) = ijk[t].

    For each n the bounded character rows form int64 tables L, M, N, and one
    product contracts w*chi_lambda*chi_mu against chi_nu over the classes.
    The sums are exact: column orthogonality gives |chi(rho)| <=
    sqrt(n!/w_rho), so every partial sum is at most p(n)*n!^(3/2) in absolute
    value, which is below 2^63 for n <= KRONECKER_CAP = 14 (and not at 15).
    The cost is bounded by the triples enumerated, sum_n |L_n||M_n||N_n|,
    which is checked against CONE_TRIPLE_CAP before any table is built.
    """
    if min(p, q, r, n_max) < 0:
        raise ValidationError("cone bounds must be non-negative")
    if n_max > KRONECKER_CAP:
        raise CapExceeded(
            f"cone sampling capped at n_max <= {KRONECKER_CAP}, where int64 character sums are exact"
        )
    sizes = range(1, n_max + 1)
    triples = sum(
        math.prod(sum(1 for x in _partition_tuples(n) if len(x) <= b) for b in (p, q, r))
        for n in sizes
    )
    if triples > CONE_TRIPLE_CAP:
        raise CapExceeded(
            f"cone sampling would enumerate {triples} triples, over the limit of {CONE_TRIPLE_CAP}"
        )
    blocks = []
    for n in sizes:
        parts = partitions_of(n)
        lams, mus, nus = ([x for x in parts if len(x) <= b] for b in (p, q, r))
        if not (lams and mus and nus):
            continue
        lengths = np.array([len(x) for x in parts])
        chi_lam, chi_mu, chi_nu = (_character_table(n)[lengths <= b] for b in (p, q, r))
        w_lam = _class_sizes(n) * chi_lam
        sums = (w_lam[:, None, :] * chi_mu[None, :, :]).reshape(-1, chi_nu.shape[1]) @ chi_nu.T
        table = _coefficient(sums.reshape(len(lams), len(mus), len(nus)), math.factorial(n))
        positive = table > 0
        blocks.append((lams, mus, nus, np.argwhere(positive).tolist(), table[positive].tolist()))
    return blocks


# ---------------------------------------------------------------------------
# zero-weight Weyl invariants via plethysm by weight enumeration
# ---------------------------------------------------------------------------

def _weight_keys(a: int, d: int, n: int) -> np.ndarray:
    """Weights of the degree-d symmetric power of degree-n monomials in a
    vars, one per d-multiset of monomials, as mixed-radix keys
    sum_i w_i (d*n + 1)^i.

    The multisets are non-decreasing index sequences, grown one level at a
    time: a sequence ending at index j has the children j, j + 1, ..., m - 1.
    """
    monomials = np.array(exponents(a, n), dtype=np.int64) @ (d * n + 1) ** np.arange(a, dtype=np.int64)
    m = len(monomials)
    last = np.arange(m)
    keys = monomials
    for _ in range(d - 1):
        children = m - last
        starts = np.cumsum(children) - children
        last = np.arange(children.sum()) - np.repeat(starts - last, children)
        keys = np.repeat(keys, children) + monomials[last]
    return keys


def _schur_multiplicity(lam: tuple[int, ...], keys: np.ndarray, a: int) -> int:
    """Multiplicity of the irreducible with highest weight lam, by the
    alternating Weyl-group sum over weight multiplicities.  Only the at most
    a! targets are counted among the weight keys (radix |lam| + 1)."""
    radix = sum(lam) + 1
    rho = tuple(range(a - 1, -1, -1))
    lam_rho = tuple(l + r for l, r in zip(lam + (0,) * (a - len(lam)), rho))
    total = 0
    for sigma in itertools.permutations(range(a)):
        target = [lam_rho[sigma[i]] - rho[i] for i in range(a)]
        if any(t < 0 for t in target):
            continue
        key = sum(t * radix**i for i, t in enumerate(target))
        inversions = sum(sigma[i] > sigma[j] for i, j in itertools.combinations(range(a), 2))
        total += (-1) ** inversions * int(np.count_nonzero(keys == key))
    return total


def weyl_zero_weight_invariant_exists(lam: Partition, a: int) -> bool:
    """Whether the zero weight space of the Schur module carries a Weyl
    invariant, decided through the equivalent plethysm condition: the
    module appears in some d-th symmetric power of an n-th symmetric power
    with d*n = |lambda|.  The empty partition's module is the trivial one,
    S^0 = C: its own zero weight space, fixed by the Weyl group.
    """
    if a < 1:
        raise ValidationError("the dimension must be >= 1")
    size = lam.size
    if size % a != 0:
        raise ValidationError("|lambda| must be divisible by the dimension")
    if size > WEYL_SIZE_CAP or a > WEYL_DIM_CAP:
        raise CapExceeded(
            f"capped at |lambda| <= {WEYL_SIZE_CAP} and dimension <= {WEYL_DIM_CAP}"
        )
    if len(lam) > a:
        raise ValidationError("lambda has more rows than the dimension")
    if size == 0:
        return True
    for d in range(1, size + 1):
        if size % d != 0:
            continue
        n = size // d
        if _schur_multiplicity(lam.parts, _weight_keys(a, d, n), a) > 0:
            return True
    return False
