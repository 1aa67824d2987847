"""Symmetric-group characters and Kronecker coefficients.

Characters come from the Murnaghan-Nakayama border-strip recursion on beta
sets.  Each character row chi_lambda (its values on the classes of S_n, in
partitions_of(n) order) and each tuple of class sizes is computed once and
cached, so a row is only built for a partition that is asked about.
Kronecker coefficients are the plain class-weighted character sums over three
rows, divided exactly by n!, which is the simplest exact route at the sizes
this package cares about (n <= 14).
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

from .errors import CapExceeded, TensorlabError, ValidationError
from .secants import exponents

PARTITIONS_CAP = 20
CHARACTER_CAP = 16
KRONECKER_CAP = 14
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
        return ",".join(str(p) for p in self.parts) if self.parts else "-"

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

def _beta_set(parts: tuple[int, ...]) -> tuple[int, ...]:
    """First-column hook lengths: strictly decreasing beta numbers."""
    ell = len(parts)
    return tuple(parts[i] + (ell - 1 - i) for i in range(ell))


def _partition_from_beta(beta: Sequence[int]) -> tuple[int, ...]:
    bs = sorted(beta, reverse=True)
    parts = []
    for i, b in enumerate(bs):
        part = b - (len(bs) - 1 - i)
        if part > 0:
            parts.append(part)
    return tuple(parts)


@lru_cache(maxsize=None)
def _character(lam: tuple[int, ...], mu: tuple[int, ...]) -> int:
    """Murnaghan-Nakayama recursion: remove a border strip of size mu[0]."""
    if not mu:
        return 1
    k = mu[0]
    rest = mu[1:]
    beta = _beta_set(lam)
    total = 0
    beta_set = set(beta)
    for i, b in enumerate(beta):
        if b - k < 0 or (b - k) in beta_set:
            continue
        height = sum(1 for c in beta if b - k < c < b)
        new_beta = list(beta)
        new_beta[i] = b - k
        total += (-1) ** height * _character(_partition_from_beta(new_beta), rest)
    return total


def character(lam: Partition, mu: Partition) -> int:
    """Irreducible symmetric-group character value chi_lambda(mu)."""
    if lam.size != mu.size:
        raise ValidationError("partition sizes differ")
    if lam.size > CHARACTER_CAP:
        raise CapExceeded(f"character computation capped at n <= {CHARACTER_CAP}")
    return _character(lam.parts, mu.parts)


def class_size(mu: Partition) -> int:
    """Number of permutations with cycle type mu."""
    z = 1
    for part, count in itertools.groupby(mu.parts):
        m = len(list(count))
        z *= part**m * math.factorial(m)
    return math.factorial(mu.size) // z


@lru_cache(maxsize=None)
def _class_sizes(n: int) -> tuple[int, ...]:
    """Class sizes of S_n in partitions_of(n) order."""
    return tuple(class_size(rho) for rho in partitions_of(n))


@lru_cache(maxsize=None)
def _character_row(parts: tuple[int, ...]) -> tuple[int, ...]:
    """chi_lambda on every class of S_|lambda|, in partitions_of order."""
    return tuple(_character(parts, rho) for rho in _partition_tuples(sum(parts)))


# ---------------------------------------------------------------------------
# Kronecker coefficients
# ---------------------------------------------------------------------------

def kronecker_coefficient(
    lam: Partition, mu: Partition, nu: Partition, max_n: int = KRONECKER_CAP
) -> int:
    """Class-weighted triple character sum, divided exactly by n!."""
    n = lam.size
    if mu.size != n or nu.size != n:
        raise ValidationError("partition sizes differ")
    if n > min(max_n, CHARACTER_CAP):
        raise CapExceeded(f"Kronecker coefficients capped at n <= {min(max_n, CHARACTER_CAP)}")
    classes = zip(_class_sizes(n), *(_character_row(x.parts) for x in (lam, mu, nu)))
    return _coefficient(sum(w * a * b * c for w, a, b, c in classes), math.factorial(n))


def _coefficient(total: int, fact: int) -> int:
    """The character sum divided by n!, checked to be exact and non-negative."""
    if total % fact != 0:
        raise TensorlabError("character sum not divisible by n!; this is a bug")
    value = total // fact
    if value < 0:
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
    if lam.size != d * n:
        raise ValidationError("|lambda| must equal d*n")
    value = kronecker_coefficient(lam, rectangle(d, n), rectangle(d, n))
    conj = kronecker_coefficient(lam, rectangle(n, d), rectangle(n, d))
    return RectangularKronecker(value, conj, len(lam) > n * n)


def cone_sample(p: int, q: int, r: int, n_max: int) -> list[tuple[Partition, Partition, Partition, int]]:
    """Positivity table of Kronecker coefficients under length bounds.

    Enumerates triples (lambda, mu, nu) of equal size <= n_max with
    len(lambda) <= p, len(mu) <= q, len(nu) <= r and keeps those with a
    positive coefficient.  Experimental substrate only: no facet claims.
    The class-weighted products w*chi_lambda and w*chi_lambda*chi_mu are
    formed outside the inner loops, so each nu costs one dot product.
    """
    if max(p, q, r) > 4:
        raise CapExceeded("cone sampling capped at dimension bounds <= 4")
    if n_max > 10:
        raise CapExceeded("cone sampling capped at n_max <= 10")
    rows = []
    for n in range(1, n_max + 1):
        parts = partitions_of(n)
        fact = math.factorial(n)
        nus = [(nu, _character_row(nu.parts)) for nu in parts if len(nu) <= r]
        for lam in (x for x in parts if len(x) <= p):
            w_lam = [w * a for w, a in zip(_class_sizes(n), _character_row(lam.parts))]
            for mu in (x for x in parts if len(x) <= q):
                w_lam_mu = [v * b for v, b in zip(w_lam, _character_row(mu.parts))]
                for nu, row in nus:
                    k = _coefficient(sum(map(operator.mul, w_lam_mu, row)), fact)
                    if k > 0:
                        rows.append((lam, mu, nu, k))
    return rows


# ---------------------------------------------------------------------------
# zero-weight Weyl invariants via plethysm by weight enumeration
# ---------------------------------------------------------------------------

def _weight_multiplicities(a: int, d: int, n: int) -> dict[tuple[int, ...], int]:
    """Weights of the degree-d symmetric power of degree-n monomials in a vars."""
    monomials = exponents(a, n)
    counts: dict[tuple[int, ...], int] = {}
    for combo in itertools.combinations_with_replacement(monomials, d):
        w = tuple(sum(x) for x in zip(*combo)) if combo else (0,) * a
        counts[w] = counts.get(w, 0) + 1
    return counts


def _schur_multiplicity(lam: tuple[int, ...], weights: dict[tuple[int, ...], int], a: int) -> int:
    """Multiplicity of the irreducible with highest weight lam, by the
    alternating Weyl-group sum over weight multiplicities."""
    rho = tuple(range(a - 1, -1, -1))
    lam_rho = tuple(l + r for l, r in zip(lam + (0,) * (a - len(lam)), rho))
    total = 0
    for sigma in itertools.permutations(range(a)):
        sign = _perm_sign(sigma)
        target = tuple(lam_rho[sigma[i]] - rho[i] for i in range(a))
        if any(t < 0 for t in target):
            continue
        total += sign * weights.get(target, 0)
    return total


def _perm_sign(sigma: Sequence[int]) -> int:
    sign = 1
    seen = [False] * len(sigma)
    for i in range(len(sigma)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = sigma[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def weyl_zero_weight_invariant_exists(lam: Partition, a: int) -> bool:
    """Whether the zero weight space of the Schur module carries a Weyl
    invariant, decided through the equivalent plethysm condition: the
    module appears in some d-th symmetric power of an n-th symmetric power
    with d*n = |lambda|.
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
    for d in range(1, size + 1):
        if size % d != 0:
            continue
        n = size // d
        weights = _weight_multiplicities(a, d, n)
        if _schur_multiplicity(lam.parts, weights, a) > 0:
            return True
    return False
