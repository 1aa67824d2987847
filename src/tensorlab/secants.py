"""Secant-variety dimensions by Terracini's lemma.

The dimension of the affine cone over the r-th secant variety of X is the
rank of the stacked affine tangent spaces at r generic points.  A trial
draws its points with coordinates uniform in [0, p), p = linalg.WORD_PRIME,
and ranks their integer tangent rows modulo p.  The rows are built as int64
residues mod p: a degree-k form in n variables is its vector of coefficients
over exponents(n, k), and every row comes from three operations on such
vectors, the power l_v^k (k!/alpha! v^alpha, from factorials mod p, which
are invertible because every degree is at most AMBIENT_CAP < p),
multiplication by a linear form or by one variable, and outer products, with
the mode products of subspace varieties done by linalg._matmul_mod_p.
Reduction mod p is a ring map, so each row is the exact integer tangent row
reduced mod p, and its rank mod p is the rank the exact rows have mod p.

This rank is a certified lower bound: every entry of the Terracini matrix is
an integer polynomial in the coordinates, so a k x k minor that is nonzero
mod p at an F_p point is a nonzero polynomial over Z, and the rank over Q at
a generic point is at least k.  By Schwartz-Zippel a trial falls short of
the generic rank with probability at most about deg/p, where deg, the degree
of a maximal minor, is at most the number of rows times the degree of the
parametrization (the bound holds outright when p does not divide every
coefficient of that minor).  The maximum over a few seeded trials is
therefore a certified lower bound, exact when it reaches the expected
dimension.

Each trial's points are seeded on the variety, seed and trial but not on r,
so the points for r + 1 extend those for r.  `scan` runs the cells r = 1,
2, ... of a variety and owns the trial states: each keeps one echelon form
of its trial's tangent rows mod p, and each cell adds one point to it.  A
cell stops at the first trial that reaches the expected dimension: more
trials cannot raise the maximum.  defect_scan, generic_rank and the CLI's
scans all run through `scan`.  Supported varieties: Segre, Veronese,
Segre-Veronese, subspace (Tucker) and symmetric subspace varieties.  Segre
and Veronese varieties are treated as Segre-Veronese varieties: a Segre
variety has every degree 1 and a Veronese variety has a single factor.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import asdict, dataclass, field
from typing import Iterator, Optional, Sequence

import numpy as np

from .errors import CapExceeded, TensorlabError, ValidationError
from .linalg import WORD_PRIME, EchelonModP, _matmul_mod_p, _residues

AMBIENT_CAP = 20000
# bytes of echelon tails and product temporaries one Terracini run may hold
MEMORY_CAP = 2**30
RESAMPLE_LIMIT = 10
SEGRE_VERONESE_KINDS = ("segre", "veronese", "segre_veronese")


# ---------------------------------------------------------------------------
# variety specifications
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VarietySpec:
    """Symbolic description of the embedded variety X.

    kind: "segre" | "veronese" | "segre_veronese" | "subspace" | "sym_subspace"
    dims: per-factor vector-space dimensions (a single entry for veronese
          and sym_subspace)
    degrees: per-factor symmetric degrees where applicable
    ranks: multilinear ranks for subspace kinds
    """

    kind: str
    dims: tuple[int, ...]
    degrees: tuple[int, ...] = ()
    ranks: tuple[int, ...] = ()

    def __post_init__(self):
        if any(d < 1 for d in self.dims) or not self.dims:
            raise ValidationError("dims must be positive")
        if any(d < 1 for d in self.degrees):
            raise ValidationError("degrees must be >= 1")
        if self.kind not in ("segre", "veronese", "segre_veronese", "subspace", "sym_subspace"):
            raise ValidationError(f"unknown variety kind {self.kind!r}")
        if self.kind == "segre_veronese" and len(self.dims) != len(self.degrees):
            raise ValidationError("one degree per factor is required")
        if self.kind in ("veronese", "sym_subspace") and len(self.degrees) != 1:
            raise ValidationError("a single degree is required")
        if self.kind in ("subspace", "sym_subspace"):
            if len(self.ranks) != len(self.dims):
                raise ValidationError("one rank per factor is required")
            for r, d in zip(self.ranks, self.dims):
                if not 1 <= r <= d:
                    raise ValidationError(f"rank {r} outside [1, {d}]")
            if self.kind == "subspace" and len(self.ranks) == 3:
                r1, r2, r3 = self.ranks
                if r1 > r2 * r3 or r2 > r1 * r3 or r3 > r1 * r2:
                    raise ValidationError("multiranks must satisfy r_i <= r_j r_k")
        elif self.ranks:
            raise ValidationError(f"{self.kind} takes no ranks")

    def __str__(self):
        dims = ",".join(str(d) for d in self.dims)
        if self.kind == "segre":
            return f"segre:{dims}"
        if self.kind == "veronese":
            return f"veronese:{self.dims[0]},{self.degrees[0]}"
        if self.kind == "segre_veronese":
            return f"segver:{dims}@{','.join(str(e) for e in self.degrees)}"
        if self.kind == "subspace":
            return f"sub:{dims}@{','.join(str(r) for r in self.ranks)}"
        return f"symsub:{self.dims[0]}@{self.ranks[0]},{self.degrees[0]}"


def segre(dims: Sequence[int]) -> VarietySpec:
    return VarietySpec("segre", tuple(dims))


def veronese(n: int, d: int) -> VarietySpec:
    return VarietySpec("veronese", (n,), (d,))


def segre_veronese(dims: Sequence[int], degrees: Sequence[int]) -> VarietySpec:
    return VarietySpec("segre_veronese", tuple(dims), tuple(degrees))


def subspace(dims: Sequence[int], ranks: Sequence[int]) -> VarietySpec:
    return VarietySpec("subspace", tuple(dims), (), tuple(ranks))


def sym_subspace(n: int, r: int, d: int) -> VarietySpec:
    return VarietySpec("sym_subspace", (n,), (d,), (r,))


def parse_variety(text: str) -> VarietySpec:
    """Parse the compact CLI grammar, e.g. segre:2,2,2 or sub:4,4,4@2,2,2."""
    try:
        head, _, rest = text.partition(":")
        if head == "segre":
            return segre([int(x) for x in rest.split(",")])
        if head == "veronese":
            n, d = (int(x) for x in rest.split(","))
            return veronese(n, d)
        if head == "segver":
            dims, degs = rest.split("@")
            return segre_veronese(
                [int(x) for x in dims.split(",")], [int(x) for x in degs.split(",")]
            )
        if head == "sub":
            dims, ranks = rest.split("@")
            return subspace([int(x) for x in dims.split(",")], [int(x) for x in ranks.split(",")])
        if head == "symsub":
            n, tail = rest.split("@")
            r, d = (int(x) for x in tail.split(","))
            return sym_subspace(int(n), r, d)
    except (ValueError, ValidationError) as exc:
        raise ValidationError(f"bad variety spec {text!r}: {exc}") from exc
    raise ValidationError(f"bad variety spec {text!r}: unknown kind {head!r}")


# ---------------------------------------------------------------------------
# monomial bookkeeping for the symmetric coordinates
# ---------------------------------------------------------------------------

def exponents(nvars: int, degree: int) -> list[tuple[int, ...]]:
    """Degree-d exponent tuples in nvars variables, lex-descending.

    The successor of e takes one unit from its last nonzero entry before
    the final one, at i, and moves it, with the whole final entry, to i + 1.
    """
    if nvars == 1:
        return [(degree,)]
    if degree < 0:
        return []
    e = [degree] + [0] * (nvars - 1)
    out = [tuple(e)]
    while True:
        i = nvars - 2
        while i >= 0 and not e[i]:
            i -= 1
        if i < 0:
            return out
        tail, e[-1] = e[-1], 0
        e[i] -= 1
        e[i + 1] = tail + 1
        out.append(tuple(e))


def sym_dim(n: int, d: int) -> int:
    return math.comb(n + d - 1, d)


# forms mod p: a degree-k form in n variables is its int64 vector of
# coefficients over exponents(n, k), reduced mod WORD_PRIME

@functools.lru_cache(maxsize=64)
def _shift(n: int, k: int) -> np.ndarray:
    """(n, sym_dim(n, k)) table: row j holds, for each alpha in exponents(n, k),
    the position of alpha + e_j in exponents(n, k + 1)."""
    index = {alpha: i for i, alpha in enumerate(exponents(n, k + 1))}
    shifted = [[index[a[:j] + (a[j] + 1,) + a[j + 1 :]] for a in exponents(n, k)] for j in range(n)]
    table = np.array(shifted, dtype=np.intp).reshape(n, -1)
    table.setflags(write=False)  # shared by every caller through the cache
    return table


@functools.lru_cache(maxsize=64)
def _multinomials(n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """exponents(n, k) as an n x sym_dim(n, k) array, and k!/alpha! mod p
    for each alpha, from factorials and their inverses mod p (k < p)."""
    fact = [1] * (k + 1)
    for i in range(1, k + 1):
        fact[i] = fact[i - 1] * i % WORD_PRIME
    inv_fact = [pow(fact[k], -1, WORD_PRIME)] * (k + 1)
    for i in range(k, 0, -1):
        inv_fact[i - 1] = inv_fact[i] * i % WORD_PRIME
    exps = np.array(exponents(n, k), dtype=np.intp).reshape(-1, n).T
    inv_fact = np.array(inv_fact, dtype=np.int64)
    coeffs = np.full(exps.shape[1], fact[k], dtype=np.int64)
    for alpha_i in exps:
        coeffs = coeffs * inv_fact[alpha_i] % WORD_PRIME
    exps.setflags(write=False)  # shared by every caller through the cache
    coeffs.setflags(write=False)
    return exps, coeffs


def _power(v: np.ndarray, k: int) -> np.ndarray:
    """l_v^k: the coefficient of x^alpha is k!/alpha! v^alpha."""
    exps, out = _multinomials(len(v), k)
    powers = np.ones((len(v), k + 1), dtype=np.int64)
    for a in range(1, k + 1):
        powers[:, a] = powers[:, a - 1] * v % WORD_PRIME
    for v_alpha_i in powers[np.arange(len(v))[:, None], exps]:
        out = out * v_alpha_i % WORD_PRIME
    return out


def _times_variables(f: np.ndarray, n: int, k: int) -> np.ndarray:
    """Row j is x_j f, for a degree-k form f in n variables."""
    out = np.zeros((n, sym_dim(n, k + 1)), dtype=np.int64)
    out[np.arange(n)[:, None], _shift(n, k)] = f
    return out


def _times_linear(f: np.ndarray, c: np.ndarray, k: int) -> np.ndarray:
    """Row i is f[i] times the linear form with coefficients c[i], for a
    stack f of degree-k forms in n = c.shape[1] variables."""
    out = np.zeros((len(f), sym_dim(c.shape[1], k + 1)), dtype=np.int64)
    for j, positions in enumerate(_shift(c.shape[1], k)):
        out[:, positions] += f * c[:, j, None] % WORD_PRIME
    return out % WORD_PRIME


def _kron(mats: Sequence[np.ndarray]) -> np.ndarray:
    """Kronecker product mod p, rows and columns row-major over the factors."""
    out = mats[0]
    for m in mats[1:]:
        out = (out[:, None, :, None] * m[None, :, None, :] % WORD_PRIME).reshape(len(out) * len(m), -1)
    return out


# ---------------------------------------------------------------------------
# dimensions of the ambient space and of the affine cone over X
# ---------------------------------------------------------------------------

def ambient_affine_dim(spec: VarietySpec) -> int:
    if spec.kind in SEGRE_VERONESE_KINDS:
        degrees = spec.degrees or (1,) * len(spec.dims)
        return math.prod(sym_dim(n, d) for n, d in zip(spec.dims, degrees))
    if spec.kind == "subspace":
        return math.prod(spec.dims)
    return sym_dim(spec.dims[0], spec.degrees[0])


def cone_dim(spec: VarietySpec) -> int:
    """Dimension of the affine cone over X at a generic point."""
    if spec.kind in SEGRE_VERONESE_KINDS:
        return 1 + sum(d - 1 for d in spec.dims)
    if spec.kind == "subspace":
        return math.prod(spec.ranks) + sum(
            r * (d - r) for r, d in zip(spec.ranks, spec.dims)
        )
    n, r, d = spec.dims[0], spec.ranks[0], spec.degrees[0]
    return sym_dim(r, d) + r * (n - r)


# ---------------------------------------------------------------------------
# point sampling and tangent spaces
# ---------------------------------------------------------------------------

def _random_vector(rng: random.Random, dim: int) -> tuple[int, ...]:
    for _ in range(RESAMPLE_LIMIT):
        v = tuple(rng.randrange(WORD_PRIME) for _ in range(dim))
        if any(v):
            return v
    raise TensorlabError("failed to sample a nonzero vector after 10 attempts")


def _random_factor(rng: random.Random, rows: int, cols: int) -> np.ndarray:
    """A rows x cols matrix whose columns are nonzero random vectors."""
    return np.array([_random_vector(rng, rows) for _ in range(cols)], dtype=np.int64).T


def sample_params(spec: VarietySpec, rng: random.Random):
    """Random point parameters with coordinates in [0, WORD_PRIME), nonzero per factor.

    Segre-Veronese: one vector per factor.  Subspace: a nonzero core tensor
    of shape ranks and one factor matrix per factor.  Symmetric subspace: a
    nonzero degree-d core form in r variables, as coefficients over
    exponents(r, d), and one n x r factor matrix.
    """
    if spec.kind in SEGRE_VERONESE_KINDS:
        return [_random_vector(rng, d) for d in spec.dims]
    if spec.kind == "subspace":
        core = np.array(_random_vector(rng, math.prod(spec.ranks)), dtype=np.int64).reshape(spec.ranks)
        return core, [_random_factor(rng, d, r) for d, r in zip(spec.dims, spec.ranks)]
    n, r, d = spec.dims[0], spec.ranks[0], spec.degrees[0]
    core = np.array(_random_vector(rng, sym_dim(r, d)), dtype=np.int64)
    return core, _random_factor(rng, n, r)


def affine_tangent_basis(spec: VarietySpec, params) -> np.ndarray:
    """Spanning set of the affine tangent space at the parametrized point.

    Returns an int64 array with one row per spanning vector, each the exact
    integer tangent vector reduced mod WORD_PRIME; the parameters may be any
    integers and are reduced first.
    """
    if spec.kind in SEGRE_VERONESE_KINDS:
        return _segre_veronese_tangent(spec.degrees or (1,) * len(spec.dims), params)
    core, factors = params
    core = _residues(core, WORD_PRIME)
    if spec.kind == "subspace":
        return _subspace_tangent(spec, core, [_residues(f, WORD_PRIME) for f in factors])
    return _sym_subspace_tangent(spec, core, _residues(factors, WORD_PRIME))


def _segre_veronese_tangent(degrees, vectors) -> np.ndarray:
    vectors = [_residues(v, WORD_PRIME) for v in vectors]
    if not all(v.any() for v in vectors):
        raise ValidationError("degenerate parameters: zero factor vector")
    points = [_power(v, d)[None, :] for v, d in zip(vectors, degrees)]
    rows = []
    for pos, (v, d) in enumerate(zip(vectors, degrees)):
        directions = _times_variables(_power(v, d - 1), len(v), d - 1)  # x_j l_v^(d-1)
        rows.append(_kron(points[:pos] + [directions] + points[pos + 1 :]))
    return np.concatenate(rows)


def _subspace_tangent(spec: VarietySpec, core: np.ndarray, factors: list[np.ndarray]) -> np.ndarray:
    if not all(f.any(axis=0).all() for f in factors):
        raise ValidationError("degenerate parameters: zero factor column")
    # core directions: products of one column per factor
    rows = [_kron([f.T for f in factors])]
    # factor directions: Leibniz terms with one factor map replaced by E_kl
    for pos, (d, r) in enumerate(zip(spec.dims, spec.ranks)):
        partial = core
        for q, f in enumerate(factors):
            if q != pos:  # the mode product partial x_q f
                moved = np.moveaxis(partial, q, 0)
                product = _matmul_mod_p(f, moved.reshape(len(moved), -1), WORD_PRIME)
                partial = np.moveaxis(product.reshape((len(f),) + moved.shape[1:]), 0, q)
        # E_kl moves slice l of partial at pos to slice k, zero elsewhere
        out = np.zeros((d, r) + spec.dims, dtype=np.int64)
        np.moveaxis(out, 2 + pos, 2)[np.arange(d), :, np.arange(d)] = np.moveaxis(partial, pos, 0)
        rows.append(out.reshape(d * r, -1))
    return np.concatenate(rows)


def _form_monomials(forms: np.ndarray, d: int) -> list[np.ndarray]:
    """monomials[k]: row beta, for beta in exponents(r, k), is the product of
    the r linear forms (rows of forms) to the powers beta."""
    r, n = forms.shape
    monomials = [np.ones((1, 1), dtype=np.int64)]
    for k in range(1, d + 1):
        # beta = parent + e_l for its first nonzero l: the last write wins
        parent = np.empty(sym_dim(r, k), dtype=np.intp)
        first = np.empty(sym_dim(r, k), dtype=np.intp)
        for l in reversed(range(r)):
            parent[_shift(r, k - 1)[l]] = np.arange(sym_dim(r, k - 1))
            first[_shift(r, k - 1)[l]] = l
        monomials.append(_times_linear(monomials[-1][parent], forms[first], k - 1))
    return monomials


def _sym_subspace_tangent(spec: VarietySpec, core: np.ndarray, factor: np.ndarray) -> np.ndarray:
    n, r, d = spec.dims[0], spec.ranks[0], spec.degrees[0]
    if not factor.any(axis=0).all():
        raise ValidationError("degenerate parameters: zero factor column")
    monomials = _form_monomials(factor.T, d)
    # core directions: substituted monomials of degree d in the r forms
    rows = [monomials[d]]
    # factor directions: d/dA[k,l] of core(l_1, ..., l_r) = dg/dy_l (l) * x_k
    for l in range(r):
        # dg/dy_l has coefficient (gamma_l + 1) core[gamma + e_l] at gamma
        dg = core[_shift(r, d - 1)[l]] * (_multinomials(r, d - 1)[0][l] + 1) % WORD_PRIME
        rows.append(_times_variables(_matmul_mod_p(dg[None, :], monomials[d - 1], WORD_PRIME)[0], n, d - 1))
    return np.concatenate(rows)


# ---------------------------------------------------------------------------
# secant dimensions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SecantReport:
    variety: str
    r: int
    ambient_affine_dim: int
    computed_affine_dim: int
    expected_affine_dim: int
    defect: int
    trials: int

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class GenericRankResult:
    rank: int
    profile: tuple[SecantReport, ...] = field(default_factory=tuple)


def _trial_rng(spec: VarietySpec, seed: int, trial: int) -> random.Random:
    # not seeded on r: the points for r + 1 extend the points for r
    return random.Random(f"terracini:{spec}:{seed}:{trial}")


class _Trial:
    """One trial's points and the echelon form mod WORD_PRIME of their tangent rows."""

    def __init__(self, spec: VarietySpec, seed: int, trial: int):
        self.spec = spec
        self.rng = _trial_rng(spec, seed, trial)
        self.ambient = ambient_affine_dim(spec)
        self.echelon = EchelonModP(self.ambient, WORD_PRIME)
        self.ranks = [0]  # ranks[r]: the rank after the first r points

    def rank(self, r: int) -> int:
        while len(self.ranks) <= r:
            if self.ranks[-1] < self.ambient:  # once saturated, more points change nothing
                self.echelon.extend(affine_tangent_basis(self.spec, sample_params(self.spec, self.rng)))
            self.ranks.append(self.echelon.rank)
        return self.ranks[r]


def _cell(spec: VarietySpec, r: int, ambient: int, states: Sequence[_Trial]) -> SecantReport:
    """The report of cell r from the ranks of the trials at their first r points."""
    expected = min(r * cone_dim(spec), ambient)
    computed = 0
    for state in states:
        rank = state.rank(r)
        if rank > expected:
            raise TensorlabError(
                f"Terracini rank {rank} exceeds the expected dimension {expected};"
                " this is a bug"
            )
        computed = max(computed, rank)
        if computed == expected:
            break
    return SecantReport(str(spec), r, ambient, computed, expected, expected - computed, len(states))


def _trials(spec: VarietySpec, trials: int, seed: int, r_max: Optional[int] = None) -> tuple[int, list[_Trial]]:
    """The ambient dimension, checked against the caps, and one fresh state per trial.

    A trial of rank k holds a k x (N - k) int64 tail, and the trial being
    extended also holds its new tail and the two limb products of
    `_matmul_mod_p`, each at most that size.  k reaches N, or r_max times
    the cone dimension for cells up to r_max, and k (N - k) peaks at
    k = N / 2, so (trials + 3) such blocks bound the memory; it is checked
    against MEMORY_CAP before any point is drawn.
    """
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    # only one-variable factors reach such degrees: sym_dim(n, d) > d for n >= 2
    degree = max(spec.degrees, default=0)
    if degree > AMBIENT_CAP:
        raise CapExceeded(f"degree {degree} exceeds the cap {AMBIENT_CAP}")
    ambient = ambient_affine_dim(spec)
    if ambient > AMBIENT_CAP:
        raise CapExceeded(f"ambient dimension {ambient} exceeds the cap {AMBIENT_CAP}")
    k = min(ambient if r_max is None else r_max * cone_dim(spec), ambient // 2)
    memory = (trials + 3) * k * (ambient - k) * 8
    if memory > MEMORY_CAP:
        raise CapExceeded(
            f"Terracini echelon forms estimated at {memory} bytes ({trials} trials + 3 products "
            f"of {k} x {ambient - k} int64), over the cap of {MEMORY_CAP} bytes"
        )
    return ambient, [_Trial(spec, seed, trial) for trial in range(trials)]


def secant_dimension(spec: VarietySpec, r: int, trials: int = 3, seed: int = 0) -> SecantReport:
    """Dimension of the affine cone over the r-th secant variety of X.

    Trial t ranks the tangent rows at its first r points modulo WORD_PRIME.
    Each trial's rank is a certified lower bound on the secant dimension, so
    the maximum over the trials is too, and it is exact when it equals
    expected_affine_dim.  The trials run in order and stop at the first one
    that reaches expected_affine_dim, which then is the maximum over all of
    them; `trials` in the report is the number requested.
    """
    if r < 1:
        raise ValidationError("r must be >= 1")
    ambient, states = _trials(spec, trials, seed, r)
    return _cell(spec, r, ambient, states)


def scan(
    spec: VarietySpec,
    trials: int,
    seed: int,
    r_max: Optional[int] = None,
    known: Optional[dict[int, int]] = None,
) -> Iterator[SecantReport]:
    """Yield the report of each cell r = 1, 2, ... as soon as it is computed,
    through the first cell that fills the ambient space, or through r_max.

    The scan owns one state per trial, so each cell adds one point to every
    trial it runs instead of starting over; the reports are those of
    secant_dimension.  `known` maps r to the computed dimension of a cell
    already on record, such as a cell read back from an output file: that
    cell is neither computed nor yielded, but its dimension still decides
    whether the scan has saturated.
    """
    if r_max is not None and r_max < 1:
        raise ValidationError("r_max must be >= 1")
    ambient, states = _trials(spec, trials, seed, r_max)
    known = known or {}
    r = 1
    while r_max is None or r <= r_max:
        if r in known:
            computed = known[r]
        else:
            report = _cell(spec, r, ambient, states)
            computed = report.computed_affine_dim
            yield report
        if computed == ambient:
            return
        if r > ambient:
            raise TensorlabError("secant dimensions failed to saturate; this is a bug")
        r += 1


def generic_rank(spec: VarietySpec, trials: int = 3, seed: int = 0) -> GenericRankResult:
    """Smallest r whose secant variety fills the ambient space.

    The returned profile carries the full defect data for all r up to and
    including the generic rank.
    """
    profile = tuple(scan(spec, trials, seed))
    return GenericRankResult(profile[-1].r, profile)


def defect_scan(
    specs: Sequence[VarietySpec],
    r_max: Optional[int] = None,
    trials: int = 3,
    seed: int = 0,
) -> list[SecantReport]:
    """Secant reports for every (variety, r) cell of the family: the scan of
    each variety, from r = 1 to saturation (or to r_max if given)."""
    return [report for spec in specs for report in scan(spec, trials, seed, r_max)]
