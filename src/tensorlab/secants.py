"""Secant-variety dimensions by Terracini's lemma.

The dimension of the affine cone over the r-th secant variety of X is the
rank of the stacked affine tangent spaces at r generic points.  A trial
draws its points with coordinates uniform in [0, p), p = linalg.WORD_PRIME,
and ranks their exact integer tangent rows modulo p.  This rank is a
certified lower bound: every entry of the Terracini matrix is an integer
polynomial in the coordinates, so a k x k minor that is nonzero mod p at an
F_p point is a nonzero polynomial over Z, and the rank over Q at a generic
point is at least k.  By Schwartz-Zippel a trial falls short of the generic
rank with probability at most about deg/p, where deg, the degree of a
maximal minor, is at most the number of rows times the degree of the
parametrization (the bound holds outright when p does not divide every
coefficient of that minor).  The maximum over a few seeded trials is
therefore a certified lower bound, exact when it reaches the expected
dimension.

Each trial's points are seeded on the variety, seed and trial but not on r,
so the points for r + 1 extend those for r.  A trial keeps one echelon form
of its tangent rows mod p and adds one point to it per cell, and a cell
stops at the first trial that reaches the expected dimension: more trials
cannot raise the maximum.  Supported varieties: Segre, Veronese,
Segre-Veronese, subspace (Tucker) and symmetric subspace varieties.  Segre
and Veronese varieties are treated as Segre-Veronese varieties: a Segre
variety has every degree 1 and a Veronese variety has a single factor.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .errors import CapExceeded, TensorlabError, ValidationError
from .linalg import WORD_PRIME, EchelonModP, Matrix
from .rings import RATIONAL
from .tensors import DenseTensor, mode_apply, multi_indices, outer

AMBIENT_CAP = 20000
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
    """Degree-d exponent tuples in nvars variables, lex-descending."""
    if nvars == 1:
        return [(degree,)]
    out = []
    for e in range(degree, -1, -1):
        out.extend((e,) + tail for tail in exponents(nvars - 1, degree - e))
    return out


def multinomial(d: int, alpha: Sequence[int]) -> int:
    out = math.factorial(d)
    for a in alpha:
        out //= math.factorial(a)
    return out


def sym_dim(n: int, d: int) -> int:
    return math.comb(n + d - 1, d)


def _power_coeff_vector(v: Sequence[int], d: int, exps: list[tuple[int, ...]], drop: Optional[int] = None):
    """Coefficients of l_v^d (or l_v^(d-1) * x_drop when drop is given)."""
    out = []
    for alpha in exps:
        if drop is None:
            c = multinomial(d, alpha)
            for vi, a in zip(v, alpha):
                c *= vi**a
        else:
            if alpha[drop] == 0:
                out.append(0)
                continue
            beta = list(alpha)
            beta[drop] -= 1
            c = multinomial(d - 1, beta)
            for vi, a in zip(v, beta):
                c *= vi**a
        out.append(c)
    return out


# dense multivariate polynomials as {exponent tuple: coefficient}

def _poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = out.get(key, 0) + ca * cb
    return {k: v for k, v in out.items() if v != 0}


def _poly_pow(a: dict, k: int, nvars: int) -> dict:
    out = {(0,) * nvars: 1}
    for _ in range(k):
        out = _poly_mul(out, a)
    return out


def _linear_form(coeffs: Sequence[int], nvars: int) -> dict:
    out = {}
    for i, c in enumerate(coeffs):
        if c:
            e = [0] * nvars
            e[i] = 1
            out[tuple(e)] = c
    return out


def _poly_coeff_vector(poly: dict, exps: list[tuple[int, ...]]) -> list:
    return [poly.get(alpha, 0) for alpha in exps]


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


def _random_matrix_with_nonzero_columns(rng: random.Random, rows: int, cols: int) -> Matrix:
    col_vectors = [_random_vector(rng, rows) for _ in range(cols)]
    return Matrix.from_rows([[col_vectors[j][i] for j in range(cols)] for i in range(rows)], RATIONAL)


def sample_params(spec: VarietySpec, rng: random.Random):
    """Random point parameters with coordinates in [0, WORD_PRIME), nonzero per factor."""
    if spec.kind in SEGRE_VERONESE_KINDS:
        return [_random_vector(rng, d) for d in spec.dims]
    if spec.kind == "subspace":
        core_shape = spec.ranks
        for _ in range(RESAMPLE_LIMIT):
            core = DenseTensor(
                core_shape,
                tuple(rng.randrange(WORD_PRIME) for _ in range(math.prod(core_shape))),
                RATIONAL,
            )
            if not core.is_zero():
                break
        else:
            raise TensorlabError("failed to sample a nonzero core tensor")
        factors = [
            _random_matrix_with_nonzero_columns(rng, d, r)
            for d, r in zip(spec.dims, spec.ranks)
        ]
        return core, factors
    # sym_subspace: a degree-d core polynomial in r variables plus one factor map
    n, r, d = spec.dims[0], spec.ranks[0], spec.degrees[0]
    core_exps = exponents(r, d)
    for _ in range(RESAMPLE_LIMIT):
        core = {e: rng.randrange(WORD_PRIME) for e in core_exps}
        core = {e: c for e, c in core.items() if c}
        if core:
            break
    else:
        raise TensorlabError("failed to sample a nonzero core polynomial")
    factor = _random_matrix_with_nonzero_columns(rng, n, r)
    return core, factor


def affine_tangent_basis(spec: VarietySpec, params) -> list[tuple]:
    """Spanning set of the affine tangent space at the parametrized point."""
    if spec.kind in SEGRE_VERONESE_KINDS:
        return _segre_veronese_tangent(spec.dims, spec.degrees or (1,) * len(spec.dims), params)
    if spec.kind == "subspace":
        core, factors = params
        return _subspace_tangent(spec, core, factors)
    core, factor = params
    return _sym_subspace_tangent(spec, core, factor)


def _check_nonzero_vectors(vectors):
    for v in vectors:
        if not any(v):
            raise ValidationError("degenerate parameters: zero factor vector")


def _segre_veronese_tangent(dims, degrees, vectors) -> list[tuple]:
    _check_nonzero_vectors(vectors)
    exps_per_factor = [exponents(n, d) for n, d in zip(dims, degrees)]
    points = [
        _power_coeff_vector(v, d, exps)
        for v, d, exps in zip(vectors, degrees, exps_per_factor)
    ]
    out = []
    for pos, (n, d) in enumerate(zip(dims, degrees)):
        for j in range(n):
            parts = [
                _power_coeff_vector(vectors[q], degrees[q], exps_per_factor[q], drop=j)
                if q == pos
                else points[q]
                for q in range(len(dims))
            ]
            out.append(outer(parts))
    return out


def _subspace_tangent(spec: VarietySpec, core: DenseTensor, factors: list[Matrix]) -> list[tuple]:
    n_factors = len(spec.dims)
    out = []
    # core directions: products of one column per factor
    cols = [
        [[f.entries[i * f.cols + j] for i in range(f.rows)] for j in range(f.cols)]
        for f in factors
    ]
    for jidx in multi_indices(spec.ranks):
        vecs = [cols[q][jidx[q]] for q in range(n_factors)]
        if any(not any(v) for v in vecs):
            raise ValidationError("degenerate parameters: zero factor column")
        out.append(outer(vecs))
    # factor directions: Leibniz terms with one factor map replaced by E_kl
    for pos in range(n_factors):
        partial = core
        for q in range(n_factors):
            if q != pos:
                partial = mode_apply(partial, q, factors[q])
        d, r = spec.dims[pos], spec.ranks[pos]
        for k in range(d):
            for l in range(r):
                unit = Matrix(
                    d, r, tuple(1 if (i, j) == (k, l) else 0 for i in range(d) for j in range(r)), RATIONAL
                )
                out.append(mode_apply(partial, pos, unit).data)
    return out


def _sym_subspace_tangent(spec: VarietySpec, core: dict, factor: Matrix) -> list[tuple]:
    n, r, d = spec.dims[0], spec.ranks[0], spec.degrees[0]
    exps_n = exponents(n, d)
    forms = [
        _linear_form([factor.entries[i * r + l] for i in range(n)], n) for l in range(r)
    ]
    for l in range(r):
        if not forms[l]:
            raise ValidationError("degenerate parameters: zero factor column")
    out = []
    form_powers = [[_poly_pow(forms[l], k, n) for k in range(d + 1)] for l in range(r)]
    # core directions: substituted monomials of degree d in the r forms
    for beta in exponents(r, d):
        poly = {(0,) * n: 1}
        for l, b in enumerate(beta):
            if b:
                poly = _poly_mul(poly, form_powers[l][b])
        out.append(tuple(_poly_coeff_vector(poly, exps_n)))
    # factor directions: d/dA[k,l] of core(l_1, ..., l_r) = dg/dy_l (l) * x_k
    for l in range(r):
        dgdl: dict = {}
        for beta, c in core.items():
            if beta[l] == 0:
                continue
            poly = {(0,) * n: c * beta[l]}
            for q, b in enumerate(beta):
                k = b - 1 if q == l else b
                if k:
                    poly = _poly_mul(poly, form_powers[q][k])
            for e, cc in poly.items():
                dgdl[e] = dgdl.get(e, 0) + cc
        for k in range(n):
            xk = [0] * n
            xk[k] = 1
            shifted = _poly_mul(dgdl, {tuple(xk): 1}) if dgdl else {}
            out.append(tuple(_poly_coeff_vector(shifted, exps_n)))
    return out


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
        return {
            "variety": self.variety,
            "r": self.r,
            "ambient_affine_dim": self.ambient_affine_dim,
            "computed_affine_dim": self.computed_affine_dim,
            "expected_affine_dim": self.expected_affine_dim,
            "defect": self.defect,
            "trials": self.trials,
        }


@dataclass(frozen=True)
class GenericRankResult:
    rank: int
    profile: tuple[SecantReport, ...] = field(default_factory=tuple)


def _check_ambient(spec: VarietySpec) -> int:
    ambient = ambient_affine_dim(spec)
    if ambient > AMBIENT_CAP:
        raise CapExceeded(f"ambient dimension {ambient} exceeds the cap {AMBIENT_CAP}")
    return ambient


def _trial_rng(spec: VarietySpec, seed: int, trial: int) -> random.Random:
    # not seeded on r: the points for r + 1 extend the points for r
    return random.Random(f"terracini:{spec}:{seed}:{trial}")


def terracini_rows(spec: VarietySpec, r: int, seed: int, trial: int) -> list[tuple]:
    """One trial's Terracini matrix: exact tangent rows at its first r points.

    The oracle for the incremental trial state that secant_dimension ranks.
    """
    rng = _trial_rng(spec, seed, trial)
    rows = []
    for _ in range(r):
        rows.extend(affine_tangent_basis(spec, sample_params(spec, rng)))
    return rows


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


def secant_dimension(
    spec: VarietySpec, r: int, trials: int = 3, seed: int = 0, states: Optional[dict] = None
) -> SecantReport:
    """Dimension of the affine cone over the r-th secant variety of X.

    Trial t ranks the tangent rows at its first r points modulo WORD_PRIME.
    Each trial's rank is a certified lower bound on the secant dimension, so
    the maximum over the trials is too, and it is exact when it equals
    expected_affine_dim.  The trials run in order and stop at the first one
    that reaches expected_affine_dim, which then is the maximum over all of
    them; `trials` in the report is the number requested.  `states` keeps
    each trial's points and echelon form between calls: a scan that passes
    the same dict for every r adds one point per trial and cell instead of
    starting over.
    """
    if r < 1:
        raise ValidationError("r must be >= 1")
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    ambient = _check_ambient(spec)
    expected = min(r * cone_dim(spec), ambient)
    states = {} if states is None else states
    computed = 0
    for trial in range(trials):
        key = (spec, seed, trial)
        if key not in states:
            states[key] = _Trial(spec, seed, trial)
        rank = states[key].rank(r)
        if rank > expected:
            raise TensorlabError(
                f"Terracini rank {rank} exceeds the expected dimension {expected};"
                " this is a bug"
            )
        computed = max(computed, rank)
        if computed == expected:
            break
    return SecantReport(str(spec), r, ambient, computed, expected, expected - computed, trials)


def generic_rank(spec: VarietySpec, trials: int = 3, seed: int = 0) -> GenericRankResult:
    """Smallest r whose secant variety fills the ambient space.

    The returned profile carries the full defect data for all r up to and
    including the generic rank.
    """
    profile = defect_scan([spec], trials=trials, seed=seed)
    return GenericRankResult(profile[-1].r, tuple(profile))


def defect_scan(
    specs: Sequence[VarietySpec],
    r_max: Optional[int] = None,
    trials: int = 3,
    seed: int = 0,
) -> list[SecantReport]:
    """Secant reports for every (variety, r) cell of the family.

    For each variety, r runs from 1 to saturation (or to r_max if given).
    """
    reports = []
    for spec in specs:
        ambient = _check_ambient(spec)
        states: dict = {}
        r = 1
        while r_max is None or r <= r_max:
            report = secant_dimension(spec, r, trials=trials, seed=seed, states=states)
            reports.append(report)
            if report.computed_affine_dim == ambient:
                break
            if r > ambient:
                raise TensorlabError("secant dimensions failed to saturate; this is a bug")
            r += 1
    return reports
