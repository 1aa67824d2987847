"""The exact tangent-row builder the secants module once shipped, kept as a
test oracle: big-int monomial products for Segre-Veronese varieties, dict
polynomials for symmetric subspace varieties and rational `mode_apply` for
subspace varieties.  `exact_tangent_rows(spec, params)` returns the exact
integer rows, in the order `secants.affine_tangent_basis` returns their
residues mod WORD_PRIME.
"""

import math

from tensorlab.linalg import Matrix
from tensorlab.rings import RATIONAL
from tensorlab.secants import SEGRE_VERONESE_KINDS, exponents
from tensorlab.tensors import DenseTensor, mode_apply, multi_indices, outer


def multinomial(d, alpha):
    out = math.factorial(d)
    for a in alpha:
        out //= math.factorial(a)
    return out


def power_coeff_vector(v, d, exps, drop=None):
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

def poly_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = out.get(key, 0) + ca * cb
    return {k: v for k, v in out.items() if v != 0}


def poly_pow(a, k, nvars):
    out = {(0,) * nvars: 1}
    for _ in range(k):
        out = poly_mul(out, a)
    return out


def linear_form(coeffs, nvars):
    out = {}
    for i, c in enumerate(coeffs):
        if c:
            e = [0] * nvars
            e[i] = 1
            out[tuple(e)] = c
    return out


def poly_coeff_vector(poly, exps):
    return [poly.get(alpha, 0) for alpha in exps]


def segre_veronese_rows(dims, degrees, vectors):
    exps_per_factor = [exponents(n, d) for n, d in zip(dims, degrees)]
    points = [power_coeff_vector(v, d, exps) for v, d, exps in zip(vectors, degrees, exps_per_factor)]
    out = []
    for pos, n in enumerate(dims):
        for j in range(n):
            parts = [
                power_coeff_vector(vectors[q], degrees[q], exps_per_factor[q], drop=j) if q == pos else points[q]
                for q in range(len(dims))
            ]
            out.append(outer(parts))
    return out


def subspace_rows(spec, core, factors):
    core = DenseTensor(tuple(spec.ranks), tuple(int(x) for x in core.flat), RATIONAL)
    factors = [Matrix.from_rows([[int(x) for x in row] for row in f], RATIONAL) for f in factors]
    n_factors = len(spec.dims)
    out = []
    cols = [[[f.entries[i * f.cols + j] for i in range(f.rows)] for j in range(f.cols)] for f in factors]
    for jidx in multi_indices(spec.ranks):
        out.append(outer([cols[q][jidx[q]] for q in range(n_factors)]))
    for pos in range(n_factors):
        partial = core
        for q in range(n_factors):
            if q != pos:
                partial = mode_apply(partial, q, factors[q])
        d, r = spec.dims[pos], spec.ranks[pos]
        for k in range(d):
            for l in range(r):
                unit = Matrix(d, r, tuple(int((i, j) == (k, l)) for i in range(d) for j in range(r)), RATIONAL)
                out.append(mode_apply(partial, pos, unit).data)
    return out


def sym_subspace_rows(spec, core, factor):
    n, r, d = spec.dims[0], spec.ranks[0], spec.degrees[0]
    core = {beta: int(c) for beta, c in zip(exponents(r, d), core) if c}
    exps_n = exponents(n, d)
    forms = [linear_form([int(factor[i][l]) for i in range(n)], n) for l in range(r)]
    form_powers = [[poly_pow(forms[l], k, n) for k in range(d + 1)] for l in range(r)]
    out = []
    for beta in exponents(r, d):
        poly = {(0,) * n: 1}
        for l, b in enumerate(beta):
            if b:
                poly = poly_mul(poly, form_powers[l][b])
        out.append(tuple(poly_coeff_vector(poly, exps_n)))
    for l in range(r):
        dgdl = {}
        for beta, c in core.items():
            if beta[l] == 0:
                continue
            poly = {(0,) * n: c * beta[l]}
            for q, b in enumerate(beta):
                k = b - 1 if q == l else b
                if k:
                    poly = poly_mul(poly, form_powers[q][k])
            for e, cc in poly.items():
                dgdl[e] = dgdl.get(e, 0) + cc
        for k in range(n):
            xk = tuple(int(i == k) for i in range(n))
            shifted = poly_mul(dgdl, {xk: 1}) if dgdl else {}
            out.append(tuple(poly_coeff_vector(shifted, exps_n)))
    return out


def exact_tangent_rows(spec, params):
    """Exact integer tangent rows at the point with these parameters."""
    if spec.kind in SEGRE_VERONESE_KINDS:
        return segre_veronese_rows(spec.dims, spec.degrees or (1,) * len(spec.dims), params)
    if spec.kind == "subspace":
        return subspace_rows(spec, *params)
    return sym_subspace_rows(spec, *params)
