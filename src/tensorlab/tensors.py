"""Dense tensors, flattenings, and rank-one constructions.

Index order is row-major with the last factor index fastest; every file
format and flattening in the package uses this order, so results are
bit-for-bit reproducible.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import rings
from .errors import ValidationError
from .linalg import Matrix, _object_array
from .rings import RATIONAL, Ring

MAX_FACTORS = 12


def _check_shape(shape: Sequence[int]):
    if len(shape) == 0:
        raise ValidationError("empty shape")
    if len(shape) > MAX_FACTORS:
        raise ValidationError(f"more than {MAX_FACTORS} tensor factors")
    if any(d < 1 for d in shape):
        raise ValidationError("factor dimensions must be >= 1")


@dataclass(frozen=True)
class DenseTensor:
    """Flat row-major dense tensor over a single ring."""

    shape: tuple[int, ...]
    data: tuple
    ring: Ring

    def __post_init__(self):
        _check_shape(self.shape)
        if len(self.data) != math.prod(self.shape):
            raise ValidationError("data length does not match shape")

    @property
    def order(self) -> int:
        return len(self.shape)

    def strides(self) -> tuple[int, ...]:
        out = [1] * len(self.shape)
        for i in range(len(self.shape) - 2, -1, -1):
            out[i] = out[i + 1] * self.shape[i + 1]
        return tuple(out)

    def __getitem__(self, idx: tuple[int, ...]):
        return self.data[flat_index(self.shape, idx)]

    def is_zero(self) -> bool:
        return all(rings.is_zero(a, self.ring) for a in self.data)

    def __add__(self, other: "DenseTensor") -> "DenseTensor":
        if self.shape != other.shape or self.ring != other.ring:
            raise ValidationError("shape/ring mismatch in tensor addition")
        data = tuple(rings.reduce(a + b, self.ring) for a, b in zip(self.data, other.data))
        return DenseTensor(self.shape, data, self.ring)

    def __sub__(self, other: "DenseTensor") -> "DenseTensor":
        if self.shape != other.shape or self.ring != other.ring:
            raise ValidationError("shape/ring mismatch in tensor subtraction")
        data = tuple(rings.reduce(a - b, self.ring) for a, b in zip(self.data, other.data))
        return DenseTensor(self.shape, data, self.ring)

    def scale(self, c) -> "DenseTensor":
        c = rings.coerce(c, self.ring)
        return DenseTensor(self.shape, tuple(rings.reduce(c * a, self.ring) for a in self.data), self.ring)


def flat_index(shape: Sequence[int], idx: Sequence[int]) -> int:
    if len(idx) != len(shape):
        raise ValidationError("multi-index length mismatch")
    flat = 0
    for d, i in zip(shape, idx):
        if not 0 <= i < d:
            raise ValidationError(f"index {i} out of range for dim {d}")
        flat = flat * d + i
    return flat


def multi_indices(shape: Sequence[int]):
    """All multi-indices in row-major order (last index fastest)."""
    return itertools.product(*(range(d) for d in shape))


def zeros(shape: Sequence[int], ring: Ring = RATIONAL) -> DenseTensor:
    _check_shape(shape)
    return DenseTensor(tuple(shape), (rings.zero(ring),) * math.prod(shape), ring)


@dataclass(frozen=True)
class Bipartition:
    """Split of the factor positions into a nonempty left part and its complement."""

    left: tuple[int, ...]
    right: tuple[int, ...]

    @staticmethod
    def of(left: Sequence[int], order: int) -> "Bipartition":
        left_sorted = tuple(sorted(set(left)))
        if not left_sorted or len(left_sorted) == order:
            raise ValidationError("bipartition parts must both be nonempty")
        if any(not 0 <= p < order for p in left_sorted):
            raise ValidationError("bipartition positions out of range")
        right = tuple(p for p in range(order) if p not in left_sorted)
        return Bipartition(left_sorted, right)


def outer(vectors: Sequence[Sequence]) -> tuple:
    """Flat outer product of the vectors in row-major order (last fastest);
    plain products, no reduction."""
    flat = vectors[0]
    for v in vectors[1:]:
        flat = [a * b for a in flat for b in v]
    return tuple(flat)


def rank_one(vectors: Sequence[Sequence], ring: Ring = RATIONAL) -> DenseTensor:
    """Outer product v1 x ... x vn; every factor must be a nonzero vector."""
    vecs = [[rings.coerce(x, ring) for x in v] for v in vectors]
    shape = tuple(len(v) for v in vecs)
    _check_shape(shape)
    for v in vecs:
        if all(rings.is_zero(x, ring) for x in v):
            raise ValidationError("zero factor vector is not a projective point")
    return DenseTensor(shape, tuple(rings.reduce(x, ring) for x in outer(vecs)), ring)


def veronese_point(v: Sequence, d: int, ring: Ring = RATIONAL) -> DenseTensor:
    """The d-th tensor power of a single vector (a symmetric rank-one point)."""
    if d < 1:
        raise ValidationError("degree must be >= 1")
    return rank_one([v] * d, ring)


def flatten(t: DenseTensor, b: Bipartition) -> Matrix:
    """Matrix of the tensor regrouped by the bipartition.

    Rows enumerate the left multi-indices in row-major order over ascending
    factor positions; columns do the same for the complement.  Entries are
    moved by one axis permutation, no arithmetic happens.
    """
    if tuple(sorted(b.left + b.right)) != tuple(range(t.order)):
        raise ValidationError("bipartition does not match tensor order")
    rows = math.prod(t.shape[p] for p in b.left)
    moved = _object_array(t.data, t.shape).transpose(b.left + b.right).ravel().tolist()
    return Matrix(rows, len(moved) // rows, tuple(moved), t.ring)


def is_symmetric(t: DenseTensor) -> bool:
    """True iff entries are invariant under adjacent factor transpositions."""
    dims = set(t.shape)
    if len(dims) != 1:
        raise ValidationError("symmetry needs equal factor dimensions")
    a = _object_array(t.data, t.shape)
    return all((a == a.swapaxes(k, k + 1)).all() for k in range(t.order - 1))


def braid(t: DenseTensor, perm: Sequence[int]) -> DenseTensor:
    """Permute tensor factors: new factor j is old factor perm[j] (0-based)."""
    if sorted(perm) != list(range(t.order)):
        raise ValidationError(f"{tuple(perm)} is not a permutation of the factors")
    moved = _object_array(t.data, t.shape).transpose(perm)
    return DenseTensor(moved.shape, tuple(moved.ravel().tolist()), t.ring)


def mode_apply(t: DenseTensor, pos: int, m: Matrix) -> DenseTensor:
    """Apply a matrix to factor pos: contracts m's columns against that index."""
    if m.ring != t.ring:
        raise ValidationError("ring mismatch in mode_apply")
    if m.cols != t.shape[pos]:
        raise ValidationError("matrix columns must match the factor dimension")
    new_shape = tuple(m.rows if p == pos else d for p, d in enumerate(t.shape))
    out = zeros(new_shape, t.ring)
    data = list(out.data)
    strides_new = out.strides()
    for idx in multi_indices(t.shape):
        v = t[idx]
        if rings.is_zero(v, t.ring):
            continue
        base = sum(s * i for p, (s, i) in enumerate(zip(strides_new, idx)) if p != pos)
        k = idx[pos]
        for r in range(m.rows):
            coef = m.entries[r * m.cols + k]
            if not rings.is_zero(coef, t.ring):
                j = base + strides_new[pos] * r
                data[j] += coef * v
    return DenseTensor(new_shape, tuple(rings.reduce(x, t.ring) for x in data), t.ring)


def to_ring(t: DenseTensor, ring: Ring) -> DenseTensor:
    """Recast entries into another ring (rational -> fp reduces mod p)."""
    if ring.kind == "fp":
        data = []
        for x in t.data:
            if isinstance(x, Fraction):
                if x.denominator % ring.p == 0:
                    raise ValidationError("denominator not invertible mod p")
                data.append(x.numerator * pow(x.denominator, -1, ring.p) % ring.p)
            elif isinstance(x, float) and not x.is_integer():
                raise ValidationError(f"float entry {x} is not an integer, so it has no image in F_{ring.p}")
            else:
                data.append(int(x) % ring.p)
        return DenseTensor(t.shape, tuple(data), ring)
    return DenseTensor(t.shape, tuple(rings.coerce(x, ring) for x in t.data), ring)


# ---------------------------------------------------------------------------
# tensor text format
#
#   line 1: "tensor v1"
#   line 2: space-separated factor dims
#   line 3: ring tag: "rational" | "fp <p>" | "float"
#   line 4+: whitespace-separated entries in row-major order
# ---------------------------------------------------------------------------

def dumps_tensor(t: DenseTensor) -> str:
    head = [
        "tensor v1",
        " ".join(str(d) for d in t.shape),
        str(t.ring),
    ]
    body = " ".join(rings.format_scalar(x, t.ring) for x in t.data)
    return "\n".join(head) + "\n" + body + "\n"


def loads_tensor(text: str) -> DenseTensor:
    lines = text.splitlines()
    if len(lines) < 4 or lines[0].strip() != "tensor v1":
        raise ValidationError('tensor file must start with "tensor v1"')
    try:
        shape = tuple(int(x) for x in lines[1].split())
    except ValueError as exc:
        raise ValidationError("bad dims line in tensor file") from exc
    ring = rings.parse_ring(lines[2])
    tokens = " ".join(lines[3:]).split()
    data = tuple(rings.parse_scalar(tok, ring) for tok in tokens)
    return DenseTensor(shape, data, ring)
