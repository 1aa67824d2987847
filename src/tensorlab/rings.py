"""Scalar rings: exact rationals, prime fields F_p, and double floats.

A ring is a small tag object attached to every matrix/tensor; scalar values
themselves are plain Python objects (int/Fraction for rationals, int in
[0, p) for F_p, float for the float ring).  Keeping scalars unboxed makes
the exact algorithms fast enough at desk scale.

Arithmetic convention: loops compute with Python's own operators, in every
ring, and call `reduce` once per value they store or return; only over F_p
does that do anything (delayed modular reduction, as in Dumas-Giorgi-Pernet's
FFLAS/FFPACK).  `reduce` leaves rationals as they are: `Fraction(1)` stays a
Fraction, unlike under `coerce`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ValidationError

FP_MODULUS_CAP = 1 << 16


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for d in range(2, int(math.isqrt(n)) + 1):
        if n % d == 0:
            return False
    return True


@dataclass(frozen=True)
class Ring:
    """Tag for the scalar ring of a matrix or tensor.

    kind is one of "rational", "fp", "float"; p is the modulus for "fp"
    and None otherwise.
    """

    kind: str
    p: int | None = None

    def __post_init__(self):
        if self.kind not in ("rational", "fp", "float"):
            raise ValidationError(f"unknown ring kind {self.kind!r}")
        if self.kind == "fp":
            # the cap first: trial division of a huge modulus would not finish
            if self.p is not None and self.p >= FP_MODULUS_CAP:
                raise ValidationError(
                    f"F_p modulus {self.p} exceeds the cap {FP_MODULUS_CAP}"
                )
            if self.p is None or not is_prime(self.p):
                raise ValidationError(f"F_p modulus must be prime, got {self.p}")
        elif self.p is not None:
            raise ValidationError(f"ring {self.kind!r} takes no modulus")

    def __str__(self):
        return f"fp {self.p}" if self.kind == "fp" else self.kind


RATIONAL = Ring("rational")
FLOAT = Ring("float")


def fp(p: int) -> Ring:
    return Ring("fp", p)


def parse_ring(text: str) -> Ring:
    """Inverse of str(Ring): exactly "rational", "float" or "fp <p>"."""
    tag = str(text).split()
    if tag == ["rational"]:
        return RATIONAL
    if tag == ["float"]:
        return FLOAT
    if len(tag) == 2 and tag[0] == "fp" and tag[1].isdecimal():
        return fp(int(tag[1]))
    raise ValidationError(f"bad ring tag {text!r}")


def coerce(value, ring: Ring):
    """Coerce value into a canonical scalar of ring; raise if impossible."""
    if ring.kind == "rational":
        if isinstance(value, bool):
            raise ValidationError("bool is not a rational scalar")
        if isinstance(value, int):
            return value
        if isinstance(value, Fraction):
            return value if value.denominator != 1 else value.numerator
        raise ValidationError(f"not a rational scalar: {value!r}")
    if ring.kind == "fp":
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValidationError(f"not an F_p scalar: {value!r}")
        return value % ring.p
    # float ring
    v = float(value)
    if not math.isfinite(v):
        raise ValidationError(f"non-finite float entry: {value!r}")
    return v


def zero(ring: Ring):
    return 0.0 if ring.kind == "float" else 0


def one(ring: Ring):
    return 1.0 if ring.kind == "float" else 1


def reduce(x, ring: Ring):
    """x reduced mod p over F_p; unchanged over the other rings."""
    return x % ring.p if ring.kind == "fp" else x


def is_zero(a, ring: Ring) -> bool:
    if ring.kind == "fp":
        return a % ring.p == 0
    return a == 0


def format_scalar(a, ring: Ring) -> str:
    """Canonical text form: rationals as "p/q" or bare integers."""
    if ring.kind == "rational":
        if isinstance(a, Fraction) and a.denominator != 1:
            return f"{a.numerator}/{a.denominator}"
        return str(int(a))
    if ring.kind == "fp":
        return str(a % ring.p)
    return repr(float(a))


def parse_scalar(text: str, ring: Ring):
    text = text.strip()
    try:
        if ring.kind == "float":
            return coerce(float(text), ring)
        if "/" in text:
            num, den = text.split("/")
            value = Fraction(int(num), int(den))
        else:
            value = int(text)
        return coerce(value, ring)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"bad scalar token {text!r} for ring {ring}") from exc
