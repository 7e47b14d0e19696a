"""Exact arithmetic in the real field Q(sqrt2, sqrt3).

Every amplitude and gate entry in this package lives in the degree-4
extension Q(sqrt2, sqrt3) with basis {1, sqrt2, sqrt3, sqrt6}.  An element
is stored as four exact rationals (q1, q2, q3, q6) meaning

    q1 + q2*sqrt(2) + q3*sqrt(3) + q6*sqrt(6).

Rationals are `fractions.Fraction`, so components are always in canonical
form (gcd-reduced, positive denominator) and structural equality is
semantic equality.  A rational element also equals, and hashes like, the
int or Fraction it embeds, so ``ExtScalar(1) == 1``.  All operations are
pure; instances are immutable and hashable.

The common printed coefficients map to single components, e.g.
1/sqrt(6) == sqrt(6)/6 is stored as q6 = 1/6, and 1/(2*sqrt(3)) ==
sqrt(3)/6 as q3 = 1/6.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

RationalLike = Union[int, Fraction]

_SQRT2_F = 1.4142135623730951
_SQRT3_F = 1.7320508075688772
_SQRT6_F = 2.449489742783178

_RATIONAL_RE = re.compile(r"^-?\d+/0*[1-9]\d*$")


def _frac(x: RationalLike) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


@dataclass(frozen=True, eq=False)
class ExtScalar:
    """q1 + q2*sqrt2 + q3*sqrt3 + q6*sqrt6 with exact rational components."""

    q1: Fraction = Fraction(0)
    q2: Fraction = Fraction(0)
    q3: Fraction = Fraction(0)
    q6: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        for name in ("q1", "q2", "q3", "q6"):
            object.__setattr__(self, name, _frac(getattr(self, name)))

    # -- equality --------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ExtScalar):
            return (
                self.q1 == other.q1
                and self.q2 == other.q2
                and self.q3 == other.q3
                and self.q6 == other.q6
            )
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.q1 == other
        return NotImplemented

    def __hash__(self) -> int:
        if self.is_rational():
            return hash(self.q1)
        return hash((self.q1, self.q2, self.q3, self.q6))

    # -- ring operations -------------------------------------------------

    def __add__(self, other: "ExtScalar") -> "ExtScalar":
        if not isinstance(other, ExtScalar):
            return NotImplemented
        return ExtScalar(
            self.q1 + other.q1,
            self.q2 + other.q2,
            self.q3 + other.q3,
            self.q6 + other.q6,
        )

    def __sub__(self, other: "ExtScalar") -> "ExtScalar":
        if not isinstance(other, ExtScalar):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "ExtScalar":
        return ExtScalar(-self.q1, -self.q2, -self.q3, -self.q6)

    def __mul__(self, other: Union["ExtScalar", RationalLike]) -> "ExtScalar":
        if isinstance(other, (int, Fraction)):
            r = _frac(other)
            return ExtScalar(self.q1 * r, self.q2 * r, self.q3 * r, self.q6 * r)
        if not isinstance(other, ExtScalar):
            return NotImplemented
        a1, a2, a3, a6 = self.q1, self.q2, self.q3, self.q6
        b1, b2, b3, b6 = other.q1, other.q2, other.q3, other.q6
        # sqrt2*sqrt3 = sqrt6, sqrt2*sqrt6 = 2*sqrt3, sqrt3*sqrt6 = 3*sqrt2
        return ExtScalar(
            a1 * b1 + 2 * a2 * b2 + 3 * a3 * b3 + 6 * a6 * b6,
            a1 * b2 + a2 * b1 + 3 * (a3 * b6 + a6 * b3),
            a1 * b3 + a3 * b1 + 2 * (a2 * b6 + a6 * b2),
            a1 * b6 + a6 * b1 + a2 * b3 + a3 * b2,
        )

    __rmul__ = __mul__

    def __truediv__(self, other: Union["ExtScalar", RationalLike]) -> "ExtScalar":
        if isinstance(other, (int, Fraction)):
            r = _frac(other)
            if r == 0:
                raise ZeroDivisionError("division by zero rational")
            return self * (1 / r)
        if not isinstance(other, ExtScalar):
            return NotImplemented
        return self * other.inverse()

    def inverse(self) -> "ExtScalar":
        """Exact multiplicative inverse.

        Rationalizes by multiplying through the three nontrivial Galois
        conjugates (sign flips on sqrt2 and/or sqrt3); their product with
        self is a plain rational.
        """
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero ExtScalar")
        c2 = ExtScalar(self.q1, -self.q2, self.q3, -self.q6)
        c3 = ExtScalar(self.q1, self.q2, -self.q3, -self.q6)
        c23 = ExtScalar(self.q1, -self.q2, -self.q3, self.q6)
        numer = c2 * c3 * c23
        norm = self * numer
        if not norm.is_rational():
            raise ArithmeticError(f"field norm of {self} is not rational: {norm}")
        return numer * (1 / norm.q1)

    # -- predicates and conversions ---------------------------------------

    def is_zero(self) -> bool:
        return self.q1 == 0 and self.q2 == 0 and self.q3 == 0 and self.q6 == 0

    def is_rational(self) -> bool:
        return self.q2 == 0 and self.q3 == 0 and self.q6 == 0

    def __float__(self) -> float:
        return (
            float(self.q1)
            + float(self.q2) * _SQRT2_F
            + float(self.q3) * _SQRT3_F
            + float(self.q6) * _SQRT6_F
        )

    def __str__(self) -> str:
        parts = []
        for coeff, surd in (
            (self.q1, ""),
            (self.q2, "√2"),
            (self.q3, "√3"),
            (self.q6, "√6"),
        ):
            if coeff == 0:
                continue
            sign = "-" if coeff < 0 else "+"
            mag = abs(coeff)
            if surd and mag == 1:
                body = surd
            elif surd:
                body = f"{mag}·{surd}"
            else:
                body = f"{mag}"
            parts.append((sign, body))
        if not parts:
            return "0"
        first_sign, first_body = parts[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            out += f" {sign} {body}"
        return out

    def __repr__(self) -> str:
        return f"ExtScalar({self})"

    # -- JSON wire form ---------------------------------------------------

    def to_json_obj(self) -> dict:
        """Canonical JSON object: four "p/q" strings."""
        return {
            "q1": _frac_str(self.q1),
            "q2": _frac_str(self.q2),
            "q3": _frac_str(self.q3),
            "q6": _frac_str(self.q6),
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "ExtScalar":
        comps = []
        for key in ("q1", "q2", "q3", "q6"):
            raw = obj[key]
            if not isinstance(raw, str) or not _RATIONAL_RE.match(raw):
                raise ValueError(f"malformed rational literal for {key}: {raw!r}")
            comps.append(Fraction(raw))
        return cls(*comps)


def _frac_str(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def rational(p: int, q: int = 1) -> ExtScalar:
    """The rational p/q as a field element."""
    return ExtScalar(Fraction(p, q))


ZERO = ExtScalar()
ONE = rational(1)
SQRT2 = ExtScalar(q2=Fraction(1))
SQRT3 = ExtScalar(q3=Fraction(1))
SQRT6 = ExtScalar(q6=Fraction(1))

# Reciprocal surds, pre-rationalized: 1/sqrt(n) = sqrt(n)/n.
INV_SQRT2 = ExtScalar(q2=Fraction(1, 2))
INV_SQRT3 = ExtScalar(q3=Fraction(1, 3))
INV_SQRT6 = ExtScalar(q6=Fraction(1, 6))
