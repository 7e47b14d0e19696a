"""Exact arithmetic in the real field Q(sqrt2, sqrt3).

Every amplitude and gate entry in this package lives in the degree-4
extension Q(sqrt2, sqrt3) with basis {1, sqrt2, sqrt3, sqrt6}.  An element
is stored as four int numerators over one int denominator,
(n1 + n2*sqrt(2) + n3*sqrt(3) + n6*sqrt(6)) / d, in canonical form:
gcd(n1, n2, n3, n6, d) == 1 and d > 0 (zero is (0, 0, 0, 0, 1)), so
structural equality is semantic equality.  Its components q1 = n1/d, ...,
q6 = n6/d read as `fractions.Fraction`s.  A rational element equals, and
hashes like, the int or Fraction it embeds, so ``ExtScalar(1) == 1``.
All operations are pure; instances are immutable and hashable.  This
module is field arithmetic only: the "p/q" JSON wire form of an element
lives in `serialize` (`scalar_to_obj`, `scalar_from_obj`).

The common printed coefficients map to single components, e.g.
1/sqrt(6) == sqrt(6)/6 is stored as q6 = 1/6, and 1/(2*sqrt(3)) ==
sqrt(3)/6 as q3 = 1/6.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

_SQRT2_F = 1.4142135623730951
_SQRT3_F = 1.7320508075688772
_SQRT6_F = 2.449489742783178


def _ratio(x: int | Fraction) -> tuple:
    """(numerator, denominator) of an int or Fraction."""
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    if isinstance(x, int):
        return x, 1
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


def _raw(n: tuple) -> "ExtScalar":
    """An element from a (n1, n2, n3, n6, d) tuple already in canonical form."""
    x = object.__new__(ExtScalar)
    object.__setattr__(x, "_n", n)
    return x


def _reduced(n1: int, n2: int, n3: int, n6: int, d: int) -> "ExtScalar":
    """An element from numerators over a positive denominator, in lowest terms."""
    g = gcd(n1, n2, n3, n6, d)
    if g == 1:
        return _raw((n1, n2, n3, n6, d))
    return _raw((n1 // g, n2 // g, n3 // g, n6 // g, d // g))


def _dot(xs, ys) -> "ExtScalar":
    """sum(x * y for x, y in zip(xs, ys)), reduced once.

    The field's one multiplication table: `ExtScalar.__mul__` is the
    one-term sum, and every product-sum of the package comes here (matrix
    products, `Operator3.frobenius`, the adjugate and determinant, the Gram
    matrices of `linalg._gram` and the residuals in `engine`).  Products are
    summed as integer numerators over the lcm of their denominators, and
    zero factors are skipped, so a sum gcd-reduces one element only.
    """
    s1 = s2 = s3 = s6 = 0
    d = 1
    for x, y in zip(xs, ys):
        a1, a2, a3, a6, da = x._n
        b1, b2, b3, b6, db = y._n
        if not (a1 or a2 or a3 or a6) or not (b1 or b2 or b3 or b6):
            continue
        e = da * db
        if d % e:
            f = lcm(d, e) // d
            s1, s2, s3, s6, d = s1 * f, s2 * f, s3 * f, s6 * f, d * f
        f = d // e
        # sqrt2*sqrt3 = sqrt6, sqrt2*sqrt6 = 2*sqrt3, sqrt3*sqrt6 = 3*sqrt2
        s1 += f * (a1 * b1 + 2 * a2 * b2 + 3 * a3 * b3 + 6 * a6 * b6)
        s2 += f * (a1 * b2 + a2 * b1 + 3 * (a3 * b6 + a6 * b3))
        s3 += f * (a1 * b3 + a3 * b1 + 2 * (a2 * b6 + a6 * b2))
        s6 += f * (a1 * b6 + a6 * b1 + a2 * b3 + a3 * b2)
    return _reduced(s1, s2, s3, s6, d)


class ExtScalar:
    """q1 + q2*sqrt2 + q3*sqrt3 + q6*sqrt6 with exact rational components."""

    __slots__ = ("_n",)

    def __init__(self, q1=0, q2=0, q3=0, q6=0) -> None:
        parts = [_ratio(q) for q in (q1, q2, q3, q6)]
        d = lcm(*(den for _, den in parts))
        numerators = (num * (d // den) for num, den in parts)
        object.__setattr__(self, "_n", _reduced(*numerators, d)._n)

    def __setattr__(self, name, *_):
        raise AttributeError(f"cannot assign to field {name!r}: ExtScalar is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return _raw, (self._n,)

    q1 = property(lambda self: Fraction(self._n[0], self._n[4]))
    q2 = property(lambda self: Fraction(self._n[1], self._n[4]))
    q3 = property(lambda self: Fraction(self._n[2], self._n[4]))
    q6 = property(lambda self: Fraction(self._n[3], self._n[4]))

    def _fractions(self) -> tuple:
        return tuple(Fraction(n, self._n[4]) for n in self._n[:4])

    # -- equality --------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ExtScalar):
            return self._n == other._n
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and _ratio(other) == (self._n[0], self._n[4])
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.q1) if self.is_rational() else hash(self._fractions())

    # -- ring operations -------------------------------------------------

    def __add__(self, other: "ExtScalar") -> "ExtScalar":
        if not isinstance(other, ExtScalar):
            return NotImplemented
        a1, a2, a3, a6, da = self._n
        b1, b2, b3, b6, db = other._n
        if da == db:
            return _reduced(a1 + b1, a2 + b2, a3 + b3, a6 + b6, da)
        return _reduced(
            a1 * db + b1 * da, a2 * db + b2 * da, a3 * db + b3 * da, a6 * db + b6 * da, da * db
        )

    def __sub__(self, other: "ExtScalar") -> "ExtScalar":
        if not isinstance(other, ExtScalar):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "ExtScalar":
        n1, n2, n3, n6, d = self._n
        return _raw((-n1, -n2, -n3, -n6, d))

    def __mul__(self, other: ExtScalar | int | Fraction) -> "ExtScalar":
        if isinstance(other, ExtScalar):
            return _dot((self,), (other,))
        if isinstance(other, (int, Fraction)):
            p, q = _ratio(other)
            a1, a2, a3, a6, da = self._n
            return _reduced(a1 * p, a2 * p, a3 * p, a6 * p, da * q)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other: ExtScalar | int | Fraction) -> "ExtScalar":
        if isinstance(other, (int, Fraction)):
            p, q = _ratio(other)
            if p == 0:
                raise ZeroDivisionError("division by zero rational")
            return self * Fraction(q, p)
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
        n1, n2, n3, n6, d = self._n
        c2 = _raw((n1, -n2, n3, -n6, d))
        c3 = _raw((n1, n2, -n3, -n6, d))
        c23 = _raw((n1, -n2, -n3, n6, d))
        numer = c2 * c3 * c23
        norm = self * numer
        if not norm.is_rational():
            raise ArithmeticError(f"field norm of {self} is not rational: {norm}")
        return numer * (1 / norm.q1)

    # -- predicates and conversions ---------------------------------------

    def is_zero(self) -> bool:
        return self._n == (0, 0, 0, 0, 1)

    def is_rational(self) -> bool:
        return not (self._n[1] or self._n[2] or self._n[3])

    def __float__(self) -> float:
        n1, n2, n3, n6, d = self._n
        # int true division is correctly rounded, like float(Fraction(n, d))
        return n1 / d + n2 / d * _SQRT2_F + n3 / d * _SQRT3_F + n6 / d * _SQRT6_F

    def __str__(self) -> str:
        text = ""
        for sign, mag, surd in _signed_terms(self, ("", "√2", "√3", "√6")):
            body = surd if surd and mag == 1 else f"{mag}·{surd}" if surd else f"{mag}"
            text += f" {sign} {body}"
        if not text:
            return "0"
        return text[3:] if text[1] == "+" else "-" + text[3:]

    def __repr__(self) -> str:
        return f"ExtScalar({self})"


def _signed_terms(x: ExtScalar, surds: tuple):
    """(sign, |q|, label) per nonzero component q of `x`, in basis order."""
    for coeff, surd in zip(x._fractions(), surds):
        if coeff:
            yield "-" if coeff < 0 else "+", abs(coeff), surd


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
