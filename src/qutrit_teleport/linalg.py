"""Exact 3x3 matrices over Q(sqrt2, sqrt3).

One type, `Operator3`, carries every two-index object in the package: the
coefficient grid M_i of an entangled state (row a2, column b), a
measurement gate, a receiver's pre-measurement state (row b, column j
holds the coefficient of the input amplitude c_j on |b>), a recovery map
and the completeness sum of a channel.  An operator is its matrix and
nothing else: a gate's (channel, outcome) is the key it is stored under,
and the provenance string of the JSON wire form belongs to `serialize`.

`flat` is the one row-major flattening (entry (r, c) at index 3*r + c,
so a state grid's flat index is 3*a2 + b), and `frobenius` the one inner
product.  The coefficient field is real, so the adjoint of an operator is
its transpose.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .exact import ONE, ZERO, ExtScalar, _reduced


def _dot(xs, ys) -> ExtScalar:
    """sum(x * y for x, y in zip(xs, ys)), reduced once.

    The products are summed as integer numerators over the lcm of their
    denominators, and zero factors are skipped, so a sum allocates and
    gcd-reduces one element rather than one per product and partial sum.
    Every product-sum of the package goes through here: matrix products,
    `Operator3.frobenius` and the residuals in `engine`.
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


@dataclass(frozen=True)
class Operator3:
    """3x3 exact matrix; equality and hashing compare the entries."""

    rows: tuple

    def __post_init__(self) -> None:
        if len(self.rows) != 3 or any(len(r) != 3 for r in self.rows):
            raise ValueError("Operator3 requires a 3x3 entry grid")

    @classmethod
    def from_terms(cls, scale: ExtScalar, terms) -> "Operator3":
        """scale * sum of weight * E_{r,c} over (r, c, integer weight) terms."""
        rows = [[ZERO, ZERO, ZERO] for _ in range(3)]
        for r, c, weight in terms:
            rows[r][c] = rows[r][c] + scale * weight
        return cls(tuple(tuple(row) for row in rows))

    def entry(self, r: int, c: int) -> ExtScalar:
        return self.rows[r][c]

    def flat(self) -> tuple:
        """The nine entries, row-major."""
        return tuple(e for row in self.rows for e in row)

    def frobenius(self, other: "Operator3") -> ExtScalar:
        """tr(self^T other), the sum of the entrywise products."""
        return _dot(self.flat(), other.flat())

    def is_zero(self) -> bool:
        return all(e.is_zero() for r in self.rows for e in r)

    def dagger(self) -> "Operator3":
        """Adjoint; the entries are real so this is the transpose."""
        return Operator3(tuple(zip(*self.rows)))

    def __matmul__(self, other: "Operator3") -> "Operator3":
        if not isinstance(other, Operator3):
            return NotImplemented
        cols = tuple(zip(*other.rows))
        return Operator3(tuple(tuple(_dot(r, c) for c in cols) for r in self.rows))

    def _entrywise(self, other: "Operator3", op) -> "Operator3":
        return Operator3(
            tuple(
                tuple(op(x, y) for x, y in zip(row, other_row))
                for row, other_row in zip(self.rows, other.rows)
            )
        )

    def __add__(self, other: "Operator3") -> "Operator3":
        if not isinstance(other, Operator3):
            return NotImplemented
        return self._entrywise(other, ExtScalar.__add__)

    def __sub__(self, other: "Operator3") -> "Operator3":
        if not isinstance(other, Operator3):
            return NotImplemented
        return self._entrywise(other, ExtScalar.__sub__)

    def scaled(self, s: ExtScalar) -> "Operator3":
        return Operator3(tuple(tuple(e * s for e in row) for row in self.rows))

    def trace(self) -> ExtScalar:
        return self.rows[0][0] + self.rows[1][1] + self.rows[2][2]

    def det(self) -> ExtScalar:
        r = self.rows
        return (
            r[0][0] * (r[1][1] * r[2][2] - r[1][2] * r[2][1])
            - r[0][1] * (r[1][0] * r[2][2] - r[1][2] * r[2][0])
            + r[0][2] * (r[1][0] * r[2][1] - r[1][1] * r[2][0])
        )

    def adjugate(self) -> "Operator3":
        r = self.rows
        cof = [[None] * 3 for _ in range(3)]
        for i in range(3):
            for j in range(3):
                a, b = [x for x in range(3) if x != i]
                c, d = [x for x in range(3) if x != j]
                minor = r[a][c] * r[b][d] - r[a][d] * r[b][c]
                cof[i][j] = minor if (i + j) % 2 == 0 else -minor
        # adjugate = transpose of cofactor matrix
        return Operator3(tuple(tuple(cof[j][i] for j in range(3)) for i in range(3)))

    def rank(self) -> int:
        """Exact rank: 3 if det != 0, else 2 if some 2x2 minor (an entry of
        the adjugate) is nonzero, else 1 or 0."""
        if not self.det().is_zero():
            return 3
        if not self.adjugate().is_zero():
            return 2
        return 0 if self.is_zero() else 1

    @classmethod
    def identity(cls) -> "Operator3":
        """The identity; one shared instance, since an operator is immutable."""
        return _IDENTITY

    @classmethod
    def zero(cls) -> "Operator3":
        return cls(((ZERO,) * 3,) * 3)

    @classmethod
    def unit(cls, r: int, c: int) -> "Operator3":
        """The matrix unit E_{r,c}: one at (r, c), zero elsewhere."""
        return cls.from_terms(ONE, ((r, c, 1),))


_IDENTITY = Operator3(((ONE, ZERO, ZERO), (ZERO, ONE, ZERO), (ZERO, ZERO, ONE)))
