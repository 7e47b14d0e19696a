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
product.  Each entry of a product, an adjugate, a determinant or a Gram
matrix (`_gram`) is one `exact._dot`.  The coefficient field is real, so
the adjoint of an operator is its transpose.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exact import ONE, ZERO, ExtScalar, _dot


def _gram(vectors) -> tuple:
    """The Gram matrix of `vectors`: entry (a, b) is the dot product of
    vectors a and b, as one `_dot`."""
    return tuple(tuple(_dot(x, y) for y in vectors) for x in vectors)


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

    def adjugate(self) -> "Operator3":
        """Transpose of the cofactor matrix.  Entry (i, j) is cofactor (j, i),
        r[a][c] r[b][d] - r[a][d] r[b][c] with (a, b) the two indices after j
        and (c, d) the two after i, cyclically, so no sign table is needed."""
        r = self.rows
        after = ((1, 2), (2, 0), (0, 1))
        return Operator3(
            tuple(
                tuple(_dot((r[a][c], -r[a][d]), (r[b][d], r[b][c])) for a, b in after)
                for c, d in after
            )
        )

    def adjugate_and_det(self) -> tuple:
        """(adjugate, det).  Column 0 of the adjugate holds the cofactors of
        row 0, so the determinant is their expansion, one more `_dot`."""
        adj = self.adjugate()
        return adj, _dot(self.rows[0], (row[0] for row in adj.rows))

    def det(self) -> ExtScalar:
        return self.adjugate_and_det()[1]

    def rank(self) -> int:
        """Exact rank: 3 if det != 0, else 2 if some 2x2 minor (an entry of
        the adjugate) is nonzero, else 1 or 0."""
        adj, det = self.adjugate_and_det()
        if not det.is_zero():
            return 3
        if not adj.is_zero():
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
