"""Exact 3x3 matrices over either scalar domain.

Entries are Fractions or LaurentPolynomials; all arithmetic is exact and
every value is immutable.  Inverses go through the adjugate, so they exist
exactly when the determinant is a unit of the scalar domain (any nonzero
rational; a single-term Laurent polynomial).  Powers use square-and-multiply
on |n|, inverting the base once for negative exponents.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .rings import ExactAlgebraError, Scalar


class SingularMatrixError(ExactAlgebraError, ArithmeticError):
    """Determinant is zero or not a unit of the scalar domain."""


class Matrix3:
    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Sequence[Scalar]]):
        rows = tuple(tuple(row) for row in rows)
        if len(rows) != 3 or any(len(row) != 3 for row in rows):
            raise ValueError("Matrix3 requires a 3x3 array of scalars")
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix3 is immutable")

    def __getitem__(self, index: int):
        return self.rows[index]

    def __iter__(self):
        return iter(self.rows)

    def __eq__(self, other):
        if not isinstance(other, Matrix3):
            return NotImplemented
        return all(
            self.rows[i][j] == other.rows[i][j] for i in range(3) for j in range(3)
        )

    def __repr__(self):
        return f"Matrix3({[list(r) for r in self.rows]!r})"

    def __str__(self):
        return "\n".join(self.render_lines())

    @classmethod
    def identity_like(cls, template: "Matrix3") -> "Matrix3":
        one = template.rows[0][0] ** 0
        zero = one - one
        return cls(((one, zero, zero), (zero, one, zero), (zero, zero, one)))

    def __add__(self, other):
        if not isinstance(other, Matrix3):
            return NotImplemented
        return Matrix3(
            tuple(self.rows[i][j] + other.rows[i][j] for j in range(3))
            for i in range(3)
        )

    def __sub__(self, other):
        if not isinstance(other, Matrix3):
            return NotImplemented
        return Matrix3(
            tuple(self.rows[i][j] - other.rows[i][j] for j in range(3))
            for i in range(3)
        )

    def __neg__(self):
        return Matrix3(tuple(-x for x in row) for row in self.rows)

    def __mul__(self, other):
        if isinstance(other, Matrix3):
            a, b = self.rows, other.rows
            return Matrix3(
                tuple(
                    a[i][0] * b[0][j] + a[i][1] * b[1][j] + a[i][2] * b[2][j]
                    for j in range(3)
                )
                for i in range(3)
            )
        return Matrix3(tuple(x * other for x in row) for row in self.rows)

    def __rmul__(self, other):
        return Matrix3(tuple(other * x for x in row) for row in self.rows)

    def __pow__(self, n: int) -> "Matrix3":
        if not isinstance(n, int):
            return NotImplemented
        base = self.inverse() if n < 0 else self
        result = Matrix3.identity_like(self)
        n = abs(n)
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def det(self) -> Scalar:
        """Determinant by cofactor expansion along the first row."""
        (a, b, c), (d, e, f), (g, h, i) = self.rows
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)

    def adjugate(self) -> "Matrix3":
        """Transpose of the cofactor matrix; satisfies A*adj(A) = det(A)*I."""
        (a, b, c), (d, e, f), (g, h, i) = self.rows
        return Matrix3(
            (
                (e * i - f * h, c * h - b * i, b * f - c * e),
                (f * g - d * i, a * i - c * g, c * d - a * f),
                (d * h - e * g, b * g - a * h, a * e - b * d),
            )
        )

    def inverse(self) -> "Matrix3":
        try:
            inv_det = Fraction(1) / self.det()
        except (ZeroDivisionError, ExactAlgebraError) as exc:
            raise SingularMatrixError("singular or non-unit determinant") from exc
        return self.adjugate() * inv_det

    def to_strings(self) -> list[list[str]]:
        return [[str(x) for x in row] for row in self.rows]

    def render_lines(self) -> list[str]:
        """Aligned text grid, one string per row."""
        cells = self.to_strings()
        widths = [max(len(cells[i][j]) for i in range(3)) for j in range(3)]
        return [
            "[ " + "  ".join(cells[i][j].rjust(widths[j]) for j in range(3)) + " ]"
            for i in range(3)
        ]
