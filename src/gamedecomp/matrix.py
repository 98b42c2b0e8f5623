"""Exact rational matrices: the Matrix class alone.

A Matrix is stored as rows of integer numerators over one positive
integer denominator, in canonical form: the denominator and all the
numerators have no common factor, so the zero matrix has denominator
1.  Two matrices are equal exactly when their denominators and
numerators are.  Entries read back as `fractions.Fraction`; floats and
bools are refused, and strings go through linalg.parse_rational.  Every
operation runs on Python ints: a product takes integer dot products
over the product of the denominators and reduces the result once, sums
bring both operands to the least common denominator.

Only the commands and oracles that build a matrix import this module.
The elimination, the other products and the structural matrices are in
dense.py, which holds Matrix too: linalg and projectors serve the class
from there.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction
from operator import add, mul, sub

from gamedecomp.linalg import Scalar, parse_rational

Rows = tuple[tuple[int, ...], ...]

_ZERO = Fraction(0)


def _entry(value: object) -> int | Fraction:
    """Check one matrix entry, refusing inexact types; strings take parse_rational."""
    if isinstance(value, bool):
        raise TypeError("matrix entries must be rational numbers, not bool")
    if isinstance(value, (int, Fraction)):
        return value
    if isinstance(value, str):
        return parse_rational(value)
    raise TypeError(f"matrix entries must be exact rationals, got {type(value).__name__}")


class Matrix:
    """Immutable dense matrix over the rationals: integer rows over one denominator."""

    __slots__ = ("_num", "_den", "_nrows", "_ncols")

    def __init__(self, rows: Iterable[Iterable[object]]):
        data = [[_entry(x) for x in row] for row in rows]
        if not data or not data[0]:
            raise ValueError("matrix must have at least one row and one column")
        width = len(data[0])
        if any(len(row) != width for row in data):
            raise ValueError("matrix rows must all have the same length")
        # over the least common denominator of reduced entries no prime
        # divides every numerator, so this is already canonical
        den = math.lcm(*(x.denominator for row in data for x in row))
        self._num = tuple(
            [tuple([x.numerator * (den // x.denominator) for x in row]) for row in data]
        )
        self._den = den
        self._nrows = len(data)
        self._ncols = width

    @classmethod
    def from_numerators(cls, rows: Iterable[Iterable[int]], denominator: int) -> "Matrix":
        """The matrix rows / denominator, reduced to canonical form.

        The numerators must be ints; they are not coerced.  When the
        form is already canonical the given int objects are kept.
        """
        num = tuple(map(tuple, rows))
        if any(len(row) != len(num[0]) for row in num):
            raise ValueError("matrix rows must all have the same length")
        if denominator == 0:
            raise ZeroDivisionError("matrix denominator is zero")
        return cls._reduced(num, denominator)

    @classmethod
    def _reduced(cls, num: Rows, den: int) -> "Matrix":
        """num / den in canonical form: a positive denominator sharing no factor with num."""
        g = den
        for row in num:
            if g == 1:
                break
            g = math.gcd(g, *row)
        if den < 0:
            g = -g
        if g != 1:
            num = tuple([tuple([x // g for x in row]) for row in num])
            den //= g
        return cls._canonical(num, den)

    @classmethod
    def _canonical(cls, num: Rows, den: int) -> "Matrix":
        """Wrap rows and a denominator already in canonical form."""
        if not num or not num[0]:
            raise ValueError("matrix must have at least one row and one column")
        m = object.__new__(cls)
        m._num = num
        m._den = den
        m._nrows = len(num)
        m._ncols = len(num[0])
        return m

    # -- construction -------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls._canonical(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)), 1)

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "Matrix":
        return cls._canonical(((0,) * ncols,) * nrows, 1)

    @classmethod
    def ones(cls, nrows: int, ncols: int) -> "Matrix":
        return cls._canonical(((1,) * ncols,) * nrows, 1)

    @classmethod
    def column(cls, entries: Sequence[object]) -> "Matrix":
        return cls([[x] for x in entries])

    @classmethod
    def row(cls, entries: Sequence[object]) -> "Matrix":
        return cls([list(entries)])

    @classmethod
    def basis_column(cls, n: int, index: int) -> "Matrix":
        """The index-th standard basis column of R^n, 1-based."""
        if not 1 <= index <= n:
            raise ValueError(f"basis index {index} out of range 1..{n}")
        return cls._canonical(tuple((int(i + 1 == index),) for i in range(n)), 1)

    # -- shape and access ----------------------------------------------

    @property
    def nrows(self) -> int:
        return self._nrows

    @property
    def ncols(self) -> int:
        return self._ncols

    @property
    def shape(self) -> tuple[int, int]:
        return self._nrows, self._ncols

    @property
    def denominator(self) -> int:
        """The positive common denominator of the canonical form."""
        return self._den

    @property
    def numerators(self) -> Rows:
        """The int rows of the canonical form: entry (i, j) is numerators[i][j] / denominator."""
        return self._num

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        i, j = key
        x = self._num[i][j]
        return Fraction(x, self._den) if x else _ZERO

    def column_tuple(self, j: int) -> tuple[Fraction, ...]:
        den = self._den
        return tuple([Fraction(row[j], den) if row[j] else _ZERO for row in self._num])

    def rows_iter(self) -> Iterator[tuple[Fraction, ...]]:
        den = self._den
        return (tuple([Fraction(x, den) if x else _ZERO for x in row]) for row in self._num)

    # -- algebra -------------------------------------------------------

    @property
    def T(self) -> "Matrix":
        return Matrix._canonical(tuple(zip(*self._num)), self._den)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return self._den == other._den and self._num == other._num

    def __hash__(self) -> int:
        return hash((self._den, self._num))

    def __neg__(self) -> "Matrix":
        return Matrix._canonical(tuple([tuple([-x for x in row]) for row in self._num]), self._den)

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._entrywise(other, add)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._entrywise(other, sub)

    def _entrywise(self, other: "Matrix", op) -> "Matrix":
        """op of the entries, over the least common denominator."""
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")
        den = math.lcm(self._den, other._den)
        rows = zip(_scaled(self, den), _scaled(other, den))
        return Matrix._reduced(tuple([tuple(map(op, ra, rb)) for ra, rb in rows]), den)

    def __mul__(self, scalar: Scalar) -> "Matrix":
        if isinstance(scalar, bool):
            raise TypeError("matrix scalars must be rational numbers, not bool")
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        p, q = scalar.numerator, scalar.denominator
        scaled = tuple([tuple([x * p for x in row]) for row in self._num])
        return Matrix._reduced(scaled, self._den * q)

    __rmul__ = __mul__

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self._ncols != other._nrows:
            raise ValueError(
                f"cannot multiply {self._nrows}x{self._ncols} by {other._nrows}x{other._ncols}"
            )
        # Entry (r, c) is the integer dot product of row r and column c
        # over the product of the denominators, reduced once for the
        # whole matrix.  The dot products skip the zeros of row r.
        cols = list(zip(*other._num))
        out = []
        for row in self._num:
            terms = [j for j, x in enumerate(row) if x]
            values = [row[j] for j in terms]
            out.append(tuple([sum(map(mul, values, map(col.__getitem__, terms))) for col in cols]))
        return Matrix._reduced(tuple(out), self._den * other._den)

    def trace(self) -> Fraction:
        if self._nrows != self._ncols:
            raise ValueError("trace requires a square matrix")
        return Fraction(sum(row[i] for i, row in enumerate(self._num)), self._den)

    def is_zero(self) -> bool:
        return not any(map(any, self._num))

    def is_symmetric(self) -> bool:
        return self._nrows == self._ncols and tuple(zip(*self._num)) == self._num

    def __repr__(self) -> str:
        if self._nrows * self._ncols <= 36:
            body = "; ".join(" ".join(str(x) for x in row) for row in self.rows_iter())
            return f"Matrix({self._nrows}x{self._ncols}: {body})"
        return f"Matrix({self._nrows}x{self._ncols})"


def _scaled(m: Matrix, den: int) -> Rows:
    """m's numerator rows over den, a multiple of m's denominator."""
    scale = den // m.denominator
    if scale == 1:
        return m.numerators
    return tuple([tuple([x * scale for x in row]) for row in m.numerators])
