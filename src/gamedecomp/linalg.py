"""Exact rationals read and written, exact rational matrices, and the
linear algebra the decomposition rests on.

A Matrix is stored as rows of integer numerators over one positive
integer denominator, in canonical form: the denominator and all the
numerators have no common factor, so the zero matrix has denominator
1.  Two matrices are equal exactly when their denominators and
numerators are, and every result in this module is exact: rank
decisions never depend on a tolerance.  Entries read back as
`fractions.Fraction`; floats and bools are refused, and strings go
through parse_rational, the one rational reader.  format_rational, the
one writer, gives a rational exactly, as an int or "p/q", or as a
fixed-point decimal string.

Every operation runs on Python ints: a product takes integer dot
products over the product of the denominators and reduces the result
once, sums bring both operands to the least common denominator.  One
fraction-free (Bareiss) elimination kernel works on the numerators and
serves rank and linear solving; the solver back-substitutes for the
determinant times the solution, which is integral, and divides by the
determinant once, as the result's denominator.  Group inverses come from
the defining equation A@A@X = A, and the Moore-Penrose inverse is the
group inverse of A.T@A times A.T, the paper's route through group
inverses.  The module also provides the Kronecker and semitensor products.
"""

from __future__ import annotations

import math
import re
from collections.abc import Callable, Iterable, Iterator, Sequence
from fractions import Fraction
from itertools import chain
from operator import add, itemgetter, mul, sub

Scalar = int | Fraction
Rows = tuple[tuple[int, ...], ...]

_ZERO = Fraction(0)
# CPython reads and prints integers of up to 4300 digits
MAX_DECIMAL_EXPONENT = 4300
# the most bits an integer below 10**MAX_DECIMAL_EXPONENT is sure to fit in
# (2**14284 < 10**4300), so every number of at most this many bits prints
MAX_PRINTED_BITS = (10**MAX_DECIMAL_EXPONENT).bit_length() - 1
_EXPONENT = re.compile(r"[eE]([-+]?[0-9]+)$")


class ResultTooLongError(ValueError):
    """A number has more than MAX_PRINTED_BITS bits, too long to print exactly."""


def parse_rational(text: str) -> Fraction:
    """Parse a "p/q", integer or decimal string such as "1.5e-3" exactly.

    A Unicode minus sign is treated as ASCII "-"; any other non-ASCII
    character, such as a digit of another script, and "_" are refused,
    so the grammar is the same on every Python version.  Decimal
    exponents beyond MAX_DECIMAL_EXPONENT in magnitude are refused,
    matching the 4300-digit limit CPython puts on integer strings.
    """
    cleaned = text.replace("−", "-").strip()
    if not cleaned.isascii() or "_" in cleaned:
        raise ValueError(
            f"cannot parse rational string {_cut(text, repr)}: use ASCII digits, no underscores"
        )
    exponent = _EXPONENT.search(cleaned)
    try:
        if exponent is None or abs(int(exponent.group(1))) <= MAX_DECIMAL_EXPONENT:
            return Fraction(cleaned)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse rational string {_cut(text, repr)}: {exc}") from None
    raise ValueError(f"decimal exponent of {_cut(text, repr)} exceeds {MAX_DECIMAL_EXPONENT}")


def _check_bits(x: Scalar) -> Scalar:
    """Return x, or raise ResultTooLongError if its numerator or denominator is too long."""
    if max(x.numerator.bit_length(), x.denominator.bit_length()) > MAX_PRINTED_BITS:
        raise ResultTooLongError(
            f"a number of more than {MAX_PRINTED_BITS} bits is too long to print"
        )
    return x


def format_rational(x: Scalar, digits: int | None = None) -> int | str:
    """Write x exactly, as an int or a "p/q" string; or, given digits, as a
    fixed-point string rounded half to even to that many decimal places.

    parse_rational reads either form back, the fixed-point one as its
    rounded value.  Raises ResultTooLongError for a number to print of
    more than MAX_PRINTED_BITS bits.
    """
    if digits is None:
        _check_bits(x)
        return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    scaled = _check_bits(round(x * Fraction(10**digits)))
    text = ("-" if scaled < 0 else "") + str(abs(scaled)).rjust(digits + 1, "0")
    return f"{text[:-digits]}.{text[-digits:]}" if digits else text


def _cut(text: str, show: Callable[[str], str] = str) -> str:
    """The text for an error message, cut to its first 40 characters; show=repr quotes it."""
    return show(text) if len(text) <= 40 else f"{show(text[:40])}..."


def _entry(value: object) -> int | Fraction:
    """Check one matrix entry, refusing inexact types; strings take parse_rational."""
    if isinstance(value, bool):
        raise TypeError("matrix entries must be rational numbers, not bool")
    if isinstance(value, (int, Fraction)):
        return value
    if isinstance(value, str):
        return parse_rational(value)
    raise TypeError(f"matrix entries must be exact rationals, got {type(value).__name__}")


class _Entries(dict):
    """Entry Fractions by numerator over one denominator, each made once."""

    def __init__(self, den: int):
        super().__init__({0: _ZERO})
        self.den = den

    def __missing__(self, numerator: int) -> Fraction:
        value = self[numerator] = Fraction(numerator, self.den)
        return value


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
        return tuple(map(_Entries(self._den).__getitem__, (row[j] for row in self._num)))

    def rows_iter(self) -> Iterator[tuple[Fraction, ...]]:
        entry = _Entries(self._den).__getitem__
        return (tuple(map(entry, row)) for row in self._num)

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
        right = other._num
        cols = list(zip(*right))
        zero_row = (0,) * other._ncols
        out = []
        for row in self._num:
            terms = [j for j, x in enumerate(row) if x]
            if len(terms) == len(row):
                out.append(tuple([sum(map(mul, row, col)) for col in cols]))
            elif len(terms) > 1:
                values = [row[j] for j in terms]
                pick = itemgetter(*terms)
                out.append(tuple([sum(map(mul, values, pick(col))) for col in cols]))
            elif terms:
                # one term: the product row is a multiple of one row of other
                x = row[terms[0]]
                out.append(tuple([x * y for y in right[terms[0]]]))
            else:
                out.append(zero_row)
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


# -- block composition ------------------------------------------------


def hstack(blocks: Sequence[Matrix]) -> Matrix:
    """Concatenate matrices left to right; row counts must agree."""
    if not blocks:
        raise ValueError("hstack needs at least one block")
    nrows = blocks[0].nrows
    if any(b.nrows != nrows for b in blocks):
        raise ValueError("hstack blocks must share their row count")
    den = math.lcm(*(b.denominator for b in blocks))
    parts = zip(*(_scaled(b, den) for b in blocks))
    return Matrix._reduced(tuple(tuple(chain.from_iterable(rows)) for rows in parts), den)


def vstack(blocks: Sequence[Matrix]) -> Matrix:
    """Concatenate matrices top to bottom; column counts must agree."""
    if not blocks:
        raise ValueError("vstack needs at least one block")
    ncols = blocks[0].ncols
    if any(b.ncols != ncols for b in blocks):
        raise ValueError("vstack blocks must share their column count")
    den = math.lcm(*(b.denominator for b in blocks))
    return Matrix._reduced(tuple(chain.from_iterable(_scaled(b, den) for b in blocks)), den)


def block_diag(blocks: Sequence[Matrix]) -> Matrix:
    """Direct sum of the given blocks."""
    if not blocks:
        raise ValueError("block_diag needs at least one block")
    total_cols = sum(b.ncols for b in blocks)
    den = math.lcm(*(b.denominator for b in blocks))
    out = []
    c0 = 0
    for b in blocks:
        before, after = (0,) * c0, (0,) * (total_cols - c0 - b.ncols)
        out.extend(before + row + after for row in _scaled(b, den))
        c0 += b.ncols
    return Matrix._reduced(tuple(out), den)


# -- products ----------------------------------------------------------


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product a (x) b."""
    zeros = (0,) * b.ncols
    out = []
    for ra in a.numerators:
        for rb in b.numerators:
            row: list[int] = []
            for x in ra:
                row.extend([x * y for y in rb] if x else zeros)
            out.append(tuple(row))
    return Matrix._reduced(tuple(out), a.denominator * b.denominator)


def stp(a: Matrix, b: Matrix) -> Matrix:
    """Semitensor product a |x| b.

    Both factors are inflated by identity Kronecker factors until the
    inner dimensions meet at lcm(a.ncols, b.nrows), then multiplied.
    Coincides with the ordinary product when the dimensions already
    match, and is associative.
    """
    target = math.lcm(a.ncols, b.nrows)
    left = a if a.ncols == target else kron(a, Matrix.identity(target // a.ncols))
    right = b if b.nrows == target else kron(b, Matrix.identity(target // b.nrows))
    return left @ right


# -- elimination -------------------------------------------------------


def _bareiss_echelon(rows: list[list[int]], pivot_width: int) -> tuple[list[list[int]], list[int]]:
    """Fraction-free row echelon form, in place.

    Pivots are searched only in the first pivot_width columns; the rest
    of each row is carried along (used for augmented systems).  Returns
    the rows and the pivot column indices.  All intermediate values stay
    integers: each elimination step divides by the previous pivot, and
    that division is exact for integer input.
    """
    m = len(rows)
    if m == 0:
        return rows, []
    width = len(rows[0])
    pivots: list[int] = []
    prev = 1
    r = 0
    for c in range(pivot_width):
        pivot_row = next((i for i in range(r, m) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        lead = rows[r][c]
        for i in range(r + 1, m):
            # the cross-multiplication must run even when factor == 0:
            # the lead/prev rescale keeps later divisions exact
            factor = rows[i][c]
            row_i = rows[i]
            row_r = rows[r]
            for j in range(c + 1, width):
                row_i[j] = (row_i[j] * lead - factor * row_r[j]) // prev
            row_i[c] = 0
        prev = lead
        pivots.append(c)
        r += 1
        if r == m:
            break
    return rows, pivots


def rank(a: Matrix) -> int:
    """Rank over the rationals."""
    return len(_bareiss_echelon([list(row) for row in a.numerators], a.ncols)[1])


def solve_linear(a: Matrix, b: Matrix) -> Matrix | None:
    """One exact solution X of a @ X = b, or None if none exists.

    When the system is underdetermined the free variables are set to
    zero, so the answer is deterministic.  b may have several columns;
    they are solved together.
    """
    if a.nrows != b.nrows:
        raise ValueError(f"incompatible shapes {a.shape} and {b.shape}")
    # a = A/da and b = B/db, so over L = lcm(da, db) a @ X = b is
    # (A*(L/da)) @ X = B*(L/db), a system in ints
    common = math.lcm(a.denominator, b.denominator)
    sa, sb = common // a.denominator, common // b.denominator
    augmented = [
        [x * sa for x in ra] + [x * sb for x in rb] for ra, rb in zip(a.numerators, b.numerators)
    ]
    rows, pivots = _bareiss_echelon(augmented, a.ncols)
    nsolved = len(pivots)
    for i in range(nsolved, len(rows)):
        if any(rows[i][a.ncols + t] != 0 for t in range(b.ncols)):
            return None
    # The last Bareiss pivot is the determinant of the pivot subsystem,
    # so by Cramer's rule y = det * x is integral and every division in
    # the back-substitution for y is exact; x = y / det is then reduced
    # once, which also makes its denominator positive.
    det = rows[nsolved - 1][pivots[-1]] if pivots else 1
    y = [[0] * b.ncols for _ in range(a.ncols)]
    for back in range(nsolved - 1, -1, -1):
        row, pc = rows[back], pivots[back]
        later = [(y[j], row[j]) for j in pivots[back + 1 :] if row[j]]
        y[pc] = [
            (det * row[a.ncols + t] - sum([y_j[t] * u for y_j, u in later])) // row[pc]
            for t in range(b.ncols)
        ]
    return Matrix._reduced(tuple(map(tuple, y)), det)


def is_range_projector(p: Matrix, b: Matrix) -> bool:
    """Whether p is the orthogonal projector onto b's column space, exactly.

    If p is symmetric and b.T @ p == b.T, 1 is an eigenvalue of p at least
    rank(b) times, so ||p||_F^2, the sum of p's squared eigenvalues, is at
    most rank(b) iff all the others are 0.  No inverse is formed.
    """
    if not p.is_symmetric() or b.T @ p != b.T:
        return False
    squares = sum(x * x for row in p.numerators for x in row)
    return squares <= rank(b) * p.denominator**2


def group_inverse_via_solve(a: Matrix) -> Matrix | None:
    """Group inverse of a square matrix, or None when it has none.

    Solves a @ a @ X = a for X and returns a @ X @ X.  The defining
    equation is consistent exactly when the group inverse exists, and
    a @ X @ X is that inverse for any solution X.
    """
    if a.nrows != a.ncols:
        raise ValueError("group inverse requires a square matrix")
    candidate = solve_linear(a @ a, a)
    if candidate is None:
        return None
    return a @ candidate @ candidate


def mp_inverse(a: Matrix) -> Matrix:
    """Moore-Penrose inverse, exactly: a+ = (a.T @ a)# @ a.T.

    The Gram matrix a.T @ a is symmetric, so its group inverse exists and
    equals its Moore-Penrose inverse (Ben-Israel & Greville, Generalized
    Inverses, 2003).  The zero matrix maps to the transposed zero matrix.
    """
    return group_inverse_via_solve(a.T @ a) @ a.T
