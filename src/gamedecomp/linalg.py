"""Exact rational matrices and the linear algebra the decomposition rests on.

All entries are `fractions.Fraction`, so every result in this module is
exact: equality tests mean mathematical equality, and rank decisions
never depend on a tolerance.  Floats are refused at construction time.

The inner loops run on Python ints, not Fractions.  A product clears
the denominators of the left rows and the right columns, takes integer
dot products and builds one Fraction per entry.  One fraction-free
(Bareiss) elimination kernel is behind rank, linear solving, inverses
and the full-rank factorization of Moore-Penrose inverses; the solver
back-substitutes for the determinant times the solution, which is
integral, and divides once per entry at the end.  Group inverses come
from the defining equation A@A@X = A.  The module also provides the
Kronecker and semitensor products.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import Iterable, Iterator, Sequence, Union

Scalar = Union[int, Fraction]


def _entry(value: object) -> Fraction:
    """Coerce one matrix entry to Fraction, refusing inexact types."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("matrix entries must be rational numbers, not bool")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"matrix entries must be exact rationals, got {type(value).__name__}")


class Matrix:
    """Immutable dense matrix over the rationals."""

    __slots__ = ("_rows", "_nrows", "_ncols")

    def __init__(self, rows: Iterable[Iterable[object]]):
        data = tuple(tuple(_entry(x) for x in row) for row in rows)
        if not data or not data[0]:
            raise ValueError("matrix must have at least one row and one column")
        width = len(data[0])
        if any(len(row) != width for row in data):
            raise ValueError("matrix rows must all have the same length")
        self._rows = data
        self._nrows = len(data)
        self._ncols = width

    # -- construction -------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[Fraction(int(i == j)) for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "Matrix":
        zero = Fraction(0)
        return cls([[zero] * ncols for _ in range(nrows)])

    @classmethod
    def ones(cls, nrows: int, ncols: int) -> "Matrix":
        one = Fraction(1)
        return cls([[one] * ncols for _ in range(nrows)])

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
        return cls([[Fraction(int(i + 1 == index))] for i in range(n)])

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

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        i, j = key
        return self._rows[i][j]

    def row_tuple(self, i: int) -> tuple[Fraction, ...]:
        return self._rows[i]

    def column_tuple(self, j: int) -> tuple[Fraction, ...]:
        return tuple(row[j] for row in self._rows)

    def rows_iter(self) -> Iterator[tuple[Fraction, ...]]:
        return iter(self._rows)

    def to_lists(self) -> list[list[Fraction]]:
        return [list(row) for row in self._rows]

    def take_columns(self, indices: Sequence[int]) -> "Matrix":
        return Matrix([[row[j] for j in indices] for row in self._rows])

    # -- algebra -------------------------------------------------------

    @property
    def T(self) -> "Matrix":
        return Matrix(zip(*self._rows))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return self._rows == other._rows

    def __hash__(self) -> int:
        return hash(self._rows)

    def __neg__(self) -> "Matrix":
        return Matrix([[-x for x in row] for row in self._rows])

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        return Matrix(
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self._rows, other._rows)]
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        return Matrix(
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self._rows, other._rows)]
        )

    def __mul__(self, scalar: Scalar) -> "Matrix":
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        return Matrix([[x * scalar for x in row] for row in self._rows])

    __rmul__ = __mul__

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self._ncols != other._nrows:
            raise ValueError(
                f"cannot multiply {self._nrows}x{self._ncols} by {other._nrows}x{other._ncols}"
            )
        # Entry (r, c) is the integer dot product of row r and column c,
        # each cleared of its denominators, over the product of their
        # scales: one Fraction, hence one gcd, per entry, not per term.
        rows, row_scales = _scaled_integer_rows(self._rows)
        cols, col_scales = _scaled_integer_rows(list(zip(*other._rows)))
        zero = Fraction(0)
        out = []
        for row, row_scale in zip(rows, row_scales):
            terms = [j for j, x in enumerate(row) if x]
            values = [row[j] for j in terms]
            dense = len(terms) == len(row)
            out_row = []
            for col, col_scale in zip(cols, col_scales):
                total = sum(map(mul, values, col if dense else [col[j] for j in terms]))
                out_row.append(Fraction(total, row_scale * col_scale) if total else zero)
            out.append(out_row)
        return Matrix(out)

    def trace(self) -> Fraction:
        if self._nrows != self._ncols:
            raise ValueError("trace requires a square matrix")
        return sum((self._rows[i][i] for i in range(self._nrows)), Fraction(0))

    def is_zero(self) -> bool:
        return all(x == 0 for row in self._rows for x in row)

    def is_symmetric(self) -> bool:
        if self._nrows != self._ncols:
            return False
        return all(
            self._rows[i][j] == self._rows[j][i]
            for i in range(self._nrows)
            for j in range(i + 1, self._ncols)
        )

    def __repr__(self) -> str:
        if self._nrows * self._ncols <= 36:
            body = "; ".join(" ".join(str(x) for x in row) for row in self._rows)
            return f"Matrix({self._nrows}x{self._ncols}: {body})"
        return f"Matrix({self._nrows}x{self._ncols})"

    def _check_same_shape(self, other: "Matrix") -> None:
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")


# -- block composition ------------------------------------------------


def hstack(blocks: Sequence[Matrix]) -> Matrix:
    """Concatenate matrices left to right; row counts must agree."""
    if not blocks:
        raise ValueError("hstack needs at least one block")
    nrows = blocks[0].nrows
    if any(b.nrows != nrows for b in blocks):
        raise ValueError("hstack blocks must share their row count")
    return Matrix(
        [sum((list(b.row_tuple(i)) for b in blocks), []) for i in range(nrows)]
    )


def vstack(blocks: Sequence[Matrix]) -> Matrix:
    """Concatenate matrices top to bottom; column counts must agree."""
    if not blocks:
        raise ValueError("vstack needs at least one block")
    ncols = blocks[0].ncols
    if any(b.ncols != ncols for b in blocks):
        raise ValueError("vstack blocks must share their column count")
    return Matrix([row for b in blocks for row in b.rows_iter()])


def block_diag(blocks: Sequence[Matrix]) -> Matrix:
    """Direct sum of the given blocks."""
    if not blocks:
        raise ValueError("block_diag needs at least one block")
    total_rows = sum(b.nrows for b in blocks)
    total_cols = sum(b.ncols for b in blocks)
    zero = Fraction(0)
    out = [[zero] * total_cols for _ in range(total_rows)]
    r0 = c0 = 0
    for b in blocks:
        for i, row in enumerate(b.rows_iter()):
            out[r0 + i][c0 : c0 + b.ncols] = list(row)
        r0 += b.nrows
        c0 += b.ncols
    return Matrix(out)


# -- products ----------------------------------------------------------


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product a (x) b."""
    zero = Fraction(0)
    out = []
    for ra in a.rows_iter():
        for rb in b.rows_iter():
            row = []
            for x in ra:
                if x == 0:
                    row.extend([zero] * len(rb))
                else:
                    row.extend(x * y for y in rb)
            out.append(row)
    return Matrix(out)


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


def _scaled_integer_rows(
    rows: Sequence[Sequence[Fraction]],
) -> tuple[list[list[int]], list[int]]:
    """Clear denominators row by row; preserves row space and solutions.

    Returns the integer rows and each row's scale, the least common
    multiple of its denominators, so that row = integer row / scale.
    """
    out = []
    scales = []
    for row in rows:
        scale = math.lcm(*(x.denominator for x in row)) if row else 1
        out.append([x.numerator * (scale // x.denominator) for x in row])
        scales.append(scale)
    return out, scales


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


def _pivot_columns(a: Matrix) -> list[int]:
    """Pivot columns of a's row echelon form, in order."""
    return _bareiss_echelon(_scaled_integer_rows(a.to_lists())[0], a.ncols)[1]


def rank(a: Matrix) -> int:
    """Rank over the rationals."""
    return len(_pivot_columns(a))


def solve_linear(a: Matrix, b: Matrix) -> Matrix | None:
    """One exact solution X of a @ X = b, or None if none exists.

    When the system is underdetermined the free variables are set to
    zero, so the answer is deterministic.  b may have several columns;
    they are solved together.
    """
    if a.nrows != b.nrows:
        raise ValueError(f"incompatible shapes {a.shape} and {b.shape}")
    augmented = [list(ra) + list(rb) for ra, rb in zip(a.rows_iter(), b.rows_iter())]
    rows, pivots = _bareiss_echelon(_scaled_integer_rows(augmented)[0], a.ncols)
    nsolved = len(pivots)
    for i in range(nsolved, len(rows)):
        if any(rows[i][a.ncols + t] != 0 for t in range(b.ncols)):
            return None
    # The last Bareiss pivot is the determinant of the pivot subsystem,
    # so by Cramer's rule y = det * x is integral and every division in
    # the back-substitution for y is exact.
    det = rows[nsolved - 1][pivots[-1]] if pivots else 1
    y = [[0] * b.ncols for _ in range(a.ncols)]
    for back in range(nsolved - 1, -1, -1):
        row, pc = rows[back], pivots[back]
        later = [(y[j], row[j]) for j in pivots[back + 1 :] if row[j]]
        y[pc] = [
            (det * row[a.ncols + t] - sum([y_j[t] * u for y_j, u in later])) // row[pc]
            for t in range(b.ncols)
        ]
    zero = Fraction(0)
    return Matrix([[Fraction(v, det) if v else zero for v in y_row] for y_row in y])


def inverse(a: Matrix) -> Matrix:
    """Exact inverse of a nonsingular square matrix."""
    if a.nrows != a.ncols:
        raise ValueError("inverse requires a square matrix")
    result = solve_linear(a, Matrix.identity(a.nrows))
    if result is None:
        raise ValueError("matrix is singular")
    return result


def mp_inverse(a: Matrix) -> Matrix:
    """Moore-Penrose inverse, exactly.

    Computed through the full-rank factorization a = F @ G with F the
    pivot columns of a and G the unique solution of F @ G = a (F has
    full column rank); then the inverse is
    G.T @ inv(G@G.T) @ inv(F.T@F) @ F.T.  The zero matrix maps to the
    zero matrix of transposed shape.
    """
    pivots = _pivot_columns(a)
    if not pivots:
        return Matrix.zeros(a.ncols, a.nrows)
    factor_f = a.take_columns(pivots)
    factor_g = solve_linear(factor_f, a)
    left = inverse(factor_g @ factor_g.T)
    right = inverse(factor_f.T @ factor_f)
    return factor_g.T @ left @ right @ factor_f.T


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
