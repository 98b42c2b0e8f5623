"""The dense tier: the linear algebra on Matrix past the class itself, the
structural matrices, and the oracle routes.  `verify` and the tests
import it; no other command does.

Every result is exact: rank decisions never depend on a tolerance.  One
fraction-free (Bareiss) elimination kernel works on the numerators and
serves rank and linear solving; the solver back-substitutes for the
determinant times the solution, which is integral, and divides by the
determinant once, as the result's denominator.  Group inverses come from
the defining equation A@A@X = A, and the Moore-Penrose inverse is the
group inverse of A.T@A times A.T, the paper's route through group
inverses.  is_range_projector certifies a projector by symmetry and two
products, with no inverse or rank.  The module also provides the
Kronecker and semitensor products.

The Kronecker-built E_i and e_i, and B_N and B_P, the generators `verify`
certifies the nonstrategic and potential projections against, index
profiles on their own, and range_witnesses writes their witnesses.  P_N
stays for the oracles and tests: its certificate follows from those two
and the sum identity.  The last section keeps the M_S basis, sum_S c_S M_S
with M_S = prod_{i in S} M_i, only for the two oracle routes to X of
acceptance criterion 2, which write the dense X with the bundle's own
writer.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from fractions import Fraction
from itertools import chain, combinations

from gamedecomp.games import GameSpace
from gamedecomp.matrix import Matrix, _scaled
from gamedecomp.projectors import _densify_blocks, _player_bits, _row_gathers


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
    rows = [tuple([x * y for x in ra for y in rb]) for ra in a.numerators for rb in b.numerators]
    return Matrix._reduced(tuple(rows), a.denominator * b.denominator)


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


def is_range_projector(p: Matrix, b: Matrix, w: Matrix) -> bool:
    """Whether p is the orthogonal projector onto b's column space, exactly.

    w is any witness with b @ w == p: symmetry and b.T @ p == b.T give p @
    b == b, so range(b) lies in range(p), and p == b @ w gives the converse
    and p @ p = p @ b @ w = p, for every w.  No inverse or rank is formed.
    """
    return p.is_symmetric() and b.T @ p == b.T and b @ w == p


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


# -- the structural matrices -----------------------------------------


def build_E(space: GameSpace, player: int) -> Matrix:
    """Lift matrix E_i: identity on other players, all-ones column on i.

    E_i.T averages nothing; it sums player i's strategy axis.  Shape is
    k x (k/k_i), and E_i.T @ E_i = k_i * I.
    """
    space.check_player(player)
    before = Matrix.identity(space.k_between(1, player - 1))
    ones = Matrix.ones(space.strategy_counts[player - 1], 1)
    after = Matrix.identity(space.k_between(player + 1, space.n))
    return kron(kron(before, ones), after)


def build_e(space: GameSpace, player: int) -> Matrix:
    """Averaging block e_i = E_i @ E_i.T (k x k, symmetric, e_i^2 = k_i e_i)."""
    return build_e_set(space, (player,))


def build_e_set(space: GameSpace, players: Iterable[int]) -> Matrix:
    """Product of the commuting e_i over a subset of players.

    Computed in one pass as a Kronecker product with an all-ones block
    on each listed player's axis and identity elsewhere.  The empty
    subset gives I_k, the full subset the all-ones k x k matrix.
    """
    chosen = {space.check_player(player) for player in players}
    out = Matrix.identity(1)
    for i, count in enumerate(space.strategy_counts, start=1):
        factor = Matrix.ones(count, count) if i in chosen else Matrix.identity(count)
        out = kron(out, factor)
    return out


def build_B_N(space: GameSpace) -> Matrix:
    """Block diagonal of the E_i; its column space is the nonstrategic part."""
    return block_diag([build_E(space, i) for i in range(1, space.n + 1)])


def build_B_P(space: GameSpace) -> Matrix:
    """[stacked identities | block diag E_i]; spans the potential subspace."""
    stacked = vstack([Matrix.identity(space.k)] * space.n)
    return hstack([stacked, build_B_N(space)])


def build_P_N(space: GameSpace) -> Matrix:
    """Stacked normalization blocks I_k - e_i/k_i; spans the pure potential part."""
    identity = Matrix.identity(space.k)
    counts = enumerate(space.strategy_counts, start=1)
    return vstack([identity - build_e(space, i) * Fraction(1, c) for i, c in counts])


def range_witnesses(space: GameSpace) -> tuple[Matrix, Matrix]:
    """is_range_projector's witnesses W_P and W_N: B_P @ W_P and B_N @ W_N
    are the potential and nonstrategic projections.

    W_N = diag(E_i.T / k_i).  Phi = X P_N.T is k x nk; its block j, X (I -
    M_j), is [j in T] / |T| on V_T.  The potential projection maps u to S
    Phi u + B_N W_N (u - S Phi u), S the stacked identities, and W_N S
    stacks the E_i.T / k_i, so W_P = [Phi; W_N - W_N S Phi].
    """
    counts = enumerate(space.strategy_counts, start=1)
    lifts = [build_E(space, i).T * Fraction(1, c) for i, c in counts]
    bits = _player_bits(space)
    effective, parts = [space.strategy_counts[i - 1] for i in bits], range(1 << len(bits))
    den = math.lcm(*range(1, len(bits) + 1))
    layout = [[bits.get(j, 0) for j in range(1, space.n + 1)]]
    tables = {b: [den // t.bit_count() if t & b else 0 for t in parts] for b in set(layout[0])}
    phi = _densify_blocks(effective, tables, den, layout, _row_gathers(effective, space.n))
    w_n = block_diag(lifts)
    return vstack([phi, w_n - vstack(lifts) @ phi]), w_n


# -- the M_S basis: oracle routes to X (acceptance criterion 2) ---------

Element = dict[frozenset[int], Fraction]


def closed_form_coefficients(n: int) -> Element:
    """The group inverse X of sum_i (I - M_i), as an element of the algebra.

    X equals

        sum over proper subsets S of {1..n} of
            1 / ((n - |S|) * C(n, |S|)) * M_S
      - (1 + 1/2 + ... + 1/n) * M_{1..n}

    whatever the strategy counts; this returns the weight attached to
    each subset (the empty subset weighs the identity).
    """
    if n < 1:
        raise ValueError("need at least one player")
    coeffs: Element = {
        s: Fraction(1, (n - len(s)) * math.comb(n, len(s))) for s in _ordered_subsets(n)[:-1]
    }
    coeffs[frozenset(range(1, n + 1))] = -sum(Fraction(1, i) for i in range(1, n + 1))
    return coeffs


def _ordered_subsets(n: int) -> list[frozenset[int]]:
    return [frozenset(c) for size in range(n + 1) for c in combinations(range(1, n + 1), size)]


def _multiply(left: Element, right: Element) -> Element:
    """Product of two elements: M_S @ M_T = M_{S|T}, zero weights dropped."""
    out: Element = {}
    for s, a in left.items():
        for t, b in right.items():
            out[s | t] = out.get(s | t, Fraction(0)) + a * b
    return {key: value for key, value in out.items() if value != 0}


def _densify(space: GameSpace, element: Element) -> Matrix:
    """The k x k matrix of sum_S c_S M_S: on V_T, the sum of the c_S with S disjoint from T."""
    bits = _player_bits(space)
    counts = [space.strategy_counts[i - 1] for i in bits]
    weighted = [(sum(bits.get(i, 0) for i in s), c) for s, c in element.items()]
    table = [sum(c for s, c in weighted if not s & t) for t in range(1 << len(bits))]
    den = math.lcm(*(c.denominator for c in table))
    ints = [c.numerator * (den // c.denominator) for c in table]
    return _densify_blocks(counts, {None: ints}, den, [[None]], _row_gathers(counts, 1))


def group_inverse_closed_form(space: GameSpace) -> Matrix:
    """The k x k group inverse X via the closed-form subset sum."""
    return _densify(space, closed_form_coefficients(space.n))


def group_inverse_solve_route(space: GameSpace) -> Matrix:
    """The same X, found by solving A @ A @ X = A inside the algebra.

    A = n I - sum_i M_i lives in the algebra spanned by the M_S, so the
    defining equation becomes a 2^n x 2^n rational solve; the group
    inverse is then A @ X @ X.  Raises RuntimeError if the solve fails,
    which no well-formed space produces.
    """
    subsets = _ordered_subsets(space.n)
    a_elem = {s: Fraction(space.n if not s else -1) for s in subsets[: space.n + 1]}
    a_squared = _multiply(a_elem, a_elem)
    images = [_multiply(a_squared, {s: Fraction(1)}) for s in subsets]
    coefficient_matrix = Matrix([[image.get(s, 0) for image in images] for s in subsets])
    solved = solve_linear(coefficient_matrix, Matrix.column([a_elem.get(s, 0) for s in subsets]))
    if solved is None:
        raise RuntimeError("group-inverse equation is inconsistent in the algebra")
    x_elem = dict(zip(subsets, solved.column_tuple(0)))
    return _densify(space, _multiply(a_elem, _multiply(x_elem, x_elem)))
