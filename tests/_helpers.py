"""Shared fixtures: random generators and hypothesis strategies,
reference games, naive Fraction-based product, entrywise, stacking,
elimination and back-substitution oracles kept independent of the
package's integer kernels, and brute-force Nash and potential checks
that enumerate deviations and read payoffs through profile_index,
independent of GameSpace.lines, the dense Bareiss solve of the
potential equation that its path-sum route is pinned to, and the dense
rank that the closed-form harmonic Nash kernel dimension is pinned to."""

from __future__ import annotations

import math
import random
from collections.abc import Sequence
from fractions import Fraction

from hypothesis import settings
from hypothesis import strategies as st

from gamedecomp.decompose import PotentialFunction
from gamedecomp.games import Game, GameSpace
from gamedecomp.linalg import Matrix, block_diag, hstack, rank, solve_linear, vstack
from gamedecomp.projectors import build_E

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True)


def random_matrix(rng: random.Random, nrows: int, ncols: int) -> Matrix:
    return Matrix([[rng.randint(-9, 9) for _ in range(ncols)] for _ in range(nrows)])


def random_game(rng: random.Random, space: GameSpace) -> Game:
    return Game.from_vector(
        space, [rng.randint(-9, 9) for _ in range(space.payoff_cells)]
    )


@st.composite
def spaces(draw, max_cells=200):
    """n <= 4 players with 1 to 4 strategies each, at most max_cells cells."""
    n = draw(st.integers(1, 4))
    counts: list[int] = []
    for _ in range(n):
        room = max_cells // n // math.prod(counts)
        counts.append(draw(st.integers(1, min(4, room))))
    return GameSpace(tuple(counts))


@st.composite
def games(draw, max_cells=200):
    space = draw(spaces(max_cells))
    cells = st.fractions(min_value=-9, max_value=9, max_denominator=12)
    payoffs = draw(
        st.lists(cells, min_size=space.payoff_cells, max_size=space.payoff_cells)
    )
    return Game.from_vector(space, payoffs)


def rps_game() -> Game:
    """Rock-paper-scissors, strategies (rock, paper, scissors) = (1, 2, 3)."""
    return Game.from_vector(
        GameSpace((3, 3)),
        [0, -1, 1, 1, 0, -1, -1, 1, 0, 0, 1, -1, -1, 0, 1, 1, -1, 0],
    )


def symmetric_222(a, b, c, d, e, f) -> Game:
    """Three-player two-strategy symmetric game from its six payoff levels."""
    return Game.from_vector(
        GameSpace((2, 2, 2)),
        [a, b, b, d, c, e, e, f, a, b, c, e, b, d, e, f, a, c, b, e, b, e, d, f],
    )


def symmetric_33(a, b, c, d, e, f, g, h, i) -> Game:
    """Two-player three-strategy symmetric game from its nine payoff levels."""
    return Game.from_vector(
        GameSpace((3, 3)),
        [a, b, c, d, e, f, g, h, i, a, d, g, b, e, h, c, f, i],
    )


def _fraction_echelon(rows: list[list[Fraction]], pivot_width: int) -> list[int]:
    """Plain Fraction row echelon form in place, pivots searched in the
    first pivot_width columns; returns the pivot columns."""
    pivots: list[int] = []
    for c in range(pivot_width):
        r = len(pivots)
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(r + 1, len(rows)):
            f = rows[i][c] / rows[r][c]
            if f:
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    return pivots


def naive_rank(m: Matrix) -> int:
    """Plain Fraction Gaussian elimination; independent of the package kernels."""
    return len(_fraction_echelon(list(map(list, m.rows_iter())), m.ncols))


def fraction_product(a: Matrix, b: Matrix) -> Matrix:
    """a @ b with one Fraction operation per term: the reference product."""
    cols = list(zip(*b.rows_iter()))
    return Matrix(
        [
            [sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in cols]
            for row in a.rows_iter()
        ]
    )


# -- Fraction-entry oracles: lists of Fraction rows in, lists out ----------


def fraction_sum(a: list[list[Fraction]], b: list[list[Fraction]]) -> list[list[Fraction]]:
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def fraction_difference(a: list[list[Fraction]], b: list[list[Fraction]]) -> list[list[Fraction]]:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def fraction_negation(a: list[list[Fraction]]) -> list[list[Fraction]]:
    return [[-x for x in row] for row in a]


def fraction_scaled(a: list[list[Fraction]], scalar) -> list[list[Fraction]]:
    return [[x * scalar for x in row] for row in a]


def fraction_kron(a: list[list[Fraction]], b: list[list[Fraction]]) -> list[list[Fraction]]:
    return [[x * y for x in ra for y in rb] for ra in a for rb in b]


def fraction_transpose(a: list[list[Fraction]]) -> list[list[Fraction]]:
    return [[row[j] for row in a] for j in range(len(a[0]))]


def fraction_hstack(blocks: list[list[list[Fraction]]]) -> list[list[Fraction]]:
    return [[x for block in blocks for x in block[i]] for i in range(len(blocks[0]))]


def fraction_vstack(blocks: list[list[list[Fraction]]]) -> list[list[Fraction]]:
    return [list(row) for block in blocks for row in block]


def fraction_block_diag(blocks: list[list[list[Fraction]]]) -> list[list[Fraction]]:
    width = sum(len(block[0]) for block in blocks)
    out = []
    start = 0
    for block in blocks:
        after = width - start - len(block[0])
        out.extend([Fraction(0)] * start + list(row) + [Fraction(0)] * after for row in block)
        start += len(block[0])
    return out


def fraction_trace(a: list[list[Fraction]]) -> Fraction:
    return sum((a[i][i] for i in range(len(a))), Fraction(0))


def fraction_is_zero(a: list[list[Fraction]]) -> bool:
    return all(x == 0 for row in a for x in row)


def fraction_is_symmetric(a: list[list[Fraction]]) -> bool:
    n = len(a)
    return all(len(row) == n for row in a) and all(
        a[i][j] == a[j][i] for i in range(n) for j in range(n)
    )


def fraction_solve(a: Matrix, b: Matrix) -> Matrix | None:
    """One solution of a @ X = b with the free variables zero, or None if
    there is none, by Fraction elimination and back-substitution."""
    rows = [list(ra) + list(rb) for ra, rb in zip(a.rows_iter(), b.rows_iter())]
    n = a.ncols
    pivots = _fraction_echelon(rows, n)
    if any(x != 0 for row in rows[len(pivots) :] for x in row[n:]):
        return None
    solution = [[Fraction(0)] * b.ncols for _ in range(n)]
    for back in range(len(pivots) - 1, -1, -1):
        pc = pivots[back]
        for t in range(b.ncols):
            acc = rows[back][n + t]
            for j in range(pc + 1, n):
                acc -= rows[back][j] * solution[j][t]
            solution[pc][t] = acc / rows[back][pc]
    return Matrix(solution)


def naive_consistent(a: Matrix, b: Matrix) -> bool:
    """Whether a @ X = b has a solution: rank test on the augmented matrix."""
    return naive_rank(hstack([a, b])) == naive_rank(a)


# -- brute-force analyses: every unilateral deviation, one at a time ------


def _deviations(space: GameSpace, profile: tuple[int, ...], player: int):
    """Every profile that differs from the given one only in player's choice."""
    for choice in range(1, space.strategy_counts[player - 1] + 1):
        yield profile[: player - 1] + (choice,) + profile[player:]


def payoff(game: Game, player: int, profile: Sequence[int]) -> Fraction:
    """Player's payoff at a pure profile (both 1-based)."""
    return game.payoff_rows[player - 1][game.space.profile_index(profile) - 1]


def expected_payoff(game: Game, player: int, weights: Sequence[Sequence[Fraction]]) -> Fraction:
    """Player's expected payoff when each player j mixes by weights[j - 1] independently."""
    return sum(
        (
            math.prod((row[c - 1] for row, c in zip(weights, s)), start=Fraction(1))
            * payoff(game, player, s)
            for s in game.space.profiles()
        ),
        Fraction(0),
    )


def brute_pure_nash(game: Game) -> list[tuple[int, ...]]:
    space = game.space
    return [
        s
        for s in space.profiles()
        if all(
            payoff(game, i, varied) <= payoff(game, i, s)
            for i in range(1, space.n + 1)
            for varied in _deviations(space, s, i)
        )
    ]


def brute_uniform_mixed_nash(game: Game) -> bool:
    uniform = [tuple([Fraction(1, c)] * c) for c in game.space.strategy_counts]
    for i, count in enumerate(game.space.strategy_counts, start=1):
        base = expected_payoff(game, i, uniform)
        for choice in range(1, count + 1):
            weights = list(uniform)
            weights[i - 1] = tuple(Fraction(int(j == choice)) for j in range(1, count + 1))
            if expected_payoff(game, i, weights) > base:
                return False
    return True


def brute_potential_defn(game: Game, values) -> bool:
    space = game.space

    def phi(profile):
        return values[space.profile_index(profile) - 1]

    return all(
        payoff(game, i, varied) - payoff(game, i, s) == phi(varied) - phi(s)
        for s in space.profiles()
        for i in range(1, space.n + 1)
        for varied in _deviations(space, s, i)
    )


# -- the dense potential solve ----------------------------------------------


def dense_potential_equation(game: Game) -> PotentialFunction | None:
    """The deviation-difference system as one dense Bareiss solve.

    Unknowns are the per-player offset blocks xi_i; block row j says
    -E_1 xi_1 + E_j xi_j = u_j - u_1, and phi = u_1 - E_1 xi_1.
    Inconsistency means the game is not potential.  Free variables are
    zeroed, so the solution is the one solve_potential_equation returns.
    """
    space = game.space
    lifts = [build_E(space, i) for i in range(1, space.n + 1)]
    widths = [space.k // c for c in space.strategy_counts]
    if space.n == 1:
        # no cross-player constraints; the potential is the payoff row
        offsets = (tuple([Fraction(0)] * widths[0]),)
        return PotentialFunction(values=game.payoff_rows[0], player_offsets=offsets)
    block_rows = []
    rhs_blocks = []
    for j in range(2, space.n + 1):
        blocks = []
        for i in range(1, space.n + 1):
            if i == 1:
                blocks.append(-lifts[0])
            elif i == j:
                blocks.append(lifts[j - 1])
            else:
                blocks.append(Matrix.zeros(space.k, widths[i - 1]))
        block_rows.append(hstack(blocks))
        rhs_blocks.append(
            Matrix.column(game.payoff_rows[j - 1]) - Matrix.column(game.payoff_rows[0])
        )
    solution = solve_linear(vstack(block_rows), vstack(rhs_blocks))
    if solution is None:
        return None
    column = solution.column_tuple(0)
    offsets = []
    start = 0
    for width in widths:
        offsets.append(column[start : start + width])
        start += width
    phi = Matrix.column(game.payoff_rows[0]) - lifts[0] @ Matrix.column(offsets[0])
    return PotentialFunction(values=phi.column_tuple(0), player_offsets=tuple(offsets))


# -- the dense harmonic Nash kernel -----------------------------------------


def dense_harmonic_nash_kernel_dim(space: GameSpace, profile: Sequence[int]) -> int:
    """Dimension of the pure-harmonic games with the profile as pure Nash.

    Stacks three constraint blocks on payoff space: the row of n
    identities (payoffs sum to zero per profile), the block diagonal of
    the E_i transposes (own-axis sums zero), and the block diagonal of
    profile selectors (player i's payoffs vanish on the own-strategy
    line through the profile).  The games in question form the kernel,
    so the dimension is n*k minus the stack's rank.
    """
    index = space.profile_index(profile) - 1
    players = range(1, space.n + 1)
    identity = Matrix.identity(space.k)
    identity_row = hstack([identity] * space.n)
    lift_block = block_diag([build_E(space, i).T for i in players])
    selector_block = block_diag(
        [Matrix.from_numerators(identity.numerators[space.line(i, index)], 1) for i in players]
    )
    stacked = vstack([identity_row, lift_block, selector_block])
    return space.payoff_cells - rank(stacked)
