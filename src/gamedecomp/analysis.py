"""Definition-level game checks and Nash-equilibrium analysis.

The membership checks here work straight from the defining payoff
equations, with no projection matrices and no memo of the game's split,
so they can confirm the projection route independently.  The (pure)
harmonic checks sum the game's int view (decompose._int_view), kept on
it: scaling a linear equation by a positive int changes no verdict.  The
rest stay on Fractions, off the lcm, which wide denominators can make
millions of bits long.  The Nash side covers exhaustive pure
equilibrium enumeration, the uniformly-mixed equilibrium test, the
zero-payoff characterization of pure equilibria in pure harmonic
games, and the dimension of the pure-harmonic games having a chosen
profile as a pure equilibrium, a closed form in the strategy counts.
Every check runs along own-strategy lines from GameSpace.lines and line.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from gamedecomp.decompose import PotentialFunction, _int_view, differs_by_constant
from gamedecomp.games import Game, GameSpace
from gamedecomp.projectors import SubspaceKind, subspace_dimension


def _own_lines(game: Game, rows: Sequence[Sequence] | None = None):
    """(row, line) for every player and each of that player's own-strategy lines,
    over the game's payoff rows or over rows in their place."""
    for i, row in enumerate(game.payoff_rows if rows is None else rows, start=1):
        for line in game.space.lines(i):
            yield row, line


def check_nonstrategic_defn(game: Game) -> bool:
    """Whether every player's payoff ignores that player's own strategy."""
    return all((v := row[line]).count(v[0]) == len(v) for row, line in _own_lines(game))


def check_pure_harmonic_defn(game: Game) -> bool:
    """Payoffs sum to zero across players at every profile, and each
    player's payoffs sum to zero along that player's own strategy axis.

    Both sums run on the int numerators over the lcm D of all payoff
    denominators: a sum is zero iff D times it is."""
    rows = _int_view(game)[1]
    if any(map(sum, zip(*rows))):
        return False
    return not any(sum(row[line]) for row, line in _own_lines(game, rows))


def check_harmonic_defn(game: Game) -> bool:
    """At every profile the players' own-strategy averaging residuals cancel:
    sum_i U_i(s) equals sum_i of the mean of U_i over i's line through s.

    The test runs on ints.  With D the lcm of all payoff denominators and
    L = lcm(k_1..k_n), it is L sum_i D U_i(s) == sum_i (L // k_i) times the
    sum of D U_i over i's line: the Fraction test times D L > 0, so it
    holds exactly when that one does."""
    rows = _int_view(game)[1]
    scale = math.lcm(*game.space.strategy_counts)
    residual = [-scale * sum(column) for column in zip(*rows)]
    for row, line in _own_lines(game, rows):
        values = row[line]
        mean = scale // len(values) * sum(values)
        residual[line] = [r + mean for r in residual[line]]
    return not any(residual)


def check_potential_defn(game: Game, phi: PotentialFunction) -> bool:
    """Exhaustively verify the deviation identity for a claimed potential.

    For every player and every unilateral deviation, the payoff change
    must equal the potential change: on each own-strategy line, payoff
    and potential differ by one constant.
    """
    space = game.space
    if len(phi.values) != space.k:
        raise ValueError(f"potential has {len(phi.values)} values, expected {space.k}")
    return all(differs_by_constant(row[line], phi.values[line]) for row, line in _own_lines(game))


def pure_nash(game: Game) -> list[tuple[int, ...]]:
    """All pure Nash equilibria: no unilateral deviation strictly improves.

    A profile is one iff it attains the maximum of its own-strategy line
    for every player.
    """
    stable = [True] * game.space.k
    for row, line in _own_lines(game):
        values = row[line]
        best = max(values)
        stable[line] = [ok and x == best for ok, x in zip(stable[line], values)]
    return [profile for profile, ok in zip(game.space.profiles(), stable) if ok]


def uniform_mixed_nash_check(game: Game) -> bool:
    """Whether the uniformly mixed profile is a mixed Nash equilibrium.

    Pure deviations suffice: expected payoff is linear in one player's
    mixture, so the maximum over deviations is attained at a vertex.
    Against uniform opponents, strategy c pays player i the mean of u_i
    over the profiles where i plays c, so no deviation gains iff those
    means, or equally their sums over k/k_i profiles each, are all equal.
    """
    for i, row in enumerate(game.payoff_rows, start=1):
        totals = [sum(column) for column in zip(*(row[line] for line in game.space.lines(i)))]
        if len(set(totals)) > 1:
            return False
    return True


def harmonic_pure_nash_zero_check(game: Game, profile: Sequence[int]) -> bool:
    """For a pure harmonic game: is the profile an equilibrium of the
    all-payoffs-zero kind (the only kind such games admit)?

    True iff every player's payoff is zero at the profile and at every
    own-strategy variant of it.  Raises ValueError when the game is not
    pure harmonic.
    """
    if not check_pure_harmonic_defn(game):
        raise ValueError("game is not pure harmonic")
    space = game.space
    index = space.profile_index(profile) - 1
    return all(
        x == 0 for i, row in enumerate(game.payoff_rows, start=1) for x in row[space.line(i, index)]
    )


def harmonic_nash_kernel_dim(space: GameSpace, profile: Sequence[int]) -> int:
    """Dimension of the pure-harmonic games with the profile as pure Nash.

    They are the pure harmonic games vanishing on each player i's own-strategy
    line through the profile s (see harmonic_pure_nash_zero_check).  Their
    restrictions to those lines lie in W = {each v_i sums to 0, v_i = 0 when
    k_i = 1, sum_i v_i(s_i) = 0}, of dimension sum_i (k_i - 1) - 1, and the
    2x2 zero-sum cycles on pairs of players with k_i >= 2 are pure harmonic
    and restrict onto a spanning set of W.  So the dimension is the pure
    harmonic one minus dim W, for every s; with fewer than two such players
    the pure harmonic space is {0}.
    """
    space.check_profile(profile)
    reduced = [count - 1 for count in space.strategy_counts if count > 1]
    if len(reduced) < 2:
        return 0
    return subspace_dimension(space, SubspaceKind.PURE_HARMONIC) - sum(reduced) + 1

