"""Definition-level game checks and Nash-equilibrium analysis.

The membership checks here work straight from the defining payoff
equations, with no projection matrices, so they can confirm the
projection route independently.  The Nash side covers exhaustive pure
equilibrium enumeration, the uniformly-mixed equilibrium test, the
zero-payoff characterization of pure equilibria in pure harmonic
games, and the dimension of the pure-harmonic games having a chosen
profile as a pure equilibrium, a closed form in the strategy counts.
Every check runs along own-strategy lines from GameSpace.lines and line.
"""

from __future__ import annotations

from collections.abc import Sequence

from gamedecomp.decompose import PotentialFunction, differs_by_constant
from gamedecomp.games import Game, GameSpace
from gamedecomp.projectors import SubspaceKind, subspace_dimension


def _own_lines(game: Game):
    """(payoff row, line) for every player and each of that player's own-strategy lines."""
    for i, row in enumerate(game.payoff_rows, start=1):
        for line in game.space.lines(i):
            yield row, line


def check_nonstrategic_defn(game: Game) -> bool:
    """Whether every player's payoff ignores that player's own strategy."""
    return all(len(set(row[line])) == 1 for row, line in _own_lines(game))


def check_pure_harmonic_defn(game: Game) -> bool:
    """Payoffs sum to zero across players at every profile, and each
    player's payoffs sum to zero along that player's own strategy axis."""
    if any(sum(column) != 0 for column in zip(*game.payoff_rows)):
        return False
    return all(sum(row[line]) == 0 for row, line in _own_lines(game))


def check_harmonic_defn(game: Game) -> bool:
    """At every profile the players' own-strategy averaging residuals cancel."""
    residual = [-sum(column) for column in zip(*game.payoff_rows)]
    for row, line in _own_lines(game):
        values = row[line]
        mean = sum(values) / len(values)
        residual[line] = [r + mean for r in residual[line]]
    return all(r == 0 for r in residual)


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

