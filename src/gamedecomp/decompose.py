"""Splitting games into components and extracting potential functions.

Everything here works on payoff rows in the algebra of the averaging
operators M_i (see projectors.py); no projection matrix is built or
applied.  With u_i player i's payoff row: nonstrategic_i = M_i u_i,
phi = X sum_i (u_i - M_i u_i), pure_potential_i = phi - M_i phi, and
pure_harmonic = u - pure_potential - nonstrategic.  For every game, phi
is the canonical potential of its potential component, pure_potential +
nonstrategic (raw_potential_vector says why).
X is applied by ANOVA grade (apply_group_inverse), one average per
effective player and grade; the M_S basis serves only the oracles.
_split runs once per Game and keeps the parts and phi on it while it lives
(sound: a Game is immutable); every analysis reads them but the oracles
solve_potential_equation and nonstrategic_component_direct.
Potential functions are extracted two independent ways: phi with its
offsets (the value u_i - phi takes on each of player i's own-strategy
lines), and path sums of unilateral payoff changes, which solve the
deviation-difference system whose consistency characterizes
potentiality in O(nk) steps.  The two agree up to an additive constant.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction

from gamedecomp.games import Game, _Value
from gamedecomp.projectors import (
    PART_KINDS,
    PARTS,
    SubspaceKind,
    _Parts,
    apply_group_inverse,
    average,
)


class Decomposition(_Parts):
    """The three mutually orthogonal parts of a game; projection(kind) sums its parts."""

    _fields = ("pure_potential", "nonstrategic", "pure_harmonic")

    def __init__(self, pure_potential: Game, nonstrategic: Game, pure_harmonic: Game) -> None:
        object.__setattr__(self, "pure_potential", pure_potential)
        object.__setattr__(self, "nonstrategic", nonstrategic)
        object.__setattr__(self, "pure_harmonic", pure_harmonic)

    def is_member(self, kind: SubspaceKind) -> bool:
        """Whether the game lies in a canonical subspace: its parts outside it are zero."""
        return not any(
            any(map(any, getattr(self, part.name.lower()).payoff_rows))
            for part in PART_KINDS
            if part not in PARTS[kind]
        )


class PotentialFunction(_Value):
    """A potential's values over profiles, in profile-index order.

    A potential is only determined up to an additive constant; the
    extraction routines fix the representative their formula produces
    and comparisons are made modulo constants.  The per-player offset
    blocks that accompany the extraction are kept for inspection.
    """

    _fields = ("values", "player_offsets")

    def __init__(
        self, values: tuple[Fraction, ...], player_offsets: tuple[tuple[Fraction, ...], ...] = ()
    ) -> None:
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "player_offsets", player_offsets)

    def shifted(self, constant: Fraction | int) -> "PotentialFunction":
        if isinstance(constant, bool) or not isinstance(constant, (int, Fraction)):
            raise TypeError(f"shifts must be rational numbers, not {type(constant).__name__}")
        c = Fraction(constant)
        return PotentialFunction(tuple(v + c for v in self.values), self.player_offsets)


def differs_by_constant(a: Sequence[Fraction], b: Sequence[Fraction]) -> bool:
    """Whether two value vectors differ by one shared constant."""
    if len(a) != len(b) or not a:
        return False
    delta = a[0] - b[0]
    return all(x - y == delta for x, y in zip(a, b))


def _split(game: Game) -> tuple[Decomposition, tuple[Fraction, ...]]:
    """The game's decomposition, and the canonical potential phi of its potential component,
    computed once and kept on the game, under a name that ==, hash and repr do not read."""
    if "_split" in vars(game):
        return game._split
    space, rows = game.space, game.payoff_rows
    nonstrategic = [average(space, row, i) for i, row in enumerate(rows, start=1)]
    phi = apply_group_inverse(
        space, [sum(u) - sum(m) for u, m in zip(zip(*rows), zip(*nonstrategic))]
    )
    pure_potential = [
        [p - m for p, m in zip(phi, average(space, phi, i))] for i in range(1, space.n + 1)
    ]
    pure_harmonic = [
        [u - p - s for u, p, s in zip(*parts)] for parts in zip(rows, pure_potential, nonstrategic)
    ]
    parts = [Game(space, part) for part in (pure_potential, nonstrategic, pure_harmonic)]
    object.__setattr__(game, "_split", (Decomposition(*parts), tuple(phi)))
    return game._split


def decompose(game: Game) -> Decomposition:
    """Split a game into pure potential, nonstrategic, and pure harmonic parts."""
    return _split(game)[0]


def is_member(game: Game, kind: SubspaceKind) -> bool:
    """Whether the game lies in a canonical subspace: its projection is itself."""
    return decompose(game).is_member(kind)


def raw_potential_vector(game: Game) -> tuple[Fraction, ...]:
    """The canonical potential of the game's potential component, for any game.

    This is phi = X sum_i (u_i - M_i u_i), from which _split builds the
    pure potential part p_i = phi - M_i phi beside the nonstrategic part
    n_i = M_i u_i.  Their sum, the potential component u' (the game's
    projection onto the potential subspace, the closest potential game:
    Candogan, Menache, Ozdaglar & Parrilo 2011), has u'_i - M_i u'_i =
    p_i; and X sum_i (phi - M_i phi) = phi, since phi has no constant
    part.  So phi is potential_function(u').values, and for a potential
    game, its own canonical potential.
    """
    return _split(game)[1]


def potential_function(game: Game) -> PotentialFunction | None:
    """Canonical potential of a potential game, else None.

    The values are the closed-form potential phi (no constant added);
    player i's offsets are the values u_i - phi takes on i's own-strategy
    lines, one per profile of the other players.  In a potential game
    u_i - phi = M_i u_i - M_i phi = M_i (u_i - phi) is constant on each
    such line, so its first entry is the offset.
    """
    parts, phi = _split(game)
    if not parts.is_member(SubspaceKind.POTENTIAL):
        return None
    offsets = tuple(
        tuple([row[line.start] - phi[line.start] for line in game.space.lines(i)])
        for i, row in enumerate(game.payoff_rows, start=1)
    )
    return PotentialFunction(values=phi, player_offsets=offsets)


def solve_potential_equation(game: Game) -> PotentialFunction | None:
    """Potential extraction by path sums (Monderer & Shapley 1996).

    Solves the deviation-difference system u_i = phi + E_i xi_i, i =
    1..n, whose consistency characterizes potentiality, with no matrix.
    phi at a profile sums the payoff changes u_i(before) - u_i(after) as
    players 1..n in turn reset to strategy 1.  Player i's offset xi_i on
    one of its own-strategy lines is the value u_i - phi takes on the
    whole line; a line where it is not constant means the game is not
    potential.  The solutions differ by a constant added to phi and
    taken from every offset.  The constant is fixed so that player n's
    offset on its last line is 0: elimination over the offsets in player
    order leaves that unknown, and only that one, free, so this is the
    solution with its free variable zeroed.  It generally differs from
    potential_function by a constant, not entrywise.
    """
    space = game.space
    rows = game.payoff_rows
    phi = []
    for index in range(space.k):
        value, here = Fraction(0), index
        for i, row in enumerate(rows, start=1):
            reset = space.line(i, here).start
            value += row[here] - row[reset]
            here = reset
        phi.append(value)
    offsets = []
    for i, row in enumerate(rows, start=1):
        block = []
        for line in space.lines(i):
            offset = row[line.start] - phi[line.start]
            if any(u - p != offset for u, p in zip(row[line], phi[line])):
                return None
            block.append(offset)
        offsets.append(block)
    constant = offsets[-1][-1]
    return PotentialFunction(
        values=tuple(p + constant for p in phi),
        player_offsets=tuple(tuple(x - constant for x in block) for block in offsets),
    )


def nonstrategic_component_direct(game: Game) -> Game:
    """Nonstrategic part by per-profile averaging, no matrices involved.

    Replaces each payoff with the mean of that player's payoffs over
    the player's own strategies, holding everyone else fixed.  Serves
    as an independent cross-check of the projection route.
    """
    space = game.space
    rows = []
    for i, count in enumerate(space.strategy_counts, start=1):
        row = list(game.payoff_rows[i - 1])
        averaged = [Fraction(0)] * space.k
        for profile in space.profiles():
            idx = space.profile_index(profile)
            total = Fraction(0)
            for choice in range(1, count + 1):
                varied = list(profile)
                varied[i - 1] = choice
                total += row[space.profile_index(varied) - 1]
            averaged[idx - 1] = total / count
        rows.append(tuple(averaged))
    return Game(space, tuple(rows))
