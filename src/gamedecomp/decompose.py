"""Splitting games into components and extracting potential functions.

Everything here works on payoff rows in the algebra of the averaging
operators M_i (see projectors.py); no projection matrix is built or
applied.  With u_i player i's payoff row: nonstrategic_i = M_i u_i, the
canonical potential phi = X sum_i (u_i - M_i u_i), pure_potential_i =
phi - M_i phi, and pure_harmonic = u - pure_potential - nonstrategic.
X is applied by ANOVA grade (apply_group_inverse), one average per
effective player and grade; the M_S basis serves only the oracles.
Potential functions are extracted two independent ways: phi with its
offsets (the means of u_i - phi along player i's axis), and path sums
of unilateral payoff changes, which solve the deviation-difference
system whose consistency characterizes potentiality in O(nk) steps.
The two agree up to an additive constant.
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
    axis_means,
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


def _nonstrategic_rows(game: Game) -> list[list[Fraction]]:
    """M_i u_i for every player i."""
    return [average(game.space, row, i) for i, row in enumerate(game.payoff_rows, start=1)]


def _potential_vector(game: Game, nonstrategic: list[list[Fraction]]) -> list[Fraction]:
    """phi = X sum_i (u_i - M_i u_i), given the M_i u_i."""
    lifted = [sum(u) - sum(m) for u, m in zip(zip(*game.payoff_rows), zip(*nonstrategic))]
    return apply_group_inverse(game.space, lifted)


def _split(game: Game) -> tuple[Decomposition, list[Fraction]]:
    """The game's decomposition, and the vector phi its pure potential part comes from."""
    space = game.space
    nonstrategic = _nonstrategic_rows(game)
    phi = _potential_vector(game, nonstrategic)
    pure_potential = [
        [p - m for p, m in zip(phi, average(space, phi, i))] for i in range(1, space.n + 1)
    ]
    pure_harmonic = [
        [u - p - s for u, p, s in zip(*rows)]
        for rows in zip(game.payoff_rows, pure_potential, nonstrategic)
    ]
    return Decomposition(
        pure_potential=Game(space, pure_potential),
        nonstrategic=Game(space, nonstrategic),
        pure_harmonic=Game(space, pure_harmonic),
    ), phi


def decompose(game: Game) -> Decomposition:
    """Split a game into pure potential, nonstrategic, and pure harmonic parts."""
    return _split(game)[0]


def is_member(game: Game, kind: SubspaceKind) -> bool:
    """Whether the game lies in a canonical subspace: its projection is itself."""
    return decompose(game).is_member(kind)


def raw_potential_vector(game: Game) -> tuple[Fraction, ...]:
    """The closed-form potential X sum_i (u_i - M_i u_i), for any game.

    For potential games this is the canonical potential's value vector.
    For anything else its meaning is an open question; it is exposed for
    experimentation only.
    """
    return tuple(_potential_vector(game, _nonstrategic_rows(game)))


def potential_function(game: Game) -> PotentialFunction | None:
    """Canonical potential of a potential game, else None.

    The values are the closed-form potential phi (no constant added);
    player i's offsets are the means of u_i - phi along i's own axis,
    one per profile of the other players.
    """
    return _potential(game, *_split(game))


def _potential(game: Game, parts: Decomposition, phi: list[Fraction]) -> PotentialFunction | None:
    """potential_function, given the game's decomposition and its phi."""
    if not parts.is_member(SubspaceKind.POTENTIAL):
        return None
    offsets = tuple(
        tuple(axis_means(game.space, [u - p for u, p in zip(row, phi)], i))
        for i, row in enumerate(game.payoff_rows, start=1)
    )
    return PotentialFunction(values=tuple(phi), player_offsets=offsets)


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
