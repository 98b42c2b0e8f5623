"""Splitting games into components and extracting potential functions.

Everything here works on payoff rows in the algebra of the averaging
operators M_i (see projectors.py); no projection matrix is built or
applied.  With u_i player i's payoff row: nonstrategic_i = M_i u_i,
phi = X sum_i (u_i - M_i u_i), pure_potential_i = phi - M_i phi, and
pure_harmonic = u - pure_potential - nonstrategic.  For every game, phi
is the canonical potential of its potential component, pure_potential +
nonstrategic (raw_potential_vector says why).  X is applied by ANOVA
grade (apply_group_inverse); the M_S basis serves only the oracles.
What a Game fixes is computed once and kept on it (games._kept): the
parts and phi (_split), potential_function's result and the int view
(_int_view); a Decomposition keeps which parts are zero.  The oracles
solve_potential_equation and nonstrategic_component_direct read only
the payoffs and the int view.
Potential functions are extracted two independent ways: phi with its
offsets (the value u_i - phi takes on each of player i's own-strategy
lines), and path sums of unilateral payoff changes on int numerators, one
O(k) pass, whose O(nk) consistency check on every line characterizes
potentiality.  The two agree up to an additive constant.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction

from gamedecomp.games import Game, _kept, _Value
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
        zero = _kept(self, "_zero_parts", lambda: frozenset(
            part for part in PART_KINDS if not any(map(any, self.projection(part).payoff_rows))
        ))
        return all(part in zero for part in PART_KINDS if part not in PARTS[kind])


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


def _int_rows(rows: Sequence[Sequence[Fraction]]) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """The lcm den of all the rows' denominators, and each row's numerators over den:
    the one scaler of payoffs, whose value _int_view keeps on a game."""
    den = math.lcm(*{x.denominator for row in rows for x in row})
    return den, tuple(tuple([x.numerator * (den // x.denominator) for x in row]) for row in rows)


def _int_view(game: Game) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """_int_rows of the game's payoffs, kept on the game: the oracles read it, not the split."""
    return _kept(game, "_int_view", lambda: _int_rows(game.payoff_rows))


def _split(game: Game) -> tuple[Decomposition, tuple[Fraction, ...]]:
    """The game's decomposition, and the canonical potential phi of its potential component,
    computed once and kept on the game."""

    def split() -> tuple[Decomposition, tuple[Fraction, ...]]:
        space, rows = game.space, game.payoff_rows
        nonstrategic = [average(space, row, i) for i, row in enumerate(rows, start=1)]
        phi = apply_group_inverse(
            space, [sum(u) - sum(m) for u, m in zip(zip(*rows), zip(*nonstrategic))]
        )
        pure_potential = [
            [p - m for p, m in zip(phi, average(space, phi, i))] for i in range(1, space.n + 1)
        ]
        pure_harmonic = [
            [u - p - s for u, p, s in zip(*t)] for t in zip(rows, pure_potential, nonstrategic)
        ]
        parts = [Game(space, p) for p in (pure_potential, nonstrategic, pure_harmonic)]
        return Decomposition(*parts), tuple(phi)

    return _kept(game, "_split", split)


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
    such line, so its first entry is the offset.  It is kept beside the split.
    """
    parts, phi = _split(game)
    if not parts.is_member(SubspaceKind.POTENTIAL):
        return None
    return _kept(game, "_potential", lambda: PotentialFunction(phi, tuple(
        tuple([row[line.start] - phi[line.start] for line in game.space.lines(i)])
        for i, row in enumerate(game.payoff_rows, start=1)
    )))


def solve_potential_equation(game: Game) -> PotentialFunction | None:
    """Potential extraction by path sums (Monderer & Shapley 1996).

    Solves the deviation-difference system u_i = phi + E_i xi_i, i =
    1..n, whose consistency characterizes potentiality, with no matrix.
    phi(s) sums the payoff changes as players 1..n in turn reset to
    strategy 1: phi(s) = u_j(s) - u_j(s^j) + phi(s^j), with j the first
    player not at 1 and s^j the start of j's line through s.  One O(k)
    pass, j = n..1 over j's lines with players 1..j-1 at 1, builds it.
    xi_i on one of i's lines is the value u_i - phi takes on the whole
    line; if that is not constant, the game is not potential.  All runs
    on the game's int view, its numerators over the payoffs' one lcm, and
    one Fraction is built per distinct value or offset returned.  Player n's
    last offset, the one unknown that elimination in player order leaves
    free, is zeroed, so phi generally differs from potential_function's
    by a constant.
    """
    space = game.space
    den, rows = _int_view(game)
    phi = [0] * space.k
    for j in range(space.n, 0, -1):
        row, span = rows[j - 1], space.k_between(j, space.n)
        for line in space.lines(j):
            if line.stop <= span:
                base = phi[line.start] - row[line.start]
                phi[line] = [base + u for u in row[line]]
    offsets = []
    for j, row in enumerate(rows, start=1):
        gaps = [u - p for u, p in zip(row, phi)]
        block = [gaps[line] for line in space.lines(j)]
        if any(gap.count(gap[0]) != len(gap) for gap in block):
            return None
        offsets.append([gap[0] for gap in block])
    constant = offsets[-1][-1]
    blocks = [[p + constant for p in phi]] + [[x - constant for x in b] for b in offsets]
    rational = {x: Fraction(x, den) for x in set().union(*blocks)}
    values, *offsets = [tuple(map(rational.__getitem__, block)) for block in blocks]
    return PotentialFunction(values=values, player_offsets=tuple(offsets))


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
