"""The averaging-operator algebra behind the canonical game subspaces.

The payoff space of a signature [n; k_1..k_n] splits orthogonally into
pure potential, nonstrategic and pure harmonic parts (PART_KINDS);
PARTS lists the parts each of the five canonical subspaces sums, and
every per-kind rule is derived from that one table.  The operators of
the split lie in the commutative algebra of the averaging operators
M_i = e_i/k_i, and R^k splits into ANOVA parts V_T, T a set of players
with k_i >= 2 (Efron & Stein 1981), on which M_i is 0 if i is in T and
1 otherwise.  So each operator is one scalar per V_T: the group inverse
X of sum_i (I - M_i) is 1/|T|, and 0 on the constants.  Players with
one strategy have M_i = I and play no part.

average() applies one M_i to a payoff row by along-axis means over
GameSpace.lines, and apply_group_inverse() applies X grade by grade;
decompose.py uses only these and builds no matrix.  The dense
projections of the three parts (ProjectorSet, for `project`, `verify`
and the oracles) and their parts on each V_T (part_matrices, for
`verify`'s idempotency and product checks) are written from the same
ANOVA tables, listed by the bit mask of T and held as ints over
lcm(1..n_eff), with int 2x2 steps and one gather per row.  Their block
layout does not depend on the kind, so it is kept on the GameSpace, as
its lines are; no table or matrix is kept.  gamedecomp.matrix is
imported on first use.  The Kronecker-built E_i, e_i, B_N, B_P and P_N
and the M_S basis routes to X live in gamedecomp.dense; the module
__getattr__ at the end serves the objects it and matrix define, Matrix
among them, through linalg's hook.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Hashable, Sequence
from enum import Enum
from fractions import Fraction
from itertools import chain, repeat
from operator import itemgetter

from gamedecomp import linalg
from gamedecomp.games import GameSpace, _kept, _Value


class SubspaceKind(Enum):
    """The five canonical subspaces of a payoff space."""

    PURE_POTENTIAL = "pure-potential"
    NONSTRATEGIC = "nonstrategic"
    PURE_HARMONIC = "pure-harmonic"
    POTENTIAL = "potential"
    HARMONIC = "harmonic"


# the three mutually orthogonal parts, in the order of Decomposition's fields
PART_KINDS = (SubspaceKind.PURE_POTENTIAL, SubspaceKind.NONSTRATEGIC, SubspaceKind.PURE_HARMONIC)
# the parts whose orthogonal sum each canonical subspace is
# (Candogan, Menache, Ozdaglar & Parrilo 2011)
PARTS = {
    **{kind: (kind,) for kind in PART_KINDS},
    SubspaceKind.POTENTIAL: (SubspaceKind.PURE_POTENTIAL, SubspaceKind.NONSTRATEGIC),
    SubspaceKind.HARMONIC: (SubspaceKind.NONSTRATEGIC, SubspaceKind.PURE_HARMONIC),
}


class _Parts(_Value):
    """A value held as its three parts, as fields named after PART_KINDS."""

    def _sum(self, parts: Sequence[SubspaceKind]):
        first, *rest = (getattr(self, part.name.lower()) for part in parts)
        return sum(rest, first)

    def projection(self, kind: SubspaceKind):
        """The projection onto a canonical subspace: the sum of its parts."""
        return self._sum(PARTS[kind])

    def total(self):
        """The sum of the three parts."""
        return self._sum(PART_KINDS)


# -- the algebra applied to payoff rows ------------------------------------


def _check_row(space: GameSpace, row: Sequence[Fraction]) -> None:
    """Refuse a payoff row that does not hold one entry per profile of space."""
    if len(row) != space.k:
        raise ValueError(f"payoff row has {len(row)} entries, expected {space.k}")


def axis_means(space: GameSpace, row: Sequence[Fraction], player: int) -> list[Fraction]:
    """Means of a payoff row along player's axis, one Fraction per own-strategy line."""
    count = space.strategy_counts[space.check_player(player) - 1]
    _check_row(space, row)
    means = []
    try:
        for line in space.lines(player):
            values = row[line]
            # the line's lcm, not the row's, which can be far wider
            den = math.lcm(*{x.denominator for x in values})
            total = sum([x.numerator * (den // x.denominator) for x in values])
            means.append(Fraction(total, den * count))
    except AttributeError:  # looked for only here: a valid row pays nothing for it
        j, x = next((j, x) for j, x in enumerate(row) if not hasattr(x, "denominator"))
        shown = f"{type(x).__name__} {linalg._cut(repr(x))}"
        raise TypeError(f"payoff row entry {j} is {shown}, not a rational") from None
    return means


def average(space: GameSpace, row: Sequence[Fraction], player: int) -> list[Fraction]:
    """M_i @ row: each payoff replaced by its mean along player i's axis."""
    means = axis_means(space, row, player)
    count = space.strategy_counts[player - 1]
    out = list(row)
    for line, mean in zip(space.lines(player), means):
        out[line] = [mean] * count
    return out


def apply_group_inverse(space: GameSpace, row: Sequence[Fraction]) -> list[Fraction]:
    """X @ row: the row's component in each ANOVA part V_T, divided by |T|.

    grades[c] is the row's component in the V_T with |T| = c over the players
    handled so far.  Each effective player i splits every grade into its
    part off i's axis, M_i g_c, which keeps the grade, and the rest,
    g_c - M_i g_c, which moves one grade up; players with one strategy
    have M_i = I and change nothing.
    """
    _check_row(space, row)
    grades = [list(row)]
    for player in _player_bits(space):
        kept = [average(space, g, player) for g in grades]
        moved = [[x - m for x, m in zip(g, a)] for g, a in zip(grades, kept)]
        grades = [kept[0]]
        grades += ([x + y for x, y in zip(a, m)] for a, m in zip(kept[1:], moved))
        grades.append(moved[-1])
    out = [Fraction(0)] * space.k
    for c, g in enumerate(grades[1:], start=1):
        out = [acc + x / c for acc, x in zip(out, g)]
    return out


# -- the projector bundle ------------------------------------------------


def _player_bits(space: GameSpace) -> dict[int, int]:
    """The bit of each effective player (k_i >= 2) in table masks, in player order."""
    players = [i for i, count in enumerate(space.strategy_counts, start=1) if count > 1]
    return {i: 1 << b for b, i in enumerate(players)}


def _entry_values(counts: Sequence[int], table: Sequence[int]) -> list[int]:
    """prod(counts) times the entries of sum_T table[T] P_T, by the mask of
    players on which two profiles differ.

    P_T is the Kronecker product over the effective players (k_i in
    counts) of I - M_i for i in T and M_i otherwise, so one 2x2 step per
    player maps (value off T, value on T) to k_i times (entry where
    profiles agree on the player, entry where they differ).
    """
    values = list(table)
    for b, count in enumerate(counts):
        bit = 1 << b
        for mask in range(len(values)):
            if not mask & bit:
                rest, own = values[mask], values[mask | bit]
                values[mask] = rest + (count - 1) * own
                values[mask | bit] = rest - own
    return values


def _row_gathers(counts: Sequence[int], width: int) -> list[Callable]:
    """Per profile p, the getter of row p of a row of width blocks.

    The getter picks from the block row's entry lists laid end to end:
    masks[p][q] has bit b set iff profiles p and q differ on the b-th
    effective player, so entry (p, q) of block j is at j * 2^n_eff +
    masks[p][q].
    """
    masks = [[0]]
    for b, count in enumerate(counts):
        axis = range(count)
        bits = [[(x != y) << b for y in axis] for x in axis]
        masks = [[m | d for m in row for d in own] for row in masks for own in bits]
    if width * len(masks) == 1:
        # one index gives a bare value, not a 1-tuple
        return [lambda values: (values[0],)]
    offsets = range(0, width << len(counts), 1 << len(counts))
    return [itemgetter(*[start + m for start in offsets for m in row]) for row in masks]


def _densify_blocks(
    counts: Sequence[int],
    tables: dict[Hashable, Sequence[int]],
    den: int,
    layout: Sequence[Sequence[Hashable]],
    gathers: Sequence[Callable],
) -> Matrix:
    """The block matrix whose (i, j) block has the ANOVA table tables[layout[i][j]] / den.

    Each distinct table is turned into entries once, over den times
    prod(counts), and all of them are reduced by one gcd; entries that
    share a table and a mask share one int.
    """
    from gamedecomp.matrix import Matrix

    entries = {key: _entry_values(counts, table) for key, table in tables.items()}
    den *= math.prod(counts)
    g = math.gcd(den, *chain.from_iterable(entries.values()))
    if g > 1:
        den //= g
        entries = {key: [v // g for v in values] for key, values in entries.items()}
    rows = []
    for block_row in layout:
        values = list(chain.from_iterable(entries[key] for key in block_row))
        rows += [gather(values) for gather in gathers]
    # den and the entries share no factor now, so the rows are canonical
    return Matrix._canonical(tuple(rows), den)


class ProjectorSet(_Parts):
    """The projections onto the three parts for one space; the others sum them."""

    _fields = ("space", "pure_potential", "nonstrategic", "pure_harmonic")

    def __init__(
        self, space: GameSpace, pure_potential: Matrix, nonstrategic: Matrix, pure_harmonic: Matrix
    ) -> None:
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "pure_potential", pure_potential)
        object.__setattr__(self, "nonstrategic", nonstrategic)
        object.__setattr__(self, "pure_harmonic", pure_harmonic)

    potential = property(lambda self: self.projection(SubspaceKind.POTENTIAL))
    harmonic = property(lambda self: self.projection(SubspaceKind.HARMONIC))


def subspace_dimension(space: GameSpace, kind: SubspaceKind) -> int:
    """Dimension of a canonical subspace, the sum of its parts' (and the projection's trace)."""
    lifted = sum(space.k // c for c in space.strategy_counts)
    dims = (space.k - 1, lifted, (space.n - 1) * space.k - lifted + 1)
    return sum(d for part, d in zip(PART_KINDS, dims) if part in PARTS[kind])


def _layout(space: GameSpace) -> tuple[tuple[tuple[Hashable, ...], ...], tuple[Hashable, ...]]:
    """The key (bit_i, bit_j, i == j) of each block (i, j), one tuple per distinct key,
    and the distinct keys: the part of _block_tables that does not depend on the kind."""
    bits = list(map(_player_bits(space).get, range(1, space.n + 1), repeat(0)))
    off = {x: {y: (x, y, False) for y in set(bits)} for x in set(bits)}
    same = {x: (x, x, True) for x in set(bits)}
    layout = tuple(
        tuple([off[x][y] if i != j else same[x] for j, y in enumerate(bits)])
        for i, x in enumerate(bits)
    )
    return layout, tuple(dict.fromkeys(chain.from_iterable(layout)))


def _block_tables(
    space: GameSpace, kind: SubspaceKind
) -> tuple[dict[Hashable, list[int]], int, tuple[tuple[Hashable, ...], ...]]:
    """The ANOVA tables of kind's projection, as ints over one denominator.

    Returns (tables, den, layout): block (i, j) is tables[layout[i][j]]
    / den, which on V_T is delta_ij (a + b [i not in T]) + sign [i in T]
    [j in T] / |T|.  A block's table depends only on (bit_i, bit_j,
    i == j), and den is lcm(1..n_eff).  Each part in PARTS[kind] adds its
    (a, b, sign): pure potential P_N X P_N.T (0, 0, 1), nonstrategic
    diag(M_i) (0, 1, 0), and pure harmonic, I minus both, (1, -1, -1).
    """
    pp, ns, ph = (part in PARTS[kind] for part in PART_KINDS)
    a, b, sign = ph, ns - ph, pp - ph
    bit = _player_bits(space)
    den = math.lcm(*range(1, len(bit) + 1))
    parts = range(1 << len(bit))
    layout, keys = _kept(space, "_layout", lambda: _layout(space))

    def table(bit_i: int, bit_j: int, same: bool) -> list[int]:
        return [
            ((a + b * (not t & bit_i)) * den if same else 0)
            + (sign * den // t.bit_count() if t & bit_i and t & bit_j else 0)
            for t in parts
        ]

    return {key: table(*key) for key in keys}, den, layout


def part_matrices(space: GameSpace, kind: SubspaceKind) -> list[Matrix]:
    """kind's projection on each ANOVA part V_T, one n x n matrix per mask of T.

    The projection is sum_T part_T (x) P_T over orthogonal projectors
    P_T != 0, so it is idempotent, or its product with another is zero,
    iff every part is.
    """
    from gamedecomp.matrix import Matrix

    tables, den, layout = _block_tables(space, kind)
    return [
        Matrix.from_numerators([[tables[key][t] for key in row] for row in layout], den)
        for t in range(1 << len(_player_bits(space)))
    ]


def build_projectors(space: GameSpace) -> ProjectorSet:
    """The projector bundle for a space, from one ANOVA table per distinct block."""
    counts = [space.strategy_counts[i - 1] for i in _player_bits(space)]
    gathers = _row_gathers(counts, space.n)
    return ProjectorSet(
        space,
        *(_densify_blocks(counts, *_block_tables(space, kind), gathers) for kind in PART_KINDS),
    )


def __getattr__(name: str) -> object:
    return linalg._dense_name(__name__, name)
