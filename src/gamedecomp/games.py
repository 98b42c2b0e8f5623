"""Finite normal-form games with exact rational payoffs.

A game here is a point in the payoff space of its strategy-count
signature: for n players with k_i strategies each, the space has one
rational coordinate per (player, strategy profile) pair.  Payoff rows
are stored per player, ordered so that later players vary fastest,
which is the ordering induced by stacking semitensor products of
standard basis columns.  The analyses and the averaging operators
learn that layout only from GameSpace.lines and GameSpace.line, since
every definition past the projections runs along a player's
own-strategy lines.  The Kronecker-built structural matrices in
dense.py, the bit masks of the dense bundle writer in projectors.py and
decompose.nonstrategic_component_direct index profiles on their own,
so they stay independent oracles for it.

The JSON document format, its parsing diagnostics, and the exact
serialization round trip live here as well.
"""

from __future__ import annotations

import json
import math
import operator
from collections.abc import Iterator, Sequence
from fractions import Fraction
from itertools import accumulate, product

from gamedecomp.linalg import (
    ResultTooLongError,
    _check_bits,
    _cut,
    format_rational,
    parse_rational,
)

CELL_CAP = 4096
_ZERO = Fraction(0)


class GameFormatError(ValueError):
    """A game document that cannot be accepted."""


class MalformedDocumentError(GameFormatError):
    """The document is not valid JSON or lacks the required fields."""


class PayoffCountError(GameFormatError):
    """The payoff arrays do not match the declared space."""


class SpaceCapError(GameFormatError):
    """The declared space exceeds the configured size cap."""


def as_rational(value: object) -> Fraction:
    """Normalize a payoff entry to an exact rational; zeros share one object.

    Accepts integers and the strings parse_rational accepts.  Floats
    and booleans are refused: binary floats are not the number the user
    wrote, and exactness is the whole contract.
    """
    if isinstance(value, Fraction):
        return value or _ZERO
    if isinstance(value, bool):
        raise GameFormatError("payoff entries must be numbers, not booleans")
    if isinstance(value, int):
        return Fraction(value) if value else _ZERO
    if isinstance(value, float):
        raise GameFormatError(
            f"non-integer numeric payoff {value!r}: quote it as a string "
            '(e.g. "3/4" or "0.75") to keep arithmetic exact'
        )
    if isinstance(value, str):
        try:
            return parse_rational(value)
        except ValueError as exc:
            raise GameFormatError(str(exc)) from None
    raise GameFormatError(f"unsupported payoff type {type(value).__name__}")


class _Value:
    """Base of the package's immutable value types.

    A subclass lists its fields in _fields, in repr order, and sets each
    one once in __init__ with object.__setattr__.  Equality and hash
    read the fields in _compared (all of _fields when it is None), and
    hold between instances of one class only.  Setting or deleting an
    attribute raises AttributeError.
    """

    _fields: tuple[str, ...] = ()
    _compared: tuple[str, ...] | None = None

    def _key(self) -> tuple[object, ...]:
        names = self._fields if self._compared is None else self._compared
        return tuple([getattr(self, name) for name in names])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({shown})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to {name!r}: {type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is immutable")


def _shown(value: object) -> str:
    """repr(value) for an error message, with an int of more than 64 bits,
    alone or in a tuple, written as a bound: CPython refuses to write an
    int of more than 4300 digits."""
    if isinstance(value, tuple):
        return f"({', '.join(map(_shown, value))}{',' * (len(value) == 1)})"
    if not isinstance(value, int) or value.bit_length() <= 64:
        return repr(value)
    bound = f"2**{value.bit_length() - 1}"
    return f"at least {bound}" if value > 0 else f"at most -{bound}"


class GameSpace(_Value):
    """Player count and per-player strategy counts.

    The signature [n; k_1, ..., k_n] fixes the payoff space dimension
    n*k with k = prod(k_i).  Construction enforces k_i >= 1, n >= 1,
    and the payoff-cell cap n*k <= CELL_CAP, a memory guard.
    """

    _fields = ("strategy_counts",)

    def __init__(self, strategy_counts: Sequence[int]) -> None:
        counts = tuple(strategy_counts)
        object.__setattr__(self, "strategy_counts", counts)
        if len(counts) < 1:
            raise ValueError("a game space needs at least one player")
        if any(not isinstance(c, int) or isinstance(c, bool) or c < 1 for c in counts):
            raise ValueError(f"strategy counts must be integers >= 1, got {_cut(_shown(counts))}")
        # derived once: the profile count, and each player's index stride
        object.__setattr__(self, "k", math.prod(counts))
        cells = self.n * self.k
        if cells > CELL_CAP:
            raise SpaceCapError(
                f"space [{self.n}; {_cut(','.join(map(_shown, counts)))}] has "
                f"{_shown(cells)} payoff cells, exceeding the cap of {CELL_CAP}"
            )
        # after the cap check: a refused space's partial products can be huge
        strides = tuple(accumulate(reversed(counts[1:]), operator.mul, initial=1))[::-1]
        object.__setattr__(self, "_strides", strides)

    @property
    def n(self) -> int:
        """Number of players."""
        return len(self.strategy_counts)

    @property
    def payoff_cells(self) -> int:
        return self.n * self.k

    def k_between(self, p: int, q: int) -> int:
        """Product of strategy counts for players p..q (1-based, inclusive).

        Empty ranges (q < p) give 1.
        """
        return math.prod(self.strategy_counts[p - 1 : q])

    def profiles(self) -> Iterator[tuple[int, ...]]:
        """All pure profiles, in index order (player 1 most significant)."""
        return product(*(range(1, c + 1) for c in self.strategy_counts))

    def check_profile(self, profile: Sequence[int]) -> tuple[int, ...]:
        s = tuple(profile)
        if len(s) != self.n:
            raise ValueError(f"profile {_shown(s)} has {len(s)} entries, expected {self.n}")
        for i, (choice, count) in enumerate(zip(s, self.strategy_counts), start=1):
            if not isinstance(choice, int) or isinstance(choice, bool):
                raise ValueError(f"player {i} strategy {_shown(choice)} is not an integer")
            if not 1 <= choice <= count:
                raise ValueError(f"player {i} strategy {_shown(choice)} out of range 1..{count}")
        return s

    def check_player(self, player: int) -> int:
        """Return player if it is an int (not a bool) in 1..n; raise ValueError otherwise."""
        if type(player) is not int or not 1 <= player <= self.n:
            raise ValueError(f"player {_shown(player)} is not an integer in 1..{self.n}")
        return player

    def profile_index(self, profile: Sequence[int]) -> int:
        """1-based position of a profile in index order.

        The index is 1 + sum over players of (s_i - 1) times the number
        of profiles of the players after i, i.e. the mixed-radix value
        of the profile with player 1 as the most significant digit.
        """
        s = self.check_profile(profile)
        return 1 + sum((choice - 1) * stride for choice, stride in zip(s, self._strides))

    def lines(self, player: int) -> list[slice]:
        """Player's own-strategy lines, as slices over 0-based profile indices.

        A line holds the k_i profiles that differ only in player's choice,
        in strategy order; the lines partition range(k) and come in index
        order of their first profile, which is the order of the other
        players' subprofiles.
        """
        stride, block = self._axis(player)
        return [
            slice(start + offset, start + block, stride)
            for start in range(0, self.k, block)
            for offset in range(stride)
        ]

    def line(self, player: int, index: int) -> slice:
        """The own-strategy line of player through the profile at 0-based index."""
        if type(index) is not int or not 0 <= index < self.k:
            raise ValueError(f"profile index {_shown(index)} is not an integer in 0..{self.k - 1}")
        stride, block = self._axis(player)
        start = index - index % block
        return slice(start + index % stride, start + block, stride)

    def _axis(self, player: int) -> tuple[int, int]:
        """Index stride of player's choice, and the span of one sweep of it."""
        stride = self._strides[self.check_player(player) - 1]
        return stride, stride * self.strategy_counts[player - 1]


class Game(_Value):
    """A finite game: a space plus one payoff row per player.

    Row i lists player i's payoff at every profile, in profile index
    order.  Equality is exact entrywise equality of the payoff data;
    the optional name is carried for display only.
    """

    _fields = ("space", "payoff_rows", "name")
    _compared = ("space", "payoff_rows")

    def __init__(
        self, space: GameSpace, payoff_rows: Sequence[Sequence[object]], name: str | None = None
    ) -> None:
        if not isinstance(space, GameSpace):
            raise TypeError(f"a game's space must be a GameSpace, got {type(space).__name__}")
        if name is not None and not isinstance(name, str):
            raise TypeError(f"a game's name must be a str or None, got {type(name).__name__}")
        # a str or bytes row would be read one character or byte at a time
        raw = tuple(payoff_rows)
        for i, row in enumerate(raw, start=1):
            if isinstance(row, (str, bytes)):
                raise TypeError(f"player {i} payoff row is a {type(row).__name__}, not a sequence")
        rows = tuple(tuple(as_rational(x) for x in row) for row in raw)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "payoff_rows", rows)
        object.__setattr__(self, "name", name)
        if len(rows) != space.n:
            raise PayoffCountError(f"expected {space.n} payoff rows, got {len(rows)}")
        for i, row in enumerate(rows, start=1):
            if len(row) != space.k:
                raise PayoffCountError(
                    f"player {i} payoff row has {len(row)} entries, expected {space.k}"
                )

    @classmethod
    def zero(cls, space: GameSpace) -> "Game":
        return cls(space, tuple((Fraction(0),) * space.k for _ in range(space.n)))

    @classmethod
    def from_vector(cls, space: GameSpace, vector: Matrix | Sequence[object]) -> "Game":
        """Build a game from the stacked payoff column (rows concatenated)."""
        entries: Sequence[object]
        if hasattr(vector, "ncols"):  # a Matrix, tested without importing its module
            if vector.ncols != 1:
                raise ValueError("expected a column vector")
            entries = vector.column_tuple(0)
        else:
            entries = vector
        if len(entries) != space.payoff_cells:
            raise PayoffCountError(
                f"expected {space.payoff_cells} entries, got {len(entries)}"
            )
        k = space.k
        return cls(
            space,
            tuple(tuple(entries[i * k : (i + 1) * k]) for i in range(space.n)),
        )

    def structure_vector(self) -> Matrix:
        """The stacked payoff column: rows concatenated player by player."""
        from gamedecomp.matrix import Matrix

        return Matrix.column([x for row in self.payoff_rows for x in row])

    def _combine(self, other: "Game", sign: int) -> "Game":
        if not isinstance(other, Game):
            return NotImplemented
        if self.space != other.space:
            raise ValueError("games live in different spaces")
        return Game(
            self.space,
            tuple(
                tuple(a + sign * b for a, b in zip(ra, rb))
                for ra, rb in zip(self.payoff_rows, other.payoff_rows)
            ),
        )

    def __add__(self, other: "Game") -> "Game":
        return self._combine(other, 1)

    def __sub__(self, other: "Game") -> "Game":
        return self._combine(other, -1)


# -- document format ----------------------------------------------------


def parse_game(text: str) -> Game:
    """Parse a game document.

    The document is a JSON object with "players" (int), "strategies"
    (list of ints, one per player), "payoffs" (one array per player,
    each with one entry per profile in index order), and an optional
    "name".  Distinct failure modes raise distinct errors, all of them
    GameFormatError subclasses.  A payoff whose numerator or denominator
    has more than MAX_PRINTED_BITS bits is refused, so that
    serialize_game can write every parsed game back.
    """
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # besides JSONDecodeError: integer literals over CPython's 4300
        # digits (ValueError) and nesting past the recursion limit
        raise MalformedDocumentError(f"malformed document: {exc}") from None
    if not isinstance(doc, dict):
        raise MalformedDocumentError("malformed document: top level must be an object")
    for key in ("players", "strategies", "payoffs"):
        if key not in doc:
            raise MalformedDocumentError(f"malformed document: missing field {key!r}")
    players = doc["players"]
    strategies = doc["strategies"]
    if not isinstance(players, int) or isinstance(players, bool) or players < 1:
        raise MalformedDocumentError('malformed document: "players" must be an integer >= 1')
    if not isinstance(strategies, list) or len(strategies) != players:
        raise MalformedDocumentError(
            'malformed document: "strategies" must list one count per player'
        )
    if any(not isinstance(c, int) or isinstance(c, bool) or c < 1 for c in strategies):
        raise MalformedDocumentError(
            'malformed document: strategy counts must be integers >= 1'
        )
    space = GameSpace(tuple(strategies))
    payoffs = doc["payoffs"]
    if not isinstance(payoffs, list) or len(payoffs) != players:
        raise PayoffCountError(
            f"payoff count mismatch: expected {players} payoff arrays, "
            f"got {len(payoffs) if isinstance(payoffs, list) else type(payoffs).__name__}"
        )
    rows = []
    for i, row in enumerate(payoffs, start=1):
        if not isinstance(row, list) or len(row) != space.k:
            raise PayoffCountError(
                f"payoff count mismatch: player {i} needs {space.k} entries, "
                f"got {len(row) if isinstance(row, list) else type(row).__name__}"
            )
        parsed = []
        for j, cell in enumerate(row, start=1):
            try:
                parsed.append(_check_bits(as_rational(cell)))
            except (GameFormatError, ResultTooLongError) as exc:
                raise MalformedDocumentError(
                    f"malformed document: payoffs[{i}][{j}]: {exc}"
                ) from None
        rows.append(tuple(parsed))
    name = doc.get("name")
    if name is not None and not isinstance(name, str):
        raise MalformedDocumentError('malformed document: "name" must be a string')
    return Game(space, tuple(rows), name=name)


def game_document(game: Game, digits: int | None = None) -> dict[str, object]:
    """The game's document: players, strategies, payoffs by format_rational, then any name."""
    doc: dict[str, object] = {
        "players": game.space.n,
        "strategies": list(game.space.strategy_counts),
        "payoffs": [[format_rational(x, digits) for x in row] for row in game.payoff_rows],
    }
    if game.name is not None:
        doc["name"] = game.name
    return doc


def serialize_game(game: Game) -> str:
    """Serialize a game to its exact document form.

    Integers are emitted as JSON numbers, everything else as "p/q"
    strings, so parse_game(serialize_game(g)) == g exactly.  Raises
    ResultTooLongError, a ValueError, for a payoff too long to print.
    """
    return json.dumps(game_document(game), indent=2) + "\n"
