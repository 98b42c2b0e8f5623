"""The value types: equality, hash, repr, immutability, copying and pickling."""

import copy
import pickle
from fractions import Fraction

import pytest

from gamedecomp.decompose import PotentialFunction, decompose
from gamedecomp.games import Game, GameSpace
from gamedecomp.projectors import build_projectors

SPACE = GameSpace((2, 1))
GAME = Game(SPACE, [[1, Fraction(1, 2)], [0, -3]], name="d")
POTENTIAL = PotentialFunction((Fraction(1), Fraction(-1, 3)), ((Fraction(2),),))
# a game that holds its split, beside GAME, which is never decomposed
DECOMPOSED = Game(SPACE, [[2, Fraction(1, 3)], [-1, 0]])
decompose(DECOMPOSED)

# one instance of each value type, with one of its fields
VALUES = [
    (SPACE, "strategy_counts"),
    (GAME, "payoff_rows"),
    (decompose(DECOMPOSED), "nonstrategic"),
    (POTENTIAL, "values"),
    (build_projectors(SPACE), "potential"),
    (DECOMPOSED, "payoff_rows"),
]
IDS = [type(value).__name__ for value, _ in VALUES[:-1]] + ["decomposed-Game"]


@pytest.mark.parametrize("value, field", VALUES, ids=IDS)
def test_value_is_immutable(value, field):
    for name in (field, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert getattr(value, field) is not None


@pytest.mark.parametrize("value, field", VALUES, ids=IDS)
def test_copies_and_pickles_are_equal(value, field):
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value)
        assert twin == value
        assert hash(twin) == hash(value)
        assert repr(twin) == repr(value)
        assert getattr(twin, field) == getattr(value, field)
        if value is DECOMPOSED:
            assert decompose(twin) == decompose(Game(SPACE, value.payoff_rows))


def test_copied_space_keeps_its_derived_data():
    space = pickle.loads(pickle.dumps(GameSpace((2, 3, 2))))
    assert space.k == 12
    assert space.profile_index((2, 3, 1)) == 11
    assert copy.deepcopy(space).profile_index((1, 2, 2)) == 4


def test_equality_is_within_one_type():
    values = [value for value, _ in VALUES]
    for i, a in enumerate(values):
        for b in values[i + 1 :]:
            assert a != b
    assert SPACE != (2, 1)
    assert GAME != (SPACE, GAME.payoff_rows)
    assert POTENTIAL != POTENTIAL.values


def test_equality_and_hash_ignore_the_display_name():
    renamed = Game(SPACE, GAME.payoff_rows, name="other")
    unnamed = Game(SPACE, GAME.payoff_rows)
    assert renamed == unnamed == GAME
    assert hash(renamed) == hash(unnamed) == hash(GAME)
    assert Game(SPACE, [[1, 0], [0, -3]]) != GAME
    assert GameSpace((1, 2)) != SPACE
    assert POTENTIAL != PotentialFunction(POTENTIAL.values)
    assert len({GAME, renamed, unnamed, SPACE}) == 2


def test_repr_strings():
    assert repr(SPACE) == "GameSpace(strategy_counts=(2, 1))"
    assert repr(GAME) == (
        "Game(space=GameSpace(strategy_counts=(2, 1)), "
        "payoff_rows=((Fraction(1, 1), Fraction(1, 2)), (Fraction(0, 1), Fraction(-3, 1))), "
        "name='d')"
    )
    assert repr(POTENTIAL) == (
        "PotentialFunction(values=(Fraction(1, 1), Fraction(-1, 3)), "
        "player_offsets=((Fraction(2, 1),),))"
    )
    assert repr(PotentialFunction(())) == "PotentialFunction(values=(), player_offsets=())"
