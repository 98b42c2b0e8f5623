"""Game spaces, profile indexing, payoff rows, file format."""

import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from _helpers import PROPERTY, expected_payoff, payoff, random_game, rps_game, spaces
from gamedecomp.games import (
    Game,
    GameFormatError,
    GameSpace,
    MalformedDocumentError,
    PayoffCountError,
    SpaceCapError,
    as_rational,
    parse_game,
    serialize_game,
)
from gamedecomp.linalg import MAX_PRINTED_BITS, Matrix, ResultTooLongError, stp
from gamedecomp.projectors import build_E


def test_space_validation():
    space = GameSpace((2, 3, 2))
    assert space.n == 3
    assert space.k == 12
    assert space.payoff_cells == 36
    with pytest.raises(ValueError):
        GameSpace(())
    with pytest.raises(ValueError):
        GameSpace((2, 0))
    with pytest.raises(SpaceCapError):
        GameSpace((64, 65))
    # the derived profile count and strides stay out of repr
    assert repr(space) == "GameSpace(strategy_counts=(2, 3, 2))"


def test_game_needs_a_game_space():
    with pytest.raises(TypeError, match="GameSpace, got tuple"):
        Game((2, 2), [[0] * 4, [0] * 4])


def test_many_player_space_is_refused_in_linear_memory():
    # the profile count of 50,000 two-strategy players is a 50,000-bit
    # int; the partial products behind the index strides would take about
    # 156 MB, so the cap must refuse the space before they are built
    counts = (2,) * 50_000
    tracemalloc.start()
    try:
        with pytest.raises(SpaceCapError):
            GameSpace(counts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_k_between_with_empty_range():
    space = GameSpace((2, 3, 4))
    assert space.k_between(1, 3) == 24
    assert space.k_between(2, 3) == 12
    assert space.k_between(2, 1) == 1
    assert space.k_between(4, 3) == 1


def test_profile_index_examples():
    assert GameSpace((2, 2)).profile_index((1, 1)) == 1
    assert GameSpace((2, 2)).profile_index((1, 2)) == 2
    assert GameSpace((2, 2, 2)).profile_index((2, 1, 2)) == 6


def test_profile_index_agrees_with_basis_column_products():
    # the index is forced by chained products of standard basis columns
    rng = random.Random(420)
    for counts in [(2, 2), (3, 2), (2, 3, 2), (4,)]:
        space = GameSpace(counts)
        for _ in range(10):
            s = tuple(rng.randint(1, c) for c in counts)
            column = Matrix.basis_column(counts[0], s[0])
            for c, choice in zip(counts[1:], s[1:]):
                column = stp(column, Matrix.basis_column(c, choice))
            assert column.shape == (space.k, 1)
            hot = [i for i in range(space.k) if column[i, 0] == 1]
            assert hot == [space.profile_index(s) - 1]


def test_profile_index_bijection():
    for counts in [(2, 2), (2, 3), (2, 2, 2), (5,), (2, 1, 3)]:
        space = GameSpace(counts)
        indexed = list(enumerate(space.profiles(), start=1))
        assert len({s for _, s in indexed}) == space.k
        assert all(space.profile_index(s) == index for index, s in indexed)


def test_profile_bounds_checked():
    space = GameSpace((2, 3))
    with pytest.raises(ValueError):
        space.profile_index((3, 1))
    with pytest.raises(ValueError):
        space.profile_index((1,))


def test_profile_entries_must_be_integers():
    # a float or bool choice would index payoff rows as a float or bool
    space = GameSpace((2, 3))
    for profile in [(1, 1.5), (True, 2), (1, 2.0), (Fraction(1), 1)]:
        with pytest.raises(ValueError, match="is not an integer"):
            space.profile_index(profile)


def test_player_numbers_and_profile_indices_must_be_integers():
    # a float or bool came back as a float slice, or as player 1
    space = GameSpace((2, 3))
    refused = [
        lambda: space.line(1, 2.5),
        lambda: space.line(1, 6),
        lambda: space.line(True, 0),
        lambda: space.lines(True),
        lambda: space.lines(2.0),
        lambda: build_E(space, True),
    ]
    for call in refused:
        with pytest.raises(ValueError, match="is not an integer in"):
            call()
    assert space.check_player(2) == 2
    assert space.line(2, 5) == slice(3, 6, 1)


def test_refusals_write_huge_ints_as_bounds():
    # CPython writes no int of more than 4300 digits, so a refusal quoting
    # one used to raise CPython's own ValueError in place of the library's
    huge = 10**5000
    for counts in [(huge,), (2, huge)]:
        with pytest.raises(SpaceCapError, match=r"at least 2\*\*166"):
            GameSpace(counts)
    space = GameSpace((2, 3))
    refused = [
        lambda: GameSpace((huge, 0)),
        lambda: space.check_profile((huge, 1)),
        lambda: space.check_profile((huge,)),
        lambda: space.check_player(-huge),
        lambda: space.line(1, huge),
    ]
    for call in refused:
        with pytest.raises(ValueError, match=r"at (least |most -)2\*\*16609\b") as info:
            call()
        assert type(info.value) is ValueError and len(str(info.value)) < 1000


def test_payoff_lookup():
    zero = Game.zero(GameSpace((2, 2)))
    assert all(payoff(zero, i, s) == 0 for i in (1, 2) for s in zero.space.profiles())
    rps = rps_game()
    assert payoff(rps, 1, (1, 3)) == 1  # rock beats scissors
    assert payoff(rps, 2, (1, 3)) == -1


def test_payoff_matches_stp_route():
    # row lookup equals the structure row times the chained basis columns
    rng = random.Random(421)
    for counts in [(2, 2), (2, 3, 2)]:
        space = GameSpace(counts)
        game = random_game(rng, space)
        for _ in range(50):
            s = tuple(rng.randint(1, c) for c in counts)
            i = rng.randint(1, space.n)
            row = Matrix.row(game.payoff_rows[i - 1])
            value = row
            for c, choice in zip(counts, s):
                value = stp(value, Matrix.basis_column(c, choice))
            assert value.shape == (1, 1)
            assert value[0, 0] == game.payoff_rows[i - 1][space.profile_index(s) - 1]


def test_structure_vector_concatenates_rows():
    game = Game(GameSpace((2, 2)), ((1, 2, 3, 4), (5, 6, 7, 8)))
    assert game.structure_vector().column_tuple(0) == tuple(range(1, 9))
    assert Game.from_vector(game.space, list(range(1, 9))) == game


def test_game_row_validation():
    space = GameSpace((2, 2))
    with pytest.raises(PayoffCountError):
        Game(space, ((1, 2, 3, 4),))
    with pytest.raises(PayoffCountError):
        Game(space, ((1, 2, 3), (4, 5, 6)))
    with pytest.raises(PayoffCountError):
        Game.from_vector(space, [1, 2, 3])
    # a str or bytes row would be read one character or byte at a time, and
    # a set or dict row in an order of its own: {3, 1, 2} reads as (1, 2, 3)
    for row in ("1234", b"1234", {4, 1, 3, 2}, dict.fromkeys((4, 1, 3, 2))):
        with pytest.raises(TypeError, match=f"player 2 payoff row is a {type(row).__name__}"):
            Game(space, ((1, 2, 3, 4), row))


def test_game_addition_and_equality():
    space = GameSpace((2, 2))
    a = Game.from_vector(space, [1] * 8)
    b = Game.from_vector(space, [2] * 8)
    assert (a + a) == b
    assert (b - a) == a
    named = Game(space, a.payoff_rows, name="x")
    assert named == a  # names are display-only
    with pytest.raises(ValueError):
        a + Game.zero(GameSpace((2, 3)))


@PROPERTY
@given(spaces())
def test_lines_hold_the_own_strategy_variants(space):
    profiles = range(space.k)
    listed = list(space.profiles())
    for i, count in enumerate(space.strategy_counts, start=1):
        lines = space.lines(i)
        assert space.lines(i) is lines and isinstance(lines, tuple)
        members = [list(profiles[line]) for line in lines]
        assert sorted(p for line in members for p in line) == list(profiles)
        assert [line[0] for line in members] == sorted(line[0] for line in members)
        for line, indices in zip(lines, members):
            first = listed[indices[0]]
            assert first[i - 1] == 1
            variants = [first[: i - 1] + (c,) + first[i:] for c in range(1, count + 1)]
            assert indices == [space.profile_index(v) - 1 for v in variants]
            assert all(space.line(i, p) == line for p in indices)
    for player in (0, space.n + 1):
        with pytest.raises(ValueError):
            space.lines(player)


def test_expected_payoff_at_pure_profile():
    rng = random.Random(422)
    space = GameSpace((2, 3))
    game = random_game(rng, space)
    for s in space.profiles():
        degenerate = [
            [Fraction(int(j == choice)) for j in range(1, count + 1)]
            for choice, count in zip(s, space.strategy_counts)
        ]
        for i in (1, 2):
            assert expected_payoff(game, i, degenerate) == payoff(game, i, s)


def test_expected_payoff_uniform_rps():
    rps = rps_game()
    uniform = [[Fraction(1, 3)] * 3] * 2
    # brute force over the nine profiles
    for i in (1, 2):
        total = sum((payoff(rps, i, s) for s in rps.space.profiles()), Fraction(0))
        assert expected_payoff(rps, i, uniform) == total / 9
        assert expected_payoff(rps, i, uniform) == 0


def test_expected_payoff_zero_game():
    space = GameSpace((2, 2, 2))
    zero = Game.zero(space)
    assert expected_payoff(zero, 2, [[Fraction(1, 2)] * 2] * 3) == 0


# -- file format ---------------------------------------------------------


def test_round_trip_rps():
    rps = rps_game()
    named = Game(rps.space, rps.payoff_rows, name="rps")
    text = serialize_game(named)
    back = parse_game(text)
    assert back == named
    assert back.name == "rps"
    assert parse_game(serialize_game(back)) == back


def test_game_name_must_be_a_string():
    # serialize_game writes the name as given, and parse_game refuses a
    # document whose name is not a string
    space = GameSpace((2,))
    for name in (5, ["rps"], b"rps"):
        with pytest.raises(TypeError, match="name must be a str or None"):
            Game(space, ((1, 2),), name=name)
    for name in ("", "ünïcode \"quoted\"\n"):
        game = Game(space, ((1, 2),), name=name)
        assert parse_game(serialize_game(game)).name == name


def test_serialize_emits_integers_and_fraction_strings():
    game = Game(GameSpace((2,)), ((Fraction(1, 2), -3),))
    text = serialize_game(game)
    assert '"1/2"' in text
    assert "-3" in text
    assert "0.5" not in text


def test_parse_rational_and_decimal_strings():
    text = '{"players": 1, "strategies": [2], "payoffs": [["−9/8", "0.75"]]}'
    game = parse_game(text)
    assert game.payoff_rows[0] == (Fraction(-9, 8), Fraction(3, 4))


# the widest integer serialize_game writes back
WIDEST = 2**MAX_PRINTED_BITS - 1


@st.composite
def wide_games(draw):
    """Games of at most 60 cells whose payoffs are small or near the printable bound."""
    space = draw(spaces(max_cells=60))
    wide = st.integers(0, 2**16).map(lambda d: WIDEST - d)
    numerators = st.one_of(st.integers(-9, 9), wide, wide.map(lambda n: -n))
    cells = st.builds(Fraction, numerators, st.one_of(st.integers(1, 12), wide))
    payoffs = draw(st.lists(cells, min_size=space.payoff_cells, max_size=space.payoff_cells))
    return Game.from_vector(space, payoffs)


@PROPERTY
@given(wide_games())
def test_parse_reads_back_what_serialize_writes(game):
    assert parse_game(serialize_game(game)) == game


def test_parse_accepts_only_payoffs_serialize_can_write():
    doc = '{"players": 1, "strategies": [2], "payoffs": [[0, %s]]}'
    accepted = [
        ('"1e4299"', 10**4299),
        (str(WIDEST), WIDEST),
        (f'"-1/{WIDEST}"', Fraction(-1, WIDEST)),
    ]
    for payoff, value in accepted:
        game = parse_game(doc % payoff)
        assert game.payoff_rows[0][1] == value
        assert parse_game(serialize_game(game)) == game
    # 10**4300 and 9 * 10**4299 have 14,285 bits
    for payoff in ('"1e4300"', '"1e-4300"', "9" + "0" * 4299):
        with pytest.raises(MalformedDocumentError, match=r"payoffs\[1\]\[2\]: .*too long"):
            parse_game(doc % payoff)


def test_serialize_refuses_a_payoff_too_long_to_print():
    game = Game(GameSpace((1,)), ((Fraction(2**MAX_PRINTED_BITS),),))
    with pytest.raises(ResultTooLongError, match="too long to print"):
        serialize_game(game)


def test_decimal_exponent_is_bounded():
    assert as_rational("1e4300") == 10**4300
    assert as_rational("-2.5E-4300") == Fraction(-25, 10**4301)
    for text in ("1e5000", "1.5e-100000", "1e4301", "-1E+4301"):
        with pytest.raises(GameFormatError, match="exponent"):
            as_rational(text)
    # beyond CPython's 4300-digit integer limit the exponent itself is unreadable
    for text in ("1e" + "9" * 5000, "1" * 5000, "1/" + "1" * 5000):
        with pytest.raises(GameFormatError):
            as_rational(text)
    doc = '{"players": 1, "strategies": [2], "payoffs": [["1e5000", 0]]}'
    with pytest.raises(MalformedDocumentError, match="exponent"):
        parse_game(doc)


def test_rational_strings_are_ascii_without_underscores():
    # Fraction reads other scripts' digits and, from Python 3.11, "_";
    # the exponent bound reads only ASCII, so both are refused up front
    assert as_rational(" −3/4 ") == Fraction(-3, 4)
    for text in ("1e٥٠٠٠", "1e５０００", "1_000", "1e4_300", "٣", "1/２"):
        with pytest.raises(GameFormatError, match="ASCII digits, no underscores"):
            as_rational(text)
    doc = '{"players": 1, "strategies": [2], "payoffs": [["1e٥٠٠٠", 0]]}'
    with pytest.raises(MalformedDocumentError, match="ASCII"):
        parse_game(doc)


def test_parse_rejects_floats_and_bools():
    base = '{"players": 1, "strategies": [2], "payoffs": [[%s, 0]]}'
    with pytest.raises(MalformedDocumentError, match="quote it as a string"):
        parse_game(base % "0.75")
    with pytest.raises(MalformedDocumentError):
        parse_game(base % "true")


def test_parse_payoff_count_mismatch():
    with pytest.raises(PayoffCountError, match="payoff count mismatch"):
        parse_game('{"players": 1, "strategies": [2], "payoffs": [[1, 2, 3]]}')
    with pytest.raises(PayoffCountError, match="payoff count mismatch"):
        parse_game('{"players": 2, "strategies": [2, 2], "payoffs": [[1, 2, 3, 4]]}')


def test_parse_malformed_documents():
    with pytest.raises(MalformedDocumentError, match="malformed document"):
        parse_game("{not json")
    with pytest.raises(MalformedDocumentError):
        parse_game("[1, 2]")
    with pytest.raises(MalformedDocumentError):
        parse_game('{"players": 2, "strategies": [2, 2]}')
    with pytest.raises(MalformedDocumentError):
        parse_game('{"players": "two", "strategies": [2, 2], "payoffs": []}')
    with pytest.raises(MalformedDocumentError):
        parse_game(
            '{"players": 1, "strategies": [2], "payoffs": [[1, 2]], "name": 7}'
        )


def test_parse_space_cap():
    doc = '{"players": 2, "strategies": [64, 65], "payoffs": [[], []]}'
    with pytest.raises(SpaceCapError, match="cap"):
        parse_game(doc)


def test_parse_allows_single_strategy_player():
    game = parse_game('{"players": 2, "strategies": [1, 2], "payoffs": [[1, 2], [3, 4]]}')
    assert game.space.strategy_counts == (1, 2)
