"""Decomposition, membership, and the two potential-extraction routes."""

import importlib
import math
import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import gamedecomp.projectors as projectors
from _helpers import (
    PROPERTY,
    coprime_wide_game,
    dense_potential_equation,
    games,
    random_game,
    rps_game,
    spaces,
    symmetric_222,
    symmetric_33,
)
from gamedecomp.analysis import (
    check_harmonic_defn,
    check_nonstrategic_defn,
    check_potential_defn,
    check_pure_harmonic_defn,
    pure_nash,
)
from gamedecomp.decompose import (
    decompose,
    differs_by_constant,
    is_member,
    nonstrategic_component_direct,
    potential_function,
    raw_potential_vector,
    solve_potential_equation,
)
from gamedecomp.games import Game, GameSpace
from gamedecomp.linalg import Matrix, block_diag, group_inverse_via_solve, mp_inverse
from gamedecomp.projectors import (
    SubspaceKind,
    build_B_N,
    build_B_P,
    build_E,
    build_e,
    build_e_set,
    build_P_N,
    build_projectors,
    group_inverse_closed_form,
)

PART_KINDS = (
    SubspaceKind.PURE_POTENTIAL,
    SubspaceKind.NONSTRATEGIC,
    SubspaceKind.PURE_HARMONIC,
)


def potential_game(rng: random.Random, space: GameSpace) -> Game:
    """A guaranteed potential game: the potential-subspace basis times
    a random integer weight vector."""
    b_p = build_B_P(space)
    w = Matrix.column([rng.randint(-9, 9) for _ in range(b_p.ncols)])
    return Game.from_vector(space, b_p @ w)


def test_zero_game_decomposes_to_zeros():
    space = GameSpace((2, 3))
    parts = decompose(Game.zero(space))
    assert parts.pure_potential == Game.zero(space)
    assert parts.nonstrategic == Game.zero(space)
    assert parts.pure_harmonic == Game.zero(space)


def test_rps_is_purely_harmonic():
    rps = rps_game()
    parts = decompose(rps)
    assert parts.pure_harmonic == rps
    assert parts.pure_potential == Game.zero(rps.space)
    assert parts.nonstrategic == Game.zero(rps.space)


def test_components_match_pseudoinverse_oracle():
    # independent route: the basis pseudoinverses, never the closed form
    rng = random.Random(430)
    space = GameSpace((2, 3))
    b_p = build_B_P(space)
    b_n = build_B_N(space)
    potential_proj = b_p @ mp_inverse(b_p)
    nonstrategic_proj = b_n @ mp_inverse(b_n)
    identity = Matrix.identity(space.payoff_cells)
    for _ in range(10):
        game = random_game(rng, space)
        u = game.structure_vector()
        parts = decompose(game)
        assert parts.pure_potential.structure_vector() == (
            potential_proj - nonstrategic_proj
        ) @ u
        assert parts.nonstrategic.structure_vector() == nonstrategic_proj @ u
        assert parts.pure_harmonic.structure_vector() == (
            identity - potential_proj
        ) @ u


def test_components_sum_and_membership():
    rng = random.Random(431)
    for counts in [(2, 2), (2, 3), (2, 2, 2)]:
        space = GameSpace(counts)
        for _ in range(5):
            game = random_game(rng, space)
            parts = decompose(game)
            assert parts.total() == game
            for part, kind in zip(
                (parts.pure_potential, parts.nonstrategic, parts.pure_harmonic),
                PART_KINDS,
            ):
                assert is_member(part, kind)


def test_zero_game_is_member_of_everything():
    zero = Game.zero(GameSpace((2, 2)))
    assert all(is_member(zero, kind) for kind in SubspaceKind)


def test_symmetric_222_games_are_potential():
    rng = random.Random(432)
    for _ in range(20):
        game = symmetric_222(*(rng.randint(-9, 9) for _ in range(6)))
        assert is_member(game, SubspaceKind.POTENTIAL)


def test_symmetric_33_potential_condition():
    rng = random.Random(433)
    hits = 0
    for _ in range(40):
        a, b, c, d, e, f, g, h, i = (rng.randint(-9, 9) for _ in range(9))
        game = symmetric_33(a, b, c, d, e, f, g, h, i)
        expected = (c - b + d - f - g + h) == 0
        hits += expected
        assert is_member(game, SubspaceKind.POTENTIAL) == expected
    # force the condition to hold so the positive branch is exercised
    for _ in range(10):
        a, b, c, d, e, f, g = (rng.randint(-9, 9) for _ in range(7))
        h = f + g + b - c - d
        game = symmetric_33(a, b, c, d, e, f, g, h, rng.randint(-9, 9))
        assert is_member(game, SubspaceKind.POTENTIAL)


def test_pure_potential_iff_potential_and_normalized():
    # cross-check: pure potential == potential whose rows sum to zero
    # along each player's own strategy axis
    rng = random.Random(434)
    space = GameSpace((2, 2))
    bundle = build_projectors(space)

    def normalized(game: Game) -> bool:
        for i, count in enumerate(space.strategy_counts, start=1):
            row = game.payoff_rows[i - 1]
            for anchor in space.profiles():
                if anchor[i - 1] != 1:
                    continue
                total = Fraction(0)
                for choice in range(1, count + 1):
                    varied = list(anchor)
                    varied[i - 1] = choice
                    total += row[space.profile_index(varied) - 1]
                if total != 0:
                    return False
        return True

    for _ in range(20):
        game = random_game(rng, space)
        projected = Game.from_vector(space, bundle.potential @ game.structure_vector())
        assert is_member(projected, SubspaceKind.POTENTIAL)
        assert is_member(projected, SubspaceKind.PURE_POTENTIAL) == normalized(
            projected
        )


def test_potential_function_reproduces_worked_example():
    game = symmetric_222(1, 1, 2, -1, 1, -1)
    result = potential_function(game)
    assert result is not None
    assert result.values == (
        Fraction(-7, 8),
        Fraction(1, 8),
        Fraction(1, 8),
        Fraction(1, 8),
        Fraction(1, 8),
        Fraction(1, 8),
        Fraction(1, 8),
        Fraction(1, 8),
    )
    shifted = result.shifted(Fraction(-9, 8))
    assert shifted.values == (-2, -1, -1, -1, -1, -1, -1, -1)


def test_shift_must_be_rational():
    # a float would carry its binary value into the exact results
    result = potential_function(symmetric_222(1, 1, 2, -1, 1, -1))
    assert result.shifted(Fraction(1, 8)).values[0] == Fraction(-3, 4)
    assert result.shifted(1).values[0] == Fraction(1, 8)
    for constant in (0.1, True, "1/2"):
        with pytest.raises(TypeError, match="rational"):
            result.shifted(constant)


def test_potential_function_of_nonstrategic_game_is_constant():
    rng = random.Random(435)
    space = GameSpace((2, 2, 2))
    b_n = build_B_N(space)
    w = Matrix.column([rng.randint(-9, 9) for _ in range(b_n.ncols)])
    game = Game.from_vector(space, b_n @ w)
    result = potential_function(game)
    assert result is not None
    assert len(set(result.values)) == 1


def test_potential_function_none_for_rps():
    assert potential_function(rps_game()) is None
    assert solve_potential_equation(rps_game()) is None


def test_extracted_potential_satisfies_definition():
    rng = random.Random(436)
    for counts in [(2, 2), (2, 3), (2, 2, 2)]:
        space = GameSpace(counts)
        for _ in range(5):
            game = potential_game(rng, space)
            result = potential_function(game)
            assert result is not None
            assert check_potential_defn(game, result)
            assert check_potential_defn(game, result.shifted(7))


def test_two_routes_agree_up_to_constant():
    rng = random.Random(437)
    space = GameSpace((2, 2))
    for _ in range(50):
        game = potential_game(rng, space)
        via_projection = potential_function(game)
        via_equation = solve_potential_equation(game)
        assert via_projection is not None and via_equation is not None
        assert differs_by_constant(via_projection.values, via_equation.values)
        assert check_potential_defn(game, via_equation)


def test_solve_potential_equation_zero_game():
    result = solve_potential_equation(Game.zero(GameSpace((2, 2))))
    assert result is not None
    assert set(result.values) == {0}


def test_solve_builds_one_fraction_per_distinct_value():
    # every player's payoff is phi, whose values take two levels, so the
    # values repeat and every offset is zero: each distinct one is one object
    rng = random.Random(31)
    space = GameSpace((3, 3, 2))
    phi = [rng.choice((Fraction(0), Fraction(1, 2))) for _ in range(space.k)]
    result = solve_potential_equation(Game(space, [phi] * space.n))
    entries = [*result.values, *(x for block in result.player_offsets for x in block)]
    assert len(set(entries)) == 2
    assert len({id(x) for x in entries}) == 2


def test_single_player_game_is_its_own_potential():
    game = Game.from_vector(GameSpace((3,)), [4, -1, 2])
    assert is_member(game, SubspaceKind.POTENTIAL)
    result = solve_potential_equation(game)
    assert result is not None
    assert result.values == (4, -1, 2)
    projected = potential_function(game)
    assert projected is not None
    assert differs_by_constant(projected.values, result.values)


def test_player_offsets_reconstruct_payoffs():
    # V_i = phi + E_i xi_i, entrywise, for both routes
    rng = random.Random(438)
    space = GameSpace((2, 3))
    from gamedecomp.projectors import build_E

    for _ in range(5):
        game = potential_game(rng, space)
        for result in (potential_function(game), solve_potential_equation(game)):
            assert result is not None
            phi = Matrix.column(result.values)
            for i in range(1, space.n + 1):
                lift = build_E(space, i) @ Matrix.column(result.player_offsets[i - 1])
                assert phi + lift == Matrix.column(game.payoff_rows[i - 1])


def test_raw_vector_matches_potential_on_potential_games():
    rng = random.Random(439)
    space = GameSpace((2, 2))
    game = potential_game(rng, space)
    assert raw_potential_vector(game) == potential_function(game).values
    # for any game, the canonical potential of its potential component
    assert len(raw_potential_vector(rps_game())) == 9


def test_nonstrategic_direct_equals_projection():
    rng = random.Random(440)
    space = GameSpace((2, 2, 2))
    for _ in range(50):
        game = random_game(rng, space)
        assert nonstrategic_component_direct(game) == decompose(game).nonstrategic


def test_nonstrategic_direct_fixed_point():
    # player payoffs that ignore the own strategy are left untouched
    space = GameSpace((2, 2))
    game = Game(space, ((1, 2, 1, 2), (3, 3, 4, 4)))
    assert nonstrategic_component_direct(game) == game


def test_nonstrategic_direct_of_rps_is_zero():
    assert nonstrategic_component_direct(rps_game()) == Game.zero(GameSpace((3, 3)))


def test_differs_by_constant_edge_cases():
    assert differs_by_constant((1, 2), (0, 1))
    assert not differs_by_constant((1, 2), (0, 2))
    assert not differs_by_constant((1,), (0, 1))


def test_membership_needs_exact_projection_fixed_point():
    rps = rps_game()
    for kind in (SubspaceKind.POTENTIAL, SubspaceKind.PURE_POTENTIAL,
                 SubspaceKind.NONSTRATEGIC):
        assert not is_member(rps, kind)
    assert is_member(rps, SubspaceKind.PURE_HARMONIC)
    assert is_member(rps, SubspaceKind.HARMONIC)


def test_check_potential_defn_length_guard():
    with pytest.raises(ValueError):
        check_potential_defn(
            rps_game(),
            potential_function(Game.zero(GameSpace((2, 2)))),
        )


# -- the matrix-free route against the dense oracles, on random spaces ----

# spaces padded with one-strategy players, which the ANOVA tables fold out
PADDED = [GameSpace(c) for c in [(2, 1, 1, 1, 1, 3), (1,) * 10, (2, 2) + (1,) * 6]]


def padded_game(index: int) -> Game:
    return random_game(random.Random(index), PADDED[index])


# spaces() draws at most four players; X here runs up to grade five
FIVE_PLAYERS = random_game(random.Random(5), GameSpace((2,) * 5))


@lru_cache(maxsize=None)
def oracle_group_inverse(counts: tuple[int, ...]) -> Matrix:
    """X by the dense defining-equation solve on sum_i (I - e_i/k_i)."""
    space = GameSpace(counts)
    residual = Matrix.zeros(space.k, space.k)
    for i, count in enumerate(counts, start=1):
        residual = residual + Matrix.identity(space.k) - build_e(space, i) * Fraction(1, count)
    return group_inverse_via_solve(residual)


@PROPERTY
@given(games())
@example(padded_game(0))
@example(padded_game(1))
@example(padded_game(2))
@example(FIVE_PLAYERS)
def test_decompose_equals_dense_projections(game):
    bundle = build_projectors(game.space)
    u = game.structure_vector()
    parts = decompose(game)
    assert parts.pure_potential.structure_vector() == bundle.pure_potential @ u
    assert parts.nonstrategic.structure_vector() == bundle.nonstrategic @ u
    assert parts.pure_harmonic.structure_vector() == bundle.pure_harmonic @ u


@PROPERTY
@given(games(max_cells=100))
def test_is_member_equals_dense_fixed_point(game):
    # the game itself is rarely a member; its projections always are
    bundle = build_projectors(game.space)
    u = game.structure_vector()
    candidates = [game] + [
        Game.from_vector(game.space, bundle.projection(kind) @ u) for kind in SubspaceKind
    ]
    for candidate in candidates:
        v = candidate.structure_vector()
        for kind in SubspaceKind:
            assert is_member(candidate, kind) == (bundle.projection(kind) @ v == v)


@PROPERTY
@given(games(max_cells=100))
@example(padded_game(0))
@example(padded_game(1))
@example(padded_game(2))
@example(FIVE_PLAYERS)
def test_raw_potential_vector_equals_dense_route(game):
    x = oracle_group_inverse(game.space.strategy_counts)
    expected = x @ build_P_N(game.space).T @ game.structure_vector()
    assert raw_potential_vector(game) == expected.column_tuple(0)


@PROPERTY
@given(games(max_cells=100))
@example(padded_game(0))
@example(padded_game(1))
@example(padded_game(2))
@example(FIVE_PLAYERS)
def test_potential_offsets_equal_lift_route(game):
    # the raw vector of any game is the canonical potential of its
    # potential projection, here built by the dense projector
    space = game.space
    potential = Game.from_vector(
        space, build_projectors(space).potential @ game.structure_vector()
    )
    result = potential_function(potential)
    assert result is not None
    assert result.values == raw_potential_vector(potential)
    assert result.values == raw_potential_vector(game)
    phi = Matrix.column(result.values)
    for i, count in enumerate(space.strategy_counts, start=1):
        u_i = Matrix.column(potential.payoff_rows[i - 1])
        block = build_E(space, i).T @ (u_i - phi) * Fraction(1, count)
        assert result.player_offsets[i - 1] == block.column_tuple(0)


@PROPERTY
@given(games(max_cells=100))
@example(padded_game(0))
@example(padded_game(1))
@example(padded_game(2))
@example(Game.from_vector(GameSpace((3,)), [4, -1, 2]))
@example(Game.from_vector(GameSpace((1,)), [5]))
@example(random_game(random.Random(3), GameSpace((1, 1, 2, 3))))
@example(random_game(random.Random(4), GameSpace((3, 1, 2))))
@example(random_game(random.Random(5), GameSpace((2, 3, 1))))
@example(coprime_wide_game((2, 3)))
@example(coprime_wide_game((1, 2, 1, 2)))
@example(coprime_wide_game((4,)))
def test_path_sums_equal_dense_potential_solve(game):
    # same verdict, values and offsets, entrywise, on a game and its
    # potential projection (rarely a potential game, always one); the
    # examples pad with one-strategy players first, in the middle and
    # last, take one player, and scale the int rows by wide coprime lcms
    potential = Game.from_vector(
        game.space, build_projectors(game.space).potential @ game.structure_vector()
    )
    for g in (game, potential):
        assert solve_potential_equation(g) == dense_potential_equation(g)
    assert solve_potential_equation(potential) is not None


@PROPERTY
@given(spaces(max_cells=100))
@example(PADDED[0])
@example(PADDED[1])
@example(PADDED[2])
def test_densified_bundle_equals_matrix_products(space):
    bundle = build_projectors(space)
    x = oracle_group_inverse(space.strategy_counts)
    p_n = build_P_N(space)
    pure_potential = p_n @ x @ p_n.T
    nonstrategic = block_diag(
        [build_e(space, i) * Fraction(1, c) for i, c in enumerate(space.strategy_counts, 1)]
    )
    identity = Matrix.identity(space.payoff_cells)
    assert group_inverse_closed_form(space) == x
    assert bundle.pure_potential == pure_potential
    assert bundle.nonstrategic == nonstrategic
    assert bundle.pure_harmonic == identity - pure_potential - nonstrategic
    assert bundle.potential == pure_potential + nonstrategic
    assert bundle.harmonic == identity - pure_potential


@PROPERTY
@given(spaces())
def test_densified_subset_product_is_scaled_e_set(space):
    players = range(1, space.n + 1)
    for size in range(space.n + 1):
        for subset in combinations(players, size):
            k_s = math.prod(space.strategy_counts[i - 1] for i in subset)
            dense = projectors._densify(space, {frozenset(subset): Fraction(1)})
            assert dense == build_e_set(space, subset) * Fraction(1, k_s)


def test_one_strategy_players_add_no_subset_work(monkeypatch):
    # every table has one entry per set of players with two or more
    # strategies, a build turns one table per part and distinct
    # (bit_i, bit_j, i == j) into entries, and decompose averages 2n
    # times plus once per effective player and grade for X; the checks
    # fail on the first excess call, so a route that scales with all
    # players, or with the subsets of the effective ones, fails here
    # instead of running on
    real_entry_values, real_average = projectors._entry_values, projectors.average
    budget = {}

    def entry_values(*args):
        budget["tables"] -= 1
        assert budget["tables"] >= 0, "too many tables"
        values = real_entry_values(*args)
        assert len(values) == budget["table"]
        return values

    def average(*args):
        budget["averages"] -= 1
        assert budget["averages"] >= 0, "too many averages"
        return real_average(*args)

    monkeypatch.setattr(projectors, "_entry_values", entry_values)
    monkeypatch.setattr(projectors, "average", average)
    # the package exports the function decompose under its module's name
    monkeypatch.setattr(importlib.import_module("gamedecomp.decompose"), "average", average)
    for counts in [(2, 1, 1, 1, 1, 3), (2, 2) + (1,) * 10, (1,) * 4096, (2,) * 6]:
        space = GameSpace(counts)
        n_eff = sum(c > 1 for c in counts)
        budget["table"] = 2**n_eff
        budget["tables"] = 3 * ((n_eff + 1) ** 2 + n_eff + 1)
        if space.payoff_cells <= 100:
            build_projectors(space)
        budget["averages"] = 2 * space.n + n_eff * (n_eff + 1) // 2
        game = random_game(random.Random(len(counts)), space)
        assert decompose(game).total() == game


def test_analyses_build_and_apply_no_dense_matrix(monkeypatch):
    rng = random.Random(441)
    space = GameSpace((2, 3, 2))
    potential = potential_game(rng, space)
    game = random_game(rng, space)

    def refuse(*args, **kwargs):
        raise AssertionError("dense matrix route used")

    monkeypatch.setattr(Matrix, "__matmul__", refuse)
    monkeypatch.setattr(projectors, "build_projectors", refuse)
    monkeypatch.setattr(projectors, "_densify_blocks", refuse)
    for g in (game, potential):
        assert decompose(g).total() == g
        for kind in SubspaceKind:
            is_member(g, kind)
        raw_potential_vector(g)
    assert potential_function(game) is None
    assert potential_function(potential) is not None
    assert solve_potential_equation(game) is None
    assert solve_potential_equation(potential) is not None


# -- the split, kept on the game ------------------------------------------

DECOMPOSE = importlib.import_module("gamedecomp.decompose")
ANALYSES = {
    "decompose": decompose,
    **{kind.value: lambda g, kind=kind: is_member(g, kind) for kind in SubspaceKind},
    "potential_function": potential_function,
    "raw_potential_vector": raw_potential_vector,
    "solve_potential_equation": solve_potential_equation,
    "nonstrategic_component_direct": nonstrategic_component_direct,
    "check_nonstrategic_defn": check_nonstrategic_defn,
    "check_pure_harmonic_defn": check_pure_harmonic_defn,
    "check_harmonic_defn": check_harmonic_defn,
    "pure_nash": pure_nash,
}


@pytest.fixture
def splits(monkeypatch):
    """The games split while the test runs, one space per split: the split
    applies X once, and nothing else in the package applies it."""
    calls = []
    real = DECOMPOSE.apply_group_inverse

    def counted(space, row):
        calls.append(space)
        return real(space, row)

    monkeypatch.setattr(DECOMPOSE, "apply_group_inverse", counted)
    return calls


def test_each_game_is_split_once(splits):
    rng = random.Random(26)
    space = GameSpace((2, 3))
    for game in (random_game(rng, space), potential_game(rng, space)):
        shown, key = repr(game), hash(game)
        twin = Game(space, game.payoff_rows)
        first = decompose(game)
        for analysis in ANALYSES.values():
            analysis(game)
        assert decompose(game) is first
        assert len(splits) == 1
        assert repr(game) == shown and hash(game) == key and game == twin
        # an equal game built apart splits once more, to equal results
        assert decompose(twin) == first and decompose(twin) is not first
        assert len(splits) == 2
        splits.clear()


@pytest.mark.parametrize(
    "argv, count",
    [
        (["decompose"], 1),
        (["classify"], 1),
        (["potential"], 1),
        (["potential", "--experimental-raw-vector"], 1),
        (["verify"], 1),
        (["nash"], 0),
    ],
    ids=["decompose", "classify", "potential", "potential-raw-vector", "verify", "nash"],
)
def test_each_command_splits_its_game_at_most_once(tmp_path, capsys, splits, argv, count):
    from gamedecomp.cli import main
    from gamedecomp.games import serialize_game

    path = tmp_path / "game.json"
    path.write_text(serialize_game(random_game(random.Random(26), GameSpace((2, 3)))))
    assert main([argv[0], str(path), *argv[1:]]) == 0
    # the game is not potential, so the raw vector is printed where asked
    printed = "experimental_raw_vector" in capsys.readouterr().out
    assert printed == ("--experimental-raw-vector" in argv)
    assert len(splits) == count


@pytest.fixture
def scalings(monkeypatch):
    """The payoff rows scaled to ints while the test runs, one entry per
    scaling: _int_rows is the one scaler, and _int_view its one caller."""
    calls = []
    real = DECOMPOSE._int_rows

    def counted(rows):
        calls.append(rows)
        return real(rows)

    monkeypatch.setattr(DECOMPOSE, "_int_rows", counted)
    return calls


def test_repeated_analyses_scale_once_and_keep_the_potential(scalings):
    game = potential_game(random.Random(26), GameSpace((2, 3)))
    kept = potential_function(game)
    for _ in range(2):
        for analysis in ANALYSES.values():
            analysis(game)
    assert kept is not None and potential_function(game) is kept
    assert scalings == [game.payoff_rows]


@pytest.mark.parametrize("command, count", [("classify", 1), ("verify", 1), ("nash", 0)])
def test_each_command_scales_its_payoffs_at_most_once(tmp_path, capsys, scalings, command, count):
    # classify's two int checks and verify's solve share one int view;
    # nash stays on Fractions, off the lcm of the denominators
    from gamedecomp.cli import main
    from gamedecomp.games import serialize_game

    path = tmp_path / "game.json"
    path.write_text(serialize_game(random_game(random.Random(26), GameSpace((2, 3)))))
    assert main([command, str(path)]) == 0
    capsys.readouterr()
    assert len(scalings) == count


@PROPERTY
@given(games(max_cells=60), st.permutations(list(ANALYSES)))
def test_analyses_agree_in_any_order_with_a_fresh_game(game, order):
    results = {name: ANALYSES[name](game) for name in order}
    fresh = Game(game.space, game.payoff_rows)
    assert results == {name: analysis(fresh) for name, analysis in ANALYSES.items()}


def test_the_oracles_do_not_read_the_kept_split():
    # a game carrying another game's split: the analyses that read it give
    # the other game's answers, and every oracle and verify still see the
    # game's own payoffs
    from gamedecomp import analysis, cli

    rng = random.Random(26)
    space = GameSpace((2, 3))
    game, other = random_game(rng, space), potential_game(rng, space)
    fresh = Game(space, game.payoff_rows)
    object.__setattr__(game, "_split", DECOMPOSE._split(other))
    assert decompose(game) == decompose(other)
    # the values kept from the split, the potential and the zero parts, are
    # filled from the other game's split before any oracle runs
    assert potential_function(game) is not None
    assert all(is_member(game, kind) == is_member(other, kind) for kind in SubspaceKind)
    assert {"_potential", "_split"} <= set(vars(game))
    assert "_zero_parts" in vars(decompose(game))
    for oracle in (
        solve_potential_equation,
        nonstrategic_component_direct,
        analysis.check_nonstrategic_defn,
        analysis.check_pure_harmonic_defn,
        analysis.check_harmonic_defn,
    ):
        assert oracle(game) == oracle(fresh)
    failed = {name for name, passed in cli._verification_checks(game) if not passed}
    assert failed == {
        "decomposition_sums_to_input",
        "potential_routes_agree",
        "nonstrategic_direct_agrees",
    }
