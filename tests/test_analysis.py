"""Definitional checks and Nash-equilibrium analysis."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from _helpers import (
    PROPERTY,
    brute_potential_defn,
    brute_pure_nash,
    brute_uniform_mixed_nash,
    coprime_wide_game,
    dense_harmonic_nash_kernel_dim,
    fraction_harmonic_defn,
    fraction_pure_harmonic_defn,
    games,
    payoff,
    random_game,
    rps_game,
    spaces,
    symmetric_222,
    symmetric_33,
)
from gamedecomp import dense
from gamedecomp.analysis import (
    check_harmonic_defn,
    check_nonstrategic_defn,
    check_potential_defn,
    check_pure_harmonic_defn,
    harmonic_nash_kernel_dim,
    harmonic_pure_nash_zero_check,
    pure_nash,
    uniform_mixed_nash_check,
)
from gamedecomp.decompose import (
    PotentialFunction,
    decompose,
    is_member,
    potential_function,
    raw_potential_vector,
)
from gamedecomp.games import Game, GameSpace
from gamedecomp.linalg import Matrix
from gamedecomp.projectors import SubspaceKind, build_projectors, subspace_dimension


def matching_pennies() -> Game:
    return Game(GameSpace((2, 2)), ((1, -1, -1, 1), (-1, 1, 1, -1)))


def projected_game(rng: random.Random, space: GameSpace, kind: SubspaceKind) -> Game:
    """Random game pushed into a subspace by its projection."""
    bundle = build_projectors(space)
    raw = random_game(rng, space).structure_vector()
    return Game.from_vector(space, bundle.projection(kind) @ raw)


def test_nonstrategic_defn_matches_membership():
    rng = random.Random(450)
    space = GameSpace((2, 3))
    for _ in range(100):
        game = random_game(rng, space)
        assert check_nonstrategic_defn(game) == is_member(
            game, SubspaceKind.NONSTRATEGIC
        )


def test_nonstrategic_defn_basics():
    assert check_nonstrategic_defn(Game.zero(GameSpace((2, 2))))
    assert not check_nonstrategic_defn(rps_game())
    own_blind = Game(GameSpace((2, 2)), ((5, 7, 5, 7), (2, 2, -1, -1)))
    assert check_nonstrategic_defn(own_blind)


def test_pure_harmonic_defn_on_rps():
    assert check_pure_harmonic_defn(rps_game())


def test_pure_harmonic_defn_characterization_33():
    rng = random.Random(451)
    for _ in range(20):
        t = rng.randint(1, 9)
        game = symmetric_33(0, t, -t, -t, 0, t, t, -t, 0)
        assert check_pure_harmonic_defn(game)
        assert is_member(game, SubspaceKind.PURE_HARMONIC)
    perturbed = symmetric_33(1, 2, -2, -2, 0, 2, 2, -2, 0)
    assert not check_pure_harmonic_defn(perturbed)


def test_pure_harmonic_defn_matches_membership():
    rng = random.Random(452)
    for counts in [(2, 2), (3, 3)]:
        space = GameSpace(counts)
        for _ in range(50):
            game = random_game(rng, space)
            assert check_pure_harmonic_defn(game) == is_member(
                game, SubspaceKind.PURE_HARMONIC
            )
        projected = projected_game(rng, space, SubspaceKind.PURE_HARMONIC)
        assert check_pure_harmonic_defn(projected)


def test_harmonic_defn_basics():
    rng = random.Random(453)
    space = GameSpace((2, 2, 2))
    nonstrategic = projected_game(rng, space, SubspaceKind.NONSTRATEGIC)
    assert check_harmonic_defn(nonstrategic)
    assert check_harmonic_defn(rps_game())


def test_harmonic_defn_matches_membership():
    rng = random.Random(454)
    space = GameSpace((2, 2, 2))
    for _ in range(100):
        game = random_game(rng, space)
        assert check_harmonic_defn(game) == is_member(game, SubspaceKind.HARMONIC)
    projected = projected_game(rng, space, SubspaceKind.HARMONIC)
    assert check_harmonic_defn(projected)


def rational_game(seed: int, counts: tuple[int, ...]) -> Game:
    rng = random.Random(seed)
    space = GameSpace(counts)
    cells = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(space.payoff_cells)]
    return Game.from_vector(space, cells)


@PROPERTY
@given(games(max_cells=60))
@example(rational_game(455, (2, 3, 4)))
@example(rational_game(456, (4, 6)))
@example(rational_game(457, (1, 3)))
@example(rational_game(458, (2, 1, 2)))
@example(coprime_wide_game((4, 6)))
@example(coprime_wide_game((2, 1, 2)))
def test_int_definitional_checks_equal_fraction_sums(game):
    # the int line sums over one lcm give the Fraction sums' verdicts on a
    # game, its pure harmonic part and a harmonic game; the examples take
    # lcm(k_i) below prod k_i, one-strategy players, and pairwise coprime
    # denominators above 2**64
    parts = decompose(game)
    harmonic = parts.pure_harmonic + parts.nonstrategic
    for case in (game, parts.pure_harmonic, harmonic):
        assert check_pure_harmonic_defn(case) == fraction_pure_harmonic_defn(case)
        assert check_harmonic_defn(case) == fraction_harmonic_defn(case)
    assert check_pure_harmonic_defn(parts.pure_harmonic)
    assert check_harmonic_defn(harmonic)


def test_potential_defn_verdicts():
    game = symmetric_222(1, 1, 2, -1, 1, -1)
    phi = potential_function(game)
    assert phi is not None
    assert check_potential_defn(game, phi)
    assert check_potential_defn(game, phi.shifted(Fraction(5, 3)))
    zero_phi = PotentialFunction(values=(Fraction(0),) * 9)
    assert not check_potential_defn(rps_game(), zero_phi)


def test_pure_nash_matching_pennies_empty():
    assert pure_nash(matching_pennies()) == []


def test_pure_nash_nonstrategic_all_profiles():
    rng = random.Random(455)
    space = GameSpace((2, 3))
    game = projected_game(rng, space, SubspaceKind.NONSTRATEGIC)
    assert pure_nash(game) == list(space.profiles())


def test_pure_nash_weak_inequality_admits_ties():
    space = GameSpace((2, 2))
    assert pure_nash(Game.zero(space)) == list(space.profiles())


def test_pure_nash_of_potential_game_nonempty():
    game = symmetric_222(1, 1, 2, -1, 1, -1)
    equilibria = pure_nash(game)
    assert equilibria
    # spot-check the first one against the definition
    s = equilibria[0]
    for i in range(1, 4):
        for choice in range(1, 3):
            varied = list(s)
            varied[i - 1] = choice
            assert payoff(game, i, varied) <= payoff(game, i, s)


def test_uniform_mixed_check_on_harmonic_samples():
    rng = random.Random(456)
    for counts in [(2, 2), (3, 3), (2, 2, 2)]:
        space = GameSpace(counts)
        for _ in range(20):
            game = projected_game(rng, space, SubspaceKind.HARMONIC)
            assert uniform_mixed_nash_check(game)


def test_uniform_mixed_check_rps_and_coordination():
    assert uniform_mixed_nash_check(rps_game())
    # equal-diagonal coordination: uniform mixing IS the mixed equilibrium
    even = Game(GameSpace((2, 2)), ((1, 0, 0, 1), (1, 0, 0, 1)))
    assert uniform_mixed_nash_check(even)
    # unequal diagonal: deviating to the richer strategy beats mixing
    skewed = Game(GameSpace((2, 2)), ((1, 0, 0, 2), (1, 0, 0, 2)))
    assert not uniform_mixed_nash_check(skewed)


def test_harmonic_zero_check_trivial_and_rps():
    space = GameSpace((2, 2))
    zero = Game.zero(space)
    assert all(harmonic_pure_nash_zero_check(zero, s) for s in space.profiles())
    rps = rps_game()
    assert not any(
        harmonic_pure_nash_zero_check(rps, s) for s in rps.space.profiles()
    )


def test_matching_pennies_is_pure_harmonic():
    # zero-sum with zero own-axis sums: the classic example qualifies
    assert check_pure_harmonic_defn(matching_pennies())
    assert pure_nash(matching_pennies()) == []


def test_harmonic_zero_check_precondition():
    coordination = Game(GameSpace((2, 2)), ((1, 0, 0, 1), (1, 0, 0, 1)))
    with pytest.raises(ValueError):
        harmonic_pure_nash_zero_check(coordination, (1, 1))


def test_harmonic_zero_check_agrees_with_pure_nash():
    rng = random.Random(457)
    space = GameSpace((2, 3))
    for _ in range(30):
        game = projected_game(rng, space, SubspaceKind.PURE_HARMONIC)
        nash_set = set(pure_nash(game))
        for s in space.profiles():
            assert harmonic_pure_nash_zero_check(game, s) == (s in nash_set)


def test_kernel_dim_two_by_two():
    space = GameSpace((2, 2))
    for s in space.profiles():
        assert harmonic_nash_kernel_dim(space, s) == 0


def test_kernel_dim_profile_independent():
    for counts in [(3, 3), (2, 3)]:
        space = GameSpace(counts)
        dims = {harmonic_nash_kernel_dim(space, s) for s in space.profiles()}
        assert len(dims) == 1


def test_kernel_dim_below_harmonic_dimension():
    space = GameSpace((3, 3))
    dim = harmonic_nash_kernel_dim(space, (1, 1))
    assert dim < subspace_dimension(space, SubspaceKind.PURE_HARMONIC)


@PROPERTY
@given(spaces(), st.integers(min_value=0))
@example(GameSpace((1,)), 0)
@example(GameSpace((4,)), 2)
@example(GameSpace((3, 1, 1)), 1)
@example(GameSpace((2, 2) + (1,) * 6), 3)
@example(GameSpace((2,) * 5), 21)
def test_kernel_dim_closed_form_equals_dense_rank(space, seed):
    profile = list(space.profiles())[seed % space.k]
    dim = harmonic_nash_kernel_dim(space, profile)
    assert dim == dense_harmonic_nash_kernel_dim(space, profile)


def test_kernel_dim_builds_no_matrix(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("dense matrix route used")

    monkeypatch.setattr(Matrix, "__init__", refuse)
    monkeypatch.setattr(Matrix, "_canonical", refuse)
    monkeypatch.setattr(dense, "rank", refuse)
    assert harmonic_nash_kernel_dim(GameSpace((2,) * 8), (2, 1) * 4) == 762
    # two players give (k_1 - 2)(k_2 - 2)
    assert harmonic_nash_kernel_dim(GameSpace((45, 45)), (1, 45)) == 43 * 43


def test_kernel_contains_exactly_the_zero_check_games():
    # sanity link: a pure-harmonic game passing the zero check at s
    # satisfies every row of the kernel construction's constraints
    rng = random.Random(458)
    space = GameSpace((2, 2))
    game = projected_game(rng, space, SubspaceKind.PURE_HARMONIC)
    if harmonic_pure_nash_zero_check(game, (1, 1)):
        # dimension 0 means only the zero game passes at (1, 1)
        assert game == Game.zero(space)


@PROPERTY
@given(games(max_cells=100))
def test_line_analyses_equal_brute_force(game):
    # the game and its five projections: random, potential, nonstrategic,
    # pure harmonic and harmonic members of one space
    parts = decompose(game)
    for kind, member in [(None, game)] + [(kind, parts.projection(kind)) for kind in SubspaceKind]:
        assert pure_nash(member) == brute_pure_nash(member)
        assert uniform_mixed_nash_check(member) == brute_uniform_mixed_nash(member)
        raw = raw_potential_vector(member)
        for values in (raw, member.payoff_rows[0]):
            verdict = check_potential_defn(member, PotentialFunction(values))
            assert verdict == brute_potential_defn(member, values)
        if kind in (SubspaceKind.POTENTIAL, SubspaceKind.PURE_POTENTIAL, SubspaceKind.NONSTRATEGIC):
            assert check_potential_defn(member, PotentialFunction(raw))
