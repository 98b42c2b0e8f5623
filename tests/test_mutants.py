"""Mutation tests: each case swaps one function of the package for a copy
of its source with one deliberate fault, or the potential projection for
a wrong one, and asserts that the package's cross-checks catch it.  A
further fault, the pure harmonic block swap, is pinned in test_cli.py
(test_verify_pins_the_harmonic_projections).

Every case builds its game after the patch.  A game keeps its split and
its int view on itself the first time they are computed, so a game split
or scaled before the patch would serve them and never run the mutant."""

import importlib
import inspect
import json
import random
import textwrap
from fractions import Fraction

import pytest

from _helpers import random_game
from gamedecomp import analysis, cli, linalg, matrix, projectors
from gamedecomp.cli import main
from gamedecomp.games import Game, GameSpace, serialize_game
from gamedecomp.projectors import PART_KINDS, SubspaceKind, build_projectors


def mutated(module, name, old, new):
    """A copy of module.name, or of a method named "Class.method", whose source
    reads new where it reads old, once."""
    target = module
    for part in name.split("."):
        target = getattr(target, part)
    source = textwrap.dedent(inspect.getsource(target))
    assert source.count(old) == 1, f"{name} no longer reads {old!r} once"
    namespace = dict(vars(module))
    exec(compile(source.replace(old, new), inspect.getsourcefile(module), "exec"), namespace)
    return namespace[name.rpartition(".")[2]]


# the package exports the function decompose under the module's name
decompose = importlib.import_module("gamedecomp.decompose")


def game_on(counts):
    return random_game(random.Random(7), GameSpace(counts))


# each fault on the smallest space where verify shows it: one player with
# two strategies, or, for X's coefficient, two effective players (it is
# the true 1/|T| while |T| <= 1)
DENSE_MUTANTS = [
    pytest.param(
        "_row_gathers",
        "(x != y) << b",
        "(x == y) << b",
        (2,),
        {
            "projection_sum_is_identity",
            "projection_traces_match_dimensions",
            "pseudoinverse_oracles_match",
            "components_lie_in_their_subspaces",
        },
        id="densify-mask",
    ),
    pytest.param(
        "_block_tables",
        "sign * den // t.bit_count()",
        "sign * den // max(1, t.bit_count() - 1)",
        (2, 2),
        {
            "projections_idempotent",
            "projection_pairwise_products_zero",
            "projection_traces_match_dimensions",
            "pseudoinverse_oracles_match",
            "components_lie_in_their_subspaces",
        },
        id="x-coefficient",
    ),
    pytest.param(
        "_block_tables",
        "pp - ph",
        "pp + ph",
        (2,),
        {
            "projections_idempotent",
            "projection_sum_is_identity",
            "projection_pairwise_products_zero",
            "projection_traces_match_dimensions",
            "pseudoinverse_oracles_match",
        },
        id="pure-harmonic-block-sign",
    ),
    pytest.param(
        "_entry_values",
        "values[mask | bit] = rest - own",
        "values[mask | bit] = own - rest",
        (2,),
        {"pseudoinverse_oracles_match", "components_lie_in_their_subspaces"},
        id="step-sign",
    ),
]


def verify_failures(tmp_path, capsys, game):
    """verify's exit code and the names of its failed checks on game."""
    path = tmp_path / "game.json"
    path.write_text(serialize_game(game), encoding="utf-8")
    code = main(["verify", str(path)])
    checks = json.loads(capsys.readouterr().out)["checks"]
    return code, {check["name"] for check in checks if not check["passed"]}


@pytest.mark.parametrize("name, old, new, counts, failed", DENSE_MUTANTS)
def test_verify_catches_the_dense_mutant(
    tmp_path, capsys, monkeypatch, name, old, new, counts, failed
):
    monkeypatch.setattr(projectors, name, mutated(projectors, name, old, new))
    assert verify_failures(tmp_path, capsys, game_on(counts)) == (1, failed)


# the exact integer kernels: the product loop, the line means behind
# every M_i, whose faults show only where a line mixes denominators, and
# the path sums, whose faults show only on a potential game (True below:
# verify then runs on the game's potential projection), where the offset
# check runs to the end.  The unscaled int view reaches the (pure)
# harmonic checks too, but their verdicts on that game stay False, as its
# memberships are, so only the potential routes disagree
KERNEL_MUTANTS = [
    pytest.param(
        matrix,
        "Matrix.__matmul__",
        "terms = [j for j, x in enumerate(row) if x]",
        "terms = [j for j, x in enumerate(row) if x][:-1]",
        (2,),
        False,
        {
            "projections_idempotent",
            "pseudoinverse_oracles_match",
            "components_lie_in_their_subspaces",
        },
        id="product-drops-last-term",
    ),
    pytest.param(
        matrix,
        "Matrix.__matmul__",
        "values = [row[j] for j in terms]",
        "values = [row[j] for j in terms] * (len(terms) > 1)",
        (2,),
        False,
        {"projections_idempotent", "pseudoinverse_oracles_match"},
        id="product-one-term-rows-zero",
    ),
    pytest.param(
        projectors,
        "axis_means",
        "math.lcm(*{x.denominator for x in values})",
        "values[0].denominator",
        (2, 2),
        False,
        {"components_lie_in_their_subspaces", "nonstrategic_direct_agrees"},
        id="line-mean-first-denominator",
    ),
    pytest.param(
        projectors,
        "axis_means",
        "x.numerator * (den // x.denominator)",
        "x.numerator",
        (2, 2),
        False,
        {"components_lie_in_their_subspaces", "nonstrategic_direct_agrees"},
        id="line-mean-no-rescale",
    ),
    pytest.param(
        decompose,
        "_int_rows",
        "x.numerator * (den // x.denominator)",
        "x.numerator",
        (2, 2),
        True,
        {"potential_routes_agree"},
        id="path-sums-no-rescale",
    ),
    pytest.param(
        decompose,
        "solve_potential_equation",
        "phi[line.start] - row[line.start]",
        "phi[line.start + 1] - row[line.start + 1]",
        (2, 2),
        True,
        {"potential_routes_agree"},
        id="path-sums-wrong-base",
    ),
]


@pytest.mark.parametrize("module, name, old, new, counts, potential, failed", KERNEL_MUTANTS)
def test_verify_catches_the_kernel_mutant(
    tmp_path, capsys, monkeypatch, module, name, old, new, counts, potential, failed
):
    mutant = mutated(module, name, old, new)
    owner, _, attr = name.rpartition(".")
    monkeypatch.setattr(getattr(module, owner) if owner else module, attr, mutant)
    if module is decompose and hasattr(cli, name):
        # the CLI binds the path-sum solve by name; the scaler is read by
        # name only in decompose._int_view, the one way to the int view
        monkeypatch.setattr(cli, name, mutant)
    rng = random.Random(7)
    space = GameSpace(counts)
    cells = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(space.payoff_cells)]
    game = Game.from_vector(space, cells)
    if potential:
        game = decompose.decompose(game).projection(SubspaceKind.POTENTIAL)
    assert verify_failures(tmp_path, capsys, game) == (1, failed)


# the int line sums of the (pure) harmonic definitional checks, caught
# above MAX_DENSE_CELLS, where verify refuses: on a seeded harmonic game
# at the cell cap, classify's harmonic check disagrees with its
# membership.  On [45,45] the mean's factor L // k_i is 1 for both
# players, so that fault needs unequal strategy counts.
CAP_MUTANTS = [
    pytest.param(
        decompose,
        "_int_rows",
        "x.numerator * (den // x.denominator)",
        "x.numerator",
        (45, 45),
        id="scaler-no-rescale",
    ),
    pytest.param(
        analysis,
        "check_harmonic_defn",
        "scale // len(values) * sum(values)",
        "sum(values)",
        (40, 50),
        id="harmonic-mean-no-factor",
    ),
]


@pytest.mark.parametrize("module, name, old, new, counts", CAP_MUTANTS)
def test_classify_catches_the_definitional_mutant_at_the_cap(
    tmp_path, capsys, monkeypatch, module, name, old, new, counts
):
    monkeypatch.setattr(module, name, mutated(module, name, old, new))
    rng = random.Random(45)
    space = GameSpace(counts)
    cells = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(space.payoff_cells)]
    parts = decompose.decompose(Game.from_vector(space, cells))
    path = tmp_path / "game.json"
    path.write_text(serialize_game(parts.pure_harmonic + parts.nonstrategic), encoding="utf-8")
    assert space.payoff_cells > cli.MAX_DENSE_CELLS
    assert main(["classify", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["memberships"]["harmonic"] is True
    assert doc["definitional_checks"]["harmonic"] is False
    agreement = doc["checks_agree_with_memberships"]
    assert {check for check, agrees in agreement.items() if not agrees} == {"harmonic"}


# a wrong potential projection that is symmetric and keeps range(B_P)
# fixed, the identity, is refused only by B_P @ W_P; the pure potential
# projection leaves range(B_N) out, so B_P.T @ P == B_P.T refuses it too
@pytest.mark.parametrize(
    "potential",
    [
        pytest.param(lambda ps: matrix.Matrix.identity(ps.space.payoff_cells), id="identity"),
        pytest.param(lambda ps: ps.pure_potential, id="pure-potential"),
    ],
)
def test_verify_catches_a_wrong_potential_projection(tmp_path, capsys, monkeypatch, potential):
    # on [2,2] the pure harmonic part is not zero, so the identity is wrong
    monkeypatch.setattr(projectors.ProjectorSet, "potential", property(potential))
    failed = verify_failures(tmp_path, capsys, game_on((2, 2)))
    assert failed == (1, {"pseudoinverse_oracles_match"})


def test_the_hook_refuses_what_names_the_wrong_module(monkeypatch):
    # a hook whose module tuple names games for matrix refuses Matrix, which
    # the acceptance tests import from linalg, and serves GameSpace, a name
    # dense only imports
    mutant = mutated(linalg, "_dense_name", '"gamedecomp.matrix")', '"gamedecomp.games")')
    monkeypatch.setattr(linalg, "_dense_name", mutant)
    refusal = "^module 'gamedecomp.linalg' has no attribute 'Matrix'$"
    with pytest.raises(AttributeError, match=refusal):
        linalg.Matrix
    assert linalg.GameSpace is GameSpace


def test_decompose_catches_the_group_inverse_coefficient(monkeypatch):
    # the matrix-free X divides grade |T| by |T|; dividing by |T| - 1
    # changes phi, and so the pure potential and pure harmonic parts,
    # from grade 2 on, while the dense bundle keeps the true coefficient
    mutant = mutated(projectors, "apply_group_inverse", "x / c", "x / max(1, c - 1)")
    monkeypatch.setattr(decompose, "apply_group_inverse", mutant)
    game = game_on((2, 2))
    bundle = build_projectors(game.space)
    parts = decompose.decompose(game)
    u = game.structure_vector()
    agree = [
        parts.projection(kind).structure_vector() == bundle.projection(kind) @ u
        for kind in PART_KINDS
    ]
    assert agree == [False, True, False]
