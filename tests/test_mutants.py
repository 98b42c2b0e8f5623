"""Mutation tests: each case swaps one function of the package for a copy
of its source with one deliberate fault, and asserts that the package's
cross-checks catch it.  A fifth fault, the pure harmonic block swap, is
pinned in test_cli.py (test_verify_pins_the_harmonic_projections)."""

import importlib
import inspect
import json
import random

import pytest

from _helpers import random_game
from gamedecomp import projectors
from gamedecomp.cli import main
from gamedecomp.games import GameSpace, serialize_game
from gamedecomp.projectors import PART_KINDS, build_projectors


def mutated(module, name, old, new):
    """A copy of module.name whose source reads new where it reads old, once."""
    source = inspect.getsource(getattr(module, name))
    assert source.count(old) == 1, f"{name} no longer reads {old!r} once"
    namespace = dict(vars(module))
    exec(compile(source.replace(old, new), inspect.getsourcefile(module), "exec"), namespace)
    return namespace[name]


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


@pytest.mark.parametrize("name, old, new, counts, failed", DENSE_MUTANTS)
def test_verify_catches_the_dense_mutant(
    tmp_path, capsys, monkeypatch, name, old, new, counts, failed
):
    monkeypatch.setattr(projectors, name, mutated(projectors, name, old, new))
    path = tmp_path / "game.json"
    path.write_text(serialize_game(game_on(counts)), encoding="utf-8")
    code = main(["verify", str(path)])
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert code == 1
    assert {check["name"] for check in checks if not check["passed"]} == failed


def test_decompose_catches_the_group_inverse_coefficient(monkeypatch):
    # the matrix-free X divides grade |T| by |T|; dividing by |T| - 1
    # changes phi, and so the pure potential and pure harmonic parts,
    # from grade 2 on, while the dense bundle keeps the true coefficient
    module = importlib.import_module("gamedecomp.decompose")
    mutant = mutated(projectors, "apply_group_inverse", "x / c", "x / max(1, c - 1)")
    monkeypatch.setattr(module, "apply_group_inverse", mutant)
    game = game_on((2, 2))
    bundle = build_projectors(game.space)
    parts = module.decompose(game)
    u = game.structure_vector()
    agree = [
        parts.projection(kind).structure_vector() == bundle.projection(kind) @ u
        for kind in PART_KINDS
    ]
    assert agree == [False, True, False]
