"""Command-line interface: documents, verdicts, exit codes, determinism."""

import ast
import copy
import importlib
import io
import json
import pickle
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from _helpers import random_game, rps_game, symmetric_222, symmetric_33
from gamedecomp import cli, dense, linalg, matrix, projectors
from gamedecomp.cli import MAX_DENSE_CELLS, main
from gamedecomp.games import Game, GameSpace, serialize_game
from gamedecomp.linalg import Matrix, format_rational
from gamedecomp.projectors import (
    ProjectorSet,
    SubspaceKind,
    build_B_N,
    build_B_P,
    build_projectors,
)


def write_game(tmp_path, game, name="game.json"):
    path = tmp_path / name
    path.write_text(serialize_game(game), encoding="utf-8")
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_decompose_rps(tmp_path, capsys):
    path = write_game(tmp_path, rps_game())
    code, out, err = run_cli(capsys, "decompose", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["components_sum_to_input"] is True
    assert doc["arithmetic"] == "exact-rational"
    rps_rows = [[int(x) for x in row] for row in rps_game().payoff_rows]
    assert doc["components"]["pure_harmonic"]["payoffs"] == rps_rows
    zero_rows = [[0] * 9, [0] * 9]
    assert doc["components"]["pure_potential"]["payoffs"] == zero_rows
    assert doc["components"]["nonstrategic"]["payoffs"] == zero_rows


def test_decompose_zero_game(tmp_path, capsys):
    path = write_game(tmp_path, Game.zero(GameSpace((2, 2))))
    code, out, _ = run_cli(capsys, "decompose", path)
    doc = json.loads(out)
    assert code == 0
    for component in doc["components"].values():
        assert component["payoffs"] == [[0] * 4, [0] * 4]


def test_classify_rps(tmp_path, capsys):
    path = write_game(tmp_path, rps_game())
    code, out, _ = run_cli(capsys, "classify", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["memberships"] == {
        "pure-potential": False,
        "nonstrategic": False,
        "pure-harmonic": True,
        "potential": False,
        "harmonic": True,
    }
    assert all(doc["checks_agree_with_memberships"].values())


def test_classify_nonstrategic(tmp_path, capsys):
    game = Game(GameSpace((2, 2)), ((3, 5, 3, 5), (2, 2, 7, 7)))
    path = write_game(tmp_path, game)
    _, out, _ = run_cli(capsys, "classify", path)
    doc = json.loads(out)
    assert doc["memberships"]["nonstrategic"] is True
    assert doc["memberships"]["potential"] is True
    assert doc["memberships"]["harmonic"] is True
    assert doc["memberships"]["pure-potential"] is False
    assert doc["memberships"]["pure-harmonic"] is False


def test_classify_symmetric_33_not_potential(tmp_path, capsys):
    game = symmetric_33(1, 2, 3, 4, 5, 6, 7, 9, 9)
    assert (3 - 2 + 4 - 6 - 7 + 9) != 0
    path = write_game(tmp_path, game)
    _, out, _ = run_cli(capsys, "classify", path)
    assert json.loads(out)["memberships"]["potential"] is False


def test_potential_with_shift(tmp_path, capsys):
    path = write_game(tmp_path, symmetric_222(1, 1, 2, -1, 1, -1))
    code, out, _ = run_cli(capsys, "potential", path, "--shift=-9/8")
    assert code == 0
    doc = json.loads(out)
    assert doc["potential"] is True
    assert doc["values"] == [-2, -1, -1, -1, -1, -1, -1, -1]
    assert doc["shift"] == "-9/8"
    assert doc["routes_agree_up_to_constant"] is True


def test_potential_not_potential_is_success(tmp_path, capsys):
    path = write_game(tmp_path, rps_game())
    code, out, _ = run_cli(capsys, "potential", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["potential"] is False
    assert doc["routes_agree"] is True
    assert "values" not in doc


def test_potential_experimental_raw_vector(tmp_path, capsys):
    path = write_game(tmp_path, rps_game())
    code, out, _ = run_cli(
        capsys, "potential", path, "--experimental-raw-vector"
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["experimental_raw_vector"]) == 9
    assert doc["experimental_raw_vector_semantics"] == (
        "canonical potential of the potential component"
    )


@pytest.mark.parametrize("exists", [True, False])
def test_raw_vector_in_csv_is_refused_before_the_file_is_opened(tmp_path, capsys, exists):
    # the CSV table has no column for the raw vector
    path = write_game(tmp_path, rps_game()) if exists else str(tmp_path / "absent.json")
    code, out, err = run_cli(
        capsys, "potential", path, "--experimental-raw-vector", "--format", "csv"
    )
    assert (code, out) == (2, "")
    assert err == "error: --experimental-raw-vector needs --format json\n"


def test_potential_csv(tmp_path, capsys):
    path = write_game(tmp_path, symmetric_222(1, 1, 2, -1, 1, -1))
    code, out, _ = run_cli(
        capsys, "potential", path, "--format", "csv", "--shift=-9/8"
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "profile_index,value"
    assert lines[1] == "1,-2"
    assert len(lines) == 9


def test_potential_csv_decimal_is_labeled(tmp_path, capsys):
    # phi = u - M u = (19/48, -19/48) for the one-player game (2/3, -1/8)
    path = write_game(tmp_path, Game(GameSpace((2,)), ((Fraction(2, 3), Fraction(-1, 8)),)))
    code, out, _ = run_cli(capsys, "potential", path, "--format", "csv", "--decimal", "3")
    assert code == 0
    assert out == "# approximate: 3 decimal digits\nprofile_index,value\n1,0.396\n2,-0.396\n"
    path = write_game(tmp_path, rps_game())
    code, out, _ = run_cli(capsys, "potential", path, "--format", "csv", "--decimal", "3")
    assert code == 0
    assert out == "# approximate: 3 decimal digits\npotential,false\n"


def test_project_reproduces_regression_matrix(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "project", "--space", "3:2,2,2", "--kind", "potential"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["sum_identity_verified"] is True
    assert doc["dimension"] == 19  # k + sum(k/k_i) - 1 = 8 + 12 - 1
    rows = doc["rows"]
    assert len(rows) == 24 and len(rows[0]) == 24
    assert Fraction(str(rows[0][0])) == Fraction(38, 48)
    assert Fraction(str(rows[0][3])) == Fraction(2, 48)


def test_project_csv_and_decimal(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "project", "--space", "2:2,2", "--kind", "nonstrategic",
        "--format", "csv", "--decimal", "3",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "# approximate: 3 decimal digits"
    assert lines[1].split(",")[0] == "0.500"


def test_negative_decimal_rejected(tmp_path, capsys):
    path = write_game(tmp_path, rps_game())
    with pytest.raises(SystemExit) as excinfo:
        main(["decompose", path, "--decimal", "-2"])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "digit count" in captured.err
    code, out, _ = run_cli(capsys, "decompose", path, "--decimal", "0")
    assert code == 0
    assert json.loads(out)["decimal_digits"] == 0


def test_decimal_above_bound_rejected_before_reading(tmp_path, capsys):
    missing = str(tmp_path / "missing.json")
    with pytest.raises(SystemExit) as excinfo:
        main(["decompose", missing, "--decimal", "5000"])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "digit count" in captured.err
    third = Game(GameSpace((2, 2)), ((Fraction(1, 3), 0, 0, 0), (0, 0, 0, 0)))
    code, out, _ = run_cli(capsys, "decompose", write_game(tmp_path, third), "--decimal", "1000")
    assert code == 0
    assert json.loads(out)["decimal_digits"] == 1000


def test_long_rational_is_not_echoed_whole(tmp_path, capsys):
    digits = "7" * 5000
    path = tmp_path / "long.json"
    path.write_text(
        f'{{"players": 1, "strategies": [2], "payoffs": [["{digits}", 0]]}}',
        encoding="utf-8",
    )
    code, out, err = run_cli(capsys, "potential", str(path))
    assert code == 1
    assert out == ""
    assert "7" * 40 + "'..." in err and len(err) < 400
    game_path = write_game(tmp_path, symmetric_222(1, 1, 2, -1, 1, -1))
    with pytest.raises(SystemExit) as excinfo:
        main(["potential", game_path, f"--shift={digits}"])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "7" * 40 + "'..." in err and len(err) < 1000


def test_huge_exponent_rejected_in_payoffs_and_shift(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(
        '{"players": 1, "strategies": [2], "payoffs": [["1e5000", 0]]}',
        encoding="utf-8",
    )
    code, out, err = run_cli(capsys, "potential", str(path))
    assert code == 1
    assert out == ""
    assert "exponent" in err
    game_path = write_game(tmp_path, symmetric_222(1, 1, 2, -1, 1, -1))
    with pytest.raises(SystemExit) as excinfo:
        main(["potential", game_path, "--shift=1.5e-100000"])
    assert excinfo.value.code == 2
    assert "exponent" in capsys.readouterr().err
    code, out, _ = run_cli(capsys, "potential", game_path, "--shift=-1.125e0")
    assert code == 0
    assert json.loads(out)["shift"] == "-9/8"


@pytest.mark.parametrize("game", [symmetric_222(1, 1, 2, -1, 1, -1), rps_game()])
def test_shift_too_long_to_print_is_refused_before_the_file_is_opened(tmp_path, capsys, game):
    # 10**4300 has one bit more than any payoff parse_game accepts
    for path in (write_game(tmp_path, game), str(tmp_path / "absent.json")):
        with pytest.raises(SystemExit) as excinfo:
            main(["potential", path, "--shift", "1e4300"])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(
            "argument --shift: a number of more than 14284 bits is too long to print\n"
        )


def test_non_ascii_digits_and_underscores_rejected_in_payoffs_and_shift(tmp_path, capsys):
    # "1e٥٠٠٠" would otherwise pass the exponent bound and fail late,
    # and "1_000" would parse on some Python versions only
    game_path = write_game(tmp_path, symmetric_222(1, 1, 2, -1, 1, -1))
    for text in ("1e٥٠٠٠", "1e５０００", "1_000"):
        path = tmp_path / "digits.json"
        doc = {"players": 1, "strategies": [2], "payoffs": [[text, 0]]}
        path.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
        code, out, err = run_cli(capsys, "decompose", str(path))
        assert (code, out) == (1, "")
        assert "ASCII digits, no underscores" in err
        with pytest.raises(SystemExit) as excinfo:
            main(["potential", game_path, f"--shift={text}"])
        assert excinfo.value.code == 2
        assert "ASCII digits, no underscores" in capsys.readouterr().err


def test_project_requires_space(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["project", "--kind", "potential"])
    assert excinfo.value.code == 2


def test_nash_report(tmp_path, capsys):
    path = write_game(tmp_path, rps_game())
    code, out, _ = run_cli(capsys, "nash", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["pure_equilibria"] == []
    assert doc["uniform_mixed_is_nash"] is True


def test_verify_runs_all_checks(tmp_path, capsys):
    rng = random.Random(460)
    path = write_game(tmp_path, random_game(rng, GameSpace((2, 3))))
    code, out, _ = run_cli(capsys, "verify", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["all_passed"] is True
    names = [c["name"] for c in doc["checks"]]
    assert "pseudoinverse_oracles_match" in names
    assert "potential_routes_agree" in names
    assert all(c["passed"] for c in doc["checks"])


def test_verify_pins_the_harmonic_projections(tmp_path, capsys, monkeypatch):
    # pure harmonic with player 1's and player 2's blocks swapped is still
    # symmetric, idempotent and of the right trace; with three players it is
    # no longer the true projection (with two, the swap leaves it unchanged)
    real_build = cli.build_projectors

    def swapped(space):
        bundle = real_build(space)
        k = space.k
        order = [*range(k, 2 * k), *range(k), *range(2 * k, space.payoff_cells)]
        rows = bundle.pure_harmonic.numerators
        pure_harmonic = Matrix.from_numerators(
            [[rows[p][q] for q in order] for p in order], bundle.pure_harmonic.denominator
        )
        assert pure_harmonic != bundle.pure_harmonic
        fields = {name: getattr(bundle, name) for name in ProjectorSet._fields}
        return ProjectorSet(**{**fields, "pure_harmonic": pure_harmonic})

    monkeypatch.setattr(cli, "build_projectors", swapped)
    three_players = random_game(random.Random(461), GameSpace((2, 3, 2)))
    for game in (symmetric_222(1, 1, 2, -1, 1, -1), three_players):
        code, out, _ = run_cli(capsys, "verify", write_game(tmp_path, game))
        assert code == 1
        failed = {c["name"] for c in json.loads(out)["checks"] if not c["passed"]}
        assert {"projection_sum_is_identity", "pseudoinverse_oracles_match"} <= failed
        assert not failed & {
            "projections_symmetric",
            "projections_idempotent",
            "projection_traces_match_dimensions",
        }


def test_verify_solves_no_system_and_forms_no_inverse(tmp_path, capsys, monkeypatch):
    # the bundle is certified against its generators where it stands, by
    # witness products, so no elimination runs, not even a rank; the other
    # commands do not load gamedecomp.dense
    def refuse(*args, **kwargs):
        raise AssertionError("verify recomputed a projection or eliminated")

    for name in ("solve_linear", "mp_inverse", "rank", "_bareiss_echelon"):
        monkeypatch.setattr(dense, name, refuse)
    game = random_game(random.Random(463), GameSpace((2, 3, 2)))
    code, out, _ = run_cli(capsys, "verify", write_game(tmp_path, game))
    assert code == 0
    assert json.loads(out)["all_passed"] is True


def test_verify_certifies_only_the_potential_and_nonstrategic_projections(
    tmp_path, capsys, monkeypatch
):
    # pure potential's certificate against P_N follows from these two and the
    # sum identity, so verify does not build P_N
    real = dense.is_range_projector
    generators = []

    def recording(p, b, w):
        generators.append(b)
        return real(p, b, w)

    monkeypatch.setattr(dense, "is_range_projector", recording)
    space = GameSpace((2, 3, 2))
    game = random_game(random.Random(463), space)
    code, _, _ = run_cli(capsys, "verify", write_game(tmp_path, game))
    assert code == 0
    assert len(generators) == 2
    assert build_B_P(space) in generators and build_B_N(space) in generators


def test_verify_does_not_pair_kinds_and_parts_by_enum_order(monkeypatch):
    # verify names the three parts through the parts table, so listing the
    # kinds in another order changes no verdict
    real = cli.SubspaceKind

    class ReversedKinds:
        def __iter__(self):
            return reversed(real)

        def __getattr__(self, name):
            return getattr(real, name)

    monkeypatch.setattr(cli, "SubspaceKind", ReversedKinds())
    assert list(cli.SubspaceKind) == list(real)[::-1]
    for game in (rps_game(), random_game(random.Random(463), GameSpace((2, 3, 2)))):
        checks = cli._verification_checks(game)
        assert [name for name, passed in checks if not passed] == []


def test_decimal_output_is_labeled(tmp_path, capsys):
    game = Game(GameSpace((2,)), ((Fraction(1, 2), Fraction(-9, 8)),))
    path = write_game(tmp_path, game)
    code, out, _ = run_cli(capsys, "decompose", path, "--decimal", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["approximate"] is True
    assert doc["decimal_digits"] == 4
    # input 1/2 splits into 13/16 pure-potential and -5/16 nonstrategic
    assert doc["components"]["pure_potential"]["payoffs"][0][0] == "0.8125"
    assert doc["components"]["nonstrategic"]["payoffs"][0][0] == "-0.3125"


# the prisoner's dilemma: a potential game with one pure equilibrium
DILEMMA = Game(GameSpace((2, 2)), ((3, 0, 5, 1), (3, 5, 0, 1)))
SPACE_22 = {"players": 2, "strategies": [2, 2]}
POTENTIAL_PROJECTION_22 = [
    "7/8,1/8,1/8,-1/8,1/8,-1/8,-1/8,1/8",
    "1/8,7/8,-1/8,1/8,-1/8,1/8,1/8,-1/8",
    "1/8,-1/8,7/8,1/8,-1/8,1/8,1/8,-1/8",
    "-1/8,1/8,1/8,7/8,1/8,-1/8,-1/8,1/8",
    "1/8,-1/8,-1/8,1/8,7/8,1/8,1/8,-1/8",
    "-1/8,1/8,1/8,-1/8,1/8,7/8,-1/8,1/8",
    "-1/8,1/8,1/8,-1/8,1/8,-1/8,7/8,1/8",
    "1/8,-1/8,-1/8,1/8,-1/8,1/8,1/8,7/8",
]
VERIFY_CHECKS = (
    "projections_symmetric",
    "projections_idempotent",
    "projection_sum_is_identity",
    "projection_pairwise_products_zero",
    "projection_traces_match_dimensions",
    "pseudoinverse_oracles_match",
    "decomposition_sums_to_input",
    "components_lie_in_their_subspaces",
    "definitional_checks_agree",
    "potential_routes_agree",
    "nonstrategic_direct_agrees",
)


def _document(command, **fields):
    """A document's exact text: two-space JSON, keys in this order."""
    return json.dumps({"command": command, "space": SPACE_22, **fields}, indent=2) + "\n"


def _component(payoffs):
    return {"players": 2, "strategies": [2, 2], "payoffs": payoffs}


STDOUT_22 = [
    (
        ["decompose"],
        _document(
            "decompose",
            arithmetic="exact-rational",
            components={
                "pure_potential": _component([[-1, "-1/2", 1, "1/2"], [-1, 1, "-1/2", "1/2"]]),
                "nonstrategic": _component([[4, "1/2", 4, "1/2"], [4, 4, "1/2", "1/2"]]),
                "pure_harmonic": _component([[0, 0, 0, 0], [0, 0, 0, 0]]),
            },
            components_sum_to_input=True,
        ),
    ),
    (
        ["classify"],
        _document(
            "classify",
            memberships={
                "pure-potential": False,
                "nonstrategic": False,
                "pure-harmonic": False,
                "potential": True,
                "harmonic": False,
            },
            definitional_checks={"nonstrategic": False, "pure-harmonic": False, "harmonic": False},
            checks_agree_with_memberships={
                "nonstrategic": True,
                "pure-harmonic": True,
                "harmonic": True,
            },
        ),
    ),
    (
        ["potential"],
        _document(
            "potential",
            potential=True,
            values=["-7/4", "1/4", "1/4", "5/4"],
            shift=0,
            routes_agree_up_to_constant=True,
        ),
    ),
    (["potential", "--format", "csv"], "profile_index,value\n1,-7/4\n2,1/4\n3,1/4\n4,5/4\n"),
    (
        ["potential", "--decimal", "2"],
        """{
  "command": "potential",
  "space": {
    "players": 2,
    "strategies": [
      2,
      2
    ]
  },
  "potential": true,
  "values": [
    "-1.75",
    "0.25",
    "0.25",
    "1.25"
  ],
  "shift": 0,
  "routes_agree_up_to_constant": true,
  "approximate": true,
  "decimal_digits": 2
}
""",
    ),
    (
        ["potential", "--shift=-1/2"],
        _document(
            "potential",
            potential=True,
            values=["-9/4", "-1/4", "-1/4", "3/4"],
            shift="-1/2",
            routes_agree_up_to_constant=True,
        ),
    ),
    (["nash"], _document("nash", pure_equilibria=[[2, 2]], uniform_mixed_is_nash=False)),
    (
        ["verify"],
        _document(
            "verify",
            checks=[{"name": name, "passed": True} for name in VERIFY_CHECKS],
            all_passed=True,
        ),
    ),
]


@pytest.mark.parametrize("argv, expected", STDOUT_22, ids=[" ".join(a) for a, _ in STDOUT_22])
def test_game_commands_write_these_bytes(tmp_path, capsys, argv, expected):
    command, *flags = argv
    path = write_game(tmp_path, DILEMMA)
    assert run_cli(capsys, command, path, *flags) == (0, expected, "")


def test_project_writes_these_bytes(capsys):
    argv = ["project", "--space", "2:2,2", "--kind", "potential"]
    rows = [row.split(",") for row in POTENTIAL_PROJECTION_22]
    expected = _document(
        "project", kind="potential", dimension=7, sum_identity_verified=True, rows=rows
    )
    assert run_cli(capsys, *argv) == (0, expected, "")
    csv = "\n".join(POTENTIAL_PROJECTION_22) + "\n"
    assert run_cli(capsys, *argv, "--format", "csv") == (0, csv, "")


@pytest.mark.parametrize("counts", [(1,), (2, 1, 3), (2, 2, 2), (3, 2)])
def test_project_labels_are_the_formatted_entries(capsys, counts):
    # project labels each distinct numerator once; every label must be the
    # matrix entry itself, read back over the matrix's own denominator
    space = GameSpace(counts)
    bundle = build_projectors(space)
    flag = f"{space.n}:{','.join(map(str, counts))}"
    nk = space.payoff_cells
    for kind in SubspaceKind:
        m = bundle.projection(kind)
        for digits in (None, 0, 3):
            rows = [[format_rational(m[i, j], digits) for j in range(nk)] for i in range(nk)]
            extra = [] if digits is None else ["--decimal", str(digits)]
            argv = ["project", "--space", flag, "--kind", kind.value, *extra]
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0 and json.loads(out)["rows"] == rows
            lines = [",".join(map(str, row)) for row in rows]
            if digits is not None:
                lines.insert(0, f"# approximate: {digits} decimal digits")
            assert run_cli(capsys, *argv, "--format", "csv") == (0, "\n".join(lines) + "\n", "")


def test_project_exits_1_when_the_sum_identity_fails(capsys, monkeypatch):
    # the pure harmonic part with one symmetric pair of entries bumped, as
    # perturbed_bundles in test_projectors.py does
    real_build = cli.build_projectors

    def bumped(space):
        bundle = real_build(space)
        nk = space.payoff_cells
        cells = {(0, 1), (1, 0)}
        delta = Matrix([[Fraction(1, 3) * ((r, c) in cells) for c in range(nk)] for r in range(nk)])
        fields = {name: getattr(bundle, name) for name in ProjectorSet._fields}
        return ProjectorSet(**{**fields, "pure_harmonic": bundle.pure_harmonic + delta})

    monkeypatch.setattr(cli, "build_projectors", bumped)
    for kind in ("pure-harmonic", "harmonic"):
        code, out, err = run_cli(capsys, "project", "--space", "2:2,2", "--kind", kind)
        assert (code, out, err) == (1, "", "error: projection sum identity failed\n")


def test_malformed_file_fails_cleanly(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    code, out, err = run_cli(capsys, "classify", str(path))
    assert code == 1
    assert out == ""
    assert "error:" in err and "malformed" in err


def test_missing_file_fails_cleanly(tmp_path, capsys):
    code, _, err = run_cli(capsys, "classify", str(tmp_path / "absent.json"))
    assert code == 1
    assert "error:" in err


def test_unknown_flag_rejected(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["classify", "x.json", "--frobnicate"])
    assert excinfo.value.code == 2


def test_csv_rejected_where_not_tabular(tmp_path, capsys):
    path = write_game(tmp_path, rps_game())
    code, _, err = run_cli(capsys, "classify", path, "--format", "csv")
    assert code == 2
    assert "csv" in err


@pytest.mark.parametrize("command", ["decompose", "classify", "nash", "verify"])
def test_csv_is_refused_before_the_file_is_opened(tmp_path, capsys, command):
    absent = str(tmp_path / "absent.json")
    code, out, err = run_cli(capsys, command, absent, "--format", "csv")
    assert (code, out) == (2, "")
    assert err == f"error: csv output is not defined for {command}; use --format json\n"


def test_single_strategy_player_warns(tmp_path, capsys):
    game = Game(GameSpace((1, 2)), ((4, 4), (1, 2)))
    path = write_game(tmp_path, game)
    code, out, err = run_cli(capsys, "classify", path)
    assert code == 0
    assert "warning" in err
    assert json.loads(out)["memberships"]["potential"] is True


def test_space_override(tmp_path, capsys):
    game = Game.zero(GameSpace((2, 2)))
    path = write_game(tmp_path, game)
    code, out, _ = run_cli(capsys, "classify", path, "--space", "1:8")
    assert code == 0
    assert json.loads(out)["space"] == {"players": 1, "strategies": [8]}
    code, _, err = run_cli(capsys, "classify", path, "--space", "2:3,3")
    assert code == 1
    assert "override" in err


def test_space_flag_format_validated(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["project", "--space", "2:2", "--kind", "potential"])
    assert excinfo.value.code == 2


def test_output_is_deterministic(tmp_path, capsys):
    rng = random.Random(461)
    path = write_game(tmp_path, random_game(rng, GameSpace((2, 2, 2))))
    _, first, _ = run_cli(capsys, "decompose", path)
    _, second, _ = run_cli(capsys, "decompose", path)
    assert first == second


def test_dense_paths_refuse_large_spaces(tmp_path, capsys, monkeypatch):
    def no_build(space):
        raise AssertionError("a refused space must not be built")

    monkeypatch.setattr(cli, "build_projectors", no_build)
    code, out, err = run_cli(capsys, "project", "--space", "2:16,17", "--kind", "potential")
    assert code == 2
    assert out == ""
    assert f"at most {MAX_DENSE_CELLS} payoff cells" in err
    big = Game.zero(GameSpace((2, 2, 2, 2, 2, 2, 2)))
    assert big.space.payoff_cells > MAX_DENSE_CELLS
    code, out, err = run_cli(capsys, "verify", write_game(tmp_path, big))
    assert code == 2
    assert out == ""
    assert "896x896" in err
    # matrix-free commands keep the cell cap
    code, _, _ = run_cli(capsys, "nash", write_game(tmp_path, big))
    assert code == 0


def test_space_cap_message_is_cut(tmp_path, capsys):
    path = tmp_path / "wide.json"
    path.write_text(
        json.dumps({"players": 4097, "strategies": [1] * 4097, "payoffs": []}),
        encoding="utf-8",
    )
    code, out, err = run_cli(capsys, "nash", str(path))
    assert code == 1
    assert out == ""
    assert "1,1,1" in err and "..." in err and "4097 payoff cells" in err
    assert len(err) < 200


def test_long_space_text_is_not_echoed_whole(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["project", "--kind", "harmonic", "--space", "2:" + "x" * 5000])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "'2:" + "x" * 38 + "'..." in err
    assert "x" * 41 not in err and len(err) < 1000


def test_unreadable_inputs_and_unprintable_results_fail_cleanly(tmp_path, capsys):
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"players": 1, "name": "\xe9", "strategies": [2], "payoffs": [[1, 0]]}')
    long_int = tmp_path / "long_int.json"
    long_int.write_text(
        '{"players": 1, "strategies": [2], "payoffs": [[' + "9" * 5000 + ", 0]]}",
        encoding="utf-8",
    )
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000, encoding="utf-8")
    for path in (latin1, long_int, deep):
        code, out, err = run_cli(capsys, "classify", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error: malformed document")
    # 4,200-digit payoffs are accepted, but 1000 decimal digits of them
    # make numbers CPython will not print
    wide = Game(GameSpace((2,)), (("9" * 4200, 0),))
    code, out, err = run_cli(capsys, "decompose", write_game(tmp_path, wide), "--decimal", "1000")
    assert code == 1
    assert out == ""
    assert "too long to print" in err and len(err) < 200


def test_payoffs_too_long_to_write_back_are_refused(tmp_path, capsys):
    path = tmp_path / "wide.json"
    widest = 2**linalg.MAX_PRINTED_BITS - 1
    for payoff, expected in [
        ('"1e4300"', 1),
        ('"1e-4300"', 1),
        ("9" + "0" * 4299, 1),
        ('"1e4299"', 0),
        (str(widest), 0),
    ]:
        doc = '{"players": 1, "strategies": [2], "payoffs": [[%s, 0]]}' % payoff
        path.write_text(doc, encoding="utf-8")
        code, out, err = run_cli(capsys, "nash", str(path))
        assert code == expected
        if expected:
            assert out == ""
            assert err.startswith("error: malformed document: payoffs[1][1]: ")
            assert "too long to print" in err and len(err) < 200


def test_internal_value_error_is_not_reported_as_bad_input(tmp_path, capsys, monkeypatch):
    def broken(game):
        raise ValueError("internal fault")

    monkeypatch.setattr(cli, "decompose", broken)
    path = write_game(tmp_path, rps_game())
    with pytest.raises(ValueError, match="internal fault"):
        main(["decompose", path])
    assert capsys.readouterr().out == ""


def test_cli_import_loads_no_dataclasses_inspect_or_typing(tmp_path):
    # a fresh interpreter: -S keeps site hooks, which may preload typing,
    # out of the result, and -B writes no bytecode, so every module loaded
    # is compiled.  The CLI loads the six modules it always needs; the
    # Matrix class (gamedecomp.matrix) loads with the first matrix built,
    # and the elimination and structural matrices (gamedecomp.dense) with
    # verify, so the matrix-free commands compile neither
    src = str(Path(__file__).resolve().parents[1] / "src")
    script = (
        "import io, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "before = set(sys.modules)\n"
        "def report(): print(*sorted(set(sys.modules) - before), file=sys.__stdout__)\n"
        "import gamedecomp.cli\n"
        "report()\n"
        "sys.stdout = io.StringIO()\n"
        "for command in ('decompose', 'classify', 'potential', 'nash'):\n"
        "    assert gamedecomp.cli.main([command, sys.argv[2]]) == 0\n"
        "report()\n"
        "gamedecomp.projectors.build_projectors(gamedecomp.games.GameSpace((2, 2)))\n"
        "report()\n"
        "assert gamedecomp.cli.main(['verify', sys.argv[2]]) == 0\n"
        "report()\n"
    )
    game = write_game(tmp_path, random_game(random.Random(463), GameSpace((2, 3, 2))))
    command = [sys.executable, "-I", "-S", "-B", "-c", script, src, game]
    proc = subprocess.run(command, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    imported, matrix_free, built, verified = (set(line.split()) for line in proc.stdout.splitlines())
    modules = ("analysis", "cli", "decompose", "games", "linalg", "projectors")
    assert {f"gamedecomp.{name}" for name in modules} <= imported
    assert not imported & {"dataclasses", "inspect", "typing"}
    tiers = {"gamedecomp.matrix", "gamedecomp.dense"}
    assert not (imported | matrix_free) & tiers
    assert built & tiers == {"gamedecomp.matrix"}
    assert tiers <= verified


def test_moved_names_resolve_to_their_defining_modules(monkeypatch):
    # linalg and projectors serve the names that moved to gamedecomp.dense,
    # Matrix among them, through one hook in linalg that each module
    # __getattr__ calls, so the acceptance tests, pickles naming the old
    # module and the benchmark's tracer, which looks its entry points up
    # after importing gamedecomp.cli alone, still find them, as the very
    # objects those modules hold.  Dunder names are refused without loading
    # anything: the import system probes __path__
    tests = Path(__file__).resolve().parent
    tree = ast.parse((tests / "test_acceptance.py").read_text(encoding="utf-8"))
    served = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and node.module in ("gamedecomp.linalg", "gamedecomp.projectors")
        for alias in node.names
    ]
    assert len(served) >= 10
    for module, name in served:
        value = getattr(importlib.import_module(module), name)
        assert getattr(importlib.import_module(value.__module__), name) is value
    assert linalg.Matrix is matrix.Matrix and linalg.rank is dense.rank
    assert projectors.build_B_P is dense.build_B_P
    assert pickle.Unpickler(io.BytesIO()).find_class("gamedecomp.linalg", "Matrix") is matrix.Matrix
    for module in (linalg, projectors):
        for name in ("no_such_name", "__path__"):
            with pytest.raises(AttributeError, match=f"^module {module.__name__!r} has no"):
                getattr(module, name)
    # nor are the names dense imports from elsewhere
    imported = [(linalg, "GameSpace"), (linalg, "math"), (linalg, "_row_gathers")]
    for module, name in imported + [(projectors, "combinations")]:
        refusal = f"^module {module.__name__!r} has no attribute {name!r}$"
        with pytest.raises(AttributeError, match=refusal):
            getattr(module, name)
    calls = []
    monkeypatch.setattr(linalg, "_dense_name", lambda *call: calls.append(call) or "served")
    assert (linalg.no_such_name, projectors.no_such_name) == ("served", "served")
    assert calls == [(module.__name__, "no_such_name") for module in (linalg, projectors)]
    monkeypatch.undo()
    bundle = build_projectors(GameSpace((2, 2)))
    for value in (bundle, bundle.potential):
        for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
            assert type(twin) is type(value) and twin == value
    script = (
        "import functools, sys\n"
        "sys.path[:0] = sys.argv[1:]\n"
        "import gamedecomp.cli, tracer\n"
        "assert not hasattr(gamedecomp.linalg, '__path__')\n"
        "assert 'gamedecomp.matrix' not in sys.modules\n"
        "for module, attr, _ in tracer.ENTRY_POINTS:\n"
        "    functools.reduce(getattr, attr.split('.'), sys.modules[module])\n"
    )
    paths = [str(tests.parent / "src"), str(tests.parent / "bench")]
    command = [sys.executable, "-I", "-S", "-B", "-c", script, *paths]
    proc = subprocess.run(command, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
