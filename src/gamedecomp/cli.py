"""Command-line front end.

Subcommands: decompose, classify, potential, project, nash, verify.
Each is a function from its input, the game read from the file (for
project, the --space), to its document's own fields.  main is the one
path around them: it reads the game file, refuses with exit code 2 what
it will not do (CSV where the output is no table, before the file is
opened; dense matrices over MAX_DENSE_CELLS cells, before any build),
adds the command, the space and the --decimal labels, writes stdout and
picks the exit code.  Documents go to stdout as JSON, or as CSV where
the output is a table; diagnostics go to stderr.  Output is exact "p/q"
rationals unless --decimal is given, in which case values are
fixed-precision decimal strings and the document is labeled
approximate.  Exit code 0 means the command reached a verdict;
classification verdicts like "not potential" are data, not errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Sequence
from fractions import Fraction
from itertools import chain

from gamedecomp import analysis
from gamedecomp.decompose import (
    PotentialFunction,
    decompose,
    differs_by_constant,
    is_member,
    nonstrategic_component_direct,
    potential_function,
    raw_potential_vector,
    solve_potential_equation,
)
from gamedecomp.games import (
    Game,
    GameFormatError,
    GameSpace,
    MalformedDocumentError,
    game_document,
    parse_game,
)
from gamedecomp.linalg import (
    ResultTooLongError,
    _check_bits,
    _cut,
    format_rational,
    parse_rational,
)
from gamedecomp.projectors import (
    PART_KINDS,
    SubspaceKind,
    build_projectors,
    part_matrices,
    subspace_dimension,
)

TABLE_COMMANDS = ("project", "potential")
# 10**digits is built for every rendered value, and CPython will not
# print an integer of more than 4300 digits
MAX_DECIMAL_DIGITS = 1000
# project and verify build dense nk x nk matrices.  verify certifies the
# potential and nonstrategic projections against B_P and B_N (P_N's follows
# with the sum identity); one child takes 0.11 s of CPU at 81 cells, 0.22 s
# at 192, 0.66 s at 324, 1.38 s at 384 and 1.70 s (31 MB) at 512 (2-vCPU
# machine, Python 3.11); project takes 0.30 s (48 MB) at 512 cells and its
# output runs to megabytes
DENSE_COMMANDS = ("project", "verify")
MAX_DENSE_CELLS = 512


def _parse_space(text: str) -> GameSpace:
    """Parse an 'n:k1,k2,...' space description."""
    try:
        head, _, tail = text.partition(":")
        players = int(head)
        counts = tuple(int(c) for c in tail.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"space must look like 'n:k1,k2,...', got {_cut(text, repr)}"
        ) from None
    if players != len(counts):
        raise argparse.ArgumentTypeError(
            f"space declares {_cut(str(players))} players but lists {len(counts)} strategy counts"
        )
    try:
        return GameSpace(counts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_rational(text: str) -> Fraction:
    """A rational flag, held to the bound parse_game puts on every payoff."""
    try:
        return _check_bits(parse_rational(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _load_game(args: argparse.Namespace) -> Game:
    with open(args.file, "r", encoding="utf-8") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as exc:
            raise MalformedDocumentError(f"malformed document: {exc}") from None
    game = parse_game(text)
    if args.space is not None:
        flat = [x for row in game.payoff_rows for x in row]
        if len(flat) != args.space.payoff_cells:
            raise GameFormatError(
                f"space override needs {args.space.payoff_cells} payoff cells, "
                f"file provides {len(flat)}"
            )
        game = Game.from_vector(args.space, flat)
    if any(c == 1 for c in game.space.strategy_counts):
        warning = "space has a single-strategy player; formulas degenerate but remain valid"
        print(f"warning: {warning}", file=sys.stderr)
    return game


# -- subcommands --------------------------------------------------------


def _classification(game: Game) -> dict[str, dict[str, bool]]:
    """Memberships and the definitional tests, keyed by subspace kind value, and their agreement."""
    memberships = {kind.value: is_member(game, kind) for kind in SubspaceKind}
    checks = {
        "nonstrategic": analysis.check_nonstrategic_defn(game),
        "pure-harmonic": analysis.check_pure_harmonic_defn(game),
        "harmonic": analysis.check_harmonic_defn(game),
    }
    agreement = {name: held == memberships[name] for name, held in checks.items()}
    return {
        "memberships": memberships,
        "definitional_checks": checks,
        "checks_agree_with_memberships": agreement,
    }


def _routes_agree(projected: PotentialFunction | None, solved: PotentialFunction | None) -> bool:
    """Whether the projected and solved potentials exist together and differ by a constant."""
    return (projected is None) == (solved is None) and (
        projected is None or differs_by_constant(projected.values, solved.values)
    )


def _cmd_decompose(game: Game, args: argparse.Namespace) -> dict:
    parts = decompose(game)
    return {
        "arithmetic": "exact-rational" if args.decimal is None else "decimal",
        "components": {
            name: game_document(getattr(parts, name), args.decimal) for name in parts._fields
        },
        "components_sum_to_input": parts.total() == game,
    }


def _cmd_classify(game: Game, args: argparse.Namespace) -> dict:
    return _classification(game)


def _cmd_potential(game: Game, args: argparse.Namespace) -> dict:
    projected = potential_function(game)
    agree = _routes_agree(projected, solve_potential_equation(game))
    if projected is None:
        doc = {"potential": False, "routes_agree": agree}
        if args.experimental_raw_vector:
            doc["experimental_raw_vector"] = [
                format_rational(x, args.decimal) for x in raw_potential_vector(game)
            ]
            doc["experimental_raw_vector_semantics"] = (
                "canonical potential of the potential component"
            )
        return doc
    values = projected.values if args.shift is None else projected.shifted(args.shift).values
    return {
        "potential": True,
        "values": [format_rational(x, args.decimal) for x in values],
        "shift": format_rational(args.shift or 0),
        "routes_agree_up_to_constant": agree,
    }


def _cmd_project(space: GameSpace, args: argparse.Namespace) -> dict:
    from gamedecomp.matrix import Matrix

    bundle = build_projectors(space)
    kind = SubspaceKind(args.kind)
    projection = bundle.projection(kind)
    # a projection takes few distinct values, so each numerator is labeled once
    den, rows = projection.denominator, projection.numerators
    labels = {
        x: format_rational(Fraction(x, den), args.decimal)
        for x in dict.fromkeys(chain.from_iterable(rows))
    }
    return {
        "kind": kind.value,
        "dimension": subspace_dimension(space, kind),
        "sum_identity_verified": bundle.total() == Matrix.identity(space.payoff_cells),
        "rows": [list(map(labels.__getitem__, row)) for row in rows],
    }


def _cmd_nash(game: Game, args: argparse.Namespace) -> dict:
    return {
        "pure_equilibria": [list(s) for s in analysis.pure_nash(game)],
        "uniform_mixed_is_nash": analysis.uniform_mixed_nash_check(game),
    }


def _cmd_verify(game: Game, args: argparse.Namespace) -> dict:
    checks = _verification_checks(game)
    return {
        "checks": [{"name": name, "passed": passed} for name, passed in checks],
        "all_passed": all(passed for _, passed in checks),
    }


def _verification_checks(game: Game) -> list[tuple[str, bool]]:
    """Every cross-oracle identity the library can test on one game."""
    # imported here, so that the commands that build no matrix do not compile them
    from gamedecomp.dense import build_B_N, build_B_P, is_range_projector
    from gamedecomp.matrix import Matrix

    space = game.space
    bundle = build_projectors(space)
    sums_to_identity = bundle.total() == Matrix.identity(space.payoff_cells)
    # potential and harmonic sum parts, so they are symmetric, idempotent and of
    # the right trace when the parts are and the parts' products are zero;
    # idempotency and the products hold iff they hold on every ANOVA part
    split = [part_matrices(space, kind) for kind in PART_KINDS]
    parts_g = decompose(game)
    part_vectors = {kind: parts_g.projection(kind).structure_vector() for kind in PART_KINDS}
    agreement = _classification(game)["checks_agree_with_memberships"]
    solved = solve_potential_equation(game)
    return [
        (
            "projections_symmetric",
            all(bundle.projection(kind).is_symmetric() for kind in PART_KINDS),
        ),
        ("projections_idempotent", all(m @ m == m for ms in split for m in ms)),
        ("projection_sum_is_identity", sums_to_identity),
        (
            "projection_pairwise_products_zero",
            all(
                (a @ b).is_zero() for x in split for y in split if x is not y for a, b in zip(x, y)
            ),
        ),
        (
            "projection_traces_match_dimensions",
            all(
                bundle.projection(kind).trace() == subspace_dimension(space, kind)
                for kind in PART_KINDS
            ),
        ),
        # B B^+ is certified, not recomputed; the name stays so stdout does not change.
        # range(B_N) lies in range(B_P), so potential - nonstrategic projects onto range(P_N);
        # with the sum identity, pure harmonic = I - potential and harmonic = I - pure potential
        (
            "pseudoinverse_oracles_match",
            is_range_projector(bundle.potential, build_B_P(space))
            and is_range_projector(bundle.nonstrategic, build_B_N(space))
            and sums_to_identity,
        ),
        ("decomposition_sums_to_input", parts_g.total() == game),
        # the dense projections cross-check the matrix-free parts
        (
            "components_lie_in_their_subspaces",
            all(bundle.projection(kind) @ v == v for kind, v in part_vectors.items()),
        ),
        ("definitional_checks_agree", all(agreement.values())),
        ("potential_routes_agree", _routes_agree(potential_function(game), solved)),
        ("nonstrategic_direct_agrees", nonstrategic_component_direct(game) == parts_g.nonstrategic),
    ]


# -- the one path -------------------------------------------------------

COMMANDS = (
    ("decompose", "split a game into its three components", _cmd_decompose),
    ("classify", "test the five subspace memberships", _cmd_classify),
    ("potential", "extract a potential function if one exists", _cmd_potential),
    ("project", "emit a projection matrix", _cmd_project),
    ("nash", "pure and uniformly-mixed equilibrium report", _cmd_nash),
    ("verify", "run every cross-oracle identity check", _cmd_verify),
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gamedecomp",
        description="Exact decomposition and analysis of finite normal-form games.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, helptext, handler in COMMANDS:
        p = sub.add_parser(name, help=helptext)
        if name == "project":
            p.add_argument(
                "--kind",
                required=True,
                choices=[kind.value for kind in SubspaceKind],
                help="which canonical subspace",
            )
        else:
            p.add_argument("file", help="game JSON file")
        p.add_argument("--format", choices=("json", "csv"), default="json", help="output format")
        p.add_argument(
            "--decimal",
            type=int,
            metavar="DIGITS",
            help="emit approximate decimal strings with this many digits",
        )
        p.add_argument(
            "--space",
            type=_parse_space,
            metavar="n:k1,k2,...",
            help="game space (overrides the file's space where a file is given)",
        )
        if name == "potential":
            p.add_argument(
                "--shift",
                type=_parse_rational,
                metavar="p/q",
                help="add a constant to the canonical potential",
            )
            p.add_argument(
                "--experimental-raw-vector",
                action="store_true",
                help="for non-potential games, also emit the canonical potential of the "
                "game's potential component (its projection onto the potential games)",
            )
        p.set_defaults(handler=handler)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    command, digits = args.command, args.decimal
    if command == "project" and args.space is None:
        parser.error("project requires --space")
    if digits is not None and not 0 <= digits <= MAX_DECIMAL_DIGITS:
        parser.error(f"--decimal needs a digit count from 0 to {MAX_DECIMAL_DIGITS}, got {digits}")
    if args.format == "csv" and command not in TABLE_COMMANDS:
        print(f"error: csv output is not defined for {command}; use --format json", file=sys.stderr)
        return 2
    if args.format == "csv" and getattr(args, "experimental_raw_vector", False):
        # the CSV table has no column for it
        print("error: --experimental-raw-vector needs --format json", file=sys.stderr)
        return 2
    # the errors a subcommand raises for its input: a game document it
    # cannot accept, a file it cannot read (or stdout it cannot write),
    # and a result too long to print; anything else is a fault here
    try:
        game = None if command == "project" else _load_game(args)
        space = args.space if game is None else game.space
        cells = space.payoff_cells
        if command in DENSE_COMMANDS and cells > MAX_DENSE_CELLS:
            print(
                f"error: {command} builds dense {cells}x{cells} matrices and accepts "
                f"at most {MAX_DENSE_CELLS} payoff cells",
                file=sys.stderr,
            )
            return 2
        fields = args.handler(space if game is None else game, args)
        if not fields.get("sum_identity_verified", True):
            print("error: projection sum identity failed", file=sys.stderr)
            return 1
        if args.format == "csv":
            if command == "project":
                lines = [",".join(map(str, row)) for row in fields["rows"]]
            elif fields["potential"]:
                values = enumerate(fields["values"], 1)
                lines = ["profile_index,value", *(f"{i},{x}" for i, x in values)]
            else:
                lines = ["potential,false"]
            if digits is not None:
                lines.insert(0, f"# approximate: {digits} decimal digits")
            text = "\n".join(lines)
        else:
            space_doc = {"players": space.n, "strategies": list(space.strategy_counts)}
            doc = {"command": command, "space": space_doc, **fields}
            if digits is not None:
                doc.update(approximate=True, decimal_digits=digits)
            text = json.dumps(doc, indent=2)
        sys.stdout.write(text + "\n")
        return 0 if fields.get("all_passed", True) else 1
    except (GameFormatError, ResultTooLongError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
