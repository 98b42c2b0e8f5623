"""Independent checks of the program's answers, written from the definitions.

Each function here works on plain payoff rows (see inputs.py) with its
own exact arithmetic and shares no code with gamedecomp, so a wrong
answer from the package cannot also be wrong here in the same way.
"""

from __future__ import annotations

import math
from fractions import Fraction

from inputs import digits, strides


def _own_lines(counts: tuple[int, ...], player: int):
    """Index lists of every line along `player`'s own strategy axis."""
    step = strides(counts)[player]
    count = counts[player]
    for s in range(math.prod(counts)):
        if s // step % count == 0:
            yield [s + j * step for j in range(count)]


def own_axis_average(counts: tuple[int, ...], rows: list[list[Fraction]]) -> list[list[Fraction]]:
    """Each payoff replaced by that player's mean over their own strategies."""
    out = []
    for player, row in enumerate(rows):
        averaged = [Fraction(0)] * len(row)
        for line in _own_lines(counts, player):
            mean = sum((row[x] for x in line), Fraction(0)) / len(line)
            for x in line:
                averaged[x] = mean
        out.append(averaged)
    return out


def path_potential(counts: tuple[int, ...], rows: list[list[Fraction]]) -> list[Fraction]:
    """Candidate potential by summing payoff changes along a path from profile 0.

    Player i moves from strategy 0 to s_i in turn; a game is a potential
    game exactly when this candidate satisfies the deviation identity.
    """
    st = strides(counts)
    phi = []
    for s in range(math.prod(counts)):
        d = digits(counts, s)
        value = Fraction(0)
        index = 0
        for i, choice in enumerate(d):
            moved = index + choice * st[i]
            value += rows[i][moved] - rows[i][index]
            index = moved
        phi.append(value)
    return phi


def deviation_identity(counts: tuple[int, ...], rows: list[list[Fraction]], phi: list[Fraction]) -> bool:
    """Every unilateral payoff change equals the potential change."""
    for player, row in enumerate(rows):
        for line in _own_lines(counts, player):
            base = line[0]
            for x in line[1:]:
                if row[x] - row[base] != phi[x] - phi[base]:
                    return False
    return True


def memberships(counts: tuple[int, ...], rows: list[list[Fraction]]) -> dict[str, bool]:
    """Membership in the five canonical subspaces, from their definitions."""
    averaged = own_axis_average(counts, rows)
    k = math.prod(counts)
    zero_means = all(x == 0 for row in averaged for x in row)
    potential = deviation_identity(counts, rows, path_potential(counts, rows))
    return {
        "pure-potential": potential and zero_means,
        "nonstrategic": averaged == rows,
        "pure-harmonic": zero_means and all(sum(row[s] for row in rows) == 0 for s in range(k)),
        "potential": potential,
        "harmonic": all(
            sum(avg[s] - row[s] for avg, row in zip(averaged, rows)) == 0 for s in range(k)
        ),
    }


def pure_nash(counts: tuple[int, ...], rows: list[list[Fraction]]) -> list[list[int]]:
    """All pure equilibria as 1-based profiles, in index order, by brute force."""
    best = [[False] * len(row) for row in rows]
    for player, row in enumerate(rows):
        for line in _own_lines(counts, player):
            top = max(row[x] for x in line)
            for x in line:
                best[player][x] = row[x] == top
    return [
        [d + 1 for d in digits(counts, s)]
        for s in range(math.prod(counts))
        if all(b[s] for b in best)
    ]


def uniform_mixed_is_nash(counts: tuple[int, ...], rows: list[list[Fraction]]) -> bool:
    """Against uniform opponents, every own strategy earns the same total."""
    for player, row in enumerate(rows):
        step = strides(counts)[player]
        totals = [Fraction(0)] * counts[player]
        for s, x in enumerate(row):
            totals[s // step % counts[player]] += x
        if any(t != totals[0] for t in totals):
            return False
    return True


def rational(value: object) -> Fraction:
    """A value as the CLI renders it: an int or a "p/q" string."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValueError(f"not an exact rational: {value!r}")
    return Fraction(value)


def _doc_rows(doc: dict) -> list[list[Fraction]]:
    return [[rational(x) for x in row] for row in doc["payoffs"]]


def check_cli(command: str, counts: tuple[int, ...], rows: list[list[Fraction]], doc: dict) -> str | None:
    """None if a CLI document is right for the game, else what is wrong."""
    if doc.get("command") != command:
        return f"command field is {doc.get('command')!r}"
    if doc.get("space") != {"players": len(counts), "strategies": list(counts)}:
        return "space field does not match the input"
    if command == "decompose":
        parts = [_doc_rows(doc["components"][name]) for name in ("pure_potential", "nonstrategic", "pure_harmonic")]
        total = [[a + b + c for a, b, c in zip(*player_rows)] for player_rows in zip(*parts)]
        if total != rows or doc["components_sum_to_input"] is not True:
            return "components do not re-sum to the input"
        if parts[1] != own_axis_average(counts, rows):
            return "nonstrategic part is not the own-axis average"
        return None
    truth = memberships(counts, rows)
    if command == "classify":
        if doc["memberships"] != truth:
            return f"memberships {doc['memberships']} differ from {truth}"
        checks = doc["definitional_checks"]
        if any(checks[name] != truth[name] for name in checks):
            return "definitional checks differ from the definitions"
        if not all(doc["checks_agree_with_memberships"].values()):
            return "checks disagree with memberships"
        return None
    if command == "potential":
        if doc["potential"] != truth["potential"]:
            return f"potential verdict {doc['potential']} differs from {truth['potential']}"
        if not truth["potential"]:
            return None if doc["routes_agree"] is True else "routes disagree"
        values = [rational(x) for x in doc["values"]]
        if len(values) != math.prod(counts) or not deviation_identity(counts, rows, values):
            return "potential values fail the deviation identity"
        return None if doc["routes_agree_up_to_constant"] is True else "routes disagree"
    if command == "nash":
        if doc["pure_equilibria"] != pure_nash(counts, rows):
            return "pure equilibria differ from brute-force enumeration"
        if doc["uniform_mixed_is_nash"] != uniform_mixed_is_nash(counts, rows):
            return "uniform mixed verdict is wrong"
        return None
    if command == "verify":
        if doc["all_passed"] is not True or not all(c["passed"] for c in doc["checks"]):
            return "verify reports a failed check"
        return None
    return f"no check for command {command!r}"


def check_library(counts: tuple[int, ...], rows: list[list[Fraction]], result: dict) -> str | None:
    """None if one library-warm analysis is right for the game, else what is wrong."""
    parts = result["decompose"]
    total = [[a + b + c for a, b, c in zip(*player_rows)] for player_rows in zip(*parts)]
    if total != rows:
        return "components do not re-sum to the input"
    if parts[1] != own_axis_average(counts, rows):
        return "nonstrategic part is not the own-axis average"
    truth = memberships(counts, rows)
    if result["is_member"] != truth:
        return f"memberships {result['is_member']} differ from {truth}"
    for route in ("potential_function", "solve_potential_equation"):
        values = result[route]
        if (values is not None) != truth["potential"]:
            return f"{route} verdict is wrong"
        if values is not None and not deviation_identity(counts, rows, values):
            return f"{route} values fail the deviation identity"
    for name, value in result["definitional"].items():
        if value != truth[name]:
            return f"definitional {name} check is wrong"
    if result["pure_nash"] != pure_nash(counts, rows):
        return "pure equilibria differ from brute-force enumeration"
    return None
