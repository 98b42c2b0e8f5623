"""Seeded, stdlib-only game generator and op streams for the benchmark.

Nothing here calls into gamedecomp: member games are built by
construction, so the benchmark's inputs cannot depend on the code it
measures.  Games are stored as plain payoff rows of Fractions, one row
per player, with profiles in index order (later players vary fastest),
which is the order the package's document format uses.

Inputs come from a fixed pool generated from POOL_SEED.  Each workload
runs one fixed cycle of ops over and over; a cycle slot fixes the space,
the command, the game kind and the payoff width, and the workload seed
picks one of the POOL_VARIANTS // 2 pool games of that width in each slot
and the order of the slots in each cycle.  So every cycle of every seed
has the same cost mix, and a fixed pool is what lets the benchmark hold
stdout digests recorded at one commit and call any later byte change a
failed op.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction

POOL_SEED = 20151226
POOL_VARIANTS = 4

# Membership drives cost: the definitional checks, potential_function
# and the Nash scans stop early on random games but run to the end on
# members, so every workload mixes all four kinds.
KINDS = ("random", "potential", "nonstrategic", "zero-sum")
NARROW, WIDE = 0, 1  # one-digit integer payoffs, or multi-digit rationals

# Why each workload, and each slot of its cycle, was chosen.  A slot is
# (space, command, kind, width).  The cycles are sized so that a run
# holds about ten of them, and shaped so that the median and the 90th
# percentile of op cost fall inside a group of like-cost slots,
# not on the edge between two groups, for any number of whole cycles.
WORKLOADS = {
    "cli-cold": {
        "why": "closed loop, 1 client: a fresh `python -m gamedecomp.cli` child per op; the "
        "bundle cache never hits, so interpreter start and the cold bundle build dominate",
        # The spaces a CLI user meets, from the smallest game to 81 cells,
        # plus nash at the cell cap.  Sorted by CPU cost at reference
        # speed: six ops cost little more than interpreter start-up
        # (0.1-0.15 s: small spaces, and nash, which builds no bundle),
        # three [4,4] builds (0.16-0.19 s), three ops at 0.2-0.3 s
        # (parsing or printing thousands of cells, and the four-player
        # build) and three builds at 72-81 cells (0.45-0.57 s).  With 15
        # ops a cycle the median of whole cycles is the middle of the
        # [4,4] group and the 90th percentile the middle of the dearest
        # group, each well inside a group of like-cost slots.  About
        # 3.6 s a cycle.
        "cycle": (
            ((2, 2), "decompose", "random", NARROW),  # 8 cells: interpreter start-up alone
            ((3, 3), "potential", "nonstrategic", NARROW),  # rock-paper-scissors size
            ((3, 3), "nash", "zero-sum", WIDE),
            ((2, 2, 2), "potential", "zero-sum", WIDE),  # smallest three-player space
            ((6, 6), "nash", "random", NARROW),
            ((3, 3, 3), "nash", "random", NARROW),
            ((4, 4), "classify", "nonstrategic", WIDE),  # two players, wider strategy sets: the median ops
            ((4, 4), "decompose", "potential", NARROW),
            ((4, 4), "potential", "zero-sum", WIDE),
            ((2, 2, 2, 2), "decompose", "zero-sum", NARROW),  # 16 subsets in the group inverse
            ((45, 45), "nash", "potential", WIDE),  # 4050 cells: parsing at the cell cap
            ((2,) * 8, "nash", "nonstrategic", NARROW),  # every profile an equilibrium: a long document
            ((2, 3, 4), "classify", "zero-sum", NARROW),  # unequal strategy counts: the tail ops
            ((3, 3, 3), "classify", "random", WIDE),  # the 81-cell baseline case
            ((6, 6), "classify", "zero-sum", WIDE),  # two players at the build's knee
        ),
    },
    "library-warm": {
        "why": "closed loop, 1 client, in-process: bundles for every signature are built in "
        "set-up, so each op hits the cache and dense projection apply and Bareiss dominate",
        # An op is every public analysis of one game.  Set-up builds one
        # bundle per space; the 192-cell one takes seconds.  Six cheap
        # ops (18-24 cells, 15-35 ms), five [4,4] ops (45-60 ms) that
        # hold the median, one [3,3,3] op (about 0.25 s), and three
        # [4,4,4] ops (1.2-1.4 s each), the largest bundle and densest
        # apply, which take three quarters of the cycle's time.  With 15
        # ops a cycle the median of whole cycles is the eighth-cheapest
        # slot, and the 90th percentile is the middle of the three
        # [4,4,4] slots: the middle of a like-cost group, not its edge,
        # where the reading would follow the noisiest few ops.  About
        # 5 s a cycle.
        "cycle": (
            ((3, 3), "analyse", "random", NARROW),  # 18 cells: sets the floor
            ((3, 3), "analyse", "potential", WIDE),
            ((3, 3), "analyse", "nonstrategic", NARROW),
            ((2, 2, 2), "analyse", "zero-sum", WIDE),  # 24 cells: three players
            ((2, 2, 2), "analyse", "random", WIDE),
            ((2, 2, 2), "analyse", "nonstrategic", NARROW),
            ((4, 4), "analyse", "potential", NARROW),  # 32 cells: the median op
            ((4, 4), "analyse", "zero-sum", NARROW),
            ((4, 4), "analyse", "random", WIDE),
            ((4, 4), "analyse", "nonstrategic", WIDE),
            ((4, 4), "analyse", "potential", WIDE),
            ((3, 3, 3), "analyse", "random", WIDE),  # 81 cells: the baseline case
            ((4, 4, 4), "analyse", "potential", WIDE),  # 192 cells: the tail ops
            ((4, 4, 4), "analyse", "zero-sum", WIDE),
            ((4, 4, 4), "analyse", "nonstrategic", WIDE),
        ),
    },
    "verify-oracle": {
        "why": "closed loop, 1 client: a fresh child per `gamedecomp verify` op; dense nk x nk "
        "products and mp_inverse dominate, so a linalg kernel change shows here",
        # verify costs over a second from 32 cells up, so the cycle stops
        # at 24 cells: one start-up-sized op, three [3,3] ops (about
        # 0.4 s) and one [2,2,2] op (about 0.7 s).  With 5 ops a cycle the
        # median of whole cycles is the middle of the [3,3] group and the
        # 90th percentile the middle of the [2,2,2] slot.  About 2 s a
        # cycle.
        "cycle": (
            ((2, 2), "verify", "random", WIDE),  # 8 cells: the floor
            ((3, 3), "verify", "potential", NARROW),  # 18 cells: the median ops
            ((3, 3), "verify", "nonstrategic", WIDE),
            ((3, 3), "verify", "zero-sum", NARROW),
            ((2, 2, 2), "verify", "random", WIDE),  # 24 cells: the tail op
        ),
    },
}


def space_label(counts: tuple[int, ...]) -> str:
    return "x".join(map(str, counts))


def game_id(counts: tuple[int, ...], kind: str, variant: int) -> str:
    return f"{space_label(counts)}-{kind}-{variant}"


def strides(counts: tuple[int, ...]) -> list[int]:
    """Index step of each player's strategy (later players vary fastest)."""
    out = [1] * len(counts)
    for i in range(len(counts) - 2, -1, -1):
        out[i] = out[i + 1] * counts[i + 1]
    return out


def digits(counts: tuple[int, ...], index: int) -> list[int]:
    """0-based strategy of each player at a profile index."""
    out = []
    for step, count in zip(strides(counts), counts):
        out.append(index // step % count)
    return out


def _entry(rng: random.Random, q: int) -> Fraction:
    """One payoff: a one-digit integer if q is 1, else a multi-digit numerator over q.

    Operand bit size is what drives Fraction cost.  One denominator per
    game keeps that size the same from variant to variant; independent
    denominators would make it, and the op's cost, depend on the draw.
    """
    if q == 1:
        return Fraction(rng.randint(-9, 9))
    return Fraction(rng.randint(-10**6, 10**6), q)


def _others_term(rng: random.Random, counts: tuple[int, ...], player: int, q: int) -> list[Fraction]:
    """A payoff row that ignores `player`'s own strategy."""
    step = strides(counts)[player]
    values: dict[int, Fraction] = {}
    row = []
    for s in range(math.prod(counts)):
        key = s - (s // step % counts[player]) * step  # the profile with player's choice zeroed
        if key not in values:
            values[key] = _entry(rng, q)
        row.append(values[key])
    return row


def _centred(rng: random.Random, counts: tuple[int, ...], q: int) -> list[Fraction]:
    """A random tensor whose sum along every player's axis is zero."""
    k = math.prod(counts)
    scale = k if q == 1 else 1  # keeps narrow variants integral
    t = [_entry(rng, q) * scale for _ in range(k)]
    for player, count in enumerate(counts):
        step = strides(counts)[player]
        for s in range(k):
            if s // step % count == 0:
                line = [s + j * step for j in range(count)]
                mean = sum((t[x] for x in line), Fraction(0)) / count
                for x in line:
                    t[x] -= mean
    return t


def make_game(counts: tuple[int, ...], kind: str, variant: int) -> list[list[Fraction]]:
    """Payoff rows of one pool game, by construction.

    random:       independent entries.
    potential:    u_i(s) = phi(s) + h_i(s_-i), an exact potential game.
    nonstrategic: u_i(s) = h_i(s_-i).
    zero-sum:     T played with opposite signs by consecutive player pairs,
                  T centred along every axis; for two players this is the
                  doubly-centred zero-sum game, and it is pure harmonic.
    Odd variants use multi-digit rational payoffs over a 3-digit denominator.
    """
    rng = random.Random(f"{POOL_SEED}:{game_id(counts, kind, variant)}")
    q = rng.randint(101, 999) if variant % 2 else 1
    n = len(counts)
    k = math.prod(counts)
    if kind == "random":
        return [[_entry(rng, q) for _ in range(k)] for _ in range(n)]
    if kind in ("potential", "nonstrategic"):
        phi = [_entry(rng, q) for _ in range(k)] if kind == "potential" else [Fraction(0)] * k
        return [
            [p + h for p, h in zip(phi, _others_term(rng, counts, i, q))] for i in range(n)
        ]
    if kind == "zero-sum":
        rows = [[Fraction(0)] * k for _ in range(n)]
        for i in range(n - 1):
            t = _centred(rng, counts, q)
            rows[i] = [a + b for a, b in zip(rows[i], t)]
            rows[i + 1] = [a - b for a, b in zip(rows[i + 1], t)]
        return rows
    raise ValueError(f"unknown game kind {kind!r}")


def render(x: Fraction) -> object:
    return x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def game_document(counts: tuple[int, ...], kind: str, variant: int, rows: list[list[Fraction]]) -> str:
    """The game as a gamedecomp JSON document."""
    doc = {
        "name": game_id(counts, kind, variant),
        "players": len(counts),
        "strategies": list(counts),
        "payoffs": [[render(x) for x in row] for row in rows],
    }
    return json.dumps(doc) + "\n"


def op_slots(workload: str):
    """Every (counts, kind, variant, command) the workload can run, each once."""
    seen = {}
    for counts, command, kind, width in WORKLOADS[workload]["cycle"]:
        for variant in range(width, POOL_VARIANTS, 2):
            seen[(counts, kind, variant, command)] = None
    return list(seen)


def pool(workload: str):
    """Every (counts, kind, variant) game the workload can draw, each once."""
    return list(dict.fromkeys(slot[:3] for slot in op_slots(workload)))


def spaces(workload: str):
    return list(dict.fromkeys(slot[0] for slot in WORKLOADS[workload]["cycle"]))


def cycles(workload: str, seed: int):
    """Endless stream of cycles; each cycle is a list of (counts, kind, variant, command).

    Every cycle runs the workload's cycle slots once.  The seed picks the
    pool variant of the slot's width and shuffles the slot order.
    """
    rng = random.Random(f"{workload}:{seed}")
    while True:
        slots = [
            (counts, kind, 2 * rng.randrange(POOL_VARIANTS // 2) + width, command)
            for counts, command, kind, width in WORKLOADS[workload]["cycle"]
        ]
        rng.shuffle(slots)
        yield slots
