"""Exact decomposition of finite normal-form games.

Every finite game with fixed player and strategy counts lives in a
Euclidean space of payoff vectors.  That space splits into a pure
potential part, a nonstrategic part, and a pure harmonic part, and the
splitting is an orthogonal projection with closed-form rational
entries.  This package computes those projections exactly (no floats
anywhere), classifies games against the five canonical subspaces, and
extracts potential functions of potential games.
"""

from gamedecomp.games import Game, GameSpace, parse_game, serialize_game
from gamedecomp.projectors import ProjectorSet, SubspaceKind, build_projectors
from gamedecomp.decompose import (
    Decomposition,
    PotentialFunction,
    decompose,
    is_member,
    potential_function,
    solve_potential_equation,
)
from gamedecomp.analysis import harmonic_nash_kernel_dim, pure_nash

__version__ = "0.1.0"

__all__ = [
    "Game",
    "GameSpace",
    "parse_game",
    "serialize_game",
    "ProjectorSet",
    "SubspaceKind",
    "build_projectors",
    "Decomposition",
    "PotentialFunction",
    "decompose",
    "is_member",
    "potential_function",
    "solve_potential_equation",
    "harmonic_nash_kernel_dim",
    "pure_nash",
]
