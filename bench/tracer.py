"""Trace shim: spans around gamedecomp's public entry points, from outside.

Tracer.install() replaces each entry point below with a wrapper that
records a span (name, start, end, parent span, op id), everywhere the
function is reachable: in its own module, in every gamedecomp module
that imported it by name (projectors' `kron`, cli's `decompose`, ...),
and on the Matrix class for `@`.  Nothing under src/ changes.  Spans are
kept in memory; callers write them out when the run ends.

A layer's self time is its spans' duration minus the time their direct
child spans cover.  Work a wrapper does to inspect a result (operand bit
sizes, cache bookkeeping) runs after the span ends and is recorded as a
"trace.inspect" span under the caller, so no layer is charged for it.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

# (module, attribute, span name).  The first part of a span name is its layer.
ENTRY_POINTS = (
    ("gamedecomp.cli", "main", "cli.main"),
    ("gamedecomp.games", "parse_game", "games.parse_game"),
    ("gamedecomp.projectors", "build_projectors", "projectors.build_projectors"),
    ("gamedecomp.decompose", "decompose", "decompose.decompose"),
    ("gamedecomp.decompose", "is_member", "decompose.is_member"),
    ("gamedecomp.decompose", "potential_function", "decompose.potential_function"),
    ("gamedecomp.decompose", "solve_potential_equation", "decompose.solve_potential_equation"),
    ("gamedecomp.decompose", "raw_potential_vector", "decompose.raw_potential_vector"),
    ("gamedecomp.decompose", "nonstrategic_component_direct", "decompose.nonstrategic_component_direct"),
    ("gamedecomp.linalg", "Matrix.__matmul__", "linalg.matmul"),
    ("gamedecomp.linalg", "kron", "linalg.kron"),
    ("gamedecomp.linalg", "mp_inverse", "linalg.mp_inverse"),
    ("gamedecomp.linalg", "solve_linear", "linalg.solve_linear"),
    ("gamedecomp.linalg", "rank", "linalg.rank"),
    ("gamedecomp.analysis", "pure_nash", "analysis.pure_nash"),
    ("gamedecomp.analysis", "uniform_mixed_nash_check", "analysis.uniform_mixed_nash_check"),
    ("gamedecomp.analysis", "check_nonstrategic_defn", "analysis.check_nonstrategic_defn"),
    ("gamedecomp.analysis", "check_pure_harmonic_defn", "analysis.check_pure_harmonic_defn"),
    ("gamedecomp.analysis", "check_harmonic_defn", "analysis.check_harmonic_defn"),
)
LAYERS = ("cli", "games", "projectors", "decompose", "linalg", "analysis")
DEFINITIONAL = (
    "analysis.check_nonstrategic_defn",
    "analysis.check_pure_harmonic_defn",
    "analysis.check_harmonic_defn",
)
SETUP_OP = -1
EMPTY = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "mults": 0, "max_bits": 0, "hits": 0}


def _max_bits(matrices) -> int:
    return max(
        max(x.numerator.bit_length(), x.denominator.bit_length())
        for m in matrices
        for row in m.rows_iter()
        for x in row
    )


class Tracer:
    """Records spans while installed; `op` tags each span with the current op id."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, op, extra]
        self.op = SETUP_OP
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._first_op: dict[tuple[int, ...], int] = {}
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        importlib.import_module("gamedecomp.cli")  # loads every module
        inspectors = {
            "linalg.matmul": self._inspect_matmul,
            "projectors.build_projectors": self._inspect_build,
        }
        for module_name, attr, name in ENTRY_POINTS:
            module = sys.modules[module_name]
            owner, _, leaf = attr.rpartition(".")
            holder = getattr(module, owner, None) if owner else module
            original = getattr(holder, leaf, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original, inspectors.get(name))
            if owner:
                self._patch(holder, leaf, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "gamedecomp" or mod_name.startswith("gamedecomp."):
                    for key in [k for k, v in vars(mod).items() if v is original]:
                        self._patch(mod, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._patches):
            setattr(holder, key, original)
        self._patches.clear()

    def _patch(self, holder: object, key: str, value: object) -> None:
        self._patches.append((holder, key, getattr(holder, key)))
        setattr(holder, key, value)

    def _wrap(self, name, fn, inspect):
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            record = [name, 0.0, 0.0, parent, self.op, None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if inspect is not None:
                start = perf_counter()
                record[5] = inspect(args, result)
                spans.append(["trace.inspect", start, perf_counter(), parent, self.op, None])
            return result

        return wrapper

    def _inspect_matmul(self, args, result):
        a, b = args
        return a.nrows * a.ncols * b.ncols, _max_bits((a, b, result))

    def _inspect_build(self, args, result):
        """Whether an earlier op (or set-up) of this process built this signature."""
        key = tuple(args[0].strategy_counts)
        first = self._first_op.setdefault(key, self.op)
        return first != self.op


def aggregate(spans) -> dict[str, dict]:
    """Per span name: calls, total and self seconds, plus inspected counters."""
    covered = [0.0] * len(spans)
    for name, start, end, parent, op, extra in spans:
        if parent >= 0:
            covered[parent] += end - start
    stats: dict[str, dict] = {}
    for index, (name, start, end, parent, op, extra) in enumerate(spans):
        s = stats.setdefault(name, dict(EMPTY))
        s["calls"] += 1
        s["total_s"] += end - start
        s["self_s"] += end - start - covered[index]
        if name == "linalg.matmul":
            s["mults"] += extra[0]
            s["max_bits"] = max(s["max_bits"], extra[1])
        elif name == "projectors.build_projectors":
            s["hits"] += bool(extra)
    return stats


def merge(into: dict[str, dict], stats: dict[str, dict]) -> None:
    for name, s in stats.items():
        t = into.setdefault(name, dict(EMPTY))
        for key, value in s.items():
            t[key] = max(t[key], value) if key == "max_bits" else t[key] + value


def layer_metrics(stats: dict[str, dict], startup_s: float, overhead_s: float) -> dict[str, tuple[float, str]]:
    """Every per-layer metric the traced run can report, by name, with its unit."""
    out: dict[str, tuple[float, str]] = {}
    for _, _, name in ENTRY_POINTS:
        s = stats.get(name, EMPTY)
        out[f"{name}.calls"] = (s["calls"], "count")
        out[f"{name}.self_s"] = (s["self_s"], "s")
    matmul = stats.get("linalg.matmul", EMPTY)
    out["linalg.matmul.mults"] = (matmul["mults"], "count")
    out["linalg.matmul.max_bits"] = (matmul["max_bits"], "bits")
    build = stats.get("projectors.build_projectors", EMPTY)
    out["projectors.build_projectors.hit_ratio"] = (
        build["hits"] / build["calls"] if build["calls"] else 0.0,
        "ratio",
    )
    out["analysis.definitional.self_s"] = (
        sum(stats.get(name, EMPTY)["self_s"] for name in DEFINITIONAL),
        "s",
    )
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (
            sum(s["self_s"] for name, s in stats.items() if name.split(".")[0] == layer),
            "s",
        )
    out["process.startup_s"] = (startup_s, "s")
    out["trace.inspect_s"] = (stats.get("trace.inspect", EMPTY)["total_s"], "s")
    out["trace.overhead_s"] = (overhead_s, "s")
    return out
