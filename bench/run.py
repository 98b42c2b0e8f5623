"""Benchmark for gamedecomp: three workloads, end-to-end metrics, per-layer traces.

Run from the root of a checkout (stdlib only; gamedecomp is imported from src/):

    python3 bench/run.py --workload cli-cold --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all

Each op is one CLI invocation or one library analysis of one game.  Load is
a closed loop with one client: the next op starts when the last one ends.
bench/inputs.py builds the games and says why each workload and space was
chosen; bench/README.md lists the metrics and what should move them.

--trace 0 runs whole cycles of the seeded op stream for about --seconds and
reports the end-to-end metrics, built from op CPU time at reference speed
(see measure).  --trace 1 runs the first cycle of the same stream untraced,
then again with bench/tracer.py wrapping the package's entry points, and
reports the per-layer metrics.  Every op's output is checked: its
stdout (or library result) digest must equal the one recorded in
bench/digests.json, and bench/oracle.py must accept it.  A mismatch, an
unexpected exit code or a timeout fails the op; failed ops stay in the
figures.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter, process_time

import inputs
import oracle
from tracer import Tracer, aggregate, layer_metrics, merge

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORK_ROOT = os.path.join(ROOT, ".bench_work")
DIGESTS_PATH = os.path.join(BENCH_DIR, "digests.json")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
TRACED_CLI = os.path.join(BENCH_DIR, "traced_cli.py")

OP_TIMEOUT_S = 60.0
MEASURE_LIMIT_S = 120.0  # no new cycle starts after this, whatever --seconds says
MIN_CYCLES = 3
TAIL_PERCENTILE = 90
SETUP_REPEATS = 5
SETUP_PROBES = 3  # probes on each side of a set-up; their median
REFERENCE_TERMS = 1500  # sized so that one probe takes about REFERENCE_NOMINAL_S of CPU
REFERENCE_NOMINAL_S = 0.005


class BenchError(Exception):
    """The benchmark cannot run in this directory."""


class OpTimeout(Exception):
    pass


@contextlib.contextmanager
def _deadline(seconds: float):
    """Raise OpTimeout in this (main) thread once `seconds` have passed."""

    def expire(signum, frame):
        raise OpTimeout

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def import_package() -> None:
    """Import gamedecomp from this checkout's src/, and nowhere else."""
    package_dir = os.path.join(SRC, "gamedecomp")
    if not os.path.isfile(os.path.join(package_dir, "__init__.py")):
        raise BenchError(f"no gamedecomp sources in {package_dir}; run from the root of a checkout")
    sys.path.insert(0, SRC)
    package = importlib.import_module("gamedecomp")
    if os.path.dirname(os.path.abspath(package.__file__)) != package_dir:
        raise BenchError(f"imported gamedecomp from {package.__file__}, not {package_dir}")
    importlib.import_module("gamedecomp.cli")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def analyse(game):
    """One library-warm op: every public analysis of one game."""
    d = sys.modules["gamedecomp.decompose"]
    a = sys.modules["gamedecomp.analysis"]
    kinds = sys.modules["gamedecomp.projectors"].SubspaceKind
    return (
        d.decompose(game),
        {kind.value: d.is_member(game, kind) for kind in kinds},
        d.potential_function(game),
        d.solve_potential_equation(game),
        {
            "nonstrategic": a.check_nonstrategic_defn(game),
            "pure-harmonic": a.check_pure_harmonic_defn(game),
            "harmonic": a.check_harmonic_defn(game),
        },
        a.pure_nash(game),
    )


def plain_result(result) -> dict:
    """A library-warm result as plain data: rows of Fractions, dicts and lists."""
    parts, members, potential, solved, definitional, nash = result

    def values(phi):
        return None if phi is None else list(phi.values)

    def offsets(phi):
        return None if phi is None else [list(block) for block in phi.player_offsets]

    return {
        "decompose": [
            [list(row) for row in part.payoff_rows]
            for part in (parts.pure_potential, parts.nonstrategic, parts.pure_harmonic)
        ],
        "is_member": members,
        "potential_function": values(potential),
        "potential_function_offsets": offsets(potential),
        "solve_potential_equation": values(solved),
        "solve_potential_equation_offsets": offsets(solved),
        "definitional": definitional,
        "pure_nash": [list(profile) for profile in nash],
    }


@dataclass
class Op:
    slot: tuple
    seconds: float
    output: object = None  # stdout bytes, or the raw library result
    error: str | None = None
    stats: dict = field(default_factory=dict)  # span aggregates of a traced child


def run_in_process(slot: tuple, call) -> Op:
    """One in-process op: call() under the op deadline; an exception fails the op."""
    start = perf_counter()
    try:
        with _deadline(OP_TIMEOUT_S):
            output = call()
            seconds = perf_counter() - start
    except OpTimeout:
        return Op(slot, perf_counter() - start, error="timeout")
    except Exception as exc:  # a failed op is recorded, and the run goes on
        return Op(slot, perf_counter() - start, error=f"raised {exc!r}")
    return Op(slot, seconds, output)


class Workload:
    """Inputs, set-up and one op of a named workload."""

    in_process = False

    def __init__(self, name: str, work_dir: str, digests: dict | None):
        self.name = name
        self.work_dir = work_dir
        self.digests = digests  # None while digests are being recorded
        self.games: dict[str, tuple] = {}  # game id -> (counts, rows)
        self.paths: dict[str, str] = {}
        self.input_digests: dict[str, str] = {}
        self.env = dict(os.environ, PYTHONPATH=SRC)

    def generate(self, write_files: bool) -> None:
        os.makedirs(self.work_dir, exist_ok=True)
        for counts, kind, variant in inputs.pool(self.name):
            gid = inputs.game_id(counts, kind, variant)
            rows = inputs.make_game(counts, kind, variant)
            text = inputs.game_document(counts, kind, variant, rows)
            digest = sha256(text.encode("utf-8"))
            if self.digests is not None and self.digests["inputs"].get(gid) != digest:
                raise BenchError(f"input {gid} differs from the pool recorded in {DIGESTS_PATH}")
            self.input_digests[gid] = digest
            self.games[gid] = (counts, rows)
            if write_files:
                path = os.path.join(self.work_dir, gid + ".json")
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write(text)
                self.paths[gid] = path

    def setup(self) -> None:
        """Input generation plus warm-up; what setup_s times."""
        self.generate(write_files=True)
        code, _, _ = self.run_cli(["nash", next(iter(self.paths.values()))], traced=False)
        if code != 0:
            raise BenchError("warm-up op failed")

    @staticmethod
    def gid(slot: tuple) -> str:
        counts, kind, variant, _ = slot
        return inputs.game_id(counts, kind, variant)

    def key(self, slot: tuple) -> str:
        return f"{slot[3]}|{self.gid(slot)}"

    def run_cli(self, argv: list[str], traced: bool):
        """A fresh child process; returns (exit code, stdout, span stats)."""
        spans_path = os.path.join(self.work_dir, "spans.json")
        if traced:
            command = [sys.executable, TRACED_CLI, spans_path, *argv]
        else:
            command = [sys.executable, "-m", "gamedecomp.cli", *argv]
        proc = subprocess.run(command, env=self.env, cwd=ROOT, capture_output=True, timeout=OP_TIMEOUT_S)
        stats = {}
        if traced:
            with open(spans_path, encoding="utf-8") as handle:
                stats = aggregate(json.load(handle))
            os.remove(spans_path)
        return proc.returncode, proc.stdout, stats

    def run(self, slot: tuple, traced: bool) -> Op:
        start = perf_counter()
        try:
            code, stdout, stats = self.run_cli([slot[3], self.paths[self.gid(slot)]], traced)
        except subprocess.TimeoutExpired:
            return Op(slot, perf_counter() - start, error="timeout")
        seconds = perf_counter() - start
        error = None if code == 0 else f"exit code {code}"
        return Op(slot, seconds, stdout, error, stats)

    def output_bytes(self, op: Op) -> bytes:
        return op.output

    def check(self, op: Op) -> str | None:
        counts, rows = self.games[self.gid(op.slot)]
        try:
            doc = json.loads(op.output)
        except ValueError:
            return "stdout is not JSON"
        return oracle.check_cli(op.slot[3], counts, rows, doc)


class LibraryWarm(Workload):
    """Every public analysis of a game, in this process, on prebuilt bundles."""

    in_process = True

    def setup(self) -> None:
        self.generate(write_files=False)
        games = sys.modules["gamedecomp.games"]
        self.objects = {
            gid: games.Game(games.GameSpace(counts), rows, name=gid)
            for gid, (counts, rows) in self.games.items()
        }
        build = sys.modules["gamedecomp.projectors"].build_projectors
        for counts in inputs.spaces(self.name):
            build(games.GameSpace(counts))

    def key(self, slot: tuple) -> str:
        return f"library|{self.gid(slot)}"

    def run(self, slot: tuple, traced: bool) -> Op:
        return run_in_process(slot, lambda: analyse(self.objects[self.gid(slot)]))

    def output_bytes(self, op: Op) -> bytes:
        return json.dumps(plain_result(op.output), default=str, sort_keys=True).encode("utf-8")

    def check(self, op: Op) -> str | None:
        counts, rows = self.games[self.gid(op.slot)]
        return oracle.check_library(counts, rows, plain_result(op.output))


WORKLOAD_TYPES = {
    "cli-cold": Workload,
    "library-warm": LibraryWarm,
    "verify-oracle": Workload,
}


def make_workload(name: str, digests: dict | None) -> Workload:
    work_dir = os.path.join(WORK_ROOT, f"{name}-{os.getpid()}")
    return WORKLOAD_TYPES[name](name, work_dir, digests)


def check_ops(workload: Workload, ops: list[Op], digests: dict) -> None:
    """Fail every op whose output differs from its recorded digest or fails the oracle."""
    verdicts: dict[tuple[str, str], str | None] = {}
    for op in ops:
        if op.error is not None:
            continue
        key = workload.key(op.slot)
        digest = sha256(workload.output_bytes(op))
        expected = digests["outputs"].get(key)
        if expected is None:
            op.error = f"no recorded digest for {key}"
        else:
            if (key, digest) not in verdicts:
                verdicts[(key, digest)] = workload.check(op)
            op.error = verdicts[(key, digest)]
            if digest != expected:
                op.error = f"output of {key} differs from the recorded digest ({op.error or 'the oracle accepts it'})"


def load_spec() -> dict:
    try:
        with open(SPEC_PATH, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {SPEC_PATH}: {exc}") from None


def select(metrics: dict[str, tuple[float, str]], specs: list[dict]) -> dict:
    """The metrics BENCHMARK.json names, each with its unit."""
    out = {}
    for spec in specs:
        value, unit = metrics[spec["name"]]
        if unit != spec["unit"]:
            raise BenchError(f"{spec['name']} is measured in {unit}, BENCHMARK.json says {spec['unit']}")
        out[spec["name"]] = {"value": value, "unit": unit}
    return out


def _rusage(in_process: bool):
    return resource.getrusage(resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN)


def _setup_in_child(name: str, seed: int) -> tuple[float, float, float]:
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed), "--setup-only"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=OP_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"set-up child failed: {proc.stderr.strip()[-400:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    return result["wall_s"], result["cpu_s"], result["cpu_ref_s"]


def _cpu_s(in_process: bool) -> float:
    usage = _rusage(in_process)
    return usage.ru_utime + usage.ru_stime


def reference_probe(repeats: int = 1) -> float:
    """CPU time of a fixed stdlib Fraction sum: how fast the CPU runs right now.

    It shares no code with gamedecomp, so no change to the package can
    move it; only the machine's speed does.  With `repeats`, the median.
    """
    times = []
    for _ in range(repeats):
        start = process_time()
        total = Fraction(0)
        for i in range(1, REFERENCE_TERMS):
            total += Fraction(i % 97 + 1, i % 89 + 1)
        times.append(process_time() - start)
    return statistics.median(times)


def pin_to_one_cpu() -> None:
    """Run this process, and every child it starts, on one CPU.

    The probe runs here and a child op in another process.  On a shared
    machine the CPUs differ in speed from moment to moment, so both must
    run on the same CPU for the probe to speak for the op.
    """
    with contextlib.suppress(AttributeError, OSError):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def timed_setup(workload: Workload) -> tuple[float, float, float]:
    """One set-up: its wall time, its CPU time (this process and its
    children), and that CPU time at reference speed."""
    before = reference_probe(SETUP_PROBES)
    wall0, cpu0 = perf_counter(), _cpu_s(True) + _cpu_s(False)
    workload.setup()
    wall, cpu = perf_counter() - wall0, _cpu_s(True) + _cpu_s(False) - cpu0
    after = reference_probe(SETUP_PROBES)
    return wall, cpu, cpu * REFERENCE_NOMINAL_S * 2 / (before + after)


def measure(name: str, seed: int, seconds: float, digests: dict) -> tuple[list[Op], dict]:
    """Whole cycles for about `seconds`; the end-to-end metrics.

    The package is single-threaded and does no I/O to speak of, so an
    op's CPU time is its latency minus the time other tenants of a
    shared machine took the CPU away.  The timed metrics are built from
    op CPU time at reference speed: a reference probe runs before the
    first op and after every op, and each op's CPU time is scaled by
    REFERENCE_NOMINAL_S over the mean of the probes on either side of
    it, which cancels drift in how fast the CPU runs and keeps what the
    package itself costs.  Set-up is measured the same way.  Everything
    runs on one CPU.  Raw wall and CPU figures are printed beside them.
    """
    pin_to_one_cpu()
    workload = make_workload(name, digests)
    setups = [timed_setup(workload)]

    ops: list[Op] = []
    cpu: list[float] = []
    probes: list[float] = [reference_probe()]
    cycles = 0
    t0 = perf_counter()
    for slots in inputs.cycles(name, seed):
        elapsed = perf_counter() - t0
        if cycles >= MIN_CYCLES and elapsed * (cycles + 1) / cycles > seconds:
            break
        if elapsed > MEASURE_LIMIT_S:
            break
        for slot in slots:
            cpu0 = _cpu_s(workload.in_process)
            ops.append(workload.run(slot, traced=False))
            cpu.append(_cpu_s(workload.in_process) - cpu0)
            probes.append(reference_probe())
        cycles += 1
    wall = perf_counter() - t0
    peak_rss_mb = _rusage(workload.in_process).ru_maxrss / 1024
    shutil.rmtree(workload.work_dir, ignore_errors=True)

    check_ops(workload, ops, digests)
    # More set-ups, each in a fresh process; they run after the timed
    # phase so that their resident sets stay out of peak_rss_mb.
    setups += [_setup_in_child(name, seed) for _ in range(SETUP_REPEATS - 1)]

    n = len(ops)
    latencies = [op.seconds for op in ops]
    ref_cpu = [x * REFERENCE_NOMINAL_S * 2 / (a + b) for x, a, b in zip(cpu, probes, probes[1:])]
    ref_tail = _tail(ref_cpu)
    failed = sum(op.error is not None for op in ops)
    metrics = {
        "setup_s": (statistics.median(s[2] for s in setups), "s"),
        "ops_per_cpu_ref_s": (n / sum(ref_cpu), "1/s"),
        "op_cpu_p50_ref_ms": (statistics.median(ref_cpu) * 1000, "ms"),
        "op_cpu_tail_ref_ms": (ref_tail * 1000, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "error_rate": (failed / n, "ratio"),
        "cpu_ref_ms_per_op": (statistics.fmean(ref_cpu) * 1000, "ms"),
        "setup_wall_s": (statistics.median(s[0] for s in setups), "s"),
        "setup_cpu_s": (statistics.median(s[1] for s in setups), "s"),
        "ops_per_s": (n / sum(latencies), "1/s"),
        "latency_p50_ms": (statistics.median(latencies) * 1000, "ms"),
        "latency_tail_ms": (_tail(latencies) * 1000, "ms"),
        "cpu_ms_per_op": (statistics.fmean(cpu) * 1000, "ms"),
        "cpu_over_wall": (sum(cpu) / sum(latencies), "ratio"),
        "reference_probe_ms": (statistics.fmean(probes) * 1000, "ms"),
    }
    notes = {
        "tail_percentile": TAIL_PERCENTILE,
        "samples": n,
        "samples_beyond_tail": sum(x > ref_tail for x in ref_cpu),
        "cycles": cycles,
        "ops_per_cycle": len(inputs.WORKLOADS[name]["cycle"]),
        "timed_s": wall,
        "reference_probe_range_ms": [min(probes) * 1000, max(probes) * 1000],
        "setup_samples_wall_s": [s[0] for s in setups],
        "setup_samples_cpu_ref_s": [s[2] for s in setups],
    }
    return ops, {"metrics": metrics, "notes": notes}


def _tail(values: list[float]) -> float:
    return statistics.quantiles(values, n=100)[TAIL_PERCENTILE - 1]


def measure_traced(name: str, seed: int, digests: dict) -> tuple[list[Op], dict]:
    """The first cycle untraced, then traced; the per-layer metrics."""
    workload = make_workload(name, digests)
    tracer = Tracer()
    if workload.in_process:
        tracer.install()  # an in-process set-up is traced too: its builds are the cache misses
    workload.setup()
    tracer.uninstall()
    slots = next(inputs.cycles(name, seed))

    t0 = perf_counter()
    untraced = [workload.run(slot, traced=False) for slot in slots]
    untraced_wall = perf_counter() - t0

    if workload.in_process:
        tracer.install()
    traced = []
    t0 = perf_counter()
    for index, slot in enumerate(slots):
        tracer.op = index
        traced.append(workload.run(slot, traced=True))
    traced_wall = perf_counter() - t0
    tracer.uninstall()
    shutil.rmtree(workload.work_dir, ignore_errors=True)

    check_ops(workload, untraced, digests)
    check_ops(workload, traced, digests)
    for plain, op in zip(untraced, traced):
        if op.error is None and plain.error is None and workload.output_bytes(op) != workload.output_bytes(plain):
            op.error = "traced output differs from untraced output"

    startup = 0.0  # in-process ops start no interpreter
    if workload.in_process:
        stats = aggregate(tracer.spans)
    else:
        stats = {}
        for op in traced:
            merge(stats, op.stats)
            startup += op.seconds - op.stats.get("cli.main", {}).get("total_s", 0.0)
    metrics = layer_metrics(stats, startup, traced_wall - untraced_wall)
    notes = {"ops_per_pass": len(slots), "untraced_s": untraced_wall, "traced_s": traced_wall, "missing_entry_points": tracer.missing}
    return untraced + traced, {"metrics": metrics, "notes": notes}


def git_sha() -> str:
    """HEAD of the checkout if it is a git work tree, else "unknown"."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    return {"git": git_sha(), "python": platform.python_version(), "nproc": os.cpu_count()}


def run_one(args: argparse.Namespace) -> int:
    spec = load_spec()
    with open(DIGESTS_PATH, encoding="utf-8") as handle:
        digests = json.load(handle)
    if args.setup_only:
        workload = make_workload(args.workload, digests)
        try:
            wall, cpu, cpu_ref = timed_setup(workload)
            print(json.dumps({"wall_s": wall, "cpu_s": cpu, "cpu_ref_s": cpu_ref}))
        finally:
            shutil.rmtree(workload.work_dir, ignore_errors=True)
        return 0
    if args.trace:
        ops, result = measure_traced(args.workload, args.seed, digests)
        chosen = select(result["metrics"], spec["per_layer"])
    else:
        ops, result = measure(args.workload, args.seed, args.seconds, digests)
        chosen = select(result["metrics"], spec["end_to_end"])
    failed = [op for op in ops if op.error is not None]

    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} "
          f"loop=closed clients=1 {' '.join(f'{k}={v}' for k, v in environment().items())}")
    for name, (value, unit) in result["metrics"].items():
        print(f"#   {name:48s} {value:14.6f} {unit}")
    for name, value in result["notes"].items():
        print(f"#   {name:48s} {value}")
    for op in failed[:10]:
        print(f"# FAILED {Workload.gid(op.slot)} {op.slot[3]}: {op.error}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": chosen,
    }))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own process, one after another."""
    results = {}
    for name in inputs.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT,
            capture_output=True,
            text=True,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        results[name] = json.loads(proc.stdout.splitlines()[-1])
    print(json.dumps({"workloads": results}))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*inputs.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help="time one set-up and print it")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        import_package()
        if args.workload == "all":
            return run_all(args)
        return run_one(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    finally:
        with contextlib.suppress(OSError):
            os.rmdir(WORK_ROOT)


if __name__ == "__main__":
    sys.exit(main())
