"""sepdfa benchmark: time real `sepdfa` command lines, end to end and by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With --trace 0 each pass runs the workload's command lines as separate
`python -m sepdfa.cli` processes, one at a time, as many passes as fit in S
seconds, with a `sepdfa --help` process for setup_s after each.  Meanwhile
a thread times fixed pieces of work (speed.py), which measure the shared
machine's speed.  wall_s, own_s and setup_s are medians over the
passes of each pass's times scaled to the reference speed, at which that
work takes REFERENCE_SAMPLE_S.
With --trace 1 the same
command lines run in this process through sepdfa.cli.main(argv), alternating
an untraced pass and a pass with spans around sepdfa's public functions;
the per-layer metrics are medians over the traced passes.

Every `mine` uses the reference solver compiled from refsolver.c into
.bench_build/, and every output is checked by checks.py.  The last line of
standard output is one JSON object: correct, attempted, failed and metrics,
with the metric names and units declared in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import shlex
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field

import refsolver
from checks import mine_result
from speed import Sampler
from tracer import Tracer
from workloads import DEFAULT_SEED, WORKLOADS, Step

BUILD_DIR = ".bench_build"
# A command line still running after COMMAND_TIMEOUT seconds, or at
# RUN_DEADLINE seconds into the run, is killed; none starts after the
# deadline.  This keeps a run of a broken program within 180 seconds.
COMMAND_TIMEOUT = 100.0
RUN_DEADLINE = 150.0
# About the median time of a speed sample on the machine the reference
# figures in README.md come from.  It only sets the unit of scaled times.
REFERENCE_SAMPLE_S = 0.003


@dataclass
class PassResult:
    wall: float
    steps: int
    failed: int
    metrics: dict[str, float]  # per-layer metrics of a traced pass
    # Per command line of a process pass: wall seconds, reference solver
    # seconds and peak RSS in KiB.
    commands: list[tuple[float, float, int]] = field(default_factory=list)
    # Wall seconds of the `sepdfa --help` runs of a process pass.
    setup: list[float] = field(default_factory=list)
    # Median seconds of the speed samples taken during a process pass.
    speed: float | None = None


class Bench:
    """Paths, solver and environment shared by every pass of one run."""

    def __init__(self, root: str, workload: str, seed: int,
                 layers: list[str]) -> None:
        self.deadline = time.perf_counter() + RUN_DEADLINE
        self.root = root
        self.layers = layers  # the spans named by per-layer self times
        self.src = os.path.join(root, "src")
        build = os.path.join(root, BUILD_DIR)
        self.tmp = os.path.join(build, "tmp")
        self.work = os.path.join(build, "work", workload)
        self.log = os.path.join(build, f"solver-{workload}.log")
        os.makedirs(self.tmp, exist_ok=True)
        binary = refsolver.build(build)
        solver = shlex.join([binary, "-l", self.log])
        self.env = dict(os.environ, PYTHONPATH=self.src, TMPDIR=self.tmp)
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.reset()
        self.steps = WORKLOADS[workload](seed, self.work, solver,
                                         self.run_untimed)

    def reset(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        if os.path.exists(self.log):
            os.remove(self.log)

    def spawn(self, argv: list[str], out_path: str) -> tuple[int, float, int]:
        """Run one process tree; exit status, wall seconds, peak RSS in KiB."""
        with open(out_path, "wb") as out, open(out_path + ".err", "wb") as err:
            started = time.perf_counter()
            proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out,
                                    stderr=err, env=self.env, cwd=self.root,
                                    start_new_session=True)
            timeout = min(COMMAND_TIMEOUT, self.deadline - started)
            killer = threading.Timer(max(timeout, 0.0), os.killpg,
                                     (proc.pid, signal.SIGKILL))
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: leave no process behind
                os.killpg(proc.pid, signal.SIGKILL)
                os.wait4(proc.pid, 0)
                raise
            finally:
                killer.cancel()
            wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_maxrss

    def cli(self, *argv: str) -> list[str]:
        return [sys.executable, "-m", "sepdfa.cli", *argv]

    def run_untimed(self, argv: tuple[str, ...]) -> int:
        return self.spawn(self.cli(*argv), os.path.join(self.tmp, "plan.out"))[0]

    def setup_time(self) -> float:
        """Wall time of `sepdfa --help`: interpreter, imports, argparse."""
        status, wall, _ = self.spawn(self.cli("--help"),
                                     os.path.join(self.tmp, "help.out"))
        if status != 0:
            raise RuntimeError(f"sepdfa --help exited with status {status}")
        return wall


def check_outputs(steps: list[Step], outputs: list[tuple[int, str]]) -> int:
    """Number of command lines that failed or whose output is wrong."""
    problems: list[str | None] = []
    groups: dict[str, list[tuple[int, object]]] = {}
    for index, (step, (status, stdout)) in enumerate(zip(steps, outputs)):
        if status != 0:
            problems.append("not run before the deadline" if status is None
                            else f"exit status {status}")
            continue
        try:
            value, problem = step.check(stdout)
        except (OSError, ValueError, IndexError, KeyError) as err:
            value, problem = None, f"check raised {err!r}"
        problems.append(problem)
        if step.agree is not None:
            groups.setdefault(step.agree, []).append((index, value))
    for key, members in groups.items():
        if len({value for _, value in members}) > 1:
            for index, _ in members:
                problems[index] = problems[index] or f"{key}: modes disagree"
    for step, problem in zip(steps, problems):
        if problem is not None:
            print(f"FAILED: sepdfa {shlex.join(step.argv)}: {problem}",
                  file=sys.stderr)
    return sum(problem is not None for problem in problems)


def process_pass(bench: Bench, sampler: Sampler) -> PassResult:
    """One pass, each command line its own process.

    A `sepdfa --help` runs after every command line, so that setup_s samples
    the same stretch of time, and the same load on a shared machine, as
    wall_s does.
    """
    bench.reset()
    statuses, commands, setup = [], [], []
    logged = 0
    started = time.perf_counter()
    for index, step in enumerate(bench.steps):
        if time.perf_counter() > bench.deadline:
            break
        status, wall, peak = bench.spawn(
            bench.cli(*step.argv), os.path.join(bench.work, f"{index}.out"))
        calls = refsolver.read_log(bench.log)
        solver_seconds = sum(c.seconds for c in calls[logged:])
        logged = len(calls)
        statuses.append(status)
        commands.append((wall, solver_seconds, peak))
        if time.perf_counter() < bench.deadline:
            setup.append(bench.setup_time())
    ended = time.perf_counter()
    wall = ended - started
    outputs = []
    for index, status in enumerate(statuses):
        with open(os.path.join(bench.work, f"{index}.out"), encoding="utf-8",
                  errors="replace") as handle:
            outputs.append((status, handle.read()))
    # Command lines not started before the deadline count as failed.
    outputs += [(None, "")] * (len(bench.steps) - len(outputs))
    return PassResult(wall, len(outputs), check_outputs(bench.steps, outputs),
                      {}, commands, setup, sampler.median(started, ended))


def end_to_end(passes: list[PassResult]) -> dict[str, float]:
    """End-to-end metrics: medians over passes, times at the reference speed.

    The shared machines this runs on change speed by 30% and more within
    minutes, and the same command line can take 2x as long in a burst of
    a neighbour's load.  Each pass's times are therefore multiplied by
    REFERENCE_SAMPLE_S over the median time of the speed samples taken
    while the pass ran.  A change to sepdfa leaves the samples' work as it
    was, so it moves the scaled times as it moves wall time.
    """
    # A pass cut short by the deadline has no full set of command lines.
    timed = [p for p in passes if p.speed and p.setup]
    full = [p for p in timed if len(p.commands) == p.steps] or timed
    if not full:  # no command line ended before the deadline
        return {}
    scaled: dict[str, list[float]] = {}
    for p in full:
        scale = REFERENCE_SAMPLE_S / p.speed
        for name, value in (
                ("wall_s", sum(w for w, _, _ in p.commands)),
                ("own_s", sum(w - s for w, s, _ in p.commands)),
                ("setup_s", statistics.median(p.setup))):
            scaled.setdefault(name, []).append(value * scale)
        scaled.setdefault("peak_rss_mb", []).append(
            max(rss for _, _, rss in p.commands) / 1024.0)
        scaled.setdefault("raw.wall_s", []).append(
            sum(w for w, _, _ in p.commands))
        scaled.setdefault("raw.sample_s", []).append(p.speed)
    return {name: statistics.median(values)
            for name, values in scaled.items()}


def inprocess_pass(bench: Bench, main, tracer: Tracer | None) -> PassResult:
    """One pass through sepdfa.cli.main(argv) in this process."""
    bench.reset()
    gc.collect()
    outputs = []
    if tracer is not None:
        main = tracer.span("cli.main", main)
    started = time.perf_counter()
    for step in bench.steps:
        if time.perf_counter() > bench.deadline:
            break
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = main(list(step.argv))
        outputs.append((status, out.getvalue()))
    wall = time.perf_counter() - started
    metrics = ({} if tracer is None else
               layer_metrics(bench, tracer, wall, outputs))
    # Command lines not started before the deadline count as failed.
    outputs += [(None, "")] * (len(bench.steps) - len(outputs))
    return PassResult(wall, len(outputs), check_outputs(bench.steps, outputs),
                      metrics)


def layer_metrics(bench: Bench, tracer: Tracer, wall: float,
                  outputs: list[tuple[int, str]]) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    bench.layers names the spans whose self time is reported, each as
    `<module>.<function>` or as a whole `<module>`; the self time of every
    other traced function is summed into trace.other_self_s.
    """
    calls = refsolver.read_log(bench.log)
    solver_seconds = sum(c.seconds for c in calls)
    self_times = tracer.self_times()
    metrics = {f"{layer}.self_s": 0.0 for layer in bench.layers}
    other = 0.0
    for name, seconds in self_times.items():
        layer = next((layer for layer in bench.layers if name == layer
                      or name.startswith(layer + ".")), None)
        if layer is None:
            other += seconds
        else:
            metrics[f"{layer}.self_s"] += seconds
    # The solver process runs inside solve(); its own time is refsolver's.
    if "solver.solve.self_s" in metrics:
        metrics["solver.solve.self_s"] -= solver_seconds
    covered = sum(self_times.values())
    attempts = [verdict for step, (_, stdout) in zip(bench.steps, outputs)
                if step.argv[0] == "mine"
                for verdict in mine_result(stdout)[0].values()]
    metrics.update({
        "automata.acceptor_states": float(tracer.acceptor_states),
        "encoding.clauses": float(sum(c.clauses for c in calls)),
        "encoding.dimacs_mb": sum(c.bytes for c in calls) / 1e6,
        "solver.calls": float(len(calls)),
        "mining.attempts": float(len(attempts)),
        "mining.unsat_attempts": float(attempts.count("unsat")),
        "refsolver.seconds": solver_seconds,
        "refsolver.conflicts": float(sum(c.conflicts for c in calls)),
        "trace.wall_s": wall,
        "trace.other_self_s": other,
        "trace.uncovered_s": wall - covered,
    })
    return metrics


def load_sepdfa(src: str):
    sys.path.insert(0, src)
    import sepdfa
    import sepdfa.cli
    if not os.path.abspath(sepdfa.__file__).startswith(src + os.sep):
        raise RuntimeError(f"imported sepdfa from {sepdfa.__file__}, "
                           f"not from {src}")
    return sepdfa


def out_of_time(bench: Bench, started: float, last: float,
                seconds: float) -> bool:
    """Would one more pass, as long as the last one, end after `seconds`?

    Past the run's deadline, the answer is always yes.
    """
    now = time.perf_counter()
    return now - started + last > seconds or now > bench.deadline


def run_processes(bench: Bench, seconds: float):
    """End-to-end metrics from process passes."""
    bench.setup_time()  # the first run also writes the bytecode caches
    passes: list[PassResult] = []
    with Sampler() as sampler:
        started = time.perf_counter()
        while True:
            passes.append(process_pass(bench, sampler))
            print(f"pass {len(passes)}: {passes[-1].wall:.3f} s",
                  file=sys.stderr)
            if out_of_time(bench, started, passes[-1].wall, seconds):
                break
    return passes, end_to_end(passes)


def run_traced(bench: Bench, seconds: float):
    """Per-layer metrics: pairs of an untraced and a traced in-process pass."""
    sepdfa = load_sepdfa(bench.src)
    tempfile.tempdir = bench.tmp
    passes: list[PassResult] = []
    untraced: list[float] = []
    started = time.perf_counter()
    while True:
        # Alternate which pass of the pair runs first, so that warming up
        # is not charged to the same side of the overhead every time.
        tracer = Tracer()
        order = [None, tracer] if len(untraced) % 2 == 0 else [tracer, None]
        for use in order:
            if use is None:
                passes.append(inprocess_pass(bench, sepdfa.cli.main, None))
                untraced.append(passes[-1].wall)
                continue
            use.install(sepdfa)
            try:
                passes.append(inprocess_pass(bench, sepdfa.cli.main, use))
            finally:
                use.uninstall()
        pair = passes[-1].wall + passes[-2].wall
        print(f"pair {len(untraced)}: {pair:.3f} s", file=sys.stderr)
        if out_of_time(bench, started, pair, seconds):
            break
    traced = [p for p in passes if p.metrics]
    summary = {name: statistics.median(p.metrics[name] for p in traced)
               for name in traced[0].metrics}
    summary["trace.untraced_wall_s"] = statistics.median(untraced)
    # Tracing overhead, as a factor: traced over untraced pass wall time.
    summary["trace.slowdown"] = (summary["trace.wall_s"]
                                 / summary["trace.untraced_wall_s"])
    return passes, summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="random-search hidden DFA seed; the parity "
                             f"workloads ignore it (default {DEFAULT_SEED})")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measure passes for about this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn a termination request into an exception, so that spawn() can
    # kill the process group it is waiting on before this process exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    root = os.getcwd()
    spec_path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(root, "src", "sepdfa", "cli.py")):
        print("error: run from a sepdfa checkout; src/sepdfa is missing",
              file=sys.stderr)
        return 2
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    try:
        layers = [m["name"][:-len(".self_s")] for m in spec["per_layer"]
                  if m["name"].endswith(".self_s")]
        bench = Bench(root, args.workload, args.seed, layers)
        if args.trace:
            passes, summary = run_traced(bench, args.seconds)
        else:
            passes, summary = run_processes(bench, args.seconds)
    except (refsolver.BuildError, RuntimeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    missing = [m["name"] for m in declared if m["name"] not in summary]
    if missing:
        print(f"error: no value for declared metrics {missing}",
              file=sys.stderr)
        return 4
    for name, value in sorted(summary.items()):
        print(f"{name} = {value:.6g}", file=sys.stderr)
    attempted = sum(p.steps for p in passes)
    failed = sum(p.failed for p in passes)
    print(f"{len(passes)} passes, {failed} of {attempted} command lines "
          f"failed", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": summary[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
