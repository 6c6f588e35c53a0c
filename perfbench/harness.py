"""Measurement loop of the seshadri benchmark.

One run measures one workload in one process, as a closed loop with one
client: each operation starts when the previous one has finished.  An
untraced run reports the end-to-end metrics; a traced run alternates
untraced and traced passes and reports the per-layer metrics, with the
difference between the two as the tracing overhead.

Timings are wall seconds, with one correction.  On a shared host the speed
of a core drifts by tens of percent within seconds.  A short step sees
one speed, so it is scaled by REFERENCE_S over the time a fixed
pure-Python loop takes next to it, on the same core; the seshadri code
does not change that loop.  Every fresh interpreter (set-up, each CLI
command) times the loop right after its own work.  In process, the loop
runs right before and right after each pass of the workloads marked
``speed_corrected``.  Passes of five seconds and more average the drift
by themselves, and two instants of the loop only add noise to them, so
they are not scaled.  Every sample's raw wall time is kept.
"""

from __future__ import annotations

import hashlib
import inspect
import io
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

import seshadri.cli as cli
import seshadri.oracle as oracle
from seshadri import _kernels as kernels
from seshadri._kernels import pyref

from tracing import Tracer, layer_metrics
from workloads import CliCommand, Runner

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build"

SWEEP_SHARE = 0.6   # share of the measured seconds given to in-process passes
MIN_CLI_REPS = 3
SETUP_REPS = 7
CHILD_TIMEOUT_S = 170
# The reference loop's time on an idle core of the machine the benchmark
# was written on (2 cores, CPython 3.11.7): corrected passes read as if
# they had run at that speed.
REFERENCE_S = 0.0025

@dataclass
class Result:
    """Everything one run measured, with the environment it ran in."""

    workload: str
    trace: bool
    attempted: int
    failures: List[str]
    metrics: Dict[str, float]
    samples: Dict[str, List[float]]
    env: dict
    spans: list = field(default_factory=list)

    @property
    def fail_ratio(self) -> float:
        return len(self.failures) / self.attempted

    def to_json(self) -> dict:
        return {"workload": self.workload, "trace": self.trace,
                "attempted": self.attempted, "failures": self.failures,
                "fail_ratio": self.fail_ratio, "metrics": self.metrics,
                "samples": self.samples, "env": self.env,
                "spans": [s.to_json() for s in self.spans]}


def _reference_work() -> int:
    """Small-Fraction arithmetic, tuple keys, a dict and a sort: the kind
    of work the seshadri pipeline does, in a fixed amount."""
    table = {}
    for i in range(1, 400):
        table[i % 23, i] = Fraction(i, 13) * Fraction(7, i + 2) - Fraction(1, 3)
    return sum(f.numerator % 7 for _, f in sorted(table.items()))


# The reference loop, timed three times, for a fresh interpreter to run
# right after the step it measures.
REFERENCE_CODE = "from fractions import Fraction\n" + inspect.getsource(_reference_work) + """
times = []
for _ in range(3):
    r0 = time.perf_counter()
    _reference_work()
    times.append(time.perf_counter() - r0)
"""

# Times the import and the validated builtin construction, then the
# reference loop in the same interpreter.
SETUP_CODE = """\
import time
t0 = time.perf_counter()
import seshadri
dis = seshadri.builtin_dissection_eckl10()
t1 = time.perf_counter()
ok = seshadri.validate_dissection(dis).ok
""" + REFERENCE_CODE + """
print(t1 - t0, sorted(times)[1], ok, seshadri.__file__)
"""

# Runs ``seshadri.cli`` the way ``python -m seshadri.cli`` does, then the
# reference loop; the loop's timings go on the last line of stderr.
CLI_CODE = """\
import runpy, sys, time
sys.argv[0] = "seshadri"
try:
    runpy.run_module("seshadri.cli", run_name="__main__", alter_sys=True)
    code = 0
except SystemExit as exc:
    code = exc.code
sys.stdout.flush()
""" + REFERENCE_CODE + """
sys.stderr.write(f"\\nreference {sum(times)} {sorted(times)[1]}\\n")
sys.exit(code)
"""


def _reference_s() -> float:
    """Median of three timings of the reference loop."""
    times = []
    for _ in range(3):
        t0 = perf_counter()
        _reference_work()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def calibrated(fn: Callable):
    """Run fn between two timings of the reference loop.

    Returns fn's result and the factor that turns wall seconds measured
    inside fn into reference seconds.
    """
    before = _reference_s()
    result = fn()
    return result, 2 * REFERENCE_S / (before + _reference_s())


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def _run_child(args: List[str]) -> Tuple[int, str, str, float]:
    """Run a fresh interpreter; return its exit code, stdout, stderr and
    wall time."""
    t0 = perf_counter()
    try:
        proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=_child_env(),
                              capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return -1, "", "", perf_counter() - t0
    return proc.returncode, proc.stdout, proc.stderr, perf_counter() - t0


def run_cli(argv) -> Tuple[int, str, float, float]:
    """Run one CLI command in a fresh interpreter.

    Returns the exit code, stdout, and the command's time in corrected and
    in wall seconds, both without the reference loop that follows it.
    """
    rc, out, err, wall = _run_child(["-c", CLI_CODE, *argv])
    last = err.rstrip("\n").rpartition("\n")[2].split()
    if len(last) != 3 or last[0] != "reference":
        return rc, out, wall, wall
    wall -= float(last[1])
    return rc, out, wall * REFERENCE_S / float(last[2]), wall


def run_cli_inprocess(argv) -> Tuple[int, str, float, float]:
    out = io.StringIO()
    t0 = perf_counter()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        rc = cli.run(list(argv))
    wall = perf_counter() - t0
    return rc, out.getvalue(), wall, wall


def measure_setup(reps: int, runner: Runner, samples: Dict[str, List[float]]) -> None:
    """Import and builtin-construction time in fresh interpreters, each
    corrected by the reference loop timed in the same interpreter.

    The first child fills the bytecode cache and is not timed: users pay
    that once per install, not once per command.
    """
    for i in range(reps + 1):
        runner.attempted += 1
        rc, out, _, _ = _run_child(["-c", SETUP_CODE])
        fields = out.split()
        if rc != 0 or len(fields) != 4 or fields[2] != "True" \
                or not fields[3].startswith(str(SRC)):
            runner.fail(f"setup child: exit {rc}, stdout {out[:200]!r}")
            continue
        if i:
            wall, reference = float(fields[0]), float(fields[1])
            samples["setup_s"].append(wall * REFERENCE_S / reference)
            samples["setup_s.wall"].append(wall)


def cli_rep(commands: List[CliCommand], runner: Runner,
            run: Callable) -> Tuple[float, float]:
    """Run the workload's CLI commands once; return their total time in
    corrected and in wall seconds."""
    total = total_wall = 0.0
    for cmd in commands:
        rc, out, seconds, wall = run(cmd.argv)
        total += seconds
        total_wall += wall
        runner.cli_check(cmd, rc, out)
    return total, total_wall


def share_time(deadline: float, main: Callable, side: Callable,
               min_side: int) -> None:
    """Interleave main and side steps until the deadline, giving main
    SWEEP_SHARE of the time; run at least one main and min_side side steps.

    Interleaving spreads both kinds of sample over the whole run, so a
    slow spell of the host does not land on one kind only.
    """
    main_t = side_t = 0.0
    mains = sides = 0
    while mains < 1 or sides < min_side or perf_counter() < deadline:
        t0 = perf_counter()
        if mains and (t0 >= deadline
                      or main_t * (1 - SWEEP_SHARE) > side_t * SWEEP_SHARE):
            side()
            side_t += perf_counter() - t0
            sides += 1
        else:
            main()
            main_t += perf_counter() - t0
            mains += 1


@contextmanager
def captured_modrank():
    """Record every matrix the modular oracle hands to the rank kernel."""
    captured = []
    original = oracle.modrank

    def capture(rows, prime):
        rank = original(rows, prime)
        captured.append((rows, prime, rank))
        return rank

    oracle.modrank = capture
    try:
        yield captured
    finally:
        oracle.modrank = original


def crosscheck_kernel(captured, runner: Runner) -> None:
    """The compiled kernel must agree with the pure-Python reference."""
    for rows, prime, rank in captured:
        runner.attempted += 1
        ref = pyref.modrank(rows, prime)
        if ref != rank:
            runner.fail(f"compiled modrank gives {rank}, pyref gives {ref} "
                        f"on a {len(rows)}x{len(rows[0])} matrix")


def _git_commit() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() or None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "seshadri").rglob("*")):
        if path.suffix in (".py", ".pyx", ".c") and path.is_file():
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(wl, seed: int, runner: Runner, crosscheck: str) -> dict:
    return {"backend": kernels.BACKEND, "prime": oracle.MODULAR_DEFAULT_PRIME,
            "seed": seed, "oracle_seeds": "seed + piece index",
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "commit": _git_commit(), "source_sha256": _source_digest(),
            "kernel_crosscheck": crosscheck,
            "matrices_rows_cols_rank": runner.matrices}


def _warm_up(wl, runner: Runner) -> str:
    """One untimed pass; it also fixes every operation's reference output."""
    if not wl.kernel_crosscheck:
        wl.run_pass(runner)
        return "not applicable"
    if kernels.BACKEND != "compiled":
        wl.run_pass(runner)
        return f"skipped: backend is {kernels.BACKEND}"
    with captured_modrank() as captured:
        wl.run_pass(runner)
    crosscheck_kernel(captured, runner)
    return f"{len(captured)} matrices checked against pyref"


def _timed_pass(wl, runner: Runner) -> float:
    runner.pass_time = 0.0
    wl.run_pass(runner)
    return runner.pass_time


def measure(wl, seed: int, seconds: float, trace: bool,
            setup_reps: int = SETUP_REPS) -> Result:
    """Run one workload for about ``seconds`` after set-up and warm-up."""
    runner = Runner()
    samples: Dict[str, List[float]] = {}
    if not trace:
        samples["setup_s"], samples["setup_s.wall"] = [], []
        measure_setup(setup_reps, runner, samples)
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="perfbench-", dir=WORK) as workdir:
        wl.write_files(Path(workdir))
        crosscheck = _warm_up(wl, runner)
        commands = wl.cli_commands(runner)
        deadline = perf_counter() + seconds
        if trace:
            tracer = Tracer()
            per_pass: List[Dict[str, float]] = []
            untraced = samples["untraced_sweep_s"] = []
            traced = samples["traced_sweep_s"] = []
            cli_run = samples["cli.run_s"] = []

            def cli_run_rep() -> None:
                cli_run.append(cli_rep(commands, runner, run_cli_inprocess)[1])

            def pass_pair() -> None:
                untraced.append(_timed_pass(wl, runner))
                first = len(tracer.spans)
                runner.tracer = tracer
                with tracer.installed():
                    traced.append(_timed_pass(wl, runner))
                runner.tracer = None
                per_pass.append(layer_metrics(tracer.spans, first))

            share_time(deadline, pass_pair, cli_run_rep, MIN_CLI_REPS)
            metrics = {name: statistics.median(p[name] for p in per_pass)
                       for name in per_pass[0]}
            metrics["trace.overhead_s"] = (statistics.median(traced)
                                           - statistics.median(untraced))
            metrics["cli.run_s"] = statistics.median(cli_run)
            spans = tracer.spans
        else:
            for name in ("sweep_s", "largest_op_s", "cli_s"):
                samples[name], samples[name + ".wall"] = [], []

            def sweep() -> None:
                done = len(runner.op_times.get(wl.largest, ()))
                if wl.speed_corrected:
                    wall, factor = calibrated(lambda: _timed_pass(wl, runner))
                else:
                    wall, factor = _timed_pass(wl, runner), 1.0
                ops = runner.op_times.get(wl.largest, [])[done:]
                for name, walls in (("sweep_s", [wall]), ("largest_op_s", ops)):
                    samples[name + ".wall"].extend(walls)
                    samples[name].extend(w * factor for w in walls)

            def cli_s_rep() -> None:
                seconds, wall = cli_rep(commands, runner, run_cli)
                samples["cli_s"].append(seconds)
                samples["cli_s.wall"].append(wall)

            share_time(deadline, sweep, cli_s_rep, MIN_CLI_REPS)
            for cmd in wl.cli_refusals():
                rc, out, _, _ = run_cli(cmd.argv)
                runner.cli_check(cmd, rc, out)
            metrics = {name: statistics.median(samples[name]) for name in
                       ("setup_s", "sweep_s", "largest_op_s", "cli_s")
                       if samples[name]}
            metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                                      .ru_maxrss / 1024)
            metrics["ok_ratio"] = 1 - len(runner.failures) / runner.attempted
            spans = []
    return Result(wl.name, trace, runner.attempted, runner.failures, metrics,
                  samples, environment(wl, seed, runner, crosscheck), spans)


def summarize(xs: List[float]) -> str:
    """Median plus the highest percentile with at least ten samples beyond it."""
    xs = sorted(xs)
    n = len(xs)
    text = f"median {statistics.median(xs):.6g}"
    for p in (99.9, 99, 95, 90, 75):
        if n * (100 - p) / 100 >= 10:
            text += f", p{p:g} {xs[ceil(p / 100 * n) - 1]:.6g}"
            break
    return text + f" (n={n})"
