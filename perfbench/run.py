"""End-to-end and per-layer benchmark of the npivlab command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ./src.

Load: one closed-loop client. Each operation is a fresh Python process that
runs ``npivlab.cli.main([cmd, "--config", CFG, "--out", CSV])`` as the console
script does, so a user's interpreter start and import are in every operation
and nothing cached in one process helps the next. The child inherits the
environment unchanged: the benchmark sets no BLAS or pool thread variable.

With --trace 0 the operations run untraced and the end-to-end metrics are
reported. With --trace 1 untraced and traced operations alternate; the traced
ones wrap the package's functions from outside (tracer.py) and give the
per-layer metrics, and the untraced ones give the tracing overhead and the
CSV bytes the traced ones must reproduce.

Every operation's output is checked (checks.py); an operation that fails a
check counts in ``failed``. The last line of standard output is one JSON
object with keys correct, attempted, failed and metrics; the lines before it
describe the environment and every metric for a reader.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import checks

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
CHILD_TIMEOUT_S = 100.0
TAIL_BEYOND = 10


@dataclass(frozen=True)
class Workload:
    command: str
    config: dict
    # The seed commit's active-set QP stops without convergence on 5 of the 9
    # constrained solves of compare_n512; the rows say so honestly and the
    # digest pins them, so that workload does not count them as failures.
    require_converged: bool = True
    seeded_digest: bool = False


WORKLOADS = {
    # function_space does most of the work; no estimator, no factorization.
    "demo": Workload(
        "demo",
        {
            "experiment": "illposedness_demo",
            "quadrature_size": 128,
            "inspection_size": 1001,
            "family": "monotone",
            "n_max": 100,
            "epsilon": 0.1,
        },
    ),
    # The default table: 128x128 SVDs and resampling share the time.
    "compare": Workload(
        "compare",
        {
            "experiment": "estimator_comparison",
            "quadrature_size": 128,
            "z_size": 128,
            "lambdas": [1e-4],
            "constraints": ["monotone_nondecreasing"],
        },
    ),
    # LAPACK at N = 512, and the only workload on which the QP iterates.
    "compare_n512": Workload(
        "compare",
        {
            "experiment": "estimator_comparison",
            "quadrature_size": 512,
            "z_size": 512,
            "lambdas": [1e-6, 1e-4, 1e-2],
            "constraints": ["monotone_nondecreasing", "convex"],
        },
        require_converged=False,
    ),
    # Sampled plug-in replications in the thread pool; the only seeded table.
    "montecarlo": Workload(
        "montecarlo",
        {
            "experiment": "montecarlo",
            "replications": 20,
            "sample_size": 10000,
            "lambdas": [1e-4],
        },
        seeded_digest=True,
    ),
}

END_TO_END = (
    ("wall_s", "s"),
    ("wall_s_tail", "s"),
    ("run_s", "s"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
)

# (layer function, report calls, report self time)
TRACED_FUNCTIONS = (
    ("function_space.resample_matrix", True, True),
    ("function_space.check_shape", True, True),
    ("function_space.differentiation_matrix", True, True),
    ("function_space.sobolev_norm", True, True),
    ("function_space.make_grid", True, True),
    ("function_space.linalg_eigvalsh", True, True),
    ("counterexamples.psi", True, True),
    ("counterexamples.perturb", True, True),
    ("dgp.make_dgp", False, True),
    ("dgp.sample", True, True),
    ("operators.discretize", True, True),
    ("operators.apply", True, True),
    ("operators.weighted_matrix", True, True),
    ("operators.q_infinity", True, False),
    ("estimators.naive_estimate", True, True),
    ("estimators.tir_estimate", True, True),
    ("estimators.constrained_estimate", True, True),
    ("estimators.sampled_plugin", True, True),
    ("estimators.linalg_svd", True, True),
    ("estimators.linalg_eigvalsh", True, True),
    ("estimators.linalg_solve", True, True),
    ("estimators.nnls", True, True),
    ("estimators.linalg_qr", True, False),
    ("estimators.linalg_lstsq", True, False),
    ("harness.run_experiment", False, True),
    ("harness.emit_csv", True, True),
    ("harness.load_config", False, True),
)
CONVERGED = "estimators.constrained_estimate"
DEGENERATE = ("estimators.sampled_plugin", "DegenerateSampleError")


def _per_layer_units() -> dict:
    units = {}
    for name, calls, self_time in TRACED_FUNCTIONS:
        if calls:
            units[f"{name}.calls"] = "count"
        if self_time:
            units[f"{name}.self_s"] = "s"
    units[f"{CONVERGED}.converged_frac"] = "ratio"
    units[f"{DEGENERATE[0]}.degenerate_frac"] = "ratio"
    units["harness.pool_parallelism"] = "ratio"
    units["cli.setup.numpy_import_s"] = "s"
    units["cli.setup.scipy_import_s"] = "s"
    units["cli.setup.npivlab_import_self_s"] = "s"
    units["cli.trace_overhead"] = "ratio"
    return units


PER_LAYER = _per_layer_units()


class SetupError(RuntimeError):
    """The benchmark cannot measure anything in this checkout."""


@dataclass
class Operation:
    """One child process: its timings, its report, and what failed."""

    wall_s: float
    setup_s: float
    run_s: float
    cpu_s: float
    peak_rss_mb: float
    report: dict
    problems: list = field(default_factory=list)
    digest: str | None = None


def _spawn(argv, stderr_path, env=None):
    """Run a child to completion; return (wall_s, exit code, rusage, spawn time)."""
    with open(stderr_path, "wb") as err:
        spawned_at = time.monotonic()
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=err, env=env)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.monotonic() - spawned_at
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage, spawned_at


def _last_line(path) -> str:
    with open(path, encoding="utf-8", errors="replace") as handle:
        lines = [line.strip() for line in handle if line.strip()]
    return lines[-1] if lines else ""


class Bench:
    def __init__(self, name: str, seed: int, work: str):
        self.name = name
        self.workload = WORKLOADS[name]
        self.work = work
        self.config = dict(self.workload.config, seed=seed)
        self.config_path = os.path.join(work, "config.json")
        with open(self.config_path, "w", encoding="utf-8") as handle:
            json.dump(self.config, handle)
        self.seed = seed
        self.digest = None

    def operate(self, trace: bool = False, env=None, check: bool = True) -> Operation:
        out = os.path.join(self.work, "traced.csv" if trace else "out.csv")
        report_path = os.path.join(self.work, "report.json")
        for path in (out, report_path):
            if os.path.exists(path):
                os.remove(path)
        argv = [sys.executable, CHILD, report_path, SRC]
        argv += ["--trace"] if trace else []
        argv += ["--", self.workload.command, "--config", self.config_path, "--out", out]
        wall, code, usage, spawned_at = _spawn(argv, os.path.join(self.work, "stderr"), env)
        try:
            with open(report_path, encoding="utf-8") as handle:
                report = json.load(handle)
        except (OSError, ValueError):
            report = {}
        op = Operation(
            wall_s=wall,
            setup_s=report.get("imported_at", spawned_at) - spawned_at,
            run_s=report.get("run_s", 0.0),
            cpu_s=usage.ru_utime + usage.ru_stime,
            peak_rss_mb=usage.ru_maxrss / 1024.0,
            report=report,
        )
        if code != 0 or "run_s" not in report:
            op.problems.append(
                f"exit code {code}: {_last_line(os.path.join(self.work, 'stderr'))}"
            )
        elif check:
            op.problems += self.check(out)
            if not op.problems:
                op.digest = checks.data_digest(out)
        if trace and report.get("unrestored"):
            op.problems.append(f"tracer left wrappers on {report['unrestored']}")
        return op

    def check(self, csv_path) -> list:
        """Reasons the CSV an operation wrote is wrong; empty if it is right."""
        return checks.check_output(
            csv_path, self.config, self.digest, self.workload.require_converged
        )

    def reference_digest(self) -> str:
        """The recorded digest, or for an unrecorded seed a serial run's."""
        with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as handle:
            entry = json.load(handle)["digests"][self.name]
        if not self.workload.seeded_digest:
            return entry
        if str(self.seed) in entry:
            return entry[str(self.seed)]
        env = dict(os.environ, NPIVLAB_THREADS="1")
        op = self.operate(env=env, check=False)
        if op.problems:
            raise SetupError(f"serial reference run failed: {op.problems}")
        return checks.data_digest(os.path.join(self.work, "out.csv"))


def _median(values):
    return statistics.median(values) if values else 0.0


def _trimmed_mean(values):
    """Mean of the values without the lowest and the highest tenth of them.

    On a shared host the CPU runs faster for stretches of seconds to a
    minute, so operation times are bimodal. A run's median jumps between the
    two modes as the share of fast operations crosses one half; the mean
    moves in proportion to that share, and trimming keeps a few stalled
    operations from moving it.
    """
    ordered = sorted(values)
    cut = len(ordered) // 10
    return statistics.fmean(ordered[cut:len(ordered) - cut]) if ordered else 0.0


def _tail(values):
    """The highest order statistic with TAIL_BEYOND values above it.

    With fewer than 2 * TAIL_BEYOND + 1 values, as many values as lie above
    the median are required instead, so the tail is never below the median.
    Returns (value, percentile, number beyond).
    """
    ordered = sorted(values)
    n = len(ordered)
    beyond = min(TAIL_BEYOND, (n - 1) // 2)
    index = n - 1 - beyond
    return ordered[index], 100.0 * (index + 1) / n, beyond


def _proc_stat_cpu():
    """(steal ticks, total ticks) summed over all CPUs, from /proc/stat."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()[1:]
    except OSError:
        return None
    ticks = [int(x) for x in fields]
    return ticks[7] if len(ticks) > 7 else 0, sum(ticks[:8])


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _probe(work: str) -> dict:
    report_path = os.path.join(work, "probe.json")
    stderr = os.path.join(work, "stderr")
    _, code, _, _ = _spawn([sys.executable, CHILD, report_path, SRC, "--probe"], stderr)
    if code != 0:
        raise SetupError(f"cannot import npivlab from {SRC}: {_last_line(stderr)}")
    with open(report_path, encoding="utf-8") as handle:
        return json.load(handle)


_IMPORTTIME = re.compile(r"import time:\s*(\d+)\s*\|\s*(\d+)\s*\|(\s*)(\S+)")


def import_breakdown(work: str) -> dict:
    """numpy, scipy and npivlab's own import time from ``-X importtime``.

    numpy and scipy are charged the cumulative time of their outermost
    entries (including what they import); npivlab its modules' self time.
    """
    stderr = os.path.join(work, "importtime")
    argv = [sys.executable, "-X", "importtime", "-c", "import npivlab.cli"]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p
    ))
    _, code, _, _ = _spawn(argv, stderr, env)
    if code != 0:
        raise SetupError(f"-X importtime failed: {_last_line(stderr)}")
    entries = []
    with open(stderr, encoding="utf-8", errors="replace") as handle:
        for line in handle:
            match = _IMPORTTIME.match(line)
            if match:
                self_us, cum_us, indent, name = match.groups()
                entries.append((len(indent), name, int(self_us), int(cum_us)))
    totals = {"numpy": 0, "scipy": 0, "npivlab": 0}
    ancestors = []
    # Entries are printed children first; reversed, each parent precedes its
    # children, so the stack holds the open ancestors of every entry.
    for depth, name, self_us, cum_us in reversed(entries):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        top = name.split(".")[0]
        if top == "npivlab":
            totals["npivlab"] += self_us
        elif top in totals and all(a[1] != top for a in ancestors):
            totals[top] += cum_us
        ancestors.append((depth, top))
    return {
        "cli.setup.numpy_import_s": totals["numpy"] / 1e6,
        "cli.setup.scipy_import_s": totals["scipy"] / 1e6,
        "cli.setup.npivlab_import_self_s": totals["npivlab"] / 1e6,
    }


def end_to_end(ops) -> tuple:
    good = [op for op in ops if not op.problems]
    walls = [op.wall_s for op in good]
    tail, percentile, beyond = _tail(walls) if walls else (0.0, 0.0, 0)
    metrics = {
        "wall_s": _trimmed_mean(walls),
        "wall_s_tail": tail,
        "run_s": _trimmed_mean([op.run_s for op in good]),
        "setup_s": _median([op.setup_s for op in good]),
        "cpu_s": _trimmed_mean([op.cpu_s for op in good]),
        "peak_rss_mb": _median([op.peak_rss_mb for op in good]),
    }
    note = f"wall_s_tail is p{percentile:.0f} of {len(walls)} operations ({beyond} beyond it)"
    return metrics, note


def per_layer(traced, untraced, imports) -> tuple:
    """Per-layer metrics from the traced operations; also any mismatch found."""
    problems = []
    traces = [op.report["trace"] for op in traced if not op.problems]
    if not traces:
        return {name: 0.0 for name in PER_LAYER}, ["no traced operation passed"]
    calls = traces[0]["calls"]
    for other in traces[1:]:
        if other["calls"] != calls:
            problems.append("call counts differ between traced operations")
    metrics = {}
    for name, want_calls, want_self in TRACED_FUNCTIONS:
        if want_calls:
            metrics[f"{name}.calls"] = calls.get(name, 0)
        if want_self:
            metrics[f"{name}.self_s"] = _median([t["self_s"].get(name, 0.0) for t in traces])
    solves = calls.get(CONVERGED, 0)
    converged = traces[0]["converged"].get(CONVERGED, 0)
    metrics[f"{CONVERGED}.converged_frac"] = converged / solves if solves else 1.0
    plugins = calls.get(DEGENERATE[0], 0)
    degenerate = traces[0]["raised"].get(".".join(DEGENERATE), 0)
    metrics[f"{DEGENERATE[0]}.degenerate_frac"] = degenerate / plugins if plugins else 0.0
    metrics["harness.pool_parallelism"] = _median([
        t["busy_s"] / t["total_s"]["harness.run_experiment"]
        for t in traces
        if t["total_s"].get("harness.run_experiment")
    ])
    for key in imports[0] if imports else ():
        metrics[key] = _median([entry[key] for entry in imports])
    base = _median([op.run_s for op in untraced if not op.problems])
    metrics["cli.trace_overhead"] = (
        _median([op.run_s for op in traced if not op.problems]) / base if base else 0.0
    )
    return metrics, problems


def measure(name: str, seed: int, seconds: float, trace: bool, work: str) -> dict:
    stat_start = _proc_stat_cpu()
    load_start = os.getloadavg()
    env = _probe(work)
    bench = Bench(name, seed, work)
    bench.digest = bench.reference_digest()
    # One checked but untimed operation first: the first process after idle
    # or after another workload runs at a speed the rest of the run does not.
    warm_up = bench.operate()

    untraced, traced, imports, steps = [], [], [], []
    now = time.monotonic()
    deadline = now + seconds
    # An operation is started only if a typical step still ends before the
    # deadline, so a run lasts about --seconds whatever one operation costs.
    while (
        not untraced
        or (trace and len(traced) < 2)
        or now + _median(steps) <= deadline
    ):
        if trace and len(traced) < len(untraced):
            op = bench.operate(trace=True)
            traced.append(op)
            if not op.problems and op.digest != untraced[0].digest:
                op.problems.append("traced CSV data rows differ from untraced")
            imports.append(import_breakdown(work))
        else:
            untraced.append(bench.operate())
        steps.append(time.monotonic() - now)
        now = time.monotonic()

    ops = [warm_up] + untraced + traced
    attempted = len(ops)
    failed = sum(1 for op in ops if op.problems)
    problems = [f"{name}: {p}" for op in ops for p in op.problems]
    if trace:
        metrics, mismatch = per_layer(traced, untraced, imports)
        units = PER_LAYER
        note = "per-layer metrics: median over traced operations, calls from the first"
        problems += mismatch
    else:
        metrics, note = end_to_end(untraced)
        units = dict(END_TO_END)
    stat_end = _proc_stat_cpu()
    threads_seen = sorted({
        json.dumps(op.report.get("threads"), sort_keys=True) for op in ops
    })
    environment = {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": env.get("python"),
        "numpy": env.get("numpy"),
        "scipy": env.get("scipy"),
        "blas": f"{env.get('blas_name')} {env.get('blas_version')}",
        "child_threads": [json.loads(t) for t in threads_seen],
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "steal_ticks": (stat_end[0] - stat_start[0]) if stat_start and stat_end else None,
        "total_ticks": (stat_end[1] - stat_start[1]) if stat_start and stat_end else None,
    }
    return {
        "environment": environment,
        "note": note,
        "problems": problems,
        "result": {
            "correct": not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                key: {"value": metrics[key], "unit": unit} for key, unit in units.items()
            },
        },
    }


@contextlib.contextmanager
def workspace():
    """A scratch directory inside the checkout, removed afterwards."""
    work = os.path.join(WORK_ROOT, str(os.getpid()))
    os.makedirs(work, exist_ok=True)
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind as on an interrupt: the running child is killed and
    # reaped, and the scratch directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(SRC, "npivlab", "cli.py")):
        print(f"error: no npivlab sources under {SRC}", file=sys.stderr)
        return 2
    try:
        with workspace() as work:
            outcome = measure(args.workload, args.seed, args.seconds, bool(args.trace), work)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    result = outcome["result"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for key, value in outcome["environment"].items():
        print(f"  env {key}: {value}")
    for problem in outcome["problems"]:
        print(f"  FAILED {problem}")
    print(f"  {outcome['note']}")
    failed_frac = result["failed"] / result["attempted"]
    print(f"  failed_frac: {failed_frac:.4f} ({result['failed']} of {result['attempted']})")
    for key, metric in result["metrics"].items():
        print(f"  {key}: {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
