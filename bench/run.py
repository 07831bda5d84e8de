"""Benchmark for bellkit: times violation searches and CLI invocations to
a verified answer.

    python3 bench/run.py --workload chsh_families --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; bellkit is imported from src/.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  The line before it
records the environment and the run's details.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# BLAS threads are pinned to 1, in this process and its children, so
# that the small dense products here do not contend for the cores.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

MIN_PASSES = 3
SETUP_REPEATS = 7
STARTUP_REPEATS = 3
TAIL_BEYOND = 10
CHILD_TIMEOUT_S = 120


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _child(argv: list) -> tuple:
    """(exit code, wall seconds) of one fresh interpreter.

    A timer thread kills a child that hangs, so the wait itself is a
    blocking waitpid: `Popen.wait(timeout)` polls instead, and would
    round every exit time up to its 50 ms poll interval."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=_child_env(),
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        code = proc.wait()
    finally:
        watchdog.cancel()
    return code, time.perf_counter() - t0


def _timed_child(argv: list) -> float:
    """Wall seconds of one fresh interpreter, which must exit 0."""
    code, dt = _child(argv)
    if code != 0:
        raise RuntimeError(f"set-up probe {argv} exited {code}")
    return dt


def setup_seconds(workload: str, seed: int, repeats: int) -> float:
    """Median wall time of a fresh interpreter that imports bellkit and
    builds the workload's inputs (for cli_batch: imports bellkit.cli)."""
    if workload == "cli_batch":
        code = "import bellkit.cli"
    else:
        code = (f"import sys; sys.path.insert(0, {str(BENCH)!r}); import workloads; "
                f"workloads.WORKLOADS[{workload!r}][0]({seed})")
    return statistics.median(_timed_child(["-c", code]) for _ in range(repeats))


def startup_seconds(repeats: int) -> float:
    """Median wall time of a fresh interpreter that only imports bellkit."""
    return statistics.median(_timed_child(["-c", "import bellkit"]) for _ in range(repeats))


# ---------------------------------------------------------------------------
# executing one task


def _strip_wall_time(obj):
    if isinstance(obj, dict):
        return {k: _strip_wall_time(v) for k, v in obj.items() if k != "wall_time_s"}
    if isinstance(obj, list):
        return [_strip_wall_time(v) for v in obj]
    return obj


def _checked(check, *output) -> str | None:
    try:
        return check(*output)
    except Exception as exc:  # output the oracle cannot read is a failed task
        return f"check raised {exc!r}"


def run_search(task):
    """(seconds, output without its timing fields, failure reason)."""
    t0 = time.perf_counter()
    try:
        report = task.call()
    except Exception as exc:  # a raising task is a failed task, not a crash
        return time.perf_counter() - t0, None, f"raised {exc!r}"
    dt = time.perf_counter() - t0
    return dt, _strip_wall_time(report.to_dict()), _checked(task.check, report)


def _cli_subprocess(argv: list) -> int:
    return _child(["-m", "bellkit.cli", *argv])[0]


def _cli_in_process(argv: list) -> int:
    from bellkit import cli

    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            return cli.run(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 1
        except Exception:  # what an uncaught exception exits with
            return 1


def run_cli(task, invoke):
    if task.out is not None and task.out.exists():
        task.out.unlink()
    t0 = time.perf_counter()
    code = invoke(task.argv)
    dt = time.perf_counter() - t0
    text = task.out.read_text() if task.out is not None and task.out.exists() else None
    canon = text
    if text is not None and task.out.suffix == ".json":
        with contextlib.suppress(ValueError):
            canon = json.dumps(_strip_wall_time(json.loads(text)), sort_keys=True)
    return dt, (code, canon), _checked(task.check, code, text)


# ---------------------------------------------------------------------------
# passes


class Ledger:
    """Per-task times and failures over the passes of one run."""

    def __init__(self, tasks):
        self.tasks = tasks
        self.first = [None] * len(tasks)
        self.attempted = 0
        self.failures = []  # (task index, reason)

    def run_pass(self, execute) -> list:
        times = []
        for i, task in enumerate(self.tasks):
            dt, canon, reason = execute(task)
            self.attempted += 1
            if reason is None and self.first[i] is not None and canon != self.first[i]:
                reason = "output differs from the run's first pass"
            if self.first[i] is None:
                self.first[i] = canon
            if reason is not None:
                self.failures.append((i, reason))
            times.append(dt)
        return times

    @property
    def unexpected(self) -> list:
        return [(i, r) for i, r in self.failures if self.tasks[i].known_failure is None]


def mean_task_times(times: list) -> list:
    """Each task's mean time over the passes recorded in `times`.

    The host's speed changes in phases of a second to a minute; a task's
    mean follows the mix smoothly, where its median or its minimum over
    a handful of passes jumps with the phases a run happened to catch."""
    return [statistics.fmean(t) for t in times]


def run_untraced(ledger: Ledger, execute, seconds: float) -> list:
    per_task = [[] for _ in ledger.tasks]
    start = time.perf_counter()
    last = 0.0
    passes = 0
    while passes < MIN_PASSES or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        for i, dt in enumerate(ledger.run_pass(execute)):
            per_task[i].append(dt)
        last = time.perf_counter() - t0
        passes += 1
    return per_task


def run_traced(ledger: Ledger, execute, seconds: float, tracer) -> tuple:
    """Alternate untraced and traced passes; returns the per-task times
    of each kind and the traced passes' per-layer snapshots."""
    plain = [[] for _ in ledger.tasks]
    traced = [[] for _ in ledger.tasks]
    snapshots = []
    start = time.perf_counter()
    last = 0.0
    pairs = 0
    while pairs < MIN_PASSES - 1 or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        for i, dt in enumerate(ledger.run_pass(execute)):
            plain[i].append(dt)
        with tracer.installed():
            tracer.reset()
            for i, dt in enumerate(ledger.run_pass(execute)):
                traced[i].append(dt)
            snapshots.append(tracer.snapshot())
        last = time.perf_counter() - t0
        pairs += 1
    return plain, traced, snapshots


# ---------------------------------------------------------------------------
# environment


def environment(args) -> dict:
    import numpy as np

    sha = None
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10,
                              env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
        if proc.returncode == 0:
            sha = proc.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    blas = None
    with contextlib.suppress(Exception):
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _per_layer(snapshots: list, setup_snapshot: dict | None) -> dict:
    metrics = {}
    for key in snapshots[0]:
        values = [s[key] for s in snapshots]
        if setup_snapshot is not None and key.startswith("states.construct."):
            values = [setup_snapshot[key]]
        value = statistics.median(values)
        if key.endswith(".self_s"):
            unit = "s"
        elif key == "search.evals_per_s":
            unit = "1/s"
        elif key == "cli.bytes_out":
            unit = "bytes"
        else:
            unit = "count"
            value = int(value)
        metrics[key] = _metric(value, unit)
    return metrics


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "bellkit" / "__init__.py").is_file():
        print(f"error: no bellkit sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))

    import workloads
    from spans import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    build_inputs, build_tasks = workloads.WORKLOADS[args.workload]
    is_cli = args.workload == "cli_batch"

    workdir = Path(tempfile.mkdtemp(prefix=".work-", dir=BENCH))
    try:
        env = environment(args)
        tracer = Tracer()
        setup_snapshot = None
        if args.trace and not is_cli:
            with tracer.installed():
                tracer.reset()
                inputs = build_inputs(args.seed)
                setup_snapshot = tracer.snapshot()
        else:
            inputs = build_inputs(args.seed)
        tasks = build_tasks(inputs, args.seed, workdir)
        if len(tasks) < 2 * TAIL_BEYOND:
            raise RuntimeError(f"{len(tasks)} tasks per pass; the tail needs {2 * TAIL_BEYOND}")
        if is_cli:
            execute = ((lambda t: run_cli(t, _cli_in_process)) if args.trace
                       else (lambda t: run_cli(t, _cli_subprocess)))
        else:
            execute = run_search
        ledger = Ledger(tasks)

        if args.trace:
            startup = startup_seconds(STARTUP_REPEATS)
            plain, traced, snapshots = run_traced(ledger, execute, args.seconds, tracer)
            metrics = _per_layer(snapshots, setup_snapshot)
            metrics["cli.startup_s"] = _metric(startup, "s")
            overhead = sum(mean_task_times(traced)) / sum(mean_task_times(plain)) - 1.0
            metrics["trace.overhead_frac"] = _metric(overhead, "ratio")
            passes = len(snapshots) * 2
        else:
            setup = setup_seconds(args.workload, args.seed, SETUP_REPEATS)
            per_task = run_untraced(ledger, execute, args.seconds)
            means = mean_task_times(per_task)
            samples = sorted(t for times in per_task for t in times)
            beyond = TAIL_BEYOND * len(samples) // (len(tasks) * MIN_PASSES)
            metrics = {
                "wall_s": _metric(sum(means), "s"),
                "task_p50_s": _metric(statistics.median(means), "s"),
                "task_tail_s": _metric(samples[len(samples) - 1 - beyond], "s"),
                "setup_s": _metric(setup, "s"),
                "peak_rss_mb": _metric(peak_rss_mb(children=is_cli), "MB"),
                "pass_frac": _metric(1.0 - len(ledger.failures) / ledger.attempted, "ratio"),
            }
            passes = len(per_task[0])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    known = sorted({tasks[i].label for i, _ in ledger.failures if tasks[i].known_failure})
    details = {
        "environment": env,
        "passes": passes,
        "tasks_per_pass": len(tasks),
        "task_tail": {"quantile": 1.0 - TAIL_BEYOND / (len(tasks) * MIN_PASSES),
                      "samples": passes * len(tasks)},
        "known_failures": known,
        "unexpected_failures": [f"{tasks[i].label}: {r}" for i, r in ledger.unexpected][:20],
    }
    print(json.dumps(details, sort_keys=True))
    print(json.dumps({"correct": not ledger.unexpected, "attempted": ledger.attempted,
                      "failed": len(ledger.failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
