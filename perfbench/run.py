"""Benchmark of the backflow harness, driven through its CLI from outside.

    python3 perfbench/run.py --workload {demo,demo-w2,image,oracle,all} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from ``src``.
Workload inputs are generated from ``--seed`` (see ``workloads.py``) into a
scratch directory under ``.perfbench_work/`` that is removed afterwards.

Every invocation runs the CLI through ``child.py run``, which marks the
moment of the command's first operation, so that one invocation gives both
its wall time and its set-up time.  A run starts with one untimed
``--setup-only`` invocation (warm-up: byte-compiles the sources, fills the
page cache).  ``--trace 0`` then runs the workload's command as often as
fits in ``--seconds`` (at least once), adds ``--setup-only`` invocations
until there are ``SETUP_SAMPLES`` set-up times, and reports medians of the
end-to-end metrics.  ``--trace 1`` runs the command once untraced and once
with every layer wrapped, and reports per-layer metrics (``--seconds`` is
not used).  Every invocation's outputs are checked, and within one run
every invocation must produce the same digest.

BLAS threads are not pinned, except on ``image`` (see ``workloads.py``): the
program runs with the caller's environment, which is printed (with the rest
of the machine context) to stderr, plus the workload's ``env``.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Exit code: 0 when every check passed, 1 when a
check failed, 2 when the program cannot be found or the arguments are wrong.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import check
import workloads

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 5
INVOCATION_TIMEOUT_S = 150.0
RSS_SAMPLE_S = 0.1
PAGE_BYTES = os.sysconf("SC_PAGE_SIZE")
MARK_FILE = "mark.txt"

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}
TRACE_UNITS = {"trace.wall_s": "s", "trace.overhead_s": "s", "trace.unaccounted_s": "s"}


def machine_context() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_build = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_build,
        "threads_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
    }


def _group_pids(pgid: int):
    """Live (non-zombie) processes of process group ``pgid``."""
    for entry in os.scandir("/proc"):
        if not entry.name.isdigit():
            continue
        try:
            with open(f"/proc/{entry.name}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue  # the process ended while being read
        if int(fields[2]) == pgid and fields[0] != "Z":
            yield entry.name


def _group_rss_bytes(pgid: int) -> int:
    total = 0
    for pid in _group_pids(pgid):
        try:
            with open(f"/proc/{pid}/statm") as f:
                total += int(f.read().split()[1]) * PAGE_BYTES
        except OSError:
            continue
    return total


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _reap_group(pgid: int) -> None:
    """Kill anything an invocation left running in its process group."""
    _kill_group(pgid)
    deadline = time.monotonic() + 10.0
    while any(True for _ in _group_pids(pgid)) and time.monotonic() < deadline:
        time.sleep(0.01)


@dataclass
class Invocation:
    wall_s: float
    setup_s: float | None  # launch to first operation; None if it was never reached
    peak_rss_mb: float
    exit_code: int
    stdout: str


def invoke(argv: list[str], cwd: Path, env: dict) -> Invocation:
    """Run ``argv`` in its own process group; time it and sample the group's RSS.

    Times are read from the monotonic clock, which ``child.py run`` also
    writes to ``cwd / "mark.txt"`` at the command's first operation.  Peak
    RSS is the larger of the sampled group total (pool workers included) and
    the kernel's peak for the largest single process.
    """
    mark = cwd / MARK_FILE
    mark.unlink(missing_ok=True)
    with open(cwd / "stdout.txt", "w") as out, open(cwd / "stderr.txt", "w") as err:
        start = time.monotonic()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err, start_new_session=True)
        done = threading.Event()
        peak = [0]

        def sample():
            while not done.wait(RSS_SAMPLE_S):
                peak[0] = max(peak[0], _group_rss_bytes(proc.pid))
                if time.monotonic() - start > INVOCATION_TIMEOUT_S:
                    _kill_group(proc.pid)

        sampler = threading.Thread(target=sample, daemon=True)
        sampler.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.monotonic() - start
        except BaseException:
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            done.set()
            sampler.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    _reap_group(proc.pid)
    peak_bytes = max(peak[0], usage.ru_maxrss * 1024)
    setup = float(mark.read_text()) - start if mark.exists() else None
    return Invocation(wall, setup, peak_bytes / 2**20, proc.returncode, (cwd / "stdout.txt").read_text())


@dataclass
class Tally:
    """Operations attempted and failed, and the problems found, over a run."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    digests: set = field(default_factory=set)

    def add(self, wl: workloads.Workload, inv: Invocation, work: Path) -> check.Outcome:
        if wl.is_oracle:
            outcome = check.check_oracle(inv.stdout, inv.exit_code)
        else:
            outcome = check.check_sweep(work / "out", inv.exit_code)
        if outcome.digest is not None:
            self.digests.add(outcome.digest)
            if len(self.digests) > 1:
                outcome.problems.append("output differs from an earlier invocation of this run")
        attempted = outcome.ops or wl.planned_ops
        self.attempted += attempted
        if not outcome.ok:
            self.failed += attempted
            self.problems += outcome.problems
        return outcome

    @property
    def correct(self) -> bool:
        return not self.problems


def _fmt(values) -> str:
    return "[" + ", ".join(f"{v:.3f}" for v in values) + "]"


def run_argv(wl: workloads.Workload, setup_only: bool = False) -> list[str]:
    flag = ["--setup-only"] if setup_only else []
    return [sys.executable, str(HERE / "child.py"), "run", MARK_FILE, *flag, *wl.cli_args]


def setup_only(wl: workloads.Workload, work: Path, env: dict, tally: Tally) -> float | None:
    """One invocation that exits at the command's first operation; its set-up time."""
    inv = invoke(run_argv(wl, setup_only=True), work, env)
    if inv.exit_code != 0 or inv.setup_s is None:
        tally.problems.append(f"set-up-only invocation exited {inv.exit_code} "
                              f"{'after' if inv.setup_s is not None else 'before'} its first operation")
    return inv.setup_s


def run_command(wl: workloads.Workload, work: Path, env: dict, tally: Tally) -> tuple[Invocation, int]:
    """One full invocation of the workload's command, checked; returns it and its operations."""
    shutil.rmtree(work / "out", ignore_errors=True)
    inv = invoke(run_argv(wl), work, env)
    if inv.setup_s is None:
        tally.problems.append("the command never reached its first operation")
    return inv, tally.add(wl, inv, work).ops


def measure(wl: workloads.Workload, work: Path, env: dict, seconds: float, tally: Tally) -> dict:
    """Invoke the command as long as another invocation of average length
    still fits in ``seconds`` (at least once), then add set-up-only
    invocations up to ``SETUP_SAMPLES`` set-up times.  Each invocation's rate
    is its operations over its own time after set-up."""
    setups, walls, rates, peaks = [], [], [], []
    start = time.monotonic()
    while True:
        inv, ops = run_command(wl, work, env, tally)
        walls.append(inv.wall_s)
        peaks.append(inv.peak_rss_mb)
        if inv.setup_s is not None:
            setups.append(inv.setup_s)
            rates.append(ops / max(inv.wall_s - inv.setup_s, 1e-9))
        elapsed = time.monotonic() - start
        if elapsed + elapsed / len(walls) > seconds:
            break
    while len(setups) < SETUP_SAMPLES:
        setup = setup_only(wl, work, env, tally)
        if setup is None:
            break
        setups.append(setup)
    print(f"{wl.name}: set-up {_fmt(setups)} s; invocations {_fmt(walls)} s", file=sys.stderr)

    return {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups or [float("nan")]),
        "ops_per_s": statistics.median(rates or [float("nan")]),
        "peak_rss_mb": statistics.median(peaks),
    }


def traced(wl: workloads.Workload, work: Path, env: dict, tally: Tally) -> dict:
    plain, _ = run_command(wl, work, env, tally)

    shutil.rmtree(work / "out", ignore_errors=True)
    trace_path = work / "trace.json"
    argv = [sys.executable, str(HERE / "child.py"), "trace", str(trace_path), *wl.cli_args]
    inv = invoke(argv, work, env)
    tally.add(wl, inv, work)
    trace = json.loads(trace_path.read_text())
    if trace["missing"]:
        print(f"note: layers not found, reported as 0: {trace['missing']}", file=sys.stderr)
    if trace["metrics"]["protocol.pool_tasks"]:
        print("note: pool workers are not traced; layer numbers are the parent process's only",
              file=sys.stderr)
    metrics = dict(trace["metrics"])
    metrics["trace.wall_s"] = inv.wall_s
    metrics["trace.overhead_s"] = inv.wall_s - plain.wall_s
    metrics["trace.unaccounted_s"] = inv.wall_s - trace["self_total_s"]
    return metrics


def per_layer_units() -> dict:
    import tracer

    return {**tracer.metric_units(), **TRACE_UNITS}


def recorded_digest(name: str) -> str | None:
    path = HERE / "baseline.json"
    if not path.exists():
        return None
    return json.loads(path.read_text()).get("digests_seed0", {}).get(name)


def run_workload(name: str, seed: int, seconds: float, trace: bool, root: Path, env: dict) -> dict:
    work = root / ".perfbench_work" / f"{name}-seed{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        wl = workloads.prepare(name, seed, work)
        if wl.env:
            print(f"{name}: set for the program: {json.dumps(wl.env)}", file=sys.stderr)
        env = {**env, **wl.env}
        tally = Tally()
        setup_only(wl, work, env, tally)  # warm-up, not measured
        values = traced(wl, work, env, tally) if trace else measure(wl, work, env, seconds, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run is using it
    units = per_layer_units() if trace else END_TO_END_UNITS

    if len(tally.digests) == 1:
        (digest,) = tally.digests
        recorded = recorded_digest(name) if seed == 0 else None
        note = ""
        if recorded is not None:
            note = " (matches the recorded seed-0 digest)" if digest == recorded else (
                f" (DIFFERS from the recorded seed-0 digest {recorded})")
        print(f"{name}: output digest {digest}{note}", file=sys.stderr)
    for problem in tally.problems:
        print(f"{name}: check failed: {problem}", file=sys.stderr)
    for metric, value in values.items():
        print(f"{name:8s} {metric:45s} {value:>14.6g} {units[metric]}")
    return {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {metric: {"value": value, "unit": units[metric]} for metric, value in values.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    root = Path.cwd()
    src = root / "src"
    if not (src / "backflow" / "__init__.py").is_file():
        print(f"error: {src / 'backflow'} not found; run from the root of a backflow checkout",
              file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    print(f"context: {json.dumps(machine_context())}", file=sys.stderr)

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace), root, env) for name in names}
    if len(results) == 1:
        (result,) = results.values()
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}/{metric}": value for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
