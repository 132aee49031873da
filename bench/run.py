"""Benchmark of the mahlerq CLI: end-to-end runs and a traced per-layer run.

    python3 bench/run.py --workload verify-deep --seed 1 --seconds 30 --trace 0

One closed-loop client runs the real CLI (``python -S -m mahlerq``) as
child processes, one at a time, started by a small launcher process.  It
makes one full pass over the workload's operations and then keeps going,
pass after pass, until ``--seconds`` have elapsed; the operation in flight
is always finished.  Each operation is timed between two calibrations and
reported at a reference machine speed (see ``calibrate``).  Every output is
checked against the sha256 digests in ``goldens.json``.  The seed only
shuffles the order of the operations and picks psi values from a pinned
grid, so every seed has golden outputs.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one pass
in process, each operation untraced and then traced (see ``layers.py``),
and prints the per-layer metrics, the kernel micro-table and the tracing
overhead; it does a fixed amount of work and ignores ``--seconds``.  The
last line of standard output is the result object; the line before it
holds the stamp of machine and code and the per-operation samples.  See
README.md in this directory for the metric -> layer -> workload map.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout, suppress
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GOLDENS = BENCH_DIR / "goldens.json"
WORK_ROOT = ROOT / ".bench_work"

SETUP_REPEATS = 5
WARM_REPEATS = 1
BATCH_JOBS = 2  # the machine this was tuned on has two cores
# Children run without the site module: mahlerq needs only the standard
# library, and the .pth hooks of a host's site-packages would add their own
# import time to every operation.
PYTHON = (sys.executable, "-S")
# The calibration's typical time on the machine the benchmark was tuned on;
# times are reported at that machine's speed (see ``calibrate``).
CALIBRATION_S = 0.25
CALIBRATION_ENTRIES = 60000

# A few models at the highest orders that a 30 s run still repeats five
# times or more: time goes to series compose/revert/Lagrange and to the u/v
# routes; little CLI work.
VERIFY_OPS = (("3,3,3", 28), ("2,3,6", 24), ("4,4,4,4", 20))
# Fourteen models at low order through the process pool and the cache.
BATCH_N, BATCH_ORDER = 4, 10
# Numeric Mahler measure at high order just outside the disk of
# convergence (psi_0 = 1, 0.458, 0.707, 1); no series multiply at all.
MEASURE_OPS = {
    ("3,3,3", 800): ("81/80", "83/80", "87/80", "89/80"),
    ("2,3,6", 800): ("37/80", "39/80", "41/80", "43/80"),
    ("2,4,4", 800): ("57/80", "59/80", "61/80", "63/80"),
    ("4,4,4,4", 800): ("81/80", "83/80", "87/80", "89/80"),
}
WORKLOADS = ("verify-deep", "batch-n4", "measure-sweep")

END_TO_END_UNITS = {
    "setup_s": "s",
    "success_rate": "ratio",
    "pass_s": "s",
    "slowest_op_s": "s",
    "fastest_op_s": "s",
    "max_rss_mb": "MB",
}


class BenchError(RuntimeError):
    """The checkout cannot be benchmarked (missing sources, failed set-up)."""


@dataclass(frozen=True)
class Op:
    """One CLI invocation and how its output is checked."""

    argv: tuple[str, ...]
    golden: str  # key into goldens["stdout"], or into goldens["batch"] for a batch
    kind: str  # operations of one kind do the same work; timings are compared per kind
    cache: Path | None = None  # batch cache directory, checked after the call
    cold: bool = False  # empty the cache directory first (untimed)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def cache_digests(cache: Path) -> dict[str, str]:
    """sha256 of each batch cache file, keyed by model (k-vector)."""
    return {
        path.name.split("__", 1)[0].replace("-", ","): sha256(path.read_bytes())
        for path in cache.glob("*.json")
    }


def verify_argv(model: str, order: int) -> tuple[str, ...]:
    return ("verify", "--model", model, "--order", str(order), "--format", "json")


def measure_argv(model: str, psi: str, order: int) -> tuple[str, ...]:
    return ("measure", "--model", model, "--psi", psi, "--order", str(order))


def batch_key(n: int, order: int) -> str:
    return f"batch --n {n} --order {order}"


def mahlerq_command(argv) -> tuple[str, ...]:
    return PYTHON + ("-m", "mahlerq") + tuple(argv)


def child_env(work: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONPYCACHEPREFIX"] = str(work / "pyc")
    env["MAHLER_CACHE"] = str(work / "cache")
    return env


def run_child(argv, env, stderr_path: Path):
    """Run one untimed child process; returns (exit code, stdout)."""
    with open(stderr_path, "wb") as err:
        proc = subprocess.Popen(
            list(argv),
            stdout=subprocess.PIPE,
            stderr=err,
            env=env,
            cwd=ROOT,
            start_new_session=True,
        )
        try:
            out = proc.stdout.read()
            proc.wait()
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        finally:
            proc.stdout.close()
    return proc.returncode, out


# A child's peak RSS as os.wait4 reports it is at least the peak RSS of the
# process that started it (Linux carries it over fork and exec), and this
# client's own peak exceeds that of a mahlerq child.  Timed children are
# therefore started by this small launcher, whose own peak is about 10 MB.
# It reads one JSON request a line, [argv, stdout path, stderr path], and
# answers [exit code, wall s, peak RSS KiB].
LAUNCHER = """\
import json, os, sys, time
for line in sys.stdin:
    argv, out_path, err_path = json.loads(line)
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=[
            (os.POSIX_SPAWN_DUP2, out.fileno(), 1),
            (os.POSIX_SPAWN_DUP2, err.fileno(), 2),
        ])
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - start
    print(json.dumps([os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss]), flush=True)
"""


class Launcher:
    """Runs timed children through LAUNCHER; leaving it stops every process."""

    def __init__(self, work: Path):
        self.work = work
        self.proc = subprocess.Popen(
            PYTHON + ("-c", LAUNCHER),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=child_env(work),
            cwd=ROOT,
            start_new_session=True,
            text=True,
        )

    def run(self, argv, stderr_path: Path):
        """Returns (exit code, stdout, wall s, peak RSS MB) of one child."""
        out_path = self.work / "op.out"
        self.proc.stdin.write(json.dumps([list(argv), str(out_path), str(stderr_path)]) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise BenchError(f"the launcher exited with code {self.proc.wait()}")
        code, wall, peak_kib = json.loads(reply)
        return code, out_path.read_bytes(), wall, peak_kib / 1024.0

    def __enter__(self):
        return self

    def __exit__(self, exc_type, *_):
        if exc_type is not None:
            # A child may still be running: stop the launcher's whole group.
            with suppress(ProcessLookupError):
                os.killpg(self.proc.pid, signal.SIGKILL)
        with suppress(BrokenPipeError):
            self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def set_up(work: Path) -> None:
    """Fresh work directories, byte-compiled sources and one warm import."""
    shutil.rmtree(work, ignore_errors=True)
    (work / "pyc").mkdir(parents=True)
    (work / "cache").mkdir()
    env = child_env(work)
    for argv in (
        PYTHON + ("-m", "compileall", "-q", str(SRC / "mahlerq")),
        mahlerq_command(("--version",)),
    ):
        code, _ = run_child(argv, env, work / "setup.err")
        if code != 0:
            raise BenchError(f"set-up step {' '.join(argv[1:])} exited {code}")


def calibrate() -> float:
    """Seconds this process takes for a fixed stdlib-only workload.

    A shared host's speed drifts by a third or more over minutes, in CPU
    time as well as in wall time, and a whole run can fall in a slow
    stretch.  Every timed step is therefore bracketed by this calibration
    and reported as ``wall * CALIBRATION_S / calibration``: seconds at the
    speed of the tuning machine.  The workload fills a dict with
    ``Fraction`` values at scattered keys and sorts them, a working set of
    about ten megabytes, because on the tuning machine the drift hit such
    allocation-heavy code much harder than a small arithmetic loop.  It
    uses no mahlerq code, so no change to mahlerq moves it.
    """
    start = time.perf_counter()
    table = {}
    for i in range(CALIBRATION_ENTRIES):
        table[i * 7919 % 1000003] = Fraction(i, 7) * (i + 1)
    sorted(table.values(), reverse=True)
    return time.perf_counter() - start


def at_reference(wall: float, before: float, after: float) -> float:
    """A wall time, timed between calibrations taking ``before`` and
    ``after`` s, in seconds at the reference speed."""
    return wall * 2 * CALIBRATION_S / (before + after)


def remove_work_root() -> None:
    """Remove the shared work directory once no run is using it."""
    try:
        WORK_ROOT.rmdir()
    except OSError:
        pass


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "mahlerq").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env=dict(os.environ, GIT_DIR=str(ROOT / ".git")),
            capture_output=True,
            text=True,
        )
    except OSError:
        return None
    return done.stdout.strip() or None


def stamp(workload: str, seed: int, seconds: float, trace: int) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
    }


class Bench:
    """One benchmark run: inputs from the seed, outputs checked against goldens."""

    def __init__(self, work: Path, goldens: dict, seed: int, launcher: Launcher):
        self.work = work
        self.goldens = goldens
        self.rng = random.Random(seed)
        self.launcher = launcher
        self.samples = []  # [kind, wall s, s at reference speed, peak RSS MB] of each operation

    # -- inputs ---------------------------------------------------------

    def pass_ops(self, workload: str, jobs: int) -> list[Op]:
        if workload == "verify-deep":
            ops = []
            for model, order in VERIFY_OPS:
                key = " ".join(verify_argv(model, order))
                ops.append(Op(verify_argv(model, order), key, key))
            self.rng.shuffle(ops)
            return ops
        if workload == "batch-n4":
            cache = self.work / "cache"
            argv = (
                "batch", "--n", str(BATCH_N), "--order", str(BATCH_ORDER),
                "--jobs", str(jobs), "--cache", str(cache),
            )
            key = batch_key(BATCH_N, BATCH_ORDER)
            cold = Op(argv, key, f"{key} cold", cache, cold=True)
            return [cold] + [Op(argv, key, f"{key} warm", cache)] * WARM_REPEATS
        if workload == "measure-sweep":
            ops = []
            for (model, order), grid in MEASURE_OPS.items():
                argv = measure_argv(model, self.rng.choice(grid), order)
                ops.append(Op(argv, " ".join(argv), f"measure --model {model} --order {order}"))
            self.rng.shuffle(ops)
            return ops
        raise ValueError(f"unknown workload {workload!r}")

    # -- output checks --------------------------------------------------

    def check(self, op: Op, stdout: bytes) -> bool:
        if op.cache is None:
            return self.goldens["stdout"].get(op.golden) == sha256(stdout)
        return cache_digests(op.cache) == self.goldens["batch"].get(op.golden)

    def _prepare(self, op: Op) -> None:
        if op.cold:
            shutil.rmtree(op.cache, ignore_errors=True)
            op.cache.mkdir()

    def _report_failure(self, op: Op, code: int, stderr: str) -> None:
        detail = f"exit {code}: {stderr[-400:]!r}" if code else "output differs from its golden"
        print(f"FAILED mahlerq {' '.join(op.argv)}: {detail}", file=sys.stderr)

    def run_subprocess(self, op: Op):
        """Returns (ok, wall s, peak RSS MB)."""
        self._prepare(op)
        err = self.work / "op.err"
        code, out, wall, rss = self.launcher.run(mahlerq_command(op.argv), err)
        ok = code == 0 and self.check(op, out)
        if not ok:
            self._report_failure(op, code, err.read_text(errors="replace"))
        return ok, wall, rss

    def run_in_process(self, op: Op):
        """Returns (ok, wall s) for cli.main in this process."""
        from mahlerq import cli

        self._prepare(op)
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(list(op.argv))
        wall = time.perf_counter() - start
        ok = code == 0 and self.check(op, out.getvalue().encode())
        if not ok:
            self._report_failure(op, code, err.getvalue())
        return ok, wall

    # -- runs -----------------------------------------------------------

    def end_to_end(self, workload: str, seconds: float) -> tuple[int, int, dict]:
        # One full pass, then further operations (passes continue where they
        # left off) until the time is up, so a run overshoots by one
        # operation at most.
        first = self.pass_ops(workload, BATCH_JOBS)
        queue = list(first)
        done = []
        start = time.perf_counter()
        before = calibrate()
        while len(done) < len(first) or time.perf_counter() - start < seconds:
            if not queue:
                queue = self.pass_ops(workload, BATCH_JOBS)
            op = queue.pop(0)
            ok, wall, rss = self.run_subprocess(op)
            after = calibrate()
            done.append((op, ok, wall, at_reference(wall, before, after), rss))
            before = after
        self.samples = [[op.kind, wall, scaled, rss] for op, _, wall, scaled, rss in done]
        failed = sum(1 for _, ok, _, _, _ in done if not ok)
        # Each kind of operation is timed by the median of its repetitions
        # at reference speed (see ``calibrate``).
        times, rss = {}, {}
        for op, _, _, scaled, peak in done:
            times.setdefault(op.kind, []).append(scaled)
            rss.setdefault(op.kind, []).append(peak)
        typical = {kind: statistics.median(values) for kind, values in times.items()}
        metrics = {
            "success_rate": (len(done) - failed) / len(done),
            "pass_s": sum(typical[op.kind] for op in first),
            "slowest_op_s": max(typical.values()),
            "fastest_op_s": min(typical.values()),
            "max_rss_mb": max(statistics.median(peaks) for peaks in rss.values()),
        }
        return len(done), failed, metrics

    def traced(self, workload: str) -> tuple[int, int, dict]:
        import layers

        sys.pycache_prefix = str(self.work / "pyc")
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        import mahlerq

        if Path(mahlerq.__file__).resolve().parent != SRC / "mahlerq":
            raise BenchError(f"imported mahlerq from {mahlerq.__file__}, not {SRC}")

        # Each operation runs untraced and then traced, back to back, so that
        # drift in machine speed hits both sides of the overhead alike.
        tracer = layers.Tracer()
        results, untraced_s, traced_s = [], 0.0, 0.0
        for op in self.pass_ops(workload, jobs=1):
            ok, wall = self.run_in_process(op)
            results.append((ok, wall))
            untraced_s += wall
            with tracer.installed():
                ok, wall = self.run_in_process(op)
            results.append((ok, wall))
            traced_s += wall

        metrics = dict(tracer.metrics())
        metrics["trace_overhead_pct"] = (100.0 * (traced_s - untraced_s) / untraced_s, "%")
        efficiency = 0.0
        if workload == "batch-n4":
            cold = self.pass_ops(workload, BATCH_JOBS)[0]
            ok, cold_s, _ = self.run_subprocess(cold)
            results.append((ok, cold_s))
            efficiency = metrics["cli.batch_compute.s"][0] / (BATCH_JOBS * cold_s)
        metrics["batch.pool_efficiency"] = (efficiency, "ratio")
        metrics.update(layers.micro_table())
        failed = sum(1 for ok, _ in results if not ok)
        return len(results), failed, metrics


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool, goldens=None):
    """One benchmark run; returns (info, result) as printed by main().

    ``info`` holds the stamp of machine and code and the per-operation
    samples.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    if not (SRC / "mahlerq" / "__init__.py").is_file():
        raise BenchError(f"no mahlerq sources under {SRC}")
    if goldens is None:
        if not GOLDENS.is_file():
            raise BenchError(f"missing {GOLDENS}")
        goldens = json.loads(GOLDENS.read_text())
    work = WORK_ROOT / f"run-{os.getpid()}"
    try:
        setup = []
        before = calibrate()
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            set_up(work)
            wall = time.perf_counter() - start
            after = calibrate()
            setup.append(at_reference(wall, before, after))
            before = after
        with Launcher(work) as launcher:
            bench = Bench(work, goldens, seed, launcher)
            if trace:
                attempted, failed, values = bench.traced(workload)
            else:
                attempted, failed, values = bench.end_to_end(workload, seconds)
        if trace:
            metrics = {name: {"value": v, "unit": u} for name, (v, u) in values.items()}
        else:
            values["setup_s"] = statistics.median(setup)
            metrics = {
                name: {"value": values[name], "unit": unit}
                for name, unit in END_TO_END_UNITS.items()
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)
        remove_work_root()
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    info = {"stamp": stamp(workload, seed, seconds, int(trace)), "samples": bench.samples}
    return info, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind like an error so that every child is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        info, result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
