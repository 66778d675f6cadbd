"""Benchmark of the toboggan CLI, run from the source tree.

    python3 perfbench/run.py --workload cli_cold|oracle_sweep|tables_bulk \
        --seed N --seconds S --trace 0|1

Closed loop, one client: each operation starts when the previous one ended.
The workload's round of operations (see mixes.py) repeats until --seconds
have passed and at least MIN_TAIL_SAMPLES operations were timed; only whole
rounds run.  cli_cold starts a fresh `python -m toboggan.cli` per operation;
the other workloads call toboggan.cli.main in this process, after one untimed
warm-up round.  The first round's outputs are checked in full (checks.py)
once timing is over; every later repetition must match them byte for byte.

--trace 0 prints the end-to-end metrics.  --trace 1 runs the rounds of all
three workloads in this process, alternating traced and untraced rounds, and
prints the per-layer metrics (layers.py) per round of that combined mix.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import mixes
import layers
import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"

SETUP_STARTS = 5
IMPORT_PROBES = 3
# Keeps every run well inside the 180 s a run may take.
MAX_TIMED_S = 120.0
IMPORT_CODE = ("import time; t = time.perf_counter(); import toboggan.cli; "
               "print(time.perf_counter() - t)")


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "TOBOGGAN_PRECISION"}
    env["PYTHONPATH"] = str(SRC)
    return env


def measure_setup(env: dict) -> float:
    """Median import time of toboggan.cli over fresh interpreters, after one
    start that fills the bytecode cache."""
    def start() -> float:
        proc = subprocess.run([sys.executable, "-c", IMPORT_CODE], env=env,
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        return float(proc.stdout)
    start()
    return statistics.median(start() for _ in range(SETUP_STARTS))


class InProcess:
    """Runs toboggan.cli.main in this interpreter."""

    def __init__(self):
        os.environ.pop("TOBOGGAN_PRECISION", None)
        sys.path.insert(0, str(SRC))
        import toboggan.cli
        self.main = toboggan.cli.main

    def __call__(self, argv, path: Path):
        cpu = time.process_time()
        start = time.perf_counter()
        try:
            code = self.main([*argv, "--output", str(path)])
        except Exception as exc:  # an escaped exception is a failed operation
            code = repr(exc)
        wall = time.perf_counter() - start
        return code, wall, time.process_time() - cpu

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Cold:
    """Runs each operation as a fresh `python -m toboggan.cli` child."""

    def __init__(self, env: dict, workdir: Path):
        self.env = env
        self.stderr = workdir / "stderr.txt"
        self.peak_kb = 0

    def __call__(self, argv, path: Path):
        with open(self.stderr, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "toboggan.cli", *argv, "--output", str(path)],
                env=self.env, cwd=ROOT, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        # Reaped by wait4 above; recording the status keeps Popen from
        # treating the child as still running.
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_kb = max(self.peak_kb, usage.ru_maxrss)
        return proc.returncode, wall, usage.ru_utime + usage.ru_stime

    def peak_rss_mb(self) -> float:
        return self.peak_kb / 1024.0


def _digest(path: Path) -> str:
    with open(path, "rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()


class Rounds:
    """Repeats one round of operations and keeps what the metrics need."""

    def __init__(self, ops: list[mixes.Op], runner, workdir: Path):
        self.ops = ops
        self.runner = runner
        self.workdir = workdir
        self.digests: list[str | None] = [None] * len(ops)
        self.latency: list[float] = []
        self.cpu: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def reference_path(self, i: int) -> Path:
        return self.workdir / f"ref-{i:03d}.{self.ops[i].ext}"

    def run(self, reference: bool = False, timed: bool = True) -> float:
        """One round; returns the time spent in its operations."""
        total = 0.0
        for i, op in enumerate(self.ops):
            path = self.reference_path(i) if reference else self.workdir / f"cur.{op.ext}"
            code, wall, cpu = self.runner(op.argv, path)
            ok = code == 0
            if not ok:
                # Its output cannot be checked, so the run is not correct.
                self.problems.append(f"{' '.join(op.argv)}: exit {code}")
            elif reference:
                self.digests[i] = _digest(path)
            elif _digest(path) != self.digests[i]:
                self.problems.append(
                    f"{' '.join(op.argv)}: output differs from its first run")
            total += wall
            if timed:
                self.attempted += 1
                if ok:
                    self.latency.append(wall)
                    self.cpu.append(cpu)
                else:
                    self.failed += 1
        return total


def check_outputs(rounds: Rounds) -> dict:
    """Full checks of the reference round; returns the figures they yield."""
    pending: dict[str, dict] = {}
    series: dict[str, list] = {}
    ho_errors: list[float] = []
    rows = size = 0
    for i, op in enumerate(rounds.ops):
        if rounds.digests[i] is None:
            continue
        path = rounds.reference_path(i)
        size += path.stat().st_size
        try:
            if op.kind in checks.TABLE_CHECKS:
                table = checks.load_table(path)
                checks.TABLE_CHECKS[op.kind](table, op.params)
                rows += len(next(iter(table.values())))
                if op.group in pending:
                    checks.check_same_numbers(pending.pop(op.group), table)
                elif op.group is not None:
                    pending[op.group] = table
            else:
                report = checks.load_report(path)
                found = checks.REPORT_CHECKS[op.kind](report, op.params)
                rows += len(report["levels"])
                if op.kind == "verify_ho":
                    ho_errors += found
                if op.group is not None:
                    series.setdefault(op.group, []).append(report)
        except (checks.CheckError, KeyError, IndexError, TypeError, ValueError) as exc:
            rounds.problems.append(f"{' '.join(op.argv)}: {exc!r}")
    for name, reports in series.items():
        try:
            checks.check_series(reports)
        except (checks.CheckError, KeyError, ValueError, ZeroDivisionError) as exc:
            rounds.problems.append(f"{name}: {exc!r}")
    return {"ho_err_max": max(ho_errors, default=None), "rows": rows, "bytes": size}


def end_to_end(rounds: Rounds, runner, setup_s: float) -> dict:
    metrics = {"setup_s": (setup_s, "s"),
               "peak_rss_mb": (runner.peak_rss_mb(), "MB")}
    if not rounds.latency:
        print("# no operation succeeded")
        return metrics
    lat = stats.summarize(rounds.latency)
    metrics.update({
        "ops_per_s": (len(rounds.latency) / sum(rounds.latency), "1/s"),
        "latency_p50_s": (lat["median"], "s"),
        "latency_tail_s": (lat.get("tail"), "s"),
        "cpu_s_per_op": (sum(rounds.cpu) / len(rounds.cpu), "s"),
    })
    print(f"# {lat['count']} timed operations; tail = "
          f"p{lat.get('tail_percentile', float('nan')):.2f}")
    return metrics


def timed_phase(rounds: Rounds, seconds: float, first_counts: bool) -> None:
    """Whole rounds until `seconds` passed and enough operations ran."""
    if not first_counts:
        rounds.run(reference=True, timed=False)
    start = time.perf_counter()
    reference = first_counts
    while True:
        rounds.run(reference=reference)
        reference = False
        elapsed = time.perf_counter() - start
        if elapsed > MAX_TIMED_S or (elapsed >= seconds and
                                     rounds.attempted >= stats.MIN_TAIL_SAMPLES):
            return


def traced_phase(rounds: Rounds, tracer: layers.Tracer, seconds: float) -> int:
    """Alternate traced and untraced rounds; returns the traced count."""
    rounds.run(reference=True, timed=False)
    start = time.perf_counter()
    traced, untraced = [], []
    while True:
        tracer.install()
        try:
            traced.append(rounds.run())
        finally:
            tracer.restore()
        untraced.append(rounds.run())
        if time.perf_counter() - start >= min(seconds, MAX_TIMED_S):
            break
    overhead = statistics.mean(traced) - statistics.mean(untraced)
    print(f"# {len(traced)} traced and {len(untraced)} untraced rounds of "
          f"{len(rounds.ops)} operations; round {statistics.mean(untraced):.3f} s "
          f"untraced, tracing adds {overhead:.3f} s "
          f"({100 * overhead / statistics.mean(untraced):.1f}%)")
    return len(traced)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(mixes.ROUNDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "toboggan" / "cli.py").is_file():
        print(f"benchmark: no toboggan sources under {SRC}", file=sys.stderr)
        return 2
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    env = child_env()
    try:
        if args.trace:
            metrics = layers.import_probe(env, IMPORT_PROBES)
            ops = [op for name in sorted(mixes.ROUNDS)
                   for op in mixes.make_round(name, args.seed)]
            runner = InProcess()
            rounds = Rounds(ops, runner, workdir)
            tracer = layers.Tracer()
            traced = traced_phase(rounds, tracer, args.seconds)
            found = check_outputs(rounds)
            metrics.update(tracer.metrics(traced, found["rows"], found["bytes"]))
            metrics["eigensolver.ho_err_max"] = (found["ho_err_max"], "1")
            raw = {"trace": tracer.dump()}
        else:
            setup_s = measure_setup(env)
            ops = mixes.make_round(args.workload, args.seed)
            cold = args.workload == "cli_cold"
            runner = Cold(env, workdir) if cold else InProcess()
            rounds = Rounds(ops, runner, workdir)
            timed_phase(rounds, args.seconds, first_counts=cold)
            metrics = end_to_end(rounds, runner, setup_s)
            check_outputs(rounds)
            raw = {"latency_s": rounds.latency, "cpu_s": rounds.cpu}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in rounds.problems[:20]:
        print(f"# check failed: {problem}")
    result = {
        "correct": not rounds.problems,
        "attempted": rounds.attempted,
        "failed": rounds.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                    if value is not None},
    }
    raw.update(workload=args.workload, seed=args.seed, result=result)
    tag = "trace" if args.trace else "run"
    (OUT / f"{tag}-{args.workload}-{args.seed}.json").write_text(json.dumps(raw))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
