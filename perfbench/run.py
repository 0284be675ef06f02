"""Benchmark of the `urlab` command line, one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is taken from ./src.
A closed loop with one client starts fresh `urlab` processes one after the
other, for at least S seconds, and checks every run's outputs.

--trace 0 reports the end-to-end metrics: the median wall time of a run,
the median set-up time (import plus input measure) and the median peak
resident memory.  --trace 1 alternates untraced runs with runs whose layer
entry points are wrapped (traced_urlab.py) and reports the per-layer
metrics, plus the tracing overhead: the median traced wall time minus the
median untraced one.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import spans
from workloads import WORKLOADS, check_row, read_row

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 5
DEADLINE_S = 170.0              # the invocation must end within 180 s
BLAS_THREADS = "1"


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    # one BLAS thread: see README.md, "BLAS threads"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    caches = {}
    try:
        out = subprocess.run(["getconf", "-a"], capture_output=True,
                             text=True, timeout=10).stdout
        for line in out.splitlines():
            parts = line.split()
            if len(parts) == 2 and parts[0].endswith("CACHE_SIZE"):
                caches[parts[0]] = int(parts[1])
    except (OSError, subprocess.SubprocessError):
        pass
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": int(BLAS_THREADS),
            "nproc": len(os.sched_getaffinity(0)), "caches": caches}


class Clock:
    """Time left before the invocation's deadline."""

    def __init__(self):
        self.t0 = time.perf_counter()

    def elapsed(self) -> float:
        return time.perf_counter() - self.t0

    def left(self) -> float:
        return DEADLINE_S - self.elapsed()


def timed(cmd: list, env: dict, clock: Clock, log) -> tuple:
    """(exit status, wall seconds, peak RSS in MB) of one child process.

    The child is killed if it would outlive the deadline; os.wait4 gives
    the rusage of that one child.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdout=log, stderr=log)
    killer = threading.Timer(max(clock.left(), 1.0), proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


class Runner:
    """Fresh-process runs of one workload variant, and their checks."""

    def __init__(self, root: Path, workload, seed: int, work: Path):
        self.workload = workload
        self.env = child_env(root)
        self.work = work
        self.config = work / "config.json"
        with open(self.config, "w") as fh:
            json.dump(workload.config(seed), fh, indent=1)
        refs = json.loads((HERE / "references.json").read_text())
        self.reference = refs[workload.name][str(workload.variant(seed))]
        self.first_csv: bytes | None = None
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.log = open(work / "children.log", "wb")

    def setup(self, clock: Clock) -> float:
        cmd = [sys.executable, str(HERE / "setup_probe.py"), str(self.config)]
        status, wall, _ = timed(cmd, self.env, clock, self.log)
        if status != 0:
            raise RuntimeError(f"set-up probe exited with status {status}; "
                               f"see {self.log.name}")
        return wall

    def run(self, clock: Clock, spans_path: Path | None = None) -> tuple:
        """One fresh-process run; (wall s, peak RSS MB, passed)."""
        self.attempted += 1
        out = self.work / f"run{self.attempted}"
        args = [self.workload.subcommand, "-c", str(self.config),
                "-o", str(out)]
        if spans_path is None:
            cmd = [sys.executable, "-m", "urlab", *args]
        else:
            cmd = [sys.executable, str(HERE / "traced_urlab.py"),
                   str(spans_path), *args]
        status, wall, rss = timed(cmd, self.env, clock, self.log)
        problems = self.check(out) if status == 0 else [f"exit {status}"]
        if problems:
            self.failed += 1
            self.failures += [f"run {self.attempted}: {p}" for p in problems]
        shutil.rmtree(out, ignore_errors=True)
        return wall, rss, not problems

    def check(self, out: Path) -> list[str]:
        try:
            body = (out / self.workload.csv).read_bytes()
            problems = check_row(read_row(body.decode()), self.reference,
                                 self.workload.checks)
        except (OSError, ValueError) as exc:
            return [f"unreadable {self.workload.csv}: {exc}"]
        if self.first_csv is None:
            self.first_csv = body
        elif body != self.first_csv:
            problems.append(f"{self.workload.csv} differs from the first "
                            "run's bytes")
        return problems


def end_to_end(runner: Runner, clock: Clock, seconds: float) -> dict:
    runner.setup(clock)                 # warm-up: bytecode and file cache
    setups = [runner.setup(clock) for _ in range(SETUP_SAMPLES)]
    walls, rsss = [], []
    start = clock.elapsed()
    while not walls or (clock.elapsed() - start < seconds
                        and clock.left() > 2.0 * max(walls) + 5.0):
        wall, rss, _ = runner.run(clock)
        walls.append(wall)
        rsss.append(rss)
    print(f"# runs: {len(walls)}, wall_s samples: "
          + " ".join(f"{w:.3f}" for w in walls))
    print("# setup_s samples: " + " ".join(f"{s:.3f}" for s in setups))
    return {"wall_s": (statistics.median(walls), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (statistics.median(rsss), "MB")}


def per_layer(runner: Runner, clock: Clock, seconds: float) -> dict:
    plain, traced, layers = [], [], []
    start = clock.elapsed()
    while not traced or (clock.elapsed() - start < seconds
                         and clock.left() > 2.0 * (max(plain) + max(traced))
                         + 5.0):
        plain.append(runner.run(clock)[0])
        spans_path = runner.work / "spans.json"
        wall, _, ok = runner.run(clock, spans_path)
        traced.append(wall)
        if ok:
            layers.append(spans.layer_metrics(
                json.loads(spans_path.read_text())))
    if not layers:
        return {}
    for key in spans.EXACT:
        if len({lm[key] for lm in layers}) > 1:
            runner.failures.append(f"{key} differs between traced runs")
    print(f"# pairs of untraced and traced runs: {len(traced)}")
    out = {k: (statistics.median(lm[k] for lm in layers), u)
           for k, u in spans.PER_LAYER.items()}
    print(f"# traced wall_s {statistics.median(traced):.4f} s, untraced "
          f"{statistics.median(plain):.4f} s")
    out["trace.overhead_s"] = (statistics.median(traced)
                               - statistics.median(plain), "s")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "urlab" / "cli.py").is_file():
        print("perfbench: run from the root of a urlab checkout "
              "(no src/urlab/cli.py here)", file=sys.stderr)
        return 2
    clock = Clock()
    workload = WORKLOADS[args.workload]
    work = root / ".perfbench" / (f"{workload.name}-seed{args.seed}"
                                  f"-trace{args.trace}-{os.getpid()}")
    work.mkdir(parents=True)
    env = environment()
    print("# environment: " + json.dumps(env, sort_keys=True))
    runner = Runner(root, workload, args.seed, work)
    try:
        if args.trace:
            metrics = per_layer(runner, clock, args.seconds)
        else:
            metrics = end_to_end(runner, clock, args.seconds)
    finally:
        runner.log.close()
    for msg in runner.failures:
        print(f"# FAILED {msg}")
    print(f"# error_rate {runner.failed / runner.attempted:.4f} "
          f"({runner.failed} of {runner.attempted} runs failed)")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    result = {"correct": not runner.failures,
              "attempted": runner.attempted, "failed": runner.failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    results = root / ".perfbench" / "results"
    results.mkdir(exist_ok=True)
    (results / f"{work.name}.json").write_text(json.dumps(
        {"workload": workload.name, "seed": args.seed, "trace": args.trace,
         "environment": env, **result}, indent=1))
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
