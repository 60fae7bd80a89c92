"""hdist benchmark: one workload, one process, closed loop.

    python3 perfbench/run.py --workload loc64 --seed 0 --seconds 25 --trace 0

A repetition is one pass over the workload's configs through
`hdist.cli.run_config`, each writing into a fresh directory under
`.perfbench_runs/`; the next repetition starts when the previous one has
returned and been checked.  Every repetition, the set-up ones included, is
checked by `check.py`, and one that raises or fails the check counts as
failed.

With `--trace 0` the run reports the end-to-end metrics:
  run_s.p50    median wall time of one repetition
  cpu_s.p50    median user+sys CPU time of the process per repetition
  setup_s      median over SETUP_SAMPLES fresh processes of the time from
               before `import hdist` to the end of the first repetition
  peak_rss_mb  peak resident memory of the measuring process
and prints fail_frac (failed / attempted repetitions), which is not in the
JSON metrics because it is 0 whenever the program is correct.

With `--trace 1` the run alternates untraced and traced repetitions and
reports the per-layer metrics of `tracer.py` (medians over the traced
repetitions) and trace.overhead_s, the traced minus the untraced median
wall time.  The spans go to `.perfbench_out/spans-<workload>-seed<n>.jsonl`.

BLAS and OpenMP pools are pinned to one thread, so the measured process
computes on one core; the value is printed with the machine record.  The
last line of standard output is the JSON result.  Without the package
sources under `src/` the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402  (standard library only)
import workloads  # noqa: E402  (standard library only)

THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 3
SETUP_TIMEOUT_S = 150
RUNS_DIR = ROOT / ".perfbench_runs"
SPANS_DIR = ROOT / ".perfbench_out"


class Bench:
    """Runs and checks repetitions of one workload's configs."""

    def __init__(self, workload, seed, scratch: Path):
        self.workload = workload
        self.configs, self.axis = workloads.WORKLOADS[workload](seed)
        self.scratch = scratch
        self.run_config = None
        self.attempted = 0
        self.failed = 0

    def setup(self) -> float:
        """Import the package and run the first, untimed repetition."""
        t0 = time.perf_counter()
        from hdist.cli import run_config

        self.run_config = run_config
        self.repetition()
        return time.perf_counter() - t0

    def repetition(self):
        """(wall s, cpu s, output bytes) of one checked repetition."""
        rep_dir = self.scratch / f"rep{self.attempted}"
        dirs = [rep_dir / f"{i}-{cfg['experiment']}" for i, cfg in enumerate(self.configs)]
        self.attempted += 1
        gc.collect()
        error = None
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            for cfg, outdir in zip(self.configs, dirs):
                self.run_config(cfg, output_dir=outdir)
        except Exception:  # a failing repetition is counted, not fatal
            error = traceback.format_exc()
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        problems = [error] if error else check.check(self.workload, self.axis, dirs)
        out_bytes = sum(f.stat().st_size for f in rep_dir.rglob("*") if f.is_file())
        shutil.rmtree(rep_dir, ignore_errors=True)
        if problems:
            self.failed += 1
            print(f"repetition {self.attempted - 1} failed:", *problems, sep="\n  ",
                  file=sys.stderr)
        return wall, cpu, out_bytes


def setup_in_child(args) -> tuple:
    """(setup seconds or None, correct) from a fresh process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("set-up probe timed out", file=sys.stderr)
        return None, False
    if proc.returncode != 0:
        print(f"set-up probe exited {proc.returncode}:\n{proc.stderr}", file=sys.stderr)
        return None, False
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result["setup_s"], result["correct"]


def tail_percentile(values):
    """(p, value) for the highest of p99/p95/p90 with ten samples beyond it."""
    n = len(values)
    for p in (99, 95, 90):
        if n * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(values, n=100)[p - 1]
    return None


def machine_record():
    import numpy
    import scipy

    threads = " ".join(f"{k}={os.environ[k]}" for k in THREAD_ENV)
    return (f"machine: nproc={os.cpu_count()} arch={platform.machine()} "
            f"python={platform.python_version()} numpy={numpy.__version__} "
            f"scipy={scipy.__version__} {threads}")


def report(name, value, unit, detail):
    print(f"{name:<14} {value:>12.6g} {unit:<6} {detail}")


def measure(bench, seconds):
    samples = []
    t0 = time.perf_counter()
    while not samples or time.perf_counter() - t0 < seconds:
        samples.append(bench.repetition())
    return samples


def run_end_to_end(args, bench, setup_s):
    setups = [setup_s]
    for _ in range(SETUP_SAMPLES - 1):
        value, correct = setup_in_child(args)
        bench.attempted += 1
        bench.failed += not correct
        if value is not None:
            setups.append(value)
    samples = measure(bench, args.seconds)
    walls = [s[0] for s in samples]
    cpus = [s[1] for s in samples]
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "run_s.p50": {"value": statistics.median(walls), "unit": "s"},
        "cpu_s.p50": {"value": statistics.median(cpus), "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": peak, "unit": "MiB"},
    }
    for name, values in (("run_s", walls), ("cpu_s", cpus)):
        tail = tail_percentile(values)
        detail = f"n={len(values)}"
        if tail:
            detail += f", p{tail[0]} {tail[1]:.6g} s"
        report(f"{name}.p50", statistics.median(values), "s", detail)
    report("setup_s", metrics["setup_s"]["value"], "s",
           f"n={len(setups)}, median of fresh processes: "
           + ", ".join(f"{v:.4g}" for v in setups))
    report("peak_rss_mb", peak, "MiB", "n=1, measuring process")
    report("fail_frac", bench.failed / bench.attempted, "ratio",
           f"n={bench.attempted}, {bench.failed} failed")
    return metrics


def run_traced(args, bench):
    from tracer import LAYER_METRICS, OUTPUT_BYTES, Recorder

    recorder = Recorder()
    plain, traced = [], []
    t0 = time.perf_counter()
    while not (plain and traced) or time.perf_counter() - t0 < args.seconds:
        if len(plain) <= len(traced):
            plain.append(bench.repetition()[0])
            continue
        with recorder.repetition(len(traced)) as stats:
            wall, _, out_bytes = bench.repetition()
        stats.counters[OUTPUT_BYTES] = out_bytes
        traced.append(wall)
    overhead = statistics.median(traced) - statistics.median(plain)
    metrics = recorder.metrics(overhead)
    for name, unit, _, target in LAYER_METRICS:
        value = metrics[name]["value"]
        shown = "absent" if value is None else f"{value:.6g}"
        print(f"{name:<36} {shown:>12} {unit:<6} target: {target}")
    print(f"traced n={len(traced)}, untraced n={len(plain)}; "
          f"fail_frac {bench.failed / bench.attempted:.6g} (n={bench.attempted})")
    SPANS_DIR.mkdir(exist_ok=True)
    spans = SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
    recorder.write_spans(spans)
    print(f"spans: {len(recorder.spans)} written to {spans.relative_to(ROOT)}")
    return metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    for name in THREAD_ENV:
        os.environ[name] = "1"
    src = ROOT / "src"
    if not (src / "hdist" / "__init__.py").is_file():
        print(f"error: no hdist sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    RUNS_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUNS_DIR))
    try:
        bench = Bench(args.workload, args.seed, scratch)
        setup_s = bench.setup()
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s, "correct": bench.failed == 0}))
            return 0
        print(machine_record())
        print(f"workload {args.workload}, seed {args.seed} (axis {bench.axis}), "
              f"{len(bench.configs)} configs per repetition, {args.seconds:g} s")
        if args.trace:
            metrics = run_traced(args, bench)
        else:
            metrics = run_end_to_end(args, bench, setup_s)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            RUNS_DIR.rmdir()
        except OSError:  # another run is still using it
            pass
    print(json.dumps({"correct": bench.failed == 0, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
