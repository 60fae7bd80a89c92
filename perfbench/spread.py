"""Run the benchmark over several seeds and report the spread of each metric.

    python3 perfbench/spread.py --seeds 0-9 [--workloads loc64 probes2d]
                                [--traced] [--out perfbench/baseline.json]

Reads the command, run length, workloads and bounds from BENCHMARK.json.
For each end-to-end metric it prints the ten-run median, the quartiles of
`statistics.quantiles(values, n=4)` and their distance as a share of the
median, beside the metric's bound; a run is steady when every spread but
that of setup_s is below a third of its bound.  With `--traced` it adds one
traced run per workload at the default seed.  With `--out` it writes the
result, with a record of the machine, as the baseline file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracer import LAYER_METRICS  # noqa: E402

RUN_TIMEOUT_S = 900


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(bench, workload, seed, trace):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]),
                              "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, elapsed


def summarize(values, bound):
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "bound": bound, "values": values}


def machine():
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas_threads": "1 (OPENBLAS_NUM_THREADS=OMP_NUM_THREADS=MKL_NUM_THREADS=1 "
                            "in the workload process)"}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("0-9"))
    parser.add_argument("--workloads", nargs="*")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = args.workloads or [w["name"] for w in bench["workloads"]]

    out = {"machine": machine(), "run_seconds": bench["run_seconds"],
           "default_seed": workloads.DEFAULT_SEED, "seeds": args.seeds,
           "layer_targets": {name: target for name, _, _, target in LAYER_METRICS},
           "workloads": {}}
    steady = True
    for workload in names:
        results, walls = [], []
        for seed in args.seeds:
            result, elapsed = run_once(bench, workload, seed, 0)
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} of "
                      f"{result['attempted']} repetitions failed")
            results.append(result)
            walls.append(elapsed)
        entry = {"process_s": summarize(walls, None), "metrics": {},
                 "failed": sum(r["failed"] for r in results),
                 "attempted": sum(r["attempted"] for r in results)}
        print(f"{workload}: {len(args.seeds)} runs, {entry['failed']} of "
              f"{entry['attempted']} repetitions failed, process wall "
              f"median {entry['process_s']['median']:.1f} s, max {max(walls):.1f} s")
        for name, bound in bounds.items():
            s = summarize([r["metrics"][name]["value"] for r in results], bound)
            entry["metrics"][name] = s
            ok = name == "setup_s" or s["spread"] < bound / 3
            steady &= ok
            print(f"  {name:<12} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
                  f"q3 {s['q3']:<12.6g} spread {s['spread']:.4f} bound {bound} "
                  f"{'ok' if ok else 'WIDE'}")
            print("    " + " ".join(f"{v:.5g}" for v in s["values"]))
        if args.traced:
            result, _ = run_once(bench, workload, workloads.DEFAULT_SEED, 1)
            entry["per_layer"] = result["metrics"]
        out["workloads"][workload] = entry
    print("steady" if steady else "not steady")
    if args.out:
        Path(args.out).write_text(json.dumps(out, indent=2) + "\n")


if __name__ == "__main__":
    main()
