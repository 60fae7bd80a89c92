"""Digest every artifact the benchmark workloads write.

    python tools/artifact_digest.py [--seeds 0 1] [--out DIR] [WORKLOAD ...]

Runs each config of each workload in `perfbench/workloads.py` (all of them
by default) at each seed through `hdist.cli.run_config`, into a temporary
directory (or DIR, which keeps them), and prints one
`sha256  workload/seed/config/file` line per artifact, sorted by path;
`config` is `<index>-<experiment>`.  Two checkouts write byte-identical
artifacts exactly when they print the same lines, so a `diff` of their
outputs is the artifact comparison; `tools/artifact_diff.py` says what moved
between two kept DIRs.  Uses the standard library and the `hdist` sources of
the checkout it sits in.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_workloads() -> dict:
    """perfbench/workloads.py's WORKLOADS: name -> seed -> (configs, axis)."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


def digest(names=None, seeds=(0, 1), out=None) -> list:
    """The `sha256  workload/seed/config/file` lines of the named workloads'
    artifacts at the given seeds, sorted by path; the artifacts are written
    under out if given, else into a temporary directory."""
    from hdist.cli import run_config

    workloads = load_workloads()
    digests = []
    with tempfile.TemporaryDirectory() as tmp:
        tmp = out or tmp
        for name in names or sorted(workloads):
            for seed in seeds:
                configs, _ = workloads[name](seed)
                for i, cfg in enumerate(configs):
                    rel = Path(name, str(seed), f"{i}-{cfg['experiment']}")
                    run_config(cfg, output_dir=Path(tmp, rel))
                    for path in Path(tmp, rel).iterdir():
                        digests.append(((rel / path.name).as_posix(),
                                        hashlib.sha256(path.read_bytes()).hexdigest()))
    return [f"{sha}  {path}" for path, sha in sorted(digests)]


def main(argv=None) -> int:
    names = sorted(load_workloads())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*", metavar="WORKLOAD",
                        help=f"any of {', '.join(names)} (default: all)")
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1])
    parser.add_argument("--out", metavar="DIR", help="keep the artifacts under DIR")
    args = parser.parse_args(argv)
    unknown = sorted(set(args.workloads) - set(names))
    if unknown:
        parser.error(f"unknown workloads {unknown}")
    sys.path.insert(0, str(ROOT / "src"))
    print(*digest(args.workloads, args.seeds, args.out), sep="\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
