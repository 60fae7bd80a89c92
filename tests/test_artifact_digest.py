"""tools/artifact_digest.py digests the benchmark workloads' artifacts
deterministically: one line per artifact file."""

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "artifact_digest", Path(__file__).resolve().parent.parent / "tools" / "artifact_digest.py")
artifact_digest = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(artifact_digest)


def test_probes2d_digests_alike_twice():
    first, second = (artifact_digest.digest(["probes2d"], [0]) for _ in range(2))
    assert first == second
    # commutator 3 files, norm_suite 2 and se_analysis 3, summaries included
    assert len(first) == 8
    assert all(line.split("  ")[1].startswith("probes2d/0/") for line in first)
