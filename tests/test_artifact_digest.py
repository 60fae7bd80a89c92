"""tools/artifact_digest.py digests the benchmark workloads' artifacts
deterministically: one line per artifact file; tools/artifact_diff.py says
which numbers moved between two artifact trees."""

import importlib.util
import json
import shutil
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


artifact_digest = _load("artifact_digest")
artifact_diff = _load("artifact_diff")


def test_probes2d_digests_alike_twice():
    first, second = (artifact_digest.digest(["probes2d"], [0]) for _ in range(2))
    assert first == second
    # commutator 3 files, norm_suite 2 and se_analysis 3, summaries included
    assert len(first) == 8
    assert all(line.split("  ")[1].startswith("probes2d/0/") for line in first)


def test_diff_reports_only_the_perturbed_leaf(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    lines = artifact_digest.digest(["probes2d"], [0], out=a)
    assert sorted(p.relative_to(a).as_posix() for p in a.rglob("*") if p.is_file()) \
        == [line.split("  ")[1] for line in lines]
    shutil.copytree(a, b)
    assert artifact_diff.main([str(a), str(b)]) == 0
    same = artifact_diff.diff(a, b)
    assert len(same) == 8 and all(r["moved"] == 0 and r["same_rest"] for r in same.values())

    rel = "probes2d/0/1-norm_suite/norms.json"
    doc = json.loads((b / rel).read_text())
    key = next(k for k, v in sorted(doc.items()) if isinstance(v, float))
    doc[key] *= 1.0 + 1e-9
    (b / rel).write_text(json.dumps(doc))
    capsys.readouterr()
    assert artifact_diff.main([str(a), str(b)]) == 1
    moved = {rel: r for rel, r in artifact_diff.diff(a, b).items() if r["moved"]}
    assert list(moved) == [rel] and moved[rel]["moved"] == 1 and moved[rel]["same_rest"]
    assert 0.5e-9 < moved[rel]["max_rel"] == moved[rel]["max_rel_big"] < 2e-9
    assert f"{rel}  moved 1 of {moved[rel]['total']}" in capsys.readouterr().out
