"""Tests of the benchmark's own code: the correctness check and the tracer.

    python3 -m pytest -q perfbench/test_check.py

Each workload runs once (about 10 s in all); its real artifacts must pass
the check, and every deliberately perturbed copy must fail it.
"""

import json
import shutil
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from hdist.cli import run_config  # noqa: E402

# a seed whose permutation moves the oscillation off the first axis
SEED = 3


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    cache = {}

    def get(name):
        if name not in cache:
            configs, axis = workloads.WORKLOADS[name](SEED)
            base = tmp_path_factory.mktemp(name)
            dirs = [base / str(i) for i in range(len(configs))]
            for cfg, outdir in zip(configs, dirs):
                run_config(cfg, output_dir=outdir)
            cache[name] = (axis, dirs)
        return cache[name]

    return get


def edit_json(index, filename, change):
    def edit(dirs, axis):
        path = dirs[index] / filename
        data = json.loads(path.read_text())
        change(data, axis)
        path.write_text(json.dumps(data))
    return edit


def edit_csv_cell(index, filename, row, col, text):
    def edit(dirs, axis):
        path = dirs[index] / filename
        lines = path.read_text().splitlines()
        cells = lines[row].split(",")
        cells[col] = text
        lines[row] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
    return edit


def delete(index, filename):
    def edit(dirs, axis):
        (dirs[index] / filename).unlink()
    return edit


def _scale_aligned_limit(data, axis):
    data["limits"][f"riesz_{axis + 1}"]["value"][1] *= 1.02


def _set(key, value):
    return lambda data, axis: data.__setitem__(key, value)


PERTURBATIONS = {
    "loc64": {
        "characteristic_ratio": edit_json(0, "localization.json", _set("ratio", 0.2)),
        "control_ratio": edit_json(1, "localization.json", _set("ratio", 0.3)),
        "chain_residual": edit_json(
            1, "localization.json",
            lambda d, a: d["i1_chain_residuals"].__setitem__(0, 1e-6)),
        "rhs_exponent": edit_json(
            0, "localization.json", lambda d, a: d["rates"].__setitem__("rhs_exponent", -0.5)),
    },
    "tensor256": {
        "aligned_limit_off_2pct": edit_json(0, "limits.json", _scale_aligned_limit),
        "nan_in_tensor": edit_json(
            0, "tensor.json",
            lambda d, a: d["tensor"]["entries"][0][0].__setitem__(0, float("nan"))),
        "zero_check": edit_json(0, "zero_check.json", _set("consistent", False)),
        "adjoint_gap": edit_csv_cell(0, "records.csv", 2, 8, "1e-6"),
    },
    "probes2d": {
        "commutator_decay": edit_json(
            0, "commutator.json",
            lambda d, a: d["table"]["columns"]["q=2"].__setitem__(-1, 1.0)),
        "nan_in_csv": edit_csv_cell(0, "commutator.csv", 2, 2, "nan"),
        "missing_artifact": delete(1, "norms.json"),
        "se_verdict": edit_json(
            2, "se_membership.json",
            lambda d, a: d["membership"].__setitem__("verdict", "not consistent")),
    },
}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_real_outputs_pass(outputs, name):
    axis, dirs = outputs(name)
    assert check.check(name, axis, dirs) == []


@pytest.mark.parametrize("name,perturbation", [
    (name, p) for name, table in PERTURBATIONS.items() for p in table])
def test_perturbed_output_fails(outputs, tmp_path, name, perturbation):
    axis, dirs = outputs(name)
    copies = [tmp_path / d.name for d in dirs]
    for src, dst in zip(dirs, copies):
        shutil.copytree(src, dst)
    PERTURBATIONS[name][perturbation](copies, axis)
    assert check.check(name, axis, copies)


def test_oracle_follows_the_seed_axis(outputs):
    axis, dirs = outputs("tensor256")
    assert check.check("tensor256", 1 - axis, dirs)


def test_tracer_counts_restores_and_marks_absent(monkeypatch):
    from hdist import grid as hgrid, multiplier
    from hdist.grid import Grid

    targets = [t for t in tracer.TARGETS if t[0] != "sobolev.sample"]
    targets.append(("sobolev.sample", "hdist.sobolev", "SequenceFamily.renamed_away"))
    monkeypatch.setattr(tracer, "TARGETS", tuple(targets))
    original_dft = multiplier.dft
    g = Grid(2, 16, 8.0)
    f = g.sample(lambda x, y: x * y)

    rec = tracer.Recorder()
    with rec.repetition(0):
        multiplier.riesz(g, 0).apply(f)
        hgrid.dft(f)
    assert multiplier.dft is original_dft and hgrid.dft is original_dft

    metrics = rec.metrics(overhead_s=0.0)
    assert metrics["grid.fft.calls"]["value"] == 3
    assert metrics["grid.dft.calls"]["value"] == 2
    assert metrics["grid.dft.distinct_frac"]["value"] == 0.5
    assert metrics["multiplier.build.calls"]["value"] == 1
    assert metrics["grid.fft.bytes_computed"]["value"] == 3 * 2 * 16 * 256
    assert metrics["sobolev.sample.calls"] == {"value": None, "unit": "count", "absent": True}
    top = [s[0] for s in rec.spans if s[3] == -1]
    assert top == ["multiplier.build", "trace.hash", "multiplier.apply",
                   "grid.dft", "trace.hash"]
