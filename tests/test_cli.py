import csv
import ctypes
import json
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from hdist import cli, functional, localization, registry, sobolev
from hdist.cli import CONFIG_SCHEMAS, main, run_config, validate_config
from hdist.grid import Grid, GridFunction, dft, idft, lp_norm
from hdist.multiplier import bessel_potential, derivative
from hdist.sobolev import SequenceFamily, surrogate_negative_norm, wkq_norm
from hdist.symbol import SphericalHarmonicBasis
from hdist.util import canonical_hash, multi_indices

from .test_grid import random_smooth

SWEEP_CFG = {
    "experiment": "hdist_sweep",
    "grid": {"d": 2, "N": 128, "L": 16.0},
    "families": {
        "u": {"kind": "oscillation", "amplitude": "gaussian",
              "direction": [1, 0], "indices": [8, 16, 32]},
    },
    "test_functions": {"phi1": "gaussian", "phi2": "gaussian"},
    "symbols": ["constant_one", "riesz_1"],
    "tensor": {"m_max": 1, "n_max": 1},
    "zero_check": {"theta": "gaussian", "k": 0, "p": 2.0},
}

COMMUTATOR_CFG = {
    "experiment": "commutator",
    "grid": {"d": 2, "N": 128, "L": 16.0},
    "symbol": "riesz_1",
    "b": "gaussian",
    "family": {"kind": "oscillation", "amplitude": "gaussian",
               "direction": [1, 0], "indices": [8, 16, 32]},
}

LOCALIZATION_CFG = {
    "experiment": "localization",
    "grid": {"d": 3, "N": 32, "L": 8.0},
    "coefficients": [
        {"name": "gaussian", "params": {"width": 1.6}},
        {"name": "gaussian", "params": {"width": 1.5}},
        {"name": "gaussian", "params": {"width": 1.3}},
    ],
    "amplitude": {"name": "gaussian", "params": {"width": 1.2}},
    "direction": [1, 0, 0],
    "k": 0,
    "indices": [2, 4, 8],
    "characteristic": True,
    "cutoff": {"r_inner": 2.3, "r_outer": 3.3},
    "test_functions": {
        "phi1": {"name": "gaussian", "params": {"width": 1.5}},
        "phi2": {"name": "gaussian", "params": {"width": 1.5}},
    },
    "symbol": "constant_one",
}

SE_CFG = {
    "experiment": "se_analysis",
    "grid": {"d": 2, "N": 128, "L": 16.0},
    "theta": {"hermite": [2, 0], "harmonic": [1, 1]},
    "m_max": 4,
    "n_max": 3,
    "r_list": [0.5, 1.0, 2.0],
}

NORM_CFG = {
    "experiment": "norm_suite",
    "grid": {"d": 2, "N": 64, "L": 16.0},
    "fields": ["gaussian", {"name": "bump", "params": {"radius": 2.0}}],
    "k_list": [0, 1],
    "p_list": [2.0],
}

SMALL_NORM_CFG = {"experiment": "norm_suite", "grid": {"d": 2, "N": 16, "L": 8.0},
                  "fields": ["gaussian"]}

# each experiment with every optional top-level key set
FULL_CFGS = {
    "hdist_sweep": SWEEP_CFG,
    "commutator": {**COMMUTATOR_CFG, "r": 4.0, "q_list": [2.0, 4.0]},
    "localization": {**LOCALIZATION_CFG, "p": 2.0, "q": 2.0},
    "se_analysis": SE_CFG,
    "norm_suite": NORM_CFG,
}


class KeyRecorder(dict):
    """A config that records which top-level keys a runner reads."""

    def __init__(self, cfg):
        super().__init__(cfg)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)

    def __contains__(self, key):
        self.read.add(key)
        return super().__contains__(key)


def write_cfg(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg, indent=2))
    return path


class TestValidation:
    def test_valid_configs(self):
        for cfg in (SWEEP_CFG, COMMUTATOR_CFG, LOCALIZATION_CFG, SE_CFG, NORM_CFG):
            assert validate_config(cfg) == []

    def test_unknown_experiment(self):
        errors = validate_config({"experiment": "mystery", "grid": {}})
        assert errors and "experiment" in errors[0]

    def test_unknown_key_rejected(self):
        cfg = dict(SWEEP_CFG)
        cfg["extra_knob"] = 1
        errors = validate_config(cfg)
        assert any("extra_knob" in e for e in errors)

    def test_nested_error_is_path_anchored(self):
        cfg = json.loads(json.dumps(SWEEP_CFG))
        cfg["families"]["u"]["kind"] = "warp"
        errors = validate_config(cfg)
        assert any("families.u.kind" in e for e in errors)

    @pytest.mark.parametrize("experiment", sorted(FULL_CFGS))
    def test_every_schema_key_is_read(self, experiment):
        # a key the schema accepts but no build reads is a dead setting; the
        # build returns the compute without running it
        cfg = FULL_CFGS[experiment]
        assert validate_config(cfg) == []
        recorder = KeyRecorder(cfg)
        g = cfg["grid"]
        assert callable(cli.RUNNERS[experiment](recorder, Grid(g["d"], g["N"], g["L"])))
        read = recorder.read | {"experiment", "grid", "output_dir"}
        assert read == set(CONFIG_SCHEMAS[experiment]["properties"])

    def test_missing_required(self):
        cfg = {k: v for k, v in COMMUTATOR_CFG.items() if k != "symbol"}
        assert validate_config(cfg)

    @pytest.mark.parametrize("key", ["k_list", "p_list"])
    def test_norm_suite_lists_nonempty(self, key, tmp_path, capsys):
        # an empty list would compute no norms and pass the check vacuously
        path = write_cfg(tmp_path, {**NORM_CFG, key: []})
        assert main(["validate", str(path)]) == 2
        out = tmp_path / "out"
        assert main(["run", str(path), "--output-dir", str(out)]) == 2
        assert f"config.{key}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("theta", [
        {"x_field": "gaussian"},  # no xi side
        {"hermite": [2, 0], "x_field": "gaussian", "harmonic": [1, 1]},  # two x sides
    ])
    def test_se_theta_needs_one_side_each(self, theta, tmp_path, capsys):
        path = write_cfg(tmp_path, {**SE_CFG, "theta": theta})
        assert main(["validate", str(path)]) == 2
        out = tmp_path / "out"
        assert main(["run", str(path), "--output-dir", str(out)]) == 2
        assert "config.theta" in capsys.readouterr().err
        assert not out.exists()

    def test_whole_number_floats_are_integers(self, tmp_path, capsys):
        cfg = {**SMALL_NORM_CFG, "grid": {"d": 2.0, "N": 16.0, "L": 8.0}}
        assert main(["validate", str(write_cfg(tmp_path, cfg))]) == 0
        assert "ok" in capsys.readouterr().out

    @pytest.mark.parametrize("cfg, anchor", [
        ({**SMALL_NORM_CFG, "grid": {"d": 2, "N": 16, "L": True}}, "config.grid.L"),
        ({**COMMUTATOR_CFG, "q_list": [2, True]}, "config.q_list.1"),
        ({**NORM_CFG, "p_list": [2, 2.0]}, "config.p_list"),
    ], ids=["bool-L", "bool-q", "p-list-repeats"])
    def test_bools_are_not_numbers_and_equal_numbers_repeat(self, cfg, anchor,
                                                            tmp_path, capsys):
        path = write_cfg(tmp_path, cfg)
        assert main(["validate", str(path)]) == 2
        out = tmp_path / "out"
        assert main(["run", str(path), "--output-dir", str(out)]) == 2
        assert anchor in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_u_needs_three_indices_by_the_schema(self):
        # families.u is the family $ref together with a minItems beside it
        cfg = {**SWEEP_CFG, "families": {"u": {**U_FAMILY, "indices": [8, 16]}}}
        assert [e.split(":")[0] for e in validate_config(cfg)] == [
            "config.families.u.indices"]


U_FAMILY = SWEEP_CFG["families"]["u"]


class TestBuild:
    """validate builds what run builds, so the two fail alike before any
    numerics and neither writes a file."""

    @pytest.mark.parametrize("cfg, code", [
        pytest.param({**NORM_CFG, "fields": ["gaussain"]}, 2, id="unknown-field"),
        pytest.param({**SWEEP_CFG, "families": {"u": {**U_FAMILY, "indices": [8, 16]}}},
                     2, id="sweep-two-indices"),
        pytest.param({**LOCALIZATION_CFG, "indices": [2, 4]}, 2,
                     id="localization-two-indices"),
        pytest.param({**SWEEP_CFG, "symbols": ["riesz_3"]}, 2, id="riesz-3-on-d2"),
        pytest.param({**NORM_CFG, "grid": {"d": 2, "N": 48, "L": 16.0}}, 2, id="N-48"),
        pytest.param({**LOCALIZATION_CFG, "grid": {"d": 2, "N": 64, "L": 8.0}}, 2,
                     id="localization-d2"),
        pytest.param({**SWEEP_CFG, "families": {"u": {**U_FAMILY, "indices": [8, 16, 64]}}},
                     3, id="aliasing-index"),
        pytest.param({**SWEEP_CFG, "tensor": {"m_max": 30, "n_max": 1}}, 3,
                     id="hermite-box"),
        pytest.param({**LOCALIZATION_CFG,
                      "coefficients": LOCALIZATION_CFG["coefficients"][:2]}, 2,
                     id="localization-two-coefficients"),
        pytest.param({**SWEEP_CFG, "families": {"u": U_FAMILY,
                                                "v": {**U_FAMILY, "indices": [1000]}}},
                     2, id="sweep-v-indices"),
        # at k >= 1 the tensor pairs u_n with its dual, a v oscillation of
        # order -k; an order-2 u_n paired with itself reads 85.7 on a family
        # that is strongly null in W^{-2,2}
        pytest.param({**SWEEP_CFG,
                      "families": {"u": {**U_FAMILY, "order": 2, "prefactor_power": -0.5}},
                      "zero_check": {**SWEEP_CFG["zero_check"], "k": 2}},
                     2, id="zero-check-k2-without-v"),
        pytest.param({**SWEEP_CFG,
                      "families": {"u": {**U_FAMILY, "order": 2},
                                   "v": {**U_FAMILY, "order": -1}},
                      "zero_check": {**SWEEP_CFG["zero_check"], "k": 2}},
                     2, id="zero-check-k2-v-of-order-1"),
        pytest.param({**SWEEP_CFG,
                      "families": {"u": {**U_FAMILY, "order": 1},
                                   "v": {"kind": "concentration", "amplitude": "gaussian",
                                         "profile_width": 16.0, "indices": [8, 16, 32]}},
                      "zero_check": {**SWEEP_CFG["zero_check"], "k": 1}},
                     2, id="zero-check-k1-concentration-v"),
        pytest.param({**SE_CFG, "grid": {"d": 3, "N": 32, "L": 16.0},
                      "theta": {"hermite": [2, 0, 0], "harmonic": [2, 9]}}, 2,
                     id="harmonic-j-out-of-range"),
        pytest.param({**COMMUTATOR_CFG, "q_list": []}, 2, id="empty-q-list"),
        pytest.param({k: v for k, v in SWEEP_CFG.items() if k != "tensor"}, 2,
                     id="zero-check-without-tensor"),
        pytest.param({**NORM_CFG, "experiment": ["norm_suite"]}, 2,
                     id="experiment-not-a-name"),
        pytest.param({**NORM_CFG, "fields": [{"name": "gaussian", "params": {"width": [1]}}]},
                     2, id="param-of-wrong-type"),
        pytest.param({**SE_CFG, "theta": {"hermite": [2, 0], "harmonic": [5, 1]}}, 2,
                     id="harmonic-degree-above-n-max"),
        pytest.param({**COMMUTATOR_CFG, "family": {**COMMUTATOR_CFG["family"], "order": 3,
                                                   "center": [1, 1], "p": 7}},
                     2, id="family-keys-the-kind-never-reads"),
        pytest.param({**COMMUTATOR_CFG, "family": {"kind": "concentration", "amplitude":
                                                   "gaussian", "direction": [1, 0],
                                                   "indices": [1, 2, 4]}},
                     2, id="concentration-direction"),
        pytest.param({**COMMUTATOR_CFG, "family": {**COMMUTATOR_CFG["family"],
                                                   "profile_width": 2.0}},
                     2, id="oscillation-profile-width"),
        pytest.param({**COMMUTATOR_CFG, "family": {"kind": "concentration",
                                                   "amplitude": "gaussian",
                                                   "profile_width": 2.0, "center": [1.0],
                                                   "indices": [1, 2, 4]}},
                     2, id="concentration-center-of-another-dimension"),
        pytest.param({**NORM_CFG, "fields": [{"name": "coordinate", "params": {"axis": 1.9}}]},
                     2, id="fractional-field-axis"),
        pytest.param({**SWEEP_CFG, "symbols": [{"name": "smoothed_sign",
                                                "params": {"axis": 0.5}}]},
                     2, id="fractional-symbol-axis"),
        pytest.param({**COMMUTATOR_CFG, "q_list": [2, 4, 4.0]}, 2, id="q-list-repeats"),
        # limits.json and records.csv key a symbol by its name
        pytest.param({**SWEEP_CFG, "symbols": ["riesz_1", "riesz_1"]}, 2,
                     id="sweep-repeated-symbol"),
        pytest.param({**SWEEP_CFG, "symbols": ["constant_one", {"name": "constant_one",
                                                                "params": {"value": 1.0}}]},
                     2, id="sweep-repeated-symbol-name"),
        pytest.param({**COMMUTATOR_CFG, "b": {"name": "gaussian",
                                              "params": {"width": float("nan")}}},
                     2, id="nan-param"),
        pytest.param({**NORM_CFG, "fields": [{"name": "gaussian",
                                              "params": {"width": 10**400}}]},
                     2, id="int-param-beyond-float-range"),
        pytest.param({**NORM_CFG, "grid": {**NORM_CFG["grid"], "L": 10**400}},
                     2, id="int-grid-side-beyond-float-range"),
        # a repeated index would leave the limit fits fewer distinct points
        pytest.param({**SWEEP_CFG, "families": {"u": {**U_FAMILY, "indices": [8, 8, 16]}}},
                     2, id="sweep-repeated-index"),
        pytest.param({**LOCALIZATION_CFG, "indices": [2, 2, 4]}, 2,
                     id="localization-repeated-index"),
        pytest.param({**COMMUTATOR_CFG, "family": {**COMMUTATOR_CFG["family"],
                                                   "indices": [8, 8]}},
                     2, id="commutator-repeated-index"),
        # one oscillation kind, whose one exponent is order
        pytest.param({**COMMUTATOR_CFG, "family": {**COMMUTATOR_CFG["family"],
                                                   "kind": "scaled_oscillation"}},
                     2, id="scaled-oscillation-kind"),
        pytest.param({**COMMUTATOR_CFG, "family": {**COMMUTATOR_CFG["family"], "k": 1}},
                     2, id="family-k"),
        # n h = 4/8 = w/2, the old edge of the concentration guard
        pytest.param({**COMMUTATOR_CFG, "family": {"kind": "concentration",
                                                   "amplitude": "gaussian",
                                                   "indices": [1, 2, 4]}},
                     3, id="concentration-at-half-width"),
    ])
    def test_validate_exits_as_run(self, cfg, code, tmp_path, capsys):
        path = write_cfg(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["validate", str(path)]) == code
        assert "ok" not in capsys.readouterr().out
        assert main(["run", str(path), "--output-dir", str(out)]) == code
        assert not out.exists()

    @pytest.mark.parametrize("family", [
        {"kind": "oscillation", "amplitude": "gaussian", "direction": [1, 0],
         "order": -1, "prefactor_power": 0.5, "indices": [8, 16, 32]},
        {"kind": "concentration", "amplitude": "gaussian", "p": 2.0, "center": [0, 0],
         "profile_width": 2.0, "prefactor_power": 0.5, "indices": [1, 2, 4]},
    ], ids=["oscillation", "concentration"])
    def test_family_keys_each_kind_reads(self, family, tmp_path, capsys):
        path = write_cfg(tmp_path, {**COMMUTATOR_CFG, "family": family})
        assert main(["validate", str(path)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_zero_check_at_k2_takes_a_v_of_order_minus_2(self, tmp_path, capsys):
        cfg = {**SWEEP_CFG, "families": {"u": {**U_FAMILY, "order": 2},
                                         "v": {**U_FAMILY, "order": -2}},
               "zero_check": {**SWEEP_CFG["zero_check"], "k": 2}}
        assert main(["validate", str(write_cfg(tmp_path, cfg))]) == 0
        assert "ok" in capsys.readouterr().out

    def test_validate_runs_no_numerics(self, tmp_path, monkeypatch):
        counts = {"fft": 0, "u": 0}
        patch_fft(monkeypatch, counts, "fft", "fft")
        monkeypatch.setattr(SequenceFamily, "u", counted(counts, "u", SequenceFamily.u))
        paths = {name: write_cfg(tmp_path, cfg, f"{name}.json")
                 for name, cfg in sorted(FULL_CFGS.items())}
        for path in paths.values():
            assert main(["validate", str(path)]) == 0
        assert counts == {"fft": 0, "u": 0}
        # the same counters see the numerics of a run
        out = tmp_path / "out"
        assert main(["run", str(paths["commutator"]), "--output-dir", str(out)]) == 0
        assert counts["fft"] > 0 and counts["u"] > 0

    def test_readme_config_builds(self):
        # the README's one json block is a config that passes the schema and
        # builds, so the documented example cannot drift from the schema
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        [block] = re.findall(r"```json\n(.*?)```", readme, re.S)
        assert callable(cli.build_config(json.loads(block)))

    def test_builders_are_called_through_the_module(self, monkeypatch):
        # the benchmark's tracer counts make_field by swapping the module
        # attribute in every hdist module that imported it; a reference a
        # builder captured at import would hide its calls from the count
        counts = dict.fromkeys(FULL_CFGS, 0)
        for module in (cli, localization, registry):
            assert module.make_field is registry.make_field

        def counting(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        original = registry.make_field
        for module in (cli, localization, registry):
            monkeypatch.setattr(module, "make_field", counting)
        for name, cfg in sorted(FULL_CFGS.items()):
            cli.build_config(cfg)
        # localization builds one field for its equal phi1 and phi2 specs
        assert counts == {"commutator": 2, "hdist_sweep": 4, "localization": 6,
                          "norm_suite": 2, "se_analysis": 0}
        name = "localization"
        counts[name] = 0
        cfg = FULL_CFGS[name]
        phi2 = {"name": "gaussian", "params": {"width": 1.4}}
        cli.build_config({**cfg, "test_functions": {**cfg["test_functions"], "phi2": phi2}})
        assert counts[name] == 7


class TestMain:
    def test_validate_subcommand(self, tmp_path, capsys):
        path = write_cfg(tmp_path, SWEEP_CFG)
        assert main(["validate", str(path)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_validate_rejects(self, tmp_path, capsys):
        bad = dict(SWEEP_CFG)
        bad["bogus"] = True
        path = write_cfg(tmp_path, bad)
        assert main(["validate", str(path)]) == 2
        assert "bogus" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"experiment": ')
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert "broken.json:1" in err

    # NaN is a test_validate_exits_as_run case; 1e400 overflows to inf
    @pytest.mark.parametrize("literal", ["-Infinity", "1e400"])
    def test_non_finite_number_rejected(self, literal, tmp_path, capsys):
        text = json.dumps(NORM_CFG).replace('"p_list": [2.0]', f'"p_list": [{literal}]')
        path = tmp_path / "config.json"
        path.write_text(text)
        assert main(["validate", str(path)]) == 2
        assert literal in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["run", "/nonexistent/cfg.json"]) == 2

    def test_list_subcommand(self, capsys):
        assert main(["list"]) == 0
        dump = json.loads(capsys.readouterr().out)
        assert "gaussian" in dump["fields"]
        assert "riesz_1" in dump["symbols"]

    def test_guard_violation_exit_code(self, tmp_path, capsys):
        cfg = json.loads(json.dumps(SWEEP_CFG))
        cfg["families"]["u"]["indices"] = [8, 16, 64]  # 64 > N/4
        del cfg["tensor"], cfg["zero_check"]
        path = write_cfg(tmp_path, cfg)
        assert main(["run", str(path), "--output-dir", str(tmp_path / "out")]) == 3
        assert "guard" in capsys.readouterr().err

    def test_failed_run_writes_nothing(self, tmp_path, capsys):
        # the pairing stage succeeds; the tensor stage trips the Hermite
        # support guard (m_max = 12 does not fit a box of side 8)
        ok = json.loads(json.dumps(SWEEP_CFG))
        ok["grid"] = {"d": 2, "N": 64, "L": 8.0}
        ok["families"]["u"]["indices"] = [4, 8, 16]
        del ok["tensor"], ok["zero_check"]
        bad = {**ok, "tensor": {"m_max": 12, "n_max": 1}}
        bad_path = write_cfg(tmp_path, bad, "bad.json")

        fresh = tmp_path / "fresh"
        assert main(["run", str(bad_path), "--output-dir", str(fresh)]) == 3
        assert "guard" in capsys.readouterr().err
        assert not fresh.exists()

        used = tmp_path / "used"
        assert main(["run", str(write_cfg(tmp_path, ok)), "--output-dir", str(used)]) == 0
        before = {f.name: f.read_bytes() for f in used.iterdir()}
        assert main(["run", str(bad_path), "--output-dir", str(used)]) == 3
        assert {f.name: f.read_bytes() for f in used.iterdir()} == before

    def test_unencodable_artifact_writes_nothing(self, tmp_path):
        # a NaN that reaches run_config without load_config computes, then
        # fails strict JSON encoding: no file may be left behind
        cfg = {**COMMUTATOR_CFG, "b": {"name": "gaussian",
                                       "params": {"width": float("nan")}}}
        with pytest.raises(ValueError, match="JSON compliant"):
            run_config(cfg, output_dir=tmp_path / "out")
        assert not (tmp_path / "out").exists()

    @pytest.fixture
    def taken(self, tmp_path):
        """A file where a run might be told to write its directory."""
        path = tmp_path / "taken"
        path.write_text("kept")
        return path

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_output_dir_naming_a_file_exits_2(self, command, taken, tmp_path, capsys):
        path = write_cfg(tmp_path, {**SMALL_NORM_CFG, "output_dir": str(taken)})
        assert main([command, str(path)]) == 2
        assert "is not a directory" in capsys.readouterr().err
        assert taken.read_text() == "kept"

    def test_output_dir_option_naming_a_file_exits_before_the_compute(
            self, taken, tmp_path, monkeypatch, capsys):
        def compute(*args):
            raise AssertionError("the compute ran")

        monkeypatch.setattr(cli, "norm_table", compute)
        path = write_cfg(tmp_path, SMALL_NORM_CFG)
        assert main(["run", str(path), "--output-dir", str(taken)]) == 2
        assert "is not a directory" in capsys.readouterr().err
        assert taken.read_text() == "kept"

    def test_failed_write_exits_2(self, taken, tmp_path, capsys):
        # no directory can be made below a file: the run computes, then its
        # first write fails
        path = write_cfg(tmp_path, SMALL_NORM_CFG)
        assert main(["run", str(path), "--output-dir", str(taken / "out")]) == 2
        assert "error: cannot write" in capsys.readouterr().err
        assert taken.read_text() == "kept"

    def test_run_sweep(self, tmp_path, capsys):
        path = write_cfg(tmp_path, SWEEP_CFG)
        out = tmp_path / "out"
        assert main(["run", str(path), "--output-dir", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["checks"]["adjoint_form_agreement"]["passed"]
        assert summary["checks"]["zero_check_consistent"]["passed"] is not None
        assert (out / "records.csv").exists()
        assert (out / "limits.json").exists()
        assert (out / "tensor.json").exists()
        header = (out / "records.csv").read_text().splitlines()[0]
        assert header.startswith("# config_hash=")


class TestExperiments:
    def test_sweep_builds_and_fits_tensor_once(self, tmp_path, monkeypatch):
        calls = {"mu_tensor": 0, "fit_limit": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for module, name in ((cli, "mu_tensor"), (functional, "mu_tensor"),
                             (cli, "fit_limit"), (functional, "fit_limit"),
                             (sobolev, "fit_limit")):
            monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        summary = run_config(SWEEP_CFG, output_dir=tmp_path)
        # one fit per symbol, one for the tensor, one for the strong norms
        assert calls == {"mu_tensor": 1,
                         "fit_limit": len(SWEEP_CFG["symbols"]) + 2}
        tensor = json.loads((tmp_path / "tensor.json").read_text())["tensor"]
        assert (summary["checks"]["flagged_limits"]["tensor_entries"]
                == sum(map(sum, tensor["flagged"])))

    def test_flagged_limit_reported_in_summary(self, tmp_path):
        # pairings of a family growing like n grow like n^2: no limit exists
        cfg = json.loads(json.dumps(SWEEP_CFG))
        cfg["families"]["u"]["prefactor_power"] = 1.0
        del cfg["tensor"], cfg["zero_check"]
        summary = run_config(cfg, output_dir=tmp_path)
        limits = json.loads((tmp_path / "limits.json").read_text())["limits"]
        assert limits["constant_one"]["flagged"]
        flagged = sorted(name for name, lim in limits.items() if lim["flagged"])
        assert summary["checks"]["flagged_limits"] == {"limits": flagged}

    def test_commutator_outputs(self, tmp_path):
        summary = run_config(COMMUTATOR_CFG, output_dir=tmp_path)
        assert summary["checks"]["preconditions"]["passed"]
        data = json.loads((tmp_path / "commutator.json").read_text())
        assert "table" in data and data["config_hash"] == summary["config_hash"]
        lines = (tmp_path / "commutator.csv").read_text().splitlines()
        assert lines[1].split(",") == ["n", "q", "norm", "fitted_exponent"]

    def test_commutator_decay_exponent_is_scale_invariant(self, tmp_path):
        # |C v_n| is linear in b, so a rescaled b must report the same exponents
        plain = run_config(COMMUTATOR_CFG, output_dir=tmp_path / "plain")
        cfg = {**COMMUTATOR_CFG, "b": {"scale": 1e-12, "of": "gaussian"}}
        scaled = run_config(cfg, output_dir=tmp_path / "scaled")
        want, got = plain["checks"]["decay"], scaled["checks"]["decay"]
        assert want.keys() == got.keys()
        for label, fit in want.items():
            assert fit["exponent"] < 0
            assert got[label]["exponent"] == pytest.approx(fit["exponent"], rel=1e-12)

    def test_localization_outputs(self, tmp_path):
        summary = run_config(LOCALIZATION_CFG, output_dir=tmp_path)
        data = json.loads((tmp_path / "localization.json").read_text())
        for key in ("characteristic_flag", "baseline", "char_pairing", "ratio",
                    "rates"):
            assert key in data
        assert data["characteristic_flag"] is True
        flagged = [k for k in ("baseline", "char_pairing") if data[k]["flagged"]]
        assert summary["checks"]["flagged_limits"] == {"limits": flagged}

    def test_localization_zero_amplitude_is_strict_json(self, tmp_path):
        cfg = json.loads(json.dumps(LOCALIZATION_CFG))
        cfg["amplitude"] = {"scale": 0.0, "of": cfg["amplitude"]}
        path = write_cfg(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["run", str(path), "--output-dir", str(out)]) == 0

        def reject(token):
            raise ValueError(f"non-finite JSON constant {token}")

        for name in ("localization.json", "summary.json"):
            data = json.loads((out / name).read_text(), parse_constant=reject)
            ratio = data["ratio"] if name == "localization.json" else \
                data["checks"]["ratio"]["value"]
            assert ratio is None

    def test_se_analysis_single_coefficient(self, tmp_path):
        summary = run_config(SE_CFG, output_dir=tmp_path)
        coeffs = json.loads((tmp_path / "se_coeffs.json").read_text())
        entries = coeffs["coefficients"]["entries"]
        flat = [abs(complex(re, im)) for _, _, (re, im) in entries]
        top = sorted(flat)[-1]
        assert top == pytest.approx(1.0, abs=1e-8)
        assert sum(v > 1e-6 for v in flat) == 1
        member = json.loads((tmp_path / "se_membership.json").read_text())
        assert member["membership"]["verdict"] == "consistent with SE"

    def test_norm_suite(self, tmp_path):
        summary = run_config(NORM_CFG, output_dir=tmp_path)
        assert summary["checks"]["norm_equivalence"]["passed"]
        data = json.loads((tmp_path / "norms.json").read_text())
        assert len(data["norms"]) == 2

    def test_registry_names_valid_in_configs(self):
        # every dumped builtin name round-trips through the config schema
        from hdist.registry import list_builtins

        dump = list_builtins()
        cfg = json.loads(json.dumps(NORM_CFG))
        cfg["fields"] = sorted(dump["fields"])
        assert validate_config(cfg) == []
        cfg2 = json.loads(json.dumps(SWEEP_CFG))
        cfg2["symbols"] = sorted(dump["symbols"])
        assert validate_config(cfg2) == []

    def test_outputs_stamped_with_version(self, tmp_path):
        import hdist

        summary = run_config(NORM_CFG, output_dir=tmp_path)
        assert summary["version"] == hdist.__version__
        data = json.loads((tmp_path / "norms.json").read_text())
        assert data["version"] == hdist.__version__
        assert data["config_hash"] == summary["config_hash"]

    def test_determinism_byte_identical(self, tmp_path):
        for cfg in (SWEEP_CFG, SE_CFG):
            outs = [tmp_path / cfg["experiment"] / run for run in ("a", "b")]
            for out in outs:
                run_config(cfg, output_dir=out)
            first, second = ({f.name: f.read_bytes() for f in out.iterdir()}
                             for out in outs)
            assert first == second, cfg["experiment"]
            assert sorted(first) == sorted(
                json.loads(first["summary.json"])["artifacts"] + ["summary.json"])

    @pytest.mark.parametrize("cfg", [SWEEP_CFG, COMMUTATOR_CFG], ids=["sweep", "commutator"])
    def test_whole_number_float_indices_write_as_ints(self, cfg, tmp_path):
        # the schema takes 8.0 as an integer; the artifacts must read 8
        floats = json.loads(json.dumps(cfg))
        family = floats["families"]["u"] if "families" in floats else floats["family"]
        family["indices"] = [float(n) for n in family["indices"]]
        texts = []
        for run, c in (("int", cfg), ("float", floats)):
            run_config(c, output_dir=tmp_path / run)
            # the stamp is the one place the configs may differ
            texts.append({f.name: f.read_text().replace(canonical_hash(c), "HASH")
                          for f in (tmp_path / run).iterdir()})
        assert canonical_hash(cfg) != canonical_hash(floats)
        assert texts[0] == texts[1]

    def test_q_list_number_form_does_not_reach_artifacts(self, tmp_path):
        # q_list [2, 4] and [2.0, 4.0] are one config: every artifact reads
        # the same, commutator.json's table.meta.q_list included
        texts = []
        for run, qs in (("int", [2, 4]), ("float", [2.0, 4.0])):
            cfg = {**COMMUTATOR_CFG, "q_list": qs}
            run_config(cfg, output_dir=tmp_path / run)
            texts.append({f.name: f.read_text().replace(canonical_hash(cfg), "HASH")
                          for f in (tmp_path / run).iterdir()})
        assert texts[0] == texts[1]
        table = json.loads(texts[0]["commutator.json"])["table"]
        assert json.dumps(table["meta"]["q_list"]) == "[2.0, 4.0]"


NORM_ORACLE_CFG = {**NORM_CFG, "fields": ["gaussian", "bump"],
                   "k_list": [0, 1, 2], "p_list": [1.5, 2.0, 4.0]}


def counted(counts, key, fn):
    def wrapper(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)
    return wrapper


def patch_fft(monkeypatch, counts, forward, inverse):
    """Count the transforms that grid.dft / grid.idft / grid.round_trips make,
    complex and real."""
    for name, key in [("fftn", forward), ("ifftn", inverse),
                      ("rfftn", forward), ("irfftn", inverse)]:
        monkeypatch.setattr(np.fft, name, counted(counts, key, getattr(np.fft, name)))


def grid_of(cfg):
    return Grid(cfg["grid"]["d"], cfg["grid"]["N"], cfg["grid"]["L"])


class TestOnePass:
    def test_norm_suite_counts(self, monkeypatch):
        cfg = NORM_ORACLE_CFG
        grid = grid_of(cfg)
        counts = {"fft": 0, "build": 0}
        patch_fft(monkeypatch, counts, "fft", "fft")
        for name in ("derivative_op", "bessel_potential"):
            monkeypatch.setattr(sobolev, name,
                                counted(counts, "build", getattr(sobolev, name)))
        cli.RUNNERS["norm_suite"](cfg, grid)()
        k_max = max(cfg["k_list"])
        derivs = len(multi_indices(grid.d, k_max)) - 1  # 0 < |alpha| <= max k
        smoothing = len({k for k in cfg["k_list"] if k > 0})
        assert counts["fft"] == len(cfg["fields"]) * (1 + derivs + smoothing)
        assert counts["build"] == derivs + smoothing

    def test_sweep_counts(self, monkeypatch):
        grid = grid_of(SWEEP_CFG)
        ns = SWEEP_CFG["families"]["u"]["indices"]
        symbols = len(SWEEP_CFG["symbols"])
        harmonics = SphericalHarmonicBasis.build(
            grid.d, SWEEP_CFG["tensor"]["n_max"]).size
        counts = {"forward": 0, "inverse": 0, "u": 0}
        patch_fft(monkeypatch, counts, "forward", "inverse")
        monkeypatch.setattr(SequenceFamily, "u", counted(counts, "u", SequenceFamily.u))
        v = {**U_FAMILY, "amplitude": {"name": "gaussian", "params": {"width": 1.5}}}
        # v is u: one sample per index, shared; a distinct v: one more per index
        for families, samples in (({"u": U_FAMILY}, len(ns)),
                                  ({"u": U_FAMILY, "v": v}, 2 * len(ns))):
            counts.update(forward=0, inverse=0, u=0)
            checks, _ = cli.RUNNERS["hdist_sweep"]({**SWEEP_CFG, "families": families},
                                                   grid)()
            assert counts["u"] == samples
            # records: phi1 u_n and phi2 v_n forward once per index, form A
            # one inverse (the image) and form B one forward (the adjoint
            # image) per symbol and index; tensor: v_n forward once per index,
            # one forward (the adjoint image) per harmonic and index; the
            # k = 0 strong probe takes none
            assert counts["forward"] == 3 * len(ns) + (harmonics + symbols) * len(ns)
            assert counts["inverse"] == symbols * len(ns)
            assert counts["forward"] + counts["inverse"] == (
                3 * len(ns) + (2 * symbols + harmonics) * len(ns))
            assert checks["adjoint_form_agreement"]["passed"]


def by_exponent(part):
    """A norms.json part keyed by what its labels read back to: "1.5" -> 1.5,
    "k=1,q=1.5" -> (1, 1.5)."""
    out = {}
    for key, value in part.items():
        if "," in key:
            k, x = (item.split("=")[1] for item in key.split(","))
            out[int(k), float(x)] = value
        else:
            out[float(key)] = value
    assert len(out) == len(part)  # distinct labels read back to distinct exponents
    return out


def assert_norms_match_one_at_a_time(table, fields, cfg):
    """Each norms.json entry keys exactly cfg's exponents, and its numbers are
    lp_norm, wkq_norm and surrogate_negative_norm computed one at a time."""
    assert len(table) == len(fields)
    kp = {(k, p) for k in cfg["k_list"] for p in cfg["p_list"]}

    def close(got, want):
        assert abs(got - want) <= 1e-13 * abs(want)

    for entry, f in zip(table, fields):
        lp, wkq, negative = (by_exponent(entry[part]) for part in ("lp", "wkq", "negative"))
        assert set(lp) == set(cfg["p_list"]) and set(wkq) == set(negative) == kp
        for p in cfg["p_list"]:
            close(lp[p], lp_norm(f, p))
            for k in cfg["k_list"]:
                close(wkq[k, p], wkq_norm(f, k, p))
                # d^(k,0,...) f has the one part f: its representation bound
                # is |f|_p; a real f's derivative is the real part of derivative's
                u = derivative(f, (k,) + (0,) * (f.grid.d - 1))
                if not np.iscomplexobj(f.values):
                    u = GridFunction(f.grid, u.values.real)
                close(negative[k, p]["surrogate"], surrogate_negative_norm(u, k, p))
                close(negative[k, p]["representation_upper"], lp_norm(f, p))


def test_norm_suite_matches_one_at_a_time(tmp_path, monkeypatch):
    cfg = NORM_ORACLE_CFG
    grid = grid_of(cfg)
    fields = {name: random_smooth(grid, seed=i + 1)
              for i, name in enumerate(cfg["fields"])}
    monkeypatch.setattr(cli, "make_field", lambda grid, spec: fields[spec])
    run_config(cfg, output_dir=tmp_path)
    table = json.loads((tmp_path / "norms.json").read_text())["norms"]
    assert_norms_match_one_at_a_time(table, list(fields.values()), cfg)


# exponents that f"{x:g}" rounds label their columns exactly, and the dual
# pair p = 4/3, p' = 4 and r = 8/3 run
@pytest.mark.parametrize("cfg", [
    pytest.param({**COMMUTATOR_CFG, "q_list": [2.123456789, 4, 4.0000001]},
                 id="q-list-labels-round"),
    pytest.param({**COMMUTATOR_CFG, "r": 4.0000001}, id="r-label-rounds"),
    pytest.param({**COMMUTATOR_CFG, "r": 8 / 3}, id="r-eight-thirds"),
    pytest.param({**NORM_CFG, "p_list": [2, 2.0000001]}, id="p-list-labels-collide"),
    pytest.param({**NORM_CFG, "p_list": [4 / 3, 4]}, id="p-list-dual-pair"),
    # integer exponents: the CSV writes q as 2.0 and 4.0
    pytest.param({**COMMUTATOR_CFG, "q_list": [2, 4]}, id="q-list-integers"),
])
def test_exponent_labels_read_back_exactly(cfg, tmp_path):
    path, out = write_cfg(tmp_path, cfg), tmp_path / "out"
    assert main(["validate", str(path)]) == 0
    assert main(["run", str(path), "--output-dir", str(out)]) == 0
    if cfg["experiment"] == "norm_suite":
        table = json.loads((out / "norms.json").read_text())["norms"]
        fields = [registry.make_field(grid_of(cfg), spec) for spec in cfg["fields"]]
        assert_norms_match_one_at_a_time(table, fields, cfg)
        return
    qs = cfg.get("q_list", [2.0, cfg.get("r")])
    columns = json.loads((out / "commutator.json").read_text())["table"]["columns"]
    assert len(columns) == len(qs)
    assert sorted(float(label.split("=")[1]) for label in columns) == sorted(qs)
    lines = (out / "commutator.csv").read_text().splitlines()
    assert {row[1] for row in csv.reader(lines[2:])} == {repr(float(q)) for q in qs}


def test_two_widths_of_one_smoothed_sign_axis_sweep(tmp_path):
    # a width other than the default enters the symbol's name, so the sweep
    # keys one limit per width instead of refusing a repeated name
    cfg = {**SWEEP_CFG, "symbols": [{"name": "smoothed_sign", "params": {"eps": 0.25}},
                                    {"name": "smoothed_sign", "params": {"eps": 1.0}}]}
    del cfg["tensor"], cfg["zero_check"]
    path, out = write_cfg(tmp_path, cfg), tmp_path / "out"
    assert main(["validate", str(path)]) == 0
    assert main(["run", str(path), "--output-dir", str(out)]) == 0
    limits = json.loads((out / "limits.json").read_text())["limits"]
    assert sorted(limits) == ["smoothed_sign_1", "smoothed_sign_1_eps=1"]
    assert limits["smoothed_sign_1"]["value"] != limits["smoothed_sign_1_eps=1"]["value"]
    rows = csv.DictReader((out / "records.csv").read_text().splitlines()[1:])
    assert sorted(row["psi"] for row in rows) == sorted(list(limits) * 3)  # 3 indices
    # one width named twice is still a repeated name
    cfg["symbols"][0]["params"]["eps"] = 1
    assert main(["validate", str(write_cfg(tmp_path, cfg, "same.json"))]) == 2


@pytest.mark.parametrize("c", [1e80, 1e-90])
def test_norm_suite_scales_with_the_field(c, tmp_path):
    # unscaled powers made |c f|_4 read 0 at 1e-90, and at 1e80 wrote an
    # infinite norm that strict JSON refused
    cfg = {**NORM_CFG, "k_list": [0, 1, 2], "p_list": [1.5, 2.0, 4.0]}
    entries = []
    for field in ("gaussian", {"scale": c, "of": "gaussian"}):
        path = write_cfg(tmp_path, {**cfg, "fields": [field]})
        out = tmp_path / f"out{len(entries)}"
        assert main(["run", str(path), "--output-dir", str(out)]) == 0
        entries.append(json.loads((out / "norms.json").read_text())["norms"][0])
    plain, scaled = entries
    pairs = [(scaled[part][key], plain[part][key])
             for part in ("lp", "wkq") for key in plain[part]]
    pairs += [(scaled["negative"][key][side], plain["negative"][key][side])
              for key in plain["negative"] for side in plain["negative"][key]]
    assert len(pairs) == 3 + 2 * 9 + 9
    for got, want in pairs:
        assert abs(got - c * want) <= 1e-13 * c * want


def test_norm_suite_entries_do_not_depend_on_the_other_fields(tmp_path):
    # a complex field in the list keeps the real one on the half lattice,
    # and i times a field reads that field's norms
    cfg = {**NORM_CFG, "k_list": [0, 1, 2], "p_list": [1.5, 2.0, 4.0]}
    runs = []
    for fields in (["gaussian", {"scale": [0, 1], "of": "gaussian"}], ["gaussian"]):
        path = write_cfg(tmp_path, {**cfg, "fields": fields})
        out = tmp_path / f"out{len(runs)}"
        assert main(["run", str(path), "--output-dir", str(out)]) == 0
        runs.append(json.loads((out / "norms.json").read_text())["norms"])
    (real, imag), (alone,) = runs
    assert json.dumps(real, sort_keys=True) == json.dumps(alone, sort_keys=True)
    pairs = [(imag[part][key], real[part][key])
             for part in ("lp", "wkq") for key in real[part]]
    pairs += [(imag["negative"][key][side], real["negative"][key][side])
              for key in real["negative"] for side in real["negative"][key]]
    assert len(pairs) == 3 + 2 * 9 + 9
    for got, want in pairs:
        assert abs(got - want) <= 1e-13 * want


def _libc_has_mallopt():
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


class TestKeepHeap:
    """Importing hdist.cli keeps freed lattice arrays in the process heap."""

    @pytest.mark.skipif(not _libc_has_mallopt(), reason="libc has no mallopt")
    def test_round_trips_fault_in_no_fresh_pages(self):
        resource = pytest.importorskip("resource")
        grid = Grid(3, 64, 8.0)
        m = bessel_potential(grid, -1.0).m
        f = GridFunction(grid, np.random.default_rng(0).normal(size=grid.shape))
        for _ in range(2):  # warm up: the heap grows to the working set
            idft(grid, m * dft(f))
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(10):
            idft(grid, m * dft(f))
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        assert faults < 64, f"{faults} minor faults in ten 64^3 round trips"

    def test_trim_threshold_only_after_the_mmap_one(self, monkeypatch):
        monkeypatch.setattr(ctypes, "CDLL", lambda name: types.SimpleNamespace())
        cli._keep_heap()  # no mallopt: returns quietly
        for accepted, want in ((0, [(-3, 32 << 20)]),
                               (1, [(-3, 32 << 20), (-1, 1 << 30)])):
            calls = []

            def mallopt(param, value):
                calls.append((param, value))
                return accepted

            monkeypatch.setattr(ctypes, "CDLL",
                                lambda name: types.SimpleNamespace(mallopt=mallopt))
            cli._keep_heap()
            assert calls == want  # the trim threshold only after the mmap one


IMPORT_PATH_SCRIPT = """
import json, sys

def unwanted_modules():
    return sorted(m for m in sys.modules
                  if m.partition(".")[0] in ("scipy", "jsonschema"))

from hdist.cli import run_config
loaded = {"import": unwanted_modules()}
for i, cfg in enumerate(json.loads(sys.argv[1])):
    run_config(cfg, output_dir=f"{sys.argv[2]}/{i}")
    loaded[cfg["experiment"]] = unwanted_modules()

import numpy as np
from scipy.special import sph_harm_y
from hdist.symbol import SphericalHarmonicBasis
from hdist.util import canonical_hash, multi_indices
basis = SphericalHarmonicBasis.build(3, 2)
x = basis.quadrature.nodes
theta, phi = np.arccos(np.clip(x[2], -1.0, 1.0)), np.arctan2(x[1], x[0])
want = np.stack([sph_harm_y(n, j - 1 - n, theta, phi) for n, j in basis.indices])
loaded["harmonics_error"] = float(np.max(np.abs(basis.table - want)))
print(json.dumps(loaded))
"""


class TestImportPath:
    def test_two_dimensional_runs_and_localization_load_no_scipy(self, tmp_path):
        # a fresh process, since this one already holds scipy; the 3-D
        # harmonics still import scipy.special where they are built.  The
        # config check needs no jsonschema either
        cfgs = [COMMUTATOR_CFG, NORM_CFG, SWEEP_CFG, LOCALIZATION_CFG]
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run([sys.executable, "-c", IMPORT_PATH_SCRIPT, json.dumps(cfgs),
                               str(tmp_path)], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        loaded = json.loads(proc.stdout.strip().splitlines()[-1])
        error = loaded.pop("harmonics_error")
        assert loaded == {"import": [], "commutator": [], "norm_suite": [],
                          "hdist_sweep": [], "localization": []}
        assert error <= 1e-13
