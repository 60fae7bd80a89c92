import json
from pathlib import Path

import pytest

from hdist.cli import main, run_config, validate_config

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

    def test_missing_required(self):
        cfg = {k: v for k, v in COMMUTATOR_CFG.items() if k != "symbol"}
        assert validate_config(cfg)


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

    def test_missing_file(self, capsys):
        assert main(["run", "/nonexistent/cfg.json"]) == 2

    def test_list_subcommand(self, capsys):
        assert main(["list"]) == 0
        dump = json.loads(capsys.readouterr().out)
        assert "gaussian" in dump["fields"]
        assert "riesz_1" in dump["symbols"]

    def test_guard_violation_exit_code(self, tmp_path, capsys):
        cfg = json.loads(json.dumps(SWEEP_CFG))
        cfg["families"]["u"]["indices"] = [8, 64]  # 64 > N/4
        del cfg["tensor"], cfg["zero_check"]
        path = write_cfg(tmp_path, cfg)
        assert main(["run", str(path), "--output-dir", str(tmp_path / "out")]) == 3
        assert "guard" in capsys.readouterr().err

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
    def test_commutator_outputs(self, tmp_path):
        summary = run_config(COMMUTATOR_CFG, output_dir=tmp_path)
        assert summary["checks"]["preconditions"]["passed"]
        data = json.loads((tmp_path / "commutator.json").read_text())
        assert "table" in data and data["config_hash"] == summary["config_hash"]
        lines = (tmp_path / "commutator.csv").read_text().splitlines()
        assert lines[1].split(",") == ["n", "q", "norm", "fitted_exponent"]

    def test_localization_outputs(self, tmp_path):
        summary = run_config(LOCALIZATION_CFG, output_dir=tmp_path)
        data = json.loads((tmp_path / "localization.json").read_text())
        for key in ("characteristic_flag", "baseline", "char_pairing", "ratio",
                    "rates"):
            assert key in data
        assert data["characteristic_flag"] is True

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
        flat = [abs(complex(re, im)) for row in entries for re, im in row]
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
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run_config(SWEEP_CFG, output_dir=out1)
        run_config(SWEEP_CFG, output_dir=out2)
        for name in ("summary.json", "limits.json", "tensor.json",
                     "zero_check.json", "records.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
