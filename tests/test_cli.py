import json
from pathlib import Path

import numpy as np
import pytest
import scipy.fft

from hdist import cli, functional, sobolev
from hdist.cli import CONFIG_SCHEMAS, main, run_config, validate_config
from hdist.grid import Grid, lp_norm
from hdist.multiplier import derivative
from hdist.sobolev import SequenceFamily, surrogate_negative_norm, wkq_norm
from hdist.symbol import SphericalHarmonicBasis
from hdist.util import multi_indices

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
        pytest.param({**NORM_CFG, "fields": [{"name": "coordinate", "params": {"axis": 1.9}}]},
                     2, id="fractional-field-axis"),
        pytest.param({**SWEEP_CFG, "symbols": [{"name": "smoothed_sign",
                                                "params": {"axis": 0.5}}]},
                     2, id="fractional-symbol-axis"),
        pytest.param({**COMMUTATOR_CFG, "q_list": [2.123456789, 4, 4.0000001]}, 2,
                     id="q-list-labels-round"),
        pytest.param({**COMMUTATOR_CFG, "q_list": [2, 4, 4.0]}, 2, id="q-list-repeats"),
        pytest.param({**COMMUTATOR_CFG, "r": 4.0000001}, 2, id="r-label-rounds"),
        pytest.param({**NORM_CFG, "p_list": [2, 2.0000001]}, 2, id="p-list-labels-collide"),
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
                             (cli, "fit_limit"), (functional, "fit_limit")):
            monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        summary = run_config(SWEEP_CFG, output_dir=tmp_path)
        assert calls == {"mu_tensor": 1,
                         "fit_limit": len(SWEEP_CFG["symbols"]) + 1}
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


NORM_ORACLE_CFG = {**NORM_CFG, "fields": ["gaussian", "bump"],
                   "k_list": [0, 1, 2], "p_list": [1.5, 2.0, 4.0]}


def counted(counts, key, fn):
    def wrapper(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)
    return wrapper


def patch_fft(monkeypatch, counts, forward, inverse):
    """Count the transforms that grid.dft / grid.idft make."""
    monkeypatch.setattr(scipy.fft, "fftn", counted(counts, forward, scipy.fft.fftn))
    monkeypatch.setattr(scipy.fft, "ifftn", counted(counts, inverse, scipy.fft.ifftn))


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
        cli.RUNNERS["hdist_sweep"](SWEEP_CFG, grid)()
        assert counts["u"] == len(ns)  # v is u: one sample per index, shared
        # records: phi1 u_n and phi2 v_n forward once per index, forms A and
        # B one inverse each per symbol and index; tensor: v_n forward once
        # per index, one inverse per harmonic and index; the k = 0 strong
        # probe takes none
        assert counts["forward"] == 2 * len(ns) + len(ns)
        assert counts["inverse"] == 2 * symbols * len(ns) + harmonics * len(ns)


def test_norm_suite_matches_one_at_a_time(tmp_path, monkeypatch):
    cfg = NORM_ORACLE_CFG
    grid = grid_of(cfg)
    fields = {name: random_smooth(grid, seed=i + 1)
              for i, name in enumerate(cfg["fields"])}
    monkeypatch.setattr(cli, "make_field", lambda grid, spec: fields[spec])
    run_config(cfg, output_dir=tmp_path)
    table = json.loads((tmp_path / "norms.json").read_text())["norms"]
    assert len(table) == len(fields)

    def close(got, want):
        assert abs(got - want) <= 1e-13 * abs(want)

    for entry, f in zip(table, fields.values()):
        for p in cfg["p_list"]:
            close(entry["lp"][f"{p:g}"], lp_norm(f, p))
            for k in cfg["k_list"]:
                close(entry["wkq"][f"k={k},q={p:g}"], wkq_norm(f, k, p))
                # d^(k,0,...) f has the one part f: its representation bound is |f|_p
                u = derivative(f, (k,) + (0,) * (grid.d - 1))
                neg = entry["negative"][f"k={k},p={p:g}"]
                close(neg["surrogate"], surrogate_negative_norm(u, k, p))
                close(neg["representation_upper"], lp_norm(f, p))
