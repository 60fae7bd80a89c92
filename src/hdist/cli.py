"""Config-driven experiment runner.

Subcommands: run / validate / list.  Configs are JSON documents validated
against a published schema (unknown keys rejected) before any computation;
outputs are CSV record streams plus JSON summaries, every file stamped with
the config hash and package version.  Identical configs produce
byte-identical outputs.

Exit codes: 0 success, 2 config or schema violation, 3 numerical guard
violation (aliasing, box-support overflow).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import jsonschema

from . import __version__
from .commutator import CommutatorProbe, compactness_probe
from .functional import (extrapolate_limit, mu_tensor, pairing_records,
                         zero_mu_strong_convergence_check)
from .grid import Grid, lp_norm
from .localization import (build_instance, companion_v_family,
                           localization_verdict)
from .registry import field_function, list_builtins, make_field, make_symbol
from .sobolev import (SequenceFamily, representation_norm_upper,
                      surrogate_negative_norm, wkq_norm)
from .multiplier import derivative
from .specbasis import HermiteBasis, se_analyze, se_membership_score
from .symbol import SphericalHarmonicBasis
from .util import (AliasingError, SupportError, canonical_hash, dump_json,
                   jsonable)

EXPERIMENTS = ("hdist_sweep", "commutator", "localization", "se_analysis",
               "norm_suite")

# ---------------------------------------------------------------------------
# schema

_FIELD_SPEC = {
    "oneOf": [
        {"type": "string"},
        {
            "type": "object",
            "properties": {"name": {"type": "string"}, "params": {"type": "object"}},
            "required": ["name"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {"product": {"type": "array", "items": {"$ref": "#/$defs/field"}}},
            "required": ["product"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {
                "scale": {"oneOf": [{"type": "number"},
                                    {"type": "array", "items": {"type": "number"},
                                     "minItems": 2, "maxItems": 2}]},
                "of": {"$ref": "#/$defs/field"},
            },
            "required": ["scale", "of"],
            "additionalProperties": False,
        },
    ]
}

_SYMBOL_SPEC = {
    "oneOf": [
        {"type": "string"},
        {
            "type": "object",
            "properties": {"name": {"type": "string"}, "params": {"type": "object"}},
            "required": ["name"],
            "additionalProperties": False,
        },
    ]
}

_FAMILY_SPEC = {
    "type": "object",
    "properties": {
        "kind": {"enum": ["oscillation", "scaled_oscillation", "concentration"]},
        "amplitude": {"$ref": "#/$defs/field"},
        "direction": {"type": "array", "items": {"type": "integer"}},
        "k": {"type": "integer", "minimum": 0},
        "p": {"type": "number", "exclusiveMinimum": 1},
        "indices": {"type": "array", "items": {"type": "integer", "minimum": 1},
                    "minItems": 1},
        "order": {"type": "integer"},
        "prefactor_power": {"type": "number"},
        "center": {"type": "array", "items": {"type": "number"}},
        "profile_width": {"type": "number", "exclusiveMinimum": 0},
    },
    "required": ["kind", "amplitude", "indices"],
    "additionalProperties": False,
}

_GRID_SPEC = {
    "type": "object",
    "properties": {
        "d": {"enum": [2, 3]},
        "N": {"type": "integer", "minimum": 8},
        "L": {"type": "number", "exclusiveMinimum": 0},
    },
    "required": ["d", "N", "L"],
    "additionalProperties": False,
}

_TESTS_SPEC = {
    "type": "object",
    "properties": {"phi1": {"$ref": "#/$defs/field"}, "phi2": {"$ref": "#/$defs/field"}},
    "required": ["phi1", "phi2"],
    "additionalProperties": False,
}

_COMMON = {
    "experiment": {"enum": list(EXPERIMENTS)},
    "grid": _GRID_SPEC,
    "output_dir": {"type": "string"},
    "tolerances": {"type": "object", "additionalProperties": {"type": "number"}},
}


def _schema(extra, required):
    return {
        "$schema": "https://json-schema.org/draft/2020-12/schema",
        "type": "object",
        "properties": {**_COMMON, **extra},
        "required": ["experiment", "grid"] + required,
        "additionalProperties": False,
        "$defs": {"field": _FIELD_SPEC, "symbol": _SYMBOL_SPEC,
                  "family": _FAMILY_SPEC},
    }


CONFIG_SCHEMAS = {
    "hdist_sweep": _schema(
        {
            "families": {
                "type": "object",
                "properties": {"u": {"$ref": "#/$defs/family"},
                               "v": {"$ref": "#/$defs/family"}},
                "required": ["u"],
                "additionalProperties": False,
            },
            "test_functions": _TESTS_SPEC,
            "symbols": {"type": "array", "items": {"$ref": "#/$defs/symbol"},
                        "minItems": 1},
            "tensor": {
                "type": "object",
                "properties": {"m_max": {"type": "integer", "minimum": 0},
                               "n_max": {"type": "integer", "minimum": 0}},
                "required": ["m_max", "n_max"],
                "additionalProperties": False,
            },
            "zero_check": {
                "type": "object",
                "properties": {"theta": {"$ref": "#/$defs/field"},
                               "k": {"type": "integer", "minimum": 0},
                               "p": {"type": "number", "exclusiveMinimum": 1}},
                "required": ["theta"],
                "additionalProperties": False,
            },
        },
        ["families", "test_functions", "symbols"],
    ),
    "commutator": _schema(
        {
            "symbol": {"$ref": "#/$defs/symbol"},
            "b": {"$ref": "#/$defs/field"},
            "family": {"$ref": "#/$defs/family"},
            "r": {"type": "number", "exclusiveMinimum": 2},
            "q_list": {"type": "array", "items": {"type": "number", "minimum": 2}},
        },
        ["symbol", "b", "family"],
    ),
    "localization": _schema(
        {
            "coefficients": {"type": "array", "items": {"$ref": "#/$defs/field"}},
            "amplitude": {"$ref": "#/$defs/field"},
            "direction": {"type": "array", "items": {"type": "integer"}},
            "k": {"type": "integer", "minimum": 0},
            "p": {"type": "number", "exclusiveMinimum": 1},
            "q": {"type": "number", "exclusiveMinimum": 1},
            "indices": {"type": "array", "items": {"type": "integer", "minimum": 1}},
            "characteristic": {"type": "boolean"},
            "cutoff": {
                "type": "object",
                "properties": {"r_inner": {"type": "number"},
                               "r_outer": {"type": "number"}},
                "additionalProperties": False,
            },
            "test_functions": _TESTS_SPEC,
            "symbol": {"$ref": "#/$defs/symbol"},
        },
        ["coefficients", "amplitude", "direction", "indices", "characteristic",
         "test_functions", "symbol"],
    ),
    "se_analysis": _schema(
        {
            "theta": {
                "type": "object",
                "properties": {
                    "hermite": {"type": "array", "items": {"type": "integer", "minimum": 0}},
                    "harmonic": {"type": "array", "items": {"type": "integer", "minimum": 0},
                                 "minItems": 2, "maxItems": 2},
                    "x_field": {"$ref": "#/$defs/field"},
                    "sphere_symbol": {"$ref": "#/$defs/symbol"},
                },
                "additionalProperties": False,
            },
            "m_max": {"type": "integer", "minimum": 0},
            "n_max": {"type": "integer", "minimum": 0},
            "r_list": {"type": "array", "items": {"type": "number", "minimum": 0},
                       "minItems": 1},
        },
        ["theta", "m_max", "n_max", "r_list"],
    ),
    "norm_suite": _schema(
        {
            "fields": {"type": "array", "items": {"$ref": "#/$defs/field"},
                       "minItems": 1},
            "k_list": {"type": "array", "items": {"type": "integer", "minimum": 0}},
            "p_list": {"type": "array", "items": {"type": "number", "exclusiveMinimum": 1}},
        },
        ["fields"],
    ),
}


class ConfigError(Exception):
    pass


def validate_config(cfg) -> list:
    """All schema violations as json-path-anchored strings; empty when valid."""
    if not isinstance(cfg, dict):
        return ["config: top level must be an object"]
    exp = cfg.get("experiment")
    if exp not in CONFIG_SCHEMAS:
        return [f"config.experiment: expected one of {list(EXPERIMENTS)}, got {exp!r}"]
    validator = jsonschema.Draft202012Validator(CONFIG_SCHEMAS[exp])
    errors = []
    for err in sorted(validator.iter_errors(cfg), key=lambda e: list(e.absolute_path)):
        path = ".".join(str(p) for p in err.absolute_path) or "(top level)"
        errors.append(f"config.{path}: {err.message}")
    return errors


def load_config(path):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}:{exc.lineno}:{exc.colno}: invalid JSON ({exc.msg})"
        ) from exc


# ---------------------------------------------------------------------------
# builders

def _family(grid: Grid, spec, label) -> SequenceFamily:
    kind = spec["kind"]
    kwargs = dict(
        k=int(spec.get("k", 0)),
        p=float(spec.get("p", 2.0)),
        indices=tuple(spec["indices"]),
        prefactor_power=float(spec.get("prefactor_power", 0.0)),
        label=label,
    )
    if kind == "concentration":
        return SequenceFamily(
            grid, kind,
            amplitude_fn=field_function(grid.d, spec["amplitude"]),
            direction=(1,) + (0,) * (grid.d - 1),
            center=tuple(spec["center"]) if "center" in spec else None,
            profile_width=float(spec.get("profile_width", 1.0)),
            **kwargs,
        )
    direction = tuple(spec.get("direction", (1,) + (0,) * (grid.d - 1)))
    order = int(spec.get("order", kwargs["k"] if kind == "scaled_oscillation" else 0))
    return SequenceFamily(
        grid, kind,
        amplitude=make_field(grid, spec["amplitude"]),
        direction=direction, order=order, **kwargs,
    )


def _stamp(cfg):
    return {"config_hash": canonical_hash(cfg), "version": __version__}


def _write_csv(path, header, rows, stamp):
    with open(path, "w", newline="") as fh:
        fh.write(f"# config_hash={stamp['config_hash']} version={stamp['version']}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# experiments

def run_hdist_sweep(cfg, grid, outdir, stamp):
    u_fam = _family(grid, cfg["families"]["u"], "u")
    v_fam = _family(grid, cfg["families"]["v"], "v") if "v" in cfg["families"] else u_fam
    phi1 = make_field(grid, cfg["test_functions"]["phi1"])
    phi2 = make_field(grid, cfg["test_functions"]["phi2"])
    symbols = [make_symbol(grid.d, s) for s in cfg["symbols"]]

    rows, limits, max_gap = [], {}, 0.0
    for psi in symbols:
        records = pairing_records(u_fam, v_fam, phi1, phi2, psi)
        est = extrapolate_limit(records)
        limits[psi.name] = est.to_dict()
        for r in records:
            rows.append([psi.name, r.phi1, r.phi2, r.n,
                         repr(r.value_form_a.real), repr(r.value_form_a.imag),
                         repr(r.value_form_b.real), repr(r.value_form_b.imag),
                         repr(r.form_gap)])
            max_gap = max(max_gap, r.form_gap / (1.0 + abs(r.value_form_a)))
    _write_csv(outdir / "records.csv",
               ["psi", "phi1", "phi2", "n", "re_form_a", "im_form_a",
                "re_form_b", "im_form_b", "gap"],
               rows, stamp)
    dump_json({**stamp, "limits": limits}, outdir / "limits.json")

    checks = {
        "adjoint_form_agreement": {
            "max_relative_gap": max_gap, "tol": 1e-9, "passed": max_gap <= 1e-9,
        }
    }
    artifacts = ["records.csv", "limits.json"]

    if "tensor" in cfg:
        hb = HermiteBasis.build(grid, int(cfg["tensor"]["m_max"]))
        sb = SphericalHarmonicBasis.build(grid.d, int(cfg["tensor"]["n_max"]))
        tensor = mu_tensor(u_fam, v_fam, hb, sb)
        dump_json({**stamp, "tensor": tensor.to_dict()}, outdir / "tensor.json")
        artifacts.append("tensor.json")
        checks["tensor_max_abs"] = {"value": tensor.max_abs()}
        if "zero_check" in cfg:
            zc = cfg["zero_check"]
            theta = make_field(grid, zc["theta"])
            result = zero_mu_strong_convergence_check(
                u_fam, v_fam, theta, int(zc.get("k", 0)), float(zc.get("p", 2.0)),
                hb, sb, baseline_phi=phi1,
            )
            result.pop("tensor")
            probe = result.pop("probe")
            dump_json({**stamp, **jsonable(result), "probe": probe.to_dict()},
                      outdir / "zero_check.json")
            artifacts.append("zero_check.json")
            checks["zero_check_consistent"] = {"passed": result["consistent"]}
    return checks, artifacts


def run_commutator(cfg, grid, outdir, stamp):
    fam = _family(grid, cfg["family"], "v")
    probe = CommutatorProbe(
        psi=make_symbol(grid.d, cfg["symbol"]),
        b=make_field(grid, cfg["b"]),
        family=fam,
        r=float(cfg.get("r", 4.0)),
        q_list=tuple(cfg["q_list"]) if "q_list" in cfg else None,
    )
    table = compactness_probe(probe)
    rows = []
    for label, vals in sorted(table.columns.items()):
        q = float(label.split("=")[1])
        exponent = table.fits[label].exponent
        for n, v in zip(table.ns, vals):
            rows.append([n, repr(q), repr(v),
                         "" if exponent is None else repr(exponent)])
    _write_csv(outdir / "commutator.csv", ["n", "q", "norm", "fitted_exponent"],
               rows, stamp)
    dump_json({**stamp, "table": table.to_dict()}, outdir / "commutator.json")
    checks = {
        "preconditions": {"violations": table.meta["violations"],
                          "passed": not table.meta["violations"]},
        "decay": {
            label: {"exponent": fit.exponent,
                    "all_below_threshold": fit.all_below_threshold}
            for label, fit in sorted(table.fits.items())
        },
    }
    return checks, ["commutator.csv", "commutator.json"]


def run_localization(cfg, grid, outdir, stamp):
    cutoff = cfg.get("cutoff", {})
    instance = build_instance(
        grid,
        cfg["coefficients"],
        cfg["amplitude"],
        cfg["direction"],
        k=int(cfg.get("k", 0)),
        p=float(cfg.get("p", 2.0)),
        q=float(cfg.get("q", 2.0)),
        indices=tuple(cfg["indices"]),
        characteristic=bool(cfg["characteristic"]),
        cutoff_inner=float(cutoff.get("r_inner", 2.0)),
        cutoff_outer=float(cutoff.get("r_outer", 3.0)),
    )
    v_fam = companion_v_family(instance)
    phi1 = make_field(grid, cfg["test_functions"]["phi1"])
    phi2 = make_field(grid, cfg["test_functions"]["phi2"])
    psi = make_symbol(grid.d, cfg["symbol"])
    verdict = localization_verdict(instance, v_fam, phi1, phi2, psi)
    dump_json({**stamp, **jsonable(verdict)}, outdir / "localization.json")
    rows = [
        [n, repr(v)]
        for n, v in zip(verdict["rhs_table"]["ns"],
                        verdict["rhs_table"]["columns"]["rhs_norm"])
    ]
    _write_csv(outdir / "rhs.csv", ["n", "rhs_norm"], rows, stamp)
    max_chain = max(verdict["i1_chain_residuals"])
    checks = {
        "i1_chain": {"max_residual": max_chain, "tol": 1e-8,
                     "passed": max_chain <= 1e-8},
        "ratio": {"value": verdict["ratio"]},
        "rhs_exponent": {"value": verdict["rates"]["rhs_exponent"]},
    }
    return checks, ["localization.json", "rhs.csv"]


def run_se_analysis(cfg, grid, outdir, stamp):
    hb = HermiteBasis.build(grid, int(cfg["m_max"]))
    sb = SphericalHarmonicBasis.build(grid.d, int(cfg["n_max"]))
    theta_cfg = cfg["theta"]
    if "hermite" in theta_cfg:
        fx = hb.function(tuple(theta_cfg["hermite"]))
    elif "x_field" in theta_cfg:
        fx = make_field(grid, theta_cfg["x_field"])
    else:
        raise ConfigError("config.theta: need 'hermite' or 'x_field'")
    if "harmonic" in theta_cfg:
        deg, j = theta_cfg["harmonic"]
        gs = sb.evaluate(int(deg), int(j), sb.quadrature.nodes)
    elif "sphere_symbol" in theta_cfg:
        gs = make_symbol(grid.d, theta_cfg["sphere_symbol"])(sb.quadrature.nodes)
    else:
        raise ConfigError("config.theta: need 'harmonic' or 'sphere_symbol'")
    coeffs = se_analyze([(fx, gs)], hb, sb)
    score = se_membership_score(coeffs, list(cfg["r_list"]))
    dump_json({**stamp, "coefficients": coeffs.to_dict()}, outdir / "se_coeffs.json")
    dump_json({**stamp, "membership": jsonable(score)}, outdir / "se_membership.json")
    checks = {"membership_verdict": {"value": score["verdict"]}}
    return checks, ["se_coeffs.json", "se_membership.json"]


def run_norm_suite(cfg, grid, outdir, stamp):
    k_list = [int(k) for k in cfg.get("k_list", [0, 1])]
    p_list = [float(p) for p in cfg.get("p_list", [2.0])]
    table = []
    c_eq = 0.0
    for i, spec in enumerate(cfg["fields"]):
        f = make_field(grid, spec)
        entry = {"field": i, "lp": {}, "wkq": {}, "negative": {}}
        for p in p_list:
            entry["lp"][f"{p:g}"] = lp_norm(f, p)
        for k in k_list:
            for p in p_list:
                entry["wkq"][f"k={k},q={p:g}"] = wkq_norm(f, k, p)
                alpha = (k,) + (0,) * (grid.d - 1)
                u_parts = {alpha: f}
                value = surrogate_negative_norm(derivative(f, alpha), k, p)
                upper = representation_norm_upper(u_parts, p)
                entry["negative"][f"k={k},p={p:g}"] = {
                    "surrogate": value, "representation_upper": upper,
                }
                if upper > 0:
                    c_eq = max(c_eq, value / upper)
        table.append(entry)
    dump_json({**stamp, "norms": table, "max_surrogate_over_upper": c_eq},
              outdir / "norms.json")
    checks = {"norm_equivalence": {"max_surrogate_over_upper": c_eq,
                                   "passed": c_eq <= 4.0}}
    return checks, ["norms.json"]


RUNNERS = {
    "hdist_sweep": run_hdist_sweep,
    "commutator": run_commutator,
    "localization": run_localization,
    "se_analysis": run_se_analysis,
    "norm_suite": run_norm_suite,
}


def run_config(cfg, output_dir=None) -> dict:
    """Validate and execute a config; returns the summary dict."""
    errors = validate_config(cfg)
    if errors:
        raise ConfigError("\n".join(errors))
    outdir = Path(output_dir or cfg.get("output_dir") or ".")
    outdir.mkdir(parents=True, exist_ok=True)
    grid = Grid(int(cfg["grid"]["d"]), int(cfg["grid"]["N"]), float(cfg["grid"]["L"]))
    stamp = _stamp(cfg)
    checks, artifacts = RUNNERS[cfg["experiment"]](cfg, grid, outdir, stamp)
    summary = {
        **stamp,
        "experiment": cfg["experiment"],
        "checks": checks,
        "artifacts": sorted(artifacts),
    }
    dump_json(summary, outdir / "summary.json")
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hdist", description="run grid experiments from a JSON config")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="validate and execute a config")
    p_run.add_argument("config")
    p_run.add_argument("--output-dir", default=None,
                       help="override the config's output_dir")
    p_val = sub.add_parser("validate", help="check a config against the schema")
    p_val.add_argument("config")
    sub.add_parser("list", help="dump built-in field and symbol names")

    args = parser.parse_args(argv)
    if args.command == "list":
        json.dump(list_builtins(), sys.stdout, sort_keys=True, indent=2)
        sys.stdout.write("\n")
        return 0

    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.command == "validate":
        errors = validate_config(cfg)
        if errors:
            for e in errors:
                print(f"error: {e}", file=sys.stderr)
            return 2
        print("ok")
        return 0

    try:
        summary = run_config(cfg, output_dir=args.output_dir)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (AliasingError, SupportError) as exc:
        print(f"guard violation: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(jsonable(summary["checks"]), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
