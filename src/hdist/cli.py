"""Config-driven experiment runner.

Subcommands: run / validate / list.  A config is a JSON document checked
against a published schema (unknown keys rejected) and then built, which
resolves every registry name and runs every index guard; `validate` stops
there and `run` computes.  Outputs are CSV record streams plus JSON
summaries, every file stamped with the config hash and package version.
Identical configs produce byte-identical outputs.

Exit codes: 0 success, 2 config or schema violation, 3 numerical guard
violation (aliasing, box-support overflow).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from pathlib import Path

import jsonschema

from . import __version__
from .commutator import compactness_probe
from .fitting import fit_limit
from .functional import (FORM_RTOL, mu_tensor, pairing_records,
                         zero_mu_strong_convergence_check)
from .grid import Grid
from .localization import build_instance, localization_verdict
from .registry import field_function, list_builtins, make_field, make_symbol, spec_label
from .sobolev import CONCENTRATION, SequenceFamily, norm_table
from .specbasis import HermiteBasis, se_analyze, se_membership_score
from .symbol import SphericalHarmonicBasis
from .util import (AliasingError, SupportError, canonical_hash, dump_json,
                   jsonable)

# ---------------------------------------------------------------------------
# schema

# a registry name, bare or with params
_NAMED_SPEC = [
    {"type": "string"},
    {
        "type": "object",
        "properties": {"name": {"type": "string"}, "params": {"type": "object"}},
        "required": ["name"],
        "additionalProperties": False,
    },
]

_FIELD_SPEC = {
    "oneOf": [
        *_NAMED_SPEC,
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

_SYMBOL_SPEC = {"oneOf": _NAMED_SPEC}

_FAMILY_SPEC = {
    "type": "object",
    "properties": {
        "kind": {"enum": ["oscillation", "concentration"]},
        "amplitude": {"$ref": "#/$defs/field"},
        "direction": {"type": "array", "items": {"type": "integer"}},
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
    "experiment": {"type": "string"},  # validate_config dispatches on it
    "grid": _GRID_SPEC,
    "output_dir": {"type": "string"},
}


def _schema(extra, required, **rules):
    return {
        **rules,
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
                # the limit fits need three indices
                "properties": {"u": {"$ref": "#/$defs/family",
                                     "properties": {"indices": {"minItems": 3}}},
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
        dependentRequired={"zero_check": ["tensor"]},  # it checks the tensor
    ),
    "commutator": _schema(
        {
            "symbol": {"$ref": "#/$defs/symbol"},
            "b": {"$ref": "#/$defs/field"},
            "family": {"$ref": "#/$defs/family"},
            "r": {"type": "number", "exclusiveMinimum": 2},
            "q_list": {"type": "array", "items": {"type": "number", "minimum": 2},
                       "minItems": 1, "uniqueItems": True},
        },
        ["symbol", "b", "family"],
    ),
    "localization": _schema(
        {
            "coefficients": {"type": "array", "items": {"$ref": "#/$defs/field"},
                             "minItems": 3, "maxItems": 3},
            "amplitude": {"$ref": "#/$defs/field"},
            "direction": {"type": "array", "items": {"type": "integer"}},
            "k": {"type": "integer", "minimum": 0},
            "p": {"type": "number", "exclusiveMinimum": 1},
            "q": {"type": "number", "exclusiveMinimum": 1},
            "indices": {"type": "array", "items": {"type": "integer", "minimum": 1},
                        "minItems": 3},
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
                # exactly one x side and exactly one xi side
                "allOf": [
                    {"oneOf": [{"required": ["hermite"]}, {"required": ["x_field"]}]},
                    {"oneOf": [{"required": ["harmonic"]},
                               {"required": ["sphere_symbol"]}]},
                ],
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
            "k_list": {"type": "array", "items": {"type": "integer", "minimum": 0},
                       "minItems": 1},
            "p_list": {"type": "array", "items": {"type": "number", "exclusiveMinimum": 1},
                       "minItems": 1, "uniqueItems": True},
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
    if not isinstance(exp, str) or exp not in CONFIG_SCHEMAS:
        return [f"config.experiment: expected one of {list(CONFIG_SCHEMAS)}, got {exp!r}"]
    validator = jsonschema.Draft202012Validator(CONFIG_SCHEMAS[exp])
    errors = []
    for err in sorted(validator.iter_errors(cfg), key=lambda e: list(e.absolute_path)):
        path = ".".join(str(p) for p in err.absolute_path) or "(top level)"
        errors.append(f"config.{path}: {err.message}")
    return errors


def load_config(path):
    """The config at path; a run writes only finite numbers, so NaN, Infinity
    and number literals that overflow a float (1e400, 10**400) are refused."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc

    def finite(literal):
        value = float(literal)
        if not math.isfinite(value):
            raise ConfigError(f"{path}: non-finite number {literal} is not allowed")
        return value

    def whole(literal):
        finite(literal)  # an integer beyond the float range reads as inf
        return int(literal)

    try:
        return json.loads(text, parse_constant=finite, parse_float=finite,
                          parse_int=whole)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}:{exc.lineno}:{exc.colno}: invalid JSON ({exc.msg})"
        ) from exc


# ---------------------------------------------------------------------------
# builders

# family keys that only some kinds read
_KIND_KEYS = {"order": ("oscillation",), "direction": ("oscillation",),
              "p": ("concentration",), "center": ("concentration",),
              "profile_width": ("concentration",)}


def _family(grid: Grid, spec) -> SequenceFamily:
    """The family of a config spec, every index guarded by SequenceFamily."""
    unread = sorted(key for key, kinds in _KIND_KEYS.items()
                    if key in spec and spec["kind"] not in kinds)
    if unread:
        raise ValueError(f"family kind {spec['kind']!r} does not read {unread}")
    # the family keys are SequenceFamily's own fields, which hold the defaults;
    # JSON arrays become tuples so that families compare and hash by value
    kw = {key: tuple(value) if isinstance(value, list) else value
          for key, value in spec.items() if key != "amplitude"}
    if spec["kind"] == CONCENTRATION:
        kw["amplitude_fn"] = field_function(grid.d, spec["amplitude"])
    else:
        kw["amplitude"] = make_field(grid, spec["amplitude"])
    return SequenceFamily(grid, **kw)


def _present(cfg, **types) -> dict:
    """The optional keys the config sets, converted: the callee holds the defaults."""
    return {key: to(cfg[key]) for key, to in types.items() if key in cfg}


def _exact_labels(cfg, *keys):
    """Refuse an exponent that its artifact label f"{x:g}" does not reproduce:
    two such exponents would share a column, and the CSV reads q back from it."""
    for key in keys:
        value = cfg.get(key, [])
        for x in value if isinstance(value, list) else [value]:
            if float(f"{x:g}") != x:
                raise ValueError(f"{key} value {x!r} would be labelled {x:g}; "
                                 "give it in at most 6 significant digits")


def _write_csv(header, rows, stamp) -> str:
    """The CSV text of one artifact, under a stamp comment line."""
    fh = io.StringIO(newline="")
    fh.write(f"# config_hash={stamp['config_hash']} version={stamp['version']}\n")
    writer = csv.writer(fh)
    writer.writerow(header)
    writer.writerows(rows)
    return fh.getvalue()


# ---------------------------------------------------------------------------
# experiments: each reads every config key and builds every object its
# numerics need (fields, symbols, guarded families, bases), with no transform
# and no family sample, then returns the compute: a closure over the built
# objects that returns (checks, files).  files maps an artifact name to a
# dict (JSON) or a (header, rows) pair (CSV).

def run_hdist_sweep(cfg, grid):
    u_fam = _family(grid, cfg["families"]["u"])
    v_spec = cfg["families"].get("v")
    if v_spec and tuple(v_spec["indices"]) != u_fam.indices:
        raise ValueError("families.v.indices must equal families.u.indices: "
                         "v_n is sampled at the u indices")
    v_fam = _family(grid, v_spec) if v_spec else u_fam
    phi_specs = cfg["test_functions"]["phi1"], cfg["test_functions"]["phi2"]
    phi1, phi2 = (make_field(grid, spec) for spec in phi_specs)
    labels = [spec_label(spec) for spec in phi_specs]
    symbols = [make_symbol(grid.d, s) for s in cfg["symbols"]]
    tensor_cfg, zc = cfg.get("tensor"), cfg.get("zero_check")
    if tensor_cfg:
        hb = HermiteBasis.build(grid, int(tensor_cfg["m_max"]))
        sb = SphericalHarmonicBasis.build(grid.d, int(tensor_cfg["n_max"]))
    if zc:
        theta = make_field(grid, zc["theta"])
        k, p = int(zc.get("k", 0)), float(zc.get("p", 2.0))

    def compute():
        # every stage reads these samples: v_n is sampled at the u indices
        ns = u_fam.indices
        us = [u_fam.u(n) for n in ns]
        vs = us if v_fam is u_fam else [v_fam.u(n) for n in ns]
        rows, limits, max_gap = [], {}, 0.0
        for psi, forms in zip(symbols, pairing_records(us, vs, phi1, phi2, symbols)):
            limits[psi.name] = fit_limit(ns, [a for a, _ in forms]).to_dict()
            for n, (a, b) in zip(ns, forms):
                rows.append([psi.name, *labels, int(n), repr(a.real),
                             repr(a.imag), repr(b.real), repr(b.imag), repr(abs(a - b))])
                max_gap = max(max_gap, abs(a - b) / (1.0 + abs(a)))
        files = {
            "records.csv": (["psi", "phi1", "phi2", "n", "re_form_a", "im_form_a",
                             "re_form_b", "im_form_b", "gap"], rows),
            "limits.json": {"limits": limits},
        }
        checks = {
            "adjoint_form_agreement": {
                "max_relative_gap": max_gap, "tol": FORM_RTOL,
                "passed": max_gap <= FORM_RTOL,
            },
            "flagged_limits": {
                "limits": sorted(name for name, lim in limits.items() if lim["flagged"])},
        }
        if tensor_cfg:
            tensor = mu_tensor(ns, us, vs, hb, sb)
            tensor_max = float(abs(tensor["entries"]).max())
            files["tensor.json"] = {"tensor": tensor}
            checks["tensor_max_abs"] = {"value": tensor_max}
            checks["flagged_limits"]["tensor_entries"] = int(tensor["flagged"].sum())
        if zc:
            result = zero_mu_strong_convergence_check(
                ns, us, vs, theta, k, p, tensor_max, baseline_phi=phi1)
            files["zero_check.json"] = result
            checks["zero_check_consistent"] = {"passed": result["consistent"]}
        return checks, files

    return compute


def run_commutator(cfg, grid):
    psi, b = make_symbol(grid.d, cfg["symbol"]), make_field(grid, cfg["b"])
    family = _family(grid, cfg["family"])
    _exact_labels(cfg, "r", "q_list")
    options = _present(cfg, r=float, q_list=tuple)

    def compute():
        table = compactness_probe(psi, b, family, **options)
        rows, decay = [], {}
        for label, vals in sorted(table["columns"].items()):
            fit = table["fits"][label]
            decay[label] = {"exponent": fit["exponent"],
                            "all_below_threshold": fit["all_below_threshold"]}
            exponent = "" if fit["exponent"] is None else repr(fit["exponent"])
            q = float(label.split("=")[1])
            rows += [[n, repr(q), repr(v), exponent] for n, v in zip(table["ns"], vals)]
        violations = table["meta"]["violations"]
        checks = {"preconditions": {"violations": violations, "passed": not violations},
                  "decay": decay}
        return checks, {
            "commutator.csv": (["n", "q", "norm", "fitted_exponent"], rows),
            "commutator.json": {"table": table},
        }

    return compute


def run_localization(cfg, grid):
    instance = build_instance(
        grid, cfg["coefficients"], cfg["amplitude"], cfg["direction"],
        indices=cfg["indices"], characteristic=cfg["characteristic"],
        **_present(cfg, k=int, p=float, q=float, cutoff=dict),
    )
    phi1 = make_field(grid, cfg["test_functions"]["phi1"])
    phi2 = make_field(grid, cfg["test_functions"]["phi2"])
    psi = make_symbol(grid.d, cfg["symbol"])

    def compute():
        verdict = localization_verdict(instance, phi1, phi2, psi)
        rows = [
            [n, repr(v)]
            for n, v in zip(verdict["rhs_table"]["ns"],
                            verdict["rhs_table"]["columns"]["rhs_norm"])
        ]
        max_chain = max(verdict["i1_chain_residuals"])
        checks = {
            "i1_chain": {"max_residual": max_chain, "tol": 1e-8,
                         "passed": max_chain <= 1e-8},
            "ratio": {"value": verdict["ratio"]},
            "rhs_exponent": {"value": verdict["rates"]["rhs_exponent"]},
            "flagged_limits": {"limits": [
                key for key in ("baseline", "char_pairing") if verdict[key]["flagged"]]},
        }
        return checks, {"localization.json": verdict,
                        "rhs.csv": (["n", "rhs_norm"], rows)}

    return compute


def run_se_analysis(cfg, grid):
    hb = HermiteBasis.build(grid, int(cfg["m_max"]))
    sb = SphericalHarmonicBasis.build(grid.d, int(cfg["n_max"]))
    # the schema admits exactly one x side and one xi side
    theta_cfg = cfg["theta"]
    if "hermite" in theta_cfg:
        fx = hb.function(tuple(theta_cfg["hermite"]))
    else:
        fx = make_field(grid, theta_cfg["x_field"])
    if "harmonic" in theta_cfg:
        deg, j = (int(c) for c in theta_cfg["harmonic"])
        if deg > sb.n_max:  # the basis would see only rounding noise
            raise ValueError(f"theta.harmonic degree {deg} exceeds n_max = {sb.n_max}")
        gs = sb.evaluate(deg, j, sb.quadrature.nodes)
    else:
        gs = make_symbol(grid.d, theta_cfg["sphere_symbol"])(sb.quadrature.nodes)
    r_list = list(cfg["r_list"])

    def compute():
        coeffs = se_analyze([(fx, gs)], hb, sb)
        score = se_membership_score(coeffs, r_list)
        checks = {"membership_verdict": {"value": score["verdict"]}}
        return checks, {"se_coeffs.json": {"coefficients": coeffs},
                        "se_membership.json": {"membership": score}}

    return compute


def run_norm_suite(cfg, grid):
    k_list = [int(k) for k in cfg.get("k_list", [0, 1])]
    _exact_labels(cfg, "p_list")
    p_list = [float(p) for p in cfg.get("p_list", [2.0])]
    fields = [make_field(grid, spec) for spec in cfg["fields"]]

    def compute():
        kp = [(k, p) for k in k_list for p in p_list]
        table, c_eq = [], 0.0
        for i, (lp, wkq, neg) in enumerate(norm_table(grid, fields, k_list, p_list)):
            # d^(k,0,...) f has the one part f: its representation bound is |f|_p
            table.append({
                "field": i, "lp": {f"{p:g}": lp[p] for p in p_list},
                "wkq": {f"k={k},q={p:g}": wkq[k, p] for k, p in kp},
                "negative": {f"k={k},p={p:g}": {"surrogate": neg[k, p],
                                                "representation_upper": lp[p]}
                             for k, p in kp}})
            c_eq = max([c_eq] + [neg[k, p] / lp[p] for k, p in kp if lp[p] > 0])
        checks = {"norm_equivalence": {"max_surrogate_over_upper": c_eq,
                                       "passed": c_eq <= 4.0}}
        return checks, {"norms.json": {"norms": table, "max_surrogate_over_upper": c_eq}}

    return compute


RUNNERS = {
    "hdist_sweep": run_hdist_sweep,
    "commutator": run_commutator,
    "localization": run_localization,
    "se_analysis": run_se_analysis,
    "norm_suite": run_norm_suite,
}


def build_config(cfg):
    """Check a config against its schema and build it: every error a run
    would raise before its numerics is raised here.  Returns the compute."""
    errors = validate_config(cfg)
    if errors:
        raise ConfigError("\n".join(errors))
    grid = Grid(int(cfg["grid"]["d"]), int(cfg["grid"]["N"]), float(cfg["grid"]["L"]))
    return RUNNERS[cfg["experiment"]](cfg, grid)


def run_config(cfg, output_dir=None) -> dict:
    """Build and execute a config; returns the summary dict.

    Every artifact is computed and encoded to text before the output
    directory is created, so a run that raises writes no file.
    """
    checks, files = build_config(cfg)()
    stamp = {"config_hash": canonical_hash(cfg), "version": __version__}
    summary = {
        **stamp,
        "experiment": cfg["experiment"],
        "checks": checks,
        "artifacts": sorted(files),
    }
    texts = {name: dump_json({**payload, **stamp}) if isinstance(payload, dict)
             else _write_csv(*payload, stamp)
             for name, payload in sorted(files.items())}
    texts["summary.json"] = dump_json(summary)
    outdir = Path(output_dir or cfg.get("output_dir") or ".")
    outdir.mkdir(parents=True, exist_ok=True)
    for name, text in texts.items():
        (outdir / name).write_text(text, newline="")
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hdist", description="run grid experiments from a JSON config")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="validate and execute a config")
    p_run.add_argument("config")
    p_run.add_argument("--output-dir", default=None,
                       help="override the config's output_dir")
    p_val = sub.add_parser("validate",
                           help="check and build a config without running it")
    p_val.add_argument("config")
    sub.add_parser("list", help="dump built-in field and symbol names")

    args = parser.parse_args(argv)
    if args.command == "list":
        json.dump(list_builtins(), sys.stdout, sort_keys=True, indent=2)
        sys.stdout.write("\n")
        return 0

    # validate and run share the build, so they fail alike
    try:
        cfg = load_config(args.config)
        if args.command == "validate":
            build_config(cfg)
            out = "ok"
        else:
            summary = run_config(cfg, output_dir=args.output_dir)
            out = json.dumps(jsonable(summary["checks"]), sort_keys=True)
    except (AliasingError, SupportError) as exc:
        print(f"guard violation: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, ValueError) as exc:
        for line in str(exc).splitlines():
            print(f"error: {line}", file=sys.stderr)
        return 2
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
