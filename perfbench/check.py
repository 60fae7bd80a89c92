"""Correctness check of one repetition's artifacts.

Standard library only.  Every artifact a run lists must parse as strict
JSON (no NaN or Infinity) or strict CSV (stamp line, header, rows of equal
width, no non-finite numbers), and the workload's results must meet the
acceptance suite's tolerances.  `check` returns the problems found; an
empty list means the repetition is correct.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

# loc64: acceptance criteria 5 and 8
CHAR_RATIO_MAX = 0.05
CONTROL_RATIO_MIN = 0.5
CONTRAST_MIN = 10.0
RHS_EXPONENT_MAX = -0.8
CHAIN_RESIDUAL_MAX = 1e-8
# tensor256: criteria 1, 2 and 6
ADJOINT_GAP_MAX = 1e-9
ORACLE_RTOL = 0.01
MASS = 0.25                  # integral |phi a|^2 for unit-width gaussians, d = 2
ZERO_TENSOR_FACTOR = 10.0
# probes2d: criterion 4 and the norm-equivalence and membership checks
COMMUTATOR_RATIO_MAX = 0.4
NORM_RATIO_MAX = 4.0
SE_VERDICT = "consistent with SE"


class CheckError(Exception):
    pass


def _reject_constant(name):
    raise CheckError(f"non-finite JSON constant {name}")


def load_json(path: Path):
    try:
        return json.loads(path.read_text(), parse_constant=_reject_constant)
    except (OSError, ValueError) as exc:
        raise CheckError(f"{path.name}: {exc}") from exc


def load_csv(path: Path):
    """Header and rows of a stamped CSV artifact."""
    try:
        lines = path.read_text().splitlines()
    except OSError as exc:
        raise CheckError(f"{path.name}: {exc}") from exc
    if not lines or not lines[0].startswith("# config_hash="):
        raise CheckError(f"{path.name}: missing stamp line")
    rows = list(csv.reader(lines[1:], strict=True))
    if not rows:
        raise CheckError(f"{path.name}: missing header")
    header, body = rows[0], rows[1:]
    for i, row in enumerate(body):
        if len(row) != len(header):
            raise CheckError(f"{path.name}: row {i} has {len(row)} of {len(header)} cells")
        for cell in row:
            try:
                value = float(cell)
            except ValueError:
                continue
            if not math.isfinite(value):
                raise CheckError(f"{path.name}: row {i} holds {cell!r}")
    return header, body


def load_run(outdir: Path) -> dict:
    """summary.json and every artifact it lists, parsed strictly."""
    summary = load_json(outdir / "summary.json")
    files = {"summary.json": summary}
    for name in summary.get("artifacts", []):
        path = outdir / name
        files[name] = load_csv(path) if name.endswith(".csv") else load_json(path)
    return files


def _complex(pair):
    return complex(pair[0], pair[1])


def _check_loc64(runs, axis, problems):
    char, ctrl = (r["localization.json"] for r in runs)
    char_ratio, ctrl_ratio = char["ratio"], ctrl["ratio"]
    if not char_ratio <= CHAR_RATIO_MAX:
        problems.append(f"characteristic ratio {char_ratio} > {CHAR_RATIO_MAX}")
    if not ctrl_ratio >= CONTROL_RATIO_MIN:
        problems.append(f"control ratio {ctrl_ratio} < {CONTROL_RATIO_MIN}")
    if char_ratio > 0 and not ctrl_ratio / char_ratio >= CONTRAST_MIN:
        problems.append(f"contrast {ctrl_ratio / char_ratio} < {CONTRAST_MIN}")
    rhs = char["rates"]["rhs_exponent"]
    if rhs is None or not rhs <= RHS_EXPONENT_MAX:
        problems.append(f"rhs exponent {rhs} > {RHS_EXPONENT_MAX}")
    for verdict in (char, ctrl):
        worst = max(verdict["i1_chain_residuals"])
        if not worst <= CHAIN_RESIDUAL_MAX:
            problems.append(f"chain residual {worst} > {CHAIN_RESIDUAL_MAX}")


def _check_tensor256(runs, axis, problems):
    (run,) = runs
    header, rows = run["records.csv"]
    col = {name: i for i, name in enumerate(header)}
    for row in rows:
        form_a = complex(float(row[col["re_form_a"]]), float(row[col["im_form_a"]]))
        gap = float(row[col["gap"]]) / (1.0 + abs(form_a))
        if not gap <= ADJOINT_GAP_MAX:
            problems.append(f"adjoint gap {gap} > {ADJOINT_GAP_MAX} ({row[0]}, n={row[3]})")
    aligned = f"riesz_{axis + 1}"
    oracles = {"constant_one": MASS, "riesz_1": 0.0, "riesz_2": 0.0}
    oracles[aligned] = -1j * MASS
    limits = run["limits.json"]["limits"]
    for name, oracle in oracles.items():
        value = _complex(limits[name]["value"])
        if not abs(value - oracle) <= ORACLE_RTOL * MASS:
            problems.append(f"{name} limit {value} not within 1% of oracle {oracle}")
    zero = run["zero_check.json"]
    if zero["consistent"] is not True:
        problems.append("zero check inconsistent")
    if not zero["tensor_max"] >= ZERO_TENSOR_FACTOR * zero["threshold"]:
        problems.append(f"tensor max {zero['tensor_max']} < 10x threshold {zero['threshold']}")


def _check_probes2d(runs, axis, problems):
    commutator, norms, se = runs
    table = commutator["commutator.json"]["table"]
    q2 = table["columns"]["q=2"]
    ratio = q2[-1] / q2[0]
    if not ratio <= COMMUTATOR_RATIO_MAX:
        problems.append(f"commutator |C v_last| / |C v_first| = {ratio} > {COMMUTATOR_RATIO_MAX}")
    if table["meta"]["violations"]:
        problems.append(f"commutator precondition violations {table['meta']['violations']}")
    c_eq = norms["norms.json"]["max_surrogate_over_upper"]
    passed = norms["summary.json"]["checks"]["norm_equivalence"]["passed"]
    if passed is not True or not c_eq <= NORM_RATIO_MAX:
        problems.append(f"norm equivalence failed ({c_eq})")
    verdict = se["se_membership.json"]["membership"]["verdict"]
    if verdict != SE_VERDICT:
        problems.append(f"SE verdict {verdict!r}")


CHECKS = {"loc64": _check_loc64, "tensor256": _check_tensor256,
          "probes2d": _check_probes2d}


def check(workload: str, axis: int, outdirs) -> list:
    """Problems found in one repetition's output directories, one per config."""
    try:
        runs = [load_run(Path(d)) for d in outdirs]
    except CheckError as exc:
        return [str(exc)]
    problems = []
    try:
        CHECKS[workload](runs, axis, problems)
    except (KeyError, IndexError, TypeError, ValueError, ZeroDivisionError) as exc:
        problems.append(f"malformed artifact: {exc!r}")
    return problems
