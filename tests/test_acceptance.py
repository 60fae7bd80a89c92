"""Acceptance suite: every criterion at its stated tolerance.

Run with `pytest -s tests/test_acceptance.py` to see one PASS/FAIL line per
criterion.  Heavy experiments are shared through module fixtures; the whole
module stays well inside a ten-minute laptop budget.
"""

import json
import time

import numpy as np
import pytest

from hdist.commutator import commutator_apply, compactness_probe
from hdist.functional import (extrapolate_limit, mu_tensor, pairing_records,
                              zero_mu_strong_convergence_check)
from hdist.grid import Grid, linf_norm, lp_norm, pairing
from hdist.localization import (build_instance, i1_chain_check,
                                localization_verdict)
from hdist.multiplier import derivative, riesz, riesz_potential
from hdist.registry import constant_symbol, make_field, riesz_symbol
from hdist.sobolev import oscillation_family
from hdist.specbasis import (HermiteBasis, SECoefficients, oscillator_apply,
                             oscillator_eigenvalue, se_analyze,
                             se_membership_score)
from hdist.symbol import SphericalHarmonicBasis, hs_sphere_norm
from hdist.cli import run_config

from .test_grid import random_smooth


def report(criterion, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {criterion}: {status} - {detail}")
    assert passed, f"criterion {criterion}: {detail}"


# ---------------------------------------------------------------------------
# shared heavy fixtures

LOC_COEFFS = [
    {"name": "gaussian", "params": {"width": 1.6}},
    {"name": "gaussian", "params": {"width": 1.5}},
    {"name": "gaussian", "params": {"width": 1.3}},
]
LOC_AMP = {"name": "gaussian", "params": {"width": 1.2}}


@pytest.fixture(scope="module")
def localization_run():
    """Characteristic and control instances on the 64^3 grid, one shot."""
    t0 = time.time()
    g = Grid(3, 64, 8.0)
    phi = make_field(g, {"name": "gaussian", "params": {"width": 1.5}})
    psi = constant_symbol(3)
    out = {"grid": g, "phi": phi, "psi": psi, "verdicts": {}, "instances": {}}
    for char in (True, False):
        inst = build_instance(g, LOC_COEFFS, LOC_AMP, (1, 0, 0), k=0, p=2.0,
                              q=2.0, indices=(8, 12, 16), characteristic=char,
                              cutoff={"r_inner": 2.3, "r_outer": 3.3})
        out["instances"][char] = inst
        out["verdicts"][char] = localization_verdict(inst, phi, phi, psi)
    out["elapsed"] = time.time() - t0
    return out


@pytest.fixture(scope="module")
def zero_check_runs():
    g = Grid(2, 256, 16.0)
    a = make_field(g, "gaussian")
    theta = make_field(g, "gaussian")
    phi = make_field(g, "gaussian")
    hb = HermiteBasis.build(g, 2)
    sb = SphericalHarmonicBasis.build(2, 2)
    ns = (16, 32, 64)
    v_fam = oscillation_family(g, a, (1, 0), ns)
    vs = [v_fam.u(n) for n in ns]
    results = {}
    for power, name in [(-0.5, "scaled"), (0.0, "unscaled")]:
        u_fam = oscillation_family(g, a, (1, 0), ns, prefactor_power=power)
        us = [u_fam.u(n) for n in ns]
        results[name] = zero_mu_strong_convergence_check(
            ns, us, vs, theta, 0, 2.0, mu_tensor(ns, us, vs, hb, sb),
            baseline_phi=phi)
    return results


# ---------------------------------------------------------------------------
# criteria

def test_criterion_1_adjoint_identity():
    g = Grid(2, 128, 16.0)
    a = make_field(g, "gaussian")
    fam = oscillation_family(g, a, (1, 0), (8, 16, 32))
    symbols = [constant_symbol(2), riesz_symbol(2, 0), riesz_symbol(2, 1)]
    pairs = [
        (make_field(g, "gaussian"), make_field(g, "gaussian")),
        (make_field(g, {"name": "gaussian", "params": {"width": 1.5}}),
         make_field(g, {"name": "bump", "params": {"radius": 3.0}})),
        (make_field(g, {"name": "bump", "params": {"radius": 2.5}}),
         make_field(g, {"name": "gaussian",
                        "params": {"center": [0.5, -0.5]}})),
    ]
    us = [fam.u(n) for n in fam.indices]
    worst, count = 0.0, 0
    for phi1, phi2 in pairs:
        for records in pairing_records(fam.indices, us, us, phi1, phi2, symbols):
            for rec in records:
                gap = rec.form_gap / (1.0 + abs(rec.value_form_a))
                worst = max(worst, gap)
                count += 1
    report(1, count == 27 and worst <= 1e-9,
           f"{count} records on 128^2, worst relative form gap {worst:.2e} "
           f"(tol 1e-9)")


def test_criterion_2_oscillation_h_measure():
    t0 = time.time()
    g = Grid(2, 256, 16.0)
    a = make_field(g, "gaussian")
    phi = make_field(g, "gaussian")
    fam = oscillation_family(g, a, (1, 0), (16, 32, 64))
    us = [fam.u(n) for n in fam.indices]
    [records] = pairing_records(fam.indices, us, us, phi, phi,
                                [riesz_symbol(2, 0)])
    est = extrapolate_limit(records)
    # frequency-shift oracle: psi(xi0/|xi0|) * integral |phi|^2 |a|^2;
    # for unit-width Gaussians the mass integral is exactly 1/4 in d = 2
    oracle = -0.25j
    rel = abs(est.value - oracle) / abs(oracle)
    elapsed = time.time() - t0
    report(2, rel <= 0.01 and elapsed < 30.0,
           f"estimate {est.value:.6f} vs oracle {oracle}, relative error "
           f"{rel:.2%} (tol 1%), runtime {elapsed:.1f}s (< 30s)")


def test_criterion_3_potential_gradient_identity():
    worst = 0.0
    for d, N in ((2, 128), (3, 64)):
        g = Grid(d, N, 8.0)
        for seed in range(3):
            f = random_smooth(g, seed=seed, band=5)
            f = f * (1.0 / linf_norm(f))
            pot = riesz_potential(g).apply(f)
            for axis in range(d):
                e = tuple(1 if i == axis else 0 for i in range(d))
                gap = derivative(pot, e).values + riesz(g, axis).apply(f).values
                worst = max(worst, float(np.max(np.abs(gap))))
    report(3, worst <= 1e-12,
           f"max grid residual of d_j I_1 + R_j over d in {{2,3}}: "
           f"{worst:.2e} (tol 1e-12)")


def test_criterion_4_commutation_probe():
    g = Grid(2, 128, 16.0)
    a = make_field(g, "gaussian")
    b = make_field(g, "gaussian")
    fam = oscillation_family(g, a, (1, 0), (8, 16, 32))
    table = compactness_probe(riesz_symbol(2, 0), b, fam)
    v2 = table["columns"]["q=2"]
    ratio = v2[-1] / v2[0]

    f = fam.u(8)
    trivial_psi = commutator_apply(constant_symbol(2), b, f)
    ones = g.sample(lambda x, y: np.ones_like(x))
    trivial_b = commutator_apply(riesz_symbol(2, 0), ones, f)
    psi_zero = linf_norm(trivial_psi)
    b_zero = float(np.max(np.abs(trivial_b.values)))
    report(4, ratio <= 0.4 and psi_zero < 1e-13 and b_zero == 0.0,
           f"|C v_32| / |C v_8| = {ratio:.3f} (tol 0.4); psi==1 case "
           f"{psi_zero:.1e}, b==1 case {b_zero:.1e}")


def test_criterion_5_localization_contrast(localization_run):
    char = localization_run["verdicts"][True]
    ctrl = localization_run["verdicts"][False]
    char_ratio = char["ratio"]
    ctrl_ratio = ctrl["ratio"]
    contrast = ctrl_ratio / char_ratio if char_ratio > 0 else np.inf
    rhs_exp = char["rates"]["rhs_exponent"]
    elapsed = localization_run["elapsed"]
    ok = (char_ratio <= 0.05 and ctrl_ratio >= 0.5 and contrast >= 10
          and rhs_exp <= -0.8 and elapsed < 300.0)
    report(5, ok,
           f"64^3 grid: characteristic ratio {char_ratio:.2e} (tol 5%), "
           f"control ratio {ctrl_ratio:.2f} (>= 0.5), contrast "
           f"{contrast:.1f}x (>= 10), rhs exponent {rhs_exp:.2f} (<= -0.8), "
           f"runtime {elapsed:.0f}s (< 300s)")


def test_criterion_6_zero_tensor_consistency(zero_check_runs):
    s = zero_check_runs["scaled"]
    u = zero_check_runs["unscaled"]
    exp = s["strong_fit_exponent"]
    ok_scaled = (s["tensor_is_zero"] and exp is not None
                 and abs(exp + 0.5) <= 0.1)
    ok_unscaled = (u["tensor_max"] >= 10 * u["threshold"]
                   and not u["strongly_null"])
    report(6, ok_scaled and ok_unscaled,
           f"scaled: max|tensor| {s['tensor_max']:.1e} < threshold "
           f"{s['threshold']:.1e}, strong exponent {exp:.2f} (-0.5 +/- 0.1); "
           f"unscaled: max|tensor| {u['tensor_max']:.1e} >= 10x threshold "
           f"{u['threshold']:.1e}, strong norms non-decaying")


def test_criterion_7_appendix_spectral_facts():
    # H^s norms of single harmonics on S^2
    basis = SphericalHarmonicBasis.build(3, 8)
    worst_hs = 0.0
    for idx, (n, j) in enumerate(basis.indices):
        coeffs = np.zeros(basis.size, dtype=complex)
        coeffs[idx] = 1.0
        for s in range(4):
            val = hs_sphere_norm(coeffs, s, 3, indices=basis.indices)
            target = (n + 0.5) ** s
            worst_hs = max(worst_hs, abs(val - target) / target)
    # quadrature-level orthonormality backs the coefficient computation
    gram = (basis.table * basis.quadrature.weights) @ np.conj(basis.table.T)
    gram_err = float(np.max(np.abs(gram - np.eye(basis.size))))

    # harmonic-oscillator eigen-residuals
    g = Grid(2, 128, 16.0)
    hb = HermiteBasis.build(g, 8)
    worst_osc = 0.0
    for m in hb.indices():
        h = hb.function(m)
        lam = oscillator_eigenvalue(m)
        res = oscillator_apply(h) - h * lam
        rel = np.sqrt(np.sum(np.abs(res.values) ** 2)) / (
            lam * np.sqrt(np.sum(np.abs(h.values) ** 2)))
        worst_osc = max(worst_osc, rel)

    # membership: five smooth separable functions, one synthetic divergent
    hb2 = HermiteBasis.build(g, 8)
    sb2 = SphericalHarmonicBasis.build(2, 6)
    nodes = sb2.quadrature.nodes
    smooth_cases = [
        ({"name": "gaussian", "params": {"width": 2.0}}, np.exp(nodes[0])),
        ({"name": "gaussian", "params": {"width": 2.5}},
         np.ones(nodes.shape[1])),
        ({"name": "gaussian", "params": {"width": 2.2, "center": [0.5, 0.0]}},
         1.0 + nodes[1]),
        (None, None),  # pure basis product, filled below
        ({"name": "gaussian", "params": {"width": 2.2, "center": [-0.4, 0.3]}},
         np.exp(-nodes[1])),
    ]
    r_list = [0.5, 1.0, 2.0, 3.0]
    positives = []
    for spec, gs in smooth_cases:
        if spec is None:
            fx, gs = hb2.function((2, 1)), sb2.evaluate(2, 1, nodes)
        else:
            fx = make_field(g, spec)
        score = se_membership_score(se_analyze([(fx, gs)], hb2, sb2), r_list)
        positives.append(score["verdict"] == "consistent with SE")

    n_max, m_max = 12, 12
    sphere_idx = tuple(
        (n, j) for n in range(n_max + 1)
        for j in range(1, (1 if n == 0 else 2) + 1))
    herm_idx = tuple((i, k) for i in range(m_max + 1) for k in range(m_max + 1))
    a = np.array([
        [(1.0 + n**2 + m[0] ** 2 + m[1] ** 2) ** -2 for m in herm_idx]
        for n, _ in sphere_idx])
    synth = SECoefficients(a.astype(complex), sphere_idx, herm_idx,
                           m_max, n_max, 2)
    synth_negative = se_membership_score(synth, r_list)["verdict"] == "not consistent"

    ok = (worst_hs <= 1e-9 and gram_err <= 1e-9 and worst_osc <= 1e-6
          and all(positives) and synth_negative)
    report(7, ok,
           f"H^s(S^2) norms exact to {worst_hs:.1e} (tol 1e-9, n <= 8, s <= 3); "
           f"oscillator eigen-residual {worst_osc:.1e} (tol 1e-6, |m| <= 8); "
           f"membership: {sum(positives)}/5 smooth positive, synthetic "
           f"negative={synth_negative}")


def test_criterion_8_integration_by_parts_chain(localization_run):
    worst = 0.0
    phi = localization_run["phi"]
    psi = localization_run["psi"]
    for char, inst in localization_run["instances"].items():
        for n in inst.family.indices:
            out = i1_chain_check(inst, phi, phi, psi, n)
            worst = max(worst, out["residual"])
        # the verdicts recomputed these too; fold in their residuals
        worst = max(worst,
                    max(localization_run["verdicts"][char]["i1_chain_residuals"]))
    report(8, worst <= 1e-8,
           f"max chain residual over both instances and all indices: "
           f"{worst:.2e} (tol 1e-8)")


def test_criterion_9_determinism(tmp_path):
    cfg = {
        "experiment": "hdist_sweep",
        "grid": {"d": 2, "N": 128, "L": 16.0},
        "families": {
            "u": {"kind": "oscillation", "amplitude": "gaussian",
                  "direction": [1, 0], "indices": [8, 16, 32],
                  "prefactor_power": -0.5},
            "v": {"kind": "oscillation", "amplitude": "gaussian",
                  "direction": [1, 0], "indices": [8, 16, 32]},
        },
        "test_functions": {"phi1": "gaussian", "phi2": "gaussian"},
        "symbols": ["constant_one", "riesz_1"],
        "tensor": {"m_max": 1, "n_max": 1},
        "zero_check": {"theta": "gaussian", "k": 0, "p": 2.0},
    }
    loc_cfg = {
        "experiment": "localization",
        "grid": {"d": 3, "N": 32, "L": 8.0},
        "coefficients": LOC_COEFFS,
        "amplitude": LOC_AMP,
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
    identical = True
    compared = 0
    for tag, cfg_i in (("sweep", cfg), ("loc", loc_cfg)):
        d1, d2 = tmp_path / f"{tag}1", tmp_path / f"{tag}2"
        run_config(cfg_i, output_dir=d1)
        run_config(cfg_i, output_dir=d2)
        for f1 in sorted(d1.iterdir()):
            f2 = d2 / f1.name
            same = f1.read_bytes() == f2.read_bytes()
            identical = identical and same
            compared += 1
    report(9, identical and compared >= 6,
           f"{compared} artifact files byte-compared across re-runs, "
           f"all identical={identical}")
