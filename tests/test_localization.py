import numpy as np
import pytest

from hdist.fitting import fit_limit
from hdist.grid import Grid, lp_norm, pairing
from hdist.localization import (build_instance, baseline_pairing,
                                characteristic_pairing, companion_v_family,
                                i1_chain_check, localization_verdict,
                                rellich_step_probe, rhs_smallness_probe)
from hdist.multiplier import (bessel_potential, derivative, from_symbol, riesz,
                              riesz_potential)
from hdist.registry import constant_symbol, make_field, riesz_symbol
from hdist.sobolev import SequenceFamily, wkq_norm

GAUSS15 = {"name": "gaussian", "params": {"width": 1.5}}
GAUSS13 = {"name": "gaussian", "params": {"width": 1.3}}
COEFFS = [{"name": "gaussian", "params": {"width": 1.6}}, GAUSS15, GAUSS13]
AMP = {"name": "gaussian", "params": {"width": 1.2}}


@pytest.fixture(scope="module")
def grid():
    return Grid(3, 32, 8.0)


@pytest.fixture(scope="module")
def tests_pair(grid):
    phi = make_field(grid, GAUSS15)
    return phi, phi


def make(grid, characteristic, indices=(2, 4, 8), k=0):
    return build_instance(grid, COEFFS, AMP, (1, 0, 0), k=k, p=2.0, q=2.0,
                          indices=indices, characteristic=characteristic,
                          cutoff_inner=2.3, cutoff_outer=3.3)


class TestBuildInstance:
    def test_dimension_gate(self):
        g2 = Grid(2, 64, 8.0)
        with pytest.raises(ValueError):
            build_instance(g2, COEFFS[:2], AMP, (1, 0), indices=(2, 4),
                           characteristic=True)

    def test_exponent_gate(self, grid):
        with pytest.raises(ValueError):
            build_instance(grid, COEFFS, AMP, (1, 0, 0), q=3.0, indices=(2,),
                           characteristic=True)

    def test_direction_gate(self, grid):
        with pytest.raises(ValueError):
            build_instance(grid, COEFFS, AMP, (0, 0, 0), indices=(2,),
                           characteristic=True)

    def test_characteristic_construction_kills_dot_product(self, grid):
        inst = make(grid, True)
        assert inst.characteristic_defect() < 1e-10
        ctrl = make(grid, False)
        assert ctrl.characteristic_defect() > 0.5

    def test_rhs_is_exact_divergence(self, grid):
        # f(n) must equal the assembled divergence identically
        from hdist.multiplier import derivative

        inst = make(grid, False)
        n = 4
        u = inst.u_family.u(n)
        manual = None
        for axis, a_i in enumerate(inst.coefficients):
            e = tuple(1 if i == axis else 0 for i in range(3))
            t = derivative(a_i * u, e)
            manual = t if manual is None else manual + t
        got = inst.f(n)
        assert np.max(np.abs(got.values - manual.values)) == 0.0


@pytest.fixture(scope="module")
def zero_inst():
    g = Grid(3, 32, 8.0)
    zero = {"scale": 0.0, "of": "constant_one"}
    return build_instance(g, [zero, zero, zero], AMP, (1, 0, 0),
                          indices=(2, 4, 8), characteristic=True)


class TestZeroCoefficients:
    def test_rhs_vanishes(self, zero_inst, tests_pair):
        table = rhs_smallness_probe(zero_inst, tests_pair[0])
        assert all(v == 0 for v in table.columns["rhs_norm"])

    def test_pairing_vanishes(self, zero_inst, tests_pair):
        v = companion_v_family(zero_inst)
        est = characteristic_pairing(zero_inst, v, *tests_pair, constant_symbol(3))
        assert est.value == 0.0

    def test_chain_both_sides_zero(self, zero_inst, tests_pair):
        v = companion_v_family(zero_inst)
        out = i1_chain_check(zero_inst, v, *tests_pair, constant_symbol(3), 4)
        assert out["lhs"] == 0.0 and abs(out["rhs"]) < 1e-15


@pytest.fixture(scope="module")
def fine_grid():
    # the band headroom for the 1e-8 chain contract needs N = 64
    return Grid(3, 64, 8.0)


@pytest.fixture(scope="module")
def fine_tests(fine_grid):
    phi = make_field(fine_grid, GAUSS15)
    return phi, phi


class TestProbes:
    def test_rhs_decays_only_when_characteristic(self, fine_grid, fine_tests):
        char = rhs_smallness_probe(make(fine_grid, True, indices=(4, 8, 16)),
                                   fine_tests[0])
        ctrl = rhs_smallness_probe(make(fine_grid, False, indices=(4, 8, 16)),
                                   fine_tests[0])
        c_vals = char.columns["rhs_norm"]
        n_vals = ctrl.columns["rhs_norm"]
        assert c_vals[-1] < 0.5 * c_vals[0]
        assert n_vals[-1] > 0.8 * n_vals[0]  # plateau

    def test_chain_identity(self, fine_grid, fine_tests):
        # exact integration by parts spectrally, both instances, both a
        # constant and a genuinely varying symbol
        for char in (True, False):
            inst = make(fine_grid, char, indices=(4, 8))
            v = companion_v_family(inst)
            for psi in (constant_symbol(3), riesz_symbol(3, 2)):
                for n in inst.indices:
                    out = i1_chain_check(inst, v, *fine_tests, psi, n)
                    assert out["residual"] <= 1e-8

    def test_chain_identity_k1(self, fine_grid, fine_tests):
        inst = make(fine_grid, False, indices=(4, 8), k=1)
        v = companion_v_family(inst)
        out = i1_chain_check(inst, v, *fine_tests, constant_symbol(3), 8)
        assert out["residual"] <= 1e-8

    def test_baseline_nonzero(self, fine_grid, fine_tests):
        inst = make(fine_grid, True, indices=(4, 8, 16))
        v = companion_v_family(inst)
        est = baseline_pairing(inst, v, *fine_tests, constant_symbol(3))
        assert abs(est.value) > 0.05

    def test_characteristic_contrast(self, fine_grid, fine_tests):
        psi = constant_symbol(3)
        char = make(fine_grid, True, indices=(4, 8, 16))
        ctrl = make(fine_grid, False, indices=(4, 8, 16))
        v_c = companion_v_family(char)
        v_n = companion_v_family(ctrl)
        base = abs(baseline_pairing(char, v_c, *fine_tests, psi).value)
        val_char = abs(characteristic_pairing(char, v_c, *fine_tests, psi).value)
        val_ctrl = abs(characteristic_pairing(ctrl, v_n, *fine_tests, psi).value)
        assert val_char <= 0.05 * base
        assert val_ctrl >= 0.5 * base


class TestOnePass:
    def test_transform_and_sample_counts(self, grid, tests_pair, monkeypatch):
        inst = make(grid, False)
        v = companion_v_family(inst)
        ns = inst.indices
        counts = {"fft": 0, "u": 0}

        def counted(fn, key):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(np.fft, "fftn", counted(np.fft.fftn, "fft"))
        monkeypatch.setattr(np.fft, "ifftn", counted(np.fft.ifftn, "fft"))
        monkeypatch.setattr(SequenceFamily, "u", counted(SequenceFamily.u, "u"))
        localization_verdict(inst, v, *tests_pair, constant_symbol(3))
        assert counts["fft"] <= 13 * len(ns) + 4
        assert counts["u"] == 2 * len(ns)


def operator_chain(inst, v_fam, phi1, phi2, psi):
    """Per-index values along the operator-by-operator route: every
    multiplier applied by its own transform round trip."""
    grid = inst.grid
    op = from_symbol(grid, psi)
    op_adj = op.adjoint()
    pot = riesz_potential(grid)
    smooth = bessel_potential(grid, -float(inst.k + 1))
    units = [tuple(int(i == j) for i in range(grid.d)) for j in range(grid.d)]
    d_phi1_bar = [derivative(phi1.conj(), e) for e in units]
    rows = []
    for n in inst.indices:
        u, v = inst.u_family.u(n), v_fam.u(n)
        t = op_adj.apply(phi2 * v)
        lhs = sum(pairing(a * phi1 * u, riesz(grid, j).apply(t) * (-1.0))
                  for j, a in enumerate(inst.coefficients))
        w = pot.apply(t)
        f = inst.f(n)
        rhs = -(pairing(f, phi1.conj() * w)
                + sum(pairing(a * u, d * w)
                      for a, d in zip(inst.coefficients, d_phi1_bar)))
        rows.append({
            "baseline": pairing(op.apply(phi1 * u), phi2 * v),
            "weighted": lhs,
            "residual": abs(lhs - rhs) / (1.0 + abs(lhs)),
            "rhs_norm": lp_norm(smooth.apply(phi1 * f), inst.p),
            "rellich": wkq_norm(phi1 * w, inst.k, inst.q),
        })
    return rows


def assert_close(got, want, rtol=1e-12):
    got, want = np.asarray(got), np.asarray(want)
    assert np.all(np.abs(got - want) <= rtol * np.maximum(np.abs(want), 1e-300))


@pytest.mark.parametrize("k", [0, 1])
@pytest.mark.parametrize("characteristic", [True, False])
def test_one_pass_matches_operator_chain(fine_grid, fine_tests, characteristic, k):
    inst = make(fine_grid, characteristic, indices=(4, 8, 12), k=k)
    v = companion_v_family(inst)
    psi = riesz_symbol(3, 0)
    verdict = localization_verdict(inst, v, *fine_tests, psi)
    rellich = rellich_step_probe(inst, v, *fine_tests, psi)
    rows = operator_chain(inst, v, *fine_tests, psi)
    ns = list(inst.indices)
    for key, entry in (("baseline", "baseline"), ("weighted", "char_pairing")):
        want = fit_limit(ns, [r[key] for r in rows]).value
        assert_close(complex(*verdict[entry]["value"]), want)
    assert_close(verdict["rhs_table"]["columns"]["rhs_norm"],
                 [r["rhs_norm"] for r in rows])
    assert_close(rellich.columns["wkq_norm"], [r["rellich"] for r in rows])
    assert max(verdict["i1_chain_residuals"]) <= 1e-8
    assert max(r["residual"] for r in rows) <= 1e-8
