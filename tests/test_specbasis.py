import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hdist.grid import Grid, GridFunction, lp_norm, pairing
from hdist.registry import make_field
from hdist.specbasis import (SE_DROP_RTOL, HermiteBasis, hermite_values,
                             oscillator_apply, oscillator_eigenvalue, required_box,
                             se_analyze, se_membership_score, se_sparse)
from hdist.symbol import SphericalHarmonicBasis
from hdist.util import SupportError, dump_json


@pytest.fixture(scope="module")
def grid():
    return Grid(2, 128, 16.0)


@pytest.fixture(scope="module")
def basis(grid):
    return HermiteBasis.build(grid, 8)


def hermite_coeff_1d_oracle(m, fn, t_max=12.0, n_pts=20001):
    """Independent fine-quadrature coefficient of fn against h_m on a line."""
    t = np.linspace(-t_max, t_max, n_pts)
    h = hermite_values(m, t)[m]
    return np.trapezoid(fn(t) * h, t)


class TestHermiteFunctions:
    def test_ground_state_is_normalized_gaussian(self, grid):
        h0 = HermiteBasis.build(grid, 0).function((0, 0))
        mesh = grid.x_axes
        target = np.pi**-0.5 * np.exp(-(mesh[0] ** 2 + mesh[1] ** 2) / 2)
        assert np.max(np.abs(h0.values - target)) < 1e-12
        assert abs(lp_norm(h0, 2.0) - 1.0) < 1e-9

    def test_grid_orthonormality(self, basis):
        pairs = [((0, 0), (0, 0)), ((3, 2), (3, 2)), ((8, 8), (8, 8)),
                 ((0, 0), (1, 0)), ((3, 2), (2, 3)), ((8, 0), (0, 8))]
        for m1, m2 in pairs:
            val = pairing(basis.function(m1), basis.function(m2))
            expected = 1.0 if m1 == m2 else 0.0
            assert abs(val - expected) < 1e-8

    def test_analyze_inverts_function(self, grid, basis):
        coeffs = basis.analyze(basis.function((4, 6)))
        expected = np.zeros((basis.m_max + 1,) * grid.d)
        expected[4, 6] = 1.0
        assert np.max(np.abs(coeffs - expected)) < 1e-8

    def test_synthesize_round_trip(self, grid, basis):
        rng = np.random.default_rng(0)
        shape = (basis.m_max + 1,) * grid.d
        coeffs = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        h = basis.axis_table  # sum_m coeffs[m] h_m(x) h_m'(y) on the grid
        back = basis.analyze(GridFunction(grid, h.T @ coeffs @ h))
        assert np.max(np.abs(back - coeffs)) < 1e-8

    def test_oscillator_eigenfunctions(self, grid, basis):
        for m in [(0, 0), (2, 5), (8, 8), (8, 3)]:
            h = basis.function(m)
            lam = oscillator_eigenvalue(m)
            res = oscillator_apply(h) - h * lam
            rel = np.sqrt(np.sum(np.abs(res.values) ** 2)) / (
                lam * np.sqrt(np.sum(np.abs(h.values) ** 2))
            )
            assert rel < 1e-6

    def test_support_guard(self):
        small = Grid(2, 64, 6.0)
        with pytest.raises(SupportError) as err:
            HermiteBasis.build(small, 8).function((8, 0))
        assert f"{required_box(8):.1f}" in str(err.value)

    def test_bad_index(self, basis):
        with pytest.raises(ValueError):
            basis.function((9, 0))


class TestSchwartzSeminorm:
    """Hermite coefficients, the data the S(R^d) seminorms are read from."""

    def test_plain_gaussian_coefficients(self, grid):
        # exp(-pi |x|^2) is not the ground state; coefficients decay
        # geometrically
        f = make_field(grid, "gaussian")
        a = HermiteBasis.build(grid, 10).analyze(f)
        diag = [abs(a[m, m]) for m in range(0, 10, 2)]
        ratios = [b / a_ for a_, b in zip(diag, diag[1:])]
        assert max(ratios) < 0.5  # geometric decay

    def test_1d_coefficient_oracle(self, grid):
        # cross-check the grid transform against an independent line quadrature
        f = make_field(grid, "gaussian")
        a = HermiteBasis.build(grid, 6).analyze(f)
        for m in (0, 2, 4):
            oracle_1d = hermite_coeff_1d_oracle(m, lambda t: np.exp(-np.pi * t**2))
            # separable Gaussian: coefficient factorizes across axes
            assert a[m, 0] == pytest.approx(
                oracle_1d * hermite_coeff_1d_oracle(0, lambda t: np.exp(-np.pi * t**2)),
                abs=1e-8,
            )


@pytest.fixture(scope="module")
def bases():
    g = Grid(2, 128, 16.0)
    return g, HermiteBasis.build(g, 4), SphericalHarmonicBasis.build(2, 3)


class TestSECoefficients:
    def test_pure_product(self, bases):
        g, hb, sb = bases
        fx = hb.function((2, 0))
        gs = sb.evaluate(1, 1, sb.quadrature.nodes)
        coeffs = se_analyze([(fx, gs)], hb, sb)
        val = coeffs["entries"][coeffs["sphere_indices"].index((1, 1)),
                                coeffs["hermite_indices"].index((2, 0))]
        assert val == pytest.approx(1.0, abs=1e-8)
        total = np.sum(np.abs(coeffs["entries"]) ** 2)
        assert total == pytest.approx(1.0, abs=1e-7)

    def test_zero(self, bases):
        g, hb, sb = bases
        z = g.sample(lambda x, y: np.zeros_like(x))
        coeffs = se_analyze([(z, np.zeros(sb.quadrature.weights.shape))], hb, sb)
        assert np.all(coeffs["entries"] == 0)

    def test_separable_structure(self, bases):
        # theta(x, xi) = exp(-pi |x|^2) (1 + xi_1): sphere side has degrees
        # 0 and 1 only; x side matches the Hermite expansion of the Gaussian
        g, hb, sb = bases
        fx = make_field(g, "gaussian")
        gs = 1.0 + sb.quadrature.nodes[0]
        coeffs = se_analyze([(fx, gs)], hb, sb)
        hermite_gauss = hb.analyze(fx).ravel()
        for i, (deg, j) in enumerate(coeffs["sphere_indices"]):
            row = coeffs["entries"][i]
            if deg > 1:
                assert np.max(np.abs(row)) < 1e-9
            else:
                scale = row[0] / hermite_gauss[0]
                assert np.max(np.abs(row - scale * hermite_gauss)) < 1e-8

    def test_product_parseval(self, bases):
        # band-limited theta: <<theta, theta>> equals the coefficient mass
        g, hb, sb = bases
        terms = [
            (hb.function((1, 2)), sb.evaluate(0, 1, sb.quadrature.nodes)),
            (hb.function((0, 0)) * 0.5, sb.evaluate(2, 2, sb.quadrature.nodes)),
        ]
        coeffs = se_analyze(terms, hb, sb)
        # direct product quadrature of |theta|^2
        w = sb.quadrature.weights
        total = 0.0
        vals = [t[0].values[..., None] * np.asarray(t[1]) for t in terms]
        theta = sum(vals)
        total = np.sum(w * np.abs(theta) ** 2, axis=-1)
        total = g.cell_volume * np.sum(total)
        assert total == pytest.approx(float(np.sum(np.abs(coeffs["entries"]) ** 2)), abs=1e-7)


def _written(coeffs):
    """se_sparse(coeffs) as se_coeffs.json holds it, parsed strictly."""
    def reject(token):
        raise ValueError(f"non-finite JSON constant {token}")

    return json.loads(dump_json(se_sparse(coeffs)), parse_constant=reject)


def _kept_positions(coeffs, sparse):
    rows = [tuple(i) for i in coeffs["sphere_indices"]]
    cols = [tuple(m) for m in coeffs["hermite_indices"]]
    return [(rows.index(tuple(nj)), cols.index(tuple(m)))
            for nj, m, _ in sparse["entries"]]


@pytest.fixture(scope="module", params=["single", "separable"])
def dense(request, bases):
    # one coefficient over rounding noise, and a table of many real entries
    g, hb, sb = bases
    if request.param == "single":
        term = (hb.function((2, 0)), sb.evaluate(1, 1, sb.quadrature.nodes))
    else:
        term = (make_field(g, "gaussian"), 1.0 + sb.quadrature.nodes[0])
    return se_analyze([term], hb, sb)


class TestSparseArtifact:
    def test_kept_and_dropped_cover_the_table(self, dense):
        sparse = _written(dense)
        assert sparse["dropped"]["count"] > 0
        assert len(sparse["entries"]) + sparse["dropped"]["count"] == dense["entries"].size
        assert {k: sparse[k] for k in ("d", "m_max", "n_max", "drop_rtol")} == {
            "d": 2, "m_max": 4, "n_max": 3, "drop_rtol": SE_DROP_RTOL}

    def test_kept_entries_are_the_dense_entries_bit_for_bit(self, dense):
        sparse = _written(dense)
        table = dense["entries"]
        positions = _kept_positions(dense, sparse)
        # exactly the entries the rule keeps, in row-major order
        rule = np.abs(table) > SE_DROP_RTOL * np.max(np.abs(table))
        assert positions == [tuple(ik) for ik in np.argwhere(rule)]
        for (i, k), (_, _, (re, im)) in zip(positions, sparse["entries"]):
            assert complex(re, im) == table[i, k]

    def test_kept_and_dropped_mass_add_up(self, dense):
        sparse = _written(dense)
        kept = sum(abs(complex(re, im)) ** 2 for _, _, (re, im) in sparse["entries"])
        total = np.sum(np.abs(dense["entries"]) ** 2)
        assert kept + sparse["dropped"]["sum_abs2"] == pytest.approx(total, rel=1e-14)

    def test_zero_theta_keeps_nothing(self, bases):
        g, hb, sb = bases
        z = g.sample(lambda x, y: np.zeros_like(x))
        coeffs = se_analyze([(z, np.zeros(sb.quadrature.weights.shape))], hb, sb)
        sparse = _written(coeffs)
        assert sparse["entries"] == []
        assert sparse["dropped"] == {"count": coeffs["entries"].size, "sum_abs2": 0.0}

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(-20, 20))
    def test_kept_set_is_scale_free(self, bases, seed, k):
        # the rule is relative, and scaling by 2**k is exact
        g, hb, sb = bases
        rng = np.random.default_rng(seed)
        shape = (sb.size, (hb.m_max + 1) ** g.d)
        table = (rng.normal(size=shape) + 1j * rng.normal(size=shape)) \
            * 10.0 ** rng.uniform(-20.0, 0.0, size=shape)
        coeffs = {"d": g.d, "m_max": hb.m_max, "n_max": sb.n_max,
                  "sphere_indices": tuple(sb.indices),
                  "hermite_indices": tuple(hb.indices()), "entries": table}
        scaled = {**coeffs, "entries": table * 2.0 ** k}
        labels = [(nj, m) for nj, m, _ in se_sparse(coeffs)["entries"]]
        assert 0 < len(labels) < table.size
        assert [(nj, m) for nj, m, _ in se_sparse(scaled)["entries"]] == labels


class TestMembership:
    def test_single_coefficient_positive(self):
        a = np.zeros((3, 4), dtype=complex)
        a[1, 2] = 1.0
        coeffs = {"entries": a, "sphere_indices": ((0, 1), (1, 1), (1, 2)),
                  "hermite_indices": ((0, 0), (0, 1), (1, 0), (1, 1)),
                  "m_max": 1, "n_max": 1, "d": 2}
        score = se_membership_score(coeffs, [0.5, 1.0, 3.0])
        assert score["verdict"] == "consistent with SE"

    def test_synthetic_tensor_negative(self):
        # |a| = (1 + n^2 + |m|^2)^{-2} exactly: weighted shell sums stop
        # decaying once r is large, so the verdict flips
        n_max, m_max = 12, 12
        sphere_idx = []
        for n in range(n_max + 1):
            for j in range(1, (1 if n == 0 else 2) + 1):
                sphere_idx.append((n, j))
        herm_idx = [(i, k) for i in range(m_max + 1) for k in range(m_max + 1)]
        a = np.zeros((len(sphere_idx), len(herm_idx)))
        for i, (n, _) in enumerate(sphere_idx):
            for k, m in enumerate(herm_idx):
                a[i, k] = (1.0 + n**2 + m[0] ** 2 + m[1] ** 2) ** -2
        coeffs = {"entries": a.astype(complex), "sphere_indices": tuple(sphere_idx),
                  "hermite_indices": tuple(herm_idx), "m_max": m_max, "n_max": n_max,
                  "d": 2}
        score = se_membership_score(coeffs, [0.5, 3.0])
        assert score["verdict"] == "not consistent"
        assert score["r"][0.5]["summable"]
        assert not score["r"][3.0]["summable"]

    def test_norm_families_rank_identically(self):
        # the sup-style norm (weighted pointwise derivatives) and the
        # coefficient-style norm must order a suite of separable test
        # functions the same way for k <= 2; equality is not asserted
        g = Grid(2, 128, 16.0)
        hb = HermiteBasis.build(g, 10)
        sb = SphericalHarmonicBasis.build(2, 6)
        theta = np.arctan2(sb.quadrature.nodes[1], sb.quadrature.nodes[0])
        suite = [
            (make_field(g, {"name": "gaussian", "params": {"width": 2.0}}),
             np.exp(np.cos(theta))),
            (make_field(g, {"name": "gaussian", "params": {"width": 2.5}}) * 0.3,
             np.ones_like(theta)),
            (make_field(g, {"name": "gaussian",
                            "params": {"width": 2.2, "center": [0.5, 0.0]}}),
             1.0 + 0.5 * np.sin(theta)),
            (hb.function((1, 1)) * 2.0, np.cos(2 * theta)),
        ]

        def sup_style(fx, gs, k):
            # separable: sup factorizes into x- and sphere-side factors
            from hdist.multiplier import derivative
            from hdist.util import multi_indices

            mesh = g.x_axes
            wx = (1 + mesh[0] ** 2 + mesh[1] ** 2) ** (k / 2.0)
            n_modes = np.fft.fftfreq(len(gs)) * len(gs)
            gh = np.fft.fft(gs) / len(gs)
            best = 0.0
            for a in range(k + 1):
                lap = np.fft.ifft(gh * len(gs) * (-(n_modes**2)) ** a)
                sphere_sup = float(np.max(np.abs(lap)))
                for beta in multi_indices(2, k - a):
                    dx = derivative(fx, beta)
                    x_sup = float(np.max(wx * np.abs(dx.values)))
                    best = max(best, x_sup * sphere_sup)
            return best

        def coeff_style(fx, gs, k):
            coeffs = se_analyze([(fx, gs)], hb, sb)
            total = 0.0
            for i, (n, _) in enumerate(coeffs["sphere_indices"]):
                for idx, m in enumerate(coeffs["hermite_indices"]):
                    w = (np.prod([(2 * v + 1) for v in m]) ** k
                         * (1.0 + n * n) ** k)
                    total += w**2 * abs(coeffs["entries"][i, idx]) ** 2
            return np.sqrt(total)

        for k in (0, 1, 2):
            sup_vals = [sup_style(fx, gs, k) for fx, gs in suite]
            coeff_vals = [coeff_style(fx, gs, k) for fx, gs in suite]
            assert np.argsort(sup_vals).tolist() == np.argsort(coeff_vals).tolist()

    def test_smooth_separable_positive(self):
        # x factor near the oscillator width, so the coefficient decay is
        # fast enough to certify within the cutoff
        g = Grid(2, 128, 16.0)
        hb = HermiteBasis.build(g, 8)
        sb = SphericalHarmonicBasis.build(2, 6)
        fx = make_field(g, {"name": "gaussian", "params": {"width": 2.0}})
        gs = np.exp(sb.quadrature.nodes[0])  # smooth on the circle
        coeffs = se_analyze([(fx, gs)], hb, sb)
        score = se_membership_score(coeffs, [0.5, 1.0, 2.0, 3.0])
        assert score["verdict"] == "consistent with SE"
