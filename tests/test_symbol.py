import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import sph_harm_y

from hdist.grid import Grid
from hdist.multiplier import from_symbol
from hdist.symbol import (SphericalHarmonicBasis, SphericalSymbol, _harmonics,
                          circle_quadrature, hs_sphere_norm, s2_quadrature, sh_analyze)


def angle_route(d, n, j, x):
    """Y_{n,j} at the unit vectors x (d, M) from their angles: exp(+-i n theta)
    on the circle, sph_harm_y on the sphere.  The reference for the
    recurrence that the package evaluates."""
    azimuth = np.arctan2(x[1], x[0])
    if d == 2:
        sign = 1 if j == 1 else -1
        return np.exp(sign * 1j * n * azimuth) / np.sqrt(2 * np.pi)
    return sph_harm_y(n, j - 1 - n, np.arccos(np.clip(x[2], -1.0, 1.0)), azimuth)


class TestQuadrature:
    def test_circle_weights(self):
        q = circle_quadrature(64)
        assert q.weights.sum() == pytest.approx(2 * np.pi)
        assert np.allclose(np.sum(q.nodes**2, axis=0), 1.0)

    def test_s2_weights(self):
        q = s2_quadrature(12, 24)
        assert q.weights.sum() == pytest.approx(4 * np.pi)
        assert np.allclose(np.sum(q.nodes**2, axis=0), 1.0)

    @pytest.mark.parametrize("d", [2, 3])
    def test_orthonormality(self, d):
        basis = SphericalHarmonicBasis.build(d, 6)
        gram = (basis.table * basis.quadrature.weights) @ np.conj(basis.table.T)
        assert np.max(np.abs(gram - np.eye(basis.size))) < 1e-9


class TestHarmonicTransforms:
    @pytest.mark.parametrize("d", [2, 3])
    def test_single_harmonic(self, d):
        basis = SphericalHarmonicBasis.build(d, 5)
        nj = (2, 1)
        f = basis.evaluate(*nj, basis.quadrature.nodes)
        coeffs = sh_analyze(f, basis)
        expected = np.zeros(basis.size)
        expected[basis.indices.index(nj)] = 1.0
        assert np.max(np.abs(coeffs - expected)) < 1e-9

    @pytest.mark.parametrize("d", [2, 3])
    def test_constant(self, d):
        basis = SphericalHarmonicBasis.build(d, 4)
        area = 2 * np.pi if d == 2 else 4 * np.pi
        coeffs = sh_analyze(np.ones(basis.quadrature.weights.shape), basis)
        assert coeffs[0] == pytest.approx(np.sqrt(area))
        assert np.max(np.abs(coeffs[1:])) < 1e-9

    def test_coordinate_is_degree_one(self):
        basis = SphericalHarmonicBasis.build(3, 5)
        f = basis.quadrature.nodes[2]  # restriction of x -> x_3
        coeffs = sh_analyze(f, basis)
        for (n, _), c in zip(basis.indices, coeffs):
            if n != 1:
                assert abs(c) < 1e-9

    @pytest.mark.parametrize("d", [2, 3])
    def test_round_trip(self, d):
        basis = SphericalHarmonicBasis.build(d, 6)
        rng = np.random.default_rng(0)
        coeffs = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
        back = sh_analyze(coeffs @ basis.table, basis)  # synthesis at the nodes
        assert np.max(np.abs(back - coeffs)) < 1e-9

    def test_band_limited_values_round_trip(self):
        basis = SphericalHarmonicBasis.build(3, 4)
        nodes = basis.quadrature.nodes
        f = 1.0 + nodes[0] + 0.3 * nodes[2] ** 2
        back = sh_analyze(f, basis) @ basis.table
        assert np.max(np.abs(back - f)) < 1e-8


class TestLatticeRows:
    @pytest.mark.parametrize("d, n, n_max", [
        (2, 64, 12), (3, 16, 5),
        # n = None: the quadrature table, against the angle route at its nodes
        pytest.param(2, None, 16, id="table-2-16"), pytest.param(3, None, 16, id="table-3-16"),
    ])
    def test_rows_match_the_symbol_route(self, d, n, n_max):
        # the reference on the lattice: the angle route wrapped as a symbol
        # and evaluated at the lattice directions, zero mode set to its mean
        basis = SphericalHarmonicBasis.build(d, n_max)
        if n is None:
            nodes = basis.quadrature.nodes
            for (deg, j), row in zip(basis.indices, basis.table):
                assert np.max(np.abs(row - angle_route(d, deg, j, nodes))) <= 1e-14, (deg, j)
            return
        grid = Grid(d, n, 8.0)
        rows = list(basis.lattice_rows(grid))
        assert len(rows) == basis.size
        for (deg, j), row in zip(basis.indices, rows):
            mean = 0.0 if deg > 0 else 1.0 / np.sqrt(2 * np.pi if d == 2 else 4 * np.pi)
            psi = SphericalSymbol(d, lambda xi, deg=deg, j=j: angle_route(d, deg, j, xi),
                                  sphere_mean=mean)
            assert np.max(np.abs(row - from_symbol(grid, psi).m)) <= 1e-14, (deg, j)
            assert row[(0,) * d] == mean

    @pytest.mark.parametrize("d", [2, 3])
    def test_rows_refuse_a_grid_of_another_dimension(self, d):
        basis = SphericalHarmonicBasis.build(d, 2)
        with pytest.raises(ValueError, match="dimension"):
            next(basis.lattice_rows(Grid(5 - d, 8, 8.0)))

    def test_rows_are_yielded_one_at_a_time(self):
        # the 25 rows at 256^2 stacked would hold 25 MiB
        grid, basis = Grid(2, 256, 16.0), SphericalHarmonicBasis.build(2, 12)
        tracemalloc.start()
        try:
            for _ in basis.lattice_rows(grid):
                pass
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


class TestAdditionTheorem:
    @settings(max_examples=25, deadline=None)
    @given(d=st.sampled_from([2, 3]), n_max=st.integers(0, 16),
           seed=st.integers(0, 2**32 - 1))
    def test_degree_sums_and_missing_harmonics(self, d, n_max, seed):
        # sum_j |Y_{n,j}|^2 is 1/(2 pi) at n = 0 and 1/pi above on the
        # circle, (2n+1)/(4 pi) on the sphere; x / |x| are the unit vectors
        x = np.random.default_rng(seed).normal(size=(d, 8))
        sums = np.zeros((n_max + 1, 8))
        for (n, _), y in _harmonics(d, n_max, x, np.linalg.norm(x, axis=0)):
            sums[n] += np.abs(y) ** 2
        n = np.arange(n_max + 1)[:, None]
        expected = (np.where(n == 0, 1.0, 2.0) / (2 * np.pi) if d == 2
                    else (2 * n + 1) / (4 * np.pi))
        np.testing.assert_allclose(sums, np.broadcast_to(expected, sums.shape), rtol=1e-12)

        basis = SphericalHarmonicBasis.build(d, 0)
        count = (1 if n_max == 0 else 2) if d == 2 else 2 * n_max + 1
        unit = x / np.linalg.norm(x, axis=0)
        assert basis.evaluate(n_max, count, unit).shape == (8,)
        for j in (0, count + 1):
            with pytest.raises(ValueError):
                basis.evaluate(n_max, j, unit)


class TestSphereNorm:
    def test_single_harmonic_d3(self):
        basis = SphericalHarmonicBasis.build(3, 8)
        for nj in [(0, 1), (3, 2), (8, 5)]:
            coeffs = np.zeros(basis.size, dtype=complex)
            coeffs[basis.indices.index(nj)] = 1.0
            for s in range(4):
                val = hs_sphere_norm(coeffs, s, 3, indices=basis.indices)
                assert val == pytest.approx((nj[0] + 0.5) ** s, rel=1e-12)

    def test_circle_weight(self):
        basis = SphericalHarmonicBasis.build(2, 4)
        coeffs = np.zeros(basis.size, dtype=complex)
        coeffs[basis.indices.index((3, 1))] = 2.0
        # single mode: |c| times the shifted-Laplacian eigenvalue (n^2+1)^(s/2)
        assert hs_sphere_norm(coeffs, 2, 2, indices=basis.indices) == pytest.approx(
            2.0 * (9 + 1)
        )

    def test_s_zero_is_l2(self):
        basis = SphericalHarmonicBasis.build(3, 4)
        rng = np.random.default_rng(1)
        coeffs = rng.normal(size=basis.size)
        assert hs_sphere_norm(coeffs, 0, 3, indices=basis.indices) == pytest.approx(
            np.linalg.norm(coeffs)
        )

    def test_monotone_in_s(self):
        basis = SphericalHarmonicBasis.build(3, 4)
        rng = np.random.default_rng(2)
        coeffs = rng.normal(size=basis.size)
        coeffs[0] = 0.0  # drop the degree-0 term, weights then >= 1
        vals = [hs_sphere_norm(coeffs, s, 3, indices=basis.indices) for s in range(4)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

