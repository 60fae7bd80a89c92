import numpy as np
import pytest

from hdist.symbol import (SphericalHarmonicBasis, circle_quadrature,
                          hs_sphere_norm, s2_quadrature, sh_analyze)


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

