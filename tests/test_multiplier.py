import numpy as np
import pytest

from hdist.grid import Grid, GridFunction, linf_norm, lp_norm, pairing
from hdist.multiplier import (bessel_potential, derivative,
                              derivative_commutation_check, derivative_op,
                              from_symbol, riesz, riesz_potential)
from hdist.registry import constant_symbol, riesz_symbol, smoothed_sign_symbol

from .test_grid import plane_wave, random_smooth


@pytest.fixture(scope="module")
def grid():
    return Grid(2, 128, 16.0)


class TestHomogeneousMultiplier:
    def test_constant_symbol_is_identity(self, grid):
        op = from_symbol(grid, constant_symbol(2))
        f = random_smooth(grid, seed=1)
        out = op.apply(f)
        assert np.max(np.abs(out.values - f.values)) < 1e-13 * linf_norm(f)

    def test_riesz_on_plane_wave(self, grid):
        # plane wave in direction (1, 0): eigenvalue 1/i = -i
        op = from_symbol(grid, riesz_symbol(2, 0))
        f = plane_wave(grid, (1, 0))
        out = op.apply(f)
        assert np.max(np.abs(out.values - (-1j) * f.values)) < 1e-12

    def test_plancherel_bound(self, grid):
        psi = smoothed_sign_symbol(2, 0, eps=0.3)
        op = from_symbol(grid, psi)
        sup = 1.0  # |tanh| < 1
        for seed in range(8):
            f = random_smooth(grid, seed=seed)
            assert lp_norm(op.apply(f), 2) <= sup * lp_norm(f, 2) + 1e-10

    def test_l2_operator_norm_probe(self, grid):
        psi = riesz_symbol(2, 0)
        op = from_symbol(grid, psi)
        nodes_sup = 1.0
        worst = max(
            lp_norm(op.apply(random_smooth(grid, seed=s)), 2)
            / lp_norm(random_smooth(grid, seed=s), 2)
            for s in range(64)
        )
        assert worst <= nodes_sup + 1e-8

    def test_adjoint_pairing(self, grid):
        op = from_symbol(grid, riesz_symbol(2, 1))
        f = random_smooth(grid, seed=21)
        g = random_smooth(grid, seed=22)
        lhs = pairing(op.apply(f), g)
        rhs = pairing(f, op.adjoint().apply(g))
        assert abs(lhs - rhs) < 1e-10 * (1 + abs(lhs))

    def test_composition_is_symbol_product(self, grid):
        psi1, psi2 = riesz_symbol(2, 0), riesz_symbol(2, 1)
        product = type(psi1)(
            2, lambda xi: psi1.eval(xi) * psi2.eval(xi), "r1*r2", sphere_mean=0.0
        )
        f = random_smooth(grid, seed=30)
        via_compose = from_symbol(grid, psi1).compose(from_symbol(grid, psi2)).apply(f)
        via_product = from_symbol(grid, product).apply(f)
        assert np.max(np.abs(via_compose.values - via_product.values)) < 1e-12

    def test_riesz_skew_adjoint_on_real(self, grid):
        f = grid.sample(lambda x, y: np.exp(-(x**2 + y**2)) * (1 + 0.3 * x))
        val = pairing(riesz(grid, 0).apply(f), f)
        assert abs(val.real) < 1e-10 * (1 + abs(val))

    def test_dimension_mismatch(self, grid):
        with pytest.raises(ValueError):
            from_symbol(grid, constant_symbol(3))


class TestPotentials:
    def test_riesz_potential_plane_wave(self, grid):
        f = plane_wave(grid, (2, -1))
        out = riesz_potential(grid).apply(f)
        scale = 1.0 / (2 * np.pi * np.hypot(2, -1) / grid.L)
        assert np.max(np.abs(out.values - scale * f.values)) < 1e-12 * scale

    @pytest.mark.parametrize("d,N", [(2, 128), (3, 32)])
    def test_gradient_of_potential_is_riesz(self, d, N):
        g = Grid(d, N, 8.0)
        f = random_smooth(g, seed=5, band=4)
        f = f * (1.0 / linf_norm(f))
        for axis in range(d):
            e = tuple(1 if i == axis else 0 for i in range(d))
            lhs = derivative(riesz_potential(g).apply(f), e)
            rhs = riesz(g, axis).apply(f) * (-1.0)
            assert np.max(np.abs(lhs.values - rhs.values)) <= 1e-12

    def test_potential_stability_under_refinement(self):
        # ratio |I_1 f|_{L^6} / |f|_{L^2} for a Gaussian in d = 3 must be
        # stable as the grid refines (q = 2, Sobolev exponent qd/(d-q) = 6)
        ratios = []
        for N in (32, 64):
            g = Grid(3, N, 8.0)
            f = g.sample(lambda x, y, z: np.exp(-np.pi * (x**2 + y**2 + z**2)))
            ratios.append(lp_norm(riesz_potential(g).apply(f), 6.0) / lp_norm(f, 2.0))
        assert ratios[1] == pytest.approx(ratios[0], rel=0.02)

    def test_bessel_zero_order_identity(self, grid):
        f = random_smooth(grid, seed=9)
        out = bessel_potential(grid, 0.0).apply(f)
        assert np.max(np.abs(out.values - f.values)) < 1e-13 * linf_norm(f)

    def test_bessel_plane_wave(self, grid):
        m0 = (3, 2)
        f = plane_wave(grid, m0)
        out = bessel_potential(grid, -1.0).apply(f)
        xi2 = (2 * np.pi * np.hypot(*m0) / grid.L) ** 2
        assert np.max(np.abs(out.values - (1 + xi2) ** -0.5 * f.values)) < 1e-12

    def test_bessel_inverse(self, grid):
        f = random_smooth(grid, seed=10)
        out = bessel_potential(grid, -1.5).apply(bessel_potential(grid, 1.5).apply(f))
        assert np.max(np.abs(out.values - f.values)) < 1e-12 * linf_norm(f)


class TestDerivativeCommutation:
    def test_constant_symbol(self, grid):
        f = random_smooth(grid, seed=11)
        assert derivative_commutation_check(constant_symbol(2), (1, 1), f) < 1e-12

    def test_riesz_gaussian(self, grid):
        f = grid.sample(lambda x, y: np.exp(-np.pi * (x**2 + y**2)))
        assert derivative_commutation_check(riesz_symbol(2, 0), (1, 0), f) < 1e-10

    def test_zero_index(self, grid):
        f = random_smooth(grid, seed=12)
        assert derivative_commutation_check(riesz_symbol(2, 0), (0, 0), f) == 0.0

    def test_matches_combined_symbol(self, grid):
        # d^alpha A_psi equals the single multiplier (2 pi i xi)^alpha psi
        psi = riesz_symbol(2, 0)
        alpha = (1, 1)
        f = random_smooth(grid, seed=13)
        combined = derivative_op(grid, alpha).compose(from_symbol(grid, psi))
        lhs = derivative(from_symbol(grid, psi).apply(f), alpha)
        rhs = combined.apply(f)
        assert np.max(np.abs(lhs.values - rhs.values)) < 1e-10 * linf_norm(rhs)

    def test_bad_multi_index(self, grid):
        with pytest.raises(ValueError):
            derivative_op(grid, (1,))
        with pytest.raises(ValueError):
            derivative_op(grid, (-1, 0))


class TestLatticeArrays:
    """The multipliers built from broadcast axis factors and the cached safe
    |xi| are bitwise the arrays of the full-mesh formulas."""

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("N", [8, 16])
    def test_bitwise_equal_to_mesh_formulas(self, d, N):
        rng = np.random.default_rng(100 * d + N)
        g = Grid(d, N, float(rng.uniform(2.0, 20.0)))
        mesh = np.meshgrid(*([g.axis_xi] * d), indexing="ij")
        r = np.sqrt(sum(c * c for c in mesh))
        safe = np.where(r == 0, 1.0, r)
        for _ in range(6):
            alpha = tuple(int(a) for a in rng.integers(0, 4, size=d))
            m = np.ones(g.shape, dtype=np.complex128)
            for axis, a in enumerate(alpha):
                if a:
                    m = m * (2j * np.pi * mesh[axis]) ** a
            assert derivative_op(g, alpha).m.tobytes() == m.tobytes()
        for axis in range(d):
            m = np.where(r == 0, 0.0, mesh[axis] / safe) / 1j
            assert riesz(g, axis).m.tobytes() == m.astype(np.complex128).tobytes()
        m = np.where(r == 0, 0.0, 1.0 / (2 * np.pi * safe))
        assert (riesz_potential(g).m.tobytes()
                == m.astype(np.complex128).tobytes())
        psi = smoothed_sign_symbol(d, int(rng.integers(0, d)), eps=0.3)
        directions = np.stack([(c / safe).ravel() for c in mesh])
        m = psi(directions).reshape(g.shape).astype(np.complex128)
        m[(0,) * d] = from_symbol(g, psi).m[(0,) * d]
        assert from_symbol(g, psi).m.tobytes() == m.tobytes()
