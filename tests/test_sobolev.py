import numpy as np
import pytest

from hdist.grid import Grid, GridFunction, lp_norm
from hdist.registry import field_function, make_field
from hdist.sobolev import (CONCENTRATION, SequenceFamily, SobolevElement,
                           oscillation_family, representation_norm_upper,
                           scaled_oscillation_family, strong_null_probe,
                           surrogate_negative_norm, wkq_norm)
from hdist.multiplier import derivative
from hdist.util import AliasingError

from .test_grid import plane_wave


@pytest.fixture(scope="module")
def grid():
    return Grid(2, 128, 16.0)


@pytest.fixture(scope="module")
def gaussian(grid):
    return make_field(grid, "gaussian")


class TestWkqNorm:
    def test_zero(self, grid):
        f = grid.sample(lambda x, y: np.zeros_like(x))
        assert wkq_norm(f, 2, 2.0) == 0.0

    def test_order_zero_is_lp(self, grid, gaussian):
        for q in (1.5, 2.0, 3.0):
            assert wkq_norm(gaussian, 0, q) == pytest.approx(lp_norm(gaussian, q))

    def test_plane_wave_first_order(self, grid):
        m0 = (3, -2)
        v = plane_wave(grid, m0)
        xi2 = (2 * np.pi * np.hypot(*m0) / grid.L) ** 2
        expected = grid.L ** (grid.d / 2) * (1 + xi2) ** 0.5
        assert wkq_norm(v, 1, 2.0) == pytest.approx(expected, rel=1e-10)

    def test_rejects_negative_order_element(self, grid, gaussian):
        u = SobolevElement.negative({(1, 0): gaussian}, k=1, p=2.0)
        with pytest.raises(ValueError):
            wkq_norm(u, 1, 2.0)


class TestNegativeNorms:
    def test_order_zero_surrogate_is_lp(self, grid, gaussian):
        assert surrogate_negative_norm(gaussian, 0, 2.0) == pytest.approx(
            lp_norm(gaussian, 2.0)
        )

    def test_plane_wave_scaling(self, grid):
        m0 = (4, 1)
        f = plane_wave(grid, m0)
        xi2 = (2 * np.pi * np.hypot(*m0) / grid.L) ** 2
        for k in (1, 2):
            expected = grid.L ** (grid.d / 2.0) * (1 + xi2) ** (-k / 2.0)
            assert surrogate_negative_norm(f, k, 2.0) == pytest.approx(expected)

    def test_oscillation_asymptotics(self):
        # surrogate norm times the modulation frequency recovers |a|_2
        g = Grid(2, 256, 16.0)
        a = make_field(g, "gaussian")
        fam = oscillation_family(g, a, (1, 0), (32,))
        u = fam.u(32)
        scale = 2 * np.pi * fam.frequency_shift(32)
        val = surrogate_negative_norm(u, 1, 2.0) * scale
        assert val == pytest.approx(lp_norm(a, 2.0), rel=0.05)

    def test_representation_upper_single_part(self, grid, gaussian):
        u = SobolevElement.negative({(0, 0): gaussian}, k=0, p=2.0)
        assert representation_norm_upper(u) == pytest.approx(lp_norm(gaussian, 2.0))

    def test_representation_upper_zero(self, grid):
        z = grid.sample(lambda x, y: np.zeros_like(x))
        u = SobolevElement.negative({(0, 0): z, (1, 0): z}, k=1, p=2.0)
        assert representation_norm_upper(u) == 0.0

    def test_surrogate_below_upper_cross_check(self, grid):
        # 10-case suite: surrogate <= C_eq * representation upper bound,
        # with the empirical constant recorded and small at p = 2
        rng = np.random.default_rng(0)
        worst = 0.0
        for case in range(10):
            w = 0.6 + 0.1 * case
            f = make_field(grid, {"name": "gaussian", "params": {"width": w}})
            u = SobolevElement.negative({(1, 0): f}, k=1, p=2.0)
            value = surrogate_negative_norm(u, 1, 2.0)
            upper = representation_norm_upper(u)
            worst = max(worst, value / upper)
        assert worst <= 1.0 + 1e-12  # Plancherel: the symbol is bounded by 1

    def test_parts_order_validation(self, grid, gaussian):
        with pytest.raises(ValueError):
            SobolevElement.negative({(2, 0): gaussian}, k=1, p=2.0)

    def test_evaluate_matches_spectral_derivative(self, grid, gaussian):
        u = SobolevElement.negative({(0, 0): gaussian, (1, 1): gaussian}, k=2, p=2.0)
        direct = gaussian + derivative(gaussian, (1, 1))
        assert np.max(np.abs(u.evaluate().values - direct.values)) < 1e-12


class TestFamilies:
    def test_modulation_invariance(self, grid, gaussian):
        fam = oscillation_family(grid, gaussian, (2, 1), (4, 8))
        for n in (4, 8):
            for p in (1.5, 2.0, 4.0):
                assert lp_norm(fam.u(n), p) == pytest.approx(lp_norm(gaussian, p))

    def test_aliasing_guard(self, grid, gaussian):
        fam = oscillation_family(grid, gaussian, (1, 0), (8,))
        fam.u(32)  # exactly N/4: allowed
        with pytest.raises(AliasingError):
            fam.u(33)
        fam2 = oscillation_family(grid, gaussian, (2, 1), (8,))
        with pytest.raises(AliasingError):
            fam2.u(17)

    def test_scaled_oscillation_norm_window(self):
        g = Grid(2, 256, 16.0)
        a = make_field(g, "gaussian")
        fam = scaled_oscillation_family(g, a, (1, 0), (8, 16, 32, 64), k=1)
        ref = lp_norm(a, 2.0)
        for n in fam.indices:
            ratio = surrogate_negative_norm(fam.u(n), 1, 2.0) / ref
            assert 0.5 <= ratio <= 2.0

    def test_scaled_inverse_order(self, grid, gaussian):
        fam = scaled_oscillation_family(grid, gaussian, (1, 0), (8, 16), k=1, order=-1)
        scale = (2 * np.pi * fam.frequency_shift(8)) ** -1
        expected = scale * np.abs(gaussian.values)
        assert np.max(np.abs(np.abs(fam.u(8).values) - expected)) < 1e-12

    def test_prefactor_power(self, grid, gaussian):
        fam = oscillation_family(grid, gaussian, (1, 0), (4, 9),
                                 prefactor_power=-0.5)
        assert lp_norm(fam.u(4), 2.0) == pytest.approx(0.5 * lp_norm(gaussian, 2.0))
        assert lp_norm(fam.u(9), 2.0) == pytest.approx(lp_norm(gaussian, 2.0) / 3.0)

    def test_concentration_lp_constant(self):
        g = Grid(2, 256, 8.0)
        fam = SequenceFamily(g, CONCENTRATION, p=2.0, indices=(2, 4, 8),
                             amplitude_fn=field_function(2, "gaussian"))
        norms = [lp_norm(fam.u(n), 2.0) for n in fam.indices]
        assert norms[0] == pytest.approx(norms[-1], rel=1e-6)

    def test_concentration_resolution_guard(self):
        g = Grid(2, 64, 8.0)
        fam = SequenceFamily(g, CONCENTRATION, indices=(2,),
                             amplitude_fn=field_function(2, "gaussian"))
        with pytest.raises(AliasingError):
            fam.u(16)

    def test_kind_validation(self, grid, gaussian):
        with pytest.raises(ValueError):
            SequenceFamily(grid, "warp", amplitude=gaussian)
        with pytest.raises(ValueError):
            SequenceFamily(grid, "oscillation", amplitude=gaussian,
                           direction=(0, 0))

    def test_defaults_follow_grid_and_kind(self, grid, gaussian):
        g3 = Grid(3, 16, 8.0)
        a3 = make_field(g3, "gaussian")
        fam = SequenceFamily(g3, "oscillation", amplitude=a3, indices=(1, 2, 3))
        assert fam.direction == (1, 0, 0)
        assert fam.order == 0
        scaled = SequenceFamily(grid, "scaled_oscillation", amplitude=gaussian, k=2)
        assert scaled.direction == (1, 0) and scaled.order == 2


class TestProbes:
    def test_strong_null_scaled_decay(self, grid, gaussian):
        fam = oscillation_family(grid, gaussian, (1, 0), (8, 16, 32),
                                 prefactor_power=-0.5)
        us = [fam.u(n) for n in fam.indices]
        table = strong_null_probe(fam.indices, us, gaussian, 0, 2.0)
        assert table["fits"]["surrogate_norm"]["exponent"] == pytest.approx(-0.5, abs=0.1)
        assert table["meta"]["strongly_null"]

    def test_strong_null_fails_without_scaling(self, grid, gaussian):
        fam = oscillation_family(grid, gaussian, (1, 0), (8, 16, 32))
        us = [fam.u(n) for n in fam.indices]
        table = strong_null_probe(fam.indices, us, gaussian, 0, 2.0)
        ref = lp_norm(gaussian * gaussian, 2.0)
        for v in table["columns"]["surrogate_norm"]:
            assert v == pytest.approx(ref, rel=1e-10)  # modulus invariance
        assert not table["meta"]["strongly_null"]

    def test_strong_null_zero_family(self, grid, gaussian):
        z = grid.sample(lambda x, y: np.zeros_like(x))
        fam = oscillation_family(grid, z, (1, 0), (8, 16))
        us = [fam.u(n) for n in fam.indices]
        table = strong_null_probe(fam.indices, us, gaussian, 1, 2.0)
        assert all(v == 0 for v in table["columns"]["surrogate_norm"])
