import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hdist.grid import Grid, GridFunction, dft, lp_norm
from hdist.registry import field_function, make_field
from hdist.sobolev import (CONCENTRATION, SequenceFamily, strong_null_probe,
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
        fam = SequenceFamily(g, "oscillation", amplitude=a, direction=(1, 0),
                             indices=(32,))
        u = fam.u(32)
        scale = 2 * np.pi * fam.frequency_shift(32)
        val = surrogate_negative_norm(u, 1, 2.0) * scale
        assert val == pytest.approx(lp_norm(a, 2.0), rel=0.05)

    def test_surrogate_below_upper_cross_check(self, grid):
        # 10-case suite: surrogate <= C_eq * representation upper bound,
        # with the empirical constant recorded and small at p = 2
        rng = np.random.default_rng(0)
        worst = 0.0
        for case in range(10):
            w = 0.6 + 0.1 * case
            f = make_field(grid, {"name": "gaussian", "params": {"width": w}})
            # d^(1,0) f has the one-part representation f: its bound is |f|_2
            value = surrogate_negative_norm(derivative(f, (1, 0)), 1, 2.0)
            upper = lp_norm(f, 2.0)
            worst = max(worst, value / upper)
        assert worst <= 1.0 + 1e-12  # Plancherel: the symbol is bounded by 1


class TestFamilies:
    def test_modulation_invariance(self, grid, gaussian):
        fam = SequenceFamily(grid, "oscillation", amplitude=gaussian, direction=(2, 1),
                             indices=(4, 8))
        for n in (4, 8):
            for p in (1.5, 2.0, 4.0):
                assert lp_norm(fam.u(n), p) == pytest.approx(lp_norm(gaussian, p))

    def test_aliasing_guard(self, grid, gaussian):
        fam = SequenceFamily(grid, "oscillation", amplitude=gaussian, direction=(1, 0),
                             indices=(8,))
        fam.u(32)  # exactly N/4: allowed
        with pytest.raises(AliasingError):
            fam.u(33)
        fam2 = SequenceFamily(grid, "oscillation", amplitude=gaussian, direction=(2, 1),
                              indices=(8,))
        with pytest.raises(AliasingError):
            fam2.u(17)
        with pytest.raises(AliasingError):  # the family guards its indices
            SequenceFamily(grid, "oscillation", amplitude=gaussian, direction=(1, 0),
                           indices=(33,))

    def test_scaled_oscillation_norm_window(self):
        g = Grid(2, 256, 16.0)
        a = make_field(g, "gaussian")
        fam = SequenceFamily(g, "oscillation", amplitude=a, direction=(1, 0),
                             indices=(8, 16, 32, 64), order=1)
        ref = lp_norm(a, 2.0)
        for n in fam.indices:
            ratio = surrogate_negative_norm(fam.u(n), 1, 2.0) / ref
            assert 0.5 <= ratio <= 2.0

    def test_scaled_inverse_order(self, grid, gaussian):
        # an oscillation reads its order
        fam = SequenceFamily(grid, "oscillation", amplitude=gaussian,
                             direction=(1, 0), indices=(8, 16), order=-1)
        scale = (2 * np.pi * fam.frequency_shift(8)) ** -1
        expected = scale * np.abs(gaussian.values)
        assert np.max(np.abs(np.abs(fam.u(8).values) - expected)) < 1e-12

    def test_prefactor_power(self, grid, gaussian):
        fam = SequenceFamily(grid, "oscillation", amplitude=gaussian, direction=(1, 0),
                             indices=(4, 9), prefactor_power=-0.5)
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
        with pytest.raises(AliasingError):  # the family guards its indices
            SequenceFamily(g, CONCENTRATION, indices=(16,),
                           amplitude_fn=field_function(2, "gaussian"))

    def test_kind_validation(self, grid, gaussian):
        for kind in ("warp", "scaled_oscillation"):
            with pytest.raises(ValueError):
                SequenceFamily(grid, kind, amplitude=gaussian)
        with pytest.raises(ValueError):
            SequenceFamily(grid, "oscillation", amplitude=gaussian,
                           direction=(0, 0))

    def test_defaults_follow_grid_and_kind(self, grid, gaussian):
        g3 = Grid(3, 16, 8.0)
        a3 = make_field(g3, "gaussian")
        fam = SequenceFamily(g3, "oscillation", amplitude=a3, indices=(1, 2, 3))
        assert fam.direction == (1, 0, 0)
        assert fam.order == 0
        plain = SequenceFamily(grid, "oscillation", amplitude=gaussian, indices=(8,))
        scaled = SequenceFamily(grid, "oscillation", amplitude=gaussian, order=2,
                                indices=(8,))
        assert scaled.direction == (1, 0)
        factor = (2 * np.pi * 8 / 16) ** 2
        assert scaled.spectral_shift(8)[1] == factor
        assert np.array_equal(scaled.u(8).values, factor * plain.u(8).values)

    def test_concentration_has_no_spectral_shift(self):
        fam = SequenceFamily(Grid(2, 64, 8.0), CONCENTRATION, indices=(2,),
                             amplitude_fn=field_function(2, "gaussian"))
        with pytest.raises(ValueError):
            fam.spectral_shift(2)

    def test_spectral_shift_guards_the_index(self, grid, gaussian):
        fam = SequenceFamily(grid, "oscillation", amplitude=gaussian, indices=(8,))
        with pytest.raises(AliasingError):
            fam.spectral_shift(33)


@st.composite
def shifted_products(draw):
    """A drawn oscillation family on a 2- or 3-D grid, a guarded index and a
    random complex field g."""
    d = draw(st.sampled_from([2, 3]))
    grid = Grid(d, draw(st.sampled_from([16, 32])), draw(st.floats(2.0, 20.0)))
    direction = tuple(draw(st.lists(st.integers(-3, 3), min_size=d, max_size=d)
                           .filter(any)))
    n = draw(st.integers(1, grid.N // (4 * max(abs(c) for c in direction))))
    order = draw(st.sampled_from([0, 1, -2]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def field():
        return GridFunction(grid, rng.normal(size=grid.shape)
                            + 1j * rng.normal(size=grid.shape))

    fam = SequenceFamily(grid, "oscillation", amplitude=field(), direction=direction,
                         indices=(n,), order=order,
                         prefactor_power=draw(st.sampled_from([0.0, -0.5])))
    return fam, n, field()


@settings(derandomize=True, max_examples=30, deadline=None)
@given(shifted_products())
def test_spectral_shift_is_the_transform_of_the_modulation(case):
    # dft(g u_n) is s_n times the roll of dft(g a) by the lattice row n xi0
    fam, n, g = case
    row, s = fam.spectral_shift(n)
    want = dft(g * fam.u(n))
    got = s * np.roll(dft(g * fam.amplitude), row, axis=tuple(range(g.grid.d)))
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


class TestProbes:
    def test_strong_null_scaled_decay(self, grid, gaussian):
        fam = SequenceFamily(grid, "oscillation", amplitude=gaussian, direction=(1, 0),
                             indices=(8, 16, 32), prefactor_power=-0.5)
        us = [fam.u(n) for n in fam.indices]
        table = strong_null_probe(fam.indices, us, gaussian, 0, 2.0)
        assert table["fits"]["surrogate_norm"]["exponent"] == pytest.approx(-0.5, abs=0.1)
        assert table["meta"]["strongly_null"]

    def test_strong_null_fails_without_scaling(self, grid, gaussian):
        fam = SequenceFamily(grid, "oscillation", amplitude=gaussian, direction=(1, 0),
                             indices=(8, 16, 32))
        us = [fam.u(n) for n in fam.indices]
        table = strong_null_probe(fam.indices, us, gaussian, 0, 2.0)
        ref = lp_norm(gaussian * gaussian, 2.0)
        for v in table["columns"]["surrogate_norm"]:
            assert v == pytest.approx(ref, rel=1e-10)  # modulus invariance
        assert not table["meta"]["strongly_null"]

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 1: at k = 2 the indices 16, 32, 64 are pre-asymptotic; "
        "the norms tend to |theta a|_p > 0 but their fitted trend reads as decay"))
    @pytest.mark.parametrize("p", [4 / 3, 2.0, 3.0])
    def test_order_two_transient_is_not_strongly_null(self, p):
        g = Grid(2, 256, 16.0)
        a = make_field(g, "gaussian")
        fam = SequenceFamily(g, "oscillation", amplitude=a, order=2,
                             direction=(1, 0), indices=(16, 32, 64))
        us = [fam.u(n) for n in fam.indices]
        table = strong_null_probe(fam.indices, us, a, 2, p)
        assert table["meta"]["strongly_null"] is False

    def test_strong_null_zero_family(self, grid, gaussian):
        z = grid.sample(lambda x, y: np.zeros_like(x))
        fam = SequenceFamily(grid, "oscillation", amplitude=z, direction=(1, 0),
                             indices=(8, 16))
        us = [fam.u(n) for n in fam.indices]
        table = strong_null_probe(fam.indices, us, gaussian, 1, 2.0)
        assert all(v == 0 for v in table["columns"]["surrogate_norm"])
