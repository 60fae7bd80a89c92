import numpy as np
import pytest

from hdist.grid import (FREQUENCY, Grid, GridFunction, dft, idft, l2_norm,
                        linf_norm, lp_norm, pairing)


@pytest.fixture(scope="module")
def grid():
    return Grid(2, 128, 16.0)


def random_smooth(grid, seed=0, band=6):
    """Band-limited random field: smooth by construction."""
    rng = np.random.default_rng(seed)
    spec = np.zeros(grid.shape, dtype=complex)
    for _ in range(12):
        m = rng.integers(-band, band + 1, size=grid.d)
        spec[tuple(m % grid.N)] = rng.normal() + 1j * rng.normal()
    return idft(GridFunction(grid, spec, FREQUENCY))


def plane_wave(grid, m0):
    coords = grid.meshgrid_x()
    phase = sum(c * m for c, m in zip(coords, m0)) * (2j * np.pi / grid.L)
    return GridFunction(grid, np.exp(phase), "physical")


class TestGridValidation:
    def test_dimension(self):
        with pytest.raises(ValueError):
            Grid(4, 64, 8.0)

    def test_power_of_two(self):
        with pytest.raises(ValueError):
            Grid(2, 100, 8.0)
        with pytest.raises(ValueError):
            Grid(2, 4, 8.0)

    def test_box_length(self):
        with pytest.raises(ValueError):
            Grid(2, 64, -1.0)

    def test_shape_mismatch(self, grid):
        with pytest.raises(ValueError):
            GridFunction(grid, np.zeros((4, 4)), "physical")


class TestDft:
    def test_constant(self, grid):
        f = grid.sample(lambda x, y: np.ones_like(x))
        fh = dft(f).values
        assert fh[0, 0] == pytest.approx(grid.L**2)
        rest = fh.copy()
        rest[0, 0] = 0
        assert np.max(np.abs(rest)) < 1e-10 * grid.L**2

    def test_plane_wave(self, grid):
        m0 = (3, -5)
        fh = dft(plane_wave(grid, m0)).values
        idx = tuple(m % grid.N for m in m0)
        assert fh[idx] == pytest.approx(grid.L**2, rel=1e-12)
        rest = fh.copy()
        rest[idx] = 0
        assert np.max(np.abs(rest)) < 1e-10 * grid.L**2

    def test_gaussian_pair(self):
        # closed-form transform of exp(-pi |x|^2) is exp(-pi |xi|^2)
        g = Grid(2, 128, 16.0)
        f = g.sample(lambda x, y: np.exp(-np.pi * (x**2 + y**2)))
        fh = dft(f).values
        mesh = g.xi_axes
        target = np.exp(-np.pi * (mesh[0] ** 2 + mesh[1] ** 2))
        assert np.max(np.abs(fh - target)) < 1e-10

    def test_round_trip(self, grid):
        f = random_smooth(grid, seed=3)
        back = idft(dft(f))
        assert np.max(np.abs(back.values - f.values)) < 1e-12 * max(
            1.0, np.max(np.abs(f.values))
        )

    def test_side_tags(self, grid):
        f = grid.sample(lambda x, y: np.exp(-(x**2 + y**2)))
        with pytest.raises(ValueError):
            idft(f)
        with pytest.raises(ValueError):
            dft(dft(f))


class TestNorms:
    def test_constant_lp(self, grid):
        c = 2.5 - 1.0j
        f = grid.sample(lambda x, y: np.full_like(x, 1.0)) * c
        for p in (1.5, 2.0, 4.0):
            assert lp_norm(f, p) == pytest.approx(abs(c) * grid.L ** (2 / p))

    def test_homogeneity(self, grid):
        f = grid.sample(lambda x, y: np.exp(-(x**2 + y**2)))
        s = -3.7
        assert lp_norm(f * s, 2.5) == pytest.approx(abs(s) * lp_norm(f, 2.5))

    def test_gaussian_l2(self):
        # integral of exp(-2 pi |x|^2) over R^2 is 1/2
        g = Grid(2, 128, 16.0)
        f = g.sample(lambda x, y: np.exp(-np.pi * (x**2 + y**2)))
        assert abs(lp_norm(f, 2.0) - 2**-0.5) < 1e-8

    def test_exponent_range(self, grid):
        f = grid.sample(lambda x, y: np.ones_like(x))
        for p in (1.0, 0.5, np.inf):
            with pytest.raises(ValueError):
                lp_norm(f, p)
        assert linf_norm(f) == pytest.approx(1.0)

    def test_monotone_under_domination(self, grid):
        f = grid.sample(lambda x, y: np.exp(-(x**2 + y**2)))
        g = f * 0.5
        for p in (1.5, 2.0, 3.0):
            assert lp_norm(g, p) <= lp_norm(f, p)


class TestPairing:
    def test_self_pairing_is_norm(self, grid):
        f = random_smooth(grid, seed=5)
        val = pairing(f, f)
        assert val.imag == pytest.approx(0.0, abs=1e-12)
        assert val.real == pytest.approx(l2_norm(f) ** 2, rel=1e-12)

    def test_orthogonal_plane_waves(self, grid):
        u = plane_wave(grid, (2, 1))
        v = plane_wave(grid, (3, 1))
        assert abs(pairing(u, v)) < 1e-10 * grid.L**2

    def test_plane_wave_self(self, grid):
        u = plane_wave(grid, (4, -2))
        assert pairing(u, u) == pytest.approx(grid.L**2)

    def test_conjugate_symmetry(self, grid):
        u = random_smooth(grid, seed=7)
        v = random_smooth(grid, seed=8)
        assert pairing(u, v) == pytest.approx(np.conj(pairing(v, u)))

    def test_grid_mismatch(self, grid):
        other = Grid(2, 64, 16.0)
        u = grid.sample(lambda x, y: np.ones_like(x))
        v = other.sample(lambda x, y: np.ones_like(x))
        with pytest.raises(ValueError):
            pairing(u, v)

    def test_parseval(self, grid):
        u = random_smooth(grid, seed=11)
        v = random_smooth(grid, seed=12)
        lhs = pairing(u, v)
        uh, vh = dft(u).values, dft(v).values
        rhs = np.sum(uh * np.conj(vh)) / grid.L**2
        assert abs(lhs - rhs) < 1e-10 * (1 + abs(lhs))
