import numpy as np
import pytest

from hdist.commutator import commutator_apply, compactness_probe
from hdist.grid import Grid, linf_norm, lp_norm
from hdist.registry import constant_symbol, make_field, riesz_symbol
from hdist.sobolev import SequenceFamily

from .test_grid import plane_wave, random_smooth


@pytest.fixture(scope="module")
def grid():
    return Grid(2, 128, 16.0)


@pytest.fixture(scope="module")
def gaussian(grid):
    return make_field(grid, "gaussian")


class TestCommutatorApply:
    def test_constant_symbol_vanishes(self, grid, gaussian):
        f = random_smooth(grid, seed=0)
        out = commutator_apply(constant_symbol(2), gaussian, f)
        assert lp_norm(out, 2.0) < 1e-13 * lp_norm(f, 2.0)

    def test_constant_b_vanishes_exactly(self, grid):
        b = grid.sample(lambda x, y: np.ones_like(x))
        f = random_smooth(grid, seed=1)
        out = commutator_apply(riesz_symbol(2, 0), b, f)
        assert np.all(out.values == 0)

    def test_triangle_bound(self, grid, gaussian):
        f = plane_wave(grid, (2, 0))
        out = commutator_apply(riesz_symbol(2, 0), gaussian, f)
        assert lp_norm(out, 2.0) > 0
        bound = 2 * 1.0 * linf_norm(gaussian) * lp_norm(f, 2.0)
        assert lp_norm(out, 2.0) <= bound

    def test_linear_in_f(self, grid, gaussian):
        psi = riesz_symbol(2, 0)
        f1, f2 = random_smooth(grid, seed=2), random_smooth(grid, seed=3)
        joint = commutator_apply(psi, gaussian, f1 + f2)
        split = commutator_apply(psi, gaussian, f1) + commutator_apply(psi, gaussian, f2)
        assert np.max(np.abs(joint.values - split.values)) < 1e-12

    def test_linear_in_b(self, grid, gaussian):
        psi = riesz_symbol(2, 0)
        b2 = make_field(grid, {"name": "bump", "params": {"radius": 3.0}})
        f = random_smooth(grid, seed=4)
        joint = commutator_apply(psi, gaussian + b2, f)
        split = commutator_apply(psi, gaussian, f) + commutator_apply(psi, b2, f)
        assert np.max(np.abs(joint.values - split.values)) < 1e-12

    def test_antisymmetry(self, grid, gaussian):
        # C = A_psi B - B A_psi = -(B A_psi - A_psi B), assembled explicitly
        from hdist.multiplier import from_symbol

        psi = riesz_symbol(2, 1)
        op = from_symbol(grid, psi)
        f = random_smooth(grid, seed=5)
        forward = commutator_apply(psi, gaussian, f)
        swapped = gaussian * op.apply(f) - op.apply(gaussian * f)
        assert np.max(np.abs(forward.values + swapped.values)) < 1e-14

    def test_grid_mismatch(self, grid, gaussian):
        other = Grid(2, 64, 16.0)
        f = other.sample(lambda x, y: np.ones_like(x))
        with pytest.raises(ValueError):
            commutator_apply(riesz_symbol(2, 0), gaussian, f)


class TestCompactnessProbe:
    def test_oscillation_decay(self, grid, gaussian):
        fam = SequenceFamily(grid, amplitude=gaussian, direction=(1, 0),
                             indices=(8, 16, 32))
        table = compactness_probe(fam, riesz_symbol(2, 0), gaussian)
        v2 = table["columns"]["q=2"]
        assert v2[-1] <= 0.4 * v2[0]
        assert table["fits"]["q=2"]["exponent"] < -0.5
        assert table["fits"]["q=4"]["exponent"] < -0.5
        assert not table["meta"]["violations"]

    def test_constant_sequence_flags_hypothesis(self, grid, gaussian):
        # u_n == u fixed: the weak-null hypothesis fails, and C u_n does
        # not decay
        fixed = SequenceFamily(grid, amplitude=gaussian,
                               direction=(1, 0), indices=(8, 16, 32))
        object.__setattr__(fixed, "u", lambda n: gaussian)
        table = compactness_probe(fixed, riesz_symbol(2, 0), gaussian)
        exponent = table["fits"]["q=2"]["exponent"]
        assert exponent is None or exponent > -0.1  # no decay

    def test_constant_symbol_identically_zero(self, grid, gaussian):
        fam = SequenceFamily(grid, amplitude=gaussian, direction=(1, 0),
                             indices=(8, 16, 32))
        table = compactness_probe(fam, constant_symbol(2), gaussian)
        for vals in table["columns"].values():
            assert all(v < 1e-13 for v in vals)

    @pytest.mark.parametrize("c", [1e-100, 1e100])
    def test_linear_in_the_scale_of_b(self, grid, gaussian, c):
        # unscaled powers read the L^4 column of a 1e-100 b as zeros
        fam = SequenceFamily(grid, amplitude=gaussian, direction=(1, 0),
                             indices=(8, 16, 32))
        psi = riesz_symbol(2, 0)
        plain = compactness_probe(fam, psi, gaussian)
        scaled = compactness_probe(fam, psi, gaussian * c)
        for label, vals in plain["columns"].items():
            assert all(abs(got - c * want) <= 1e-12 * c * want
                       for got, want in zip(scaled["columns"][label], vals))
            assert (abs(scaled["fits"][label]["exponent"] - plain["fits"][label]["exponent"])
                    <= 1e-12)

    def test_q_grid_default(self, grid, gaussian):
        fam = SequenceFamily(grid, amplitude=gaussian, direction=(1, 0),
                             indices=(8, 16))
        table = compactness_probe(fam, riesz_symbol(2, 0), gaussian, r=6.0)
        assert tuple(table["meta"]["q_list"]) == (2.0, 6.0)
