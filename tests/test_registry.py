import numpy as np
import pytest

from hdist.grid import Grid, linf_norm
from hdist.registry import (_smooth_step, field_function, list_builtins,
                            make_field, make_symbol)


@pytest.fixture(scope="module")
def grid():
    return Grid(2, 64, 16.0)


class TestFields:
    def test_required_names_present(self):
        dump = list_builtins()
        names = set(dump["fields"]) | set(dump["symbols"])
        assert {"gaussian", "bump", "riesz_1", "constant_one"} <= names

    def test_dump_sorted_and_stable(self):
        a, b = list_builtins(), list_builtins()
        assert a == b
        assert list(a["fields"]) == sorted(a["fields"])
        assert list(a["symbols"]) == sorted(a["symbols"])

    def test_unknown_name(self, grid):
        with pytest.raises(ValueError):
            make_field(grid, "wavelet")

    def test_unknown_param(self, grid):
        with pytest.raises(ValueError):
            make_field(grid, {"name": "gaussian", "params": {"sigma": 2.0}})

    @pytest.mark.parametrize("params, key", [
        ({"width": [1]}, "width"), ({"width": True}, "width"),
        ({"width": "1"}, "width"), ({"center": "origin"}, "center"),
        ({"center": [[0.0, 0.0]]}, "center"), ({"center": 0.0}, "center"),
        ({"axis": 1.9}, "axis"), ({"axis": 0.5}, "axis"), ({"axis": True}, "axis"),
        ({"width": 10**400}, "width"), ({"center": [0, -10**400]}, "center"),
        ({"axis": 10**400}, "axis"),
    ])
    def test_param_of_wrong_type(self, grid, params, key):
        # width and center are gaussian's; axis, an int param, is the
        # coordinate field's and the smoothed_sign symbol's
        makers = ({"coordinate": lambda spec: make_field(grid, spec),
                   "smoothed_sign": lambda spec: make_symbol(2, spec)} if key == "axis"
                  else {"gaussian": lambda spec: make_field(grid, spec)})
        for name, make in makers.items():
            with pytest.raises(ValueError, match=f"'{name}' parameter '{key}'"):
                make({"name": name, "params": params})

    def test_whole_number_for_int_param(self, grid):
        x = make_field(grid, {"name": "coordinate", "params": {"axis": 1.0}})
        assert np.array_equal(x.values, np.broadcast_to(grid.x_axes[1], grid.shape))

    def test_symbol_param_of_wrong_type(self):
        with pytest.raises(ValueError, match="'smoothed_sign' parameter 'eps'"):
            make_symbol(2, {"name": "smoothed_sign", "params": {"eps": [0.1]}})

    def test_gaussian_peak_and_center(self, grid):
        f = make_field(grid, {"name": "gaussian",
                              "params": {"center": [1.0, -2.0], "width": 2.0}})
        mesh = np.broadcast_arrays(*grid.x_axes)
        idx = np.unravel_index(np.argmax(np.abs(f.values)), grid.shape)
        assert mesh[0][idx] == pytest.approx(1.0, abs=grid.spacing)
        assert mesh[1][idx] == pytest.approx(-2.0, abs=grid.spacing)

    def test_bump_compact_support(self, grid):
        f = make_field(grid, {"name": "bump", "params": {"radius": 2.0}})
        mesh = grid.x_axes
        r2 = mesh[0] ** 2 + mesh[1] ** 2
        assert np.all(f.values[r2 >= 4.0] == 0)
        assert linf_norm(f) == pytest.approx(1.0, abs=1e-10)

    def test_shell_cutoff_levels(self, grid):
        f = make_field(grid, {"name": "shell_cutoff",
                              "params": {"r_inner": 2.0, "r_outer": 3.0}})
        mesh = grid.x_axes
        r = np.sqrt(mesh[0] ** 2 + mesh[1] ** 2)
        assert np.all(f.values[r <= 2.0] == 0)
        assert np.allclose(f.values[r >= 3.0], 1.0)

    def test_shell_cutoff_step_matches_full_lattice_formula(self):
        # the step evaluates its exponentials on the transition band only;
        # this is the formula that evaluated them on the whole lattice
        def full_lattice_step(t):
            t = np.clip(t, 0.0, 1.0)
            with np.errstate(divide="ignore", over="ignore"):
                a = np.where(t > 0, np.exp(-1.0 / np.where(t > 0, t, 1.0)), 0.0)
                b = np.where(t < 1, np.exp(-1.0 / np.where(t < 1, 1.0 - t, 1.0)), 0.0)
            return a / (a + b)

        g = Grid(3, 32, 8.0)
        params = {"r_inner": 2.3, "r_outer": 3.3, "center": [0.1, -0.2, 0.0]}
        r = np.sqrt(sum((x - c) ** 2 for x, c in zip(g.x_axes, params["center"])))
        want = full_lattice_step((r - 2.3) / (3.3 - 2.3))
        got = make_field(g, {"name": "shell_cutoff", "params": params}).values
        assert np.array_equal(got, want)
        edges = np.array([-1.0, 0.0, 1e-300, 1e-3, 0.5, 1 - 1e-3, 1 - 1e-16, 1.0, 2.0])
        assert np.array_equal(_smooth_step(edges), full_lattice_step(edges))

    def test_product_and_scale_combinators(self, grid):
        spec = {"scale": [0.0, 2.0],
                "of": {"product": ["gaussian", "constant_one"]}}
        f = make_field(grid, spec)
        g = make_field(grid, "gaussian")
        assert f.values.dtype == np.complex128
        assert np.max(np.abs(f.values - 2j * g.values)) < 1e-15

    def test_real_scale_keeps_field_real(self, grid):
        f = make_field(grid, {"scale": 2.0, "of": "gaussian"})
        g = make_field(grid, "gaussian")
        assert g.values.dtype == f.values.dtype == np.float64
        assert np.array_equal(f.values, 2.0 * g.values)

    def test_field_function_matches_sample(self, grid):
        fn = field_function(2, {"name": "gaussian", "params": {"width": 1.5}})
        via_fn = grid.sample(fn)
        via_make = make_field(grid, {"name": "gaussian", "params": {"width": 1.5}})
        assert np.array_equal(via_fn.values, via_make.values)


class TestSymbols:
    def test_riesz_values(self):
        psi = make_symbol(2, "riesz_1")
        xi = np.array([[1.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
        np.testing.assert_allclose(psi(xi), [-1j, 0.0, 1j], atol=1e-15)

    def test_constant_value_param(self):
        psi = make_symbol(3, {"name": "constant_one", "params": {"value": 2.5}})
        xi = np.array([[1.0], [0.0], [0.0]])
        assert psi(xi)[0] == 2.5
        assert psi.sphere_mean == 2.5

    def test_dimension_gate(self):
        with pytest.raises(ValueError):
            make_symbol(2, "riesz_3")

    def test_smoothed_sign_odd(self):
        psi = make_symbol(2, {"name": "smoothed_sign", "params": {"eps": 0.3}})
        xi = np.array([[0.6, -0.6], [0.8, 0.8]])
        vals = psi(xi)
        assert vals[0] == pytest.approx(-vals[1])

    def test_unknown_symbol(self):
        with pytest.raises(ValueError):
            make_symbol(2, "mystery")
