import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hdist.grid import Grid, GridFunction, dft, linf_norm, lp_norm, pairing
from hdist.multiplier import (MultiplierOperator, bessel_potential, derivative,
                              derivative_op, from_symbol, riesz, riesz_potential)
from hdist.registry import (SYMBOL_BUILTINS, constant_symbol, coordinate_symbol,
                            make_symbol, riesz_symbol, smoothed_sign_symbol)
from hdist.symbol import SphericalSymbol

from .test_grid import grids, plane_wave, random_field, random_smooth


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
        rhs = pairing(f, MultiplierOperator(grid, np.conj(op.m)).apply(g))
        assert abs(lhs - rhs) < 1e-10 * (1 + abs(lhs))

    def test_composition_is_symbol_product(self, grid):
        psi1, psi2 = riesz_symbol(2, 0), riesz_symbol(2, 1)
        product = type(psi1)(
            2, lambda xi: psi1.eval(xi) * psi2.eval(xi), "r1*r2", sphere_mean=0.0
        )
        f = random_smooth(grid, seed=30)
        in_turn = from_symbol(grid, psi1).apply(from_symbol(grid, psi2).apply(f))
        via_product = from_symbol(grid, product).apply(f)
        assert np.max(np.abs(in_turn.values - via_product.values)) < 1e-12

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


def commutation_gap(psi, alpha, f):
    """Relative L^2 gap between d^alpha (A_psi f) and A_psi (d^alpha f)."""
    op = from_symbol(f.grid, psi)
    lhs = derivative(op.apply(f), alpha)
    rhs = op.apply(derivative(f, alpha))
    return lp_norm(lhs - rhs, 2) / lp_norm(f, 2)


class TestDerivativeCommutation:
    def test_constant_symbol(self, grid):
        f = random_smooth(grid, seed=11)
        assert commutation_gap(constant_symbol(2), (1, 1), f) < 1e-12

    def test_riesz_gaussian(self, grid):
        f = grid.sample(lambda x, y: np.exp(-np.pi * (x**2 + y**2)))
        assert commutation_gap(riesz_symbol(2, 0), (1, 0), f) < 1e-10

    def test_zero_index(self, grid):
        f = random_smooth(grid, seed=12)
        assert commutation_gap(riesz_symbol(2, 0), (0, 0), f) == 0.0

    def test_matches_combined_symbol(self, grid):
        # d^alpha A_psi equals the single multiplier (2 pi i xi)^alpha psi
        psi = riesz_symbol(2, 0)
        alpha = (1, 1)
        f = random_smooth(grid, seed=13)
        combined = MultiplierOperator(
            grid, derivative_op(grid, alpha).m * from_symbol(grid, psi).m)
        lhs = derivative(from_symbol(grid, psi).apply(f), alpha)
        rhs = combined.apply(f)
        assert np.max(np.abs(lhs.values - rhs.values)) < 1e-10 * linf_norm(rhs)

    def test_bad_multi_index(self, grid):
        with pytest.raises(ValueError):
            derivative_op(grid, (1,))
        with pytest.raises(ValueError):
            derivative_op(grid, (-1, 0))


@st.composite
def _operator_pair(draw):
    """(grid, two operator specs, field seed): a spec is a registry symbol
    name or a derivative multi-index."""
    d = draw(st.sampled_from([2, 3]))
    grid = Grid(d, draw(st.sampled_from([8, 16, 32] if d == 2 else [8, 16])),
                draw(st.floats(2.0, 20.0)))
    names = [n for n in sorted(SYMBOL_BUILTINS) if d == 3 or not n.endswith("_3")]
    spec = st.one_of(st.sampled_from(names),
                     st.tuples(*[st.integers(0, 2)] * d))
    return grid, draw(spec), draw(spec), draw(st.integers(0, 2**16))


def _operator(grid, spec):
    if isinstance(spec, str):
        return from_symbol(grid, make_symbol(grid.d, spec))
    return derivative_op(grid, spec)


class TestComposition:
    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(_operator_pair())
    def test_applying_in_turn_is_the_product_multiplier(self, case):
        grid, spec_a, spec_b, seed = case
        a, b = _operator(grid, spec_a), _operator(grid, spec_b)
        rng = np.random.default_rng(seed)
        f = GridFunction(grid, rng.normal(size=grid.shape)
                         + 1j * rng.normal(size=grid.shape))
        in_turn = b.apply(a.apply(f))
        product = MultiplierOperator(grid, a.m * b.m).apply(f)
        gap = np.max(np.abs(in_turn.values - product.values))
        assert gap <= 1e-12 * linf_norm(product)


class TestPotentialGradient:
    """d_j I_1 = -R_j, criterion 3's identity, over random grids and fields."""

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(grids(), st.integers(0, 2**16))
    def test_gradient_of_potential_is_minus_riesz(self, grid, seed):
        f = random_field(grid, seed)
        potential = riesz_potential(grid).apply(f)
        for axis in range(grid.d):
            e = tuple(1 if i == axis else 0 for i in range(grid.d))
            gap = derivative(potential, e).values + riesz(grid, axis).apply(f).values
            assert np.max(np.abs(gap)) <= 1e-12 * linf_norm(f)


def assert_stored_as(stored, m, dtype, label=""):
    """stored is bitwise m in the given dtype, and so is its complex128
    cast, so the values are pinned bitwise whichever dtype holds them."""
    assert stored.dtype == dtype, label
    assert stored.tobytes() == m.tobytes(), label
    cast = np.complex128
    assert stored.astype(cast).tobytes() == m.astype(cast).tobytes(), label


class TestLatticeArrays:
    """The multipliers built from broadcast axis factors and the cached safe
    |xi| are bitwise the arrays of the full-mesh formulas, each in the dtype
    it is stored as."""

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
            assert_stored_as(riesz(g, axis).m, m, np.complex128)
        m = np.where(r == 0, 0.0, 1.0 / (2 * np.pi * safe))
        assert_stored_as(riesz_potential(g).m, m, np.float64)
        # every registry symbol valid for d against the stacked (d, N^d) route
        directions = np.stack([(c / safe).ravel() for c in mesh])
        params = {"constant_one": {"value": -2.5},
                  "smoothed_sign": {"axis": int(rng.integers(0, d)), "eps": 0.3}}
        for name in SYMBOL_BUILTINS:
            if name[-1].isdigit() and int(name[-1]) > d:
                continue
            psi = make_symbol(d, {"name": name, "params": params.get(name, {})})
            dtype = np.complex128 if name.startswith("riesz") else np.float64
            m = psi.eval(directions).reshape(g.shape).astype(dtype)
            m[(0,) * d] = psi.sphere_mean
            assert_stored_as(from_symbol(g, psi).m, m, dtype, name)
        for axis in range(d):  # riesz keeps its own formula; the values agree
            assert np.array_equal(riesz(g, axis).m,
                                  from_symbol(g, riesz_symbol(d, axis)).m)


class TestStorageRule:
    """Every builder stores its lattice array as a field is stored: float64
    when the values are real, complex128 when they are complex."""

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(grids(), st.integers(0, 2**16))
    def test_real_multipliers_are_float64(self, grid, seed):
        d = grid.d
        real = [riesz_potential(grid), bessel_potential(grid, -1.5),
                from_symbol(grid, constant_symbol(d, -2.5)),
                from_symbol(grid, smoothed_sign_symbol(d, d - 1, eps=0.3)),
                *(from_symbol(grid, coordinate_symbol(d, j)) for j in range(d))]
        complex_ = [*(riesz(grid, j) for j in range(d)),
                    *(from_symbol(grid, riesz_symbol(d, j)) for j in range(d)),
                    derivative_op(grid, (0,) * d),
                    derivative_op(grid, (1,) + (0,) * (d - 1)),
                    # a real psi with a complex mean: the zero mode is complex
                    from_symbol(grid, SphericalSymbol(d, lambda xi: xi[0],
                                                      sphere_mean=0.5j))]
        assert [op.m.dtype for op in real] == [np.float64] * len(real)
        assert [op.m.dtype for op in complex_] == [np.complex128] * len(complex_)
        assert complex_[-1].m[(0,) * d] == 0.5j
        # a real multiplier and its conjugate act as their complex128 casts
        # did (np.array_equal leaves only the sign of an exact zero free)
        f = random_field(grid, seed)
        f_hat = dft(f)
        for op in real:
            cast = op.m.astype(np.complex128)
            assert np.array_equal(op.apply(f).values,
                                  MultiplierOperator(grid, cast).apply(f).values)
            assert np.array_equal(np.conj(op.m) * f_hat, np.conj(cast) * f_hat)
