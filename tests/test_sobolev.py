import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hdist.grid import Grid, GridFunction, lp_norm, spectrum
from hdist.registry import field_function, make_field
from hdist.sobolev import (ConcentrationFamily, SequenceFamily, norm_table,
                           strong_null_probe, surrogate_negative_norm, wkq_norm)
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

    @pytest.mark.parametrize("k", [1, 2])
    def test_white_noise_reads_the_hermitian_part(self, k):
        # white noise weighs the Nyquist planes, where an odd derivative's
        # Hermitian part is 0: a real field's derivative is the real part of
        # derivative's, and i f reads the norms of f
        g = Grid(2, 16, 3.0)
        f = GridFunction(g, np.random.default_rng(k).normal(size=g.shape))
        e1 = (k, 0)
        u = GridFunction(g, derivative(f, e1).values.real)
        [(_, wkq, negative)] = norm_table(g, [f], [k], [1.5, 2.0, 4.0])
        for q in (1.5, 2.0, 4.0):
            assert wkq_norm(1j * f, k, q) == pytest.approx(wkq[k, q], rel=1e-13)
            assert negative[k, q] == pytest.approx(
                surrogate_negative_norm(u, k, q), rel=1e-13)

    def test_plane_wave_first_order(self, grid):
        m0 = (3, -2)
        v = plane_wave(grid, m0)
        xi2 = (2 * np.pi * np.hypot(*m0) / grid.L) ** 2
        expected = grid.L ** (grid.d / 2) * (1 + xi2) ** 0.5
        assert wkq_norm(v, 1, 2.0) == pytest.approx(expected, rel=1e-10)

    def test_sum_of_powers_neither_overflows_nor_flushes(self, grid, gaussian):
        # |d^alpha v|_4^4 of a 1e80 field is beyond the float range
        for c in (1e80, 1e-90):
            with np.errstate(under="raise", over="raise"):
                [(_, wkq, _)] = norm_table(grid, [gaussian * c], [0, 1, 2], [1.5, 4.0])
            for k in (1, 2):
                assert wkq[k, 4.0] == pytest.approx(c * wkq_norm(gaussian, k, 4.0), rel=1e-13)


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
        fam = SequenceFamily(g, amplitude=a, direction=(1, 0),
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
        fam = SequenceFamily(grid, amplitude=gaussian, direction=(2, 1),
                             indices=(4, 8))
        for n in (4, 8):
            for p in (1.5, 2.0, 4.0):
                assert lp_norm(fam.u(n), p) == pytest.approx(lp_norm(gaussian, p))

    def test_aliasing_guard(self, grid, gaussian):
        fam = SequenceFamily(grid, amplitude=gaussian, direction=(1, 0),
                             indices=(8,))
        fam.u(32)  # exactly N/4: allowed
        with pytest.raises(AliasingError):
            fam.u(33)
        fam2 = SequenceFamily(grid, amplitude=gaussian, direction=(2, 1),
                              indices=(8,))
        with pytest.raises(AliasingError):
            fam2.u(17)
        with pytest.raises(AliasingError):  # the family guards its indices
            SequenceFamily(grid, amplitude=gaussian, direction=(1, 0),
                           indices=(33,))

    def test_scaled_oscillation_norm_window(self):
        g = Grid(2, 256, 16.0)
        a = make_field(g, "gaussian")
        fam = SequenceFamily(g, amplitude=a, direction=(1, 0),
                             indices=(8, 16, 32, 64), order=1)
        ref = lp_norm(a, 2.0)
        for n in fam.indices:
            ratio = surrogate_negative_norm(fam.u(n), 1, 2.0) / ref
            assert 0.5 <= ratio <= 2.0

    def test_scaled_inverse_order(self, grid, gaussian):
        # an oscillation reads its order
        fam = SequenceFamily(grid, amplitude=gaussian,
                             direction=(1, 0), indices=(8, 16), order=-1)
        scale = (2 * np.pi * fam.frequency_shift(8)) ** -1
        expected = scale * np.abs(gaussian.values)
        assert np.max(np.abs(np.abs(fam.u(8).values) - expected)) < 1e-12

    def test_prefactor_power(self, grid, gaussian):
        fam = SequenceFamily(grid, amplitude=gaussian, direction=(1, 0),
                             indices=(4, 9), prefactor_power=-0.5)
        assert lp_norm(fam.u(4), 2.0) == pytest.approx(0.5 * lp_norm(gaussian, 2.0))
        assert lp_norm(fam.u(9), 2.0) == pytest.approx(lp_norm(gaussian, 2.0) / 3.0)

    def test_concentration_lp_constant(self):
        g = Grid(2, 256, 8.0)
        fam = ConcentrationFamily(g, p=2.0, indices=(2, 4, 8),
                                  amplitude_fn=field_function(2, "gaussian"))
        norms = [lp_norm(fam.u(n), 2.0) for n in fam.indices]
        assert norms[0] == pytest.approx(norms[-1], rel=1e-6)

    def test_concentration_resolution_guard(self):
        g = Grid(2, 64, 8.0)
        fam = ConcentrationFamily(g, indices=(2,),
                                  amplitude_fn=field_function(2, "gaussian"))
        with pytest.raises(AliasingError):
            fam.u(16)
        with pytest.raises(AliasingError):  # the family guards its indices
            ConcentrationFamily(g, indices=(16,),
                                amplitude_fn=field_function(2, "gaussian"))

    def test_center_is_a_point_of_the_grid(self, grid):
        # zip(x, x0) would drop a coordinate: a 1-entry center on d = 2
        # would sample a ridge along the second axis, not a concentration
        amp = field_function(2, "gaussian")
        for center in ((1.0,), (1.0, 0.0, 5.0)):
            with pytest.raises(ValueError, match="center"):
                ConcentrationFamily(grid, amp, indices=(2,), center=center)

    def test_kind_validation(self, grid, gaussian):
        with pytest.raises(ValueError):
            SequenceFamily(grid, amplitude=gaussian,
                           direction=(0, 0))

    def test_direction_is_an_integer_vector(self):
        # a fractional direction would modulate off the lattice row that
        # spectral_shift names, and int() truncation would hide its reach
        g = Grid(2, 64, 16.0)
        a = make_field(g, "gaussian")
        for direction, indices in (((0.5, 0), (8,)), ((0.9, 0), (100,))):
            with pytest.raises(ValueError, match="integer"):
                SequenceFamily(g, amplitude=a, direction=direction, indices=indices)
        fam = SequenceFamily(g, amplitude=a, direction=(2.0, 0), indices=(8,))
        assert fam.direction == (2, 0) and fam.spectral_shift(8)[0] == (16, 0)

    def test_indices_are_whole_numbers_stored_as_ints(self):
        # an index the artifacts write must read 8, not 8.0
        g = Grid(2, 64, 16.0)
        families = (lambda ns: SequenceFamily(g, make_field(g, "gaussian"), indices=ns),
                    lambda ns: ConcentrationFamily(g, field_function(2, "gaussian"),
                                                   indices=ns, profile_width=4.0))
        for family in families:
            ns = family((1.0, 2.0, 4)).indices
            assert ns == (1, 2, 4) and all(type(n) is int for n in ns)
            with pytest.raises(ValueError, match="whole"):
                family((1, 2.5, 4))

    def test_amplitude_is_sampled_on_the_family_grid(self, grid):
        # samples of another grid would be read as this grid's: with the same
        # N they are silently rescaled in x, with another N u(n) cannot broadcast
        for other in (Grid(2, 128, 8.0), Grid(2, 64, 16.0)):
            with pytest.raises(ValueError, match="amplitude"):
                SequenceFamily(grid, make_field(other, "gaussian"), indices=(8,))

    def test_each_kind_takes_only_its_own_keys(self, grid, gaussian):
        # a key of the other kind is refused, not silently ignored
        with pytest.raises(TypeError, match="argument 'p'"):
            SequenceFamily(grid, amplitude=gaussian, indices=(8,), p=4.0)
        with pytest.raises(TypeError, match="argument 'order'"):
            ConcentrationFamily(grid, amplitude_fn=field_function(2, "gaussian"),
                                indices=(2,), order=3)

    def test_defaults_follow_grid_and_kind(self, grid, gaussian):
        g3 = Grid(3, 16, 8.0)
        a3 = make_field(g3, "gaussian")
        fam = SequenceFamily(g3, amplitude=a3, indices=(1, 2, 3))
        assert fam.direction == (1, 0, 0)
        assert fam.order == 0
        plain = SequenceFamily(grid, amplitude=gaussian, indices=(8,))
        scaled = SequenceFamily(grid, amplitude=gaussian, order=2,
                                indices=(8,))
        assert scaled.direction == (1, 0)
        factor = (2 * np.pi * 8 / 16) ** 2
        assert scaled.spectral_shift(8)[1] == factor
        assert np.array_equal(scaled.u(8).values, factor * plain.u(8).values)

    def test_concentration_has_no_spectral_shift(self):
        fam = ConcentrationFamily(Grid(2, 64, 8.0), indices=(2,),
                                  amplitude_fn=field_function(2, "gaussian"))
        with pytest.raises(AttributeError):
            fam.spectral_shift(2)

    def test_spectral_shift_guards_the_index(self, grid, gaussian):
        fam = SequenceFamily(grid, amplitude=gaussian, indices=(8,))
        with pytest.raises(AliasingError):
            fam.spectral_shift(33)

    @pytest.mark.parametrize("kind", [SequenceFamily, ConcentrationFamily])
    def test_samples_are_taken_once_on_first_read(self, grid, gaussian, kind, monkeypatch):
        # every probe reads samples: building a family samples nothing, and
        # the first read samples each index once, in index order
        calls, original = [], kind.u
        monkeypatch.setattr(kind, "u", lambda fam, n: calls.append(n) or original(fam, n))
        fam = (SequenceFamily(grid, amplitude=gaussian, indices=(16, 8, 32))
               if kind is SequenceFamily else
               ConcentrationFamily(grid, field_function(2, "gaussian"), indices=(2, 1)))
        assert calls == []
        first = fam.samples
        assert fam.samples is first and calls == list(fam.indices)
        for n, sample in zip(fam.indices, first):
            assert np.array_equal(sample.values, original(fam, n).values)


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

    fam = SequenceFamily(grid, amplitude=field(), direction=direction,
                         indices=(n,), order=order,
                         prefactor_power=draw(st.sampled_from([0.0, -0.5])))
    return fam, n, field()


@settings(derandomize=True, max_examples=30, deadline=None)
@given(shifted_products())
def test_spectral_shift_is_the_transform_of_the_modulation(case):
    # spectrum(g u_n) is c_n = s_n (-1)^sum(row) times the roll of
    # spectrum(g a) by the lattice row n xi0
    fam, n, g = case
    row, c = fam.spectral_shift(n)
    want = spectrum(g * fam.u(n))
    got = c * np.roll(spectrum(g * fam.amplitude), row, axis=tuple(range(g.grid.d)))
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


# factors c of theta; the strong-null verdict must not depend on c
SCALES = [1e-10, 1e-6, 1.0, 1e6]


@pytest.fixture(scope="module")
def order_two_1024():
    """The resolved counterpart of the order-2 transient: an order-2
    oscillation of a = theta = gaussian on d = 2, N = 1024, L = 16, plain and
    times n^{-1/2}, at n = 64, 128, 256."""
    g = Grid(2, 1024, 16.0)
    a = make_field(g, "gaussian")
    return a, {power: SequenceFamily(g, amplitude=a, order=2, direction=(1, 0),
                                     indices=(64, 128, 256), prefactor_power=power)
               for power in (0.0, -0.5)}


def _limit(table):
    return table["meta"]["limit"]["value"]


class TestProbes:
    @pytest.mark.parametrize("c", SCALES)
    def test_strong_null_scaled_decay(self, grid, gaussian, c):
        fam = SequenceFamily(grid, amplitude=gaussian, direction=(1, 0),
                             indices=(8, 16, 32), prefactor_power=-0.5)
        table = strong_null_probe(fam, gaussian * c, 0, 2.0)
        assert table["meta"]["strongly_null"]
        limit = table["meta"]["limit"]
        assert limit["model"] == "decay" and limit["beta"] == pytest.approx(0.5, abs=0.1)
        # the exponent beside the verdict is scale invariant too
        fit = table["fits"]["surrogate_norm"]
        assert fit["exponent"] == pytest.approx(-0.5, abs=0.1)

    @pytest.mark.parametrize("c", SCALES)
    def test_strong_null_fails_without_scaling(self, grid, gaussian, c):
        fam = SequenceFamily(grid, amplitude=gaussian, direction=(1, 0),
                             indices=(8, 16, 32))
        theta = gaussian * c
        table = strong_null_probe(fam, theta, 0, 2.0)
        ref = lp_norm(theta * gaussian, 2.0)
        for v in table["columns"]["surrogate_norm"]:
            assert v == pytest.approx(ref, rel=1e-10)  # modulus invariance
        assert _limit(table) == pytest.approx(ref, rel=1e-10)
        assert not table["meta"]["strongly_null"]

    @pytest.mark.parametrize("p", [
        pytest.param(4 / 3, marks=pytest.mark.xfail(strict=True, reason=(
            "ROADMAP items 1 and 3: at k = 2 the indices 16, 32, 64 are "
            "pre-asymptotic; fit_limit picks decay at residual 0.24, which "
            "its absolute flag rule does not refuse"))),
        2.0, 3.0])
    def test_order_two_transient_is_not_strongly_null(self, p):
        g = Grid(2, 256, 16.0)
        a = make_field(g, "gaussian")
        fam = SequenceFamily(g, amplitude=a, order=2,
                             direction=(1, 0), indices=(16, 32, 64))
        table = strong_null_probe(fam, a, 2, p)
        assert table["meta"]["strongly_null"] is False

    @pytest.mark.parametrize("p", [4 / 3, 2.0, 3.0])
    def test_order_two_oracle_at_n_1024(self, order_two_1024, p):
        # the plain family's norms tend to |theta a|_p = (2p)^{-1/p}; times
        # n^{-1/2} they decay at that rate
        a, families = order_two_1024
        table = strong_null_probe(families[0.0], a, 2, p)
        assert not table["meta"]["strongly_null"]
        assert _limit(table) == pytest.approx((2 * p) ** (-1 / p), rel=1e-3)
        table = strong_null_probe(families[-0.5], a, 2, p)
        assert table["meta"]["strongly_null"]
        assert table["fits"]["surrogate_norm"]["exponent"] == pytest.approx(-0.5, abs=0.1)

    def test_strong_null_zero_family(self, grid, gaussian):
        z = grid.sample(lambda x, y: np.zeros_like(x))
        fam = SequenceFamily(grid, amplitude=z, direction=(1, 0),
                             indices=(8, 16, 32))
        table = strong_null_probe(fam, gaussian, 1, 2.0)
        assert all(v == 0 for v in table["columns"]["surrogate_norm"])
        assert table["meta"]["strongly_null"]
        assert table["meta"]["limit"]["model"] == "negligible"
