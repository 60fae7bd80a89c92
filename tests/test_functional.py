import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hdist import functional
from hdist.fitting import fit_limit
from hdist.functional import (FORM_RTOL, mu_tensor, pairing_records,
                              zero_mu_strong_convergence_check)
from hdist.grid import Grid, GridFunction, dft, idft, pairing
from hdist.multiplier import from_symbol
from hdist.registry import (SYMBOL_BUILTINS, constant_symbol, field_function,
                            make_field, make_symbol, riesz_symbol)
from hdist.sobolev import ConcentrationFamily, SequenceFamily
from hdist.specbasis import HermiteBasis, hermite_values
from hdist.symbol import SphericalHarmonicBasis
from hdist.util import AliasingError, jsonable

from .test_grid import grids, random_field


def tensor_max(tensor):
    return float(abs(tensor["entries"]).max())


def refuse_transforms(monkeypatch, no_call):
    """Make every entry into numpy.fft call no_call: grid.py enters it at
    call time for every transform, whichever grid function takes it."""
    for name in ("fftn", "ifftn", "rfftn", "irfftn"):
        monkeypatch.setattr(np.fft, name, no_call)


@pytest.fixture(scope="module")
def grid():
    return Grid(2, 128, 16.0)


@pytest.fixture(scope="module")
def gaussian(grid):
    return make_field(grid, "gaussian")


@pytest.fixture(scope="module")
def family(grid, gaussian):
    return SequenceFamily(grid, amplitude=gaussian, direction=(1, 0),
                          indices=(8, 16, 32))


@pytest.fixture(scope="module")
def at8(grid, gaussian):
    """The oscillation at the one index 8."""
    return SequenceFamily(grid, amplitude=gaussian, direction=(1, 0), indices=(8,))


class TestHPairing:
    def test_constant_symbol_reduces_to_plain_pairing(self, grid, at8, gaussian):
        [[(form_a, _)]] = pairing_records(at8, None, gaussian, gaussian, [constant_symbol(2)])
        [u] = at8.samples
        plain = pairing(gaussian * u, gaussian * u)
        assert form_a == pytest.approx(plain, rel=1e-12)

    def test_form_agreement(self, grid, family, gaussian):
        symbols = [riesz_symbol(2, 0), riesz_symbol(2, 1), constant_symbol(2)]
        for forms in pairing_records(family, None, gaussian, gaussian, symbols):
            for form_a, form_b in forms:
                assert abs(form_a - form_b) <= FORM_RTOL * (1.0 + abs(form_a))

    def test_disjoint_supports_vanish(self, grid, at8):
        left = make_field(grid, {"name": "bump",
                                 "params": {"radius": 2.0, "center": [-4.0, 0.0]}})
        right = make_field(grid, {"name": "bump",
                                  "params": {"radius": 2.0, "center": [4.0, 0.0]}})
        [[(form_a, _)]] = pairing_records(at8, None, left, right, [constant_symbol(2)])
        assert abs(form_a) < 1e-13

    def test_sesquilinearity(self, grid, at8, gaussian):
        psi1, psi2 = riesz_symbol(2, 0), riesz_symbol(2, 1)
        sum_eval = lambda xi: psi1.eval(xi) + psi2.eval(xi)
        psi_sum = type(psi1)(2, sum_eval, "sum", sphere_mean=0.0)
        [[(a, _)], [(base, _)], [(a2, _)]] = pairing_records(
            at8, None, gaussian, gaussian, [psi_sum, psi1, psi2])
        b = base + a2
        assert abs(a - b) < 1e-10 * (1 + abs(a))

        # linear in phi1, anti-linear in phi2
        c = 0.7 - 1.3j
        [[(scaled1, _)]] = pairing_records(at8, None, gaussian * c, gaussian, [psi1])
        [[(scaled2, _)]] = pairing_records(at8, None, gaussian, gaussian * c, [psi1])
        assert scaled1 == pytest.approx(c * base, rel=1e-10)
        assert scaled2 == pytest.approx(np.conj(c) * base, rel=1e-10)

    def test_swap_conjugates_with_real_symbol(self, grid, at8, gaussian):
        phi2 = make_field(grid, {"name": "gaussian", "params": {"width": 1.5}})
        psi = constant_symbol(2)
        [[(ab, _)]] = pairing_records(at8, None, gaussian, phi2, [psi])
        [[(ba, _)]] = pairing_records(at8, None, phi2, gaussian, [psi])
        assert ba == pytest.approx(np.conj(ab), rel=1e-10)


class TestFormAgreement:
    """The two adjoint forms agree for any registry symbol, test functions
    and pair of families."""

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(grids(), st.data())
    def test_forms_agree(self, grid, data):
        names = [n for n in sorted(SYMBOL_BUILTINS) if grid.d == 3 or not n.endswith("_3")]
        psi = make_symbol(grid.d, data.draw(st.sampled_from(names)))
        seed = data.draw(st.integers(0, 2**16))
        n = data.draw(st.integers(1, grid.N // 4))  # inside the N/4 guard
        a, b, phi1, phi2 = (random_field(grid, seed + i) for i in range(4))
        u, v = (SequenceFamily(grid, amplitude=amp, indices=(n,)) for amp in (a, b))
        [[(form_a, form_b)]] = pairing_records(u, v, phi1, phi2, [psi])
        assert abs(form_a - form_b) <= FORM_RTOL * (1.0 + abs(form_a))


class TestExtrapolation:
    def test_oscillation_matches_frequency_shift_oracle(self):
        # spectrum concentrates at n xi0 / L where the multiplier takes the
        # value psi(xi0/|xi0|); the limiting pairing is that value times the
        # mass integral of |phi|^2 |a|^2, known in closed form for Gaussians
        g = Grid(2, 256, 16.0)
        a = make_field(g, "gaussian")
        phi = make_field(g, "gaussian")
        fam = SequenceFamily(g, amplitude=a, direction=(1, 0),
                             indices=(16, 32, 64))
        [forms] = pairing_records(fam, None, phi, phi, [riesz_symbol(2, 0)])
        est = fit_limit(fam.indices, [a for a, _ in forms])
        oracle = -0.25j  # (1/i) * integral exp(-4 pi |x|^2) = -i/4
        assert abs(est["value"] - oracle) <= 0.01 * abs(oracle)

    def test_factorization_sanity(self):
        # pairing with (phi1, phi2) agrees in the limit with (theta, 1)
        # for theta = phi1 conj(phi2)
        g = Grid(2, 256, 16.0)
        a = make_field(g, "gaussian")
        phi1 = make_field(g, "gaussian")
        phi2 = make_field(g, {"name": "gaussian", "params": {"width": 1.5}})
        one = make_field(g, "constant_one")
        fam = SequenceFamily(g, amplitude=a, direction=(1, 0),
                             indices=(16, 32, 64))
        psi = riesz_symbol(2, 0)
        ns = fam.indices
        [split] = pairing_records(fam, None, phi1, phi2, [psi])
        split = fit_limit(ns, [a for a, _ in split])
        theta = phi1 * phi2.conj()
        [merged] = pairing_records(fam, None, theta, one, [psi])
        merged = fit_limit(ns, [a for a, _ in merged])
        assert abs(split["value"] - merged["value"]) <= 0.02 * abs(split["value"])

    def test_estimate_serialization(self, family, gaussian):
        [forms] = pairing_records(family, None, gaussian, gaussian, [constant_symbol(2)])
        est = fit_limit(family.indices, [a for a, _ in forms])
        d = jsonable(est)
        assert set(d) == {"value", "residual", "model", "beta", "flagged", "ns"}
        assert d["ns"] == [8, 16, 32]


class TestMuTensor:
    def test_zero_amplitude(self, grid):
        z = grid.sample(lambda x, y: np.zeros_like(x))
        fam = SequenceFamily(grid, amplitude=z, direction=(1, 0),
                             indices=(8, 16, 32))
        hb = HermiteBasis.build(grid, 1)
        sb = SphericalHarmonicBasis.build(2, 1)
        tensor = mu_tensor(fam, None, hb, sb)
        assert tensor_max(tensor) == 0.0

    def test_oscillation_separates(self):
        # entries approximate Y(xi0/|xi0|) times the Hermite coefficient of
        # |a|^2, computed here by direct quadrature as the oracle
        g = Grid(2, 256, 16.0)
        a = make_field(g, "gaussian")
        fam = SequenceFamily(g, amplitude=a, direction=(1, 0),
                             indices=(16, 32, 64))
        hb = HermiteBasis.build(g, 2)
        sb = SphericalHarmonicBasis.build(2, 2)
        tensor = mu_tensor(fam, None, hb, sb)
        mass = a * a.conj()
        herm_coeffs = hb.analyze(mass).ravel()
        direction = np.array([[1.0], [0.0]])
        for b, (deg, j) in enumerate(sb.indices):
            y_val = complex(sb.evaluate(deg, j, direction)[0])
            for mi in range(len(herm_coeffs)):
                expected = y_val * herm_coeffs[mi]
                got = tensor["entries"][mi, b]
                assert abs(got - expected) <= 0.02 * abs(expected) + 2e-4

    def test_off_axis_oscillation_orients_the_harmonics(self, grid, gaussian):
        # along (1, 0) Y_{n,1} = Y_{n,2}, and the concentration oracle's
        # measure is even in theta: only an off-axis direction tells the
        # +-j rows apart (swapped, the error at degrees <= 2 reads >= 1.4)
        fam = SequenceFamily(grid, amplitude=gaussian, direction=(1, 1),
                             indices=(8, 16, 32))
        hb, sb = HermiteBasis.build(grid, 2), SphericalHarmonicBasis.build(2, 3)
        tensor = mu_tensor(fam, None, hb, sb)
        direction = np.array([[1.0], [1.0]]) / np.sqrt(2.0)
        sphere = np.array([complex(sb.evaluate(n, j, direction)[0]) for n, j in sb.indices])
        oracle = np.outer(hb.analyze(gaussian * gaussian.conj()).ravel(), sphere)

        error = np.abs(tensor["entries"] - oracle) / np.max(np.abs(oracle))
        for b, (deg, _) in enumerate(sb.indices):
            if deg <= 2:
                assert np.max(error[:, b]) <= 1e-2, (deg, np.max(error[:, b]))

    def test_serialization(self, grid, family):
        hb = HermiteBasis.build(grid, 1)
        sb = SphericalHarmonicBasis.build(2, 1)
        tensor = mu_tensor(family, None, hb, sb)
        assert len(tensor["entries"]) == 4  # (m_max+1)^2 hermite rows
        assert len(tensor["entries"][0]) == sb.size
        assert "order_in_xi" in tensor

    def test_two_index_family_refused_before_any_transform(self, grid, gaussian,
                                                           monkeypatch):
        # two indices cannot be extrapolated: the tensor refuses them with
        # fit_limit's message before it samples or transforms anything
        def no_call(*args, **kwargs):
            raise AssertionError("sample or transform before the index check")

        refuse_transforms(monkeypatch, no_call)
        monkeypatch.setattr(SequenceFamily, "u", no_call)
        fam = SequenceFamily(grid, amplitude=gaussian, direction=(1, 0), indices=(8, 16))
        hb, sb = HermiteBasis.build(grid, 1), SphericalHarmonicBasis.build(2, 1)
        with pytest.raises(ValueError, match="need at least 3 distinct indices"):
            mu_tensor(fam, None, hb, sb)


def reference_records(u, v, phi1, phi2, symbols):
    """pairing_records by the dft / idft formulas: form A pairs
    idft(m dft(phi1 u_n)) with phi2 v_n, form B pairs phi1 u_n with
    idft(conj(m) dft(phi2 v_n))."""
    v = u if v is None else v
    grid = phi1.grid
    out = []
    for psi in symbols:
        m = from_symbol(grid, psi).m
        out.append([])
        for u_n, v_n in zip(u.samples, v.samples):
            fu, gv = phi1 * u_n, phi2 * v_n
            out[-1].append((pairing(idft(grid, m * dft(fu)), gv),
                            pairing(fu, idft(grid, np.conj(m) * dft(gv)))))
    return out


def reference_tensor(u, v, hb, sb):
    """mu_tensor by the dft / idft formulas: the Hermite coefficients of
    u_n conj(idft(conj(Y_b) dft(v_n))), contracted one leading axis at a time
    by tensordot, fitted per entry."""
    v = u if v is None else v
    grid = hb.grid
    rows = list(sb.lattice_rows(grid))
    per_n = np.empty((len(u.indices), (hb.m_max + 1) ** grid.d, len(rows)), complex)
    for i, (u_n, v_n) in enumerate(zip(u.samples, v.samples)):
        for b, row in enumerate(rows):
            c = (u_n * idft(grid, np.conj(row) * dft(v_n)).conj()).values
            for _ in range(grid.d):
                c = np.moveaxis(np.tensordot(hb.axis_table, c, axes=(1, 0)), 0, -1)
            per_n[i, :, b] = (grid.cell_volume * c).ravel()
    fit = fit_limit(u.indices, per_n.reshape(len(u.indices), -1))
    return fit["value"].reshape(per_n.shape[1:]), fit["residual"].reshape(per_n.shape[1:])


class TestReferenceRoute:
    """The swept pairings take phase-free images and adjoint images; where L/N
    and L are powers of two they are bitwise the dft / idft formulas."""

    @pytest.fixture(scope="class")
    def families(self):
        g = Grid(2, 64, 16.0)
        a, b = (make_field(g, {"name": "gaussian", "params": {"width": w}})
                for w in (1.0, 1.5))
        u, v = (SequenceFamily(g, amplitude=amp, direction=(1, 1), indices=(2, 4, 8))
                for amp in (a, b))
        return g, u, v

    @pytest.mark.parametrize("pair", ["v is u", "distinct v"])
    def test_records_bitwise(self, families, pair):
        g, u, v = families
        v = None if pair == "v is u" else v
        phi1 = make_field(g, "gaussian")
        phi2 = make_field(g, {"name": "bump", "params": {"radius": 3.0}})
        symbols = [make_symbol(2, name) for name in
                   ("constant_one", "riesz_1", "riesz_2", "coordinate_2", "smoothed_sign")]
        assert (pairing_records(u, v, phi1, phi2, symbols)
                == reference_records(u, v, phi1, phi2, symbols))

    @pytest.mark.parametrize("pair", ["v is u", "distinct v"])
    def test_tensor_bitwise(self, families, pair):
        g, u, v = families
        v = None if pair == "v is u" else v
        hb, sb = HermiteBasis.build(g, 3), SphericalHarmonicBasis.build(2, 3)
        tensor = mu_tensor(u, v, hb, sb)
        entries, residuals = reference_tensor(u, v, hb, sb)
        assert np.array_equal(tensor["entries"], entries)
        assert np.array_equal(tensor["residuals"], residuals)

    def test_tensor_in_three_dimensions(self):
        # the contraction runs axis by axis for any d
        g = Grid(3, 16, 8.0)
        a = make_field(g, "gaussian")
        u = SequenceFamily(g, amplitude=a, direction=(1, 0, 1), indices=(1, 2, 3))
        v = SequenceFamily(g, amplitude=GridFunction(g, a.values * (1 - 0.5j)),
                           direction=(1, 0, 1), indices=(1, 2, 3))
        hb, sb = HermiteBasis.build(g, 2), SphericalHarmonicBasis.build(3, 2)
        tensor = mu_tensor(u, v, hb, sb)
        entries, _ = reference_tensor(u, v, hb, sb)
        assert tensor["entries"].shape == (27, 9)
        assert np.max(np.abs(tensor["entries"] - entries)) <= 1e-14 * np.max(np.abs(entries))


class TestPairRule:
    """v_n pairs with u_n: every two-family probe refuses a v family on other
    indices than u's before it samples or transforms anything."""

    @pytest.mark.parametrize("probe", ["pairing_records", "mu_tensor", "zero_check"])
    def test_v_on_other_indices_refused(self, grid, gaussian, monkeypatch, probe):
        def no_call(*args, **kwargs):
            raise AssertionError("sample or transform before the pair check")

        hb, sb = HermiteBasis.build(grid, 1), SphericalHarmonicBasis.build(2, 1)
        u, v = (SequenceFamily(grid, amplitude=gaussian, direction=(1, 0), indices=ns)
                for ns in ((8, 16, 32), (8, 16, 24)))
        refuse_transforms(monkeypatch, no_call)
        monkeypatch.setattr(functional, "pairing", no_call)
        monkeypatch.setattr(SequenceFamily, "u", no_call)
        calls = {
            "pairing_records": lambda: pairing_records(u, v, gaussian, gaussian,
                                                       [constant_symbol(2)]),
            "mu_tensor": lambda: mu_tensor(u, v, hb, sb),
            "zero_check": lambda: zero_mu_strong_convergence_check(
                u, v, gaussian, 0, 2.0, 0.0, gaussian),
        }
        with pytest.raises(ValueError, match=r"\[8, 16, 24\] differ from the u family's"):
            calls[probe]()


@pytest.fixture(scope="module")
def setup():
    g = Grid(2, 256, 16.0)
    a = make_field(g, "gaussian")
    return {
        "grid": g,
        "a": a,
        "theta": make_field(g, "gaussian"),
        "phi": make_field(g, "gaussian"),
        "hb": HermiteBasis.build(g, 2),
        "sb": SphericalHarmonicBasis.build(2, 2),
        "ns": (16, 32, 64),
    }


def zero_check(setup, u, v):
    tensor = mu_tensor(u, v, setup["hb"], setup["sb"])
    return zero_mu_strong_convergence_check(u, v, setup["theta"], 0, 2.0,
                                            tensor_max(tensor), setup["phi"])


class TestZeroCheck:
    def test_scaled_family_is_zero_and_decays(self, setup):
        g, a = setup["grid"], setup["a"]
        u = SequenceFamily(g, amplitude=a, direction=(1, 0),
                           indices=setup["ns"], prefactor_power=-0.5)
        v = SequenceFamily(g, amplitude=a, direction=(1, 0),
                           indices=setup["ns"])
        res = zero_check(setup, u, v)
        assert res["tensor_is_zero"]
        assert res["strongly_null"]
        assert res["consistent"]
        assert res["strong_fit_exponent"] == pytest.approx(-0.5, abs=0.1)

    @pytest.mark.parametrize("scale", [1.0, 1e-6])
    def test_unscaled_family_contrapositive(self, setup, scale):
        # the verdict reads the data only against their own baseline scale, so
        # an amplitude of 1e-6 (tensor entries near 1e-13) changes nothing
        g, a = setup["grid"], setup["a"] * scale
        u = SequenceFamily(g, amplitude=a, direction=(1, 0),
                           indices=setup["ns"])
        res = zero_check(setup, u, None)
        assert not res["tensor_is_zero"]
        assert res["tensor_max"] >= 10 * res["threshold"]
        assert not res["strongly_null"]
        assert res["consistent"]

    def test_zero_family(self, setup):
        g = setup["grid"]
        z = g.sample(lambda x, y: np.zeros_like(x))
        fam = SequenceFamily(g, amplitude=z, direction=(1, 0),
                             indices=setup["ns"])
        res = zero_check(setup, fam, None)
        assert res["tensor_max"] == 0.0
        assert res["tensor_is_zero"]
        assert res["consistent"]


class TestConcentrationOracle:
    """u_n = n a(n x) with a = x_1 exp(-pi |x|^2) and phi = exp(-pi |x|^2)
    on d = 2: with the constant symbol the pairing at index n is exactly
    1 / (8 pi (1 + 1/n^2)^2) (its limit is phi(0)^2 times the mass of the
    H-measure delta_0 x nu, Tartar 1990; Gerard 1991)."""

    @pytest.fixture(scope="class")
    def concentration(self):
        g = Grid(2, 256, 16.0)  # h = 1/16, profile width w = 1
        amp = field_function(2, {"product": [
            {"name": "coordinate", "params": {"axis": 0}}, "gaussian"]})
        fam = ConcentrationFamily(g, indices=(2, 4), amplitude_fn=amp)
        return fam, make_field(g, "gaussian")

    @pytest.mark.parametrize("n", [2, 4])
    def test_resolved_index_matches_closed_form(self, concentration, n):
        fam, phi = concentration
        [forms] = pairing_records(fam, None, phi, phi, [constant_symbol(2)])
        form_a, _ = forms[fam.indices.index(n)]
        exact = 1.0 / (8 * np.pi * (1 + 1.0 / n**2) ** 2)
        assert abs(form_a - exact) <= 1e-8 * exact

    def test_guard_refuses_past_quarter_width(self, concentration):
        # n h = w/2 at n = 8, where the sampled pairing is 4.3e-2 off
        fam, _ = concentration
        fam.guard(4)  # n h = w/4 exactly: allowed
        with pytest.raises(AliasingError):
            fam.guard(8)

    def test_tensor_degrees_match_the_h_measure(self):
        # the H-measure of u_n is delta_0 x nu with nu = cos^2(theta) / (8 pi^2)
        # on the circle, so entry (h_m, Y) tends to h_m(0) int_{S^1} Y nu.
        # Degrees 0 and 2 carry nu; the error left there is the three-index
        # extrapolation's (2.2e-3 and 1.35e-3 of max|oracle| at N = 512).
        g = Grid(2, 512, 16.0)  # n h <= w/4 at every index
        amp = field_function(2, {"product": [
            {"name": "coordinate", "params": {"axis": 0}}, "gaussian"]})
        fam = ConcentrationFamily(g, indices=(2, 4, 8), amplitude_fn=amp)
        hb, sb = HermiteBasis.build(g, 4), SphericalHarmonicBasis.build(2, 6)
        tensor = mu_tensor(fam, None, hb, sb)

        theta = 2 * np.pi * np.arange(64) / 64  # exact for degree < 62
        nu = np.cos(theta) ** 2 / (8 * np.pi**2)
        circle = np.stack([np.cos(theta), np.sin(theta)])
        sphere = np.array([2 * np.pi * np.mean(sb.evaluate(n, j, circle) * nu)
                           for n, j in sb.indices])
        h0 = hermite_values(4, np.zeros(1))[:, 0]
        oracle = np.outer([h0[m1] * h0[m2] for m1, m2 in hb.indices()], sphere)

        error = np.abs(tensor["entries"] - oracle) / np.max(np.abs(oracle))
        for b, (deg, _) in enumerate(sb.indices):
            assert np.max(error[:, b]) <= (5e-3 if deg in (0, 2) else 1e-12), deg
