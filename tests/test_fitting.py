import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hdist.fitting import NEGLIGIBLE, ROUNDING, ZERO_FLOOR, fit_decay, fit_limit


# ---------------------------------------------------------------------------
# reference: the one-sequence-at-a-time fitter the batched fit_limit replaced

def _oracle_offset_fit(ns, values, beta):
    design = np.column_stack([np.ones_like(ns), ns ** (-beta)]).astype(complex)
    coef, *_ = np.linalg.lstsq(design, values, rcond=None)
    resid = values - design @ coef
    return coef[0], float(np.sqrt(np.mean(np.abs(resid) ** 2)))


def _oracle_pure_decay_fit(ns, values):
    mags = np.abs(values)
    if np.any(mags <= ZERO_FLOOR):
        return None
    if mags[-1] > 0.75 * mags[0]:
        return None
    gamma, _ = np.polyfit(np.log(ns), np.log(mags), 1)
    gamma = -float(gamma)
    if gamma < 0.25:
        return None
    basis = (ns ** (-gamma)).astype(complex)
    c1 = np.vdot(basis, values) / np.vdot(basis, basis)
    resid = values - c1 * basis
    return gamma, float(np.sqrt(np.mean(np.abs(resid) ** 2)))


def oracle_fit_limit(ns, values, atol=1e-14, decay_preference=3.0):
    """(value, residual, model, beta, flagged) of one sequence."""
    ns = np.asarray(ns, dtype=float)
    values = np.asarray(values, dtype=complex)
    if np.any(np.diff(ns) <= 0):
        order = np.argsort(ns)
        ns, values = ns[order], values[order]
    if float(np.max(np.abs(values))) <= atol:
        return 0.0, 0.0, "negligible", 0.0, False
    best = None
    tie = ROUNDING * float(np.max(np.abs(values)))
    for beta in (1.0, 2.0):
        c0, resid = _oracle_offset_fit(ns, values, beta)
        if best is None or resid < best[1] - tie:
            best = (complex(c0), resid, "offset", beta)
    decay = _oracle_pure_decay_fit(ns, values)
    if decay is not None and decay[1] <= decay_preference * best[1]:
        best = (0.0, decay[1], "decay", decay[0])
    value, residual, model, beta = best
    return value, residual, model, beta, residual > 0.1 * abs(value) + 1e-8


KINDS = ("negligible", "offset1", "offset2", "decay", "floor", "generic")


def _column(kind, ns, c0, c1, gamma, floor_at, generic):
    if kind == "negligible":
        return 1e-16 * c1 * np.cos(ns)
    if kind == "offset1":
        return c0 + c1 / ns
    if kind == "offset2":
        return c0 + c1 / ns**2
    if kind == "generic":
        return np.asarray(generic[:len(ns)])
    col = c1 * ns ** (-gamma)
    if kind == "floor":
        # one entry at or below the floor: 0 or ZERO_FLOOR itself
        col[floor_at % len(ns)] = ZERO_FLOOR * (floor_at % 2)
    return col


_complex = st.builds(lambda r, t: r * np.exp(1j * t),
                     st.floats(0.1, 10.0), st.floats(0.0, 2 * np.pi))
# pure powers away from n^-1 and n^-2, which an offset model fits exactly
_gamma = st.one_of(st.floats(0.3, 0.9), st.floats(1.1, 1.9), st.floats(2.1, 3.0))
_columns = st.tuples(st.sampled_from(KINDS), _complex, _complex, _gamma,
                     st.integers(0, 11), st.lists(_complex, min_size=6, max_size=6))


def _assert_columns_match_oracle(ns, table):
    fit = fit_limit(ns, table)
    assert fit.ns == tuple(sorted(ns))
    for e in range(table.shape[1]):
        value, residual, model, beta, flagged = oracle_fit_limit(ns, table[:, e])
        scale = float(np.max(np.abs(table[:, e])))
        assert fit.model[e] == model
        assert fit.flagged[e] == flagged
        assert abs(fit.value[e] - value) <= 1e-12 * max(abs(value), scale)
        assert abs(fit.residual[e] - residual) <= 1e-12 * max(residual, scale)
        assert abs(fit.beta[e] - beta) <= 1e-12 * max(abs(beta), 1.0)


class TestFitDecay:
    def test_pure_power(self):
        ns = [8, 16, 32, 64]
        fit = fit_decay(ns, [3.0 * n**-1.5 for n in ns])
        assert fit["exponent"] == pytest.approx(-1.5, abs=1e-10)

    @pytest.mark.parametrize("c", [1e-200, 1e-12, 1.0, 1e12])
    def test_exponent_is_scale_invariant(self, c):
        ns = [8, 16, 32, 64]
        fit = fit_decay(ns, [c * n**-1.5 for n in ns])
        assert fit["n_used"] == 4
        assert fit["exponent"] == pytest.approx(-1.5, abs=1e-10)

    def test_mixed_zero_entries_dropped(self):
        fit = fit_decay([8, 16, 32], [1.0, 0.5, 0.0])
        assert fit["n_used"] == 2
        assert fit["exponent"] == pytest.approx(-1.0, abs=1e-10)

    def test_empty(self):
        with pytest.raises(ValueError):
            fit_decay([], [])

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.permutations([8, 16, 32]), st.floats(0.1, 10.0),
           st.floats(0.3, 3.0), st.lists(st.floats(0.5, 2.0), min_size=3, max_size=3))
    def test_index_order_does_not_move_exponent(self, ns, c, gamma, wobble):
        # a config may list its indices in any order: the exponent is the same
        # to the bit, and so is fit_limit's decay rate beside it
        n = np.array(ns, dtype=float)
        col = c * n ** (-gamma) * np.array(wobble) ** 0.1
        exponent = fit_decay(ns, col)["exponent"]
        order = np.argsort(n)
        assert exponent == fit_decay(n[order], col[order])["exponent"]
        fit = fit_limit(ns, col)
        if fit.model == "decay":
            assert fit.beta == -exponent


class TestFitLimit:
    def test_constant_records(self):
        v = 0.7 - 0.2j
        fit = fit_limit([8, 16, 32], [v, v, v])
        assert fit.value == pytest.approx(v, abs=1e-14)
        assert fit.residual < 1e-14

    def test_exact_offset_model(self):
        v = 1.5 + 0.5j
        ns = [8, 16, 32]
        fit = fit_limit(ns, [v + 1.0 / n for n in ns])
        assert abs(fit.value - v) < 1e-10
        assert fit.model == "offset" and fit.beta == 1.0

    def test_exact_quadratic_model(self):
        ns = [8, 16, 32]
        fit = fit_limit(ns, [2.0 - 5.0 / n**2 for n in ns])
        assert abs(fit.value - 2.0) < 1e-10
        assert fit.beta == 2.0

    def test_rounding_noise_does_not_pick_beta(self):
        # a constant sequence plus every {-1, 0, 1} * 1e-16 perturbation:
        # both offset models fit to rounding, so the n^(-1) model wins
        ns = [8, 12, 16]
        noise = np.array(list(itertools.product([-1.0, 0.0, 1.0], repeat=3))).T
        table = 0.2909 + 1e-16 * noise
        fit = fit_limit(ns, table)
        assert np.all(fit.beta == 1.0) and np.all(fit.model == "offset")
        assert np.max(np.abs(fit.value - 0.2909)) < 1e-15
        for column in table.T:
            assert fit_limit(ns, column).beta == 1.0

    def test_half_power_decay_extrapolates_to_zero(self):
        ns = [16, 32, 64]
        fit = fit_limit(ns, [0.3 * n**-0.5 for n in ns])
        assert fit.model == "decay"
        assert fit.value == 0.0
        assert fit.beta == pytest.approx(0.5, abs=1e-8)

    def test_decay_not_preferred_for_true_offset(self):
        # decaying toward a clearly nonzero limit: keep the offset estimate
        ns = [8, 16, 32]
        fit = fit_limit(ns, [1.0 + 16.0 / n for n in ns])
        assert fit.model == "offset"
        assert abs(fit.value - 1.0) < 1e-10

    def test_negligible(self):
        fit = fit_limit([8, 16, 32], [1e-16, -1e-17, 1e-16])
        assert fit.model == "negligible"
        assert fit.value == 0.0

    def test_negligible_boundary(self):
        # magnitudes at NEGLIGIBLE still count as zero; one ulp above do not
        fit = fit_limit([8, 16, 32], [NEGLIGIBLE, 0.0, 0.0])
        assert fit.model == "negligible"
        assert fit.value == 0.0
        above = fit_limit([8, 16, 32], [np.nextafter(NEGLIGIBLE, 1.0), 0.0, 0.0])
        assert above.model != "negligible"

    def test_needs_three_records(self):
        with pytest.raises(ValueError):
            fit_limit([8, 16], [1.0, 2.0])
        with pytest.raises(ValueError, match="distinct"):  # two distinct indices
            fit_limit([8, 8, 16], [1.0, 1.0, 2.0])

    def test_unsorted_input(self):
        fit = fit_limit([32, 8, 16], [2 + 1 / 32, 2 + 1 / 8, 2 + 1 / 16])
        assert abs(fit.value - 2.0) < 1e-10

    def test_flagging(self):
        # wildly non-model data must come back flagged
        fit = fit_limit([8, 16, 32], [1.0, -1.0, 1.0])
        assert fit.flagged


class TestFitLimitTable:
    def test_each_model_matches_oracle(self):
        ns = [16, 8, 32, 64]
        n = np.array(ns, dtype=float)
        table = np.column_stack([
            1e-16 * np.cos(n),             # negligible
            1.5 + 0.5j + 2.0 / n,          # offset, beta 1
            2.0 - 5.0 / n**2,              # offset, beta 2
            0.3 * n**-0.5,                 # decay
            np.where(n == 32, 0.0, 0.3 * n**-0.5),  # zero entry: no decay
        ])
        fit = fit_limit(ns, table)
        assert list(fit.model) == ["negligible", "offset", "offset", "decay",
                                   "offset"]
        assert list(fit.beta[1:3]) == [1.0, 2.0]
        _assert_columns_match_oracle(ns, table)

    def test_one_sequence_gives_scalars(self):
        fit = fit_limit([8, 16, 32], [2 + 1 / 8, 2 + 1 / 16, 2 + 1 / 32])
        assert isinstance(fit.value, complex)
        assert isinstance(fit.residual, float)
        assert isinstance(fit.model, str)
        assert isinstance(fit.beta, float)
        assert isinstance(fit.flagged, bool)
        assert fit.ns == (8, 16, 32)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.lists(st.integers(2, 256), min_size=3, max_size=6, unique=True),
           st.lists(_columns, min_size=1, max_size=8))
    def test_table_columns_match_oracle(self, ns, columns):
        n = np.array(ns, dtype=float)
        table = np.column_stack([_column(kind, n, *params)
                                 for kind, *params in columns])
        _assert_columns_match_oracle(ns, table)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.lists(st.integers(2, 256), min_size=3, max_size=6, unique=True),
           st.lists(_columns, min_size=1, max_size=8))
    def test_decay_rate_is_fit_decay_exponent(self, ns, columns):
        # one log-log slope: a decay fit's beta is -fit_decay's exponent, bit
        # for bit, for indices in any order
        n = np.array(ns, dtype=float)
        table = np.column_stack([_column(kind, n, *params)
                                 for kind, *params in columns])
        fit = fit_limit(ns, table)
        for e in np.flatnonzero(fit.model == "decay"):
            assert fit.beta[e] == -fit_decay(ns, table[:, e])["exponent"]
