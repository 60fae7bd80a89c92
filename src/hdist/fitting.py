"""Least-squares fits for decay rates and sequence-limit extrapolation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# magnitudes below this are treated as numerically zero when fitting logs
ZERO_FLOOR = 1e-300
# a sequence whose magnitudes all sit at or below this has limit zero
NEGLIGIBLE = 1e-14
# the decay model wins when its residual is within this factor of the best
# offset residual
DECAY_PREFERENCE = 3.0
# the slowest power decay n^(-rate) that fit_limit's decay model reads as
# decay to zero
MIN_DECAY_RATE = 0.25
# offset residuals closer than this times the largest |value| are a tie
ROUNDING = 64 * np.finfo(float).eps


def log_slope(ns, mags):
    """Least-squares slope of ln mags against ln ns, per column of mags."""
    return np.polyfit(np.log(ns), np.log(mags), 1)[0]


def fit_decay(ns, values) -> dict:
    """{"exponent", "n_used"} of |values| against ns, as decay tables hold
    it: the exponent is the log_slope of the entries above ZERO_FLOOR (none
    below two entries), so rescaling the values leaves it unchanged.  The
    entries are fitted in increasing n, as fit_limit fits them, so the order
    the indices come in does not move the exponent's last bits."""
    ns = np.asarray(ns, dtype=float)
    mags = np.abs(np.asarray(values, dtype=complex))
    if len(ns) != len(mags) or len(ns) == 0:
        raise ValueError("need matching, nonempty index and value lists")
    order = np.argsort(ns, kind="stable")
    ns, mags = ns[order], mags[order]
    keep = mags > ZERO_FLOOR
    n_used = int(np.count_nonzero(keep))
    exponent = float(log_slope(ns[keep], mags[keep])) if n_used >= 2 else None
    return {"exponent": exponent, "n_used": n_used}


@dataclass(frozen=True)
class LimitFit:
    """Extrapolated limit of a sequence of (complex) values.

    model is one of:
      "offset"     : c0 + c1 * n^(-beta), beta in {1, 2}
      "decay"      : c1 * n^(-beta) with fitted beta, limit zero
      "negligible" : all values at rounding level, limit zero

    For one sequence every field is a Python scalar; for a table of E
    sequences value, residual, model, beta and flagged are arrays of
    shape (E,).  ns holds the sorted indices.
    """

    value: complex
    residual: float
    model: str
    beta: float
    flagged: bool
    ns: tuple = ()

    def to_dict(self):
        return {
            "value": [self.value.real, self.value.imag],
            "residual": self.residual,
            "model": self.model,
            "beta": self.beta,
            "flagged": self.flagged,
            "ns": list(self.ns),
        }


def _rms(resid):
    return np.sqrt(np.mean(np.abs(resid) ** 2, axis=0))


def fit_limit(ns, values) -> LimitFit:
    """Extrapolate lim values(n) from at least three distinct indices.

    values has shape (len(ns),) for one sequence or (len(ns), E) for a
    table whose E columns are fitted independently with the same models.
    Candidate models: a constant offset plus n^(-1) or n^(-2) correction,
    and a zero-limit pure power decay for sequences vanishing at rates the
    offset models cannot represent.  The decay model is preferred whenever
    it is admissible and fits within DECAY_PREFERENCE times the best
    offset residual: when a pure decay explains the data about as well, the
    offset's constant is spurious.
    """
    if len(set(ns)) < 3:
        raise ValueError("need at least 3 distinct indices to extrapolate")
    order = np.argsort(ns, kind="stable")
    ns_sorted = tuple(int(ns[i]) for i in order)
    ns = np.asarray(ns, dtype=float)[order]
    values = np.asarray(values, dtype=complex)[order]
    single = values.ndim == 1
    table = values.reshape(len(ns), -1)

    # offset models: one least-squares solve per beta for every column;
    # the n^(-2) model wins only by more than rounding (a constant sequence
    # fits both to residuals of order eps * |values|), so a tie goes to n^(-1)
    offsets = []
    for beta in (1.0, 2.0):
        design = np.column_stack([np.ones_like(ns), ns ** (-beta)]).astype(complex)
        coef, *_ = np.linalg.lstsq(design, table, rcond=None)
        offsets.append((coef[0], _rms(table - design @ coef)))
    (c0_1, r_1), (c0_2, r_2) = offsets
    mags = np.abs(table)
    use_2 = r_2 < r_1 - ROUNDING * np.max(mags, axis=0)
    value = np.where(use_2, c0_2, c0_1)
    residual = np.where(use_2, r_2, r_1)
    beta = np.where(use_2, 2.0, 1.0)

    # pure decay c1 * n^(-gamma), admissible only for nonzero magnitudes
    # that fall by a quarter and decay at a rate of at least MIN_DECAY_RATE
    decay = np.all(mags > ZERO_FLOOR, axis=0) & (mags[-1] <= 0.75 * mags[0])
    gamma = np.where(decay, -log_slope(ns, np.where(decay, mags, 1.0)), 0.0)
    decay &= gamma >= MIN_DECAY_RATE
    basis = (ns[:, None] ** (-gamma)).astype(complex)
    c1 = np.sum(basis.conj() * table, axis=0) / np.sum(basis.conj() * basis, axis=0)
    decay_resid = _rms(table - c1 * basis)
    decay &= decay_resid <= DECAY_PREFERENCE * residual
    value = np.where(decay, 0.0, value)
    residual = np.where(decay, decay_resid, residual)
    beta = np.where(decay, gamma, beta)
    model = np.where(decay, "decay", "offset")

    negligible = np.max(mags, axis=0) <= NEGLIGIBLE
    value = np.where(negligible, 0.0, value)
    residual = np.where(negligible, 0.0, residual)
    beta = np.where(negligible, 0.0, beta)
    model = np.where(negligible, "negligible", model)
    flagged = residual > 0.1 * np.abs(value) + 1e-8

    if single:
        return LimitFit(complex(value[0]), float(residual[0]), str(model[0]),
                        float(beta[0]), bool(flagged[0]), ns_sorted)
    return LimitFit(value, residual, model, beta, flagged, ns_sorted)
