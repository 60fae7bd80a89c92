"""Least-squares fits for decay rates and sequence-limit extrapolation."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

# magnitudes below this are treated as numerically zero when fitting logs
ZERO_FLOOR = 1e-300


@dataclass(frozen=True)
class DecayFit:
    """Power-law fit |y| ~ C * n^exponent over an index set."""

    exponent: Optional[float]
    log10_prefactor: Optional[float]
    n_used: int
    all_below_threshold: bool

    def is_decaying(self, cutoff=-0.5):
        if self.all_below_threshold:
            return True
        return self.exponent is not None and self.exponent < cutoff


def fit_decay(ns, values, threshold=1e-10) -> DecayFit:
    """Fit log10 |values| against log10 ns by least squares.

    Entries at or below the floating-point floor are dropped; if everything
    sits below `threshold` the sequence is reported as identically small
    instead of fitted.
    """
    ns = np.asarray(ns, dtype=float)
    mags = np.abs(np.asarray(values, dtype=complex))
    if len(ns) != len(mags) or len(ns) == 0:
        raise ValueError("need matching, nonempty index and value lists")
    if np.all(mags <= threshold):
        return DecayFit(None, None, 0, True)
    keep = mags > ZERO_FLOOR
    if np.count_nonzero(keep) < 2:
        return DecayFit(None, None, int(np.count_nonzero(keep)), False)
    x = np.log10(ns[keep])
    y = np.log10(mags[keep])
    slope, intercept = np.polyfit(x, y, 1)
    return DecayFit(float(slope), float(intercept), int(np.count_nonzero(keep)), False)


@dataclass(frozen=True)
class LimitFit:
    """Extrapolated limit of a sequence of (complex) values.

    model is one of:
      "offset"     : c0 + c1 * n^(-beta), beta in {1, 2}
      "decay"      : c1 * n^(-beta) with fitted beta, limit zero
      "negligible" : all values at rounding level, limit zero
    """

    value: complex
    residual: float
    model: str
    beta: float
    c1: complex
    flagged: bool


def _offset_fit(ns, values, beta):
    design = np.column_stack([np.ones_like(ns), ns ** (-beta)]).astype(complex)
    coef, *_ = np.linalg.lstsq(design, values, rcond=None)
    resid = values - design @ coef
    return coef[0], coef[1], float(np.sqrt(np.mean(np.abs(resid) ** 2)))


def _pure_decay_fit(ns, values):
    """c1 * n^(-gamma) with gamma from the magnitudes; None if not decaying."""
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
    return gamma, complex(c1), float(np.sqrt(np.mean(np.abs(resid) ** 2)))


def fit_limit(ns, values, atol=1e-14, decay_preference=3.0) -> LimitFit:
    """Extrapolate lim values(n) from at least three indices.

    Candidate models: a constant offset plus n^(-1) or n^(-2) correction,
    and a zero-limit pure power decay for sequences vanishing at rates the
    offset models cannot represent.  The decay model is preferred whenever
    it is admissible and fits within `decay_preference` times the best
    offset residual: when a pure decay explains the data about as well, the
    offset's constant is spurious.
    """
    ns = np.asarray(ns, dtype=float)
    values = np.asarray(values, dtype=complex)
    if len(ns) < 3:
        raise ValueError("need at least 3 records to extrapolate")
    if np.any(np.diff(ns) <= 0):
        order = np.argsort(ns)
        ns, values = ns[order], values[order]
    scale = float(np.max(np.abs(values)))
    if scale <= atol:
        return LimitFit(0.0, 0.0, "negligible", 0.0, 0.0, False)

    offsets = []
    for beta in (1.0, 2.0):
        c0, c1, resid = _offset_fit(ns, values, beta)
        offsets.append(LimitFit(complex(c0), resid, "offset", beta, complex(c1), False))
    best = min(offsets, key=lambda f: f.residual)
    decay = _pure_decay_fit(ns, values)
    if decay is not None:
        gamma, c1, resid = decay
        if resid <= decay_preference * best.residual:
            best = LimitFit(0.0, resid, "decay", gamma, c1, False)

    flagged = best.residual > 0.1 * abs(best.value) + 1e-8
    return LimitFit(best.value, best.residual, best.model, best.beta, best.c1, flagged)
