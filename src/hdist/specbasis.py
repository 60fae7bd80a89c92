"""Hermite functions and coefficients on R^d x S^{d-1}.

The Hermite functions are eigenfunctions of the harmonic oscillator
x^2 - d^2/dx^2 with eigenvalue 2m+1.  Tensor products h_m(x) Y_{n,j}(xi)
form an orthonormal basis of L^2(R^d x S^{d-1}), and membership of a
function of (x, xi) in the smooth test class is probed through the
summability of its weighted coefficient tensor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import itertools

import numpy as np

from .fitting import ZERO_FLOOR, log_slope
from .grid import Grid, GridFunction
from .multiplier import derivative_op
from .symbol import SphericalHarmonicBasis, sh_analyze
from .util import SupportError


def hermite_values(m_max: int, t: np.ndarray) -> np.ndarray:
    """Rows h_0 .. h_{m_max} of the normalized Hermite functions at points t,
    via the stable three-term recurrence."""
    t = np.asarray(t, dtype=float)
    out = np.empty((m_max + 1, len(t)))
    out[0] = np.pi ** (-0.25) * np.exp(-t * t / 2.0)
    if m_max >= 1:
        out[1] = np.sqrt(2.0) * t * out[0]
    for m in range(1, m_max):
        out[m + 1] = np.sqrt(2.0 / (m + 1)) * t * out[m] - np.sqrt(
            m / (m + 1.0)
        ) * out[m - 1]
    return out


def required_box(m_max: int) -> float:
    """Box side certified for 1e-8 grid orthonormality at this cutoff."""
    return 2.0 * np.sqrt(2.0 * m_max + 1.0) * 1.5


def _check_support(grid: Grid, m_max: int):
    # permit some slack below the certified constant, refuse clear overflow
    min_L = 2.0 * np.sqrt(2.0 * m_max + 1.0) * 1.1
    if grid.L < min_L:
        raise SupportError(
            f"box L={grid.L} too small for Hermite cutoff m_max={m_max}; "
            f"use L >= {required_box(m_max):.1f}"
        )


@dataclass(frozen=True)
class HermiteBasis:
    """Per-axis Hermite values on a grid, for tensorized transforms."""

    grid: Grid
    m_max: int
    axis_table: np.ndarray = field(default=None, repr=False)  # (m_max+1, N)

    @classmethod
    def build(cls, grid: Grid, m_max: int):
        _check_support(grid, m_max)
        return cls(grid, m_max, hermite_values(m_max, grid.axis_x))

    def indices(self):
        return list(itertools.product(range(self.m_max + 1), repeat=self.grid.d))

    def function(self, m) -> GridFunction:
        """The tensor-product Hermite function h_m sampled on the grid."""
        m = tuple(int(v) for v in m)
        if len(m) != self.grid.d or any(v < 0 or v > self.m_max for v in m):
            raise ValueError(f"bad Hermite multi-index {m}")
        vals = self.axis_table[m[0]]
        for v in m[1:]:
            vals = np.multiply.outer(vals, self.axis_table[v])
        # complex on purpose: analyze contracts a complex field by complex
        # BLAS, whose rounding-level se_coeffs entries a real one would move
        return GridFunction(self.grid, vals.astype(complex))

    def analyze(self, f: GridFunction) -> np.ndarray:
        """Coefficients <f, h_m> for all |m|_inf <= m_max, by grid quadrature.

        Computed as a separable contraction, one axis at a time.
        """
        if f.grid != self.grid:
            raise ValueError("grid mismatch")
        c = f.values
        for _ in range(self.grid.d):
            # contract the leading axis against the basis rows, push result last
            c = np.tensordot(self.axis_table, c, axes=(1, 0))
            c = np.moveaxis(c, 0, -1)
        return self.grid.cell_volume * c



def oscillator_apply(f: GridFunction) -> GridFunction:
    """Product of per-axis harmonic oscillators: prod_i (x_i^2 - d^2/dx_i^2)."""
    g = f.grid
    coords = g.x_axes
    out = f
    for axis in range(g.d):
        alpha = tuple(2 if i == axis else 0 for i in range(g.d))
        second = derivative_op(g, alpha).apply(out)
        out = GridFunction(g, coords[axis] ** 2 * out.values - second.values)
    return out


def oscillator_eigenvalue(m) -> float:
    return float(np.prod([2 * v + 1 for v in m]))


# ---------------------------------------------------------------------------
# coefficients on R^d x S^{d-1}

def se_analyze(theta, hermite_basis: HermiteBasis,
               sphere_basis: SphericalHarmonicBasis) -> dict:
    """Coefficients entries[(n,j), m] of theta(x, xi) against h_m x Y_{n,j},
    as se_coeffs.json holds them.

    theta is a list of separable terms (GridFunction, sphere node values)
    summed together.
    """
    grid = hermite_basis.grid
    out = np.zeros((sphere_basis.size, (hermite_basis.m_max + 1) ** grid.d),
                   dtype=complex)
    for fx, gs in theta:
        hx = hermite_basis.analyze(fx).ravel()
        cs = sh_analyze(np.asarray(gs, dtype=complex), sphere_basis)
        out += np.multiply.outer(cs, hx)

    return {"d": grid.d, "m_max": hermite_basis.m_max, "n_max": sphere_basis.n_max,
            "sphere_indices": tuple(sphere_basis.indices),
            "hermite_indices": tuple(hermite_basis.indices()), "entries": out}


def se_membership_score(coeffs: dict, r_list) -> dict:
    """Summability evidence for membership in the smooth test class, from
    the coefficient dict of se_analyze.

    For each r, reports the truncated sum of |a|^2 (1 + n^2 + |m|^2)^r and
    the fitted log-log slope of its shell sums; a slope below -1 (or a
    negligible tail) counts as summable.  Only complete shells inside the
    truncation box enter the fit (partial corner shells decay artificially),
    and shells at rounding level are dropped.  The overall verdict is
    positive when every tested r passes.  This is evidence, not a proof:
    the true criterion quantifies over all r > 0.
    """
    k_full = min(coeffs["n_max"], coeffs["m_max"])
    n = np.array([deg for deg, _ in coeffs["sphere_indices"]])
    m = np.array(coeffs["hermite_indices"])
    radius2 = (n[:, None] ** 2 + np.sum(m ** 2, axis=1)[None, :]).ravel()
    shell = np.floor(np.sqrt(radius2)).astype(int)
    mags2 = (np.abs(coeffs["entries"]) ** 2).ravel()

    report = {"r": {}, "verdict": None}
    verdicts = []
    for r in r_list:
        shell_sums = np.bincount(shell, weights=mags2 * (1.0 + radius2) ** r,
                                 minlength=k_full + 2)
        total = float(np.sum(shell_sums))
        head = shell_sums[0]
        # bin adjacent shells in pairs: parity-symmetric inputs leave every
        # other shell near-empty, which would wreck a log-log fit
        centers = np.arange(1, k_full + 1, 2) + 0.5
        bins = shell_sums[1:k_full + 1:2] + shell_sums[2:k_full + 2:2]
        positive = True
        slope = None
        if len(bins) >= 2 and bins.sum() > 1e-14 * max(total, ZERO_FLOOR):
            # the asymptotics live in the tail half; early shells may still
            # be climbing toward the weight/decay crossover
            tail = centers >= max(1.0, k_full / 2.0)
            if np.count_nonzero(tail) < 2:
                tail = np.ones(len(bins), dtype=bool)
            keep = tail & (bins > 1e-26 * max(float(bins.max()), ZERO_FLOOR))
            if np.count_nonzero(keep) >= 2:
                slope = float(log_slope(centers[keep], bins[keep]))
                positive = slope < -1.0
        report["r"][float(r)] = {
            "weighted_sum": float(total),
            "shell_slope": slope,
            "summable": positive,
            "head": float(head),
        }
        verdicts.append(positive)
    report["verdict"] = "consistent with SE" if all(verdicts) else "not consistent"
    return report
