"""Fourier multiplier operators on the periodic grid.

An operator is its lattice array m in FFT layout, stored as a field is
(float64 when real): it acts on a spectrum as the product m * f_hat,
composes as the product of arrays, and its adjoint is conj(m).  For a
zero-homogeneous symbol the lattice values are psi(xi/|xi|), with the zero
mode set to the sphere average of psi so that psi == 1 induces the exact
identity and odd symbols (Riesz) annihilate the constant mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import Grid, GridFunction, _sample_dtype, dft, idft
from .symbol import SphericalSymbol


@dataclass(frozen=True)
class MultiplierOperator:
    grid: Grid
    m: np.ndarray = field(repr=False)  # float64 or complex128 values, FFT layout

    def __post_init__(self):
        vals = np.ascontiguousarray(self.m, dtype=_sample_dtype(self.m))
        if vals.shape != self.grid.shape:
            raise ValueError("multiplier shape does not match grid")
        vals.flags.writeable = False
        object.__setattr__(self, "m", vals)

    def apply(self, f: GridFunction) -> GridFunction:
        if f.grid != self.grid:
            raise ValueError("grid mismatch")
        return idft(self.grid, self.m * dft(f))


def from_symbol(grid: Grid, psi: SphericalSymbol) -> MultiplierOperator:
    """Multiplier with values psi(xi/|xi|); zero mode = sphere average of psi."""
    if psi.d != grid.d:
        raise ValueError(f"symbol dimension {psi.d} != grid dimension {grid.d}")
    values = psi([c / grid.xi_norm_safe for c in grid.xi_axes])
    values = values.astype(np.result_type(values, psi.sphere_mean), copy=False)
    values[(0,) * grid.d] = psi.sphere_mean
    return MultiplierOperator(grid, values)


def riesz(grid: Grid, axis: int) -> MultiplierOperator:
    """j-th Riesz transform, symbol xi_j / (i |xi|), zero mode 0."""
    if not 0 <= axis < grid.d:
        raise ValueError(f"axis {axis} out of range for d={grid.d}")
    return MultiplierOperator(grid, grid.xi_axes[axis] / grid.xi_norm_safe / 1j)


def riesz_potential(grid: Grid) -> MultiplierOperator:
    """Inverse-gradient-magnitude potential, multiplier (2 pi |xi|)^(-1).

    The constant mode is mapped to 0; this surrogate choice matters only
    through data that is asymptotically mean free, and is flagged in outputs
    that involve the potential.
    """
    m = np.where(grid.xi_norm == 0, 0.0, 1.0 / (2 * np.pi * grid.xi_norm_safe))
    return MultiplierOperator(grid, m)


def bessel_potential(grid: Grid, s: float) -> MultiplierOperator:
    """Smoothing scale s: multiplier (1 + |2 pi xi|^2)^(s/2), no singularity."""
    return MultiplierOperator(grid, (1.0 + (2 * np.pi * grid.xi_norm) ** 2) ** (s / 2.0))


def derivative_op(grid: Grid, alpha) -> MultiplierOperator:
    """Spectral derivative d^alpha, multiplier (2 pi i xi)^alpha."""
    alpha = tuple(int(a) for a in alpha)
    if len(alpha) != grid.d or any(a < 0 for a in alpha):
        raise ValueError(f"bad multi-index {alpha} for d={grid.d}")
    m = np.ones((1,) * grid.d, dtype=np.complex128)  # broadcast 1-D factors
    for axis, a in enumerate(alpha):
        if a:
            m = m * (2j * np.pi * grid.xi_axes[axis]) ** a
    return MultiplierOperator(grid, np.broadcast_to(m, grid.shape))


def derivative(f: GridFunction, alpha) -> GridFunction:
    """Convenience: spectral d^alpha f (the identity for alpha = 0)."""
    if not any(alpha):
        return f
    return derivative_op(f.grid, alpha).apply(f)

