"""Uniform periodic grid on [-L/2, L/2)^d with its discrete Fourier pair.

The box is a torus surrogate for R^d: all test data is effectively supported
in the central half-box, so wrap-around error is spectrally small.  The
transform convention is

    fhat(xi_m) = (L/N)^d * sum_j f(x_j) exp(-2 pi i x_j . xi_m),

with frequency lattice xi_m = m/L, m in {-N/2, ..., N/2-1}^d, matching the
continuum transform with 2 pi in the exponent.  Frequency-side arrays are
stored in FFT layout (numpy fftfreq ordering).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

PHYSICAL = "physical"
FREQUENCY = "frequency"


@dataclass(frozen=True)
class Grid:
    """Uniform periodic discretization of the box [-L/2, L/2)^d.

    Parameters
    ----------
    d : spatial dimension, 2 or 3.
    N : points per axis, a power of two >= 8.
    L : box side length, > 0.
    """

    d: int
    N: int
    L: float

    def __post_init__(self):
        if self.d not in (2, 3):
            raise ValueError(f"dimension must be 2 or 3, got {self.d}")
        if self.N < 8 or (self.N & (self.N - 1)) != 0:
            raise ValueError(f"N must be a power of two >= 8, got {self.N}")
        if not self.L > 0:
            raise ValueError(f"L must be positive, got {self.L}")

    @property
    def shape(self):
        return (self.N,) * self.d

    @property
    def spacing(self):
        return self.L / self.N

    @property
    def cell_volume(self):
        return (self.L / self.N) ** self.d

    @cached_property
    def axis_x(self):
        """1D physical coordinates, -L/2 + j*L/N."""
        x = -self.L / 2 + self.spacing * np.arange(self.N)
        x.flags.writeable = False
        return x

    @cached_property
    def axis_m(self):
        """1D signed integer frequency indices in FFT layout."""
        m = np.rint(np.fft.fftfreq(self.N) * self.N).astype(np.int64)
        m.flags.writeable = False
        return m

    @cached_property
    def axis_xi(self):
        """1D frequencies m/L in FFT layout."""
        xi = self.axis_m / self.L
        xi.flags.writeable = False
        return xi

    @cached_property
    def _center_phase(self):
        # (-1)^m per axis accounts for the -L/2 origin shift; N even makes
        # this well defined modulo aliasing.
        ph = ((-1.0) ** (self.axis_m % 2)).astype(np.float64)
        out = ph
        for _ in range(self.d - 1):
            out = np.multiply.outer(out, ph)
        out.flags.writeable = False
        return out

    def meshgrid_x(self):
        """d arrays of shape N^d with physical coordinates."""
        return np.meshgrid(*([self.axis_x] * self.d), indexing="ij")

    @cached_property
    def xi_axes(self):
        """d read-only views of axis_xi, each shaped to broadcast along its axis."""
        return np.meshgrid(*([self.axis_xi] * self.d), indexing="ij",
                           sparse=True, copy=False)

    @cached_property
    def xi_norm(self):
        """|xi| over the frequency lattice, shape N^d."""
        r = np.sqrt(sum(c * c for c in self.xi_axes))
        r.flags.writeable = False
        return r

    @cached_property
    def xi_norm_safe(self):
        """|xi| with the zero mode set to 1: the divisor for 1/|xi| multipliers."""
        r = np.where(self.xi_norm == 0, 1.0, self.xi_norm)
        r.flags.writeable = False
        return r

    def sample(self, fn):
        """Sample a callable fn(*coords) -> array into a physical GridFunction."""
        vals = np.asarray(fn(*self.meshgrid_x()), dtype=np.complex128)
        return GridFunction(self, np.broadcast_to(vals, self.shape).copy(), PHYSICAL)


@dataclass(frozen=True)
class GridFunction:
    """Complex samples of a function on a Grid, on one side of the DFT pair."""

    grid: Grid
    values: np.ndarray = field(repr=False)
    side: str = PHYSICAL
    name: str = field(default="", compare=False)

    def __post_init__(self):
        if self.side not in (PHYSICAL, FREQUENCY):
            raise ValueError(f"unknown side tag {self.side!r}")
        vals = np.ascontiguousarray(self.values, dtype=np.complex128)
        if vals.shape != self.grid.shape:
            raise ValueError(
                f"values shape {vals.shape} does not match grid {self.grid.shape}"
            )
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    def _require_same(self, other):
        if self.grid != other.grid:
            raise ValueError("grid mismatch")
        if self.side != other.side:
            raise ValueError(f"side mismatch: {self.side} vs {other.side}")

    def __add__(self, other):
        self._require_same(other)
        return GridFunction(self.grid, self.values + other.values, self.side)

    def __sub__(self, other):
        self._require_same(other)
        return GridFunction(self.grid, self.values - other.values, self.side)

    def __mul__(self, other):
        if isinstance(other, GridFunction):
            self._require_same(other)
            return GridFunction(self.grid, self.values * other.values, self.side)
        return GridFunction(self.grid, self.values * other, self.side)

    __rmul__ = __mul__

    def conj(self):
        return GridFunction(self.grid, np.conj(self.values), self.side)


def dft(f: GridFunction) -> GridFunction:
    """Forward transform of a physical-side function.

    Returns samples of fhat on the frequency lattice in FFT layout, under
    the convention fhat(xi) = integral of exp(-2 pi i x.xi) f(x) dx.
    """
    if f.side != PHYSICAL:
        raise ValueError("dft expects a physical-side function")
    g = f.grid
    vals = g.cell_volume * g._center_phase * np.fft.fftn(f.values)
    return GridFunction(g, vals, FREQUENCY)


def idft(fh: GridFunction) -> GridFunction:
    """Inverse transform; idft(dft(f)) == f to machine precision."""
    if fh.side != FREQUENCY:
        raise ValueError("idft expects a frequency-side function")
    g = fh.grid
    vals = np.fft.ifftn(fh.values * g._center_phase) / g.cell_volume
    return GridFunction(g, vals, PHYSICAL)


def lp_norm(f: GridFunction, p: float) -> float:
    """Riemann-sum L^p norm, 1 < p < infinity; see linf_norm for the sup norm."""
    if f.side != PHYSICAL:
        raise ValueError("lp_norm expects a physical-side function")
    if not (1.0 < p < np.inf):
        raise ValueError(f"exponent must lie in (1, inf), got {p}")
    return float(
        (f.grid.cell_volume * np.sum(np.abs(f.values) ** p)) ** (1.0 / p)
    )


def linf_norm(f: GridFunction) -> float:
    """Sup of |f| over the lattice."""
    return float(np.max(np.abs(f.values)))


def pairing(u: GridFunction, v: GridFunction) -> complex:
    """Sesquilinear quadrature pairing (L/N)^d sum u(x_j) conj(v(x_j)).

    Conjugate symmetric: pairing(u, v) == conj(pairing(v, u)).
    """
    if u.grid != v.grid:
        raise ValueError("grid mismatch")
    if u.side != PHYSICAL or v.side != PHYSICAL:
        raise ValueError("pairing expects physical-side functions")
    return complex(u.grid.cell_volume * np.vdot(v.values, u.values))


def l2_norm(f: GridFunction) -> float:
    return lp_norm(f, 2.0)
