"""Uniform periodic grid on [-L/2, L/2)^d with its discrete Fourier pair.

The box is a torus surrogate for R^d: all test data is effectively supported
in the central half-box, so wrap-around error is spectrally small.  The
transform convention is

    fhat(xi_m) = (L/N)^d * sum_j f(x_j) exp(-2 pi i x_j . xi_m),

with frequency lattice xi_m = m/L, m in {-N/2, ..., N/2-1}^d, matching the
continuum transform with 2 pi in the exponent.  A field is a GridFunction of
its samples at the grid points, real samples held as float64 and complex ones
as complex128; a spectrum is a plain complex ndarray in FFT layout (numpy
fftfreq ordering), on which a multiplier acts as a product.

`dft` and `idft` are the only transform seam: they call `scipy.fft.fftn` /
`ifftn` with scipy's default of one worker, looked up on the module at each
call so that a wrapper installed there (a tracer, a test counter) sees every
transform.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.fft


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

    def _center_phase(self, scale):
        # scale * (-1)^m per axis: the sign accounts for the -L/2 origin
        # shift, and N even makes it well defined modulo aliasing.
        ph = ((-1.0) ** (self.axis_m % 2)).astype(np.float64)
        out = scale * ph
        for _ in range(self.d - 1):
            out = np.multiply.outer(out, ph)
        out.flags.writeable = False
        return out

    @cached_property
    def _forward_phase(self):
        """cell_volume * (-1)^m: what dft multiplies the FFT output by."""
        return self._center_phase(self.cell_volume)

    @cached_property
    def _inverse_phase(self):
        """(-1)^m / cell_volume: what idft multiplies its input by."""
        return self._center_phase(1.0 / self.cell_volume)

    @cached_property
    def x_axes(self):
        """d read-only views of axis_x, each shaped to broadcast along its axis."""
        return np.meshgrid(*([self.axis_x] * self.d), indexing="ij",
                           sparse=True, copy=False)

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
        """Sample a callable fn(*x_axes) -> array, broadcast to N^d, into a
        GridFunction that aliases no array fn returned."""
        raw = fn(*self.x_axes)
        vals = np.asarray(raw, dtype=_sample_dtype(raw))
        if vals.shape != self.shape or np.may_share_memory(vals, raw):
            vals = np.broadcast_to(vals, self.shape).copy()
        return GridFunction(self, vals)


def _sample_dtype(values):
    """complex128 for complex samples, float64 for real (float, int, bool) ones."""
    return np.complex128 if np.iscomplexobj(values) else np.float64


@dataclass(frozen=True)
class GridFunction:
    """Real or complex samples of a function at the points of a Grid.  Real
    samples stay float64, and scipy transforms them real-to-complex at about
    half the cost of complex128 ones."""

    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.ascontiguousarray(self.values, dtype=_sample_dtype(self.values))
        if vals.shape != self.grid.shape:
            raise ValueError(f"shape {vals.shape} does not match grid {self.grid.shape}")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    def _require_same(self, other):
        if self.grid != other.grid:
            raise ValueError("grid mismatch")

    def __add__(self, other):
        self._require_same(other)
        return GridFunction(self.grid, self.values + other.values)

    def __sub__(self, other):
        self._require_same(other)
        return GridFunction(self.grid, self.values - other.values)

    def __mul__(self, other):
        if isinstance(other, GridFunction):
            self._require_same(other)
            return GridFunction(self.grid, self.values * other.values)
        return GridFunction(self.grid, self.values * other)

    __rmul__ = __mul__

    def conj(self):
        if not np.iscomplexobj(self.values):
            return self
        return GridFunction(self.grid, np.conj(self.values))


def dft(f: GridFunction) -> np.ndarray:
    """Samples of fhat on the frequency lattice in FFT layout, under the
    convention fhat(xi) = integral of exp(-2 pi i x.xi) f(x) dx."""
    vals = scipy.fft.fftn(f.values)
    vals *= f.grid._forward_phase
    return vals


def idft(grid: Grid, f_hat: np.ndarray) -> GridFunction:
    """The field on grid whose spectrum is f_hat; idft(f.grid, dft(f)) == f
    to machine precision."""
    if not isinstance(f_hat, np.ndarray):
        raise TypeError(f"idft takes a spectrum array, got {type(f_hat).__name__}")
    if f_hat.shape != grid.shape:
        raise ValueError(f"spectrum shape {f_hat.shape} does not match grid {grid.shape}")
    return GridFunction(grid, scipy.fft.ifftn(f_hat * grid._inverse_phase,
                                              overwrite_x=True))


def lp_norm(f: GridFunction, p: float) -> float:
    """Riemann-sum L^p norm, 1 < p < infinity; see linf_norm for the sup norm."""
    return magnitude_lp_norm(f.grid, np.abs(f.values), p)


def magnitude_lp_norm(grid: Grid, mag: np.ndarray, p: float) -> float:
    """lp_norm from the lattice magnitudes |f|, so that one |f| serves every p."""
    if not (1.0 < p < np.inf):
        raise ValueError(f"exponent must lie in (1, inf), got {p}")
    return float((grid.cell_volume * np.sum(mag ** p)) ** (1.0 / p))


def linf_norm(f: GridFunction) -> float:
    """Sup of |f| over the lattice."""
    return float(np.max(np.abs(f.values)))


def conj_sum(f: np.ndarray, g: np.ndarray):
    """sum f conj(g) over the lattice, summed pairwise by numpy, not by a BLAS
    vdot: a vdot's result depends on the BLAS thread count, and over N^d
    points it rounds about 30 times worse.  The product is taken in place in
    the fresh array conj(g), cast to the result type so that a real g can
    meet a complex f."""
    prod = np.conj(g, dtype=np.result_type(f, g))
    prod *= f
    return prod.sum()


def pairing(u: GridFunction, v: GridFunction) -> complex:
    """Sesquilinear quadrature pairing (L/N)^d sum u(x_j) conj(v(x_j)).

    Conjugate symmetric: pairing(u, v) == conj(pairing(v, u)).
    """
    if u.grid != v.grid:
        raise ValueError("grid mismatch")
    return complex(u.grid.cell_volume * conj_sum(u.values, v.values))

