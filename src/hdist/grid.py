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

Every pass that takes a field through multipliers works on the phase-free
seam: `spectrum` gives F = fftn(f), `image` the samples ifftn(m F) of A_m f,
`adjoint_image` the samples conj(A_conj(m) f) = fftn(m conj(F),
norm="forward") from conj(F), and `round_trips` yields images from one
spectrum.  The centring phases cancel and cell_volume / L^d = 1 / N^d, so
each image is the dft / idft round trip, bitwise where L/N and L are powers
of two.  `dft` and `idft`, the continuum-convention pair and the route of
MultiplierOperator.apply, are the only functions that compute the centring
phases.  This module is the only one that enters `numpy.fft`, and transforms
are counted there: each function looks it up at call time, so a wrapper
installed there (a tracer, a test counter) sees every transform.  Complex
transforms run in place (`out=`) in a complex buffer padded to N + 1 on its
last axis, since a contiguous N^d array's power-of-two leading-axis stride
thrashes the cache; a real field is cast to complex on the copy into it.  So
a spectrum, an image, and the samples of a field from idft are strided views.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


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
        try:
            box = float(self.L) ** self.d
        except OverflowError:
            box = np.inf
        if not (box < np.inf and self.cell_volume > 0):  # cell_volume <= box
            raise ValueError(f"L = {self.L} gives a box volume L^d or cell volume "
                             f"(L/N)^d outside the positive floats in d = {self.d}")

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
        """(-1)^m / L^d, what idft multiplies its input by before the unscaled
        inverse FFT (norm="forward"), folding in its 1 / N^d.  Complex128
        against the storage rule: a float64 phase made idft-bound runs slower."""
        ph = self._center_phase(1.0 / self.L ** self.d).astype(np.complex128)
        ph.flags.writeable = False
        return ph

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
    """The storage rule of every lattice array: complex128 if complex, else float64."""
    return np.complex128 if np.iscomplexobj(values) else np.float64


@dataclass(frozen=True)
class GridFunction:
    """Real or complex samples of a function at the points of a Grid; real
    ones stay float64.  values is read-only: an array of the grid's shape
    and sample dtype is kept as it is, whatever its strides."""

    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=_sample_dtype(self.values))
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


def _lattice_buffer(shape) -> np.ndarray:
    """An empty complex128 view of the given shape into a buffer padded by one
    entry on its last axis."""
    return np.empty(shape[:-1] + (shape[-1] + 1,), np.complex128)[..., :shape[-1]]


def _transform_product(name, a, b, norm) -> np.ndarray:
    """numpy.fft's `name` of a * b, taken in place in a fresh padded buffer."""
    buf = np.multiply(a, b, out=_lattice_buffer(np.shape(b)))
    return getattr(np.fft, name)(buf, out=buf, norm=norm)


def spectrum(f: GridFunction) -> np.ndarray:
    """The phase-free spectrum fftn(f) of a real or complex field, transformed
    as complex128 in a padded buffer; dft(f) is this times cell_volume (-1)^m."""
    vals = _lattice_buffer(f.grid.shape)
    vals[...] = f.values
    return np.fft.fftn(vals, out=vals)


def image(m: np.ndarray, f_spec: np.ndarray) -> np.ndarray:
    """Samples of A_m f from f's phase-free spectrum: ifftn(m f_spec), which is
    idft(grid, m * dft(f)).values."""
    return _transform_product("ifftn", m, f_spec, "backward")


def adjoint_image(m: np.ndarray, f_spec_conj: np.ndarray) -> np.ndarray:
    """Samples of conj(A_conj(m) f) from conj(fftn f): fftn(m f_spec_conj) / N^d.
    The forward transform returns the conjugate of the inverse one, so no
    conjugate is taken of m or of the result."""
    return _transform_product("fftn", m, f_spec_conj, "forward")


def dft(f: GridFunction) -> np.ndarray:
    """Samples of fhat on the frequency lattice in FFT layout, under the
    convention fhat(xi) = integral of exp(-2 pi i x.xi) f(x) dx.  The field,
    real or complex, is transformed as complex128 in a padded buffer."""
    vals = spectrum(f)
    vals *= f.grid._forward_phase
    return vals


def idft(grid: Grid, f_hat: np.ndarray) -> GridFunction:
    """The field on grid whose spectrum is f_hat; idft(f.grid, dft(f)) == f
    to machine precision."""
    if not isinstance(f_hat, np.ndarray):
        raise TypeError(f"idft takes a spectrum array, got {type(f_hat).__name__}")
    if f_hat.shape != grid.shape:
        raise ValueError(f"spectrum shape {f_hat.shape} does not match grid {grid.shape}")
    return GridFunction(grid, _transform_product("ifftn", f_hat, grid._inverse_phase,
                                                 "forward"))


def hermitian_part(m: np.ndarray) -> np.ndarray:
    """(m(xi) + conj m(-xi)) / 2 of lattice array m: it takes a real field to
    the real part of its image under m, and is zero where an odd derivative
    meets an unpaired Nyquist plane."""
    neg = -np.arange(m.shape[0]) % m.shape[0]  # the index of -xi along an axis
    return (m + np.conj(m[np.ix_(*[neg] * m.ndim)])) / 2


def round_trips(f: GridFunction, ms):
    """Yield idft(f.grid, m * dft(f)) for each lattice array m in ms, one image
    alive at a time, from one forward transform.  A complex f goes through
    spectrum / image.  A real f needs each m Hermitian (see hermitian_part): it
    reads m on the half lattice, the last axis' indices 0..N/2, and goes
    through rfftn / irfftn without the centring phases, which cancel (bitwise
    where L/N is a power of two)."""
    if np.iscomplexobj(f.values):
        f_spec = spectrum(f)
        yield from (GridFunction(f.grid, image(m, f_spec)) for m in ms)
        return
    f_hat = np.fft.rfftn(f.values)
    axes = tuple(range(f.grid.d))
    for m in ms:
        yield GridFunction(f.grid, np.fft.irfftn(m[..., :f.grid.N // 2 + 1] * f_hat,
                                                 s=f.grid.shape, axes=axes))


def lp_norm(f: GridFunction, p: float) -> float:
    """Riemann-sum L^p norm, 1 < p < infinity; see linf_norm for the sup norm."""
    return lp_norms(f, (p,))[p]


def lp_norms(f: GridFunction, p_list) -> dict:
    """p -> Riemann-sum L^p norm of f for each 1 < p < inf in p_list.

    One |f| serves every p: peak * (h^d * sum s^p)^(1/p) with s = |f| / peak,
    s^2 a square and any other s^p 2^(p log2 s) from one log2 s, each clamped
    from below at 2^-1000, far under the peak's own term 1.  No term is
    subnormal, so none takes libm's slow path, and |c f|_p = |c| |f|_p."""
    if not all(1.0 < p < np.inf for p in p_list):
        raise ValueError(f"exponents must lie in (1, inf), got {list(p_list)}")
    mag = np.abs(f.values)
    peak = float(mag.max())
    if peak == 0.0 or not np.isfinite(peak):
        return {p: peak for p in p_list}
    low = max(float(mag.min()) / peak, 2.0 ** -1000)  # the smallest s, clamped
    mag /= peak
    buf = mag if len(p_list) == 1 else np.empty_like(mag)
    sums = {}
    if 2 in p_list:  # while mag holds s
        s = mag if low >= 2.0 ** -500 else np.maximum(mag, 2.0 ** -500, out=buf)
        sums[2] = np.square(s, out=buf).sum()
    if rest := [p for p in p_list if p != 2]:
        np.log2(np.maximum(mag, low, out=mag), out=mag)
    for p in rest:
        np.multiply(mag, p, out=buf)
        if p * np.log2(low) < -1000.0:
            np.maximum(buf, -1000.0, out=buf)
        sums[p] = np.exp2(buf, out=buf).sum()
    return {p: peak * float(f.grid.cell_volume * sums[p]) ** (1.0 / p) for p in p_list}


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

