"""Zero-homogeneous multiplier symbols, sphere quadratures and spherical
harmonics.

A symbol is given by an evaluator on unit vectors and its exact mean over
the sphere; the induced multiplier takes psi(xi/|xi|) off the zero mode
and the mean on it.  Spherical harmonics through a degree n_max give the xi
side of the test basis; one generator evaluates them, both on a quadrature
exact through 2 n_max and at the lattice directions xi/|xi|.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .grid import _sample_dtype


@dataclass(frozen=True)
class SphericalSymbol:
    """Zero-homogeneous symbol, known through its values on S^{d-1}.

    Parameters
    ----------
    d : ambient dimension (2 or 3).
    eval : vectorized map from unit vectors, given as d component arrays (a
        sequence or a (d, ...) array), to (...) real or complex.
    name : registry identifier.
    sphere_mean : exact mean over the sphere (real or complex), the zero
        frequency mode of the induced multiplier.
    """

    d: int
    eval: Callable = field(compare=False)
    name: str = "anonymous"
    sphere_mean: float | complex = field(kw_only=True)

    def __call__(self, xi):
        """Evaluate at unit vectors, d component arrays handed to eval as they
        are, stored as a field is (float64 if real)."""
        values = self.eval(xi)
        return np.asarray(values, dtype=_sample_dtype(values))


# ---------------------------------------------------------------------------
# sphere quadrature

@dataclass(frozen=True)
class SphereQuadrature:
    """Nodes and positive weights on S^{d-1}."""

    d: int
    nodes: np.ndarray = field(repr=False)    # (d, M) unit vectors
    weights: np.ndarray = field(repr=False)  # (M,) positive, summing to |S^{d-1}|


def circle_quadrature(n_nodes: int) -> SphereQuadrature:
    """Equispaced-angle trapezoid rule on S^1; exact through degree n_nodes-1."""
    th = 2 * np.pi * np.arange(n_nodes) / n_nodes
    nodes = np.stack([np.cos(th), np.sin(th)])
    w = np.full(n_nodes, 2 * np.pi / n_nodes)
    return SphereQuadrature(2, nodes, w)


def s2_quadrature(n_polar: int, n_lon: int) -> SphereQuadrature:
    """Gauss-Legendre (polar) x equispaced (longitude) product rule on S^2.

    Exact for spherical polynomials of degree <= min(2*n_polar - 1, n_lon - 1).
    """
    from scipy.special import roots_legendre  # here, so only a 3-D rule loads scipy

    t, w_t = roots_legendre(n_polar)
    phi = 2 * np.pi * np.arange(n_lon) / n_lon
    st = np.sqrt(1.0 - t * t)
    x = np.multiply.outer(st, np.cos(phi))
    y = np.multiply.outer(st, np.sin(phi))
    z = np.multiply.outer(t, np.ones(n_lon))
    nodes = np.stack([x.ravel(), y.ravel(), z.ravel()])
    w = np.multiply.outer(w_t, np.full(n_lon, 2 * np.pi / n_lon)).ravel()
    return SphereQuadrature(3, nodes, w)


def default_quadrature(d: int, degree: int) -> SphereQuadrature:
    """A rule exact at least through the given degree."""
    if d == 2:
        return circle_quadrature(max(degree + 1, 32))
    n_polar = degree // 2 + 1
    return s2_quadrature(max(n_polar, 8), max(degree + 1, 16))


# ---------------------------------------------------------------------------
# spherical harmonics

def _harmonics(d, n_max, x, r=1.0):
    """Yield ((n, j), Y_{n,j}) at the unit vectors x / r through degree n_max,
    one array at a time in basis order (j is 1-based).  x is (d, ...) and r
    broadcasts against each component.  In d = 2, Y_{n,1} = z^n / sqrt(2 pi)
    = conj(Y_{n,2}) with z = (x_1 + i x_2) / r, one multiply per degree; in
    d = 3, sph_harm_y once per harmonic on angles computed once."""
    if d == 2:
        z = (x[0] + 1j * x[1]) / r
        p = np.full(z.shape, 1.0 / np.sqrt(2 * np.pi), dtype=complex)
        yield (0, 1), p
        for n in range(1, n_max + 1):
            p = p * z
            yield (n, 1), p
            yield (n, 2), np.conj(p)
        return
    from scipy.special import sph_harm_y  # here, so only 3-D harmonics load scipy

    u = [c / r for c in x]
    theta = np.arccos(np.clip(u[2], -1.0, 1.0))
    phi = np.arctan2(u[1], u[0])
    for n in range(n_max + 1):
        for j in range(1, 2 * n + 2):
            yield (n, j), sph_harm_y(n, j - 1 - n, theta, phi)


@dataclass(frozen=True)
class SphericalHarmonicBasis:
    """Orthonormal basis of L^2(S^{d-1}) through degree n_max, tabulated
    on a quadrature exact through degree 2*n_max."""

    d: int
    n_max: int
    quadrature: SphereQuadrature
    indices: tuple = ()                      # ((n, j), ...), j is 1-based
    table: np.ndarray = field(default=None, repr=False)  # (B, M) values at nodes

    @classmethod
    def build(cls, d, n_max):
        quadrature = default_quadrature(d, 2 * n_max)
        idx, rows = zip(*_harmonics(d, n_max, quadrature.nodes))
        return cls(d, n_max, quadrature, idx, np.stack(rows))

    @property
    def size(self):
        return len(self.indices)

    def evaluate(self, n, j, points):
        """Basis function values at arbitrary unit vectors (d, M)."""
        for nj, values in _harmonics(self.d, n, np.asarray(points, dtype=float)):
            if nj == (n, j):
                return values
        raise ValueError(f"no harmonic (n, j) = ({n}, {j}) on S^{self.d - 1}")

    def lattice_rows(self, grid):
        """Yield each Y_b at the lattice directions xi/|xi|, in indices order,
        one array at a time (B stacked arrays would set peak memory), with the
        sphere mean at the zero mode.  The same recurrence as the quadrature
        table, on x = xi and r = |xi|."""
        if grid.d != self.d:
            raise ValueError(f"basis dimension {self.d} != grid dimension {grid.d}")
        mean = 1.0 / np.sqrt(2 * np.pi if self.d == 2 else 4 * np.pi)
        for (n, _), row in _harmonics(self.d, self.n_max, grid.xi_axes, grid.xi_norm_safe):
            # in d = 2 the row is the recurrence's p, but z is 0 at the zero
            # mode, so this write leaves the later degrees unchanged
            row[(0,) * self.d] = mean if n == 0 else 0.0
            yield row


def sh_analyze(values, basis: SphericalHarmonicBasis):
    """Harmonic coefficients of node values: v_{n,j} = sum w * v * conj(Y)."""
    values = np.asarray(values, dtype=complex)
    if values.shape != basis.quadrature.weights.shape:
        raise ValueError("values must be sampled on the basis quadrature nodes")
    return np.conj(basis.table) @ (basis.quadrature.weights * values)


def hs_sphere_norm(coeffs, s, d, indices):
    """Sobolev norm on the sphere from harmonic coefficients.

    Weight per degree n is (n + (d-2)/2)^(2s) for d >= 3 and (n^2 + 1)^s on
    the circle, where the shifted operator replaces the degenerate one.
    """
    if s < 0:
        raise ValueError("s must be nonnegative")
    coeffs = np.asarray(coeffs, dtype=complex)
    degrees = np.array([n for n, _ in indices], dtype=float)
    if d == 2:
        weights = (degrees**2 + 1.0) ** s
    else:
        weights = (degrees + (d - 2) / 2.0) ** (2 * s)
    return float(np.sqrt(np.sum(weights * np.abs(coeffs) ** 2)))

