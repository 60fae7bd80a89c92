"""Zero-homogeneous multiplier symbols on the unit sphere.

A symbol is given by an evaluator on unit vectors; everything radial is
recovered through the homogeneous extension psi*(x) = psi(x/|x|).  Smoothness
bookkeeping uses kappa = floor(d/2) + 1, the derivative order needed for the
multiplier bound machinery in d = 2, 3.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.special import roots_legendre, sph_harm_y

from .util import multi_indices


def smoothness_order(d: int) -> int:
    return d // 2 + 1


@dataclass(frozen=True)
class SphericalSymbol:
    """Zero-homogeneous symbol, known through its values on S^{d-1}.

    Parameters
    ----------
    d : ambient dimension (2 or 3).
    eval : vectorized map from unit vectors, shape (d, M) -> (M,) complex.
    name : registry identifier.
    deriv : optional analytic derivatives of the homogeneous extension;
        signature (beta, points (d, M)) -> (M,) complex for |beta| <= kappa.
        Points are arbitrary nonzero vectors.
    sphere_mean : optional exact mean over the sphere, used for the zero
        frequency mode of the induced multiplier.
    """

    d: int
    eval: Callable = field(compare=False)
    name: str = "anonymous"
    deriv: Optional[Callable] = field(default=None, compare=False)
    sphere_mean: Optional[complex] = None

    @property
    def kappa(self) -> int:
        return smoothness_order(self.d)

    def __call__(self, xi):
        """Evaluate at unit vectors, shape (d, M)."""
        return np.asarray(self.eval(np.asarray(xi, dtype=float)), dtype=complex)

    def extension(self, x):
        """Homogeneous extension psi*(x) = psi(x/|x|) at nonzero points (d, M)."""
        x = np.asarray(x, dtype=float)
        r = np.sqrt(np.sum(x * x, axis=0))
        if np.any(r == 0):
            raise ValueError("extension is undefined at the origin")
        return self(x / r)

    def scaled(self, c):
        """The symbol c * psi, inheriting analytic derivatives."""
        der = None
        if self.deriv is not None:
            base = self.deriv
            der = lambda beta, pts: c * base(beta, pts)
        mean = None if self.sphere_mean is None else c * self.sphere_mean
        return SphericalSymbol(
            self.d, lambda xi: c * self.eval(xi), f"{c!r}*{self.name}", der, mean
        )


# ---------------------------------------------------------------------------
# sphere quadrature

@dataclass(frozen=True)
class SphereQuadrature:
    """Nodes and positive weights on S^{d-1}.

    `degree` is the largest harmonic degree D such that products of harmonics
    with degrees summing to at most D are integrated exactly.
    """

    d: int
    nodes: np.ndarray = field(repr=False)    # (d, M) unit vectors
    weights: np.ndarray = field(repr=False)  # (M,) positive, summing to |S^{d-1}|
    degree: int = 0

    def integrate(self, values):
        return complex(np.sum(self.weights * np.asarray(values)))


def circle_quadrature(n_nodes: int) -> SphereQuadrature:
    """Equispaced-angle trapezoid rule on S^1; exact through degree n_nodes-1."""
    th = 2 * np.pi * np.arange(n_nodes) / n_nodes
    nodes = np.stack([np.cos(th), np.sin(th)])
    w = np.full(n_nodes, 2 * np.pi / n_nodes)
    return SphereQuadrature(2, nodes, w, degree=n_nodes - 1)


def s2_quadrature(n_polar: int, n_lon: int) -> SphereQuadrature:
    """Gauss-Legendre (polar) x equispaced (longitude) product rule on S^2.

    Exact for spherical polynomials of degree <= min(2*n_polar - 1, n_lon - 1).
    """
    t, w_t = roots_legendre(n_polar)
    phi = 2 * np.pi * np.arange(n_lon) / n_lon
    st = np.sqrt(1.0 - t * t)
    x = np.multiply.outer(st, np.cos(phi))
    y = np.multiply.outer(st, np.sin(phi))
    z = np.multiply.outer(t, np.ones(n_lon))
    nodes = np.stack([x.ravel(), y.ravel(), z.ravel()])
    w = np.multiply.outer(w_t, np.full(n_lon, 2 * np.pi / n_lon)).ravel()
    return SphereQuadrature(3, nodes, w, degree=min(2 * n_polar - 1, n_lon - 1))


def default_quadrature(d: int, degree: int) -> SphereQuadrature:
    """A rule exact at least through the given degree."""
    if d == 2:
        return circle_quadrature(max(degree + 1, 32))
    n_polar = degree // 2 + 1
    return s2_quadrature(max(n_polar, 8), max(degree + 1, 16))


# ---------------------------------------------------------------------------
# spherical harmonics

def harmonic_count(n: int, d: int) -> int:
    """Dimension of the degree-n harmonics: 1 or 2 on S^1, 2n+1 on S^2."""
    if d == 2:
        return 1 if n == 0 else 2
    return 2 * n + 1


def _harmonic_values(d, n, j, nodes):
    if d == 2:
        theta = np.arctan2(nodes[1], nodes[0])
        if n == 0:
            return np.full(nodes.shape[1], 1.0 / np.sqrt(2 * np.pi), dtype=complex)
        sign = 1 if j == 1 else -1
        return np.exp(sign * 1j * n * theta) / np.sqrt(2 * np.pi)
    theta = np.arccos(np.clip(nodes[2], -1.0, 1.0))
    phi = np.arctan2(nodes[1], nodes[0])
    m = j - 1 - n
    return sph_harm_y(n, m, theta, phi)


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
    def build(cls, d, n_max, quadrature=None):
        if quadrature is None:
            quadrature = default_quadrature(d, 2 * n_max)
        if quadrature.degree < 2 * n_max:
            raise ValueError(
                f"quadrature degree {quadrature.degree} insufficient for "
                f"n_max={n_max} (need >= {2 * n_max})"
            )
        idx = [
            (n, j)
            for n in range(n_max + 1)
            for j in range(1, harmonic_count(n, d) + 1)
        ]
        table = np.stack(
            [_harmonic_values(d, n, j, quadrature.nodes) for n, j in idx]
        )
        return cls(d, n_max, quadrature, tuple(idx), table)

    @property
    def size(self):
        return len(self.indices)

    def evaluate(self, n, j, points):
        """Basis function values at arbitrary unit vectors (d, M)."""
        return _harmonic_values(self.d, n, j, np.asarray(points, dtype=float))

    def symbol(self, n, j) -> SphericalSymbol:
        """The harmonic Y_{n,j} wrapped as a multiplier symbol."""
        mean = 0.0 if n > 0 else 1.0 / np.sqrt(2 * np.pi) if self.d == 2 else \
            1.0 / np.sqrt(4 * np.pi)
        return SphericalSymbol(
            self.d,
            lambda xi, n=n, j=j: self.evaluate(n, j, xi),
            name=f"harmonic_{n}_{j}",
            sphere_mean=mean,
        )


def sh_analyze(values, basis: SphericalHarmonicBasis):
    """Harmonic coefficients of node values: v_{n,j} = sum w * v * conj(Y)."""
    values = np.asarray(values, dtype=complex)
    if values.shape != basis.quadrature.weights.shape:
        raise ValueError("values must be sampled on the basis quadrature nodes")
    return np.conj(basis.table) @ (basis.quadrature.weights * values)


def sh_synthesize(coeffs, basis: SphericalHarmonicBasis):
    """Node values of a coefficient table; inverse of sh_analyze on
    band-limited data."""
    coeffs = np.asarray(coeffs, dtype=complex)
    if coeffs.shape != (basis.size,):
        raise ValueError(f"expected {basis.size} coefficients")
    return coeffs @ basis.table


def hs_sphere_norm(coeffs, s, d, indices=None, basis=None):
    """Sobolev norm on the sphere from harmonic coefficients.

    Weight per degree n is (n + (d-2)/2)^(2s) for d >= 3 and (n^2 + 1)^s on
    the circle, where the shifted operator replaces the degenerate one.
    """
    if s < 0:
        raise ValueError("s must be nonnegative")
    if indices is None:
        if basis is None:
            raise ValueError("need indices or basis")
        indices = basis.indices
    coeffs = np.asarray(coeffs, dtype=complex)
    degrees = np.array([n for n, _ in indices], dtype=float)
    if d == 2:
        weights = (degrees**2 + 1.0) ** s
    else:
        weights = (degrees + (d - 2) / 2.0) ** (2 * s)
    return float(np.sqrt(np.sum(weights * np.abs(coeffs) ** 2)))


# ---------------------------------------------------------------------------
# C^k norms of the homogeneous extension

_SHELL_HALF_WIDTH = 0.5  # shell radius parameter l in (0, 1)


def _shell_points(d, l, n_sphere, n_radial):
    quad = default_quadrature(d, n_sphere)
    radii = np.linspace(1.0 - l, 1.0 + l, n_radial)
    pts = np.concatenate([r * quad.nodes for r in radii], axis=1)
    return pts


def _fd_derivative(psi: SphericalSymbol, beta, points, h):
    """Central finite differences of the homogeneous extension, nested per
    axis; points may drift off the sphere, the extension handles that."""
    vals = {(): points}

    def rec(rem, pts):
        if not rem:
            return psi.extension(pts)
        axis = rem[0]
        e = np.zeros((pts.shape[0], 1))
        e[axis, 0] = h
        return (rec(rem[1:], pts + e) - rec(rem[1:], pts - e)) / (2 * h)

    axes = []
    for i, b in enumerate(beta):
        axes.extend([i] * b)
    return rec(tuple(axes), points)


def _derivative_sup(psi, beta, points, fd_tol):
    """Sup of |d^beta psi*| over the given points, analytic when available,
    otherwise step-halved central differences agreeing within fd_tol."""
    if sum(beta) == 0:
        return float(np.max(np.abs(psi.extension(points))))
    if psi.deriv is not None:
        return float(np.max(np.abs(psi.deriv(beta, points))))
    h = 1e-2
    prev = float(np.max(np.abs(_fd_derivative(psi, beta, points, h))))
    for _ in range(8):
        h /= 2
        cur = float(np.max(np.abs(_fd_derivative(psi, beta, points, h))))
        if abs(cur - prev) <= fd_tol * (1.0 + abs(cur)):
            return cur
        prev = cur
    raise ValueError(
        f"finite differences for d^{beta} {psi.name} did not stabilize"
    )


def ck_norm(psi: SphericalSymbol, k: int, l=_SHELL_HALF_WIDTH,
            n_sphere=256, n_radial=9, fd_tol=1e-4) -> float:
    """C^k norm via the radial shell: sup over |alpha| <= k and the shell
    {1-l <= |x| <= 1+l} of |d^alpha psi*|, estimated on a dense sampling."""
    if k > psi.kappa:
        raise ValueError(f"order {k} exceeds symbol smoothness kappa={psi.kappa}")
    if not 0 < l < 1:
        raise ValueError("shell parameter l must lie in (0, 1)")
    pts = _shell_points(psi.d, l, n_sphere, n_radial)
    return max(
        _derivative_sup(psi, beta, pts, fd_tol)
        for beta in multi_indices(psi.d, k)
    )


def mihlin_constant(psi: SphericalSymbol, n_sphere=256, fd_tol=1e-4) -> float:
    """max over |beta| <= kappa of sup_{S^{d-1}} |xi|^{|beta|} |d^beta psi*|.

    The integrand is homogeneous of degree zero, so the sup over nonzero
    frequencies reduces to the unit sphere.
    """
    pts = default_quadrature(psi.d, n_sphere).nodes
    return max(
        _derivative_sup(psi, beta, pts, fd_tol)
        for beta in multi_indices(psi.d, psi.kappa)
    )


def mp_bound(psi: SphericalSymbol, p: float, **kwargs) -> float:
    """Multiplier-norm majorant max{p, 1/(p-1)} * (A + sup|psi|).

    An upper-bound certificate modulo the unspecified dimensional constant;
    it is not asserted to dominate the true operator norm.
    """
    if not (1.0 < p < np.inf):
        raise ValueError(f"exponent must lie in (1, inf), got {p}")
    a = mihlin_constant(psi, **kwargs)
    sup = float(np.max(np.abs(psi(default_quadrature(psi.d, 256).nodes))))
    return max(p, 1.0 / (p - 1.0)) * (a + sup)
