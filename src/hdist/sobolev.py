"""Sobolev norms, the negative-order surrogate, and weakly-null families.

The W^{-k,p} norm of u, an infimum over representations
u = sum_{|alpha|<=k} d^alpha F_alpha, is not computable, so all convergence
claims use the equivalent smoothing surrogate |J_{-k} u|_{L^p}.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .fitting import fit_decay, fit_limit
from .grid import Grid, GridFunction, hermitian_part, lp_norm, lp_norms, round_trips
from .multiplier import bessel_potential, derivative_op
from .util import AliasingError, multi_indices


def _norm_rows(grid: Grid, fields, k_max: int, ks, p_list):
    """Per field f, key -> p -> |f|_p under alpha = 0, |d^alpha f|_p under
    0 < |alpha| <= k_max and |J_{-k} d^{(k,0,...)} f|_p under each k in ks.
    Each multiplier is built once as its hermitian_part, so a real field's
    images are real (the half lattice) and i f reads the norms of f."""
    ops = {}
    for a in multi_indices(grid.d, k_max)[1:]:  # lexicographic: 0 first
        ops[a] = m = hermitian_part(derivative_op(grid, a).m)
        if a[0] in ks and not any(a[1:]):
            ops[a[0]] = bessel_potential(grid, -float(a[0])).m * m
    for f in fields:  # one forward transform, one inverse per multiplier
        norms = (lp_norms(g, p_list) for g in round_trips(f, ops.values()))
        yield {(0,) * grid.d: lp_norms(f, p_list), **dict(zip(ops, norms))}


def _wkq(norms: dict, d: int, k: int, q: float) -> float:
    """The W^{k,q} norm from alpha -> q -> |d^alpha v|_q, summed peak-scaled."""
    parts = [norms[alpha][q] for alpha in multi_indices(d, k)]
    top = max(parts)
    return top * sum((x / top) ** q for x in parts) ** (1.0 / q) if top > 0 else top


def wkq_norm(v: GridFunction, k: int, q: float) -> float:
    """(sum_{|alpha|<=k} |d^alpha v|_q^q)^(1/q) with spectral derivatives."""
    return _wkq(next(_norm_rows(v.grid, [v], k, (), [q])), v.grid.d, k, q)


def surrogate_negative_norm(u: GridFunction, k: int, p: float) -> float:
    """Computable stand-in |J_{-k} u|_{L^p} for the W^{-k,p} size of u."""
    if k == 0:  # J_0 is the identity
        return lp_norm(u, p)
    return lp_norm(bessel_potential(u.grid, -float(k)).apply(u), p)


def norm_table(grid: Grid, fields, k_list, p_list) -> list:
    """(lp, wkq, surrogate) per field f: p -> |f|_p, (k, q) -> wkq_norm(f, k, q)
    and (k, p) -> surrogate_negative_norm of the element d^{(k,0,...)} f, whose
    representation bound is |f|_p.  Each derivative takes the Hermitian part of
    its multiplier: for a real f, the real part of derivative(f, alpha).  Each
    multiplier is built once, with J_{-k} d^{(k,0,...)} as one array, so a
    field takes 1 + #{0 < |alpha| <= max k} + #{k > 0} transforms, a real one
    on the half lattice whatever the other fields are."""
    zero = (0,) * grid.d
    return [(norms[zero],
             {(k, p): _wkq(norms, grid.d, k, p) for k in k_list for p in p_list},
             {(k, p): norms[k or zero][p] for k in k_list for p in p_list})
            for norms in _norm_rows(grid, fields, max(k_list), set(k_list) - {0}, p_list)]


# ---------------------------------------------------------------------------
# weakly-null sequence generators

class _Family:
    """Distinct whole-number indices, stored as ints and each guarded at
    build, and one sample per index."""

    def _guard_indices(self):
        if any(n != int(n) for n in self.indices):
            raise ValueError(f"family indices {list(self.indices)} are not whole numbers")
        object.__setattr__(self, "indices", tuple(int(n) for n in self.indices))
        if len(set(self.indices)) != len(self.indices):
            raise ValueError(f"family indices {list(self.indices)} repeat an index")
        for n in self.indices:
            self.guard(n)

    @cached_property
    def samples(self) -> tuple:
        """u(n) per index, sampled on first read and shared by every probe."""
        return tuple(self.u(n) for n in self.indices)


@dataclass(frozen=True)
class SequenceFamily(_Family):
    """Oscillation n -> u_n = (2 pi n |xi0| / L)^order n^prefactor_power
    a(x) exp(2 pi i n xi0.x / L), a weakly-null sequence.

    order = +k keeps the W^{-k,p} surrogate norm O(1), order = -k does the
    job for W^{k,q}; prefactor_power (default 0) lets the family decay or
    grow on top.  direction xi0, a nonzero integer lattice vector, defaults
    to e_1 of the grid.  The amplitude is sampled on the family's grid.  The
    indices are distinct, and each is guarded at build; u(n) and
    spectral_shift(n) guard n.
    """

    grid: Grid
    amplitude: GridFunction = field(compare=False)
    indices: tuple = (8, 16, 32)
    direction: Optional[tuple] = None
    order: int = 0
    prefactor_power: float = 0.0

    def __post_init__(self):
        if self.amplitude.grid != self.grid:
            raise ValueError(f"amplitude sampled on {self.amplitude.grid}, "
                             f"not on the family's {self.grid}")
        xi0 = (1,) + (0,) * (self.grid.d - 1) if self.direction is None else self.direction
        if len(xi0) != self.grid.d or not any(xi0) or any(c != int(c) for c in xi0):
            raise ValueError("direction must be a nonzero integer lattice vector")
        object.__setattr__(self, "direction", tuple(int(c) for c in xi0))
        self._guard_indices()

    def guard(self, n: int):
        """Refuse indices whose spectrum leaves the safe band."""
        reach = n * max(abs(c) for c in self.direction)
        if reach > self.grid.N // 4:
            raise AliasingError(
                f"oscillation index n={n} pushes the spectrum to lattice row "
                f"{reach} > N/4 = {self.grid.N // 4}; refine the grid or lower n"
            )

    def frequency_shift(self, n: int) -> float:
        """|n xi0| / L, the modulation frequency magnitude."""
        xi0 = np.asarray(self.direction, dtype=float)
        return float(n * np.linalg.norm(xi0) / self.grid.L)

    def _scale(self, n: int) -> float:
        """s_n of u_n = s_n a(x) exp(2 pi i n xi0.x / L)."""
        return ((2 * np.pi * self.frequency_shift(n)) ** self.order
                * float(n) ** self.prefactor_power)

    def spectral_shift(self, n: int) -> tuple:
        """(row, s_n): for every field g,
        dft(g * u(n)) == s_n * np.roll(dft(g * amplitude), row, axis=all axes).

        Exact up to rounding: the modulation moves the spectrum by the
        integer lattice row n xi0, and the (-1)^m centring phase of dft
        cancels against the modulation's value at the -L/2 origin.
        """
        self.guard(n)
        return tuple(n * c for c in self.direction), self._scale(n)

    def u(self, n: int) -> GridFunction:
        self.guard(n)
        g = self.grid
        vals = self.amplitude.values  # times a product of d 1-D waves
        for axis, c in enumerate(self.direction):
            if c:
                wave = np.exp((2j * np.pi * n * c / g.L) * g.axis_x)
                vals = vals * wave.reshape((-1,) + (1,) * (g.d - 1 - axis))
        s = self._scale(n)
        return GridFunction(g, vals if s == 1.0 else vals * s)


@dataclass(frozen=True)
class ConcentrationFamily(_Family):
    """Concentration n -> u_n = n^{d/p} n^prefactor_power a(n (x - x0)),
    sampled unperiodized, with x0 = center, a point of the grid's dimension
    (default the origin).

    profile_width is the width of the profile a, which the index guard
    reads.  The indices are distinct, and each is guarded at build; u(n)
    guards n.
    """

    grid: Grid
    amplitude_fn: Callable = field(compare=False)
    indices: tuple = (8, 16, 32)
    p: float = 2.0
    center: Optional[tuple] = None
    profile_width: float = 1.0
    prefactor_power: float = 0.0

    def __post_init__(self):
        if self.center is not None and len(self.center) != self.grid.d:
            raise ValueError(f"center {list(self.center)} is not a point of the "
                             f"d = {self.grid.d} grid")
        self._guard_indices()

    def guard(self, n: int):
        """Refuse indices whose dilated profile the lattice does not resolve:
        on a Gaussian profile a sampled pairing is 4e-2 off at n h = w/2,
        5e-9 at w/4."""
        g = self.grid
        if n * g.spacing > self.profile_width / 4.0:
            raise AliasingError(
                f"concentration index n={n} unresolved on N={g.N}, L={g.L} "
                f"(need n <= {self.profile_width / (4 * g.spacing):.1f})"
            )

    def u(self, n: int) -> GridFunction:
        self.guard(n)
        g = self.grid
        x0 = np.zeros(g.d) if self.center is None else np.asarray(self.center)
        out = n ** (g.d / self.p) * g.sample(
            lambda *x: self.amplitude_fn(*[n * (c - c0) for c, c0 in zip(x, x0)]))
        s = float(n) ** self.prefactor_power
        return out if s == 1.0 else out * s


# ---------------------------------------------------------------------------
# convergence probes

def decay_table(ns, columns: dict, meta: dict) -> dict:
    """Per-index magnitudes (label -> one value per index) with the fitted
    decay of each column, as the artifacts hold them."""
    return {"ns": tuple(ns), "columns": columns, "meta": meta,
            "fits": {label: fit_decay(ns, vals) for label, vals in columns.items()}}


def strong_null_probe(u, theta: GridFunction, k: int, p: float) -> dict:
    """Surrogate W^{-k,p} norms of theta * u_n over the family u's indices,
    as a decay table; strongly_null reads the fitted limit of the norms,
    which fit_limit extrapolates from at least three indices."""
    norms = [surrogate_negative_norm(theta * x, k, p) for x in u.samples]
    limit = fit_limit(u.indices, norms)
    return decay_table(u.indices, {"surrogate_norm": norms},
                       {"limit": limit, "strongly_null": limit["value"] == 0})
