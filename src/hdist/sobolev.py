"""Sobolev norms, the negative-order surrogate, and weakly-null families.

The W^{-k,p} norm of u, an infimum over representations
u = sum_{|alpha|<=k} d^alpha F_alpha, is not computable, so all convergence
claims use the equivalent smoothing surrogate |J_{-k} u|_{L^p}.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .fitting import MIN_DECAY_RATE, fit_decay
from .grid import Grid, GridFunction, dft, idft, lp_norm, magnitude_lp_norm
from .multiplier import bessel_potential, derivative_op
from .util import AliasingError, multi_indices


def _derivatives(grid: Grid, k: int) -> dict:
    """alpha -> the lattice array (2 pi i xi)^alpha, for 0 < |alpha| <= k."""
    return {a: derivative_op(grid, a).m for a in multi_indices(grid.d, k) if any(a)}


def _lp_norms(f: GridFunction, ops: dict, p_list) -> dict:
    """key -> p -> |idft(ops[key] f_hat)|_p, and |f|_p under alpha = 0: one
    forward transform, one inverse per multiplier, one magnitude for all p."""
    f_hat = dft(f) if ops else None
    norms = {}
    for key, m in [((0,) * f.grid.d, None), *ops.items()]:
        g = f if m is None else idft(f.grid, m * f_hat)
        mag = np.abs(g.values)
        norms[key] = {p: magnitude_lp_norm(f.grid, mag, p) for p in p_list}
    return norms


def _wkq(norms: dict, d: int, k: int, q: float) -> float:
    """The W^{k,q} norm from alpha -> q -> |d^alpha v|_q."""
    return float(sum(norms[alpha][q] ** q for alpha in multi_indices(d, k)) ** (1.0 / q))


def wkq_norm(v: GridFunction, k: int, q: float) -> float:
    """(sum_{|alpha|<=k} |d^alpha v|_q^q)^(1/q) with spectral derivatives."""
    return _wkq(_lp_norms(v, _derivatives(v.grid, k), [q]), v.grid.d, k, q)


def surrogate_negative_norm(u: GridFunction, k: int, p: float) -> float:
    """Computable stand-in |J_{-k} u|_{L^p} for the W^{-k,p} size of u."""
    if k == 0:  # J_0 is the identity
        return lp_norm(u, p)
    return lp_norm(bessel_potential(u.grid, -float(k)).apply(u), p)


def norm_table(grid: Grid, fields, k_list, p_list) -> list:
    """(lp, wkq, surrogate) per field f: p -> |f|_p, (k, q) -> wkq_norm(f, k, q)
    and (k, p) -> surrogate_negative_norm of the element d^{(k,0,...)} f, whose
    representation bound is |f|_p.  Each multiplier is built once, with
    J_{-k} d^{(k,0,...)} as one array, so a field takes
    1 + #{0 < |alpha| <= max k} + #{k > 0} transforms."""
    e1 = [(k,) + (0,) * (grid.d - 1) for k in range(max(k_list) + 1)]
    ops = _derivatives(grid, max(k_list))
    ops.update({k: bessel_potential(grid, -float(k)).m * ops[e1[k]]
                for k in set(k_list) if k > 0})
    return [(norms[e1[0]],
             {(k, p): _wkq(norms, grid.d, k, p) for k in k_list for p in p_list},
             {(k, p): norms[k or e1[0]][p] for k in k_list for p in p_list})
            for norms in (_lp_norms(f, ops, p_list) for f in fields)]


# ---------------------------------------------------------------------------
# weakly-null sequence generators

OSCILLATION = "oscillation"
CONCENTRATION = "concentration"


@dataclass(frozen=True)
class SequenceFamily:
    """Rule n -> u_n generating a weakly-null sequence.

    kinds
    -----
    oscillation   : u_n = (2 pi n |xi0| / L)^order a(x) exp(2 pi i n xi0.x / L);
                    order = +k keeps the W^{-k,p} surrogate norm O(1), order
                    = -k does the job for W^{k,q}.
    concentration : u_n = n^{d/p} a(n (x - x0)), sampled unperiodized.

    An extra n^{prefactor_power} factor (default 0) lets families decay or
    grow on top of the kind's own scaling.  direction defaults to e_1 of the
    grid.  The indices are distinct, and each is guarded at build; u(n) and
    spectral_shift(n) guard n.
    """

    grid: Grid
    kind: str
    p: float = 2.0
    indices: tuple = (8, 16, 32)
    direction: Optional[tuple] = None
    amplitude: Optional[GridFunction] = field(default=None, compare=False)
    amplitude_fn: Optional[Callable] = field(default=None, compare=False)
    order: int = 0
    prefactor_power: float = 0.0
    center: Optional[tuple] = None
    profile_width: float = 1.0

    def __post_init__(self):
        if self.kind not in (OSCILLATION, CONCENTRATION):
            raise ValueError(f"unknown family kind {self.kind!r}")
        if len(set(self.indices)) != len(self.indices):
            raise ValueError(f"family indices {list(self.indices)} repeat an index")
        if self.direction is None:
            object.__setattr__(self, "direction", (1,) + (0,) * (self.grid.d - 1))
        if self.kind == CONCENTRATION:
            if self.amplitude_fn is None:
                raise ValueError("concentration families need amplitude_fn")
        else:
            if self.amplitude is None:
                raise ValueError("oscillation families need a sampled amplitude")
            xi0 = np.asarray(self.direction)
            if len(xi0) != self.grid.d or not np.any(xi0):
                raise ValueError("direction must be a nonzero integer lattice vector")
        for n in self.indices:
            self.guard(n)

    def guard(self, n: int):
        """Refuse indices whose spectrum leaves the safe band."""
        g = self.grid
        if self.kind == CONCENTRATION:
            # dilated profile must stay resolved by the lattice: on a Gaussian
            # profile a sampled pairing is 4e-2 off at n h = w/2, 5e-9 at w/4
            if n * g.spacing > self.profile_width / 4.0:
                raise AliasingError(
                    f"concentration index n={n} unresolved on N={g.N}, L={g.L} "
                    f"(need n <= {self.profile_width / (4 * g.spacing):.1f})"
                )
            return
        reach = n * int(np.max(np.abs(self.direction)))
        if reach > g.N // 4:
            raise AliasingError(
                f"oscillation index n={n} pushes the spectrum to lattice row "
                f"{reach} > N/4 = {g.N // 4}; refine the grid or lower n"
            )

    def frequency_shift(self, n: int) -> float:
        """|n xi0| / L, the modulation frequency magnitude."""
        xi0 = np.asarray(self.direction, dtype=float)
        return float(n * np.linalg.norm(xi0) / self.grid.L)

    def _scale(self, n: int) -> float:
        """The scalar factor of u_n: s_n of an oscillation
        u_n = s_n a(x) exp(2 pi i n xi0.x / L), n^{prefactor_power} on top
        of a concentration's own n^{d/p}."""
        s = 1.0
        if self.kind == OSCILLATION and self.order != 0:
            s = (2 * np.pi * self.frequency_shift(n)) ** self.order
        if self.prefactor_power != 0.0:
            s = s * float(n) ** self.prefactor_power
        return s

    def spectral_shift(self, n: int) -> tuple:
        """(row, s_n) of an oscillation: for every field g,
        dft(g * u(n)) == s_n * np.roll(dft(g * amplitude), row, axis=all axes).

        Exact up to rounding: the modulation moves the spectrum by the
        integer lattice row n xi0, and the (-1)^m centring phase of dft
        cancels against the modulation's value at the -L/2 origin.
        """
        if self.kind == CONCENTRATION:
            raise ValueError("a concentration family has no spectral shift")
        self.guard(n)
        return tuple(n * int(c) for c in self.direction), self._scale(n)

    def u(self, n: int) -> GridFunction:
        self.guard(n)
        g = self.grid
        if self.kind == CONCENTRATION:
            x0 = np.zeros(g.d) if self.center is None else np.asarray(self.center)
            out = n ** (g.d / self.p) * g.sample(
                lambda *x: self.amplitude_fn(*[n * (c - c0) for c, c0 in zip(x, x0)]))
        else:
            vals = self.amplitude.values  # times a product of d 1-D waves
            for axis, c in enumerate(self.direction):
                if c:
                    wave = np.exp((2j * np.pi * n * c / g.L) * g.axis_x)
                    vals = vals * wave.reshape((-1,) + (1,) * (g.d - 1 - axis))
            out = GridFunction(g, vals)
        s = self._scale(n)
        return out if s == 1.0 else out * s


# ---------------------------------------------------------------------------
# convergence probes

def decay_table(ns, columns: dict, meta: dict) -> dict:
    """Per-index magnitudes (label -> one value per index) with the fitted
    decay of each column, as the artifacts hold them."""
    return {"ns": tuple(ns), "columns": columns, "meta": meta,
            "fits": {label: fit_decay(ns, vals) for label, vals in columns.items()}}


def strong_null_probe(ns, us, theta: GridFunction, k: int, p: float) -> dict:
    """Surrogate W^{-k,p} norms of theta * u_n, u_n = us[i] at n = ns[i],
    as a decay table; strongly_null reads the fitted trend."""
    norms = [surrogate_negative_norm(theta * u, k, p) for u in us]
    meta = {
        "monotone_nonincreasing": all(b <= a * (1 + 1e-12)
                                      for a, b in zip(norms, norms[1:])),
        "ratio_last_first": (norms[-1] / norms[0]) if norms[0] > 0 else 0.0,
    }
    table = decay_table(ns, {"surrogate_norm": norms}, meta)
    fit = table["fits"]["surrogate_norm"]
    meta["strongly_null"] = fit["all_below_threshold"] or (
        fit["exponent"] is not None and fit["exponent"] < -MIN_DECAY_RATE)
    return table
