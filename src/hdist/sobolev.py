"""Sobolev norms, negative-order representations, and weakly-null families.

Negative-order elements are formal sums u = sum_{|alpha|<=k} d^alpha F_alpha
of grid functions, evaluated spectrally.  Since the representation infimum
norm is not computable, all convergence claims use the equivalent smoothing
surrogate |J_{-k} u|_{L^p}; the representation sum is kept as an upper-bound
cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .fitting import fit_decay
from .grid import (FREQUENCY, Grid, GridFunction, dft, idft, lp_norm,
                   magnitude_lp_norm)
from .multiplier import bessel_potential, derivative, derivative_op
from .util import AliasingError, multi_indices


@dataclass(frozen=True)
class SobolevElement:
    """Element sum_alpha d^alpha F_alpha of W^{-k,p}, |alpha| <= k."""

    k: int
    p: float
    parts: dict  # multi-index tuple -> GridFunction

    @classmethod
    def negative(cls, parts: dict, k: int, p: float):
        parts = {tuple(a): f for a, f in parts.items()}
        for alpha in parts:
            if sum(alpha) > k:
                raise ValueError(f"part index {alpha} exceeds order k={k}")
        return cls(k=k, p=p, parts=parts)

    def evaluate(self) -> GridFunction:
        """The element as a grid function (spectral derivatives of the parts)."""
        total = None
        for alpha, f in sorted(self.parts.items()):
            term = derivative(f, alpha)
            total = term if total is None else total + term
        return total


def _derivatives(grid: Grid, k: int) -> dict:
    """alpha -> the lattice array (2 pi i xi)^alpha, for 0 < |alpha| <= k."""
    return {a: derivative_op(grid, a).m for a in multi_indices(grid.d, k) if any(a)}


def _lp_norms(f: GridFunction, ops: dict, p_list) -> dict:
    """key -> p -> |idft(ops[key] f_hat)|_p, and |f|_p under alpha = 0: one
    forward transform, one inverse per multiplier, one magnitude for all p."""
    f_hat = dft(f).values if ops else None
    norms = {}
    for key, m in [((0,) * f.grid.d, None), *ops.items()]:
        g = f if m is None else idft(GridFunction(f.grid, m * f_hat, FREQUENCY))
        mag = np.abs(g.values)
        norms[key] = {p: magnitude_lp_norm(f.grid, mag, p) for p in p_list}
    return norms


def _wkq(norms: dict, d: int, k: int, q: float) -> float:
    """The W^{k,q} norm from alpha -> q -> |d^alpha v|_q."""
    return float(sum(norms[alpha][q] ** q for alpha in multi_indices(d, k)) ** (1.0 / q))


def wkq_norm(v: GridFunction, k: int, q: float) -> float:
    """(sum_{|alpha|<=k} |d^alpha v|_q^q)^(1/q) with spectral derivatives."""
    if isinstance(v, SobolevElement):
        raise ValueError("wkq_norm expects a grid function, not a W^{-k,p} element")
    return _wkq(_lp_norms(v, _derivatives(v.grid, k), [q]), v.grid.d, k, q)


def surrogate_negative_norm(u, k: int, p: float) -> float:
    """Computable stand-in |J_{-k} u|_{L^p} for the W^{-k,p} size of u."""
    g = u.evaluate() if isinstance(u, SobolevElement) else u
    if k == 0:  # J_0 is the identity
        return lp_norm(g, p)
    return lp_norm(bessel_potential(g.grid, -float(k)).apply(g), p)


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


def representation_norm_upper(u: SobolevElement) -> float:
    """(sum_alpha |F_alpha|_p^p)^(1/p): the size of one explicit
    representation, an upper bound for the infimum over all of them."""
    p = u.p
    return float(sum(lp_norm(f, p) ** p for f in u.parts.values()) ** (1.0 / p))


# ---------------------------------------------------------------------------
# weakly-null sequence generators

OSCILLATION = "oscillation"
SCALED_OSCILLATION = "scaled_oscillation"
CONCENTRATION = "concentration"


@dataclass(frozen=True)
class SequenceFamily:
    """Rule n -> u_n generating a weakly-null sequence.

    kinds
    -----
    oscillation        : u_n = a(x) exp(2 pi i n xi0.x / L)
    scaled_oscillation : the same times (2 pi n |xi0| / L)^order; order = +k
                         keeps the W^{-k,p} surrogate norm O(1), order = -k
                         does the job for W^{k,q}.
    concentration      : u_n = n^{d/p} a(n (x - x0)), sampled unperiodized.

    An extra n^{prefactor_power} factor (default 0) lets families decay or
    grow on top of the kind's own scaling.  direction defaults to e_1 of the
    grid, and order to k for a scaled oscillation (unused otherwise).
    """

    grid: Grid
    kind: str
    k: int = 0
    p: float = 2.0
    indices: tuple = (8, 16, 32)
    direction: Optional[tuple] = None
    amplitude: Optional[GridFunction] = field(default=None, compare=False)
    amplitude_fn: Optional[Callable] = field(default=None, compare=False)
    order: Optional[int] = None
    prefactor_power: float = 0.0
    center: Optional[tuple] = None
    profile_width: float = 1.0

    def __post_init__(self):
        if self.kind not in (OSCILLATION, SCALED_OSCILLATION, CONCENTRATION):
            raise ValueError(f"unknown family kind {self.kind!r}")
        if self.direction is None:
            object.__setattr__(self, "direction", (1,) + (0,) * (self.grid.d - 1))
        if self.order is None:
            object.__setattr__(
                self, "order", self.k if self.kind == SCALED_OSCILLATION else 0)
        if self.kind == CONCENTRATION:
            if self.amplitude_fn is None:
                raise ValueError("concentration families need amplitude_fn")
        else:
            if self.amplitude is None:
                raise ValueError("oscillation families need a sampled amplitude")
            xi0 = np.asarray(self.direction)
            if len(xi0) != self.grid.d or not np.any(xi0):
                raise ValueError("direction must be a nonzero integer lattice vector")

    def guard(self, n: int):
        """Refuse indices whose spectrum leaves the safe band."""
        g = self.grid
        if self.kind == CONCENTRATION:
            # dilated profile must stay resolved by the lattice
            if n * g.spacing > self.profile_width / 2.0:
                raise AliasingError(
                    f"concentration index n={n} unresolved on N={g.N}, L={g.L} "
                    f"(need n <= {self.profile_width / (2 * g.spacing):.1f})"
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

    def u(self, n: int) -> GridFunction:
        self.guard(n)
        g = self.grid
        if self.kind == CONCENTRATION:
            x0 = np.zeros(g.d) if self.center is None else np.asarray(self.center)
            coords = g.meshgrid_x()
            vals = n ** (g.d / self.p) * np.asarray(
                self.amplitude_fn(*[n * (c - c0) for c, c0 in zip(coords, x0)]),
                dtype=complex,
            )
            out = GridFunction(g, vals, "physical")
        else:
            vals = self.amplitude.values  # times a product of d 1-D waves
            for axis, c in enumerate(self.direction):
                if c:
                    wave = np.exp((2j * np.pi * n * c / g.L) * g.axis_x)
                    vals = vals * wave.reshape((-1,) + (1,) * (g.d - 1 - axis))
            out = GridFunction(g, vals, "physical")
            if self.kind == SCALED_OSCILLATION and self.order != 0:
                out = out * (2 * np.pi * self.frequency_shift(n)) ** self.order
        if self.prefactor_power != 0.0:
            out = out * float(n) ** self.prefactor_power
        return out


def oscillation_family(grid, amplitude, direction, indices, **kw):
    return SequenceFamily(grid, OSCILLATION, indices=indices,
                          direction=direction, amplitude=amplitude, **kw)


def scaled_oscillation_family(grid, amplitude, direction, indices, k, **kw):
    return SequenceFamily(grid, SCALED_OSCILLATION, k=k, indices=indices,
                          direction=direction, amplitude=amplitude, **kw)


# ---------------------------------------------------------------------------
# convergence probes

def decay_table(ns, columns: dict, meta: dict) -> dict:
    """Per-index magnitudes (label -> one value per index) with the fitted
    decay of each column, as the artifacts hold them."""
    fits = {label: fit_decay(ns, vals) for label, vals in columns.items()}
    return {"ns": tuple(ns), "columns": columns, "meta": meta,
            "fits": {label: {"exponent": f.exponent,
                             "all_below_threshold": f.all_below_threshold,
                             "n_used": f.n_used} for label, f in fits.items()}}


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
        fit["exponent"] is not None and fit["exponent"] < -0.25)
    return table
