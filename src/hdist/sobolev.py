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
from .grid import Grid, GridFunction, lp_norm, pairing
from .multiplier import bessel_potential, derivative
from .util import AliasingError, multi_indices, ordered_map

POSITIVE = "positive-order"
NEGATIVE = "negative-order"


@dataclass(frozen=True)
class SobolevElement:
    """Element of W^{k,q} (single function) or W^{-k,p} (derivative parts)."""

    k: int
    p: float
    sign: str
    function: Optional[GridFunction] = None
    parts: Optional[dict] = None  # multi-index tuple -> GridFunction

    @classmethod
    def positive(cls, f: GridFunction, k: int, q: float):
        return cls(k=k, p=q, sign=POSITIVE, function=f)

    @classmethod
    def negative(cls, parts: dict, k: int, p: float):
        parts = {tuple(a): f for a, f in parts.items()}
        for alpha in parts:
            if sum(alpha) > k:
                raise ValueError(f"part index {alpha} exceeds order k={k}")
        return cls(k=k, p=p, sign=NEGATIVE, parts=parts)

    @property
    def grid(self) -> Grid:
        if self.sign == POSITIVE:
            return self.function.grid
        return next(iter(self.parts.values())).grid

    def evaluate(self) -> GridFunction:
        """The element as a grid function (spectral derivatives of the parts)."""
        if self.sign == POSITIVE:
            return self.function
        total = None
        for alpha, f in sorted(self.parts.items()):
            term = derivative(f, alpha)
            total = term if total is None else total + term
        return total


def wkq_norm(v, k: int, q: float) -> float:
    """(sum_{|alpha|<=k} |d^alpha v|_q^q)^(1/q) with spectral derivatives."""
    if isinstance(v, SobolevElement):
        if v.sign != POSITIVE:
            raise ValueError("wkq_norm expects a positive-order element")
        v = v.function
    total = 0.0
    for alpha in multi_indices(v.grid.d, k):
        total += lp_norm(derivative(v, alpha), q) ** q
    return float(total ** (1.0 / q))


def surrogate_negative_norm(u, k: int, p: float) -> float:
    """Computable stand-in |J_{-k} u|_{L^p} for the W^{-k,p} size of u."""
    g = u.evaluate() if isinstance(u, SobolevElement) else u
    return lp_norm(bessel_potential(g.grid, -float(k)).apply(g), p)


def representation_norm_upper(u, p: float = None) -> float:
    """(sum_alpha |F_alpha|_p^p)^(1/p): the size of one explicit
    representation, an upper bound for the infimum over all of them."""
    if isinstance(u, SobolevElement):
        if u.sign != NEGATIVE:
            raise ValueError("needs a negative-order element with parts")
        parts, p = u.parts, u.p if p is None else p
    else:
        parts = {tuple(a): f for a, f in u.items()}
        if p is None:
            raise ValueError("exponent p required with a bare parts dict")
    return float(sum(lp_norm(f, p) ** p for f in parts.values()) ** (1.0 / p))


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
    grow on top of the kind's own scaling.
    """

    grid: Grid
    kind: str
    k: int = 0
    p: float = 2.0
    indices: tuple = (8, 16, 32)
    direction: tuple = (1, 0)
    amplitude: Optional[GridFunction] = field(default=None, compare=False)
    amplitude_fn: Optional[Callable] = field(default=None, compare=False)
    order: int = 0
    prefactor_power: float = 0.0
    center: Optional[tuple] = None
    profile_width: float = 1.0
    label: str = "family"

    def __post_init__(self):
        if self.kind not in (OSCILLATION, SCALED_OSCILLATION, CONCENTRATION):
            raise ValueError(f"unknown family kind {self.kind!r}")
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
            xi0 = np.asarray(self.direction, dtype=float)
            coords = g.meshgrid_x()
            phase = sum(c * x for c, x in zip(coords, xi0)) * (2j * np.pi * n / g.L)
            out = GridFunction(g, self.amplitude.values * np.exp(phase), "physical")
            if self.kind == SCALED_OSCILLATION and self.order != 0:
                out = out * (2 * np.pi * self.frequency_shift(n)) ** self.order
        if self.prefactor_power != 0.0:
            out = out * float(n) ** self.prefactor_power
        return out


def oscillation_family(grid, amplitude, direction, indices, k=0, p=2.0, **kw):
    return SequenceFamily(grid, OSCILLATION, k=k, p=p, indices=tuple(indices),
                          direction=tuple(direction), amplitude=amplitude, **kw)


def scaled_oscillation_family(grid, amplitude, direction, indices, k, p=2.0,
                              order=None, **kw):
    order = k if order is None else order
    return SequenceFamily(grid, SCALED_OSCILLATION, k=k, p=p,
                          indices=tuple(indices), direction=tuple(direction),
                          amplitude=amplitude, order=order, **kw)


def concentration_family(grid, amplitude_fn, indices, k=0, p=2.0, center=None,
                         profile_width=1.0, **kw):
    return SequenceFamily(grid, CONCENTRATION, k=k, p=p, indices=tuple(indices),
                          direction=(1,) + (0,) * (grid.d - 1),
                          amplitude_fn=amplitude_fn, center=center,
                          profile_width=profile_width, **kw)


# ---------------------------------------------------------------------------
# convergence probes

@dataclass(frozen=True)
class DecayTable:
    """Per-index magnitudes for one or more probes, with fitted rates."""

    ns: tuple
    columns: dict           # label -> list of float magnitudes
    fits: dict              # label -> DecayFit
    meta: dict

    def to_dict(self):
        return {
            "ns": list(self.ns),
            "columns": {k: list(v) for k, v in self.columns.items()},
            "fits": {
                k: {
                    "exponent": f.exponent,
                    "all_below_threshold": f.all_below_threshold,
                    "n_used": f.n_used,
                }
                for k, f in self.fits.items()
            },
            "meta": dict(self.meta),
        }


def weak_null_probe(family: SequenceFamily, tests, threshold=1e-10) -> DecayTable:
    """Decay of |<u_n, phi>| over a battery of fixed test functions.

    The family counts as weakly null when every fitted exponent is below
    -0.5 or the pairings are uniformly below `threshold`.
    """
    tests = list(tests)
    if not tests:
        raise ValueError("need a nonempty test battery")
    ns = tuple(family.indices)
    us = ordered_map(family.u, ns)
    columns, fits = {}, {}
    for i, phi in enumerate(tests):
        label = f"test_{i}"
        vals = [abs(pairing(u, phi)) for u in us]
        columns[label] = vals
        fits[label] = fit_decay(ns, vals, threshold=threshold)
    weakly_null = all(
        f.all_below_threshold or (f.exponent is not None and f.exponent < -0.5)
        for f in fits.values()
    )
    return DecayTable(ns, columns, fits, {"weakly_null": weakly_null})


def strong_null_probe(family: SequenceFamily, theta: GridFunction, k: int,
                      p: float) -> DecayTable:
    """Surrogate W^{-k,p} norms of theta * u_n with a fitted trend."""
    ns = tuple(family.indices)
    norms = [
        surrogate_negative_norm(theta * u, k, p)
        for u in ordered_map(family.u, ns)
    ]
    fit = fit_decay(ns, norms)
    monotone = all(b <= a * (1 + 1e-12) for a, b in zip(norms, norms[1:]))
    meta = {
        "monotone_nonincreasing": monotone,
        "ratio_last_first": (norms[-1] / norms[0]) if norms[0] > 0 else 0.0,
        "strongly_null": fit.is_decaying(cutoff=-0.25),
    }
    return DecayTable(ns, {"surrogate_norm": norms}, {"surrogate_norm": fit}, meta)
