"""Localization experiment for first-order transport constraints.

Sequences u_n built to satisfy sum_i d_i(A_i u_n) = f_n exactly on the grid,
with f_n small in the one-order-weaker surrogate norm exactly when the
coefficients are characteristic on the amplitude's support (A(x).xi0 = 0
there).  The defect pairings weighted by A_j and composed with the Riesz
symbols must then vanish in the limit, while a non-characteristic control
keeps them at baseline size.

Every operator involved (A_psi, R_j, I_1, J_s, d_j) is a Fourier multiplier,
and the modulation of u_n only rolls spectra along the lattice, so every
number of the verdict comes from one pass that transforms each product field
once, reads it at every index as a roll, and applies every operator as a
lattice product on those spectra.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fitting import LimitFit, fit_decay, fit_limit
from .grid import Grid, GridFunction, conj_sum, dft, idft, lp_norm, pairing
from .multiplier import bessel_potential, from_symbol, riesz, riesz_potential
from .registry import make_field
from .sobolev import SequenceFamily, decay_table, wkq_norm
from .symbol import SphericalSymbol


# a characteristic instance passes when |char limit| / |baseline limit| is at
# most this
TOL_CHAR = 0.05
# the I_1 chain holds when each residual |lhs - rhs| / (1 + |lhs|) is at most this
TOL_CHAIN = 1e-8


@dataclass(frozen=True)
class TransportInstance:
    """One configured transport experiment.  The family u_n, an oscillation
    of order +k, holds the grid, amplitude, direction, k (as its order) and
    indices; its dual companion v_n (order -k) is (2 pi n |xi0| / L)^{-2k} u_n,
    so it has no family of its own."""

    coefficients: tuple            # d GridFunctions A_1 .. A_d
    p: float
    q: float
    characteristic: bool
    family: SequenceFamily

    def v(self, n: int, u):
        """v_n from u = u_n, or dft(g v_n) from u = dft(g u_n): a scalar
        multiple, and u itself when k = 0, where the factor is exactly 1.0."""
        k = self.family.order
        return u if k == 0 else u * (2 * np.pi * self.family.frequency_shift(n)) ** (-2 * k)

    def characteristic_defect(self) -> float:
        """Amplitude-weighted size of A(x).xi0 / |xi0|: sup |(A.xi0) a| / sup |a|."""
        xi0 = np.asarray(self.family.direction, dtype=float)
        xi0 = xi0 / np.linalg.norm(xi0)
        dot = sum(float(c) * a.values for c, a in zip(xi0, self.coefficients))
        amplitude = self.family.amplitude.values
        sup_a = float(np.max(np.abs(amplitude)))
        if sup_a == 0:
            return 0.0
        return float(np.max(np.abs(dot * amplitude))) / sup_a


def build_instance(grid: Grid, coefficient_specs, amplitude_spec, direction,
                   indices, characteristic, k=0, p=2.0, q=2.0,
                   cutoff=None) -> TransportInstance:
    """Assemble a transport instance from registry specs.

    For a characteristic instance every coefficient whose direction component
    is nonzero is multiplied by the shell cutoff (registry params `cutoff`),
    which vanishes on the amplitude's support and so makes A(x).xi0 = 0
    there by construction.  The family guards every index when it is built.
    """
    if grid.d != 3:
        raise ValueError("transport experiment runs on d = 3 grids only")
    if len(coefficient_specs) != grid.d:
        raise ValueError(f"need {grid.d} coefficients, got {len(coefficient_specs)}")
    if not (1.0 < q < grid.d):
        raise ValueError(f"need 1 < q < d; got q={q}, d={grid.d}")
    family = SequenceFamily(grid, make_field(grid, amplitude_spec), order=k,
                            indices=tuple(indices), direction=direction)
    cutoff = make_field(grid, {"name": "shell_cutoff", "params": cutoff or {}})
    coeffs = []
    for axis, spec in enumerate(coefficient_specs):
        a_i = make_field(grid, spec)
        if characteristic and family.direction[axis] != 0:
            a_i = a_i * cutoff
        coeffs.append(a_i)
    return TransportInstance(tuple(coeffs), p, q, characteristic, family)


def _index_pass(instance: TransportInstance, phi1: GridFunction,
                phi2: GridFunction, psi: SphericalSymbol, ns=None) -> list:
    """Per-index values for each n: the single pass behind the verdict and
    the chain check.

    With t = A_conj(psi)(phi2 v_n) and w = I_1 t: "baseline" is
    <A_psi(phi1 u_n), phi2 v_n>; the chain compares the Riesz route
    sum_j <A_j phi1 u_n, -R_j t> ("weighted") with the I_1 route
    -<f_n, conj(phi1) w> - <u_n G, w>, where f_n = sum_j d_j(A_j u_n) and
    G = sum_j A_j conj(d_j conj(phi1)) turns sum_j <u_n A_j, d_j(conj phi1) w>
    into <u_n G, w>; "rhs_norm" is |J_{-k-1}(phi1 f_n)|_p and "wkq_norm" is
    |phi1 w|_{W^{k,q}}.

    Each product field (phi2 a, phi1 a, A_j phi1 a, A_j a) is transformed
    once, and `spectra` reads it at every index by the family's spectral
    shift; pairings against a spectrum go by Parseval,
    <f, g> = sum fhat conj(ghat) / L^d.  That is 3d + 3 transforms per pass
    (G takes d + 1) and 4 per index when k = 0: w, f_n and the J_{-k-1}
    round trip.  Real coefficients, test functions and amplitude make the
    2d + 3 fields transformed once per pass real, so those transforms run
    real-to-complex; phi1 f_n (and phi1 w when k > 0) are complex.  At
    k = 0, s_n and the v_n factor are exactly 1.0 and are not multiplied.
    The stages hold one product spectrum at a time with the indices inside,
    build each multiplier where it is used, and drop each index's t_hat, w
    and f_hat after their last use.
    """
    fam = instance.family
    grid = fam.grid
    ns = tuple(fam.indices if ns is None else ns)
    shifts = [fam.spectral_shift(n) for n in ns]
    axes = tuple(range(grid.d))
    volume = grid.L ** grid.d
    grad = [2j * np.pi * xi for xi in grid.xi_axes]  # d_j, broadcast from 1-D

    def spectra(g):
        g_hat = dft(g * fam.amplitude)
        for row, s in shifts:
            out = np.roll(g_hat, row, axis=axes)
            if s != 1.0:
                out *= s
            yield out

    psi_bar = np.conj(from_symbol(grid, psi).m)
    t_hat = [psi_bar * instance.v(n, b) for n, b in zip(ns, spectra(phi2))]
    del psi_bar
    baseline = [complex(conj_sum(b, t) / volume) for t, b in zip(t_hat, spectra(phi1))]
    weighted = [0j] * len(ns)
    for j, a_j in enumerate(instance.coefficients):
        r_j = riesz(grid, j).m
        for i, b in enumerate(spectra(a_j * phi1)):
            weighted[i] -= complex(conj_sum(b, r_j * t_hat[i]) / volume)
        del r_j

    phi1_bar_hat = dft(phi1.conj())
    weight = sum(a_j.values * np.conj(idft(grid, d_j * phi1_bar_hat).values)
                 for d_j, a_j in zip(grad, instance.coefficients))
    del phi1_bar_hat
    potential = riesz_potential(grid).m
    w, wkq, rhs = [], [], []
    for i, n in enumerate(ns):
        w.append(idft(grid, potential * t_hat[i]))
        t_hat[i] = None
        wkq.append(wkq_norm(phi1 * w[i], fam.order, instance.q))
        rhs.append(-pairing(fam.u(n) * weight, w[i]))
    del potential, weight

    f_hat = [0.0] * len(ns)
    for d_j, a_j in zip(grad, instance.coefficients):
        for i, b in enumerate(spectra(a_j)):
            f_hat[i] = f_hat[i] + d_j * b

    smooth = bessel_potential(grid, -float(fam.order + 1))
    rows = []
    for i, n in enumerate(ns):
        f = idft(grid, f_hat[i])
        f_hat[i] = None
        rhs[i] -= pairing(f, phi1.conj() * w[i])
        w[i] = None
        lhs = weighted[i]
        rows.append({
            "n": int(n), "baseline": baseline[i], "weighted": lhs,
            "chain": {"n": int(n), "lhs": lhs, "rhs": rhs[i],
                      "residual": float(abs(lhs - rhs[i]) / (1.0 + abs(lhs)))},
            "rhs_norm": lp_norm(smooth.apply(phi1 * f), instance.p),
            "wkq_norm": wkq[i]})
    return rows


def _limit(rows, key: str) -> LimitFit:
    return fit_limit([r["n"] for r in rows], [r[key] for r in rows])


def i1_chain_check(instance: TransportInstance, phi1: GridFunction,
                   phi2: GridFunction, psi: SphericalSymbol, n: int) -> dict:
    """Integration-by-parts decomposition of the weighted pairing at one n.

    Checks that the Riesz-composed sum equals
        -<f_n, conj(phi1) w> - sum_j <u_n A_j, d_j(conj(phi1)) w>,
    with w the potential of A_conj(psi)(phi2 v_n); spectral integration by
    parts makes this exact up to rounding.
    """
    return _index_pass(instance, phi1, phi2, psi, (n,))[0]["chain"]


def localization_verdict(instance: TransportInstance, phi1: GridFunction,
                         phi2: GridFunction, psi: SphericalSymbol) -> dict:
    """Full experiment summary for one instance, from one pass over n.

    The ratio is null when the baseline limit is 0; passes_tol_char is null
    then and for a control instance.
    """
    rows = _index_pass(instance, phi1, phi2, psi)
    base, char = _limit(rows, "baseline"), _limit(rows, "weighted")
    defect = instance.characteristic_defect()
    ns = [r["n"] for r in rows]
    rhs = decay_table(ns, {"rhs_norm": [r["rhs_norm"] for r in rows]}, {
        "characteristic": instance.characteristic,
        "characteristic_defect": defect})
    ratio = abs(char.value) / abs(base.value) if abs(base.value) > 0 else None
    check = instance.characteristic and ratio is not None
    return {
        "characteristic_flag": bool(instance.characteristic),
        "characteristic_defect": defect,
        "baseline": base.to_dict(),
        "char_pairing": char.to_dict(),
        "ratio": ratio,
        "passes_tol_char": bool(ratio <= TOL_CHAR) if check else None,
        "rates": {
            "rhs_exponent": rhs["fits"]["rhs_norm"]["exponent"],
            "rellich_exponent": fit_decay(ns, [r["wkq_norm"] for r in rows])["exponent"],
        },
        "rhs_table": rhs,
        "i1_chain_residuals": [r["chain"]["residual"] for r in rows],
        "i1_zero_mode": "constant frequency mode mapped to 0 (torus surrogate)",
    }
