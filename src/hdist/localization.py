"""Localization experiment for first-order transport constraints.

Sequences u_n built to satisfy sum_i d_i(A_i u_n) = f_n exactly on the grid,
with f_n small in the one-order-weaker surrogate norm exactly when the
coefficients are characteristic on the amplitude's support (A(x).xi0 = 0
there).  The defect pairings weighted by A_j and composed with the Riesz
symbols must then vanish in the limit, while a non-characteristic control
keeps them at baseline size.

Every operator involved (A_psi, R_j, I_1, J_s, d_j) is a Fourier multiplier,
so every number of the verdict comes from one pass over the indices that
transforms each field once and applies every operator as a lattice product
on those spectra.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fitting import LimitFit, fit_decay, fit_limit
from .grid import FREQUENCY, Grid, GridFunction, dft, idft, lp_norm, pairing
from .multiplier import (bessel_potential, derivative_op, from_symbol, riesz,
                         riesz_potential)
from .registry import make_field
from .sobolev import SCALED_OSCILLATION, SequenceFamily, decay_table, wkq_norm
from .symbol import SphericalSymbol


# a characteristic instance passes when |char limit| / |baseline limit| is at
# most this
TOL_CHAR = 0.05


def _unit(d: int, axis: int) -> tuple:
    return tuple(1 if i == axis else 0 for i in range(d))


@dataclass(frozen=True)
class TransportInstance:
    """One configured transport experiment.  The family u_n (order +k) holds
    the grid, amplitude, direction, k and indices; its dual companion v_n
    (order -k) is (2 pi n |xi0| / L)^{-2k} u_n, so it has no family of its
    own."""

    coefficients: tuple            # d GridFunctions A_1 .. A_d
    p: float
    q: float
    characteristic: bool
    family: SequenceFamily

    def v(self, n: int, u: GridFunction) -> GridFunction:
        """v_n from u = u_n; the factor is exactly 1.0 when k = 0."""
        return u * (2 * np.pi * self.family.frequency_shift(n)) ** (-2 * self.family.k)

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
    there by construction.  The family is guarded at every index.
    """
    if grid.d != 3:
        raise ValueError("transport experiment runs on d = 3 grids only")
    if len(coefficient_specs) != grid.d:
        raise ValueError(f"need {grid.d} coefficients, got {len(coefficient_specs)}")
    if not (1.0 < q < grid.d):
        raise ValueError(f"need 1 < q < d; got q={q}, d={grid.d}")
    family = SequenceFamily(
        grid, SCALED_OSCILLATION, k=k, indices=tuple(indices),
        direction=tuple(int(c) for c in direction),
        amplitude=make_field(grid, amplitude_spec))
    cutoff = make_field(grid, {"name": "shell_cutoff", "params": cutoff or {}})
    coeffs = []
    for axis, spec in enumerate(coefficient_specs):
        a_i = make_field(grid, spec)
        if characteristic and family.direction[axis] != 0:
            a_i = a_i * cutoff
        coeffs.append(a_i)
    for n in family.indices:
        family.guard(n)
    return TransportInstance(tuple(coeffs), p, q, characteristic, family)


def _source(instance: TransportInstance, u: GridFunction, grad: list) -> GridFunction:
    """f_n = sum_i d_i(A_i u_n) for u = u_n, summed on the frequency side and
    inverted once."""
    f_hat = sum(d_j.m * dft(a_j * u).values
                for d_j, a_j in zip(grad, instance.coefficients))
    return idft(GridFunction(u.grid, f_hat, FREQUENCY))


def _index_values(instance: TransportInstance, phi1: GridFunction,
                  phi2: GridFunction, ops: dict, weight: GridFunction,
                  n: int) -> dict:
    """What the verdict reads at one index; 2d + 7 transforms when k = 0.

    With t = A_conj(psi)(phi2 v_n) and w = I_1 t: "baseline" is form A of
    <A_psi(phi1 u_n), phi2 v_n>; the chain compares the Riesz route
    sum_j <A_j phi1 u_n, -R_j t> ("weighted") with the I_1 route
    -<f_n, conj(phi1) w> - <u_n G, w>; "rhs_norm" is |J_{-k-1}(phi1 f_n)|_p
    and "wkq_norm" is |phi1 w|_{W^{k,q}}.  A function of its own so that each
    index's fields are freed on return.  The pass holds 2d + 4 lattice
    arrays, so each field is dropped after its last use and f_n is formed
    last: at most two fields are alive beside the transform temporaries.
    """
    u = instance.family.u(n)
    b = phi2 * instance.v(n, u)
    baseline = pairing(idft(ops["psi"].apply(dft(phi1 * u))), b)
    t_hat = ops["psi"].adjoint().apply(dft(b))
    del b
    lhs = sum(
        pairing(a_j * phi1 * u, idft(r_j.apply(t_hat) * (-1.0)))
        for r_j, a_j in zip(ops["riesz"], instance.coefficients))
    w = idft(ops["potential"].apply(t_hat))
    del t_hat
    wkq = wkq_norm(phi1 * w, instance.family.k, instance.q)
    f = _source(instance, u, ops["grad"])
    rhs = -(pairing(f, phi1.conj() * w) + pairing(u * weight, w))
    del u, w
    rhs_norm = lp_norm(ops["smooth"].apply(phi1 * f), instance.p)
    return {"n": int(n), "baseline": complex(baseline), "weighted": complex(lhs),
            "chain": {"n": int(n), "lhs": complex(lhs), "rhs": complex(rhs),
                      "residual": float(abs(lhs - rhs) / (1.0 + abs(lhs)))},
            "rhs_norm": rhs_norm, "wkq_norm": wkq}


def _index_pass(instance: TransportInstance, phi1: GridFunction,
                phi2: GridFunction, psi: SphericalSymbol, ns=None) -> list:
    """Per-index values for each n: the single pass behind the verdict and
    the chain check.

    The multipliers (A_psi, d_j, R_j, I_1, J_{-k-1}) and G are built once
    per pass; G turns sum_j <u_n A_j, d_j(conj phi1) w> into <u_n G, w>.
    """
    grid = instance.family.grid
    ops = {"psi": from_symbol(grid, psi),
           "grad": [derivative_op(grid, _unit(grid.d, j)) for j in range(grid.d)],
           "riesz": [riesz(grid, j) for j in range(grid.d)],
           "potential": riesz_potential(grid),
           "smooth": bessel_potential(grid, -float(instance.family.k + 1))}
    phi1_bar_hat = dft(phi1.conj())
    d_phi1_bar = (idft(d_j.apply(phi1_bar_hat)) for d_j in ops["grad"])
    weight = GridFunction(grid, sum(a_j.values * np.conj(d.values) for a_j, d
                                    in zip(instance.coefficients, d_phi1_bar)))
    del phi1_bar_hat
    return [_index_values(instance, phi1, phi2, ops, weight, n)
            for n in (instance.family.indices if ns is None else ns)]


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
