"""Localization experiment for first-order transport constraints.

Sequences u_n built to satisfy sum_i d_i(A_i u_n) = f_n exactly on the grid,
with f_n small in the one-order-weaker surrogate norm exactly when the
coefficients are characteristic on the amplitude's support (A(x).xi0 = 0
there).  The defect pairings weighted by A_j and composed with the Riesz
symbols must then vanish in the limit, while a non-characteristic control
keeps them at baseline size.

Every operator involved (A_psi, R_j, I_1, J_s, d_j) is a Fourier multiplier,
so all probes share one pass over the indices that transforms each field once
and applies every operator as a lattice product on those spectra.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fitting import fit_decay, fit_limit
from .functional import HLimitEstimate
from .grid import FREQUENCY, Grid, GridFunction, dft, idft, pairing
from .multiplier import (derivative, derivative_op, from_symbol, riesz,
                         riesz_potential)
from .registry import make_field
from .sobolev import (DecayTable, SequenceFamily, scaled_oscillation_family,
                      surrogate_negative_norm, wkq_norm)
from .symbol import SphericalSymbol


def _unit(d: int, axis: int) -> tuple:
    return tuple(1 if i == axis else 0 for i in range(d))


@dataclass(frozen=True)
class TransportInstance:
    """One configured transport experiment."""

    grid: Grid
    coefficients: tuple            # d GridFunctions A_1 .. A_d
    amplitude: GridFunction = field(compare=False)
    direction: tuple = (1, 0, 0)
    k: int = 0
    p: float = 2.0
    q: float = 2.0
    indices: tuple = (4, 8, 16)
    characteristic: bool = True
    u_family: SequenceFamily = None

    def f(self, n: int) -> GridFunction:
        """Right-hand side sum_i d_i(A_i u_n), computed spectrally."""
        u = self.u_family.u(n)
        total = None
        for axis, a_i in enumerate(self.coefficients):
            term = derivative(a_i * u, _unit(self.grid.d, axis))
            total = term if total is None else total + term
        return total

    def characteristic_defect(self) -> float:
        """Amplitude-weighted size of A(x).xi0 / |xi0|: sup |(A.xi0) a| / sup |a|."""
        xi0 = np.asarray(self.direction, dtype=float)
        xi0 = xi0 / np.linalg.norm(xi0)
        dot = sum(float(c) * a.values for c, a in zip(xi0, self.coefficients))
        sup_a = float(np.max(np.abs(self.amplitude.values)))
        if sup_a == 0:
            return 0.0
        return float(np.max(np.abs(dot * self.amplitude.values))) / sup_a


def build_instance(grid: Grid, coefficient_specs, amplitude_spec, direction,
                   k=0, p=2.0, q=2.0, indices=(4, 8, 16), characteristic=True,
                   cutoff_inner=2.0, cutoff_outer=3.0) -> TransportInstance:
    """Assemble a transport instance from registry specs.

    For a characteristic instance every coefficient whose direction component
    is nonzero is multiplied by a smooth shell cutoff vanishing on the
    amplitude's support, which makes A(x).xi0 = 0 there by construction.
    """
    if grid.d != 3:
        raise ValueError("transport experiment runs on d = 3 grids only")
    if not (1.0 < q < grid.d):
        raise ValueError(f"need 1 < q < d; got q={q}, d={grid.d}")
    direction = tuple(int(c) for c in direction)
    if len(direction) != grid.d or not any(direction):
        raise ValueError("direction must be a nonzero integer lattice vector")
    amplitude = make_field(grid, amplitude_spec)
    cutoff = make_field(grid, {
        "name": "shell_cutoff",
        "params": {"r_inner": cutoff_inner, "r_outer": cutoff_outer},
    })
    coeffs = []
    for axis, spec in enumerate(coefficient_specs):
        a_i = make_field(grid, spec)
        if characteristic and direction[axis] != 0:
            a_i = a_i * cutoff
        coeffs.append(a_i)
    u_family = scaled_oscillation_family(
        grid, amplitude, direction, indices, k=k, p=p, label="transport-u"
    )
    return TransportInstance(grid, tuple(coeffs), amplitude, direction,
                             k, p, q, tuple(indices), characteristic, u_family)


def companion_v_family(instance: TransportInstance, amplitude=None,
                       indices=None) -> SequenceFamily:
    """Weakly-null companion on the dual side: same direction, inverse scaling."""
    return scaled_oscillation_family(
        instance.grid,
        instance.amplitude if amplitude is None else amplitude,
        instance.direction,
        instance.indices if indices is None else indices,
        k=instance.k, p=instance.q, order=-instance.k, label="transport-v",
    )


def _transport_side(instance: TransportInstance, phi1: GridFunction, n: int):
    """u_n, f_n and |J_{-k-1}(phi1 f_n)|_p; f_n is summed on the frequency
    side and inverted once."""
    grid = instance.grid
    u = instance.u_family.u(n)
    f_hat = sum(derivative_op(grid, _unit(grid.d, j)).m * dft(a_j * u).values
                for j, a_j in enumerate(instance.coefficients))
    f = idft(GridFunction(grid, f_hat, FREQUENCY))
    return u, f, surrogate_negative_norm(phi1 * f, instance.k + 1, instance.p)


def _index_values(instance: TransportInstance, v_family: SequenceFamily,
                  phi1: GridFunction, phi2: GridFunction, op_psi,
                  weight: GridFunction, n: int) -> dict:
    """What the probes read at one index; 2d + 7 transforms when k = 0.

    With t = A_conj(psi)(phi2 v_n) and w = I_1 t: "baseline" is form A of
    <A_psi(phi1 u_n), phi2 v_n>; the chain compares the Riesz route
    sum_j <A_j phi1 u_n, -R_j t> ("weighted") with the I_1 route
    -<f_n, conj(phi1) w> - <u_n G, w>.  A function of its own so that each
    index's fields are freed on return.
    """
    grid = instance.grid
    u, f, rhs_norm = _transport_side(instance, phi1, n)
    b = phi2 * v_family.u(n)
    baseline = pairing(idft(op_psi.apply(dft(phi1 * u))), b)
    t_hat = op_psi.adjoint().apply(dft(b))
    lhs = sum(
        pairing(a_j * phi1 * u, idft(riesz(grid, j).apply(t_hat) * (-1.0)))
        for j, a_j in enumerate(instance.coefficients))
    w = idft(riesz_potential(grid).apply(t_hat))
    rhs = -(pairing(f, phi1.conj() * w) + pairing(u * weight, w))
    return {"n": int(n), "baseline": complex(baseline), "weighted": complex(lhs),
            "chain": {"n": int(n), "lhs": complex(lhs), "rhs": complex(rhs),
                      "residual": float(abs(lhs - rhs) / (1.0 + abs(lhs)))},
            "rhs_norm": rhs_norm,
            "wkq_norm": wkq_norm(phi1 * w, instance.k, instance.q)}


def _index_pass(instance: TransportInstance, v_family: SequenceFamily,
                phi1: GridFunction, phi2: GridFunction,
                psi: SphericalSymbol, ns=None) -> list:
    """Per-index values for each n: the single pass behind every probe below.

    A_psi and G = sum_j A_j conj(d_j conj(phi1)) are built once per pass; G
    turns sum_j <u_n A_j, d_j(conj phi1) w> into <u_n G, w>.
    """
    grid = instance.grid
    op_psi = from_symbol(grid, psi)
    phi1_bar_hat = dft(phi1.conj())
    d_phi1_bar = (idft(derivative_op(grid, _unit(grid.d, j)).apply(phi1_bar_hat))
                  for j in range(grid.d))
    weight = GridFunction(grid, sum(a_j.values * np.conj(d.values) for a_j, d
                                    in zip(instance.coefficients, d_phi1_bar)))
    ns = tuple(ns) if ns is not None else tuple(instance.indices)
    return [_index_values(instance, v_family, phi1, phi2, op_psi, weight, n)
            for n in ns]


def _limit(rows, key: str) -> HLimitEstimate:
    rows = sorted(rows, key=lambda r: r["n"])
    ns = [r["n"] for r in rows]
    return HLimitEstimate.from_fit(fit_limit(ns, [r[key] for r in rows]), ns)


def _decay_table(rows, key: str, meta=None) -> DecayTable:
    ns, norms = tuple(r["n"] for r in rows), [r[key] for r in rows]
    return DecayTable(ns, {key: norms}, {key: fit_decay(ns, norms)}, meta or {})


def _rhs_table(instance: TransportInstance, rows) -> DecayTable:
    return _decay_table(rows, "rhs_norm", {
        "characteristic": instance.characteristic,
        "characteristic_defect": instance.characteristic_defect()})


def rhs_smallness_probe(instance: TransportInstance, phi: GridFunction) -> DecayTable:
    """Surrogate W^{-k-1,p} norms of phi * f_n per index, with fitted rate."""
    return _rhs_table(instance, [
        {"n": n, "rhs_norm": _transport_side(instance, phi, n)[2]}
        for n in instance.indices])


def characteristic_pairing(instance: TransportInstance, v_family: SequenceFamily,
                           phi1: GridFunction, phi2: GridFunction,
                           psi: SphericalSymbol, ns=None) -> HLimitEstimate:
    """Extrapolated sum over j of the A_j-weighted Riesz-composed pairings.

    The j-th symbol is (xi_j / i|xi|) psi, realized as the operator
    composition -R_j . A_conj(psi) so the potential identities hold exactly
    on the lattice.
    """
    return _limit(_index_pass(instance, v_family, phi1, phi2, psi, ns), "weighted")


def baseline_pairing(instance: TransportInstance, v_family: SequenceFamily,
                     phi1: GridFunction, phi2: GridFunction,
                     psi: SphericalSymbol, ns=None) -> HLimitEstimate:
    """Unweighted pairing of the same families: the mass scale of the defect."""
    return _limit(_index_pass(instance, v_family, phi1, phi2, psi, ns), "baseline")


def i1_chain_check(instance: TransportInstance, v_family: SequenceFamily,
                   phi1: GridFunction, phi2: GridFunction,
                   psi: SphericalSymbol, n: int) -> dict:
    """Integration-by-parts decomposition of the weighted pairing at one n.

    Checks that the Riesz-composed sum equals
        -<f_n, conj(phi1) w> - sum_j <u_n A_j, d_j(conj(phi1)) w>,
    with w the potential of A_conj(psi)(phi2 v_n); spectral integration by
    parts makes this exact up to rounding.
    """
    return _index_pass(instance, v_family, phi1, phi2, psi, (n,))[0]["chain"]


def rellich_step_probe(instance: TransportInstance, v_family: SequenceFamily,
                       phi: GridFunction, phi2: GridFunction,
                       psi: SphericalSymbol) -> DecayTable:
    """Decay of |phi . I_1(A_conj(psi)(phi2 v_n))| in the W^{k,q} norm."""
    return _decay_table(_index_pass(instance, v_family, phi, phi2, psi), "wkq_norm")


def localization_verdict(instance: TransportInstance, v_family: SequenceFamily,
                         phi1: GridFunction, phi2: GridFunction,
                         psi: SphericalSymbol, tol_char=0.05) -> dict:
    """Full experiment summary for one instance, from one pass over n.

    The ratio is null when the baseline limit is 0; passes_tol_char is null
    then and for a control instance.
    """
    rows = _index_pass(instance, v_family, phi1, phi2, psi)
    base, char = _limit(rows, "baseline"), _limit(rows, "weighted")
    rhs, rellich = _rhs_table(instance, rows), _decay_table(rows, "wkq_norm")
    ratio = abs(char.value) / abs(base.value) if abs(base.value) > 0 else None
    check = instance.characteristic and ratio is not None
    return {
        "characteristic_flag": bool(instance.characteristic),
        "characteristic_defect": instance.characteristic_defect(),
        "baseline": base.to_dict(),
        "char_pairing": char.to_dict(),
        "ratio": ratio,
        "passes_tol_char": bool(ratio <= tol_char) if check else None,
        "rates": {
            "rhs_exponent": rhs.fits["rhs_norm"].exponent,
            "rellich_exponent": rellich.fits["wkq_norm"].exponent,
        },
        "rhs_table": rhs.to_dict(),
        "i1_chain_residuals": [r["chain"]["residual"] for r in rows],
        "i1_zero_mode": "constant frequency mode mapped to 0 (torus surrogate)",
    }
