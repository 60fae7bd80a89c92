"""The bilinear pairing functional behind the defect analysis.

For a pair of weakly-null sequences and test data (phi1, phi2, psi) the
functional evaluates

    mu_n = < A_psi(phi1 u_n), phi2 v_n > = < phi1 u_n, A_conj(psi)(phi2 v_n) >,

whose limit along n tests the product phi1 conj(phi2) psi.  Limits are
extrapolated from finitely many indices; sweeping phi over Hermite functions
and psi over spherical harmonics yields a finite coefficient tensor, the
artifact's concrete stand-in for the limiting object.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .fitting import LimitFit, fit_limit
from .grid import GridFunction, dft, idft, lp_norm, pairing
from .multiplier import MultiplierOperator, derivative, from_symbol
from .sobolev import NEGATIVE, SequenceFamily, SobolevElement, strong_null_probe
from .specbasis import HermiteBasis
from .symbol import SphericalHarmonicBasis, SphericalSymbol
from .util import multi_binomial, sub_indices


@dataclass(frozen=True)
class HPairingRecord:
    """One evaluated pairing at index n, in both adjoint forms."""

    n: int
    value_form_a: complex
    value_form_b: complex
    phi1: str = "phi1"
    phi2: str = "phi2"
    psi: str = "psi"
    leibniz_value: Optional[complex] = None

    @property
    def form_gap(self) -> float:
        return abs(self.value_form_a - self.value_form_b)

    def forms_agree(self, rtol=1e-9) -> bool:
        return self.form_gap <= rtol * (1.0 + abs(self.value_form_a))


@dataclass(frozen=True)
class HLimitEstimate:
    """Extrapolated limit of a pairing sequence with its fit diagnostics."""

    value: complex
    residual: float
    model: str
    beta: float
    flagged: bool
    ns: tuple = ()

    @classmethod
    def from_fit(cls, fit: LimitFit, ns):
        return cls(fit.value, fit.residual, fit.model, fit.beta, fit.flagged,
                   tuple(int(n) for n in ns))

    def to_dict(self):
        return {
            "value": [self.value.real, self.value.imag],
            "residual": self.residual,
            "model": self.model,
            "beta": self.beta,
            "flagged": self.flagged,
            "ns": list(self.ns),
        }


def _leibniz_value(u: SobolevElement, v_n, phi1, phi2,
                   op: MultiplierOperator) -> complex:
    """Pairing via the derivative-expansion of a negative-order element.

    Moves each d^alpha off the parts with two nested product expansions:
    sum_alpha (-1)^|a| sum_{b<=a} C(a,b) sum_{g<=b} C(b,g)
        < A_psi(F_a d^{a-b} phi1), d^{b-g} phi2 . d^g v_n >.
    """
    total = 0.0 + 0.0j
    for alpha, f_part in sorted(u.parts.items()):
        sign = (-1.0) ** sum(alpha)
        for beta in sub_indices(alpha):
            a_minus_b = tuple(a - b for a, b in zip(alpha, beta))
            left = op.apply(f_part * derivative(phi1, a_minus_b))
            for gamma in sub_indices(beta):
                b_minus_g = tuple(b - g for b, g in zip(beta, gamma))
                coef = sign * multi_binomial(alpha, beta) * multi_binomial(beta, gamma)
                right = derivative(phi2, b_minus_g) * derivative(v_n, gamma)
                total += coef * pairing(left, right)
    return complex(total)


def h_pairing(n, u_n, v_n: GridFunction, phi1: GridFunction,
              phi2: GridFunction, psi: SphericalSymbol,
              op: MultiplierOperator = None,
              check_leibniz=False) -> HPairingRecord:
    """Evaluate both adjoint forms of the pairing at index n.

    u_n may be a grid function or a negative-order element with explicit
    parts; in the latter case `check_leibniz` additionally evaluates the
    derivative-expansion form, which must agree with form A to 1e-8.
    """
    if op is None:
        grid = v_n.grid
        op = from_symbol(grid, psi)
    u_field = u_n.evaluate() if isinstance(u_n, SobolevElement) else u_n
    fu = phi1 * u_field
    gv = phi2 * v_n
    form_a = pairing(op.apply(fu), gv)
    form_b = pairing(fu, op.adjoint().apply(gv))
    leib = None
    if check_leibniz:
        if not (isinstance(u_n, SobolevElement) and u_n.sign == NEGATIVE):
            raise ValueError("Leibniz cross-check needs a negative-order element")
        leib = _leibniz_value(u_n, v_n, phi1, phi2, op)
    return HPairingRecord(
        int(n), form_a, form_b,
        phi1.name or "phi1", phi2.name or "phi2", psi.name, leib,
    )


def pairing_records(u_family: SequenceFamily, v_family: SequenceFamily,
                    phi1, phi2, psi: SphericalSymbol, ns=None):
    """Sweep the pairing over a shared index set, reusing the multiplier."""
    ns = tuple(ns) if ns is not None else tuple(u_family.indices)
    op = from_symbol(u_family.grid, psi)
    return [
        h_pairing(n, u_family.u(n), v_family.u(n), phi1, phi2, psi, op=op)
        for n in ns
    ]


def extrapolate_limit(records) -> HLimitEstimate:
    """Fit the records' values and return the extrapolated limit."""
    records = sorted(records, key=lambda r: r.n)
    ns = [r.n for r in records]
    fit = fit_limit(ns, [r.value_form_a for r in records])
    return HLimitEstimate.from_fit(fit, ns)


def holder_bound_slack(record: HPairingRecord, u_n, v_n, phi1, phi2,
                       psi: SphericalSymbol, p: float) -> float:
    """|mu_n| minus its product-norm bound (negative when the bound holds)."""
    q = p / (p - 1.0)
    u_field = u_n.evaluate() if isinstance(u_n, SobolevElement) else u_n
    op = from_symbol(v_n.grid, psi).adjoint()
    bound = lp_norm(phi1 * u_field, p) * lp_norm(op.apply(phi2 * v_n), q)
    return abs(record.value_form_b) - bound


# ---------------------------------------------------------------------------
# coefficient tensor

@dataclass(frozen=True)
class MuTensor:
    """Extrapolated pairings against Hermite x harmonic test products.

    values[m_flat, b] estimates the limit against h_m(x) Y_{n,j}(xi); this
    finite tensor is the concrete representation of the limiting object.
    Whether that object extends to the full smoothness class in xi is not
    certified here (see metadata).
    """

    values: np.ndarray = field(repr=False)     # ((m_max+1)^d, B) complex
    residuals: np.ndarray = field(repr=False)  # same shape, float
    flagged: np.ndarray = field(repr=False)    # same shape, bool
    hermite_indices: tuple = ()
    sphere_indices: tuple = ()
    ns: tuple = ()

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values))) if self.values.size else 0.0

    def to_dict(self):
        return {
            "hermite_indices": [list(m) for m in self.hermite_indices],
            "sphere_indices": [list(t) for t in self.sphere_indices],
            "ns": list(self.ns),
            "entries": [[[v.real, v.imag] for v in row] for row in self.values],
            "residuals": [list(map(float, row)) for row in self.residuals],
            "flagged": [list(map(bool, row)) for row in self.flagged],
            "order_in_xi": "finite-basis surrogate; extension order not certified",
        }


def mu_tensor(u_family: SequenceFamily, v_family: SequenceFamily,
              hermite_basis: HermiteBasis, sphere_basis: SphericalHarmonicBasis,
              ns=None, phi2: GridFunction = None) -> MuTensor:
    """Tensor of extrapolated pairings over the product test basis.

    Uses the adjoint form: phi2 v_n is transformed once per index, each
    harmonic's w = A_conj(Y)(phi2 v_n) is one product and one inverse
    transform, and the whole Hermite slab of pairings <h_m u_n, w> is a
    single separable transform of u_n conj(w).
    """
    grid = hermite_basis.grid
    ns = tuple(ns) if ns is not None else tuple(u_family.indices)
    if len(ns) < 3:
        raise ValueError("need at least 3 indices for tensor extrapolation")
    us = [u_family.u(n) for n in ns]
    vs = [v_family.u(n) for n in ns] if v_family is not u_family else us
    v_spectra = [dft(v if phi2 is None else phi2 * v) for v in vs]

    m_flat = (hermite_basis.m_max + 1) ** grid.d
    b_sphere = sphere_basis.size
    per_n = np.empty((len(ns), m_flat, b_sphere), dtype=complex)
    for b, (deg, j) in enumerate(sphere_basis.indices):
        op_adj = from_symbol(grid, sphere_basis.symbol(deg, j)).adjoint()
        for i, (u, v_hat) in enumerate(zip(us, v_spectra)):
            w = idft(op_adj.apply(v_hat))
            slab = hermite_basis.analyze(u * w.conj())
            per_n[i, :, b] = slab.ravel()

    values = np.empty((m_flat, b_sphere), dtype=complex)
    residuals = np.empty((m_flat, b_sphere))
    flagged = np.zeros((m_flat, b_sphere), dtype=bool)
    for mi in range(m_flat):
        for b in range(b_sphere):
            fit = fit_limit(ns, per_n[:, mi, b])
            values[mi, b] = fit.value
            residuals[mi, b] = fit.residual
            flagged[mi, b] = fit.flagged
    return MuTensor(values, residuals, flagged,
                    tuple(hermite_basis.indices()),
                    tuple(sphere_basis.indices), ns)


def baseline_scale(u_family: SequenceFamily, v_family: SequenceFamily,
                   phi: GridFunction, ns=None) -> float:
    """Magnitude scale of the plain (psi == 1, phi-localized) pairings."""
    from .registry import constant_symbol

    ns = tuple(ns) if ns is not None else tuple(u_family.indices)
    records = pairing_records(u_family, v_family, phi, phi,
                              constant_symbol(u_family.grid.d), ns=ns)
    return max(abs(r.value_form_a) for r in records)


def zero_mu_strong_convergence_check(
        u_family: SequenceFamily, v_family: SequenceFamily,
        theta: GridFunction, k: int, p: float,
        hermite_basis: HermiteBasis, sphere_basis: SphericalHarmonicBasis,
        baseline_phi: GridFunction, threshold: float = None) -> dict:
    """Confront the tensor-is-zero verdict with strong-norm decay.

    A tensor below threshold should come with decaying localized surrogate
    norms (fitted exponent < -0.25); a clearly nonzero tensor is consistent
    with non-decaying norms.  The default threshold is 1e-3 of the baseline
    pairing scale, so the verdict is invariant under rescaling the data.
    """
    tensor = mu_tensor(u_family, v_family, hermite_basis, sphere_basis)
    scale = baseline_scale(u_family, v_family, baseline_phi)
    if threshold is None:
        threshold = 1e-3 * scale + 1e-12
    tensor_zero = tensor.max_abs() < threshold

    probe = strong_null_probe(u_family, theta, k, p)
    strongly_null = probe.meta["strongly_null"]

    if tensor_zero and strongly_null:
        verdict, consistent = "zero tensor, strong decay confirmed", True
    elif tensor_zero and not strongly_null:
        verdict, consistent = "zero tensor but norms do not decay", False
    elif not tensor_zero and not strongly_null:
        verdict, consistent = "nonzero tensor, no strong decay (contrapositive)", True
    else:
        verdict, consistent = "nonzero tensor, this theta still decays", True

    return {
        "tensor_max": tensor.max_abs(),
        "threshold": float(threshold),
        "baseline_scale": float(scale),
        "tensor_is_zero": bool(tensor_zero),
        "strongly_null": bool(strongly_null),
        "strong_fit_exponent": probe.fits["surrogate_norm"].exponent,
        "consistent": bool(consistent),
        "verdict": verdict,
        "tensor": tensor,
        "probe": probe,
    }
