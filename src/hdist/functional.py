"""The bilinear pairing functional behind the defect analysis.

For a pair of weakly-null sequences and test data (phi1, phi2, psi) the
functional evaluates

    mu_n = < A_psi(phi1 u_n), phi2 v_n > = < phi1 u_n, A_conj(psi)(phi2 v_n) >,

whose limit along n tests the product phi1 conj(phi2) psi.  Limits are
extrapolated from finitely many indices; sweeping phi over Hermite functions
and psi over spherical harmonics yields a finite coefficient tensor, the
artifact's concrete stand-in for the limiting object.  The sequences enter
as samples: u_n = us[i] and v_n = vs[i] at the index n = ns[i].
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fitting import LimitFit, fit_limit
from .grid import GridFunction, dft, idft, pairing
from .multiplier import from_symbol
from .sobolev import strong_null_probe
from .specbasis import HermiteBasis
from .symbol import SphericalHarmonicBasis

# the two adjoint forms agree when |a - b| <= FORM_RTOL * (1 + |a|)
FORM_RTOL = 1e-9


@dataclass(frozen=True)
class HPairingRecord:
    """One evaluated pairing at index n, in both adjoint forms."""

    n: int
    value_form_a: complex
    value_form_b: complex
    phi1: str = "phi1"
    phi2: str = "phi2"
    psi: str = "psi"

    @property
    def form_gap(self) -> float:
        return abs(self.value_form_a - self.value_form_b)


def pairing_records(ns, us, vs, phi1, phi2, symbols) -> list:
    """One list of records per symbol.  phi1 u_n and phi2 v_n are transformed
    once per index and shared by every symbol; forms A and B each take one
    inverse transform per symbol and index."""
    ops = [from_symbol(phi1.grid, psi) for psi in symbols]
    out = [[] for _ in symbols]
    for n, u, v in zip(ns, us, vs):
        fu, gv = phi1 * u, phi2 * v
        fu_hat, gv_hat = dft(fu), dft(gv)
        for records, psi, op in zip(out, symbols, ops):
            form_a = pairing(idft(op.apply(fu_hat)), gv)
            form_b = pairing(fu, idft(op.adjoint().apply(gv_hat)))
            records.append(HPairingRecord(int(n), form_a, form_b, phi1.name or "phi1",
                                          phi2.name or "phi2", psi.name))
    return out


def extrapolate_limit(records) -> LimitFit:
    """Fit the records' values and return the extrapolated limit."""
    return fit_limit([r.n for r in records], [r.value_form_a for r in records])


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
            "hermite_indices": self.hermite_indices,
            "sphere_indices": self.sphere_indices,
            "ns": self.ns,
            "entries": self.values,
            "residuals": self.residuals,
            "flagged": self.flagged,
            "order_in_xi": "finite-basis surrogate; extension order not certified",
        }


def mu_tensor(ns, us, vs, hermite_basis: HermiteBasis,
              sphere_basis: SphericalHarmonicBasis) -> MuTensor:
    """Tensor of extrapolated pairings over the product test basis.

    Uses the adjoint form: v_n is transformed once per index, each
    harmonic's w = A_conj(Y) v_n is one product and one inverse
    transform, and the whole Hermite slab of pairings <h_m u_n, w> is a
    single separable transform of u_n conj(w).
    """
    grid = hermite_basis.grid
    ns = tuple(ns)
    if len(ns) < 3:
        raise ValueError("need at least 3 indices for tensor extrapolation")
    v_spectra = [dft(v) for v in vs]

    m_flat = (hermite_basis.m_max + 1) ** grid.d
    b_sphere = sphere_basis.size
    per_n = np.empty((len(ns), m_flat, b_sphere), dtype=complex)
    for b, (deg, j) in enumerate(sphere_basis.indices):
        op_adj = from_symbol(grid, sphere_basis.symbol(deg, j)).adjoint()
        for i, (u, v_hat) in enumerate(zip(us, v_spectra)):
            w = idft(op_adj.apply(v_hat))
            slab = hermite_basis.analyze(u * w.conj())
            per_n[i, :, b] = slab.ravel()

    fit = fit_limit(ns, per_n.reshape(len(ns), -1))
    shape = (m_flat, b_sphere)
    return MuTensor(fit.value.reshape(shape), fit.residual.reshape(shape),
                    fit.flagged.reshape(shape),
                    tuple(hermite_basis.indices()),
                    tuple(sphere_basis.indices), ns)


def zero_mu_strong_convergence_check(
        ns, us, vs, theta: GridFunction, k: int, p: float, tensor: MuTensor,
        baseline_phi: GridFunction) -> dict:
    """Confront the tensor-is-zero verdict (tensor from these samples) with
    strong-norm decay.

    A tensor below threshold should come with decaying localized surrogate
    norms (fitted exponent < -0.25); a clearly nonzero tensor is consistent
    with non-decaying norms.  The threshold is 1e-3 of the baseline scale
    max_n |<phi u_n, phi v_n>|, so the verdict is invariant under rescaling
    the data.
    """
    scale = max(abs(pairing(baseline_phi * u, baseline_phi * v))
                for u, v in zip(us, vs))
    threshold = 1e-3 * scale + 1e-12
    tensor_zero = tensor.max_abs() < threshold

    probe = strong_null_probe(ns, us, theta, k, p)
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
        "probe": probe,
    }
