"""The bilinear pairing functional behind the defect analysis.

For a pair of weakly-null sequences and test data (phi1, phi2, psi) the
functional evaluates

    mu_n = < A_psi(phi1 u_n), phi2 v_n > = < phi1 u_n, A_conj(psi)(phi2 v_n) >,

whose limit along n tests the product phi1 conj(phi2) psi.  Limits are
extrapolated from finitely many indices; sweeping phi over Hermite functions
and psi over spherical harmonics yields a finite coefficient tensor, the
artifact's concrete stand-in for the limiting object.  Each probe takes a
u family and an optional v family (None: v = u) on the same indices.
"""

from __future__ import annotations

import numpy as np

from .fitting import fit_limit
from .grid import GridFunction, adjoint_image, image, pairing, spectrum
from .multiplier import from_symbol
from .sobolev import strong_null_probe
from .specbasis import HermiteBasis
from .symbol import SphericalHarmonicBasis

# the two adjoint forms agree when |a - b| <= FORM_RTOL * (1 + |a|)
FORM_RTOL = 1e-9


def check_pair(u_indices, v_indices):
    """Refuse a v family whose indices are not the u family's: the pairing
    takes v_n at each index n of u."""
    if tuple(v_indices) != tuple(u_indices):
        raise ValueError(f"v family indices {list(v_indices)} differ from the u "
                         f"family's {list(u_indices)}: v_n pairs with u_n")


def pairing_records(u, v, phi1, phi2, symbols) -> list:
    """One list of (form_a, form_b) pairs per symbol, one pair per index of
    the families u and v, as Python complex.  phi1 u_n and phi2 v_n take one
    forward transform each per index, shared by every symbol; per symbol and
    index, form A takes the image of phi1 u_n (one inverse transform) and
    form B the adjoint image of phi2 v_n (one forward transform).  Each form
    sums a fresh product in grid.conj_sum's operand order."""
    v = u if v is None else v
    check_pair(u.indices, v.indices)
    grid = phi1.grid
    ms = [from_symbol(grid, psi).m for psi in symbols]
    out = [[] for _ in symbols]
    for u_n, v_n in zip(u.samples, v.samples):
        fu, gv = phi1 * u_n, phi2 * v_n
        fu_spec, gv_spec_conj = spectrum(fu), np.conj(spectrum(gv))
        gv_conj = np.conj(gv.values)
        for forms, m in zip(out, ms):
            forms.append((complex(grid.cell_volume * (gv_conj * image(m, fu_spec)).sum()),
                          complex(grid.cell_volume
                                  * (adjoint_image(m, gv_spec_conj) * fu.values).sum())))
    return out


# ---------------------------------------------------------------------------
# coefficient tensor

def mu_tensor(u, v, hermite_basis: HermiteBasis,
              sphere_basis: SphericalHarmonicBasis) -> dict:
    """Tensor of extrapolated pairings over the product test basis, as
    tensor.json holds it: entries[m_flat, b] estimates the limit against
    h_m(x) Y_{n,j}(xi), a finite stand-in for the limiting object.

    Uses the adjoint form: v_n takes one forward transform per index, and
    each harmonic's conj(A_conj(Y) v_n) is one product and one forward
    transform (grid.adjoint_image) per index, which u_n multiplies in place;
    the whole Hermite slab of pairings <h_m u_n, A_conj(Y) v_n> is then one
    separable contraction of that product.
    """
    grid = hermite_basis.grid
    v = u if v is None else v
    check_pair(u.indices, v.indices)
    ns = tuple(u.indices)
    if len(ns) < 3:
        raise ValueError("need at least 3 distinct indices to extrapolate")
    v_specs_conj = [np.conj(spectrum(v_n)) for v_n in v.samples]

    m_flat = (hermite_basis.m_max + 1) ** grid.d
    b_sphere = sphere_basis.size
    per_n = np.empty((len(ns), m_flat, b_sphere), dtype=complex)
    for b, row in enumerate(sphere_basis.lattice_rows(grid)):
        for i, (u_n, v_spec_conj) in enumerate(zip(u.samples, v_specs_conj)):
            prod = adjoint_image(row, v_spec_conj)
            np.multiply(u_n.values, prod, out=prod)  # u_n conj(A_conj(Y) v_n)
            per_n[i, :, b] = hermite_basis.analyze(GridFunction(grid, prod)).ravel()

    fit = fit_limit(ns, per_n.reshape(len(ns), -1))
    shape = (m_flat, b_sphere)
    return {"hermite_indices": tuple(hermite_basis.indices()),
            "sphere_indices": tuple(sphere_basis.indices), "ns": ns,
            "entries": fit["value"].reshape(shape),
            "residuals": fit["residual"].reshape(shape),
            "flagged": fit["flagged"].reshape(shape),
            "order_in_xi": "finite-basis surrogate; extension order not certified"}


def zero_mu_strong_convergence_check(
        u, v, theta: GridFunction, k: int, p: float, tensor_max: float,
        baseline_phi: GridFunction) -> dict:
    """Confront the tensor-is-zero verdict (tensor_max, the largest |entry|
    of the tensor of these families) with strong-norm decay of theta u_n.

    A tensor below threshold should come with localized surrogate norms
    whose fitted limit is zero (fit_limit's decay or negligible model); a
    clearly nonzero tensor is consistent with norms of a nonzero limit.  The
    threshold is 1e-3 of the baseline scale max_n |<phi u_n, phi v_n>|, so
    the verdict is invariant under rescaling the data.
    """
    v = u if v is None else v
    check_pair(u.indices, v.indices)
    scale = max(abs(pairing(baseline_phi * u_n, baseline_phi * v_n))
                for u_n, v_n in zip(u.samples, v.samples))
    threshold = 1e-3 * scale
    tensor_zero = tensor_max <= threshold

    probe = strong_null_probe(u, theta, k, p)
    strongly_null = probe["meta"]["strongly_null"]

    if tensor_zero and strongly_null:
        verdict, consistent = "zero tensor, strong decay confirmed", True
    elif tensor_zero and not strongly_null:
        verdict, consistent = "zero tensor but norms do not decay", False
    elif not tensor_zero and not strongly_null:
        verdict, consistent = "nonzero tensor, no strong decay (contrapositive)", True
    else:
        verdict, consistent = "nonzero tensor, this theta still decays", True

    return {
        "tensor_max": tensor_max,
        "threshold": float(threshold),
        "baseline_scale": float(scale),
        "tensor_is_zero": bool(tensor_zero),
        "strongly_null": bool(strongly_null),
        "strong_fit_exponent": probe["fits"]["surrogate_norm"]["exponent"],
        "consistent": bool(consistent),
        "verdict": verdict,
        "probe": probe,
    }
