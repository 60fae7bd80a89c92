"""Commutator of a homogeneous multiplier with a multiplication operator.

C f = A_psi(b f) - b A_psi(f) is compact on L^2 when b is continuous and
vanishes at infinity; along a weakly-null bounded sequence its images decay
in norm.  The probe records that decay over an index set at a pair of
exponents rather than attempting any spectral characterization.
"""

from __future__ import annotations

import numpy as np

from .fitting import ZERO_FLOOR
from .grid import GridFunction, linf_norm, lp_norms
from .multiplier import from_symbol
from .sobolev import ConcentrationFamily, SequenceFamily, decay_table
from .symbol import SphericalSymbol
from .util import exponent_label


def commutator_apply(psi: SphericalSymbol, b: GridFunction,
                     f: GridFunction) -> GridFunction:
    """A_psi(b f) - b A_psi(f)."""
    if b.grid != f.grid:
        raise ValueError("grid mismatch")
    op = from_symbol(f.grid, psi)
    return op.apply(b * f) - b * op.apply(f)


def compactness_probe(u: SequenceFamily | ConcentrationFamily, psi: SphericalSymbol,
                      b: GridFunction, r: float = 4.0, q_list=None) -> dict:
    """Decay table of |C u_n|_{L^q} per index of the family u and exponent,
    C the commutator of A_psi with b.

    q_list defaults to {2, r}: the endpoints of the exponent range covered
    by the compactness statement, with r the family's extra integrability.
    The boundedness precondition (family norms in L^2 and L^r within a
    factor 10 over the index set) is checked numerically; violations are
    recorded in the table metadata and the probe still runs.  Weak nullity
    of the family is assumed, not checked.
    """
    qs = tuple(q_list) if q_list else (2.0, r)

    meta = {"q_list": list(qs), "violations": []}
    u_norms = [lp_norms(u_n, (2.0, r)) for u_n in u.samples]
    for q in (2.0, r):
        norms = np.array([n[q] for n in u_norms])
        if norms.max() > 10.0 * max(norms.min(), ZERO_FLOOR):
            meta["violations"].append(
                f"family norms in L^{q} vary by more than 10x over the index set"
            )

    op = from_symbol(u.grid, psi)
    c_norms = [lp_norms(op.apply(b * u_n) - b * op.apply(u_n), qs) for u_n in u.samples]
    columns = {f"q={exponent_label(q)}": [n[q] for n in c_norms] for q in qs}
    meta["sup_b"] = linf_norm(b)
    return decay_table(u.indices, columns, meta)
