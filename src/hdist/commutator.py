"""Commutator of a homogeneous multiplier with a multiplication operator.

C f = A_psi(b f) - b A_psi(f) is compact on L^2 when b is continuous and
vanishes at infinity; along a weakly-null bounded sequence its images decay
in norm.  The probe records that decay over an index set at a pair of
exponents rather than attempting any spectral characterization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .fitting import fit_decay
from .grid import GridFunction, linf_norm, lp_norm
from .multiplier import from_symbol
from .sobolev import DecayTable, SequenceFamily
from .symbol import SphericalSymbol


def commutator_apply(psi: SphericalSymbol, b: GridFunction,
                     f: GridFunction) -> GridFunction:
    """A_psi(b f) - b A_psi(f)."""
    if b.grid != f.grid:
        raise ValueError("grid mismatch")
    op = from_symbol(f.grid, psi)
    return op.apply(b * f) - b * op.apply(f)


@dataclass(frozen=True)
class CommutatorProbe:
    """Decay probe for C v_n along a weakly-null family.

    q_list defaults to {2, r}: the endpoints of the exponent range covered
    by the compactness statement, with r the family's extra integrability.
    """

    psi: SphericalSymbol
    b: GridFunction
    family: SequenceFamily
    r: float = 4.0
    q_list: Optional[tuple] = None

    def exponents(self):
        return tuple(self.q_list) if self.q_list else (2.0, self.r)


def compactness_probe(probe: CommutatorProbe) -> DecayTable:
    """Record |C v_n|_{L^q} per index and exponent, with fitted rates.

    The boundedness precondition (family norms in L^2 and L^r within a
    factor 10 over the index set) is checked numerically; violations are
    recorded in the table metadata and the probe still runs.  Weak nullity
    of the family is assumed, not checked.
    """
    family = probe.family
    ns = tuple(family.indices)
    vs = [family.u(n) for n in ns]
    qs = probe.exponents()

    meta = {"q_list": list(qs), "violations": []}
    for q in (2.0, probe.r):
        norms = np.array([lp_norm(v, q) for v in vs])
        if norms.max() > 10.0 * max(norms.min(), 1e-300):
            meta["violations"].append(
                f"family norms in L^{q} vary by more than 10x over the index set"
            )

    op = from_symbol(family.grid, probe.psi)
    columns, fits = {}, {}
    images = [op.apply(probe.b * v) - probe.b * op.apply(v) for v in vs]
    for q in qs:
        vals = [lp_norm(c, q) for c in images]
        label = f"q={q:g}"
        columns[label] = vals
        fits[label] = fit_decay(ns, vals)
    meta["sup_b"] = linf_norm(probe.b)
    return DecayTable(ns, columns, fits, meta)
