"""hdist: spectral toolkit for microlocal defect analysis on periodic grids.

Builds Fourier multiplier operators with zero-homogeneous symbols, Sobolev
norm surrogates, weakly-null sequence generators, the bilinear defect
pairing with limit extrapolation, commutator compactness probes, a
transport localization experiment, and Hermite x spherical-harmonic
coefficient analysis of the test space.
"""

__version__ = "0.1.0"

from .grid import (FREQUENCY, PHYSICAL, Grid, GridFunction, dft, idft,
                   l2_norm, linf_norm, lp_norm, pairing)
from .symbol import (SphereQuadrature, SphericalHarmonicBasis, SphericalSymbol,
                     ck_norm, hs_sphere_norm, mihlin_constant, mp_bound,
                     sh_analyze, sh_synthesize)
from .multiplier import (MultiplierOperator, bessel_potential, derivative,
                         derivative_commutation_check, derivative_op,
                         from_symbol, riesz, riesz_potential)
from .sobolev import (SequenceFamily, SobolevElement, concentration_family,
                      norm_table, oscillation_family, representation_norm_upper,
                      scaled_oscillation_family, strong_null_probe,
                      surrogate_negative_norm, weak_null_probe, wkq_norm)
from .commutator import CommutatorProbe, commutator_apply, compactness_probe
from .fitting import LimitFit
from .functional import (HPairingRecord, MuTensor, extrapolate_limit,
                         h_pairing, mu_tensor, pairing_records,
                         zero_mu_strong_convergence_check)
from .localization import (TransportInstance, build_instance,
                           characteristic_pairing, companion_v_family,
                           i1_chain_check, localization_verdict,
                           rhs_smallness_probe)
from .specbasis import (HermiteBasis, SECoefficients, hermite_eval,
                        oscillator_apply, schwartz_seminorm, se_analyze,
                        se_membership_score)
from .registry import list_builtins, make_field, make_symbol
from .util import AliasingError, SupportError
