"""hdist: spectral toolkit for microlocal defect analysis on periodic grids.

Builds Fourier multiplier operators with zero-homogeneous symbols, Sobolev
norm surrogates, weakly-null sequence generators, the bilinear defect
pairing with limit extrapolation, commutator compactness probes, a
transport localization experiment, and Hermite x spherical-harmonic
coefficient analysis of the test space.
"""

__version__ = "0.1.0"

from .grid import (FREQUENCY, PHYSICAL, Grid, GridFunction, dft, idft,
                   linf_norm, lp_norm, pairing)
from .symbol import (SphereQuadrature, SphericalHarmonicBasis, SphericalSymbol,
                     hs_sphere_norm, sh_analyze)
from .multiplier import (MultiplierOperator, bessel_potential, derivative,
                         derivative_op, from_symbol, riesz, riesz_potential)
from .sobolev import (SequenceFamily, SobolevElement, decay_table, norm_table,
                      oscillation_family, representation_norm_upper,
                      scaled_oscillation_family, strong_null_probe,
                      surrogate_negative_norm, wkq_norm)
from .commutator import commutator_apply, compactness_probe
from .fitting import LimitFit
from .functional import (HPairingRecord, MuTensor, extrapolate_limit,
                         mu_tensor, pairing_records,
                         zero_mu_strong_convergence_check)
from .localization import (TransportInstance, build_instance, i1_chain_check,
                           localization_verdict)
from .specbasis import (HermiteBasis, SECoefficients, oscillator_apply,
                        se_analyze, se_membership_score)
from .registry import list_builtins, make_field, make_symbol
from .util import AliasingError, SupportError
