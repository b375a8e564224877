"""Computational toolkit for fractional maximal functions, gauge norms,
weight diagnostics, and quadrature-applied integral operators on grid
domains, with a verification harness for the associated inequalities."""

from .gauges import (BorderlineLogModulus, ConjugateGauge, ExpPowerGauge,
                     HolderModulus, LinearGauge, LogModulus, PowerGauge,
                     PowerLawWeight, PowerLogGauge, ScaledPowerGauge,
                     TabulatedWeight, bump_norm, conjugate, dini_integral,
                     evaluate, inverse, luxemburg_mean_norm, luxemburg_raw_norm,
                     modulus_from_json, morrey_weight_from_json, young_from_json)
from .geometry import (Box, Cube, CubeFamily, Grid, SampledFunction,
                       concentric_box, concentric_rank, dilate, enumerate_cubes,
                       integrate, measure, unclipped_dilate_measure)
from .maximal import (fractional_maximal, lemma41_rhs, local_sharp_maximal,
                      median, sharp_median, sharp_median_plugin,
                      sup_inf_over_cubes)
from .operators import (DiniKernel, HomogeneousKernel, LambdaSequence,
                        RieszKernel, SphereFunction, apply_kernel,
                        hormander_lambda, kernel_from_json,
                        kernel_smoothness_ratio, omega_lambda)
from .spaces import (Prop51Record, campanato_seminorm, compat_52, compat_53,
                     morrey_norm, prop51_gap)
from .weights import (ConditionFParams, FWitness, ainfty_constant, ap_constant,
                      bump_condition, condition_f_constant)

__version__ = "0.1.0"
