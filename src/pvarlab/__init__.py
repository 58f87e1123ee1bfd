"""pvarlab: moduli of p-variation for sampled functions.

Computes the modulus of p-variation by exact dynamic programming, realizes
the (L-infinity, BV_p) K-functional sandwich by free-knot spline
approximation, evaluates uniform-convergence criteria for Fourier series,
and decides (and witnesses) embeddings of generalized-variation and
symmetric sequence spaces.
"""

from .embeddings import (
    CriterionReport,
    LambdaSequence,
    OrliczFunction,
    PhiSequence,
    Witness,
    corollary_criteria,
    embedding_criterion,
    exp_orlicz,
    phi_partial_inverse,
    power_orlicz,
    var_phi,
    witness_generate,
    wu_bound_check,
    wu_bound_checks,
)
from .fourier import (
    ConvergenceSequences,
    FourierCoeffs,
    OmegaLog,
    OmegaPower,
    Unif2Report,
    coeff_decay_report,
    convergence_sequences,
    fejer_kernel,
    fejer_kernel_integral,
    fejer_mean,
    fourier_coeffs,
    modulus_of_continuity,
    nikolskii_bound_check,
    partial_sum,
    q_sequence,
    sine_integral_lower,
    theta,
    unif2_verdicts,
)
from .kfunctional import (
    KSandwich,
    bracket_count,
    kfunctional_bounds,
    kfunctional_sweep,
    pl_interpolate,
    select_knots,
    varp_pl,
)
from .modulus import (
    ModulusOfVariation,
    ModulusValidation,
    epsilon_p_table,
    validate_modulus,
)
from .sampled import SampledFunction, extrema_reduce
from .seqspaces import (
    dual_harmonic_estimate,
    lorentz_norm,
    marcinkiewicz_norm,
    modular_norm,
    modular_norms,
    orlicz_norm,
    orlicz_norms,
    rearrange,
)
from .variation import (
    IntervalSelection,
    pvariation_bruteforce,
    pvariation_dp,
    pvariation_profile,
    vpnu_norm,
)

__version__ = "0.1.0"
