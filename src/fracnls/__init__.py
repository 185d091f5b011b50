"""Numerical laboratory for small traveling waves of the 1-D mass-critical
fractional NLS: solvers for the variational reductions, the renormalization
maps between them, linearized-operator diagnostics, and spatial-asymptotics
verification."""

__version__ = "0.1.0"

from .spectral import (
    GridError,
    Profile,
    SpectralGrid,
    apply_multiplier,
    inner,
    lp_norm,
    make_grid,
    norms_and_products,
    quadratic_form,
    sobolev_norm,
)
from .symbols import (
    KernelField,
    ModelParams,
    build_kernel,
    check_lower_bound,
    kernel_constants,
    kernel_pointwise,
    stationary_point,
    symbol_mbeta,
    symbol_n,
    symbol_nN,
)
from .solvers import (
    ContinuationPath,
    ConvergenceError,
    SolveResult,
    continuation_in_N,
    el_residual,
    fractional_ground_state,
    lambda_of_s,
    local_ground_state,
    petviashvili_mass_constrained,
    petviashvili_solve,
)
from .renorm import (
    MultiplierTriple,
    convert_multipliers,
    energy_beta,
    energy_reduced,
    full_map_Q_to_R,
    gauge_fix,
    scale_R_to_S,
    scale_S_to_R,
    tau_beta,
    tau_beta_inverse,
    tau_beta_snap,
)
from .linearized import (
    LinearizedOperator,
    LinearizedReport,
    build_linearized,
    constrained_solve,
    kernel_diagnostics,
    local_limit_operators,
)
from .asymptotics import (
    RootBracketError,
    RootResult,
    TailFit,
    decay_bound_check,
    far_field_reconstruction,
    find_root_f1,
    kernel_expansion_check,
    tail_fit,
    verify_f2_rootless,
)
