"""Smoothed local times, Wiener chaos expansions and empirical
finite-absolute-continuity diagnostics for Gaussian processes on [0,1]."""

from .analytic import (
    HeatKernelParams,
    QuadratureRule,
    heat_convolve_variance,
    heat_kernel,
    hermite_bound_constant,
    hermite_eval,
    integrate_interval,
    integrate_simplex,
    product_basis_eval,
    product_basis_norm,
)
from .chaos import (
    ChaosTermEstimate,
    bridge_term,
    bridge_term_variance,
    chaos_partial_sum,
    chaos_term_eval,
    sobolev_partial_norm,
)
from .fac import (
    MCConfig,
    PolyFunctional,
    eval_poly,
    fac_ratio,
    holder_moment_diagnostic,
    l2_norm_mc,
    pairing_mc,
    tail_moment_diagnostic,
    uniform_fac_study,
)
from .functionals import (
    EndpointKernel,
    LocalTime,
    OffsetLocalTime,
    SelfIntersection,
    eval_functional,
    indicator_local_time,
    local_time_field,
    occupation_identity,
)
from .processes import (
    BrownianMotion,
    DegenerateLine,
    Integrator,
    IntegratorOperator,
    Path,
    SmoothStationary,
    TimeGrid,
    covariance,
    integrator_inequality,
    mc_moments,
    operator_bounds,
    sample,
    sigma_interval,
    upcrossing_count,
)

__version__ = "0.1.0"
