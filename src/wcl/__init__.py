"""Smoothed local times, Wiener chaos expansions and empirical
finite-absolute-continuity diagnostics for Gaussian processes on [0,1]."""

from .analytic import (
    hermite_bound_constant,
    hermite_eval,
    integrate_interval,
    integrate_simplex,
)
from .chaos import (
    bridge_term,
    bridge_term_variance,
    sobolev_partial_norm,
)
from .fac import (
    MCConfig,
    PolyFunctional,
    fac_ratios,
    holder_moment_diagnostic,
    tail_moment_diagnostic,
    uniform_fac_study,
)
from .functionals import (
    EndpointKernel,
    LocalTime,
    SelfIntersection,
    local_time_field,
)
from .processes import (
    BrownianMotion,
    DegenerateLine,
    Integrator,
    IntegratorOperator,
    SmoothStationary,
    TimeGrid,
    covariance,
    delta_se,
    integrator_inequality,
    mc_moments,
    operator_bounds,
    sigma_interval,
)

__version__ = "0.1.0"
