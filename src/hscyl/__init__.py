"""Numerics for cylindrical Hardy-Sobolev inequalities: sharp constants,
extremal profiles, singular-weight quadrature oracles, a constrained
Rayleigh-quotient minimiser, and decay-rate checks."""

__version__ = "0.1.0"

from .asymptotics import (
    DecayFit,
    DecayVerdict,
    RaySamples,
    check_decay_bounds,
    estimate_core_scale,
    fit_decay,
    local_sup_ratio,
    sample_ray,
)
from .closed_forms import (
    ExtremalParams,
    ShiftedQuadraticParams,
    SharpConstant,
    beta_integral_full,
    beta_integral_radial,
    extremal_profile,
    extremal_v,
    fundamental_solution,
    kelvin_transform,
    multi_subspace_coefficients,
    multi_subspace_solution,
    shifted_power_profile,
    shifted_power_solution,
    sharp_constant_K,
)
from .cylgrid import (
    CylGrid,
    GridSpec,
    build_grid,
    cyl_laplacian,
    dump_grid,
    el_residual,
    gradient_energy,
    load_grid,
    shifted_quadratic_residual,
    window_grid,
)
from .errors import (
    ConvergenceDomainError,
    ConvergenceError,
    DomainError,
    FitDomainError,
    GridError,
    HscylError,
    InternalConsistencyError,
    ParameterDomainError,
    SingularityError,
    UsageError,
)
from .exponents import (
    ExponentContext,
    ExponentReport,
    admissible,
    aux_exponents,
    critical_pair,
    galaxy_mass_inside,
    galaxy_mass_window,
    hs_conjugate,
)
from .minimizer import (
    DiscreteRayleigh,
    MinimizeOptions,
    MinimizeResult,
    minimize_rayleigh,
)
from .quadrature import (
    CylindricalDomain,
    QuadratureResult,
    integrate_cylindrical,
    integrate_radial,
    singular_newtonian_integral,
)
from .specfn import ball_volume, beta, log_gamma, sphere_measure
