"""Numerics for cylindrical Hardy-Sobolev inequalities: sharp constants,
extremal profiles, singular-weight quadrature oracles, a constrained
Rayleigh-quotient minimiser, and decay-rate checks.

The package publishes each module's ``__all__`` and the error classes."""

__version__ = "0.1.0"

from .asymptotics import *
from .closed_forms import *
from .cylgrid import *
from .errors import (
    ConvergenceDomainError,
    ConvergenceError,
    DomainError,
    FitDomainError,
    GridError,
    HscylError,
    ParameterDomainError,
    SingularityError,
    UsageError,
)
from .exponents import *
from .minimizer import *
from .quadrature import *
from .specfn import *
