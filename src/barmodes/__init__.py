"""Eigenvalue and stability toolkit for a damped elastic bar whose free end
carries a mass under spring, damper and velocity-feedback forces.

Three solver families are provided:

* ``conservative`` — real eigenfrequencies of the undamped limit;
* ``asymptotic`` — first-order complex-eigenvalue corrections and the
  self-excitation condition in closed form;
* ``fundsys`` — fully numerical complex eigenvalues via normal fundamental
  systems of solutions and a secant search for the zeros of the boundary
  residual.

``cli`` ties them together behind the ``barmodes`` command.
"""

from .params import DimensionlessParams, PhysicalParams, to_dimensionless, validate
from .conservative import ConservativeRoot, characteristic, find_roots
from .asymptotic import (
    ComplexEigenvalue,
    ExcitationReport,
    ForcedModeCoefficients,
    boundary_frequency,
    corrected_eigenvalue,
    critical_feedback,
    excitation_indicator,
    forced_mode,
    second_method_bracket,
    second_method_indicator,
)
from .fundsys import (
    BoundaryCoefficients,
    FundamentalMatrix,
    ModeShape,
    SolveOptions,
    SpectralPoint,
    StateVector,
    SweepRow,
    boundary_coefficients,
    delta,
    delta_subdivided,
    find_eigenvalue,
    integrate_fundamental,
    mode_shape,
    rhs_coefficients,
    state_derivative,
    sweep_feedback,
)

__all__ = [
    "BoundaryCoefficients",
    "ComplexEigenvalue",
    "ConservativeRoot",
    "DimensionlessParams",
    "ExcitationReport",
    "ForcedModeCoefficients",
    "FundamentalMatrix",
    "ModeShape",
    "PhysicalParams",
    "SolveOptions",
    "SpectralPoint",
    "StateVector",
    "SweepRow",
    "boundary_coefficients",
    "boundary_frequency",
    "characteristic",
    "corrected_eigenvalue",
    "critical_feedback",
    "delta",
    "delta_subdivided",
    "excitation_indicator",
    "find_eigenvalue",
    "find_roots",
    "forced_mode",
    "integrate_fundamental",
    "mode_shape",
    "rhs_coefficients",
    "second_method_bracket",
    "second_method_indicator",
    "state_derivative",
    "sweep_feedback",
    "to_dimensionless",
    "validate",
]

__version__ = "0.1.0"
