"""Numerical sufficiency checks for the isoperimetric problem on the
Randers Poincare disc: metric construction, length/area functionals under
four volume forms, extremality certificates, and perturbation trials."""

from .config import RandersConfig, VolumeForm
from .curves import Circle, PolarFourierCurve, check_admissible
from .errors import DomainError, VerificationError
from .functionals import QuadratureGrid, area, circle_closed_forms, length
from .isoperimetry import PerturbationSpec, deficit_value, run_trials
from .metric import (
    beta_covector,
    christoffel,
    disc_grid,
    finsler_norm,
    fundamental_tensor,
    potential,
    yasuda_shimada_residual,
)
from .variational import (
    ExtremalityCertificate,
    build_certificate,
    conjugate_scan,
    constraint_vector,
    el_residual,
    h1_along,
    hessian_velocity_closed,
    hessian_velocity_form,
    jacobi_coeffs,
    lambda_for_circle,
    normality,
    solve_lambda_numeric,
    weierstrass_E,
    weierstrass_closed,
)

__version__ = "0.1.0"

__all__ = [
    "Circle",
    "DomainError",
    "ExtremalityCertificate",
    "PerturbationSpec",
    "PolarFourierCurve",
    "QuadratureGrid",
    "RandersConfig",
    "VerificationError",
    "VolumeForm",
    "area",
    "beta_covector",
    "build_certificate",
    "check_admissible",
    "christoffel",
    "circle_closed_forms",
    "conjugate_scan",
    "constraint_vector",
    "deficit_value",
    "disc_grid",
    "el_residual",
    "finsler_norm",
    "fundamental_tensor",
    "h1_along",
    "hessian_velocity_closed",
    "hessian_velocity_form",
    "jacobi_coeffs",
    "lambda_for_circle",
    "length",
    "normality",
    "potential",
    "run_trials",
    "solve_lambda_numeric",
    "weierstrass_E",
    "weierstrass_closed",
    "yasuda_shimada_residual",
]
