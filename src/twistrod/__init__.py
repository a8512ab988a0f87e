"""Twist-buckling of thin elastic rods with variable cross-section.

Exact critical torque for an arbitrary positive stiffness profile, an
independent shooting eigensolver to validate it, the volume-and-length
isoperimetric bound with its equality case, and constrained shape
optimization confirming that the constant cross-section is optimal.
"""

from .anisotropic import (
    AnisotropicRodSpec,
    AnisotropicSection,
    effective_inertia,
    first_root_anisotropic,
    reduce_to_isotropic,
    shoot_anisotropic,
)
from .errors import (
    EigenvalueConsistencyError,
    QuadratureError,
    RootSearchError,
)
from .greenhill import (
    BucklingResult,
    ModeShape,
    convergence_study,
    critical_torque,
    critical_torque_constant,
    critical_torque_value,
    mode_shape,
)
from .isoperimetric import (
    HolderInstance,
    IsoperimetricReport,
    holder_check,
    holder_conjugate,
    holder_exponents_for_law,
    upper_bound,
    verify_bound,
)
from .optimizer import (
    OptimizationProblem,
    OptimizationTrace,
    brute_force_segments,
    objective,
    optimize,
)
from .oracle import ShootingResult, critical_torque_oracle, eigenvalues_in, shoot
from .shape import (
    AreaProfile,
    CrossSectionLaw,
    RodSpec,
    ShapeFunction,
    area_profile,
    integrate,
)
from .transform import CoordinateMap, physical_length

__version__ = "0.1.0"

__all__ = [
    "AnisotropicRodSpec",
    "AnisotropicSection",
    "AreaProfile",
    "BucklingResult",
    "CoordinateMap",
    "CrossSectionLaw",
    "EigenvalueConsistencyError",
    "HolderInstance",
    "IsoperimetricReport",
    "ModeShape",
    "OptimizationProblem",
    "OptimizationTrace",
    "QuadratureError",
    "RodSpec",
    "RootSearchError",
    "ShapeFunction",
    "ShootingResult",
    "area_profile",
    "brute_force_segments",
    "convergence_study",
    "critical_torque",
    "critical_torque_constant",
    "critical_torque_oracle",
    "critical_torque_value",
    "effective_inertia",
    "eigenvalues_in",
    "first_root_anisotropic",
    "holder_check",
    "holder_conjugate",
    "holder_exponents_for_law",
    "integrate",
    "mode_shape",
    "objective",
    "optimize",
    "physical_length",
    "reduce_to_isotropic",
    "shoot",
    "shoot_anisotropic",
    "upper_bound",
    "verify_bound",
]
