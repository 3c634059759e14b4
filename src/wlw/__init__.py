"""Numerical laboratory for rotational surfaces with kappa1 = a*kappa2 + b."""

from .classify import (
    ClassificationReport,
    SurfaceClass,
    SurfaceTag,
    catenoid_asymptote,
    classify_surface,
    special_solutions,
)
from .integrate import (
    EventKind,
    EventRecord,
    IntegrationControls,
    Termination,
    Trajectory,
    check_horizontal_symmetry,
    detect_period,
    find_self_intersections,
    integrate,
)
from .model import (
    InitialConditions,
    Params,
    ProfileState,
    principal_curvatures,
    reflect_b,
    rescale,
    rhs,
)
from .phaseplane import (
    CriticalPoint,
    PhasePortrait,
    PortraitSpec,
    SingularityKind,
    critical_points,
    find_separatrix,
    phase_portrait,
)
from .variational import (
    ExpEnergyParams,
    PowerEnergyParams,
    closure_integral,
    critical_scale,
    el_residual_exp,
    el_residual_power,
    exponent_map,
    functional_value,
    inverse_exponent_map,
)

__version__ = "0.1.0"

__all__ = [
    "ClassificationReport", "SurfaceClass", "SurfaceTag", "catenoid_asymptote",
    "classify_surface", "special_solutions",
    "EventKind", "EventRecord", "IntegrationControls", "Termination", "Trajectory",
    "check_horizontal_symmetry", "detect_period", "find_self_intersections", "integrate",
    "InitialConditions", "Params", "ProfileState",
    "principal_curvatures", "reflect_b", "rescale", "rhs",
    "CriticalPoint", "PhasePortrait", "PortraitSpec", "SingularityKind",
    "critical_points", "find_separatrix", "phase_portrait",
    "ExpEnergyParams", "PowerEnergyParams", "closure_integral", "critical_scale",
    "el_residual_exp", "el_residual_power",
    "exponent_map", "functional_value", "inverse_exponent_map",
]
