"""Numerical laboratory for rotational surfaces with kappa1 = a*kappa2 + b."""

from .classify import (
    ClassificationReport,
    SurfaceClass,
    SurfaceTag,
    catenoid_asymptote,
    classify_surface,
    nodoid_threshold,
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
    classify_singularity,
    critical_points,
    find_separatrix,
    linearize,
    phase_portrait,
)
from .variational import (
    CriticalCurveScale,
    ExpEnergyParams,
    PowerEnergyParams,
    closure_integral,
    critical_curve_exp,
    critical_curve_power,
    el_residual_exp,
    el_residual_power,
    exponent_map,
    functional_value,
    inverse_exponent_map,
)

__version__ = "0.1.0"

__all__ = [
    "ClassificationReport", "SurfaceClass", "SurfaceTag", "catenoid_asymptote",
    "classify_surface", "nodoid_threshold", "special_solutions",
    "EventKind", "EventRecord", "IntegrationControls", "Termination", "Trajectory",
    "check_horizontal_symmetry", "detect_period", "find_self_intersections", "integrate",
    "InitialConditions", "Params", "ProfileState",
    "principal_curvatures", "reflect_b", "rescale", "rhs",
    "CriticalPoint", "PhasePortrait", "PortraitSpec", "SingularityKind",
    "classify_singularity", "critical_points", "find_separatrix", "linearize",
    "phase_portrait",
    "CriticalCurveScale", "ExpEnergyParams", "PowerEnergyParams", "closure_integral",
    "critical_curve_exp", "critical_curve_power", "el_residual_exp", "el_residual_power",
    "exponent_map", "functional_value", "inverse_exponent_map",
]
