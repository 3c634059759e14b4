"""Surface taxonomy from the first integral and integrated profile curves.

The decision tree follows the geometry: exact rest points and circles are
recognized algebraically, the pure linear case b = 0 is settled by the sign
of a, bounded orbits are read off their level set, and everything else is
read off one integration - axis hits with pole ordering, bounded tangent
oscillation, full tangent turns with translation periodicity, or asymptotic
capture by the interior saddle.

The a < 0 round sphere sin(theta) = b x/(1 - a), the lone axis-meeting orbit
of its family, is returned in closed form: radius (1 - a)/b, poles at
R (cos(theta0) -+ 1).  Otherwise the level set of the first integral
(levelset.py) decides, and every report it gives has termination None:

* An orbit whose radius turns at two finite radii x_lo > 0 and x_hi < inf,
  at both of which the tangent turns transversally, is periodic.  It is an
  Unduloid when sin(theta) has one sign at both turning radii, and
  otherwise winds.  A winding orbit is a Nodoid when its rise dz per period
  has the sign of sin(theta) at x_hi, and an Antinodoid otherwise; its
  period, dz and self-crossings per period come from quadratures (see
  levelset.self_crossings).
* An a > 0 orbit with x_lo = 0 and a finite, transversal x_hi that passes
  the saddle outside the capture band runs from the axis to x_hi and back.
  Its pole heights, the crossing of its two branches and its theta range
  come from quadratures and arcsin f_H (see levelset.axis_rise and
  axis_crossings); the tag is Ovaloid when theta' keeps one sign, else
  PinchedSpheroid, Vesicle or ImmersedSpheroid by the pole gap.

Every other orbit runs both ways to the given budgets: unbounded, with a
tangential end near the rest-point radius |a/b| or, from the axis, a pass
by the saddle there (the separatrix and its neighbours), with a failed
quadrature, or with a level set that floats cannot resolve to the run's
rel_tol ((x/x0)^a overflowing at a far turning radius).
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional

import numpy as np
from scipy.integrate import quad

from . import levelset
from .errors import Inconclusive, InvalidParameter, QuadratureFailure, WrongSignRegime
from .integrate import (
    EventKind,
    IntegrationControls,
    Termination,
    Trajectory,
    detect_period,
    find_self_intersections,
    integrate,
)
from .model import FirstIntegralValue, InitialConditions, Params, canonicalize, is_equilibrium

# Half-width of the pinched-spheroid band: the pole heights are declared
# equal when they differ by less than this times x0.
POLE_ORDER_TOL = 1e-5

# Saddle-capture band in theta (around 3*pi/2 mod 2*pi) and in x (around a/b).
# A turning radius within this relative distance of the rest-point radius
# |a/b| counts as tangential, as does the critical radius of an axis orbit:
# such orbits run the full budgets.
CAPTURE_BAND = 1e-3

# Periods of an integrated winding orbit over which _count_loops_per_period
# collects crossings.
PERIODS_READ = 2.1


class SurfaceTag(str, enum.Enum):
    PLANE = "Plane"
    SPHERE = "Sphere"
    CYLINDER = "Cylinder"
    OVALOID = "Ovaloid"
    CATENOID_ENTIRE = "CatenoidEntire"
    CATENOID_BOUNDED = "CatenoidBounded"
    VESICLE = "Vesicle"
    PINCHED_SPHEROID = "PinchedSpheroid"
    IMMERSED_SPHEROID = "ImmersedSpheroid"
    CYLINDRICAL_ANTINODOID = "CylindricalAntinodoid"
    ANTINODOID = "Antinodoid"
    UNDULOID = "Unduloid"
    NODOID = "Nodoid"


@dataclass(frozen=True)
class SurfaceClass:
    """Taxonomy tag; spheres and cylinders carry their radius.

    radius is None either when the tag has no radius or, for the b = 0,
    a = 1 family, when round spheres of every radius qualify.
    """

    tag: SurfaceTag
    radius: Optional[float] = None

    def __post_init__(self):
        if self.radius is not None and not (self.radius > 0.0):
            raise InvalidParameter(f"radius must be > 0, got {self.radius}")

    def __str__(self):
        return self.tag.value if self.radius is None else f"{self.tag.value}({self.radius:g})"


@dataclass(frozen=True)
class ClassificationReport:
    surface: SurfaceClass
    pole_z: Optional[tuple[float, float]]      # (z at backward pole, z at forward pole)
    period: Optional[float]
    z_shift: Optional[float]
    self_intersections: int
    asymptotic_radius: Optional[float]
    theta_range: Optional[tuple[float, float]]  # None when the tangent winds unboundedly
    canonicalized_b: bool
    params: Params
    ic: InitialConditions
    termination: Optional[Termination]          # None when no run was made


def special_solutions(params: Params) -> list[SurfaceClass]:
    """Isoparametric members of the family (a, b).

    b = 0: the plane always, plus round spheres of arbitrary radius when
    a = 1.  b != 0: the unique round sphere of radius |1-a|/|b| when a != 1,
    and the circular cylinder of radius |a/b|.
    """
    out: list[SurfaceClass] = []
    if params.b == 0.0:
        out.append(SurfaceClass(SurfaceTag.PLANE))
        if params.a == 1.0:
            out.append(SurfaceClass(SurfaceTag.SPHERE, radius=None))
        return out
    if params.a != 1.0:
        out.append(SurfaceClass(SurfaceTag.SPHERE, radius=abs(1.0 - params.a) / abs(params.b)))
    out.append(SurfaceClass(SurfaceTag.CYLINDER, radius=abs(params.a / params.b)))
    return out


def nodoid_threshold(params: Params) -> tuple[float, float]:
    """Initial radii (at theta0 = pi/2) separating the a < 0 classes.

    Returns (x_cyl, x_sph) = (-a/b, (1-a)/b): below x_cyl and between the
    two values the surface is unduloid-type, at x_cyl the cylinder, at x_sph
    the sphere, and beyond x_sph nodoid-type.
    """
    if params.a >= 0.0:
        raise WrongSignRegime(f"thresholds require a < 0, got a={params.a}")
    if not (params.b > 0.0):
        raise InvalidParameter(f"thresholds require b > 0, got b={params.b}")
    return -params.a / params.b, (1.0 - params.a) / params.b


def catenoid_asymptote(m: FirstIntegralValue, a: float) -> Optional[float]:
    """Height asymptote z1 of the b = 0, a < -1 catenoid-type profile.

    z as a graph over the radius satisfies z'(x) = sqrt(-m)/sqrt(m + x^(-2a)),
    so z1 = sqrt(-m) * integral over [x_min, inf) with x_min the neck radius
    (-m)^(-1/(2a)).  For -1 <= a < 0 the integral diverges and None is
    returned (the graph covers the whole axis).
    """
    if a >= 0.0:
        raise WrongSignRegime(f"asymptote applies to a < 0, got a={a}")
    if -1.0 <= a < 0.0:
        return None
    mval = m.m
    x_min = (-mval) ** (-1.0 / (2.0 * a))
    q = -2.0 * a  # > 2

    # Near the neck the integrand has an inverse-sqrt singularity; the
    # substitution t = x_min + u^2 makes it regular.
    def near(u):
        t = x_min + u * u
        return 2.0 * u / math.sqrt(mval + t**q)

    def far(t):
        return 1.0 / math.sqrt(mval + t**q)

    i1, e1 = quad(near, 0.0, math.sqrt(x_min), epsabs=1e-12, epsrel=1e-12, limit=400)
    i2, e2 = quad(far, 2.0 * x_min, np.inf, epsabs=1e-12, epsrel=1e-12, limit=400)
    total = i1 + i2
    if not math.isfinite(total) or (e1 + e2) > 1e-7 * max(1.0, abs(total)):
        raise QuadratureFailure(f"asymptote quadrature error {e1 + e2:.2e} too large")
    return math.sqrt(-mval) * total


def default_controls(params: Params, ic: InitialConditions) -> IntegrationControls:
    """Classification budgets; the arclength scales with the homothety size.

    rescale(lam) maps (a, b, x0) to (a, b/lam, lam*x0) and keeps the class, so
    the arclength budget grows with max(x0, |a/b|).
    """
    scale = max(ic.x0, abs(params.a / params.b) if params.b != 0.0 else 0.0, 1.0)
    return IntegrationControls(max_arclength=200.0 * scale,
                               max_full_turns=3,
                               max_vertical_tangents=12)


def _capture_hold_needed(a: float) -> float:
    # The saddle's eigenvalues are +-sqrt(a): residence inside the capture
    # band is limited to about 2*ln(band/eps)/sqrt(a) in double precision,
    # so the required hold must shrink with a.
    return min(50.0, 16.0 / math.sqrt(a))


def _capture_window(traj: Trajectory, params: Params) -> Optional[tuple[float, float]]:
    """The stretch of curve between the saddle captures nearest s = 0.

    A capture is a run of samples held inside the saddle band for at least
    _capture_hold_needed; None when there is none.  The window runs from
    the start of the nearest capture behind s = 0 to the end of the nearest
    one ahead of it, or to s_min or s_max on a side without one, so it
    leaves out the numerical divergence after each capture.
    """
    if params.a <= 0.0 or params.b <= 0.0:
        return None
    x_star = params.a / params.b
    dist_theta = np.abs(np.remainder(traj.theta - 1.5 * math.pi, math.tau))
    dist_theta = np.minimum(dist_theta, math.tau - dist_theta)
    inside = (dist_theta < CAPTURE_BAND) & (np.abs(traj.x - x_star) < CAPTURE_BAND)
    edges = np.flatnonzero(np.diff(np.concatenate(([0], inside.astype(np.int8), [0]))))
    stays = [(traj.s[i], traj.s[j - 1]) for i, j in zip(edges[::2], edges[1::2])
             if traj.s[j - 1] - traj.s[i] >= _capture_hold_needed(params.a)]
    if not stays:
        return None
    lo = max((s0 for s0, _ in stays if s0 < 0.0), default=traj.s_min)
    hi = min((s1 for _, s1 in stays if s1 > 0.0), default=traj.s_max)
    return lo, hi


def _monotone_theta(traj: Trajectory) -> bool:
    """Whether theta keeps one direction over the samples of a run.

    Only the integration fallback uses it; an orbit read off its level set
    compares theta' at the axis and at x_hi instead.
    """
    d = np.diff(traj.theta)
    tol = 1e-10
    return bool(np.all(d >= -tol) or np.all(d <= tol))


def _count_loops_per_period(traj: Trajectory, period: float) -> int:
    """Loops per period of an integrated winding orbit.

    Crossings are collected over PERIODS_READ periods and attributed to the
    period containing their first parameter, so pairs straddling a period
    boundary are not lost.
    """
    lo = max(0.0, traj.s_min)
    hi = min(lo + PERIODS_READ * period, traj.s_max)
    records = find_self_intersections(traj, window=(lo, hi))
    if not records:
        return 0
    return max(sum(1 for r in records if lo <= r.s_a < lo + period), 1)


class _Level(NamedTuple):
    """The level of the first integral anchored at the initial state, and its turning radii.

    sin_lo and sin_hi are f_H = +-1 at x_lo and x_hi, and nan at an end on
    the axis (0.0) or at infinity.
    """
    anchor: levelset.Anchor
    x_lo: float
    x_hi: float
    sin_lo: float
    sin_hi: float


def _level_set(params: Params, ic: InitialConditions) -> Optional[_Level]:
    """The level set of the orbit, or None where floats cannot resolve it.

    (x/x0)^a in f_H can leave the float range at far turning radii, for
    extreme x0, a or b; classify then runs the given controls and reads the
    report off the trajectory alone.
    """
    def sin_at(x):
        if not 0.0 < x < math.inf:
            return math.nan
        return math.copysign(1.0, levelset.f_H(params, anchor, x))

    try:
        anchor = levelset.Anchor(ic.x0, math.sin(ic.theta0))
        x_lo, x_hi = levelset.turning_radii(params, anchor)
        return _Level(anchor, x_lo, x_hi, sin_at(x_lo), sin_at(x_hi))
    except ArithmeticError:
        return None


def _transversal(params: Params, x_end: float, sin_end: float) -> bool:
    # f_H'(x) = a f_H(x)/x + b, and f_H = +-1 at a turning radius.
    return abs(sin_end * params.a + params.b * x_end) > CAPTURE_BAND * abs(params.a)


def _level_set_report(params: Params, ic: InitialConditions, controls: IntegrationControls,
                      level: _Level) -> Optional[ClassificationReport]:
    """The report of a periodic or an axis-to-axis orbit, read off its level
    set without a run.

    None when the orbit does not qualify or its level set cannot be trusted
    (see the module docstring); the caller then integrates.  f_H sums terms
    of size levelset.term_size, so rounding costs it that times eps: the
    level set is used only where this stays within controls.rel_tol, the
    accuracy a run would give.
    """
    anchor, x_lo, x_hi, sin_lo, sin_hi = level
    on_axis = x_lo == 0.0 and params.a > 0.0 and not _grazes_saddle(params, anchor, x_hi)
    if not (x_hi < math.inf and _transversal(params, x_hi, sin_hi)
            and (on_axis or (0.0 < x_lo and _transversal(params, x_lo, sin_lo)))):
        return None
    if sys.float_info.epsilon * max(levelset.term_size(params, anchor, x)
                                    for x in (x_lo, x_hi) if x > 0.0) > controls.rel_tol:
        return None
    if on_axis:
        return _axis_report(params, ic, level)
    if sin_lo * sin_hi > 0.0:
        return _report(SurfaceClass(SurfaceTag.UNDULOID), None, params, ic,
                       self_intersections=0, theta_range=_level_theta_range(params, ic, level))
    try:
        T, dz = levelset.period_and_shift(params, anchor, x_lo, x_hi)
        crossings = levelset.self_crossings(params, anchor, x_lo, x_hi, T, dz)
    except (QuadratureFailure, ArithmeticError):
        return None
    # The loops curl toward the axis when the curve rises per period in the
    # direction it points at its outer turning radius.
    tag = SurfaceTag.NODOID if dz * sin_hi > 0.0 else SurfaceTag.ANTINODOID
    return _report(SurfaceClass(tag), None, params, ic, period=T, z_shift=dz,
                   self_intersections=crossings, theta_range=None)


def _grazes_saddle(params: Params, anchor: levelset.Anchor, x_hi: float) -> bool:
    """Whether an a > 0 axis orbit passes the saddle within CAPTURE_BAND.

    f_H' = a f_H/x + b vanishes at the critical radius xc, where
    f_H = -b xc/a; that is -1, the saddle's level, only at xc = a/b.  An
    orbit through there, such as the separatrix from the axis, has a double
    root of 1 - f^2 inside (0, x_hi), which no quadrature resolves, so it
    counts as tangential, as a turning radius at a/b does.
    """
    xc = levelset._critical_radius(params, anchor)
    return xc is not None and xc < x_hi and not _transversal(params, xc, -1.0)


def _axis_report(params: Params, ic: InitialConditions,
                 level: _Level) -> Optional[ClassificationReport]:
    """The report of an a > 0 orbit from the axis out to x_hi and back.

    Its pole gap is 2 Z(x_hi) (levelset.axis_rise), and the branch through
    x0 is picked by the sign of cos(theta0): x grows from the backward pole
    to x_hi.  The tags keep the order of the integrated criteria: Ovaloid
    when theta' = f_H' keeps one sign, which, f_H' being monotone, holds
    when its limit on the axis has the sign of f_H'(x_hi); then
    PinchedSpheroid when the gap is within POLE_ORDER_TOL * x0 of 0, which
    counts its pinch on the axis as one crossing; then Vesicle or
    ImmersedSpheroid by the sign of the gap.  None when a quadrature fails.
    """
    anchor, _, x_hi, _, sin_hi = level
    a, b = params.a, params.b
    ovaloid = levelset.axis_slope(params, anchor) * (a * sin_hi + b * x_hi) > 0.0
    try:
        z_hi = levelset.axis_rise(params, anchor, x_hi)
        z0 = z_hi if ic.x0 == x_hi else levelset.axis_rise(params, anchor, x_hi, ic.x0)
        gap = 2.0 * z_hi
        pinched = abs(gap) < POLE_ORDER_TOL * ic.x0
        crossings = (0 if ovaloid else 1 if pinched
                     else levelset.axis_crossings(params, anchor, x_hi, z_hi))
    except (QuadratureFailure, ArithmeticError):
        return None
    pole_z = (-z0, gap - z0) if math.cos(ic.theta0) > 0.0 else (z0 - gap, z0)
    if ovaloid:
        tag = SurfaceTag.OVALOID
    elif pinched:
        tag = SurfaceTag.PINCHED_SPHEROID
    elif gap > 0.0:
        tag = SurfaceTag.VESICLE
    else:
        tag = SurfaceTag.IMMERSED_SPHEROID
    return _report(SurfaceClass(tag), None, params, ic, pole_z=pole_z,
                   self_intersections=crossings,
                   theta_range=_level_theta_range(params, ic, level))


def _sin_at_outer_turn(traj: Trajectory, level: Optional[_Level]) -> float:
    """sin(theta) = +-1 where the radius of a winding orbit turns outward.

    From the level set when it has a finite x_hi, else from the outermost
    sample, where the tangent is vertical to within a step.
    """
    if level is not None and level.x_hi < math.inf:
        return level.sin_hi
    return math.sin(traj.theta[np.argmax(traj.x)])


def classify_surface(params: Params, ic: InitialConditions,
                     controls: Optional[IntegrationControls] = None) -> ClassificationReport:
    """Classify the rotational surface generated from (a, b, x0, theta0).

    Inputs with b < 0 are reduced to b > 0 by the orientation reflection and
    the report is translated back (canonicalized_b marks this).  controls
    defaults to default_controls(params, ic) and bounds only the reports of
    integrated orbits.  The a < 0 sphere is returned in closed form, and the
    periodic classes (Unduloid, Nodoid, Antinodoid) and the axis-to-axis
    ones (Ovaloid, Vesicle, PinchedSpheroid, ImmersedSpheroid) are read off
    their level set without a run: termination is None, and of the
    controls only rel_tol, the accuracy asked of that level set, applies.
    From the level set come period, z_shift, pole_z, self_intersections and
    theta_range.  Raises Inconclusive when the integration budget ends
    before any criterion fires.
    """
    cparams, cic, reflected = canonicalize(params, ic)
    if controls is None:
        controls = default_controls(cparams, cic)
    report = _classify_canonical(cparams, cic, controls)
    if not reflected:
        return report
    return ClassificationReport(
        surface=report.surface,
        pole_z=None if report.pole_z is None else (report.pole_z[1], report.pole_z[0]),
        period=report.period,
        z_shift=None if report.z_shift is None else -report.z_shift,
        self_intersections=report.self_intersections,
        asymptotic_radius=report.asymptotic_radius,
        theta_range=None if report.theta_range is None
        else (report.theta_range[0] - math.pi, report.theta_range[1] - math.pi),
        canonicalized_b=True,
        params=params,
        ic=ic,
        termination=report.termination,
    )


def _classify_canonical(params: Params, ic: InitialConditions,
                        controls: IntegrationControls) -> ClassificationReport:
    a, b = params.a, params.b

    if b == 0.0:
        return _classify_pure_linear(params, ic, controls)

    if is_equilibrium(params, ic, controls.equilibrium_tol):
        traj = integrate(params, ic, controls)
        return ClassificationReport(
            surface=SurfaceClass(SurfaceTag.CYLINDER, radius=ic.x0),
            pole_z=None, period=None, z_shift=None, self_intersections=0,
            asymptotic_radius=ic.x0,
            theta_range=(ic.theta0, ic.theta0),
            canonicalized_b=False, params=params, ic=ic,
            termination=traj.termination)

    sphere_radius = _sphere_radius_if_match(params, ic)
    if sphere_radius is not None:
        return _sphere_report(params, ic, sphere_radius)

    level = _level_set(params, ic)
    if level is not None:
        report = _level_set_report(params, ic, controls, level)
        if report is not None:
            return report
    traj = integrate(params, ic, controls)
    pole_z = _pole_heights(traj)
    captured = _capture_window(traj, params)
    winding = [e for e in traj.events_of(EventKind.FULL_TURN)
               if abs(round((e.state.theta - ic.theta0) / math.tau)) >= 1]

    if captured is not None and not _ends_on_axis_both(traj):
        # Count crossings of the curve proper, not of the post-capture
        # numerical divergence: the window ends inside the capture bands.
        loops = find_self_intersections(traj, window=captured)
        return _report(SurfaceClass(SurfaceTag.CYLINDRICAL_ANTINODOID), traj, params, ic,
                       self_intersections=len(loops),
                       asymptotic_radius=a / b,
                       theta_range=traj.theta_range())

    if winding:
        period, z_shift = detect_period(traj)
        # The loops curl toward the axis when the curve rises per period in
        # the direction it points at its outer turning radius.
        toward_axis = z_shift * _sin_at_outer_turn(traj, level) > 0.0
        tag = SurfaceTag.NODOID if toward_axis else SurfaceTag.ANTINODOID
        return _report(SurfaceClass(tag), traj, params, ic,
                       period=period, z_shift=z_shift,
                       self_intersections=_count_loops_per_period(traj, period),
                       theta_range=None)

    if pole_z is not None:
        if _monotone_theta(traj):
            if a < 0.0:
                return _report(SurfaceClass(SurfaceTag.SPHERE, radius=float(traj.x.max())),
                               traj, params, ic, pole_z=pole_z, self_intersections=0,
                               theta_range=traj.theta_range())
            return _report(SurfaceClass(SurfaceTag.OVALOID), traj, params, ic,
                           pole_z=pole_z, self_intersections=0,
                           theta_range=traj.theta_range())
        z1, z2 = pole_z
        if abs(z2 - z1) < POLE_ORDER_TOL * ic.x0:
            tag = SurfaceTag.PINCHED_SPHEROID
        elif z2 > z1:
            tag = SurfaceTag.VESICLE
        else:
            tag = SurfaceTag.IMMERSED_SPHEROID
        loops = find_self_intersections(traj)
        return _report(SurfaceClass(tag), traj, params, ic, pole_z=pole_z,
                       self_intersections=len(loops), theta_range=traj.theta_range())

    span = traj.theta.max() - traj.theta.min()
    truncated = {traj.termination, traj.termination_backward} & {
        Termination.MAX_STEPS, Termination.STEP_FAILURE}
    if a < 0.0 and span < math.tau and not truncated:
        return _report(SurfaceClass(SurfaceTag.UNDULOID), traj, params, ic,
                       self_intersections=0,
                       theta_range=_level_theta_range(params, ic, level)
                       or traj.theta_range())

    raise Inconclusive(
        "no classification criterion fired before the integration budget ended",
        diagnostics={
            "termination": traj.termination.value,
            "termination_backward":
                traj.termination_backward.value if traj.termination_backward else None,
            "theta_span": span,
            "s_max": traj.s_max,
            "events": [e.kind.value for e in traj.events],
        })


def _classify_pure_linear(params: Params, ic: InitialConditions,
                          controls: IntegrationControls) -> ClassificationReport:
    a = params.a
    sin_t0 = math.sin(ic.theta0)

    if abs(sin_t0) < 1e-12:
        traj = integrate(params, ic, controls)
        return _report(SurfaceClass(SurfaceTag.PLANE), traj, params, ic,
                       self_intersections=0, theta_range=traj.theta_range())

    # Bound the needed arclength by the extreme radius from the first
    # integral: x'^2 = 1 + m x^(2a) pins max x (a > 0) or the neck (a < 0).
    m = -(sin_t0 * sin_t0) * ic.x0 ** (-2.0 * a)
    x_extreme = (-m) ** (-1.0 / (2.0 * a))
    scale = max(ic.x0, x_extreme, 1.0)
    run = replace(controls, max_arclength=min(40.0 * scale, controls.max_arclength))
    traj = integrate(params, ic, run)

    if a > 0.0:
        surface = (SurfaceClass(SurfaceTag.SPHERE, radius=ic.x0 / abs(sin_t0)) if a == 1.0
                   else SurfaceClass(SurfaceTag.OVALOID))
        return _report(surface, traj, params, ic, pole_z=_pole_heights(traj),
                       self_intersections=0,
                       theta_range=_level_theta_range(params, ic, _level_set(params, ic))
                       or traj.theta_range())
    tag = SurfaceTag.CATENOID_ENTIRE if a >= -1.0 else SurfaceTag.CATENOID_BOUNDED
    return _report(SurfaceClass(tag), traj, params, ic,
                   self_intersections=0, theta_range=traj.theta_range())


def _level_theta_range(params: Params, ic: InitialConditions,
                       level: Optional[_Level]) -> Optional[tuple[float, float]]:
    """theta's range over an orbit that turns at x_hi, from its level set.

    theta = arcsin f_H(x) on the branch where cos(theta) > 0 and
    s pi - arcsin f_H(x) on the other, s = sin(theta) = +-1 at x_hi; the two
    meet there.  With low = arcsin of the least s f_H on the orbit, the
    range is [low, pi - low] for s = 1 and its mirror [low - pi, -low] for
    s = -1, about the s pi/2 + 2 pi k nearest theta0.  An unduloid has
    s = 1 at both turning radii.  None without a level set.
    """
    if level is None:
        return None
    s = level.sin_hi
    low = math.asin(levelset.f_min(params, level.anchor, level.x_lo, level.x_hi, s))
    shift = math.tau * round((ic.theta0 - s * 0.5 * math.pi) / math.tau)
    if s > 0.0:
        return low + shift, math.pi - low + shift
    return low - math.pi + shift, -low + shift


def _sphere_report(params: Params, ic: InitialConditions, radius: float) -> ClassificationReport:
    """The a < 0 round sphere through (x0, theta0), in closed form.

    theta' = 1/radius along it, so x = radius sin(theta) and
    z = radius (cos(theta0) - cos(theta)), with z = 0 at theta0.  With
    alpha = theta0 mod 2 pi in (0, pi), the poles lie at theta0 - alpha
    behind and theta0 - alpha + pi ahead.
    """
    start = ic.theta0 - ic.theta0 % math.tau
    c = math.cos(ic.theta0)
    return _report(SurfaceClass(SurfaceTag.SPHERE, radius=radius), None, params, ic,
                   pole_z=(radius * (c - 1.0), radius * (c + 1.0)), self_intersections=0,
                   theta_range=(start, start + math.pi))


def _sphere_radius_if_match(params: Params, ic: InitialConditions) -> Optional[float]:
    """Radius of the round sphere when the initial data lies on it, a < 0 only.

    For a > 0 the sphere is an interior member of the ovaloid family and is
    reported as Ovaloid; for a < 0 it is the lone axis-meeting solution and
    gets its own tag.
    """
    if params.a >= 0.0:
        return None
    kappa = params.b / (1.0 - params.a)
    if kappa == 0.0:
        return None
    target = kappa * ic.x0
    if abs(math.sin(ic.theta0) - target) <= 1e-9 * max(1.0, abs(target)):
        return abs((1.0 - params.a) / params.b)
    return None


def _ends_on_axis_both(traj: Trajectory) -> bool:
    return (traj.termination == Termination.AXIS_REACHED
            and traj.termination_backward == Termination.AXIS_REACHED)


def _pole_heights(traj: Trajectory) -> Optional[tuple[float, float]]:
    """z at the backward and forward ends of a run that reaches the axis both
    ways, else None.

    Only the integration fallback and the b = 0 profiles use it; an orbit
    read off its level set takes its poles from levelset.axis_rise.
    """
    if not _ends_on_axis_both(traj):
        return None
    return float(traj.z[0]), float(traj.z[-1])


def _report(surface: SurfaceClass, traj: Optional[Trajectory], params: Params,
            ic: InitialConditions,
            pole_z=None, period=None, z_shift=None, self_intersections=0,
            asymptotic_radius=None, theta_range=None) -> ClassificationReport:
    return ClassificationReport(
        surface=surface, pole_z=pole_z, period=period, z_shift=z_shift,
        self_intersections=self_intersections, asymptotic_radius=asymptotic_radius,
        theta_range=theta_range, canonicalized_b=False, params=params, ic=ic,
        termination=None if traj is None else traj.termination)

