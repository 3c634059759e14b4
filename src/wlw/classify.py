"""Surface taxonomy from the first integral and integrated profile curves.

The decision tree follows the geometry.  Most inputs are decided on the
level set of the first integral (levelset.py) or in closed form; every such
report has termination None, and of the controls only rel_tol, the accuracy
asked of a level set, applies (and equilibrium_tol, the cylinder test):

* The rest point x0 = |a/b|, theta0 on the vertical: the Cylinder.
* b = 0, where sin(theta) = sin(theta0) (x/x0)^a: the Plane when
  sin(theta0) = 0, the round sphere of radius x0/|sin(theta0)| at a = 1,
  an Ovaloid from the axis to x_hi and back for other a > 0, with its poles
  from levelset.axis_rises, and for a < 0 a catenoid about its neck,
  CatenoidEntire for a >= -1 and CatenoidBounded below.
* The a < 0 round sphere sin(theta) = b x/(1 - a), the lone axis-meeting
  orbit of its family: radius (1 - a)/b, poles at R (cos(theta0) -+ 1).
* A state on the level of the a > 0 saddle (3 pi/2, a/b), to rounding
  (SADDLE_LEVEL_ULPS): the CylindricalAntinodoid, asymptotic to the
  cylinder x = a/b, with its crossings and theta range in closed form
  (see _separatrix_report).
* An orbit whose radius turns at two finite radii x_lo > 0 and x_hi < inf
  is periodic.  It is an Unduloid when sin(theta) has one sign at both
  turning radii, and otherwise winds.  A winding orbit, whose turning
  radii must be transversal, is a Nodoid when its rise dz per period has
  the sign of sin(theta) at x_hi, and an Antinodoid otherwise; its period,
  dz and self-crossings per period come from quadratures (see
  levelset.winding).
* An a > 0 orbit with x_lo = 0 and a finite, transversal x_hi that passes
  the saddle outside the capture band runs from the axis to x_hi and back.
  Its pole heights, the crossing of its two branches and its theta range
  come from quadratures and arcsin f_H (see levelset.axis_rises and
  axis_zero); the tag is Ovaloid when theta' keeps one sign, else
  PinchedSpheroid, Vesicle or ImmersedSpheroid by the pole gap.

Every other orbit runs both ways to the given budgets and is read off the
run - axis hits with pole ordering, bounded tangent oscillation, full
tangent turns with translation periodicity, or asymptotic capture by the
interior saddle.  These are the neighbours of the separatrix (a tangential
end near the rest-point radius |a/b| or, from the axis, a pass by the
saddle there), orbits with a failed quadrature, and levels that floats
cannot resolve to the run's rel_tol ((x/x0)^a overflowing at a far turning
radius).
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

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
from .numerics import MIN_RTOL, quad

# Half-width of the pinched-spheroid band: the pole heights are declared
# equal when they differ by less than this times x0.
POLE_ORDER_TOL = 1e-5

# Saddle-capture band in theta (around 3*pi/2 mod 2*pi) and in x (around a/b).
# A turning radius within this relative distance of the rest-point radius
# |a/b| counts as tangential, as does the critical radius of an axis orbit:
# such orbits run the full budgets.
CAPTURE_BAND = 1e-3

# Rounding allowance, in eps, of the test that a state lies on the saddle's
# level: |sin(theta0) - f_H(x0)| <= k eps (term_size(x0) + x0 |f_H'(x0)|).
# find_separatrix's brentq stops once half its bracket is below
# (xtol + rtol x)/2 <= MIN_RTOL x and returns the end with the smaller
# residual, so its roots lie within MIN_RTOL x0 = 4 eps x0 of the level's,
# which moves f_H by that times |f_H'(x0)|; f_H's own rounding gets the same
# 4 eps per unit of the terms it sums.
SADDLE_LEVEL_ULPS = MIN_RTOL / sys.float_info.epsilon

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

    # Beyond t0 = 2 x_min, t = t0 v^(-p) with p = 4/(q - 2) maps [t0, inf)
    # onto (0, 1] and the integrand 1/sqrt(m + t^q) onto
    # p t0^(1 - q/2) v / sqrt(1 - 2^(-q) v^(p q)), using x_min^q = -m.
    p = 4.0 / (q - 2.0)
    scale, tail = p * (2.0 * x_min) ** (1.0 - 0.5 * q), 2.0 ** -q

    def far(v):
        return scale * v / math.sqrt(1.0 - tail * v ** (p * q))

    total = (quad(near, 0.0, math.sqrt(x_min), epsabs=1e-12, epsrel=1e-12, limit=400)
             + quad(far, 0.0, 1.0, epsabs=1e-12, epsrel=1e-12, limit=400))
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
    if not x_hi < math.inf:
        return None
    if sys.float_info.epsilon * max(levelset.term_size(params, anchor, x)
                                    for x in (x_lo, x_hi) if x > 0.0) > controls.rel_tol:
        return None
    if 0.0 < x_lo and sin_lo * sin_hi > 0.0:
        # An Unduloid's report needs no quadrature, so its turning radii may
        # be tangential, as next to the a < 0 centre.
        return _report(SurfaceClass(SurfaceTag.UNDULOID), None, params, ic,
                       self_intersections=0, theta_range=_level_theta_range(params, ic, level))
    on_axis = x_lo == 0.0 and params.a > 0.0 and not _grazes_saddle(params, anchor, x_hi)
    if not (_transversal(params, x_hi, sin_hi)
            and (on_axis or (0.0 < x_lo and _transversal(params, x_lo, sin_lo)))):
        return None
    if on_axis:
        return _axis_report(params, ic, level)
    try:
        T, dz, crossings = levelset.winding(params, anchor, x_lo, x_hi)
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

    Its poles come from _axis_poles, 2 Z(x_hi) apart.  The tags keep the
    order of the integrated criteria: Ovaloid
    when theta' = f_H' keeps one sign, which, f_H' being monotone, holds
    when its limit on the axis has the sign of f_H'(x_hi); then
    PinchedSpheroid when the gap is within POLE_ORDER_TOL * x0 of 0, which
    counts its pinch on the axis as one crossing; then Vesicle or
    ImmersedSpheroid by the sign of the gap, with the crossings from the
    zero of f_H (levelset.axis_zero).  None when the quadrature fails or
    rounding loses that zero.
    """
    anchor, _, x_hi, _, sin_hi = level
    a, b = params.a, params.b
    ovaloid = levelset.axis_slope(params, anchor) * (a * sin_hi + b * x_hi) > 0.0
    try:
        x_z = None if ovaloid else levelset.axis_zero(params, anchor, x_hi)
    except ArithmeticError:
        x_z = None      # needed only when the poles are apart
    try:
        pole_z, z_hi, z_z = _axis_poles(params, ic, level, x_z)
    except (QuadratureFailure, ArithmeticError):
        return None
    gap = 2.0 * z_hi
    pinched = abs(gap) < POLE_ORDER_TOL * ic.x0
    if ovaloid:
        tag, crossings = SurfaceTag.OVALOID, 0
    elif pinched:
        tag, crossings = SurfaceTag.PINCHED_SPHEROID, 1
    elif z_z is None:
        return None
    else:
        tag = SurfaceTag.VESICLE if gap > 0.0 else SurfaceTag.IMMERSED_SPHEROID
        # the branches meet once when Z(x_hi) lies between 0 and Z(x_z)
        crossings = int(min(0.0, z_z) < z_hi < max(0.0, z_z))
    return _report(SurfaceClass(tag), None, params, ic, pole_z=pole_z,
                   self_intersections=crossings,
                   theta_range=_level_theta_range(params, ic, level))


def _axis_poles(params: Params, ic: InitialConditions, level: _Level,
                x_z: Optional[float] = None) -> tuple[tuple[float, float], float, Optional[float]]:
    """(pole_z, Z(x_hi), Z(x_z)) of an a > 0 orbit from the axis out to x_hi
    and back, from one quadrature; Z(x_z) is None without x_z.

    The poles lie 2 Z(x_hi) apart (levelset.axis_rises), and the branch
    through x0 is picked by the sign of cos(theta0): x grows from the
    backward pole to x_hi.  Raises QuadratureFailure or ArithmeticError
    when the quadrature fails.
    """
    xs = [ic.x0, level.x_hi] + ([] if x_z is None else [x_z])
    z0, z_hi, *z_z = levelset.axis_rises(params, level.anchor, level.x_hi, xs)
    gap = 2.0 * z_hi
    pole_z = (-z0, gap - z0) if math.cos(ic.theta0) > 0.0 else (z0 - gap, z0)
    return pole_z, z_hi, z_z[0] if z_z else None


def _on_saddle_level(params: Params, ic: InitialConditions) -> bool:
    """Whether (x0, theta0) lies on the level of the a > 0 saddle (3 pi/2, a/b).

    That level is anchored at the saddle, (a/b, -1), and the state lies on
    it when sin(theta0) and f_H(x0) agree to within SADDLE_LEVEL_ULPS eps
    times term_size(x0) + x0 |f_H'(x0)|: f_H's rounding, and its change
    when x0 moves by as many eps relative.  The saddle itself (x0 = a/b) is
    left to the equilibrium test and the run.
    """
    a, b = params.a, params.b
    x0 = ic.x0
    if not (a > 0.0 and b > 0.0) or x0 == a / b:
        return False
    try:
        saddle = levelset.Anchor(a / b, -1.0)
        f = levelset.f_H(params, saddle, x0)
        size = levelset.term_size(params, saddle, x0)
    except ArithmeticError:
        return False
    slope = a * f / x0 + b
    return (abs(math.sin(ic.theta0) - f)
            <= SADDLE_LEVEL_ULPS * sys.float_info.epsilon * (size + x0 * abs(slope)))


def _separatrix_report(params: Params, ic: InitialConditions) -> ClassificationReport:
    """The CylindricalAntinodoid through a state on the saddle's level, in closed form.

    On that level f_H' = a f_H/x + b vanishes only at x* = a/b, where
    f_H = -1: f_H falls monotonically from 0 on the axis to -1 at x* and
    rises beyond it to +1 at x_hi.  Both pieces are asymptotic to the
    cylinder x = x*, since 1 - f^2 has a double root there.

    Beyond x* the orbit leaves the saddle at theta = -pi/2, turns at x_hi
    (theta = pi/2) and returns at 3 pi/2, so theta's range is
    (-pi/2, 3 pi/2) + 2 pi k.  Its branches are z = z_hi -+ Z(x) with
    Z(x) = int_x^x_hi f/sqrt(1 - f^2) dx, and they cross where Z = 0.  Z > 0
    on [x_z, x_hi), where f > 0, and on (x*, x_z), where f < 0, Z falls
    monotonically from Z(x_z) > 0 to -inf, since f/sqrt(1 - f^2) ~
    -1/(f''(x*)^(1/2) (x - x*)) next to x*, with f''(x*) = b^2/a > 0: the
    branches cross exactly once.

    Inside x* the orbit runs from the axis, at theta = 0 or pi, into the
    saddle at -pi/2 or 3 pi/2; |f_H| < 1 on (0, x*), so x is monotone along
    it and it does not cross itself.  Its range is [-pi/2, 0] + 2 pi k when
    cos(theta0) > 0 and [pi, 3 pi/2] + 2 pi k otherwise.
    """
    x_star = params.a / params.b
    if ic.x0 > x_star:
        crossings, theta_range = 1, _arcsin_range(ic.theta0, 1.0, -0.5 * math.pi)
    else:
        lo, hi = (-0.5 * math.pi, 0.0) if math.cos(ic.theta0) > 0.0 else (math.pi, 1.5 * math.pi)
        crossings, theta_range = 0, _turns_about(ic.theta0, lo, hi)
    return _report(SurfaceClass(SurfaceTag.CYLINDRICAL_ANTINODOID), None, params, ic,
                   self_intersections=crossings, asymptotic_radius=x_star,
                   theta_range=theta_range)


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
    integrated orbits.  The Cylinder, the b = 0 family (Plane, Sphere,
    Ovaloid, CatenoidEntire, CatenoidBounded), the a < 0 sphere and the
    CylindricalAntinodoid on the saddle's level are returned in closed form,
    and the periodic classes (Unduloid, Nodoid, Antinodoid) and the
    axis-to-axis ones (Ovaloid, Vesicle, PinchedSpheroid, ImmersedSpheroid)
    are read off their level set, all without a run: termination is None,
    and of the controls only rel_tol, the accuracy asked of a level set,
    applies, beside equilibrium_tol, which tells the cylinder.  From the
    level set come period, z_shift, pole_z, self_intersections and
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
    level, sphere_radius = None, _sphere_radius_if_match(params, ic)
    if b == 0.0:
        report = _pure_linear_report(params, ic)
    elif is_equilibrium(params, ic, controls.equilibrium_tol):
        report = _report(SurfaceClass(SurfaceTag.CYLINDER, radius=ic.x0), None, params, ic,
                         asymptotic_radius=ic.x0, theta_range=(ic.theta0, ic.theta0))
    elif sphere_radius is not None:
        report = _sphere_report(params, ic, sphere_radius)
    elif _on_saddle_level(params, ic):
        report = _separatrix_report(params, ic)
    else:
        level = _level_set(params, ic)
        report = None if level is None else _level_set_report(params, ic, controls, level)
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


def _pure_linear_report(params: Params, ic: InitialConditions) -> Optional[ClassificationReport]:
    """A b = 0 report from its first integral sin(theta) = s0 (x/x0)^a, s0 = sin(theta0).

    theta' = a sin(theta)/x keeps one sign, and sin(theta) is 0 only
    on the axis (a > 0) or at infinity (a < 0), so theta's range is
    (0, pi) + 2 pi k when s0 > 0 and (-pi, 0) + 2 pi k when s0 < 0.  The
    Plane when s0 = 0 (to 1e-12); at a = 1 the round sphere of radius
    x0/|s0|; for other a > 0 an Ovaloid from the axis out to
    x_hi = x0 |s0|^(-1/a) and back, with its poles from levelset.axis_rises;
    for a < 0 a catenoid whose two branches leave the neck
    x0 |s0|^(-1/a) for infinity, CatenoidEntire for a >= -1 and
    CatenoidBounded below (see catenoid_asymptote).  Where x_hi lies
    beyond the float range the Ovaloid has no pole_z.  None when its
    quadrature fails; the caller then integrates.
    """
    a = params.a
    s0 = math.sin(ic.theta0)
    if abs(s0) < 1e-12:
        return _report(SurfaceClass(SurfaceTag.PLANE), None, params, ic,
                       theta_range=(ic.theta0, ic.theta0))
    if a == 1.0:
        return _sphere_report(params, ic, ic.x0 / abs(s0))
    theta_range = _arcsin_range(ic.theta0, math.copysign(1.0, s0), 0.0)
    if a < 0.0:
        tag = SurfaceTag.CATENOID_ENTIRE if a >= -1.0 else SurfaceTag.CATENOID_BOUNDED
        return _report(SurfaceClass(tag), None, params, ic, theta_range=theta_range)
    level = _level_set(params, ic)
    pole_z = None
    if level is not None and level.x_hi < math.inf:
        try:
            pole_z, _, _ = _axis_poles(params, ic, level)
        except (QuadratureFailure, ArithmeticError):
            return None
    return _report(SurfaceClass(SurfaceTag.OVALOID), None, params, ic, pole_z=pole_z,
                   theta_range=theta_range)


def _level_theta_range(params: Params, ic: InitialConditions,
                       level: Optional[_Level]) -> Optional[tuple[float, float]]:
    """theta's range over an orbit that turns at x_hi, from its level set.

    s = sin(theta) = +-1 at x_hi, and low is the arcsin of the least s f_H
    on the orbit (see _arcsin_range).  An unduloid has s = 1 at both turning
    radii.  None without a level set.
    """
    if level is None:
        return None
    s = level.sin_hi
    low = math.asin(levelset.f_min(params, level.anchor, level.x_lo, level.x_hi, s))
    return _arcsin_range(ic.theta0, s, low)


def _arcsin_range(theta0: float, s: float, low: float) -> tuple[float, float]:
    """theta's range over an orbit with s sin(theta) >= sin(low), s = +-1 where it turns.

    theta = arcsin f_H(x) on the branch where cos(theta) > 0 and
    s pi - arcsin f_H(x) on the other, which meet where sin(theta) = s.  So
    the range is [low, pi - low] for s = 1 and its mirror [low - pi, -low]
    for s = -1, about the s pi/2 + 2 pi k nearest theta0.
    """
    if s > 0.0:
        return _turns_about(theta0, low, math.pi - low)
    return _turns_about(theta0, low - math.pi, -low)


def _turns_about(theta0: float, lo: float, hi: float) -> tuple[float, float]:
    """(lo, hi) + 2 pi k, with k the turn that brings their midpoint nearest theta0."""
    shift = math.tau * round((theta0 - 0.5 * (lo + hi)) / math.tau)
    return lo + shift, hi + shift


def _sphere_report(params: Params, ic: InitialConditions, radius: float) -> ClassificationReport:
    """The round sphere through (x0, theta0), in closed form: the a < 0
    sphere, or any with a = 1, b = 0.

    theta' = s/radius along it, s = sign(sin(theta0)), so
    x = s radius sin(theta) and z = s radius (cos(theta0) - cos(theta)),
    with z = 0 at theta0.  theta runs over (0, pi) + 2 pi k for s = 1 and
    over (-pi, 0) + 2 pi k for s = -1; the backward pole lies where
    cos(theta) = 1 and the forward one where cos(theta) = -1.
    """
    s = math.copysign(1.0, math.sin(ic.theta0))
    c = math.cos(ic.theta0)
    return _report(SurfaceClass(SurfaceTag.SPHERE, radius=radius), None, params, ic,
                   pole_z=(s * radius * (c - 1.0), s * radius * (c + 1.0)),
                   self_intersections=0, theta_range=_arcsin_range(ic.theta0, s, 0.0))


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

    Only the integration fallback uses it; an orbit read off its level set
    takes its poles from levelset.axis_rises.
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

