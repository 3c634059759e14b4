"""Surface taxonomy from the first integral, without integrating the ODE.

The decision tree follows the geometry.  Every input is decided on the
level set of the first integral (levelset.py) or in closed form, so no
orbit is integrated, and the one setting is rel_tol, the accuracy asked of
a level set.  The closed forms are single orbits, and each gate
takes a state to be on one only to rounding: model.is_equilibrium for the
rest point and levelset.on_level for a named level, both to LEVEL_ULPS eps
of what they round.  A state off them by more is read off its own level set.

* The rest point x0 = |a/b|, theta0 on the vertical: the Cylinder.
* b = 0, where sin(theta) = sin(theta0) (x/x0)^a: the Plane on the level
  sin(theta) = 0, the round sphere of radius x0/|sin(theta0)| at a = 1,
  an Ovaloid from the axis to x_hi and back for other a > 0, with its poles
  from levelset.axis_rises, and for a < 0 a catenoid about its neck,
  CatenoidEntire for a >= -1 and CatenoidBounded below.
* The a < 0 round sphere sin(theta) = b x/(1 - a), the lone axis-meeting
  orbit of its family: radius (1 - a)/b, poles at R (cos(theta0) -+ 1).
* A state on the level of the a > 0 saddle (3 pi/2, a/b): the
  CylindricalAntinodoid, asymptotic to the cylinder x = a/b, with its
  crossings and theta range in closed form (see _separatrix_report).
* Every other input is read off its levelset.Level, resolved once from the
  initial state.  An orbit whose radius turns at two finite radii x_lo > 0
  and x_hi < inf is periodic.  It is an Unduloid when sin(theta) has one
  sign at both turning radii, and otherwise winds.  The Unduloid's report
  has no period (orbit_period gives it): its quadrature takes two to three
  times the Unduloid's own call, the 7th fastest of perfbench's 14 classify
  calls, so it would move their median.  A winding orbit is a Nodoid
  when its rise dz per period has the sign of sin(theta) at x_hi, and an
  Antinodoid otherwise; its period, dz and self-crossings per period come
  from quadratures (see levelset.winding).  Next to the separatrix a turning
  radius lies near the saddle radius a/b, where theta' is near 0; the
  quadrature resolves that end, so these neighbours are Antinodoids.
* An a > 0 orbit with x_lo = 0 and a finite x_hi runs from the axis to
  x_hi and back.  Its pole heights come from a quadrature
  (levelset.axis_rises) and its theta range from arcsin f_H; the tag is
  Ovaloid when theta' keeps one sign, else PinchedSpheroid, Vesicle or
  ImmersedSpheroid by the pole gap, and the crossings of its two branches
  follow from the tag (see _axis_report).  An orbit from the axis that
  passes next to the saddle, inside the separatrix, is one of the latter.

So the closed and periodic surfaces that do not cross themselves, the
embedded ones, are: periodic, the Unduloid and the Cylinder; closed, the
spheres, the Ovaloid and the Vesicle.  The PinchedSpheroid is the boundary
between the Vesicle and the ImmersedSpheroid, and every Nodoid, Antinodoid
and ImmersedSpheroid crosses itself (levelset.winding and _axis_report).

Lemma U (b > 0 after canonicalize): for a > 0 no level is an Unduloid, so
every embedded periodic surface but the Cylinder has a < 0.  Proof:
f_H' = a f_H/x + b and |f_H| <= 1 on [x_lo, x_hi].  f_H(x_lo) = 1 would give
f_H'(x_lo) = a/x_lo + b > 0, f_H > 1 just above x_lo; so f_H(x_lo) = -1, and
an Unduloid has f_H(x_hi) = -1 too.  f_H >= -1 next to both ends needs
f_H'(x_lo) = b - a/x_lo >= 0 and f_H'(x_hi) = b - a/x_hi <= 0: x_hi <= a/b
<= x_lo, the rest point x0 = a/b, the Cylinder, decided before the level set.

Where floats cannot resolve the level set - a turning radius outside the
float range, rounding of f_H beyond rel_tol on both end anchors (see
levelset.split), or a failed quadrature - classify_surface raises
Inconclusive with the reason, x_lo, x_hi and term_size as diagnostics.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass, replace
from typing import Optional

from . import levelset
from .errors import Inconclusive, InvalidParameter, QuadratureFailure, WrongSignRegime
from .model import REL_TOL, InitialConditions, Params, canonicalize, is_equilibrium

# Half-width of the pinched-spheroid band: the pole heights are declared
# equal when they differ by less than this times x0.
POLE_ORDER_TOL = 1e-5


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


def catenoid_asymptote(params: Params, ic: InitialConditions) -> Optional[float]:
    """Height asymptote z1 of the b = 0, a < -1 catenoid-type profile through (x0, theta0).

    Its first integral sin(theta) = sin(theta0) (x/x0)^a gives the neck
    x_min = x0 |sin(theta0)|^(-1/a), where the tangent is vertical, and
    |sin(theta)| = (x/x_min)^a.  z as a graph over the radius then
    satisfies z'(x) = x_min^(q/2)/sqrt(x^q - x_min^q) with q = -2a, and z1
    is its integral over [x_min, inf).  With t = (x_min/x)^q that is the
    Beta integral z1 = x_min B(1/2 - 1/q, 1/2)/q.  For -1 <= a < 0 the
    integral diverges and None is returned (the graph covers the whole axis).
    Raises InvalidParameter for b != 0 or sin(theta0) = 0 (a line).
    """
    a = params.a
    s0 = math.sin(ic.theta0)
    if params.b != 0.0:
        raise InvalidParameter(f"the catenoid asymptote requires b = 0, got b={params.b}")
    if s0 == 0.0:
        raise InvalidParameter("sin(theta0) = 0: the profile is a line")
    if a >= 0.0:
        raise WrongSignRegime(f"asymptote applies to a < 0, got a={a}")
    if -1.0 <= a < 0.0:
        return None
    x_min = ic.x0 * abs(s0) ** (-1.0 / a)
    # (a + 1)/(2a) is 1/2 - 1/q, written so that it keeps its digits near a = -1
    return (x_min * math.sqrt(math.pi) * math.gamma((a + 1.0) / (2.0 * a))
            / (-2.0 * a * math.gamma((2.0 * a + 1.0) / (2.0 * a))))


def _unresolved(reason: str, level: Optional[levelset.Level] = None,
                size: Optional[float] = None) -> Inconclusive:
    """The Inconclusive of a level set that floats cannot resolve, with the
    reason, the turning radii and the term_size of f_H as diagnostics."""
    def finite(v):
        return v if v is not None and math.isfinite(v) else None
    return Inconclusive(f"the level set cannot be resolved in floats: {reason}", diagnostics={
        "reason": reason,
        "x_lo": None if level is None else finite(level.x_lo),
        "x_hi": None if level is None else finite(level.x_hi),
        "term_size": finite(size),
    })


def _resolved_level(params: Params, ic: InitialConditions,
                    rel_tol: float) -> tuple[levelset.Level, float, float]:
    """(level, cut, size) through (x0, theta0), cut by levelset.split; Inconclusive
    where a turning radius lies outside the float range, or where f_H's
    rounding, eps times its term_size, exceeds rel_tol on both end anchors."""
    try:
        level = levelset.level(params, levelset.Anchor(ic.x0, math.sin(ic.theta0)))
    except ArithmeticError as e:
        raise _unresolved(f"floats cannot resolve the turning radii ({e})") from e
    if not level.x_hi < math.inf:
        raise _unresolved("the outer turning radius lies beyond the float range", level)
    if not (0.0 < level.x_lo or params.a > 0.0):
        raise _unresolved("the inner turning radius lies below the float range", level)
    max_size = rel_tol / sys.float_info.epsilon
    cut, size = levelset.split(level, max_size)
    if size > max_size:
        raise _unresolved("rounding of f_H exceeds rel_tol on both end anchors", level, size)
    return level, cut, size


def orbit_period(params: Params, ic: InitialConditions,
                 rel_tol: float = REL_TOL) -> Optional[float]:
    """The period of a periodic orbit through (x0, theta0), Unduloids included,
    from levelset.winding on its level resolved as classify_surface does; else None."""
    params, ic, _ = canonicalize(params, ic)
    try:
        level, cut, _ = _resolved_level(params, ic, rel_tol)
        periodic = level.x_lo > 0.0 and not is_equilibrium(params, ic)
        return levelset.winding(level, cut).period if periodic else None
    except (Inconclusive, QuadratureFailure, ArithmeticError):
        return None


def _level_set_report(params: Params, ic: InitialConditions,
                      rel_tol: float) -> ClassificationReport:
    """The report of a periodic or an axis-to-axis orbit, read off its level
    set; Inconclusive where _resolved_level raises it or a quadrature fails."""
    level, cut, size = _resolved_level(params, ic, rel_tol)
    _, _, x_lo, _, s_lo, s_hi = level
    if 0.0 < x_lo and s_lo * s_hi > 0.0:
        # The Unduloid's report carries no period (see classify_surface).
        return _report(SurfaceClass(SurfaceTag.UNDULOID), params, ic,
                       self_intersections=0, theta_range=_level_theta_range(ic, level))
    try:
        if x_lo == 0.0:
            return _axis_report(ic, level)
        T, dz, crossings = levelset.winding(level, cut)
    except QuadratureFailure as e:
        raise _unresolved(f"the quadrature failed ({e})", level, size) from e
    except ArithmeticError as e:
        raise _unresolved(f"rounding lost a root of f_H ({e})", level, size) from e
    # The loops curl toward the axis when the curve rises per period in the
    # direction it points at its outer turning radius.
    tag = SurfaceTag.NODOID if dz * s_hi > 0.0 else SurfaceTag.ANTINODOID
    return _report(SurfaceClass(tag), params, ic, period=T, z_shift=dz,
                   self_intersections=crossings, theta_range=None)


def _axis_report(ic: InitialConditions, level: levelset.Level) -> ClassificationReport:
    """The report of an a > 0 orbit from the axis out to x_hi and back.

    Its poles come from _axis_poles, 2 Z(x_hi) apart.  The tag is Ovaloid
    when theta' = f_H' keeps one sign, which, f_H' being monotone, holds
    when its limit on the axis has the sign of f_H'(x_hi); then
    PinchedSpheroid when the gap is within POLE_ORDER_TOL * x0 of 0, which
    counts its pinch on the axis as one crossing; then Vesicle or
    ImmersedSpheroid by the sign of the gap.

    Lemma A (b > 0 after canonicalize): the Vesicle does not cross itself
    and the ImmersedSpheroid crosses itself once.  Proof: while f_H > 0,
    f_H' = a f_H/x + b > 0, so an orbit whose f_H is positive next to the
    axis rises monotonically to +1: an Ovaloid.  Every other orbit whose
    theta' changes sign has f_H < 0 on (0, x_z), with x_z the one zero of
    f_H, so Z falls to Z(x_z) < 0 and then rises to Z(x_hi).  The branches
    z_pole + Z(x) and z_pole + 2 Z(x_hi) - Z(x) meet where Z(x) = Z(x_hi)
    inside (0, x_hi), which happens, once, exactly when Z(x_hi) lies
    between Z(x_z) and 0, that is when the gap 2 Z(x_hi) < 0.  Raises
    QuadratureFailure or ArithmeticError when the quadrature fails.
    """
    params, anchor, _, x_hi, _, s_hi = level
    a, b = params.a, params.b
    pole_z, gap = _axis_poles(ic, level)
    if levelset.axis_slope(params, anchor) * (a * s_hi + b * x_hi) > 0.0:
        tag = SurfaceTag.OVALOID
    elif abs(gap) < POLE_ORDER_TOL * ic.x0:
        tag = SurfaceTag.PINCHED_SPHEROID
    else:
        tag = SurfaceTag.VESICLE if gap > 0.0 else SurfaceTag.IMMERSED_SPHEROID
    crossings = int(tag in (SurfaceTag.PINCHED_SPHEROID, SurfaceTag.IMMERSED_SPHEROID))
    return _report(SurfaceClass(tag), params, ic, pole_z=pole_z,
                   self_intersections=crossings,
                   theta_range=_level_theta_range(ic, level))


def _axis_poles(ic: InitialConditions, level: levelset.Level) -> tuple[tuple[float, float], float]:
    """(pole_z, 2 Z(x_hi)) of an a > 0 orbit from the axis out to x_hi and
    back, from one quadrature.

    The poles lie 2 Z(x_hi) apart (levelset.axis_rises), and the branch
    through x0 is picked by the sign of cos(theta0): x grows from the
    backward pole to x_hi.  Raises QuadratureFailure or ArithmeticError
    when the quadrature fails.
    """
    z0, z_hi = levelset.axis_rises(level, [ic.x0, level.x_hi])
    gap = 2.0 * z_hi
    pole_z = (-z0, gap - z0) if math.cos(ic.theta0) > 0.0 else (z0 - gap, z0)
    return pole_z, gap


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
    return _report(SurfaceClass(SurfaceTag.CYLINDRICAL_ANTINODOID), params, ic,
                   self_intersections=crossings, asymptotic_radius=x_star,
                   theta_range=theta_range)


def classify_surface(params: Params, ic: InitialConditions,
                     rel_tol: float = REL_TOL) -> ClassificationReport:
    """Classify the rotational surface generated from (a, b, x0, theta0).

    Inputs with b < 0 are reduced to b > 0 by the orientation reflection and
    the report is translated back (canonicalized_b marks this).  No orbit is
    integrated: the Cylinder, the b = 0 family (Plane, Sphere, Ovaloid,
    CatenoidEntire, CatenoidBounded), the a < 0 sphere and the
    CylindricalAntinodoid on the saddle's level are returned in closed
    form, and the periodic classes (Unduloid, Nodoid, Antinodoid) and the
    axis-to-axis ones (Ovaloid, Vesicle, PinchedSpheroid, ImmersedSpheroid)
    are read off their level set, with period, z_shift, pole_z,
    self_intersections and theta_range.  rel_tol is the accuracy asked of
    a level set: eps times the terms f_H sums must stay within it.  Raises InvalidParameter unless rel_tol > 0,
    and Inconclusive, with the reason, x_lo, x_hi and term_size as
    diagnostics, where floats cannot resolve the level set: a turning
    radius outside the float range, rounding of f_H beyond rel_tol, or a
    failed quadrature.
    """
    if not rel_tol > 0.0:
        raise InvalidParameter("rel_tol must be > 0")
    cparams, cic, reflected = canonicalize(params, ic)
    report = _classify_canonical(cparams, cic, rel_tol)
    if not reflected:
        return report
    return replace(
        report,
        pole_z=None if report.pole_z is None else (report.pole_z[1], report.pole_z[0]),
        z_shift=None if report.z_shift is None else -report.z_shift,
        theta_range=None if report.theta_range is None
        else (report.theta_range[0] - math.pi, report.theta_range[1] - math.pi),
        canonicalized_b=True,
        params=params,
        ic=ic,
    )


def _classify_canonical(params: Params, ic: InitialConditions,
                        rel_tol: float) -> ClassificationReport:
    """The report of an input with b >= 0.

    The a < 0 sphere's level is anchored at x0 itself, with
    s = b x0/(1 - a): anchored at its equator, f_H would sum terms that
    cancel near the axis, and its rounding would take in states far off the
    sphere.  The a > 0 saddle's level is anchored at the saddle (a/b, -1);
    the saddle itself is left to the equilibrium test and the level set.
    """
    a, b, x0 = params.a, params.b, ic.x0
    if b == 0.0:
        return _pure_linear_report(params, ic)
    if is_equilibrium(params, ic):
        return _report(SurfaceClass(SurfaceTag.CYLINDER, radius=x0), params, ic,
                       asymptotic_radius=x0, theta_range=(ic.theta0, ic.theta0))
    if a < 0.0 and levelset.on_level(params, levelset.Anchor(x0, b * x0 / (1.0 - a)),
                                     x0, ic.theta0):
        return _sphere_report(params, ic, (1.0 - a) / b)
    if (a > 0.0 and x0 != a / b
            and levelset.on_level(params, levelset.Anchor(a / b, -1.0), x0, ic.theta0)):
        return _separatrix_report(params, ic)
    return _level_set_report(params, ic, rel_tol)


def _pure_linear_report(params: Params, ic: InitialConditions) -> ClassificationReport:
    """A b = 0 report from its first integral sin(theta) = s0 (x/x0)^a, s0 = sin(theta0).

    theta' = a sin(theta)/x keeps one sign, and sin(theta) is 0 only
    on the axis (a > 0) or at infinity (a < 0), so theta's range is
    (0, pi) + 2 pi k when s0 > 0 and (-pi, 0) + 2 pi k when s0 < 0.  The
    Plane when the state is on the level s0 = 0 (levelset.on_level, which
    leaves it the rounding of sin(theta0)); at a = 1 the round sphere of radius
    x0/|s0|; for other a > 0 an Ovaloid from the axis out to
    x_hi = x0 |s0|^(-1/a) and back, with its poles from levelset.axis_rises;
    for a < 0 a catenoid whose two branches leave the neck
    x0 |s0|^(-1/a) for infinity, CatenoidEntire for a >= -1 and
    CatenoidBounded below (see catenoid_asymptote).  Where x_hi lies
    beyond the float range the Ovaloid has no pole_z.  Raises Inconclusive
    when its quadrature fails.
    """
    a = params.a
    s0 = math.sin(ic.theta0)
    if levelset.on_level(params, levelset.Anchor(ic.x0, 0.0), ic.x0, ic.theta0):
        return _report(SurfaceClass(SurfaceTag.PLANE), params, ic,
                       theta_range=(ic.theta0, ic.theta0))
    if a == 1.0:
        return _sphere_report(params, ic, ic.x0 / abs(s0))
    theta_range = _arcsin_range(ic.theta0, math.copysign(1.0, s0), 0.0)
    if a < 0.0:
        tag = SurfaceTag.CATENOID_ENTIRE if a >= -1.0 else SurfaceTag.CATENOID_BOUNDED
        return _report(SurfaceClass(tag), params, ic, theta_range=theta_range)
    try:
        level = levelset.level(params, levelset.Anchor(ic.x0, s0))
    except ArithmeticError:
        level = None    # x_hi lies beyond the float range
    pole_z = None
    if level is not None and level.x_hi < math.inf:
        try:
            pole_z, _ = _axis_poles(ic, level)
        except (QuadratureFailure, ArithmeticError) as e:
            raise _unresolved(f"the quadrature failed ({e})", level) from e
    return _report(SurfaceClass(SurfaceTag.OVALOID), params, ic, pole_z=pole_z,
                   theta_range=theta_range)


def _level_theta_range(ic: InitialConditions, level: levelset.Level) -> tuple[float, float]:
    """theta's range over an orbit that turns at x_hi, from its level set.

    s_hi = sin(theta) = +-1 at x_hi, and low is the arcsin of the least
    s_hi f_H on the orbit (see _arcsin_range).  An unduloid has s = 1 at
    both turning radii.
    """
    return _arcsin_range(ic.theta0, level.s_hi, math.asin(levelset.f_min(level)))


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
    return _report(SurfaceClass(SurfaceTag.SPHERE, radius=radius), params, ic,
                   pole_z=(s * radius * (c - 1.0), s * radius * (c + 1.0)),
                   self_intersections=0, theta_range=_arcsin_range(ic.theta0, s, 0.0))


def _report(surface: SurfaceClass, params: Params, ic: InitialConditions,
            pole_z=None, period=None, z_shift=None, self_intersections=0,
            asymptotic_radius=None, theta_range=None) -> ClassificationReport:
    return ClassificationReport(
        surface=surface, pole_z=pole_z, period=period, z_shift=z_shift,
        self_intersections=self_intersections, asymptotic_radius=asymptotic_radius,
        theta_range=theta_range, canonicalized_b=False, params=params, ic=ic)
