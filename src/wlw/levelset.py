"""The first integral of the profile ODE for every a and b, and what it gives.

Along a profile curve d(sin theta)/ds = cos(theta) theta', so sin(theta) as a
function of x solves the linear ODE du/dx = a u/x + b.  Its solution through
a state (x_r, s_r = sin theta_r) of the orbit is

    f_H(x) = (x/x_r)^a s_r + b x lam E((a - 1) lam),    lam = ln(x/x_r),

with E(y) = expm1(y)/y and E(0) = 1, and sin(theta) = f_H(x) along the whole
orbit.  A level of the first integral is carried as such an anchor, not as
a scalar H, so this one expression serves every b and every a: a = 1, where
it is x (s_r/x_r + b lam), and a near 1, where the terms of a scalar form
such as x^(-a) (sin(theta) - b x/(1 - a)) cancel.  At b = 0 it is
s_r (x/x_r)^a, which conserves sin(theta)^2 x^(-2a) along the orbit.

The radius of an orbit stays in the component of {x > 0 : |f_H(x)| <= 1}
that contains x0.  Its finite ends are the turning radii, where the tangent
is vertical; an end at 0 means the orbit reaches the axis, at infinity that
it is unbounded.  Between two finite ends |cos theta| = sqrt(1 - f_H^2), so
one period of the (x, theta) motion has arclength T = 2 int dx/sqrt(1 - f^2)
and rises by dz = 2 int f/sqrt(1 - f^2) dx over the component.

A Level is the one resolved form of a level: level(params, anchor) finds
its ends and the sign of f_H at each once, and every query on the
component (split, winding, axis_rises, f_min) takes the Level.

At a vertical tangent the profile is mirror-symmetric, so every branch of a
periodic profile is z = k dz + Z(x) or z = (k + 1) dz - Z(x), with
Z(x) = int_{x_lo}^x f/sqrt(1 - f^2) dx.  Two branches of one kind are
translates and never cross; a rising and a falling branch cross where
2 Z(x)/dz is an integer.  That gives the self-crossings per period of the
whole curve in closed form (winding).

For a > 0, f_H(0) = 0, and an orbit whose component reaches the axis runs
from the axis out to x_hi and back: it closes.  With Z(x) = int_0^x
f/sqrt(1 - f^2) dx its branches are z = z_pole + Z(x) and
z_pole + 2 Z(x_hi) - Z(x), so its poles lie 2 Z(x_hi) apart (axis_rises),
and the branches cross where Z(x) = Z(x_hi) inside (0, x_hi): once on an
ImmersedSpheroid and nowhere on the other axis classes (classify._axis_report).
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple, Optional

from .model import LEVEL_ULPS, Params
from .numerics import MIN_RTOL, brentq, cumulative_quad

# brentq's absolute tolerance on a turning radius, relative to the radius.
_RADIUS_RTOL = 1e-15
# Relative accuracy asked of the period and shift quadratures.
_QUAD_RTOL = 1e-12
# |ln x| below which exp(ln x) is a normal float.
_LOG_FLOAT_RANGE = 708.0
# log2 of the largest factor by which a step of _end may grow (x/x_r)^a.
_POWER_STEP = 512.0
# Bisection steps of split's cut between the end anchors, in phi on [0, pi].
_SPLIT_STEPS = 40
# The phi next to each turning radius that its own anchor serves whatever
# split's cut: there 1 - f^2 vanishes with the rise from the end, which no
# other anchor gives exactly.
_END_PHI = math.pi / 64.0


class Anchor(NamedTuple):
    """A state on a level of the first integral: radius x > 0, s = sin(theta)."""
    x: float
    s: float


def f_H(params: Params, anchor: Anchor, x: float) -> float:
    """sin(theta) at radius x on the level through anchor.

    Where expm1(y) overflows, x expm1(y) is taken as x_r (x/x_r)^a - x,
    which is finite.  At b = 0, s_r = 0 it is 0, also where (x/x_r)^a overflows.
    Raises FloatingPointError where x/x_r underflows to 0.
    """
    a, b = params.a, params.b
    x_r, s_r = anchor
    ratio = x / x_r
    if ratio == 0.0:
        raise FloatingPointError(f"x/x_r = {x}/{x_r} underflows to 0")
    lam = math.log(ratio)
    y = (a - 1.0) * lam     # lam E(y) = expm1(y)/(a - 1), and lam at y = 0
    power = ratio ** a if s_r or b else 0.0     # it only multiplies s_r and b
    try:
        rise = math.expm1(y) / (a - 1.0) if y != 0.0 else lam
    except OverflowError:
        return s_r * power + b * (x_r * power - x) / (a - 1.0)
    return s_r * power + b * x * rise


def _critical_radius(params: Params, anchor: Anchor) -> Optional[float]:
    """The one x > 0 with f_H'(x) = 0, or None; f_H is monotone on either side.

    f_H' = a f_H/x + b vanishes where f_H = -b x/a, that is where
    (x/x_r)^(a - 1) = 1 + m, m = -(a - 1) k, k = (a s_r + b x_r)/d and
    d = a ((a - 1) s_r + b x_r): ln(x/x_r) = -k ln(1 + m)/m.  1 + m = b x_r/d
    exactly, and is taken so: None unless it is > 0 (not at b = 0), and
    ln(1 + m) is its log where m < -1/2, log1p(m) elsewhere.  None also when
    that radius lies outside the float range, since f_H is then monotone
    over every float x > 0.
    """
    a, b = params.a, params.b
    x_r, s_r = anchor
    d = a * ((a - 1.0) * s_r + b * x_r)
    if d == 0.0:
        return None     # f_H is b x/(1 - a) or s_r x/x_r, or a = 0 and f_H' = b
    one_plus_m = b * x_r / d
    if not one_plus_m > 0.0:
        return None
    k = (a * s_r + b * x_r) / d
    m = -(a - 1.0) * k
    log_1pm = math.log(one_plus_m) if m < -0.5 else math.log1p(m)
    log_xc = math.log(x_r) - k * (log_1pm / m if m != 0.0 else 1.0)
    return math.exp(log_xc) if abs(log_xc) < _LOG_FLOAT_RANGE else None


def _unbounded(params: Params, anchor: Anchor, outward: bool) -> bool:
    """Whether |f_H| grows without bound as x -> inf (outward) or x -> 0.

    f_H = C (x/x_r)^a + b x/(1 - a) with C = s_r - b x_r/(1 - a) for a != 1,
    and x (s_r/x_r + b lam) at a = 1.
    """
    a, b = params.a, params.b
    x_r, s_r = anchor
    if outward:
        return b != 0.0 or (a > 0.0 and s_r != 0.0)
    return a < 0.0 and s_r != b * x_r / (1.0 - a)


def step_factor(params: Params) -> float:
    """The factor by which _end steps a radius where (x/x_r)^a grows, outward
    for a > 0 and toward the axis for a < 0: 2, or 2^(_POWER_STEP/|a|) where
    that is less, so that (x/x_r)^a grows by at most 2^_POWER_STEP a step and
    stays finite.  Where the power decays _end steps by 2."""
    return 2.0 ** min(1.0, _POWER_STEP / abs(params.a)) if params.a != 0.0 else 2.0


def _end(params: Params, anchor: Anchor, outward: bool) -> float:
    """The first radius beyond the anchor (outward or toward the axis) with |f_H| = 1.

    Returns math.inf or 0.0 when |f_H| stays below 1 all the way to the end
    of the float range.  f_H is monotone on either side of its critical
    radius, so the search stops at that radius, then, where |f_H| grows
    without bound, steps by step_factor, and brackets the end with one
    brentq.  The anchor itself is the end when its s = +-1 and |f_H| grows
    past it.  Raises FloatingPointError where a step does not move the
    radius.
    """
    step = step_factor(params) if (params.a > 0.0) == outward else 2.0

    def stops():
        xc = _critical_radius(params, anchor)
        x = anchor.x
        if xc is not None and (xc > x) == outward:
            x = xc
            yield x
        if _unbounded(params, anchor, outward):
            while True:
                last, x = x, x * step if outward else x / step
                if not 0.0 < x / anchor.x < math.inf:
                    return
                if x == last:   # step rounds to 1 for |a| above about 2e18
                    raise FloatingPointError(f"a step of {step} does not move the radius {x}")
                yield x

    start, f_start = anchor
    for stop in stops():
        f_stop = f_H(params, anchor, stop)
        if abs(f_stop) > 1.0:
            s_end = math.copysign(1.0, f_stop)
            if (f_start - s_end) * (f_stop - s_end) >= 0.0:
                return start    # the end is start to rounding
            lo, hi = min(start, stop), max(start, stop)
            try:
                return _root(lambda x: f_H(params, anchor, x) - s_end, lo, hi)
            except (ValueError, RuntimeError) as e:
                # Rounding lost the sign change, or brentq did not converge.
                raise FloatingPointError(f"no turning radius resolved in [{lo}, {hi}]") from e
        start, f_start = stop, f_stop
    return math.inf if outward else 0.0


class Level(NamedTuple):
    """A resolved level: its anchor, its ends x_lo <= x_hi and the sign of
    f_H at each, s_lo and s_hi: +-1 at a turning radius, 0.0 on the axis
    and nan at infinity."""
    params: Params
    anchor: Anchor
    x_lo: float
    x_hi: float
    s_lo: float
    s_hi: float


def level(params: Params, anchor: Anchor) -> Level:
    """The level through anchor, resolved: the component of |f_H| <= 1 that
    contains the anchor, [x_lo, x_hi], and the sign of f_H at its ends.

    x_lo = 0.0 when the orbit reaches the axis and x_hi = math.inf when it is
    unbounded.  The anchor's radius is itself an end when its s = +-1, on
    the side where |f_H| grows past 1; at a rest point both ends are that
    radius to rounding.  Raises ArithmeticError where floats cannot resolve
    the radii: an OverflowError of (x/x_r)^a, or a FloatingPointError when
    rounding loses the bracket or a step that would find it.
    """
    def sign(x):
        if x == 0.0:
            return 0.0
        return math.copysign(1.0, f_H(params, anchor, x)) if x < math.inf else math.nan

    x_lo, x_hi = _end(params, anchor, outward=False), _end(params, anchor, outward=True)
    return Level(params, anchor, x_lo, x_hi, sign(x_lo), sign(x_hi))


def on_level(params: Params, anchor: Anchor, x: float, theta: float) -> bool:
    """Whether the state (x, theta) lies on the level through anchor, to rounding.

    It does when sin(theta) and f_H(x) agree to within LEVEL_ULPS eps times
    term_size(x) + x |f_H'(x)| + |theta cos(theta)|: f_H's rounding, its
    change when x moves by as many eps relative, and that of sin(theta) when
    theta does.  Not where f_H or its terms overflow.
    """
    try:
        f = f_H(params, anchor, x)
        size = term_size(params, anchor, x)
    except ArithmeticError:
        return False
    slope = params.a * f / x + params.b
    allowance = LEVEL_ULPS * sys.float_info.epsilon * (
        size + x * abs(slope) + abs(theta * math.cos(theta)))
    return abs(math.sin(theta) - f) <= allowance < math.inf


def f_min(level: Level) -> float:
    """The least s_hi sin(theta) on a bounded level's component [x_lo, x_hi].

    sin(theta) = 0 on the axis, where an x_lo = 0 orbit (a > 0) starts.
    """
    params, anchor, x_lo, x_hi, _, sign = level
    xc = _critical_radius(params, anchor)
    inside = [xc] if xc is not None and x_lo < xc < x_hi else []
    return min(sign * f_H(params, anchor, x) if x > 0.0 else 0.0 for x in [x_lo, x_hi] + inside)


def term_size(params: Params, anchor: Anchor, x: float) -> float:
    """The sum of the magnitudes of the terms f_H adds up at x.

    f_H(x) is of size at most 1 on an orbit, so rounding leaves it an
    absolute error of about eps times this; it exceeds 1 where the power
    and the b term cancel.
    """
    a, b = params.a, params.b
    x_r, s_r = anchor
    ratio = x / x_r
    lam = math.log(ratio)
    y = (a - 1.0) * lam
    power = ratio ** a
    try:
        rise = math.expm1(y) / (a - 1.0) if y != 0.0 else lam
    except OverflowError:     # as in f_H
        return abs(s_r) * power + abs(b * (x_r * power - x) / (a - 1.0))
    return abs(s_r) * power + abs(b * x * rise)


def _x(x_lo: float, x_hi: float, phi: float) -> float:
    """The radius x = c - r cos(phi) of _half_integrals on [x_lo, x_hi]."""
    return 0.5 * (x_lo + x_hi) - 0.5 * (x_hi - x_lo) * math.cos(phi)


def _size(params: Params, anchor: Anchor, x: float) -> float:
    """term_size, or math.inf where (x/x_r)^a overflows."""
    try:
        return term_size(params, anchor, x)
    except OverflowError:
        return math.inf


def split(level: Level, max_size: float) -> tuple[float, float]:
    """(phi, size): where _half_integrals hands a bounded level from the anchor
    at its lower turning radius, (x_lo, s_lo), to the one at its upper,
    (x_hi, s_hi), and the larger term_size of the two there.

    Each end anchor sums terms that grow away from it, so f_H's rounding
    error on its side is about eps times its term_size at the cut.  The cut
    is phi = pi/2 when both are at most max_size there, and otherwise where
    the two are equal, which makes the larger of them least: next to the
    a < 0 sphere's level and on extreme levels one end anchor cancels far
    from its end.  The cut stays _END_PHI from either end.  An orbit from
    the axis (x_lo = 0) has no lower anchor; its upper one serves the whole
    range and the cut stays at pi/2.
    """
    params = level.params
    lo, hi = Anchor(level.x_lo, level.s_lo), Anchor(level.x_hi, level.s_hi)

    def sizes(phi):
        x = _x(lo.x, hi.x, phi)
        return _size(params, lo, x) if lo.x > 0.0 else 0.0, _size(params, hi, x)

    phi = 0.5 * math.pi
    size_lo, size_hi = sizes(phi)
    if lo.x > 0.0 and max(size_lo, size_hi) > max_size:
        below, above = _END_PHI, math.pi - _END_PHI
        for _ in range(_SPLIT_STEPS):
            if size_lo < size_hi:
                below = phi
            else:
                above = phi
            phi = 0.5 * (below + above)
            size_lo, size_hi = sizes(phi)
    return phi, max(size_lo, size_hi)


def _half_integrals(level: Level, stops, epsabs: float, with_length: bool = False,
                    cut: float = 0.5 * math.pi) -> list:
    """int f/sqrt(1 - f^2) dx from x_lo to x = c - r cos(phi) for each phi in stops,
    from one quadrature; with_length makes each a pair, int dx/sqrt(1 - f^2) first.

    With x = c - r cos(phi) the integrand stays bounded at turning radii
    where f_H' != 0, and phi = pi is x_hi.  1 - f^2 is taken as
    g - u (2 l + u), g = (1 - l)(1 + l), with f = l + u on the level
    re-anchored at a state (x_r, l) near x and the rise u = f_H(x) - l from
    x_r without cancellation: at the lower end's turning radius for
    phi < cut and at the upper end's beyond it (see split), where l = +-1
    and g = 0.  x_lo = 0 is the axis of an a > 0 orbit, where f_H = 0 and
    1 - f^2 is taken as it is, on the upper end's anchor.  Such an orbit
    turns back toward the axis where its critical radius x_c lies inside
    (0, x_hi), and next to the separatrix 1 - f^2 has a near-double root
    there.  So the range is then cut at phi(x_c), and from midway between
    the axis and x_c to midway between x_c and x_hi the level is anchored at
    (x_c, f_H(x_c)): 1 - f^2 is the gap g at x_c, to f_H's rounding there,
    plus a rise that is second order in x - x_c.  (A winding orbit has no
    critical radius inside, since f_H runs monotonically from -+1 to +-1.)
    The quadrature meets epsabs or _QUAD_RTOL times the largest integral to
    the farthest stop.  Raises QuadratureFailure when it misses that or
    meets a non-finite value.
    """
    params, anchor, x_lo, x_hi, s_lo, s_hi = level
    a, b = params.a, params.b
    r = 0.5 * (x_hi - x_lo)
    # (x_r, l, g) per anchor: the ends, where f_H = +-1 exactly, and the
    # axis as (0, 0, 1)
    lo, hi = (x_lo, s_lo, 1.0 if x_lo == 0.0 else 0.0), (x_hi, s_hi, 0.0)
    upper = Anchor(x_hi, s_hi)
    xc = _critical_radius(params, anchor) if x_lo == 0.0 else None
    if xc is not None and xc < x_hi:
        phi_c = _phi(x_lo, x_hi, xc)
        f_c = f_H(params, upper, xc)
        mid = (xc, f_c, (1.0 - f_c) * (1.0 + f_c))
        first, last, knots = 0.5 * phi_c, 0.5 * (phi_c + math.pi), [phi_c]
    else:
        mid, phi_c, first, last, knots = None, None, cut, cut, []

    # The integrand runs once per node, so math's functions, 2 r and a - 1
    # are bound once; every float is the one the expressions give inline.
    sin, cos, sqrt, log1p, expm1 = math.sin, math.cos, math.sqrt, math.log1p, math.expm1
    two_r, a_1 = 2.0 * r, a - 1.0

    def integrand(phi):
        if phi < first:
            x, level, gap = lo
            d = two_r * sin(0.5 * phi) ** 2
        elif phi >= last:
            x, level, gap = hi
            d = -two_r * cos(0.5 * phi) ** 2
        else:
            x, level, gap = mid
            d = two_r * sin(0.5 * (phi + phi_c)) * sin(0.5 * (phi - phi_c))
            if not d / x > -1.0:
                # x_c within rounding of the axis (x_c/x_hi near eps): phi_c
                # stands for a radius up to about twice x_c, so x_c + d can
                # fall to or below 0.  The axis anchor serves such a radius.
                x, level, gap = lo
                d = two_r * sin(0.5 * phi) ** 2
        if x == 0.0:
            rise = f_H(params, upper, d)
        else:
            # f_H(x + d) - level on the level through (x, level), without
            # cancellation
            mu = log1p(d / x)
            y = a_1 * mu
            rise = level * expm1(a * mu) + b * (x + d) * (expm1(y) / a_1 if y != 0.0 else mu)
        q = gap - rise * (2.0 * level + rise)    # 1 - f^2, f = level + rise
        w = r * sin(phi) / sqrt(q) if q > 0.0 else math.nan
        return (w, (level + rise) * w) if with_length else (level + rise) * w

    values = cumulative_quad(integrand, 0.0, [*stops, *knots], epsabs=epsabs, epsrel=_QUAD_RTOL)
    return values[:len(values) - len(knots)]


class Winding(NamedTuple):
    """A periodic orbit's arclength and rise in z per period, and its
    self-crossings per period over the whole curve."""
    period: float
    shift: float
    crossings: int


def winding(level: Level, cut: float = 0.5 * math.pi) -> Winding:
    """The period, shift and self-crossings of a level turning at x_lo > 0
    and x_hi, from one quadrature whose end anchors meet at cut (see split).
    Where f_H keeps one sign, an Unduloid, z is monotone: 0 crossings.

    A turning radius next to the saddle radius a/b, where f_H' is near 0,
    makes the integrand a plateau of height about (h/f_H')^(1/2) there, with
    h = (x_hi - x_lo)/2; the quadrature bisects down to it, so T grows like
    ln(1/delta) as the orbit nears the separatrix.

    T = 2 int dx/sqrt(1 - f^2) over [x_lo, x_hi] is the arclength of one
    period and dz = 2 int f/sqrt(1 - f^2) dx its rise in z.  Z turns at the
    one zero x_z of f_H, so the crossings are the integers strictly inside
    (0, r) and (r, 1), with r = 2 Z(x_z)/dz = Z(x_z)/Z(x_hi).

    Lemma W: that count is 2 ceil(d) - 1, odd and at least 1, with d the
    distance of r from [0, 1].  Proof: f has one sign on (x_lo, x_z) and
    the other on (x_z, x_hi), so Z(x_z) and Z(x_hi) - Z(x_z) have opposite
    signs: r < 0 when Z(x_hi) has the sign of the outer piece, a Nodoid
    (dz sin(theta(x_hi)) > 0), and r > 1 otherwise, an Antinodoid.  For
    r < 0, (r, 0) holds ceil(-r) - 1 integers and (r, 1) one more; r > 1
    is the mirror image.  Where rounding puts r in [0, 1], the true r lies
    within rounding of 0 or 1: the count is 1.

    T, dz and Z(x_z) are accurate to _QUAD_RTOL * T.  Raises
    QuadratureFailure when the quadrature fails, and ArithmeticError when
    dz = 0 or the zero is lost to rounding.
    """
    params, anchor, x_lo, x_hi, s_lo, s_hi = level
    if s_lo == s_hi:
        half_T, half_dz = _half_integrals(level, [math.pi], 0.0, with_length=True, cut=cut)[0]
        return Winding(2.0 * half_T, 2.0 * half_dz, 0)
    try:
        x_z = _root(lambda x: f_H(params, anchor, x), x_lo, x_hi)
    except (ValueError, RuntimeError) as e:
        raise FloatingPointError(f"no zero of f_H resolved in [{x_lo}, {x_hi}]") from e
    (_, z_z), (half_T, half_dz) = _half_integrals(
        level, (_phi(x_lo, x_hi, x_z), math.pi), epsabs=0.0, with_length=True, cut=cut)
    r = z_z / half_dz
    return Winding(2.0 * half_T, 2.0 * half_dz, 2 * max(math.ceil(max(-r, r - 1.0)), 1) - 1)


def axis_slope(params: Params, anchor: Anchor) -> float:
    """The limit of f_H'(x) = theta' as x -> 0+, for a > 0, b != 0; it may be +-inf.

    f_H' = a C (x/x_r)^(a - 1)/x_r + b/(1 - a), C (1 - a) = c with
    c = (1 - a) s_r - b x_r, resp. s_r/x_r + b + b ln(x/x_r) at a = 1, tends
    to sign(c) inf for a <= 1 and c != 0, else to b/(1 - a).  It is monotone
    in x, so its sign on (0, x_hi] changes at most once.
    """
    a, b = params.a, params.b
    x_r, s_r = anchor
    c = (1.0 - a) * s_r - b * x_r
    if a <= 1.0 and c != 0.0:
        return math.copysign(math.inf, c)
    return b / (1.0 - a)


def axis_rises(level: Level, xs) -> list[float]:
    """Z(x) = int_0^x f/sqrt(1 - f^2) dx for each x in xs, on an a > 0 level
    from the axis (x_lo = 0) to x_hi, from one quadrature.

    The profile's branches are z = z_pole + Z(x) and
    z_pole + 2 Z(x_hi) - Z(x), so its poles lie 2 Z(x_hi) apart.  The
    quadrature meets _QUAD_RTOL times x_hi or the largest |Z| to the
    farthest x; x_hi is at most the arclength from the axis to x_hi.  That
    bounds the result's error only where the integrand is resolved.  Next
    to the separatrix, at x0 = x_sep (1 + delta) with |delta| <= 1e-11,
    1 - f^2 has a near-double root at the critical radius and the integrand
    carries rounding noise of about eps/sqrt(|delta|) relative.  There an
    ImmersedSpheroid's pole_z is good to about 1e-11 relative, not
    _QUAD_RTOL: moving one quadrature stop moved it by up to 1.2e-11 at
    delta = -1e-12.
    """
    _, _, x_lo, x_hi, _, _ = level
    return _half_integrals(level, [_phi(x_lo, x_hi, x) for x in xs], epsabs=_QUAD_RTOL * x_hi)


def _root(g, lo: float, hi: float) -> float:
    """A sign change of g in [lo, hi], 0 < lo, to _RADIUS_RTOL relative.

    brentq runs in x.  Where it does not converge in its iterations, as on a
    bracket over many decades (a zero near 1e-176 below an end near 1) or
    one whose steps are subnormal floats (an end near 1e-308), it runs in
    ln x, and the root is polished in x on the ln x root widened by twice
    its tolerance.  Raises ValueError when g has one sign at the ends of a
    bracket, and RuntimeError when brentq does not converge.
    """
    try:
        return brentq(g, lo, hi, xtol=_RADIUS_RTOL * lo)
    except RuntimeError:
        pass
    t = brentq(lambda t: g(math.exp(t)), math.log(lo), math.log(hi), xtol=_RADIUS_RTOL)
    width = 2.0 * (_RADIUS_RTOL + MIN_RTOL * abs(t))
    x1 = max(lo, math.exp(t - width))
    return brentq(g, x1, min(hi, math.exp(t + width)), xtol=_RADIUS_RTOL * x1)


def _phi(x_lo: float, x_hi: float, x: float) -> float:
    """The phi of _half_integral's x = c - r cos(phi) on [x_lo, x_hi]."""
    c, r = 0.5 * (x_lo + x_hi), 0.5 * (x_hi - x_lo)
    return math.acos(min(1.0, max(-1.0, (c - x) / r)))
