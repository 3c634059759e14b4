"""The first integral of the profile ODE for every a and b, and what it gives.

Along a profile curve d(sin theta)/ds = cos(theta) theta', so sin(theta) as a
function of x solves the linear ODE du/dx = a u/x + b.  Its solution through
a state (x_r, s_r = sin theta_r) of the orbit is

    f_H(x) = (x/x_r)^a s_r + b x lam E((a - 1) lam),    lam = ln(x/x_r),

with E(y) = expm1(y)/y and E(0) = 1, and sin(theta) = f_H(x) along the whole
orbit.  A level of the first integral is carried as such an anchor, not as
a scalar H, so this one expression serves every b and every a: a = 1, where
it is x (s_r/x_r + b lam), and a near 1, where the terms of a scalar form
such as x^(-a) (sin(theta) - b x/(1 - a)) cancel.  At b = 0,
-(s_r x_r^(-a))^2 is the constant m of model.first_integral_m.

The radius of an orbit stays in the component of {x > 0 : |f_H(x)| <= 1}
that contains x0.  Its finite ends are the turning radii, where the tangent
is vertical; an end at 0 means the orbit reaches the axis, at infinity that
it is unbounded.  Between two finite ends |cos theta| = sqrt(1 - f_H^2), so
one period of the (x, theta) motion has arclength T = 2 int dx/sqrt(1 - f^2)
and rises by dz = 2 int f/sqrt(1 - f^2) dx over the component.

At a vertical tangent the profile is mirror-symmetric, so every branch of a
periodic profile is z = k dz + Z(x) or z = (k + 1) dz - Z(x), with
Z(x) = int_{x_lo}^x f/sqrt(1 - f^2) dx.  Two branches of one kind are
translates and never cross; a rising and a falling branch cross where
2 Z(x)/dz is an integer.  That gives the self-crossings per period of the
whole curve in closed form (self_crossings).

For a > 0, f_H(0) = 0, and an orbit whose component reaches the axis runs
from the axis out to x_hi and back: it closes.  With Z(x) = int_0^x
f/sqrt(1 - f^2) dx its branches are z = z_pole + Z(x) and
z_pole + 2 Z(x_hi) - Z(x), so its poles lie 2 Z(x_hi) apart (axis_rise), and
the branches cross where Z(x) = Z(x_hi) (axis_crossings).
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

from scipy.integrate import quad
from scipy.optimize import brentq

from .errors import QuadratureFailure
from .model import Params

# brentq's absolute tolerance on a turning radius, relative to the radius.
_RADIUS_RTOL = 1e-15
# Relative accuracy asked of the period and shift quadratures.
_QUAD_RTOL = 1e-12
# |ln x| below which exp(ln x) is a normal float.
_LOG_FLOAT_RANGE = 708.0


class Anchor(NamedTuple):
    """A state on a level of the first integral: radius x > 0, s = sin(theta)."""
    x: float
    s: float


def f_H(params: Params, anchor: Anchor, x: float) -> float:
    """sin(theta) at radius x on the level through anchor."""
    a, b = params.a, params.b
    x_r, s_r = anchor
    ratio = x / x_r
    lam = math.log(ratio)
    y = (a - 1.0) * lam     # lam E(y) = expm1(y)/(a - 1), and lam at y = 0
    return s_r * ratio ** a + b * x * (math.expm1(y) / (a - 1.0) if y != 0.0 else lam)


def _critical_radius(params: Params, anchor: Anchor) -> Optional[float]:
    """The one x > 0 with f_H'(x) = 0, or None; f_H is monotone on either side.

    f_H' = a f_H/x + b vanishes where f_H = -b x/a, that is where
    (x/x_r)^(a - 1) = 1 + m, m = -(a - 1) k, k = (a s_r + b x_r)/d and
    d = a ((a - 1) s_r + b x_r): ln(x/x_r) = -k log1p(m)/m.  None also when
    that radius lies outside the float range, since f_H is then monotone
    over every float x > 0.
    """
    a, b = params.a, params.b
    x_r, s_r = anchor
    d = a * ((a - 1.0) * s_r + b * x_r)
    if d == 0.0:
        return None     # f_H is b x/(1 - a), or a = 0 and f_H' = b
    k = (a * s_r + b * x_r) / d
    m = -(a - 1.0) * k
    if not m > -1.0:
        return None
    log_xc = math.log(x_r) - k * (math.log1p(m) / m if m != 0.0 else 1.0)
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


def _end(params: Params, anchor: Anchor, outward: bool) -> float:
    """The first radius beyond the anchor (outward or toward the axis) with |f_H| = 1.

    Returns math.inf or 0.0 when |f_H| stays below 1 all the way to the end
    of the float range.  f_H is monotone on either side of its critical
    radius, so the search stops at that radius, then steps by factors of 2
    where |f_H| grows without bound, and brackets the end with one brentq.
    The anchor itself is the end when its s = +-1 and |f_H| grows past it.
    """
    def f(x):
        return f_H(params, anchor, x)

    def stops():
        xc = _critical_radius(params, anchor)
        x = anchor.x
        if xc is not None and (xc > x) == outward:
            x = xc
            yield x
        if _unbounded(params, anchor, outward):
            while True:
                x = 2.0 * x if outward else 0.5 * x
                if not 0.0 < x / anchor.x < math.inf:
                    return
                yield x

    start, f_start = anchor
    for stop in stops():
        f_stop = f(stop)
        if abs(f_stop) > 1.0:
            level = math.copysign(1.0, f_stop)
            if (f_start - level) * (f_stop - level) >= 0.0:
                return start    # the end is start to rounding
            lo, hi = min(start, stop), max(start, stop)
            try:
                return brentq(lambda x: f(x) - level, lo, hi, xtol=_RADIUS_RTOL * lo)
            except (ValueError, RuntimeError) as e:
                # Rounding lost the sign change, or brentq did not converge.
                raise FloatingPointError(f"no turning radius resolved in [{lo}, {hi}]") from e
        start, f_start = stop, f_stop
    return math.inf if outward else 0.0


def turning_radii(params: Params, anchor: Anchor) -> tuple[float, float]:
    """(x_lo, x_hi): the component of |f_H| <= 1 through the anchor.

    x_lo = 0.0 when the orbit reaches the axis and x_hi = math.inf when it is
    unbounded.  The anchor's radius is itself an end when its s = +-1, on
    the side where |f_H| grows past 1; at a rest point both ends are that
    radius to rounding.  Raises ArithmeticError where floats cannot resolve
    the radii: an OverflowError of (x/x_r)^a, or a FloatingPointError when
    rounding loses the bracket.
    """
    return _end(params, anchor, outward=False), _end(params, anchor, outward=True)


def f_min(params: Params, anchor: Anchor, x_lo: float, x_hi: float, sign: float = 1.0) -> float:
    """The least sign * sin(theta) on the bounded component [x_lo, x_hi].

    sin(theta) = 0 on the axis, where an x_lo = 0 orbit (a > 0) starts.
    """
    xc = _critical_radius(params, anchor)
    inside = [xc] if xc is not None and x_lo < xc < x_hi else []
    return min(sign * f_H(params, anchor, x) if x > 0.0 else 0.0 for x in [x_lo, x_hi] + inside)


def _rise(params: Params, end: Anchor, d: float) -> float:
    """f_H(x + d) - s on the level through end = (x, s), without cancellation."""
    a, b = params.a, params.b
    x, s = end
    mu = math.log1p(d / x)
    y = (a - 1.0) * mu
    return s * math.expm1(a * mu) + b * (x + d) * (math.expm1(y) / (a - 1.0) if y != 0.0 else mu)


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
    return abs(s_r) * ratio ** a + abs(b * x * (math.expm1(y) / (a - 1.0) if y != 0.0 else lam))


def _half_integral(params: Params, anchor: Anchor, x_lo: float, x_hi: float,
                   weighted: bool, epsabs: float, phi_end: float = math.pi) -> float:
    """int dx/sqrt(1 - f^2), or int f/sqrt(1 - f^2) dx when weighted, on [x_lo, x_hi].

    With x = c - r cos(phi) the integrand stays bounded at turning radii
    where f_H' != 0; 1 - f^2 is taken from the rise of f_H over the nearer
    end, re-anchored there at f_H = +-1, so it keeps its relative accuracy.
    x_lo = 0 is the axis of an a > 0 orbit, where f_H = 0 and 1 - f^2 is
    taken as it is.  phi_end < pi stops the integral at
    x = c - r cos(phi_end).  Raises QuadratureFailure when quad reports
    failure or a non-finite value.
    """
    r = 0.5 * (x_hi - x_lo)
    ends = [Anchor(x, 0.0 if x == 0.0 else math.copysign(1.0, f_H(params, anchor, x)))
            for x in (x_lo, x_hi)]

    def integrand(phi):
        if phi < 0.5 * math.pi:
            end, d = ends[0], 2.0 * r * math.sin(0.5 * phi) ** 2
        else:
            end, d = ends[1], -2.0 * r * math.cos(0.5 * phi) ** 2
        level = end.s
        rise = f_H(params, ends[1], d) if level == 0.0 else _rise(params, end, d)
        q = 1.0 - level * level - rise * (2.0 * level + rise)    # 1 - f^2, f = level + rise
        w = r * math.sin(phi) / math.sqrt(q) if q > 0.0 else math.nan
        return (level + rise) * w if weighted else w

    res = quad(integrand, 0.0, phi_end, limit=200, full_output=1,
               epsabs=epsabs, epsrel=_QUAD_RTOL)
    if len(res) > 3 or not math.isfinite(res[0]):
        raise QuadratureFailure(f"period quadrature failed on [{x_lo}, {x_hi}]")
    return res[0]


def period_and_shift(params: Params, anchor: Anchor, x_lo: float,
                     x_hi: float) -> tuple[float, float]:
    """(T, dz) of an orbit turning at x_lo and x_hi, where f_H' != 0.

    T = 2 int dx/sqrt(1 - f^2) over [x_lo, x_hi] is the arclength of one
    period and dz = 2 int f/sqrt(1 - f^2) dx its rise in z, accurate to
    _QUAD_RTOL * T.
    """
    T = 2.0 * _half_integral(params, anchor, x_lo, x_hi, weighted=False, epsabs=0.0)
    return T, 2.0 * _half_integral(params, anchor, x_lo, x_hi, weighted=True,
                                   epsabs=0.5 * _QUAD_RTOL * T)


def _integers_between(p: float, q: float) -> int:
    """How many integers lie strictly between p and q, in either order."""
    lo, hi = min(p, q), max(p, q)
    return max(math.ceil(hi) - math.floor(lo) - 1, 0)


def self_crossings(params: Params, anchor: Anchor, x_lo: float, x_hi: float,
                   T: float, dz: float) -> int:
    """The self-crossings per period of a winding orbit, over the whole curve.

    f_H runs from -+1 to +-1 over [x_lo, x_hi] and has one zero x_z there,
    where Z turns; so the count is the number of integers strictly inside
    the range of 2 Z/dz on each side of x_z: (0, r) and (r, 1), with
    r = 2 Z(x_z)/dz.  (T, dz) are period_and_shift's; Z(x_z) is one more
    quadrature, accurate to _QUAD_RTOL * T.  Raises ArithmeticError when
    dz = 0 or the zero is lost to rounding.
    """
    x_z = _zero(params, anchor, x_lo, x_hi)
    z_z = _half_integral(params, anchor, x_lo, x_hi, weighted=True,
                         epsabs=0.5 * _QUAD_RTOL * T, phi_end=_phi(x_lo, x_hi, x_z))
    ratio = 2.0 * z_z / dz
    return _integers_between(0.0, ratio) + _integers_between(ratio, 1.0)


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


def axis_rise(params: Params, anchor: Anchor, x_hi: float, x: Optional[float] = None) -> float:
    """Z(x) = int_0^x f/sqrt(1 - f^2) dx on an a > 0 orbit from the axis to x_hi.

    Z(x_hi) when x is None.  The profile's branches are z = z_pole + Z(x)
    and z_pole + 2 Z(x_hi) - Z(x), so its poles lie 2 Z(x_hi) apart.
    Accurate to _QUAD_RTOL * x_hi, which is at most _QUAD_RTOL times the
    arclength from the axis to x_hi.
    """
    phi_end = math.pi if x is None else _phi(0.0, x_hi, x)
    return _half_integral(params, anchor, 0.0, x_hi, weighted=True,
                          epsabs=_QUAD_RTOL * x_hi, phi_end=phi_end)


def axis_crossings(params: Params, anchor: Anchor, x_hi: float, z_hi: float) -> int:
    """The self-crossings of an a > 0 axis-to-axis profile, Z(x_hi) = z_hi.

    The two branches meet where Z(x) = z_hi for x in (0, x_hi).  f_H = 0 on
    the axis and +-1 at x_hi; when theta' changes sign on the way, f_H
    first runs the other way, past its critical radius, and has one zero
    x_z, where Z turns.  Z is monotone on (0, x_z) and on (x_z, x_hi), so
    the branches meet once when z_hi lies strictly between 0 and Z(x_z),
    and otherwise nowhere.  Raises ArithmeticError when f_H has no zero
    past its critical radius, which holds when theta' keeps one sign.
    """
    xc = _critical_radius(params, anchor)
    if xc is None or not 0.0 < xc < x_hi:
        raise FloatingPointError(f"f_H has no critical radius in (0, {x_hi})")
    z_z = axis_rise(params, anchor, x_hi, _zero(params, anchor, xc, x_hi))
    return int(min(0.0, z_z) < z_hi < max(0.0, z_z))


def _zero(params: Params, anchor: Anchor, lo: float, hi: float) -> float:
    """The zero of f_H in [lo, hi], where f_H changes sign."""
    try:
        return brentq(lambda x: f_H(params, anchor, x), lo, hi, xtol=_RADIUS_RTOL * lo)
    except (ValueError, RuntimeError) as e:
        raise FloatingPointError(f"no zero of f_H resolved in [{lo}, {hi}]") from e


def _phi(x_lo: float, x_hi: float, x: float) -> float:
    """The phi of _half_integral's x = c - r cos(phi) on [x_lo, x_hi]."""
    c, r = 0.5 * (x_lo + x_hi), 0.5 * (x_hi - x_lo)
    return math.acos(min(1.0, max(-1.0, (c - x) / r)))
