"""Root finding and quadrature on floats, and the solvers' tolerance floor.

brentq is Brent's method (Brent, *Algorithms for Minimization without
Derivatives*, 1973, ch. 4) in the form of scipy.optimize.brentq: the same
iteration step for step, the same stopping rule and the same argument checks,
so it returns the same roots bit for bit.

cumulative_quad is global adaptive Gauss-Kronrod quadrature with QUADPACK's
21-point rule and error estimate (Piessens et al., *QUADPACK*, 1983, routines
qk21 and qag) on a range cut at several stops: it bisects the interval with
the largest error estimate until the estimates sum to within the tolerance,
and returns the integral up to each stop.  An integrand returns a float, or
a pair of floats for two integrals that share their nodes and one
subdivision.

The rule runs in the interpreter, 21 nodes an interval, and is written out:
the nodes and weights are names bound once, each h x_k is computed once for
both of its nodes, a pair is unpacked in place, each sum is taken left to
right from 0.0 in QUADPACK's order, and min and max are conditionals that
give the same float, NaN included (abs stays a builtin: a conditional is
no faster and would change the sign of a NaN).  The tests keep the rule's
plain form, with map and sum over the node tables, as the reference it
equals bit for bit.  That holds where the builtin sum of floats adds left
to right, as it does up to Python 3.11.  From 3.12 it compensates its
rounding: there the plain form's floats, and the level-set results they
feed, differ from the written-out rule's in the last bits, and only the
written-out rule keeps QUADPACK's order.
"""

from __future__ import annotations

import math
import sys

from .errors import QuadratureFailure

_EPS = sys.float_info.epsilon

# The least relative tolerance brentq accepts; a smaller one asks for steps
# below the spacing of floats at the root.
MIN_RTOL = 4.0 * _EPS
# The least rel_tol an integration runs at; a smaller one is raised to it, as
# scipy's solvers do.
MIN_REL_TOL = 100 * _EPS
_XTOL = 2e-12
_MAX_ITER = 100


def brentq(f, a: float, b: float, xtol: float = _XTOL, rtol: float = MIN_RTOL,
           maxiter: int = _MAX_ITER) -> float:
    """A root of f in [a, b], where f(a) and f(b) differ in sign.

    The root is within xtol + rtol |x| of a sign change of f; an end where f
    is 0 is returned as it is.  Raises ValueError when f(a) and f(b) have one
    sign, f returns NaN, xtol <= 0 or rtol < MIN_RTOL, and RuntimeError when
    maxiter iterations end without convergence.
    """
    if xtol <= 0.0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < MIN_RTOL:
        raise ValueError(f"rtol too small ({rtol:g} < {MIN_RTOL:g})")

    def value(x):
        fx = f(x)
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = float(a), float(b)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        # The bracket is [xcur, xblk]; xpre is the previous iterate.
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # inverse quadratic interpolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                # As in scipy's C: a divisor that underflows to 0 gives an
                # infinite step, which bisects.  One that overflows to inf
                # gives a step of +-0.0 where the numerator is finite, so the
                # iterate moves by delta, and NaN where the numerator
                # overflows too, which bisects.
                divisor = dblk * dpre * (fblk - fpre)
                stry = -fcur * (fblk * dblk - fpre * dpre) / divisor if divisor else math.inf
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0.0 else -delta
        fcur = value(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations, value is {xcur}")


# QUADPACK qk21: the Kronrod nodes x > 0 on [-1, 1] with their weights, and
# the centre's weight; the 10-point Gauss rule uses every other node.
_KRONROD = (
    (0.995657163025808080735527280689003, 0.011694638867371874278064396062192),
    (0.973906528517171720077964012084452, 0.032558162307964727478818972459390),
    (0.930157491355708226001207180059508, 0.054755896574351996031381300244580),
    (0.865063366688984510732096688423493, 0.075039674810919952767043140916190),
    (0.780817726586416897063717578345042, 0.093125454583697605535065465083366),
    (0.679409568299024406234327365114874, 0.109387158802297641899210590325805),
    (0.562757134668604683339000099272694, 0.123491976262065851077600525478764),
    (0.433395394129247190799265943165784, 0.134709217311473325928054001771707),
    (0.294392862701460198131126603103866, 0.142775938577060080797094273138717),
    (0.148874338981631210884826001129720, 0.147739104901338491374841515972068),
)
_CENTRE_WEIGHT = 0.149445554002916905664936468389821
_GAUSS = (0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
          0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
          0.295524224714752870173892994651338)
((_X0, _W0), (_X1, _W1), (_X2, _W2), (_X3, _W3), (_X4, _W4),
 (_X5, _W5), (_X6, _W6), (_X7, _W7), (_X8, _W8), (_X9, _W9)) = _KRONROD
# The Gauss weights of the odd-numbered nodes x_1, x_3, .., x_9.
_G1, _G3, _G5, _G7, _G9 = _GAUSS
# QUADPACK's floor on an error estimate, relative to the integral of |f|.
_ROUNDOFF = 50.0 * _EPS
_UFLOW = sys.float_info.min
_MIN_RESABS = _UFLOW / _ROUNDOFF


def _qk21(f, lo: float, hi: float) -> tuple[tuple, tuple, bool]:
    """QUADPACK's qk21 on [lo, hi]: the estimates and the error estimates of
    the components of f, and whether f returns a pair.

    f is evaluated at the centre, then at c - h x_k and at c + h x_k for
    k = 0 .. 9 in turn.  A tuple that is not a pair raises ValueError.
    """
    c, h = 0.5 * (lo + hi), 0.5 * (hi - lo)
    d0, d1, d2, d3, d4 = h * _X0, h * _X1, h * _X2, h * _X3, h * _X4
    d5, d6, d7, d8, d9 = h * _X5, h * _X6, h * _X7, h * _X8, h * _X9
    fc = f(c)
    l0, l1, l2, l3, l4 = f(c - d0), f(c - d1), f(c - d2), f(c - d3), f(c - d4)
    l5, l6, l7, l8, l9 = f(c - d5), f(c - d6), f(c - d7), f(c - d8), f(c - d9)
    u0, u1, u2, u3, u4 = f(c + d0), f(c + d1), f(c + d2), f(c + d3), f(c + d4)
    u5, u6, u7, u8, u9 = f(c + d5), f(c + d6), f(c + d7), f(c + d8), f(c + d9)
    if not isinstance(fc, tuple):
        value, error = _kronrod(h, fc, l0, l1, l2, l3, l4, l5, l6, l7, l8, l9,
                                u0, u1, u2, u3, u4, u5, u6, u7, u8, u9)
        return (value,), (error,), False
    (fc, gc), (l0, m0), (l1, m1), (l2, m2), (l3, m3), (l4, m4) = fc, l0, l1, l2, l3, l4
    (l5, m5), (l6, m6), (l7, m7), (l8, m8), (l9, m9) = l5, l6, l7, l8, l9
    (u0, v0), (u1, v1), (u2, v2), (u3, v3), (u4, v4) = u0, u1, u2, u3, u4
    (u5, v5), (u6, v6), (u7, v7), (u8, v8), (u9, v9) = u5, u6, u7, u8, u9
    value, error = _kronrod(h, fc, l0, l1, l2, l3, l4, l5, l6, l7, l8, l9,
                            u0, u1, u2, u3, u4, u5, u6, u7, u8, u9)
    value2, error2 = _kronrod(h, gc, m0, m1, m2, m3, m4, m5, m6, m7, m8, m9,
                              v0, v1, v2, v3, v4, v5, v6, v7, v8, v9)
    return (value, value2), (error, error2), True


def _kronrod(h: float, fc: float, l0, l1, l2, l3, l4, l5, l6, l7, l8, l9,
             u0, u1, u2, u3, u4, u5, u6, u7, u8, u9) -> tuple[float, float]:
    """The 21-point estimate from the values at the centre, fc, at c - h x_k,
    l_k, and at c + h x_k, u_k, and QUADPACK's error estimate; each sum runs
    left to right from 0.0 over the nodes in order."""
    s0, s1, s2, s3, s4 = l0 + u0, l1 + u1, l2 + u2, l3 + u3, l4 + u4
    s5, s6, s7, s8, s9 = l5 + u5, l6 + u6, l7 + u7, l8 + u8, l9 + u9
    resk = _CENTRE_WEIGHT * fc + (
        0.0 + _W0 * s0 + _W1 * s1 + _W2 * s2 + _W3 * s3 + _W4 * s4
        + _W5 * s5 + _W6 * s6 + _W7 * s7 + _W8 * s8 + _W9 * s9)
    resg = 0.0 + _G1 * s1 + _G3 * s3 + _G5 * s5 + _G7 * s7 + _G9 * s9
    k = 0.5 * resk
    abs_h = abs(h)
    resabs = abs_h * (_CENTRE_WEIGHT * abs(fc) + (
        0.0 + _W0 * (abs(l0) + abs(u0)) + _W1 * (abs(l1) + abs(u1))
        + _W2 * (abs(l2) + abs(u2)) + _W3 * (abs(l3) + abs(u3))
        + _W4 * (abs(l4) + abs(u4)) + _W5 * (abs(l5) + abs(u5))
        + _W6 * (abs(l6) + abs(u6)) + _W7 * (abs(l7) + abs(u7))
        + _W8 * (abs(l8) + abs(u8)) + _W9 * (abs(l9) + abs(u9))))
    resasc = abs_h * (_CENTRE_WEIGHT * abs(fc - k) + (
        0.0 + _W0 * (abs(l0 - k) + abs(u0 - k)) + _W1 * (abs(l1 - k) + abs(u1 - k))
        + _W2 * (abs(l2 - k) + abs(u2 - k)) + _W3 * (abs(l3 - k) + abs(u3 - k))
        + _W4 * (abs(l4 - k) + abs(u4 - k)) + _W5 * (abs(l5 - k) + abs(u5 - k))
        + _W6 * (abs(l6 - k) + abs(u6 - k)) + _W7 * (abs(l7 - k) + abs(u7 - k))
        + _W8 * (abs(l8 - k) + abs(u8 - k)) + _W9 * (abs(l9 - k) + abs(u9 - k))))
    err = abs((resk - resg) * h)
    if resasc != 0.0 and err != 0.0:
        scale = (200.0 * err / resasc) ** 1.5
        err = resasc * (scale if scale < 1.0 else 1.0)
    if resabs > _MIN_RESABS:
        floor = _ROUNDOFF * resabs
        err = err if err > floor else floor
    return resk * h, err


def cumulative_quad(f, a: float, stops, epsabs: float = 0.0, epsrel: float = 1e-12,
                    limit: int = 200) -> list:
    """The integrals of f from a to each of stops, all >= a and finite, from one subdivision.

    f returns a float, or a pair of floats for two integrals at once, and
    each integral is the same.  [a, max(stops)] is cut at every stop,
    and the interval with the largest error estimate in any component is
    bisected until the estimates sum to at most max(epsabs, epsrel |I|) in
    every component, with |I| the largest magnitude among the integrals
    over the whole range.  Raises QuadratureFailure when limit intervals do
    not reach that, or when an integral is not finite.
    """
    edges = sorted({a, *stops})
    if len(edges) == 1:
        edges.append(a)     # an empty range, integrated as one
    # Per interval: its ends, the piece between two edges it lies in, and
    # the estimates and error estimates of each component.
    spans = list(zip(edges, edges[1:]))
    pieces = list(range(len(spans)))
    values, errors = [], []
    for lo, hi in spans:
        value, error, vector = _qk21(f, lo, hi)
        values.append(value)
        errors.append(error)
    worst = list(map(max, errors))
    while True:
        totals = [math.fsum(col) for col in zip(*values)]
        if not all(map(math.isfinite, totals)):
            raise QuadratureFailure(f"quadrature of a non-finite value on [{a}, {edges[-1]}]")
        bound = max(epsabs, epsrel * max(map(abs, totals)))
        if max(map(sum, zip(*errors))) <= bound:
            break
        if len(spans) >= limit:
            raise QuadratureFailure(f"quadrature on [{a}, {edges[-1]}] missed its tolerance "
                                    f"{bound:.3g} in {limit} intervals")
        k = worst.index(max(worst))
        lo, hi = spans[k]
        mid = 0.5 * (lo + hi)
        value, error, _ = _qk21(f, lo, mid)
        spans[k], values[k], errors[k], worst[k] = (lo, mid), value, error, max(error)
        value, error, _ = _qk21(f, mid, hi)
        spans.append((mid, hi))
        pieces.append(pieces[k])
        values.append(value)
        errors.append(error)
        worst.append(max(error))
    by_piece = [[] for _ in edges[1:]]
    for piece, value in zip(pieces, values):
        by_piece[piece].append(value)
    running = [0.0] * len(totals)
    upto = {a: running}
    for edge, piece_values in zip(edges[1:], by_piece):
        running = [s + math.fsum(col) for s, col in zip(running, zip(*piece_values))]
        upto[edge] = running
    return [tuple(upto[x]) if vector else upto[x][0] for x in stops]
