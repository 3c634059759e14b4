"""Root finding and quadrature on floats, and the solvers' tolerance floor.

brentq is Brent's method (Brent, *Algorithms for Minimization without
Derivatives*, 1973, ch. 4) in the form of scipy.optimize.brentq: the same
iteration step for step, the same stopping rule and the same argument checks,
so it returns the same roots bit for bit.

quad is global adaptive Gauss-Kronrod quadrature with QUADPACK's 21-point
rule and error estimate (Piessens et al., *QUADPACK*, 1983, routines qk21 and
qag): it bisects the interval with the largest error estimate until the
estimates sum to within the tolerance.  cumulative_quad does the same on a
range cut at several stops and returns the integral up to each.  An
integrand may return a tuple, so several integrals share their nodes and
one subdivision.
"""

from __future__ import annotations

import math
import sys
from operator import add, mul

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
                divisor = dblk * dpre * (fblk - fpre)   # 0 by underflow: scipy bisects
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
_NODES = tuple(x for x, _ in _KRONROD)
_WEIGHTS = tuple(w for _, w in _KRONROD)
# QUADPACK's floor on an error estimate, relative to the integral of |f|.
_ROUNDOFF = 50.0 * _EPS
_UFLOW = sys.float_info.min


def _qk21(f, lo: float, hi: float) -> tuple[tuple, tuple, bool]:
    """QUADPACK's qk21 on [lo, hi]: the estimates and the error estimates of
    the components of f, and whether f returns a tuple."""
    c, h = 0.5 * (lo + hi), 0.5 * (hi - lo)
    fc = f(c)
    lows = [f(c - h * x) for x in _NODES]
    highs = [f(c + h * x) for x in _NODES]
    if isinstance(fc, tuple):
        values, errors = zip(*map(_kronrod, fc, zip(*lows), zip(*highs), (h,) * len(fc)))
        return values, errors, True
    value, error = _kronrod(fc, lows, highs, h)
    return (value,), (error,), False


def _kronrod(fc: float, lows, highs, h: float) -> tuple[float, float]:
    """The 21-point estimate from the values at the centre and at c -+ h x_k,
    and QUADPACK's error estimate."""
    sums = list(map(add, lows, highs))
    resk = _CENTRE_WEIGHT * fc + sum(map(mul, _WEIGHTS, sums))
    resg = sum(map(mul, _GAUSS, sums[1::2]))
    reskh = 0.5 * resk
    abs_h = abs(h)
    resabs = abs_h * (_CENTRE_WEIGHT * abs(fc) + sum(
        map(mul, _WEIGHTS, map(add, map(abs, lows), map(abs, highs)))))
    resasc = abs_h * (_CENTRE_WEIGHT * abs(fc - reskh) + sum(
        map(mul, _WEIGHTS, [abs(u - reskh) + abs(v - reskh) for u, v in zip(lows, highs)])))
    err = abs((resk - resg) * h)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    if resabs > _UFLOW / _ROUNDOFF:
        err = max(_ROUNDOFF * resabs, err)
    return resk * h, err


def quad(f, a: float, b: float, epsabs: float = 0.0, epsrel: float = 1e-12,
         limit: int = 200):
    """The integral of f over [a, b], a and b finite; see cumulative_quad."""
    return cumulative_quad(f, a, (b,), epsabs, epsrel, limit)[0]


def cumulative_quad(f, a: float, stops, epsabs: float = 0.0, epsrel: float = 1e-12,
                    limit: int = 200) -> list:
    """The integrals of f from a to each of stops, all >= a and finite, from one subdivision.

    f returns a float, or a tuple of floats for as many integrals at once,
    and each integral is the same.  [a, max(stops)] is cut at every stop,
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
        for i, (x0, x1) in ((k, (lo, mid)), (len(spans), (mid, hi))):
            value, error, _ = _qk21(f, x0, x1)
            if i == k:
                spans[k], values[k], errors[k], worst[k] = (x0, x1), value, error, max(error)
            else:
                spans.append((x0, x1))
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
