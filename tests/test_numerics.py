"""numerics against scipy, which serves only as the tests' reference."""

import functools
import math
import operator
import random
import struct
import sys

import numpy as np
import pytest
from scipy import integrate as sp_integrate
from scipy import optimize as sp_optimize
from scipy.spatial import cKDTree

from wlw import levelset, numerics
from wlw.classify import classify_surface
from wlw.errors import QuadratureFailure
from wlw.integrate import IntegrationControls, _near_pairs, integrate
from wlw.model import InitialConditions, Params
from wlw.output import report_to_dict
from wlw.variational import closure_integral, exponent_map, functional_value, real_power

PI = math.pi


def _brackets(n, seed=2):
    """Seeded (f, lo, hi, xtol, rtol) with a root of several shapes inside."""
    rng = random.Random(seed)
    shapes = [
        lambda c, s: lambda x: math.sinh(s * (x - c)) ** 3 + 1e-3 * (x - c),
        lambda c, s: lambda x: math.atan(s * (x - c)),
        lambda c, s: lambda x: math.expm1(s * (x - c)) - 1e-9,
        lambda c, s: lambda x: (x - c) ** 5 * s + (x - c) * 1e-12,
    ]
    for _ in range(n):
        c, s = rng.uniform(-5.0, 5.0), 10.0 ** rng.uniform(-2.0, 1.0)
        lo, hi = c - 10.0 ** rng.uniform(-6.0, 1.0), c + 10.0 ** rng.uniform(-6.0, 1.0)
        if rng.random() < 0.5:
            lo, hi = hi, lo
        rtol = numerics.MIN_RTOL * 10.0 ** rng.uniform(0.0, 6.0)
        yield rng.choice(shapes)(c, s), lo, hi, 10.0 ** rng.uniform(-15.0, -2.0), rtol


class TestBrentq:
    def test_roots_are_bit_identical(self):
        for f, lo, hi, xtol, rtol in _brackets(3000):
            try:
                want = sp_optimize.brentq(f, lo, hi, xtol=xtol, rtol=rtol)
            except (ValueError, RuntimeError) as exc:
                with pytest.raises(type(exc)):
                    numerics.brentq(f, lo, hi, xtol=xtol, rtol=rtol)
                continue
            assert numerics.brentq(f, lo, hi, xtol=xtol, rtol=rtol) == want

    def test_an_underflowing_interpolation_bisects_as_scipy_does(self):
        # The inverse-quadratic step's divisor underflows to 0 on the way.
        def f(x):
            return 1e-160 * (x ** 3 - 0.3)
        want = sp_optimize.brentq(f, 0.0, 1.0)
        assert want == 0.6694329500819554
        assert numerics.brentq(f, 0.0, 1.0) == want

    def test_an_end_at_a_zero_is_returned(self):
        assert numerics.brentq(lambda x: x, 0.0, 1.0) == 0.0
        assert numerics.brentq(lambda x: x - 1.0, 0.0, 1.0) == 1.0

    @pytest.mark.parametrize("f,kwargs,error", [
        (lambda x: x * x + 1.0, {}, ValueError),                   # one sign
        (lambda x: 1e-200, {}, ValueError),                        # product underflows
        (lambda x: math.nan, {}, ValueError),
        (lambda x: x - 0.3 if x < 0.9 else math.nan, {}, ValueError),
        (lambda x: x - 0.3, {"rtol": 1e-17}, ValueError),
        (lambda x: x - 0.3, {"xtol": 0.0}, ValueError),
        (lambda x: math.copysign(abs(x - 1 / 3) ** 0.1, x - 1 / 3),
         {"maxiter": 3}, RuntimeError),
    ])
    def test_raises_what_scipy_raises(self, f, kwargs, error):
        with pytest.raises(error):
            sp_optimize.brentq(f, 0.0, 1.0, **kwargs)
        with pytest.raises(error):
            numerics.brentq(f, 0.0, 1.0, **kwargs)


def _left_sum(terms):
    """The builtin sum of floats up to Python 3.11: left to right from 0.
    From 3.12 the builtin compensates its rounding, and the written-out rule
    keeps this order."""
    return functools.reduce(operator.add, terms, 0.0)


def _reference_qk21(f, lo, hi):
    """numerics._qk21 as it was written with map and zip over the node tables,
    the reference the written-out rule must equal to the bit."""
    c, h = 0.5 * (lo + hi), 0.5 * (hi - lo)
    fc = f(c)
    lows = [f(c - h * x) for x, _ in numerics._KRONROD]
    highs = [f(c + h * x) for x, _ in numerics._KRONROD]
    if isinstance(fc, tuple):
        values, errors = zip(*map(_reference_kronrod, fc, zip(*lows), zip(*highs), (h,) * len(fc)))
        return values, errors, True
    value, error = _reference_kronrod(fc, lows, highs, h)
    return (value,), (error,), False


def _reference_kronrod(fc, lows, highs, h):
    add, mul = operator.add, operator.mul
    weights, centre = [w for _, w in numerics._KRONROD], numerics._CENTRE_WEIGHT
    roundoff = 50.0 * sys.float_info.epsilon
    sums = list(map(add, lows, highs))
    resk = centre * fc + _left_sum(map(mul, weights, sums))
    resg = _left_sum(map(mul, numerics._GAUSS, sums[1::2]))
    reskh = 0.5 * resk
    abs_h = abs(h)
    resabs = abs_h * (centre * abs(fc) + _left_sum(
        map(mul, weights, map(add, map(abs, lows), map(abs, highs)))))
    resasc = abs_h * (centre * abs(fc - reskh) + _left_sum(
        map(mul, weights, [abs(u - reskh) + abs(v - reskh) for u, v in zip(lows, highs)])))
    err = abs((resk - resg) * h)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    if resabs > sys.float_info.min / roundoff:
        err = max(roundoff * resabs, err)
    return resk * h, err


def _bits(value):
    """value with every float replaced by its 8 bytes, so that -0.0 and the
    sign and payload of a NaN count."""
    if isinstance(value, tuple):
        return tuple(map(_bits, value))
    return struct.pack("<d", value) if isinstance(value, float) else value


def _rules(shape, n, seed=41):
    """Seeded (f, lo, hi) of one integrand shape: a sign-changing scalar, a
    pair, a scalar that is NaN beyond a point of the interval, and a kink."""
    rng = random.Random(seed)
    for _ in range(n):
        w, p, c = rng.uniform(-30.0, 30.0), rng.uniform(0.0, 2 * PI), rng.uniform(-3.0, 3.0)
        lo = rng.uniform(-5.0, 5.0)
        hi = lo + 10.0 ** rng.uniform(-14.0, 1.0) if rng.random() < 0.95 else lo
        cut = rng.uniform(lo, hi)

        def wave(x, w=w, p=p, c=c):
            return math.sin(w * x + p) * math.exp(c * x)

        f = {
            "scalar": wave,
            "pair": lambda x, g=wave, c=c: (g(x), c / (1.0 + x * x)),
            "nan": lambda x, g=wave, cut=cut: g(x) if x < cut else math.nan,
            "kink": lambda x, cut=cut, c=c: math.sqrt(abs(x - cut)) * c,
        }[shape]
        yield f, lo, hi


class TestRule:
    @pytest.mark.parametrize("shape", ["scalar", "pair", "nan", "kink"])
    def test_the_written_out_rule_is_the_reference_to_the_bit(self, shape):
        for f, lo, hi in _rules(shape, 600):
            assert _bits(numerics._qk21(f, lo, hi)) == _bits(_reference_qk21(f, lo, hi))

    @pytest.mark.skipif(sys.version_info >= (3, 12), reason="sum compensates from 3.12")
    def test_the_reference_sum_is_the_builtin_sum(self):
        rng = random.Random(7)
        for _ in range(2000):
            terms = [rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-20, 20) for _ in range(10)]
            assert _left_sum(terms) == sum(terms)

    def test_a_tuple_that_is_not_a_pair_is_refused(self):
        with pytest.raises(ValueError):
            numerics.quad(lambda x: (x, x, x), 0.0, 1.0)

    def test_classify_reports_are_those_of_the_reference_rule(self, monkeypatch):
        # ROADMAP item 2's distribution: a = U(-5, 5), b = 0 or U(-2, 2), x0
        # log-uniform in [0.05, 20], theta0 = U(0, 2 pi).
        rng = random.Random(11)
        draws = []
        for _ in range(300):
            a, b = rng.uniform(-5.0, 5.0), rng.choice([0.0, rng.uniform(-2.0, 2.0)])
            x0 = math.exp(rng.uniform(math.log(0.05), math.log(20.0)))
            draws.append((Params(a, b), InitialConditions(x0, rng.uniform(0.0, 2 * PI))))

        def reports():
            out = []
            for params, ic in draws:
                try:
                    out.append(repr(report_to_dict(classify_surface(params, ic))))
                except Exception as exc:    # the same error is the same outcome
                    out.append(f"{type(exc).__name__}: {exc}")
            return out

        want = reports()
        rules = []

        def reference(f, lo, hi):
            rules.append((lo, hi))
            return _reference_qk21(f, lo, hi)

        monkeypatch.setattr(numerics, "_qk21", reference)
        assert reports() == want
        assert len(rules) > 1000


def _half_integrand(level):
    """The scalar (length, rise) integrands of levelset._half_integrals on [x_lo, x_hi]."""
    params, _, x_lo, x_hi, s_lo, s_hi = level
    r = 0.5 * (x_hi - x_lo)
    ends = [levelset.Anchor(x_lo, s_lo), levelset.Anchor(x_hi, s_hi)]

    def w_f(phi):
        if phi < 0.5 * PI:
            end, d = ends[0], 2.0 * r * math.sin(0.5 * phi) ** 2
        else:
            end, d = ends[1], -2.0 * r * math.cos(0.5 * phi) ** 2
        rise = levelset.f_H(params, end, end.x + d) - end.s
        w = r * math.sin(phi) / math.sqrt(-rise * (2.0 * end.s + rise))
        return w, (end.s + rise) * w

    return w_f


class TestQuad:
    @pytest.mark.parametrize("name", ["nodoid_traj", "antinodoid_traj"])
    def test_period_and_shift_agree_with_scipy(self, name, request):
        traj = request.getfixturevalue(name)
        level = levelset.level(traj.params, levelset.Anchor(traj.ic.x0, math.sin(traj.ic.theta0)))
        w_f = _half_integrand(level)
        for k in (0, 1):
            def g(phi, k=k):
                return w_f(phi)[k]
            want = sp_integrate.quad(g, 0.0, PI, epsabs=0.0, epsrel=1e-12, limit=200)[0]
            assert numerics.quad(g, 0.0, PI) == pytest.approx(want, rel=1e-12, abs=0.0)
        T, dz = sp_integrate.quad(lambda p: w_f(p)[0], 0.0, PI, epsabs=0.0, epsrel=1e-12)[0], \
            sp_integrate.quad(lambda p: w_f(p)[1], 0.0, PI, epsabs=0.0, epsrel=1e-12)[0]
        got = levelset.winding(level)
        assert got.period == pytest.approx(2.0 * T, rel=1e-12, abs=0.0)
        assert got.shift == pytest.approx(2.0 * dz, rel=1e-12, abs=0.0)

    def test_variational_integrals_agree_with_scipy(self, nodoid_traj):
        ep = exponent_map(nodoid_traj.params)
        period = classify_surface(nodoid_traj.params, nodoid_traj.ic).period

        def closure(s):
            tp = float(nodoid_traj.theta_prime(s))
            return float(real_power(tp - ep.mu, ep.p - 1.0) * ((ep.p - 1.0) * tp - ep.mu))

        want = sp_integrate.quad(closure, 0.0, period, epsabs=1e-10, epsrel=1e-10, limit=400)[0]
        assert closure_integral(nodoid_traj.theta_prime, ep, period) == pytest.approx(want, rel=1e-12)

        def energy(s):
            return float(real_power(nodoid_traj.theta_prime(s) - ep.mu, ep.p))

        span = (-0.5 * period, period)
        want = sp_integrate.quad(energy, *span, epsabs=1e-10, epsrel=1e-10, limit=400)[0]
        assert functional_value(nodoid_traj.theta_prime, ep, span) == pytest.approx(want, rel=1e-12)

    def test_cumulative_stops_share_one_subdivision(self):
        got = numerics.cumulative_quad(lambda x: (math.cos(x), math.sin(x)), 0.0, [PI, 1.0, PI / 2])
        want = [(math.sin(x), 1.0 - math.cos(x)) for x in (PI, 1.0, PI / 2)]
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-14)

    def test_fails_at_its_limit(self):
        def kink(x):
            return abs(x - 1.0 / 3.0) ** 0.5
        assert numerics.quad(kink, 0.0, 1.0, epsrel=1e-10) == pytest.approx(
            sp_integrate.quad(kink, 0.0, 1.0, epsabs=0.0, epsrel=1e-10, limit=200)[0], rel=1e-9)
        with pytest.raises(QuadratureFailure):
            numerics.quad(kink, 0.0, 1.0, epsrel=1e-10, limit=3)

    @pytest.mark.parametrize("f", [lambda x: math.nan, lambda x: math.inf if x > 0.5 else 0.0,
                                   lambda x: (1.0, math.nan)])
    def test_fails_on_a_non_finite_value(self, f):
        with pytest.raises(QuadratureFailure):
            numerics.quad(f, 0.0, 1.0)


def _kd_tree_pairs(P):
    """The candidate pairs of _crossing_segments, from a k-d tree, box-filtered."""
    A, B = P[:-1], P[1:]
    lo, hi = np.minimum(A, B), np.maximum(A, B)
    longest = float(np.hypot(*(B - A).T).max())
    reach = longest + 1e-9 * max(longest, float(np.abs(P).max()))
    i, j = cKDTree(0.5 * (A + B)).query_pairs(reach, output_type="ndarray").T
    keep = (j - i >= 2) & (lo[i] <= hi[j]).all(axis=1) & (lo[j] <= hi[i]).all(axis=1)
    return reach, sorted(zip(i[keep].tolist(), j[keep].tolist()))


@pytest.mark.parametrize("a,b,x0,theta0", [
    (-2.0, 1.0, 4.0, PI / 2),       # classify Nodoid
    (3.0, 1.0, 6.0, 0.0),           # classify Antinodoid
    (3.0, 1.0, 3.0, 0.0),           # classify ImmersedSpheroid
    (3.0, 1.0, 1.0, 0.0),           # classify Vesicle
    (1.0, 1.0, 4.0, 0.0),           # sweep cell
    (-1.0, 1.0, 4.0, 0.0),          # sweep cell
    (2.0, 0.5, 1.5, PI / 2),        # sweep cell
])
def test_grid_pairs_match_the_kd_tree(a, b, x0, theta0):
    traj = integrate(Params(a, b), InitialConditions(x0, theta0),
                     IntegrationControls(max_arclength=100.0))
    P = traj.resample(2048)[:, 1:3]
    reach, want = _kd_tree_pairs(P)
    A, B = P[:-1], P[1:]
    lo, hi = np.minimum(A, B), np.maximum(A, B)
    i, j = _near_pairs(0.5 * (A + B), reach)
    assert (i < j).all() and len(set(zip(i.tolist(), j.tolist()))) == len(i)
    keep = (j - i >= 2) & (lo[i] <= hi[j]).all(axis=1) & (lo[j] <= hi[i]).all(axis=1)
    assert sorted(zip(i[keep].tolist(), j[keep].tolist())) == want

