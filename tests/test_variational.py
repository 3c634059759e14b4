import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import theta_prime
from wlw import levelset
from wlw.classify import classify_surface, orbit_period
from wlw.cli import default_controls
from wlw.errors import InvalidParameter, NearSingular, Unsupported
from wlw.integrate import IntegrationControls, detect_period, integrate
from wlw.model import InitialConditions, Params
from wlw.variational import (
    ExpEnergyParams,
    PowerEnergyParams,
    closure_integral,
    critical_scale,
    el_residual_exp,
    el_residual_power,
    exponent_map,
    functional_value,
    inverse_exponent_map,
    real_power,
    theta_derivatives,
)

PI = math.pi


class TestExponentMap:
    def test_mylar_balloon(self):
        ep = exponent_map(Params(2, 0))
        assert isinstance(ep, PowerEnergyParams)
        assert (ep.p, ep.mu) == (2.0, 0.0)

    def test_cmc_case(self):
        ep = exponent_map(Params(-1, 1))
        assert ep.p == pytest.approx(0.5)
        assert ep.mu == pytest.approx(0.5)

    def test_exponential_branch(self):
        ep = exponent_map(Params(1, 2))
        assert isinstance(ep, ExpEnergyParams)
        assert ep.nu == pytest.approx(0.5)

    def test_umbilical_unsupported(self):
        with pytest.raises(Unsupported):
            exponent_map(Params(1, 0))

    def test_inverse_examples(self):
        p = inverse_exponent_map(PowerEnergyParams(p=2.0, mu=0.0))
        assert (p.a, p.b) == (2.0, 0.0)
        p = inverse_exponent_map(ExpEnergyParams(nu=0.5))
        assert (p.a, p.b) == (1.0, 2.0)

    def test_round_trip_exact(self):
        p = inverse_exponent_map(exponent_map(Params(-3.0, 0.7)))
        assert p.a == pytest.approx(-3.0, rel=1e-15)
        assert p.b == pytest.approx(0.7, rel=1e-15)

    @given(st.floats(-6, 6).filter(lambda v: abs(v) > 1e-3 and abs(v - 1) > 1e-3),
           st.floats(-4, 4))
    def test_round_trip_property(self, a, b):
        p = inverse_exponent_map(exponent_map(Params(a, b)))
        assert p.a == pytest.approx(a, rel=1e-12, abs=1e-12)
        assert p.b == pytest.approx(b, rel=1e-12, abs=1e-12)

    def test_round_trip_grid(self):
        avals = np.linspace(-4, 4, 10)
        bvals = np.linspace(-2, 2, 10)
        for a in avals:
            if a == 0.0 or a == 1.0:
                continue
            for b in bvals:
                p = inverse_exponent_map(exponent_map(Params(a, b)))
                assert p.a == pytest.approx(a, rel=1e-13, abs=1e-13)
                assert p.b == pytest.approx(b, rel=1e-13, abs=1e-13)


class TestThetaDerivatives:
    def test_matches_finite_differences(self, vesicle_traj):
        s = np.linspace(0.2, 1.8, 17)
        x, _, theta = vesicle_traj.eval(s)
        tp, tpp, tppp = theta_derivatives(vesicle_traj.params, x, theta)
        h = 1e-5
        tp_at = theta_prime(vesicle_traj)
        fd2 = (tp_at(s + h) - tp_at(s - h)) / (2 * h)
        fd3 = (tp_at(s + h) - 2 * tp_at(s) + tp_at(s - h)) / h**2
        np.testing.assert_allclose(tpp, fd2, atol=1e-7)
        np.testing.assert_allclose(tppp, fd3, atol=1e-3)


class TestRealPower:
    @pytest.mark.parametrize("q", [2.0 / 3.0, -1.0 / 3.0, -4.0 / 3.0, 1.5, -2.5, 0.3, 3.0])
    def test_power_rules_hold_for_negative_base(self, q):
        u = np.linspace(-2.0, -0.5, 7)
        h = 1e-6
        fd = (real_power(u + h, q) - real_power(u - h, q)) / (2.0 * h)
        np.testing.assert_allclose(fd, q * real_power(u, q - 1.0), rtol=1e-8)
        np.testing.assert_allclose(real_power(u, q), u * real_power(u, q - 1.0), rtol=1e-14)

    def test_integer_exponents_are_exact(self):
        u = np.array([-8.0, -0.5, 3.0])
        np.testing.assert_array_equal(real_power(u, 3.0), u**3)
        np.testing.assert_array_equal(real_power(u, -2.0), u**-2.0)


def _states(traj, n=801):
    """The run's states (x, theta) at n arclengths spread evenly over its span."""
    x, _, theta = traj.eval(np.linspace(traj.s_min, traj.s_max, n))
    return x, theta


def _off_axis(traj):
    """_states where x > 1e-5 of the run's widest radius.  Next to the axis the
    Euler-Lagrange terms grow like powers of 1/x and the relative residual
    measures their rounding: it reaches 1 at x = 1e-8."""
    x, theta = _states(traj)
    keep = x > 1e-5 * x.max()
    return traj.params, x[keep], theta[keep]


class TestEulerLagrangeResiduals:
    def test_power_residual_vanishes_on_trajectory(self, vesicle_traj):
        ep = exponent_map(Params(3, 1))
        res = el_residual_power(*_off_axis(vesicle_traj), ep)
        assert np.nanmax(np.abs(res)) < 1e-6

    def test_perturbed_exponent_fails(self, vesicle_traj):
        ep = exponent_map(Params(3, 1))
        bad = PowerEnergyParams(p=ep.p + 0.1, mu=ep.mu)
        res = el_residual_power(*_off_axis(vesicle_traj), bad)
        assert np.nanmax(np.abs(res)) > 1e-2

    def test_constant_curvature_is_near_singular(self):
        # the round sphere of (-2, 1), x = 3 sin(theta), keeps theta' = mu = 1/3
        theta = np.linspace(0.1, PI - 0.1, 33)
        with pytest.raises(NearSingular):
            el_residual_power(Params(-2, 1), 3.0 * np.sin(theta), theta,
                              exponent_map(Params(-2, 1)))

    @pytest.mark.parametrize("a,b,x0,theta0", [
        (-2.0, 0.0, 1.0, PI / 2),
        (-1.0, 0.0, 1.0, PI / 2),
        (-2.0, 1.0, 0.5, PI / 2),
        (-2.37, 0.8, 0.7, PI / 2),
    ])
    def test_power_residual_vanishes_for_negative_a(self, a, b, x0, theta0):
        # theta' - mu < 0 along these profiles, so every power has a negative base
        params = Params(a, b)
        traj = integrate(params, InitialConditions(x0, theta0),
                         IntegrationControls(max_arclength=20.0))
        res = el_residual_power(*_off_axis(traj), exponent_map(params))
        assert np.nanmax(np.abs(res)) < 1e-6

    def test_exp_residual_vanishes(self, exp_traj):
        res = el_residual_exp(*_off_axis(exp_traj), ExpEnergyParams(nu=1.0))
        assert np.abs(res).max() < 1e-6

    def test_exp_perturbed_fails(self, exp_traj):
        res = el_residual_exp(*_off_axis(exp_traj), ExpEnergyParams(nu=1.15))
        assert np.abs(res).max() > 1e-2

    def test_exp_residual_is_per_state(self):
        # The residual is taken at each state on its own, so a constant
        # theta' is no reason to refuse the states.  At the a = 1 rest point
        # x = 1, theta = 3 pi/2 of (1, 1), theta' = 0 and every term is 0.
        res = el_residual_exp(Params(1, 1), np.ones(5), np.full(5, 1.5 * PI),
                              ExpEnergyParams(nu=1.0))
        assert np.array_equal(res, np.zeros(5))
        assert np.isfinite(el_residual_exp(Params(1, 1), 2.0, 0.3, ExpEnergyParams(1.0)))


class TestEulerLagrangeIdentity:
    """With theta', theta'' and theta''' taken from the ODE, the Euler-Lagrange
    residual vanishes at every state (x, theta), on a run or not: the paper's
    variational characterization is an identity in the state.  So it is
    tested here, over random states, and not by check on a run.  Draws of 50
    states with x log-uniform in [e^-3, e^3] and theta uniform; measured worst
    residuals 2.2e-8 (power) and 3.2e-11 (exp) at numpy default_rng(0)."""

    @staticmethod
    def _worst(params, rng, residual, n=50):
        x, theta = np.exp(rng.uniform(-3.0, 3.0, n)), rng.uniform(0.0, 2.0 * PI, n)
        ep = exponent_map(params)
        with np.errstate(all="ignore"):
            res = residual(params, x, theta, ep)
        mu = 0.0 if isinstance(ep, ExpEnergyParams) else ep.mu
        u = params.a * np.sin(theta) / x + params.b - mu
        # away from theta' = mu, where the power terms blow up, and where
        # every term is finite (exp(nu theta') overflows for small b)
        live = (np.abs(u) >= 1e-3) & np.isfinite(res)
        return float(np.abs(res[live]).max(initial=0.0)), live.mean()

    def test_power_form_holds_at_random_states(self):
        rng = np.random.default_rng(0)
        tested = []
        for _ in range(3000):
            a = rng.uniform(-5.0, 5.0)
            b = 0.0 if rng.random() < 0.5 else rng.uniform(-2.0, 2.0)
            worst, live = self._worst(Params(a, b), rng, el_residual_power)
            assert worst < 1e-6, (a, b, worst)
            tested.append(live)
        assert np.mean(tested) > 0.99

    def test_exp_form_holds_at_random_states(self):
        rng = np.random.default_rng(0)
        tested = []
        for _ in range(1000):
            b = rng.uniform(-2.0, 2.0)
            worst, live = self._worst(Params(1.0, b), rng, el_residual_exp)
            assert worst < 1e-6, (b, worst)
            tested.append(live)
        assert np.mean(tested) > 0.99


class TestFunctionalValue:
    def test_geodesic_is_zero(self):
        # b = 0 with horizontal tangent: the profile is a straight line
        line = integrate(Params(2, 0), InitialConditions(1.0, 0.0),
                         IntegrationControls(max_arclength=3))
        val = functional_value(theta_prime(line), PowerEnergyParams(p=2.0, mu=0.0),
                               (0.0, line.s_max))
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_unit_circle_arc_power(self, circle_traj):
        # radius-2 circle: theta' = 1/2, p=2, mu=0 over span L gives L/4
        span = (0.0, 1.5)
        val = functional_value(theta_prime(circle_traj), PowerEnergyParams(p=2.0, mu=0.0), span)
        assert val == pytest.approx(1.5 / 4.0, rel=1e-9)

    def test_unit_circle_arc_exp(self, circle_traj):
        span = (0.0, 1.5)
        val = functional_value(theta_prime(circle_traj), ExpEnergyParams(nu=1.0), span)
        assert val == pytest.approx(1.5 * math.exp(0.5), rel=1e-9)


def _power_levels(rng, n):
    """n random levels of the first integral, with up to 20 states (x, theta) on each.

    a uniform in (-5, 5); b = 0 with probability 0.3, else uniform in (-2, 2);
    the level through (x_r, s_r), x_r log-uniform in [e^-2, e^2] and s_r
    uniform in (-1, 1), is sin(theta) = C x^a + b x/(1 - a) with
    C = (s_r - b x_r/(1 - a)) x_r^-a.  Yields (params, C, x, theta).
    """
    for _ in range(n):
        a = rng.uniform(-5.0, 5.0)
        b = 0.0 if rng.random() < 0.3 else rng.uniform(-2.0, 2.0)
        x_r, s_r = math.exp(rng.uniform(-2.0, 2.0)), rng.uniform(-1.0, 1.0)
        C = (s_r - b * x_r / (1.0 - a)) * x_r ** -a
        x = x_r * np.exp(rng.uniform(-2.0, 2.0, 200))
        yield Params(a, b), C, *_on_level(rng, x, C * x**a + b * x / (1.0 - a))


def _exp_levels(rng, n):
    """As _power_levels at a = 1, b uniform in (-2, 2): sin(theta) = x (b ln x + K)
    with K = s_r/x_r - b ln x_r.  Yields (params, d, x, theta), with the
    scale d = b x_r exp(-1 - s_r/(b x_r)) of the level."""
    for _ in range(n):
        b = rng.uniform(-2.0, 2.0)
        x_r, s_r = math.exp(rng.uniform(-2.0, 2.0)), rng.uniform(-1.0, 1.0)
        x = x_r * np.exp(rng.uniform(-2.0, 2.0, 200))
        with np.errstate(over="ignore"):
            d = b * x_r * np.exp(-1.0 - s_r / (b * x_r))
        yield Params(1.0, b), d, *_on_level(rng, x, x * (b * np.log(x) + s_r / x_r
                                                       - b * math.log(x_r)))


def _on_level(rng, x, f):
    """Up to 20 of the radii x where |f| <= 1, with theta on either branch of arcsin f."""
    keep = np.abs(f) <= 1.0
    x, f = x[keep][:20], f[keep][:20]
    return x, np.where(rng.random(x.size) < 0.5, np.arcsin(f), PI - np.arcsin(f))


def _gain(params, ep, x, theta):
    """(u, g): u = theta' - mu, or theta' at a = 1, and g = |d ln d / d ln u|."""
    u = theta_derivatives(params, x, theta)[0]
    if isinstance(ep, ExpEnergyParams):
        return u, np.abs(ep.nu * u)
    return u - ep.mu, abs(ep.p - 1.0)


def _well_conditioned(params, ep, x, theta):
    """States where rounding theta and the terms of u moves d by less than about
    1e4 eps relative."""
    u, g = _gain(params, ep, x, theta)
    a, b = params.a, params.b
    terms = (np.abs(a * np.sin(theta) / x) + abs(b) + np.abs(u - a * np.sin(theta) / x - b)
             + np.abs(a * np.cos(theta)) * np.maximum(1.0, np.abs(theta)) / x)
    return g * terms / np.abs(u) < 1e4


class TestCriticalCurves:
    """x = d p (theta'-mu)^(p-1), or d nu exp(nu theta') at a = 1, is the first
    integral: d is one number on every level, and z' = sin(theta).  Along a run
    the state drifts off its level by the run's error, so d is tested constant
    to 1e-5 at the states where an error of 1e-8 in sin(theta) moves d by less
    than that: next to the axis d = x/(p u^(p-1)) reads the run's error
    a/(x u) times over.  Measured worst: 1.5e-7, with more than 94 % of the
    states tested."""

    @staticmethod
    def _scale_along(traj):
        params = traj.params
        ep = exponent_map(params)
        x, theta = _states(traj)
        d = critical_scale(params, x, theta, ep)
        d0 = float(critical_scale(params, traj.ic.x0, traj.ic.theta0, ep))
        u, g = _gain(params, ep, x, theta)
        live = np.isfinite(d) & (g * abs(params.a) / (x * np.abs(u)) < 1e3)
        assert live.mean() > 0.9
        np.testing.assert_allclose(d[live], d0, rtol=1e-5)
        tp = theta_derivatives(params, x, theta)[0]
        if isinstance(ep, ExpEnergyParams):
            zp = d0 * (ep.nu * tp - 1.0) * np.exp(ep.nu * tp)
        else:
            zp = d0 * real_power(u, ep.p - 1.0) * ((ep.p - 1.0) * tp + ep.mu)
        np.testing.assert_allclose(zp[live], np.sin(theta[live]), atol=1e-5)

    @pytest.mark.parametrize("a,b,x0,theta0", [
        (3.0, 1.0, 1.0, 0.0),
        (-2.0, 1.0, 4.0, PI / 2),
        (2.0, 1.0, 1.3, 0.0),
        (-1.0, 1.0, 3.0, PI / 2),
    ])
    def test_power_reconstruction(self, a, b, x0, theta0):
        self._scale_along(integrate(Params(a, b), InitialConditions(x0, theta0),
                                    IntegrationControls(max_arclength=40)))

    def test_exp_reconstruction(self, exp_traj):
        self._scale_along(exp_traj)

    def test_power_reconstruction_satisfies_relation(self, vesicle_traj):
        # the parametrization with the anchor's d is unit-speed and its
        # curvatures satisfy kappa1 = a*kappa2 + b for (a, b) recovered from
        # the energy parameters
        params = Params(3, 1)
        ep = exponent_map(params)
        x, theta = vesicle_traj.x, vesicle_traj.theta
        tp, tpp, _ = theta_derivatives(params, x, theta)
        u = tp - ep.mu
        live = np.abs(u) > 0.05
        d = float(critical_scale(params, 1.0, 0.0, ep))
        x_r = d * ep.p * real_power(u, ep.p - 1.0)
        xp = d * ep.p * (ep.p - 1.0) * real_power(u, ep.p - 2.0) * tpp
        zp = d * real_power(u, ep.p - 1.0) * ((ep.p - 1.0) * tp + ep.mu)
        back = inverse_exponent_map(ep)
        np.testing.assert_allclose(np.hypot(xp, zp)[live], 1.0, atol=1e-9)
        np.testing.assert_allclose(tp[live], (back.a * zp / x_r + back.b)[live], atol=1e-6)

    def test_constant_profile_rejected(self):
        # on the round sphere of (-2, 1) theta' = mu: the parametrization degenerates
        theta = np.linspace(0.1, PI - 0.1, 33)
        d = critical_scale(Params(-2, 1), 3.0 * np.sin(theta), theta, exponent_map(Params(-2, 1)))
        assert np.isnan(d).all()

    def test_scale_is_one_number_on_random_levels(self):
        # d = 1/(p (aC)^(p-1)) on the level of C, and z' = sin(theta), to
        # 1e-11 on every well-conditioned state.  Measured 1.0e-12 and 8.0e-13
        # on 3,994 levels, 99.2 % of their states tested; d < 0 on 1,451 of
        # them.  6 levels next to a = 1, where d overflows, are skipped.  The
        # exp form at a = 1: 2.4e-13 and 4.5e-14 on 999 levels.
        rng = np.random.default_rng(3)
        tested = []
        for params, C, x, theta in _power_levels(rng, 4000):
            ep = exponent_map(params)
            with np.errstate(all="ignore"):
                d_level = 1.0 / (ep.p * real_power(params.a * C, ep.p - 1.0))
                if not (np.isfinite(d_level) and d_level != 0.0):
                    continue
                d = critical_scale(params, x, theta, ep)
                tp = theta_derivatives(params, x, theta)[0]
                u = tp - ep.mu
                zp = d_level * real_power(u, ep.p - 1.0) * ((ep.p - 1.0) * tp + ep.mu)
                live = np.isfinite(d) & _well_conditioned(params, ep, x, theta)
            np.testing.assert_allclose(d[live], d_level, rtol=1e-11)
            np.testing.assert_allclose(zp[live], np.sin(theta[live]), rtol=0.0, atol=1e-11)
            tested.extend(live)
        assert np.mean(tested) > 0.99
        tested = []
        for params, d_level, x, theta in _exp_levels(rng, 1000):
            if not (np.isfinite(d_level) and d_level != 0.0):
                continue
            ep = exponent_map(params)
            with np.errstate(all="ignore"):
                d = critical_scale(params, x, theta, ep)
                tp = theta_derivatives(params, x, theta)[0]
                zp = d_level * (ep.nu * tp - 1.0) * np.exp(ep.nu * tp)
                live = np.isfinite(d) & _well_conditioned(params, ep, x, theta)
            np.testing.assert_allclose(d[live], d_level, rtol=1e-11)
            np.testing.assert_allclose(zp[live], np.sin(theta[live]), rtol=0.0, atol=1e-11)
            tested.extend(live)
        assert np.mean(tested) > 0.99

    def test_theta_prime_minus_mu_keeps_one_sign_on_a_level(self):
        # theta' - mu = a C x^(a-1) on the level of C
        rng = np.random.default_rng(3)
        for params, C, x, theta in _power_levels(rng, 4000):
            u = theta_derivatives(params, x, theta)[0] - exponent_map(params).mu
            assert (np.sign(u) == np.sign(params.a * C)).all(), (params, C)


class TestClosureIntegral:
    def test_positive_profile_analytic_value(self):
        # theta' = c + A sin(s), p = 2, mu = 0: integral is T(c^2 + A^2/2)
        c, A, T = 0.8, 0.3, 2 * PI
        val = closure_integral(lambda s: c + A * np.sin(s),
                               PowerEnergyParams(p=2.0, mu=0.0), period=T)
        assert val == pytest.approx(T * (c * c + A * A / 2.0), rel=1e-10)

    def test_odd_profile_nulls_out(self):
        # p = 3, mu = 0 with theta' an odd sine: the integrand is odd
        val = closure_integral(lambda s: 0.5 * np.sin(s),
                               PowerEnergyParams(p=3.0, mu=0.0), period=2 * PI)
        assert val == pytest.approx(0.0, abs=1e-10)

    def test_nodoid_closure_is_nonzero(self, nodoid_traj):
        ep = exponent_map(Params(-2, 1))
        period, _ = detect_period(nodoid_traj)
        val = closure_integral(theta_prime(nodoid_traj), ep, period)
        assert abs(val) > 1e-8

    def test_random_positive_profiles_strictly_positive(self):
        # property: no closed curve can exist for mu = 0 while theta' > 0.
        # There the integrand theta' f' - f is (p - 1) theta'^p, so the
        # integral has the sign of p - 1 and the period's rise is not 0.
        rng = np.random.default_rng(7)
        for _ in range(20):
            c0 = rng.uniform(0.5, 2.0)
            amps = rng.uniform(-0.3, 0.3, size=3) * c0
            phases = rng.uniform(0, 2 * PI, size=3)
            a = rng.choice([-3.0, -1.5, -0.5, 2.0, 3.0, 5.0])
            p = a / (a - 1.0)

            def tp(s, c0=c0, amps=amps, phases=phases):
                out = np.full_like(np.asarray(s, dtype=float), c0)
                for k in range(3):
                    out = out + amps[k] * np.sin((k + 1) * np.asarray(s) + phases[k])
                return out

            val = closure_integral(tp, PowerEnergyParams(p=p, mu=0.0), period=2 * PI)
            assert np.sign(val) == np.sign(p - 1.0) and abs(val) > 1e-8

    @pytest.mark.parametrize("a,b,x0,theta0", [
        pytest.param(-2.0, 1.0, 4.0, PI / 2, id="nodoid"),
        pytest.param(-2.0, 1.0, 0.5, PI / 2, id="unduloid"),
        pytest.param(3.0, 1.0, 6.0, 0.0, id="antinodoid"),
        pytest.param(1.0, 1.0, 3.0, 0.0, id="antinodoid-exp-form"),
        pytest.param(-2.0, -1.0, 4.0, 1.5 * PI, id="nodoid-b-negative"),
    ])
    def test_scale_times_closure_is_the_rise_of_a_period(self, a, b, x0, theta0):
        # z' = d (theta' f' - f), so d times the closure integral over one
        # period is the period's rise, read off the level set.  Measured
        # 1.3e-13 to 1.4e-12 relative.
        params, ic = Params(a, b), InitialConditions(x0, theta0)
        report = classify_surface(params, ic)
        if report.period is None:       # the Unduloid report has no period or shift
            period = orbit_period(params, ic)
            z_shift = levelset.winding(
                levelset.level(params, levelset.Anchor(x0, math.sin(theta0)))).shift
        else:
            period, z_shift = report.period, report.z_shift
        run = integrate(params, ic, default_controls(params, ic, 1e-12))
        ep = exponent_map(params)
        d = float(critical_scale(params, x0, theta0, ep))
        assert d * closure_integral(theta_prime(run), ep, period) == pytest.approx(
            z_shift, rel=1e-10, abs=0.0)


def _circle_theta_prime(s):
    """theta' of the radius-2 circle."""
    return 0.5


@pytest.mark.parametrize("call,want", [
    pytest.param(lambda: functional_value(_circle_theta_prime, PowerEnergyParams(2.0, 0.0),
                                          (1.5, 0.0)),
                 InvalidParameter, id="energy-reversed-span"),
    pytest.param(lambda: closure_integral(_circle_theta_prime, PowerEnergyParams(2.0, 0.0), -1.0),
                 InvalidParameter, id="closure-negative-period"),
    # (theta' nu - 1) exp(nu theta') over a period of 1
    pytest.param(lambda: closure_integral(_circle_theta_prime, ExpEnergyParams(1.0), 1.0),
                 -0.5 * math.exp(0.5), id="closure-exp-form"),
])
def test_integrals_refuse_reversed_spans_and_take_the_exp_form(call, want):
    if isinstance(want, float):
        assert call() == pytest.approx(want, rel=1e-12)
    else:
        with pytest.raises(want):
            call()
