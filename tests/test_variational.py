import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from wlw.errors import (
    NearSingular,
    NoPeriod,
    NotApplicable,
    SignChange,
    Unsupported,
)
from wlw.integrate import EventKind, IntegrationControls, integrate
from wlw.model import InitialConditions, Params
from wlw.variational import (
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
        tp, tpp, tppp = theta_derivatives(vesicle_traj, s)
        h = 1e-5

        def tp_at(sv):
            return vesicle_traj.theta_prime(sv)

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


class TestEulerLagrangeResiduals:
    def test_power_residual_vanishes_on_trajectory(self, vesicle_traj):
        ep = exponent_map(Params(3, 1))
        prof = el_residual_power(vesicle_traj, ep)
        assert prof.max_relative < 1e-6

    def test_perturbed_exponent_fails(self, vesicle_traj):
        ep = exponent_map(Params(3, 1))
        bad = PowerEnergyParams(p=ep.p + 0.1, mu=ep.mu)
        prof = el_residual_power(vesicle_traj, bad)
        assert prof.max_relative > 1e-2

    def test_constant_curvature_is_near_singular(self):
        # the round sphere of (-2, 1) keeps theta' = mu = 1/3 identically
        traj = integrate(Params(-2, 1), InitialConditions(3.0, PI / 2),
                         IntegrationControls(max_arclength=8, two_sided=False,
                                             axis_epsilon=1e-3))
        with pytest.raises(NearSingular):
            el_residual_power(traj, exponent_map(Params(-2, 1)))

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
        prof = el_residual_power(traj, exponent_map(params))
        assert prof.max_relative < 1e-6

    def test_exp_residual_vanishes(self, exp_traj):
        prof = el_residual_exp(exp_traj, ExpEnergyParams(nu=1.0))
        assert prof.max_relative < 1e-6

    def test_exp_perturbed_fails(self, exp_traj):
        prof = el_residual_exp(exp_traj, ExpEnergyParams(nu=1.15))
        assert prof.max_relative > 1e-2

    def test_exp_rejects_constant_curvature(self):
        cylinder = integrate(Params(-2, 1), InitialConditions(2.0, PI / 2))
        with pytest.raises(NotApplicable):
            el_residual_exp(cylinder, ExpEnergyParams(nu=1.0))


class TestFunctionalValue:
    def test_geodesic_is_zero(self):
        # b = 0 with horizontal tangent: the profile is a straight line
        line = integrate(Params(2, 0), InitialConditions(1.0, 0.0),
                         IntegrationControls(max_arclength=3, two_sided=False))
        val = functional_value(line, PowerEnergyParams(p=2.0, mu=0.0))
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_unit_circle_arc_power(self, circle_traj):
        # radius-2 circle: theta' = 1/2, p=2, mu=0 over span L gives L/4
        span = (0.0, 1.5)
        val = functional_value(circle_traj, PowerEnergyParams(p=2.0, mu=0.0), span)
        assert val == pytest.approx(1.5 / 4.0, rel=1e-9)

    def test_unit_circle_arc_exp(self, circle_traj):
        span = (0.0, 1.5)
        val = functional_value(circle_traj, ExpEnergyParams(nu=1.0), span)
        assert val == pytest.approx(1.5 * math.exp(0.5), rel=1e-9)


def _one_signed_window(traj, ep, margin=1e-3):
    """Largest s-window around a vertical tangent where theta' - mu > margin."""
    s = np.linspace(traj.s_min, traj.s_max, 2001)
    u = traj.theta_prime(s) - ep.mu
    ok = u > margin
    runs = []
    start = None
    for i, flag in enumerate(ok):
        if flag and start is None:
            start = i
        elif not flag and start is not None:
            runs.append((start, i - 1))
            start = None
    if start is not None:
        runs.append((start, len(s) - 1))
    lo, hi = max(runs, key=lambda r: s[r[1]] - s[r[0]])
    return s[lo], s[hi]


class TestCriticalCurves:
    @pytest.mark.parametrize("a,b,x0,theta0", [
        (3.0, 1.0, 1.0, 0.0),
        (-2.0, 1.0, 4.0, PI / 2),
        (2.0, 1.0, 1.3, 0.0),
        (-1.0, 1.0, 3.0, PI / 2),
    ])
    def test_power_reconstruction(self, a, b, x0, theta0):
        params = Params(a, b)
        traj = integrate(params, InitialConditions(x0, theta0),
                         IntegrationControls(max_arclength=40, max_full_turns=2))
        ep = exponent_map(params)
        lo, hi = _one_signed_window(traj, ep)
        span = 0.02 * (hi - lo)
        grid = np.linspace(lo + span, hi - span, 1501)
        tp = traj.theta_prime(grid)
        x_t, z_t, _ = traj.eval(grid)

        # scale from one anchor point, then compare pointwise
        anchor = len(grid) // 2
        u = tp - ep.mu
        d_hat = float(x_t[anchor] / (ep.p * real_power(u[anchor], ep.p - 1.0)))
        assert d_hat > 0
        x_r, z_r = critical_curve_power(tp, grid, ep, CriticalCurveScale(d_hat))
        z_r = z_r - z_r[anchor] + z_t[anchor]
        np.testing.assert_allclose(x_r, x_t, atol=1e-5)
        np.testing.assert_allclose(z_r, z_t, atol=1e-5)

    def test_power_reconstruction_satisfies_relation(self, vesicle_traj):
        # the rebuilt curve's curvatures satisfy kappa1 = a*kappa2 + b for
        # (a, b) recovered from the energy parameters
        params = Params(3, 1)
        ep = exponent_map(params)
        lo, hi = _one_signed_window(vesicle_traj, ep, margin=0.05)
        grid = np.linspace(lo + 0.01, hi - 0.01, 1201)
        tp, tpp, _ = theta_derivatives(vesicle_traj, grid)
        u = tp - ep.mu
        # d is fixed by the curve itself: with it the parametrization is
        # unit-speed and theta' is its geometric curvature
        anchor = len(grid) // 2
        x_anchor = vesicle_traj.eval(grid[anchor])[0]
        d = CriticalCurveScale(float(x_anchor / (ep.p * real_power(u[anchor], ep.p - 1.0))))
        x_r, z_r = critical_curve_power(tp, grid, ep, d)
        back = inverse_exponent_map(ep)
        # analytic derivatives of the parametrization:
        xp = d.d * ep.p * (ep.p - 1.0) * real_power(u, ep.p - 2.0) * tpp
        zp = d.d * real_power(u, ep.p - 1.0) * ((ep.p - 1.0) * tp + ep.mu)
        np.testing.assert_allclose(np.hypot(xp, zp), 1.0, atol=1e-9)
        kappa2 = zp / x_r
        np.testing.assert_allclose(tp, back.a * kappa2 + back.b, atol=1e-6)

    def test_exp_reconstruction(self, exp_traj):
        ep = ExpEnergyParams(nu=1.0)
        grid = np.linspace(0.3, min(9.0, exp_traj.s_max - 0.3), 1501)
        tp = exp_traj.theta_prime(grid)
        x_t, z_t, _ = exp_traj.eval(grid)
        anchor = len(grid) // 2
        d_hat = float(x_t[anchor] / (ep.nu * math.exp(ep.nu * tp[anchor])))
        x_r, z_r = critical_curve_exp(tp, grid, ep, CriticalCurveScale(d_hat))
        z_r = z_r - z_r[anchor] + z_t[anchor]
        np.testing.assert_allclose(x_r, x_t, atol=1e-5)
        np.testing.assert_allclose(z_r, z_t, atol=1e-5)

    def test_constant_profile_rejected(self):
        grid = np.linspace(0, 1, 101)
        tp = np.full_like(grid, 0.7)
        with pytest.raises(NotApplicable):
            critical_curve_power(tp, grid, PowerEnergyParams(p=2.0, mu=0.0),
                                 CriticalCurveScale(1.0))
        with pytest.raises(NotApplicable):
            critical_curve_exp(tp, grid, ExpEnergyParams(nu=1.0), CriticalCurveScale(1.0))

    def test_sign_change_rejected(self):
        grid = np.linspace(0, 2 * PI, 101)
        tp = 0.5 + np.sin(grid)
        with pytest.raises(SignChange):
            critical_curve_power(tp, grid, PowerEnergyParams(p=1.5, mu=0.5),
                                 CriticalCurveScale(1.0))


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
        val = closure_integral(nodoid_traj, ep)
        assert abs(val) > 1e-8

    def test_requires_period(self, unduloid_traj):
        with pytest.raises(NoPeriod):
            closure_integral(unduloid_traj, PowerEnergyParams(p=2.0, mu=0.0))
        with pytest.raises(NoPeriod):
            closure_integral(lambda s: 1.0 + 0.1 * np.sin(s),
                             PowerEnergyParams(p=2.0, mu=0.0))

    def test_random_positive_profiles_strictly_positive(self):
        # property: no closed curve can exist for mu = 0 while theta' > 0
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
            assert val > 1e-8
