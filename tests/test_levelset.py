import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wlw.integrate import IntegrationControls, detect_period, integrate
from wlw.levelset import H, f_H, f_min, period_and_shift, turning_radii
from wlw.model import InitialConditions, Params, ProfileState, first_integral_m

PI = math.pi
ORBITS = ["nodoid_traj", "unduloid_traj", "vesicle_traj", "antinodoid_traj",
          "circle_traj", "exp_traj"]


def residual(traj) -> float:
    """Largest |sin(theta) - f_H(x)| over the samples off the axis."""
    h = H(traj.params, traj.ic.x0, traj.ic.theta0)
    return max(abs(math.sin(t) - f_H(traj.params, h, x))
               for x, t in zip(traj.x, traj.theta) if x > 0.05)


def radii(a, b, x0, theta0):
    params = Params(a, b)
    return turning_radii(params, H(params, x0, theta0), x0, theta0)


@pytest.mark.parametrize("name", ORBITS)
def test_sin_theta_follows_the_level(request, name):
    assert residual(request.getfixturevalue(name)) <= 1e-7


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.floats(0.1, 3.0), st.sampled_from([-1.0, 1.0]), st.floats(-1.5, 1.5),
       st.floats(0.5, 5.0), st.floats(0.0, 2 * PI))
def test_sin_theta_follows_the_level_on_random_orbits(a_abs, a_sign, b, x0, theta0):
    traj = integrate(Params(a_sign * a_abs, b), InitialConditions(x0, theta0),
                     IntegrationControls(max_arclength=10.0))
    assert residual(traj) <= 1e-7


def test_b_zero_level_is_the_pure_linear_first_integral():
    params, state = Params(-2, 0), ProfileState(0.0, 1.5, 0.0, 0.7)
    h = H(params, state.x, state.theta)
    assert -h * h == pytest.approx(first_integral_m(params, state).m, rel=1e-14)


def test_turning_radii_of_the_nodoid():
    x_lo, x_hi = radii(-2, 1, 4.0, PI / 2)
    assert x_lo == pytest.approx(1.8216401644041, rel=1e-12)
    assert x_hi == 4.0
    # the lower end is the root of x^3 + 3 x^2 - 16 (f_H = -1)
    assert x_lo ** 3 + 3 * x_lo ** 2 - 16 == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("a,b,x0,theta0", [
    (-2, 1, 0.5, PI / 2),     # unduloid: sin(theta) = 1 at both ends
    (3, 1, 6.0, 0.0),         # antinodoid
    (1, 1, 3.0, 0.0),         # a = 1: f_H = x (H + b ln x)
])
def test_turning_radii_are_where_the_tangent_is_vertical(a, b, x0, theta0):
    params = Params(a, b)
    h = H(params, x0, theta0)
    x_lo, x_hi = turning_radii(params, h, x0, theta0)
    assert 0.0 < x_lo < x0 < x_hi < math.inf or x0 in (x_lo, x_hi)
    for x in (x_lo, x_hi):
        assert abs(f_H(params, h, x)) == pytest.approx(1.0, abs=1e-12)
    inside = np.linspace(x_lo, x_hi, 101)[1:-1]
    assert all(abs(f_H(params, h, x)) < 1.0 for x in inside)


def test_axis_reaching_and_rest_point_components():
    assert radii(3, 1, 1.0, 0.0)[0] == 0.0          # vesicle reaches the axis
    assert radii(-3, 1, 4.0, PI / 2) == (0.0, 4.0)  # the a < 0 sphere: H = 0
    assert radii(-2, 1, 2.0, PI / 2) == (2.0, 2.0)  # the cylinder is a rest point
    assert radii(-2, 0, 1.0, PI / 2) == (1.0, math.inf)  # the b = 0 catenoid


def test_critical_radius_beyond_the_floats():
    # At a = 1 the critical radius is exp(-H/b - 1): exp(999) and exp(992) here.
    assert radii(1, 0.001, 1.0, 1.5 * PI) == (0.0, 1.0)
    assert radii(1, 1, 0.001, 1.5 * PI) == (0.0, 0.001)


@pytest.mark.parametrize("a,b,x0,theta0", [
    # x0^(-a) overflows
    (662.58, 0.0014, 2.4e7, PI),
    # near a = 1, H x^a cancels against b x/(1 - a) and the bracket is lost
    (1.0000000000020937, 11042.487111159327, 58.264499797382626, 1.5 * PI),
])
def test_unresolvable_radii_raise_arithmetic_errors(a, b, x0, theta0):
    with pytest.raises(ArithmeticError):
        radii(a, b, x0, theta0)


@pytest.mark.parametrize("name", ["nodoid_traj", "antinodoid_traj"])
def test_quadrature_matches_detect_period(request, name):
    traj = request.getfixturevalue(name)
    params, ic = traj.params, traj.ic
    h = H(params, ic.x0, ic.theta0)
    T, dz = period_and_shift(params, h, *turning_radii(params, h, ic.x0, ic.theta0))
    T_ode, dz_ode = detect_period(traj)
    assert T == pytest.approx(T_ode, rel=1e-9)
    assert dz == pytest.approx(dz_ode, rel=1e-9)


def test_f_min_is_the_least_sine_on_the_component():
    params = Params(-2, 1)
    h = H(params, 0.5, PI / 2)
    x_lo, x_hi = turning_radii(params, h, 0.5, PI / 2)
    grid = np.linspace(x_lo, x_hi, 20001)
    least = min(f_H(params, h, x) for x in grid)
    assert f_min(params, h, x_lo, x_hi) == pytest.approx(least, abs=1e-8)
    assert f_min(params, h, x_lo, x_hi) <= least
