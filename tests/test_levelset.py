import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wlw import levelset
from wlw.integrate import IntegrationControls, detect_period, integrate
from wlw.levelset import Anchor, f_H, f_min, level, winding
from wlw.model import InitialConditions, Params

PI = math.pi
ORBITS = ["nodoid_traj", "unduloid_traj", "vesicle_traj", "antinodoid_traj",
          "circle_traj", "exp_traj"]


def residual(traj) -> float:
    """Largest |sin(theta) - f_H(x)| over the samples off the axis."""
    anchor = Anchor(traj.ic.x0, math.sin(traj.ic.theta0))
    return max(abs(math.sin(t) - f_H(traj.params, anchor, x))
               for x, t in zip(traj.x, traj.theta) if x > 0.05)


def ends(params, anchor):
    """The turning radii (x_lo, x_hi) of the level through anchor."""
    return level(params, anchor)[2:4]


def radii(a, b, x0, theta0):
    return ends(Params(a, b), Anchor(x0, math.sin(theta0)))


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
    # At b = 0, sin(theta)^2 = -m x^(2a) along the orbit, m = -sin(theta0)^2 x0^(-2a).
    params, x0, theta0 = Params(-2, 0), 1.5, 0.7
    m = -math.sin(theta0) ** 2 * x0 ** (-2 * params.a)
    anchor = Anchor(x0, math.sin(theta0))
    for x in (0.3, 1.5, 2.0, 7.0):
        assert f_H(params, anchor, x) ** 2 == pytest.approx(-m * x ** (2 * params.a), rel=1e-14)


@pytest.mark.parametrize("a", [500.0, -500.0])
def test_b_zero_level_through_a_horizontal_tangent_is_zero_everywhere(a):
    # sin(theta) = 0 on the horizontal line, even where (x/x0)^a overflows
    for x in (1e-3, 0.5, 2.0, 1e3):
        assert f_H(Params(a, 0.0), Anchor(1.0, 0.0), x) == 0.0


def test_turning_radii_of_the_nodoid():
    x_lo, x_hi = radii(-2, 1, 4.0, PI / 2)
    assert x_lo == pytest.approx(1.8216401644041, rel=1e-12)
    assert x_hi == 4.0
    # the lower end is the root of x^3 + 3 x^2 - 16 (f_H = -1)
    assert x_lo ** 3 + 3 * x_lo ** 2 - 16 == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("a,b,x0,theta0", [
    (-2, 1, 0.5, PI / 2),     # unduloid: sin(theta) = 1 at both ends
    (3, 1, 6.0, 0.0),         # antinodoid
    (1, 1, 3.0, 0.0),         # a = 1: f_H = x (s_r/x_r + b ln(x/x_r))
])
def test_turning_radii_are_where_the_tangent_is_vertical(a, b, x0, theta0):
    params, anchor = Params(a, b), Anchor(x0, math.sin(theta0))
    _, _, x_lo, x_hi, s_lo, s_hi = level(params, anchor)
    assert 0.0 < x_lo < x0 < x_hi < math.inf or x0 in (x_lo, x_hi)
    for x, s in ((x_lo, s_lo), (x_hi, s_hi)):
        assert f_H(params, anchor, x) == pytest.approx(s, abs=1e-12) and abs(s) == 1.0
    inside = np.linspace(x_lo, x_hi, 101)[1:-1]
    assert all(abs(f_H(params, anchor, x)) < 1.0 for x in inside)


@pytest.mark.parametrize("delta", [1e-10, -1e-10, 1e-12, -1e-12, 1e-14, -1e-14])
def test_turning_radii_near_a_one_tend_to_the_a_one_radii(delta):
    # The radii move with a at 0.064 |delta| relative here, so they must lie
    # within |delta| of the a = 1 radii, to 1e-12.
    limit = radii(1.0, 1.0, 3.0, 4.0)
    assert limit == pytest.approx((2.6455821970935807, 4.762818043886613), rel=1e-15)
    assert radii(1.0 + delta, 1.0, 3.0, 4.0) == pytest.approx(limit, rel=1e-12 + abs(delta))


def test_axis_reaching_and_rest_point_components():
    assert radii(3, 1, 1.0, 0.0)[0] == 0.0          # vesicle reaches the axis
    assert radii(-3, 1, 4.0, PI / 2) == (0.0, 4.0)  # the a < 0 sphere: H = 0
    assert radii(-2, 1, 2.0, PI / 2) == (2.0, 2.0)  # the cylinder is a rest point
    assert radii(-2, 0, 1.0, PI / 2) == (1.0, math.inf)  # the b = 0 catenoid
    # f_H's sign at an end: 0.0 on the axis, nan at infinity
    axis, open_end = level(Params(3, 1), Anchor(1.0, 0.0)), level(Params(-2, 0), Anchor(1.0, 1.0))
    assert (axis.s_lo, axis.s_hi) == (0.0, 1.0)
    assert open_end.s_lo == 1.0 and math.isnan(open_end.s_hi)


def test_critical_radius_beyond_the_floats():
    # At a = 1 the critical radius is x_r exp(-s_r/(b x_r) - 1): exp(999) and
    # 0.001 exp(999) here.
    assert radii(1, 0.001, 1.0, 1.5 * PI) == (0.0, 1.0)
    assert radii(1, 1, 0.001, 1.5 * PI) == (0.0, 0.001)


# x_hi of the orbits whose inner turning radius lies below the float range.
BEYOND_THE_AXIS_END = {(-1e-3, 0.5, 2.0, 1.0): 2.3173286472084365,
                       (-5e-4, 1e-3, 1.0, 5.7607): 1498.959082627963}


@pytest.mark.parametrize("a,b,x0,theta0", list(BEYOND_THE_AXIS_END))
def test_unresolvable_radii_raise_arithmetic_errors(a, b, x0, theta0):
    # Toward the axis |f_H| stays below 1 down to the end of the float
    # range, where expm1((a - 1) ln(x/x0)) overflows and f_H takes its b
    # term as b (x0 (x/x0)^a - x)/(a - 1): the inner radius is 0.0.
    assert radii(a, b, x0, theta0) == (0.0, BEYOND_THE_AXIS_END[a, b, x0, theta0])


@pytest.mark.parametrize("a,b,x0,theta0", [
    # a step by a factor of 2 from x0 would overflow (x/x0)^a
    (-1100, 1, 1.0, 0.5),
    (1100, 1, 1.0, 0.5),
])
def test_radii_past_a_power_overflow_are_resolved(a, b, x0, theta0):
    params, anchor = Params(a, b), Anchor(x0, math.sin(theta0))
    x_lo, x_hi = ends(params, anchor)
    assert x_lo < x0 < x_hi < math.inf and (x_lo > 0.0) == (a < 0.0)
    for x in (x_lo, x_hi):
        if x > 0.0:
            assert abs(f_H(params, anchor, x)) == pytest.approx(1.0, abs=4e-15 * abs(a + b * x))


def test_outward_search_steps_by_two_where_the_power_decays(monkeypatch):
    # For a < 0 the power (x/x_r)^a decays outward, and |f_H| reaches 1
    # only through b x/(1 - a), at x = 1 - a for this level.  Steps of
    # 2^(512/|a|) take millions of f_H calls to get there; with steps of 2
    # both radii take 55.
    calls, f = [], levelset.f_H

    def counted(*args):
        calls.append(None)
        assert len(calls) <= 200, "the outward search takes too many steps"
        return f(*args)

    monkeypatch.setattr(levelset, "f_H", counted)
    a = -1e9
    x_lo, x_hi = ends(Params(a, 1.0), Anchor(1.0, 0.0))
    assert x_lo < 1.0 and x_hi / (1.0 - a) == pytest.approx(1.0, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("a,b,x0,theta0", [
    # x0^(-a) overflowed in the scalar first integral
    (662.58, 0.0014, 2.4e7, PI),
    # near a = 1 the scalar form's two terms cancelled and lost the bracket
    (1.0000000000020937, 11042.487111159327, 58.264499797382626, 1.5 * PI),
])
def test_radii_once_lost_to_rounding_are_resolved(a, b, x0, theta0):
    # brentq places a radius to 1e-15 relative, which moves f_H by
    # x f_H' = a f_H + b x times that.
    params, anchor = Params(a, b), Anchor(x0, math.sin(theta0))
    for x in ends(params, anchor):
        assert 0.0 < x < math.inf
        assert abs(f_H(params, anchor, x)) == pytest.approx(1.0, abs=4e-15 * abs(a + b * x))


def test_radius_next_to_the_least_normal_float_is_resolved():
    # The b = 0 level s_r (x/x_r)^a, a < 0, reaches 1 at x_r s_r^(-1/a) =
    # 8.2e-308, where brentq's steps in x are subnormal floats; it did not
    # converge on [4.6e-308, 9.3e-308].
    a, x_r, s_r = -0.05171173686873847, 25.0 / 6.0, math.sin(PI)
    x_lo, x_hi = ends(Params(a, 0.0), Anchor(x_r, s_r))
    assert x_hi == math.inf
    # As ratios with abs=0: pytest.approx's default abs of 1e-12 passes any
    # x_lo.  The closed form's exponent, 708, is accurate to 708 eps.
    closed_form = math.exp(math.log(x_r) - math.log(s_r) / a)
    assert x_lo / closed_form == pytest.approx(1.0, rel=1e-12, abs=0.0)
    # The same level scaled by 1e200 resolves in x (rescale).  f_H is flat at
    # rounding over 4.4e-15 relative there; the ln x root alone is 1.1e-14 off.
    scaled = ends(Params(a, 0.0), Anchor(x_r * 1e200, s_r))[0]
    assert x_lo / (scaled * 1e-200) == pytest.approx(1.0, rel=5e-15, abs=0.0)


def test_zero_decades_below_its_bracket_is_resolved():
    # f_H = x (s_r/x_r + b ln(x/x_r)) at a = 1 has its zero at
    # x_r exp(-s_r/(b x_r)) = 6.6e-176, 176 decades below x_hi, past the
    # critical radius where f_H turns.
    params, anchor = Params(1.0, 0.0014858953275460607), Anchor(1.5447316940218563,
                                                                math.sin(1.9556505834239677))
    x_lo, x_hi = ends(params, anchor)
    x_z = levelset._root(lambda x: f_H(params, anchor, x),
                         levelset._critical_radius(params, anchor), x_hi)
    assert x_lo == 0.0 and x_z < 1e-175
    closed_form = anchor.x * math.exp(-anchor.s / (params.b * anchor.x))
    assert x_z / closed_form == pytest.approx(1.0, rel=1e-13, abs=0.0)
    # f_H is flat at rounding over about 1e-13 relative there; its values
    # near 1e-190 would underflow as a product, so their signs are compared.
    below, above = (f_H(params, anchor, x_z * f) for f in (1.0 - 1e-12, 1.0 + 1e-12))
    assert (below < 0.0) != (above < 0.0)


@pytest.mark.parametrize("name", ["nodoid_traj", "antinodoid_traj"])
def test_quadrature_matches_detect_period(request, name):
    traj = request.getfixturevalue(name)
    params, ic = traj.params, traj.ic
    anchor = Anchor(ic.x0, math.sin(ic.theta0))
    T, dz, _ = winding(level(params, anchor))
    T_ode, dz_ode = detect_period(traj)
    assert T == pytest.approx(T_ode, rel=1e-9)
    assert dz == pytest.approx(dz_ode, rel=1e-9)


def test_f_min_is_the_least_sine_on_the_component():
    params, anchor = Params(-2, 1), Anchor(0.5, 1.0)
    unduloid = level(params, anchor)
    grid = np.linspace(unduloid.x_lo, unduloid.x_hi, 20001)
    least = min(f_H(params, anchor, x) for x in grid)
    assert f_min(unduloid) == pytest.approx(least, abs=1e-8)
    assert f_min(unduloid) <= least
