import importlib
import itertools
import math
import random
import sys
import warnings
from dataclasses import replace
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad
from scipy.optimize import brentq
from scipy.special import beta, ellipe, ellipeinc, ellipkinc, ellipkm1

from wlw import classify, cli, levelset
from wlw.classify import (
    SurfaceClass,
    SurfaceTag,
    catenoid_asymptote,
    classify_surface,
    orbit_period,
    special_solutions,
)
from wlw.errors import Inconclusive, InvalidParameter, QuadratureFailure, WrongSignRegime
from wlw.integrate import (
    EventKind,
    IntegrationControls,
    Termination,
    Trajectory,
    detect_period,
    find_self_intersections,
    integrate,
)
from wlw.model import (
    AXIS_EPSILON,
    REL_TOL,
    InitialConditions,
    Params,
    canonicalize,
    is_equilibrium,
    reflect_b,
    rescale,
)
from wlw.phaseplane import MIN_RTOL, SingularityKind, critical_points, find_separatrix

PI = math.pi
INTEGRATE = importlib.import_module("wlw.integrate")

# sin(theta) = -1 at this orbit's inner turning radius, about 1e-602, which
# lies below the float range: classify cannot resolve its level set.
BELOW_THE_FLOATS = (Params(-5e-4, 1e-3), InitialConditions(1.0, 5.7607))

# classify's periodic inputs and the conftest nodoid, antinodoid and unduloid.
PERIODIC = [(-2, 1, 4.0, PI / 2), (-2, -1, 4.0, 1.5 * PI), (3, 1, 6.0, 0.0),
            (3, 1, 4.0, 1.5 * PI), (-2, 1, 0.5, PI / 2)]


def tags(params, theta0, x0_values):
    return [classify_surface(params, InitialConditions(x0, theta0)).surface.tag
            for x0 in x0_values]


def level_of(params, ic):
    """The level through the initial state, resolved as classify resolves it."""
    return levelset.level(params, levelset.Anchor(ic.x0, math.sin(ic.theta0)))


class TestSpecialSolutions:
    def test_positive_a(self):
        out = special_solutions(Params(2, 1))
        assert [(s.tag, s.radius) for s in out] == [
            (SurfaceTag.SPHERE, 1.0), (SurfaceTag.CYLINDER, 2.0)]

    def test_umbilic_family(self):
        out = special_solutions(Params(1, 0))
        assert [(s.tag, s.radius) for s in out] == [
            (SurfaceTag.PLANE, None), (SurfaceTag.SPHERE, None)]

    def test_negative_a(self):
        out = special_solutions(Params(-2, 1))
        assert [(s.tag, s.radius) for s in out] == [
            (SurfaceTag.SPHERE, 3.0), (SurfaceTag.CYLINDER, 2.0)]

    def test_a_one_nonzero_b_has_no_sphere(self):
        out = special_solutions(Params(1, 2))
        assert [(s.tag, s.radius) for s in out] == [(SurfaceTag.CYLINDER, 0.5)]


class TestNegativeAFamily:
    def test_figure_sequence(self):
        got = tags(Params(-2, 1), PI / 2, [0.5, 2.0, 2.5, 3.0, 4.0])
        assert got == [SurfaceTag.UNDULOID, SurfaceTag.CYLINDER, SurfaceTag.UNDULOID,
                       SurfaceTag.SPHERE, SurfaceTag.NODOID]

    def test_sphere_closure(self):
        r = classify_surface(Params(-2, 1), InitialConditions(3.0, PI / 2))
        assert r.surface.tag == SurfaceTag.SPHERE
        assert r.surface.radius == pytest.approx(3.0, abs=1e-5)
        z1, z2 = r.pole_z
        assert abs(z1 + z2) < 1e-5

    def test_nodoid_features(self):
        r = classify_surface(Params(-2, 1), InitialConditions(4.0, PI / 2))
        assert r.surface.tag == SurfaceTag.NODOID
        assert r.period is not None and r.period > 0
        assert r.z_shift > 0
        assert r.self_intersections >= 1
        assert r.theta_range is None

    def test_unduloid_features(self, monkeypatch):
        # Its report has no period, so classify runs no quadrature for it.
        def no_quadrature(*args, **kwargs):
            raise AssertionError("the Unduloid report ran a quadrature")
        monkeypatch.setattr(levelset, "_half_integrals", no_quadrature)
        r = classify_surface(Params(-2, 1), InitialConditions(0.5, PI / 2))
        assert r.surface.tag == SurfaceTag.UNDULOID
        assert r.self_intersections == 0
        assert r.period is None
        lo, hi = r.theta_range
        assert hi - lo < 2 * PI

    def test_cylinder_features(self):
        r = classify_surface(Params(-2, 1), InitialConditions(2.0, PI / 2))
        assert r.surface.tag == SurfaceTag.CYLINDER
        assert r.surface.radius == pytest.approx(2.0)
        assert r.asymptotic_radius == pytest.approx(2.0)


def thresholds(params):
    """(x_cyl, x_sph) = (-a/b, (1 - a)/b), the radii at theta0 = pi/2 that
    separate the a < 0 classes: the Cylinder and Sphere radii."""
    radii = {c.tag: c.radius for c in special_solutions(params)}
    return radii[SurfaceTag.CYLINDER], radii[SurfaceTag.SPHERE]


class TestThresholds:
    def test_values(self):
        assert thresholds(Params(-2, 1)) == (2.0, 3.0)
        assert thresholds(Params(-1, 2)) == (0.5, 1.0)

    def test_sphere_threshold_flips_classification(self):
        x_cyl, x_sph = thresholds(Params(-2, 1))
        for delta in (1e-3, 1e-4):
            below = classify_surface(Params(-2, 1), InitialConditions(x_sph - delta, PI / 2))
            above = classify_surface(Params(-2, 1), InitialConditions(x_sph + delta, PI / 2))
            assert below.surface.tag == SurfaceTag.UNDULOID
            assert above.surface.tag == SurfaceTag.NODOID

    @pytest.mark.parametrize("a", [-0.3, -3.0, -30.0])
    def test_sphere_neighbours_follow_the_threshold_rule(self, monkeypatch, a):
        # Next to the sphere's level f_H sums terms some 1/delta times its
        # size at one end of the orbit; the level is read off the end
        # anchors, so no neighbour is refused or run.
        runs = spy_integrate(monkeypatch)
        for theta0 in (1.0, PI / 2):
            x_sph = (1.0 - a) * math.sin(theta0)
            for k in range(3, 9):
                for sign, tag in ((-1.0, SurfaceTag.UNDULOID), (1.0, SurfaceTag.NODOID)):
                    ic = InitialConditions(x_sph * (1.0 + sign * 10.0 ** -k), theta0)
                    r = classify_surface(Params(a, 1.0), ic)
                    assert r.surface.tag == tag, (theta0, k, sign)
        assert runs == []

    @pytest.mark.parametrize("a", [-3.0, -2.0, -0.5])
    def test_sphere_threshold_is_closed_form(self, a):
        # x_sph = (1 - a)/b: Unduloid just inside, the closed-form sphere on
        # it, and Nodoid just beyond.
        params = Params(a, 1.0)
        x_sph = thresholds(params)[1]
        got = tags(params, PI / 2, [x_sph * (1.0 - 1e-3), x_sph, x_sph * (1.0 + 1e-3)])
        assert got == [SurfaceTag.UNDULOID, SurfaceTag.SPHERE, SurfaceTag.NODOID]
        r = classify_surface(params, InitialConditions(x_sph, PI / 2))
        assert r.surface.radius == 1.0 - a
        assert r.pole_z == pytest.approx((-x_sph, x_sph), abs=1e-15)
        assert r.theta_range == (0.0, PI)

    @pytest.mark.parametrize("a", [-3.0, -2.0, -0.5])
    def test_cylinder_threshold_at_one_part_in_a_thousand(self, a):
        params = Params(a, 1.0)
        x_cyl = thresholds(params)[0]
        got = tags(params, PI / 2, [x_cyl * (1.0 - 1e-3), x_cyl, x_cyl * (1.0 + 1e-3)])
        assert got == [SurfaceTag.UNDULOID, SurfaceTag.CYLINDER, SurfaceTag.UNDULOID]

    def test_sphere_runs_nothing(self, monkeypatch):
        # Sphere poles and theta range for theta0 off pi/2 and off [0, 2 pi):
        # z = R (cos(theta0) - cos(theta)) from theta = 2 pi k to 2 pi k + pi.
        runs = spy_integrate(monkeypatch)
        theta0 = 4 * PI + PI / 6
        params, ic = Params(-2, 1), InitialConditions(3.0 * math.sin(theta0), theta0)
        r = classify_surface(params, ic)
        assert runs == []
        assert (r.surface.tag, r.surface.radius) == (SurfaceTag.SPHERE, 3.0)
        c = math.cos(theta0)
        assert r.pole_z == pytest.approx((3.0 * (c - 1.0), 3.0 * (c + 1.0)), abs=1e-14)
        assert r.theta_range == pytest.approx((4 * PI, 5 * PI), abs=1e-14)
        mirrored = classify_surface(Params(-2, -1), InitialConditions(ic.x0, theta0 + PI))
        assert mirrored.pole_z == pytest.approx(r.pole_z[::-1], abs=1e-14)

    def test_cylinder_threshold_is_isolated(self):
        x_cyl, _ = thresholds(Params(-2, 1))
        got = tags(Params(-2, 1), PI / 2, [x_cyl - 1e-4, x_cyl, x_cyl + 1e-4])
        assert got == [SurfaceTag.UNDULOID, SurfaceTag.CYLINDER, SurfaceTag.UNDULOID]


class TestPositiveAFamily:
    def test_figure7_sequence(self):
        got = tags(Params(3, 1), 1.5 * PI, [1.0, 2.0, 3.0, 4.0])
        assert got == [SurfaceTag.OVALOID, SurfaceTag.OVALOID, SurfaceTag.CYLINDER,
                       SurfaceTag.ANTINODOID]

    def test_figure6_small_radius_is_vesicle(self):
        r = classify_surface(Params(3, 1), InitialConditions(1.0, 0.0))
        assert r.surface.tag == SurfaceTag.VESICLE
        z1, z2 = r.pole_z
        assert z2 > z1

    def test_figure6_pole_ordering_decides(self):
        for x0 in (2.0, 3.0):
            r = classify_surface(Params(3, 1), InitialConditions(x0, 0.0))
            z1, z2 = r.pole_z
            if abs(z2 - z1) < 1e-5 * x0:
                assert r.surface.tag == SurfaceTag.PINCHED_SPHEROID
            elif z2 > z1:
                assert r.surface.tag == SurfaceTag.VESICLE
            else:
                assert r.surface.tag == SurfaceTag.IMMERSED_SPHEROID
        # by the figure, x0 = 3 already lies on the immersed side
        r = classify_surface(Params(3, 1), InitialConditions(3.0, 0.0))
        assert r.surface.tag == SurfaceTag.IMMERSED_SPHEROID

    def test_pinched_transition_exists_between_vesicle_and_immersed(self):
        # x_pinch, where the poles of the theta0 = 0 orbit meet, measured by
        # brentq on the pole gap at 2.0080658942 +- 3e-8.
        params = Params(3, 1)

        def report(x0):
            return classify_surface(params, InitialConditions(x0, 0.0))

        x_pinch = brentq(lambda x0: -float(np.subtract(*report(x0).pole_z)), 2.0, 3.0,
                         xtol=1e-14)
        assert x_pinch == pytest.approx(2.0080658942, abs=3e-8)
        below, at, above = (report(x_pinch * f) for f in (1.0 - 1e-3, 1.0, 1.0 + 1e-3))
        assert (below.surface.tag, below.self_intersections) == (SurfaceTag.VESICLE, 0)
        assert at.surface.tag == SurfaceTag.PINCHED_SPHEROID
        assert (above.surface.tag, above.self_intersections) == (SurfaceTag.IMMERSED_SPHEROID, 1)

    @pytest.mark.parametrize("a", [0.9999992731880258, 1.0])
    def test_zero_of_f_h_far_below_its_bracket(self, a):
        # theta' changes sign at x_c = 2.3e-176 and f_H has its zero near
        # 6.2e-176, below x_hi = 1.67: brentq in x did not converge there and
        # the report was Inconclusive.  The poles are checked against a run,
        # which reads the orbit as an Ovaloid: it cannot resolve the turn of
        # theta' so close to the axis.
        params, ic = Params(a, 0.0014858953275460607), InitialConditions(1.5447316940218563,
                                                                         1.9556505834239677)
        r = classify_surface(params, ic)
        assert (r.surface.tag, r.self_intersections) == (SurfaceTag.VESICLE, 0)
        tight = replace(cli.default_controls(params, ic), rel_tol=1e-12)
        assert r.pole_z == pytest.approx(run_witness(params, ic, tight).pole_z, abs=1e-10)

    @pytest.mark.parametrize("a,b,x0,theta0", [
        (0.9999999308681532, 0.10914905680954545, 0.1914197696557015, 2.2866004944678098),
        (1.0000008959096949, 0.012291816666607058, 0.8689357098458244, 2.752861449450704),
        (0.9999996042995924, -0.11482076402637986, 0.2234137436115217, 5.036441115757602),
    ])
    def test_critical_radius_within_rounding_of_the_axis(self, a, b, x0, theta0):
        # x_c / x_hi is about 6e-17, so phi(x_c) stands for a radius near 2 x_c
        # and the quadrature's mid anchor reached below the axis: classify
        # raised a bare ValueError from log1p.  As above, the run reads an
        # Ovaloid, and the poles are checked against it.
        params, ic = Params(a, b), InitialConditions(x0, theta0)
        r = classify_surface(params, ic)
        assert (r.surface.tag, r.self_intersections) == (SurfaceTag.VESICLE, 0)
        tight = replace(cli.default_controls(params, ic), rel_tol=1e-12)
        assert r.pole_z == pytest.approx(run_witness(params, ic, tight).pole_z, abs=1e-10)

    def test_zero_of_f_h_below_the_float_range(self):
        # x0 lies 1e-3 above (1 - a)/b, and the zero of f_H, near 1e-346,
        # lies below the float range.  The search for it failed and the
        # report was Inconclusive; by Lemma A a Vesicle needs no zero.  As
        # above, the run reads an Ovaloid; its poles and crossings are checked.
        params = Params(0.9912770475292776, 1.353342387675414)
        ic = InitialConditions(0.0064519337476683985, PI / 2)
        r = classify_surface(params, ic)
        assert (r.surface.tag, r.self_intersections) == (SurfaceTag.VESICLE, 0)
        assert r.pole_z == pytest.approx((-0.0064518947, 0.0064518947), rel=1e-8)
        tight = replace(cli.default_controls(params, ic), rel_tol=1e-12)
        witness = run_witness(params, ic, tight)
        assert witness.self_intersections == 0
        assert r.pole_z == pytest.approx(witness.pole_z, abs=1e-10)

    def test_antinodoid_beyond_separatrix(self):
        r = classify_surface(Params(3, 1), InitialConditions(6.0, 0.0))
        assert r.surface.tag == SurfaceTag.ANTINODOID
        assert r.z_shift < 0
        assert r.self_intersections >= 1

    def test_cylindrical_antinodoid_on_separatrix(self):
        xbar = find_separatrix(Params(3, 1), 0.0, (4.0, 7.0), rel_width=1e-13)
        r = classify_surface(Params(3, 1), InitialConditions(xbar, 0.0))
        assert r.surface.tag == SurfaceTag.CYLINDRICAL_ANTINODOID
        assert r.asymptotic_radius == pytest.approx(3.0)
        assert r.self_intersections == 1

    @pytest.mark.parametrize("delta", [0.0, 1e-12, -1e-12, 1e-10, 1e-9])
    def test_cylindrical_antinodoid_loops_near_separatrix(self, delta):
        # Only the separatrix itself is asymptotic to the cylinder: beyond it
        # the orbit turns at a radius next to a/b and winds, inside it the
        # orbit passes the saddle and returns to the axis.
        x0 = math.sqrt(27.0) * (1.0 + delta)
        r = classify_surface(Params(3, 1), InitialConditions(x0, 0.0))
        want = {0.0: SurfaceTag.CYLINDRICAL_ANTINODOID, 1.0: SurfaceTag.ANTINODOID,
                -1.0: SurfaceTag.IMMERSED_SPHEROID}[math.copysign(1.0, delta) if delta else 0.0]
        assert r.surface.tag == want
        assert r.self_intersections % 2 == 1

    @pytest.mark.parametrize("a", [0.5, 3.0])
    def test_period_and_pole_gap_grow_at_the_saddle_rate(self, monkeypatch, a):
        # An orbit 1 + delta from the separatrix lingers by the saddle for
        # ln(1/delta)/lam of arclength on each pass, lam = sqrt(a)/x* being
        # the saddle's eigenvalue per unit of arclength (ds = x* dsigma).  A
        # winding neighbour passes once per period, an axis neighbour twice
        # between its poles.
        params = Params(a, 1.0)
        x_star = a / params.b
        saddle = critical_points(params)[2]
        assert (saddle.theta, saddle.x) == (1.5 * PI, x_star)
        lam = max(e.real for e in saddle.eigenvalues) / x_star
        per_decade = math.log(10.0) / lam
        assert per_decade == pytest.approx(math.sqrt(a) / params.b * math.log(10.0), rel=1e-14)
        xbar = find_separatrix(params, 0.0, (1e-3, 1e3))
        runs = spy_integrate(monkeypatch)
        periods, gaps = [], []
        for k in range(6, 11):
            winding = classify_surface(params, InitialConditions(xbar * (1.0 + 10.0 ** -k), 0.0))
            axis = classify_surface(params, InitialConditions(xbar * (1.0 - 10.0 ** -k), 0.0))
            assert (winding.surface.tag, axis.surface.tag) == (SurfaceTag.ANTINODOID,
                                                               SurfaceTag.IMMERSED_SPHEROID)
            periods.append(winding.period)
            gaps.append(axis.pole_z[0] - axis.pole_z[1])
        assert runs == []
        assert np.diff(periods) == pytest.approx(per_decade, rel=1e-5)
        assert np.diff(gaps) == pytest.approx(2.0 * per_decade, rel=1e-5)


class TestPureLinear:
    def test_plane_when_tangent_horizontal(self):
        r = classify_surface(Params(2, 0), InitialConditions(1.0, 0.0))
        assert r.surface.tag == SurfaceTag.PLANE

    def test_umbilic_sphere(self):
        r = classify_surface(Params(1, 0), InitialConditions(1.0, PI / 2))
        assert r.surface.tag == SurfaceTag.SPHERE
        assert r.surface.radius == pytest.approx(1.0)
        r = classify_surface(Params(1, 0), InitialConditions(1.0, PI / 4))
        assert r.surface.radius == pytest.approx(math.sqrt(2.0))

    @pytest.mark.parametrize("a,tag", [
        (2.0, SurfaceTag.OVALOID),
        (0.5, SurfaceTag.OVALOID),
        (-1.0, SurfaceTag.CATENOID_ENTIRE),
        (-0.5, SurfaceTag.CATENOID_ENTIRE),
        (-2.0, SurfaceTag.CATENOID_BOUNDED),
    ])
    def test_sign_of_a_decides(self, a, tag):
        r = classify_surface(Params(a, 0), InitialConditions(1.0, PI / 2))
        assert r.surface.tag == tag

    @pytest.mark.parametrize("a", [0.1, 0.5, 1.0, 2.0])
    def test_theta_range_runs_from_pole_to_pole(self, a):
        # sin(theta) = s0 (x/x0)^a vanishes only on the axis, which a run
        # stops short of, at AXIS_EPSILON: 0.159 short at a = 0.1.
        for theta0 in (PI / 2, 0.75 * PI):
            r = classify_surface(Params(a, 0), InitialConditions(1.0, theta0))
            assert r.theta_range == pytest.approx((0.0, PI), abs=1e-15)

    def test_ovaloid_hits_axis_on_both_sides(self):
        r = classify_surface(Params(2, 0), InitialConditions(1.0, PI / 2))
        assert r.pole_z is not None
        z1, z2 = r.pole_z
        assert abs(z1 + z2) < 1e-6

    @pytest.mark.parametrize("a", [2.0, -2.0])
    def test_homothety_invariance(self, a):
        base = classify_surface(Params(a, 0), InitialConditions(1.0, PI / 2)).surface.tag
        for lam in (0.5, 2.0):
            scaled = classify_surface(Params(a, 0),
                                      InitialConditions(lam * 1.0, PI / 2)).surface.tag
            assert scaled == base

    def test_ovaloid_graph_concavity(self):
        # z''(x) = theta'/cos(theta)^3 keeps one sign on each graph branch
        traj = integrate(Params(2, 0), InitialConditions(1.0, PI / 2),
                         IntegrationControls(max_arclength=20))
        s = np.linspace(traj.s_min + 0.05, traj.s_max - 0.05, 801)
        x, _, theta = traj.eval(s)
        cos_t = np.cos(theta)
        tp = traj.theta_prime(s)
        branch = np.abs(cos_t) > 1e-3
        zxx = tp[branch] / cos_t[branch] ** 3
        signs = np.sign(cos_t[branch])
        for sgn in (-1.0, 1.0):
            vals = zxx[signs == sgn]
            if vals.size:
                assert np.all(np.sign(vals) == np.sign(vals[0]))


class TestCatenoidAsymptote:
    def test_entire_range_returns_none(self):
        assert catenoid_asymptote(Params(-1.0, 0.0), InitialConditions(1.0, PI / 2)) is None
        assert catenoid_asymptote(Params(-0.3, 0.0), InitialConditions(2.0, 0.7)) is None

    def test_wrong_regime(self):
        with pytest.raises(WrongSignRegime):
            catenoid_asymptote(Params(2.0, 0.0), InitialConditions(1.0, PI / 2))

    def test_requires_b_zero_and_a_curve(self):
        with pytest.raises(InvalidParameter):
            catenoid_asymptote(Params(-2.0, 1.0), InitialConditions(1.0, PI / 2))
        with pytest.raises(InvalidParameter):
            catenoid_asymptote(Params(-2.0, 0.0), InitialConditions(1.0, 0.0))

    def test_quadrature_agrees_with_ode(self):
        # follow the profile far out and compare the height limit
        z1 = catenoid_asymptote(Params(-2, 0), InitialConditions(1.0, PI / 2))
        traj = integrate(Params(-2, 0), InitialConditions(1.0, PI / 2),
                         IntegrationControls(max_arclength=2e4))
        z_far = traj.z[-1]
        # the run ends near x = 2e4, and the remaining tail, about 1/x, is
        # below 1e-4
        assert z_far == pytest.approx(z1, abs=2e-4)

    def test_homothety_scaling(self):
        # under x -> lam x the neck and the asymptote scale by lam; a state
        # off the neck gives the same neck x0 |sin(theta0)|^(-1/a)
        a, lam = -2.0, 2.0
        z1 = catenoid_asymptote(Params(a, 0.0), InitialConditions(1.0, PI / 2))
        z1_scaled = catenoid_asymptote(Params(a, 0.0), InitialConditions(lam, PI / 2))
        assert z1_scaled == pytest.approx(lam * z1, rel=1e-9)
        neck = InitialConditions(2.0 ** 0.25, PI / 4)   # x_min = x0 sin(theta0)^(1/2) = 1
        assert catenoid_asymptote(Params(a, 0.0), neck) == pytest.approx(z1, rel=1e-9)

    @pytest.mark.parametrize("a", [-1.0001, -1.5, -2.0, -7.3, -1000.0, -1e6])
    def test_beta_closed_form(self, a):
        # z1 = x_min B(1/2 - 1/q, 1/2)/q, q = -2a, with scipy's Beta at the
        # argument (a + 1)/(2a): 1/2 - 1/q in floats loses four digits at
        # a = -1.0001.
        x0, theta0 = 1.7, 0.9
        x_min = x0 * math.sin(theta0) ** (-1.0 / a)
        want = x_min * beta((a + 1.0) / (2.0 * a), 0.5) / (-2.0 * a)
        got = catenoid_asymptote(Params(a, 0.0), InitialConditions(x0, theta0))
        assert got == pytest.approx(want, rel=1e-13, abs=0.0)


class TestReportMechanics:
    def test_negative_b_is_reflected(self):
        direct = classify_surface(Params(-2, 1), InitialConditions(4.0, PI / 2))
        mirrored = classify_surface(Params(-2, -1), InitialConditions(4.0, PI / 2 + PI))
        assert mirrored.canonicalized_b
        assert mirrored.surface.tag == direct.surface.tag
        assert mirrored.z_shift == pytest.approx(-direct.z_shift, rel=1e-8)
        assert mirrored.period == pytest.approx(direct.period, rel=1e-10)

    def test_inconclusive_on_tiny_budget(self):
        # This orbit's inner turning radius is not a float, so it stays
        # Inconclusive, with the level's diagnostics: x_lo = 0.0 and x_hi.
        with pytest.raises(Inconclusive) as info:
            classify_surface(*BELOW_THE_FLOATS)
        assert info.value.diagnostics == {
            "reason": "the inner turning radius lies below the float range",
            "x_lo": 0.0, "x_hi": 1498.959082627963, "term_size": None}

    def test_unresolved_radii_are_inconclusive(self, monkeypatch):
        # Where rounding loses a turning radius, no run stands in for it.
        def lost(*args):
            raise FloatingPointError("no turning radius resolved")
        monkeypatch.setattr(levelset, "level", lost)
        runs = spy_integrate(monkeypatch)
        with pytest.raises(Inconclusive) as info:
            classify_surface(Params(-2, 1), InitialConditions(4.0, PI / 2))
        assert runs == []
        assert info.value.diagnostics == {
            "reason": "floats cannot resolve the turning radii (no turning radius resolved)",
            "x_lo": None, "x_hi": None, "term_size": None}

    def test_pure_linear_report_ignores_the_controls(self):
        # b = 0 is read off its first integral in closed form, so rel_tol
        # does not bind it.
        for a, theta0 in [(1, PI / 2), (2, 0.0), (2, 2.0), (-0.5, 2.0), (-2, PI / 4)]:
            params, ic = Params(a, 0), InitialConditions(2.0, theta0)
            reports = [classify_surface(params, ic), classify_surface(params, ic, rel_tol=1e-4)]
            assert reports[1] == reports[0]

    def test_embeddedness_counts(self):
        und = classify_surface(Params(-2, 1), InitialConditions(1.0, PI / 2))
        nod = classify_surface(Params(-2, 1), InitialConditions(3.5, PI / 2))
        assert und.self_intersections == 0
        assert nod.self_intersections >= 1


def spy_integrate(monkeypatch) -> list:
    """Record the controls of every run of the stepper, one per direction."""
    runs, real = [], INTEGRATE._run_direction

    def spy(params, ic, controls, direction):
        runs.append(controls)
        return real(params, ic, controls, direction)
    monkeypatch.setattr(INTEGRATE, "_run_direction", spy)
    return runs


# The seed-0 sweep grid's cells that are read off the level set: every a < 0
# cell but two spheres and a cylinder, and two a = 1 antinodoids.
ON_THRESHOLD = [(-3, 1, 4.0, PI / 2), (-1, 0.5, 4.0, PI / 2), (-2, 0.5, 4.0, PI / 2)]
GRID_PERIODIC = [(a, b, x0, theta0)
                 for a in (-3, -2, -1) for b in (0.5, 1) for x0 in (0.5, 1.5, 4.0)
                 for theta0 in (PI / 2, 0.0) if (a, b, x0, theta0) not in ON_THRESHOLD]
GRID_PERIODIC += [(1, 1, 4.0, PI / 2), (1, 1, 4.0, 0.0)]
WITNESSED = PERIODIC + [case for case in GRID_PERIODIC if case not in PERIODIC]


def case_id(case):
    return "{:g},{:g},{:g},{:.4f}".format(*case)


class Witness(NamedTuple):
    """The class of an orbit read off a two-sided run alone."""
    surface: SurfaceClass
    period: Optional[float]
    z_shift: Optional[float]
    pole_z: Optional[tuple[float, float]]
    self_intersections: int
    termination: Termination
    traj: Trajectory


# Periods of a winding run over which its crossings are collected.
PERIODS_READ = 2.1


def run_witness(params, ic, controls=None) -> Witness:
    """The class of a two-sided run at controls (check's by default), the
    witness that level-set reports are tested against.

    A run whose tangent turns fully winds: its period and shift come from
    detect_period, it is a Nodoid when it rises per period in the direction
    it points where its radius is greatest, else an Antinodoid, and its
    crossings per period are those of a PERIODS_READ-period window whose
    earlier point falls in the first period.  A run that reaches the axis
    both ways is an Ovaloid when theta is monotone, else a PinchedSpheroid,
    Vesicle or ImmersedSpheroid by its pole gap, with the crossings of the
    whole run.  An a < 0 run that does neither is an Unduloid.
    """
    traj = integrate(params, ic, controls or cli.default_controls(params, ic))
    witness = dict(period=None, z_shift=None, pole_z=None, self_intersections=0,
                   termination=traj.termination, traj=traj)
    if any(abs(round((e.state.theta - ic.theta0) / (2 * PI))) >= 1
           for e in traj.events_of(EventKind.FULL_TURN)):
        period, z_shift = detect_period(traj)
        toward_axis = z_shift * math.sin(traj.theta[np.argmax(traj.x)]) > 0.0
        lo = max(0.0, traj.s_min)
        loops = find_self_intersections(
            traj, window=(lo, min(lo + PERIODS_READ * period, traj.s_max)))
        crossings = max(sum(1 for r in loops if lo <= r.s_a < lo + period), 1) if loops else 0
        tag = SurfaceTag.NODOID if toward_axis else SurfaceTag.ANTINODOID
        return Witness(SurfaceClass(tag), **{**witness, "period": period, "z_shift": z_shift,
                                             "self_intersections": crossings})
    if traj.termination == traj.termination_backward == Termination.AXIS_REACHED:
        z1, z2 = float(traj.z[0]), float(traj.z[-1])
        d = np.diff(traj.theta)
        if np.all(d >= -1e-10) or np.all(d <= 1e-10):
            tag, crossings = SurfaceTag.OVALOID, 0
        else:
            tag = (SurfaceTag.PINCHED_SPHEROID if abs(z2 - z1) < classify.POLE_ORDER_TOL * ic.x0
                   else SurfaceTag.VESICLE if z2 > z1 else SurfaceTag.IMMERSED_SPHEROID)
            crossings = len(find_self_intersections(traj))
        return Witness(SurfaceClass(tag), **{**witness, "pole_z": (z1, z2),
                                             "self_intersections": crossings})
    assert params.a < 0.0, "the run neither winds nor reaches the axis both ways"
    return Witness(SurfaceClass(SurfaceTag.UNDULOID), **witness)


def polyline_crossings(params, ic, period, z_shift, x_hi):
    """Crossings per period of a long run's polyline.

    The run spans 3 x_hi/|z_shift| + 6 periods, so that a loop meets every
    neighbour it can reach; the crossings counted are those whose earlier
    point falls in the middle period.
    """
    n = math.ceil(3.0 * x_hi / abs(z_shift)) + 6
    traj = integrate(params, ic, IntegrationControls(max_arclength=n * period))
    first = n // 2 * period
    return sum(1 for r in find_self_intersections(traj, (0.0, traj.s_max), n_samples=512 * n)
               if first <= r.s_a < first + period)


class TestPeriodicSpan:
    @pytest.mark.parametrize("case", WITNESSED, ids=case_id)
    def test_level_set_report_matches_the_integration(self, case):
        a, b, x0, theta0 = case
        params, ic = Params(a, b), InitialConditions(x0, theta0)
        report = classify_surface(params, ic)
        tight = replace(cli.default_controls(params, ic), rel_tol=1e-13)
        witness = run_witness(params, ic, tight)
        assert witness.termination == Termination.MAX_ARCLENGTH   # 3.25 periods
        assert report.surface == witness.surface
        for got, want in ((report.period, witness.period), (report.z_shift, witness.z_shift)):
            assert (got is None) == (want is None)
            if want is not None:
                assert got == pytest.approx(want, rel=1e-8)
        if report.period is None:
            assert report.self_intersections == witness.self_intersections == 0
            return
        cparams, cic, _ = canonicalize(params, ic)
        x_hi = level_of(cparams, cic).x_hi
        assert report.self_intersections == polyline_crossings(
            cparams, cic, report.period, report.z_shift, x_hi)

    def test_periodic_orbit_runs_nothing(self, monkeypatch):
        runs = spy_integrate(monkeypatch)
        r = classify_surface(Params(-2, 1), InitialConditions(4.0, PI / 2))
        assert runs == []
        assert r.surface.tag == SurfaceTag.NODOID

    def test_separatrix_runs_nothing(self, monkeypatch):
        # Its state lies on the saddle's level of the first integral, so it
        # is a CylindricalAntinodoid in closed form.
        xbar = find_separatrix(Params(3, 1), 0.0, (4.0, 7.0), rel_width=1e-13)
        runs = spy_integrate(monkeypatch)
        r = classify_surface(Params(3, 1), InitialConditions(xbar, 0.0))
        assert runs == []
        assert r.surface.tag == SurfaceTag.CYLINDRICAL_ANTINODOID
        assert (r.asymptotic_radius, r.self_intersections) == (3.0, 1)

    def test_failed_quadrature_is_inconclusive(self, monkeypatch):
        def fail(*args):
            raise QuadratureFailure("period quadrature failed")
        monkeypatch.setattr(levelset, "winding", fail)
        runs = spy_integrate(monkeypatch)
        params, ic = Params(-2, 1), InitialConditions(4.0, PI / 2)
        with pytest.raises(Inconclusive) as info:
            classify_surface(params, ic)
        assert runs == []
        diagnostics = info.value.diagnostics
        assert diagnostics["reason"] == "the quadrature failed (period quadrature failed)"
        level = level_of(params, ic)
        assert (diagnostics["x_lo"], diagnostics["x_hi"]) == (level.x_lo, level.x_hi)
        assert 1.0 <= diagnostics["term_size"] < 10.0

    @pytest.mark.parametrize("delta", [1e-4, -1e-4, 1e-10, -1e-10, 1e-12, -1e-12, 1e-14, -1e-14])
    def test_level_set_near_a_one_matches_a_tight_run(self, delta):
        # Anchored at (x0, sin(theta0)), f_H keeps its digits as a -> 1.
        params, ic = Params(1.0 + delta, 1.0), InitialConditions(3.0, 4.0)
        r = classify_surface(params, ic)
        tight = replace(cli.default_controls(params, ic), rel_tol=1e-13)
        witness = run_witness(params, ic, tight)
        assert r.surface == witness.surface
        assert r.period == pytest.approx(witness.period, rel=1e-8)
        assert r.z_shift == pytest.approx(witness.z_shift, rel=1e-8)

    def test_level_set_near_a_one_agrees_with_the_integration(self):
        # At a = 1 + 1e-4 the level set also agrees with a run at default controls.
        params, ic = Params(1.0001, 1.0), InitialConditions(3.0, 4.0)
        r = classify_surface(params, ic)
        witness = run_witness(params, ic)
        assert r.surface == witness.surface
        assert r.period == pytest.approx(witness.period, rel=1e-8)
        assert r.z_shift == pytest.approx(witness.z_shift, rel=1e-8)

    @pytest.mark.parametrize("b,x0,pole", [(0.001, 1.0, 1.000693498577178),
                                           (1.0, 0.001, 0.0010006934985062755)])
    def test_level_set_beyond_the_floats_keeps_the_ovaloid(self, b, x0, pole):
        # The a = 1 critical radius exp(-H/b - 1) is not a float here; the
        # orbit runs from the axis to x_hi = x0 and is read off its level set.
        r = classify_surface(Params(1, b), InitialConditions(x0, 1.5 * PI))
        assert r.surface.tag == SurfaceTag.OVALOID
        assert max(r.pole_z) == pytest.approx(pole, rel=1e-9)

    @pytest.mark.parametrize("a,b,x0,theta0,tag", [
        (-2, 1, 4.0, PI / 2, SurfaceTag.NODOID),
        (3, 1, 6.0, 0.0, SurfaceTag.ANTINODOID),
        (-2, 1, 0.5, PI / 2, SurfaceTag.UNDULOID),
    ])
    def test_overflowing_level_set_is_inconclusive(self, monkeypatch, a, b, x0, theta0, tag):
        # No run stands in for a level set that overflows, whatever its class.
        assert classify_surface(Params(a, b), InitialConditions(x0, theta0)).surface.tag == tag

        def overflow(*args):
            raise OverflowError("math range error")
        monkeypatch.setattr(levelset, "f_H", overflow)
        runs = spy_integrate(monkeypatch)
        with pytest.raises(Inconclusive) as info:
            classify_surface(Params(a, b), InitialConditions(x0, theta0))
        assert runs == []
        assert info.value.diagnostics["reason"] == (
            "floats cannot resolve the turning radii (math range error)")

    def test_unduloid_theta_range_is_closed_form(self):
        params, ic = Params(-2, 1), InitialConditions(0.5, PI / 2)
        lo, hi = classify_surface(params, ic).theta_range
        traj = integrate(params, ic, cli.default_controls(params, ic))
        theta = traj.eval(np.linspace(traj.s_min, traj.s_max, 40001))[2]
        assert lo - 1e-9 <= theta.min() and theta.max() <= hi + 1e-9
        assert (theta.min(), theta.max()) == pytest.approx((lo, hi), abs=1e-4)
        mirrored = classify_surface(Params(-2, -1), InitialConditions(0.5, 1.5 * PI))
        assert mirrored.theta_range == pytest.approx((lo + PI, hi + PI), abs=1e-12)

    def test_nodoid_grid_follows_the_threshold_rule(self):
        # Beyond x_sph = (1 - a)/b every a < 0 winding profile is a Nodoid.
        # Overlapping neighbour loops made the old crossing vote say
        # Antinodoid on 41 of these 96 cells.
        wrong = []
        for a in np.arange(-3.0, 0.0, 0.25):
            for b in (0.5, 1.0):
                for k in (1.2, 1.6, 2.0, 3.0):
                    x0 = k * (1.0 - a) / b
                    tag = classify_surface(Params(a, b), InitialConditions(x0, PI / 2)).surface.tag
                    if tag != SurfaceTag.NODOID:
                        wrong.append((a, b, k, tag.value))
        assert wrong == []


class NoRun(Exception):
    pass


class TestLevelSetOracles:
    def test_nodoid_exactly_when_a_is_negative(self, monkeypatch):
        # Inputs that are not read off the level set stop at their first run.
        def refuse(*args):
            raise NoRun
        monkeypatch.setattr(INTEGRATE, "_run_direction", refuse)
        rng = np.random.default_rng(7)
        n = 10_000
        a = rng.uniform(-4.0, 4.0, n)
        x0 = np.exp(rng.uniform(math.log(0.05), math.log(20.0), n))
        theta0 = rng.uniform(0.0, 2 * PI, n)
        seen, wrong = {}, []
        for case in zip(a.tolist(), x0.tolist(), theta0.tolist()):
            try:
                tag = classify_surface(Params(case[0], 1.0), InitialConditions(*case[1:])).surface.tag
            except NoRun:
                continue
            seen[tag] = seen.get(tag, 0) + 1
            if tag != SurfaceTag.UNDULOID and (tag == SurfaceTag.NODOID) != (case[0] < 0.0):
                wrong.append(case)
        assert wrong == []
        assert min(seen.get(t, 0) for t in (SurfaceTag.NODOID, SurfaceTag.ANTINODOID)) > 1000

    def test_extreme_level_is_read_off_its_end_anchors(self, monkeypatch):
        # Anchored at x_hi, f_H sums terms 2e13 times its size at x(pi/2), so
        # levelset.split hands the level to the x_lo anchor for all but the
        # last _END_PHI; its reference is a 50-digit quadrature of the same
        # integrals.  A run at rel_tol 1e-13 misses x(T) = x0 by 2.9 here.
        params = Params(-218.89030969559963, 15.444113812318664)
        ic = InitialConditions(10.677482104432686, 0.40232139186544674)
        runs = spy_integrate(monkeypatch)
        r = classify_surface(params, ic)
        assert runs == [] and r.surface.tag == SurfaceTag.NODOID
        assert (r.period, r.z_shift) == pytest.approx((20.711651724643287, 18.697733645531916),
                                                      rel=1e-12)
        level = level_of(params, ic)
        assert (level.s_lo, level.s_hi) == (-1.0, 1.0)
        cut, size = levelset.split(level, 1e-10 / np.finfo(float).eps)
        assert cut > 0.9 * PI and size < 2.0

    def test_circle_limit_as_a_goes_to_zero(self):
        # At a = 0 the profile is a circle of curvature b: T -> 2 pi/b and
        # dz -> 0 linearly in a, so a loop overlaps about 1/|a| neighbours.
        def scaled(a):
            r = classify_surface(Params(a, 1.0), InitialConditions(3.0, PI / 2))
            assert r.surface.tag == SurfaceTag.NODOID
            return np.array([(r.period - 2 * PI) / a, r.z_shift / a,
                             r.self_intersections * abs(a)])
        assert scaled(-1e-3) == pytest.approx(scaled(-1e-4), rel=5e-3)

    def test_nodoid_that_failed_detect_period(self):
        # The integration path's detect_period raised VerificationFailed here.
        params, ic = Params(-3, 0.5), InitialConditions(0.5, 0.0)
        r = classify_surface(params, ic)
        assert r.surface.tag == SurfaceTag.NODOID
        traj = integrate(params, ic,
                         IntegrationControls(rel_tol=1e-13, max_arclength=3.0 * r.period))
        assert r.period == pytest.approx(detect_period(traj)[0], rel=1e-8)


AXIS_TAGS = {SurfaceTag.OVALOID, SurfaceTag.VESICLE, SurfaceTag.PINCHED_SPHEROID,
             SurfaceTag.IMMERSED_SPHEROID}
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def benchmark_cells(monkeypatch, source):
    """The (a, b, x0, theta0) inputs of the benchmark's sweep grids at one seed,
    or of its classify cases."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads
    if source == "classify":
        return [case[1:] for case in workloads.classify_cases(0)]
    grids = workloads.sweep_grids(int(source.removeprefix("sweep")))
    return sorted({cell for grid in grids for cell in itertools.product(*grid)})


def random_axis_draws(n, seed=0):
    """n random a > 0 inputs whose report is read off an axis-to-axis level set.

    |a| log-uniform in [0.05, 5], |b| in [0.1, 3] with a random sign, x0 in
    [0.1, 10], theta0 uniform in [0, 2 pi).
    """
    rng, out = random.Random(seed), []
    while len(out) < n:
        a = math.exp(rng.uniform(math.log(0.05), math.log(5.0)))
        b = math.exp(rng.uniform(math.log(0.1), math.log(3.0))) * rng.choice((-1.0, 1.0))
        x0 = math.exp(rng.uniform(math.log(0.1), math.log(10.0)))
        theta0 = rng.uniform(0.0, 2 * PI)
        report = classify_surface(Params(a, b), InitialConditions(x0, theta0))
        if report.surface.tag in AXIS_TAGS:
            out.append((a, b, x0, theta0))
    return out


def theta_extremes(traj):
    """theta's least and greatest value on a run, from its dense output about
    the extreme samples."""
    out = []
    for i, pick in ((int(np.argmin(traj.theta)), np.min), (int(np.argmax(traj.theta)), np.max)):
        s = np.linspace(traj.s[max(i - 1, 0)], traj.s[min(i + 1, traj.s.size - 1)], 2001)
        out.append(float(pick(traj.eval(s)[2])))
    return tuple(out)


def axis_witness_mismatch(params, ic, report):
    """How an axis-to-axis level-set report disagrees with a two-sided run at
    rel_tol 1e-13, or None.

    The run stops at x = AXIS_EPSILON, short of the poles, where theta still
    differs from its axis value by about H AXIS_EPSILON^a: 3e-5 at a = 0.57
    and 0.38 at a = 0.05.  So its pole heights and theta range are compared
    with the level set's over the stretch [AXIS_EPSILON, x_hi] it covers.
    """
    tight = replace(cli.default_controls(params, ic), rel_tol=1e-13)
    witness = run_witness(params, ic, tight)
    traj = witness.traj
    level = level_of(params, ic)
    eps = AXIS_EPSILON
    z_eps, = levelset.axis_rises(level, [eps])
    poles = (report.pole_z[0] + z_eps, report.pole_z[1] - z_eps)
    lo, hi = classify._level_theta_range(ic, level._replace(x_lo=eps))
    why = []
    if witness.surface != report.surface:
        why.append(f"tag {witness.surface}")
    if witness.self_intersections != report.self_intersections:
        why.append(f"crossings {witness.self_intersections} != {report.self_intersections}")
    if witness.pole_z is None or max(abs(p - q) for p, q in zip(witness.pole_z, poles)) > 1e-8 * ic.x0:
        why.append(f"pole_z {witness.pole_z} != {poles}")
    t_lo, t_hi = theta_extremes(traj)
    r_lo, r_hi = report.theta_range
    if max(abs(t_lo - lo), abs(t_hi - hi)) > 1e-6 or not r_lo - 1e-6 <= t_lo <= t_hi <= r_hi + 1e-6:
        why.append(f"theta_range {(t_lo, t_hi)} != {(lo, hi)} within {report.theta_range}")
    return why or None


class TestAxisToAxis:
    @pytest.mark.parametrize("source,least", [("sweep0", 33), ("sweep1", 98), ("sweep2", 95),
                                              ("sweep3", 96), ("classify", 4), ("random", 200)])
    def test_level_set_report_matches_the_integration(self, monkeypatch, source, least):
        cells = (random_axis_draws(200) if source == "random"
                 else benchmark_cells(monkeypatch, source))
        checked, wrong = 0, []
        for a, b, x0, theta0 in cells:
            if a == 0.0:
                continue
            params, ic, _ = canonicalize(Params(a, b), InitialConditions(x0, theta0))
            report = classify_surface(params, ic)
            if report.surface.tag not in AXIS_TAGS:
                continue
            checked += 1
            why = axis_witness_mismatch(params, ic, report)
            if why is not None:
                wrong.append(((a, b, x0, theta0), why))
        assert wrong == []
        assert checked >= least


def lemma_draws(n, seed=11):
    """n inputs with b = 1, |a| log-uniform in [0.02, 50] with a random sign,
    x0 log-uniform in [0.05, 20] and theta0 uniform in [0, 2 pi), with
    their reports."""
    rng = np.random.default_rng(seed)
    a = np.exp(rng.uniform(math.log(0.02), math.log(50.0), n)) * rng.choice([-1.0, 1.0], n)
    x0 = np.exp(rng.uniform(math.log(0.05), math.log(20.0), n))
    theta0 = rng.uniform(0.0, 2 * PI, n)
    return [(params, ic, classify_surface(params, ic))
            for params, ic in ((Params(a_, 1.0), InitialConditions(x_, t_))
                               for a_, x_, t_ in zip(a.tolist(), x0.tolist(), theta0.tolist()))]


def rise_ratio(params, anchor):
    """(r, err): r = Z(x_z)/Z(x_hi) of a winding orbit from scipy's quad, with
    a bound on its error.

    Z is integrated in phi, with x = c - h cos(phi) on [x_lo, x_hi], on the
    level re-anchored at the end that levelset.split picks, as in
    levelset._half_integrals; x_z is scipy's brentq root of f_H.
    """
    level = levelset.level(params, anchor)
    _, _, x_lo, x_hi, s_lo, s_hi = level
    ends = [levelset.Anchor(x_lo, s_lo), levelset.Anchor(x_hi, s_hi)]
    cut, _ = levelset.split(level, REL_TOL / sys.float_info.epsilon)
    c, h = 0.5 * (x_lo + x_hi), 0.5 * (x_hi - x_lo)

    def rise(phi):
        end, d = ((ends[0], 2.0 * h * math.sin(0.5 * phi) ** 2) if phi < cut
                  else (ends[1], -2.0 * h * math.cos(0.5 * phi) ** 2))
        u = levelset.f_H(params, end, end.x + d) - end.s
        q = -u * (2.0 * end.s + u)
        return (end.s + u) * h * math.sin(phi) / math.sqrt(q) if q > 0.0 else 0.0

    x_z = brentq(lambda x: levelset.f_H(params, anchor, x), x_lo, x_hi, xtol=1e-15 * x_lo)
    phi_z = math.acos((c - x_z) / h)
    knots = sorted([0.0, phi_z, cut, PI])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        pieces = [quad(rise, lo, hi, epsabs=0.0, epsrel=1e-10, limit=200)
                  for lo, hi in zip(knots, knots[1:])]
    k = knots.index(phi_z)
    z_z, z_hi = sum(v for v, _ in pieces[:k]), sum(v for v, _ in pieces)
    r = z_z / z_hi
    return r, sum(e for _, e in pieces) * (1.0 + abs(r)) / abs(z_hi)


def first_root_below(f, x_hi):
    """The root of f between x_hi and the first x_hi 2^-k, k >= 1, where f < 0."""
    x = next(x for x in (math.ldexp(x_hi, -k) for k in range(1, 1075)) if f(x) < 0.0)
    return brentq(f, x, x_hi, xtol=1e-15 * x)


class TestCrossingLemmas:
    """Lemma W (levelset.winding) and Lemma A (classify._axis_report) on random
    b = 1 inputs, against quadratures and runs of their own."""

    def test_winding_crossings_follow_lemma_w(self):
        checked = 0
        for params, ic, report in lemma_draws(400):
            tag = report.surface.tag
            if tag not in (SurfaceTag.NODOID, SurfaceTag.ANTINODOID):
                continue
            checked += 1
            n = report.self_intersections
            assert n % 2 == 1 and n >= 1
            r, err = rise_ratio(params, levelset.Anchor(ic.x0, math.sin(ic.theta0)))
            assert err < 1e-6
            # r lies outside [0, 1]: below it for the Nodoid, above for the Antinodoid
            assert (r < -err) if tag is SurfaceTag.NODOID else (r > 1.0 + err)
            d = max(-r, r - 1.0)
            if abs(d - round(d)) > err:
                assert n == 2 * math.ceil(d) - 1
        assert checked >= 150

    def test_axis_crossings_follow_lemma_a(self):
        counts = {SurfaceTag.OVALOID: 0, SurfaceTag.VESICLE: 0, SurfaceTag.PINCHED_SPHEROID: 1,
                  SurfaceTag.IMMERSED_SPHEROID: 1}
        seen = set()
        for params, ic, report in lemma_draws(400):
            tag = report.surface.tag
            if params.a < 0.0 or tag not in counts:
                continue
            seen.add(tag)
            assert report.self_intersections == counts[tag]
            if tag is SurfaceTag.OVALOID:
                continue
            # The branches meet where Z(x) = Z(x_hi), which for Z falling to
            # Z(x_z) < 0 and then rising holds once when Z(x_hi) lies
            # between Z(x_z) and 0.
            level = level_of(params, ic)
            x_z = first_root_below(lambda x: levelset.f_H(params, level.anchor, x), level.x_hi)
            z_z, z_hi = levelset.axis_rises(level, [x_z, level.x_hi])
            assert z_z < 0.0 and z_z < z_hi
            assert (z_z < z_hi < 0.0) == (tag is SurfaceTag.IMMERSED_SPHEROID)
        assert seen == {SurfaceTag.OVALOID, SurfaceTag.VESICLE, SurfaceTag.IMMERSED_SPHEROID}

    def test_crossings_match_runs(self):
        # The first draw of each tag, and of each count up to 3 for the
        # winding tags, against the crossings of a run's polyline: per
        # period for the winding tags, over the whole run for the others.
        picked = {}
        for params, ic, report in lemma_draws(400):
            key = (report.surface.tag, report.self_intersections)
            if report.self_intersections <= 3 and key not in picked:
                picked[key] = (params, ic, report)
        assert {SurfaceTag.NODOID, SurfaceTag.ANTINODOID} <= {tag for tag, _ in picked}
        for (tag, n), (params, ic, report) in sorted(picked.items(), key=str):
            if tag in (SurfaceTag.NODOID, SurfaceTag.ANTINODOID):
                x_hi = level_of(params, ic).x_hi
                assert polyline_crossings(params, ic, report.period, report.z_shift, x_hi) == n
            else:
                tight = replace(cli.default_controls(params, ic), rel_tol=1e-12)
                assert run_witness(params, ic, tight).self_intersections == n

    @pytest.mark.parametrize("r,crossings", [(0.0, 1), (0.5, 1), (1.0, 1), (-1e-300, 1),
                                             (-1.0, 1), (2.0, 1), (-1.5, 3), (3.5, 5)])
    def test_winding_counts_at_least_one(self, monkeypatch, r, crossings):
        # Rounding may put r = 2 Z(x_z)/dz inside [0, 1], where Lemma W does
        # not let it lie; the true r is then within rounding of 0 or 1, and
        # the count is 1, never 0.
        def half_integrals(*args, **kwargs):
            return [(0.0, r), (1.0, 1.0)]
        monkeypatch.setattr(levelset, "_half_integrals", half_integrals)
        level = levelset.level(Params(-2, 1), levelset.Anchor(4.0, 1.0))
        assert levelset.winding(level).crossings == crossings


class TestLemmaU:
    """Lemma U (classify's docstring): for a > 0 and b > 0 no level is an
    Unduloid, and so, under reflect_b, none for a > 0 and b < 0."""

    def test_no_unduloid_for_positive_a_and_b(self):
        # a, b and x0 log-uniform over four decades, theta0 uniform, and
        # states 1e-3 .. 1e-9 relative off the saddle (a/b, 3 pi/2), where
        # the orbit turns next to the rest point of the lemma's last step.
        rng = np.random.default_rng(14)
        n = 600
        a, b, x0 = np.exp(rng.uniform(math.log(0.01), math.log(100.0), (3, n)))
        theta0 = rng.uniform(0.0, 2 * PI, n)
        delta = rng.choice([-1.0, 1.0], n) * 10.0 ** -rng.integers(3, 10, n)
        inputs = [(Params(*ab), InitialConditions(x, t))
                  for ab, x, t in zip(zip(a.tolist(), b.tolist()), x0.tolist(), theta0.tolist())]
        inputs += [(Params(a_, b_), InitialConditions(a_ / b_ * (1.0 + d), 1.5 * PI))
                   for a_, b_, d in zip(a.tolist(), b.tolist(), delta.tolist())]
        tags = set()
        for params, ic in inputs:
            for p, i in [(params, ic), reflect_b(params, ic)]:
                try:
                    tag = classify_surface(p, i).surface.tag
                except Inconclusive:
                    continue
                assert tag is not SurfaceTag.UNDULOID, (p, i)
                tags.add(tag)
        assert {SurfaceTag.ANTINODOID, SurfaceTag.OVALOID, SurfaceTag.VESICLE,
                SurfaceTag.IMMERSED_SPHEROID} <= tags, tags


# The benchmark's classify inputs that need no set-up bisection.
SYMMETRY_CASES = [
    ("Plane", 2.0, 0.0, 1.0, 0.0),
    ("Sphere", 1.0, 0.0, 1.0, PI / 4),
    ("Cylinder", -2.0, 1.0, 2.0, PI / 2),
    ("Ovaloid", 3.0, 1.0, 1.0, 1.5 * PI),
    ("CatenoidEntire", -1.0, 0.0, 1.0, PI / 2),
    ("CatenoidBounded", -2.0, 0.0, 1.0, PI / 2),
    ("Vesicle", 3.0, 1.0, 1.0, 0.0),
    ("ImmersedSpheroid", 3.0, 1.0, 3.0, 0.0),
    ("Antinodoid", 3.0, 1.0, 6.0, 0.0),
    ("Unduloid", -2.0, 1.0, 0.5, PI / 2),
    ("Nodoid", -2.0, 1.0, 4.0, PI / 2),
    ("Nodoid", -2.0, -1.0, 4.0, PI / 2 + PI),
]


class TestSymmetryInvariance:
    @pytest.mark.parametrize("lam", [0.5, 4.0])
    @pytest.mark.parametrize("case", SYMMETRY_CASES, ids=lambda c: f"{c[0]}-b{c[2]:g}")
    def test_rescale_keeps_the_class(self, case, lam):
        tag, a, b, x0, theta0 = case
        params, ic = rescale(lam, Params(a, b), InitialConditions(x0, theta0))
        assert classify_surface(params, ic).surface.tag.value == tag

    @pytest.mark.parametrize("case", SYMMETRY_CASES, ids=lambda c: f"{c[0]}-b{c[2]:g}")
    def test_reflect_b_keeps_the_class(self, case):
        tag, a, b, x0, theta0 = case
        params, ic = reflect_b(Params(a, b), InitialConditions(x0, theta0))
        assert classify_surface(params, ic).surface.tag.value == tag


# Exact members of the closed forms, (name, a, b, x0, theta0): the Cylinder,
# a < 0 spheres on and off the equator, the Plane and the (3, 1) separatrix.
GATE_MEMBERS = [
    ("cylinder", -2.0, 1.0, 2.0, PI / 2),
    ("sphere-a-2", -2.0, 1.0, 3.0, PI / 2),
    ("sphere-a-3", -3.0, 1.0, 4.0, PI / 2),
    ("sphere-off-equator", -2.0, 1.0, 3.0 * math.sin(4 * PI + PI / 6), 4 * PI + PI / 6),
    ("plane-0", 2.0, 0.0, 1.0, 0.0),
    ("plane-pi", 2.0, 0.0, 1.0, PI),
    ("plane-2pi", 2.0, 0.0, 1.0, 2 * PI),
    ("separatrix", 3.0, 1.0, 5.196152422706632, 0.0),
]


def gate_neighbour(member, delta):
    """The member with x0 moved by delta relative, or, on the Plane, whose
    level sin(theta) = 0 holds at every x0, with theta0 moved by delta."""
    _, a, b, x0, theta0 = member
    if b == 0.0:
        return Params(a, b), InitialConditions(x0, theta0 + delta)
    return Params(a, b), InitialConditions(x0 * (1.0 + delta), theta0)


def tag_or_inconclusive(params, ic):
    try:
        return classify_surface(params, ic).surface.tag.value
    except Inconclusive:
        return "Inconclusive"


def _gate_cases():
    for member in GATE_MEMBERS:
        for delta in (0.0, 1e-4, -1e-4, 1e-10, -1e-10, 1e-14, -1e-14):
            marks = []
            if member[0] == "separatrix" and abs(delta) == 1e-14:
                marks = [pytest.mark.xfail(strict=True, reason=(
                    "some 45 eps off the separatrix the level set's quadrature misses "
                    "its tolerance at some scales and ends Inconclusive"))]
            yield pytest.param(member, delta, marks=marks, id=f"{member[0]}{delta:+g}")


class TestClosedFormGates:
    """Each closed form is one orbit, and its gate takes a state only to rounding."""

    def test_inputs_off_by_more_than_rounding_are_read_off_their_level(self):
        def tag(a, b, x0, theta0):
            return classify_surface(Params(a, b), InitialConditions(x0, theta0)).surface.tag
        assert tag(-2, 1e-9, 2.0002e9, PI / 2) == tag(-2, 1, 2.0002, PI / 2) == SurfaceTag.UNDULOID
        assert tag(-2, 1, 3e-9, 0.0) != SurfaceTag.SPHERE
        assert tag(2, 0, 1, 5e-13) == tag(2, 0, 1, 2e-12) == SurfaceTag.OVALOID

    def test_exact_members_keep_their_closed_forms(self):
        cylinder = classify_surface(Params(-2, 1), InitialConditions(2.0, PI / 2))
        assert cylinder.surface == SurfaceClass(SurfaceTag.CYLINDER, 2.0)
        assert (cylinder.asymptotic_radius, cylinder.theta_range) == (2.0, (PI / 2, PI / 2))
        for a, radius in ((-2, 3.0), (-3, 4.0)):
            sphere = classify_surface(Params(a, 1), InitialConditions(radius, PI / 2))
            c = math.cos(PI / 2)
            assert sphere.surface == SurfaceClass(SurfaceTag.SPHERE, radius)
            assert sphere.pole_z == (radius * (c - 1.0), radius * (c + 1.0))
        for theta0 in (0.0, PI, 2 * PI):
            plane = classify_surface(Params(2, 0), InitialConditions(1.0, theta0))
            assert (plane.surface.tag, plane.theta_range) == (SurfaceTag.PLANE, (theta0, theta0))
        separatrix = classify_surface(Params(3, 1), InitialConditions(5.196152422706632, 0.0))
        assert separatrix.surface.tag == SurfaceTag.CYLINDRICAL_ANTINODOID
        assert (separatrix.asymptotic_radius, separatrix.self_intersections) == (3.0, 1)

    @pytest.mark.parametrize("member,delta", _gate_cases())
    def test_rescale_and_reflect_b_keep_the_tag(self, member, delta):
        params, ic = gate_neighbour(member, delta)
        want = tag_or_inconclusive(params, ic)
        got = {lam: tag_or_inconclusive(*rescale(lam, params, ic))
               for lam in (1e-9, 1e-3, 1e3, 1e9)}
        got["reflect_b"] = tag_or_inconclusive(*reflect_b(params, ic))
        assert got == dict.fromkeys(got, want)

    @pytest.mark.parametrize("lam", [1e-9, 1e-3, 1.0, 1e3, 1e9])
    def test_rest_point_test_has_no_scale(self, lam):
        for a, b, x0, theta0 in ((-2, 1, 2.0, PI / 2), (3, 1, 3.0, 1.5 * PI), (-0.5, 1, 0.5, PI / 2)):
            for delta, want in ((0.0, True), (1e-13, False), (-1e-10, False)):
                params, ic = rescale(lam, Params(a, b), InitialConditions(x0 * (1 + delta), theta0))
                assert is_equilibrium(params, ic) is want, (a, delta)


def separatrix_cases():
    """(a, b, x0, theta0) on the saddle's level: the winding-side roots of
    find_separatrix for 15 values of a and four theta0, plus the root it
    finds for (3, 1) at 3 pi/2 + 0.2."""
    cases = [(float(a), 1.0, find_separatrix(Params(float(a), 1.0), theta0, (1e-3, 1e3)), theta0)
             for a in np.geomspace(0.05, 30.0, 15) for theta0 in (0.0, 1.0, PI / 2, PI)]
    theta0 = 1.5 * PI + 0.2
    return cases + [(3.0, 1.0, find_separatrix(Params(3, 1), theta0, (1.0, 6.0)), theta0)]


# Half-width of the saddle band, in theta about 3 pi/2 mod 2 pi and in x about a/b.
CAPTURE_BAND = 1e-3


def saddle_captures(traj, params):
    """The stretch of a run between its saddle captures nearest s = 0, or None.

    A capture is a run of samples inside the saddle band for at least
    min(50, 16/sqrt(a)): the saddle repels at sqrt(a) per unit sigma, so in
    doubles a run leaves the band after about 2 ln(band/eps)/sqrt(a).  The
    stretch ends on a side without a capture at the end of the run, and
    leaves out the run's divergence after each capture.
    """
    x_star = params.a / params.b
    dist = np.abs(np.remainder(traj.theta - 1.5 * PI, 2 * PI))
    inside = (np.minimum(dist, 2 * PI - dist) < CAPTURE_BAND) & (
        np.abs(traj.x - x_star) < CAPTURE_BAND)
    edges = np.flatnonzero(np.diff(np.concatenate(([0], inside.astype(np.int8), [0]))))
    hold = min(50.0, 16.0 / math.sqrt(params.a))
    stays = [(traj.s[i], traj.s[j - 1]) for i, j in zip(edges[::2], edges[1::2])
             if traj.s[j - 1] - traj.s[i] >= hold]
    if not stays:
        return None
    return (max((s0 for s0, _ in stays if s0 < 0.0), default=traj.s_min),
            min((s1 for _, s1 in stays if s1 > 0.0), default=traj.s_max))


def axis_side_root(a, theta0):
    """The radius below a/b (b = 1) where the orbit from the axis into the
    saddle has angle theta0, to find_separatrix's tolerance."""
    params, saddle = Params(a, 1.0), levelset.Anchor(a, -1.0)
    lo = 1e-3 * a
    return brentq(lambda x: math.sin(theta0) - levelset.f_H(params, saddle, x), lo, a,
                  xtol=MIN_RTOL * lo, rtol=MIN_RTOL)


class TestSaddleLevel:
    def test_separatrices_are_read_off_the_level_set(self, monkeypatch):
        runs = spy_integrate(monkeypatch)
        for a, b, x0, theta0 in separatrix_cases():
            r = classify_surface(Params(a, b), InitialConditions(x0, theta0))
            assert r.surface.tag == SurfaceTag.CYLINDRICAL_ANTINODOID, (a, theta0)
            assert r.pole_z is None
            assert r.asymptotic_radius == a / b
            assert x0 > a / b and r.self_intersections == 1
            lo, hi = r.theta_range
            assert hi - lo == pytest.approx(2 * PI) and lo < theta0 < hi
            assert lo % (2 * PI) == pytest.approx(1.5 * PI)
        assert runs == []

    @pytest.mark.parametrize("a", [0.5, 3.0])
    def test_axis_side_of_the_separatrix(self, monkeypatch, a):
        # From the axis into the saddle: one branch, so no crossing, and
        # theta runs from the axis value 0 or pi to the saddle's -pi/2 or 3 pi/2.
        runs = spy_integrate(monkeypatch)
        for theta0, want in ((4.0, (PI, 1.5 * PI)), (5.5, (1.5 * PI, 2 * PI)),
                             (5.5 - 2 * PI, (-0.5 * PI, 0.0)),
                             (1.5 * PI + 0.2, (1.5 * PI, 2 * PI))):
            x0 = axis_side_root(a, theta0)
            r = classify_surface(Params(a, 1.0), InitialConditions(x0, theta0))
            assert (r.surface.tag, r.self_intersections) == (SurfaceTag.CYLINDRICAL_ANTINODOID, 0)
            assert r.asymptotic_radius == a
            assert r.theta_range == pytest.approx(want, abs=1e-15)
        assert runs == []

    @pytest.mark.parametrize("a,x0", [(3.0, math.sqrt(27.0)), (2.0, 4.0)])
    def test_crossing_count_matches_the_run(self, a, x0):
        # The run counts the crossings between the saddle captures nearest s = 0.
        params, ic = Params(a, 1.0), InitialConditions(x0, 0.0)
        r = classify_surface(params, ic)
        traj = integrate(params, ic, cli.default_controls(params, ic))
        window = saddle_captures(traj, params)
        assert window is not None and window[0] < 0.0 < window[1]
        assert r.surface.tag == SurfaceTag.CYLINDRICAL_ANTINODOID
        assert r.self_intersections == len(find_self_intersections(traj, window=window)) == 1

    def test_reflected_separatrix(self):
        xbar = math.sqrt(27.0)
        direct = classify_surface(Params(3, 1), InitialConditions(xbar, 0.0))
        mirrored = classify_surface(Params(3, -1), InitialConditions(xbar, PI))
        assert mirrored.canonicalized_b and mirrored.surface == direct.surface
        lo, hi = direct.theta_range
        assert mirrored.theta_range == pytest.approx((lo + PI, hi + PI), abs=1e-15)
        assert mirrored.self_intersections == direct.self_intersections == 1

    def test_neighbours_are_left_to_the_run(self):
        # 1e-12 off the level is some 1500 times the gate's allowance, so
        # these neighbours are read off their own level sets.
        for a, b, x0, theta0 in separatrix_cases():
            saddle = levelset.Anchor(a / b, -1.0)
            for delta in (1e-12, -1e-12):
                assert not levelset.on_level(Params(a, b), saddle, x0 * (1.0 + delta), theta0), \
                    (a, theta0, delta)


class TestPureLinearClosedForm:
    @pytest.mark.parametrize("a,theta0", [(1e-4, 0.5), (0.01, 1e-6), (0.01, 1e-11)])
    def test_ovaloid_beyond_the_float_range_runs_nothing(self, monkeypatch, a, theta0):
        # x_hi = x0 |sin(theta0)|^(-1/a) overflows, but theta' = a sin(theta)/x
        # keeps one sign, so the first integral alone says Ovaloid.
        runs = spy_integrate(monkeypatch)
        r = classify_surface(Params(a, 0.0), InitialConditions(1.0, theta0))
        assert runs == []
        assert r.surface.tag == SurfaceTag.OVALOID and r.pole_z is None
        assert r.theta_range == (0.0, PI) and r.self_intersections == 0

    @pytest.mark.parametrize("a,tag", [(0.3, SurfaceTag.OVALOID), (2.0, SurfaceTag.OVALOID),
                                       (1.0, SurfaceTag.SPHERE),
                                       (-0.3, SurfaceTag.CATENOID_ENTIRE),
                                       (-2.0, SurfaceTag.CATENOID_BOUNDED)])
    def test_report_runs_nothing_and_matches_a_tight_run(self, monkeypatch, a, tag):
        for theta0 in (PI / 4, PI / 2, 2.0, 4.0):
            params, ic = Params(a, 0.0), InitialConditions(1.5, theta0)
            runs = spy_integrate(monkeypatch)
            r = classify_surface(params, ic)
            assert runs == []
            assert r.surface.tag == tag and r.self_intersections == 0
            s = math.copysign(1.0, math.sin(theta0))
            lo, hi = r.theta_range
            assert (hi - lo, lo % (2 * PI)) == pytest.approx((PI, 0.0 if s > 0 else PI), abs=1e-15)
            assert lo < theta0 < hi
            if a < 0.0:
                assert r.pole_z is None
                continue
            tight = replace(cli.default_controls(params, ic), rel_tol=1e-13)
            traj = integrate(params, ic, tight)
            assert traj.termination == traj.termination_backward == Termination.AXIS_REACHED
            assert r.pole_z == pytest.approx((traj.z[0], traj.z[-1]), rel=1e-8, abs=1e-12)

    @staticmethod
    def assert_beta_pole_gap(a, x0, theta0):
        # The poles lie x_hi B(p, 1/2)/a apart, p = (1 + a)/(2a).
        r = classify_surface(Params(a, 0.0), InitialConditions(x0, theta0))
        x_hi = x0 * abs(math.sin(theta0)) ** (-1.0 / a)
        gap = x_hi * beta((1.0 + a) / (2.0 * a), 0.5) / a
        assert r.surface.tag == SurfaceTag.OVALOID, (a, x0, theta0)
        assert abs(r.pole_z[1] - r.pole_z[0]) == pytest.approx(gap, rel=1e-12), (a, x0, theta0)

    def test_ovaloid_with_a_just_above_one(self):
        # f_H' = a f_H/x never vanishes at b = 0, but its critical-radius
        # formula rounded m = -1 to -1 + 1.1e-16 here, which gave a spurious
        # x_c = 7.8e-295; the quadrature anchored there overflowed, and the
        # Ovaloid ended Inconclusive.
        self.assert_beta_pole_gap(1.054156139605086, 3.114244983210228, 0.8936654329701469)

    def test_ovaloids_with_a_in_the_band_above_one(self):
        # 22 of these draws ended Inconclusive the same way.
        rng = np.random.default_rng(5)
        for _ in range(4000):
            a, u, theta0 = rng.uniform(1.0, 1.2), rng.uniform(-3.0, 3.0), rng.uniform(0.0, 2 * PI)
            self.assert_beta_pole_gap(a, math.exp(u), theta0)

    def test_sphere_poles_in_closed_form(self):
        # R = x0/|sin(theta0)|; for sin(theta0) < 0 the circle turns clockwise.
        for theta0 in (PI / 4, 4.0, 4.0 + 2 * PI):
            r = classify_surface(Params(1, 0), InitialConditions(1.5, theta0))
            s, c = math.copysign(1.0, math.sin(theta0)), math.cos(theta0)
            radius = 1.5 / abs(math.sin(theta0))
            assert r.surface.radius == radius
            assert r.pole_z == pytest.approx((s * radius * (c - 1), s * radius * (c + 1)),
                                             abs=1e-14)


class TestNearCentre:
    @pytest.mark.parametrize("delta", [1e-3, 1e-5, 1e-8])
    def test_unduloid_matches_a_tight_run(self, monkeypatch, delta):
        params, ic = Params(-2, 1), InitialConditions(2.0 * (1.0 + delta), PI / 2)
        runs = spy_integrate(monkeypatch)
        r = classify_surface(params, ic)
        assert runs == []
        tight = replace(cli.default_controls(params, ic), rel_tol=1e-13)
        witness = run_witness(params, ic, tight)
        traj = witness.traj
        assert r.surface == witness.surface == classify.SurfaceClass(SurfaceTag.UNDULOID)
        assert r.self_intersections == witness.self_intersections == 0
        t_lo, t_hi = theta_extremes(traj)
        lo, hi = r.theta_range
        assert (t_lo, t_hi) == pytest.approx((lo, hi), abs=1e-6)

    @pytest.mark.parametrize("a,b", [(-2.0, 1.0), (-0.5, 2.0), (-5.0, 0.3)])
    def test_period_tends_to_the_centre_rotation(self, a, b):
        # Next to the a < 0 centre (pi/2, x_c) the linearization turns at
        # |lambda| = sqrt(|a|) per unit of sigma, ds = x dsigma, so the period
        # in arclength tends to 2 pi x_c/|lambda|, with an error of order
        # delta^2.  T comes from every second forward vertical tangent of a
        # tight run.
        centre = critical_points(Params(a, b))[2]
        assert (centre.kind, centre.theta) == (SingularityKind.CENTER, PI / 2)
        t0 = 2.0 * PI * centre.x / abs(centre.eigenvalues[0])
        for delta, bound in ((1e-3, 1e-6), (1e-4, 1e-8)):
            traj = integrate(Params(a, b), InitialConditions(centre.x * (1.0 + delta), PI / 2),
                             IntegrationControls(rel_tol=1e-12, max_arclength=4.5 * t0))
            s = sorted(e.s for e in traj.events_of(EventKind.VERTICAL_TANGENT) if e.s > 0.0)
            periods = np.diff(s[::2])
            assert periods.size >= 3
            assert np.abs(periods / t0 - 1.0).max() <= bound, (delta, periods / t0 - 1.0)

    def test_cylinder_runs_nothing(self, monkeypatch):
        runs = spy_integrate(monkeypatch)
        r = classify_surface(Params(-2, 0.5), InitialConditions(4.0, PI / 2))
        assert runs == []
        assert (r.surface.tag, r.surface.radius) == (SurfaceTag.CYLINDER, 4.0)
        assert (r.theta_range, r.asymptotic_radius) == ((PI / 2, PI / 2), 4.0)


def delaunay_orbits(tag=SurfaceTag.NODOID, n=300, seed=9):
    """(params, ic, report, (x_lo, x_hi)) of the orbits of tag among n draws at
    a = -1, each at three scales and reflected: b = +-e^U(-2, 2),
    x0 = e^U(-3, 3) and theta0 uniform in [0, 2 pi).  The turning radii are
    those of the canonical (b > 0) level."""
    rng = np.random.default_rng(seed)
    b = rng.choice([-1.0, 1.0], n) * np.exp(rng.uniform(-2.0, 2.0, n))
    x0 = np.exp(rng.uniform(-3.0, 3.0, n))
    theta0 = rng.uniform(0.0, 2 * PI, n)
    out = []
    for case in zip(b.tolist(), x0.tolist(), theta0.tolist()):
        base = Params(-1.0, case[0]), InitialConditions(*case[1:])
        if classify_surface(*base).surface.tag != tag:
            continue
        for params, ic in [rescale(lam, *base) for lam in (1e-3, 1.0, 1e3)] + [reflect_b(*base)]:
            r = classify_surface(params, ic)
            assert r.surface.tag == tag, (params, ic)
            level = level_of(*canonicalize(params, ic)[:2])
            out.append((params, ic, r, (level.x_lo, level.x_hi)))
    return out


class TestDelaunay:
    """At a = -1 the relation reads kappa1 + kappa2 = b: the mean curvature
    is b/2, and the periodic orbits are Delaunay's, with closed forms."""

    def test_nodoid_period_and_rise(self):
        # A Nodoid of turning radii x_lo < x_hi has T = 2 pi/|b| and
        # |dz| = 2 (x_hi E(m) - x_lo K(m)), m = 1 - (x_lo/x_hi)^2.  K is
        # taken as ellipkm1 of 1 - m, which keeps its digits where x_lo is
        # tiny against x_hi.
        nodoids = delaunay_orbits()
        for params, ic, r, (x_lo, x_hi) in nodoids:
            p = (x_lo / x_hi) ** 2
            period = 2 * PI / abs(params.b)
            rise = 2.0 * (x_hi * ellipe(1.0 - p) - x_lo * ellipkm1(p))
            errors = (abs(r.period - period) / period, abs(abs(r.z_shift) - rise) / period)
            assert max(errors) <= 1e-13, (params, ic, errors)
        assert len(nodoids) >= 4 * 150, len(nodoids)

    def test_nodoid_crossings(self):
        # On the Delaunay level f_H = (b/2) x - x_lo x_hi/((x_hi - x_lo) x)
        # vanishes at x_z = sqrt(x_lo x_hi), and
        # Z(x) = int_{x_lo}^x f/sqrt(1 - f^2) dx
        #      = x_hi (E(m) - E(phi, m)) - x_lo (K(m) - F(phi, m)),
        # sin(phi)^2 = (x_hi^2 - x^2)/(x_hi^2 - x_lo^2).  So Lemma W's count
        # 2 ceil(d) - 1, d the distance of r = Z(x_z)/Z(x_hi) from [0, 1],
        # is in closed form.
        counts = set()
        for params, ic, r, (x_lo, x_hi) in delaunay_orbits():
            p = (x_lo / x_hi) ** 2
            m = 1.0 - p

            def z(x):
                phi = math.asin(math.sqrt((x_hi ** 2 - x ** 2) / (x_hi ** 2 - x_lo ** 2)))
                return (x_hi * (ellipe(m) - ellipeinc(phi, m))
                        - x_lo * (ellipkm1(p) - ellipkinc(phi, m)))

            ratio = z(math.sqrt(x_lo * x_hi)) / z(x_hi)
            want = 2 * max(math.ceil(max(-ratio, ratio - 1.0)), 1) - 1
            assert r.self_intersections == want, (params, ic, ratio)
            counts.add(want)
        assert min(counts) == 1 and max(counts) > 10, sorted(counts)

    @pytest.mark.parametrize("case", ["draws", "next_to_the_cylinder"])
    def test_unduloid_period_and_rise(self, case):
        # An Unduloid of turning radii x_lo < x_hi has T = 2 pi/|b| and
        # |dz| = 2 (x_hi E(m) + x_lo K(m)), m = 1 - (x_lo/x_hi)^2, K taken as
        # ellipkm1 of 1 - m.  Its report has no period: winding gives T and
        # dz on its canonical level, and orbit_period T from the input as
        # given, at three scales and reflected.  The draws meet them to
        # 1e-12 relative (measured: 7.7e-16).  At 1e-3 from the Cylinder
        # the quadrature's T is off by 2.6e-12 relative, so that case is
        # held to 1e-11.
        if case == "draws":
            inputs = [(params, ic) for params, ic, _, _ in delaunay_orbits(SurfaceTag.UNDULOID)]
            assert len(inputs) >= 4 * 50, len(inputs)
            bound = 1e-12
        else:
            base = Params(-1.0, 1.0), InitialConditions(0.999, PI / 2)
            inputs = [rescale(lam, *base) for lam in (1e-3, 1.0, 1e3)] + [reflect_b(*base)]
            bound = 1e-11
        for params, ic in inputs:
            r = classify_surface(params, ic)
            assert (r.surface.tag, r.period) == (SurfaceTag.UNDULOID, None)
            level, cut, _ = classify._resolved_level(*canonicalize(params, ic)[:2], REL_TOL)
            T, dz, crossings = levelset.winding(level, cut)
            p = (level.x_lo / level.x_hi) ** 2
            period = 2 * PI / abs(params.b)
            rise = 2.0 * (level.x_hi * ellipe(1.0 - p) + level.x_lo * ellipkm1(p))
            errors = (abs(T - period) / period, abs(abs(dz) - rise) / rise,
                      abs(orbit_period(params, ic) - period) / period)
            assert max(errors) <= bound, (params, ic, errors)
            assert crossings == 0
