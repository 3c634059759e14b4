import dataclasses
import functools
import importlib
import math
import operator
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.integrate import RK45, OdeSolution

from conftest import ORBITS
from wlw.classify import orbit_period
from wlw.cli import default_controls
from wlw.errors import (
    InvalidParameter,
    NoFullTurn,
    NonPositiveRadius,
    NotVertical,
    VerificationFailed,
)
from wlw.integrate import (
    EVENT_REFINE_TOL,
    EventKind,
    IntegrationControls,
    Termination,
    X_BLOWUP,
    Trajectory,
    _crossing_segments,
    _Dense,
    _interpolant,
    _run_direction,
    check_horizontal_symmetry,
    detect_period,
    find_self_intersections,
    integrate,
)
from wlw.model import AXIS_EPSILON, InitialConditions, Params

PI = math.pi


class TestControls:
    def test_validation(self):
        with pytest.raises(InvalidParameter):
            IntegrationControls(rel_tol=0.0)
        with pytest.raises(InvalidParameter):
            IntegrationControls(max_arclength=-1.0)

    def test_a_run_takes_rel_tol_and_its_arclength(self):
        # atol is derived, rel_tol/100, and no event budget ends a run
        assert [f.name for f in dataclasses.fields(IntegrationControls)] == [
            "rel_tol", "max_arclength"]

    def test_x0_must_clear_axis(self):
        with pytest.raises(NonPositiveRadius):
            integrate(Params(1, 0), InitialConditions(1e-9, 0.0))


class TestEquilibrium:
    def test_cylinder_is_exactly_constant(self):
        traj = integrate(Params(-2, 1), InitialConditions(2.0, PI / 2))
        assert traj.termination == Termination.EQUILIBRIUM_DETECTED
        assert np.all(traj.x == 2.0)
        assert np.all(traj.theta == PI / 2)
        kinds = {e.kind for e in traj.events}
        assert kinds == {EventKind.EQUILIBRIUM_HOLD}
        # z grows like arclength: the vertical line
        np.testing.assert_allclose(traj.z, traj.s * math.sin(PI / 2), rtol=0, atol=0)

    def test_rest_point_evaluates_to_vertical_line(self):
        theta0 = 1.5 * PI
        traj = integrate(Params(3, 1), InitialConditions(3.0, theta0))
        s = np.linspace(traj.s_min, traj.s_max, 101)
        x, z, theta = traj.eval(s)
        assert np.all(x == 3.0)
        assert np.all(theta == theta0)
        np.testing.assert_allclose(z, math.sin(theta0) * s, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("b", [1.0, 1e-9])
    def test_a_run_off_the_rest_point_is_not_held(self, b):
        # 1e-13 off the rest point x0 = 2/b is some 56 times the rounding
        # that is_equilibrium allows: the state is integrated like any other.
        traj = integrate(Params(-2, b), InitialConditions(2.0 / b * (1.0 + 1e-13), PI / 2))
        assert traj.termination == traj.termination_backward == Termination.MAX_ARCLENGTH
        assert EventKind.EQUILIBRIUM_HOLD not in {e.kind for e in traj.events}

    def test_positive_a_cylinder(self):
        traj = integrate(Params(3, 1), InitialConditions(3.0, 1.5 * PI))
        assert traj.termination == Termination.EQUILIBRIUM_DETECTED
        assert np.all(traj.x == 3.0)


class TestAxisTermination:
    def test_vesicle_reaches_axis_both_branches(self, vesicle_traj):
        assert vesicle_traj.termination == Termination.AXIS_REACHED
        assert vesicle_traj.termination_backward == Termination.AXIS_REACHED
        hits = vesicle_traj.events_of(EventKind.AXIS_APPROACH)
        assert len(hits) == 2
        for e in hits:
            assert abs(math.sin(e.state.theta)) < 1e-4

    def test_ovaloid_theta0_3pi2(self):
        traj = integrate(Params(3, 1), InitialConditions(1.0, 1.5 * PI))
        assert traj.termination == Termination.AXIS_REACHED
        assert traj.termination_backward == Termination.AXIS_REACHED
        for e in traj.events_of(EventKind.AXIS_APPROACH):
            assert abs(math.sin(e.state.theta)) < 1e-4

    def test_theta_prime_decreases_into_pole_when_b_zero(self):
        # For b = 0 the profile curvature vanishes at the pole
        traj = integrate(Params(2, 0), InitialConditions(1.0, PI / 2),
                         IntegrationControls(max_arclength=20))
        assert traj.termination == Termination.AXIS_REACHED
        tail = np.linspace(0.8 * traj.s_max, 0.98 * traj.s_max, 8)
        tp = np.abs(traj.theta_prime(tail))
        assert np.all(np.diff(tp) < 0)


class TestVerticalTangents:
    def test_unduloid_equally_spaced(self, unduloid_traj):
        events = sorted(e.s for e in unduloid_traj.events_of(EventKind.VERTICAL_TANGENT))
        gaps = np.diff(events)
        assert len(gaps) >= 6
        assert np.ptp(gaps) < 1e-6
        # refined events satisfy the tangent condition tightly
        for e in unduloid_traj.events_of(EventKind.VERTICAL_TANGENT):
            assert abs(math.cos(e.state.theta)) < 1e-10

    def test_unduloid_radius_stays_in_band(self, unduloid_traj):
        assert unduloid_traj.x.min() > 0.4
        assert unduloid_traj.x.max() < 3.1


class TestSymmetry:
    def test_unduloid_mirror(self, unduloid_traj):
        events = unduloid_traj.events_of(EventKind.VERTICAL_TANGENT)
        inner = [e for e in events if abs(e.s) < 0.6 * unduloid_traj.s_max]
        assert inner
        for e in inner:
            assert check_horizontal_symmetry(unduloid_traj, e.s) < 1e-7

    def test_circle_mirror(self, circle_traj):
        events = circle_traj.events_of(EventKind.VERTICAL_TANGENT)
        assert events
        assert check_horizontal_symmetry(circle_traj, events[0].s) < 1e-10

    def test_nodoid_mirror(self, nodoid_traj):
        events = nodoid_traj.events_of(EventKind.VERTICAL_TANGENT)
        inner = [e for e in events if abs(e.s) < 0.5 * nodoid_traj.s_max]
        assert inner
        for e in inner:
            assert check_horizontal_symmetry(nodoid_traj, e.s) < 1e-7

    def test_not_vertical_raises(self, unduloid_traj):
        events = unduloid_traj.events_of(EventKind.VERTICAL_TANGENT)
        midpoint = 0.5 * (events[0].s + events[1].s)
        with pytest.raises(NotVertical):
            check_horizontal_symmetry(unduloid_traj, midpoint)


class TestPeriod:
    def test_nodoid_period_positive_shift(self, nodoid_traj):
        T, z_shift = detect_period(nodoid_traj)
        assert T > 0
        assert z_shift > 0
        x0, _, th0 = nodoid_traj.eval(0.0)
        xT, _, thT = nodoid_traj.eval(T)
        assert xT == pytest.approx(x0, abs=1e-7)
        assert thT - th0 == pytest.approx(2 * PI, abs=1e-9)

    def test_antinodoid_negative_shift(self, antinodoid_traj):
        T, z_shift = detect_period(antinodoid_traj)
        assert T > 0
        assert z_shift < 0

    def test_unduloid_has_no_full_turn(self, unduloid_traj):
        with pytest.raises(NoFullTurn):
            detect_period(unduloid_traj)


class TestTrajectoryInvariants:
    def test_samples_strictly_increasing(self, nodoid_traj, vesicle_traj):
        for traj in (nodoid_traj, vesicle_traj):
            assert np.all(np.diff(traj.s) > 0)

    def test_theta_winding_unambiguous(self, nodoid_traj):
        assert np.abs(np.diff(nodoid_traj.theta)).max() < PI

    def test_events_sorted(self, nodoid_traj):
        ss = [e.s for e in nodoid_traj.events]
        assert ss == sorted(ss)

    def test_tangent_is_unit_at_every_step(self, vesicle_traj, nodoid_traj):
        # the tangent is (cos theta, sin theta); its norm is 1 to roundoff
        for traj in (vesicle_traj, nodoid_traj):
            norm = np.hypot(np.cos(traj.theta), np.sin(traj.theta))
            np.testing.assert_allclose(norm, 1.0, atol=1e-9)

    def test_tangent_matches_dense_derivative(self, vesicle_traj):
        # finite differences of the interpolant reproduce (cos, sin) theta
        # to the interpolant's own derivative accuracy
        h = 3e-5
        s = np.linspace(vesicle_traj.s_min + 0.1, vesicle_traj.s_max - 0.1, 25)
        plus = vesicle_traj.eval(s + h)
        minus = vesicle_traj.eval(s - h)
        theta = vesicle_traj.eval(s)[2]
        dx = (plus[0] - minus[0]) / (2 * h)
        dz = (plus[1] - minus[1]) / (2 * h)
        np.testing.assert_allclose(dx, np.cos(theta), atol=5e-8)
        np.testing.assert_allclose(dz, np.sin(theta), atol=5e-8)

    def test_eval_outside_span_raises(self, vesicle_traj):
        with pytest.raises(InvalidParameter):
            vesicle_traj.eval(vesicle_traj.s_max + 1.0)


def _scipy_reference(traj, c):
    """scipy's RK45 driven with traj's controls c and axis clamp over traj's span."""
    a, b = traj.params.a, traj.params.b

    def f(s, y):
        if y[0] <= 0.0:
            return np.full(3, np.nan)
        return np.array([math.cos(y[2]), math.sin(y[2]), a * math.sin(y[2]) / y[0] + b])

    sols = {}
    for direction, end in ((1, traj.s_max), (-1, traj.s_min)):
        if direction * end <= 0.0:
            continue
        solver = RK45(f, 0.0, np.array([traj.ic.x0, 0.0, traj.ic.theta0]),
                      t_bound=direction * c.max_arclength, rtol=c.rel_tol, atol=c.rel_tol / 100)
        ts, pieces = [0.0], []
        while solver.status == "running" and direction * solver.t < direction * end:
            solver.max_step = max(0.8 * solver.y[0], 4.0 * AXIS_EPSILON)
            solver.step()
            ts.append(solver.t)
            pieces.append(solver.dense_output())
        sols[direction] = OdeSolution(ts, pieces)

    def evaluate(s):
        out = np.empty((3, s.size))
        for direction, sol in sols.items():
            mask = s >= 0.0 if direction > 0 else s < 0.0
            out[:, mask] = sol(s[mask])
        return out
    return evaluate


class TestDenseOutput:
    @pytest.mark.parametrize("orbit", list(ORBITS))
    def test_agrees_with_scipy_rk45(self, orbit, request):
        # Step grids drift apart by rounding, so compare dense solutions.
        traj = request.getfixturevalue(orbit)
        s = np.linspace(traj.s_min, traj.s_max, 1000)
        reference = _scipy_reference(traj, ORBITS[orbit][2])
        np.testing.assert_allclose(traj.eval(s), reference(s), rtol=0, atol=1e-10)

    @pytest.mark.parametrize("orbit", list(ORBITS))
    def test_reproduces_stored_samples(self, orbit, request):
        traj = request.getfixturevalue(orbit)
        x, z, theta = traj.eval(traj.s)
        for got, want in ((x, traj.x), (z, traj.z), (theta, traj.theta)):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_event_interpolant_is_the_packed_row(self, nodoid_traj):
        # Events are refined on a one-step interpolant; its values must be the
        # bits Trajectory.eval gives on that step's packed row.
        traj, d = nodoid_traj, nodoid_traj._dense
        controls = ORBITS["nodoid_traj"][2]
        checked = 0
        for direction in (1, -1):
            run = _run_direction(traj.params, traj.ic, controls, direction)
            for s0, y0, (s1, *K) in zip(run.s, run.y, run.steps):
                lo, hi = min(s0, s1), max(s0, s1)
                if not any(lo <= e.s <= hi for e in traj.events):
                    continue
                row = np.flatnonzero((d.s0 == s0) & (d.h == s1 - s0))
                assert row.size == 1
                # The row alone, so that eval uses it at both step ends too.
                alone = Trajectory(traj.params, traj.ic, np.array([lo, hi]),
                                   np.zeros(2), np.zeros(2), np.zeros(2), [],
                                   traj.termination, traj.termination_backward,
                                   _Dense(*(f[row] for f in d)))
                at = _interpolant(s0, s1, y0, tuple(K))
                for s in np.linspace(lo, hi, 5).tolist():
                    state = tuple(y(s) for y in at)
                    assert state == tuple(alone.eval(s))
                    if lo < s < hi and traj.s_min <= s <= traj.s_max:
                        assert state == tuple(traj.eval(s))
                checked += 1
        assert checked >= 8


# The Dormand-Prince 5(4) tableau (HNW Table II.5.5), row i giving stage i + 2
# from stages 1 .. i + 1, and the solution weights of stages 1, 3, 4, 5, 6
# (stage 2 has weight 0 and is left out of the sum).
DP_A = ((1 / 5,),
        (3 / 40, 9 / 40),
        (44 / 45, -56 / 15, 32 / 9),
        (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
        (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656))
DP_B = ((0, 35 / 384), (2, 500 / 1113), (3, 125 / 192), (4, -2187 / 6784), (5, 11 / 84))
# The conftest orbits whose steps are checked.
STEP_ORBITS = ["vesicle_traj", "unduloid_traj", "nodoid_traj", "antinodoid_traj"]


def _tableau_step(a, b, t, y, t_new):
    """Stages 1, 3-7 (flattened) and the end state of the step t -> t_new from
    y, each tableau sum taken left to right over its row."""
    h = t_new - t

    def f(x, theta):
        if not x > 0.0:
            return (math.nan,) * 3
        return (math.cos(theta), math.sin(theta), a * math.sin(theta) / x + b)

    def left_sum(terms):
        return functools.reduce(operator.add, terms)

    k = [f(y[0], y[2])]
    for row in DP_A:
        k.append(f(*(y[c] + h * left_sum(w * kj[c] for w, kj in zip(row, k)) for c in (0, 2))))
    y_new = tuple(y[c] + h * left_sum(w * k[j][c] for j, w in DP_B) for c in range(3))
    k.append(f(y_new[0], y_new[2]))
    stages = tuple(v for j in (0, 2, 3, 4, 5, 6) for v in k[j])
    return stages, y_new


class TestStepRecord:
    @pytest.mark.parametrize("orbit", STEP_ORBITS)
    def test_each_accepted_step_is_the_tableau_step(self, orbit, request):
        # The stepper is written out term by term; every accepted step must be
        # the tableau's step to the bit, so the order of its float operations
        # is the tableau's, left to right.
        traj = request.getfixturevalue(orbit)
        a, b = traj.params.a, traj.params.b
        for direction in (1, -1):
            run = _run_direction(*ORBITS[orbit], direction)
            # A run cut by an event ends at the cut, not at its last step's end.
            cut = run.termination in (Termination.AXIS_REACHED, Termination.EVENT_BUDGET)
            assert len(run.steps) > 10
            for i, (t_new, *K) in enumerate(run.steps):
                stages, y_new = _tableau_step(a, b, run.s[i], run.y[i], t_new)
                assert tuple(K) == stages
                if not (cut and i == len(run.steps) - 1):
                    assert (run.s[i + 1], tuple(run.y[i + 1])) == (t_new, y_new)


class TestCoincidentEvents:
    def test_every_full_turn_of_the_nodoid_is_a_vertical_tangent(self, nodoid_traj):
        # At theta0 = pi/2 each full turn sits on a vertical tangent.
        traj = nodoid_traj
        tangents = np.array([e.s for e in traj.events_of(EventKind.VERTICAL_TANGENT)])
        turns = traj.events_of(EventKind.FULL_TURN)
        assert {e.s > 0.0 for e in turns} == {True, False}
        for e in turns:
            assert np.abs(tangents - e.s).min() <= EVENT_REFINE_TOL


class TestEventScan:
    def test_plane_builds_an_interpolant_only_for_its_axis_approach(self, monkeypatch):
        # On the plane theta stays exactly at theta0, so sin(0.5 (theta -
        # theta0)) is 0.0 on every step: a k = 0 re-crossing, never a sign
        # change.  Only the backward run's axis approach needs an interpolant.
        module = importlib.import_module("wlw.integrate")
        calls = []

        def counting(*args):
            calls.append(args)
            return _interpolant(*args)

        monkeypatch.setattr(module, "_interpolant", counting)
        params, ic = Params(2, 0), InitialConditions(1, 0)
        traj = integrate(params, ic, default_controls(params, ic))
        assert len(calls) == 1
        assert [e.kind for e in traj.events] == [EventKind.AXIS_APPROACH]


class TestDeterminism:
    def test_bitwise_repeatable_across_threads(self):
        params, ic = Params(-2, 1), InitialConditions(4.0, PI / 2)
        controls = IntegrationControls(max_arclength=60)

        def run(_):
            t = integrate(params, ic, controls)
            return t.s.tobytes(), t.x.tobytes(), t.z.tobytes(), t.theta.tobytes()

        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(run, range(4)))
        assert all(r == results[0] for r in results)


class TestBudgets:
    def test_max_steps(self, monkeypatch):
        monkeypatch.setattr(importlib.import_module("wlw.integrate"), "MAX_STEPS", 40)
        traj = integrate(Params(-2, 1), InitialConditions(0.5, PI / 2))
        assert traj.termination == traj.termination_backward == Termination.MAX_STEPS

    def test_max_arclength(self):
        traj = integrate(Params(-2, 1), InitialConditions(0.5, PI / 2),
                         IntegrationControls(max_arclength=3.0))
        assert traj.termination == traj.termination_backward == Termination.MAX_ARCLENGTH
        assert (traj.s_min, traj.s_max) == pytest.approx((-3.0, 3.0))

    def test_check_run_ends_at_its_arclength(self, nodoid_traj):
        # Events do not end a run: the Nodoid's check run covers 3.25
        # periods each way, through every turn and tangent.
        traj = nodoid_traj
        T = orbit_period(traj.params, traj.ic)
        assert traj.termination == traj.termination_backward == Termination.MAX_ARCLENGTH
        assert (traj.s_min, traj.s_max) == (-3.25 * T, 3.25 * T)
        turns = sorted(round((e.state.theta - PI / 2) / (2 * PI))
                       for e in traj.events_of(EventKind.FULL_TURN))
        assert turns == [-3, -2, -1, 1, 2, 3]

    def test_blowup(self):
        # a = -2, b = 0 is a bounded catenoid: x grows without bound, about
        # linearly in s, so the run ends where x reaches X_BLOWUP; backward
        # it passes the neck first
        traj = integrate(Params(-2, 0), InitialConditions(1e8, PI / 4),
                         IntegrationControls(max_arclength=1e10))
        assert traj.termination == traj.termination_backward == Termination.EVENT_BUDGET
        assert [e.kind for e in traj.events if e.s > 0.0] == [EventKind.BLOWUP]
        assert [e.kind for e in traj.events if e.s < 0.0] == [EventKind.BLOWUP,
                                                               EventKind.VERTICAL_TANGENT]
        assert traj.events[-1].state.x == pytest.approx(X_BLOWUP, rel=1e-12)
        assert (traj.x[0], traj.x[-1]) == pytest.approx((X_BLOWUP, X_BLOWUP), rel=1e-12)

    def test_every_run_is_two_sided(self):
        traj = integrate(Params(-2, 1), InitialConditions(0.5, PI / 2),
                         IntegrationControls(max_arclength=10))
        assert (traj.s_min, traj.s_max) == (-10.0, 10.0) and 0.0 in traj.s
        assert traj.termination == traj.termination_backward == Termination.MAX_ARCLENGTH


class TestSelfIntersections:
    def test_nodoid_one_loop_per_period(self, nodoid_traj):
        T, _ = detect_period(nodoid_traj)
        recs = find_self_intersections(nodoid_traj, window=(0.0, 2.1 * T))
        in_first = [r for r in recs if 0.0 <= r.s_a < T]
        assert len(in_first) == 1

    def test_crossing_point_is_exact(self, nodoid_traj):
        recs = find_self_intersections(nodoid_traj, window=(0.0, 8.0))
        assert recs
        r = recs[0]
        xa, za, _ = nodoid_traj.eval(r.s_a)
        xb, zb, _ = nodoid_traj.eval(r.s_b)
        assert abs(xa - xb) < 1e-9
        assert abs(za - zb) < 1e-9

    def test_unduloid_is_embedded(self, unduloid_traj):
        assert find_self_intersections(unduloid_traj) == []

    @pytest.mark.parametrize("polyline", [
        "nodoid", "random_walk", "nodoid_traj", "antinodoid_traj", "vesicle_traj",
        "short_and_long_steps", "repeated_points", "one_point_repeated", "one_segment",
        "two_segments"])
    def test_crossing_segments_match_pairwise_loop(self, polyline, request):
        P = _polyline(polyline, request)
        assert _crossing_segments(P) == _crossing_segments_loop(P)

    def test_short_segments_cross_long_ones(self, request):
        P = _polyline("short_and_long_steps", request)
        length = np.hypot(*np.diff(P, axis=0).T)
        short, long = length < 0.01, length > 0.5
        assert any(short[i] and long[j] or short[j] and long[i] for i, j in _crossing_segments(P))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_polyline_raises(self, nodoid_traj, bad):
        P = nodoid_traj.resample(301, window=(0.0, 20.0))[:, 1:3]
        P[150, 1] = bad
        with pytest.raises(VerificationFailed):
            _crossing_segments(P)


def _polyline(name, request):
    rng = np.random.default_rng(0)
    nodoid = request.getfixturevalue("nodoid_traj").resample(301, window=(0.0, 20.0))[:, 1:3]
    if name == "nodoid":
        return nodoid
    if name == "random_walk":
        return rng.standard_normal((301, 2)).cumsum(axis=0)
    if name.endswith("_traj"):
        return request.getfixturevalue(name).resample(2048)[:, 1:3]
    if name == "short_and_long_steps":
        # Step lengths spread log-uniformly over 1e-3..1, in random directions.
        length, angle = 10.0 ** rng.uniform(-3.0, 0.0, 600), rng.uniform(0.0, 2 * PI, 600)
        steps = np.column_stack([length * np.cos(angle), length * np.sin(angle)])
        return np.vstack([np.zeros((1, 2)), steps.cumsum(axis=0)])
    if name == "repeated_points":
        return np.repeat(nodoid, rng.integers(1, 4, len(nodoid)), axis=0)
    if name == "one_point_repeated":
        return np.ones((5, 2))
    return np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 0.0]])[:3 if name == "two_segments" else 2]


def _crossing_segments_loop(P):
    """Pairwise reference: for each segment and every later one but its
    neighbour, box overlap and then the orientation test."""
    def cross2(u, v):
        return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]

    hits = []
    for i in range(len(P) - 3):
        p1, p2 = P[i], P[i + 1]
        p3, p4 = P[i + 2:-1], P[i + 3:]
        overlap = ((np.minimum(p1, p2) <= np.maximum(p3, p4))
                   & (np.maximum(p1, p2) >= np.minimum(p3, p4))).all(axis=1)
        d1, d2 = cross2(p4 - p3, p1 - p3), cross2(p4 - p3, p2 - p3)
        d3, d4 = cross2(p2 - p1, p3 - p1), cross2(p2 - p1, p4 - p1)
        cross = overlap & (d1 * d2 < 0.0) & (d3 * d4 < 0.0)
        hits += [(i, i + 2 + int(k)) for k in np.flatnonzero(cross)]
    return hits
