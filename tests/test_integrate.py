import dataclasses
import functools
import math
import operator
import random
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.integrate import RK45, OdeSolution

import wlw.integrate
from conftest import ORBITS, theta_prime
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
    _crossing_segments,
    _P,
    _initial_step,
    _run_direction,
    check_horizontal_symmetry,
    detect_period,
    find_self_intersections,
    integrate,
)
from wlw.model import AXIS_EPSILON, InitialConditions, Params
from wlw.numerics import brentq

PI = math.pi


class TestControls:
    def test_validation(self):
        with pytest.raises(InvalidParameter):
            IntegrationControls(rel_tol=0.0)
        with pytest.raises(InvalidParameter):
            IntegrationControls(max_arclength=-1.0)
        # an infinite rel_tol makes the first step's z weight NaN
        for rel_tol in (math.inf, math.nan):
            with pytest.raises(InvalidParameter):
                IntegrationControls(rel_tol=rel_tol)

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
        tp = np.abs(theta_prime(traj)(tail))
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

    @pytest.mark.parametrize("orbit", list(ORBITS))
    def test_every_event_state_is_eval_inside_its_step(self, orbit, request):
        # Events are refined on the packed rows that eval reads, so an event
        # strictly inside a step has the state eval gives there, to the bit.
        traj = request.getfixturevalue(orbit)
        d = traj._dense
        checked = 0
        for e in traj.events:
            if np.any((d.lo < e.s) & (e.s < d.lo + np.abs(d.h))):
                assert (e.state.s, e.state.x, e.state.z, e.state.theta) == (
                    e.s, *traj.eval(e.s).tolist())
                checked += 1
        assert checked >= 1


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


def _interpolant(s0, s1, y0, K):
    """x(s), z(s) and theta(s) on the step s0 -> s1 from y0 and its 18
    flattened stages K, one step at a time: each component's coefficients
    summed on floats in _pack's order and evaluated as Trajectory.eval does."""
    h = s1 - s0

    def component(j):
        y, q0, q1, q2, q3 = y0[j], 0.0, 0.0, 0.0, 0.0
        for r, (p0, p1, p2, p3) in enumerate(_P.tolist()):
            k = K[3 * r + j]
            q0 += k * p0
            q1 += k * p1
            q2 += k * p2
            q3 += k * p3
        c0, c1, c2, c3 = h * q0, h * q1, h * q2, h * q3

        def at(s):
            u = (s - s0) / h
            return y + u * (c0 + u * (c1 + u * (c2 + u * c3)))
        return at
    return component(0), component(1), component(2)


def _reference_events(params, ic, controls, direction):
    """One direction's events (kind, s, state) and the state its run ends
    on, or None: each step of _run_direction's record scanned for sign
    changes as the run goes and its roots refined on _interpolant."""
    theta0, tol = ic.theta0, EVENT_REFINE_TOL

    def turn(theta):
        return math.sin(0.5 * (theta - theta0))
    functions = ((EventKind.AXIS_APPROACH, 0, lambda x: x - AXIS_EPSILON),
                 (EventKind.BLOWUP, 0, lambda x: x - X_BLOWUP),
                 (EventKind.VERTICAL_TANGENT, 2, math.cos), (EventKind.FULL_TURN, 2, turn))
    events, seen_turns, cut = [], set(), None
    t, y = 0.0, (ic.x0, 0.0, theta0)
    for t_new, *row in _run_direction(params, ic, controls, direction).steps:
        y_new = tuple(row[:3])
        crossed = (y_new[0] <= AXIS_EPSILON < y[0], y[0] < X_BLOWUP <= y_new[0],
                   math.cos(y[2]) * math.cos(y_new[2]) < 0.0, turn(y[2]) * turn(y_new[2]) < 0.0)
        at = _interpolant(t, t_new, y, tuple(row[3:]))
        roots = sorted(((brentq(lambda s, g=g, f=at[j]: g(f(s)), min(t, t_new), max(t, t_new),
                                xtol=tol), kind)
                        for (kind, j, g), hit in zip(functions, crossed) if hit),
                       key=lambda root: direction * root[0])
        for s_star, kind in roots:
            if cut is not None and abs(s_star - cut[0]) > tol:
                break
            state = (s_star, *(f(s_star) for f in at))
            if kind is EventKind.FULL_TURN:
                k = round((state[3] - theta0) / math.tau)
                if k == 0 or k in seen_turns:
                    continue
                seen_turns.add(k)
            events.append((kind, s_star, state))
            if cut is None and kind in (EventKind.AXIS_APPROACH, EventKind.BLOWUP):
                cut = state
        if cut is not None:
            return events, cut
        t, y = t_new, y_new
    return events, None


def _roadmap_draws(n, seed=48):
    """(params, ic, controls) of n seeded draws of a, b, x0 and theta0 from the
    ROADMAP distribution, at arclengths 20-60."""
    rng = random.Random(seed)
    draws = []
    for _ in range(n):
        a, b = rng.uniform(-5, 5), rng.choice([0.0, rng.uniform(-2, 2)])
        x0 = math.exp(rng.uniform(math.log(0.05), math.log(20)))
        draws.append((Params(a, b), InitialConditions(x0, rng.uniform(0, 2 * PI)),
                      IntegrationControls(max_arclength=rng.uniform(20, 60))))
    return draws


# Runs whose cut step also holds another crossing, its direction and the
# step's tests (axis, blowup, tangent, full turn).  The first ends backward
# at the axis on a vertical tangent's step.  The others start just beyond
# X_BLOWUP and blow up when they rise through it again, a period on: the
# Nodoid's step holds its first full turn, and the Unduloid's a k = 0
# re-crossing.  Each of these falls past the cut and is not recorded.
CUT_STEPS = [
    ((Params(-1.1407452343984859, 0.0024267796461070468),
      InitialConditions(7.473504843777704e-08, 0.10085318606347525),
      IntegrationControls(max_arclength=20)), -1, (True, False, True, False)),
    ((Params(-2, 1e-9), InitialConditions(1.001e9, 0.3), IntegrationControls(max_arclength=1e11)),
     1, (False, True, False, True)),
    ((Params(-2, 1e-9), InitialConditions(1.001e9, 1.0), IntegrationControls(max_arclength=1e11)),
     1, (False, True, False, True)),
]


class TestEventRefinement:
    @pytest.mark.parametrize("params,ic,controls", [
        *[pytest.param(*ORBITS[name], id=name) for name in ORBITS],
        *[pytest.param(*draw, id=f"draw{i}") for i, draw in enumerate(_roadmap_draws(40))],
        *[pytest.param(*run, id=f"cut-step{i}") for i, (run, _, _) in enumerate(CUT_STEPS)],
        # theta crosses theta0 + 2 pi three times forward: one full turn
        pytest.param(Params(-4.979152455009127, 0.8623963639645611),
                     InitialConditions(0.051965985178181504, 0.7397486407192423),
                     IntegrationControls(max_arclength=60), id="full-turn-recrossed"),
    ])
    def test_events_are_the_one_step_reference(self, params, ic, controls):
        # Refined after the run on the packed rows, every event, its order
        # and a cut run's last sample are those of the step-by-step scan.
        traj = integrate(params, ic, controls)
        samples = list(zip(*(v.tolist() for v in (traj.s, traj.x, traj.z, traj.theta))))
        want = []
        for direction, end in ((-1, 0), (1, -1)):
            events, cut = _reference_events(params, ic, controls, direction)
            want += events
            if cut is not None:
                assert samples[end] == cut
        got = [(e.kind, e.s, (e.state.s, e.state.x, e.state.z, e.state.theta))
               for e in traj.events]
        assert got == sorted(want, key=lambda e: e[1])

    @pytest.mark.parametrize("run,direction,crossed", CUT_STEPS,
                             ids=[f"cut-step{i}" for i in range(len(CUT_STEPS))])
    def test_a_cut_step_holds_a_tangent_or_a_full_turn(self, run, direction, crossed):
        got = _run_direction(*run, direction)
        assert got.termination is (Termination.AXIS_REACHED if crossed[0] else Termination.BLOWUP)
        assert got.crossings[-1] == (len(got.steps) - 1, crossed)


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
            assert len(run.steps) > 10
            t, y = 0.0, (traj.ic.x0, 0.0, traj.ic.theta0)
            # Every row holds its step's end, that of a step an event cut too.
            for t_new, *row in run.steps:
                stages, y_new = _tableau_step(a, b, t, y, t_new)
                assert (tuple(row[:3]), tuple(row[3:])) == (y_new, stages)
                t, y = t_new, y_new


class TestCutRun:
    @pytest.mark.parametrize("params,ic,controls", [
        pytest.param(*ORBITS["vesicle_traj"], id="vesicle_traj"),
        pytest.param(Params(3, 1), InitialConditions(1.0, 1.5 * PI), IntegrationControls(),
                     id="3-1-1-3pi/2"),
    ])
    def test_a_cut_run_ends_on_its_event(self, params, ic, controls):
        # A run that reaches the axis ends on the refined cut state, not on
        # its last step's end, and every step interpolant starts on a sample.
        traj = integrate(params, ic, controls)
        samples = list(zip(traj.s.tolist(), traj.x.tolist(), traj.z.tolist(),
                           traj.theta.tolist()))
        cut = 0
        for termination, sign, end in ((traj.termination, 1, -1),
                                       (traj.termination_backward, -1, 0)):
            if termination is not Termination.AXIS_REACHED:
                continue
            [event] = [e for e in traj.events_of(EventKind.AXIS_APPROACH) if sign * e.s > 0.0]
            st = event.state
            assert samples[end] == (event.s, st.x, st.z, st.theta)
            assert not np.any(sign * traj.s > sign * event.s)
            cut += 1
        assert cut == 2   # both runs reach the axis
        d = traj._dense
        assert set(zip(d.s0.tolist(), *d.y0.T.tolist())) <= set(samples)


def _initial_step_reference(a, b, y0, f0, direction, span, rtol, atol):
    """scipy's select_initial_step with each norm's squares summed left to right."""
    scale = [atol + abs(v) * rtol for v in y0]

    def rms(v):
        return math.sqrt(functools.reduce(
            operator.add, ((u / sc) ** 2 for u, sc in zip(v, scale)))) / 3 ** 0.5

    d0, d1 = rms(y0), rms(f0)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, span)
    x1 = y0[0] + h0 * direction * f0[0]
    t1 = y0[2] + h0 * direction * f0[2]
    f1 = ((math.cos(t1), math.sin(t1), a * math.sin(t1) / x1 + b) if x1 > 0.0
          else (math.nan,) * 3)
    d2 = rms([u - v for u, v in zip(f1, f0)]) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    return min(100 * h0, h1, span)


class TestInitialStep:
    def test_norms_sum_left_to_right(self):
        # The builtin sum compensates from Python 3.12 on: summed by it, the
        # first step of 1,668 of these calls moved off the bits of 3.10 and 3.11.
        rng = random.Random(1)
        for _ in range(40_000):
            a, b = rng.uniform(-5, 5), rng.choice([0.0, rng.uniform(-2, 2)])
            x0 = math.exp(rng.uniform(math.log(0.05), math.log(20)))
            theta0 = rng.uniform(0, 2 * PI)
            y0 = (x0, 0.0, theta0)
            f0 = (math.cos(theta0), math.sin(theta0), a * math.sin(theta0) / x0 + b)
            args = (a, b, y0, f0, rng.choice([1, -1]), rng.choice([20.0, 60.0, 200.0]),
                    1e-10, 1e-12)
            assert _initial_step(*args) == _initial_step_reference(*args)


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
    def test_plane_refines_only_its_axis_approach_step(self, monkeypatch):
        # On the plane theta stays exactly at theta0, so sin(0.5 (theta -
        # theta0)) is 0.0 on every step: a k = 0 re-crossing, never a sign
        # change.  Only the backward run's axis approach is refined.
        calls = []

        def counting(f, lo, hi, **kwargs):
            calls.append((lo, hi))
            return brentq(f, lo, hi, **kwargs)

        monkeypatch.setattr(wlw.integrate, "brentq", counting)
        params, ic = Params(2, 0), InitialConditions(1, 0)
        controls = default_controls(params, ic)
        fwd, bwd = (_run_direction(params, ic, controls, d) for d in (1, -1))
        assert (fwd.crossings, bwd.crossings) == (
            [], [(len(bwd.steps) - 1, (True, False, False, False))])
        traj = integrate(params, ic, controls)
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
        monkeypatch.setattr(wlw.integrate, "MAX_STEPS", 40)
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
        assert traj.termination == traj.termination_backward == Termination.BLOWUP
        assert [e.kind for e in traj.events if e.s > 0.0] == [EventKind.BLOWUP]
        assert [e.kind for e in traj.events if e.s < 0.0] == [EventKind.BLOWUP,
                                                               EventKind.VERTICAL_TANGENT]
        assert traj.events[-1].state.x == pytest.approx(X_BLOWUP, rel=1e-12)
        assert (traj.x[0], traj.x[-1]) == pytest.approx((X_BLOWUP, X_BLOWUP), rel=1e-12)

    def test_a_run_from_beyond_the_blowup_radius_records_no_blowup(self):
        # The blowup test is x < X_BLOWUP <= xn, x rising through X_BLOWUP: a
        # run that starts beyond it and stays there records no blowup.
        traj = integrate(Params(-2, 1e-9), InitialConditions(2.5e9, 0.3))
        assert traj.termination == traj.termination_backward == Termination.MAX_ARCLENGTH
        assert traj.events_of(EventKind.BLOWUP) == []
        assert traj.x.min() > X_BLOWUP

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
