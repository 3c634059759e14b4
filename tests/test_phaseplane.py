import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.spatial import cKDTree

from wlw import phaseplane
from wlw.errors import DegenerateEigenvalue, InvalidParameter, NoBracket, NonPositiveRadius
from wlw.integrate import EventKind, IntegrationControls, integrate
from wlw.model import AXIS_EPSILON, InitialConditions, Params, rescale
from wlw.phaseplane import (
    PortraitSpec,
    SingularityKind,
    autonomous_rhs,
    classify_singularity,
    critical_points,
    find_separatrix,
    integrate_orbit,
    linearize,
    phase_portrait,
)

PI = math.pi


def by_theta(points):
    return {round(p.theta, 6): p for p in points}


class TestCriticalPoints:
    def test_positive_a_has_saddle(self):
        pts = by_theta(critical_points(Params(2, 1)))
        assert set(pts) == {0.0, round(PI, 6), round(1.5 * PI, 6)}
        saddle = pts[round(1.5 * PI, 6)]
        assert saddle.x == pytest.approx(2.0)
        assert saddle.kind == SingularityKind.SADDLE

    def test_negative_a_has_center(self):
        pts = by_theta(critical_points(Params(-2, 1)))
        center = pts[round(0.5 * PI, 6)]
        assert center.x == pytest.approx(2.0)
        assert center.kind == SingularityKind.CENTER

    def test_improper_node_at_a_one(self):
        pts = by_theta(critical_points(Params(1, 1)))
        origin = pts[0.0]
        assert origin.kind == SingularityKind.IMPROPER_NODE
        np.testing.assert_allclose(sorted(e.real for e in origin.eigenvalues), [1.0, 1.0])

    def test_improper_saddle_at_a_minus_one(self):
        pts = by_theta(critical_points(Params(-1, 1)))
        assert pts[round(PI, 6)].kind == SingularityKind.IMPROPER_SADDLE

    def test_b_zero_axis_points_only(self):
        pts = critical_points(Params(2, 0))
        assert [p.x for p in pts] == [0.0, 0.0]

    def test_points_annihilate_field(self):
        for a, b in [(2, 1), (-2, 1), (3, 0.5), (-0.7, 2)]:
            for p in critical_points(Params(a, b)):
                dth, dx = autonomous_rhs(Params(a, b), p.theta, p.x)
                assert abs(dth) < 1e-14 * max(1.0, abs(a), abs(b) * p.x)
                assert abs(dx) < 1e-14 * max(1.0, p.x)


class TestLinearize:
    def test_origin_is_triangular(self):
        J = linearize(Params(3, 1), (0.0, 0.0))
        np.testing.assert_allclose(J, [[3.0, 1.0], [0.0, 1.0]])

    def test_pi_point(self):
        J = linearize(Params(3, 1), (PI, 0.0))
        np.testing.assert_allclose(J, [[-3.0, 1.0], [0.0, -1.0]], atol=1e-15)

    def test_saddle_eigenvalues_pm_sqrt_a(self):
        a = 2.0
        eigs = np.linalg.eigvals(linearize(Params(a, 1), (1.5 * PI, a)))
        np.testing.assert_allclose(sorted(eigs.real), [-math.sqrt(a), math.sqrt(a)],
                                   atol=1e-12)

    def test_center_eigenvalues_pm_i_sqrt_minus_a(self):
        a = -2.0
        eigs = np.linalg.eigvals(linearize(Params(a, 1), (0.5 * PI, -a)).astype(complex))
        np.testing.assert_allclose(sorted(e.imag for e in eigs),
                                   [-math.sqrt(-a), math.sqrt(-a)], atol=1e-12)


class TestClassifySingularity:
    def test_unstable_node(self):
        assert classify_singularity((2.0, 1.0)) == SingularityKind.UNSTABLE_NODE

    def test_saddle(self):
        r = math.sqrt(3)
        assert classify_singularity((r, -r)) == SingularityKind.SADDLE

    def test_center(self):
        r = math.sqrt(2)
        assert classify_singularity((1j * r, -1j * r)) == SingularityKind.CENTER

    def test_stable_node(self):
        assert classify_singularity((-2.0, -1.0)) == SingularityKind.STABLE_NODE

    def test_improper_node(self):
        assert classify_singularity((1.0, 1.0)) == SingularityKind.IMPROPER_NODE

    def test_degenerate(self):
        with pytest.raises(DegenerateEigenvalue):
            classify_singularity((0.0, 1.0))


class TestEigenvalueTable:
    def test_twenty_random_parameter_pairs(self):
        rng = np.random.default_rng(20240817)
        for _ in range(20):
            a = float(rng.uniform(-5, 5))
            if abs(a) < 0.05:
                a = 0.5
            b = float(rng.uniform(0.2, 3.0)) * (1 if rng.random() < 0.5 else -1)
            pts = critical_points(Params(a, b))
            got = {round(p.theta, 6): sorted(p.eigenvalues, key=lambda z: (z.real, z.imag))
                   for p in pts}
            expect_origin = sorted([complex(a), complex(1.0)], key=lambda z: (z.real, z.imag))
            expect_pi = sorted([complex(-a), complex(-1.0)], key=lambda z: (z.real, z.imag))
            np.testing.assert_allclose(got[0.0], expect_origin, atol=1e-12)
            np.testing.assert_allclose(got[round(PI, 6)], expect_pi, atol=1e-12)
            interior = [th for th in got if th not in (0.0, round(PI, 6))]
            assert len(interior) == 1
            if a > 0:
                expect = sorted([complex(-math.sqrt(a)), complex(math.sqrt(a))],
                                key=lambda z: (z.real, z.imag))
            else:
                expect = sorted([complex(0, -math.sqrt(-a)), complex(0, math.sqrt(-a))],
                                key=lambda z: (z.real, z.imag))
            np.testing.assert_allclose(got[interior[0]], expect, atol=1e-12)


class TestSeparatrix:
    def test_a2_in_bracket_and_splits_outcomes(self):
        params = Params(2, 1)
        xbar = find_separatrix(params, 0.0, (2.0, 20.0))
        assert 2.0 < xbar < 20.0
        eps = 1e-4 * xbar
        controls = IntegrationControls(max_arclength=200, max_full_turns=1, two_sided=False)
        below = integrate(params, InitialConditions(xbar - eps, 0.0), controls)
        above = integrate(params, InitialConditions(xbar + eps, 0.0), controls)
        assert not below.events_of(EventKind.FULL_TURN)
        assert above.events_of(EventKind.FULL_TURN)

    def test_theta0_3pi2_threshold_is_cylinder_radius(self):
        xbar = find_separatrix(Params(3, 1), 1.5 * PI, (1.0, 6.0))
        assert xbar == 3.0

    @pytest.mark.parametrize("a, b, expect", [
        (3.0, 1.0, math.sqrt(27.0)),
        (2.0, 1.0, 4.0),
        (1.0, 1.0, math.e),
        (0.5, 1.0, 2.0),
        (3.0, 1.0 / 3.0, 9.0 * math.sqrt(3.0)),
    ])
    def test_theta0_zero_closed_form(self, a, b, expect):
        # H(x, 0) = H(a/b, 3 pi/2) solves to x = a^(a/(a-1))/b, and e/b at a = 1
        xbar = find_separatrix(Params(a, b), 0.0, (0.5 * expect, 2.0 * expect))
        assert xbar == pytest.approx(expect, rel=1e-14)

    def test_same_root_either_side_of_saddle_angle(self):
        params = Params(3, 1)
        above = find_separatrix(params, 1.5 * PI + 0.2, (1.0, 6.0))
        below = find_separatrix(params, 1.5 * PI - 0.2, (1.0, 6.0))
        assert above == pytest.approx(below, rel=1e-14)
        assert above == pytest.approx(3.3394894205, rel=1e-10)

    def test_integrates_nothing(self, monkeypatch):
        calls, real = [], phaseplane.integrate
        monkeypatch.setattr(phaseplane, "integrate",
                            lambda *args: calls.append(args) or real(*args))
        find_separatrix(Params(3, 1), 0.0, (4.0, 7.0))
        assert calls == []

    def test_requires_saddle_regime(self):
        with pytest.raises(InvalidParameter):
            find_separatrix(Params(-2, 1), 0.0, (1.0, 5.0))

    def test_no_bracket(self):
        with pytest.raises(NoBracket):
            find_separatrix(Params(3, 1), 0.0, (1.0, 2.0))

    def test_homothety_commutes(self):
        # rescaling by 3 turns (3, 1) into (3, 1/3) and triples the threshold
        xbar = find_separatrix(Params(3, 1), 0.0, (4.0, 7.0))
        p2, _ = rescale(3.0, Params(3, 1), InitialConditions(1.0, 0.0))
        xbar2 = find_separatrix(p2, 0.0, (3 * 4.0, 3 * 7.0))
        assert xbar2 == pytest.approx(3.0 * xbar, rel=1e-13)
        assert xbar2 == pytest.approx(15.588, abs=0.05)


def _box(spec):
    margin = 0.05 * (spec.theta_max - spec.theta_min)
    return spec.theta_min - margin, spec.theta_max + margin, 1.05 * spec.x_max


def _in_box(points, spec):
    lo, hi, top = _box(spec)
    return (points[:, 0] >= lo) & (points[:, 0] <= hi) & (points[:, 1] <= top)


def _reference_arcs(params, seed, spec, span=100.0):
    """solve_ivp orbits of V from seed, forward then backward in its own time.

    Each is a (solution, time of its first box exit or None) pair; it runs on
    to twice the box so that the first exit lies inside it.
    """
    lo, hi, top = _box(spec)
    a, b = params.a, params.b

    def f(t, y):
        return [a * math.sin(y[0]) + b * y[1], y[1] * math.cos(y[0])]

    def leave_box(t, y):
        return min(y[0] - lo, hi - y[0], top - y[1])

    def leave_twice_the_box(t, y):
        return min(y[0] - 2.0 * lo, 2.0 * hi - y[0], 2.0 * top - y[1])
    leave_twice_the_box.terminal = True

    arcs = []
    for sign in (1.0, -1.0):
        sol = solve_ivp(f, (0.0, sign * span), list(seed), rtol=1e-10, atol=1e-12,
                        events=[leave_box, leave_twice_the_box], dense_output=True)
        exits = sol.t_events[0]
        arcs.append((sol, exits[0] if exits.size else None))
    return arcs


def _project(params, points, sol):
    """Foot times and distances of points on a reference arc: the nearest
    sample, then Gauss-Newton steps along the field on the dense output."""
    t_end = sol.t[-1]
    ts = np.linspace(0.0, t_end, int(abs(t_end) / 0.01) + 2)
    _, j = cKDTree(sol.sol(ts).T).query(points)
    t = ts[j]
    for _ in range(4):
        y = sol.sol(t)
        v = np.array(autonomous_rhs(params, y[0], y[1]))
        vv = (v * v).sum(axis=0)
        step = ((points.T - y) * v).sum(axis=0) / np.where(vv > 1e-20, vv, np.inf)
        t = np.clip(t + step, min(0.0, t_end), max(0.0, t_end))
    return t, np.hypot(*(points.T - sol.sol(t)))


class TestPortrait:
    def test_grid_in_box_and_boundary_tangency(self):
        spec = PortraitSpec(x_max=4.0, n_theta=9, n_x=5, orbit_seeds=[(0.0, 1.0)])
        portrait = phase_portrait(Params(2, 1), spec)
        grid = portrait.grid
        assert grid[:, 0].min() >= 0.0 and grid[:, 0].max() <= 2 * PI + 1e-12
        assert grid[:, 1].min() >= 0.0 and grid[:, 1].max() <= 4.0
        on_axis = grid[grid[:, 1] == 0.0]
        # field on x = 0 is (a sin theta, 0): tangent to the boundary
        np.testing.assert_allclose(on_axis[:, 3], 0.0, atol=0.0)
        np.testing.assert_allclose(on_axis[:, 2], 2.0 * np.sin(on_axis[:, 0]), rtol=1e-12)

    def test_orbits_present(self):
        portrait = phase_portrait(Params(-2, 1), PortraitSpec(x_max=4.0))
        assert len(portrait.orbits) >= 4
        assert all(orbit.shape[1] == 2 for orbit in portrait.orbits)

    def test_orbit_consistency_with_profile_flow(self):
        # the autonomous orbit retraces the (theta, x) projection of the
        # profile trajectory through the same point
        params = Params(2, 1)
        traj = integrate(params, InitialConditions(1.3, 0.0),
                         IntegrationControls(max_arclength=10, two_sided=False))
        s = np.linspace(0.0, min(2.5, traj.s_max), 200)
        x_prof, _, th_prof = traj.eval(s)

        def f(t, y):
            return [2.0 * math.sin(y[0]) + y[1], y[1] * math.cos(y[0])]

        sol = solve_ivp(f, (0.0, 20.0), [0.0, 1.3], rtol=1e-11, atol=1e-13,
                        dense_output=True)
        dense = sol.sol(np.linspace(0.0, 20.0, 20001))
        # compare on the rising branch of theta (both curves double back
        # when the orbit heads into the rest point at (pi, 0))
        cut = int(np.argmax(dense[0]))
        th_orb, x_orb = dense[0][:cut], dense[1][:cut]
        lo = max(th_prof.min(), th_orb.min()) + 0.01
        hi = min(th_prof.max(), th_orb.max()) - 0.01
        rising = np.arange(len(th_prof)) <= np.argmax(th_prof)
        window = rising & (th_prof >= lo) & (th_prof <= hi)
        x_interp = np.interp(th_prof[window], th_orb, x_orb)
        np.testing.assert_allclose(x_interp, x_prof[window], atol=1e-6)

    @pytest.mark.parametrize("a", [2.0, -2.0])
    def test_orbits_match_reference_and_stop_at_first_box_exit(self, a):
        # Each portrait orbit is the profile curve through its seed; it must
        # trace the orbit of V itself, and each side must end at its first
        # box exit unless the profile run was cut short first.
        params, spec = Params(a, 1), PortraitSpec(x_max=5.0)
        portrait = phase_portrait(params, spec)
        seeds = [(t0, x) for t0 in (0.0, 0.5 * PI, PI, 1.5 * PI)
                 for x in np.linspace(5.0 / 6.0, 25.0 / 6.0, 3)]
        assert len(portrait.orbits) == len(seeds)
        top = _box(spec)[2]
        for seed, orbit in zip(seeds, portrait.orbits):
            inside = _in_box(orbit, spec)
            assert inside[1:-1].all()
            arcs = _reference_arcs(params, seed, spec)
            dist = np.min([_project(params, orbit[inside], sol)[1] for sol, _ in arcs], axis=0)
            assert dist.max() < 1e-6, (seed, dist.max())
            for ends, (sol, t_exit) in ((orbit[-2:], arcs[0]), (orbit[1::-1], arcs[1])):
                if not _in_box(ends[1:], spec)[0]:
                    # the last step crosses the reference's first exit
                    t, d = _project(params, ends, sol)
                    assert d.max() < 1e-6 and t_exit is not None
                    assert abs(t[0]) < abs(t_exit) <= abs(t[1]) + 1e-9, (seed, t, t_exit)
                    continue
                end = ends[1]
                at_axis = end[1] <= AXIS_EPSILON * (1.0 + 1e-6)
                at_top = abs(end[1] - top) <= 1e-9 * top
                full_turn = abs(abs(end[0] - seed[0]) - 2.0 * PI) < 1e-9
                closed = t_exit is None
                assert at_axis or at_top or full_turn or closed, (seed, end)

    def test_seed_on_the_axis_is_rejected(self):
        with pytest.raises(NonPositiveRadius):
            integrate_orbit(Params(2, 1), (0.5 * PI, AXIS_EPSILON), PortraitSpec(x_max=5.0))

    def test_cycle_closure_around_center(self):
        # a < 0: orbits near (pi/2, -a/b) are closed cycles
        params = Params(-2, 1)

        def f(t, y):
            return [-2.0 * math.sin(y[0]) + y[1], y[1] * math.cos(y[0])]

        def recross(t, y):
            return y[0] - 0.5 * PI
        recross.terminal = False
        recross.direction = 1.0

        sol = solve_ivp(f, (0.0, 50.0), [0.5 * PI, 2.4], rtol=1e-11, atol=1e-13,
                        events=[recross])
        crossings = sol.t_events[0]
        assert len(crossings) >= 2
        y_return = sol.sol(crossings[1]) if sol.sol else None
        # evaluate x at the first return via a fresh dense solve
        sol = solve_ivp(f, (0.0, float(crossings[1])), [0.5 * PI, 2.4],
                        rtol=1e-11, atol=1e-13, dense_output=True)
        x_return = sol.sol(float(crossings[1]))[1]
        assert x_return == pytest.approx(2.4, abs=1e-6)

    def test_spec_validation(self):
        with pytest.raises(InvalidParameter):
            PortraitSpec(x_max=-1.0)
        with pytest.raises(InvalidParameter):
            PortraitSpec(x_max=1.0, n_theta=1)
