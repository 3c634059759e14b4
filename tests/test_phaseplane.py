import importlib
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.spatial import cKDTree

from wlw import cli, levelset
from wlw.errors import (
    Inconclusive,
    InvalidParameter,
    NoBracket,
    NonPositiveRadius,
)
from wlw.integrate import EventKind, IntegrationControls, integrate
from wlw.model import InitialConditions, Params, rescale
from wlw.phaseplane import (
    N_THETA,
    N_X,
    PortraitSpec,
    SingularityKind,
    autonomous_rhs,
    critical_points,
    find_separatrix,
    level_orbit,
    phase_portrait,
)

PI = math.pi
EPS = np.finfo(float).eps


def by_theta(points):
    return {round(p.theta, 6): p for p in points}


def jacobian(params, theta, x):
    """The derivative of the field (a sin(theta) + b x, x cos(theta))."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[params.a * c, params.b], [-x * s, c]])


def kind_of(eigenvalues, theta):
    """The rest-point type that a linearization's eigenvalues give."""
    if any(e.imag for e in eigenvalues):
        return SingularityKind.CENTER
    lo, hi = sorted(e.real for e in eigenvalues)
    if lo > 0.0:
        return SingularityKind.IMPROPER_NODE if lo == hi else SingularityKind.UNSTABLE_NODE
    if hi < 0.0:
        return SingularityKind.STABLE_NODE
    return SingularityKind.IMPROPER_SADDLE if theta == PI and lo == -hi else SingularityKind.SADDLE


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
        J = jacobian(Params(3, 1), 0.0, 0.0)
        np.testing.assert_allclose(J, [[3.0, 1.0], [0.0, 1.0]])
        assert by_theta(critical_points(Params(3, 1)))[0.0].eigenvalues == (3, 1)

    def test_pi_point(self):
        J = jacobian(Params(3, 1), PI, 0.0)
        np.testing.assert_allclose(J, [[-3.0, 1.0], [0.0, -1.0]], atol=1e-15)
        assert by_theta(critical_points(Params(3, 1)))[round(PI, 6)].eigenvalues == (-3, -1)

    def test_saddle_eigenvalues_pm_sqrt_a(self):
        a = 2.0
        saddle = by_theta(critical_points(Params(a, 1)))[round(1.5 * PI, 6)]
        assert saddle.eigenvalues == (-math.sqrt(a), math.sqrt(a))
        eigs = np.linalg.eigvals(jacobian(Params(a, 1), saddle.theta, saddle.x))
        np.testing.assert_allclose(sorted(eigs.real), saddle.eigenvalues, atol=1e-12)

    def test_center_eigenvalues_pm_i_sqrt_minus_a(self):
        a = -2.0
        center = by_theta(critical_points(Params(a, 1)))[round(0.5 * PI, 6)]
        assert center.eigenvalues == (1j * math.sqrt(-a), -1j * math.sqrt(-a))
        eigs = np.linalg.eigvals(jacobian(Params(a, 1), center.theta, center.x))
        np.testing.assert_allclose(sorted(e.imag for e in eigs),
                                   [-math.sqrt(-a), math.sqrt(-a)], atol=1e-12)

    def test_jacobian_is_the_derivative_of_the_field(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            params = Params(float(rng.uniform(-5, 5)), float(rng.uniform(-3, 3)))
            theta, x, h = float(rng.uniform(0, 2 * PI)), float(rng.uniform(0.1, 5)), 1e-6
            columns = [(np.subtract(autonomous_rhs(params, theta + h * dt, x + h * dx),
                                    autonomous_rhs(params, theta - h * dt, x - h * dx)) / (2 * h))
                       for dt, dx in ((1, 0), (0, 1))]
            np.testing.assert_allclose(np.column_stack(columns), jacobian(params, theta, x),
                                       atol=1e-8 * (1 + abs(params.a) + x))


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

    def test_closed_forms_match_the_jacobian_over_thirty_decades(self):
        # |a| log-uniform in [1e-15, 1e15] and a = +-1 exactly.  numpy's
        # eigenvalues of the Jacobian at the rounded angles differ from the
        # exact ones by a few eps (1 + |a| + |lambda|): cos(3 pi/2) rounds
        # to 1.8e-16, not 0.
        rng = np.random.default_rng(30)
        cases = [(sign * float(10.0 ** rng.uniform(-15, 15)),
                  float(rng.choice([0.0, 1.0, -1.0]) * rng.uniform(0.2, 3.0)))
                 for sign in (1.0, -1.0) for _ in range(300)]
        cases += [(a, b) for a in (1.0, -1.0) for b in (0.0, 0.7, -2.0)]
        for a, b in cases:
            pts = critical_points(Params(a, b))
            assert [p.theta for p in pts][:2] == [0.0, PI] and len(pts) == 2 + (b != 0.0)
            for p in pts:
                got = np.array(p.eigenvalues)
                eigs = np.linalg.eigvals(jacobian(Params(a, b), p.theta, p.x))
                ref = min((eigs, eigs[::-1]), key=lambda e: np.abs(got - e).max())
                tol = 8 * EPS * (1.0 + abs(a) + np.abs(got).max())
                assert np.abs(got - ref).max() <= tol, (a, b, p)
                assert p.kind == kind_of(p.eigenvalues, p.theta) == kind_of(ref, p.theta), (a, b, p)


class TestSeparatrix:
    def test_a2_in_bracket_and_splits_outcomes(self):
        params = Params(2, 1)
        xbar = find_separatrix(params, 0.0, (2.0, 20.0))
        assert 2.0 < xbar < 20.0
        eps = 1e-4 * xbar
        controls = IntegrationControls(max_arclength=200)
        below = integrate(params, InitialConditions(xbar - eps, 0.0), controls)
        above = integrate(params, InitialConditions(xbar + eps, 0.0), controls)

        def forward_turns(traj):
            return [e for e in traj.events_of(EventKind.FULL_TURN) if e.s > 0.0]
        assert not forward_turns(below)
        assert forward_turns(above)

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

    def test_integrates_nothing(self, monkeypatch, tmp_path):
        # the separatrix and the portrait both come off the first integral
        def no_run(*args):
            raise AssertionError("the stepper ran")
        monkeypatch.setattr(importlib.import_module("wlw.integrate"), "_run_direction", no_run)
        find_separatrix(Params(3, 1), 0.0, (4.0, 7.0))
        phase_portrait(Params(3, 1), PortraitSpec(x_max=7.5))
        code = cli.main(["phase", "-a", "3", "-b", "1", "--separatrix", "-o", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "phase.svg").is_file()

    def test_requires_saddle_regime(self):
        with pytest.raises(InvalidParameter):
            find_separatrix(Params(-2, 1), 0.0, (1.0, 5.0))

    def test_no_bracket(self):
        with pytest.raises(NoBracket):
            find_separatrix(Params(3, 1), 0.0, (1.0, 2.0))

    def test_bracket_from_the_saddle_level(self):
        # f_H on the saddle's level rises from -1 at a/b to +1 at its outer
        # turning radius x_hi, which is the root at theta0 = pi/2.  The CLI's
        # old guess (a/b/2, 6 max(a/b, 1)) missed 181 of the first 2,000 of
        # these draws, and a bracket ending at x_hi missed 157, all at pi/2.
        rng = np.random.default_rng(0)
        for _ in range(250):
            a = math.exp(rng.uniform(math.log(0.02), math.log(50.0)))
            b = math.exp(rng.uniform(math.log(0.01), math.log(100.0)))
            theta0 = rng.uniform(0.0, 2 * PI)
            angle = rng.choice([0.0, PI / 2, PI, 1.5 * PI, -1.0])
            theta0 = theta0 if angle < 0.0 else float(angle)
            params, saddle = Params(a, b), levelset.Anchor(a / b, -1.0)
            xbar = find_separatrix(params, theta0)
            f = levelset.f_H(params, saddle, xbar)
            rounding = 8 * EPS * (levelset.term_size(params, saddle, xbar)
                                  + xbar * abs(a * f / xbar + b))
            assert xbar >= a / b and abs(math.sin(theta0) - f) <= rounding, (a, b, theta0)
            if theta0 == PI / 2:
                x_hi = levelset.level(params, saddle).x_hi
                assert xbar == pytest.approx(x_hi, rel=1e-14)

    def test_homothety_commutes(self):
        # rescaling by 3 turns (3, 1) into (3, 1/3) and triples the threshold
        xbar = find_separatrix(Params(3, 1), 0.0, (4.0, 7.0))
        p2, _ = rescale(3.0, Params(3, 1), InitialConditions(1.0, 0.0))
        xbar2 = find_separatrix(p2, 0.0, (3 * 4.0, 3 * 7.0))
        assert xbar2 == pytest.approx(3.0 * xbar, rel=1e-13)
        assert xbar2 == pytest.approx(15.588, abs=0.05)


def _box(spec):
    return 0.0, 2 * PI, 1.05 * spec.x_max


def _in_box(points, spec):
    lo, hi, top = _box(spec)
    return (points[:, 0] >= lo) & (points[:, 0] <= hi) & (points[:, 1] <= top)


def _reference_arcs(params, seed, spec, span=20.0):
    """solve_ivp orbits of V from seed, forward then backward in its own time.

    Each runs the whole span, whatever its theta, so that it covers every
    part of the orbit that the box cuts out.  A run ends sooner above twice
    the box top; each orbit of the tested seeds turns back below it.
    """
    top = _box(spec)[2]
    a, b = params.a, params.b

    def f(t, y):
        return [a * math.sin(y[0]) + b * y[1], y[1] * math.cos(y[0])]

    def leave_twice_the_top(t, y):
        return 2.0 * top - y[1]
    leave_twice_the_top.terminal = True

    return [solve_ivp(f, (0.0, sign * span), list(seed), rtol=1e-10, atol=1e-12,
                      events=[leave_twice_the_top], dense_output=True)
            for sign in (1.0, -1.0)]


def _distance(params, points, sol):
    """Distances of points from a reference arc, with theta taken mod 2 pi:
    the nearest sample, then Gauss-Newton steps along the field on the dense
    output."""
    t_end = sol.t[-1]
    ts = np.linspace(0.0, t_end, int(abs(t_end) / 0.01) + 2)
    ys = sol.sol(ts)
    wrapped = np.column_stack([np.mod(ys[0], math.tau), ys[1]])
    copies = np.vstack([wrapped + (k * math.tau, 0.0) for k in (-1, 0, 1)])
    _, j = cKDTree(copies).query(np.column_stack([np.mod(points[:, 0], math.tau), points[:, 1]]))
    t = ts[j % len(ts)]
    # lift each point next to its foot on the arc
    lift = math.tau * np.round((sol.sol(t)[0] - points[:, 0]) / math.tau)
    points = points + np.column_stack([lift, np.zeros(len(points))])
    for _ in range(4):
        y = sol.sol(t)
        v = np.array(autonomous_rhs(params, y[0], y[1]))
        vv = (v * v).sum(axis=0)
        step = ((points.T - y) * v).sum(axis=0) / np.where(vv > 1e-20, vv, np.inf)
        t = np.clip(t + step, min(0.0, t_end), max(0.0, t_end))
    return np.hypot(*(points.T - sol.sol(t)))


def _seeds(x_max):
    return [(t0, x) for t0 in (0.0, 0.5 * PI, PI, 1.5 * PI)
            for x in np.linspace(x_max / 6.0, x_max * 5.0 / 6.0, 3)]


class TestPortrait:
    def test_grid_in_box_and_boundary_tangency(self):
        portrait = phase_portrait(Params(2, 1), PortraitSpec(x_max=4.0))
        grid = portrait.grid
        assert grid.shape == (N_THETA * N_X, 4)
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
                         IntegrationControls(max_arclength=10))
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
    def test_orbits_match_reference_and_are_clipped_to_the_box(self, a):
        # Each seed's polylines lie on the orbit of V through the seed,
        # compared mod 2 pi, and inside the box.
        params, spec = Params(a, 1), PortraitSpec(x_max=5.0)
        portrait = phase_portrait(params, spec)
        per_seed = [level_orbit(params, seed, spec) for seed in _seeds(spec.x_max)]
        drawn = [line for lines in per_seed for line in lines]
        assert len(portrait.orbits) == len(drawn)
        assert all(np.array_equal(p, q) for p, q in zip(portrait.orbits, drawn))
        for seed, lines in zip(_seeds(spec.x_max), per_seed):
            assert lines, seed
            points = np.vstack(lines)
            assert _in_box(points, spec).all()
            arcs = _reference_arcs(params, seed, spec)
            dist = np.min([_distance(params, points, sol) for sol in arcs], axis=0)
            assert dist.max() < 1e-6, (seed, dist.max())
            # and they leave out no part of it: every sample of the reference
            # in the box, mod 2 pi, lies within one sample gap of a drawn point
            gap = max(np.hypot(*np.diff(line, axis=0).T).max() for line in lines)
            ref = np.hstack([sol.sol(np.linspace(0.0, sol.t[-1], 20001)) for sol in arcs]).T
            ref = ref[ref[:, 1] <= _box(spec)[2]]
            ref[:, 0] = np.mod(ref[:, 0], math.tau)
            wrapped = np.column_stack([np.mod(points[:, 0], math.tau), points[:, 1]])
            near, _ = cKDTree(wrapped).query(ref)
            assert near.max() <= gap, (seed, near.max(), gap)

    def test_center_cycle_is_drawn_once(self):
        # (-2, 1): the orbit through (pi/2, 2.5) is a closed cycle around the
        # center (pi/2, 2), and 2.5 is its outer turning radius.  Its two
        # branches each run over [x_lo, x_hi] once and meet at both ends.
        params, seed, spec = Params(-2, 1), (0.5 * PI, 2.5), PortraitSpec(x_max=5.0)
        _, _, x_lo, x_hi, _, _ = levelset.level(params, levelset.Anchor(2.5, 1.0))
        assert 0.0 < x_lo < 2.0 < x_hi == 2.5
        lines = level_orbit(params, seed, spec)
        assert len(lines) == 2
        for line in lines:
            assert line[0, 1] == pytest.approx(x_lo, rel=1e-12)
            assert line[-1, 1] == pytest.approx(x_hi, rel=1e-12)
            assert (np.diff(line[:, 1]) > 0.0).all()
        inner, outer = lines
        assert inner[:, 0].max() <= 0.5 * PI <= outer[:, 0].min()
        np.testing.assert_allclose(inner[[0, -1], 0], outer[[0, -1], 0], atol=1e-6)
        portrait = phase_portrait(params, spec)
        assert sum(any(np.array_equal(o, line) for o in portrait.orbits) for line in lines) == 2

    @pytest.mark.parametrize("a", [2.0, -2.0])
    def test_a_line_seed_draws_only_its_own_branch(self, a):
        # At b = 0, f_H = 0 on the level through (0, 1): its branches theta = 0
        # and pi are the rays x' = x and x' = -x of V, two orbits, and only
        # the seed's is drawn, at theta = 0 and 2 pi.
        spec = PortraitSpec(x_max=5.0)
        lines = level_orbit(Params(a, 0), (0.0, 1.0), spec)
        assert sorted(np.unique(line[:, 0]).tolist() for line in lines) == [[0.0], [2.0 * PI]]
        for line in lines:
            assert 0.0 < line[0, 1] < 1e-3 and line[-1, 1] == pytest.approx(1.05 * spec.x_max)

    def test_an_unresolved_level_is_inconclusive(self, monkeypatch, tmp_path):
        def unresolved(*args):
            raise FloatingPointError("no turning radius resolved")
        monkeypatch.setattr(levelset, "level", unresolved)
        with pytest.raises(Inconclusive) as info:
            level_orbit(Params(2, 1), (0.0, 1.0), PortraitSpec(x_max=5.0))
        assert info.value.diagnostics == {
            "reason": "no turning radius resolved", "theta": 0.0, "x": 1.0}
        code = cli.main(["phase", "-a", "2", "-b", "1", "-o", str(tmp_path)])
        assert code == cli.EXIT_INCONCLUSIVE

    def test_seed_on_the_axis_is_rejected(self):
        with pytest.raises(NonPositiveRadius):
            level_orbit(Params(2, 1), (0.5 * PI, 0.0), PortraitSpec(x_max=5.0))

    def test_spec_validation(self):
        with pytest.raises(InvalidParameter):
            PortraitSpec(x_max=-1.0)
