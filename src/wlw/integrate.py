"""Adaptive integration of the profile ODE with event detection.

The stepper is an embedded Runge-Kutta 5(4) pair with dense output (scipy's
RK45), driven manually so that every accepted step is scanned for events,
the step size is clamped near the rotation axis, and termination reasons are
tracked per direction.  Trajectories are immutable and carry their dense
interpolants, so downstream probing (symmetry checks, period verification,
resampling for output) does not re-integrate.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.integrate import RK45
from scipy.optimize import brentq

from .errors import (
    InvalidParameter,
    NoFullTurn,
    NonPositiveRadius,
    NotVertical,
    VerificationFailed,
)
from .model import AXIS_EPSILON, EQUILIBRIUM_TOL, InitialConditions, Params, ProfileState, is_equilibrium

# Consecutive accepted steps that must sit at a phase rest point before the
# run is cut short as an equilibrium.
_EQUILIBRIUM_HOLD_STEPS = 100


class EventKind(str, enum.Enum):
    AXIS_APPROACH = "AxisApproach"
    VERTICAL_TANGENT = "VerticalTangent"
    FULL_TURN = "FullTurn"
    EQUILIBRIUM_HOLD = "EquilibriumHold"
    SELF_INTERSECTION = "SelfIntersection"
    BLOWUP = "Blowup"


class Termination(str, enum.Enum):
    AXIS_REACHED = "AxisReached"
    MAX_ARCLENGTH = "MaxArclength"
    MAX_STEPS = "MaxSteps"
    EQUILIBRIUM_DETECTED = "EquilibriumDetected"
    STEP_FAILURE = "StepFailure"
    # Caller-imposed cutoffs (turn/tangent budgets, radius blowup guard).
    EVENT_BUDGET = "EventBudget"


@dataclass(frozen=True)
class IntegrationControls:
    """Tolerances, budgets and event-detection knobs for one integration."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_arclength: float = 200.0
    max_steps: int = 200_000
    axis_epsilon: float = AXIS_EPSILON
    event_refine_tol: float = 1e-12
    x_blowup: float = 1e9
    max_full_turns: Optional[int] = None
    max_vertical_tangents: Optional[int] = None
    two_sided: bool = True
    equilibrium_tol: float = EQUILIBRIUM_TOL

    def __post_init__(self):
        for name in ("rel_tol", "abs_tol", "max_arclength", "axis_epsilon",
                     "event_refine_tol", "x_blowup", "equilibrium_tol"):
            if not (getattr(self, name) > 0.0):
                raise InvalidParameter(f"{name} must be > 0")
        if self.max_steps <= 0:
            raise InvalidParameter("max_steps must be > 0")


@dataclass(frozen=True)
class EventRecord:
    kind: EventKind
    s: float
    state: ProfileState


@dataclass(frozen=True)
class IntersectionRecord:
    """A transversal self-crossing of the profile polyline."""

    s_a: float
    s_b: float
    x: float
    z: float


class _ConstantSegment:
    """Dense output of a rest-point solution: x, theta frozen, z linear."""

    def __init__(self, lo: float, hi: float, x0: float, theta0: float):
        self.lo, self.hi = lo, hi
        self._x0, self._theta0 = x0, theta0
        self._dz = math.sin(theta0)

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        shape = s.shape
        out = np.empty((3,) + shape)
        out[0] = self._x0
        out[1] = self._dz * s
        out[2] = self._theta0
        return out if shape else out[:, ()]


class Trajectory:
    """An integrated profile curve with events and dense interpolation.

    Samples are the accepted integration steps, strictly increasing in s and
    covering [s_min, s_max] (s_min < 0 when the companion backward run is
    enabled).  theta is unwrapped: consecutive samples differ by less than pi.
    """

    def __init__(self, params: Params, ic: InitialConditions, controls: IntegrationControls,
                 s: np.ndarray, x: np.ndarray, z: np.ndarray, theta: np.ndarray,
                 events: Sequence[EventRecord], termination: Termination,
                 termination_backward: Optional[Termination],
                 segments: Sequence[tuple]):
        self.params = params
        self.ic = ic
        self.controls = controls
        self.s = s
        self.x = x
        self.z = z
        self.theta = theta
        self.events = tuple(sorted(events, key=lambda e: e.s))
        self.termination = termination
        self.termination_backward = termination_backward
        self._segments = list(segments)
        self._seg_lo = np.array([seg[0] for seg in self._segments])
        if np.any(np.diff(s) <= 0.0):
            raise VerificationFailed("trajectory samples are not strictly increasing in s")
        dtheta = np.abs(np.diff(theta))
        if dtheta.size and dtheta.max() >= math.pi:
            raise VerificationFailed("tangent winding ambiguous: a step moved theta by >= pi")

    @property
    def s_min(self) -> float:
        return float(self.s[0])

    @property
    def s_max(self) -> float:
        return float(self.s[-1])

    def events_of(self, kind: EventKind) -> list[EventRecord]:
        return [e for e in self.events if e.kind == kind]

    def eval(self, s) -> np.ndarray:
        """Dense (x, z, theta) at arbitrary s inside the integrated span."""
        s_arr = np.atleast_1d(np.asarray(s, dtype=float))
        lo, hi = self.s_min, self.s_max
        pad = 1e-9 * max(1.0, abs(lo), abs(hi))
        if s_arr.min() < lo - pad or s_arr.max() > hi + pad:
            raise InvalidParameter(
                f"s outside integrated span [{lo}, {hi}]: [{s_arr.min()}, {s_arr.max()}]")
        s_clip = np.clip(s_arr, lo, hi)
        idx = np.searchsorted(self._seg_lo, s_clip, side="right") - 1
        idx = np.clip(idx, 0, len(self._segments) - 1)
        out = np.empty((3, s_clip.size))
        for k in np.unique(idx):
            mask = idx == k
            out[:, mask] = np.asarray(self._segments[k][2](s_clip[mask]))
        if np.isscalar(s) or np.asarray(s).ndim == 0:
            return out[:, 0]
        return out

    def state(self, s: float) -> ProfileState:
        x, z, theta = self.eval(float(s))
        return ProfileState(float(s), float(x), float(z), float(theta))

    def theta_prime(self, s) -> np.ndarray:
        x, _, theta = self.eval(s)
        return self.params.a * np.sin(theta) / x + self.params.b

    def resample(self, n: int, window: Optional[tuple[float, float]] = None) -> np.ndarray:
        """Uniform-in-s resampling; returns array of shape (n, 4): s, x, z, theta."""
        lo, hi = window if window is not None else (self.s_min, self.s_max)
        grid = np.linspace(lo, hi, n)
        vals = self.eval(grid)
        return np.column_stack([grid, vals[0], vals[1], vals[2]])

    def theta_range(self) -> tuple[float, float]:
        return float(self.theta.min()), float(self.theta.max())

    def winding_turns(self) -> int:
        """Largest |k| over recorded full-turn events (0 when none)."""
        turns = 0
        for e in self.events_of(EventKind.FULL_TURN):
            k = round((e.state.theta - self.ic.theta0) / math.tau)
            turns = max(turns, abs(int(k)))
        return turns


def _rhs_factory(params: Params) -> Callable:
    a, b = params.a, params.b

    def f(s, y):
        x = y[0]
        theta = y[2]
        if x <= 0.0:
            # Internal stage strayed past the axis; poison the step so the
            # controller rejects it and retries smaller.
            return np.array([math.nan, math.nan, math.nan])
        return np.array([math.cos(theta), math.sin(theta), a * math.sin(theta) / x + b])

    return f


@dataclass
class _DirectionRun:
    s: list = field(default_factory=list)
    y: list = field(default_factory=list)
    segments: list = field(default_factory=list)
    events: list = field(default_factory=list)
    termination: Termination = Termination.MAX_ARCLENGTH


def _refine_root(gfun, seg, s_lo, s_hi, tol):
    s_lo, s_hi = min(s_lo, s_hi), max(s_lo, s_hi)
    g_lo, g_hi = gfun(seg(s_lo)), gfun(seg(s_hi))
    if g_lo == 0.0:
        return s_lo
    if g_hi == 0.0:
        return s_hi
    return brentq(lambda s: gfun(seg(s)), s_lo, s_hi, xtol=tol)


def _run_direction(params: Params, ic: InitialConditions, controls: IntegrationControls,
                   direction: int) -> _DirectionRun:
    run = _DirectionRun()
    y0 = np.array([ic.x0, 0.0, ic.theta0])
    run.s.append(0.0)
    run.y.append(y0.copy())

    f = _rhs_factory(params)
    solver = RK45(f, 0.0, y0, t_bound=direction * controls.max_arclength,
                  rtol=controls.rel_tol, atol=controls.abs_tol)
    theta0 = ic.theta0
    a, b = params.a, params.b

    g_axis = lambda y: y[0] - controls.axis_epsilon
    g_blow = lambda y: y[0] - controls.x_blowup
    g_vert = lambda y: math.cos(y[2])
    g_turn = lambda y: math.sin(0.5 * (y[2] - theta0))

    prev_axis, prev_blow = g_axis(y0), g_blow(y0)
    prev_vert, prev_turn = g_vert(y0), g_turn(y0)
    n_vert = 0
    seen_turns: set[int] = set()
    hold_count = 0
    hold_start = None
    nsteps = 0

    while solver.status == "running":
        if nsteps >= controls.max_steps:
            run.termination = Termination.MAX_STEPS
            return run
        # Keep internal stages strictly off the axis.
        solver.max_step = max(0.8 * solver.y[0], 4.0 * controls.axis_epsilon)
        solver.step()
        nsteps += 1
        if solver.status == "failed":
            run.termination = Termination.STEP_FAILURE
            return run

        seg = solver.dense_output()
        s_old, s_new = seg.t_old, seg.t
        y_new = solver.y
        run.segments.append((min(s_old, s_new), max(s_old, s_new), seg))

        # --- event scan on this step, in time order -------------------
        v_axis, v_blow = g_axis(y_new), g_blow(y_new)
        v_vert, v_turn = g_vert(y_new), g_turn(y_new)
        candidates = []
        if prev_axis > 0.0 >= v_axis:
            candidates.append((_refine_root(g_axis, seg, s_old, s_new,
                                            controls.event_refine_tol), EventKind.AXIS_APPROACH))
        if prev_blow < 0.0 <= v_blow:
            candidates.append((_refine_root(g_blow, seg, s_old, s_new,
                                            controls.event_refine_tol), EventKind.BLOWUP))
        if prev_vert * v_vert < 0.0 or v_vert == 0.0:
            candidates.append((_refine_root(g_vert, seg, s_old, s_new,
                                            controls.event_refine_tol), EventKind.VERTICAL_TANGENT))
        if prev_turn * v_turn < 0.0 or v_turn == 0.0:
            candidates.append((_refine_root(g_turn, seg, s_old, s_new,
                                            controls.event_refine_tol), EventKind.FULL_TURN))
        candidates.sort(key=lambda c: direction * c[0])

        cut_s = None
        cut_term = None
        for s_star, kind in candidates:
            st = _state_at(seg, s_star)
            if kind == EventKind.AXIS_APPROACH:
                run.events.append(EventRecord(kind, s_star, st))
                cut_s, cut_term = s_star, Termination.AXIS_REACHED
                break
            if kind == EventKind.BLOWUP:
                run.events.append(EventRecord(kind, s_star, st))
                cut_s, cut_term = s_star, Termination.EVENT_BUDGET
                break
            if kind == EventKind.VERTICAL_TANGENT:
                run.events.append(EventRecord(kind, s_star, st))
                n_vert += 1
                if (controls.max_vertical_tangents is not None
                        and n_vert >= controls.max_vertical_tangents):
                    cut_s, cut_term = s_star, Termination.EVENT_BUDGET
                    break
            else:  # FULL_TURN candidate; k = 0 re-crossings are not events
                k = round((st.theta - theta0) / math.tau)
                if k != 0 and k not in seen_turns:
                    seen_turns.add(k)
                    run.events.append(EventRecord(kind, s_star, st))
                    if (controls.max_full_turns is not None
                            and abs(k) >= controls.max_full_turns):
                        cut_s, cut_term = s_star, Termination.EVENT_BUDGET
                        break

        if cut_s is not None:
            if (cut_s - run.s[-1]) * direction > 0.0:
                run.s.append(cut_s)
                run.y.append(np.asarray(seg(cut_s)))
            run.termination = cut_term
            return run

        # --- equilibrium hold ----------------------------------------
        theta_dot = a * math.sin(y_new[2]) / y_new[0] + b
        if abs(math.cos(y_new[2])) < controls.equilibrium_tol and abs(theta_dot) < controls.equilibrium_tol:
            if hold_count == 0:
                hold_start = s_new
            hold_count += 1
            if hold_count >= _EQUILIBRIUM_HOLD_STEPS:
                run.s.append(s_new)
                run.y.append(y_new.copy())
                run.events.append(EventRecord(EventKind.EQUILIBRIUM_HOLD, hold_start,
                                              _state_at(seg, s_new)))
                run.termination = Termination.EQUILIBRIUM_DETECTED
                return run
        else:
            hold_count = 0
            hold_start = None

        run.s.append(s_new)
        run.y.append(y_new.copy())
        prev_axis, prev_blow, prev_vert, prev_turn = v_axis, v_blow, v_vert, v_turn

    run.termination = Termination.MAX_ARCLENGTH
    return run


def _state_at(seg, s: float) -> ProfileState:
    x, z, theta = np.asarray(seg(s))
    return ProfileState(float(s), float(x), float(z), float(theta))


def _equilibrium_trajectory(params: Params, ic: InitialConditions,
                            controls: IntegrationControls) -> Trajectory:
    span = controls.max_arclength
    lo = -span if controls.two_sided else 0.0
    s = np.linspace(lo, span, 513 if controls.two_sided else 257)
    x = np.full_like(s, ic.x0)
    theta = np.full_like(s, ic.theta0)
    z = math.sin(ic.theta0) * s
    seg = _ConstantSegment(lo, span, ic.x0, ic.theta0)
    ev = EventRecord(EventKind.EQUILIBRIUM_HOLD, 0.0, ProfileState(0.0, ic.x0, 0.0, ic.theta0))
    return Trajectory(params, ic, controls, s, x, z, theta, [ev],
                      Termination.EQUILIBRIUM_DETECTED,
                      Termination.EQUILIBRIUM_DETECTED if controls.two_sided else None,
                      [(lo, span, seg)])


def integrate(params: Params, ic: InitialConditions,
              controls: IntegrationControls = IntegrationControls()) -> Trajectory:
    """Integrate the profile ODE from (x0, 0, theta0).

    Runs forward on s in [0, max_arclength] and, when controls.two_sided is
    set, backward as well; the two runs are merged into a single trajectory
    with s increasing.  Sign-change events (axis approach, vertical tangents,
    full turns, blowup) are refined by root bracketing on the dense output to
    event_refine_tol.  Rest-point initial data short-circuits to an exact
    vertical-line trajectory.
    """
    if not (ic.x0 > controls.axis_epsilon):
        raise NonPositiveRadius(
            f"x0 must exceed axis_epsilon={controls.axis_epsilon}, got {ic.x0}")
    if is_equilibrium(params, ic, controls.equilibrium_tol):
        return _equilibrium_trajectory(params, ic, controls)

    fwd = _run_direction(params, ic, controls, +1)
    if controls.two_sided:
        bwd = _run_direction(params, ic, controls, -1)
    else:
        bwd = None

    if bwd is not None and len(bwd.s) > 1:
        s_b = np.array(bwd.s[1:])[::-1]
        y_b = np.array(bwd.y[1:])[::-1]
        s_all = np.concatenate([s_b, np.array(fwd.s)])
        y_all = np.vstack([y_b, np.array(fwd.y)])
        segments = sorted(bwd.segments + fwd.segments, key=lambda t: t[0])
        events = bwd.events + fwd.events
        term_b = bwd.termination
    else:
        s_all = np.array(fwd.s)
        y_all = np.array(fwd.y)
        segments = sorted(fwd.segments, key=lambda t: t[0])
        events = list(fwd.events)
        term_b = bwd.termination if bwd is not None else None

    return Trajectory(params, ic, controls, s_all, y_all[:, 0], y_all[:, 1], y_all[:, 2],
                      events, fwd.termination, term_b, segments)


def detect_period(traj: Trajectory) -> tuple[float, float]:
    """Smallest T > 0 with theta(T) = theta(0) +/- 2*pi and x(T) = x(0).

    Returns (T, z_shift) with z_shift = z(T) - z(0) and verifies the
    translation property gamma(s + T) = gamma(s) + (0, 0, z_shift) at 16
    probe points using the dense interpolant.  Raises NoFullTurn when the
    tangent never spans a full turn and VerificationFailed when the claimed
    periodicity does not hold to 1e-6.
    """
    turns = [e for e in traj.events_of(EventKind.FULL_TURN)
             if e.s > 0.0 and abs(round((e.state.theta - traj.ic.theta0) / math.tau)) == 1]
    if not turns:
        raise NoFullTurn("theta range does not span a full turn forward in s")
    first = min(turns, key=lambda e: e.s)
    T = first.s
    k = round((first.state.theta - traj.ic.theta0) / math.tau)

    x0, _, _ = traj.eval(0.0)
    xT, zT, _ = traj.eval(T)
    if abs(xT - x0) > 1e-7 * max(1.0, abs(x0)):
        raise VerificationFailed(f"x(T) - x(0) = {xT - x0:.3e} exceeds tolerance")
    z_shift = float(zT)

    window = min(T, traj.s_max - T)
    if window <= 0.0:
        raise VerificationFailed("integrated span too short to verify one period")
    probes = np.linspace(0.0, window, 16)
    base = traj.eval(probes)
    shifted = traj.eval(probes + T)
    residual = (np.abs(shifted[0] - base[0])
                + np.abs(shifted[1] - base[1] - z_shift)
                + np.abs(shifted[2] - base[2] - k * math.tau))
    worst = float(residual.max())
    if worst > 1e-6:
        raise VerificationFailed(f"translation residual {worst:.3e} exceeds 1e-6")
    return float(T), z_shift


def check_horizontal_symmetry(traj: Trajectory, s0: float, n_probes: int = 32) -> float:
    """Mirror residual of the profile about the horizontal line z = z(s0).

    s0 must be a vertical-tangent location (|cos theta| < 1e-8 there).  The
    residual is max over probe offsets d of |x(s0+d) - x(s0-d)| +
    |z(s0+d) + z(s0-d) - 2 z(s0)|, probing as far as the integrated span
    allows on both sides.
    """
    x0, z0, theta0 = traj.eval(s0)
    if abs(math.cos(theta0)) >= 1e-8:
        raise NotVertical(f"|cos theta(s0)| = {abs(math.cos(theta0)):.3e} at s0={s0}")
    window = min(s0 - traj.s_min, traj.s_max - s0)
    if window <= 0.0:
        return 0.0
    offsets = np.linspace(0.0, window, n_probes + 1)[1:]
    plus = traj.eval(s0 + offsets)
    minus = traj.eval(s0 - offsets)
    residual = np.abs(plus[0] - minus[0]) + np.abs(plus[1] + minus[1] - 2.0 * z0)
    return float(residual.max())


def find_self_intersections(traj: Trajectory, window: Optional[tuple[float, float]] = None,
                            n_samples: int = 2048) -> list[IntersectionRecord]:
    """Transversal self-crossings of the profile polyline, Newton-refined.

    The curve is resampled uniformly in s, candidate segment pairs are found
    by bounding-box overlap, confirmed by an orientation test, and each hit
    is polished on the dense interpolant using the analytic tangent
    (cos theta, sin theta).
    """
    pts = traj.resample(n_samples, window)
    s_grid = pts[:, 0]
    P = pts[:, 1:3]
    A, B = P[:-1], P[1:]
    n = len(A)
    lo = np.minimum(A, B)
    hi = np.maximum(A, B)

    hits: list[tuple[int, int]] = []
    block = 256
    for i0 in range(0, n, block):
        i1 = min(i0 + block, n)
        # Only pairs (i, j) with j >= i + 2 are candidates.
        j0 = i0 + 2
        if j0 >= n:
            break
        overlap = ((lo[i0:i1, None, 0] <= hi[None, j0:, 0])
                   & (hi[i0:i1, None, 0] >= lo[None, j0:, 0])
                   & (lo[i0:i1, None, 1] <= hi[None, j0:, 1])
                   & (hi[i0:i1, None, 1] >= lo[None, j0:, 1]))
        for di, dj in zip(*np.nonzero(overlap)):
            i, j = i0 + di, j0 + dj
            if j - i < 2:
                continue
            if _segments_cross(A[i], B[i], A[j], B[j]):
                hits.append((i, j))

    records: list[IntersectionRecord] = []
    ds = s_grid[1] - s_grid[0]
    for i, j in hits:
        ref = _refine_crossing(traj, s_grid[i], s_grid[i + 1], s_grid[j], s_grid[j + 1])
        if ref is None:
            continue
        sa, sb = ref
        if sb - sa < 2.0 * ds:
            continue
        if any(abs(sa - r.s_a) < 2.0 * ds and abs(sb - r.s_b) < 2.0 * ds for r in records):
            continue
        xa, za, _ = traj.eval(sa)
        records.append(IntersectionRecord(sa, sb, float(xa), float(za)))
    records.sort(key=lambda r: (r.s_a, r.s_b))
    return records


def _segments_cross(p1, p2, p3, p4) -> bool:
    d1 = _cross2(p4 - p3, p1 - p3)
    d2 = _cross2(p4 - p3, p2 - p3)
    d3 = _cross2(p2 - p1, p3 - p1)
    d4 = _cross2(p2 - p1, p4 - p1)
    return (d1 * d2 < 0.0) and (d3 * d4 < 0.0)


def _cross2(u, v) -> float:
    return float(u[0] * v[1] - u[1] * v[0])


def _refine_crossing(traj: Trajectory, sa_lo, sa_hi, sb_lo, sb_hi,
                     max_iter: int = 30) -> Optional[tuple[float, float]]:
    sa = 0.5 * (sa_lo + sa_hi)
    sb = 0.5 * (sb_lo + sb_hi)
    tol = traj.controls.event_refine_tol
    for _ in range(max_iter):
        xa, za, tha = traj.eval(sa)
        xb, zb, thb = traj.eval(sb)
        fx, fz = xa - xb, za - zb
        if abs(fx) + abs(fz) < 1e-13:
            return float(sa), float(sb)
        ca, sa_t = math.cos(tha), math.sin(tha)
        cb, sb_t = math.cos(thb), math.sin(thb)
        det = ca * (-sb_t) - (-cb) * sa_t
        if abs(det) < 1e-14:
            return None
        dsa = (-sb_t * fx + cb * fz) / det
        dsb = (-sa_t * fx + ca * fz) / det
        sa -= dsa
        sb -= dsb
        sa = min(max(sa, sa_lo - 2.0 * (sa_hi - sa_lo)), sa_hi + 2.0 * (sa_hi - sa_lo))
        sb = min(max(sb, sb_lo - 2.0 * (sb_hi - sb_lo)), sb_hi + 2.0 * (sb_hi - sb_lo))
        sa = min(max(sa, traj.s_min), traj.s_max)
        sb = min(max(sb, traj.s_min), traj.s_max)
        if abs(dsa) < tol and abs(dsb) < tol:
            return float(sa), float(sb)
    return float(sa), float(sb)
