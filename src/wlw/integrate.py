"""Adaptive integration of the profile ODE with event detection.

The stepper is the Dormand-Prince 5(4) embedded pair with Shampine's
4th-order continuous extension (Hairer, Norsett and Wanner, *Solving
Ordinary Differential Equations I*, sections II.4-II.6), written out for the
three scalar components (x, z, theta) on floats and ``math``.  Its
step-size controller mirrors the Dormand-Prince solver of scipy.integrate -
the same tableau and error weights, the RMS error norm, the safety factor
and the step-factor bounds, the initial-step heuristic and the 10-ulp
minimum step - so results carry over from that solver to rounding.  Every
accepted step is scanned for events, the step size is clamped near the
rotation axis, and termination reasons are tracked per direction.

The step loop is the hot path, and it keeps to four rules.  Every sum runs
left to right, the tableau's in its order, so each step has fixed bits
(tests pin it against a loop over the tableau rows); so do the initial-step
norms, since the builtin sum compensates from Python 3.12 on.  The tableau
and controller constants are bound to locals.  An accepted step makes no
builtin call besides math's cos, sin, sqrt and nextafter: min, max and abs
are conditionals that give the same floats.  It appends one record, its end
s and state and its stages 1, 3-7, and notes the steps on which an event
function changes sign.  integrate converts the records once and refines
those events on the packed rows that Trajectory.eval reads; a run that an
event cuts ends on the refined cut state.  The axis and blowup tests are
comparisons, xn <= AXIS_EPSILON < x and x < X_BLOWUP <= xn: a difference of
floats is 0.0 only when they are equal and otherwise has the sign of their
order, so these decide as the event functions' signs do.  Any change to the
loop must leave every sample, stage, event and termination bit for bit.

Trajectories are immutable and carry their dense interpolants packed into
one coefficient array, so downstream probing (symmetry checks, period
verification, resampling for output) neither re-integrates nor loops over
steps.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import partial
from itertools import chain
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import (
    InvalidParameter,
    NoFullTurn,
    NonPositiveRadius,
    NotVertical,
    VerificationFailed,
)
from .model import (
    AXIS_EPSILON,
    REL_TOL,
    InitialConditions,
    Params,
    ProfileState,
    is_equilibrium,
)
from .numerics import MIN_REL_TOL, MIN_RTOL, brentq

# Arclength accuracy of an event's location and of a self-crossing.
EVENT_REFINE_TOL = 1e-12

# Radius at which a run ends with a Blowup event.
X_BLOWUP = 1e9

# Accepted steps after which a direction's run ends with MaxSteps: a guard
# against a runaway step-size controller, not a budget.
MAX_STEPS = 200_000

# Probe offsets per side in check_horizontal_symmetry; Newton steps per self-crossing.
_SYMMETRY_PROBES = 32
_CROSSING_MAX_ITER = 30

# Dormand-Prince 5(4) coefficients (HNW Table II.5.5).  The profile ODE is
# autonomous, so the nodes c_i are not needed.  Stage 2 carries zero weight in
# the solution, the error estimate and the dense output.
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
# 5th- minus 4th-order weights; stage 7 is f(y_new) (first same as last).
_E1, _E3, _E4, _E5, _E6, _E7 = (-71 / 57600, 71 / 16695, -71 / 1920, 17253 / 339200,
                                -22 / 525, 1 / 40)
# Continuous extension y(s0 + u h) = y0 + h K^T P (u, u^2, u^3, u^4); rows are
# stages 1, 3, 4, 5, 6, 7 (Shampine's optimal c6, as in scipy).
_P = np.array([
    [1, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
    [0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
    [0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
    [0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632],
    [0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
    [0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
])
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_ERROR_EXPONENT = -1 / 5
_SQRT3 = 3 ** 0.5


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
    # The radius blowup guard: the run reached x = X_BLOWUP.
    BLOWUP = "Blowup"


@dataclass(frozen=True)
class IntegrationControls:
    """Step tolerance and arclength for one integration.

    Every run is two-sided: it integrates forward and backward from the
    initial state, each direction up to max_arclength, x = AXIS_EPSILON or
    x = X_BLOWUP (or MAX_STEPS); no other event ends it.  A step's error
    weight is atol + max(|y|, |y_new|) rtol, rtol = max(rel_tol, MIN_REL_TOL)
    and atol = rtol/100; rel_tol is finite.
    """

    rel_tol: float = REL_TOL
    max_arclength: float = 200.0

    def __post_init__(self):
        for name in ("rel_tol", "max_arclength"):
            if not (getattr(self, name) > 0.0):
                raise InvalidParameter(f"{name} must be > 0")
        if self.rel_tol == math.inf:    # the first step's z weight would be NaN
            raise InvalidParameter("rel_tol must be finite")


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


class _Dense(NamedTuple):
    """Packed piecewise-quartic interpolant, one row per step, sorted by lo.

    On [lo[i], lo[i] + |h|] the state is y0[i] + u (c0 + u (c1 + u (c2 + u c3)))
    with u = (s - s0[i]) / h[i] and c_p = c[i, :, p].
    """

    lo: np.ndarray   # (n,) lower end of each step
    s0: np.ndarray   # (n,) start of each step (its upper end when integrating backward)
    h: np.ndarray    # (n,) signed step
    y0: np.ndarray   # (n, 3) state at s0
    c: np.ndarray    # (n, 3, 4) h times the power coefficients


def _pack(s0: np.ndarray, s1: np.ndarray, y0: np.ndarray, K: np.ndarray) -> _Dense:
    """Interpolants of the steps s0 -> s1 from their stages K, shape (n, 6, 3).

    The stage sum runs in a fixed order, so a step's coefficients come out
    the same bits whether it is packed alone or with others.
    """
    h = s1 - s0
    Q = sum(K[:, k, :, None] * _P[k] for k in range(len(_P)))
    return _Dense(np.minimum(s0, s1), s0, h, y0, h[:, None, None] * Q)


def _horner(s0, h, y0, c, s):
    """The packed interpolant y0 + u (c0 + u (c1 + u (c2 + u c3))), u = (s - s0) / h,
    of one step on floats, or of many on arrays whose first axis of c is p."""
    u = (s - s0) / h
    return y0 + u * (c[0] + u * (c[1] + u * (c[2] + u * c[3])))


class Trajectory:
    """An integrated profile curve with events and dense interpolation.

    Samples are the accepted integration steps, strictly increasing in s and
    covering [s_min, s_max]: the backward run gives s < 0 and the forward run
    s > 0.  theta is unwrapped: consecutive samples differ by less than pi.
    """

    def __init__(self, params: Params, ic: InitialConditions,
                 s: np.ndarray, x: np.ndarray, z: np.ndarray, theta: np.ndarray,
                 events: Sequence[EventRecord], termination: Termination,
                 termination_backward: Termination, dense: _Dense):
        self.params = params
        self.ic = ic
        self.s = s
        self.x = x
        self.z = z
        self.theta = theta
        self.events = tuple(sorted(events, key=lambda e: e.s))
        self.termination = termination
        self.termination_backward = termination_backward
        self._dense = dense
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
        d = self._dense
        i = np.clip(np.searchsorted(d.lo, s_clip, side="right") - 1, 0, len(d.lo) - 1)
        out = _horner(d.s0[i, None], d.h[i, None], d.y0[i], np.moveaxis(d.c[i], -1, 0),
                      s_clip[:, None]).T
        return out[:, 0] if np.ndim(s) == 0 else out

    def resample(self, n: int, window: Optional[tuple[float, float]] = None) -> np.ndarray:
        """Uniform-in-s resampling; returns array of shape (n, 4): s, x, z, theta."""
        lo, hi = window if window is not None else (self.s_min, self.s_max)
        grid = np.linspace(lo, hi, n)
        vals = self.eval(grid)
        return np.column_stack([grid, vals[0], vals[1], vals[2]])


@dataclass
class _DirectionRun:
    # One row per accepted step, 22 floats: its end s, the state (x, z,
    # theta) there and its stages 1, 3-7, flattened; an axis approach or a
    # blowup ends the run on its step's row.
    steps: list = field(default_factory=list)
    # (step index, crossed) of each step whose sign tests fire, for _arrays.
    crossings: list = field(default_factory=list)
    termination: Termination = Termination.MAX_ARCLENGTH


def _initial_step(a, b, y0, f0, direction, span, rtol, atol) -> float:
    """scipy's select_initial_step (HNW II.4) for the profile ODE."""
    scale = [atol + abs(v) * rtol for v in y0]

    def rms(v):     # the squares summed left to right, not by sum
        return math.sqrt((v[0] / scale[0]) ** 2 + (v[1] / scale[1]) ** 2
                         + (v[2] / scale[2]) ** 2) / _SQRT3
    d0, d1 = rms(y0), rms(f0)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, span)
    x1 = y0[0] + h0 * direction * f0[0]
    t1 = y0[2] + h0 * direction * f0[2]
    if x1 > 0.0:
        f1 = (math.cos(t1), math.sin(t1), a * math.sin(t1) / x1 + b)
    else:
        f1 = (math.nan,) * 3
    d2 = rms((f1[0] - f0[0], f1[1] - f0[1], f1[2] - f0[2])) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    return min(100 * h0, h1, span)


def _run_direction(params: Params, ic: InitialConditions, controls: IntegrationControls,
                   direction: int) -> _DirectionRun:
    cos, sin, sqrt, nextafter, nan = math.cos, math.sin, math.sqrt, math.nextafter, math.nan
    a, b, sign = params.a, params.b, float(direction)
    theta0 = ic.theta0
    rtol = max(controls.rel_tol, MIN_REL_TOL)
    atol = rtol / 100.0
    axis_epsilon, x_blowup, max_steps = AXIS_EPSILON, X_BLOWUP, MAX_STEPS
    min_clamp = 4.0 * axis_epsilon
    s_bound = direction * controls.max_arclength
    towards = direction * math.inf
    A21 = _A21
    A31, A32 = _A31, _A32
    A41, A42, A43 = _A41, _A42, _A43
    A51, A52, A53, A54 = _A51, _A52, _A53, _A54
    A61, A62, A63, A64, A65 = _A61, _A62, _A63, _A64, _A65
    B1, B3, B4, B5, B6 = _B1, _B3, _B4, _B5, _B6
    E1, E3, E4, E5, E6, E7 = _E1, _E3, _E4, _E5, _E6, _E7
    safety, min_factor, max_factor = _SAFETY, _MIN_FACTOR, _MAX_FACTOR
    error_exponent, sqrt3 = _ERROR_EXPONENT, _SQRT3

    run = _DirectionRun()
    steps_append, crossings_append = run.steps.append, run.crossings.append
    t, x, z, th = 0.0, ic.x0, 0.0, theta0
    k1x, k1z = cos(th), sin(th)
    k1t = a * k1z / x + b
    h_abs = _initial_step(a, b, (x, z, th), (k1x, k1z, k1t), direction,
                          controls.max_arclength, rtol, atol)
    pt = 0.0   # the full-turn function at the step's start; the others read the state
    nsteps = 0

    # Each step below does the tableau's arithmetic and no more: every sum
    # left to right in the tableau's order, constants in locals, no builtin
    # call but cos, sin, sqrt and nextafter, one tuple for the step record.
    # The bits of every state and stage must stay as they are.
    while True:
        if nsteps >= max_steps:
            run.termination = Termination.MAX_STEPS
            return run
        # Keep internal stages strictly off the axis.  x > 0 here.
        max_step = 0.8 * x
        if max_step < min_clamp:
            max_step = min_clamp
        # nextafter(t, towards) - t has the sign of the direction.
        min_step = 10.0 * (nextafter(t, towards) - t) * sign
        if h_abs > max_step:
            h_abs = max_step
        elif h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            if h_abs < min_step:
                run.termination = Termination.STEP_FAILURE
                return run
            t_new = t + h_abs * sign
            if sign * (t_new - s_bound) > 0.0:
                t_new = s_bound
            h = t_new - t
            h_abs = h * sign

            # Stages 2-6; x <= 0 means a stage strayed past the axis, and the
            # NaN it poisons the step with makes the controller retry smaller.
            xs = x + h * (A21 * k1x)
            ts = th + h * (A21 * k1t)
            if xs > 0.0:
                k2x, k2z = cos(ts), sin(ts)
                k2t = a * k2z / xs + b
            else:
                k2x = k2z = k2t = nan
            xs = x + h * (A31 * k1x + A32 * k2x)
            ts = th + h * (A31 * k1t + A32 * k2t)
            if xs > 0.0:
                k3x, k3z = cos(ts), sin(ts)
                k3t = a * k3z / xs + b
            else:
                k3x = k3z = k3t = nan
            xs = x + h * (A41 * k1x + A42 * k2x + A43 * k3x)
            ts = th + h * (A41 * k1t + A42 * k2t + A43 * k3t)
            if xs > 0.0:
                k4x, k4z = cos(ts), sin(ts)
                k4t = a * k4z / xs + b
            else:
                k4x = k4z = k4t = nan
            xs = x + h * (A51 * k1x + A52 * k2x + A53 * k3x + A54 * k4x)
            ts = th + h * (A51 * k1t + A52 * k2t + A53 * k3t + A54 * k4t)
            if xs > 0.0:
                k5x, k5z = cos(ts), sin(ts)
                k5t = a * k5z / xs + b
            else:
                k5x = k5z = k5t = nan
            xs = x + h * (A61 * k1x + A62 * k2x + A63 * k3x + A64 * k4x + A65 * k5x)
            ts = th + h * (A61 * k1t + A62 * k2t + A63 * k3t + A64 * k4t + A65 * k5t)
            if xs > 0.0:
                k6x, k6z = cos(ts), sin(ts)
                k6t = a * k6z / xs + b
            else:
                k6x = k6z = k6t = nan
            xn = x + h * (B1 * k1x + B3 * k3x + B4 * k4x + B5 * k5x + B6 * k6x)
            zn = z + h * (B1 * k1z + B3 * k3z + B4 * k4z + B5 * k5z + B6 * k6z)
            tn = th + h * (B1 * k1t + B3 * k3t + B4 * k4t + B5 * k5t + B6 * k6t)
            if xn > 0.0:
                k7x, k7z = cos(tn), sin(tn)
                k7t = a * k7z / xn + b
            else:
                k7x = k7z = k7t = nan

            # Error weights atol + max(|y|, |y_new|) rtol.  x > 0, and an xn
            # that is <= 0 or NaN makes k7 NaN, which rejects the step
            # whatever the x weight.  NaN compares false, as in max.
            wx = xn if xn > x else x
            wz = z if z >= 0.0 else -z
            wzn = zn if zn >= 0.0 else -zn
            if wzn > wz:
                wz = wzn
            wt = th if th >= 0.0 else -th
            wtn = tn if tn >= 0.0 else -tn
            if wtn > wt:
                wt = wtn
            ex = (h * (E1 * k1x + E3 * k3x + E4 * k4x + E5 * k5x + E6 * k6x + E7 * k7x)
                  / (atol + wx * rtol))
            ez = (h * (E1 * k1z + E3 * k3z + E4 * k4z + E5 * k5z + E6 * k6z + E7 * k7z)
                  / (atol + wz * rtol))
            et = (h * (E1 * k1t + E3 * k3t + E4 * k4t + E5 * k5t + E6 * k6t + E7 * k7t)
                  / (atol + wt * rtol))
            error_norm = sqrt(ex * ex + ez * ez + et * et) / sqrt3
            if error_norm < 1.0:
                if error_norm == 0.0:
                    factor = max_factor
                else:
                    factor = safety * error_norm ** error_exponent
                    if factor > max_factor:
                        factor = max_factor
                if rejected and factor > 1.0:
                    factor = 1.0
                h_abs *= factor
                break
            # A NaN norm shrinks the step by min_factor.
            factor = safety * error_norm ** error_exponent
            if not factor > min_factor:
                factor = min_factor
            h_abs *= factor
            rejected = True
        nsteps += 1
        step = (t_new, xn, zn, tn, k1x, k1z, k1t, k3x, k3z, k3t, k4x, k4z, k4t,
                k5x, k5z, k5t, k6x, k6z, k6t, k7x, k7z, k7t)
        steps_append(step)

        # --- event scan on this step --------------------------------
        # The event functions' sign changes between the step's ends, with
        # k1x = cos(th) and k7x = cos(tn): an accepted step has xn > 0.
        ct = sin(0.5 * (tn - theta0))
        crossed = (xn <= axis_epsilon < x, x < x_blowup <= xn, k1x * k7x < 0.0, pt * ct < 0.0)
        if True in crossed:
            crossings_append((nsteps - 1, crossed))
            if crossed[0] or crossed[1]:
                run.termination = Termination.AXIS_REACHED if crossed[0] else Termination.BLOWUP
                return run

        pt = ct
        t, x, z, th = t_new, xn, zn, tn
        k1x, k1z, k1t = k7x, k7z, k7t
        if sign * (t - s_bound) >= 0.0:
            run.termination = Termination.MAX_ARCLENGTH
            return run


def _arrays(run: _DirectionRun, ic: InitialConditions,
            direction: int) -> tuple[np.ndarray, _Dense, list[EventRecord]]:
    """The run's samples from its start on (rows of s, x, z, theta), its step
    interpolants in step order, and its events.  np.fromiter with the count
    given takes a third of the time np.array takes to find the rows' shape."""
    n = len(run.steps)
    rows = np.fromiter(chain.from_iterable(run.steps), float, 22 * n).reshape(n, 22)
    samples = np.vstack(((0.0, ic.x0, 0.0, ic.theta0), rows[:, :4]))
    dense = _pack(samples[:-1, 0], rows[:, 0], samples[:-1, 1:], rows[:, 4:].reshape(n, 6, 3))

    # The event function of each kind, the state component it reads (x or
    # theta), refined on that component of the step's packed row, and whether
    # it ends the run.  The axis counts falling through zero, the blowup
    # rising, the others either way, and the step loop tests these signs.  A
    # strict sign change is the whole test: cos of a double is never 0.0, and
    # sin(0.5 * (theta - theta0)) is 0.0 only at theta = theta0, a k = 0 full
    # turn, which is a re-crossing and not an event.
    theta0, tol = ic.theta0, EVENT_REFINE_TOL
    event_functions = (
        (EventKind.AXIS_APPROACH, 0, lambda x: x - AXIS_EPSILON, True),
        (EventKind.BLOWUP, 0, lambda x: x - X_BLOWUP, True),
        (EventKind.VERTICAL_TANGENT, 2, math.cos, False),
        (EventKind.FULL_TURN, 2, lambda th: math.sin(0.5 * (th - theta0)), False),
    )
    events, seen_turns, cut_s = [], set(), None
    for i, crossed in run.crossings:
        t, t_new, h = float(dense.s0[i]), float(rows[i, 0]), float(dense.h[i])
        at = [partial(_horner, t, h, y, c) for y, c in zip(dense.y0[i].tolist(),
                                                            dense.c[i].tolist())]
        candidates = sorted(
            ((brentq(lambda s, g=g, y=at[j]: g(y(s)), min(t, t_new), max(t, t_new), xtol=tol),
              kind, cuts)
             for (kind, j, g, cuts), hit in zip(event_functions, crossed) if hit),
            key=lambda c: direction * c[0])
        for s_star, kind, cuts in candidates:
            # Events that coincide with a cut to within the refinement
            # tolerance are recorded whichever of them rounded first.
            if cut_s is not None and abs(s_star - cut_s) > tol:
                break
            st = ProfileState(s_star, *(y(s_star) for y in at))
            if kind is EventKind.FULL_TURN:
                k = round((st.theta - theta0) / math.tau)
                if k == 0 or k in seen_turns:
                    continue
                seen_turns.add(k)
            events.append(EventRecord(kind, s_star, st))
            if cut_s is None and cuts:
                cut_s = s_star
    if cut_s is not None:
        # The cut step is the last, and its row stays, for its interpolant;
        # the samples end on the refined cut state, or on the step's start
        # when the cut falls there.
        end = [(cut_s, *(y(cut_s) for y in at))] if (cut_s - t) * direction > 0.0 else []
        samples = np.vstack([samples[:-1], *end])
    return samples, dense, events


def _equilibrium_trajectory(params: Params, ic: InitialConditions,
                            controls: IntegrationControls) -> Trajectory:
    span = controls.max_arclength
    s = np.linspace(-span, span, 513)
    x = np.full_like(s, ic.x0)
    theta = np.full_like(s, ic.theta0)
    dz = math.sin(ic.theta0)
    z = dz * s
    # One constant segment based at s = 0 with unit "step": x and theta
    # frozen, z = sin(theta0) s.
    c = np.zeros((1, 3, 4))
    c[0, 1, 0] = dz
    dense = _Dense(np.array([-span]), np.zeros(1), np.ones(1),
                   np.array([[ic.x0, 0.0, ic.theta0]]), c)
    ev = EventRecord(EventKind.EQUILIBRIUM_HOLD, 0.0, ProfileState(0.0, ic.x0, 0.0, ic.theta0))
    return Trajectory(params, ic, s, x, z, theta, [ev],
                      Termination.EQUILIBRIUM_DETECTED, Termination.EQUILIBRIUM_DETECTED, dense)


def integrate(params: Params, ic: InitialConditions,
              controls: IntegrationControls = IntegrationControls()) -> Trajectory:
    """Integrate the profile ODE from (x0, 0, theta0).

    Every run is two-sided: forward on s in [0, max_arclength] and backward
    on [-max_arclength, 0], merged into a single trajectory with s
    increasing.  Sign-change events (axis approach, vertical tangents,
    full turns, blowup) are refined by root bracketing on the step's dense
    output to EVENT_REFINE_TOL; the axis approach and the blowup end a
    direction's run.  Rest-point initial data (model.is_equilibrium)
    short-circuits to an exact vertical-line trajectory; that is the only
    run that records an EquilibriumHold event and ends EquilibriumDetected.
    """
    if not (ic.x0 > AXIS_EPSILON):
        raise NonPositiveRadius(f"x0 must exceed AXIS_EPSILON={AXIS_EPSILON}, got {ic.x0}")
    if is_equilibrium(params, ic):
        return _equilibrium_trajectory(params, ic, controls)

    fwd = _run_direction(params, ic, controls, +1)
    bwd = _run_direction(params, ic, controls, -1)
    fwd_samples, fwd_dense, fwd_events = _arrays(fwd, ic, +1)
    bwd_samples, bwd_dense, bwd_events = _arrays(bwd, ic, -1)
    s, x, z, theta = np.concatenate((bwd_samples[:0:-1], fwd_samples)).T
    dense = _Dense(*(np.concatenate([b[::-1], f]) for b, f in zip(bwd_dense, fwd_dense)))
    return Trajectory(params, ic, s, x, z, theta,
                      bwd_events + fwd_events, fwd.termination, bwd.termination, dense)


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


def check_horizontal_symmetry(traj: Trajectory, s0: float) -> float:
    """Mirror residual of the profile about the horizontal line z = z(s0).

    s0 must be a vertical tangent as integrate locates one: brentq puts it
    within EVENT_REFINE_TOL + MIN_RTOL |s0| of the sign change of cos(theta)
    on the step's interpolant, which eval uses, so |cos theta(s0)| is at most
    |theta'(s0)| (EVENT_REFINE_TOL + MIN_RTOL |s0|) + MIN_RTOL max(1, |theta(s0)|),
    the last term for the rounding of theta; beyond that NotVertical.  The
    residual is max over _SYMMETRY_PROBES offsets d of |x(s0+d) - x(s0-d)| +
    |z(s0+d) + z(s0-d) - 2 z(s0)|, probing as far as the integrated span
    allows on both sides.
    """
    x0, z0, theta0 = traj.eval(s0)
    slope = abs(traj.params.a * math.sin(theta0) / x0 + traj.params.b)
    bound = slope * (EVENT_REFINE_TOL + MIN_RTOL * abs(s0)) + MIN_RTOL * max(1.0, abs(theta0))
    if abs(math.cos(theta0)) > bound:
        raise NotVertical(f"|cos theta(s0)| = {abs(math.cos(theta0)):.3e} exceeds {bound:.3e} "
                          f"at s0={s0}")
    window = min(s0 - traj.s_min, traj.s_max - s0)
    if window <= 0.0:
        return 0.0
    offsets = np.linspace(0.0, window, _SYMMETRY_PROBES + 1)[1:]
    plus = traj.eval(s0 + offsets)
    minus = traj.eval(s0 - offsets)
    residual = np.abs(plus[0] - minus[0]) + np.abs(plus[1] + minus[1] - 2.0 * z0)
    return float(residual.max())


def find_self_intersections(traj: Trajectory, window: Optional[tuple[float, float]] = None,
                            n_samples: int = 2048) -> list[IntersectionRecord]:
    """Transversal self-crossings of the profile polyline, Newton-refined.

    The curve is resampled uniformly in s; a grid over the segment
    midpoints gives the candidate pairs, an orientation test confirms each
    crossing, and each hit is polished on the dense interpolant using the
    analytic tangent (cos theta, sin theta).  A non-finite resampled point
    raises VerificationFailed.
    """
    pts = traj.resample(n_samples, window)
    s_grid = pts[:, 0]
    records: list[IntersectionRecord] = []
    ds = s_grid[1] - s_grid[0]
    for i, j in _crossing_segments(pts[:, 1:3]):
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


def _crossing_segments(P: np.ndarray) -> list[tuple[int, int]]:
    """Pairs (i, j), j >= i + 2, of crossing segments of the polyline P, sorted.

    Segments P[i]P[i+1] and P[j]P[j+1] cross when their boxes overlap and
    each one's end points lie strictly on opposite sides of the other's line.
    A segment is the diagonal of its box, so boxes that overlap have
    midpoints at most (L_i + L_j) / 2 apart, no more than the longest segment:
    only midpoints within that reach, padded by 1e-9 of the longest segment
    or coordinate against rounding, are tested (_near_pairs).
    """
    if not np.isfinite(P).all():
        raise VerificationFailed("polyline has a non-finite point")
    A, B = P[:-1], P[1:]
    lo, hi = np.minimum(A, B), np.maximum(A, B)
    longest = float(np.hypot(*(B - A).T).max(initial=0.0))
    if longest == 0.0:
        return []       # no segment has a side
    reach = longest + 1e-9 * max(longest, float(np.abs(P).max(initial=0.0)))
    i, j = _near_pairs(0.5 * (A + B), reach)
    keep = (j - i >= 2) & (lo[i] <= hi[j]).all(axis=1) & (lo[j] <= hi[i]).all(axis=1)
    order = np.lexsort((j[keep], i[keep]))
    i, j = i[keep][order], j[keep][order]
    p1, p2, p3, p4 = A[i], B[i], A[j], B[j]
    d1 = _cross2(p4 - p3, p1 - p3)
    d2 = _cross2(p4 - p3, p2 - p3)
    d3 = _cross2(p2 - p1, p3 - p1)
    d4 = _cross2(p2 - p1, p4 - p1)
    cross = (d1 * d2 < 0.0) & (d3 * d4 < 0.0)
    return list(zip(i[cross].tolist(), j[cross].tolist()))


def _near_pairs(M: np.ndarray, reach: float) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (i, j), i < j, of the points M in the same or adjacent cells
    of a square grid of side reach: every pair within reach, and some more.

    A cell (u, v) has the key u w + v, with v shifted by one and w two more
    than the rows, so the three cells (u', v - 1 .. v + 1) of a neighbouring
    column u' hold one run of the sorted keys.
    """
    cell = np.floor((M - M.min(axis=0)) / reach).astype(np.int64)
    width = int(cell[:, 1].max()) + 3
    key = cell[:, 0] * width + cell[:, 1] + 1
    order = np.argsort(key, kind="stable")
    keys = key[order]
    rows = np.arange(len(M))
    pairs_i, pairs_j = [], []
    for du in (-1, 0, 1):
        column = key + du * width
        start = np.searchsorted(keys, column - 1, "left")
        count = np.searchsorted(keys, column + 1, "right") - start
        first = np.repeat(start - np.cumsum(count) + count, count)
        j = order[first + np.arange(first.size)]
        i = np.repeat(rows, count)
        pairs_i.append(i[i < j])
        pairs_j.append(j[i < j])
    return np.concatenate(pairs_i), np.concatenate(pairs_j)


def _cross2(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0]


def _refine_crossing(traj: Trajectory, sa_lo, sa_hi, sb_lo,
                     sb_hi) -> Optional[tuple[float, float]]:
    sa = 0.5 * (sa_lo + sa_hi)
    sb = 0.5 * (sb_lo + sb_hi)
    tol = EVENT_REFINE_TOL
    for _ in range(_CROSSING_MAX_ITER):
        (xa, xb), (za, zb), (tha, thb) = traj.eval([sa, sb])
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
