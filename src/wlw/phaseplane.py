"""Equilibria, linearization, the separatrix and portraits for the tangent flow.

Multiplying the (theta, x) projection of the profile ODE by x removes the
axis pole and gives the polynomial vector field

    V(theta, x) = (a*sin(theta) + b*x,  x*cos(theta))

on [0, 2*pi] x {x >= 0}.  Its rest points organize the whole classification:
two on the axis, and (for b != 0) one interior point at x = |a|/b that is a
saddle for a > 0 and a center for a < 0.  Since V is the profile field times
x, its orbits with x > 0 are the (theta, x) projections of profile curves, and
portraits draw them off their levels of the first integral (levelset).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from . import levelset
from .errors import DegenerateEigenvalue, Inconclusive, InvalidParameter, NoBracket
from .model import InitialConditions, Params
from .numerics import MIN_RTOL, brentq


# Radius samples of each branch of a portrait orbit, and the top of the
# portrait box, where the orbits end, in units of x_max.
_ORBIT_SAMPLES = 129
BOX_TOP = 1.05


class SingularityKind(str, enum.Enum):
    UNSTABLE_NODE = "UnstableNode"
    IMPROPER_NODE = "ImproperNode"
    STABLE_NODE = "StableNode"
    SADDLE = "Saddle"
    IMPROPER_SADDLE = "ImproperSaddle"
    CENTER = "Center"


@dataclass(frozen=True)
class CriticalPoint:
    theta: float
    x: float
    eigenvalues: tuple[complex, complex]
    kind: SingularityKind


@dataclass(frozen=True)
class PortraitSpec:
    """Sampling box and resolution for a phase portrait."""

    x_max: float
    theta_min: float = 0.0
    theta_max: float = math.tau
    n_theta: int = 24
    n_x: int = 13

    def __post_init__(self):
        if not (self.x_max > 0.0 and self.theta_max > self.theta_min):
            raise InvalidParameter("portrait box must be non-empty with x_max > 0")
        if self.n_theta < 2 or self.n_x < 2:
            raise InvalidParameter("portrait grid needs at least 2 samples per axis")


@dataclass(frozen=True)
class PhasePortrait:
    grid: np.ndarray                      # rows (theta, x, dtheta, dx)
    orbits: list = field(default_factory=list)  # (n, 2) (theta, x) arrays, see level_orbit


def autonomous_rhs(params: Params, theta, x):
    """The de-singularized field (a*sin(theta) + b*x, x*cos(theta))."""
    return params.a * np.sin(theta) + params.b * x, x * np.cos(theta)


def linearize(params: Params, point: tuple[float, float]) -> np.ndarray:
    """Jacobian [[a*cos(theta), b], [-x*sin(theta), cos(theta)]] at a point."""
    theta, x = point
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[params.a * c, params.b], [-x * s, c]])


def classify_singularity(eigenvalues: tuple[complex, complex]) -> SingularityKind:
    """Map a linearization eigenvalue pair to its rest-point type.

    Raises DegenerateEigenvalue when an eigenvalue vanishes, and rejects
    genuinely complex pairs with nonzero real part (they do not occur for
    this field).
    """
    l1, l2 = complex(eigenvalues[0]), complex(eigenvalues[1])
    scale = max(abs(l1), abs(l2))
    if scale == 0.0 or min(abs(l1), abs(l2)) < 1e-14 * scale:
        raise DegenerateEigenvalue(f"zero eigenvalue in {eigenvalues}")
    tol = 1e-9 * scale
    real = abs(l1.imag) < tol and abs(l2.imag) < tol
    imag = abs(l1.real) < tol and abs(l2.real) < tol
    if real:
        r1, r2 = l1.real, l2.real
        if r1 > 0.0 and r2 > 0.0:
            return SingularityKind.IMPROPER_NODE if abs(r1 - r2) < tol else SingularityKind.UNSTABLE_NODE
        if r1 < 0.0 and r2 < 0.0:
            return SingularityKind.STABLE_NODE
        return SingularityKind.SADDLE
    if imag:
        return SingularityKind.CENTER
    raise InvalidParameter(f"eigenvalue pair {eigenvalues} is not produced by this field")


def critical_points(params: Params) -> list[CriticalPoint]:
    """Rest points with x >= 0: the two axis points, plus x = |a|/b for b != 0.

    The interior point sits at theta = 3*pi/2 when a/b > 0 and at
    theta = pi/2 when a/b < 0; it corresponds to the vertical-line profile
    x = |a|/b (a circular cylinder).
    """
    a, b = params.a, params.b
    pts = []
    for theta in (0.0, math.pi):
        J = linearize(params, (theta, 0.0))
        eigs = tuple(np.linalg.eigvals(J))
        kind = classify_singularity(eigs)
        if theta > 0.0 and a == -1.0:
            kind = SingularityKind.IMPROPER_SADDLE
        pts.append(CriticalPoint(theta, 0.0, eigs, kind))
    if b != 0.0:
        if a / b > 0.0:
            theta_c, x_c = 1.5 * math.pi, a / b
        else:
            theta_c, x_c = 0.5 * math.pi, -a / b
        J = linearize(params, (theta_c, x_c))
        eigs = tuple(np.linalg.eigvals(J))
        pts.append(CriticalPoint(theta_c, x_c, eigs, classify_singularity(eigs)))
    return pts


def find_separatrix(params: Params, theta0: float, bracket: tuple[float, float],
                    rel_width: float = MIN_RTOL) -> float:
    """The radius in bracket from which the orbit at angle theta0 runs into the saddle.

    Requires a > 0 and b > 0 so that the saddle (3*pi/2, a/b) exists.  Both
    of its branches lie on the level of the first integral anchored at the
    saddle, (a/b, -1), so the radius is a root of sin(theta0) - f_H(x).  It
    is sought where f_H' > 0, x >= -a*sin(theta0)/b: there the root is on
    the stable branch, with axis-reaching orbits below it and winding ones
    above.  The unstable branch's root lies on the other side.  rel_width is
    brentq's relative tolerance, at least 4 eps.  Raises NoBracket when the
    difference keeps its sign on the searched part of the bracket.
    """
    a, b = params.a, params.b
    if not (a > 0.0 and b > 0.0):
        raise InvalidParameter("the separatrix requires a > 0 and b > 0")
    lo, hi = bracket
    if not (0.0 < lo < hi):
        raise InvalidParameter(f"bad bracket {bracket}")
    saddle, sin0 = levelset.Anchor(a / b, -1.0), math.sin(theta0)

    def g(x):
        return sin0 - levelset.f_H(params, saddle, x)

    lo = max(lo, -a * sin0 / b)
    if lo > hi or g(lo) * g(hi) > 0.0:
        raise NoBracket(f"sin(theta0) - f_H keeps its sign on [{lo}, {hi}]")
    rtol = max(rel_width, MIN_RTOL)
    return brentq(g, lo, hi, xtol=rtol * lo, rtol=rtol)


def level_orbit(params: Params, seed: tuple[float, float], spec: PortraitSpec) -> list:
    """(theta, x) polylines of the orbit of V through seed = (theta, x > 0): the
    branches arcsin f_H and pi - arcsin f_H, + 2 pi k, of its level on
    [x_lo, x_hi] = levelset.turning_radii.  They meet at a turning radius;
    where neither end is one (x_lo = 0, x_hi = inf), only the seed's, by the
    sign of cos(theta), is its orbit.  x = c - r cos(phi) is dense at the
    turning radii, where dtheta/dx = inf.  Each run of 2 or more samples in
    the box [theta_min, theta_max] x (0, BOX_TOP x_max] is a polyline.  Raises
    Inconclusive where floats cannot resolve the level.
    """
    ic = InitialConditions(float(seed[1]), float(seed[0]))
    anchor, x_top = levelset.Anchor(ic.x0, math.sin(ic.theta0)), BOX_TOP * spec.x_max
    try:
        x_lo, x_hi = levelset.turning_radii(params, anchor)
        c, r = 0.5 * (x_lo + min(x_hi, x_top)), 0.5 * (min(x_hi, x_top) - x_lo)
        xs = c - r * np.cos(np.linspace(0.0, math.pi, _ORBIT_SAMPLES))
        xs = xs[(xs > 0.0) & (xs <= x_top)]
        arcsin = np.arcsin(np.clip([levelset.f_H(params, anchor, x) for x in xs.tolist()], -1, 1))
    except ArithmeticError as e:
        raise Inconclusive(f"floats cannot resolve the level through {(ic.theta0, ic.x0)}",
                           diagnostics={"reason": str(e), "theta": ic.theta0, "x": ic.x0}) from e
    branches = [arcsin, math.pi - arcsin]
    if x_lo == 0.0 and x_hi == math.inf:
        branches = [branches[math.cos(ic.theta0) < 0.0]]
    lines = []
    for k in range(math.floor(spec.theta_min / math.tau), math.ceil(spec.theta_max / math.tau) + 1):
        for theta in (branch + k * math.tau for branch in branches):
            inside = np.flatnonzero((theta >= spec.theta_min) & (theta <= spec.theta_max))
            lines += [np.column_stack([theta[run], xs[run]]) for run in
                      np.split(inside, np.flatnonzero(np.diff(inside) > 1) + 1) if run.size > 1]
    return lines


def phase_portrait(params: Params, spec: PortraitSpec) -> PhasePortrait:
    """Vector-field samples on a grid plus the orbits through twelve seed points."""
    thetas = np.linspace(spec.theta_min, spec.theta_max, spec.n_theta)
    xs = np.linspace(0.0, spec.x_max, spec.n_x)
    TH, XX = np.meshgrid(thetas, xs, indexing="ij")
    dth, dx = autonomous_rhs(params, TH, XX)
    grid = np.column_stack([TH.ravel(), XX.ravel(), dth.ravel(), dx.ravel()])
    seeds = [(t0, x) for t0 in (0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi)
             for x in np.linspace(spec.x_max / 6.0, spec.x_max * 5.0 / 6.0, 3)]
    orbits = [line for seed in seeds for line in level_orbit(params, seed, spec)]
    return PhasePortrait(grid=grid, orbits=orbits)
