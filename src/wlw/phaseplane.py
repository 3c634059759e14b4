"""Rest points, the separatrix and portraits for the tangent flow.

Multiplying the (theta, x) projection of the profile ODE by x removes the
axis pole and gives the polynomial vector field

    V(theta, x) = (a*sin(theta) + b*x,  x*cos(theta))

on [0, 2*pi] x {x >= 0}.  Its rest points organize the whole classification:
two on the axis, with eigenvalues (a, 1) at theta = 0 and (-a, -1) at
theta = pi, and (for b != 0) one interior point at x = |a/b| with
lambda^2 = a, a saddle for a > 0 and a center for a < 0.  These are closed
forms, so critical_points computes no eigenvalues.  Since V is the profile
field times x, its orbits with x > 0 are the (theta, x) projections of
profile curves, and portraits draw them off their levels of the first
integral (levelset).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import levelset
from .errors import Inconclusive, InvalidParameter, NoBracket
from .model import InitialConditions, Params
from .numerics import MIN_RTOL, brentq


# Radius samples of each branch of a portrait orbit, and the top of the
# portrait box, where the orbits end, in units of x_max.
_ORBIT_SAMPLES = 129
BOX_TOP = 1.05
# cos(phi) at the radius samples x = c - r cos(phi) of every branch.
_COS_PHI = np.cos(np.linspace(0.0, math.pi, _ORBIT_SAMPLES))
# Vector-field samples of a portrait along theta and along x.
N_THETA = 24
N_X = 13


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
    """Sampling box [0, 2 pi] x [0, x_max] of a phase portrait."""

    x_max: float

    def __post_init__(self):
        if not 0.0 < self.x_max < math.inf:
            raise InvalidParameter("portrait box must be non-empty and finite, "
                                   f"got x_max = {self.x_max!r}")


@dataclass(frozen=True)
class PhasePortrait:
    grid: np.ndarray                      # rows (theta, x, dtheta, dx)
    orbits: list = field(default_factory=list)  # (n, 2) (theta, x) arrays, see level_orbit


def autonomous_rhs(params: Params, theta, x):
    """The de-singularized field (a*sin(theta) + b*x, x*cos(theta))."""
    return params.a * np.sin(theta) + params.b * x, x * np.cos(theta)


def critical_points(params: Params) -> list[CriticalPoint]:
    """Rest points with x >= 0: the two axis points, plus x = |a/b| for b != 0.

    The eigenvalues of the linearization are exact.  At theta = 0 they are
    (a, 1): an unstable node for a > 0, improper at a = 1, and a saddle for
    a < 0.  At theta = pi they are (-a, -1): a stable node for a > 0 and a
    saddle for a < 0, improper at a = -1.  The interior point sits at
    theta = 3*pi/2 when a/b > 0 and at theta = pi/2 when a/b < 0, and
    corresponds to the vertical-line profile x = |a/b| (a circular
    cylinder).  There the Jacobian is [[0, b], [-x sin(theta), 0]], so
    lambda^2 = a: a saddle (-sqrt(a), sqrt(a)) for a > 0 and a center
    (i sqrt(-a), -i sqrt(-a)) for a < 0.
    """
    a, b = params.a, params.b
    K = SingularityKind
    origin = K.SADDLE if a < 0.0 else K.IMPROPER_NODE if a == 1.0 else K.UNSTABLE_NODE
    pole = K.STABLE_NODE if a > 0.0 else K.IMPROPER_SADDLE if a == -1.0 else K.SADDLE
    pts = [CriticalPoint(0.0, 0.0, (complex(a), complex(1.0)), origin),
           CriticalPoint(math.pi, 0.0, (complex(-a), complex(-1.0)), pole)]
    if b != 0.0:
        theta_c = 1.5 * math.pi if (a > 0.0) == (b > 0.0) else 0.5 * math.pi
        r = math.sqrt(abs(a))
        if a > 0.0:
            pts.append(CriticalPoint(theta_c, abs(a / b), (complex(-r), complex(r)), K.SADDLE))
        else:
            pts.append(CriticalPoint(theta_c, abs(a / b), (complex(0.0, r), complex(0.0, -r)),
                                     K.CENTER))
    return pts


def require_saddle(params: Params) -> None:
    """Raises InvalidParameter unless a > 0 and b > 0, where the saddle
    (3 pi/2, a/b) exists."""
    if not (params.a > 0.0 and params.b > 0.0):
        raise InvalidParameter("the separatrix requires a > 0 and b > 0")


def find_separatrix(params: Params, theta0: float,
                    bracket: Optional[tuple[float, float]] = None,
                    rel_width: float = MIN_RTOL) -> float:
    """The radius from which the orbit at angle theta0 runs into the saddle.

    Requires a > 0 and b > 0 so that the saddle (3*pi/2, a/b) exists.  Both
    of its branches lie on the level of the first integral anchored at the
    saddle, (a/b, -1), so the radius is a root of sin(theta0) - f_H(x).  It
    is sought where f_H' > 0, x >= -a*sin(theta0)/b: there the root is on
    the stable branch, with axis-reaching orbits below it and winding ones
    above.  The unstable branch's root lies on the other side.  f_H rises
    from -1 at a/b to +1 at the level's outer turning radius x_hi, so the
    root is unique there; without a bracket the search runs from a/b to one
    levelset.step_factor past x_hi, since f_H(x_hi) may round below 1.
    rel_width is brentq's relative tolerance, at least 4 eps.  Raises
    NoBracket when the difference keeps its sign on the searched part of
    the bracket.
    """
    require_saddle(params)
    a, b = params.a, params.b
    saddle, sin0 = levelset.Anchor(a / b, -1.0), math.sin(theta0)
    if bracket is None:
        x_hi = levelset.level(params, saddle).x_hi
        bracket = (saddle.x, x_hi * levelset.step_factor(params))
    lo, hi = bracket
    if not (0.0 < lo < hi):
        raise InvalidParameter(f"bad bracket {bracket}")

    def g(x):
        return sin0 - levelset.f_H(params, saddle, x)

    lo = max(lo, -a * sin0 / b)
    if lo > hi or g(lo) * g(hi) > 0.0:
        raise NoBracket(f"sin(theta0) - f_H keeps its sign on [{lo}, {hi}]")
    rtol = max(rel_width, MIN_RTOL)
    return brentq(g, lo, hi, xtol=rtol * lo, rtol=rtol)


def level_orbit(params: Params, seeds, spec: PortraitSpec) -> list:
    """(theta, x) polylines of the orbits of V through seeds = [(theta, x > 0), ..],
    seed by seed: the branches arcsin f_H and pi - arcsin f_H, + 2 pi k, of
    each seed's level on [x_lo, x_hi] of levelset.level.  They meet at a
    turning radius; where neither end is one (x_lo = 0, x_hi = inf), only
    the seed's, by the sign of cos(theta), is its orbit.  x = c - r cos(phi)
    is dense at the turning radii, where dtheta/dx = inf, with cos(phi) from
    one table.  Each run of 2 or more samples in the box
    [0, 2 pi] x (0, BOX_TOP x_max] is a polyline.  Raises Inconclusive where
    floats cannot resolve a level.

    The f_H values, np.clip and np.arcsin are per seed.  The 2 or 4 shifted
    branches of every seed are then rows of one NaN-padded array, in the
    order seed, k, branch, and the runs are cut at the edges of its in-box
    mask in one pass: the same floats as splitting each branch at the gaps
    of its in-box indices.
    """
    x_top = BOX_TOP * spec.x_max
    # arcsin f_H and x of seed i in row i, NaN-padded.
    arcsin, xs = np.full((2, len(seeds), _ORBIT_SAMPLES), np.nan)
    keep = []
    for i, seed in enumerate(seeds):
        ic = InitialConditions(float(seed[1]), float(seed[0]))
        anchor = levelset.Anchor(ic.x0, math.sin(ic.theta0))
        try:
            _, _, x_lo, x_hi, _, _ = levelset.level(params, anchor)
            c, r = 0.5 * (x_lo + min(x_hi, x_top)), 0.5 * (min(x_hi, x_top) - x_lo)
            x = c - r * _COS_PHI
            x = x[(x > 0.0) & (x <= x_top)]
            f = np.clip([levelset.f_H(params, anchor, v) for v in x.tolist()], -1, 1)
            arcsin[i, :len(x)], xs[i, :len(x)] = np.arcsin(f), x
        except ArithmeticError as e:
            raise Inconclusive(f"floats cannot resolve the level through {(ic.theta0, ic.x0)}",
                               diagnostics={"reason": str(e), "theta": ic.theta0, "x": ic.x0}
                               ) from e
        both, flip = not (x_lo == 0.0 and x_hi == math.inf), math.cos(ic.theta0) < 0.0
        keep.append((both or not flip, both or flip) * 2)
    # theta in rows (seed, k, branch): branch 1 is pi - arcsin, and k adds
    # k 2 pi, 0.0 at k = 0, which turns an arcsin of -0.0 into 0.0.  The
    # branches lie in [-pi/2, 3 pi/2], so k = 0, 1 cover the box.
    branches = np.stack((arcsin, math.pi - arcsin), axis=1)
    theta = np.concatenate((branches + 0.0, branches + math.tau), axis=1)
    rows = np.array(keep, dtype=bool).reshape(-1, 4)
    points = np.stack((theta[rows], xs[np.nonzero(rows)[0]]), axis=-1)
    # A run starts where the padded in-box mask rises and stops where it falls.
    inside = np.zeros((len(points), _ORBIT_SAMPLES + 2), dtype=np.int8)
    inside[:, 1:-1] = (points[:, :, 0] >= 0.0) & (points[:, :, 0] <= math.tau)
    edges = np.diff(inside, axis=1)
    (row, start), (_, stop) = np.nonzero(edges == 1), np.nonzero(edges == -1)
    return [points[i, j:k] for i, j, k in zip(row.tolist(), start.tolist(), stop.tolist())
            if k - j > 1]


def phase_portrait(params: Params, spec: PortraitSpec) -> PhasePortrait:
    """Vector-field samples on an N_THETA x N_X grid plus the orbits through
    twelve seed points."""
    thetas = np.linspace(0.0, math.tau, N_THETA)
    xs = np.linspace(0.0, spec.x_max, N_X)
    TH, XX = np.meshgrid(thetas, xs, indexing="ij")
    dth, dx = autonomous_rhs(params, TH, XX)
    grid = np.column_stack([TH.ravel(), XX.ravel(), dth.ravel(), dx.ravel()])
    seeds = [(t0, x) for t0 in (0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi)
             for x in np.linspace(spec.x_max / 6.0, spec.x_max * 5.0 / 6.0, 3)]
    return PhasePortrait(grid=grid, orbits=level_orbit(params, seeds, spec))
