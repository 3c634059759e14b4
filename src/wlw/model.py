"""Domain types and the profile-curve ODE for linear Weingarten surfaces.

A rotational surface whose principal curvatures satisfy kappa1 = a*kappa2 + b
is generated by revolving a planar arc-length curve (x(s), z(s)) about the
z-axis.  With theta the tangent angle, the generating curve solves

    x' = cos(theta),  z' = sin(theta),  theta' = a*sin(theta)/x + b,

where kappa1 = theta' is the profile curvature and kappa2 = sin(theta)/x the
normal curvature of the rotation orbits.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import InvalidParameter, NonPositiveRadius, NonPositiveScale
from .numerics import MIN_RTOL

# Radius below which a trajectory counts as having reached the rotation axis.
AXIS_EPSILON = 1e-8

# Rounding allowance, in eps, of every test that a state is a rest point
# (is_equilibrium) or lies on a named level of the first integral
# (levelset.on_level): the plane, the a < 0 sphere and the a > 0 saddle's
# level.  f_H's rounding gets 4 eps per unit of the terms it sums, and
# find_separatrix's roots lie within MIN_RTOL x0 = 4 eps x0 of the level's.
LEVEL_ULPS = MIN_RTOL / sys.float_info.epsilon

# Relative accuracy asked by default of a run's steps and of a level set of
# the first integral.
REL_TOL = 1e-10


@dataclass(frozen=True)
class Params:
    """Curvature-relation coefficients: kappa1 = a*kappa2 + b, a != 0.

    Each field is stored as a Python float, so that numpy scalars (a sweep's
    linspace grid) compute as floats do: numpy warns on an overflow, and its
    scalar arithmetic is slower.
    """

    a: float
    b: float

    def __post_init__(self):
        object.__setattr__(self, "a", float(self.a))
        object.__setattr__(self, "b", float(self.b))
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise InvalidParameter(f"coefficients must be finite, got a={self.a}, b={self.b}")
        if self.a == 0.0:
            raise InvalidParameter("a = 0 is excluded (kappa1 would be the constant b)")


@dataclass(frozen=True)
class ProfileState:
    """One point of the generating curve.

    theta is stored unwrapped (never reduced mod 2*pi) so that the winding of
    the tangent along a trajectory stays visible to classification.
    """

    s: float
    x: float
    z: float
    theta: float


@dataclass(frozen=True)
class InitialConditions:
    """Starting radius and tangent angle; z(0) = 0 by convention.  Each field
    is stored as a Python float, as in Params."""

    x0: float
    theta0: float

    def __post_init__(self):
        object.__setattr__(self, "x0", float(self.x0))
        object.__setattr__(self, "theta0", float(self.theta0))
        if not (self.x0 > 0.0):
            raise NonPositiveRadius(f"x0 must be > 0, got {self.x0}")
        if not math.isfinite(self.theta0):
            raise InvalidParameter(f"theta0 must be finite, got {self.theta0}")


def reflect_b(params: Params, ic: InitialConditions) -> tuple[Params, InitialConditions]:
    """Map (a, b, x0, theta0) -> (a, -b, x0, theta0 + pi).

    The reflected problem's solution is the s-reversal of the original, so
    every statement about b > 0 transfers to b < 0.  Applying the map twice
    returns the inputs with theta0 shifted by 2*pi.
    """
    return Params(params.a, -params.b), InitialConditions(ic.x0, ic.theta0 + math.pi)


def rescale(lam: float, params: Params, ic: InitialConditions) -> tuple[Params, InitialConditions]:
    """Homothety by lam > 0: (a, b/lam) with x0 scaled to lam*x0.

    The rescaled solution satisfies x̄(s) = lam*x(s/lam), z̄(s) = lam*z(s/lam).
    """
    if not (lam > 0.0):
        raise NonPositiveScale(f"scale must be > 0, got {lam}")
    return Params(params.a, params.b / lam), InitialConditions(lam * ic.x0, ic.theta0)


def is_equilibrium(params: Params, ic: InitialConditions) -> bool:
    """True when the initial condition is a rest point of the phase flow, to rounding.

    Rest points have cos(theta0) = 0 and a sin(theta0) + b x0 = 0; the
    solution is then the vertical line x = x0 (a circular cylinder).  Each
    holds to LEVEL_ULPS eps times what it rounds: theta0, whose own rounding
    moves cos(theta0) by up to eps |theta0|, and the terms |a| and |b| x0,
    which must be finite.  Neither bound has a scale, so rescale keeps the
    answer.
    """
    a, b, x0, theta0 = params.a, params.b, ic.x0, ic.theta0
    ulp = LEVEL_ULPS * sys.float_info.epsilon
    return (abs(math.cos(theta0)) <= ulp * max(1.0, abs(theta0))
            and abs(a * math.sin(theta0) + b * x0) <= ulp * (abs(a) + abs(b) * x0) < math.inf)


def canonicalize(params: Params, ic: InitialConditions) -> tuple[Params, InitialConditions, bool]:
    """Reduce to b >= 0 via reflect_b; returns (params, ic, was_reflected)."""
    if params.b < 0.0:
        p2, ic2 = reflect_b(params, ic)
        return p2, ic2, True
    return params, ic, False
