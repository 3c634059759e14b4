"""Curvature-energy functionals whose extremals are the generating curves.

A profile curve with kappa1 = a*kappa2 + b extremizes integral f(theta') ds
for the energy density

    f(theta') = (theta' - mu)^p      with mu = -b/(a-1), p = a/(a-1)   (a != 1)
    f(theta') = exp(nu * theta')     with nu = 1/b                     (a = 1, b != 0)

under arbitrary boundary conditions.  Every quantity here is an expression in
f and its derivatives, taken from one density function, and both halves of
that statement are identities in the state (x, theta), so this module
evaluates states and theta'(s) profiles, never runs:

- Euler-Lagrange.  (f')'' + theta'^2 f' - theta' f = 0, with theta', theta''
  and theta''' taken from the ODE, so (f')'' = f''' theta''^2 + f'' theta'''.
  el_residual_power and el_residual_exp vanish at every state, on an orbit or
  not: they measure rounding.  The test suite checks this over random
  states; no command evaluates it.
- Critical curves are the first integral.  Along an orbit

      x = d f'(theta')    and    z' = d (theta' f' - f) = sin theta

  for one number d, the scale critical_scale returns.  On the level through
  (x_r, sin theta_r = s_r), sin theta = C x^a + b x/(1-a) with
  C = (s_r - b x_r/(1-a)) x_r^-a, so theta' - mu = a C x^(a-1): it keeps one
  sign along an orbit, and as (a-1)(p-1) = 1, d = 1/(p (aC)^(p-1)).  At
  a = 1, sin theta = x (b ln x + K) and d = b x_r exp(-1 - s_r/(b x_r)).  d
  has the sign of f' on the orbit, so it is negative on many levels, for
  instance wherever p < 0 and a C > 0.
- Closure.  closure_integral is integral (theta' f' - f) ds over one period,
  so d times it is the period's rise z_shift: a periodic critical curve
  closes only where that rise is 0.

Powers of a negative base arise where theta' < mu, as on the a < 0 family;
they are taken in the real continuation (-1)^floor(q) * |u|^q, which is exact
for integer q and keeps u^q = u * u^(q-1) and d/du u^q = q * u^(q-1) for
every q, the identities f's derivatives are taken with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .errors import (
    DivergentIntegrand,
    InvalidParameter,
    NearSingular,
    QuadratureFailure,
    Unsupported,
)
from .model import Params
from .numerics import cumulative_quad

# States with |theta' - mu| at or below this are outside the power-energy
# domain: the residual and the critical-curve scale are nan there.
NEAR_SINGULAR_TOL = 1e-6


@dataclass(frozen=True)
class PowerEnergyParams:
    """Exponent and curvature shift of the power energy; p not in {0, 1}."""

    p: float
    mu: float

    def __post_init__(self):
        if self.p == 0.0 or self.p == 1.0:
            raise InvalidParameter(
                "p = 0 (length) and p = 1 (total curvature) are excluded")
        if not (math.isfinite(self.p) and math.isfinite(self.mu)):
            raise InvalidParameter("p and mu must be finite")


@dataclass(frozen=True)
class ExpEnergyParams:
    """Rate of the exponential curvature energy; nu != 0."""

    nu: float

    def __post_init__(self):
        if self.nu == 0.0 or not math.isfinite(self.nu):
            raise InvalidParameter("nu must be finite and nonzero")


EnergyParams = Union[PowerEnergyParams, ExpEnergyParams]


def exponent_map(params: Params) -> EnergyParams:
    """Energy parameters matched to the curvature relation (a, b)."""
    if params.a == 1.0:
        if params.b == 0.0:
            raise Unsupported("a = 1, b = 0 is the umbilical case; no energy is attached")
        return ExpEnergyParams(nu=1.0 / params.b)
    return PowerEnergyParams(p=params.a / (params.a - 1.0), mu=-params.b / (params.a - 1.0))


def inverse_exponent_map(ep: EnergyParams) -> Params:
    """Curvature relation recovered from energy parameters; inverts exponent_map."""
    if isinstance(ep, ExpEnergyParams):
        return Params(a=1.0, b=1.0 / ep.nu)
    return Params(a=ep.p / (ep.p - 1.0), b=-ep.mu / (ep.p - 1.0))


def real_power(u, q: float):
    """u**q extended to negative bases by (-1)**floor(q) * |u|**q.

    This is u**q for integer q, and for every q it satisfies
    d/du u**q = q * u**(q-1) and u**q = u * u**(q-1) on both signs of u.
    """
    u = np.asarray(u, dtype=float)
    if abs(q - round(q)) < 1e-12:
        return np.power(u, round(q))
    sign = -1.0 if math.floor(q) % 2 else 1.0
    return np.where(u >= 0.0, 1.0, sign) * np.power(np.abs(u), q)


def theta_derivatives(params: Params, x, theta) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(theta', theta'', theta''') at the states (x, theta), by differentiating the ODE.

    theta'  = a*sin(theta)/x + b
    theta'' = a*cos(theta)*(theta'*x - sin(theta)) / x^2
    theta''' follows by one more chain-rule pass; no sampled differences enter.
    """
    a = params.a
    x, theta = np.asarray(x, dtype=float), np.asarray(theta, dtype=float)
    sin_t, cos_t = np.sin(theta), np.cos(theta)
    tp = a * sin_t / x + params.b
    tpp = a * cos_t * (tp * x - sin_t) / x**2
    tppp = (a * (-tp * sin_t * (tp * x - sin_t) + x * tpp * cos_t) / x**2
            - 2.0 * tpp * cos_t / x)
    return tp, tpp, tppp


def _density(ep: EnergyParams, tp, *orders: int) -> tuple:
    """The derivatives f^(k)(theta') of the energy density for each k in orders,
    f^(0) = f itself.

    The k-th derivative of (theta' - mu)^p is p (p-1) .. (p-k+1) (theta' - mu)^(p-k),
    and that of exp(nu theta') is nu^k exp(nu theta').  Only the orders asked
    for are computed: the power form's higher ones divide by 0 at theta' = mu.
    """
    if isinstance(ep, ExpEnergyParams):
        e = np.exp(ep.nu * tp)
        return tuple(ep.nu ** k * e for k in orders)
    u = tp - ep.mu
    return tuple(math.prod(ep.p - j for j in range(k)) * real_power(u, ep.p - k)
                 for k in orders)


def _near_singular(ep: EnergyParams, tp) -> np.ndarray:
    """Where |theta' - mu| <= NEAR_SINGULAR_TOL, outside the power energy's
    domain; the exponential energy has no such states."""
    if isinstance(ep, ExpEnergyParams):
        return np.zeros(np.shape(tp), dtype=bool)
    return np.abs(tp - ep.mu) <= NEAR_SINGULAR_TOL


def _el_residual(params: Params, x, theta, ep: EnergyParams) -> np.ndarray:
    """Residual of the Euler-Lagrange equation (f')'' + theta'^2 f' - theta' f = 0
    at the states (x, theta).

    Evaluates its three terms f''' theta''^2 + f'' theta''', theta'^2 f' and
    -theta' f, and returns their sum normalized by the largest of them, at
    each state on its own; 0 where all three vanish, as at the rest point
    x = 1, theta = 3 pi/2 of (a, b) = (1, 1), where theta' = 0.  nan where
    |theta' - mu| <= NEAR_SINGULAR_TOL, and NearSingular when that excludes
    every state, as on the sphere, where theta' = mu.
    """
    tp, tpp, tppp = theta_derivatives(params, x, theta)
    excluded = _near_singular(ep, tp)
    if excluded.size and excluded.all():
        raise NearSingular("theta' - mu is near zero at every state")
    f, f1, f2, f3 = _density(ep, tp, 0, 1, 2, 3)
    terms = (f3 * tpp**2 + f2 * tppp, tp**2 * f1, -tp * f)
    total = sum(terms)
    scale = np.maximum.reduce([np.abs(t) for t in terms])
    residual = np.divide(total, scale, out=np.zeros_like(total), where=scale > 1e-30)
    return np.where(excluded, np.nan, residual)


def el_residual_power(params: Params, x, theta, ep: PowerEnergyParams) -> np.ndarray:
    """The Euler-Lagrange residual of the power energy (see _el_residual)."""
    return _el_residual(params, x, theta, ep)


def el_residual_exp(params: Params, x, theta, ep: ExpEnergyParams) -> np.ndarray:
    """The Euler-Lagrange residual of the exponential energy (see _el_residual)."""
    return _el_residual(params, x, theta, ep)


def critical_scale(params: Params, x, theta, ep: EnergyParams) -> np.ndarray:
    """Scale d = x / f'(theta') of the critical-curve parametrization through
    each state (x, theta).

    It is one number along an orbit (module docstring) and may be negative;
    nan where |theta' - mu| <= NEAR_SINGULAR_TOL.
    """
    tp = theta_derivatives(params, x, theta)[0]
    with np.errstate(divide="ignore"):
        return np.where(_near_singular(ep, tp), np.nan, x / _density(ep, tp, 1)[0])


def _profile_integral(g: Callable, theta_prime: Callable, lo: float, hi: float,
                      name: str) -> float:
    """integral_lo^hi g(theta'(s)) ds by adaptive quadrature, once g is finite
    at 33 points of the span."""
    if not lo <= hi:
        raise InvalidParameter(f"the {name} needs a span [lo, hi] with lo <= hi, "
                               f"got [{lo}, {hi}]")

    def integrand(s):
        return float(g(float(theta_prime(s))))

    probe = [integrand(float(s)) for s in np.linspace(lo, hi, 33)]
    if not all(map(math.isfinite, probe)):
        raise DivergentIntegrand(f"the {name}'s integrand is not finite on [{lo}, {hi}]")
    try:
        return cumulative_quad(integrand, lo, (hi,), epsabs=1e-10, epsrel=1e-10, limit=400)[0]
    except QuadratureFailure as exc:
        raise DivergentIntegrand(f"the {name} did not converge on [{lo}, {hi}]") from exc


def functional_value(theta_prime: Callable, ep: EnergyParams,
                     span: tuple[float, float]) -> float:
    """Energy, integral f(theta') ds, of the arc s in span of a theta'(s) profile."""
    def energy(tp):
        return _density(ep, tp, 0)[0]

    return _profile_integral(energy, theta_prime, *span, "energy integral")


def closure_integral(theta_prime: Callable, ep: EnergyParams, period: float) -> float:
    """Obstruction integral for closing a critical curve over one period.

    Evaluates integral_0^T (theta' f' - f) ds of a theta'(s) profile of
    period T.  As z' = d (theta' f' - f), d times it is the period's rise.
    """
    def rise(tp):
        f, f1 = _density(ep, tp, 0, 1)
        return tp * f1 - f

    return _profile_integral(rise, theta_prime, 0.0, float(period), "closure integral")
