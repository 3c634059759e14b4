"""Curvature-energy functionals whose extremals are the generating curves.

A profile curve with kappa1 = a*kappa2 + b extremizes

    integral (theta' - mu)^p ds      with mu = -b/(a-1), p = a/(a-1)   (a != 1)
    integral exp(nu * theta') ds     with nu = 1/b                     (a = 1, b != 0)

under arbitrary boundary conditions.  Both halves of that statement are
identities in the state (x, theta), so this module evaluates states and
theta'(s) profiles, never runs:

- Euler-Lagrange.  With theta', theta'' and theta''' taken from the ODE,
  el_residual_power and el_residual_exp vanish at every state, on an orbit
  or not: they measure rounding.  The test suite checks this over random
  states; no command evaluates it.
- Critical curves are the first integral.  On the level through
  (x_r, sin theta_r = s_r), sin theta = C x^a + b x/(1-a) with
  C = (s_r - b x_r/(1-a)) x_r^-a, so theta' - mu = a C x^(a-1): it keeps one
  sign along an orbit, and as (a-1)(p-1) = 1 the scale d of the
  parametrization x = d p (theta'-mu)^(p-1) is d = 1/(p (aC)^(p-1)), one
  number on the orbit.  At a = 1, sin theta = x (b ln x + K) and
  x = d nu exp(nu theta') gives d = b x_r exp(-1 - s_r/(b x_r)).  In both
  forms z' = d (theta'-mu)^(p-1) ((p-1) theta' + mu), or
  d (nu theta' - 1) exp(nu theta'), is sin theta at every state.
  critical_scale returns d.  Its sign is that of p (aC)^(p-1), so it is
  negative on many levels, for instance wherever p < 0 and a C > 0.

The obstruction integral that rules out closed extremals for mu = 0 is
closure_integral.

Powers of a negative base arise where theta' < mu, as on the a < 0 family;
they are taken in the real continuation (-1)^floor(q) * |u|^q, which is exact
for integer q and keeps u^q = u * u^(q-1) and d/du u^q = q * u^(q-1) for
every q, the identities the Euler-Lagrange terms are derived with.
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
from .numerics import quad

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


def _relative_residual(terms: tuple[np.ndarray, ...]) -> np.ndarray:
    total = sum(terms)
    scale = np.maximum.reduce([np.abs(t) for t in terms])
    return np.divide(total, scale, out=np.zeros_like(total), where=scale > 1e-30)


def el_residual_power(params: Params, x, theta, ep: PowerEnergyParams) -> np.ndarray:
    """Residual of the power-energy Euler-Lagrange equation at the states (x, theta).

    Evaluates d^2/ds^2[(theta'-mu)^(p-1)] + theta'^2 (theta'-mu)^(p-1)
    - (theta'/p)(theta'-mu)^p, normalized by the largest of the three
    terms; nan where |theta' - mu| <= NEAR_SINGULAR_TOL.  Raises
    NearSingular when that excludes every state, as on the sphere, where
    theta' = mu.
    """
    tp, tpp, tppp = theta_derivatives(params, x, theta)
    u = tp - ep.mu
    excluded = np.abs(u) <= NEAR_SINGULAR_TOL
    if excluded.all():
        raise NearSingular("theta' - mu is near zero at every state")
    p = ep.p
    second = (p - 1.0) * ((p - 2.0) * real_power(u, p - 3.0) * tpp**2
                          + real_power(u, p - 2.0) * tppp)
    curv = tp**2 * real_power(u, p - 1.0)
    drive = -(tp / p) * real_power(u, p)
    return np.where(excluded, np.nan, _relative_residual((second, curv, drive)))


def el_residual_exp(params: Params, x, theta, ep: ExpEnergyParams) -> np.ndarray:
    """Residual of the exponential-energy Euler-Lagrange equation at the states (x, theta).

    Evaluates d^2/ds^2[exp(nu theta')] + theta'^2 exp(nu theta')
    - (theta'/nu) exp(nu theta'), normalized by the largest of the three
    terms, at each state on its own.  It is 0 where all three vanish, as at
    the rest point x = 1, theta = 3 pi/2 of (a, b) = (1, 1), where
    theta' = 0.
    """
    tp, tpp, tppp = theta_derivatives(params, x, theta)
    nu = ep.nu
    e = np.exp(nu * tp)
    second = nu * e * (nu * tpp**2 + tppp)
    curv = tp**2 * e
    drive = -(tp / nu) * e
    return _relative_residual((second, curv, drive))


def critical_scale(params: Params, x, theta, ep: EnergyParams) -> np.ndarray:
    """Scale d of the critical-curve parametrization through each state (x, theta).

    d solves x = d p (theta'-mu)^(p-1), or x = d nu exp(nu theta') at a = 1,
    so it is one number along an orbit (module docstring) and may be
    negative; nan where |theta' - mu| <= NEAR_SINGULAR_TOL.
    """
    tp = theta_derivatives(params, x, theta)[0]
    if isinstance(ep, ExpEnergyParams):
        return x / (ep.nu * np.exp(ep.nu * tp))
    u = tp - ep.mu
    with np.errstate(divide="ignore"):
        return np.where(np.abs(u) > NEAR_SINGULAR_TOL, x / (ep.p * real_power(u, ep.p - 1.0)),
                        np.nan)


def functional_value(theta_prime: Callable, ep: EnergyParams,
                     span: tuple[float, float]) -> float:
    """Energy of the arc s in span of a theta'(s) profile, by adaptive quadrature."""
    lo, hi = span

    if isinstance(ep, ExpEnergyParams):
        def integrand(s):
            return float(np.exp(ep.nu * theta_prime(s)))
    else:
        def integrand(s):
            return float(real_power(theta_prime(s) - ep.mu, ep.p))

    probe = np.linspace(lo, hi, 33)
    vals = np.array([integrand(float(t)) for t in probe])
    if not np.all(np.isfinite(vals)):
        raise DivergentIntegrand("energy integrand is not finite on the span")
    try:
        return quad(integrand, lo, hi, epsabs=1e-10, epsrel=1e-10, limit=400)
    except QuadratureFailure as exc:
        raise DivergentIntegrand("energy integral did not converge") from exc


def closure_integral(theta_prime: Callable, ep: PowerEnergyParams, period: float) -> float:
    """Obstruction integral for closing a critical curve over one period.

    Evaluates integral_0^T (theta'-mu)^(p-1) * ((p-1)*theta' - mu) ds of a
    theta'(s) profile of period T; for mu = 0 this reduces to
    integral_0^T theta'^p ds.
    """
    mu, p = ep.mu, ep.p
    if mu == 0.0:
        def integrand(s):
            return float(real_power(theta_prime(s), p))
    else:
        def integrand(s):
            tp = float(np.asarray(theta_prime(s)))
            return float(real_power(tp - mu, p - 1.0) * ((p - 1.0) * tp - mu))

    try:
        return quad(integrand, 0.0, float(period), epsabs=1e-10, epsrel=1e-10, limit=400)
    except QuadratureFailure as exc:
        raise DivergentIntegrand("closure integral did not converge over the period") from exc
