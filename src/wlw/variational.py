"""Curvature-energy functionals whose extremals are the generating curves.

A profile curve with kappa1 = a*kappa2 + b extremizes

    integral (theta' - mu)^p ds      with mu = -b/(a-1), p = a/(a-1)   (a != 1)
    integral exp(nu * theta') ds     with nu = 1/b                     (a = 1, b != 0)

under arbitrary boundary conditions.  This module evaluates the functionals,
their Euler-Lagrange residuals (using analytic s-derivatives of theta', never
finite differences of samples), the closed-form critical-curve
parametrizations, and the obstruction integral that rules out closed
extremals for mu = 0.

Powers of a negative base arise where theta' < mu, as on the a < 0 family;
they are taken in the real continuation (-1)^floor(q) * |u|^q, which is exact
for integer q and keeps u^q = u * u^(q-1) and d/du u^q = q * u^(q-1) for
every q, the identities the Euler-Lagrange terms are derived with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .errors import (
    DivergentIntegrand,
    InvalidParameter,
    NearSingular,
    NoPeriod,
    NotApplicable,
    QuadratureFailure,
    SignChange,
    Unsupported,
)
from .integrate import Trajectory, detect_period
from .errors import NoFullTurn
from .model import Params
from .numerics import cumulative_simpson, quad

# Points with |theta' - mu| at or below this are outside the power-energy
# domain and are excluded from residual evaluation.
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


@dataclass(frozen=True)
class CriticalCurveScale:
    """Homothety factor of the closed-form critical-curve parametrization."""

    d: float

    def __post_init__(self):
        if not (self.d > 0.0):
            raise InvalidParameter(f"scale d must be > 0, got {self.d}")


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


def theta_derivatives(traj: Trajectory, s) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(theta', theta'', theta''') along a trajectory, by differentiating the ODE.

    theta'  = a*sin(theta)/x + b
    theta'' = a*cos(theta)*(theta'*x - sin(theta)) / x^2
    theta''' follows by one more chain-rule pass; no sampled differences enter.
    """
    a = traj.params.a
    x, _, theta = traj.eval(s)
    sin_t, cos_t = np.sin(theta), np.cos(theta)
    tp = a * sin_t / x + traj.params.b
    tpp = a * cos_t * (tp * x - sin_t) / x**2
    tppp = (a * (-tp * sin_t * (tp * x - sin_t) + x * tpp * cos_t) / x**2
            - 2.0 * tpp * cos_t / x)
    return tp, tpp, tppp


@dataclass(frozen=True)
class ResidualProfile:
    """Pointwise Euler-Lagrange residual, relative to the largest term."""

    s: np.ndarray
    residual: np.ndarray          # nan at excluded points
    excluded: np.ndarray          # True where the power base was near-singular

    @property
    def max_relative(self) -> float:
        vals = self.residual[~self.excluded]
        return float(np.max(np.abs(vals))) if vals.size else math.nan

    @property
    def n_excluded(self) -> int:
        return int(self.excluded.sum())


def _default_residual_span(traj: Trajectory, n: int) -> np.ndarray:
    lo, hi = traj.s_min, traj.s_max
    pad = 0.01 * (hi - lo)
    s = np.linspace(lo + pad, hi - pad, n)
    x = traj.eval(s)[0]
    keep = x > 1e-5 * max(1.0, float(traj.x.max()))
    return s[keep]


def _relative_residual(terms: tuple[np.ndarray, ...]) -> np.ndarray:
    total = sum(terms)
    scale = np.maximum.reduce([np.abs(t) for t in terms])
    out = np.zeros_like(total)
    live = scale > 1e-30
    out[live] = total[live] / scale[live]
    return out


def el_residual_power(traj: Trajectory, ep: PowerEnergyParams,
                      n: int = 800, span: Optional[np.ndarray] = None) -> ResidualProfile:
    """Residual of the power-energy Euler-Lagrange equation along a trajectory.

    Evaluates d^2/ds^2[(theta'-mu)^(p-1)] + theta'^2 (theta'-mu)^(p-1)
    - (theta'/p)(theta'-mu)^p pointwise, normalized by the largest of the
    three terms.  Points with |theta' - mu| <= 1e-6 are excluded and
    reported; if every point is excluded (constant-curvature profile with
    theta' = mu) NearSingular is raised.
    """
    s = span if span is not None else _default_residual_span(traj, n)
    s = np.asarray(s, dtype=float)
    tp, tpp, tppp = theta_derivatives(traj, s)
    u = tp - ep.mu
    excluded = np.abs(u) <= NEAR_SINGULAR_TOL
    if excluded.all():
        raise NearSingular("theta' - mu is near zero on the whole span")
    p = ep.p
    second = (p - 1.0) * ((p - 2.0) * real_power(u, p - 3.0) * tpp**2
                          + real_power(u, p - 2.0) * tppp)
    curv = tp**2 * real_power(u, p - 1.0)
    drive = -(tp / p) * real_power(u, p)
    rel = _relative_residual((second, curv, drive))
    rel[excluded] = np.nan
    return ResidualProfile(s=s, residual=rel, excluded=excluded)


def el_residual_exp(traj: Trajectory, ep: ExpEnergyParams,
                    n: int = 800, span: Optional[np.ndarray] = None) -> ResidualProfile:
    """Residual of the exponential-energy Euler-Lagrange equation.

    Constant-curvature input is rejected with NotApplicable: for a = 1 and
    b != 0 no such generating curve exists, so the check is meaningless.
    """
    s = span if span is not None else _default_residual_span(traj, n)
    s = np.asarray(s, dtype=float)
    tp, tpp, tppp = theta_derivatives(traj, s)
    if np.ptp(tp) < 1e-12 * max(1.0, float(np.abs(tp).max())):
        raise NotApplicable("theta' is constant; not an exponential-energy extremal family")
    nu = ep.nu
    e = np.exp(nu * tp)
    second = nu * e * (nu * tpp**2 + tppp)
    curv = tp**2 * e
    drive = -(tp / nu) * e
    rel = _relative_residual((second, curv, drive))
    excluded = np.zeros_like(rel, dtype=bool)
    return ResidualProfile(s=s, residual=rel, excluded=excluded)


def functional_value(traj: Trajectory, ep: EnergyParams,
                     span: Optional[tuple[float, float]] = None) -> float:
    """Energy of a trajectory arc by adaptive quadrature over arclength."""
    lo, hi = span if span is not None else (traj.s_min, traj.s_max)

    if isinstance(ep, ExpEnergyParams):
        def integrand(s):
            return float(np.exp(ep.nu * traj.theta_prime(s)))
    else:
        def integrand(s):
            return float(real_power(traj.theta_prime(s) - ep.mu, ep.p))

    probe = np.linspace(lo, hi, 33)
    vals = np.array([integrand(float(t)) for t in probe])
    if not np.all(np.isfinite(vals)):
        raise DivergentIntegrand("energy integrand is not finite on the span")
    try:
        return quad(integrand, lo, hi, epsabs=1e-10, epsrel=1e-10, limit=400)
    except QuadratureFailure as exc:
        raise DivergentIntegrand("energy integral did not converge") from exc


def _profile_arrays(theta_prime, s_grid) -> tuple[np.ndarray, np.ndarray]:
    s = np.asarray(s_grid, dtype=float)
    tp = theta_prime(s) if callable(theta_prime) else np.asarray(theta_prime, dtype=float)
    if tp.shape != s.shape:
        raise InvalidParameter("theta' profile and s grid shapes differ")
    return tp, s


def critical_curve_power(theta_prime, s_grid, ep: PowerEnergyParams,
                         d: CriticalCurveScale) -> tuple[np.ndarray, np.ndarray]:
    """Planar critical curve rebuilt from a theta'(s) profile.

    x(s) = d*p*(theta'-mu)^(p-1) and z(s) integrates
    (theta'-mu)^(p-1)*((p-1)*theta' + mu); z(s_grid[0]) = 0.  The profile
    must be non-constant with theta' - mu of one sign.
    """
    tp, s = _profile_arrays(theta_prime, s_grid)
    u = tp - ep.mu
    if np.ptp(tp) < 1e-12 * max(1.0, float(np.abs(tp).max())):
        raise NotApplicable("constant curvature: the closed-form parametrization degenerates")
    if u.min() < 0.0 < u.max():
        raise SignChange("theta' - mu changes sign on the profile")
    p = ep.p
    x = d.d * p * real_power(u, p - 1.0)
    integrand = real_power(u, p - 1.0) * ((p - 1.0) * tp + ep.mu)
    z = d.d * cumulative_simpson(integrand, s)
    return x, z


def critical_curve_exp(theta_prime, s_grid, ep: ExpEnergyParams,
                       d: CriticalCurveScale) -> tuple[np.ndarray, np.ndarray]:
    """Planar critical curve of the exponential energy from a theta' profile.

    x(s) = d*nu*exp(nu*theta') and z(s) integrates (nu*theta'-1)*exp(nu*theta').
    """
    tp, s = _profile_arrays(theta_prime, s_grid)
    if np.ptp(tp) < 1e-12 * max(1.0, float(np.abs(tp).max())):
        raise NotApplicable("constant curvature: the closed-form parametrization degenerates")
    e = np.exp(ep.nu * tp)
    x = d.d * ep.nu * e
    z = d.d * cumulative_simpson((ep.nu * tp - 1.0) * e, s)
    return x, z


def closure_integral(source: Union[Trajectory, Callable], ep: PowerEnergyParams,
                     period: Optional[float] = None) -> float:
    """Obstruction integral for closing a critical curve over one period.

    Evaluates integral_0^T (theta'-mu)^(p-1) * ((p-1)*theta' - mu) ds; for
    mu = 0 this reduces to integral_0^T theta'^p ds.  source is either a
    trajectory whose tangent winds (the period is then detected) or a
    callable theta'(s) with an explicit period.
    """
    if isinstance(source, Trajectory):
        if period is None:
            try:
                period, _ = detect_period(source)
            except NoFullTurn as exc:
                raise NoPeriod(str(exc)) from exc
        theta_prime = source.theta_prime
    else:
        if period is None:
            raise NoPeriod("a period is required with a synthetic theta' profile")
        theta_prime = source

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
