import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from wlw.errors import InvalidParameter, NonPositiveRadius, NonPositiveScale
from wlw.levelset import Anchor, f_H
from wlw.model import (
    InitialConditions,
    Params,
    ProfileState,
    canonicalize,
    is_equilibrium,
    principal_curvatures,
    reflect_b,
    rescale,
    rhs,
)

PI = math.pi


def state(x, theta, s=0.0, z=0.0):
    return ProfileState(s, x, z, theta)


class TestParams:
    def test_rejects_a_zero(self):
        with pytest.raises(InvalidParameter):
            Params(0.0, 1.0)

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidParameter):
            Params(math.nan, 1.0)
        with pytest.raises(InvalidParameter):
            Params(1.0, math.inf)

    def test_x0_positive(self):
        with pytest.raises(NonPositiveRadius):
            InitialConditions(0.0, 0.0)
        with pytest.raises(NonPositiveRadius):
            InitialConditions(-1.0, 0.0)


class TestRhs:
    def test_sin_zero_gives_b(self):
        dx, dz, dth = rhs(Params(3, 1), state(1.0, 0.0))
        assert (dx, dz) == (1.0, 0.0)
        assert dth == pytest.approx(1.0, abs=1e-15)

    def test_vertical_line_equilibrium(self):
        # x = -a/b with vertical tangent: theta' vanishes
        dx, dz, dth = rhs(Params(-2, 1), state(2.0, PI / 2))
        assert dx == pytest.approx(0.0, abs=1e-15)
        assert dz == pytest.approx(1.0)
        assert dth == 0.0

    def test_umbilic_circle(self):
        r = 2.5
        dx, dz, dth = rhs(Params(1, 0), state(r, PI / 2))
        assert dz == pytest.approx(1.0)
        assert dth == pytest.approx(1.0 / r)

    def test_nonpositive_radius(self):
        with pytest.raises(NonPositiveRadius):
            rhs(Params(1, 0), state(0.0, 0.0))
        with pytest.raises(NonPositiveRadius):
            rhs(Params(1, 0), state(-1.0, 0.0))


class TestPrincipalCurvatures:
    def test_sphere_umbilic(self):
        r = 2.0
        k1, k2 = principal_curvatures(Params(1, 0), state(r, PI / 2))
        assert k1 == pytest.approx(1.0 / r)
        assert k2 == pytest.approx(1.0 / r)

    def test_cylinder_point(self):
        k1, k2 = principal_curvatures(Params(-2, 1), state(2.0, PI / 2))
        assert k1 == 0.0
        assert k2 == pytest.approx(0.5)

    def test_flat_direction(self):
        k1, k2 = principal_curvatures(Params(3, 1), state(5.0, PI))
        assert k2 == pytest.approx(0.0, abs=1e-16)
        assert k1 == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("a,b", [(3, 1), (-2, 1), (0.5, -0.7), (1, 0)])
    def test_linear_relation_is_exact(self, a, b):
        # kappa1 is built from kappa2, so the relation holds bitwise
        for x, th in [(0.3, 0.2), (2.0, 1.9), (5.0, 4.4), (0.01, -2.2)]:
            k1, k2 = principal_curvatures(Params(a, b), state(x, th))
            assert k1 - (a * k2 + b) == 0.0


class TestReflectB:
    def test_flips_b_and_shifts_theta(self):
        p2, ic2 = reflect_b(Params(3, 1), InitialConditions(2.0, 0.0))
        assert (p2.a, p2.b) == (3.0, -1.0)
        assert ic2.x0 == 2.0
        assert ic2.theta0 == pytest.approx(PI)

    def test_b_zero_fixed_point(self):
        p2, ic2 = reflect_b(Params(-1, 0), InitialConditions(1.5, 0.3))
        assert p2.b == 0.0
        assert ic2.theta0 == pytest.approx(0.3 + PI)

    @given(st.floats(-5, 5).filter(lambda v: abs(v) > 1e-3),
           st.floats(-3, 3),
           st.floats(0.1, 10),
           st.floats(-7, 7))
    def test_involution(self, a, b, x0, theta0):
        p1, ic1 = reflect_b(Params(a, b), InitialConditions(x0, theta0))
        p2, ic2 = reflect_b(p1, ic1)
        assert (p2.a, p2.b) == (a, b)
        assert ic2.x0 == x0
        assert math.remainder(ic2.theta0 - theta0, 2 * PI) == pytest.approx(0.0, abs=1e-9)


class TestRescale:
    def test_identity(self):
        p2, ic2 = rescale(1.0, Params(-2, 1), InitialConditions(4.0, PI / 2))
        assert (p2.a, p2.b) == (-2.0, 1.0)
        assert (ic2.x0, ic2.theta0) == (4.0, PI / 2)

    def test_halves_b_doubles_x0(self):
        p2, ic2 = rescale(2.0, Params(-2, 1), InitialConditions(4.0, PI / 2))
        assert (p2.a, p2.b) == (-2.0, 0.5)
        assert ic2.x0 == 8.0

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(NonPositiveScale):
            rescale(0.0, Params(1, 1), InitialConditions(1.0, 0.0))
        with pytest.raises(NonPositiveScale):
            rescale(-2.0, Params(1, 1), InitialConditions(1.0, 0.0))

    @given(st.floats(0.1, 10), st.floats(0.1, 10))
    def test_composition(self, lam1, lam2):
        p0, ic0 = Params(3, 1), InitialConditions(2.0, 0.7)
        pa, ica = rescale(lam2, *rescale(lam1, p0, ic0))
        pb, icb = rescale(lam1 * lam2, p0, ic0)
        assert pa.b == pytest.approx(pb.b, rel=1e-12)
        assert ica.x0 == pytest.approx(icb.x0, rel=1e-12)


class TestFirstIntegral:
    def test_vertical_tangent_value(self):
        # At b = 0 the level through a vertical tangent (x_v, pi/2) conserves
        # sin(theta)^2 x^(-2a) = x_v^(-2a).
        for a, x_v in [(-2.0, 1.5), (2.0, 0.7), (-0.5, 3.0)]:
            params, anchor = Params(a, 0), Anchor(x_v, 1.0)
            for r in (1.0, 1.25, 2.0):     # on the orbit, |sin(theta)| <= 1
                x = x_v * r ** -math.copysign(1.0, a)
                m = f_H(params, anchor, x) ** 2 * x ** (-2 * a)
                assert m == pytest.approx(x_v ** (-2 * a), rel=1e-14)

    def test_unit_circle_gives_minus_one(self):
        # a=1 sphere of radius 1: x = sin(s), theta = s, so sin(theta)^2 x^(-2) = 1
        anchor = Anchor(math.sin(0.3), math.sin(0.3))
        for s in [0.3, 0.7, 1.2]:
            x = math.sin(s)
            assert f_H(Params(1, 0), anchor, x) == pytest.approx(math.sin(s), rel=1e-14)
            assert f_H(Params(1, 0), anchor, x) ** 2 * x ** -2 == pytest.approx(1.0, rel=1e-13)


class TestEquilibrium:
    def test_cylinder_point(self):
        assert is_equilibrium(Params(-2, 1), InitialConditions(2.0, PI / 2))
        assert is_equilibrium(Params(3, 1), InitialConditions(3.0, 1.5 * PI))

    def test_off_equilibrium(self):
        assert not is_equilibrium(Params(-2, 1), InitialConditions(2.1, PI / 2))
        assert not is_equilibrium(Params(-2, 1), InitialConditions(2.0, PI / 2 + 1e-6))

    def test_canonicalize(self):
        p, ic, refl = canonicalize(Params(2, -1), InitialConditions(1.0, 0.0))
        assert refl and p.b == 1.0 and ic.theta0 == pytest.approx(PI)
        p, ic, refl = canonicalize(Params(2, 1), InitialConditions(1.0, 0.0))
        assert not refl and p.b == 1.0
