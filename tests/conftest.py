import math

import pytest

from wlw.integrate import IntegrationControls, integrate
from wlw.model import InitialConditions, Params

PI = math.pi


@pytest.fixture(scope="session")
def nodoid_traj():
    # a=-2, b=1, x0=4: winds with loops toward the axis
    return integrate(Params(-2, 1), InitialConditions(4.0, PI / 2),
                     IntegrationControls(max_arclength=200, max_full_turns=3))


@pytest.fixture(scope="session")
def unduloid_traj():
    return integrate(Params(-2, 1), InitialConditions(0.5, PI / 2),
                     IntegrationControls(max_arclength=120, max_vertical_tangents=12))


@pytest.fixture(scope="session")
def vesicle_traj():
    return integrate(Params(3, 1), InitialConditions(1.0, 0.0),
                     IntegrationControls(max_arclength=60))


@pytest.fixture(scope="session")
def antinodoid_traj():
    # a=3, b=1, theta0=3pi/2, x0=4: winds with loops away from the axis
    return integrate(Params(3, 1), InitialConditions(4.0, 1.5 * PI),
                     IntegrationControls(max_arclength=200, max_full_turns=3))


@pytest.fixture(scope="session")
def circle_traj():
    # a=1, b=0: profile is a half circle of radius 2 centered on the axis
    return integrate(Params(1, 0), InitialConditions(2.0, PI / 2),
                     IntegrationControls(max_arclength=30))


@pytest.fixture(scope="session")
def exp_traj():
    # a=1, b=1: extremal of the exponential energy with nu=1
    return integrate(Params(1, 1), InitialConditions(2.0, 0.0),
                     IntegrationControls(max_arclength=12))
