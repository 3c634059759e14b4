import math

import pytest

from wlw.cli import default_controls
from wlw.integrate import IntegrationControls, integrate
from wlw.model import InitialConditions, Params
from wlw.variational import theta_derivatives

PI = math.pi


def theta_prime(traj):
    """theta'(s) along a run: the ODE's theta' at the states traj.eval(s)."""
    def at(s):
        x, _, theta = traj.eval(s)
        return theta_derivatives(traj.params, x, theta)[0]
    return at


def _orbit(a, b, x0, theta0, max_arclength=None):
    """(params, ic, controls) of a session orbit: check's run (3.25 periods
    each way of a periodic orbit, cli.default_controls), or one over
    max_arclength each way."""
    params, ic = Params(a, b), InitialConditions(x0, theta0)
    if max_arclength is None:
        return params, ic, default_controls(params, ic)
    return params, ic, IntegrationControls(max_arclength=max_arclength)


# The one source of the session orbits' inputs and controls, for the
# fixtures and for the tests that re-run a fixture's integration.
ORBITS = {
    # a=-2, b=1, x0=4: winds with loops toward the axis
    "nodoid_traj": _orbit(-2, 1, 4.0, PI / 2),
    "unduloid_traj": _orbit(-2, 1, 0.5, PI / 2),
    "vesicle_traj": _orbit(3, 1, 1.0, 0.0, max_arclength=60),
    # a=3, b=1, theta0=3pi/2, x0=4: winds with loops away from the axis
    "antinodoid_traj": _orbit(3, 1, 4.0, 1.5 * PI),
    # a=1, b=0: profile is a half circle of radius 2 centered on the axis
    "circle_traj": _orbit(1, 0, 2.0, PI / 2, max_arclength=30),
    # a=1, b=1: extremal of the exponential energy with nu=1
    "exp_traj": _orbit(1, 1, 2.0, 0.0, max_arclength=12),
}


@pytest.fixture(scope="session")
def nodoid_traj():
    return integrate(*ORBITS["nodoid_traj"])


@pytest.fixture(scope="session")
def unduloid_traj():
    return integrate(*ORBITS["unduloid_traj"])


@pytest.fixture(scope="session")
def vesicle_traj():
    return integrate(*ORBITS["vesicle_traj"])


@pytest.fixture(scope="session")
def antinodoid_traj():
    return integrate(*ORBITS["antinodoid_traj"])


@pytest.fixture(scope="session")
def circle_traj():
    return integrate(*ORBITS["circle_traj"])


@pytest.fixture(scope="session")
def exp_traj():
    return integrate(*ORBITS["exp_traj"])
