import numpy as np
import pytest

from beamctrl.torus import SpatialGrid, gauss_panels, uniform_interior
from beamctrl.weights import (CarlemanParams, DomainSpec, build_eta,
                              build_theta, eval_weights)


@pytest.fixture(scope="session")
def domain():
    return DomainSpec(d=1.0, L=1.0, T=4.0)


@pytest.fixture(scope="session")
def params():
    return CarlemanParams(s=4.0, lam=2.0, T0=0.5, T1=0.5)


@pytest.fixture(scope="session")
def eta(domain):
    return build_eta(domain, eta_scale=0.1, mollify_radius=0.1)


@pytest.fixture(scope="session")
def theta(params, domain):
    return build_theta(params, domain.T)


@pytest.fixture(scope="session")
def grid64(domain):
    return SpatialGrid(64, domain.circumference, x0=-domain.L)


@pytest.fixture(scope="session")
def tgrid128(domain, theta):
    return gauss_panels(domain.T, np.array(theta.junctions), 128)


@pytest.fixture(scope="session")
def weights64(eta, theta, params, grid64, tgrid128):
    return eval_weights(eta, theta, params, grid64, tgrid128)
