"""Shared fixtures: hand-built tiny networks and small random scenarios,
plus the trajectory fingerprint every pinned-run test compares."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

import repro
import repro.kernels
from repro.core.state import SlotState
from repro.energy.models import QuadraticEnergyModel
from repro.network.connectivity import StrategySpace
from repro.network.topology import (
    BaseStation,
    EdgeServer,
    FronthaulType,
    MECNetwork,
    MobileDevice,
    ServerCluster,
)


#: The paper-scale medium preset (seed 7, I=40, 240 slots) must
#: reproduce this trajectory stream on every kernel backend, with or
#: without telemetry attached.  perfbench's ``paper-medium`` workload
#: is the same run at a longer horizon.
MEDIUM_FINGERPRINT = (
    "21d380f5230daf38751e1c04951c28466fde49023e1f3986efd1c8e59a801e04"
)


def fingerprint(result) -> str:
    """sha256 over a run's latency, cost, theta, backlog and price
    trajectories: equal fingerprints mean bit-identical runs."""
    digest = hashlib.sha256()
    for arr in (
        result.latency,
        result.cost,
        result.theta,
        result.backlog,
        result.price,
    ):
        digest.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
    return digest.hexdigest()


def pytest_configure(config) -> None:
    config.addinivalue_line(
        "markers",
        "default_backend: resolve an unset kernel backend as a user's run "
        "does (the C kernels when they build), not as the NumPy oracle",
    )


@pytest.fixture(autouse=True)
def _oracle_backend_by_default(request, monkeypatch) -> None:
    """Tests that name no kernel backend run the NumPy oracle.

    A run that names none gets the C kernels when they build; the
    suite keeps the oracle under every such test instead, and checks
    the C kernels where it names them.  ``@pytest.mark.default_backend``
    opts a test out.
    """
    if request.node.get_closest_marker("default_backend") is None:
        monkeypatch.setattr(repro.kernels, "_DEFAULT", "numpy")


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


def make_tiny_network() -> MECNetwork:
    """A deterministic 2-BS / 2-cluster / 3-server / 4-device network.

    * BS0: macro cell covering everything, wired to cluster 0.
    * BS1: small cell covering devices 2 and 3 only, wired to cluster 1.
    * Cluster 0 hosts servers 0, 1; cluster 1 hosts server 2.

    So devices 0 and 1 may only use BS0 -> servers {0, 1}; devices 2 and
    3 may additionally reach server 2 through BS1.
    """
    energy = QuadraticEnergyModel(a=5.0, b=2.0, c=10.0)
    base_stations = (
        BaseStation(
            index=0,
            position=(0.0, 0.0),
            coverage_radius=10_000.0,
            access_bandwidth=80e6,
            fronthaul_bandwidth=0.8e9,
            fronthaul_spectral_efficiency=10.0,
            fronthaul_type=FronthaulType.WIRED,
            connected_clusters=(0,),
            name="macro",
        ),
        BaseStation(
            index=1,
            position=(1_000.0, 0.0),
            coverage_radius=300.0,
            access_bandwidth=60e6,
            fronthaul_bandwidth=0.6e9,
            fronthaul_spectral_efficiency=10.0,
            fronthaul_type=FronthaulType.WIRED,
            connected_clusters=(1,),
            name="small",
        ),
    )
    clusters = (
        ServerCluster(index=0, servers=(0, 1)),
        ServerCluster(index=1, servers=(2,)),
    )
    servers = (
        EdgeServer(index=0, cluster=0, cores=64, freq_min=1.8, freq_max=3.6,
                   energy_model=energy),
        EdgeServer(index=1, cluster=0, cores=128, freq_min=1.8, freq_max=3.6,
                   energy_model=energy),
        EdgeServer(index=2, cluster=1, cores=64, freq_min=1.8, freq_max=3.6,
                   energy_model=energy),
    )
    devices = (
        MobileDevice(index=0, position=(10.0, 10.0)),
        MobileDevice(index=1, position=(50.0, -20.0)),
        MobileDevice(index=2, position=(900.0, 0.0)),
        MobileDevice(index=3, position=(1_100.0, 50.0)),
    )
    suitability = np.array(
        [
            [1.0, 0.8, 0.6],
            [0.7, 1.0, 0.9],
            [0.9, 0.6, 1.0],
            [0.5, 0.9, 0.8],
        ]
    )
    return MECNetwork(base_stations, clusters, servers, devices, suitability)


def make_tiny_state(t: int = 0, price: float = 0.5) -> SlotState:
    """A fixed state matching :func:`make_tiny_network`'s coverage."""
    h = np.array(
        [
            [30.0, 0.0],
            [25.0, 0.0],
            [20.0, 40.0],
            [35.0, 45.0],
        ]
    )
    return SlotState(
        t=t,
        cycles=np.array([100e6, 150e6, 80e6, 120e6]),
        bits=np.array([5e6, 8e6, 4e6, 6e6]),
        spectral_efficiency=h,
        price=price,
    )


@pytest.fixture
def tiny_network() -> MECNetwork:
    return make_tiny_network()


@pytest.fixture
def tiny_state() -> SlotState:
    return make_tiny_state()


@pytest.fixture
def tiny_space(tiny_network: MECNetwork, tiny_state: SlotState) -> StrategySpace:
    return StrategySpace(tiny_network, tiny_state.coverage())


@pytest.fixture
def small_scenario() -> repro.Scenario:
    """A reduced random scenario: fast enough for per-test simulation."""
    return repro.make_paper_scenario(
        seed=42,
        config=repro.ScenarioConfig(num_devices=12),
        num_base_stations=3,
        num_clusters=2,
        servers_per_cluster=2,
        num_macro_stations=1,
    )


@pytest.fixture
def paper_scenario() -> repro.Scenario:
    """The full paper-default scenario (built once per test that needs it)."""
    return repro.make_paper_scenario(
        seed=7, config=repro.ScenarioConfig(num_devices=40)
    )
