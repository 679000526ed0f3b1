"""Tests for the topology entity model."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.energy.models import QuadraticEnergyModel
from repro.exceptions import ConfigurationError, TopologyError
from repro.network.coverage import coverage_matrix
from repro.network.topology import (
    BaseStation,
    EdgeServer,
    FronthaulType,
    MECNetwork,
    MobileDevice,
    ServerCluster,
)

from conftest import make_tiny_network

ENERGY = QuadraticEnergyModel(a=1.0, b=0.0, c=1.0)


def make_bs(**overrides) -> BaseStation:
    defaults = dict(
        index=0,
        position=(0.0, 0.0),
        coverage_radius=100.0,
        access_bandwidth=50e6,
        fronthaul_bandwidth=0.5e9,
        fronthaul_spectral_efficiency=10.0,
        fronthaul_type=FronthaulType.WIRED,
        connected_clusters=(0,),
    )
    defaults.update(overrides)
    return BaseStation(**defaults)


class TestBaseStation:
    def test_covers_geometry(self) -> None:
        bs = make_bs()
        assert bs.covers((50.0, 50.0))
        assert bs.covers((100.0, 0.0))
        assert not bs.covers((100.0, 1.0))

    @settings(max_examples=300, deadline=None)
    @given(
        center=st.tuples(
            st.floats(-1e4, 1e4, allow_nan=False),
            st.floats(-1e4, 1e4, allow_nan=False),
        ),
        radius=st.floats(1e-3, 1e4),
        angle=st.floats(0.0, 2 * math.pi),
    )
    def test_covers_agrees_with_coverage_matrix_on_the_circle(
        self, center, radius, angle
    ) -> None:
        bs = make_bs(position=center, coverage_radius=radius)
        point = (
            center[0] + radius * math.cos(angle),
            center[1] + radius * math.sin(angle),
        )
        covered = coverage_matrix(
            np.array([point]), np.array([center]), np.array([radius])
        )
        assert bs.covers(point) == bool(covered[0, 0])

    def test_covers_boundary_point_uses_the_simulator_rule(self) -> None:
        # Comparing squared distances puts this point outside the cell;
        # the simulator's sqrt(dx*dx + dy*dy) <= r puts it inside.
        bs = make_bs(
            position=(750.3646726300526, 280.4087579860399),
            coverage_radius=491.33173991055736,
        )
        point = (261.15834979203225, 326.06018007602745)
        covered = coverage_matrix(
            np.array([point]), np.array([bs.position]), np.array([bs.coverage_radius])
        )
        assert covered[0, 0]
        assert bs.covers(point)

    def test_wired_must_connect_single_cluster(self) -> None:
        with pytest.raises(ConfigurationError, match="wired"):
            make_bs(connected_clusters=(0, 1))

    def test_wireless_may_connect_multiple_clusters(self) -> None:
        bs = make_bs(
            fronthaul_type=FronthaulType.WIRELESS, connected_clusters=(0, 1)
        )
        assert bs.connected_clusters == (0, 1)

    def test_no_cluster_rejected(self) -> None:
        with pytest.raises(ConfigurationError):
            make_bs(connected_clusters=())

    @pytest.mark.parametrize(
        "field,value",
        [
            ("coverage_radius", 0.0),
            ("access_bandwidth", -1.0),
            ("fronthaul_bandwidth", 0.0),
            ("fronthaul_spectral_efficiency", 0.0),
        ],
    )
    def test_nonpositive_parameters_rejected(self, field: str, value: float) -> None:
        with pytest.raises(ConfigurationError):
            make_bs(**{field: value})


class TestEdgeServer:
    def test_speed_defaults_to_paper_model(self) -> None:
        # Paper Eq. 7: processing speed equals the clock frequency.
        server = EdgeServer(
            index=0, cluster=0, cores=64, freq_min=1.8, freq_max=3.6,
            energy_model=ENERGY,
        )
        assert server.speed(2.0) == pytest.approx(2e9)

    def test_speed_scale_multiplies_clock(self) -> None:
        server = EdgeServer(
            index=0, cluster=0, cores=64, freq_min=1.8, freq_max=3.6,
            energy_model=ENERGY, speed_scale=64.0,
        )
        assert server.speed(2.0) == pytest.approx(64 * 2e9)

    def test_nonpositive_speed_scale_rejected(self) -> None:
        with pytest.raises(ConfigurationError):
            EdgeServer(
                index=0, cluster=0, cores=4, freq_min=1.0, freq_max=2.0,
                energy_model=ENERGY, speed_scale=0.0,
            )

    def test_frequency_ratio(self) -> None:
        server = EdgeServer(
            index=0, cluster=0, cores=4, freq_min=1.8, freq_max=3.6,
            energy_model=ENERGY,
        )
        assert server.frequency_ratio == pytest.approx(2.0)

    def test_bad_frequency_range_rejected(self) -> None:
        with pytest.raises(ConfigurationError):
            EdgeServer(
                index=0, cluster=0, cores=4, freq_min=3.6, freq_max=1.8,
                energy_model=ENERGY,
            )

    def test_zero_cores_rejected(self) -> None:
        with pytest.raises(ConfigurationError):
            EdgeServer(
                index=0, cluster=0, cores=0, freq_min=1.0, freq_max=2.0,
                energy_model=ENERGY,
            )


class TestMECNetwork:
    def test_tiny_network_dimensions(self) -> None:
        net = make_tiny_network()
        assert net.num_base_stations == 2
        assert net.num_clusters == 2
        assert net.num_servers == 3
        assert net.num_devices == 4
        assert "K=2" in repr(net)

    def test_reachability_respects_fronthaul(self) -> None:
        net = make_tiny_network()
        np.testing.assert_array_equal(net.servers_reachable_from(0), [0, 1])
        np.testing.assert_array_equal(net.servers_reachable_from(1), [2])

    def test_speeds_vector(self) -> None:
        net = make_tiny_network()
        speeds = net.speeds(np.array([2.0, 2.0, 3.0]))
        np.testing.assert_allclose(speeds, [2e9, 2e9, 3e9])

    def test_max_frequency_ratio(self) -> None:
        net = make_tiny_network()
        assert net.max_frequency_ratio() == pytest.approx(2.0)

    def test_suitability_shape_enforced(self) -> None:
        net = make_tiny_network()
        with pytest.raises(TopologyError):
            MECNetwork(
                net.base_stations,
                net.clusters,
                net.servers,
                net.devices,
                np.ones((2, 3)),
            )

    def test_suitability_range_enforced(self) -> None:
        net = make_tiny_network()
        bad = np.ones((4, 3))
        bad[0, 0] = 1.5
        with pytest.raises(TopologyError):
            MECNetwork(
                net.base_stations, net.clusters, net.servers, net.devices, bad
            )

    def test_cluster_membership_consistency_enforced(self) -> None:
        net = make_tiny_network()
        # Claim server 2 belongs to cluster 0's list while the server
        # itself says cluster 1.
        bad_clusters = (
            ServerCluster(index=0, servers=(0, 1, 2)),
            ServerCluster(index=1, servers=(2,)),
        )
        with pytest.raises(TopologyError):
            MECNetwork(
                net.base_stations,
                bad_clusters,
                net.servers,
                net.devices,
                net.suitability,
            )

    def test_misordered_indices_rejected(self) -> None:
        net = make_tiny_network()
        shuffled = (net.devices[1], net.devices[0], net.devices[2], net.devices[3])
        with pytest.raises(TopologyError, match="carries index"):
            MECNetwork(
                net.base_stations,
                net.clusters,
                net.servers,
                shuffled,
                net.suitability,
            )

    def test_empty_network_rejected(self) -> None:
        net = make_tiny_network()
        with pytest.raises(TopologyError):
            MECNetwork((), net.clusters, net.servers, net.devices, net.suitability)

    def test_unknown_cluster_reference_rejected(self) -> None:
        net = make_tiny_network()
        bad_bs = (
            net.base_stations[0],
            make_bs(index=1, connected_clusters=(7,)),
        )
        with pytest.raises(TopologyError, match="unknown cluster"):
            MECNetwork(
                bad_bs, net.clusters, net.servers, net.devices, net.suitability
            )

    def test_positions_accessors(self) -> None:
        net = make_tiny_network()
        assert net.device_positions().shape == (4, 2)
        assert net.base_station_positions().shape == (2, 2)

    def test_labels(self) -> None:
        net = make_tiny_network()
        assert net.base_stations[0].label == "macro"
        assert net.servers[0].label == "S0"
        assert net.devices[3].label == "D3"
        assert net.clusters[0].label == "Cluster0"
