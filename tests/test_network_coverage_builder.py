"""Tests for coverage geometry, the scenario builder, and validation."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.energy.models import ScaledEnergyModel
from repro.exceptions import ConfigurationError, InfeasibleError, TopologyError
from repro.network.builder import NetworkBuilder, build_paper_network
from repro.network.coverage import coverage_matrix, distances
from repro.network.topology import FronthaulType
from repro.network.validation import validate_network

from conftest import make_tiny_network


class TestGeometry:
    def test_distances_shape_and_values(self) -> None:
        devices = np.array([[0.0, 0.0], [3.0, 4.0]])
        stations = np.array([[0.0, 0.0]])
        dist = distances(devices, stations)
        np.testing.assert_allclose(dist, [[0.0], [5.0]])

    def test_coverage_boundary_inclusive(self) -> None:
        devices = np.array([[0.0, 0.0], [0.0, 10.0], [0.0, 10.0001]])
        stations = np.array([[0.0, 0.0]])
        cov = coverage_matrix(devices, stations, np.array([10.0]))
        np.testing.assert_array_equal(cov[:, 0], [True, True, False])

    def test_multi_station_overlap(self) -> None:
        devices = np.array([[5.0, 0.0]])
        stations = np.array([[0.0, 0.0], [10.0, 0.0]])
        cov = coverage_matrix(devices, stations, np.array([6.0, 6.0]))
        assert cov.sum() == 2


def reference_distances(devices: np.ndarray, stations: np.ndarray) -> np.ndarray:
    """The ``(I, K, 2)`` difference-tensor formulation, for comparison."""
    diff = devices[:, None, :] - stations[None, :, :]
    return np.sqrt(np.sum(diff * diff, axis=-1))


class TestDistancePass:
    @pytest.mark.parametrize("scale", [1.0, 6_000.0, 1e7])
    def test_bitwise_equal_to_difference_tensor(self, scale: float) -> None:
        rng = np.random.default_rng(int(scale))
        devices = rng.uniform(-scale, scale, size=(501, 2))
        stations = rng.uniform(-scale, scale, size=(17, 2))
        dist = distances(devices, stations)
        assert dist.shape == (501, 17)
        np.testing.assert_array_equal(dist, reference_distances(devices, stations))

    def test_points_on_the_radius(self) -> None:
        # Devices placed on each station's coverage circle: exactly,
        # where a Pythagorean offset scales to integers (the stations
        # sit on integer coordinates), up to rounding elsewhere and for
        # the random angles.  Coverage must be decided as before.
        rng = np.random.default_rng(4)
        stations = rng.uniform(0.0, 5_000.0, size=(6, 2)).round()
        radii = np.array([5.0, 13.0, 25.0, 500.0, 1_300.0, 2_500.0])
        offsets = [(3, 4), (-5, 12), (7, -24), (0, -1), (-1, 0)]
        points = []
        for (x, y), r in zip(stations, radii):
            for dx, dy in offsets:
                unit = r / np.hypot(dx, dy)
                points.append((x + dx * unit, y + dy * unit))
            for angle in rng.uniform(0.0, 2 * np.pi, size=32):
                points.append((x + r * np.cos(angle), y + r * np.sin(angle)))
        devices = np.array(points)
        reference = reference_distances(devices, stations)
        np.testing.assert_array_equal(distances(devices, stations), reference)
        np.testing.assert_array_equal(
            coverage_matrix(devices, stations, radii), reference <= radii
        )
        # The exact offsets really sit on the boundary, and count as in.
        on_circle = reference == radii[None, :]
        assert on_circle.sum() >= len(stations) * 3
        assert coverage_matrix(devices, stations, radii)[on_circle].all()

    def test_peak_memory_has_no_pair_tensor(self) -> None:
        # Two (I, K) float buffers at most: an (I, K, 2) difference
        # tensor next to the (I, K) result alone would take three.
        devices_n, stations_n = 20_000, 64
        rng = np.random.default_rng(0)
        devices = rng.uniform(0.0, 1e4, size=(devices_n, 2))
        stations = rng.uniform(0.0, 1e4, size=(stations_n, 2))
        radii = rng.uniform(100.0, 3_000.0, size=stations_n)
        tracemalloc.start()
        try:
            coverage_matrix(devices, stations, radii)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * devices_n * stations_n * 8


class TestBuilder:
    def test_paper_defaults(self, rng: np.random.Generator) -> None:
        network, coverage = build_paper_network(rng, num_devices=50)
        assert network.num_base_stations == 6
        assert network.num_clusters == 2
        assert network.num_servers == 16
        assert network.num_devices == 50
        # Paper: half the servers have 64 cores, half 128.
        cores = sorted(s.cores for s in network.servers)
        assert cores == [64] * 8 + [128] * 8
        # Every device covered (macro cells span the arena).
        assert np.all(coverage.any(axis=1))
        validate_network(network, coverage)

    def test_parameter_ranges_respected(self, rng: np.random.Generator) -> None:
        network, _ = build_paper_network(rng, num_devices=20)
        for bs in network.base_stations:
            assert 50e6 <= bs.access_bandwidth <= 100e6
            assert 0.5e9 <= bs.fronthaul_bandwidth <= 1.0e9
            assert bs.fronthaul_spectral_efficiency == 10.0
            assert bs.fronthaul_type is FronthaulType.WIRED
            assert len(bs.connected_clusters) == 1
        for server in network.servers:
            assert server.freq_min == 1.8
            assert server.freq_max == 3.6
            assert isinstance(server.energy_model, ScaledEnergyModel)
        assert np.all(network.suitability >= 0.5)
        assert np.all(network.suitability <= 1.0)

    def test_wireless_fronthaul_fraction(self, rng: np.random.Generator) -> None:
        builder = NetworkBuilder(num_devices=10, wireless_fronthaul_fraction=1.0)
        network, _ = builder.build(rng)
        for bs in network.base_stations:
            assert bs.fronthaul_type is FronthaulType.WIRELESS
            assert len(bs.connected_clusters) == network.num_clusters

    def test_energy_scaling_toggle(self, rng: np.random.Generator) -> None:
        plain = NetworkBuilder(num_devices=5, scale_energy_with_cores=False)
        network, _ = plain.build(rng)
        assert not isinstance(network.servers[0].energy_model, ScaledEnergyModel)

    def test_determinism_under_same_seed(self) -> None:
        a, _ = build_paper_network(np.random.default_rng(5), num_devices=15)
        b, _ = build_paper_network(np.random.default_rng(5), num_devices=15)
        np.testing.assert_allclose(a.suitability, b.suitability)
        assert [s.cores for s in a.servers] == [s.cores for s in b.servers]

    def test_invalid_configs_rejected(self) -> None:
        with pytest.raises(ConfigurationError):
            NetworkBuilder(num_devices=0)
        with pytest.raises(ConfigurationError):
            NetworkBuilder(num_macro_stations=0)
        with pytest.raises(ConfigurationError):
            NetworkBuilder(num_base_stations=2, num_macro_stations=3)


class TestValidation:
    def test_tiny_network_valid(self) -> None:
        net = make_tiny_network()
        validate_network(net)

    def test_uncovered_device_detected(self) -> None:
        net = make_tiny_network()
        coverage = np.zeros((4, 2), dtype=bool)
        coverage[:, 0] = True
        coverage[1, :] = False  # device 1 loses all coverage
        with pytest.raises(InfeasibleError) as excinfo:
            validate_network(net, coverage)
        assert excinfo.value.device == 1

    @staticmethod
    def first_infeasible(network, coverage, reaches):
        """The per-device loop the device check replaced: (message,
        device) of the first offender, or None."""
        for i in range(network.num_devices):
            covered = np.flatnonzero(coverage[i])
            label = network.devices[i].label
            if covered.size == 0:
                return f"{label} is covered by no base station", i
            if not any(reaches[k] for k in covered):
                return f"{label} has no feasible (base station, server) pair", i
        return None

    def test_lowest_uncovered_device_named(self) -> None:
        network, coverage = build_paper_network(
            np.random.default_rng(2), num_devices=60
        )
        coverage = coverage.copy()
        coverage[[41, 7, 23]] = False
        with pytest.raises(
            InfeasibleError, match="^D7 is covered by no base station$"
        ) as excinfo:
            validate_network(network, coverage)
        assert excinfo.value.device == 7

    def test_both_kinds_lowest_index_named(self) -> None:
        # A station that reaches no server is a TopologyError before
        # any device is checked, so devices of the second kind (covered
        # only by such stations) are driven through the device check.
        from repro.network.validation import _check_devices

        rng = np.random.default_rng(11)
        network, _ = build_paper_network(
            rng, num_devices=40, num_base_stations=6, num_macro_stations=1
        )
        seen = set()
        for _ in range(300):
            coverage = rng.uniform(size=(40, 6)) < 0.25
            reaches = rng.uniform(size=6) < 0.6
            expected = self.first_infeasible(network, coverage, reaches)
            if expected is None:
                _check_devices(network, coverage, reaches)
                continue
            with pytest.raises(InfeasibleError) as excinfo:
                _check_devices(network, coverage, reaches)
            assert (str(excinfo.value), excinfo.value.device) == expected
            seen.add(expected[0].split(" ", 1)[1])
        assert seen == {
            "is covered by no base station",
            "has no feasible (base station, server) pair",
        }

    def test_wrong_coverage_shape_rejected(self) -> None:
        net = make_tiny_network()
        with pytest.raises(TopologyError):
            validate_network(net, np.ones((2, 2), dtype=bool))

    def test_energy_convexity_check_runs(self) -> None:
        net = make_tiny_network()
        validate_network(net, check_energy_convexity=True)
