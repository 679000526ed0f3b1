"""The set-up path: build, cover, partition and split a scenario.

Devices travel as one ``(I, 2)`` position array from the builder through
the partition to the per-cell split; ``network.devices`` is built only
when read.  These tests pin what that path produces (digests recorded
before devices became arrays), bound its peak memory, and check that the
array-built network answers like a tuple-built one.
"""

from __future__ import annotations

import hashlib
import pickle
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from repro.config import ScenarioConfig, make_paper_scenario
from repro.exceptions import ConfigurationError, InfeasibleError, TopologyError
from repro.network.builder import NetworkBuilder
from repro.network.connectivity import StrategySpace
from repro.network.coverage import coverage_matrix
from repro.network.partition import (
    Cell,
    CellPlan,
    _nearest_covering_station,
    extract_subnetwork,
    partition_cells,
)
from repro.network.topology import MECNetwork, MobileDevice
from repro.network.validation import validate_network
from repro.sim.sharded import run_sharded, shard_scenarios

from conftest import make_tiny_network


def _metro(base_stations: int, clusters: int, servers: int) -> dict:
    return dict(
        num_base_stations=base_stations,
        num_macro_stations=base_stations,
        wireless_fronthaul_fraction=1.0,
        num_clusters=clusters,
        servers_per_cluster=servers,
    )


def _coverage(network: MECNetwork) -> np.ndarray:
    return coverage_matrix(
        network.device_positions(),
        network.base_station_positions(),
        np.array([b.coverage_radius for b in network.base_stations]),
    )


def _network_arrays(network: MECNetwork) -> list:
    return [
        network.device_positions(),
        network.suitability,
        network.base_station_positions(),
        network.access_bandwidth,
        network.fronthaul_bandwidth,
        network.fronthaul_se,
        network.freq_min,
        network.freq_max,
        network.cores,
        network.speed_scale,
        network.server_cluster,
        *(
            network.servers_reachable_from(k)
            for k in range(network.num_base_stations)
        ),
    ]


def _tasks_arrays(tasks) -> list:
    arrays = [np.array([tasks.num_devices])]
    for name in ("base_cycles", "base_bits"):
        if hasattr(tasks, name):
            arrays.append(getattr(tasks, name))
    return arrays


def setup_digest(scenario, plan: CellPlan) -> str:
    """sha256 over everything the set-up path produces.

    Positions, suitability and coverage of the whole network; each
    device's nearest covering station; the plan's memberships; and each
    cell's subnetwork arrays, coverage, budget and task-generator slice.
    """
    digest = hashlib.sha256()

    def feed(*arrays) -> None:
        for arr in arrays:
            arr = np.ascontiguousarray(arr)
            digest.update(f"{arr.dtype.str}{arr.shape}".encode())
            digest.update(arr.tobytes())

    network = scenario.network
    feed(network.device_positions(), network.suitability, _coverage(network))
    feed(_nearest_covering_station(network))
    for cell in plan.cells:
        feed(
            *(
                np.array(getattr(cell, kind), dtype=np.int64)
                for kind in ("base_stations", "clusters", "servers", "devices")
            )
        )
    for cell_scenario in shard_scenarios(scenario, plan):
        subnetwork = cell_scenario.network
        feed(*_network_arrays(subnetwork), _coverage(subnetwork))
        feed(np.array([cell_scenario.budget]))
        feed(*_tasks_arrays(cell_scenario.generator.tasks))
    return digest.hexdigest()


#: (make_paper_scenario arguments, cells, digest).  The digests were
#: recorded on the code that still built one MobileDevice per device and
#: whole (I, K) distance matrices.
PINNED = {
    # The all-macro giant-102k shape, scaled down to 12,800 devices.
    "metro-12800x16": (
        dict(
            seed=11,
            config=ScenarioConfig(num_devices=12_800),
            **_metro(16, 16, 1),
        ),
        16,
        "94494fbf2ad26501141a6f52357852754c05d67eea29db5f59351fe567f3a653",
    ),
    # Small cells over two macros, mixed fronthaul and per-device task
    # bases: coverage is not all-true, so the nearest covering station
    # decides each device's cell, and the task slice carries arrays.
    "mixed-3000x6": (
        dict(
            seed=3,
            config=ScenarioConfig(num_devices=3_000, workload="diurnal"),
            num_base_stations=24,
            num_macro_stations=2,
            wireless_fronthaul_fraction=0.5,
            num_clusters=6,
            servers_per_cluster=2,
        ),
        6,
        "306ccd5633c65d823a71935a17beb17ecebb2d9dcb9cc30df9256de6b330804d",
    ),
}


class TestPinnedSetup:
    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_digest_matches_pin(self, name: str) -> None:
        kwargs, cells, pinned = PINNED[name]
        kwargs = dict(kwargs)
        scenario = make_paper_scenario(kwargs.pop("seed"), **kwargs)
        plan = partition_cells(
            scenario.network, cells, rng=np.random.default_rng(5), restarts=2
        )
        assert plan.num_cells > 1
        assert setup_digest(scenario, plan) == pinned

    def test_mixed_topology_is_not_all_covered(self) -> None:
        kwargs, _, _ = PINNED["mixed-3000x6"]
        kwargs = dict(kwargs)
        network = make_paper_scenario(kwargs.pop("seed"), **kwargs).network
        coverage = _coverage(network)
        assert not coverage.all()
        nearest = _nearest_covering_station(network)
        # Some device's nearest covering station is a small cell.
        assert (nearest >= 2).any()


class TestPeakMemory:
    def test_coverage_and_partition_stay_below_one_distance_matrix(self) -> None:
        devices_n, stations_n = 20_000, 64
        network, _ = NetworkBuilder(
            num_devices=devices_n,
            num_base_stations=stations_n,
            num_macro_stations=4,
            wireless_fronthaul_fraction=1.0,
            num_clusters=8,
            servers_per_cluster=1,
        ).build(np.random.default_rng(0))
        radii = np.array([b.coverage_radius for b in network.base_stations])
        tracemalloc.start()
        try:
            coverage_matrix(
                network.device_positions(), network.base_station_positions(), radii
            )
            partition_cells(network, 8, rng=np.random.default_rng(1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < devices_n * stations_n * 8


@pytest.fixture
def made(monkeypatch) -> list:
    """Indices of the MobileDevices constructed while the test runs."""
    record: list = []
    original = MobileDevice.__init__

    def counting(self, index, *args, **kwargs):
        record.append(index)
        original(self, index, *args, **kwargs)

    monkeypatch.setattr(MobileDevice, "__init__", counting)
    return record


def _array_network(positions: np.ndarray) -> MECNetwork:
    tiny = make_tiny_network()
    return MECNetwork(
        tiny.base_stations,
        tiny.clusters,
        tiny.servers,
        positions,
        np.full((len(positions), tiny.num_servers), 0.5),
    )


def _named_network() -> MECNetwork:
    tiny = make_tiny_network()
    devices = tuple(replace(d, name=f"phone-{d.index}") for d in tiny.devices)
    return MECNetwork(
        tiny.base_stations, tiny.clusters, tiny.servers, devices, tiny.suitability
    )


class TestArrayDevices:
    def test_array_and_tuple_networks_give_equal_devices(self) -> None:
        tiny = make_tiny_network()
        built = MECNetwork(
            tiny.base_stations,
            tiny.clusters,
            tiny.servers,
            tiny.device_positions().copy(),
            tiny.suitability,
        )
        assert "devices" not in built.__dict__
        assert built.num_devices == tiny.num_devices
        assert built.devices == tiny.devices
        assert [d.label for d in built.devices] == ["D0", "D1", "D2", "D3"]
        np.testing.assert_array_equal(
            built.device_positions(), tiny.device_positions()
        )
        assert not built.device_positions().flags.writeable

    def test_positions_array_is_copied_and_shape_checked(self) -> None:
        positions = make_tiny_network().device_positions().copy()
        network = _array_network(positions)
        positions[0] = (-1.0, -1.0)
        assert network.device_positions()[0, 0] == 10.0
        with pytest.raises(TopologyError, match=r"shape \(I, 2\)"):
            _array_network(np.zeros((4, 3)))
        with pytest.raises(TopologyError, match="no devices"):
            _array_network(np.zeros((0, 2)))

    def test_names_survive_extract_subnetwork(self) -> None:
        network = _named_network()
        plan = partition_cells(network, 2, rng=np.random.default_rng(0))
        seen = []
        for cell in plan.cells:
            subnetwork, maps = extract_subnetwork(network, cell)
            for local, g in enumerate(maps.devices):
                device = subnetwork.devices[local]
                assert device.index == local
                assert device.name == f"phone-{g}"
                assert device.position == network.devices[g].position
                seen.append(g)
        assert sorted(seen) == list(range(network.num_devices))

    def test_unnamed_split_builds_no_devices(self) -> None:
        network = _array_network(make_tiny_network().device_positions())
        cell = Cell(0, (0, 1), (0, 1), (0, 1, 2), (1, 3))
        subnetwork, _ = extract_subnetwork(network, cell)
        assert subnetwork.device_names is None
        assert "devices" not in subnetwork.__dict__
        assert [d.label for d in subnetwork.devices] == ["D0", "D1"]

    @pytest.mark.parametrize("named", [False, True])
    def test_messages_name_the_device(self, named: bool) -> None:
        network = (
            _named_network()
            if named
            else _array_network(make_tiny_network().device_positions())
        )
        label = "phone-2" if named else "D2"
        coverage = _coverage(network)
        coverage[2] = False
        with pytest.raises(
            InfeasibleError, match=f"^{label} is covered by no base station$"
        ):
            validate_network(network, coverage)
        with pytest.raises(
            InfeasibleError, match=f"^{label} has an empty strategy set$"
        ):
            StrategySpace(network, coverage)

    def test_pickling_a_large_network_creates_no_device(self, made) -> None:
        positions = np.random.default_rng(0).uniform(0.0, 900.0, size=(100_000, 2))
        network = _array_network(positions)
        made.clear()  # the template network's four devices
        clone = pickle.loads(pickle.dumps(network))
        assert made == []
        assert clone.num_devices == 100_000
        np.testing.assert_array_equal(clone.device_positions(), positions)
        assert len(clone.devices) == 100_000
        assert len(made) == 100_000

    def test_build_partition_split_and_run_create_no_device(self, made) -> None:
        scenario = make_paper_scenario(
            7, config=ScenarioConfig(num_devices=400), **_metro(8, 4, 2)
        )
        plan = partition_cells(scenario.network, 4, rng=np.random.default_rng(0))
        shard_scenarios(scenario, plan)
        run_sharded(scenario, horizon=2, cells=plan, processes=1)
        assert made == []


def _small_metro_scenario():
    return make_paper_scenario(
        7,
        config=ScenarioConfig(num_devices=64),
        **_metro(8, 4, 2),
    )


class TestPlanCoverage:
    @pytest.mark.parametrize(
        "kind, noun",
        [
            ("base_stations", "base station"),
            ("clusters", "cluster"),
            ("servers", "server"),
            ("devices", "device"),
        ],
    )
    def test_run_sharded_rejects_a_plan_that_leaves_an_entity_out(
        self, kind: str, noun: str
    ) -> None:
        scenario = _small_metro_scenario()
        plan = partition_cells(scenario.network, 2)
        assert plan.num_cells == 2
        cells = list(plan.cells)
        members = getattr(cells[1], kind)
        cells[1] = replace(cells[1], **{kind: members[:-1]})
        short = CellPlan(cells=tuple(cells))
        with pytest.raises(
            ConfigurationError, match=f"^{noun} {members[-1]} is in no cell"
        ):
            run_sharded(scenario, horizon=2, cells=short, processes=1)

    def test_a_covering_plan_passes(self) -> None:
        scenario = _small_metro_scenario()
        plan = partition_cells(scenario.network, 2)
        plan.check_covers(scenario.network)
        assert len(shard_scenarios(scenario, plan)) == 2

    def test_one_cell_plan_is_checked_too(self) -> None:
        scenario = _small_metro_scenario()
        network = scenario.network
        short = CellPlan(
            cells=(
                Cell(
                    0,
                    tuple(range(network.num_base_stations)),
                    tuple(range(network.num_clusters)),
                    tuple(range(network.num_servers)),
                    tuple(range(1, network.num_devices)),
                ),
            )
        )
        with pytest.raises(ConfigurationError, match="^device 0 is in no cell"):
            shard_scenarios(scenario, short)

    def test_index_beyond_the_network_rejected(self) -> None:
        scenario = _small_metro_scenario()
        plan = partition_cells(scenario.network, 2)
        cells = list(plan.cells)
        cells[0] = replace(cells[0], devices=cells[0].devices + (64,))
        with pytest.raises(ConfigurationError, match="names device 64 but"):
            shard_scenarios(scenario, CellPlan(cells=tuple(cells)))

    def test_repeated_and_negative_members_rejected_at_construction(self) -> None:
        plan = partition_cells(_small_metro_scenario().network, 2)
        first, second = plan.cells
        repeated = replace(second, devices=second.devices + (first.devices[0],))
        with pytest.raises(
            ConfigurationError,
            match=rf"devices \[{first.devices[0]}\] appear in multiple cells",
        ):
            CellPlan(cells=(first, repeated))
        negative = replace(second, servers=(-1,) + second.servers)
        with pytest.raises(ConfigurationError, match="servers index -1 is negative"):
            CellPlan(cells=(first, negative))
