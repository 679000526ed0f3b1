"""Tests for the multi-cell sharding layer.

Covers the three pillars: cell-partition invariants (every entity in
exactly one cell, coverage preserved), budget-coordinator conservation
(per-cell budgets sum exactly to ``Cbar`` every epoch), and the sharded
engine's reproducibility contract (1 cell bit-identical to the
unsharded facade; pooled execution bit-identical to sequential).
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import shutil
import signal
from pathlib import Path
from tempfile import TemporaryDirectory

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro import sharding
from repro.core.budget import BudgetCoordinator, CoordinatedBudget
from repro.exceptions import ConfigurationError
from repro.radio.mobility import RandomWaypointMobility
from repro.sim.checkpoint import Checkpoint

from conftest import Halted, fingerprint, halt_after_checkpoint

#: ``metro_scenario(5)`` over 8 slots, produced identically by the
#: unsharded facade and the 1-cell sharded engine; pinned when the
#: sharding layer landed.
ONE_CELL_FINGERPRINT = (
    "93b7ee91b2dd78a940aa022c6e81c81b3881200026ce8eb719e59b826bad8809"
)

DATA = Path(__file__).parent / "data"


def metro_scenario(
    seed: int = 9,
    *,
    devices: int = 24,
    base_stations: int = 4,
    clusters: int = 2,
    **extra,
) -> repro.Scenario:
    """A small all-macro, all-wireless topology that partitions cleanly."""
    return repro.make_paper_scenario(
        seed,
        config=repro.ScenarioConfig(num_devices=devices),
        num_base_stations=base_stations,
        num_macro_stations=base_stations,
        wireless_fronthaul_fraction=1.0,
        num_clusters=clusters,
        servers_per_cluster=2,
        **extra,
    )


def cells_config(**cells) -> repro.RunConfig:
    """Default run settings with the sharding block set to *cells*."""
    return repro.RunConfig(cells=repro.CellConfig(**cells))


def trajectories(result) -> tuple:
    return (result.latency, result.cost, result.theta, result.backlog, result.price)


def assert_identical(a, b) -> None:
    for left, right in zip(trajectories(a), trajectories(b)):
        np.testing.assert_array_equal(left, right)


@contextlib.contextmanager
def worker_fault(kind: str, epoch: int, worker: int):
    """Inject one fault into resident worker *worker* at the *epoch*-th
    epoch command it is sent.  ``"kill"`` sends it SIGKILL right after
    that dispatch; ``"hang"`` sends it SIGSTOP right before, so it never
    reads the command and only the heartbeat watchdog can catch it.
    Yields a dict whose ``"fired"`` entry says whether it happened."""
    from repro.sim.shard_runtime import ResidentWorker

    send = ResidentWorker.send
    state = {"sent": 0, "fired": False}

    def faulty(self, command, data=None) -> None:
        if command != "epoch" or self.index != worker or state["fired"]:
            return send(self, command, data)
        if state["sent"] < epoch:
            state["sent"] += 1
            return send(self, command, data)
        state["fired"] = True
        if kind == "hang":
            os.kill(self.process.pid, signal.SIGSTOP)
        send(self, command, data)
        if kind == "kill":
            os.kill(self.process.pid, signal.SIGKILL)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ResidentWorker, "send", faulty)
        yield state


class TestPartitionCells:
    def test_every_entity_in_exactly_one_cell(self) -> None:
        scenario = metro_scenario()
        network = scenario.network
        plan = sharding.partition_cells(
            network, 2, rng=np.random.default_rng(3)
        )
        for attr, total in (
            ("base_stations", network.num_base_stations),
            ("clusters", len(network.clusters)),
            ("servers", network.num_servers),
            ("devices", network.num_devices),
        ):
            seen = [i for cell in plan.cells for i in getattr(cell, attr)]
            assert sorted(seen) == list(range(total)), attr

    def test_device_counts_cover_population(self) -> None:
        scenario = metro_scenario(devices=30)
        plan = sharding.partition_cells(
            scenario.network, 3, rng=np.random.default_rng(0)
        )
        assert int(plan.device_counts().sum()) == 30
        assert plan.num_cells <= 3

    def test_single_cell_plan_is_trivial(self) -> None:
        network = metro_scenario().network
        plan = sharding.partition_cells(network, 1)
        assert plan.num_cells == 1
        assert plan.cells[0].num_devices == network.num_devices

    def test_invalid_cell_counts_rejected(self) -> None:
        network = metro_scenario().network
        with pytest.raises(ConfigurationError, match="num_cells"):
            sharding.partition_cells(network, 0)
        with pytest.raises(ConfigurationError, match="base stations"):
            sharding.partition_cells(network, network.num_base_stations + 1)

    def test_extract_subnetwork_renumbers_consistently(self) -> None:
        scenario = metro_scenario()
        plan = sharding.partition_cells(
            scenario.network, 2, rng=np.random.default_rng(3)
        )
        for cell in plan.cells:
            subnetwork, maps = sharding.extract_subnetwork(
                scenario.network, cell
            )
            assert subnetwork.num_devices == len(cell.devices)
            assert subnetwork.num_base_stations == len(cell.base_stations)
            assert subnetwork.num_servers == len(cell.servers)
            assert maps.devices == cell.devices
            # Positions survive the renumbering: local device j is
            # global device maps.devices[j].
            np.testing.assert_array_equal(
                subnetwork.device_positions(),
                scenario.network.device_positions()[list(maps.devices)],
            )

    def test_uncovered_device_rejected(self) -> None:
        from dataclasses import replace

        from conftest import make_tiny_network
        from repro.network.topology import MECNetwork

        tiny = make_tiny_network()
        devices = list(tiny.devices)
        for i in (3, 1):
            devices[i] = replace(devices[i], position=(50_000.0, 0.0))
        network = MECNetwork(
            tiny.base_stations, tiny.clusters, tiny.servers,
            tuple(devices), tiny.suitability,
        )
        with pytest.raises(
            ConfigurationError, match="^device 1 is covered by no base station"
        ):
            sharding.partition_cells(network, 2)

    def test_extract_subnetwork_keeps_device_names(self) -> None:
        scenario = metro_scenario()
        cell = sharding.partition_cells(
            scenario.network, 2, rng=np.random.default_rng(3)
        ).cells[1]
        subnetwork, _ = sharding.extract_subnetwork(scenario.network, cell)
        for local, g in enumerate(cell.devices):
            device = subnetwork.devices[local]
            assert device.index == local
            assert device.position == scenario.network.devices[g].position
            assert device.label == f"D{local}"

    #: (seed, devices, topology overrides, cells, restarts) -> pinned
    #: plan: (cells kept, score, sha256 over every cell's member
    #: tuples).  A speed-up must leave every plan exactly as it is.
    #: "empty-cell-merge" folds dead cells into neighbours on every
    #: restart.
    PINNED_PLANS = {
        "metro-1024x8": (
            (7, 1024, dict(
                num_base_stations=8, num_macro_stations=8,
                wireless_fronthaul_fraction=1.0, num_clusters=8,
                servers_per_cluster=2,
            ), 8, 8),
            (8, 0.612148137134203,
             "2a069fcc79bc3836cdb279fda9f4f24981ff0028b49eec5867020c5c71e0c8ee"),
        ),
        "wired-small-cells": (
            (3, 200, dict(
                num_base_stations=12, num_macro_stations=1,
                small_cell_radius_range=(300.0, 900.0), area_size=4000.0,
            ), 4, 8),
            (2, 0.5986670173771325,
             "8d67499629efcabbbd377491ecae5834e3ad3932e8053472c894cb2f25c75f30"),
        ),
        "mixed-fronthaul": (
            (5, 300, dict(
                num_base_stations=16, num_macro_stations=4,
                wireless_fronthaul_fraction=0.5, num_clusters=6,
                servers_per_cluster=2, macro_radius=4000.0,
            ), 10, 4),
            (6, 0.6263201427484608,
             "cf38b2728ee3546c69de09108884cc01efb728f3ccc38b47ab1699d527d85e51"),
        ),
        "empty-cell-merge": (
            (9, 150, dict(
                num_base_stations=16, num_macro_stations=2,
                small_cell_radius_range=(5.0, 10.0), num_clusters=4,
                servers_per_cluster=2, wireless_fronthaul_fraction=0.5,
            ), 8, 3),
            (2, 0.5308870510025296,
             "311f07b8d9a3ded665ebc28d2310d8428254f2de22ab455985e08bc94c8035cf"),
        ),
    }

    @pytest.mark.parametrize("case", sorted(PINNED_PLANS))
    def test_plans_match_pinned(self, case) -> None:
        (seed, devices, topology, cells, restarts), pinned = (
            self.PINNED_PLANS[case]
        )
        scenario = repro.make_paper_scenario(
            seed, config=repro.ScenarioConfig(num_devices=devices), **topology
        )
        plan = sharding.partition_cells(
            scenario.network, cells,
            rng=np.random.default_rng(seed), restarts=restarts,
        )
        members = [
            (c.index, c.base_stations, c.clusters, c.servers, c.devices)
            for c in plan.cells
        ]
        digest = hashlib.sha256(repr(members).encode()).hexdigest()
        assert (plan.num_cells, plan.score, digest) == pinned

    def test_empty_cells_are_merged(self, monkeypatch) -> None:
        from repro.network import partition

        merged = []
        original = partition._merge_empty_cells

        def spy(network, bs_cell, *rest):
            out = original(network, bs_cell, *rest)
            merged.append(not np.array_equal(out[0], bs_cell))
            return out

        monkeypatch.setattr(partition, "_merge_empty_cells", spy)
        self.test_plans_match_pinned("empty-cell-merge")
        assert merged and all(merged)


class TestBudgetCoordinator:
    def test_budgets_conserve_total_every_epoch(self) -> None:
        coordinator = BudgetCoordinator(2.0, np.array([3.0, 1.0, 2.0]))
        rng = np.random.default_rng(1)
        assert coordinator.budgets().sum() == pytest.approx(2.0, abs=1e-12)
        for _ in range(20):
            budgets = coordinator.update(rng.random(3))
            assert budgets.sum() == pytest.approx(2.0, abs=1e-12)
            assert (budgets > 0).all()

    def test_static_mode_keeps_initial_split(self) -> None:
        coordinator = BudgetCoordinator(
            1.0, np.array([1.0, 1.0]), mode="static"
        )
        initial = coordinator.budgets()
        updated = coordinator.update(np.array([5.0, 0.1]))
        np.testing.assert_array_equal(updated, initial)

    def test_proportional_mode_follows_spend(self) -> None:
        coordinator = BudgetCoordinator(
            1.0, np.array([1.0, 1.0]), smoothing=0.0
        )
        budgets = coordinator.update(np.array([3.0, 1.0]))
        assert budgets[0] > budgets[1]

    def test_zero_spend_falls_back_to_fair_shares(self) -> None:
        coordinator = BudgetCoordinator(1.0, np.array([1.0, 3.0]))
        budgets = coordinator.update(np.zeros(2))
        assert budgets.sum() == pytest.approx(1.0, abs=1e-12)
        assert budgets[1] > budgets[0]

    def test_invalid_inputs_rejected(self) -> None:
        with pytest.raises(ConfigurationError, match="mode"):
            BudgetCoordinator(1.0, np.ones(2), mode="greedy")
        with pytest.raises(ConfigurationError, match="positive"):
            BudgetCoordinator(0.0, np.ones(2))
        coordinator = BudgetCoordinator(1.0, np.ones(2))
        with pytest.raises(ConfigurationError, match="spends"):
            coordinator.update(np.ones(3))
        with pytest.raises(ConfigurationError, match="non-negative"):
            coordinator.update(np.array([-1.0, 0.0]))

    def test_coordinated_budget_is_a_schedule(self) -> None:
        schedule = CoordinatedBudget(0.5)
        assert schedule.budget_at(0) == 0.5
        schedule.set(0.25)
        assert schedule.budget_at(7) == 0.25
        assert schedule.average == 0.25
        with pytest.raises(ConfigurationError):
            schedule.set(-1.0)


class TestShardScenarios:
    def test_one_cell_returns_the_scenario_itself(self) -> None:
        scenario = metro_scenario()
        plan = sharding.partition_cells(scenario.network, 1)
        shards = sharding.shard_scenarios(scenario, plan)
        assert len(shards) == 1 and shards[0] is scenario

    def test_cells_get_independent_scenarios(self) -> None:
        scenario = metro_scenario()
        plan = sharding.partition_cells(
            scenario.network, 2, rng=np.random.default_rng(3)
        )
        shards = sharding.shard_scenarios(scenario, plan)
        assert len(shards) == plan.num_cells
        assert sum(s.network.num_devices for s in shards) == 24
        budgets = sum(s.budget for s in shards)
        assert budgets == pytest.approx(scenario.budget)
        # Child seed banks give each cell its own streams.
        seeds = {s.seeds.seed for s in shards}
        assert len(seeds) == len(shards)

    def test_mobility_is_rejected(self) -> None:
        scenario = metro_scenario(mobility=RandomWaypointMobility(6000.0))
        plan = sharding.partition_cells(
            scenario.network, 2, rng=np.random.default_rng(3)
        )
        with pytest.raises(ConfigurationError, match="static mobility"):
            sharding.shard_scenarios(scenario, plan)

    def test_capability_check_names_feature_and_fallback(self) -> None:
        # The structured check names the offending feature and the
        # working flag combination, not just "unsupported".
        scenario = metro_scenario(mobility=RandomWaypointMobility(6000.0))
        plan = sharding.partition_cells(
            scenario.network, 2, rng=np.random.default_rng(3)
        )
        with pytest.raises(ConfigurationError) as excinfo:
            sharding.shard_scenarios(scenario, plan)
        message = str(excinfo.value)
        assert "cannot be sharded" in message
        assert "RandomWaypointMobility" in message
        assert "cells=1" in message


class TestFaultPlanSharding:
    """Projecting a global :class:`FaultPlan` onto cell subnetworks."""

    def test_incident_targets_remap_to_local_indices(self) -> None:
        from repro.sim.faults import ScriptedIncident

        incident = ScriptedIncident(
            at=1, duration=2, kind="bs_down", targets=(1, 3)
        )
        # A cell owning global base stations 1 and 2: global 1 becomes
        # local 0, global 3 lies outside and is dropped.
        local = incident.subset((1, 2), ())
        assert local.targets == (0,)
        assert local.at == 1 and local.duration == 2

    def test_incident_outside_cell_is_dropped(self) -> None:
        from repro.sim.faults import ScriptedIncident

        incident = ScriptedIncident(
            at=0, duration=1, kind="server_down", targets=(3,)
        )
        assert incident.subset((), (0, 1)) is None

    def test_price_freeze_kept_in_every_cell(self) -> None:
        from repro.sim.faults import ScriptedIncident

        incident = ScriptedIncident(at=2, duration=3, kind="price_freeze")
        assert incident.subset((), ()) is incident

    def test_plan_subset_projects_faults_and_schedule(self) -> None:
        from repro.sim.faults import (
            BaseStationOutages,
            FaultPlan,
            PriceFeedDropouts,
            ScriptedIncident,
        )

        plan = FaultPlan(
            faults=(BaseStationOutages(), PriceFeedDropouts()),
            schedule=[
                ScriptedIncident(at=0, duration=2, kind="price_freeze"),
                ScriptedIncident(
                    at=1, duration=1, kind="bs_down", targets=(0, 1)
                ),
                ScriptedIncident(
                    at=2, duration=1, kind="bs_down", targets=(3,)
                ),
            ],
        )
        local = plan.subset((0, 1, 2), (0, 1), (0,))
        assert len(local.faults) == len(plan.faults)
        # price_freeze survives, bs_down (0,1) remaps, bs_down (3,)
        # lies outside the cell and is dropped.
        kinds = [i.kind for i in local.incidents]
        assert kinds == ["price_freeze", "bs_down"]
        assert local.incidents[1].targets == (0, 1)

    def test_shards_carry_projected_plans(self) -> None:
        from repro.sim.faults import (
            BaseStationOutages,
            FaultPlan,
            ScriptedIncident,
        )

        scenario = metro_scenario(
            fault_plan=FaultPlan(
                faults=(BaseStationOutages(),),
                schedule=[
                    ScriptedIncident(
                        at=1, duration=2, kind="bs_down", targets=(0, 1, 2, 3)
                    )
                ],
            )
        )
        plan = sharding.partition_cells(
            scenario.network, 2, rng=np.random.default_rng(3)
        )
        shards = sharding.shard_scenarios(scenario, plan)
        for shard, cell in zip(shards, plan.cells):
            assert shard.fault_plan is not None
            incident = shard.fault_plan.incidents[0]
            # The global outage spans every base station, so each cell
            # sees exactly its own stations, renumbered locally.
            assert incident.targets == tuple(range(len(cell.base_stations)))


class TestShardedRun:
    def test_one_cell_bit_identical_to_unsharded(self) -> None:
        baseline = repro.api.run(scenario=metro_scenario(), horizon=6)
        sharded = sharding.run_sharded(
            metro_scenario(), horizon=6, cells=1, epoch=3
        )
        assert_identical(baseline, sharded.merged)
        assert sharded.plan.num_cells == 1
        # The pinned case, through the facade's cells= route.
        unsharded = repro.api.run(scenario=metro_scenario(5), horizon=8)
        one_cell = repro.api.run(
            scenario=metro_scenario(5), horizon=8, cells=1
        )
        assert (
            fingerprint(one_cell) == fingerprint(unsharded)
            == ONE_CELL_FINGERPRINT
        )

    def test_merged_metrics_sum_across_cells(self) -> None:
        scenario = metro_scenario()
        plan = sharding.partition_cells(
            scenario.network, 2, rng=np.random.default_rng(3)
        )
        result = sharding.run_sharded(scenario, horizon=6, cells=plan, epoch=3)
        assert result.merged.horizon == 6
        cell_cost = sum(c.mean_cost for c in result.cells)
        assert result.merged.time_average_cost() == pytest.approx(cell_cost)

    def test_budgets_conserved_across_epochs(self) -> None:
        scenario = metro_scenario()
        plan = sharding.partition_cells(
            scenario.network, 2, rng=np.random.default_rng(3)
        )
        result = sharding.run_sharded(scenario, horizon=6, cells=plan, epoch=2)
        assert result.budgets.shape == (3, plan.num_cells)
        np.testing.assert_allclose(
            result.budgets.sum(axis=1), scenario.budget, rtol=0, atol=1e-12
        )
        # The same on the pinned scenario, partitioned by its own seed
        # bank: every device lands in a cell and the run completes.
        scenario = metro_scenario(5)
        plan = sharding.partition_cells(
            scenario.network, 2, rng=scenario.seeds.rng("cell-partition")
        )
        assert int(plan.device_counts().sum()) == 24
        result = sharding.run_sharded(scenario, horizon=8, cells=plan, epoch=4)
        assert result.merged.horizon == 8
        np.testing.assert_allclose(
            result.budgets.sum(axis=1), scenario.budget, rtol=0, atol=1e-12
        )
        # With a floor that binds, only the renormalisation conserves.
        result = sharding.run_sharded(
            metro_scenario(5), horizon=8, cells=plan, epoch=4,
            floor_fraction=0.9,
        )
        np.testing.assert_allclose(
            result.budgets.sum(axis=1), scenario.budget, rtol=0, atol=1e-12
        )

    def test_pooled_matches_sequential(self) -> None:
        scenario = metro_scenario()
        plan = sharding.partition_cells(
            scenario.network, 2, rng=np.random.default_rng(3)
        )
        sequential = sharding.run_sharded(
            scenario, horizon=4, cells=plan, epoch=2
        )
        pooled = sharding.run_sharded(
            metro_scenario(), horizon=4, cells=plan, epoch=2, processes=2
        )
        assert_identical(sequential.merged, pooled.merged)

    def test_cell_summaries_judged_against_applied_shares(self) -> None:
        # Proportional pacing moves the shares every epoch, and the
        # last epoch is short (7 = 3 + 3 + 1), so a cell's verdict must
        # use the slot-weighted mean of the shares it actually ran
        # under -- not the split computed for an epoch that never runs.
        scenario = metro_scenario()
        plan = sharding.partition_cells(
            scenario.network, 2, rng=np.random.default_rng(3)
        )
        ctrl = sharding.ShardedController(
            metro_scenario(),
            repro.RunConfig(
                budget=1.2 * scenario.budget, cells=repro.CellConfig(epoch=3)
            ),
            plan=plan,
        )
        result = ctrl.run(7)
        assert not np.allclose(result.budgets[0], result.budgets[1])
        lengths = np.array([3.0, 3.0, 1.0])
        applied = lengths @ result.budgets / lengths.sum()
        unapplied = ctrl.coordinator.budgets()
        verdicts = [
            bool(c.mean_cost <= applied[i] + 1e-9)
            for i, c in enumerate(result.cells)
        ]
        assert [c.budget_satisfied for c in result.cells] == verdicts
        # The case discriminates: cell 0 meets its applied share but
        # not the never-applied next split.
        assert verdicts[0] and result.cells[0].mean_cost > unapplied[0]

    def test_fixed_controller_rejected(self) -> None:
        with pytest.raises(ConfigurationError, match="fixed"):
            sharding.ShardedController(
                metro_scenario(),
                repro.RunConfig(controller="fixed", cells=repro.CellConfig(2)),
            )

    def test_runtime_option_removed(self) -> None:
        # One pooled runtime: ``runtime=`` is an unknown knob everywhere.
        with pytest.raises(ConfigurationError, match="runtime"):
            sharding.ShardedController(
                metro_scenario(),
                repro.RunConfig(
                    cells=repro.CellConfig(2),
                    controller_params={"runtime": "resident"},
                ),
            )
        with pytest.raises(ConfigurationError, match="runtime"):
            sharding.run_sharded(
                metro_scenario(), horizon=2, cells=2, runtime="resident"
            )
        with pytest.raises(TypeError, match="runtime"):
            repro.CellConfig(runtime="resident")

    @pytest.mark.parametrize(
        "option", [{"shared_states": True}, {"carry_every": 1}]
    )
    def test_removed_worker_knobs_rejected(self, option) -> None:
        # Shared memory is derived from the scenario and carries are
        # pulled at checkpoint writes; neither knob exists anywhere.
        (name,) = option
        with pytest.raises(ConfigurationError, match=name):
            sharding.ShardedController(
                metro_scenario(),
                repro.RunConfig(
                    cells=repro.CellConfig(2), controller_params=option
                ),
            )
        with pytest.raises(ConfigurationError, match=name):
            sharding.run_sharded(
                metro_scenario(), horizon=2, cells=2, processes=2, **option
            )
        with pytest.raises(TypeError, match=name):
            repro.CellConfig(**option)


    def test_zero_watchdog_deadline_rejected(self) -> None:
        # A zero deadline would time out every healthy worker's first
        # poll and exhaust its retries; it is refused up front.
        with pytest.raises(ConfigurationError, match="timeout_seconds"):
            sharding.run_sharded(
                metro_scenario(), horizon=4, cells=2, epoch=2, processes=2,
                timeout_seconds=0,
            )
        with pytest.raises(ConfigurationError, match="timeout_seconds"):
            repro.api.run(
                scenario=metro_scenario(), horizon=4,
                cells=repro.CellConfig(
                    count=2, epoch=2, processes=2, timeout_seconds=0
                ),
            )

    def test_config_hash_is_pinned(self, tmp_path) -> None:
        # Shard snapshots are matched by this hash: changing what it
        # covers, or how, strands every snapshot already on disk.
        plan = sharding.partition_cells(
            metro_scenario().network, 2, rng=np.random.default_rng(3)
        )
        path = tmp_path / "shard.ckpt"
        sharding.ShardedController(
            metro_scenario(), cells_config(epoch=2), plan=plan
        ).run(8, checkpoint=path, checkpoint_every=8)
        assert Checkpoint.load(path).config_hash == "83c4d6496ed803e9"
        sharding.ShardedController(
            metro_scenario(),
            repro.RunConfig(
                v=50.0, z=2, budget=0.5,
                cells=repro.CellConfig(
                    count=2, epoch=3, coordinator="static",
                    floor_fraction=0.2, smoothing=0.3,
                ),
            ),
        ).run(12, checkpoint=path, checkpoint_every=12)
        assert Checkpoint.load(path).config_hash == "acd1fe5557ece4b9"


class TestResidentRuntime:
    """The resident-worker pooled runtime (PR 9).

    Contract: resident pooled execution is bit-identical to the
    in-process path -- through worker death (salvage replay), fault
    plans, checkpoint/resume, and with shared-memory state shipping on
    (plain streams) or off (fault plans).
    """

    def fault_plan(self):
        from repro.sim.faults import (
            FaultPlan,
            PriceFeedDropouts,
            ScriptedIncident,
            ServerOutages,
        )

        return FaultPlan(
            faults=(ServerOutages(), PriceFeedDropouts(mtbf_slots=3.0)),
            schedule=[
                ScriptedIncident(at=2, duration=3, kind="price_freeze"),
                ScriptedIncident(
                    at=1, duration=2, kind="server_down", targets=(0,)
                ),
            ],
        )

    def test_resident_matches_sequential(self) -> None:
        scenario = metro_scenario()
        plan = sharding.partition_cells(
            scenario.network, 2, rng=np.random.default_rng(3)
        )
        sequential = sharding.run_sharded(
            scenario, horizon=4, cells=plan, epoch=2
        )
        resident = sharding.run_sharded(
            metro_scenario(), horizon=4, cells=plan, epoch=2, processes=2,
        )
        assert_identical(sequential.merged, resident.merged)

    def test_one_cell_fault_plan_matches_unsharded(self) -> None:
        baseline = repro.api.run(
            scenario=metro_scenario(fault_plan=self.fault_plan()), horizon=6
        )
        sharded = sharding.run_sharded(
            metro_scenario(fault_plan=self.fault_plan()),
            horizon=6, cells=1, epoch=3,
        )
        assert_identical(baseline, sharded.merged)
        # The plan actually fired: a fault-free run differs.
        plain = repro.api.run(scenario=metro_scenario(), horizon=6)
        assert not np.array_equal(plain.price, baseline.price)

    def test_sequential_path_keeps_carry_resident(self, monkeypatch) -> None:
        # Satellite 1: without checkpoints the sequential path never
        # serializes per-cell carry state between epochs.
        from repro.sim import shard_runtime

        calls = {"carry": 0}
        original = shard_runtime.CellRuntime.carry

        def counting(self):
            calls["carry"] += 1
            return original(self)

        monkeypatch.setattr(shard_runtime.CellRuntime, "carry", counting)
        sharding.run_sharded(metro_scenario(), horizon=6, cells=2, epoch=2)
        assert calls["carry"] == 0

    def test_in_process_cell_error_propagates_unchanged(
        self, monkeypatch
    ) -> None:
        # The in-process transport never wraps, salvages or replays: the
        # first cell error surfaces as raised.
        from repro.exceptions import SolverError
        from repro.sim import shard_runtime

        calls = []
        original = shard_runtime.CellRuntime.run_epoch

        def failing(self, start, count, budget, states=None):
            calls.append((self.cell, start))
            if (self.cell, start) == (1, 2):
                raise SolverError("cell 1 diverged")
            return original(self, start, count, budget, states=states)

        monkeypatch.setattr(shard_runtime.CellRuntime, "run_epoch", failing)
        with pytest.raises(SolverError, match="^cell 1 diverged$"):
            sharding.run_sharded(metro_scenario(), horizon=6, cells=2, epoch=2)
        assert calls == [(0, 0), (1, 0), (0, 2), (1, 2)]

    def test_worker_gives_up_after_max_retries(self, monkeypatch) -> None:
        # A worker whose cells fail on every attempt is retried
        # MAX_RETRIES times, then the run ends with a SolverError and
        # leaves no worker process behind.
        import multiprocessing

        from repro.exceptions import SolverError
        from repro.sim import shard_runtime
        from repro.sim.sharded import MAX_RETRIES

        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("the patched method reaches workers only by fork")

        def failing(self, start, count, budget, states=None):
            raise SolverError(f"cell {self.cell} diverged")

        monkeypatch.setattr(shard_runtime.CellRuntime, "run_epoch", failing)
        counted: list = []

        class Counters:
            def emit(self, event: dict) -> None:
                if event["kind"] == "counter":
                    counted.append(event)

            def close(self) -> None:
                pass

        probe = repro.obs.Probe()
        probe.add_sink(Counters())
        with pytest.raises(SolverError, match="failed permanently"):
            sharding.run_sharded(
                metro_scenario(), horizon=4, cells=2, epoch=2, processes=2,
                tracer=probe,
            )
        retries = sum(
            e["value"] for e in counted
            if e["name"] == "resilience.shard_retries"
        )
        assert retries == MAX_RETRIES + 1 == 3
        assert multiprocessing.active_children() == []

    def salvage_case(
        self,
        *,
        fault_plan=None,
        kill=(1, 0),
        hang=None,
        cells=2,
        horizon=6,
        **run_options,
    ):
        scenario = metro_scenario(fault_plan=fault_plan)
        plan = sharding.partition_cells(
            scenario.network, cells, rng=np.random.default_rng(3)
        )
        undisturbed = sharding.run_sharded(
            scenario, horizon=horizon, cells=plan, epoch=2, processes=2,
        )
        extra = {"timeout_seconds": 2.0} if hang is not None else {}
        trail: list = []

        class Trail:
            def emit(self, event: dict) -> None:
                if event["kind"] in ("counter", "event"):
                    trail.append((event["kind"], event["name"]))

            def close(self) -> None:
                pass

        probe = repro.obs.Probe()
        probe.add_sink(Trail())
        ctrl = sharding.ShardedController(
            metro_scenario(fault_plan=fault_plan),
            cells_config(processes=2, epoch=2, **extra),
            plan=plan,
            tracer=probe,
        )
        fault = ("hang", *hang) if hang is not None else ("kill", *kill)
        with worker_fault(*fault) as injected:
            salvaged = ctrl.run(horizon, **run_options)
        assert injected["fired"]
        assert_identical(undisturbed.merged, salvaged.merged)
        np.testing.assert_array_equal(undisturbed.budgets, salvaged.budgets)
        # Only the heartbeat watchdog tells a hang from a death.
        hung = [("counter", "resilience.worker_hangs"), ("event", "shard.worker_hung")]
        assert [t for t in trail if t in hung] == (hung if hang else [])
        assert trail.count(("event", "shard.worker_rebuilt")) == 1

    def test_worker_death_salvage_bit_identical(self) -> None:
        self.salvage_case()

    def test_salvage_from_periodic_carry(self, tmp_path, monkeypatch) -> None:
        # The slot-4 checkpoint write pulls every cell's carry; killing
        # a worker in epoch 3 then rebuilds it by loading that carry and
        # replaying epoch 2 only (not the whole run).
        from repro.sim.shard_runtime import ResidentWorker

        commands = []
        call = ResidentWorker.call

        def recording(self, command, *args, **kwargs):
            commands.append(command)
            return call(self, command, *args, **kwargs)

        monkeypatch.setattr(ResidentWorker, "call", recording)
        self.salvage_case(
            kill=(3, 1), horizon=8,
            checkpoint=tmp_path / "shard.ckpt", checkpoint_every=4,
        )
        assert commands.count("load") == 1
        assert commands.index("load") == commands.index("replay") - 1

    def test_salvage_under_fault_plan(self) -> None:
        # The single resident worker is killed mid-run and rebuilt by
        # replay, with the plan's stochastic draws restored exactly.
        self.salvage_case(fault_plan=self.fault_plan(), cells=1)

    def test_salvage_under_multi_cell_fault_plan(self) -> None:
        self.salvage_case(fault_plan=self.fault_plan(), cells=2)

    def test_salvage_kill_during_first_epoch(self) -> None:
        # Death before any carry exists: the rebuilt worker replays
        # from the initial state.
        self.salvage_case(kill=(0, 0))

    def test_salvage_kill_during_final_epoch(self) -> None:
        self.salvage_case(kill=(2, 0))

    def test_hung_worker_watchdog_salvage(self) -> None:
        # The worker stays alive but stops responding; the heartbeat
        # watchdog detects the silence within the epoch deadline, kills
        # it, and the replayed rebuild stays bit-identical.
        self.salvage_case(hang=(1, 0))

    @staticmethod
    def record_worker_messages(monkeypatch) -> list:
        """Record the status of every message resident workers send."""
        from repro.sim.shard_runtime import ResidentWorker

        statuses: list = []
        spawn = ResidentWorker.spawn

        class Recording:
            def __init__(self, conn) -> None:
                self._conn = conn

            def recv(self):
                message = self._conn.recv()
                statuses.append(message[0])
                return message

            def __getattr__(self, name):
                return getattr(self._conn, name)

        def recording_spawn(self) -> None:
            spawn(self)
            self.conn = Recording(self.conn)

        monkeypatch.setattr(ResidentWorker, "spawn", recording_spawn)
        return statuses

    @pytest.mark.parametrize("timeout", (None, 30.0))
    def test_heartbeats_only_when_a_watchdog_is_armed(
        self, monkeypatch, timeout
    ) -> None:
        statuses = self.record_worker_messages(monkeypatch)
        baseline = sharding.run_sharded(
            metro_scenario(), horizon=4, cells=2, epoch=1
        )
        ctrl = sharding.ShardedController(
            metro_scenario(),
            cells_config(count=2, processes=2, epoch=1, timeout_seconds=timeout),
        )
        result = ctrl.run(4)
        assert statuses.count("ok") >= 4
        assert ("hb" in statuses) == (timeout is not None)
        assert_identical(baseline.merged, result.merged)

    def test_hung_worker_salvage_under_fault_plan(self) -> None:
        self.salvage_case(hang=(1, 0), fault_plan=self.fault_plan())

    def test_hang_salvage_then_checkpoint_resume(self, tmp_path) -> None:
        # Satellite: hang + kill + salvage, halted at the slot-4
        # snapshot, then resumed from the checkpoint -- the full
        # escalation ladder ends bit-identical.
        scenario = metro_scenario()
        plan = sharding.partition_cells(
            scenario.network, 2, rng=np.random.default_rng(3)
        )
        baseline = sharding.run_sharded(
            scenario, horizon=8, cells=plan, epoch=2
        )
        path = tmp_path / "shard.ckpt"
        ctrl = sharding.ShardedController(
            metro_scenario(),
            cells_config(epoch=2, processes=2, timeout_seconds=2.0),
            plan=plan,
        )
        with (
            worker_fault("hang", 1, 0) as injected,
            halt_after_checkpoint(4),
            pytest.raises(Halted),
        ):
            ctrl.run(8, checkpoint=path)
        assert injected["fired"]
        resumed = sharding.run_sharded(
            metro_scenario(), horizon=8, cells=plan, epoch=2,
            processes=2, checkpoint=path, resume=True,
        )
        assert_identical(baseline.merged, resumed.merged)
        np.testing.assert_array_equal(baseline.budgets, resumed.budgets)

    def test_stream_state_matches_eager_snapshot(self) -> None:
        # The planner keeps each fill's boundary raw and builds the
        # carry dict only when asked; it must equal the dict an eager
        # state_dict() taken right after the fill gave.
        from repro.sim.shard_runtime import SharedStatePlanner

        plan = sharding.partition_cells(
            metro_scenario().network, 2, rng=np.random.default_rng(3)
        )
        scenarios = sharding.shard_scenarios(metro_scenario(), plan)
        planner = SharedStatePlanner(scenarios, epoch=2)
        try:
            eager = {}
            for e in range(3):
                planner.fill(e, 2 * e, 2)
                eager[e] = [
                    {
                        "generator": sc.generator.state_dict(),
                        "state_rng": planner.rngs[c].bit_generator.state,
                    }
                    for c, sc in enumerate(scenarios)
                ]
            assert eager[1] != eager[2]
            # Only the double buffer's two boundaries are kept.
            for e in (1, 2):
                for c in range(len(scenarios)):
                    lazy = planner.stream_state(c, e)
                    assert lazy == eager[e][c]
                    assert isinstance(lazy["generator"]["positions"], list)
                    assert json.dumps(lazy) == json.dumps(eager[e][c])
                    assert json.loads(json.dumps(lazy)) == lazy
            with pytest.raises(KeyError):
                planner.stream_state(0, 0)
        finally:
            planner.close()

    def test_shared_memory_checkpoint_resume_bit_identical(
        self, tmp_path
    ) -> None:
        # epoch=1: the parent fills epoch e + 1 before the slot-4
        # checkpoint write, so the write must read the boundary of
        # epoch e, not the live stream.
        plan = sharding.partition_cells(
            metro_scenario().network, 2, rng=np.random.default_rng(3)
        )
        straight = sharding.run_sharded(
            metro_scenario(), horizon=8, cells=plan, epoch=1, processes=2
        )
        paths = {}
        for processes in (None, 2):
            paths[processes] = tmp_path / f"shard-{processes}.ckpt"
            ctrl = sharding.ShardedController(
                metro_scenario(),
                cells_config(epoch=1, processes=processes),
                plan=plan,
            )
            with halt_after_checkpoint(4), pytest.raises(Halted):
                ctrl.run(8, checkpoint=paths[processes], checkpoint_every=4)
        # The shared-memory writer's stream carries are byte-for-byte
        # those of the in-process writer (which snapshots eagerly).
        pooled = Checkpoint.load(paths[2])
        in_process = Checkpoint.load(paths[None])
        assert pooled.completed == in_process.completed == 4
        for ours, theirs in zip(pooled.carries, in_process.carries):
            for key in ("generator", "state_rng"):
                assert json.dumps(ours[key]) == json.dumps(theirs[key])
        resumed = sharding.run_sharded(
            metro_scenario(), horizon=8, cells=plan, epoch=1,
            processes=2, checkpoint=paths[2], resume=True,
        )
        assert_identical(straight.merged, resumed.merged)
        np.testing.assert_array_equal(straight.budgets, resumed.budgets)

    def spanning_fault_plan(self):
        from repro.sim.faults import (
            BaseStationOutages,
            FaultPlan,
            PriceFeedDropouts,
            ScriptedIncident,
        )

        return FaultPlan(
            faults=(BaseStationOutages(), PriceFeedDropouts(mtbf_slots=3.0)),
            schedule=[
                ScriptedIncident(at=2, duration=3, kind="price_freeze"),
                # One outage spanning every base station, so the
                # incident lands in both cells of the 2-cell split.
                ScriptedIncident(
                    at=1, duration=2, kind="bs_down", targets=(0, 1, 2, 3)
                ),
            ],
        )

    def test_one_cell_bs_outage_plan_matches_unsharded(self) -> None:
        baseline = repro.api.run(
            scenario=metro_scenario(fault_plan=self.spanning_fault_plan()),
            horizon=6,
        )
        sharded = sharding.run_sharded(
            metro_scenario(fault_plan=self.spanning_fault_plan()),
            horizon=6, cells=1, epoch=3,
        )
        assert_identical(baseline, sharded.merged)

    def test_multi_cell_fault_plan_all_runtimes(self) -> None:
        scenario = metro_scenario(fault_plan=self.spanning_fault_plan())
        plan = sharding.partition_cells(
            scenario.network, 2, rng=np.random.default_rng(3)
        )
        sequential = sharding.run_sharded(
            scenario, horizon=6, cells=plan, epoch=2
        )
        resident = sharding.run_sharded(
            metro_scenario(fault_plan=self.spanning_fault_plan()),
            horizon=6, cells=plan, epoch=2, processes=2,
        )
        assert_identical(sequential.merged, resident.merged)
        # The plan actually disturbed the run.
        plain = sharding.run_sharded(
            metro_scenario(), horizon=6, cells=plan, epoch=2
        )
        assert not np.array_equal(
            plain.merged.price, sequential.merged.price
        )

    def test_checkpoint_resume_cross_runtime(self, tmp_path) -> None:
        scenario = metro_scenario()
        plan = sharding.partition_cells(
            scenario.network, 2, rng=np.random.default_rng(3)
        )
        baseline = sharding.run_sharded(
            scenario, horizon=8, cells=plan, epoch=2
        )
        path = tmp_path / "shard.ckpt"
        # Sequential writer, halted after the slot-4 snapshot ...
        ctrl = sharding.ShardedController(
            metro_scenario(), cells_config(epoch=2), plan=plan
        )
        with halt_after_checkpoint(4), pytest.raises(Halted):
            ctrl.run(8, checkpoint=path)
        # ... resumed by resident pooled workers.
        resumed = sharding.run_sharded(
            metro_scenario(), horizon=8, cells=plan, epoch=2,
            processes=2, checkpoint=path, resume=True,
        )
        assert_identical(baseline.merged, resumed.merged)
        np.testing.assert_array_equal(baseline.budgets, resumed.budgets)

        # And the reverse: resident writer, sequential reader.
        path2 = tmp_path / "shard2.ckpt"
        ctrl = sharding.ShardedController(
            metro_scenario(), cells_config(epoch=2, processes=2), plan=plan
        )
        with halt_after_checkpoint(4), pytest.raises(Halted):
            ctrl.run(8, checkpoint=path2)
        resumed = sharding.run_sharded(
            metro_scenario(), horizon=8, cells=plan, epoch=2,
            checkpoint=path2, resume=True,
        )
        assert_identical(baseline.merged, resumed.merged)

    @pytest.mark.parametrize(
        "changed",
        [{"v": 5.0}, {"z": 1}, {"floor_fraction": 0.5}, {"smoothing": 0.2}],
    )
    def test_resume_rejects_changed_controller_settings(
        self, tmp_path, changed
    ) -> None:
        # A snapshot from one run must not seed a run with a different
        # trade-off or pacing: the result would be half of each.
        from repro.exceptions import CheckpointError

        plan = sharding.partition_cells(
            metro_scenario().network, 2, rng=np.random.default_rng(3)
        )
        path = tmp_path / "shard.ckpt"
        sharding.run_sharded(
            metro_scenario(), horizon=4, cells=plan, epoch=2, checkpoint=path
        )
        with pytest.raises(CheckpointError, match="different sharded run"):
            sharding.run_sharded(
                metro_scenario(), horizon=4, cells=plan, epoch=2,
                checkpoint=path, resume=True, **changed,
            )

    def test_checkpoint_config_mismatch_rejected(self, tmp_path) -> None:
        from repro.exceptions import CheckpointError

        plan = sharding.partition_cells(
            metro_scenario().network, 2, rng=np.random.default_rng(3)
        )
        path = tmp_path / "shard.ckpt"
        sharding.run_sharded(
            metro_scenario(), horizon=4, cells=plan, epoch=2, checkpoint=path
        )
        with pytest.raises(CheckpointError, match="different sharded run"):
            sharding.run_sharded(
                metro_scenario(seed=10), horizon=4, cells=plan, epoch=2,
                checkpoint=path, resume=True,
            )


class TestResume:
    def test_version_one_file_resumes_bit_identically(self, tmp_path) -> None:
        # ``data/sharded_v1.ckpt`` is a version-1 sharded snapshot taken
        # at slot 4 of this 8-slot, 2-cell run.
        path = tmp_path / "shard.ckpt"
        shutil.copy(DATA / "sharded_v1.ckpt", path)
        snapshot = Checkpoint.load(path)
        assert (snapshot.version, snapshot.completed) == (1, 4)
        plan = sharding.partition_cells(
            metro_scenario(devices=8).network, 2, rng=np.random.default_rng(3)
        )
        straight = sharding.run_sharded(
            metro_scenario(devices=8), horizon=8, cells=plan, epoch=2
        )
        resumed = sharding.run_sharded(
            metro_scenario(devices=8), horizon=8, cells=plan, epoch=2,
            checkpoint=path, resume=True,
        )
        assert_identical(straight.merged, resumed.merged)
        np.testing.assert_array_equal(straight.budgets, resumed.budgets)
        # The resumed run wrote its own snapshots under the same hash.
        assert Checkpoint.load(path).config_hash == "5fdef1a03101558b"
        assert Checkpoint.load(path).version == 2

    @settings(max_examples=16, deadline=None)
    @given(
        kill=st.integers(1, 7),
        every=st.integers(1, 4),
        faulted=st.booleans(),
        cells=st.sampled_from((1, 2)),
    )
    def test_killed_run_resumes_like_a_straight_one(
        self, kill, every, faulted, cells
    ) -> None:
        """Kill a checkpointed run at a drawn slot and resume it in fresh
        objects: one cell is the unsharded path (killed by ``on_slot``),
        two are the in-process sharded one (halted by the first write at
        or after the slot)."""
        from repro.sim.faults import FaultPlan, PriceFeedDropouts, ScriptedIncident

        horizon = 8

        def scenario() -> repro.Scenario:
            plan = FaultPlan(
                faults=(PriceFeedDropouts(mtbf_slots=3.0),),
                schedule=[ScriptedIncident(at=2, duration=3, kind="price_freeze")],
            )
            return metro_scenario(devices=12, fault_plan=plan if faulted else None)

        with TemporaryDirectory() as tmp:
            path = Path(tmp) / "run.ckpt"
            if cells == 1:
                def run(**options):
                    return repro.api.run(
                        scenario=scenario(), horizon=horizon, **options
                    )

                class Killed(Exception):
                    pass

                def killer(record) -> None:
                    if record.t + 1 == kill:
                        raise Killed

                straight = run()
                with pytest.raises(Killed):
                    run(checkpoint=path, checkpoint_every=every, on_slot=killer)
            else:
                plan = sharding.partition_cells(
                    scenario().network, 2, rng=np.random.default_rng(3)
                )

                def run(**options):
                    return sharding.run_sharded(
                        scenario(), horizon=horizon, cells=plan, epoch=1,
                        **options,
                    ).merged

                straight = run()
                with halt_after_checkpoint(kill), contextlib.suppress(Halted):
                    run(checkpoint=path, checkpoint_every=every)
            resumed = run(checkpoint=path, checkpoint_every=every, resume=True)
        assert_identical(straight, resumed)
        assert straight.backlog[-1] == resumed.backlog[-1]
