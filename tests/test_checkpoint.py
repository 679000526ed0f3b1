"""Tests for checkpoint/resume (repro.sim.checkpoint)."""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core.resilience import ResiliencePolicy, SolverChaos
from repro.exceptions import CheckpointError
from repro.sim.checkpoint import Checkpoint, run_checkpointed
from repro.sim.faults import (
    FaultPlan,
    FronthaulDegradation,
    MarkovOutages,
    PriceFeedDropouts,
    ScriptedIncident,
    ServerOutages,
)

HORIZON = 24
CONFIG = repro.ScenarioConfig(num_devices=10)
DATA = Path(__file__).parent / "data"


def make_scenario(seed: int = 19, *, faulted: bool = False) -> repro.Scenario:
    plan = None
    if faulted:
        plan = FaultPlan(
            faults=(
                ServerOutages(MarkovOutages(mtbf_slots=15.0, mttr_slots=3.0)),
                FronthaulDegradation(mtbf_slots=12.0, mttr_slots=4.0, factor=0.4),
                PriceFeedDropouts(mtbf_slots=10.0, mttr_slots=3.0),
            ),
            schedule=[
                ScriptedIncident(at=8, duration=4, kind="price_freeze")
            ],
        )
    return repro.make_paper_scenario(
        seed=seed, config=CONFIG, fault_plan=plan
    )


def make_controller(
    scenario: repro.Scenario, *, v: float = 100.0, z: int = 1
) -> repro.DPPController:
    return repro.DPPController(
        scenario.network,
        scenario.controller_rng("ckpt"),
        v=v,
        budget=scenario.budget,
        z=z,
        resilience=ResiliencePolicy(
            chaos=SolverChaos(failure_rate=0.1, seed=2)
        ),
    )


def plain_run(*, faulted: bool = False) -> repro.SimulationResult:
    scenario = make_scenario(faulted=faulted)
    states = scenario.fresh_compiled_states(HORIZON)
    return repro.run_simulation(
        make_controller(scenario), states, budget=scenario.budget
    )


class _Kill(Exception):
    pass


def killer_at(slot: int):
    seen = {"n": 0}

    def killer(record) -> None:
        seen["n"] += 1
        if seen["n"] == slot:
            raise _Kill

    return killer


def assert_same_run(a: repro.SimulationResult, b: repro.SimulationResult) -> None:
    """Bit-identical trajectories: exact equality, no tolerance."""
    assert np.array_equal(a.latency, b.latency)
    assert np.array_equal(a.cost, b.cost)
    assert np.array_equal(a.backlog, b.backlog)
    assert a.backlog[-1] == b.backlog[-1]


class TestUninterrupted:
    @pytest.mark.parametrize("faulted", [False, True])
    def test_checkpointed_matches_plain(self, tmp_path, faulted) -> None:
        scenario = make_scenario(faulted=faulted)
        checkpointed = run_checkpointed(
            scenario,
            make_controller(scenario),
            horizon=HORIZON,
            path=tmp_path / "run.ckpt",
            every=7,
        )
        assert_same_run(plain_run(faulted=faulted), checkpointed)

    def test_snapshot_lands_on_disk(self, tmp_path) -> None:
        path = tmp_path / "run.ckpt"
        scenario = make_scenario()
        run_checkpointed(
            scenario, make_controller(scenario),
            horizon=HORIZON, path=path, every=8,
        )
        snapshot = Checkpoint.load(path)
        assert snapshot.completed == HORIZON
        assert snapshot.horizon == HORIZON
        assert len(snapshot.metrics[0]["latency"]) == HORIZON
        # The file is plain JSON: inspectable and diffable.
        assert json.loads(path.read_text())["version"] == 2


class TestResume:
    @pytest.mark.parametrize("faulted", [False, True])
    def test_killed_run_resumes_bit_identically(self, tmp_path, faulted) -> None:
        """The acceptance criterion: kill mid-run, resume in fresh
        objects, and the full-horizon trajectories plus the final
        virtual queue match the uninterrupted run exactly."""
        path = tmp_path / "run.ckpt"
        scenario = make_scenario(faulted=faulted)
        with pytest.raises(_Kill):
            run_checkpointed(
                scenario,
                make_controller(scenario),
                horizon=HORIZON,
                path=path,
                every=6,
                on_slot=killer_at(HORIZON // 2 + 2),
            )
        snapshot = Checkpoint.load(path)
        assert 0 < snapshot.completed < HORIZON
        fresh = make_scenario(faulted=faulted)  # brand-new objects
        resumed = run_checkpointed(
            fresh,
            make_controller(fresh),
            horizon=HORIZON,
            path=path,
            every=6,
            resume=True,
        )
        assert_same_run(plain_run(faulted=faulted), resumed)

    def test_snapshot_with_previous_freqs_resumes(self, tmp_path) -> None:
        """Snapshots written before the frequency carry-over knob was
        removed still hold a ``previous_freqs`` key; resume ignores it
        and stays bit-identical to the uninterrupted run."""
        path = tmp_path / "run.ckpt"
        scenario = make_scenario()
        with pytest.raises(_Kill):
            run_checkpointed(
                scenario,
                make_controller(scenario),
                horizon=HORIZON,
                path=path,
                every=6,
                on_slot=killer_at(HORIZON // 2 + 2),
            )
        data = json.loads(path.read_text())
        controller_state = data["carries"][0]["controller"]
        assert "previous_freqs" not in controller_state
        controller_state["previous_freqs"] = controller_state["last_frequencies"]
        path.write_text(json.dumps(data))
        fresh = make_scenario()
        resumed = run_checkpointed(
            fresh,
            make_controller(fresh),
            horizon=HORIZON,
            path=path,
            every=6,
            resume=True,
        )
        assert_same_run(plain_run(), resumed)

    def test_resume_without_snapshot_starts_fresh(self, tmp_path) -> None:
        scenario = make_scenario()
        result = run_checkpointed(
            scenario,
            make_controller(scenario),
            horizon=HORIZON,
            path=tmp_path / "missing.ckpt",
            every=8,
            resume=True,
        )
        assert_same_run(plain_run(), result)

    def test_mismatched_config_is_refused(self, tmp_path) -> None:
        path = tmp_path / "run.ckpt"
        scenario = make_scenario()
        run_checkpointed(
            scenario, make_controller(scenario),
            horizon=HORIZON, path=path, every=8,
        )
        # Another seed, V or z each make it another run.
        for seed, knobs in ((99, {}), (19, {"v": 5.0}), (19, {"z": 2})):
            other = make_scenario(seed=seed)
            with pytest.raises(CheckpointError, match="different run"):
                run_checkpointed(
                    other, make_controller(other, **knobs),
                    horizon=HORIZON, path=path, every=8, resume=True,
                )

    def test_mismatched_horizon_is_refused(self, tmp_path) -> None:
        path = tmp_path / "run.ckpt"
        scenario = make_scenario()
        run_checkpointed(
            scenario, make_controller(scenario),
            horizon=HORIZON, path=path, every=8,
        )
        snapshot = Checkpoint.load(path)
        # Same config hash would require the same horizon; fake a stale
        # snapshot by rewriting only the horizon fields.
        snapshot.horizon = HORIZON + 8
        snapshot.write(path)
        with pytest.raises(CheckpointError):
            run_checkpointed(
                scenario, make_controller(scenario),
                horizon=HORIZON + 8, path=path, every=8, resume=True,
            )


class TestVersionOneFile:
    """``data/run_v1.ckpt`` is a version-1 unsharded snapshot, with its
    seven fields of its own, taken at slot 4 of the 8-slot run below."""

    @staticmethod
    def scenario() -> repro.Scenario:
        plan = FaultPlan(
            faults=(ServerOutages(), PriceFeedDropouts(mtbf_slots=3.0)),
            schedule=[ScriptedIncident(at=2, duration=3, kind="price_freeze")],
        )
        return repro.make_paper_scenario(
            seed=5, config=repro.ScenarioConfig(num_devices=8), fault_plan=plan
        )

    @staticmethod
    def controller(scenario: repro.Scenario) -> repro.DPPController:
        return repro.DPPController(
            scenario.network, scenario.controller_rng("ckpt"), v=100.0,
            budget=scenario.budget / 2, z=1, engine_backend="numpy",
        )

    def run(self, path, **options) -> repro.SimulationResult:
        scenario = self.scenario()
        return run_checkpointed(
            scenario, self.controller(scenario), horizon=8, path=path,
            budget=scenario.budget / 2, every=4, **options,
        )

    def test_resumes_bit_identically(self, tmp_path) -> None:
        path = tmp_path / "run.ckpt"
        shutil.copy(DATA / "run_v1.ckpt", path)
        snapshot = Checkpoint.load(path)
        assert (snapshot.version, snapshot.completed) == (1, 4)
        assert len(snapshot.carries) == 1 and "plan_rng" in snapshot.carries[0]
        resumed = self.run(path, resume=True)
        scenario = self.scenario()
        straight = repro.run_simulation(
            self.controller(scenario),
            scenario.fresh_compiled_states(8),
            budget=scenario.budget / 2,
        )
        assert_same_run(straight, resumed)
        assert straight.backlog[-1] > 0  # the queue is live

    def test_config_hash_is_pinned(self, tmp_path) -> None:
        # Snapshots are matched by this hash: changing what it covers,
        # or how, strands every snapshot already on disk.
        self.run(tmp_path / "run.ckpt")
        written = Checkpoint.load(tmp_path / "run.ckpt").config_hash
        assert written == "fd355141a54362ae"
        assert Checkpoint.load(DATA / "run_v1.ckpt").config_hash == written


class TestGuards:
    def test_bad_interval_rejected(self, tmp_path) -> None:
        scenario = make_scenario()
        with pytest.raises(CheckpointError):
            run_checkpointed(
                scenario, make_controller(scenario),
                horizon=4, path=tmp_path / "x.ckpt", every=0,
            )

    def test_controller_without_state_dict_rejected(self, tmp_path) -> None:
        scenario = make_scenario()
        controller = repro.baselines.FixedFrequencyController(
            scenario.network, np.random.default_rng(0),
            fraction=0.5, budget=scenario.budget,
        )
        if hasattr(controller, "state_dict"):
            pytest.skip("baseline grew checkpoint support")
        with pytest.raises(CheckpointError, match="state_dict"):
            run_checkpointed(
                scenario, controller,
                horizon=4, path=tmp_path / "x.ckpt",
            )

    def test_corrupt_snapshot_is_a_checkpoint_error(self, tmp_path) -> None:
        path = tmp_path / "bad.ckpt"
        path.write_text("{not json")
        with pytest.raises(CheckpointError):
            Checkpoint.load(path)
        path.write_text('{"foo": 1}')
        with pytest.raises(CheckpointError, match="not a run checkpoint"):
            Checkpoint.load(path)


class TestApiIntegration:
    def test_api_run_checkpoint_and_resume(self, tmp_path) -> None:
        path = tmp_path / "api.ckpt"
        kwargs = dict(
            controller="dpp", horizon=12, seed=23, z=1,
            scenario_config=CONFIG,
        )
        baseline = repro.api.run(**kwargs)
        checkpointed = repro.api.run(
            **kwargs, checkpoint=str(path), checkpoint_every=5
        )
        assert np.array_equal(baseline.latency, checkpointed.latency)
        assert path.exists()
        resumed = repro.api.run(
            **kwargs, checkpoint=str(path), checkpoint_every=5, resume=True
        )
        assert np.array_equal(baseline.backlog, resumed.backlog)
