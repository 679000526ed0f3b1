"""Tests for the repro.api facade."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

import repro
from repro.api import (
    CONTROLLER_NAMES,
    CellConfig,
    CheckpointConfig,
    EngineConfig,
    ObsConfig,
    RunConfig,
    make_controller,
    run,
)
from repro.baselines import FixedFrequencyController
from repro.core.controller import DPPController
from repro.exceptions import ConfigurationError
from repro.obs import NULL_TRACER, Probe
from repro.solvers.potential_game import EngineStats


def small_scenario(seed: int = 9) -> repro.Scenario:
    return repro.make_paper_scenario(
        seed=seed, config=repro.ScenarioConfig(num_devices=8)
    )


class TestMakeController:
    @pytest.mark.parametrize("name", CONTROLLER_NAMES)
    def test_every_name_builds_and_steps(self, name: str) -> None:
        scenario = small_scenario()
        controller = make_controller(name, scenario)
        record = controller.step(next(iter(scenario.fresh_states(1))))
        assert np.isfinite(record.latency)
        assert np.isfinite(record.cost)

    def test_dpp_defaults(self) -> None:
        controller = make_controller("dpp", small_scenario())
        assert isinstance(controller, DPPController)
        assert controller.z == 3
        assert controller.p2a_solver is None

    def test_bdma_alias_honours_explicit_z(self) -> None:
        controller = make_controller("bdma", small_scenario(), z=5)
        assert isinstance(controller, DPPController)
        assert controller.z == 5

    @pytest.mark.parametrize("name", ("mcba", "ropt", "greedy"))
    def test_baselines_force_single_round(self, name: str) -> None:
        controller = make_controller(name, small_scenario(), z=4)
        assert isinstance(controller, DPPController)
        assert controller.z == 1
        assert controller.p2a_solver is not None

    def test_fixed_builds_fixed_frequency_controller(self) -> None:
        controller = make_controller("fixed", small_scenario(), fraction=0.25)
        assert isinstance(controller, FixedFrequencyController)
        assert controller.fraction == 0.25

    def test_unknown_name_rejected(self) -> None:
        with pytest.raises(ConfigurationError, match="unknown controller"):
            make_controller("gurobi", small_scenario())

    def test_scenario_or_explicit_parts_required(self) -> None:
        with pytest.raises(ConfigurationError, match="needs a scenario"):
            make_controller("dpp")

    def test_scenarioless_construction(self) -> None:
        scenario = small_scenario()
        controller = make_controller(
            "dpp",
            network=scenario.network,
            rng=np.random.default_rng(0),
            budget=1.0,
        )
        assert isinstance(controller, DPPController)
        state = repro.SlotState(
            t=0,
            cycles=np.full(8, 100e6),
            bits=np.full(8, 5e6),
            spectral_efficiency=np.full(
                (8, scenario.network.num_base_stations), 20.0
            ),
            price=40e-6,
        )
        assert np.isfinite(controller.step(state).latency)

    def test_rng_label_reproduces_manual_stream(self) -> None:
        scenario_a = small_scenario()
        scenario_b = small_scenario()
        facade = make_controller("dpp", scenario_a, rng_label="cli")
        manual = repro.DPPController(
            scenario_b.network,
            scenario_b.controller_rng("cli"),
            v=100.0,
            budget=scenario_b.budget,
            z=3,
        )
        state_a = next(iter(scenario_a.fresh_states(1)))
        state_b = next(iter(scenario_b.fresh_states(1)))
        rec_a, rec_b = facade.step(state_a), manual.step(state_b)
        assert rec_a.latency == rec_b.latency
        assert np.array_equal(rec_a.assignment.server_of, rec_b.assignment.server_of)

    def test_warm_start_queue_sets_positive_backlog(self) -> None:
        controller = make_controller(
            "dpp", small_scenario(), warm_start_queue=True
        )
        assert isinstance(controller, DPPController)
        assert controller.queue.backlog >= 0.0

    def test_tracer_is_threaded_through(self) -> None:
        probe = Probe()
        controller = make_controller("dpp", small_scenario(), tracer=probe)
        assert controller.tracer is probe
        assert make_controller("dpp", small_scenario()).tracer is NULL_TRACER


class TestRun:
    @pytest.mark.parametrize("name", CONTROLLER_NAMES)
    def test_every_controller_name_runs(self, name: str) -> None:
        result = run(
            controller=name, horizon=2, seed=9,
            scenario_config=repro.ScenarioConfig(num_devices=8),
        )
        assert result.horizon == 2
        assert result.summary().budget_satisfied is not None

    def test_accepts_prebuilt_controller(self) -> None:
        scenario = small_scenario()
        controller = make_controller("dpp", scenario)
        result = run(scenario=scenario, controller=controller, horizon=2)
        assert result.horizon == 2

    def test_identical_to_manual_wiring(self) -> None:
        scenario_a = small_scenario(31)
        facade = run(
            scenario=scenario_a, controller="dpp", horizon=3,
            rng_label="controller",
        )
        scenario_b = small_scenario(31)
        manual = repro.run_simulation(
            repro.DPPController(
                scenario_b.network,
                scenario_b.controller_rng(),
                v=100.0,
                budget=scenario_b.budget,
                z=3,
            ),
            scenario_b.fresh_states(3),
            budget=scenario_b.budget,
        )
        np.testing.assert_array_equal(facade.latency, manual.latency)
        np.testing.assert_array_equal(facade.cost, manual.cost)
        np.testing.assert_array_equal(facade.backlog, manual.backlog)

    def test_keep_records(self) -> None:
        result = run(
            controller="fixed", fraction=1.0, horizon=2, seed=9,
            scenario_config=repro.ScenarioConfig(num_devices=8),
            keep_records=True,
        )
        assert len(result.records) == 2


class TestRunConfig:
    def test_config_matches_bare_kwargs(self) -> None:
        config = RunConfig(
            controller="dpp", horizon=3, seed=9,
            scenario_config=repro.ScenarioConfig(num_devices=8),
        )
        via_config = run(config=config)
        via_kwargs = run(
            controller="dpp", horizon=3, seed=9,
            scenario_config=repro.ScenarioConfig(num_devices=8),
        )
        np.testing.assert_array_equal(via_config.latency, via_kwargs.latency)
        np.testing.assert_array_equal(via_config.cost, via_kwargs.cost)

    def test_bare_kwargs_override_config(self) -> None:
        config = RunConfig(
            controller="dpp", horizon=5, seed=9,
            scenario_config=repro.ScenarioConfig(num_devices=8),
        )
        result = run(config=config, horizon=2)
        assert result.horizon == 2

    def test_controller_params_merge_and_override(self) -> None:
        config = RunConfig(
            controller="fixed", horizon=1, seed=9,
            scenario_config=repro.ScenarioConfig(num_devices=8),
            controller_params={"fraction": 0.25},
        )
        baseline = run(config=config)
        overridden = run(config=config, fraction=1.0)
        assert baseline.horizon == overridden.horizon == 1
        assert not np.array_equal(baseline.cost, overridden.cost)

    def test_to_dict_is_json_ready_and_feeds_manifest(self) -> None:
        import json

        config = RunConfig(
            controller="mcba",
            horizon=4,
            engine=EngineConfig(backend="numpy"),
            checkpoint=CheckpointConfig(path="/tmp/ck.json", every=8),
            obs=ObsConfig(monitors=True),
            cells=CellConfig(count=2, processes=2),
            controller_params={"iterations": 5},
        )
        plain = config.to_dict()
        assert json.loads(json.dumps(plain)) == plain
        assert plain["engine"]["backend"] == "numpy"
        assert plain["cells"]["count"] == 2
        assert plain["cells"]["processes"] == 2
        assert plain["controller_params"] == {"iterations": 5}
        manifest = repro.obs.RunManifest(config=plain, seed=config.seed)
        assert manifest.to_dict()["config"]["controller"] == "mcba"

    def test_controller_params_normalised_for_hashing(self) -> None:
        a = RunConfig(controller_params={"joint": True, "shuffle": False})
        b = RunConfig(controller_params={"shuffle": False, "joint": True})
        assert a == b
        assert a.to_dict() == b.to_dict()

    def test_unknown_knob_gets_did_you_mean(self) -> None:
        with pytest.raises(ConfigurationError, match="did you mean"):
            make_controller("mcba", small_scenario(), iteration=5)

    def test_removed_freq_carry_over_knob_rejected(self) -> None:
        # BDMA starts every slot from Omega^L (Algorithm 2, line 1), so
        # no knob seeds the clocks; the hint names the assignment
        # carry-over.
        with pytest.raises(
            ConfigurationError, match="did you mean 'carry_over'"
        ):
            make_controller("dpp", small_scenario(), freq_carry_over=True)

    def test_unknown_knob_lists_accepted(self) -> None:
        with pytest.raises(ConfigurationError, match="accepted knobs"):
            make_controller("dpp", small_scenario(), bogus_knob=1)

    def test_prebuilt_controller_rejects_engine_backend(self) -> None:
        scenario = small_scenario()
        controller = make_controller("dpp", scenario)
        with pytest.raises(ConfigurationError, match="already built"):
            run(
                scenario=scenario, controller=controller, horizon=1,
                engine_backend="numpy",
            )

    def test_cells_conflicts_are_rejected(self) -> None:
        with pytest.raises(ConfigurationError, match="does not combine"):
            run(
                controller="dpp", horizon=2, seed=9,
                scenario_config=repro.ScenarioConfig(num_devices=8),
                cells=2, keep_records=True,
            )

    def test_one_cell_run_identical_to_unsharded(self) -> None:
        plain = run(
            controller="dpp", horizon=3, seed=9,
            scenario_config=repro.ScenarioConfig(num_devices=8),
        )
        sharded = run(
            controller="dpp", horizon=3, seed=9,
            scenario_config=repro.ScenarioConfig(num_devices=8),
            cells=1,
        )
        np.testing.assert_array_equal(plain.latency, sharded.latency)
        np.testing.assert_array_equal(plain.cost, sharded.cost)
        np.testing.assert_array_equal(plain.backlog, sharded.backlog)


class TestUniformSummaries:
    def test_shared_field_names(self) -> None:
        sim = run(
            controller="dpp", horizon=2, seed=9,
            scenario_config=repro.ScenarioConfig(num_devices=8),
        ).summary()
        spec = repro.ReplicationSpec(num_devices=8, horizon=2)
        rep = repro.run_replications(spec, [1, 2]).summary()
        shared = {
            "mean_latency", "mean_cost", "mean_backlog",
            "budget_satisfied", "mean_solve_seconds",
        }
        assert shared <= set(sim.to_dict())
        assert shared <= set(rep.to_dict())
        assert rep.runs == 2

    def test_slot_record_to_dict(self) -> None:
        result = run(
            controller="dpp", horizon=1, seed=9,
            scenario_config=repro.ScenarioConfig(num_devices=8),
            keep_records=True,
        )
        record = result.records[0]
        plain = record.to_dict()
        assert plain["t"] == 0
        assert "bs_of" not in plain
        assert plain["engine_stats"]["moves"] >= 0
        rich = record.to_dict(include_arrays=True)
        assert len(rich["bs_of"]) == 8
        assert len(rich["frequencies"]) > 0

    def test_engine_stats_to_dict(self) -> None:
        stats = EngineStats(moves=1, sweeps=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            plain = stats.to_dict()
        assert plain["moves"] == 1
        assert plain["sweeps"] == 2
        # The deprecated as_dict alias is gone.
        assert not hasattr(stats, "as_dict")
