"""The settable surface of a run, pinned name by name.

Every knob a caller can set on a run is listed here: the fields of the
config blocks and the keywords of the run entry points.  Adding,
renaming or removing one changes a pin below, so a new option shows up
in review as a one-line diff of this file.  The removal tests check
that knobs deleted from the surface stay deleted.
"""

from __future__ import annotations

import dataclasses
import inspect

import numpy as np
import pytest

import repro
import repro.sim
import repro.solvers
from repro.api import CellConfig, EngineConfig, RunConfig, run
from repro.core.bdma import cgba_p2a_solver
from repro.core.cgba import CGBAResult, solve_p2a_cgba
from repro.core.congestion_game import OffloadingCongestionGame
from repro.core.p2b import solve_p2b
from repro.core.state import Assignment
from repro.exceptions import ConfigurationError
from repro.kernels import KernelBackend
from repro.network.connectivity import FlatStrategies, StrategySpace
from repro.sim.checkpoint import run_checkpointed
from repro.sim.replication import ReplicationSpec, run_replications
from repro.sim.scenario import StateStream
from repro.sim.shard_runtime import SharedStatePlanner
from repro.sim.sharded import ShardedController, run_sharded
from repro.solvers import fast_engine, scalar
from repro.solvers.fast_engine import FastBestResponseEngine

from conftest import make_tiny_network, make_tiny_state


def _fields(cls) -> list[str]:
    return [f.name for f in dataclasses.fields(cls)]


def _keywords(func) -> list[str]:
    return [
        p.name
        for p in inspect.signature(func).parameters.values()
        if p.name != "self"
    ]


RUN_CONFIG_FIELDS = [
    "controller", "seed", "scenario_config", "horizon", "v", "z", "budget",
    "warm_start_queue", "engine", "checkpoint", "obs", "cells",
    "controller_params",
]
ENGINE_CONFIG_FIELDS = ["backend"]
CELL_CONFIG_FIELDS = [
    "count", "epoch", "coordinator", "floor_fraction", "smoothing",
    "processes", "partition_restarts", "timeout_seconds",
]
RUN_KEYWORDS = [
    "config", "scenario", "seed", "scenario_config", "controller", "horizon",
    "v", "z", "budget", "tracer", "engine_backend", "monitors",
    "metrics_port", "metrics_registry", "keep_records", "on_slot",
    "warm_start_queue", "checkpoint", "checkpoint_every", "resume", "cells",
    "controller_params",
]
RUN_SHARDED_KEYWORDS = [
    "scenario", "horizon", "cells", "checkpoint", "checkpoint_every",
    "resume", "options",
]
# Every setting of a sharded run is a RunConfig field;
# run_sharded(**options) maps its keywords onto one.
SHARDED_CONTROLLER_KEYWORDS = [
    "scenario", "config", "plan", "tracer", "registry",
]
SHARDED_RUN_KEYWORDS = ["horizon", "checkpoint", "checkpoint_every", "resume"]
REPLICATION_SPEC_FIELDS = [
    "num_devices", "horizon", "v", "z", "solver", "workload",
    "budget_fraction", "warm_start_queue", "network_overrides",
    "batch_seeds", "engine_backend",
]
RUN_REPLICATIONS_KEYWORDS = [
    "spec", "seeds", "processes", "tracer", "timeout_seconds",
    "max_retries", "retry_backoff_seconds",
]
# CGBA runs one best-response path: max-gap selection, no history.
SOLVE_P2A_CGBA_KEYWORDS = [
    "network", "state", "space", "frequencies", "rng", "slack", "initial",
    "max_iter", "tracer", "reuse", "accept_partial", "backend",
]
CGBA_P2A_SOLVER_KEYWORDS = [
    "slack", "max_iter", "tracer", "accept_partial", "backend",
]
ENGINE_RUN_KEYWORDS = ["max_iter"]
# P2-B runs the backend's native search or the per-server search; the
# two are bit-identical, so there is no method to choose.
SOLVE_P2B_KEYWORDS = [
    "network", "state", "assignment", "queue_backlog", "v", "tol", "tracer",
    "backend",
]
# The kernels of the decomposed evaluator, the refills, the greedy
# pass and the fused calls; no flat-candidate kernels.
KERNEL_BACKEND_FIELDS = [
    "name", "provider", "gap_sweep", "reset_profile", "rebind",
    "update_frequencies", "greedy_pass", "run_dynamics", "golden_quad",
    "bdma_slot",
]


@pytest.mark.parametrize(
    "cls, pinned",
    [
        (RunConfig, RUN_CONFIG_FIELDS),
        (EngineConfig, ENGINE_CONFIG_FIELDS),
        (CellConfig, CELL_CONFIG_FIELDS),
        (ReplicationSpec, REPLICATION_SPEC_FIELDS),
        (KernelBackend, KERNEL_BACKEND_FIELDS),
    ],
    ids=lambda x: getattr(x, "__name__", ""),
)
def test_config_fields_are_pinned(cls, pinned) -> None:
    assert _fields(cls) == pinned


@pytest.mark.parametrize(
    "func, pinned",
    [
        (run, RUN_KEYWORDS),
        (run_sharded, RUN_SHARDED_KEYWORDS),
        (ShardedController.__init__, SHARDED_CONTROLLER_KEYWORDS),
        (ShardedController.run, SHARDED_RUN_KEYWORDS),
        (run_replications, RUN_REPLICATIONS_KEYWORDS),
        (solve_p2a_cgba, SOLVE_P2A_CGBA_KEYWORDS),
        (cgba_p2a_solver, CGBA_P2A_SOLVER_KEYWORDS),
        (FastBestResponseEngine.run, ENGINE_RUN_KEYWORDS),
        (solve_p2b, SOLVE_P2B_KEYWORDS),
    ],
    ids=lambda x: getattr(x, "__qualname__", ""),
)
def test_entry_point_keywords_are_pinned(func, pinned) -> None:
    assert _keywords(func) == pinned


class TestStateKnobsRemoved:
    """Every run draws states through the state compiler at one block
    size; there is no per-slot switch and no chunk knob to set."""

    SCENARIO_CONFIG = repro.ScenarioConfig(num_devices=8)

    def test_engine_config_rejects_them(self) -> None:
        with pytest.raises(TypeError, match="state_chunk"):
            EngineConfig(state_chunk=16)
        with pytest.raises(TypeError, match="compiled_states"):
            EngineConfig(compiled_states=False)

    @pytest.mark.parametrize(
        "option", [{"compiled_states": False}, {"state_chunk": 16}]
    )
    def test_run_entry_points_reject_them(self, option) -> None:
        # run() and run_sharded() hand unknown keywords to the controller
        # knob check, which names them.
        (name,) = option
        with pytest.raises(ConfigurationError, match=name):
            run(horizon=1, seed=3, scenario_config=self.SCENARIO_CONFIG,
                **option)
        scenario = repro.make_paper_scenario(
            seed=3, config=self.SCENARIO_CONFIG
        )
        with pytest.raises(ConfigurationError, match=name):
            run_sharded(scenario, horizon=1, cells=2, **option)

    def test_lower_layers_reject_them(self, tmp_path) -> None:
        scenario = repro.make_paper_scenario(
            seed=3, config=self.SCENARIO_CONFIG
        )
        with pytest.raises(TypeError, match="state_chunk"):
            ShardedController(scenario, RunConfig()).run(1, state_chunk=16)
        controller = repro.api.make_controller("dpp", scenario)
        with pytest.raises(TypeError, match="compiled"):
            run_checkpointed(
                scenario, controller, horizon=1, path=tmp_path / "c",
                compiled=False,
            )
        with pytest.raises(TypeError, match="chunk"):
            SharedStatePlanner([scenario], epoch=1, chunk=16)
        with pytest.raises(TypeError, match="chunk"):
            scenario.fresh_compiled_states(1, chunk=16)
        with pytest.raises(TypeError, match="chunk"):
            StateStream(scenario).take(0, 1, chunk=16)
        with pytest.raises(TypeError, match="chunk"):
            scenario.generator.compile_states(
                1, scenario.state_rng(), chunk=16
            )


class TestStateStreamFaultsRemoved:
    """Server outages live in a ``FaultPlan`` (``ServerOutages``), which
    draws from its own stream; the state stream draws no outages, so
    neither scenario constructor takes an outage model."""

    def test_scenario_builders_reject_faults(self) -> None:
        from repro.sim.faults import MarkovOutages
        from repro.sim.scenario import StateGenerator

        with pytest.raises(TypeError, match="faults"):
            repro.make_paper_scenario(
                seed=3, config=repro.ScenarioConfig(num_devices=8),
                faults=MarkovOutages(),
            )
        generator = repro.make_paper_scenario(
            seed=3, config=repro.ScenarioConfig(num_devices=8)
        ).generator
        with pytest.raises(TypeError, match="faults"):
            StateGenerator(
                generator.network, generator.tasks, generator.channel,
                generator.prices, faults=MarkovOutages(),
            )

    @pytest.mark.parametrize("module", [repro, repro.sim])
    @pytest.mark.parametrize(
        "name", ["NoOutages", "OutageModel", "ChaosSchedule"]
    )
    def test_outage_model_classes_are_gone(self, module, name) -> None:
        assert name not in module.__all__
        assert not hasattr(module, name)


class TestShardedKnobsRemoved:
    """Per-cell backends, the partition balance weight and the retry
    budget are not settings: results are bit-identical across backends,
    the partition keeps its default weight, and a pooled worker is
    retried a fixed number of times."""

    @pytest.mark.parametrize(
        "option",
        [{"backends": ("numpy", "numpy")}, {"balance_weight": 2.0},
         {"max_retries": 1}],
    )
    def test_cell_config_rejects_them(self, option) -> None:
        (name,) = option
        with pytest.raises(TypeError, match=name):
            CellConfig(count=2, **option)

    @pytest.mark.parametrize(
        "option", [{"max_retries": 1}, {"engine_backend": ["numpy"] * 2}]
    )
    def test_run_sharded_rejects_them(self, option) -> None:
        (name,) = option
        scenario = repro.make_paper_scenario(
            seed=3, config=repro.ScenarioConfig(num_devices=8)
        )
        with pytest.raises(ConfigurationError, match=name):
            run_sharded(scenario, horizon=1, cells=2, **option)


class TestInjectionKnobsRemoved:
    """Replication has no failure-injection settings: tests inject
    failures by patching ``repro.sim.replication._run_one``."""

    @pytest.mark.parametrize("name", ["fail_seeds", "flaky_seeds"])
    def test_replication_spec_rejects_them(self, name) -> None:
        with pytest.raises(TypeError, match=name):
            ReplicationSpec(**{name: (2,)})


class TestBestResponseKnobsRemoved:
    """Every strategy space is a product set, so CGBA has one
    best-response path: the decomposed sweep (or the backend's fused
    loop) with max-gap selection.  The flat-candidate evaluator, the
    dirty-player index, the other selection rules and history recording
    stay deleted; the reference ``best_response_dynamics`` keeps them as
    the oracle."""

    def test_history_and_selection_are_rejected(self) -> None:
        network, state = make_tiny_network(), make_tiny_state()
        space = StrategySpace(network, state.coverage())
        frequencies = network.freq_max.copy()
        rng = np.random.default_rng(0)
        with pytest.raises(TypeError, match="record_history"):
            solve_p2a_cgba(
                network, state, space, frequencies, rng, record_history=True
            )
        engine = FastBestResponseEngine(
            OffloadingCongestionGame(
                network, state, space, frequencies, rng=rng
            )
        )
        with pytest.raises(TypeError, match="record_history"):
            engine.run(record_history=True)
        with pytest.raises(TypeError, match="selection"):
            engine.run(selection="random")
        assert "cost_history" not in _fields(CGBAResult)

    @pytest.mark.parametrize(
        "owner, name",
        [
            (repro.solvers, "fast_best_response_dynamics"),
            (fast_engine, "fast_best_response_dynamics"),
            (fast_engine, "supports_batch"),
            (fast_engine, "BatchGame"),
            (OffloadingCongestionGame, "batch_best_responses"),
            (OffloadingCongestionGame, "affected_players"),
            (StrategySpace, "players_touching_bs"),
            (StrategySpace, "players_touching_server"),
            (FlatStrategies, "subset_indices"),
            (repro.solvers, "minimize_scalar_newton"),
            (scalar, "minimize_scalar_newton"),
            (scalar, "minimize_convex_scalar_batch"),
            (scalar, "BatchGoldenSectionResult"),
        ],
        ids=lambda x: getattr(x, "__name__", x),
    )
    def test_deleted_names_stay_deleted(self, owner, name) -> None:
        assert not hasattr(owner, name)


class TestP2BKnobsRemoved:
    """P2-B's search method is not a setting: the backend's native
    search runs when it has one, the per-server golden-section search
    otherwise, bit-identically."""

    def test_solve_p2b_rejects_method(self) -> None:
        network, state = make_tiny_network(), make_tiny_state()
        assignment = Assignment(
            bs_of=np.array([0, 0, 1, 1]), server_of=np.array([0, 1, 2, 2])
        )
        for method in ("auto", "batch", "scalar"):
            with pytest.raises(TypeError, match="method"):
                solve_p2b(
                    network, state, assignment, queue_backlog=5.0, v=10.0,
                    method=method,
                )
