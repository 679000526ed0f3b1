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

import pytest

import repro
from repro.api import CellConfig, EngineConfig, RunConfig, run
from repro.exceptions import ConfigurationError
from repro.sim.checkpoint import run_checkpointed
from repro.sim.shard_runtime import SharedStatePlanner
from repro.sim.sharded import ShardedController, run_sharded


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


@pytest.mark.parametrize(
    "cls, pinned",
    [
        (RunConfig, RUN_CONFIG_FIELDS),
        (EngineConfig, ENGINE_CONFIG_FIELDS),
        (CellConfig, CELL_CONFIG_FIELDS),
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
    ],
    ids=lambda x: getattr(x, "__qualname__", ""),
)
def test_entry_point_keywords_are_pinned(func, pinned) -> None:
    assert _keywords(func) == pinned


class TestStateKnobsRemoved:
    """Every run draws states through the state compiler at one chunk
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
