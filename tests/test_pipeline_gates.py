"""Slot-pipeline gates: the fast paths engage, and telemetry counts exactly.

Two seeded end-to-end checks on the DPP slot pipeline:

* On every kernel backend, a short run on compiled states is
  bit-identical to the same run on per-slot states, and the warm-start,
  P2-B and BDMA paths all do work (their counters are positive) -- so a
  fast path that silently stops engaging fails here, not in a timing.
* The paper-scale medium preset (seed 7, I=40, 240 slots) with a
  :class:`~repro.obs.telemetry.MetricsRegistry` attached keeps its
  pinned fingerprint, and its per-phase and per-kernel histograms hold
  exactly the pinned series with exactly the pinned observation counts.
  The run is seeded, so any count drift is a behaviour change.
"""

from __future__ import annotations

import pytest

import repro
from repro.api import make_controller, run
from repro.kernels import available_backends
from repro.obs import Probe
from repro.obs.telemetry import MetricsRegistry, histogram_summaries
from repro.sim.engine import run_simulation

from conftest import MEDIUM_FINGERPRINT, fingerprint

requires_jit = pytest.mark.skipif(
    not available_backends()["jit"],
    reason="backend 'jit' has no real provider (the C kernels did not build)",
)

#: Every ``repro_phase_seconds`` / ``repro_kernel_seconds`` series of
#: the telemetry-attached medium preset, with its observation count.
MEDIUM_PROFILE_COUNTS = {
    "repro_phase_seconds": {
        "phase=slot": 240,
        "phase=slot/bdma": 240,
        "phase=slot/bdma/p2a": 480,
        "phase=slot/bdma/p2a/cgba": 480,
        "phase=slot/bdma/p2b": 240,
        "phase=slot/allocation": 240,
        "phase=slot/state": 240,
        "phase=slot/queue": 240,
    },
    "repro_kernel_seconds": {
        "backend=numpy,kernel=gap_sweep": 12196,
        "backend=numpy,kernel=reset_profile": 480,
        "backend=numpy,kernel=rebind": 240,
        "backend=numpy,kernel=update_frequencies": 240,
    },
}


@pytest.mark.parametrize(
    "backend", ["numpy", pytest.param("jit", marks=requires_jit)]
)
def test_fast_paths_engage(backend: str) -> None:
    def scenario():
        return repro.make_paper_scenario(
            seed=5, config=repro.ScenarioConfig(num_devices=12)
        )

    probe = Probe()
    compiled = run(
        scenario=scenario(), controller="dpp", horizon=12, tracer=probe,
        engine_backend=backend,
    )
    oracle = scenario()
    per_slot = run_simulation(
        make_controller("dpp", oracle, engine_backend=backend),
        oracle.fresh_states(12),
    )
    assert fingerprint(compiled) == fingerprint(per_slot)
    counters = probe.phases.counters
    assert counters.get("engine.warm_start_hits", 0) > 0
    assert counters.get("p2b.scalar_solves", 0) > 0
    assert counters.get("bdma.rounds", 0) > 0


def test_telemetry_medium_preset_counts_exactly() -> None:
    registry = MetricsRegistry()
    result = run(
        controller="dpp", seed=7, horizon=240, metrics_registry=registry
    )
    assert fingerprint(result) == MEDIUM_FINGERPRINT
    for family, pinned in MEDIUM_PROFILE_COUNTS.items():
        counts = {
            ",".join(f"{k}={v}" for k, v in sorted(row["labels"].items())):
                row["count"]
            for row in histogram_summaries(registry, family)
        }
        assert counts == pinned, family
