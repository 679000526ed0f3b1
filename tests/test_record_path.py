"""The slot record against expanded events.

A probe hands its *record* -- one entry per event, a fused slot's round
rows as one deferred batch -- to the sinks that read it
(:class:`~repro.obs.sinks.PhaseAggregator`,
:class:`~repro.obs.telemetry.TelemetrySink`, a sharded worker's
:class:`~repro.obs.monitors.MonitorSuite`) when they are read, and the
registry folds the rows only then.  With every sink forced back onto
events delivered as they happen, the same faulted, overloaded,
chaos-injected run must give the same JSONL stream, alerts (with their
slot ``t``), health, phase counts and registry.  The fused kernel's
rows only exist on ``jit``, so each check runs on both backends.  An
epoch-1 sharded registry equals the one recorded before the record
existed, in-process and across resident workers; an untraced
controller never touches any of it; and scrape threads folding while a
run writes leave the registry where an unscraped run leaves it.
"""

from __future__ import annotations

import json
import sys
import threading
from pathlib import Path

import pytest

import repro
import repro.core.controller as controller_module
from repro.core.overload import OverloadPolicy
from repro.core.resilience import ResiliencePolicy, SolverChaos
from repro.kernels import available_backends
from repro.obs.monitors import default_monitors
from repro.obs.probe import Probe
from repro.obs.sinks import JsonlSink, read_jsonl
from repro.obs.telemetry import MetricsRegistry, TelemetrySink
from repro.sim.sharded import run_sharded

from test_bus_routing import HORIZON, Everything, Watcher, _scenario, _timeless
from test_telemetry_deltas import _digest, _metro_scenario

JIT_SEED = Path(__file__).parent / "data" / "metro_registry_seed_jit.json"

BACKENDS = [
    "numpy",
    pytest.param(
        "jit",
        marks=pytest.mark.skipif(
            not available_backends()["jit"],
            reason="backend 'jit' has no real provider (the C kernels did not build)",
        ),
    ),
]


def _run(tmp_path, tag: str, backend: str) -> dict:
    scenario = _scenario()
    everything = Everything()
    watcher = Watcher()
    registry = MetricsRegistry()
    with JsonlSink(tmp_path / f"{tag}.jsonl") as jsonl:
        probe = Probe([jsonl, everything])
        result = repro.api.run(
            scenario=scenario,
            horizon=HORIZON,
            tracer=probe,
            metrics_registry=registry,
            engine_backend=backend,
            monitors=[
                *default_monitors(budget=scenario.budget, network=scenario.network),
                watcher,
            ],
            overload=OverloadPolicy(high_watermark=5.0, shed_fraction=0.3),
            resilience=ResiliencePolicy(chaos=SolverChaos(failure_rate=0.2, seed=3)),
        )
    sharded_registry = MetricsRegistry()
    sharded = run_sharded(
        _metro_scenario(),
        horizon=12,
        cells=3,
        epoch=1,
        budget=1e-4,
        registry=sharded_registry,
        monitors=True,
        engine_backend=backend,
        resilience=ResiliencePolicy(chaos=SolverChaos(failure_rate=0.2, seed=5)),
    )
    return {
        "jsonl": [_timeless(e) for e in read_jsonl(tmp_path / f"{tag}.jsonl")],
        "everything": [_timeless(e) for e in everything.events],
        "watcher": watcher.seen,
        "alerts": [a.to_dict() for a in result.health.alerts],
        "health": result.health.to_dict(),
        "phases": {name: len(v) for name, v in probe.phases.spans.items()},
        "phase_counters": dict(probe.phases.counters),
        "registry": _digest(registry),
        "sharded_alerts": [a.to_dict() for a in sharded.health.alerts],
        "sharded_health": sharded.health.to_dict(),
        "sharded_registry": _digest(sharded_registry),
    }


def _expand_everything(monkeypatch) -> None:
    """Hand every sink each event as it happens: no sink reads a record."""
    split = Probe._split

    def expanded_split(self) -> None:
        split(self)
        self._sinks, self._readers = list(self._all), ()

    monkeypatch.setattr(Probe, "_split", expanded_split)


@pytest.fixture(scope="module", params=BACKENDS)
def runs(request, tmp_path_factory) -> dict:
    tmp = tmp_path_factory.mktemp(f"record-{request.param}")
    record = _run(tmp, "record", request.param)
    with pytest.MonkeyPatch.context() as mp:
        _expand_everything(mp)
        events = _run(tmp, "events", request.param)
    return {"record": record, "events": events}


class TestRecordEqualsEvents:
    def test_the_run_exercises_the_record(self, runs) -> None:
        names = {(e["kind"], e["name"]) for e in runs["record"]["jsonl"]}
        for pair in (
            ("event", "shed"),
            ("event", "fallback"),
            ("event", "alert"),
            ("counter", "engine.moves"),
            ("span", "slot/bdma/p2a/cgba"),
        ):
            assert pair in names
        assert runs["record"]["sharded_alerts"]
        assert all(isinstance(a["t"], int) for a in runs["record"]["alerts"])

    @pytest.mark.parametrize(
        "part",
        ["jsonl", "everything", "watcher", "alerts", "health", "phases",
         "phase_counters", "registry", "sharded_alerts", "sharded_health",
         "sharded_registry"],
    )
    def test_same_output(self, runs, part) -> None:
        assert runs["record"][part] == runs["events"][part]


@pytest.mark.skipif(
    not available_backends()["jit"],
    reason="backend 'jit' has no real provider (the C kernels did not build)",
)
@pytest.mark.parametrize("processes", [None, 2], ids=["in_process", "pooled"])
def test_sharded_jit_registry_matches_the_pinned_seed(processes) -> None:
    """Epoch-1 sharded run with monitors on, on the fused slot kernel:
    counters, gauges and histogram observation counts equal the
    registry recorded before slots wrote records."""
    registry = MetricsRegistry()
    run_sharded(
        _metro_scenario(),
        horizon=40,
        cells=3,
        epoch=1,
        budget=1e-4,
        processes=processes,
        registry=registry,
        monitors=True,
        engine_backend="jit",
    )
    assert _digest(registry) == json.loads(JIT_SEED.read_text())


@pytest.mark.parametrize("backend", BACKENDS)
def test_untraced_step_builds_no_record(monkeypatch, backend) -> None:
    scenario = repro.make_paper_scenario(3, config=repro.ScenarioConfig(num_devices=12))

    def run():
        controller = repro.DPPController(
            scenario.network,
            scenario.controller_rng(),
            v=100.0,
            budget=scenario.budget,
            engine_backend=backend,
        )
        return repro.run_simulation(
            controller, scenario.fresh_states(6), budget=scenario.budget
        )

    reference = run()

    def boom(*args, **kwargs):
        raise AssertionError("telemetry code ran on an untraced slot")

    for owner, name in (
        (Probe, "_record"),
        (Probe, "defer"),
        (TelemetrySink, "fold"),
        (MetricsRegistry, "_record"),
        (controller_module, "round_events"),
        (controller_module, "feasibility_maxima"),
        (controller_module.SlotRecord, "to_dict"),
    ):
        monkeypatch.setattr(owner, name, boom)
    monkeypatch.setattr("repro.kernels._adapt._round_rows", boom)
    untraced = run()
    assert untraced.latency.tolist() == reference.latency.tolist()
    assert untraced.cost.tolist() == reference.cost.tolist()


def test_concurrent_scrapes_lose_no_update() -> None:
    """Scrape threads folding the registry while a traced run writes
    records: the registry ends where an unscraped run's does."""
    scenario = repro.make_paper_scenario(5, config=repro.ScenarioConfig(num_devices=12))

    def run(scrapers: int) -> dict:
        registry = MetricsRegistry()
        probe = Probe([TelemetrySink(registry)])
        controller = repro.DPPController(
            scenario.network,
            scenario.controller_rng(),
            v=100.0,
            budget=scenario.budget,
            tracer=probe,
        )
        stop = threading.Event()

        def scrape() -> None:
            while not stop.is_set():
                registry.render_openmetrics()

        threads = [threading.Thread(target=scrape) for _ in range(scrapers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            repro.run_simulation(
                controller, scenario.fresh_states(200), budget=scenario.budget,
                tracer=probe,
            )
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=30)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        return _digest(registry)

    assert run(4) == run(0)
