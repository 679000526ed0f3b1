"""The routed event bus against a broadcast reference.

:class:`~repro.obs.probe.Probe` hands each ``(kind, name)`` pair only to
the sinks that want it, and :class:`~repro.obs.monitors.MonitorSuite`
only to the monitors that subscribed.  With both route builders patched
back to "everyone gets everything" -- the bus before routing -- a
faulted, overloaded, chaos-injected run must produce the same JSONL
stream per sink, the same alerts (with their slot ``t``), the same
health report and the same registry; and a sink or monitor that declares
no ``wants`` must still see every event.
"""

from __future__ import annotations

import pytest

import repro
from repro.core.overload import OverloadPolicy
from repro.core.resilience import ResiliencePolicy, SolverChaos
from repro.obs.monitors import Monitor, MonitorSuite, default_monitors
from repro.obs.probe import Probe, wants
from repro.obs.sinks import JsonlSink, PhaseAggregator, read_jsonl
from repro.obs.telemetry import MetricsRegistry
from repro.obs.trace import FlightRecorder
from repro.sim.faults import (
    BaseStationOutages,
    FaultPlan,
    MarkovOutages,
    PriceFeedDropouts,
    ServerOutages,
)

HORIZON = 48


def _scenario() -> repro.Scenario:
    """A starved budget (shedding engages) under a fault plan."""
    return repro.make_paper_scenario(
        11,
        config=repro.ScenarioConfig(num_devices=24, budget_fraction=0.02),
        fault_plan=FaultPlan(
            faults=(
                ServerOutages(MarkovOutages(mtbf_slots=12.0, mttr_slots=3.0)),
                BaseStationOutages(mtbf_slots=15.0, mttr_slots=2.0),
                PriceFeedDropouts(mtbf_slots=9.0, mttr_slots=3.0),
            )
        ),
    )


class Everything:
    """A user sink with no ``wants``: records every event it gets."""

    def __init__(self) -> None:
        self.events: list = []

    def emit(self, event: dict) -> None:
        self.events.append(event)

    def close(self) -> None:
        pass


class Watcher(Monitor):
    """A monitor with no ``wants`` override: sees every event."""

    name = "watcher"

    def __init__(self) -> None:
        super().__init__()
        self.seen: list = []

    def observe(self, event: dict) -> None:
        self.seen.append((event["kind"], event["name"]))


def _timeless(value):
    """An event without its wall-clock fields (span ``start`` and
    ``seconds``, every ``*_seconds`` entry of a payload)."""
    if not isinstance(value, dict):
        return value
    return {
        k: _timeless(v)
        for k, v in value.items()
        if k not in ("start", "seconds") and not k.endswith("_seconds")
    }


def _run(tmp_path, tag: str) -> dict:
    scenario = _scenario()
    everything = Everything()
    recorder = FlightRecorder(tmp_path / f"{tag}-flight.jsonl", capacity_slots=4)
    watcher = Watcher()
    registry = MetricsRegistry()
    with JsonlSink(tmp_path / f"{tag}.jsonl") as jsonl:
        probe = Probe([jsonl, everything, recorder])
        result = repro.api.run(
            scenario=scenario,
            horizon=HORIZON,
            tracer=probe,
            metrics_registry=registry,
            monitors=[
                *default_monitors(budget=scenario.budget, network=scenario.network),
                watcher,
            ],
            overload=OverloadPolicy(high_watermark=5.0, shed_fraction=0.3),
            resilience=ResiliencePolicy(
                chaos=SolverChaos(failure_rate=0.2, seed=3)
            ),
        )
    snapshot = registry.snapshot()
    return {
        "jsonl": [_timeless(e) for e in read_jsonl(tmp_path / f"{tag}.jsonl")],
        "everything": [_timeless(e) for e in everything.events],
        "flight": [
            _timeless(e) for bucket in recorder._buckets for e in bucket
        ],
        "watcher": watcher.seen,
        "alerts": [a.to_dict() for a in result.health.alerts],
        "health": result.health.to_dict(),
        "phases": {
            name: len(values) for name, values in probe.phases.spans.items()
        },
        "counters": {
            n: f["series"] for n, f in snapshot["counters"].items()
        },
        "gauges": {
            n: {k: v[0] for k, v in f["series"].items()}
            for n, f in snapshot["gauges"].items()
        },
        "histogram_counts": {
            n: {k: s[2] for k, s in f["series"].items()}
            for n, f in snapshot["histograms"].items()
        },
    }


def _broadcast(monkeypatch) -> None:
    """Patch both route builders back to every-sink, every-monitor."""

    def probe_route(self, kind, name):
        route = self._routes[kind][name] = tuple(
            (s.emit, False) for s in self._sinks
        )
        return route

    def suite_route(self, kind, name):
        return tuple(m.observe for m in self.monitors)

    monkeypatch.setattr(Probe, "_route", probe_route)
    monkeypatch.setattr(MonitorSuite, "_route", suite_route)


@pytest.fixture(scope="module")
def runs(tmp_path_factory) -> dict:
    tmp = tmp_path_factory.mktemp("routing")
    routed = _run(tmp, "routed")
    with pytest.MonkeyPatch.context() as mp:
        _broadcast(mp)
        broadcast = _run(tmp, "broadcast")
    return {"routed": routed, "broadcast": broadcast}


class TestRoutedEqualsBroadcast:
    def test_the_run_exercises_every_subscription(self, runs) -> None:
        names = {(e["kind"], e["name"]) for e in runs["routed"]["jsonl"]}
        for pair in (
            ("event", "shed"),
            ("event", "fallback"),
            ("event", "fault"),
            ("event", "alert"),
            ("gauge", "overload.state"),
            ("counter", "resilience.fallbacks"),
        ):
            assert pair in names
        monitors = {a["monitor"] for a in runs["routed"]["alerts"]}
        assert {"overload", "budget"} <= monitors
        # Alerts raised without an explicit slot take the suite's
        # current_t, which every slot event advances.
        assert all(isinstance(a["t"], int) for a in runs["routed"]["alerts"])

    @pytest.mark.parametrize(
        "part",
        ["jsonl", "everything", "flight", "alerts", "health", "phases",
         "counters", "gauges", "histogram_counts"],
    )
    def test_same_output(self, runs, part) -> None:
        assert runs["routed"][part] == runs["broadcast"][part]

    def test_sink_without_wants_gets_every_event(self, runs) -> None:
        routed = runs["routed"]
        assert routed["everything"] == routed["jsonl"]

    def test_monitor_without_wants_sees_every_event(self, runs) -> None:
        routed = runs["routed"]
        expected = [
            (e["kind"], e["name"])
            for e in routed["jsonl"]
            if not (e["kind"] == "event" and e["name"] == "alert")
        ]
        assert routed["watcher"] == expected


class TestDeclarations:
    def test_wants_defaults_to_everything(self) -> None:
        assert wants(Everything(), "span", "slot")
        assert wants(Everything(), "event", "anything")

    def test_phase_aggregator_skips_free_form_events(self) -> None:
        phases = PhaseAggregator()
        assert phases.wants("span", "slot/bdma")
        assert phases.wants("gauge", "queue.backlog")
        assert not phases.wants("event", "slot")

    def test_builtin_monitor_subscriptions(self) -> None:
        by_name = {
            m.name: m
            for m in default_monitors(budget=1.0, network=_scenario().network)
        }
        assert by_name["queue_stability"].wants("gauge", "queue.backlog")
        assert not by_name["queue_stability"].wants("gauge", "slot.price")
        assert by_name["feasibility"].wants("gauge", "feas.freq_excess")
        assert not by_name["feasibility"].wants("event", "slot")
        assert by_name["anomaly"].wants("gauge", "slot.price")
        assert by_name["anomaly"].wants("event", "slot")
        assert not by_name["anomaly"].wants("gauge", "feas.freq_excess")
        resilience = by_name["resilience"]
        assert resilience.wants("counter", "resilience.fallbacks")
        assert resilience.wants("event", "replication.seed_failed")
        assert resilience.wants("event", "slot")
        assert not resilience.wants("counter", "engine.moves")
        assert by_name["overload"].wants("gauge", "overload.state")
        assert by_name["overload"].wants("event", "shed")
        for name in ("budget", "guarantee"):
            assert by_name[name].wants("event", "slot")
            assert not by_name[name].wants("gauge", "queue.backlog")

    def test_suite_reads_slots_and_drops_its_alerts(self) -> None:
        suite = MonitorSuite(default_monitors())
        assert suite.wants("event", "slot")
        assert not suite.wants("event", "alert")
        assert not suite.wants("span", "slot/bdma")  # no monitor reads spans
        assert MonitorSuite([Watcher()]).wants("span", "slot/bdma")

    def test_untraced_worker_probe_feeds_no_aggregator(self) -> None:
        probe = Probe()._without_phases()
        with probe.span("slot"):
            probe.counter("engine.moves", 3)
        assert probe.phases.spans == {} and probe.phases.counters == {}

    def test_added_sink_invalidates_routes(self) -> None:
        probe = Probe()
        probe.counter("engine.moves", 1)  # route built without the sink
        late = Everything()
        probe.add_sink(late)
        probe.counter("engine.moves", 2)
        assert [e["value"] for e in late.events] == [2.0]
        assert probe.phases.counters["engine.moves"] == 3.0
