"""Tests for the observability layer (repro.obs)."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import pytest

import repro
from repro.obs import (
    JsonlSink,
    NULL_TRACER,
    PhaseAggregator,
    Probe,
    RunManifest,
    Tracer,
    as_tracer,
    config_hash,
    manifest_path_for,
    read_jsonl,
)
from repro.obs.probe import _NULL_SPAN


def run_fresh(code: str) -> None:
    """Run *code* in a fresh interpreter on this checkout's sources."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


class TestLazyImports:
    def test_metrics_server_is_imported_on_demand(self) -> None:
        run_fresh(
            "import sys, repro; "
            "assert 'http.server' not in sys.modules; "
            "from repro.obs import MetricsServer; "
            "assert 'http.server' in sys.modules; "
            "assert MetricsServer.__module__ == 'repro.obs.server'"
        )

    def test_unsharded_run_loads_only_what_it_uses(self) -> None:
        """Building a scenario and a ``dpp`` controller through the
        facade loads no experiment, analysis, baseline, fleet or
        trace-tooling module, and importing the CLI loads no
        experiment and none of the tools its commands import on use."""
        unused = (
            "repro.experiments",
            "repro.analysis",
            "repro.obs.dashboard",
            "repro.obs.server",
            "repro.obs.trace",
            "repro.obs.monitors",
            "repro.sim.sharded",
            "repro.sim.replication",
            "repro.sim.shard_runtime",
            "repro.sim.checkpoint",
            "repro.kernels.shm",
            "repro.baselines.fixed_frequency",
            "repro.baselines.greedy",
            "repro.baselines.mcba",
            "repro.baselines.ropt",
        )
        run_fresh(
            "import sys\n"
            "import repro.api\n"
            "from repro import ScenarioConfig, make_paper_scenario\n"
            "scenario = make_paper_scenario(\n"
            "    seed=0, config=ScenarioConfig(num_devices=100)\n"
            ")\n"
            "repro.api.make_controller('dpp', scenario)\n"
            f"unused = {unused!r}\n"
            "loaded = [m for m in sys.modules\n"
            "          if m in unused or m.startswith(tuple(u + '.' for u in unused))]\n"
            "assert not loaded, loaded\n"
        )
        on_use = (
            "repro.experiments",
            "repro.analysis",
            "repro.baselines",
            "repro.core.theory",
            "repro.io",
            "repro.obs.dashboard",
            "repro.obs.manifest",
            "repro.obs.monitors",
            "repro.obs.server",
            "repro.obs.sinks",
            "repro.obs.trace",
            "repro.solvers.assignment",
            "repro.solvers.relaxation",
        )
        run_fresh(
            "import sys, repro.cli\n"
            f"on_use = {on_use!r}\n"
            "loaded = [m for m in sys.modules\n"
            "          if m in on_use or m.startswith(tuple(u + '.' for u in on_use))]\n"
            "assert not loaded, loaded\n"
        )

    def test_unknown_attribute_still_raises(self) -> None:
        import repro.obs

        with pytest.raises(AttributeError):
            repro.obs.NoSuchThing  # noqa: B018


class TestNullTracer:
    def test_disabled_and_inert(self) -> None:
        t = Tracer()
        assert not t.enabled
        with t.span("anything"):
            t.counter("c")
            t.gauge("g", 1.0)
            t.event("e", {"x": 1})
        t.close()

    def test_span_is_shared_singleton(self) -> None:
        t = Tracer()
        assert t.span("a") is t.span("b") is _NULL_SPAN

    def test_as_tracer(self) -> None:
        assert as_tracer(None) is NULL_TRACER
        probe = Probe()
        assert as_tracer(probe) is probe


class TestProbeSpans:
    def test_nested_spans_produce_slash_paths(self) -> None:
        probe = Probe()
        with probe.span("slot"):
            with probe.span("bdma"):
                with probe.span("p2a"):
                    pass
            with probe.span("queue"):
                pass
        names = set(probe.phases.spans)
        assert names == {"slot", "slot/bdma", "slot/bdma/p2a", "slot/queue"}

    def test_span_durations_are_positive_and_nested(self) -> None:
        probe = Probe()
        with probe.span("outer"):
            with probe.span("inner"):
                time.sleep(0.002)
        outer = probe.phases.phase_stats("outer")
        inner = probe.phases.phase_stats("outer/inner")
        assert inner["total_seconds"] >= 0.002
        assert outer["total_seconds"] >= inner["total_seconds"]
        assert outer["count"] == inner["count"] == 1

    def test_exception_still_closes_span(self) -> None:
        probe = Probe()
        with pytest.raises(ValueError):
            with probe.span("slot"):
                raise ValueError("boom")
        assert probe.phases.phase_stats("slot")["count"] == 1
        # The stack unwound: a new span is top-level again.
        with probe.span("next"):
            pass
        assert "next" in probe.phases.spans

    def test_counters_accumulate_and_gauges_record(self) -> None:
        probe = Probe()
        probe.counter("moves", 3)
        probe.counter("moves", 2)
        probe.gauge("backlog", 1.5)
        probe.gauge("backlog", 2.5)
        assert probe.phases.counters["moves"] == 5.0
        assert probe.phases.gauges["backlog"] == [1.5, 2.5]


class TestAggregatorMerging:
    def _probe_with_work(self, n: int) -> Probe:
        probe = Probe()
        for _ in range(n):
            with probe.span("slot"):
                pass
        probe.counter("moves", n)
        return probe

    def test_merge_combines_counts(self) -> None:
        a = self._probe_with_work(3).phases
        b = self._probe_with_work(2).phases
        a.merge(b)
        assert a.phase_stats("slot")["count"] == 5
        assert a.counters["moves"] == 5.0

    def test_state_dict_round_trip(self) -> None:
        probe = self._probe_with_work(4)
        probe.gauge("q", 7.0)
        state = probe.phases.state_dict()
        # state_dict must be JSON/pickle-plain for process transport.
        json.dumps(state)
        fresh = PhaseAggregator()
        fresh.merge_state(state)
        assert fresh.phase_stats("slot")["count"] == 4
        assert fresh.counters["moves"] == 4.0
        assert fresh.gauges["q"] == [7.0]

    def test_probe_merge_phase_state_ignores_none(self) -> None:
        probe = self._probe_with_work(1)
        probe.merge_phase_state(None)
        probe.merge_phase_state(self._probe_with_work(2).phases.state_dict())
        assert probe.phases.phase_stats("slot")["count"] == 3

    def test_ordered_merge_restores_gauge_recency(self) -> None:
        # Pooled workers complete in arbitrary order; with order= keys
        # the folded gauge series must come out in logical order no
        # matter the arrival order, so the tail stays "current value".
        import random

        segments = [
            ((epoch, cell), [float(10 * epoch + cell)])
            for epoch in range(4)
            for cell in range(2)
        ]
        expected = [v for _, vals in sorted(segments) for v in vals]
        for trial in range(5):
            shuffled = list(segments)
            random.Random(trial).shuffle(shuffled)
            agg = PhaseAggregator()
            for key, values in shuffled:
                agg.merge_state({"gauges": {"q": values}}, order=key)
            assert agg.gauges["q"] == expected, f"trial {trial}"
            assert agg.gauges["q"][-1] == 31.0  # last epoch, last cell

    def test_ordered_merge_keeps_local_samples_first(self) -> None:
        agg = PhaseAggregator()
        agg.emit({"kind": "gauge", "name": "q", "value": 0.5})
        agg.merge_state({"gauges": {"q": [2.0]}}, order=(1, 0))
        agg.merge_state({"gauges": {"q": [1.0]}}, order=(0, 0))
        assert agg.gauges["q"] == [0.5, 1.0, 2.0]

    def test_unordered_merge_keeps_arrival_order(self) -> None:
        agg = PhaseAggregator()
        agg.merge_state({"gauges": {"q": [2.0]}})
        agg.merge_state({"gauges": {"q": [1.0]}})
        assert agg.gauges["q"] == [2.0, 1.0]

    def test_percentiles_nearest_rank(self) -> None:
        agg = PhaseAggregator()
        for value in (1.0, 2.0, 3.0, 4.0):
            agg.emit({"kind": "span", "name": "p", "seconds": value})
        stats = agg.phase_stats("p")
        assert stats["p50_seconds"] == 2.0
        assert stats["p95_seconds"] == 4.0
        assert stats["total_seconds"] == 10.0

    def test_table_lists_phases_and_counters(self) -> None:
        probe = self._probe_with_work(2)
        table = probe.phases.table()
        assert "slot" in table
        assert "moves" in table
        assert "p95" in table


class TestJsonlSink:
    def test_round_trip(self, tmp_path) -> None:
        path = tmp_path / "trace.jsonl"
        probe = Probe(sinks=(JsonlSink(path),))
        with probe.span("slot"):
            probe.counter("moves", 2)
        probe.event("slot", {"t": 0, "latency": 1.25})
        probe.close()
        events = read_jsonl(path)
        kinds = [e["kind"] for e in events]
        assert kinds.count("span") == 1
        assert kinds.count("counter") == 1
        assert kinds.count("event") == 1
        span = next(e for e in events if e["kind"] == "span")
        assert span["name"] == "slot"
        assert span["seconds"] >= 0.0
        event = next(e for e in events if e["kind"] == "event")
        assert event["data"]["latency"] == 1.25

    def test_context_manager_closes_file(self, tmp_path) -> None:
        path = tmp_path / "trace.jsonl"
        with JsonlSink(path) as sink:
            sink.emit({"kind": "gauge", "name": "g", "value": 1.0})
            assert not sink._fh.closed
        assert sink._fh.closed
        assert read_jsonl(path) == [{"kind": "gauge", "name": "g", "value": 1.0}]

    def test_flush_every_makes_events_durable_before_close(self, tmp_path) -> None:
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(path, flush_every=1)
        sink.emit({"kind": "gauge", "name": "g", "value": 1.0})
        # Visible to a concurrent reader without close() -- crash safety.
        assert read_jsonl(path) == [{"kind": "gauge", "name": "g", "value": 1.0}]
        sink.close()

    def test_flush_pushes_buffered_lines_and_is_safe_after_close(
        self, tmp_path
    ) -> None:
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(path)  # no flush_every: runtime buffering
        sink.emit({"kind": "gauge", "name": "g", "value": 1.0})
        sink.flush()
        # The salvage path's contract: flushed events are durable even
        # though the sink stays open for the retried epoch job.
        assert read_jsonl(path) == [{"kind": "gauge", "name": "g", "value": 1.0}]
        sink.close()
        sink.flush()  # no-op on a closed file, never raises

    def test_probe_flush_reaches_streaming_sinks(self, tmp_path) -> None:
        path = tmp_path / "trace.jsonl"
        probe = Probe(sinks=(JsonlSink(path),))
        probe.gauge("q", 3.0)
        probe.flush()  # PhaseAggregator has no flush; must be skipped
        assert read_jsonl(path) == [{"kind": "gauge", "name": "q", "value": 3.0}]
        probe.close()

    def test_flush_every_validates(self, tmp_path) -> None:
        with pytest.raises(ValueError):
            JsonlSink(tmp_path / "t.jsonl", flush_every=0)

    def test_schema_fields_stable(self, tmp_path) -> None:
        path = tmp_path / "trace.jsonl"
        probe = Probe(sinks=(JsonlSink(path),))
        with probe.span("a"):
            pass
        probe.counter("c", 1.0)
        probe.gauge("g", 2.0)
        probe.close()
        by_kind = {e["kind"]: e for e in read_jsonl(path)}
        assert set(by_kind["span"]) == {"kind", "name", "start", "seconds"}
        assert set(by_kind["counter"]) == {"kind", "name", "value"}
        assert set(by_kind["gauge"]) == {"kind", "name", "value"}


class TestManifest:
    def test_config_hash_is_order_insensitive(self) -> None:
        assert config_hash({"a": 1, "b": 2}) == config_hash({"b": 2, "a": 1})
        assert config_hash({"a": 1}) != config_hash({"a": 2})

    def test_write_and_fields(self, tmp_path) -> None:
        manifest = RunManifest(config={"horizon": 8}, seed=3)
        path = manifest.finish().write(tmp_path / "run.manifest.json")
        data = json.loads(path.read_text())
        assert data["seed"] == 3
        assert data["config"] == {"horizon": 8}
        assert data["config_hash"] == config_hash({"horizon": 8})
        assert data["package"] == "repro"
        assert data["version"] == repro.__version__
        assert data["wall_clock_seconds"] >= 0.0

    def test_manifest_path_for(self) -> None:
        assert str(manifest_path_for("out/run.jsonl")).endswith(
            "out/run.manifest.json"
        )

    def test_write_is_atomic_no_temp_left_behind(self, tmp_path) -> None:
        manifest = RunManifest(config={}, seed=1)
        path = manifest.finish().write(tmp_path / "run.manifest.json")
        assert path.exists()
        # temp-then-rename: only the final file remains.
        assert [p.name for p in tmp_path.iterdir()] == ["run.manifest.json"]


class TestInstrumentationEndToEnd:
    def test_dpp_run_emits_expected_phases(self) -> None:
        probe = Probe()
        repro.api.run(
            controller="dpp", horizon=3, seed=11, tracer=probe,
            scenario_config=repro.ScenarioConfig(num_devices=8),
        )
        expected = {
            "slot", "slot/state", "slot/bdma", "slot/bdma/p2a",
            "slot/bdma/p2a/cgba", "slot/bdma/p2b", "slot/allocation",
            "slot/queue",
        }
        assert expected <= set(probe.phases.spans)
        assert probe.phases.phase_stats("slot")["count"] == 3
        assert probe.phases.counters["bdma.rounds"] > 0
        assert probe.phases.counters["engine.moves"] >= 0
        assert "p2b.scalar_solves" in probe.phases.counters
        assert probe.phases.gauges["queue.backlog"]

    def test_keep_records_false_still_streams_slot_events(self, tmp_path) -> None:
        path = tmp_path / "trace.jsonl"
        probe = Probe(sinks=(JsonlSink(path),))
        result = repro.api.run(
            controller="dpp", horizon=4, seed=11, tracer=probe,
            keep_records=False,
            scenario_config=repro.ScenarioConfig(num_devices=8),
        )
        probe.close()
        assert result.records == []
        slots = [e for e in read_jsonl(path) if e["kind"] == "event"
                 and e["name"] == "slot"]
        assert [s["data"]["t"] for s in slots] == [0, 1, 2, 3]
        assert slots[0]["data"]["latency"] == pytest.approx(
            float(result.latency[0])
        )
        assert "engine_stats" in slots[0]["data"]

    def test_replication_merges_worker_phases(self) -> None:
        probe = Probe()
        spec = repro.ReplicationSpec(num_devices=8, horizon=3, solver="dpp")
        repro.run_replications(spec, [1, 2], tracer=probe)
        assert probe.phases.phase_stats("slot")["count"] == 6

    def test_null_tracer_overhead_is_negligible(self) -> None:
        scenario = repro.make_paper_scenario(
            seed=5, config=repro.ScenarioConfig(num_devices=20)
        )

        def once(tracer) -> float:
            start = time.perf_counter()
            repro.api.run(
                scenario=scenario, controller="dpp", horizon=50,
                tracer=tracer, rng_label="overhead",
            )
            return time.perf_counter() - start

        once(None)  # warm caches
        base = min(once(None) for _ in range(3))
        noop = min(once(NULL_TRACER) for _ in range(3))
        # <5% regression target, with absolute slack against timer noise.
        assert noop <= base * 1.05 + 0.05
