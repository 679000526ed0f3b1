"""Tests for the fleet telemetry layer.

Covers the registry primitives (counters, gauges, histograms, label
binding), the OpenMetrics exposition round trip, cross-process
snapshot/merge semantics (gauge recency stamps), the bus-to-registry
:class:`~repro.obs.telemetry.TelemetrySink`, per-kernel profiling
instrumentation, the HTTP exposition server, and the end-to-end
contracts: telemetry never changes simulation results, and sharded runs
stream per-cell series into one registry on both execution paths.
"""

from __future__ import annotations

import math
import urllib.error
import urllib.request

import numpy as np
import pytest

import repro
from repro.obs import Probe
from repro.obs.dashboard import render_profile_report
from repro.obs.server import MetricsServer
from repro.obs.telemetry import (
    DEFAULT_SECONDS_BUCKETS,
    MetricsRegistry,
    TelemetrySink,
    histogram_summaries,
    instrument_kernels,
    maybe_instrument_kernels,
    metric_name,
    parse_openmetrics,
    telemetry_context,
)
from repro.sim.sharded import run_sharded

from tests.test_sharding import assert_identical, metro_scenario


class TestRegistryPrimitives:
    def test_counter_accumulates_and_rejects_negative(self) -> None:
        reg = MetricsRegistry()
        c = reg.counter("repro_jobs_total", "jobs")
        c.inc(2.0, cell=0)
        c.inc(3.0, cell=0)
        c.inc(1.0, cell=1)
        assert c.value(cell=0) == 5.0
        assert c.value(cell=1) == 1.0
        with pytest.raises(ValueError, match="only go up"):
            c.inc(-1.0)

    def test_counter_total_suffix_normalised(self) -> None:
        reg = MetricsRegistry()
        a = reg.counter("repro_slots_total")
        b = reg.counter("repro_slots")
        assert a is b
        a.inc(1.0)
        assert reg.get("repro_slots_total") is a
        text = reg.render_openmetrics()
        assert "# TYPE repro_slots counter" in text
        assert "repro_slots_total 1.0" in text

    def test_gauge_keeps_last_value(self) -> None:
        reg = MetricsRegistry()
        g = reg.gauge("repro_queue_backlog", "backlog")
        g.set(4.0, cell=0)
        g.set(2.5, cell=0)
        assert g.value(cell=0) == 2.5

    def test_histogram_buckets_sum_count_and_overflow(self) -> None:
        reg = MetricsRegistry()
        h = reg.histogram("repro_t_seconds", buckets=(0.1, 1.0))
        for v in (0.05, 0.5, 0.5, 100.0):
            h.observe(v)
        stats = h.stats()
        assert stats["count"] == 4
        assert stats["sum"] == pytest.approx(101.05)
        text = reg.render_openmetrics()
        # Cumulative buckets: 1 under 0.1, 3 under 1.0, 4 under +Inf.
        assert 'repro_t_seconds_bucket{le="0.1"} 1' in text
        assert 'repro_t_seconds_bucket{le="1.0"} 3' in text
        assert 'repro_t_seconds_bucket{le="+Inf"} 4' in text
        assert "repro_t_seconds_count 4" in text

    def test_histogram_le_is_inclusive(self) -> None:
        # OpenMetrics `le` is an inclusive upper bound: a value equal to
        # a bucket bound counts in that bucket, not the next one.
        reg = MetricsRegistry()
        h = reg.histogram("repro_t_seconds", buckets=(0.1, 1.0))
        h.observe(0.1)
        text = reg.render_openmetrics()
        assert 'repro_t_seconds_bucket{le="0.1"} 1' in text
        assert 'repro_t_seconds_bucket{le="1.0"} 1' in text
        assert h.stats()["p50"] == pytest.approx(0.05)  # inside (0, 0.1]
        h.observe(1.0)
        text = reg.render_openmetrics()
        assert 'repro_t_seconds_bucket{le="0.1"} 1' in text
        assert 'repro_t_seconds_bucket{le="1.0"} 2' in text
        assert 'repro_t_seconds_bucket{le="+Inf"} 2' in text
        h.observe(1.0 + 1e-12)  # just past the last bound: overflow
        assert 'repro_t_seconds_bucket{le="1.0"} 2' in reg.render_openmetrics()
        assert h.stats()["count"] == 3

    def test_type_clash_raises(self) -> None:
        reg = MetricsRegistry()
        reg.counter("repro_x")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("repro_x")

    def test_invalid_metric_name_rejected(self) -> None:
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("bad name")

    def test_metric_name_mangles_bus_names(self) -> None:
        assert metric_name("queue.backlog") == "repro_queue_backlog"
        assert metric_name("p2b.scalar_solves") == "repro_p2b_scalar_solves"
        assert metric_name("resilience.shard-retries").startswith("repro_")


class TestOpenMetricsRoundTrip:
    def test_render_parse_round_trip_with_label_escaping(self) -> None:
        reg = MetricsRegistry()
        reg.counter("repro_evil_total", "help").inc(
            1.0, path='a"b\\c', note="line\nbreak"
        )
        reg.gauge("repro_g").set(math.inf)
        reg.histogram("repro_h_seconds", buckets=(1.0,)).observe(0.5, cell=3)
        text = reg.render_openmetrics()
        assert text.endswith("# EOF\n")
        families = parse_openmetrics(text)
        assert families["repro_evil"]["type"] == "counter"
        [(name, labels, value)] = families["repro_evil"]["samples"]
        assert name == "repro_evil_total"
        assert labels == {"path": 'a"b\\c', "note": "line\nbreak"}
        assert value == 1.0
        assert families["repro_g"]["samples"][0][2] == math.inf
        hist_samples = families["repro_h_seconds"]["samples"]
        assert any(n.endswith("_bucket") for n, _, _ in hist_samples)

    def test_parser_rejects_malformed_text(self) -> None:
        with pytest.raises(ValueError, match="EOF"):
            parse_openmetrics("# TYPE x counter\nx_total 1\n")
        with pytest.raises(ValueError):
            parse_openmetrics("x_total 1\n# EOF\n")  # sample before TYPE


class TestSnapshotMerge:
    def test_counters_and_histograms_add(self) -> None:
        worker = MetricsRegistry()
        worker.counter("repro_n_total").inc(2.0, cell=0)
        worker.histogram("repro_t_seconds", buckets=(1.0,)).observe(0.5)
        parent = MetricsRegistry()
        parent.counter("repro_n_total").inc(1.0, cell=0)
        parent.merge_snapshot(worker.snapshot(), generation=1)
        parent.merge_snapshot(worker.snapshot(), generation=2)
        assert parent.counter("repro_n_total").value(cell=0) == 5.0
        assert parent.histogram("repro_t_seconds").stats()["count"] == 2

    def test_gauge_recency_ignores_stale_generations(self) -> None:
        early = MetricsRegistry()
        early.gauge("repro_q").set(10.0, cell=0)
        late = MetricsRegistry()
        late.gauge("repro_q").set(3.0, cell=0)
        parent = MetricsRegistry()
        # Later epoch merged first; the stale early snapshot must not
        # roll the gauge backwards when its future completes late.
        parent.merge_snapshot(late.snapshot(), generation=5)
        parent.merge_snapshot(early.snapshot(), generation=1)
        assert parent.gauge("repro_q").value(cell=0) == 3.0

    def test_local_sets_lose_to_merged_generations(self) -> None:
        parent = MetricsRegistry()
        parent.gauge("repro_q").set(99.0)
        worker = MetricsRegistry()
        worker.gauge("repro_q").set(1.0)
        parent.merge_snapshot(worker.snapshot(), generation=1)
        assert parent.gauge("repro_q").value() == 1.0

    def test_histogram_bound_mismatch_raises(self) -> None:
        a = MetricsRegistry()
        a.histogram("repro_t_seconds", buckets=(1.0,)).observe(0.5)
        b = MetricsRegistry()
        b.histogram("repro_t_seconds", buckets=(2.0,)).observe(0.5)
        with pytest.raises(ValueError, match="bounds"):
            b.merge_snapshot(a.snapshot())


class TestTelemetrySink:
    def test_bus_events_map_to_families(self) -> None:
        reg = MetricsRegistry()
        probe = Probe()
        probe.add_sink(TelemetrySink(reg, labels={"cell": 2}))
        with probe.span("slot"):
            with probe.span("bdma"):
                pass
        probe.counter("engine.moves", 3)
        probe.gauge("queue.backlog", 7.5)
        probe.event("slot", {"t": 0, "latency": 0.4, "cost": 0.2, "theta": -0.1})
        probe.event(
            "alert",
            {"monitor": "budget_drift", "severity": "warning", "cell": "2"},
        )
        assert reg.counter("repro_slots_total").value(cell=2) == 1.0
        assert reg.counter("repro_engine_moves_total").value(cell=2) == 3.0
        assert reg.gauge("repro_queue_backlog").value(cell=2) == 7.5
        assert reg.gauge("repro_budget_drift").value(cell=2) == pytest.approx(-0.1)
        assert (
            reg.counter("repro_alerts_total").value(
                cell=2, monitor="budget_drift", severity="warning"
            )
            == 1.0
        )
        phases = reg.histogram("repro_phase_seconds")
        assert phases.stats(cell=2, phase="slot")["count"] == 1
        assert phases.stats(cell=2, phase="slot/bdma")["count"] == 1

    def test_budget_drift_is_running_mean_of_theta(self) -> None:
        reg = MetricsRegistry()
        probe = Probe()
        probe.add_sink(TelemetrySink(reg))
        for theta in (0.2, 0.4):
            probe.event("slot", {"t": 0, "latency": 0, "cost": 0, "theta": theta})
        assert reg.gauge("repro_budget_drift").value() == pytest.approx(0.3)

    def test_invalid_constant_label_rejected(self) -> None:
        with pytest.raises(ValueError):
            TelemetrySink(MetricsRegistry(), labels={"bad name": 1})


class TestKernelInstrumentation:
    def test_wrapped_backend_preserves_results_and_records(self) -> None:
        from repro.kernels import get_kernels

        base = get_kernels("numpy")
        reg = MetricsRegistry()
        wrapped = instrument_kernels(base, reg, labels={"cell": 0})
        assert wrapped.name == base.name
        # A greedy pass of two devices over one base station and two
        # servers (both devices may pick either server).
        args = (
            np.array([1, 0]),
            np.array([0, 2, 4]),
            np.zeros(4, dtype=np.int64),
            np.array([0, 1, 0, 1]),
            np.array([[0.5], [0.7]]),
            np.array([0.3, 0.4]),
            np.array([[0.2, 0.6], [0.9, 0.1]]),
            np.array([1.5]),
            np.array([0.8]),
            np.array([1.0, 2.0]),
            True,
        )
        for got, want in zip(wrapped.greedy_pass(*args), base.greedy_pass(*args)):
            np.testing.assert_array_equal(got, want)
        rows = histogram_summaries(reg, "repro_kernel_seconds")
        assert rows and rows[0]["labels"]["kernel"] == "greedy_pass"
        assert rows[0]["count"] == 1

    def test_maybe_instrument_is_noop_without_context(self) -> None:
        from repro.kernels import get_kernels

        base = get_kernels("numpy")
        assert maybe_instrument_kernels(base) is base

    def test_context_scopes_instrumentation(self) -> None:
        from repro.kernels import get_kernels

        base = get_kernels("numpy")
        reg = MetricsRegistry()
        with telemetry_context(reg, {"cell": 1}):
            wrapped = maybe_instrument_kernels(base)
        assert wrapped is not base
        assert maybe_instrument_kernels(base) is base
        # None registry: pass-through no-op.
        with telemetry_context(None):
            assert maybe_instrument_kernels(base) is base

    def test_controller_run_records_kernel_seconds(self) -> None:
        reg = MetricsRegistry()
        result = repro.api.run(horizon=4, metrics_registry=reg)
        assert result.horizon == 4
        rows = histogram_summaries(reg, "repro_kernel_seconds")
        kernels = {row["labels"]["kernel"] for row in rows}
        assert "gap_sweep" in kernels


class TestResultsUnchanged:
    def test_unsharded_fingerprint_identical_with_registry(self) -> None:
        base = repro.api.run(horizon=8)
        telem = repro.api.run(horizon=8, metrics_registry=MetricsRegistry())
        assert_identical(base, telem)

    def test_sharded_fingerprint_identical_with_registry(self) -> None:
        scenario = metro_scenario()
        base = run_sharded(scenario, horizon=8, cells=2, epoch=4, budget=40.0)
        telem = run_sharded(
            metro_scenario(),
            horizon=8,
            cells=2,
            epoch=4,
            budget=40.0,
            registry=MetricsRegistry(),
            monitors=True,
        )
        assert_identical(base.merged, telem.merged)


class TestMetricsServer:
    def test_scrape_parses_and_404s(self) -> None:
        reg = MetricsRegistry()
        reg.counter("repro_up_total").inc(1.0)
        with MetricsServer(reg, port=0) as server:
            with urllib.request.urlopen(server.url) as resp:
                assert "openmetrics-text" in resp.headers["Content-Type"]
                body = resp.read().decode("utf-8")
            families = parse_openmetrics(body)
            assert "repro_up" in families
            with pytest.raises(urllib.error.HTTPError):
                urllib.request.urlopen(
                    f"http://127.0.0.1:{server.port}/nope"
                )
        # Closed server no longer accepts connections.
        with pytest.raises(urllib.error.URLError):
            urllib.request.urlopen(server.url, timeout=0.5)

    def test_run_facade_serves_live_metrics(self, monkeypatch) -> None:
        import repro.obs.server as server_mod

        seen: dict = {}
        orig_start = server_mod.MetricsServer.start

        def start_hook(self):
            orig_start(self)
            seen["url"] = self.url

        monkeypatch.setattr(server_mod.MetricsServer, "start", start_hook)

        def on_slot(record) -> None:
            if "url" in seen and "body" not in seen:
                seen["body"] = (
                    urllib.request.urlopen(seen["url"]).read().decode("utf-8")
                )

        repro.api.run(horizon=6, metrics_port=0, on_slot=on_slot)
        assert "body" in seen  # scraped mid-run
        families = parse_openmetrics(seen["body"])
        assert "repro_slots" in families
        with pytest.raises(urllib.error.URLError):
            urllib.request.urlopen(seen["url"], timeout=0.5)


class TestShardedTelemetry:
    def test_sequential_run_streams_per_cell_series(self) -> None:
        reg = MetricsRegistry()
        run_sharded(
            metro_scenario(),
            horizon=8,
            cells=2,
            epoch=4,
            budget=40.0,
            registry=reg,
        )
        assert reg.counter("repro_slots_total").value(cell=0) == 8.0
        assert reg.counter("repro_slots_total").value(cell=1) == 8.0
        text = reg.render_openmetrics()
        assert 'repro_queue_backlog{cell="0"}' in text
        assert 'repro_queue_backlog{cell="1"}' in text
        assert reg.gauge("repro_slot_latency").value(cell=0) > 0.0
        budgets = reg.gauge("repro_cell_budget")
        assert budgets.value(cell=0) > 0.0
        assert budgets.value(cell=1) > 0.0
        assert reg.gauge("repro_shard_completed_slots").value() == 8.0
        rows = histogram_summaries(reg, "repro_kernel_seconds")
        cells_seen = {row["labels"].get("cell") for row in rows}
        assert cells_seen >= {"0", "1"}

    def test_pooled_run_merges_worker_snapshots(self) -> None:
        reg = MetricsRegistry()
        result = run_sharded(
            metro_scenario(),
            horizon=4,
            cells=2,
            epoch=2,
            budget=40.0,
            processes=2,
            registry=reg,
            monitors=True,
        )
        assert reg.counter("repro_slots_total").value(cell=0) == 4.0
        assert reg.counter("repro_slots_total").value(cell=1) == 4.0
        text = reg.render_openmetrics()
        parse_openmetrics(text)
        assert 'cell="0"' in text and 'cell="1"' in text
        assert result.health is not None

    def test_sharded_monitor_alerts_carry_cell_label(self) -> None:
        # A starvation budget forces budget-drift alerts in every cell.
        result = run_sharded(
            metro_scenario(),
            horizon=8,
            cells=2,
            epoch=4,
            budget=1e-4,
            monitors=True,
        )
        health = result.health
        assert health is not None
        names = {status.name for status in health.statuses}
        assert any(name.startswith("cell0/") for name in names)
        assert any(name.startswith("cell1/") for name in names)
        drift_alerts = [a for a in health.alerts if a.monitor == "budget"]
        assert drift_alerts
        assert {a.data.get("cell") for a in drift_alerts} >= {0, 1}
        assert result.merged.health is health

    def test_live_alerts_reach_parent_tracer_on_every_path(self) -> None:
        # Both worker transports re-emit each epoch's new alerts on the
        # parent tracer, in the same order with the same payloads.
        class AlertSink:
            def __init__(self) -> None:
                self.alerts: list = []

            def emit(self, event: dict) -> None:
                if event.get("name") == "alert":
                    self.alerts.append(event["data"])

            def close(self) -> None:
                pass

        seen = {}
        for processes in (None, 2):
            sink = AlertSink()
            result = run_sharded(
                metro_scenario(),
                horizon=40,
                cells=2,
                epoch=4,
                budget=1e-4,
                processes=processes,
                monitors=True,
                tracer=Probe([sink]),
            )
            assert result.health is not None
            seen[processes] = sink.alerts
        assert seen[None]
        assert seen[None] == seen[2]

    def test_pooled_health_matches_cells(self) -> None:
        result = run_sharded(
            metro_scenario(),
            horizon=4,
            cells=2,
            epoch=2,
            budget=1e-4,
            processes=2,
            monitors=True,
        )
        health = result.health
        assert health is not None
        assert any(s.name.startswith("cell0/") for s in health.statuses)
        assert any(s.name.startswith("cell1/") for s in health.statuses)
        assert any(a.data.get("cell") in {0, 1} for a in health.alerts)


class TestApiWiring:
    def test_cells_with_custom_monitor_suite_still_conflicts(self) -> None:
        from repro.exceptions import ConfigurationError
        from repro.obs.monitors import MonitorSuite

        with pytest.raises(ConfigurationError, match="monitors"):
            repro.api.run(horizon=4, cells=2, monitors=MonitorSuite(()))

    def test_cells_with_monitors_true_allowed(self) -> None:
        result = repro.api.run(
            scenario=metro_scenario(), horizon=4, cells=2, monitors=True
        )
        assert result.health is not None


class TestProfileReport:
    def test_render_profile_report_lists_hot_series(self) -> None:
        reg = MetricsRegistry()
        repro.api.run(horizon=4, metrics_registry=reg)
        text = render_profile_report(reg, ascii_only=True)
        assert "repro_phase_seconds" in text
        assert "repro_kernel_seconds" in text
        assert "gap_sweep" in text

    def test_empty_registry_renders_placeholder(self) -> None:
        assert "no profile" in render_profile_report(MetricsRegistry())

    def test_histogram_summaries_sorted_by_total(self) -> None:
        reg = MetricsRegistry()
        h = reg.histogram("repro_t_seconds", buckets=DEFAULT_SECONDS_BUCKETS)
        h.observe(0.001, phase="cold")
        for _ in range(5):
            h.observe(0.1, phase="hot")
        rows = histogram_summaries(reg, "repro_t_seconds")
        assert rows[0]["labels"]["phase"] == "hot"
        assert rows[0]["p95"] >= rows[0]["p50"] > 0.0


class TestSnapshotDelta:
    """Per-epoch worker flushes (:meth:`MetricsRegistry.flush_delta`):
    only the series touched since the last flush, by integer id."""

    def test_counter_delta_ships_increments_only(self) -> None:
        worker = MetricsRegistry()
        c = worker.counter("repro_n_total")
        c.inc(2.0, cell=0)
        first = worker.flush_delta()
        assert first["families"] == [("counter", "repro_n", "", None)]
        assert first["series"] == [(0, (("cell", "0"),))]
        assert first["inc"] == ([0], [2.0])
        c.inc(3.0, cell=0)
        second = worker.flush_delta()
        # Announced once: the second flush refers to the series by id.
        assert second["families"] == [] and second["series"] == []
        assert second["inc"] == ([0], [3.0])
        assert second["origin"] == first["origin"]

    def test_quiet_flush_returns_none(self) -> None:
        worker = MetricsRegistry()
        worker.counter("repro_n_total").inc(1.0)
        assert worker.flush_delta() is not None
        assert worker.flush_delta() is None
        # Pre-bound series that nobody updates stay quiet too.
        worker.counter("repro_n_total").labels(cell=1)
        worker.gauge("repro_q").labels(cell=1)
        assert worker.flush_delta() is not None  # the new gauge family
        assert worker.flush_delta() is None

    def test_first_flush_ships_prebound_families(self) -> None:
        # A sink pre-binds its crash counter at attach time; the first
        # delta must carry the (empty) family so a parent registry
        # exposes the same family set as a sequential run's.
        worker = MetricsRegistry()
        worker.counter("repro_crashes_total", "crashes").labels(cell=0)
        worker.gauge("repro_q", "queue")
        worker.histogram("repro_t_seconds", buckets=(1.0,)).labels(cell=0)
        delta = worker.flush_delta()
        assert [(kind, name) for kind, name, *_ in delta["families"]] == [
            ("counter", "repro_crashes"),
            ("gauge", "repro_q"),
            ("histogram", "repro_t_seconds"),
        ]
        # Bound-but-idle series are not shipped.
        assert delta["series"] == []
        parent = MetricsRegistry()
        parent.merge_snapshot(delta, generation=1)
        assert parent.get("repro_crashes_total") is not None
        assert parent.families() == worker.families()
        assert parent.snapshot()["counters"]["repro_crashes"]["series"] == {}

    def test_deltas_merge_like_snapshots(self) -> None:
        worker = MetricsRegistry()
        parent = MetricsRegistry()
        mirror = MetricsRegistry()  # merged from full snapshots
        c = worker.counter("repro_n_total")
        h = worker.histogram("repro_t_seconds", buckets=(1.0,))
        g = worker.gauge("repro_q")
        for epoch in range(3):
            c.inc(1.0, cell=0)
            h.observe(0.5 * epoch)
            g.set(float(epoch))
            parent.merge_snapshot(worker.flush_delta(), generation=epoch + 1)
        mirror.merge_snapshot(worker.snapshot(), generation=3)
        assert (
            parent.counter("repro_n_total").value(cell=0)
            == mirror.counter("repro_n_total").value(cell=0)
            == 3.0
        )
        assert (
            parent.histogram("repro_t_seconds").stats()
            == mirror.histogram("repro_t_seconds").stats()
        )
        assert parent.gauge("repro_q").value() == 2.0
        assert parent.snapshot() == mirror.snapshot()

    def test_gauge_delta_ships_on_restamp_even_if_value_same(self) -> None:
        worker = MetricsRegistry()
        g = worker.gauge("repro_q")
        g.set(1.0)
        worker.flush_delta()
        g.set(1.0)  # same value, new stamp
        delta = worker.flush_delta()
        assert delta is not None
        assert delta["set"] == ([0], [1.0], [2])

    def test_histogram_delta_ships_added_bucket_counts_and_sum_delta(
        self,
    ) -> None:
        worker = MetricsRegistry()
        h = worker.histogram("repro_t_seconds", buckets=(0.1, 1.0))
        h.observe(0.05)
        first = worker.flush_delta()
        assert first["obs"] == ([0], [(0.05, {0: 1})])
        h.observe(0.5)
        h.observe(2.0)
        h.observe(0.1)
        h.observe(0.7)
        second = worker.flush_delta()
        # Only buckets whose counts grew ship, one entry each; the sum
        # ships as "sum now minus sum at the last flush".
        assert second["obs"] == (
            [0], [((0.05 + 0.5 + 2.0 + 0.1 + 0.7) - 0.05, {0: 1, 1: 2, 2: 1})]
        )

    def test_histogram_delta_is_bounded_by_bucket_count(self) -> None:
        worker = MetricsRegistry()
        h = worker.histogram("repro_t_seconds", buckets=(0.1, 1.0))
        for i in range(10_000):
            h.observe((0.05, 0.5, 2.0)[i % 3])
        ((_, added),) = worker.flush_delta()["obs"][1]
        assert added == {0: 3334, 1: 3333, 2: 3333}

    def test_merged_updates_ship_on_the_next_flush(self) -> None:
        # A registry that folds deltas in and is flushed itself passes
        # the merged totals on (counters, gauges, histogram buckets).
        worker, relay, parent = (MetricsRegistry() for _ in range(3))
        h = worker.histogram("repro_t_seconds", buckets=(0.1, 1.0))
        for epoch, value in enumerate((0.05, 0.5, 2.0, 0.5)):
            h.observe(value)
            worker.counter("repro_n_total").inc(2.0)
            worker.gauge("repro_q").set(float(epoch))
            relay.merge_snapshot(worker.flush_delta(), generation=epoch)
            parent.merge_snapshot(relay.flush_delta(), generation=epoch)
        assert parent.snapshot() == relay.snapshot()
        assert parent.histogram("repro_t_seconds").stats()["count"] == 4
        assert parent.counter("repro_n_total").value() == 8.0

    def test_swallowed_flush_keeps_announcements(self) -> None:
        # The salvage replay swallows its flush; the next shipped flush
        # must still introduce every family and series it refers to.
        worker = MetricsRegistry()
        worker.counter("repro_n_total").inc(5.0, cell=0)
        assert worker.flush_delta(swallow=True) is None
        worker.counter("repro_n_total").inc(1.0, cell=0)
        delta = worker.flush_delta()
        assert delta["families"] == [("counter", "repro_n", "", None)]
        assert delta["series"] == [(0, (("cell", "0"),))]
        assert delta["inc"] == ([0], [1.0])
        parent = MetricsRegistry()
        parent.merge_snapshot(delta, generation=1)
        assert parent.counter("repro_n_total").value(cell=0) == 1.0

    def test_ids_resolve_per_sending_registry(self) -> None:
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("repro_x_total").inc(1.0)
        b.counter("repro_y_total").inc(2.0)
        b.counter("repro_x_total").inc(4.0)
        parent = MetricsRegistry()
        parent.merge_snapshot(b.flush_delta(), generation=1)
        parent.merge_snapshot(a.flush_delta(), generation=1)
        a.counter("repro_x_total").inc(1.0)
        parent.merge_snapshot(a.flush_delta(), generation=2)
        assert parent.counter("repro_x_total").value() == 6.0
        assert parent.counter("repro_y_total").value() == 2.0
