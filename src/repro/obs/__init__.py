"""Structured observability: spans, sinks, monitors, traces, dashboard.

* :mod:`repro.obs.probe` -- the event bus: the no-op :class:`Tracer`
  (near-zero overhead when disabled) and the recording :class:`Probe`
  with nested spans, counters, and gauges.
* :mod:`repro.obs.sinks` -- in-memory per-phase aggregation with
  percentiles (:class:`PhaseAggregator`) and streaming JSONL trace
  files (:class:`JsonlSink`).
* :mod:`repro.obs.manifest` -- run manifests (config hash, seeds,
  package version, wall clock) written next to results.
* :mod:`repro.obs.monitors` -- domain health monitors on the bus
  (queue stability, budget drift, feasibility, theory guarantees,
  anomaly detection) producing structured alerts and a
  :class:`HealthReport`.
* :mod:`repro.obs.trace` -- trace analytics: typed JSONL loading,
  run summaries, regression diffs, and the crash-dump
  :class:`FlightRecorder`.
* :mod:`repro.obs.dashboard` -- the live per-slot terminal
  :class:`Dashboard`.
* :mod:`repro.obs.telemetry` -- the fleet metrics registry:
  process-safe counters/gauges/histograms, OpenMetrics rendering,
  cross-process snapshot merging, and per-kernel profiling hooks.
* :mod:`repro.obs.server` -- the stdlib HTTP exposition endpoint
  serving ``GET /metrics`` from a registry.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".probe": ("Tracer", "Probe", "Sink", "NULL_TRACER", "as_tracer"),
        ".sinks": ("PhaseAggregator", "JsonlSink", "read_jsonl"),
        ".manifest": ("RunManifest", "config_hash", "manifest_path_for"),
        ".monitors": (
            "Monitor",
            "MonitorSuite",
            "MonitorStatus",
            "Alert",
            "HealthReport",
            "QueueStabilityMonitor",
            "BudgetDriftMonitor",
            "FeasibilityMonitor",
            "GuaranteeMonitor",
            "AnomalyMonitor",
            "ResilienceMonitor",
            "OverloadMonitor",
            "default_monitors",
        ),
        ".trace": (
            "Trace",
            "load_trace",
            "Delta",
            "TraceDiff",
            "diff_traces",
            "FlightRecorder",
        ),
        ".dashboard": ("Dashboard", "render_profile_report"),
        ".telemetry": (
            "MetricsRegistry",
            "Counter",
            "Gauge",
            "Histogram",
            "TelemetrySink",
            "metric_name",
            "parse_openmetrics",
            "telemetry_context",
            "instrument_kernels",
            "histogram_summaries",
        ),
        ".server": ("MetricsServer",),
    },
)
