"""Trace analytics: typed loading, summaries, diffs, flight recording.

The JSONL traces streamed by :class:`~repro.obs.sinks.JsonlSink` are
plain event dicts; this module turns them back into typed records
(:func:`load_trace`), renders run summaries (:meth:`Trace.summary`),
and compares two runs phase by phase and metric by metric
(:func:`diff_traces`) -- the engine behind ``repro trace summary`` and
``repro trace diff``, which doubles as a CI perf gate.

:class:`FlightRecorder` is the crash-forensics sink: a ring buffer of
the last N slots' events that dumps itself to disk when the simulation
loop emits a ``crash`` event (see :func:`repro.sim.engine.run_simulation`).
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

from repro.obs.manifest import manifest_path_for
from repro.obs.sinks import PhaseAggregator, _json_default, read_jsonl

__all__ = [
    "SpanRecord",
    "CounterRecord",
    "GaugeRecord",
    "EventRecord",
    "Trace",
    "load_trace",
    "Delta",
    "TraceDiff",
    "diff_traces",
    "FlightRecorder",
]

#: Slot-event fields summarised and diffed as run metrics.
_SLOT_METRICS = ("latency", "cost", "backlog_after", "solve_seconds")


@dataclass(frozen=True)
class SpanRecord:
    """One timed phase occurrence (``kind: "span"``)."""

    name: str
    start: float
    seconds: float


@dataclass(frozen=True)
class CounterRecord:
    """One counter increment (``kind: "counter"``)."""

    name: str
    value: float


@dataclass(frozen=True)
class GaugeRecord:
    """One gauge sample (``kind: "gauge"``)."""

    name: str
    value: float


@dataclass(frozen=True)
class EventRecord:
    """One free-form event (``kind: "event"``), e.g. a slot record."""

    name: str
    data: dict


@dataclass
class Trace:
    """A loaded JSONL trace, events grouped by kind.

    Attributes:
        path: Source file (``None`` for synthetic traces).
        spans: Every span occurrence, in stream order.
        counters: Counter totals (increments collapsed).
        gauges: Gauge sample series per name.
        events: Free-form events, in stream order.
    """

    path: Path | None = None
    spans: list[SpanRecord] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=dict)
    gauges: dict[str, list[float]] = field(default_factory=dict)
    events: list[EventRecord] = field(default_factory=list)

    @property
    def slots(self) -> list[dict]:
        """Per-slot records (the ``data`` of every ``slot`` event)."""
        return [e.data for e in self.events if e.name == "slot"]

    @property
    def alerts(self) -> list[dict]:
        """Monitor alerts captured in the trace."""
        return [e.data for e in self.events if e.name == "alert"]

    def phase_totals(self) -> dict[str, float]:
        """Total seconds per span name."""
        totals: dict[str, float] = {}
        for span in self.spans:
            totals[span.name] = totals.get(span.name, 0.0) + span.seconds
        return totals

    def metrics(self) -> dict[str, float]:
        """Run metrics for summaries/diffs: slot-field means, final
        backlog, and every counter total (as ``counter/<name>``)."""
        out: dict[str, float] = {}
        slots = self.slots
        for key in _SLOT_METRICS:
            values = [float(s[key]) for s in slots if key in s]
            if values:
                out[f"mean_{key}"] = sum(values) / len(values)
        backlogs = [float(s["backlog_after"]) for s in slots
                    if "backlog_after" in s]
        if backlogs:
            out["final_backlog"] = backlogs[-1]
        for name, value in self.counters.items():
            out[f"counter/{name}"] = value
        return out

    def aggregator(self) -> PhaseAggregator:
        """Replay the trace into a fresh :class:`PhaseAggregator`."""
        agg = PhaseAggregator()
        for span in self.spans:
            agg.emit({"kind": "span", "name": span.name,
                      "seconds": span.seconds})
        for name, value in self.counters.items():
            agg.emit({"kind": "counter", "name": name, "value": value})
        for name, values in self.gauges.items():
            for value in values:
                agg.emit({"kind": "gauge", "name": name, "value": value})
        return agg

    def manifest(self) -> dict | None:
        """The sibling run manifest, when one exists on disk."""
        if self.path is None:
            return None
        manifest_path = manifest_path_for(self.path)
        if not manifest_path.exists():
            return None
        return json.loads(manifest_path.read_text())

    def summary(self) -> str:
        """Human-readable run summary: provenance, metrics, phase table."""
        lines = []
        source = str(self.path) if self.path is not None else "<memory>"
        lines.append(f"trace    : {source}")
        manifest = self.manifest()
        if manifest:
            lines.append(
                f"manifest : {manifest.get('package')} "
                f"{manifest.get('version')} seed={manifest.get('seed')} "
                f"config_hash={manifest.get('config_hash')}"
            )
        lines.append(
            f"events   : {len(self.spans)} spans, "
            f"{len(self.counters)} counters, "
            f"{sum(len(v) for v in self.gauges.values())} gauge samples, "
            f"{len(self.slots)} slots, {len(self.alerts)} alerts"
        )
        metrics = self.metrics()
        for name in sorted(m for m in metrics if not m.startswith("counter/")):
            lines.append(f"{name:<20} : {metrics[name]:.6g}")
        # Engine work counters, called out by name so warm-start and
        # P2-B fast-path effectiveness is visible without reading the
        # full phase table.
        engine_counters = (
            "engine.sweeps",
            "engine.moves",
            "engine.warm_start_hits",
            "p2b.scalar_solves",
            "p2b.fastpath",
        )
        present = [
            f"{name.split('.', 1)[1]}={self.counters[name]:.0f}"
            for name in engine_counters
            if name in self.counters
        ]
        if present:
            lines.append(f"engine   : {' '.join(present)}")
        for alert in self.alerts:
            lines.append(
                f"alert    : [{alert.get('severity')}] "
                f"{alert.get('monitor')}: {alert.get('message')}"
            )
        if self.spans or self.counters:
            lines.append("")
            lines.append(self.aggregator().table())
        return "\n".join(lines)


def load_trace(path: "str | Path") -> Trace:
    """Load a JSONL trace back into typed records.

    Unknown ``kind`` values are skipped (forward compatibility); the
    known kinds are documented in :mod:`repro.obs.probe`.
    """
    path = Path(path)
    trace = Trace(path=path)
    for event in read_jsonl(path):
        kind = event.get("kind")
        if kind == "span":
            trace.spans.append(
                SpanRecord(
                    name=event["name"],
                    start=float(event.get("start", 0.0)),
                    seconds=float(event["seconds"]),
                )
            )
        elif kind == "counter":
            name = event["name"]
            trace.counters[name] = (
                trace.counters.get(name, 0.0) + float(event["value"])
            )
        elif kind == "gauge":
            trace.gauges.setdefault(event["name"], []).append(
                float(event["value"])
            )
        elif kind == "event":
            trace.events.append(
                EventRecord(name=event["name"], data=event.get("data", {}))
            )
    return trace


@dataclass(frozen=True)
class Delta:
    """One compared quantity between a base and a new run."""

    name: str
    base: float
    new: float

    @property
    def ratio(self) -> float:
        """``new / base`` (inf when the base is 0 and new is not)."""
        if self.base == 0.0:
            return float("inf") if self.new != 0.0 else 1.0
        return self.new / self.base

    @property
    def rel_change(self) -> float:
        """Signed relative change ``(new - base) / |base|``."""
        if self.base == 0.0:
            return float("inf") if self.new != 0.0 else 0.0
        return (self.new - self.base) / abs(self.base)


@dataclass
class TraceDiff:
    """Outcome of comparing two traces.

    Attributes:
        phases: Per-phase total-seconds deltas (shared phases only).
        metrics: Run-metric deltas (shared metrics only).
        regressions: Human-readable descriptions of threshold breaches.
        notes: Non-failing observations (added/removed phases, ...).
    """

    phases: list[Delta] = field(default_factory=list)
    metrics: list[Delta] = field(default_factory=list)
    regressions: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Whether no regression crossed its threshold."""
        return not self.regressions

    def render(self) -> str:
        """Text report: metric deltas, phase-time deltas, verdict."""
        lines = []
        if self.metrics:
            lines.append(f"{'metric':<32} {'base':>12} {'new':>12} {'change':>9}")
            for d in sorted(self.metrics, key=lambda d: d.name):
                change = (
                    f"{100.0 * d.rel_change:+.1f}%"
                    if abs(d.rel_change) != float("inf") else "new!=0"
                )
                lines.append(
                    f"{d.name:<32} {d.base:>12.6g} {d.new:>12.6g} {change:>9}"
                )
        if self.phases:
            lines.append("")
            lines.append(f"{'phase':<32} {'base s':>12} {'new s':>12} {'ratio':>9}")
            for d in sorted(self.phases, key=lambda d: d.name):
                lines.append(
                    f"{d.name:<32} {d.base:>12.4f} {d.new:>12.4f} "
                    f"{d.ratio:>8.2f}x"
                )
        for note in self.notes:
            lines.append(f"note: {note}")
        lines.append("")
        if self.ok:
            lines.append("no regressions")
        else:
            for regression in self.regressions:
                lines.append(f"REGRESSION: {regression}")
        return "\n".join(lines)


def diff_traces(
    base: "Trace | str | Path",
    new: "Trace | str | Path",
    *,
    time_threshold: float = 0.5,
    metric_threshold: float = 0.10,
    min_phase_seconds: float = 5e-4,
    include_times: bool = True,
) -> TraceDiff:
    """Compare two traces; flag phase-time and metric regressions.

    A *phase* regresses when its total seconds grow by more than
    ``time_threshold`` (relative) *and* ``min_phase_seconds`` (absolute
    -- sub-millisecond noise never fails a gate).  A *metric* regresses
    when it grows by more than ``metric_threshold``; every summarised
    metric is oriented so that larger is worse (latency, cost, backlog,
    solve time, engine work counters), so only increases fail.
    Identical traces always diff clean.

    Args:
        base: Baseline trace (or a path to one).
        new: Candidate trace (or a path to one).
        time_threshold: Relative phase-time growth tolerated.
        metric_threshold: Relative metric growth tolerated.
        min_phase_seconds: Absolute phase-time growth floor.
        include_times: Compare span times at all; disable for
            cross-machine gates where only metrics are comparable.
    """
    if not isinstance(base, Trace):
        base = load_trace(base)
    if not isinstance(new, Trace):
        new = load_trace(new)
    diff = TraceDiff()

    if include_times:
        base_phases = base.phase_totals()
        new_phases = new.phase_totals()
        for name in sorted(set(base_phases) | set(new_phases)):
            if name not in base_phases:
                diff.notes.append(f"phase {name!r} only in new trace")
                continue
            if name not in new_phases:
                diff.notes.append(f"phase {name!r} only in base trace")
                continue
            delta = Delta(name=name, base=base_phases[name], new=new_phases[name])
            diff.phases.append(delta)
            grew = delta.new - delta.base
            if (
                delta.new > delta.base * (1.0 + time_threshold)
                and grew > min_phase_seconds
            ):
                diff.regressions.append(
                    f"phase {name!r} slowed {delta.ratio:.2f}x "
                    f"({delta.base:.4f}s -> {delta.new:.4f}s)"
                )

    base_metrics = base.metrics()
    new_metrics = new.metrics()
    for name in sorted(set(base_metrics) | set(new_metrics)):
        if not include_times and name == "mean_solve_seconds":
            # Wall-clock like the phases: meaningless across machines.
            continue
        if name not in base_metrics or name not in new_metrics:
            side = "new" if name in new_metrics else "base"
            diff.notes.append(f"metric {name!r} only in {side} trace")
            continue
        delta = Delta(name=name, base=base_metrics[name], new=new_metrics[name])
        diff.metrics.append(delta)
        if delta.base == 0.0:
            regressed = delta.new > 1e-9
        else:
            regressed = delta.new > delta.base * (1.0 + metric_threshold)
        if regressed:
            diff.regressions.append(
                f"metric {name!r} worsened {delta.base:.6g} -> "
                f"{delta.new:.6g} (+{100.0 * delta.rel_change:.1f}%)"
                if delta.base != 0.0 else
                f"metric {name!r} worsened 0 -> {delta.new:.6g}"
            )
    return diff


class FlightRecorder:
    """Ring-buffer sink: keeps the last N slots of events, dumps on crash.

    Events are bucketed per slot (a bucket closes on each ``slot``
    event); only the most recent *capacity_slots* buckets are retained,
    so the recorder is memory-flat on unbounded horizons.  When the
    simulation loop emits a ``crash`` event (see
    :func:`repro.sim.engine.run_simulation`), the buffer -- crash event
    included -- is written to *path* as ordinary trace JSONL, readable
    by :func:`load_trace`.

    Args:
        path: Dump destination.
        capacity_slots: Completed slots retained in the ring.
    """

    def __init__(self, path: "str | Path", *, capacity_slots: int = 32) -> None:
        self.path = Path(path)
        self.capacity_slots = int(capacity_slots)
        self._buckets: deque[list[dict]] = deque(maxlen=self.capacity_slots)
        self._current: list[dict] = []
        #: Path written by the last dump, ``None`` until one happens.
        self.dumped: Path | None = None

    def emit(self, event: dict) -> None:
        self._current.append(event)
        if event["kind"] == "event":
            if event["name"] == "slot":
                self._buckets.append(self._current)
                self._current = []
            elif event["name"] == "crash":
                self.dump()

    def buffered_events(self) -> list[dict]:
        """The retained events, oldest first."""
        out: list[dict] = []
        for bucket in self._buckets:
            out.extend(bucket)
        out.extend(self._current)
        return out

    def dump(self, path: "str | Path | None" = None) -> Path:
        """Write the buffer as JSONL; returns the path written."""
        path = Path(path) if path is not None else self.path
        with open(path, "w", encoding="utf-8") as fh:
            for event in self.buffered_events():
                fh.write(json.dumps(event, separators=(",", ":"),
                                    default=_json_default))
                fh.write("\n")
        self.dumped = path
        return path

    def close(self) -> None:  # a clean run leaves no dump behind
        pass
