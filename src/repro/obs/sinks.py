"""Event sinks: in-memory aggregation and JSONL trace files."""

from __future__ import annotations

import json
import math
from bisect import insort
from pathlib import Path

import numpy as np

from repro.obs.probe import entry_of, expanded


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile on an already-sorted list."""
    if not sorted_values:
        return math.nan
    rank = max(0, min(len(sorted_values) - 1, math.ceil(q * len(sorted_values)) - 1))
    return sorted_values[rank]


class PhaseAggregator:
    """Accumulates span durations, counters, and gauge samples in memory.

    Span durations are kept per phase name so :meth:`table` can report
    percentiles; counters collapse to totals; gauges keep their sample
    series (e.g. the queue-backlog trajectory).
    """

    def __init__(self) -> None:
        self.spans: dict[str, list[float]] = {}
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, list[float]] = {}
        # Ordered gauge segments from merge_state(order=...): per gauge
        # name, (order_key, samples) pairs kept sorted by key so the
        # public `gauges` lists stay in logical (slot, cell) order no
        # matter what order pooled workers complete in.
        self._gauge_segments: dict[str, list[tuple[tuple, list[float]]]] = {}

    def emit(self, event: dict) -> None:
        self.fold((entry_of(event),))

    def fold(self, record) -> None:
        """Take a probe's record (see :mod:`repro.obs.probe`)."""
        spans, counters, gauges = self.spans, self.counters, self.gauges
        for kind, name, value, _ in expanded(record):
            if kind == 0:
                spans.setdefault(name, []).append(value)
            elif kind == 1:
                counters[name] = counters.get(name, 0.0) + value
            elif kind == 2:
                gauges.setdefault(name, []).append(value)
            # free-form "event" payloads are for streaming sinks, not stats

    def wants(self, kind: str, name: str) -> bool:
        """Spans, counters and gauges; free-form events are not stats."""
        return kind != "event"

    def close(self) -> None:  # nothing buffered
        pass

    def phase_stats(self, name: str) -> dict[str, float]:
        """Count/total/p50/p95 for one span name."""
        values = sorted(self.spans.get(name, ()))
        return {
            "count": len(values),
            "total_seconds": float(sum(values)),
            "p50_seconds": _percentile(values, 0.50),
            "p95_seconds": _percentile(values, 0.95),
        }

    def merge(self, other: "PhaseAggregator") -> "PhaseAggregator":
        """Fold *other*'s accumulations into self."""
        return self.merge_state(other.state_dict())

    def state_dict(self) -> dict:
        """A picklable/JSON-able snapshot (for cross-process merging)."""
        return {
            "spans": {k: list(v) for k, v in self.spans.items()},
            "counters": dict(self.counters),
            "gauges": {k: list(v) for k, v in self.gauges.items()},
        }

    def merge_state(
        self, state: dict, *, order: "tuple | None" = None
    ) -> "PhaseAggregator":
        """Fold a :meth:`state_dict` snapshot into self.

        Spans and counters are order-insensitive (lists of durations,
        additive totals), but gauges carry *last-value* semantics: the
        tail of ``gauges["queue.backlog"]`` is "the current backlog".
        Pooled workers complete in arbitrary order, so appending their
        snapshots naively can leave an *older* epoch's samples at the
        tail.  Pass *order* -- any sortable key, conventionally
        ``(start_slot, cell)`` for sharded epochs or ``(seed,)`` for
        replications -- and each gauge list is re-assembled from its
        segments in key order.  Samples emitted directly on this
        aggregator before the first ordered merge sort before every
        merged segment.  ``order=None`` keeps the historical
        append-in-arrival-order behaviour.
        """
        for name, values in state.get("spans", {}).items():
            self.spans.setdefault(name, []).extend(values)
        for name, value in state.get("counters", {}).items():
            self.counters[name] = self.counters.get(name, 0.0) + value
        for name, values in state.get("gauges", {}).items():
            if order is None:
                self.gauges.setdefault(name, []).extend(values)
                continue
            segments = self._gauge_segments.setdefault(name, [])
            if not segments and self.gauges.get(name):
                # First ordered merge for this gauge: keep any locally
                # emitted samples as the leading segment (the empty
                # tuple sorts before every real key).
                segments.append(((), list(self.gauges[name])))
            insort(segments, (tuple(order), list(values)), key=lambda s: s[0])
            self.gauges[name] = [v for _, vals in segments for v in vals]
        return self

    def table(self) -> str:
        """Render the per-phase profile (count, total s, p50, p95)."""
        headers = ("phase", "count", "total s", "p50 ms", "p95 ms")
        rows = []
        for name in sorted(self.spans):
            stats = self.phase_stats(name)
            rows.append(
                (
                    name,
                    str(stats["count"]),
                    f"{stats['total_seconds']:.3f}",
                    f"{1e3 * stats['p50_seconds']:.2f}",
                    f"{1e3 * stats['p95_seconds']:.2f}",
                )
            )
        for name in sorted(self.counters):
            rows.append((name, f"{self.counters[name]:.0f}", "", "", ""))
        widths = [
            max(len(headers[c]), *(len(r[c]) for r in rows)) if rows else len(headers[c])
            for c in range(len(headers))
        ]
        lines = [
            "  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip(),
            "  ".join("-" * w for w in widths),
        ]
        for row in rows:
            lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)).rstrip())
        return "\n".join(lines)


def _json_default(value: object) -> object:
    """Serialise numpy scalars/arrays that leak into event payloads."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"not JSON serialisable: {type(value).__name__}")


class JsonlSink:
    """Streams every event as one JSON line to a file.

    The file is written incrementally, so long horizons never buffer
    the trace in memory.  Schema: each line is one event dict as
    documented in :mod:`repro.obs.probe`.

    Usable as a context manager (the file is closed on exit)::

        with JsonlSink("run.jsonl", flush_every=1) as sink:
            probe.add_sink(sink)
            ...

    Args:
        path: Destination file (truncated).
        flush_every: Flush the stream after every N events; ``1`` makes
            each event durable immediately (crash safety at the price of
            one flush per event), ``None`` (default) leaves flushing to
            the runtime until :meth:`close`.
    """

    def __init__(
        self, path: "str | Path", *, flush_every: int | None = None
    ) -> None:
        if flush_every is not None and flush_every < 1:
            raise ValueError("flush_every must be a positive int or None")
        self.path = Path(path)
        self.flush_every = flush_every
        self._since_flush = 0
        self._fh = open(self.path, "w", encoding="utf-8")

    def emit(self, event: dict) -> None:
        self._fh.write(
            json.dumps(event, separators=(",", ":"), default=_json_default)
        )
        self._fh.write("\n")
        if self.flush_every is not None:
            self._since_flush += 1
            if self._since_flush >= self.flush_every:
                self._fh.flush()
                self._since_flush = 0

    def flush(self) -> None:
        """Push buffered lines to the OS now (safe after close).

        The sharded salvage path calls this (via
        :meth:`repro.obs.probe.Probe.flush`) before retrying a
        timed-out epoch job, so the trace on disk is whole-record
        durable even if the parent dies during the retry.
        """
        if not self._fh.closed:
            self._fh.flush()
            self._since_flush = 0

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def read_jsonl(path: "str | Path") -> list[dict]:
    """Load a JSONL trace back into event dicts (testing/analysis aid)."""
    events = []
    with open(Path(path), encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events
