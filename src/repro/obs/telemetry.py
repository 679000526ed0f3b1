"""Fleet telemetry: a process-safe metrics registry with OpenMetrics export.

The observability bus (PR 2) streams *events*; this module adds the
*state* layer a scrape-based monitoring stack needs: a
:class:`MetricsRegistry` holding counters, gauges, and bounded-bucket
histograms (exact sum/count per series), addressable by metric name plus
a label set -- the Prometheus data model, without the dependency.

Three integration surfaces:

* :class:`TelemetrySink` -- a tracer sink bridging the event bus into a
  registry.  Spans become ``repro_phase_seconds`` histogram samples,
  counters become ``repro_<name>_total``, gauges become
  ``repro_<name>``, per-slot events feed ``repro_slot_latency`` /
  ``repro_slot_cost`` / ``repro_budget_drift``, and monitor alerts count
  into ``repro_alerts_total{monitor=,severity=}``.  Constant labels
  (e.g. ``cell="3"``) stamp every sample, so per-cell series never
  collide when merged.  The sink reads its probe's record (see
  :mod:`repro.obs.probe`): a slot's events reach the registry as one
  row, which the registry folds into the series only when it is read
  (flushed, snapshotted or scraped) -- per series one batch, the
  histograms binned with one ``np.searchsorted``.
* flush/merge -- a resident worker calls
  :meth:`MetricsRegistry.flush_delta` once per epoch: it walks only the
  series touched since the previous flush and ships them by integer id
  (names and labels go once, when a series first ships), and ships its
  pending rows unfolded, for the receiver to fold when it is read.
  :meth:`MetricsRegistry.merge_snapshot` folds such a delta -- or a full
  :meth:`MetricsRegistry.snapshot` -- into the parent's live registry
  (counters/histograms add; gauges keep the most recent value by a
  ``(generation, sequence)`` recency stamp, so a late reply cannot roll
  a gauge backwards).
* kernel profiling -- :func:`instrument_kernels` wraps a resolved
  :class:`~repro.kernels.interface.KernelBackend` so every hot call
  (``gap_sweep`` / ``run_dynamics`` / ``golden_quad``, the refills and
  ``greedy_pass``) lands a wall-clock sample in the
  ``repro_kernel_seconds{kernel=,backend=}`` histogram; a fused
  ``bdma_slot`` call lands one sample per sub-kernel it ran, timed
  inside the call.  The controller
  applies it automatically whenever a telemetry context is active
  (:func:`telemetry_context`), and the wrapper is thin enough to stay
  on by default (one ``perf_counter`` pair and a list append per call;
  the samples are binned when the registry is read).

:meth:`MetricsRegistry.render_openmetrics` emits the OpenMetrics text
format (``# TYPE``/``# HELP`` metadata, ``_total``/``_bucket``/``_sum``
/``_count`` sample suffixes, a terminating ``# EOF``);
:func:`parse_openmetrics` is the matching validator used by tests and
the CI smoke job.  :mod:`repro.obs.server` serves the same text over
HTTP for live scrapes.
"""

from __future__ import annotations

import math
import os
import pickle
import re
import threading
from bisect import bisect_left
from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator, Mapping

import numpy as np

from repro.obs.probe import KINDS, entry_of, expanded

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernels.interface import KernelBackend

__all__ = [
    "DEFAULT_SECONDS_BUCKETS",
    "MetricsRegistry",
    "TelemetrySink",
    "instrument_kernels",
    "maybe_instrument_kernels",
    "metric_name",
    "parse_openmetrics",
    "telemetry_context",
]

#: Default histogram buckets for wall-clock seconds: exponential from
#: 2 microseconds to 10 seconds (kernel calls live at the small end,
#: whole epochs at the large end); everything slower lands in +Inf.
DEFAULT_SECONDS_BUCKETS: tuple[float, ...] = (
    2e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
    1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0,
)

#: Pending records at which a registry folds them without being read,
#: so a registry nobody reads stays bounded.
_RECORDS_AT = 4096

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")
_MANGLE_RE = re.compile(r"[^a-zA-Z0-9_]")

#: Label-set key type: sorted ``(key, value)`` pairs (hashable, picklable).
LabelKey = "tuple[tuple[str, str], ...]"


def metric_name(bus_name: str, *, prefix: str = "repro") -> str:
    """Mangle a bus event name into an exposition-safe metric name.

    ``"queue.backlog"`` becomes ``"repro_queue_backlog"``: dots, dashes,
    and slashes collapse to underscores, and everything gains the
    ``repro_`` domain prefix per the naming scheme
    ``repro_<domain>_<name>``.
    """
    mangled = _MANGLE_RE.sub("_", bus_name).strip("_")
    return f"{prefix}_{mangled}" if prefix else mangled


def _label_key(labels: "Mapping[str, object] | None") -> LabelKey:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _render_labels(key: LabelKey, extra: "tuple[tuple[str, str], ...]" = ()) -> str:
    pairs = [*key, *extra]
    if not pairs:
        return ""
    inner = ",".join(f'{k}="{_escape_label_value(v)}"' for k, v in pairs)
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value in (math.inf, -math.inf):
        return "+Inf" if value > 0 else "-Inf"
    return repr(float(value))


def _format_le(bound: float) -> str:
    return "+Inf" if bound == math.inf else _format_value(bound)


class _Family:
    """Base class for one named metric family (all its label series).

    ``labels(...)`` hands out one series object per label set (the same
    object every time), and that object is what ``inc`` / ``set`` /
    ``observe`` update.  A series joins :attr:`_series` -- the set that
    snapshots and scrapes see -- on its first update (histograms: on
    binding, so a pre-bound histogram exposes its zero counts).
    """

    kind = "untyped"
    _series_type: type

    def __init__(self, name: str, help: str, registry: "MetricsRegistry") -> None:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        self.name = name
        self.help = help
        self._registry = registry
        self._lock = registry._lock
        self._series: dict = {}
        self._bound: dict = {}
        #: Flush id, assigned when the family is first announced.
        self._fid: "int | None" = None

    def labels(self, **labels: object):
        """The bound series for one label set (created on first use)."""
        return self._bind(_label_key(labels))

    def _bind(self, key: LabelKey):
        series = self._bound.get(key)
        if series is None:
            with self._lock:
                series = self._bound.get(key)
                if series is None:
                    series = self._series_type(self, key)
                    self._bound[key] = series
        return series

    def _announcement(self) -> tuple:
        return (self.kind, self.name, self.help, None)


class _Series:
    """One label set of a family, bound once and updated in place.

    ``touched`` is the flush bookkeeping: the first update after a
    flush sets it and queues the series on the registry, so
    :meth:`MetricsRegistry.flush_delta` walks only what changed.  The
    same first update makes the series live (visible to snapshots and
    scrapes).
    """

    __slots__ = ("_family", "_lock", "_enqueue", "_live", "key", "touched", "sid")

    #: Index of the registry's touched queue this kind goes on.
    _queue = 0

    def __init__(self, family: _Family, key: LabelKey) -> None:
        self._family = family
        self._lock = family._lock
        self._enqueue = family._registry._touched[self._queue].append
        self._live = family._series
        self.key = key
        self.touched = False
        #: Flush id, assigned when the series is first shipped.
        self.sid: "int | None" = None

    def _mark(self) -> None:
        """Queue a merged update for the next flush (the caller holds
        the lock); the update methods inline the same three steps."""
        self.touched = True
        self._enqueue(self)
        self._live[self.key] = self


class _CounterSeries(_Series):
    __slots__ = ("value", "shipped")

    _queue = 0

    def __init__(self, family: _Family, key: LabelKey) -> None:
        super().__init__(family, key)
        self.value = 0.0
        #: The value the last flush shipped (increments are relative to it).
        self.shipped = 0.0

    def inc(self, value: float = 1.0) -> None:
        self.inc_many((value,))

    def inc_many(self, values) -> None:
        """Add each of *values*, in order."""
        with self._lock:
            total = self.value
            for value in values:
                if value < 0:
                    raise ValueError("counters only go up; use a gauge")
                total += value
            self.value = total
            if not self.touched:
                self.touched = True
                self._enqueue(self)
                self._live[self.key] = self


class _GaugeSeries(_Series):
    __slots__ = ("value", "stamp")

    _queue = 1

    def __init__(self, family: _Family, key: LabelKey) -> None:
        super().__init__(family, key)
        self.value = math.nan
        self.stamp: "tuple[int, int] | None" = None

    def set(self, value: float) -> None:
        registry = self._family._registry
        with self._lock:
            registry._seq += 1
            self.value = float(value)
            self.stamp = (0, registry._seq)
            if not self.touched:
                self.touched = True
                self._enqueue(self)
                self._live[self.key] = self


    def _merge(self, value: float, stamp: tuple) -> None:
        """Take a merged value if its stamp is not older than ours (the
        caller holds the lock)."""
        if self.stamp is None or stamp >= self.stamp:
            self.value = value
            self.stamp = stamp
            if not self.touched:
                self._mark()


class _HistogramSeries(_Series):
    __slots__ = ("_bounds", "counts", "sum", "count", "added", "shipped_sum")

    _queue = 2

    def __init__(self, family: "Histogram", key: LabelKey) -> None:
        super().__init__(family, key)
        self._bounds = family.bounds
        # counts has len(bounds)+1 entries; the last is +Inf.
        self.counts = [0] * (len(family.bounds) + 1)
        self.sum = 0.0
        self.count = 0
        #: Bucket index -> observations since the last flush (at most
        #: one entry per bucket), and the sum the last flush shipped.
        self.added: "dict[int, int]" = {}
        self.shipped_sum = 0.0
        self._live[key] = self

    def observe(self, value: float) -> None:
        self.observe_many((float(value),))

    def observe_many(self, values) -> None:
        """Record each of *values* (floats); the sum adds them in order,
        so it is the one per-sample observes would have made."""
        # OpenMetrics ``le`` is inclusive: a value equal to a bound
        # belongs to that bound's bucket.
        if len(values) < 16:
            buckets: dict = {}
            for value in values:
                index = bisect_left(self._bounds, value)
                buckets[index] = buckets.get(index, 0) + 1
        else:
            binned = np.bincount(
                np.searchsorted(self._bounds, values), minlength=len(self.counts)
            )
            buckets = {int(i): int(binned[i]) for i in np.flatnonzero(binned)}
        with self._lock:
            total = self.sum
            for value in values:
                total += value
            self._add(buckets, 0.0)
            self.sum = total

    def _take(self) -> "tuple[float, dict[int, int]]":
        """The sum and per-bucket counts added since the last flush,
        which becomes the new baseline (the caller holds the lock)."""
        taken = (self.sum - self.shipped_sum, self.added)
        self.added = {}
        self.shipped_sum = self.sum
        return taken

    def _add(self, added: "dict[int, int]", total: float) -> None:
        """Fold merged per-bucket counts in (the caller holds the lock)."""
        counts = self.counts
        mine = self.added
        for index, c in added.items():
            counts[index] += c
            mine[index] = mine.get(index, 0) + c
            self.count += c
        self.sum += total
        if not self.touched:
            self._mark()


class Counter(_Family):
    """A monotonically increasing sum per label set."""

    kind = "counter"
    _series_type = _CounterSeries

    def inc(self, value: float = 1.0, **labels: object) -> None:
        """Add *value* (must be >= 0) to the series for *labels*."""
        self._bind(_label_key(labels)).inc(value)

    def value(self, **labels: object) -> float:
        """Current total for one label set (0.0 if never incremented)."""
        self._registry._fold()
        series = self._series.get(_label_key(labels))
        return float(series.value) if series is not None else 0.0


class Gauge(_Family):
    """A last-value-wins sample per label set, with a recency stamp.

    The stamp is a ``(generation, sequence)`` pair ordered
    lexicographically.  Local sets use generation 0 and the registry's
    monotonic sequence; cross-process merges re-stamp incoming values
    with the caller-supplied generation (the epoch ordinal), so a stale
    worker snapshot that arrives late can never overwrite a newer one.
    """

    kind = "gauge"
    _series_type = _GaugeSeries

    def set(self, value: float, **labels: object) -> None:
        """Record *value* as the series' current level."""
        self._bind(_label_key(labels)).set(value)

    def value(self, **labels: object) -> float:
        """Current level for one label set (NaN if never set)."""
        self._registry._fold()
        series = self._series.get(_label_key(labels))
        return float(series.value) if series is not None else math.nan


class Histogram(_Family):
    """Bounded cumulative-bucket histogram with exact sum and count.

    Buckets are inclusive upper bounds (``le``); an implicit ``+Inf``
    bucket catches overflow, so ``observe`` never loses a sample.  The
    stored counts are per-bucket (non-cumulative); rendering
    accumulates them into the OpenMetrics cumulative form.
    """

    kind = "histogram"
    _series_type = _HistogramSeries

    def __init__(self, name: str, help: str, registry: "MetricsRegistry",
                 buckets: "tuple[float, ...]") -> None:
        super().__init__(name, help, registry)
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError("histogram buckets must be strictly increasing")
        self.bounds = bounds

    def _announcement(self) -> tuple:
        return (self.kind, self.name, self.help, self.bounds)

    def observe(self, value: float, **labels: object) -> None:
        """Record one sample into the right bucket."""
        self._bind(_label_key(labels)).observe(value)

    def stats(self, **labels: object) -> dict:
        """count/sum plus bucket-estimated p50/p95 for one label set."""
        self._registry._fold()
        series = self._series.get(_label_key(labels))
        if series is None:
            return {"count": 0, "sum": 0.0,
                    "p50": math.nan, "p95": math.nan}
        count = series.count
        return {
            "count": int(count),
            "sum": float(series.sum),
            "p50": _bucket_quantile(self.bounds, series.counts, count, 0.50),
            "p95": _bucket_quantile(self.bounds, series.counts, count, 0.95),
        }


def _bucket_quantile(
    bounds: "tuple[float, ...]", counts: "list[int]", count: int, q: float
) -> float:
    """Estimate a quantile by linear interpolation inside its bucket.

    The estimate is bounded by construction (the +Inf bucket reports its
    lower edge), which is all a regression *gate* needs -- exact values
    come from the sum/count pair.
    """
    if count <= 0:
        return math.nan
    rank = q * count
    seen = 0
    for i, c in enumerate(counts):
        if c == 0:
            continue
        lo = 0.0 if i == 0 else bounds[i - 1]
        hi = bounds[i] if i < len(bounds) else math.inf
        if seen + c >= rank:
            if hi == math.inf:
                return lo
            frac = (rank - seen) / c
            return lo + frac * (hi - lo)
        seen += c
    return bounds[-1]


class MetricsRegistry:
    """A named collection of metric families, safe to share with a
    scrape thread and to merge across processes.

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create: calling
    them twice with the same name returns the same family (a type clash
    raises).  One registry-wide lock covers every mutation and the
    snapshot/render paths -- cheap at this granularity, and it makes a
    mid-run scrape internally consistent.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: "dict[str, _Family]" = {}
        self._seq = 0
        # flush_delta() state: series updated since the last flush (one
        # queue per kind: counters, gauges, histograms), families not
        # announced yet, and the id counters of what was announced.
        self._touched: "tuple[list, list, list]" = ([], [], [])
        self._unannounced: "list[_Family]" = []
        self._next_fid = 0
        self._next_sid = 0
        self._origin: "str | None" = None
        # merge_snapshot() state: per sending registry, the families,
        # series and record streams its announcements resolved to,
        # indexed by their ids.
        self._peers: "dict[str, tuple[list, list, list]]" = {}
        # Records: the gatherers that hand this registry what their
        # probes and kernel stashes wrote (each read runs them); the
        # ``(stream, row, extras)`` records not folded into series yet,
        # a stream being ``(fold, key, layout)``: the folder that reads
        # it (a :data:`_FOLDS` name), its labels and the ``(kind,
        # name)`` of each of the row's values; flush ids of the streams
        # shipped; the folders' state.
        self._folds: list = []
        self._fold_lock = threading.RLock()  # one fold at a time, in order
        self._records: list = []
        self._streams: dict = {}
        self._folders: dict = {}
        # Records packed for shipping, and the streams they announce.
        self._packed: list = []
        self._announced: list = []

    def _record(self, stream: tuple, row: list, extras: list) -> None:
        """Queue one record for the folder *stream* names."""
        with self._lock:
            self._records.append((stream, row, extras))
            if len(self._records) < _RECORDS_AT:
                return
        self._fold_if_idle()

    def _fold_if_idle(self) -> None:
        """Fold unless another thread is folding (which may be waiting
        for the probe this thread is folding)."""
        if self._fold_lock.acquire(blocking=False):
            try:
                self._fold_locked()
            finally:
                self._fold_lock.release()

    def _gather(self) -> None:
        for gather in self._folds:
            gather()

    def _pack(self) -> None:
        """Pickle the pending records into one blob for the next
        :meth:`flush_delta`, streams by flush id (so a resident worker
        can pay for it off its critical path)."""
        with self._lock:
            records, self._records = self._records, []
            if not records:
                return
            rows = []
            for stream, row, extras in records:
                sid = self._streams.get(stream)
                if sid is None:
                    sid = self._streams[stream] = len(self._streams)
                    self._announced.append(stream)
                rows.append((sid, row, extras))
            self._packed.append(pickle.dumps(rows, pickle.HIGHEST_PROTOCOL))

    def _fold(self) -> None:
        """Fold every pending record into the series it feeds: each run
        of one stream's records as one block of rows, in arrival order."""
        with self._fold_lock:
            self._fold_locked()

    def _fold_locked(self) -> None:
        self._gather()
        with self._lock:
            pending, self._records = self._records, []
        records: list = []
        for record in pending:
            if record[0] is None:  # a peer's packed blob: (None, its streams, blob)
                streams = record[1]
                records.extend(
                    (streams[sid], row, extras)
                    for sid, row, extras in pickle.loads(record[2])
                )
            else:
                records.append(record)
        start = 0
        for i in range(1, len(records) + 1):
            if i == len(records) or records[i][0] != records[start][0]:
                fold, key, layout = records[start][0]
                folder = self._folders.get((fold, key))
                if folder is None:
                    folder = self._folders[(fold, key)] = _FOLDS[fold](self, key)
                block = records[start:i]
                folder.fold(layout, [r[1] for r in block], [r[2] for r in block])
                start = i

    # -- family accessors ------------------------------------------------

    def counter(self, name: str, help: str = "") -> Counter:
        # OpenMetrics puts the `_total` suffix on the *sample*, not the
        # family: `counter("repro_slots_total")` and
        # `counter("repro_slots")` are the same family `repro_slots`,
        # exposed as `repro_slots_total`.
        if name.endswith("_total"):
            name = name[: -len("_total")]
        return self._family(name, help, Counter)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._family(name, help, Gauge)

    def histogram(
        self,
        name: str,
        help: str = "",
        *,
        buckets: "tuple[float, ...] | None" = None,
    ) -> Histogram:
        return self._family(
            name, help, Histogram, buckets or DEFAULT_SECONDS_BUCKETS
        )

    def _family(self, name: str, help: str, cls: type, *args) -> "_Family":
        family = self._families.get(name)
        if family is None:
            with self._lock:
                family = self._families.get(name)
                if family is None:
                    family = cls(name, help, self, *args)
                    self._families[name] = family
                    self._unannounced.append(family)
        if type(family) is not cls:
            raise ValueError(
                f"metric {name!r} already registered as a {family.kind}"
            )
        return family

    def families(self) -> "dict[str, str]":
        """Family name -> kind, for quick introspection."""
        self._fold()
        return {name: f.kind for name, f in sorted(self._families.items())}

    def get(self, name: str) -> "_Family | None":
        """The family registered under *name*, if any.

        Accepts the counter sample spelling too: ``get("x_total")``
        finds the counter family ``x``.
        """
        self._fold()
        family = self._families.get(name)
        if family is None and name.endswith("_total"):
            candidate = self._families.get(name[: -len("_total")])
            if isinstance(candidate, Counter):
                family = candidate
        return family

    # -- cross-process snapshot/merge -------------------------------------

    def snapshot(self) -> dict:
        """A picklable value capturing every series.

        ``{"counters" | "gauges" | "histograms": {family: {"help": ...,
        ["bounds": ...,] "series": {label_key: value}}}}`` where a
        counter value is its total, a gauge value is ``(value, stamp)``
        and a histogram value is ``[per-bucket counts, sum, count]``.
        """
        self._fold()
        with self._lock:
            out: dict = {"counters": {}, "gauges": {}, "histograms": {}}
            for name, family in self._families.items():
                series = family._series
                if isinstance(family, Counter):
                    out["counters"][name] = {
                        "help": family.help,
                        "series": {k: s.value for k, s in series.items()},
                    }
                elif isinstance(family, Gauge):
                    out["gauges"][name] = {
                        "help": family.help,
                        "series": {
                            k: (s.value, s.stamp) for k, s in series.items()
                        },
                    }
                else:
                    assert isinstance(family, Histogram)
                    out["histograms"][name] = {
                        "help": family.help,
                        "bounds": family.bounds,
                        "series": {
                            k: [list(s.counts), s.sum, s.count]
                            for k, s in series.items()
                        },
                    }
            return out

    def flush_delta(self, *, swallow: bool = False) -> "dict | None":
        """Everything updated since the previous flush, in compact form.

        A long-lived worker keeps one registry for its whole run and
        calls this once per epoch; the parent folds each result with
        :meth:`merge_snapshot`.  Only *touched* series -- updated at
        least once since the last flush -- are visited.  Families and
        series are announced once, the first time they ship, and
        referred to by integer id after that::

            {"origin": token,                       # this registry
             "families": [(kind, name, help, bounds), ...],  # new, by id
             "series": [(family_id, label_key), ...],        # new, by id
             "inc": (ids, increments),              # counters
             "set": (ids, values, sequences),       # gauges
             "obs": (ids, [(sum_delta, {bucket: added}), ...]),  # histograms
             "streams": [(fold, key, layout), ...],  # new, by id
             "records": [pickled [(stream_id, row, extras), ...], ...]}

        A counter ships its increment since the last flush, a gauge its
        value and local sequence number, and a histogram its sum minus
        the sum at the last flush plus the buckets whose counts grew
        since then (at most one entry per bucket, however many
        observations the epoch made) -- so the receiver's totals are
        exactly the sender's, with no drift.  Records (what a
        :class:`TelemetrySink` or :func:`instrument_kernels` wrote since
        the last read: one row of values per stream, whose layout ships
        once) go unfolded, and the receiver folds them when it is read,
        so a worker pays no per-series cost per epoch.  Families are announced
        even when empty (a pre-bound counter nobody incremented still
        shows up on the receiving side); pre-bound histogram series that
        never observed anything are not.  Returns ``None`` when there is
        nothing to ship.

        ``swallow=True`` drops the pending values instead of returning
        them (the salvage replay: the parent already has those epochs
        from the worker that died) but keeps the announcements queued,
        so the next shipped flush still introduces every family and
        series it refers to.
        """
        self._gather()
        return self._take_delta(swallow=swallow)

    def _take_delta(self, *, swallow: bool = False) -> "dict | None":
        """:meth:`flush_delta` of what the registry holds, without first
        gathering its probes' and kernel stashes' records."""
        self._pack()
        with self._lock:
            packed, self._packed = self._packed, []
            announced, self._announced = self._announced, []
            counters, gauges, histograms = (list(q) for q in self._touched)
            for queue in self._touched:
                queue.clear()
            for queue in (counters, gauges, histograms):
                for s in queue:
                    s.touched = False
            if swallow or not (
                self._unannounced or counters or gauges or histograms or packed
            ):
                self._announced = announced  # a later flush still announces
                for s in counters:
                    s.shipped = s.value
                for s in histograms:
                    s._take()
                return None
            families = []
            for family in self._unannounced:
                family._fid = self._next_fid
                self._next_fid += 1
                families.append(family._announcement())
            self._unannounced = []
            fresh = [
                s for queue in (counters, gauges, histograms)
                for s in queue if s.sid is None
            ]
            for s in fresh:
                s.sid = self._next_sid
                self._next_sid += 1
            inc = (
                [s.sid for s in counters],
                [s.value - s.shipped for s in counters],
            )
            for s in counters:
                s.shipped = s.value
            set_ = (
                [s.sid for s in gauges],
                [s.value for s in gauges],
                [s.stamp[1] for s in gauges],
            )
            obs = ([s.sid for s in histograms], [s._take() for s in histograms])
            if self._origin is None:
                self._origin = os.urandom(16).hex()
            return {
                "origin": self._origin,
                "families": families,
                "series": [(s._family._fid, s.key) for s in fresh],
                "inc": inc,
                "set": set_,
                "obs": obs,
                "streams": announced,
                "records": packed,
            }

    def merge_snapshot(
        self, snap: "dict | None", *, generation: "int | None" = None
    ) -> None:
        """Fold a worker's :meth:`flush_delta` or :meth:`snapshot` in.

        Counters and histograms *add* (a flush carries increments; a
        full snapshot of a per-job registry is its own delta); gauges
        keep whichever value has the larger ``(generation, sequence)``
        stamp.  Pass the epoch ordinal as *generation* so later epochs
        win regardless of the order their replies arrive in.  Flush ids
        resolve through a table kept per sending registry, so replies
        from several workers (and from a respawned one) interleave
        freely.
        """
        if not snap:
            return
        if "origin" in snap:
            self._merge_delta(snap, generation)
            return
        counters: list = []
        for name, data in snap.get("counters", {}).items():
            family = self.counter(name, data.get("help", ""))
            counters.extend(
                (family._bind(key), value)
                for key, value in data["series"].items()
            )
        gauges: list = []
        for name, data in snap.get("gauges", {}).items():
            family = self.gauge(name, data.get("help", ""))
            gauges.extend(
                (family._bind(key), value, stamp)
                for key, (value, stamp) in data["series"].items()
            )
        histograms: list = []
        for name, data in snap.get("histograms", {}).items():
            family = self._merged_histogram(
                name, data.get("help", ""), data["bounds"]
            )
            histograms.extend(
                (family._bind(key), counts, total)
                for key, (counts, total, _) in data["series"].items()
            )
        with self._lock:
            for s, value in counters:
                s.value += value
                if not s.touched:
                    s._mark()
            for s, value, stamp in gauges:
                if generation is not None:
                    stamp = (generation, stamp[1])
                s._merge(value, stamp)
            for s, counts, total in histograms:
                s._add({i: c for i, c in enumerate(counts) if c}, total)

    def _merge_delta(self, delta: dict, generation: "int | None") -> None:
        peer = self._peers.get(delta["origin"])
        if peer is None:
            peer = self._peers[delta["origin"]] = ([], [], [])
        families, table, _ = peer
        for kind, name, help, bounds in delta["families"]:
            if kind == "counter":
                families.append(self.counter(name, help))
            elif kind == "gauge":
                families.append(self.gauge(name, help))
            else:
                families.append(self._merged_histogram(name, help, bounds))
        for fid, key in delta["series"]:
            table.append(families[fid]._bind(key))
        generation = 0 if generation is None else generation
        with self._lock:
            sids, increments = delta["inc"]
            for sid, value in zip(sids, increments):
                s = table[sid]
                s.value += value
                if not s.touched:
                    s._mark()
            sids, values, sequences = delta["set"]
            for sid, value, seq in zip(sids, values, sequences):
                table[sid]._merge(value, (generation, seq))
            sids, entries = delta["obs"]
            for sid, (total, added) in zip(sids, entries):
                table[sid]._add(added, total)
            streams = peer[2]
            streams.extend(delta["streams"])
            self._records.extend((None, streams, blob) for blob in delta["records"])
            if len(self._records) < _RECORDS_AT:
                return
        self._fold_if_idle()

    def _merged_histogram(
        self, name: str, help: str, bounds: "tuple[float, ...]"
    ) -> Histogram:
        family = self.histogram(name, help, buckets=tuple(bounds))
        if family.bounds != tuple(bounds):
            raise ValueError(
                f"histogram {name!r} bucket bounds disagree across "
                "processes; cannot merge"
            )
        return family

    # -- exposition --------------------------------------------------------

    def render_openmetrics(self) -> str:
        """The registry as OpenMetrics text (ends with ``# EOF``)."""
        self._fold()
        lines: list[str] = []
        with self._lock:
            for name in sorted(self._families):
                family = self._families[name]
                lines.append(f"# TYPE {name} {family.kind}")
                if family.help:
                    lines.append(
                        f"# HELP {name} "
                        + family.help.replace("\\", "\\\\").replace("\n", "\\n")
                    )
                if isinstance(family, Counter):
                    for key in sorted(family._series):
                        lines.append(
                            f"{name}_total{_render_labels(key)} "
                            f"{_format_value(family._series[key].value)}"
                        )
                elif isinstance(family, Gauge):
                    for key in sorted(family._series):
                        value = family._series[key].value
                        lines.append(
                            f"{name}{_render_labels(key)} "
                            f"{_format_value(value)}"
                        )
                else:
                    assert isinstance(family, Histogram)
                    bounds = (*family.bounds, math.inf)
                    for key in sorted(family._series):
                        series = family._series[key]
                        total, count = series.sum, series.count
                        cumulative = 0
                        for bound, c in zip(bounds, series.counts):
                            cumulative += c
                            le = (("le", _format_le(bound)),)
                            lines.append(
                                f"{name}_bucket{_render_labels(key, le)} "
                                f"{cumulative}"
                            )
                        lines.append(
                            f"{name}_sum{_render_labels(key)} "
                            f"{_format_value(total)}"
                        )
                        lines.append(f"{name}_count{_render_labels(key)} {count}")
        lines.append("# EOF")
        return "\n".join(lines) + "\n"


# -- OpenMetrics text parsing (the validator side) -------------------------

_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>(?:[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\]|\\.)*\",?)*)\})?"
    r" (?P<value>\S+)(?: (?P<timestamp>\S+))?$"
)
_LABEL_PAIR_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')
_SUFFIXES = ("_total", "_bucket", "_sum", "_count")


def _parse_sample_value(text: str) -> float:
    if text == "+Inf":
        return math.inf
    if text == "-Inf":
        return -math.inf
    if text == "NaN":
        return math.nan
    return float(text)


def parse_openmetrics(text: str) -> dict:
    """Parse (and validate) OpenMetrics text into families.

    Returns ``{family: {"type": kind, "help": str | None, "samples":
    [(sample_name, labels_dict, value), ...]}}``.  Raises ``ValueError``
    on structural problems: a missing ``# EOF`` terminator, a sample
    before its ``# TYPE`` line, a malformed line, or a sample name that
    does not belong to a declared family.  This is the scrape-side
    contract check used by tests and the CI smoke job (no
    ``prometheus_client`` dependency needed).
    """
    families: dict = {}
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines or lines[-1] != "# EOF":
        raise ValueError("OpenMetrics text must end with '# EOF'")
    for lineno, line in enumerate(lines[:-1], start=1):
        if not line:
            raise ValueError(f"line {lineno}: blank lines are not allowed")
        if line.startswith("#"):
            parts = line.split(" ", 3)
            if len(parts) < 4 or parts[1] not in ("TYPE", "HELP"):
                raise ValueError(f"line {lineno}: malformed comment {line!r}")
            _, keyword, name, rest = parts
            if keyword == "TYPE":
                if name in families:
                    raise ValueError(
                        f"line {lineno}: duplicate TYPE for {name!r}"
                    )
                if rest not in ("counter", "gauge", "histogram", "untyped"):
                    raise ValueError(
                        f"line {lineno}: unknown metric type {rest!r}"
                    )
                families[name] = {"type": rest, "help": None, "samples": []}
            else:
                if name not in families:
                    raise ValueError(
                        f"line {lineno}: HELP before TYPE for {name!r}"
                    )
                families[name]["help"] = rest
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"line {lineno}: malformed sample {line!r}")
        sample_name = match.group("name")
        family_name = sample_name
        for suffix in _SUFFIXES:
            if sample_name.endswith(suffix) and sample_name[: -len(suffix)] in families:
                family_name = sample_name[: -len(suffix)]
                break
        if family_name not in families:
            raise ValueError(
                f"line {lineno}: sample {sample_name!r} has no TYPE metadata"
            )
        labels = {
            k: v.encode().decode("unicode_escape")
            for k, v in _LABEL_PAIR_RE.findall(match.group("labels") or "")
        }
        families[family_name]["samples"].append(
            (sample_name, labels, _parse_sample_value(match.group("value")))
        )
    return families


# -- the bus -> registry bridge --------------------------------------------


class TelemetrySink:
    """A tracer sink publishing bus events into a :class:`MetricsRegistry`.

    Mapping (names follow the ``repro_<domain>_<name>`` scheme):

    =========================  ============================================
    bus event                  registry metric
    =========================  ============================================
    span ``slot/bdma/p2a``     ``repro_phase_seconds{phase="slot/bdma/p2a"}``
    counter ``engine.moves``   ``repro_engine_moves_total``
    gauge ``queue.backlog``    ``repro_queue_backlog``
    event ``slot``             ``repro_slots_total``, ``repro_slot_latency``,
                               ``repro_slot_cost``, ``repro_budget_drift``
                               (running mean of ``theta = C_t - Cbar``)
    event ``alert``            ``repro_alerts_total{monitor=,severity=}``
    event ``shard.epoch``      ``repro_shard_completed_slots``
    event ``crash``            ``repro_crashes_total``
    event ``shed``             ``repro_shed_tasks_total``
    =========================  ============================================

    The sink reads a probe's record (see :mod:`repro.obs.probe`) and
    hands it to the registry unfolded; the registry folds it into the
    series when it is read, or ships it in :meth:`MetricsRegistry.flush_delta`
    for the receiving registry to fold.

    Args:
        registry: Destination registry.
        labels: Constant labels stamped on every sample (e.g.
            ``{"cell": "3"}`` inside a sharded worker).
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        labels: "Mapping[str, object] | None" = None,
    ) -> None:
        self.registry = registry
        self.labels = {str(k): str(v) for k, v in (labels or {}).items()}
        for key in self.labels:
            if not _LABEL_RE.match(key):
                raise ValueError(f"invalid label name {key!r}")
        self._key = _label_key(self.labels)
        _BusFolder.families(registry)

    def fold(self, record) -> None:
        """Hand *record* to the registry as rows, one per slot (a
        ``slot`` event ends one): the spans', counters' and gauges'
        values under their ``(kind, name)`` layout, plus the mapped
        events (a slot event as its latency, cost and theta) and the
        deferred batches, which the folding registry expands."""
        layout: list = []
        row: list = []
        extras: list = []
        for entry in record:
            kind, name, value, _ = entry
            if kind < 0:
                extras.append((None, entry))
            elif kind < 3:
                layout.append((kind, name))
                row.append(value)
            elif name == "slot":
                extras.append(
                    (name, (value.get("latency"), value.get("cost"), value.get("theta")))
                )
                self.registry._record(("bus", self._key, tuple(layout)), row, extras)
                layout, row, extras = [], [], []
            elif name in _BusFolder.EVENTS:
                extras.append((name, value))
        if row or extras:
            self.registry._record(("bus", self._key, tuple(layout)), row, extras)

    def emit(self, event: dict) -> None:
        self.fold((entry_of(event),))

    def close(self) -> None:  # registry outlives the sink
        pass


class _BusFolder:
    """Folds one :class:`TelemetrySink` label set's records into a
    registry: each series is updated once per fold, with its samples in
    order (so histogram sums and counter totals are the per-event ones)
    and each gauge's last value."""

    #: Free-form events the sink maps besides ``slot``.
    EVENTS = frozenset({"alert", "shard.epoch", "crash", "shed"})

    @staticmethod
    def families(registry: MetricsRegistry) -> tuple:
        return (
            registry.histogram(
                "repro_phase_seconds", "Wall-clock seconds per controller phase"
            ),
            registry.counter(
                "repro_slots_total", "Simulated slots observed on the bus"
            ),
            registry.gauge(
                "repro_slot_latency", "Most recent per-slot overall latency (s)"
            ),
            registry.gauge(
                "repro_slot_cost", "Most recent per-slot energy cost ($)"
            ),
            registry.gauge(
                "repro_budget_drift",
                "Running mean of theta = C_t - Cbar since this sink started "
                "(positive = overspending the time-average budget)",
            ),
            registry.counter(
                "repro_alerts_total", "Monitor alerts raised, by monitor/severity"
            ),
            registry.counter("repro_crashes_total", "Simulation crash events"),
            registry.counter(
                "repro_shed_tasks_total",
                "Tasks shed by overload admission control",
            ),
        )

    def __init__(self, registry: MetricsRegistry, key: LabelKey) -> None:
        self.registry = registry
        self.labels = dict(key)
        (self._phases, slots, latency, cost, drift, self._alerts,
         crashes, shed) = self.families(registry)
        self._slots, self._slot_latency, self._slot_cost, self._budget_drift, \
            self._crashes, self._shed = (
                f.labels(**self.labels)
                for f in (slots, latency, cost, drift, crashes, shed)
            )
        # Row layout -> its columns per (kind, name); (kind, name) ->
        # its series.
        self._layouts: dict = {}
        self._bound: dict = {}
        self._theta_sum = 0.0
        self._theta_count = 0

    def _bind(self, kind: int, name: str):
        if kind == 0:
            return self._phases.labels(phase=name, **self.labels)
        make = self.registry.counter if kind == 1 else self.registry.gauge
        return make(metric_name(name), f"Bus {KINDS[kind]} {name!r}").labels(
            **self.labels
        )

    def fold(self, layout: tuple, rows: list, extras: list) -> None:
        """Fold rows of one layout, in order: per series its samples
        (the rows' in row order, then the deferred batches'), so
        counter totals are the per-event ones; a gauge its last value."""
        columns = self._layouts.get(layout)
        if columns is None:
            columns = self._layouts[layout] = {}
            for j, pair in enumerate(layout):
                columns.setdefault(pair, []).append(j)
        samples: dict = {}
        if rows and layout:
            block = np.array(rows, dtype=np.float64).reshape(len(rows), len(layout))
            samples = {p: block[:, cols].ravel().tolist() for p, cols in columns.items()}
        slots = 0
        latency = cost = drift = None
        for events in extras:
            for name, data in events:
                if name is None:
                    for kind, bus_name, value, _ in expanded((data,)):
                        samples.setdefault((kind, bus_name), []).append(value)
                elif name != "slot":
                    self._event(name, data)
                else:
                    slots += 1
                    slot_latency, slot_cost, theta = data
                    latency = latency if slot_latency is None else slot_latency
                    cost = cost if slot_cost is None else slot_cost
                    if theta is not None:
                        self._theta_sum += float(theta)
                        self._theta_count += 1
                        drift = self._theta_sum / self._theta_count
        for (kind, name), values in samples.items():
            series = self._bound.get((kind, name))
            if series is None:
                series = self._bound[(kind, name)] = self._bind(kind, name)
            if kind == 0:
                series.observe_many(values)
            elif kind == 1:
                series.inc_many(values)
            else:
                series.set(values[-1])
        if slots:
            self._slots.inc(float(slots))
        for gauge, value in (
            (self._slot_latency, latency),
            (self._slot_cost, cost),
            (self._budget_drift, drift),
        ):
            if value is not None:
                gauge.set(value)

    def _event(self, name: str, data: dict) -> None:
        if name == "alert":
            self._alerts.inc(
                1.0,
                monitor=str(data.get("monitor", "unknown")),
                severity=str(data.get("severity", "unknown")),
                **self.labels,
            )
        elif name == "shard.epoch":
            self.registry.gauge(
                "repro_shard_completed_slots",
                "Slots completed by the sharded run so far",
            ).set(data.get("completed", 0), **self.labels)
        elif name == "crash":
            self._crashes.inc()
        elif name == "shed":
            self._shed.inc(float(len(data.get("devices", ()))))


# -- kernel profiling -------------------------------------------------------

_KERNEL_CALLS = (
    "gap_sweep",
    "run_dynamics",
    "golden_quad",
    "reset_profile",
    "rebind",
    "update_frequencies",
    "greedy_pass",
)


def instrument_kernels(
    backend: "KernelBackend",
    registry: MetricsRegistry,
    labels: "Mapping[str, object] | None" = None,
) -> "KernelBackend":
    """Wrap a resolved backend so every kernel call is timed.

    Returns a new frozen :class:`~repro.kernels.interface.KernelBackend`
    whose callables record wall-clock samples into
    ``repro_kernel_seconds{kernel=<call>, backend=<name>}``.  The
    wrapper is call-signature transparent: a call adds one
    ``perf_counter`` pair and one append to a stash, and a fused
    ``bdma_slot`` call one append of its round rows (the sub-kernels it
    ran, timed inside the call).  The registry takes the stash as a
    record whenever it is read, and folds it like a
    :class:`TelemetrySink`'s.
    """
    from dataclasses import replace
    from time import perf_counter

    key = (backend.name, _label_key(labels))
    histogram = registry.histogram(
        "repro_kernel_seconds", "Wall-clock seconds per kernel-backend call"
    )
    calls = [call for call in _KERNEL_CALLS if getattr(backend, call) is not None]
    for call in calls:
        histogram.labels(kernel=call, backend=backend.name, **(labels or {}))
    # (call, seconds), or (None, a fused call's round rows).
    stash: list = []

    def gather() -> None:
        if stash:
            taken = stash[:]
            del stash[: len(taken)]
            registry._record(("kernels", key, ()), [], taken)

    registry._folds.append(gather)
    wrapped = {}
    for call in calls:

        def timed(*args, _fn=getattr(backend, call), _call=call):
            start = perf_counter()
            out = _fn(*args)
            stash.append((_call, perf_counter() - start))
            return out

        wrapped[call] = timed
    if backend.bdma_slot is not None:
        # The fused slot call reports each sub-kernel it ran; those
        # durations land in the sub-kernels' own series, so a fused
        # slot and the Python loop fill the same series with the same
        # counts.
        def timed_bind(*args, _fn=backend.bdma_slot):
            binding = _fn(*args)

            def timed_run(_run=binding.run, _rows=binding.kernel_rows):
                status = _run()
                stash.append((None, _rows()))
                return status

            binding.run = timed_run
            return binding

        wrapped["bdma_slot"] = timed_bind
    return replace(backend, **wrapped)


class _KernelFolder:
    """Folds one instrumented backend's kernel-time rows into
    ``repro_kernel_seconds``, each kernel's samples in row order."""

    def __init__(self, registry: MetricsRegistry, key: tuple) -> None:
        backend, labels = key
        family = registry.histogram(
            "repro_kernel_seconds", "Wall-clock seconds per kernel-backend call"
        )
        self._series = lambda kernel: family.labels(
            kernel=kernel, backend=backend, **dict(labels)
        )

    def fold(self, layout: tuple, rows: list, stashes: list) -> None:
        from repro.kernels._adapt import kernel_seconds

        samples: dict = {}
        for stash in stashes:
            for call, seconds in stash:
                pairs = kernel_seconds(*seconds) if call is None else ((call, seconds),)
                for kernel, value in pairs:
                    samples.setdefault(kernel, []).append(value)
        for kernel, values in samples.items():
            self._series(kernel).observe_many(values)


#: The record folders, by the name a record stream carries.
_FOLDS = {"bus": _BusFolder, "kernels": _KernelFolder}


# -- the active telemetry context ------------------------------------------

#: Process-global ``(registry, labels)`` pair consulted by
#: :func:`maybe_instrument_kernels` at controller construction.  Set via
#: :func:`telemetry_context`; workers install it per epoch job.
_ACTIVE: "tuple[MetricsRegistry, dict] | None" = None


@contextmanager
def telemetry_context(
    registry: "MetricsRegistry | None",
    labels: "Mapping[str, object] | None" = None,
) -> Iterator["MetricsRegistry | None"]:
    """Make *registry* the process's active telemetry target.

    While active, any :class:`~repro.core.controller.DPPController`
    built inherits instrumented kernels (via
    :func:`maybe_instrument_kernels`) labelled with *labels*.  A
    ``None`` registry is a no-op pass-through, so call sites need no
    branching.
    """
    global _ACTIVE
    if registry is None:
        yield None
        return
    previous = _ACTIVE
    _ACTIVE = (registry, dict(labels or {}))
    try:
        yield registry
    finally:
        _ACTIVE = previous


def maybe_instrument_kernels(backend: "KernelBackend") -> "KernelBackend":
    """Instrument *backend* iff a telemetry context is active.

    Called by the controller right after kernel resolution; with no
    active context this is an attribute check and a return (zero cost on
    the default path).
    """
    if _ACTIVE is None:
        return backend
    registry, labels = _ACTIVE
    return instrument_kernels(backend, registry, labels)


# -- profile reporting ------------------------------------------------------


def histogram_summaries(
    registry: MetricsRegistry, name: str
) -> "list[dict]":
    """Per-series count/sum/p50/p95 rows for one histogram family.

    Rows are sorted by total seconds descending -- the shape the
    ``profile report`` CLI view and the perf gate both consume.
    """
    family = registry.get(name)
    if family is None or not isinstance(family, Histogram):
        return []
    rows = []
    for key, series in list(family._series.items()):
        if series.count == 0:
            continue  # pre-bound but never observed; all-nan noise
        stats = family.stats(**dict(key))
        counts = list(series.counts)
        rows.append(
            {
                "labels": dict(key),
                "count": stats["count"],
                "sum": stats["sum"],
                "p50": stats["p50"],
                "p95": stats["p95"],
                "bucket_counts": counts,
            }
        )
    rows.sort(key=lambda r: r["sum"], reverse=True)
    return rows
