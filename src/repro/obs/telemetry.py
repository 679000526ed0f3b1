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
  collide when merged.
* snapshot/merge -- :meth:`MetricsRegistry.snapshot` is a picklable
  value a pooled worker ships back with its epoch job;
  :meth:`MetricsRegistry.merge_snapshot` folds it into the parent's
  live registry (counters/histograms add; gauges keep the most recent
  value by a ``(generation, sequence)`` recency stamp, so out-of-order
  epoch completions cannot roll a gauge backwards).
  :meth:`MetricsRegistry.snapshot_delta` is the incremental variant for
  long-lived resident workers: it ships only the series that changed
  since the worker's previous flush (a per-registry flush generation
  counter tracks the baseline), in the same wire format, so the
  per-epoch merge cost stays flat as cell counts grow.
* kernel profiling -- :func:`instrument_kernels` wraps a resolved
  :class:`~repro.kernels.interface.KernelBackend` so every hot call
  (``candidate_costs`` / ``segment_first_min`` / ``gap_sweep`` /
  ``run_dynamics`` / ``golden_quad``) lands a wall-clock sample in the
  ``repro_kernel_seconds{kernel=,backend=}`` histogram.  The controller
  applies it automatically whenever a telemetry context is active
  (:func:`telemetry_context`), and the wrapper is thin enough to stay
  on by default (one ``perf_counter`` pair plus a bisect per call).

:meth:`MetricsRegistry.render_openmetrics` emits the OpenMetrics text
format (``# TYPE``/``# HELP`` metadata, ``_total``/``_bucket``/``_sum``
/``_count`` sample suffixes, a terminating ``# EOF``);
:func:`parse_openmetrics` is the matching validator used by tests and
the CI smoke job.  :mod:`repro.obs.server` serves the same text over
HTTP for live scrapes.
"""

from __future__ import annotations

import math
import re
import threading
from bisect import bisect_right
from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator, Mapping

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
    """Base class for one named metric family (all its label series)."""

    kind = "untyped"

    def __init__(self, name: str, help: str, lock: threading.Lock) -> None:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        self.name = name
        self.help = help
        self._lock = lock
        self._series: dict = {}

    def labels(self, **labels: object):
        """The bound series for one label set (created on first use)."""
        return self._bind(_label_key(labels))

    def _bind(self, key: LabelKey):
        raise NotImplementedError


class Counter(_Family):
    """A monotonically increasing sum per label set."""

    kind = "counter"

    def _bind(self, key: LabelKey) -> "_BoundCounter":
        return _BoundCounter(self, key)

    def inc(self, value: float = 1.0, **labels: object) -> None:
        """Add *value* (must be >= 0) to the series for *labels*."""
        self._bind(_label_key(labels)).inc(value)

    def value(self, **labels: object) -> float:
        """Current total for one label set (0.0 if never incremented)."""
        return float(self._series.get(_label_key(labels), 0.0))


class _BoundCounter:
    __slots__ = ("_family", "_key")

    def __init__(self, family: Counter, key: LabelKey) -> None:
        self._family = family
        self._key = key

    def inc(self, value: float = 1.0) -> None:
        if value < 0:
            raise ValueError("counters only go up; use a gauge")
        family = self._family
        with family._lock:
            family._series[self._key] = (
                family._series.get(self._key, 0.0) + value
            )


class Gauge(_Family):
    """A last-value-wins sample per label set, with a recency stamp.

    The stamp is a ``(generation, sequence)`` pair ordered
    lexicographically.  Local sets use generation 0 and the registry's
    monotonic sequence; cross-process merges re-stamp incoming values
    with the caller-supplied generation (the epoch ordinal), so a stale
    worker snapshot that arrives late can never overwrite a newer one.
    """

    kind = "gauge"

    def __init__(self, name: str, help: str, lock: threading.Lock,
                 registry: "MetricsRegistry") -> None:
        super().__init__(name, help, lock)
        self._registry = registry

    def _bind(self, key: LabelKey) -> "_BoundGauge":
        return _BoundGauge(self, key)

    def set(self, value: float, **labels: object) -> None:
        """Record *value* as the series' current level."""
        self._bind(_label_key(labels)).set(value)

    def value(self, **labels: object) -> float:
        """Current level for one label set (NaN if never set)."""
        entry = self._series.get(_label_key(labels))
        return float(entry[0]) if entry is not None else math.nan


class _BoundGauge:
    __slots__ = ("_family", "_key")

    def __init__(self, family: Gauge, key: LabelKey) -> None:
        self._family = family
        self._key = key

    def set(self, value: float) -> None:
        family = self._family
        with family._lock:
            family._registry._seq += 1
            family._series[self._key] = (
                float(value), (0, family._registry._seq)
            )


class Histogram(_Family):
    """Bounded cumulative-bucket histogram with exact sum and count.

    Buckets are upper bounds (``le``); an implicit ``+Inf`` bucket
    catches overflow, so ``observe`` never loses a sample.  The stored
    counts are per-bucket (non-cumulative); rendering accumulates them
    into the OpenMetrics cumulative form.
    """

    kind = "histogram"

    def __init__(self, name: str, help: str, lock: threading.Lock,
                 buckets: "tuple[float, ...]") -> None:
        super().__init__(name, help, lock)
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError("histogram buckets must be strictly increasing")
        self.bounds = bounds

    def _bind(self, key: LabelKey) -> "_BoundHistogram":
        with self._lock:
            slot = self._series.get(key)
            if slot is None:
                # counts has len(bounds)+1 entries; the last is +Inf.
                slot = [[0] * (len(self.bounds) + 1), 0.0, 0]
                self._series[key] = slot
        return _BoundHistogram(self, key, slot)

    def observe(self, value: float, **labels: object) -> None:
        """Record one sample into the right bucket."""
        self._bind(_label_key(labels)).observe(value)

    def stats(self, **labels: object) -> dict:
        """count/sum plus bucket-estimated p50/p95 for one label set."""
        slot = self._series.get(_label_key(labels))
        if slot is None:
            return {"count": 0, "sum": 0.0,
                    "p50": math.nan, "p95": math.nan}
        counts, total, count = slot
        return {
            "count": int(count),
            "sum": float(total),
            "p50": _bucket_quantile(self.bounds, counts, count, 0.50),
            "p95": _bucket_quantile(self.bounds, counts, count, 0.95),
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


class _BoundHistogram:
    __slots__ = ("_family", "_key", "_slot")

    def __init__(self, family: Histogram, key: LabelKey, slot: list) -> None:
        self._family = family
        self._key = key
        self._slot = slot

    def observe(self, value: float) -> None:
        family = self._family
        value = float(value)
        index = bisect_right(family.bounds, value)
        slot = self._slot
        with family._lock:
            slot[0][index] += 1
            slot[1] += value
            slot[2] += 1


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
        # snapshot_delta() baseline: what the last flush already shipped,
        # keyed (kind, family name) -> per-series flushed value.
        self._flushed: dict = {}
        self._flush_generation = 0

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
        family = self._families.get(name)
        if family is None:
            with self._lock:
                family = self._families.get(name)
                if family is None:
                    family = Histogram(
                        name, help, self._lock,
                        buckets or DEFAULT_SECONDS_BUCKETS,
                    )
                    self._families[name] = family
        if not isinstance(family, Histogram):
            raise ValueError(
                f"metric {name!r} already registered as a {family.kind}"
            )
        return family

    def _family(self, name: str, help: str, cls: type) -> "_Family":
        family = self._families.get(name)
        if family is None:
            with self._lock:
                family = self._families.get(name)
                if family is None:
                    if cls is Gauge:
                        family = Gauge(name, help, self._lock, self)
                    else:
                        family = cls(name, help, self._lock)
                    self._families[name] = family
        if type(family) is not cls:
            raise ValueError(
                f"metric {name!r} already registered as a {family.kind}"
            )
        return family

    def families(self) -> "dict[str, str]":
        """Family name -> kind, for quick introspection."""
        return {name: f.kind for name, f in sorted(self._families.items())}

    def get(self, name: str) -> "_Family | None":
        """The family registered under *name*, if any.

        Accepts the counter sample spelling too: ``get("x_total")``
        finds the counter family ``x``.
        """
        family = self._families.get(name)
        if family is None and name.endswith("_total"):
            candidate = self._families.get(name[: -len("_total")])
            if isinstance(candidate, Counter):
                family = candidate
        return family

    # -- cross-process snapshot/merge -------------------------------------

    def snapshot(self) -> dict:
        """A picklable value capturing every series (for epoch jobs)."""
        with self._lock:
            out: dict = {"counters": {}, "gauges": {}, "histograms": {}}
            for name, family in self._families.items():
                if isinstance(family, Counter):
                    out["counters"][name] = {
                        "help": family.help,
                        "series": dict(family._series),
                    }
                elif isinstance(family, Gauge):
                    out["gauges"][name] = {
                        "help": family.help,
                        "series": {
                            k: (v, stamp)
                            for k, (v, stamp) in family._series.items()
                        },
                    }
                else:
                    assert isinstance(family, Histogram)
                    out["histograms"][name] = {
                        "help": family.help,
                        "bounds": family.bounds,
                        "series": {
                            k: [list(slot[0]), slot[1], slot[2]]
                            for k, slot in family._series.items()
                        },
                    }
            return out

    def snapshot_delta(self) -> "dict | None":
        """Only the series that changed since the previous flush.

        Same wire format as :meth:`snapshot` -- counter and histogram
        series are *increments* relative to the last ``snapshot_delta``
        call, gauges carry their current value and stamp -- so the
        receiving side folds a delta with the same
        :meth:`merge_snapshot` it uses for full snapshots.  Unchanged
        series are omitted entirely; a flush with no changes at all
        returns ``None`` (callers skip the ship).

        This is the resident-worker flush path: a long-lived sharded
        worker keeps one registry for the whole run and ships one small
        delta per epoch, instead of rebuilding a registry per epoch job
        and shipping every series every time.  Each call advances
        :attr:`flush_generation` (recorded in the delta under
        ``"flush_generation"``; :meth:`merge_snapshot` ignores the key).
        """
        with self._lock:
            self._flush_generation += 1
            out: dict = {
                "counters": {},
                "gauges": {},
                "histograms": {},
                "flush_generation": self._flush_generation,
            }
            for name, family in self._families.items():
                if isinstance(family, Counter):
                    # A never-flushed family (or series) ships even with
                    # nothing counted yet, so pre-bound counters (e.g. a
                    # sink's crash counter) appear on the receiving side
                    # exactly as a full snapshot would expose them.
                    fresh = ("counter", name) not in self._flushed
                    base = self._flushed.setdefault(("counter", name), {})
                    series = {}
                    for key, value in family._series.items():
                        if key not in base or value != base[key]:
                            series[key] = value - base.get(key, 0.0)
                            base[key] = value
                    if series or fresh:
                        out["counters"][name] = {
                            "help": family.help, "series": series,
                        }
                elif isinstance(family, Gauge):
                    fresh = ("gauge", name) not in self._flushed
                    base = self._flushed.setdefault(("gauge", name), {})
                    series = {}
                    for key, (value, stamp) in family._series.items():
                        if base.get(key) != stamp:
                            series[key] = (value, stamp)
                            base[key] = stamp
                    if series or fresh:
                        out["gauges"][name] = {
                            "help": family.help, "series": series,
                        }
                else:
                    assert isinstance(family, Histogram)
                    fresh = ("histogram", name) not in self._flushed
                    base = self._flushed.setdefault(("histogram", name), {})
                    series = {}
                    for key, slot in family._series.items():
                        previous = base.get(key)
                        if previous is None:
                            if slot[2] == 0:
                                continue  # pre-bound, never observed
                            series[key] = [list(slot[0]), slot[1], slot[2]]
                        elif previous[2] != slot[2]:
                            series[key] = [
                                [c - p for c, p in zip(slot[0], previous[0])],
                                slot[1] - previous[1],
                                slot[2] - previous[2],
                            ]
                        else:
                            continue
                        base[key] = [list(slot[0]), slot[1], slot[2]]
                    if series or fresh:
                        out["histograms"][name] = {
                            "help": family.help,
                            "bounds": family.bounds,
                            "series": series,
                        }
            if not (out["counters"] or out["gauges"] or out["histograms"]):
                return None
            return out

    @property
    def flush_generation(self) -> int:
        """How many :meth:`snapshot_delta` flushes have happened."""
        return self._flush_generation

    def merge_snapshot(
        self, snap: "dict | None", *, generation: "int | None" = None
    ) -> None:
        """Fold a worker :meth:`snapshot` into this registry.

        Counters and histograms *add* (worker registries are fresh per
        epoch job, so their series are deltas); gauges keep whichever
        value has the larger ``(generation, sequence)`` stamp.  Pass the
        epoch ordinal as *generation* so later epochs win regardless of
        the order their futures complete in.
        """
        if not snap:
            return
        for name, data in snap.get("counters", {}).items():
            family = self.counter(name, data.get("help", ""))
            with self._lock:
                for key, value in data["series"].items():
                    family._series[key] = family._series.get(key, 0.0) + value
        for name, data in snap.get("gauges", {}).items():
            family = self.gauge(name, data.get("help", ""))
            with self._lock:
                for key, (value, stamp) in data["series"].items():
                    if generation is not None:
                        stamp = (generation, stamp[1])
                    current = family._series.get(key)
                    if current is None or stamp >= current[1]:
                        family._series[key] = (value, stamp)
        for name, data in snap.get("histograms", {}).items():
            family = self.histogram(
                name, data.get("help", ""), buckets=tuple(data["bounds"])
            )
            if family.bounds != tuple(data["bounds"]):
                raise ValueError(
                    f"histogram {name!r} bucket bounds disagree across "
                    "processes; cannot merge"
                )
            with self._lock:
                for key, (counts, total, count) in data["series"].items():
                    slot = family._series.get(key)
                    if slot is None:
                        family._series[key] = [list(counts), total, count]
                    else:
                        for i, c in enumerate(counts):
                            slot[0][i] += c
                        slot[1] += total
                        slot[2] += count

    # -- exposition --------------------------------------------------------

    def render_openmetrics(self) -> str:
        """The registry as OpenMetrics text (ends with ``# EOF``)."""
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
                            f"{_format_value(family._series[key])}"
                        )
                elif isinstance(family, Gauge):
                    for key in sorted(family._series):
                        value = family._series[key][0]
                        lines.append(
                            f"{name}{_render_labels(key)} "
                            f"{_format_value(value)}"
                        )
                else:
                    assert isinstance(family, Histogram)
                    bounds = (*family.bounds, math.inf)
                    for key in sorted(family._series):
                        counts, total, count = family._series[key]
                        cumulative = 0
                        for bound, c in zip(bounds, counts):
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
        self._phase_seconds = registry.histogram(
            "repro_phase_seconds", "Wall-clock seconds per controller phase"
        )
        self._slots = registry.counter(
            "repro_slots_total", "Simulated slots observed on the bus"
        ).labels(**self.labels)
        self._slot_latency = registry.gauge(
            "repro_slot_latency", "Most recent per-slot overall latency (s)"
        ).labels(**self.labels)
        self._slot_cost = registry.gauge(
            "repro_slot_cost", "Most recent per-slot energy cost ($)"
        ).labels(**self.labels)
        self._budget_drift = registry.gauge(
            "repro_budget_drift",
            "Running mean of theta = C_t - Cbar since this sink started "
            "(positive = overspending the time-average budget)",
        ).labels(**self.labels)
        self._alerts = registry.counter(
            "repro_alerts_total", "Monitor alerts raised, by monitor/severity"
        )
        self._crashes = registry.counter(
            "repro_crashes_total", "Simulation crash events"
        ).labels(**self.labels)
        self._shed = registry.counter(
            "repro_shed_tasks_total",
            "Tasks shed by overload admission control",
        ).labels(**self.labels)
        # Hot-path caches: bus name -> bound series.
        self._bound_counters: dict = {}
        self._bound_gauges: dict = {}
        self._bound_phases: dict = {}
        self._theta_sum = 0.0
        self._theta_count = 0

    # -- Sink protocol -------------------------------------------------
    def emit(self, event: dict) -> None:
        kind = event["kind"]
        if kind == "span":
            name = event["name"]
            bound = self._bound_phases.get(name)
            if bound is None:
                bound = self._phase_seconds.labels(phase=name, **self.labels)
                self._bound_phases[name] = bound
            bound.observe(event["seconds"])
        elif kind == "counter":
            name = event["name"]
            bound = self._bound_counters.get(name)
            if bound is None:
                bound = self.registry.counter(
                    metric_name(name), f"Bus counter {name!r}"
                ).labels(**self.labels)
                self._bound_counters[name] = bound
            bound.inc(event["value"])
        elif kind == "gauge":
            name = event["name"]
            bound = self._bound_gauges.get(name)
            if bound is None:
                bound = self.registry.gauge(
                    metric_name(name), f"Bus gauge {name!r}"
                ).labels(**self.labels)
                self._bound_gauges[name] = bound
            bound.set(event["value"])
        else:  # kind == "event"
            name = event["name"]
            if name == "slot":
                data = event["data"]
                self._slots.inc()
                latency = data.get("latency")
                if latency is not None:
                    self._slot_latency.set(latency)
                cost = data.get("cost")
                if cost is not None:
                    self._slot_cost.set(cost)
                theta = data.get("theta")
                if theta is not None:
                    self._theta_sum += float(theta)
                    self._theta_count += 1
                    self._budget_drift.set(self._theta_sum / self._theta_count)
            elif name == "alert":
                data = event["data"]
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
                ).set(event["data"].get("completed", 0), **self.labels)
            elif name == "crash":
                self._crashes.inc()
            elif name == "shed":
                self._shed.inc(
                    float(len(event["data"].get("devices", ())))
                )

    def close(self) -> None:  # registry outlives the sink
        pass


# -- kernel profiling -------------------------------------------------------

_KERNEL_CALLS = (
    "candidate_costs",
    "segment_first_min",
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
    wrapper is call-signature transparent and adds one ``perf_counter``
    pair plus a locked bucket increment per call (~1 microsecond) --
    cheap enough to stay on by default next to kernels that run for
    tens of microseconds and up.
    """
    from dataclasses import replace
    from time import perf_counter

    histogram = registry.histogram(
        "repro_kernel_seconds",
        "Wall-clock seconds per kernel-backend call",
    )
    wrapped = {}
    for call in _KERNEL_CALLS:
        fn = getattr(backend, call)
        if fn is None:
            continue
        bound = histogram.labels(
            kernel=call, backend=backend.name, **(labels or {})
        )

        def timed(*args, _fn=fn, _bound=bound):
            start = perf_counter()
            out = _fn(*args)
            _bound.observe(perf_counter() - start)
            return out

        wrapped[call] = timed
    return replace(backend, **wrapped)


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
    for key in family._series:
        if family._series[key][2] == 0:
            continue  # pre-bound but never observed; all-nan noise
        stats = family.stats(**dict(key))
        counts = list(family._series[key][0])
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
