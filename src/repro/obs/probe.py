"""The event bus: tracers, spans, and the no-op fast path.

Two tracers exist.  :data:`NULL_TRACER` (an instance of the base
:class:`Tracer`) is the disabled path: every method is a constant-return
no-op and ``span`` hands back a shared, stateless context manager, so
instrumented hot loops pay only an attribute lookup and an empty call
per probe point.  :class:`Probe` is the enabled path: it keeps a span
stack (so span names compose into ``"slot/bdma/p2a"`` paths), stamps
wall-clock durations, and routes every event to the sinks that read it.

Events are plain dicts so sinks stay trivially serialisable:

=========  ===========================================================
``kind``   remaining fields
=========  ===========================================================
span       ``name`` (slash path), ``start`` (s since probe creation),
           ``seconds`` (duration)
counter    ``name``, ``value`` (accumulated by aggregating sinks)
gauge      ``name``, ``value`` (sampled, not accumulated)
event      ``name``, ``data`` (free-form payload, e.g. a slot record)
=========  ===========================================================

Routing.  A sink that defines ``fold(record)`` (and does not set
``reads_record`` false) reads the probe's *record* instead of live
events: each event is appended to it as one
``(kind, name, value, start)`` entry (kind an index into
:data:`KINDS`), and a producer may append a whole batch unexpanded
(:meth:`Tracer.defer`: a fused slot's round rows).  The record reaches
those sinks when something reads them -- a registry flush, snapshot or
scrape, :attr:`Probe.phases`, :meth:`Probe.flush` -- or when it grows
past a bound; :func:`expanded` gives its entries in order.  Every other
sink receives each event as it happens, if
it ``wants(kind, name)`` it (asked once per pair; a sink without
``wants`` receives every event, and ``wants`` must depend on nothing
but its two arguments); an event no such sink wants is never built.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Callable, Iterable, Iterator, Protocol


class Sink(Protocol):
    """Anything that can receive tracer events.

    Optionally also ``wants(kind, name) -> bool`` or ``fold(record)``
    (see the module docstring).
    """

    def emit(self, event: dict) -> None: ...

    def close(self) -> None: ...


def wants(sink: object, kind: str, name: str) -> bool:
    """Whether *sink* reads ``(kind, name)`` events (yes without ``wants``)."""
    declared = getattr(sink, "wants", None)
    return declared is None or bool(declared(kind, name))


#: Event kinds, in entry-index order.
KINDS = ("span", "counter", "gauge", "event")


def event_dict(kind: int, name: str, value: Any, start: "float | None") -> dict:
    """The bus event a record entry stands for."""
    if kind == 0:
        return {"kind": "span", "name": name, "start": start, "seconds": value}
    if kind == 3:
        return {"kind": "event", "name": name, "data": value}
    return {"kind": KINDS[kind], "name": name, "value": value}


def entry_of(event: dict) -> tuple:
    """The record entry of a bus event (:func:`event_dict`'s inverse)."""
    kind = KINDS.index(event["kind"])
    if kind == 0:
        return (0, event["name"], event["seconds"], event.get("start"))
    return (kind, event["name"], event["data" if kind == 3 else "value"], None)


def expanded(record: Iterable[tuple], wanted=None) -> Iterator[tuple]:
    """A record's entries in order, each deferred batch expanded in
    place.  With *wanted* (``wanted(pairs) -> bool``), a batch whose
    expansion names its ``(kind, name)`` pairs
    (``expand.names(payload, parent)``) is skipped unless wanted."""
    for entry in record:
        if entry[0] >= 0:
            yield entry
            continue
        expand, payload, context = entry[1], entry[2], entry[3]
        names = None if wanted is None else getattr(expand, "names", None)
        if names is None or wanted(names(payload, context[0])):
            yield from expand(payload, *context)


def batch_filter(wanted) -> "Callable[[tuple], bool]":
    """:func:`expanded`'s *wanted* for a per-pair ``wanted(kind, name)``:
    whether any pair is wanted, cached per tuple of pairs."""
    cache: dict = {}

    def any_wanted(pairs: tuple) -> bool:
        hit = cache.get(pairs)
        if hit is None:
            hit = cache[pairs] = any(wanted(*pair) for pair in pairs)
        return hit

    return any_wanted


class Tracer:
    """The disabled tracer: every operation is a no-op.

    Instrumented code holds a ``Tracer`` reference unconditionally and
    checks :attr:`enabled` only to skip *building* expensive payloads;
    the calls themselves are always safe.
    """

    __slots__ = ()

    #: Whether events are actually recorded anywhere.
    enabled: bool = False

    def span(self, name: str) -> "Any":
        """A context manager timing the enclosed block (no-op here)."""
        return _NULL_SPAN

    def record_span(self, name: str, start: float, seconds: float) -> None:
        """Deliver a span timed elsewhere, as if a ``span(name)`` block
        had run under the open spans from ``start`` (a
        ``time.perf_counter`` value) for ``seconds`` (no-op here).
        *name* may hold slashes for nested spans (``"p2a/cgba"``)."""

    def counter(self, name: str, value: float = 1.0) -> None:
        """Accumulate *value* onto the named counter (no-op here)."""

    def gauge(self, name: str, value: float) -> None:
        """Record an instantaneous sample of *name* (no-op here)."""

    def event(self, name: str, data: dict) -> None:
        """Emit a free-form payload, e.g. one slot's record (no-op here)."""

    def defer(
        self, expand: "Callable[..., Iterator[tuple]]", payload: Any
    ) -> None:
        """Deliver the entries ``expand(payload, parent, t0)`` yields
        (*parent* the open span path, *t0* the probe's start stamp),
        expanded only when a sink reads them (no-op here)."""

    def fold(self) -> None:
        """Hand the pending record to the sinks that read it (no-op
        here)."""

    def flush(self) -> None:
        """Push buffered sink state to durable storage (no-op here)."""

    def close(self) -> None:
        """Flush and close any sinks (no-op here)."""


class _NullSpan:
    """Shared, stateless context manager for the disabled tracer."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False


_NULL_SPAN = _NullSpan()

#: The process-wide disabled tracer; safe to share (it has no state).
NULL_TRACER = Tracer()


def as_tracer(tracer: "Tracer | None") -> Tracer:
    """Normalise an optional tracer argument to a usable object."""
    return NULL_TRACER if tracer is None else tracer


class _Span:
    """The timer :meth:`Probe.span` hands out, one per span name.

    It keeps no per-use state (the probe's stacks hold the open paths
    and start times), so one object serves every use of the name,
    nested or not.
    """

    __slots__ = ("_probe", "_name", "_paths")

    def __init__(self, probe: "Probe", name: str) -> None:
        self._probe = probe
        self._name = name
        # Enclosing path -> this span's path under it.
        self._paths: "dict[str, str]" = {}

    def path(self) -> str:
        """This span's path under the probe's open spans."""
        stack = self._probe._stack
        if not stack:
            return self._name
        parent = stack[-1]
        path = self._paths.get(parent)
        if path is None:
            path = self._paths[parent] = f"{parent}/{self._name}"
        return path

    def __enter__(self) -> "_Span":
        probe = self._probe
        probe._stack.append(self.path())
        probe._starts.append(time.perf_counter())
        return self

    def __exit__(self, *exc: object) -> bool:
        seconds = time.perf_counter()
        probe = self._probe
        path = probe._stack.pop()
        start = probe._starts.pop()
        probe._record(0, path, seconds - start, start - probe._t0)
        return False


#: Pending entries at which a slot's record is handed on unread, so an
#: unread run's record stays bounded.
_FOLD_AT = 1 << 14


class Probe(Tracer):
    """The enabled tracer: timestamps spans and routes every event.

    A :class:`~repro.obs.sinks.PhaseAggregator` is always attached (as
    :attr:`phases`) so per-phase statistics are available without any
    setup; further sinks (e.g. a
    :class:`~repro.obs.sinks.JsonlSink`) receive the same event
    stream, routed as the module docstring says.

    Args:
        sinks: Additional sinks beyond the built-in aggregator.
    """

    __slots__ = (
        "_phases", "_all", "_sinks", "_readers", "_stack", "_starts", "_t0",
        "_routes", "_spans", "_pending", "_lock", "_folding", "_live",
    )

    enabled = True

    def __init__(self, sinks: Iterable[Sink] = ()) -> None:
        from repro.obs.sinks import PhaseAggregator

        self._phases = PhaseAggregator()
        self._all: list[Sink] = [self._phases, *sinks]
        # Open span paths and their start times.
        self._stack: list[str] = []
        self._starts: list[float] = []
        self._t0 = time.perf_counter()
        # Per kind (span, counter, gauge, event): name -> the emit
        # callables of the sinks that receive its events as they happen.
        self._routes: "tuple[dict, dict, dict, dict]" = ({}, {}, {}, {})
        self._spans: "dict[str, _Span]" = {}
        # The record: entries no reader has been handed yet.
        self._pending: deque = deque()
        self._lock = threading.RLock()
        self._folding = False
        self._split()

    @property
    def phases(self):
        """The built-in :class:`~repro.obs.sinks.PhaseAggregator`, with
        the record folded in."""
        self.fold()
        return self._phases

    def _split(self) -> None:
        """Sort the sinks into the record's readers and the rest; a
        reader's registry folds the record before it is read."""
        self._readers = tuple(
            s for s in self._all
            if getattr(s, "fold", None) is not None and getattr(s, "reads_record", True)
        )
        self._sinks = [s for s in self._all if s not in self._readers]
        for table in self._routes:
            table.clear()
        self._live = batch_filter(self._wanted)
        for reader in self._readers:
            registry = getattr(reader, "registry", None)
            if registry is not None and self.fold not in registry._folds:
                registry._folds.append(self.fold)

    def add_sink(self, sink: Sink) -> None:
        """Attach another sink to the event stream."""
        self.fold()
        self._all.append(sink)
        self._split()

    def _without_phases(self) -> "Probe":
        """Stop feeding :attr:`phases` (for probes whose phase state
        nobody reads, such as an untraced worker's); returns self."""
        self.fold()
        self._all.remove(self._phases)
        self._split()
        return self

    def _route(self, kind: int, name: str) -> tuple:
        """Who receives ``(kind, name)`` events as they happen, in sink
        order (built once per pair): ``(emit, False)`` pairs."""
        label = KINDS[kind]
        route = self._routes[kind][name] = tuple(
            (sink.emit, False) for sink in self._sinks if wants(sink, label, name)
        )
        return route

    def _record(self, kind: int, name: str, value: Any, start=None) -> None:
        if self._readers:
            self._pending.append((kind, name, value, start))
        if self._sinks:
            self._deliver((kind, name, value, start))

    def _deliver(self, entry: tuple) -> None:
        route = self._routes[entry[0]].get(entry[1])
        if route is None:
            route = self._route(entry[0], entry[1])
        if route:
            event = event_dict(*entry)
            for emit, _ in route:
                emit(event)

    def _wanted(self, kind: int, name: str) -> bool:
        """Whether a live sink wants ``(kind, name)`` events."""
        route = self._routes[kind].get(name)
        return bool(route if route is not None else self._route(kind, name))

    def span(self, name: str) -> _Span:
        span = self._spans.get(name)
        if span is None:
            span = self._spans[name] = _Span(self, name)
        return span

    def record_span(self, name: str, start: float, seconds: float) -> None:
        self._record(0, self.span(name).path(), seconds, start - self._t0)

    def counter(self, name: str, value: float = 1.0) -> None:
        self._record(1, name, float(value))

    def gauge(self, name: str, value: float) -> None:
        self._record(2, name, float(value))

    def event(self, name: str, data: dict) -> None:
        self._record(3, name, data)
        if len(self._pending) >= _FOLD_AT:
            self.fold()

    def defer(self, expand, payload) -> None:
        parent = self._stack[-1] if self._stack else ""
        entry = (-1, expand, payload, (parent, self._t0))
        if self._sinks:
            for concrete in expanded((entry,), self._live):
                self._deliver(concrete)
        if self._readers:
            self._pending.append(entry)

    def fold(self) -> None:
        """Hand the pending record, in order, to the sinks that read it
        (a fold already running on this thread hands on what its
        readers add)."""
        with self._lock:
            if self._folding:
                return
            self._folding = True
            try:
                pending = self._pending
                while pending:
                    record = [pending.popleft() for _ in range(len(pending))]
                    for reader in self._readers:
                        reader.fold(record)
            finally:
                self._folding = False

    def merge_phase_state(
        self, state: dict | None, *, order: "tuple | None" = None
    ) -> None:
        """Fold a worker aggregator's :meth:`state_dict` into this probe.

        Used by :func:`repro.sim.replication.run_replications` and
        :class:`repro.sim.sharded.ShardedController` to merge
        per-process tracers back into the parent's.  Pass *order* -- a
        sortable key such as ``(start_slot, cell)`` or ``(seed,)`` --
        when snapshots arrive in arbitrary completion order: gauge
        series are then re-assembled in key order, preserving the
        last-value semantics a recency-sensitive consumer expects (see
        :meth:`repro.obs.sinks.PhaseAggregator.merge_state`).
        """
        if state:
            self.phases.merge_state(state, order=order)

    def flush(self) -> None:
        """Fold the record, then push every sink's buffered state to
        durable storage.

        Sinks without a ``flush`` method (aggregators, dashboards) are
        skipped; streaming sinks like
        :class:`~repro.obs.sinks.JsonlSink` get their file flushed.
        Called by the sharded salvage path so a killed worker never
        leaves a trace truncated mid-record.
        """
        self.fold()
        for sink in self._all:
            flush = getattr(sink, "flush", None)
            if flush is not None:
                flush()

    def close(self) -> None:
        self.fold()
        for sink in self._all:
            sink.close()
