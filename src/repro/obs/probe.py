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

Routing: a sink may declare ``wants(kind, name) -> bool``.  The probe
asks once per ``(kind, name)`` pair, the first time it sees the pair,
and from then on hands that pair's events only to the sinks that said
yes; an event no sink wants is never even built.  A sink without
``wants`` receives every event.  ``wants`` must depend on nothing but
its two arguments.
"""

from __future__ import annotations

import time
from typing import Any, Iterable, Protocol


class Sink(Protocol):
    """Anything that can receive tracer events.

    Optionally also ``wants(kind, name) -> bool`` (see the module
    docstring): sinks that define it only receive the events they want.
    """

    def emit(self, event: dict) -> None: ...

    def close(self) -> None: ...


def wants(sink: object, kind: str, name: str) -> bool:
    """Whether *sink* reads ``(kind, name)`` events (yes without ``wants``)."""
    declared = getattr(sink, "wants", None)
    return declared is None or bool(declared(kind, name))


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
        probe._deliver_span(path, start, seconds - start)
        return False


#: Event kinds in route-table order.
_KINDS = ("span", "counter", "gauge", "event")


class Probe(Tracer):
    """The enabled tracer: an event bus routing to sinks.

    A probe always owns a
    :class:`~repro.obs.sinks.PhaseAggregator` (exposed as
    :attr:`phases`) so per-phase statistics are available without any
    setup; further sinks (e.g. a
    :class:`~repro.obs.sinks.JsonlSink`) receive the same event
    stream.  Each event goes only to the sinks that want it (see the
    module docstring).

    Args:
        sinks: Additional sinks beyond the built-in aggregator.
    """

    __slots__ = (
        "phases", "_sinks", "_stack", "_starts", "_t0", "_routes", "_spans",
    )

    enabled = True

    def __init__(self, sinks: Iterable[Sink] = ()) -> None:
        from repro.obs.sinks import PhaseAggregator

        self.phases = PhaseAggregator()
        self._sinks: list[Sink] = [self.phases, *sinks]
        # Open span paths and their start times.
        self._stack: list[str] = []
        self._starts: list[float] = []
        self._t0 = time.perf_counter()
        # Per kind (span, counter, gauge, event): name -> the callables
        # that receive its events, in sink order.
        self._routes: "tuple[dict, dict, dict, dict]" = ({}, {}, {}, {})
        self._spans: "dict[str, _Span]" = {}

    def add_sink(self, sink: Sink) -> None:
        """Attach another sink to the event stream."""
        self._sinks.append(sink)
        for table in self._routes:
            table.clear()

    def _without_phases(self) -> "Probe":
        """Stop feeding :attr:`phases` (for probes whose phase state
        nobody reads, such as an untraced worker's); returns self."""
        self._sinks.remove(self.phases)
        for table in self._routes:
            table.clear()
        return self

    def _route(self, kind: int, name: str) -> tuple:
        """Who receives ``(kind, name)`` events, in sink order (built
        once per pair): ``(handler, direct)`` pairs.

        A sink joins with its ``emit`` (``direct`` false) when it
        :func:`wants` the pair.  A sink that names a direct handler
        instead (``_direct(kind, name)``: the telemetry sink's pre-bound
        registry series) is called with the bare value -- span seconds,
        counter or gauge value -- and no event dict is built for it.
        """
        label = _KINDS[kind]
        route = []
        for sink in self._sinks:
            direct = getattr(sink, "_direct", None)
            handler = direct(label, name) if direct is not None else None
            if handler is not None:
                route.append((handler, True))
            elif wants(sink, label, name):
                route.append((sink.emit, False))
        route = self._routes[kind][name] = tuple(route)
        return route

    def span(self, name: str) -> _Span:
        span = self._spans.get(name)
        if span is None:
            span = self._spans[name] = _Span(self, name)
        return span

    def record_span(self, name: str, start: float, seconds: float) -> None:
        self._deliver_span(self.span(name).path(), start, seconds)

    def _deliver_span(self, path: str, start: float, seconds: float) -> None:
        route = self._routes[0].get(path)
        if route is None:
            route = self._route(0, path)
        event = None
        for handler, direct in route:
            if direct:
                handler(seconds)
                continue
            if event is None:
                event = {
                    "kind": "span",
                    "name": path,
                    "start": start - self._t0,
                    "seconds": seconds,
                }
            handler(event)

    # counter() and gauge() deliver alike; the loop is written out in
    # both because it runs for every bus counter and gauge.
    def counter(self, name: str, value: float = 1.0) -> None:
        route = self._routes[1].get(name)
        if route is None:
            route = self._route(1, name)
        value = float(value)
        event = None
        for handler, direct in route:
            if direct:
                handler(value)
                continue
            if event is None:
                event = {"kind": "counter", "name": name, "value": value}
            handler(event)

    def gauge(self, name: str, value: float) -> None:
        route = self._routes[2].get(name)
        if route is None:
            route = self._route(2, name)
        value = float(value)
        event = None
        for handler, direct in route:
            if direct:
                handler(value)
                continue
            if event is None:
                event = {"kind": "gauge", "name": name, "value": value}
            handler(event)

    def event(self, name: str, data: dict) -> None:
        route = self._routes[3].get(name)
        if route is None:
            route = self._route(3, name)
        if route:
            event = {"kind": "event", "name": name, "data": data}
            for handler, _ in route:
                handler(event)

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
        """Push every sink's buffered state to durable storage.

        Sinks without a ``flush`` method (aggregators, dashboards) are
        skipped; streaming sinks like
        :class:`~repro.obs.sinks.JsonlSink` get their file flushed.
        Called by the sharded salvage path so a killed worker never
        leaves a trace truncated mid-record.
        """
        for sink in self._sinks:
            flush = getattr(sink, "flush", None)
            if flush is not None:
                flush()

    def close(self) -> None:
        for sink in self._sinks:
            sink.close()
