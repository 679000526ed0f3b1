"""Domain health monitors on the observability bus.

PR 2's :class:`~repro.obs.probe.Probe` streams spans, counters, gauges,
and per-slot events, but nothing interpreted them.  This module adds the
interpretation layer: a :class:`Monitor` consumes the raw event stream
and raises structured :class:`Alert`\\ s when a *domain* signal goes bad
-- the paper's own correctness criteria turned into live checks:

* :class:`QueueStabilityMonitor` -- the DPP virtual queue must be mean
  rate stable (Theorem 2): sustained, non-decelerating backlog growth
  means the budget is unreachable and the time-average constraint will
  be violated.
* :class:`BudgetDriftMonitor` -- the realised time-average energy cost
  must approach ``Cbar`` (constraint (14)).
* :class:`FeasibilityMonitor` -- per-slot resource feasibility:
  bandwidth/compute shares sum to at most 1 per base station / server
  (constraints (4)-(6)) and every clock stays inside ``[F^L, F^U]``.
* :class:`GuaranteeMonitor` -- measured latencies checked against the
  CGBA/BDMA approximation guarantees via
  :func:`repro.core.theory.check_cgba_guarantee` /
  :func:`repro.core.theory.check_bdma_guarantee`.
* :class:`AnomalyMonitor` -- EWMA z-score anomaly detection on latency,
  price, and engine-counter series.
* :class:`ResilienceMonitor` -- degraded-mode activity (faults,
  fallbacks, quarantines, checkpoints, replication retries) from the
  ``resilience.*`` counters and events.
* :class:`OverloadMonitor` -- overload-protection activity (the
  ``shed`` events and ``overload.state`` gauge raised by the
  controller's admission control).

Monitors are grouped in a :class:`MonitorSuite`, itself a tracer sink:
``suite.attach(probe)`` subscribes it to the bus.  Each monitor declares
the events it reads (:meth:`Monitor.wants`) and the suite hands it only
those; a monitor that declares nothing sees every event.  Every alert is
re-emitted on the bus as an ``event`` named ``"alert"`` (so JSONL traces
and the live dashboard see them), and :meth:`MonitorSuite.finish`
condenses the run into a :class:`HealthReport`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.obs.probe import wants

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.network.topology import MECNetwork
    from repro.obs.probe import Probe, Tracer

__all__ = [
    "Alert",
    "MonitorStatus",
    "HealthReport",
    "Monitor",
    "MonitorSuite",
    "QueueStabilityMonitor",
    "BudgetDriftMonitor",
    "FeasibilityMonitor",
    "GuaranteeMonitor",
    "AnomalyMonitor",
    "ResilienceMonitor",
    "OverloadMonitor",
    "default_monitors",
]

#: Alert severities, mildest first (used to rank statuses).
SEVERITIES = ("warning", "critical")


@dataclass(frozen=True)
class Alert:
    """One structured finding raised by a monitor.

    Attributes:
        monitor: Name of the raising monitor.
        severity: ``"warning"`` or ``"critical"``.
        message: Human-readable description.
        t: Slot index the alert is anchored to (``None`` when unknown).
        data: Supporting numbers (thresholds, measured values).
    """

    monitor: str
    severity: str
    message: str
    t: int | None = None
    data: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """JSON-ready view (the ``data`` payload of ``alert`` bus events)."""
        return {
            "monitor": self.monitor,
            "severity": self.severity,
            "message": self.message,
            "t": self.t,
            "data": dict(self.data),
        }


@dataclass(frozen=True)
class MonitorStatus:
    """End-of-run verdict of one monitor."""

    name: str
    status: str  # "ok" | "warning" | "critical"
    detail: str
    alerts: int


@dataclass(frozen=True)
class HealthReport:
    """The suite's end-of-run summary: one status per monitor plus alerts."""

    statuses: tuple[MonitorStatus, ...]
    alerts: tuple[Alert, ...]

    @property
    def ok(self) -> bool:
        """Whether every monitor finished clean (no alerts at all)."""
        return all(s.status == "ok" for s in self.statuses)

    @property
    def failing(self) -> bool:
        """Whether any monitor raised a critical alert."""
        return any(s.status == "critical" for s in self.statuses)

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "failing": self.failing,
            "monitors": [
                {
                    "name": s.name,
                    "status": s.status,
                    "detail": s.detail,
                    "alerts": s.alerts,
                }
                for s in self.statuses
            ],
            "alerts": [a.to_dict() for a in self.alerts],
        }

    def render(self) -> str:
        """Multi-line text report (printed by the CLI)."""
        verdict = "FAILING" if self.failing else ("DEGRADED" if not self.ok else "OK")
        lines = [f"health: {verdict} ({len(self.alerts)} alert(s))"]
        width = max((len(s.name) for s in self.statuses), default=0)
        for s in self.statuses:
            lines.append(
                f"  [{s.status:>8}] {s.name.ljust(width)}  {s.detail}"
            )
        for alert in self.alerts:
            where = f" @t={alert.t}" if alert.t is not None else ""
            lines.append(
                f"  ! {alert.severity}{where} {alert.monitor}: {alert.message}"
            )
        return "\n".join(lines)


class Monitor:
    """Base class: consume bus events, raise structured alerts.

    Subclasses override :meth:`observe` (called for every bus event the
    monitor :meth:`wants`) and optionally :meth:`finish` (end-of-run
    verdict).  Use :meth:`alert` to raise findings; the owning
    :class:`MonitorSuite` re-emits them on the bus.
    """

    #: Stable monitor name, used in alerts and reports.
    name: str = "monitor"

    def __init__(self) -> None:
        self.alerts: list[Alert] = []
        self._suite: "MonitorSuite | None" = None

    def observe(self, event: dict) -> None:
        """Consume one bus event (see :mod:`repro.obs.probe` for kinds)."""

    def wants(self, kind: str, name: str) -> bool:
        """Whether :meth:`observe` reads ``(kind, name)`` events.

        Asked once per pair; the default is every event.  The answer
        must depend on nothing but the two arguments.
        """
        return True

    def finish(self) -> MonitorStatus:
        """The end-of-run verdict; default summarises raised alerts."""
        return self.status(self.detail())

    def detail(self) -> str:
        """One-line summary shown in the health report."""
        return f"{len(self.alerts)} alert(s)"

    def alert(
        self,
        severity: str,
        message: str,
        *,
        t: int | None = None,
        **data: float,
    ) -> Alert:
        """Raise an alert (recorded here, re-emitted on the bus)."""
        if t is None and self._suite is not None:
            t = self._suite.current_t
        payload: dict = dict(data)
        if self._suite is not None and self._suite.labels:
            # Suite labels (e.g. {"cell": 3} under sharding) ride on
            # every alert so merged cross-cell reports stay attributable.
            payload = {**self._suite.labels, **payload}
        alert = Alert(
            monitor=self.name, severity=severity, message=message, t=t,
            data=payload,
        )
        self.alerts.append(alert)
        if self._suite is not None:
            self._suite._publish(alert)
        return alert

    def status(self, detail: str) -> MonitorStatus:
        """Build a :class:`MonitorStatus` ranked by the worst alert raised."""
        worst = "ok"
        for alert in self.alerts:
            if alert.severity == "critical":
                worst = "critical"
                break
            worst = "warning"
        return MonitorStatus(
            name=self.name, status=worst, detail=detail, alerts=len(self.alerts)
        )


class MonitorSuite:
    """A set of monitors subscribed to one probe (itself a tracer sink).

    Args:
        monitors: The monitors to run.
        tracer: Optional tracer alerts are re-emitted on; set
            automatically by :meth:`attach`.
        labels: Constant labels merged into every alert's ``data``
            payload (e.g. ``{"cell": 3}`` for a per-cell suite under
            sharding), so alerts stay attributable after cross-cell
            merging.
    """

    def __init__(
        self,
        monitors: Iterable[Monitor],
        tracer: "Tracer | None" = None,
        *,
        labels: "dict | None" = None,
    ) -> None:
        self.monitors = list(monitors)
        self._tracer = tracer
        self.labels = dict(labels or {})
        #: Slot index of the most recent ``slot`` event seen.
        self.current_t: int | None = None
        self._report: HealthReport | None = None
        # (kind, name) -> the observe callables of the monitors that
        # want it.
        self._routes: "dict[tuple[str, str], tuple]" = {}
        for monitor in self.monitors:
            monitor._suite = self

    def attach(self, probe: "Probe") -> "MonitorSuite":
        """Subscribe to *probe*'s event stream; returns self."""
        probe.add_sink(self)
        self._tracer = probe
        return self

    # -- Sink protocol -------------------------------------------------
    def wants(self, kind: str, name: str) -> bool:
        """Every ``slot`` event (for :attr:`current_t`) and whatever a
        monitor wants -- never our own ``alert`` re-emissions."""
        if kind == "event":
            if name == "alert":
                return False
            if name == "slot":
                return True
        return bool(self._route(kind, name))

    def _route(self, kind: str, name: str) -> tuple:
        """The ``observe`` callables of the monitors that want
        ``(kind, name)``, in monitor order (built once per pair)."""
        observers = tuple(
            monitor.observe
            for monitor in self.monitors
            if wants(monitor, kind, name)
        )
        self._routes[(kind, name)] = observers
        return observers

    def emit(self, event: dict) -> None:
        kind = event["kind"]
        name = event["name"]
        if kind == "event":
            if name == "alert":
                return  # our own re-emissions; never feed back
            if name == "slot":
                t = event["data"].get("t")
                self.current_t = int(t) if t is not None else None
        observers = self._routes.get((kind, name))
        if observers is None:
            observers = self._route(kind, name)
        for observe in observers:
            observe(event)

    def close(self) -> None:  # nothing buffered
        pass

    # ------------------------------------------------------------------
    def _publish(self, alert: Alert) -> None:
        """Re-emit an alert as an ``alert`` bus event."""
        if self._tracer is not None and self._tracer.enabled:
            self._tracer.event("alert", alert.to_dict())

    @property
    def alerts(self) -> list[Alert]:
        """Every alert raised so far, in emission order per monitor."""
        return [a for m in self.monitors for a in m.alerts]

    def finish(self) -> HealthReport:
        """Finalise every monitor into a :class:`HealthReport` (idempotent)."""
        if self._report is None:
            statuses = tuple(m.finish() for m in self.monitors)
            self._report = HealthReport(
                statuses=statuses, alerts=tuple(self.alerts)
            )
        return self._report


class QueueStabilityMonitor(Monitor):
    """Growth-rate test on the ``queue.backlog`` gauge.

    A stable DPP queue ramps towards its equilibrium ``Q*`` with a
    *decelerating* growth rate (the cost response drives ``C_t`` down
    towards ``Cbar`` as pressure builds); an infeasible budget produces
    sustained linear growth.  The monitor compares consecutive
    window-mean deltas: growth that persists for *patience* windows
    without decelerating by at least ``1 - decel_factor`` is flagged as
    divergence.

    Args:
        window: Gauge samples per comparison window.
        patience: Consecutive non-decelerating growth windows before the
            critical alert fires.
        decel_factor: A window's growth must be below this fraction of
            the previous window's growth to count as decelerating.
        rel_growth: Minimum growth per window (relative to the current
            backlog level) considered meaningful.
    """

    name = "queue_stability"

    def __init__(
        self,
        *,
        gauge: str = "queue.backlog",
        window: int = 16,
        patience: int = 2,
        decel_factor: float = 0.8,
        rel_growth: float = 0.02,
    ) -> None:
        super().__init__()
        self.gauge = gauge
        self.window = int(window)
        self.patience = int(patience)
        self.decel_factor = float(decel_factor)
        self.rel_growth = float(rel_growth)
        self._samples: list[float] = []
        self._prev_mean: float | None = None
        self._prev_delta: float | None = None
        self._strikes = 0
        self._fired = False

    def wants(self, kind: str, name: str) -> bool:
        return kind == "gauge" and name == self.gauge

    def observe(self, event: dict) -> None:
        if event["kind"] != "gauge" or event["name"] != self.gauge:
            return
        self._samples.append(float(event["value"]))
        if len(self._samples) % self.window == 0:
            self._evaluate()

    def _evaluate(self) -> None:
        mean = float(
            sum(self._samples[-self.window:]) / self.window
        )
        if self._prev_mean is not None:
            delta = mean - self._prev_mean
            growing = delta > self.rel_growth * max(abs(mean), 1e-9)
            decelerating = (
                self._prev_delta is not None
                and delta < self.decel_factor * self._prev_delta
            )
            if growing and not decelerating:
                self._strikes += 1
            else:
                self._strikes = 0
            if self._strikes >= self.patience and not self._fired:
                self._fired = True
                self.alert(
                    "critical",
                    "virtual queue backlog growing without deceleration "
                    f"(+{delta:.4g}/window at Q~{mean:.4g}); the energy "
                    "budget looks unreachable",
                    backlog=mean,
                    growth_per_window=delta,
                )
            self._prev_delta = delta
        self._prev_mean = mean

    def detail(self) -> str:
        if not self._samples:
            return "no backlog samples"
        return (
            f"{len(self._samples)} samples, final Q={self._samples[-1]:.4g}"
        )


class BudgetDriftMonitor(Monitor):
    """Trailing-average energy cost vs the time-average budget ``Cbar``.

    During the run a *warning* fires when the trailing-window mean cost
    sits above ``budget * (1 + rel_tol)`` for *patience* consecutive
    slots (the DPP transient legitimately overspends while the queue is
    empty, so the trailing window plus patience filter the ramp).  At
    :meth:`finish` the constraint itself is checked: a final
    time-average cost above budget is a *critical* violation.

    Args:
        budget: The time-average budget ``Cbar``.
        window: Trailing slots averaged for the drift test.
        rel_tol: Relative overshoot tolerated before drift counts.
        patience: Consecutive drifting slots before the warning fires.
        final_tol: Relative tolerance on the end-of-run constraint.
    """

    name = "budget"

    def __init__(
        self,
        budget: float,
        *,
        window: int = 24,
        rel_tol: float = 0.10,
        patience: int = 12,
        final_tol: float = 0.01,
    ) -> None:
        super().__init__()
        self.budget = float(budget)
        self.window = int(window)
        self.rel_tol = float(rel_tol)
        self.patience = int(patience)
        self.final_tol = float(final_tol)
        self._costs: list[float] = []
        self._over_run = 0
        self._drift_fired = False

    def wants(self, kind: str, name: str) -> bool:
        return kind == "event" and name == "slot"

    def observe(self, event: dict) -> None:
        if event["kind"] != "event" or event["name"] != "slot":
            return
        cost = event["data"].get("cost")
        if cost is None:
            return
        self._costs.append(float(cost))
        if len(self._costs) < self.window:
            return
        trailing = sum(self._costs[-self.window:]) / self.window
        if trailing > self.budget * (1.0 + self.rel_tol):
            self._over_run += 1
        else:
            self._over_run = 0
        if self._over_run >= self.patience and not self._drift_fired:
            self._drift_fired = True
            self.alert(
                "warning",
                f"trailing {self.window}-slot mean cost {trailing:.4g} is "
                f"drifting above the budget {self.budget:.4g}",
                trailing_mean=trailing,
                budget=self.budget,
            )

    def finish(self) -> MonitorStatus:
        if self._costs:
            mean = sum(self._costs) / len(self._costs)
            if mean > self.budget * (1.0 + self.final_tol):
                self.alert(
                    "critical",
                    f"time-average cost {mean:.4g} violates the budget "
                    f"{self.budget:.4g}",
                    mean_cost=mean,
                    budget=self.budget,
                )
            detail = f"mean cost {mean:.4g} vs budget {self.budget:.4g}"
        else:
            detail = "no slots observed"
        return self.status(detail)


class FeasibilityMonitor(Monitor):
    """Per-slot feasibility of the granted decision.

    Consumes the ``feas.*`` gauges the controller emits each slot: the
    worst-case access/fronthaul/compute share sums (constraints
    (4)-(6), each must be ``<= 1``) and the largest clock excursion
    outside ``[F^L, F^U]`` (must be 0).  Any violation is critical: the
    closed-form Lemma-1 allocation should make these impossible, so a
    hit means a genuine solver bug or corrupted state.
    """

    name = "feasibility"

    _SHARE_GAUGES = (
        "feas.access_share_max",
        "feas.fronthaul_share_max",
        "feas.compute_share_max",
    )
    _FREQ_GAUGE = "feas.freq_excess"

    def __init__(self, *, tol: float = 1e-6) -> None:
        super().__init__()
        self.tol = float(tol)
        self._samples = 0

    def wants(self, kind: str, name: str) -> bool:
        return kind == "gauge" and name.startswith("feas.")

    def observe(self, event: dict) -> None:
        if event["kind"] != "gauge":
            return
        name, value = event["name"], float(event["value"])
        if name in self._SHARE_GAUGES:
            self._samples += 1
            if value > 1.0 + self.tol:
                self.alert(
                    "critical",
                    f"{name.removeprefix('feas.')} = {value:.6g} exceeds the "
                    "capacity of its resource (shares must sum to <= 1)",
                    value=value,
                )
        elif name == self._FREQ_GAUGE:
            if value > self.tol:
                self.alert(
                    "critical",
                    f"a server clock lies {value:.6g} GHz outside "
                    "[F^L, F^U]",
                    excess=value,
                )

    def detail(self) -> str:
        if self._samples == 0:
            return "no feasibility gauges observed"
        return f"{self._samples} share checks, worst within capacity"


class GuaranteeMonitor(Monitor):
    """Measured latencies vs the CGBA/BDMA approximation guarantees.

    Two checks, both routed through :mod:`repro.core.theory`:

    * per slot, when the ``slot`` event carries a ``latency_lower_bound``
      field (an optimum or any certified lower bound), the realised
      latency is checked against Theorem 2's ``2.62/(1-8 lambda)`` ratio
      via :func:`~repro.core.theory.check_cgba_guarantee`;
    * at :meth:`finish`, when a *network* and *reference_latency* were
      supplied, the run's mean latency is checked against Theorem 3's
      ``2.62 R_F/(1-8 lambda)`` ratio via
      :func:`~repro.core.theory.check_bdma_guarantee`.

    Args:
        network: Topology supplying ``R_F`` for the BDMA check.
        reference_latency: Per-slot reference (optimum or lower bound)
            the time-average latency is compared against.
        slack: CGBA's ``lambda``.
    """

    name = "guarantee"

    def __init__(
        self,
        network: "MECNetwork | None" = None,
        *,
        reference_latency: float | None = None,
        slack: float = 0.0,
    ) -> None:
        super().__init__()
        self.network = network
        self.reference_latency = reference_latency
        self.slack = float(slack)
        self._latencies: list[float] = []
        self._slot_checks = 0

    def wants(self, kind: str, name: str) -> bool:
        return kind == "event" and name == "slot"

    def observe(self, event: dict) -> None:
        if event["kind"] != "event" or event["name"] != "slot":
            return
        data = event["data"]
        latency = data.get("latency")
        if latency is None:
            return
        self._latencies.append(float(latency))
        bound = data.get("latency_lower_bound")
        if bound is None:
            return
        from repro.core.theory import check_cgba_guarantee

        self._slot_checks += 1
        check = check_cgba_guarantee(float(latency), float(bound), self.slack)
        if not check.satisfied:
            self.alert(
                "critical",
                f"slot latency {check.measured:.4g} exceeds the CGBA "
                f"guarantee bound {check.bound:.4g} (Theorem 2)",
                t=data.get("t"),
                measured=check.measured,
                bound=check.bound,
            )

    def finish(self) -> MonitorStatus:
        if not self._latencies:
            return self.status("no latency samples")
        mean = sum(self._latencies) / len(self._latencies)
        detail = f"mean latency {mean:.4g}, {self._slot_checks} slot check(s)"
        if self.network is not None and self.reference_latency is not None:
            from repro.core.theory import check_bdma_guarantee

            check = check_bdma_guarantee(
                self.network, mean, self.reference_latency, slack=self.slack
            )
            if not check.satisfied:
                self.alert(
                    "critical",
                    f"mean latency {check.measured:.4g} exceeds the BDMA "
                    f"guarantee bound {check.bound:.4g} (Theorem 3)",
                    measured=check.measured,
                    bound=check.bound,
                )
            detail += (
                f"; BDMA bound {check.bound:.4g} "
                f"(headroom {check.headroom:.2f}x)"
            )
        return self.status(detail)


class _EwmaDetector:
    """EWMA mean/variance tracker with a z-score test."""

    __slots__ = ("alpha", "mean", "var", "count")

    def __init__(self, alpha: float) -> None:
        self.alpha = alpha
        self.mean = 0.0
        self.var = 0.0
        self.count = 0

    def update(self, x: float) -> float:
        """Return the z-score of *x* against the state *before* folding it in."""
        if self.count == 0:
            z = 0.0
        else:
            std = math.sqrt(max(self.var, 0.0))
            std = max(std, 1e-12, 0.02 * abs(self.mean))
            z = (x - self.mean) / std
        delta = x - self.mean
        self.mean += self.alpha * delta
        self.var = (1.0 - self.alpha) * (self.var + self.alpha * delta * delta)
        self.count += 1
        return z


class AnomalyMonitor(Monitor):
    """EWMA z-score anomaly detection on per-slot series.

    Series are addressed by bus-derived names: gauges by their gauge
    name (e.g. ``"slot.price"``, ``"queue.backlog"``), numeric ``slot``
    event fields as ``"slot.<field>"`` (e.g. ``"slot.latency"``), and
    engine counters inside the slot record as ``"engine.<stat>"``
    (e.g. ``"engine.moves"``).

    Args:
        series: Series names to watch.
        alpha: EWMA smoothing factor.
        z_threshold: |z| above which a sample is anomalous.
        warmup: Samples per series before alerts may fire.
        max_alerts_per_series: Cap on alerts per series (noise guard).
    """

    name = "anomaly"

    DEFAULT_SERIES = ("slot.latency", "slot.price", "engine.moves")

    def __init__(
        self,
        series: Sequence[str] = DEFAULT_SERIES,
        *,
        alpha: float = 0.15,
        z_threshold: float = 6.0,
        warmup: int = 16,
        max_alerts_per_series: int = 3,
    ) -> None:
        super().__init__()
        self.series = tuple(series)
        self.z_threshold = float(z_threshold)
        self.warmup = int(warmup)
        self.max_alerts_per_series = int(max_alerts_per_series)
        self._detectors = {name: _EwmaDetector(alpha) for name in self.series}
        self._fired = {name: 0 for name in self.series}
        # Watched slot-record fields and engine stats -> series name.
        self._slot_fields = {
            name[len("slot."):]: name
            for name in self._detectors
            if name.startswith("slot.") and name != "slot.t"
        }
        self._engine_fields = {
            name[len("engine."):]: name
            for name in self._detectors
            if name.startswith("engine.")
        }

    def wants(self, kind: str, name: str) -> bool:
        if kind == "gauge":
            return name in self._detectors
        return kind == "event" and name == "slot"

    def observe(self, event: dict) -> None:
        kind = event["kind"]
        if kind == "gauge":
            self._sample(event["name"], float(event["value"]))
        elif kind == "event" and event["name"] == "slot":
            data = event["data"]
            self._sample_fields(data, self._slot_fields)
            stats = data.get("engine_stats")
            if isinstance(stats, dict):
                self._sample_fields(stats, self._engine_fields)

    def _sample_fields(self, record: dict, fields: "dict[str, str]") -> None:
        """Sample the watched numeric fields of *record*, in its order."""
        for key, value in record.items():
            name = fields.get(key)
            if name is not None and isinstance(value, (int, float)):
                self._sample(name, float(value))

    def _sample(self, name: str, value: float) -> None:
        detector = self._detectors.get(name)
        if detector is None:
            return
        z = detector.update(value)
        if (
            detector.count > self.warmup
            and abs(z) > self.z_threshold
            and self._fired[name] < self.max_alerts_per_series
        ):
            self._fired[name] += 1
            self.alert(
                "warning",
                f"{name} anomaly: value {value:.4g} deviates z={z:.1f} "
                f"from its EWMA baseline {detector.mean:.4g}",
                value=value,
                z=z,
            )

    def detail(self) -> str:
        counts = {n: d.count for n, d in self._detectors.items() if d.count}
        if not counts:
            return "no watched samples"
        watched = ", ".join(f"{n} ({c})" for n, c in counts.items())
        return f"watched {watched}"


class ResilienceMonitor(Monitor):
    """Watches the degraded-mode machinery of the resilience layer.

    Consumes the ``resilience.*`` counters plus the ``fault`` /
    ``fallback`` / ``quarantine`` / ``solver_failure`` / ``checkpoint``
    / ``replication.*`` events, and turns sustained degradation into
    alerts:

    * warning when the fallback chain served more than
      ``fallback_rate_threshold`` of the slots (the primary solver is
      effectively down);
    * warning when the last-resort ``random`` tier was ever used (the
      decision quality floor, worth a look even once);
    * warning for every replication seed that failed permanently.

    A run with occasional fallbacks below the threshold stays ``ok`` --
    that is the resilience layer doing its job.

    Args:
        fallback_rate_threshold: Fraction of slots served by fallback
            above which the run is flagged as degraded.
    """

    name = "resilience"

    def __init__(self, *, fallback_rate_threshold: float = 0.25) -> None:
        super().__init__()
        self.fallback_rate_threshold = float(fallback_rate_threshold)
        self.counts: dict[str, float] = {}
        self.slots = 0
        self.fallback_slots = 0
        self.failed_seeds: list[int] = []

    def wants(self, kind: str, name: str) -> bool:
        if kind == "counter":
            return name.startswith("resilience.")
        return kind == "event" and name in ("slot", "replication.seed_failed")

    def observe(self, event: dict) -> None:
        kind = event["kind"]
        if kind == "counter" and event["name"].startswith("resilience."):
            name = event["name"]
            self.counts[name] = self.counts.get(name, 0.0) + float(event["value"])
        elif kind == "event":
            name = event["name"]
            if name == "slot":
                self.slots += 1
                if event["data"].get("fallback", "primary") != "primary":
                    self.fallback_slots += 1
            elif name == "replication.seed_failed":
                seed = event["data"].get("seed")
                self.failed_seeds.append(seed)
                self.alert(
                    "warning",
                    f"replication seed {seed} failed permanently after "
                    f"{event['data'].get('attempts')} attempt(s)",
                )

    def finish(self) -> MonitorStatus:
        if self.slots:
            rate = self.fallback_slots / self.slots
            if rate > self.fallback_rate_threshold:
                self.alert(
                    "warning",
                    f"fallback chain served {self.fallback_slots}/{self.slots} "
                    f"slots ({rate:.0%} > {self.fallback_rate_threshold:.0%}); "
                    "the primary solver is effectively degraded",
                    rate=rate,
                )
        if self.counts.get("resilience.fallback.random", 0.0) > 0:
            self.alert(
                "warning",
                "the last-resort random fallback tier was used "
                f"{int(self.counts['resilience.fallback.random'])} time(s)",
            )
        return self.status(self.detail())

    def detail(self) -> str:
        if not self.counts and not self.fallback_slots and not self.failed_seeds:
            return "no degraded-mode activity"
        parts = [
            f"{name.removeprefix('resilience.')}={int(value)}"
            for name, value in sorted(self.counts.items())
        ]
        if self.slots:
            parts.append(f"fallback slots {self.fallback_slots}/{self.slots}")
        return ", ".join(parts)


class OverloadMonitor(Monitor):
    """Watches the overload-protection layer (admission control).

    Consumes the ``shed`` events and the ``overload.state`` gauge that
    :class:`~repro.core.controller.DPPController` emits when an
    :class:`~repro.core.overload.OverloadPolicy` is active.  Raises a
    single warning at the first shed (the moment the arrival rate
    outran the budget), then keeps counting: the end-of-run detail
    reports how many slots shed load and how many tasks were dropped in
    total.  A run that never sheds stays ``ok`` with "no overload
    activity".
    """

    name = "overload"

    def __init__(self) -> None:
        super().__init__()
        self.shed_slots = 0
        self.shed_tasks = 0
        self.overloaded_slots = 0
        self.first_shed_t: "int | None" = None

    def wants(self, kind: str, name: str) -> bool:
        if kind == "gauge":
            return name == "overload.state"
        return kind == "event" and name == "shed"

    def observe(self, event: dict) -> None:
        kind = event["kind"]
        if kind == "gauge" and event["name"] == "overload.state":
            if float(event["value"]) > 0.0:
                self.overloaded_slots += 1
        elif kind == "event" and event["name"] == "shed":
            data = event["data"]
            devices = data.get("devices", ())
            self.shed_slots += 1
            self.shed_tasks += len(devices)
            if self.first_shed_t is None:
                self.first_shed_t = data.get("t")
                self.alert(
                    "warning",
                    f"overload shedding engaged: dropped {len(devices)} "
                    "task(s) this slot (arrival rate outran the budget)",
                    t=self.first_shed_t,
                    devices=len(devices),
                )

    def detail(self) -> str:
        if not self.overloaded_slots and not self.shed_slots:
            return "no overload activity"
        return (
            f"overloaded {self.overloaded_slots} slot(s), shed "
            f"{self.shed_tasks} task(s) across {self.shed_slots} slot(s)"
        )


def default_monitors(
    *,
    budget: float | None = None,
    network: "MECNetwork | None" = None,
    reference_latency: float | None = None,
    slack: float = 0.0,
) -> list[Monitor]:
    """The standard monitor set for a DPP run.

    Always includes queue-stability, feasibility, anomaly, resilience,
    and overload monitors; adds the budget monitor when *budget* is
    known and the guarantee monitor when a *network* is supplied.
    """
    monitors: list[Monitor] = [
        QueueStabilityMonitor(),
        FeasibilityMonitor(),
        AnomalyMonitor(),
        ResilienceMonitor(),
        OverloadMonitor(),
    ]
    if budget is not None:
        monitors.append(BudgetDriftMonitor(budget))
    if network is not None:
        monitors.append(
            GuaranteeMonitor(
                network, reference_latency=reference_latency, slack=slack
            )
        )
    return monitors
