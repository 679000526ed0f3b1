"""The discrete-time simulation loop."""

from __future__ import annotations

import logging
from typing import Callable, Iterable

import numpy as np

from repro.core.controller import OnlineController, SlotRecord
from repro.core.state import SlotState
from repro.obs.probe import Tracer, as_tracer
from repro.sim.results import SimulationResult

logger = logging.getLogger(__name__)


def run_simulation(
    controller: OnlineController,
    states: Iterable[SlotState],
    *,
    budget: float | None = None,
    keep_records: bool = False,
    on_slot: Callable[[SlotRecord], None] | None = None,
    tracer: "Tracer | None" = None,
) -> SimulationResult:
    """Drive *controller* through the given state sequence.

    Args:
        controller: The online policy under test.
        states: Iterable of per-slot system states ``beta_t`` (e.g. from
            :meth:`repro.sim.scenario.Scenario.fresh_states`).
        budget: The budget ``Cbar`` to record on the result (summaries
            use it to judge constraint satisfaction).
        keep_records: Retain the full :class:`SlotRecord` objects
            (assignments, allocations) -- memory-heavy on long runs.
        on_slot: Optional progress callback invoked after each slot.
        tracer: Observability tracer.  When enabled, every slot's record
            is streamed as a ``slot`` event (via
            :meth:`~repro.core.controller.SlotRecord.to_dict`), so trace
            sinks capture per-slot data even with ``keep_records=False``
            -- no :class:`SlotRecord` retention, no memory blow-up on
            long horizons.  A ``slot.price`` gauge is emitted per slot
            (for monitors/dashboards), and if the loop dies a final
            ``crash`` event carries the failing slot and exception --
            the trigger for :class:`repro.obs.trace.FlightRecorder`
            dumps.  Pass the same tracer to the controller to also get
            the per-phase spans.

    Returns:
        A :class:`SimulationResult` with per-slot trajectories.

    Raises:
        Exception: Whatever the controller (or a callback) raised; the
            ``crash`` event is emitted before re-raising.
    """
    tracer = as_tracer(tracer)
    latency: list[float] = []
    cost: list[float] = []
    theta: list[float] = []
    backlog: list[float] = []
    solve_seconds: list[float] = []
    price: list[float] = []
    records: list[SlotRecord] = []

    logger.info(
        "simulation start: controller=%s budget=%s",
        type(controller).__name__,
        budget,
    )
    last_t: int | None = None
    try:
        for state in states:
            if tracer.enabled:
                tracer.gauge("slot.price", float(state.price))
            record = controller.step(state)
            last_t = record.t
            logger.debug(
                "slot %d: latency=%.4f cost=%.4f backlog=%.3f solve=%.3fs",
                record.t,
                record.latency,
                record.cost,
                record.backlog_after,
                record.solve_seconds,
            )
            latency.append(record.latency)
            cost.append(record.cost)
            theta.append(record.theta)
            backlog.append(record.backlog_after)
            solve_seconds.append(record.solve_seconds)
            price.append(state.price)
            if keep_records:
                records.append(record)
            if tracer.enabled:
                tracer.event("slot", record.to_dict())
            if on_slot is not None:
                on_slot(record)
    except Exception as exc:
        logger.exception("simulation crashed after slot %s", last_t)
        if tracer.enabled:
            tracer.event(
                "crash",
                {
                    "slot": last_t,
                    "error": repr(exc),
                    "error_type": type(exc).__name__,
                },
            )
        raise

    if logger.isEnabledFor(logging.INFO):
        logger.info(
            "simulation done: %d slots, mean latency %.4f, mean cost %.4f",
            len(latency),
            float(np.mean(latency)) if latency else float("nan"),
            float(np.mean(cost)) if cost else float("nan"),
        )
    return SimulationResult(
        latency=np.array(latency),
        cost=np.array(cost),
        theta=np.array(theta),
        backlog=np.array(backlog),
        solve_seconds=np.array(solve_seconds),
        price=np.array(price),
        budget=budget,
        records=records,
    )
