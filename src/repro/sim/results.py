"""Simulation result containers and summaries."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.core.controller import SlotRecord
from repro.types import FloatArray

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.monitors import HealthReport


@dataclass(frozen=True)
class SimulationSummary:
    """Headline time-average statistics of one run.

    Attributes:
        horizon: Number of simulated slots.
        mean_latency: Time-average overall latency.
        mean_cost: Time-average energy cost.
        mean_backlog: Time-average virtual-queue backlog.
        final_backlog: Backlog after the last slot.
        budget_satisfied: Whether ``mean_cost <= budget`` (when a budget
            was recorded).
        mean_solve_seconds: Average per-slot decision time.
    """

    horizon: int
    mean_latency: float
    mean_cost: float
    mean_backlog: float
    final_backlog: float
    budget_satisfied: bool | None
    mean_solve_seconds: float

    def to_dict(self) -> dict:
        """JSON-ready view; field names are shared with
        :meth:`repro.sim.replication.ReplicationSummary.to_dict`."""
        return {
            "horizon": self.horizon,
            "mean_latency": self.mean_latency,
            "mean_cost": self.mean_cost,
            "mean_backlog": self.mean_backlog,
            "final_backlog": self.final_backlog,
            "budget_satisfied": self.budget_satisfied,
            "mean_solve_seconds": self.mean_solve_seconds,
        }


#: The per-slot trajectory fields of :class:`SimulationResult`, in field
#: order: what checkpoints, worker replies and result archives carry.
TRAJECTORY_FIELDS = ("latency", "cost", "theta", "backlog", "solve_seconds", "price")


@dataclass
class SimulationResult:
    """Per-slot trajectories of one simulation run.

    All arrays have length equal to the simulated horizon.  ``health``
    is filled by :func:`repro.api.run` when monitors were attached
    (``None`` otherwise).
    """

    latency: FloatArray
    cost: FloatArray
    theta: FloatArray
    backlog: FloatArray
    solve_seconds: FloatArray
    price: FloatArray
    budget: float | None = None
    records: list[SlotRecord] = field(default_factory=list)
    health: "HealthReport | None" = None

    @property
    def horizon(self) -> int:
        """Number of simulated slots."""
        return int(self.latency.size)

    def time_average_latency(self) -> float:
        """Mean overall latency across the run."""
        return float(np.mean(self.latency))

    def time_average_cost(self) -> float:
        """Mean energy cost across the run."""
        return float(np.mean(self.cost))

    def summary(self) -> SimulationSummary:
        """Condense the run into a :class:`SimulationSummary`."""
        mean_cost = self.time_average_cost()
        satisfied = None if self.budget is None else bool(mean_cost <= self.budget + 1e-9)
        return SimulationSummary(
            horizon=self.horizon,
            mean_latency=self.time_average_latency(),
            mean_cost=mean_cost,
            mean_backlog=float(np.mean(self.backlog)),
            final_backlog=float(self.backlog[-1]) if self.horizon else 0.0,
            budget_satisfied=satisfied,
            mean_solve_seconds=float(np.mean(self.solve_seconds)),
        )
