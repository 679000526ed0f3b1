"""Theorem 4's budget accounting, checked on the runs the system makes.

The virtual queue is ``Q(t+1) = max(Q(t) + theta_t, 0)`` with
``theta_t = C_t - Cbar_t``, so every slot gives
``Q(t+1) >= Q(t) + theta_t`` and a run gives
``sum_t theta_t <= Q(T) - Q(0)``: the cumulative overspend never
exceeds the backlog the queue has built.  Theorem 4's budget bound
rests on that step.

Both tests run with overload shedding engaged and a fault plan on, the
two features that change what a slot solves.  On a sharded run the
merged theta and backlog are sums over cells, and the coordinator's
per-cell shares sum to ``Cbar`` every epoch, so the merged theta must
also add up to the global overspend ``C_t - Cbar`` to float rounding.
"""

from __future__ import annotations

import numpy as np

import repro
from repro import sharding
from repro.core.overload import OverloadPolicy
from repro.obs import MetricsRegistry
from repro.sim.faults import (
    FaultPlan,
    PriceFeedDropouts,
    ScriptedIncident,
    ServerOutages,
)

#: Sheds half the active tasks once the backlog reaches 4, low enough
#: that each cell of a 2-cell run sheds too.
POLICY = OverloadPolicy(high_watermark=4.0, shed_fraction=0.5)

HORIZON = 40


def faulted_overload_scenario() -> repro.Scenario:
    """A starved budget (so the queue grows and shedding engages)
    under server outages, price-feed dropouts and scripted incidents."""
    return repro.make_paper_scenario(
        11,
        config=repro.ScenarioConfig(num_devices=24, budget_fraction=0.02),
        fault_plan=FaultPlan(
            faults=(ServerOutages(), PriceFeedDropouts(mtbf_slots=3.0)),
            schedule=[
                ScriptedIncident(at=2, duration=3, kind="price_freeze"),
                ScriptedIncident(
                    at=1, duration=2, kind="server_down", targets=(0,)
                ),
            ],
        ),
    )


def queue_atol(backlog: np.ndarray) -> float:
    """Float-rounding tolerance scaled to the queue's magnitude."""
    return 1e-9 * max(1.0, float(np.abs(backlog).max()))


def assert_queue_accounting(theta: np.ndarray, backlog: np.ndarray) -> None:
    """Per slot and summed, the overspend is bounded by queue growth.

    ``backlog`` holds ``Q`` after each slot; every run here starts from
    ``Q(0) = 0``.
    """
    atol = queue_atol(backlog)
    before = np.concatenate(([0.0], backlog[:-1]))
    assert np.all(backlog >= before + theta - atol)
    assert theta.sum() <= backlog[-1] + atol


class TestQueueBudgetAccounting:
    def test_unsharded_overspend_bounded_by_backlog(self) -> None:
        scenario = faulted_overload_scenario()
        registry = MetricsRegistry()
        result = repro.api.run(
            scenario=scenario,
            horizon=HORIZON,
            overload=POLICY,
            metrics_registry=registry,
        )
        assert registry.counter("repro_shed_tasks_total").value() > 0
        np.testing.assert_array_equal(
            result.theta, result.cost - scenario.budget
        )
        assert_queue_accounting(result.theta, result.backlog)

    def test_sharded_overspend_bounded_by_backlog(self) -> None:
        scenario = faulted_overload_scenario()
        registry = MetricsRegistry()
        # A floor (0.9 of each cell's fair share) that binds, so the
        # shares sum to Cbar only through the coordinator's
        # renormalisation.
        result = sharding.run_sharded(
            scenario, horizon=HORIZON, cells=2, epoch=4, overload=POLICY,
            floor_fraction=0.9, registry=registry,
        )
        shed = registry.counter("repro_shed_tasks_total")
        assert shed.value(cell="0") > 0 and shed.value(cell="1") > 0
        merged = result.merged
        assert merged.horizon == HORIZON
        assert_queue_accounting(merged.theta, merged.backlog)
        # The shares sum to Cbar, so the cells' thetas add up to the
        # global overspend.
        np.testing.assert_allclose(
            np.sum(merged.cost - scenario.budget),
            merged.theta.sum(),
            rtol=0,
            atol=queue_atol(merged.backlog),
        )
