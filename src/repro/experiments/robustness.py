"""Robustness experiments: DPP under injected substrate faults.

Not figures from the paper -- the paper assumes an always-healthy
substrate -- but the natural stress tests for an online controller:

* :func:`run_fault_sweep` sweeps the stationary *server* unavailability
  (a :class:`~repro.sim.faults.FaultPlan` of Markov server outages, so
  every level sees the same traffic) and measures how gracefully
  latency degrades while the energy budget is still respected.  The
  controller has no explicit failover logic; the strategy-space
  filtering plus the carried-assignment repair do all the work.
* :func:`run_chaos_sweep` extends the bench to *link and price-feed*
  faults: a composed :class:`~repro.sim.faults.FaultPlan` degrades
  fronthaul links, freezes the price feed (the controller acts on stale
  prices), and takes base stations down, at increasing severity, with
  the degraded-mode :class:`~repro.core.resilience.ResiliencePolicy`
  active -- every slot must still produce a feasible decision.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

import repro
from repro.analysis.tables import format_table
from repro.core.resilience import ResiliencePolicy
from repro.experiments.common import ExperimentResult
from repro.obs import (
    BudgetDriftMonitor,
    FeasibilityMonitor,
    MonitorSuite,
    Probe,
    ResilienceMonitor,
)
from repro.sim.faults import (
    BaseStationOutages,
    FaultPlan,
    FronthaulDegradation,
    MarkovOutages,
    PriceFeedDropouts,
    ServerOutages,
)


@dataclass
class FaultSweepResult(ExperimentResult):
    """Latency/cost per outage intensity.

    Attributes:
        rows: ``[unavailability, measured downtime, latency, cost,
            alerts]`` -- the last column counts health-monitor alerts
            (budget drift + feasibility) raised during the run.
        budget: The (intensity-independent) budget.
    """

    rows: list[list[object]] = field(default_factory=list)
    budget: float = 0.0

    def table(self) -> str:
        return format_table(
            [
                "target unavail.",
                "measured unavail.",
                "avg latency (s)",
                "avg cost ($/slot)",
                "alerts",
            ],
            self.rows,
            title=(
                "Robustness -- BDMA-DPP under server outages "
                f"(budget {self.budget:.4f} $/slot)"
            ),
        )

    def verify(self) -> None:
        latencies = [row[2] for row in self.rows]
        costs = [row[3] for row in self.rows]
        baseline = latencies[0]
        # Latency degrades with outage intensity but stays finite and
        # within a small multiple of the healthy baseline at 20% downtime.
        assert all(np.isfinite(v) for v in latencies)
        assert latencies[-1] >= baseline * 0.99
        assert latencies[-1] <= 3.0 * baseline
        # Offline servers draw no power, so cost never rises with outages.
        assert all(c <= self.budget * 1.2 for c in costs)


def fault_sweep_scenario(
    u: float,
    *,
    mttr_slots: float = 4.0,
    num_devices: int = 20,
    scenario_seed: int = 320,
) -> "repro.Scenario":
    """The fault sweep's scenario at stationary unavailability *u*.

    For a repair time ``mttr`` the matching failure time is
    ``mtbf = mttr (1 - u) / u``; ``u = 0`` carries no plan.  The plan
    draws from its own stream, so every *u* sees the same traffic.
    """
    plan = None
    if u > 0.0:
        outages = MarkovOutages(
            mtbf_slots=mttr_slots * (1.0 - u) / u,
            mttr_slots=mttr_slots,
            min_up_fraction=0.25,
        )
        plan = FaultPlan([ServerOutages(outages)])
    return repro.make_paper_scenario(
        seed=scenario_seed,
        config=repro.ScenarioConfig(num_devices=num_devices),
        fault_plan=plan,
    )


def run_fault_sweep(
    *,
    unavailabilities: tuple[float, ...] = (0.0, 0.05, 0.1, 0.2),
    mttr_slots: float = 4.0,
    num_devices: int = 20,
    horizon: int = 120,
    v: float = 100.0,
    scenario_seed: int = 320,
) -> FaultSweepResult:
    """Sweep the stationary server unavailability
    (:func:`fault_sweep_scenario` builds each level)."""
    result = FaultSweepResult()
    for u in unavailabilities:
        scenario = fault_sweep_scenario(
            u,
            mttr_slots=mttr_slots,
            num_devices=num_devices,
            scenario_seed=scenario_seed,
        )
        result.budget = scenario.budget
        # Health monitors watch every sweep point.  Feasibility must
        # hold everywhere; budget alerts surface the DPP transient at
        # this horizon and shrink with outages (offline servers draw no
        # power), so the column doubles as a fault-tolerance signal.
        probe = Probe()
        suite = MonitorSuite(
            [BudgetDriftMonitor(scenario.budget), FeasibilityMonitor()]
        ).attach(probe)
        controller = repro.make_controller(
            "dpp",
            scenario,
            v=v,
            z=2,
            rng=scenario.controller_rng(f"faults-{u}"),
            tracer=probe,
        )
        states = list(scenario.fresh_states(horizon))
        sim = repro.run_simulation(
            controller, iter(states), budget=scenario.budget, tracer=probe
        )
        report = suite.finish()
        # A state without a mask has every server up.
        up = np.ones(scenario.network.num_servers, dtype=bool)
        masks = np.array(
            [up if s.available_servers is None else s.available_servers
             for s in states]
        )
        measured = float(1.0 - masks.mean())
        result.rows.append(
            [
                u,
                measured,
                sim.time_average_latency(),
                sim.time_average_cost(),
                len(report.alerts),
            ]
        )
    return result


@dataclass
class ChaosSweepResult(ExperimentResult):
    """Latency/cost per chaos severity under link + price-feed faults.

    Attributes:
        rows: ``[severity, fault events, stale-price slots, latency,
            cost, alerts]``.
        budget: The (severity-independent) budget.
        horizons: Decided slots per severity (must equal the requested
            horizon: the degraded controller never skips a slot).
        horizon: The requested horizon.
    """

    rows: list[list[object]] = field(default_factory=list)
    budget: float = 0.0
    horizons: list[int] = field(default_factory=list)
    horizon: int = 0

    def table(self) -> str:
        return format_table(
            [
                "severity",
                "fault events",
                "stale-price slots",
                "avg latency (s)",
                "avg cost ($/slot)",
                "alerts",
            ],
            self.rows,
            title=(
                "Robustness -- BDMA-DPP under link + price-feed chaos "
                f"(budget {self.budget:.4f} $/slot)"
            ),
        )

    def verify(self) -> None:
        latencies = [row[3] for row in self.rows]
        baseline = latencies[0]
        # Every severity level decided every slot -- the resilience
        # layer's core promise -- and faults were actually injected.
        assert all(h == self.horizon for h in self.horizons)
        assert all(np.isfinite(v) for v in latencies)
        assert any(row[1] > 0 for row in self.rows[1:])
        # Degradation stays graceful: a bounded multiple of healthy.
        assert latencies[-1] <= 5.0 * baseline


#: Chaos severities: ``(fronthaul mtbf, fronthaul factor, price mtbf,
#: bs mtbf)`` -- smaller mtbf = more faults.
_CHAOS_LEVELS: dict[str, tuple[float, float, float, float] | None] = {
    "off": None,
    "mild": (60.0, 0.5, 50.0, 200.0),
    "severe": (20.0, 0.25, 15.0, 60.0),
}


def run_chaos_sweep(
    *,
    num_devices: int = 20,
    horizon: int = 120,
    v: float = 100.0,
    scenario_seed: int = 321,
) -> ChaosSweepResult:
    """Sweep composed link + price-feed fault severity under the
    degraded-mode policy."""
    result = ChaosSweepResult(horizon=horizon)
    for label, level in _CHAOS_LEVELS.items():
        plan = None
        if level is not None:
            fh_mtbf, fh_factor, price_mtbf, bs_mtbf = level
            plan = FaultPlan(
                faults=(
                    FronthaulDegradation(
                        mtbf_slots=fh_mtbf, mttr_slots=6.0, factor=fh_factor
                    ),
                    PriceFeedDropouts(mtbf_slots=price_mtbf, mttr_slots=4.0),
                    BaseStationOutages(mtbf_slots=bs_mtbf, mttr_slots=3.0),
                )
            )
        scenario = repro.make_paper_scenario(
            seed=scenario_seed,
            config=repro.ScenarioConfig(num_devices=num_devices),
            fault_plan=plan,
        )
        result.budget = scenario.budget
        probe = Probe()
        suite = MonitorSuite(
            [
                BudgetDriftMonitor(scenario.budget),
                FeasibilityMonitor(),
                ResilienceMonitor(),
            ]
        ).attach(probe)
        fault_events = {"n": 0, "stale": 0}

        class _FaultCounter:
            def emit(self, event: dict) -> None:
                if event["kind"] != "event" or event["name"] != "fault":
                    return
                fault_events["n"] += 1
                data = event["data"]
                if data.get("fault") == "price_feed" and data.get("phase") == "clear":
                    fault_events["stale"] += int(data.get("stale_slots", 0))

            def close(self) -> None:
                pass

        probe.add_sink(_FaultCounter())
        controller = repro.DPPController(
            scenario.network,
            scenario.controller_rng(f"chaos-{label}"),
            v=v,
            budget=scenario.budget,
            z=2,
            resilience=ResiliencePolicy(),
            tracer=probe,
        )
        sim = repro.run_simulation(
            controller,
            scenario.fresh_compiled_states(horizon, tracer=probe),
            budget=scenario.budget,
            tracer=probe,
        )
        report = suite.finish()
        result.horizons.append(sim.horizon)
        result.rows.append(
            [
                label,
                fault_events["n"],
                fault_events["stale"],
                sim.time_average_latency(),
                sim.time_average_cost(),
                len(report.alerts),
            ]
        )
    return result
