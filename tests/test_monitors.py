"""Tests for the domain health monitors (repro.obs.monitors)."""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.obs import (
    AnomalyMonitor,
    BudgetDriftMonitor,
    FeasibilityMonitor,
    GuaranteeMonitor,
    HealthReport,
    Monitor,
    MonitorSuite,
    Probe,
    QueueStabilityMonitor,
    ResilienceMonitor,
    default_monitors,
)
from repro.sim.faults import FaultPlan, MarkovOutages, ServerOutages


def gauge(name: str, value: float) -> dict:
    return {"kind": "gauge", "name": name, "value": value}


def slot(t: int, **fields: object) -> dict:
    return {"kind": "event", "name": "slot", "data": {"t": t, **fields}}


class TestSuitePlumbing:
    def test_attached_suite_sees_probe_events(self) -> None:
        probe = Probe()
        monitor = FeasibilityMonitor()
        suite = MonitorSuite([monitor]).attach(probe)
        probe.gauge("feas.access_share_max", 2.0)
        assert monitor.alerts and monitor.alerts[0].severity == "critical"
        assert suite.alerts == monitor.alerts

    def test_alert_events_reach_other_sinks_but_never_feed_back(self) -> None:
        seen: list[dict] = []

        class Collect:
            def emit(self, event: dict) -> None:
                seen.append(event)

            def close(self) -> None:
                pass

        probe = Probe()
        suite = MonitorSuite([FeasibilityMonitor()]).attach(probe)
        probe.add_sink(Collect())
        probe.gauge("feas.compute_share_max", 1.5)
        alert_events = [
            e for e in seen if e["kind"] == "event" and e["name"] == "alert"
        ]
        assert len(alert_events) == 1
        assert alert_events[0]["data"]["monitor"] == "feasibility"
        # One alert total: the suite ignored its own re-emission.
        assert len(suite.alerts) == 1

    def test_alerts_anchor_to_the_current_slot(self) -> None:
        probe = Probe()
        suite = MonitorSuite([FeasibilityMonitor()]).attach(probe)
        probe.event("slot", {"t": 4})
        probe.gauge("feas.freq_excess", 0.5)
        assert suite.alerts[0].t == 4

    def test_finish_is_idempotent(self) -> None:
        suite = MonitorSuite([BudgetDriftMonitor(1.0)])
        suite.emit(slot(0, cost=5.0))
        first = suite.finish()
        assert first is suite.finish()
        assert len(first.alerts) == 1  # the critical fired exactly once

    def test_suite_labels_stamp_alert_payloads(self) -> None:
        # Sharded runs attach labels={"cell": c} so per-cell alerts stay
        # attributable after cross-cell folding.
        probe = Probe()
        suite = MonitorSuite(
            [FeasibilityMonitor()], labels={"cell": 3}
        ).attach(probe)
        probe.gauge("feas.access_share_max", 2.0)
        assert suite.alerts[0].data["cell"] == 3
        # Alert-specific fields survive alongside the labels.
        assert "share" in suite.alerts[0].data or len(suite.alerts[0].data) > 1

    def test_alert_payload_fields_win_over_labels(self) -> None:
        suite = MonitorSuite(
            [BudgetDriftMonitor(1.0)], labels={"budget": -1.0, "cell": 0}
        )
        suite.emit(slot(0, cost=5.0))
        report = suite.finish()
        # The monitor's own `budget` datum overrides the label of the
        # same name; the cell label still lands.
        assert report.alerts[0].data["budget"] == 1.0
        assert report.alerts[0].data["cell"] == 0

    def test_unlabelled_suite_payloads_unchanged(self) -> None:
        suite = MonitorSuite([BudgetDriftMonitor(1.0)])
        suite.emit(slot(0, cost=5.0))
        assert "cell" not in suite.finish().alerts[0].data


class TestQueueStabilityMonitor:
    def _feed(self, monitor: Monitor, values: list[float]) -> None:
        for v in values:
            monitor.observe(gauge("queue.backlog", v))

    def test_linear_growth_fires_once(self) -> None:
        monitor = QueueStabilityMonitor(window=4, patience=2)
        self._feed(monitor, [float(i) for i in range(32)])
        assert len(monitor.alerts) == 1
        assert monitor.alerts[0].severity == "critical"
        assert "budget" in monitor.alerts[0].message

    def test_decelerating_ramp_is_stable(self) -> None:
        # Geometric approach to an equilibrium: growth halves each window.
        values, level, step = [], 0.0, 8.0
        for _ in range(10):
            for _ in range(4):
                level += step / 4.0
                values.append(level)
            step *= 0.5
        monitor = QueueStabilityMonitor(window=4, patience=2)
        self._feed(monitor, values)
        assert monitor.alerts == []

    def test_flat_queue_is_stable(self) -> None:
        monitor = QueueStabilityMonitor(window=4, patience=2)
        self._feed(monitor, [3.0] * 40)
        assert monitor.alerts == []

    def test_status_reflects_severity(self) -> None:
        monitor = QueueStabilityMonitor(window=4, patience=2)
        self._feed(monitor, [float(i) for i in range(32)])
        assert monitor.finish().status == "critical"


class TestBudgetDriftMonitor:
    def test_sustained_overspend_warns_then_finish_is_critical(self) -> None:
        monitor = BudgetDriftMonitor(1.0, window=4, patience=3)
        for t in range(12):
            monitor.observe(slot(t, cost=2.0))
        severities = [a.severity for a in monitor.alerts]
        assert severities == ["warning"]
        status = monitor.finish()
        assert status.status == "critical"
        assert any(a.severity == "critical" for a in monitor.alerts)

    def test_transient_overspend_is_tolerated(self) -> None:
        # DPP legitimately overspends while the queue fills, then
        # settles below budget; mean ends up under Cbar.
        monitor = BudgetDriftMonitor(1.0, window=4, patience=6)
        costs = [1.5] * 4 + [0.6] * 20
        for t, c in enumerate(costs):
            monitor.observe(slot(t, cost=c))
        assert monitor.finish().status == "ok"

    def test_no_slots_is_ok(self) -> None:
        status = BudgetDriftMonitor(1.0).finish()
        assert status.status == "ok"
        assert "no slots" in status.detail


class TestFeasibilityMonitor:
    @pytest.mark.parametrize(
        "name",
        [
            "feas.access_share_max",
            "feas.fronthaul_share_max",
            "feas.compute_share_max",
        ],
    )
    def test_share_overflow_is_critical(self, name: str) -> None:
        monitor = FeasibilityMonitor()
        monitor.observe(gauge(name, 0.99))
        assert monitor.alerts == []
        monitor.observe(gauge(name, 1.01))
        assert monitor.alerts[0].severity == "critical"

    def test_frequency_excursion_is_critical(self) -> None:
        monitor = FeasibilityMonitor()
        monitor.observe(gauge("feas.freq_excess", 0.0))
        assert monitor.alerts == []
        monitor.observe(gauge("feas.freq_excess", 0.3))
        assert len(monitor.alerts) == 1

    def test_tolerance_absorbs_float_noise(self) -> None:
        monitor = FeasibilityMonitor()
        monitor.observe(gauge("feas.access_share_max", 1.0 + 1e-9))
        assert monitor.alerts == []


class TestGuaranteeMonitor:
    def test_slot_check_fires_on_bound_violation(self) -> None:
        monitor = GuaranteeMonitor()
        # ratio is 2.62 at slack 0: 10 > 2.62 * 1 violates Theorem 2.
        monitor.observe(slot(0, latency=10.0, latency_lower_bound=1.0))
        monitor.observe(slot(1, latency=2.0, latency_lower_bound=1.0))
        assert len(monitor.alerts) == 1
        assert "Theorem 2" in monitor.alerts[0].message

    def test_finish_checks_bdma_bound(self) -> None:
        network = repro.make_paper_scenario(
            seed=3, config=repro.ScenarioConfig(num_devices=8)
        ).network
        good = GuaranteeMonitor(network, reference_latency=1.0)
        good.observe(slot(0, latency=1.5))
        assert good.finish().status == "ok"

        bad = GuaranteeMonitor(network, reference_latency=1e-3)
        bad.observe(slot(0, latency=1.5))
        status = bad.finish()
        assert status.status == "critical"
        assert "Theorem 3" in bad.alerts[0].message


class TestAnomalyMonitor:
    def test_spike_after_warmup_warns(self) -> None:
        monitor = AnomalyMonitor(("slot.latency",), warmup=8, z_threshold=6.0)
        for t in range(20):
            monitor.observe(slot(t, latency=1.0 + 0.01 * (t % 2)))
        assert monitor.alerts == []
        monitor.observe(slot(20, latency=50.0))
        assert len(monitor.alerts) == 1
        assert monitor.alerts[0].severity == "warning"

    def test_alert_cap_limits_noise(self) -> None:
        monitor = AnomalyMonitor(
            ("slot.latency",), warmup=4, max_alerts_per_series=2
        )
        for t in range(10):
            monitor.observe(slot(t, latency=1.0))
        for t in range(10, 20):
            monitor.observe(slot(t, latency=1000.0 * t))
        assert len(monitor.alerts) <= 2

    def test_engine_stats_series(self) -> None:
        monitor = AnomalyMonitor(("engine.moves",), warmup=4)
        for t in range(12):
            monitor.observe(slot(t, engine_stats={"moves": 5}))
        monitor.observe(slot(12, engine_stats={"moves": 5000}))
        assert len(monitor.alerts) == 1


def counter(name: str, value: float = 1.0) -> dict:
    return {"kind": "counter", "name": name, "value": value}


class TestResilienceMonitor:
    def test_quiet_run_is_ok(self) -> None:
        monitor = ResilienceMonitor()
        for t in range(8):
            monitor.observe(slot(t))
        status = monitor.finish()
        assert status.status == "ok"
        assert "no degraded-mode activity" in status.detail

    def test_occasional_fallbacks_stay_ok(self) -> None:
        monitor = ResilienceMonitor(fallback_rate_threshold=0.25)
        for t in range(10):
            fields = {"fallback": "greedy"} if t == 3 else {}
            monitor.observe(slot(t, **fields))
        monitor.observe(counter("resilience.fallbacks"))
        status = monitor.finish()
        assert status.status == "ok"
        assert "fallbacks=1" in status.detail
        assert "fallback slots 1/10" in status.detail

    def test_sustained_fallback_rate_warns(self) -> None:
        monitor = ResilienceMonitor(fallback_rate_threshold=0.25)
        for t in range(10):
            fields = {"fallback": "greedy"} if t % 2 else {}
            monitor.observe(slot(t, **fields))
        status = monitor.finish()
        assert status.status == "warning"
        assert any("effectively degraded" in a.message for a in monitor.alerts)

    def test_random_tier_always_warns(self) -> None:
        monitor = ResilienceMonitor()
        monitor.observe(slot(0, fallback="random"))
        monitor.observe(counter("resilience.fallback.random"))
        monitor.finish()
        assert any("random" in a.message for a in monitor.alerts)

    def test_failed_replication_seed_warns_immediately(self) -> None:
        monitor = ResilienceMonitor()
        monitor.observe(
            {
                "kind": "event",
                "name": "replication.seed_failed",
                "data": {"seed": 9, "attempts": 3, "error": "boom"},
            }
        )
        assert len(monitor.alerts) == 1
        assert "seed 9" in monitor.alerts[0].message
        assert monitor.failed_seeds == [9]

    def test_non_resilience_counters_are_ignored(self) -> None:
        monitor = ResilienceMonitor()
        monitor.observe(counter("engine.moves", 50))
        monitor.observe(counter("resilience.quarantined", 2))
        assert monitor.counts == {"resilience.quarantined": 2.0}

    def test_end_to_end_chaos_run_reaches_the_monitor(self) -> None:
        from repro.core.resilience import ResiliencePolicy, SolverChaos

        scenario = repro.make_paper_scenario(seed=29, config=self.CONFIG)
        monitor = ResilienceMonitor(fallback_rate_threshold=0.9)
        probe = Probe()
        MonitorSuite([monitor]).attach(probe)
        controller = repro.DPPController(
            scenario.network,
            scenario.controller_rng(),
            v=100.0,
            budget=scenario.budget,
            z=1,
            resilience=ResiliencePolicy(chaos=SolverChaos(fail_slots=(1, 3))),
            tracer=probe,
        )
        repro.run_simulation(
            controller, scenario.fresh_states(6, tracer=probe),
            budget=scenario.budget, tracer=probe,
        )
        assert monitor.fallback_slots == 2
        assert monitor.counts["resilience.fallbacks"] == 2.0
        assert monitor.finish().status == "ok"

    CONFIG = repro.ScenarioConfig(num_devices=8)


class TestHealthReport:
    def _report(self, *, over_budget: bool) -> HealthReport:
        suite = MonitorSuite([BudgetDriftMonitor(1.0), FeasibilityMonitor()])
        cost = 5.0 if over_budget else 0.5
        for t in range(4):
            suite.emit(slot(t, cost=cost))
        return suite.finish()

    def test_clean_report(self) -> None:
        report = self._report(over_budget=False)
        assert report.ok and not report.failing
        assert report.render().startswith("health: OK")

    def test_failing_report(self) -> None:
        report = self._report(over_budget=True)
        assert not report.ok and report.failing
        rendered = report.render()
        assert rendered.startswith("health: FAILING")
        assert "! critical" in rendered

    def test_to_dict_round_trips_to_json(self) -> None:
        import json

        payload = self._report(over_budget=True).to_dict()
        assert json.loads(json.dumps(payload)) == payload
        assert payload["failing"] is True


class TestEndToEnd:
    CONFIG = repro.ScenarioConfig(num_devices=8)

    def test_default_scenario_is_clean(self) -> None:
        result = repro.api.run(
            controller="dpp", horizon=20, seed=7, z=1,
            scenario_config=self.CONFIG, monitors=True,
        )
        assert result.health is not None
        assert result.health.ok, result.health.render()

    def test_over_budget_run_raises_budget_alert_and_fails(self) -> None:
        scenario = repro.make_paper_scenario(seed=7, config=self.CONFIG)
        # 5% of the default budget sits below the minimum achievable
        # cost, so the time-average constraint is infeasible: the queue
        # diverges and the budget monitor must flag the violation.
        tiny = scenario.budget * 0.05
        result = repro.api.run(
            scenario=scenario, controller="dpp", horizon=24, z=1,
            budget=tiny,
            monitors=[
                BudgetDriftMonitor(tiny, window=4, patience=3),
                QueueStabilityMonitor(window=4, patience=2),
            ],
        )
        health = result.health
        assert health is not None and health.failing
        assert any(a.monitor == "budget" for a in health.alerts)
        assert any(a.monitor == "queue_stability" for a in health.alerts)

    def test_fault_injected_run_stays_feasible(self) -> None:
        scenario = repro.make_paper_scenario(
            seed=11,
            config=self.CONFIG,
            fault_plan=FaultPlan([ServerOutages(
                MarkovOutages(mtbf_slots=6.0, mttr_slots=3.0,
                              min_up_fraction=0.25)
            )]),
        )
        result = repro.api.run(
            scenario=scenario, controller="dpp", horizon=16, z=1,
            monitors=[FeasibilityMonitor(), BudgetDriftMonitor(scenario.budget)],
        )
        assert result.health is not None
        assert result.health.ok, result.health.render()

    def test_sharded_budget_monitor_judges_the_applied_shares(self) -> None:
        # The coordinator re-splits the budget every epoch; each cell's
        # budget monitor must judge the cell against the slot-weighted
        # mean of the shares it ran under (what ShardedResult.cells
        # uses), not against its initial device-proportional share.
        horizon, epoch = 48, 4
        result = repro.sharding.run_sharded(
            repro.make_paper_scenario(
                seed=7, config=repro.ScenarioConfig(num_devices=16)
            ),
            horizon=horizon, cells=2, epoch=epoch, monitors=True,
        )
        slots = np.minimum(
            epoch, horizon - epoch * np.arange(len(result.budgets))
        )
        applied = slots @ result.budgets / horizon
        statuses = {s.name: s for s in result.health.statuses}
        for c, cell in enumerate(result.cells):
            status = statuses[f"cell{c}/budget"]
            assert status.detail == (
                f"mean cost {cell.mean_cost:.4g} vs budget {applied[c]:.4g}"
            )
            violated = cell.mean_cost > applied[c] * 1.01
            assert (status.status == "critical") == violated
        # The first epoch's split (by device count) is far from what
        # cell 0 ran under once the coordinator saw its spend.
        assert abs(applied[0] - result.budgets[0, 0]) > 0.5 * applied[0]

    def test_monitors_true_uses_default_set(self) -> None:
        result = repro.api.run(
            controller="dpp", horizon=4, seed=7, z=1,
            scenario_config=self.CONFIG, monitors=True,
        )
        names = {s.name for s in result.health.statuses}
        assert {"queue_stability", "feasibility", "anomaly", "budget",
                "guarantee"} <= names

    def test_default_monitors_composition(self) -> None:
        bare = default_monitors()
        assert {m.name for m in bare} == {
            "queue_stability", "feasibility", "anomaly", "resilience",
            "overload",
        }
        network = repro.make_paper_scenario(
            seed=3, config=self.CONFIG
        ).network
        full = default_monitors(budget=1.0, network=network)
        assert {m.name for m in full} == {
            "queue_stability", "feasibility", "anomaly", "resilience",
            "overload", "budget", "guarantee"
        }
