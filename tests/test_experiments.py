"""Smoke tests of the experiment runners at reduced parameters.

The full-parameter runs live in ``benchmarks/``; here each runner is
exercised with small sweeps to pin its interface, table rendering, and
(where cheap) its verification logic.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments import (
    RUNNERS,
    run_ablation_bdma_z,
    run_ablation_budget_pacing,
    run_ablation_greedy,
    run_fig2,
    run_fig3,
    run_fig4,
    run_fig5,
    run_fig6,
    run_fig7,
    run_fig8,
    run_fig9,
)


class TestRegistry:
    def test_all_figures_and_ablations_registered(self) -> None:
        assert set(RUNNERS) == {
            "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
            "ablation-z", "ablation-freq", "ablation-greedy",
            "ablation-pacing", "robustness-faults", "robustness-chaos",
        }


class TestCheapRunners:
    def test_fig2(self) -> None:
        result = run_fig2(days=7)
        assert "Fig. 2" in result.table()
        result.verify()

    def test_fig3(self) -> None:
        result = run_fig3(num_samples=3)
        table = result.table()
        assert "server C" in table
        result.verify()


class TestReducedParameterRunners:
    def test_fig4_reduced(self) -> None:
        result = run_fig4(
            device_counts=(10, 16),
            seeds_per_size=1,
            exact_device_counts=(6,),
            bound_iterations=400,
        )
        table = result.table()
        assert "certified LB" in table
        # Per-row sanity rather than full verify (trend checks need the
        # full sweep, and the fractional bound is loose at tiny I where
        # the integrality gap has not yet closed).
        for row in result.paper_rows:
            assert row[1] <= row[3]  # CGBA beats ROPT
            assert row[5] < 2.62     # never worse than Theorem 2's bound
        assert result.reduced_rows[0][4] <= 1.1

    def test_fig5_reduced(self) -> None:
        # Tiny instances make timing ratios flaky (the exact solver may
        # finish within a few CGBA runtimes at I=6), so the full verify()
        # only runs at bench scale; check structure and the robust claim.
        result = run_fig5(device_counts=(10,), exact_device_counts=(6,))
        assert len(result.paper_rows) == 1
        assert len(result.exact_rows) == 1
        _, t_cgba, t_mcba, t_ropt = result.paper_rows[0]
        assert t_ropt < t_cgba
        assert result.exact_rows[0][3] > 0  # nodes explored

    def test_fig6_reduced(self) -> None:
        result = run_fig6(
            lambdas=(0.0, 0.12), seeds=(0,), num_devices=20
        )
        assert len(result.rows) == 2
        assert result.rows[1][2] <= result.rows[0][2]  # fewer iterations

    def test_fig7_reduced(self) -> None:
        result = run_fig7(
            v_values=(50.0, 100.0), num_devices=10, horizon=120, z=1
        )
        assert "convergence statistics" in result.table()
        for v in (50.0, 100.0):
            assert result.results[v].horizon == 120

    def test_fig8_reduced(self) -> None:
        result = run_fig8(
            v_values=(20.0, 200.0), num_devices=10, horizon=96, z=1
        )
        warm_backlogs = [result.warm[v][0] for v in (20.0, 200.0)]
        assert warm_backlogs[1] > warm_backlogs[0]

    def test_fig9_reduced(self) -> None:
        result = run_fig9(
            fractions=(0.3, 0.7),
            num_devices=10,
            horizon=48,
            mcba_iterations=200,
        )
        table = result.table()
        assert "BDMA-DPP latency" in table
        # Structural sanity; ordering claims need the full sweep.
        for fraction in (0.3, 0.7):
            assert result.budgets[fraction] > 0.0
            for name in ("BDMA-DPP", "MCBA-DPP", "ROPT-DPP"):
                assert result.latencies[name][fraction] > 0.0
        assert result.budgets[0.3] < result.budgets[0.7]

    def test_ablation_pacing_reduced(self) -> None:
        result = run_ablation_budget_pacing(
            strengths=(1.0,), num_devices=10, horizon=48
        )
        assert set(result.latencies) == {"constant", "paced x1"}
        assert result.average_budget > 0.0
        assert "Ablation D" in result.table()

    def test_fault_sweep_reduced(self) -> None:
        from repro.experiments import run_fault_sweep

        result = run_fault_sweep(
            unavailabilities=(0.0, 0.2), num_devices=8, horizon=24
        )
        assert len(result.rows) == 2
        assert result.rows[1][1] > 0.0  # downtime actually happened
        result.verify()

    def test_fault_sweep_levels_share_traffic(self) -> None:
        # Outages come from the plan's own stream, so every outage level
        # is compared on the same task, channel and price draws.
        from repro.experiments.robustness import fault_sweep_scenario

        healthy = list(fault_sweep_scenario(0.0).fresh_states(40))
        faulted = list(fault_sweep_scenario(0.2).fresh_states(40))
        assert any(s.available_servers is not None for s in faulted)
        for a, b in zip(healthy, faulted):
            np.testing.assert_array_equal(a.cycles, b.cycles)
            np.testing.assert_array_equal(a.bits, b.bits)
            np.testing.assert_array_equal(
                a.spectral_efficiency, b.spectral_efficiency
            )
            assert a.price == b.price

    def test_chaos_sweep_reduced(self) -> None:
        from repro.experiments import run_chaos_sweep

        result = run_chaos_sweep(num_devices=8, horizon=30)
        assert len(result.rows) == 3
        assert result.horizons == [30, 30, 30]  # never-abort, every level
        assert any(row[1] > 0 for row in result.rows[1:])  # faults injected
        result.verify()

    def test_ablation_z_reduced(self) -> None:
        result = run_ablation_bdma_z(
            z_values=(1, 3), seeds=(0,), num_devices=20
        )
        assert result.rows[1][1] <= result.rows[0][1] * 1.01

    def test_ablation_greedy_reduced(self) -> None:
        # At small I a lucky greedy pass can beat CGBA's equilibrium, so
        # the full verify() only runs at bench scale; check structure.
        result = run_ablation_greedy(seeds=(0, 1), num_devices=20)
        names = [row[0] for row in result.rows]
        assert names == ["CGBA(0)", "greedy joint", "greedy decoupled"]
        assert all(row[1] > 0 for row in result.rows)
        assert result.rows[0][2] == pytest.approx(1.0)
