"""Tests for scenario construction and the public API surface."""

from __future__ import annotations

import importlib

import numpy as np
import pytest

import repro
from repro.config import PRICE_SCALE, ScenarioConfig, make_paper_scenario
from repro.exceptions import ConfigurationError
from repro.workload.generators import UniformTaskGenerator

#: Every package whose ``__init__`` declares its exports in one table,
#: plus the ``repro.sharding`` facade.
EXPORTING_PACKAGES = (
    "repro",
    "repro.analysis",
    "repro.baselines",
    "repro.core",
    "repro.energy",
    "repro.kernels",
    "repro.network",
    "repro.obs",
    "repro.radio",
    "repro.sharding",
    "repro.sim",
    "repro.solvers",
    "repro.workload",
)


class TestMakePaperScenario:
    def test_defaults_match_paper(self) -> None:
        scenario = make_paper_scenario(seed=1, config=ScenarioConfig(num_devices=30))
        net = scenario.network
        assert net.num_base_stations == 6
        assert net.num_clusters == 2
        assert net.num_servers == 16
        assert net.num_devices == 30
        assert scenario.budget > 0.0

    def test_budget_between_feasible_extremes(self) -> None:
        scenario = make_paper_scenario(seed=2, config=ScenarioConfig(num_devices=10))
        models = scenario.network.energy_models()
        trend_mean = np.mean(
            [
                scenario.generator.prices.trend(t)
                for t in range(scenario.generator.prices.period)
            ]
        )
        from repro.energy.cost import max_slot_cost, min_slot_cost

        lo = PRICE_SCALE * min_slot_cost(models, scenario.network.freq_min, trend_mean)
        hi = PRICE_SCALE * max_slot_cost(models, scenario.network.freq_max, trend_mean)
        assert lo <= scenario.budget <= hi

    def test_budget_fraction_monotone(self) -> None:
        budgets = [
            make_paper_scenario(
                seed=3,
                config=ScenarioConfig(num_devices=5, budget_fraction=f),
            ).budget
            for f in (0.1, 0.5, 0.9)
        ]
        assert budgets[0] < budgets[1] < budgets[2]

    def test_diurnal_workload_option(self) -> None:
        scenario = make_paper_scenario(
            seed=4, config=ScenarioConfig(num_devices=8, workload="diurnal")
        )
        states = list(scenario.fresh_states(48))
        peak = np.mean([states[20].cycles.mean(), states[44].cycles.mean()])
        trough = np.mean([states[4].cycles.mean(), states[28].cycles.mean()])
        assert peak > 1.3 * trough

    def test_unknown_workload_rejected(self) -> None:
        with pytest.raises(ConfigurationError):
            make_paper_scenario(
                seed=5, config=ScenarioConfig(num_devices=5, workload="bursty")
            )

    def test_custom_task_generator_must_match_devices(self) -> None:
        with pytest.raises(ConfigurationError):
            make_paper_scenario(
                seed=6,
                config=ScenarioConfig(num_devices=5),
                tasks=UniformTaskGenerator(7),
            )

    def test_network_overrides_forwarded(self) -> None:
        scenario = make_paper_scenario(
            seed=7,
            config=ScenarioConfig(num_devices=5),
            num_base_stations=4,
            servers_per_cluster=3,
        )
        assert scenario.network.num_base_stations == 4
        assert scenario.network.num_servers == 6

    def test_same_seed_same_scenario(self) -> None:
        a = make_paper_scenario(seed=8, config=ScenarioConfig(num_devices=6))
        b = make_paper_scenario(seed=8, config=ScenarioConfig(num_devices=6))
        np.testing.assert_allclose(a.network.suitability, b.network.suitability)
        assert a.budget == pytest.approx(b.budget)

    def test_controller_rng_streams_distinct(self) -> None:
        scenario = make_paper_scenario(seed=9, config=ScenarioConfig(num_devices=5))
        a = scenario.controller_rng("bdma").uniform(size=4)
        b = scenario.controller_rng("ropt").uniform(size=4)
        assert not np.allclose(a, b)


class TestPublicApi:
    def test_version(self) -> None:
        assert repro.__version__ == "1.0.0"

    @pytest.mark.parametrize("package", EXPORTING_PACKAGES)
    def test_all_exports_resolve(self, package: str) -> None:
        """Each public name is listed by ``dir``, bound by a star
        import, and resolves on attribute access."""
        module = importlib.import_module(package)
        listed = set(dir(module))
        starred: dict = {}
        exec(f"from {package} import *", starred)
        for name in module.__all__:
            assert name in listed, name
            assert name in starred, name
            assert getattr(module, name) is starred[name], name

    def test_quickstart_snippet_runs(self) -> None:
        scenario = repro.make_paper_scenario(
            seed=7, config=repro.ScenarioConfig(num_devices=8)
        )
        controller = repro.DPPController(
            scenario.network,
            scenario.controller_rng(),
            v=100.0,
            budget=scenario.budget,
            z=2,
        )
        result = repro.run_simulation(
            controller, scenario.fresh_states(4), budget=scenario.budget
        )
        summary = result.summary()
        assert summary.horizon == 4
        assert summary.mean_latency > 0.0
