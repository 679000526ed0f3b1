"""One-call construction of the paper's simulation scenario (Sec. VI-A).

:func:`make_paper_scenario` wires together every substrate with the
published settings: six base stations, two rooms of eight servers,
uniform task draws (50-200 Mcycles, 3-10 Mbit), uniform channel draws
(15-50 bps/Hz), a synthetic NYISO-like diurnal price, and a budget
placed a chosen fraction of the way between the minimum and maximum
achievable costs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.energy.cost import suggest_budget
from repro.energy.pricing import PeriodicPriceModel, PriceModel, synthetic_nyiso_trend
from repro.exceptions import ConfigurationError
from repro.network.builder import NetworkBuilder
from repro.network.validation import validate_network
from repro.radio.channel import ChannelModel, UniformChannelModel
from repro.radio.fronthaul import FronthaulModel
from repro.radio.mobility import MobilityModel
from repro.sim.faults import FaultPlan
from repro.sim.scenario import Scenario, StateGenerator
from repro.sim.seeding import SeedBank
from repro.workload.generators import (
    PeriodicTaskGenerator,
    TaskGenerator,
    UniformTaskGenerator,
)
from repro.workload.traces import diurnal_profile

#: Period (slots per day) shared by the default price and workload trends.
DEFAULT_PERIOD = 24

#: Wall-clock duration of one slot (hours); slots are hourly like the
#: NYISO prices motivating the model.
SLOT_HOURS = 1.0

#: Converts $/MWh prices into dollars per watt per slot, so energy costs
#: come out in dollars: $/MWh * W * h / (1e6 Wh/MWh).
PRICE_SCALE = SLOT_HOURS / 1e6


@dataclass
class ScenarioConfig:
    """Knobs for :func:`make_paper_scenario` beyond the network builder's.

    Attributes:
        num_devices: Number of mobile devices ``I``.
        workload: ``"uniform"`` (paper's simulation) or ``"diurnal"``
            (paper's non-iid model: periodic trend + noise).
        price_noise_std: Iid noise std around the price trend ($/MWh).
        budget_fraction: Budget position between the min and max
            achievable slot costs (see
            :func:`repro.energy.cost.suggest_budget`).
        workload_noise_cv: Noise level of the diurnal workload.
    """

    num_devices: int = 100
    workload: str = "uniform"
    price_noise_std: float = 3.0
    budget_fraction: float = 0.5
    workload_noise_cv: float = 0.1


def make_paper_scenario(
    seed: int,
    *,
    config: ScenarioConfig | None = None,
    mobility: MobilityModel | None = None,
    channel: ChannelModel | None = None,
    prices: PriceModel | None = None,
    tasks: TaskGenerator | None = None,
    fronthaul: FronthaulModel | None = None,
    fault_plan: FaultPlan | None = None,
    **network_overrides: object,
) -> Scenario:
    """Build the default reproducible scenario.

    Args:
        seed: Root seed; all randomness derives from it.
        config: Scenario-level knobs; defaults mirror the paper.
        mobility: Override the (static) mobility model.
        channel: Override the uniform channel model.
        prices: Override the synthetic NYISO price model.
        tasks: Override the task generator entirely (its device count
            must match).
        fronthaul: Optional time-varying fronthaul-efficiency model
            (static per the paper when omitted).
        fault_plan: Optional composable :class:`~repro.sim.faults.FaultPlan`
            applied on top of every drawn state from its own seeded
            stream (server and base-station outages, fronthaul
            degradation, price-feed dropouts, scripted incidents, ...);
            every server is always up when omitted (the paper's
            setting).
        **network_overrides: Passed to
            :class:`repro.network.builder.NetworkBuilder` (e.g.
            ``num_base_stations=8``).

    Returns:
        A validated :class:`~repro.sim.scenario.Scenario`.
    """
    cfg = config if config is not None else ScenarioConfig()
    seeds = SeedBank(seed)

    builder = NetworkBuilder(num_devices=cfg.num_devices, **network_overrides)  # type: ignore[arg-type]
    network, coverage = builder.build(seeds.rng("topology"))
    validate_network(network, coverage)

    if tasks is None:
        tasks = _make_tasks(cfg, seeds)
    elif tasks.num_devices != network.num_devices:
        raise ConfigurationError("task generator device count mismatch")
    if channel is None:
        channel = UniformChannelModel()
    if prices is None:
        prices = PeriodicPriceModel(
            synthetic_nyiso_trend(period=DEFAULT_PERIOD),
            noise_std=cfg.price_noise_std,
        )

    generator = StateGenerator(
        network,
        tasks,
        channel,
        prices,
        mobility=mobility,
        price_scale=PRICE_SCALE,
        fronthaul=fronthaul,
    )
    # suggest_budget works in the price model's native units ($/MWh); the
    # same conversion applied to per-slot prices makes the budget dollars.
    budget = PRICE_SCALE * suggest_budget(
        network.energy_models(),
        network.freq_min,
        network.freq_max,
        prices,
        fraction=cfg.budget_fraction,
    )
    return Scenario(
        network=network,
        generator=generator,
        seeds=seeds,
        budget=budget,
        fault_plan=fault_plan,
    )


def _make_tasks(cfg: ScenarioConfig, seeds: SeedBank) -> TaskGenerator:
    """Instantiate the configured workload family."""
    if cfg.workload == "uniform":
        return UniformTaskGenerator(cfg.num_devices)
    if cfg.workload == "diurnal":
        rng = seeds.rng("workload-bases")
        base_cycles = rng.uniform(50e6, 200e6, size=cfg.num_devices)
        base_bits = rng.uniform(3e6, 10e6, size=cfg.num_devices)
        return PeriodicTaskGenerator(
            base_cycles,
            base_bits,
            profile=diurnal_profile(period=DEFAULT_PERIOD),
            noise_cv=cfg.workload_noise_cv,
        )
    raise ConfigurationError(
        f"unknown workload {cfg.workload!r}; expected 'uniform' or 'diurnal'"
    )
