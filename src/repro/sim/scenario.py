"""State generation: composing substrates into the per-slot ``beta_t``.

A :class:`StateGenerator` owns a workload generator, a channel model, a
price model, and a mobility model, and emits :class:`SlotState` objects.
A :class:`Scenario` bundles the static topology with a state generator
and a seed bank -- the unit the examples and benchmarks operate on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.core.state import SlotState
from repro.energy.pricing import (
    ConstantPriceModel,
    PeriodicPriceModel,
    PriceModel,
    TracePriceModel,
)
from repro.exceptions import ConfigurationError, ValidationError
from repro.network.coverage import coverage_matrix
from repro.network.topology import MECNetwork
from repro.radio.channel import ChannelModel, UniformChannelModel
from repro.radio.fronthaul import FronthaulModel, StaticFronthaul
from repro.radio.mobility import MobilityModel, StaticMobility
from repro.sim.faults import FaultPlan, NoOutages, OutageModel
from repro.sim.seeding import SeedBank
from repro.types import FloatArray, Rng
from repro.workload.generators import TaskGenerator, UniformTaskGenerator


class StateGenerator:
    """Produces the system state ``beta_t`` slot by slot.

    Args:
        network: Static topology (positions, radii).
        tasks: Per-slot task draws (``f_t, d_t``).
        channel: Spectral-efficiency model (``h_t``).
        prices: Electricity price model (``p_t``).
        mobility: Device movement; static by default (the paper's
            setting keeps coverage fixed while channels fluctuate).
        price_scale: Multiplier converting the price model's units into
            cost-per-watt-per-slot.  With $/MWh prices and hourly slots,
            ``1e-6`` yields energy costs in dollars per slot.
        fronthaul: Optional time-varying fronthaul efficiency model; the
            static topology values are used when omitted (the paper's
            setting).
        faults: Optional server-outage model; every server is always up
            when omitted (the paper's setting).
    """

    def __init__(
        self,
        network: MECNetwork,
        tasks: TaskGenerator,
        channel: ChannelModel,
        prices: PriceModel,
        *,
        mobility: MobilityModel | None = None,
        price_scale: float = 1.0,
        fronthaul: "FronthaulModel | None" = None,
        faults: "OutageModel | None" = None,
    ) -> None:
        if tasks.num_devices != network.num_devices:
            raise ConfigurationError(
                f"task generator covers {tasks.num_devices} devices but the "
                f"network has {network.num_devices}"
            )
        self.network = network
        self.tasks = tasks
        self.channel = channel
        self.prices = prices
        self.mobility = mobility if mobility is not None else StaticMobility()
        if price_scale <= 0.0:
            raise ConfigurationError("price_scale must be positive")
        self.price_scale = float(price_scale)
        self.fronthaul = fronthaul
        self.faults = faults
        self._positions = network.device_positions()
        self._bs_positions = network.base_station_positions()
        self._radii = np.array([b.coverage_radius for b in network.base_stations])

    @property
    def positions(self) -> FloatArray:
        """Current device positions (mutated by mobility)."""
        return self._positions.copy()

    def state(self, t: int, rng: Rng) -> SlotState:
        """Draw ``beta_t`` for slot *t*, advancing mobility first."""
        self._positions = self.mobility.step(self._positions, rng)
        coverage = coverage_matrix(self._positions, self._bs_positions, self._radii)
        batch = self.tasks.generate(t, rng)
        h = self.channel.spectral_efficiency(
            t, self._positions, self._bs_positions, coverage, rng
        )
        price = self.prices.price(t, rng) * self.price_scale
        fronthaul_se = None
        if self.fronthaul is not None:
            fronthaul_se = self.fronthaul.spectral_efficiency(
                t, self.network.fronthaul_se, rng
            )
        available = None
        if self.faults is not None:
            available = self.faults.availability(t, self.network, rng)
        return SlotState(
            t=t,
            cycles=batch.cycles,
            bits=batch.bits,
            spectral_efficiency=h,
            price=price,
            fronthaul_se=fronthaul_se,
            available_servers=available,
        )

    def states(self, horizon: int, rng: Rng, *, start: int = 0) -> Iterator[SlotState]:
        """Yield ``beta_t`` for ``t = start, ..., start + horizon - 1``."""
        for t in range(start, start + horizon):
            yield self.state(t, rng)

    def _price_consumes_rng(self) -> bool:
        """Whether the price model draws randomness per slot."""
        prices = self.prices
        if type(prices) is ConstantPriceModel or type(prices) is TracePriceModel:
            return False
        if type(prices) is PeriodicPriceModel:
            return prices.noise_std > 0.0
        return True  # unknown model: assume it draws

    def compile_states(
        self, horizon: int, rng: Rng, *, chunk: int = 32, start: int = 0
    ) -> Iterator[SlotState]:
        """Yield the exact same states as :meth:`states`, compiled.

        Bit-identical to :meth:`states` for every model composition: the
        per-slot RNG consumption order is preserved, only the way the
        draws are issued changes.  Three tiers, chosen by inspecting the
        composed models:

        * **Chunk-blocked** -- static mobility, uniform tasks, uniform
          channel, and no other per-slot randomness (constant/trace
          prices or zero price noise, static fronthaul, no fault
          model).  All of a chunk's uniform draws come from one
          ``rng.random((chunk, S))`` call; a ``(chunk, S)`` block
          consumes the bit stream exactly like ``chunk`` sequential
          per-slot draws, and ``lo + u * (hi - lo)`` is bitwise
          ``Generator.uniform``.
        * **Slot-fused** -- as above but some model (price noise, a
          fronthaul or outage model) draws between slots.  Each slot
          issues one ``rng.random(S)`` for its uniform draws and calls
          the interleaving models in :meth:`states`'s order; scaling
          and coverage-masking still run once per chunk.
        * **Fallback** -- any other composition (mobility, non-uniform
          workload/channel models): delegate to the per-slot path,
          which is trivially identical.

        On the compiled tiers the static-mobility short-circuit
        computes coverage once per call instead of per slot, and states
        are built through :meth:`SlotState.trusted` after one
        whole-chunk validation pass.

        Args:
            horizon: Number of slots to yield.
            rng: The state stream (consumed identically to
                :meth:`states`).
            chunk: Slots drawn/validated per block; latency/memory
                knob only -- results do not depend on it.
            start: First slot index.
        """
        if chunk < 1:
            raise ConfigurationError(f"chunk must be positive, got {chunk}")
        if horizon <= 0:
            return
        fused = (
            type(self.mobility) is StaticMobility
            and type(self.tasks) is UniformTaskGenerator
            and type(self.channel) is UniformChannelModel
        )
        if not fused:
            yield from self.states(horizon, rng, start=start)
            return
        interleaved = (
            self._price_consumes_rng()
            or not (self.fronthaul is None or type(self.fronthaul) is StaticFronthaul)
            or not (self.faults is None or type(self.faults) is NoOutages)
        )

        # Static mobility: one (rng-free) step, one coverage matrix.
        self._positions = self.mobility.step(self._positions, rng)
        coverage = coverage_matrix(self._positions, self._bs_positions, self._radii)
        uncovered = ~coverage
        num_devices = self.tasks.num_devices
        num_bs = coverage.shape[1]
        c_lo, c_hi = self.tasks.cycles_range
        b_lo, b_hi = self.tasks.bits_range
        se_lo, se_hi = self.channel.se_min, self.channel.se_max
        # One slot's uniform doubles: cycles, bits, then the channel
        # matrix -- the order states() consumes them in.
        span = 2 * num_devices + num_devices * num_bs

        for begin in range(start, start + horizon, chunk):
            m = min(chunk, start + horizon - begin)
            prices: list[float] = []
            fronthauls: list[FloatArray | None] = []
            availables: list["np.ndarray | None"] = []
            if interleaved:
                block = np.empty((m, span))
                for j, t in enumerate(range(begin, begin + m)):
                    rng.random(out=block[j])
                    prices.append(self.prices.price(t, rng) * self.price_scale)
                    fronthauls.append(
                        self.fronthaul.spectral_efficiency(
                            t, self.network.fronthaul_se, rng
                        )
                        if self.fronthaul is not None
                        else None
                    )
                    availables.append(
                        self.faults.availability(t, self.network, rng)
                        if self.faults is not None
                        else None
                    )
            else:
                block = rng.random((m, span))
                for t in range(begin, begin + m):
                    prices.append(self.prices.price(t, rng) * self.price_scale)
                fronthauls = [None] * m
                availables = [None] * m

            cycles = c_lo + block[:, :num_devices] * (c_hi - c_lo)
            bits = b_lo + block[:, num_devices : 2 * num_devices] * (b_hi - b_lo)
            h = se_lo + block[:, 2 * num_devices :].reshape(
                m, num_devices, num_bs
            ) * (se_hi - se_lo)
            h[:, uncovered] = 0.0

            # The chunk-level stand-in for the per-slot constructor
            # checks.  Positive uniform ranges make the demand/price
            # checks unfailable here, but the invariants are cheap to
            # assert on the stacked arrays and guard future models.
            if cycles.min(initial=0.0) < 0.0 or bits.min(initial=0.0) < 0.0:
                raise ValidationError("task sizes must be non-negative")
            if h.min(initial=0.0) < 0.0:
                raise ValidationError("spectral efficiencies must be non-negative")
            if min(prices, default=0.0) < 0.0:
                raise ValidationError("price must be non-negative")
            for fr in fronthauls:
                if fr is not None and (
                    fr.ndim != 1 or fr.size != num_bs or fr.min(initial=1.0) <= 0.0
                ):
                    raise ValidationError("fronthaul_se entries must be positive")
            for avail in availables:
                if avail is not None and not avail.any():
                    raise ValidationError(
                        "available_servers cannot mark every server as down"
                    )

            for j in range(m):
                yield SlotState.trusted(
                    t=begin + j,
                    cycles=cycles[j],
                    bits=bits[j],
                    spectral_efficiency=h[j],
                    price=prices[j],
                    fronthaul_se=fronthauls[j],
                    available_servers=availables[j],
                )

    def reset(self) -> None:
        """Restore mobility and per-model state between independent runs."""
        self._positions = self.network.device_positions()
        for name in self._STATEFUL_MODELS:
            model = getattr(self, name)
            if model is not None and hasattr(model, "reset"):
                model.reset()

    # Component models that may carry cross-slot state.  Positions are
    # always captured; a model participates iff it exposes state_dict().
    _STATEFUL_MODELS = ("tasks", "channel", "prices", "mobility", "fronthaul", "faults")

    def state_dict(self) -> dict:
        """Serializable generator state (for checkpoint/resume).

        Captures device positions plus the state of every component
        model that exposes ``state_dict()``.  Models with hidden state
        and no ``state_dict()`` make a resumed run diverge; the
        checkpoint layer warns about them via :meth:`unresumable_models`.
        """
        return {"positions": self._positions.tolist(), "models": self.model_states()}

    def model_states(self) -> dict:
        """``state_dict()`` of every component model exposing one, by name
        (the ``"models"`` entry of :meth:`state_dict`)."""
        models: dict = {}
        for name in self._STATEFUL_MODELS:
            model = getattr(self, name)
            if model is not None and hasattr(model, "state_dict"):
                models[name] = model.state_dict()
        return models

    def load_state_dict(self, state: dict) -> None:
        """Restore generator state captured by :meth:`state_dict`."""
        self._positions = np.asarray(state["positions"], dtype=float)
        models = state.get("models", {})
        for name in self._STATEFUL_MODELS:
            model = getattr(self, name)
            if model is not None and hasattr(model, "load_state_dict"):
                model.load_state_dict(models.get(name, {}))

    def unresumable_models(self) -> list[str]:
        """Names of stateful-looking models that cannot be checkpointed.

        A model is suspect when it has a ``reset`` or ``step`` method
        (suggesting cross-slot state) but no ``state_dict``.
        """
        suspects = []
        for name in self._STATEFUL_MODELS:
            model = getattr(self, name)
            if model is None or hasattr(model, "state_dict"):
                continue
            if hasattr(model, "reset"):
                suspects.append(name)
        return suspects


@dataclass
class Scenario:
    """A complete, reproducible experimental setup.

    Attributes:
        network: Static topology.
        generator: Per-slot state generator.
        seeds: Root seed bank; components draw named child streams.
        budget: Default time-average energy-cost budget ``Cbar``.
        fault_plan: Optional composable fault-injection plan applied to
            every drawn state from its own seeded stream
            (:meth:`fault_rng`), so the base state stream -- and the
            compiled pipeline -- stays bit-identical with or without it.
    """

    network: MECNetwork
    generator: StateGenerator
    seeds: SeedBank
    budget: float
    fault_plan: "FaultPlan | None" = None

    def state_rng(self) -> Rng:
        """Fresh generator over the scenario's state stream."""
        return self.seeds.rng("states")

    def controller_rng(self, name: str = "controller") -> Rng:
        """Fresh generator for a controller's internal randomness."""
        return self.seeds.rng(name)

    def fault_rng(self) -> Rng:
        """Fresh generator over the fault plan's dedicated stream."""
        return self.seeds.rng("fault-plan")

    def _with_faults(self, states: Iterator[SlotState], tracer=None):
        if self.fault_plan is None or not self.fault_plan:
            return states
        self.fault_plan.reset()
        return self.fault_plan.stream(
            states, self.network, self.fault_rng(), tracer
        )

    def fresh_states(self, horizon: int, *, tracer=None) -> Iterator[SlotState]:
        """A reproducible state sequence of length *horizon*.

        Each call restarts the stream from the scenario seed (and resets
        mobility), so different controllers can be fed *identical*
        realisations -- a paired comparison.  When the scenario carries a
        :attr:`fault_plan` it is reset and applied on top; fault events
        go to *tracer* when one is given.
        """
        self.generator.reset()
        return self._with_faults(
            self.generator.states(horizon, self.state_rng()), tracer
        )

    def fresh_compiled_states(
        self, horizon: int, *, chunk: int = 32, tracer=None
    ) -> Iterator[SlotState]:
        """:meth:`fresh_states` through the compiled pipeline.

        Bit-identical states (same seed, same stream, same values); see
        :meth:`StateGenerator.compile_states` for the tiers and the
        ``chunk`` knob.  The :attr:`fault_plan`, when present, wraps the
        compiled stream without touching its RNG consumption.
        """
        self.generator.reset()
        return self._with_faults(
            self.generator.compile_states(horizon, self.state_rng(), chunk=chunk),
            tracer,
        )
