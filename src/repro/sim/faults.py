"""Fault injection: the composable fault framework.

The paper assumes an always-healthy substrate -- every server up, every
fronthaul link intact, the price signal fresh each slot.  This module
injects the failures real deployments see, in one layer: each
:class:`StateFault` component transforms an already-drawn
:class:`~repro.core.state.SlotState` -- server outages (offline servers
leave every strategy set and draw no power), base-station outages,
fronthaul degradation, price-feed dropouts (the controller acts on the
last *stale* price), channel-estimate staleness -- and a
:class:`FaultPlan` composes any number of them plus scripted
:class:`ScriptedIncident` objects.  Every Markov fault runs on one
up/down chain engine (:class:`_TwoStateChain`).

A :class:`FaultPlan` is applied *after* state generation from its own
seeded stream, so the compiled state pipeline
(:meth:`~repro.sim.scenario.StateGenerator.compile_states`) stays valid
and bit-identical: the base stream never sees the plan's draws.  Every
component guards feasibility deterministically (a device keeps at least
one covered, connected base station; at least one server stays up) --
total blackouts are a scenario configuration error, not something an
online controller can answer.  All components expose
``reset``/``state_dict``/``load_state_dict`` so checkpoint/resume
(:mod:`repro.sim.checkpoint`) reproduces faulted runs bit-identically.
"""

from __future__ import annotations

import abc
import copy
import dataclasses
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.core.state import SlotState
from repro.exceptions import ConfigurationError
from repro.network.topology import MECNetwork
from repro.obs.probe import Tracer, as_tracer
from repro.types import BoolArray, FloatArray, Rng


class MarkovOutages:
    """Independent per-server up/down Markov chains.

    Each slot an up server fails with probability ``1/mtbf_slots`` and a
    down server recovers with probability ``1/mttr_slots``.  The
    stationary unavailability is ``mttr / (mtbf + mttr)``.  Lifted into
    a :class:`FaultPlan` by :class:`ServerOutages`.

    Args:
        mtbf_slots: Mean time between failures, in slots.
        mttr_slots: Mean time to repair, in slots.
        min_up_fraction: Repair-forcing guard: if fewer than this
            fraction of servers would be up, the longest-down servers
            are force-repaired (keeps the scenario feasible and bounded
            away from "everything is dark").
        min_up_per_cluster: Keep at least this many servers alive in
            every cluster.  A fully dark room strands devices whose only
            covering base stations are wired to it, which would make the
            slot infeasible; 1 preserves feasibility whenever the
            fault-free scenario was feasible.
    """

    def __init__(
        self,
        *,
        mtbf_slots: float = 200.0,
        mttr_slots: float = 6.0,
        min_up_fraction: float = 0.5,
        min_up_per_cluster: int = 1,
    ) -> None:
        self._chain = _TwoStateChain(mtbf_slots, mttr_slots)
        if not 0.0 < min_up_fraction <= 1.0:
            raise ConfigurationError("min_up_fraction must lie in (0, 1]")
        if min_up_per_cluster < 0:
            raise ConfigurationError("min_up_per_cluster must be >= 0")
        self.min_up_fraction = float(min_up_fraction)
        self.min_up_per_cluster = int(min_up_per_cluster)

    def availability(self, t: int, network: MECNetwork, rng: Rng) -> BoolArray:
        """The ``(N,)`` availability mask for slot *t*."""
        n = network.num_servers
        chain = self._chain
        up = chain.step(t, n, rng)

        # Guard 1: force-repair the longest-down servers if too few are up.
        # The tie-break is deterministic: longest-down first (smallest
        # failure slot), equal downtimes resolved by server index via the
        # stable sort -- never by quicksort's unspecified tie order.
        need = max(1, int(np.ceil(self.min_up_fraction * n))) - int(up.sum())
        if need > 0:
            chain.force_up(chain.longest_down_first(np.flatnonzero(~up))[:need])

        # Guard 2: keep every cluster minimally staffed (feasibility),
        # with the same longest-down-first deterministic tie-break.
        if self.min_up_per_cluster > 0:
            for cluster in network.clusters:
                members = np.array(cluster.servers, dtype=np.int64)
                need = min(self.min_up_per_cluster, members.size) - int(
                    up[members].sum()
                )
                if need > 0:
                    down = members[~up[members]]
                    chain.force_up(chain.longest_down_first(down)[:need])
        return up.copy()

    def reset(self) -> None:
        """Bring every server back up (between independent runs)."""
        self._chain.reset()

    def state_dict(self) -> dict:
        """Serializable chain state (for checkpoint/resume)."""
        return self._chain.state_dict()

    def load_state_dict(self, state: dict) -> None:
        """Restore chain state captured by :meth:`state_dict`."""
        self._chain.load_state_dict(state)


class _TwoStateChain:
    """Independent per-entity up/down Markov chains (MTBF/MTTR).

    The one engine behind every Markov fault: server outages,
    base-station outages, fronthaul degradation and price-feed
    dropouts.  Exactly one ``rng.random(n)`` call per slot regardless of
    chain state, so RNG consumption is deterministic and resumable.
    """

    def __init__(self, mtbf_slots: float, mttr_slots: float) -> None:
        if mtbf_slots <= 0 or mttr_slots <= 0:
            raise ConfigurationError("mtbf/mttr must be positive")
        self.fail_prob = min(1.0 / mtbf_slots, 1.0)
        self.repair_prob = min(1.0 / mttr_slots, 1.0)
        self._up: BoolArray | None = None
        self._down_since: np.ndarray | None = None

    def step(self, t: int, n: int, rng: Rng) -> BoolArray:
        """Advance every chain one slot; returns the up-mask (a view)."""
        if self._up is None or self._up.size != n:
            self._up = np.ones(n, dtype=bool)
            self._down_since = np.full(n, -1, dtype=np.int64)
        assert self._down_since is not None
        draws = rng.random(n)
        failing = self._up & (draws < self.fail_prob)
        recovering = ~self._up & (draws < self.repair_prob)
        self._up = (self._up & ~failing) | recovering
        self._down_since[failing] = t
        self._down_since[self._up] = -1
        return self._up

    def force_up(self, indices: np.ndarray) -> None:
        """Deterministically revive the given entities."""
        assert self._up is not None and self._down_since is not None
        self._up[indices] = True
        self._down_since[indices] = -1

    def longest_down_first(self, candidates: np.ndarray) -> np.ndarray:
        """Candidates ordered longest-down first, ties by index (stable)."""
        assert self._down_since is not None
        return candidates[np.argsort(self._down_since[candidates], kind="stable")]

    def reset(self) -> None:
        self._up = None
        self._down_since = None

    def state_dict(self) -> dict:
        if self._up is None or self._down_since is None:
            return {}
        return {"up": self._up.tolist(), "down_since": self._down_since.tolist()}

    def load_state_dict(self, state: dict) -> None:
        if not state:
            self.reset()
            return
        self._up = np.asarray(state["up"], dtype=bool)
        self._down_since = np.asarray(state["down_since"], dtype=np.int64)


class StateFault(abc.ABC):
    """A seeded, stateful transform applied to a freshly drawn slot state.

    Components consume the :class:`FaultPlan`'s dedicated RNG stream --
    never the state stream -- so the compiled state pipeline stays
    bit-identical with or without faults.  Implementations must draw a
    fixed amount of randomness per slot (independent of fault state) so
    checkpoint/resume reproduces the stream exactly.
    """

    @abc.abstractmethod
    def apply(
        self, state: SlotState, network: MECNetwork, rng: Rng
    ) -> tuple[SlotState, list[dict]]:
        """Transform *state*; returns the (possibly new) state and events."""

    def reset(self) -> None:
        """Forget all chain/staleness state (between independent runs)."""

    def subset(
        self,
        device_map: Sequence[int],
        bs_map: Sequence[int],
        server_map: Sequence[int],
    ) -> "StateFault":
        """Project this fault onto a cell's sub-topology.

        Mirrors ``TaskGenerator.subset``: the maps are the cell's
        global indices in local order (``map[i_local] == i_global``,
        from :class:`~repro.network.partition.CellIndexMaps`).  The
        stochastic faults all size their chains lazily from the first
        state they see, so the base projection is a fresh, reset copy
        -- each cell then runs an *independent* chain from its own
        child fault stream.  Faults carrying global index structure
        must override this and remap.
        """
        del device_map, bs_map, server_map
        out = copy.deepcopy(self)
        out.reset()
        return out

    def state_dict(self) -> dict:
        """Serializable internal state (for checkpoint/resume)."""
        return {}

    def load_state_dict(self, state: dict) -> None:
        """Restore internal state captured by :meth:`state_dict`."""
        del state


def _transition_events(
    kind: str, previous: tuple[int, ...], current: tuple[int, ...], t: int
) -> list[dict]:
    """Onset/clear events for a fault whose affected-target set changed."""
    events: list[dict] = []
    onset = sorted(set(current) - set(previous))
    cleared = sorted(set(previous) - set(current))
    if onset:
        events.append({"fault": kind, "phase": "onset", "t": t, "targets": onset})
    if cleared:
        events.append({"fault": kind, "phase": "clear", "t": t, "targets": cleared})
    return events


class ServerOutages(StateFault):
    """Server outages: a :class:`MarkovOutages` mask on the state.

    Offline servers are excluded from every device's strategy set and
    draw no power (:attr:`~repro.core.state.SlotState.available_servers`).
    The model's mask is ANDed with any availability mask already on the
    state; if the intersection would go completely dark, the state's
    existing mask wins (the component defers rather than blacking out).
    While no server is down the state's mask stays ``None`` (all up).
    """

    def __init__(self, model: MarkovOutages | None = None) -> None:
        self.model = model if model is not None else MarkovOutages()
        self._last_down: tuple[int, ...] = ()

    def apply(
        self, state: SlotState, network: MECNetwork, rng: Rng
    ) -> tuple[SlotState, list[dict]]:
        mask = self.model.availability(state.t, network, rng)
        if state.available_servers is not None:
            combined = mask & state.available_servers
            mask = combined if combined.any() else state.available_servers
        down = tuple(int(n) for n in np.flatnonzero(~mask))
        events = _transition_events("server_outage", self._last_down, down, state.t)
        self._last_down = down
        if not down and state.available_servers is None:
            return state, events
        return dataclasses.replace(state, available_servers=mask), events

    def reset(self) -> None:
        self._last_down = ()
        self.model.reset()

    def state_dict(self) -> dict:
        return {"last_down": list(self._last_down), "model": self.model.state_dict()}

    def load_state_dict(self, state: dict) -> None:
        if not state:
            self.reset()
            return
        self._last_down = tuple(int(n) for n in state.get("last_down", ()))
        self.model.load_state_dict(state.get("model", {}))


class BaseStationOutages(StateFault):
    """Per-base-station up/down Markov chains.

    A down base station's access-link column is zeroed, which removes it
    from every device's strategy set (zero spectral efficiency means
    "out of coverage").  A deterministic guard never strands a covered
    device: while some device would lose its last covered base station,
    the longest-down covering station is revived (ties by index, stable).
    """

    def __init__(self, *, mtbf_slots: float = 300.0, mttr_slots: float = 4.0) -> None:
        self._chain = _TwoStateChain(mtbf_slots, mttr_slots)
        self._last_down: tuple[int, ...] = ()

    def apply(
        self, state: SlotState, network: MECNetwork, rng: Rng
    ) -> tuple[SlotState, list[dict]]:
        num_bs = state.num_base_stations
        up = self._chain.step(state.t, num_bs, rng)
        coverage = state.spectral_efficiency > 0.0
        if not up.all():
            covered = coverage.any(axis=1)
            stranded = covered & ~(coverage & up[None, :]).any(axis=1)
            while stranded.any():
                device = int(np.argmax(stranded))
                candidates = np.flatnonzero(coverage[device] & ~up)
                revive = self._chain.longest_down_first(candidates)[:1]
                self._chain.force_up(revive)
                stranded = covered & ~(coverage & up[None, :]).any(axis=1)
        down = tuple(int(k) for k in np.flatnonzero(~up))
        events = _transition_events("bs_outage", self._last_down, down, state.t)
        self._last_down = down
        if not down:
            return state, events
        h = state.spectral_efficiency.copy()
        h[:, ~up] = 0.0
        return dataclasses.replace(state, spectral_efficiency=h), events

    def reset(self) -> None:
        self._chain.reset()
        self._last_down = ()

    def state_dict(self) -> dict:
        return {"chain": self._chain.state_dict(), "last_down": list(self._last_down)}

    def load_state_dict(self, state: dict) -> None:
        if not state:
            self.reset()
            return
        self._chain.load_state_dict(state.get("chain", {}))
        self._last_down = tuple(int(k) for k in state.get("last_down", ()))


class FronthaulDegradation(StateFault):
    """Per-link fronthaul degradation/loss as up/down Markov chains.

    While a link is degraded its fronthaul spectral efficiency is
    multiplied by ``factor`` (strictly positive, so the slot stays
    feasible -- transmissions slow down rather than vanish, modelling a
    lossy or rerouted backhaul path).
    """

    def __init__(
        self,
        *,
        mtbf_slots: float = 200.0,
        mttr_slots: float = 8.0,
        factor: float = 0.25,
    ) -> None:
        if not 0.0 < factor <= 1.0:
            raise ConfigurationError("degradation factor must lie in (0, 1]")
        self.factor = float(factor)
        self._chain = _TwoStateChain(mtbf_slots, mttr_slots)
        self._last_down: tuple[int, ...] = ()

    def apply(
        self, state: SlotState, network: MECNetwork, rng: Rng
    ) -> tuple[SlotState, list[dict]]:
        num_bs = state.num_base_stations
        up = self._chain.step(state.t, num_bs, rng)
        down = tuple(int(k) for k in np.flatnonzero(~up))
        events = _transition_events(
            "fronthaul_degraded", self._last_down, down, state.t
        )
        self._last_down = down
        if not down:
            return state, events
        base = (
            state.fronthaul_se
            if state.fronthaul_se is not None
            else network.fronthaul_se
        )
        degraded = np.asarray(base, dtype=float).copy()
        degraded[~up] *= self.factor
        return dataclasses.replace(state, fronthaul_se=degraded), events

    def reset(self) -> None:
        self._chain.reset()
        self._last_down = ()

    def state_dict(self) -> dict:
        return {"chain": self._chain.state_dict(), "last_down": list(self._last_down)}

    def load_state_dict(self, state: dict) -> None:
        if not state:
            self.reset()
            return
        self._chain.load_state_dict(state.get("chain", {}))
        self._last_down = tuple(int(k) for k in state.get("last_down", ()))


class PriceFeedDropouts(StateFault):
    """Price-feed dropouts: the controller acts on the last *stale* price.

    A single up/down Markov chain models the feed.  While the feed is
    down the slot's true price is replaced with the last successfully
    observed one; the first slot is always treated as fresh so a price
    exists to hold.
    """

    def __init__(self, *, mtbf_slots: float = 100.0, mttr_slots: float = 3.0) -> None:
        self._chain = _TwoStateChain(mtbf_slots, mttr_slots)
        self._last_fresh: float | None = None
        self._stale_age = 0

    def apply(
        self, state: SlotState, network: MECNetwork, rng: Rng
    ) -> tuple[SlotState, list[dict]]:
        del network
        feed_up = bool(self._chain.step(state.t, 1, rng)[0])
        events: list[dict] = []
        if feed_up or self._last_fresh is None:
            if self._stale_age:
                events.append(
                    {"fault": "price_feed", "phase": "clear", "t": state.t,
                     "stale_slots": self._stale_age}
                )
            self._last_fresh = float(state.price)
            self._stale_age = 0
            return state, events
        self._stale_age += 1
        if self._stale_age == 1:
            events.append({"fault": "price_feed", "phase": "onset", "t": state.t})
        return dataclasses.replace(state, price=self._last_fresh), events

    def reset(self) -> None:
        self._chain.reset()
        self._last_fresh = None
        self._stale_age = 0

    def state_dict(self) -> dict:
        return {
            "chain": self._chain.state_dict(),
            "last_fresh": self._last_fresh,
            "stale_age": self._stale_age,
        }

    def load_state_dict(self, state: dict) -> None:
        if not state:
            self.reset()
            return
        self._chain.load_state_dict(state.get("chain", {}))
        last_fresh = state.get("last_fresh")
        self._last_fresh = None if last_fresh is None else float(last_fresh)
        self._stale_age = int(state.get("stale_age", 0))


class ChannelStaleness(StateFault):
    """Stale channel estimates: old CSI reaches the controller.

    With probability ``prob`` (one draw per slot, always consumed) the
    controller observes the *previous* slot's channel matrix instead of
    the current one.  Compose this before any base-station outage fault
    so outage zeroing still applies to whatever estimate survives.
    """

    def __init__(self, *, prob: float = 0.1) -> None:
        if not 0.0 <= prob <= 1.0:
            raise ConfigurationError("staleness probability must lie in [0, 1]")
        self.prob = float(prob)
        self._last_h: FloatArray | None = None

    def apply(
        self, state: SlotState, network: MECNetwork, rng: Rng
    ) -> tuple[SlotState, list[dict]]:
        del network
        draw = float(rng.random())
        fresh = state.spectral_efficiency
        stale = (
            self._last_h is not None
            and self._last_h.shape == fresh.shape
            and draw < self.prob
        )
        previous = self._last_h
        self._last_h = np.array(fresh, copy=True)
        if not stale:
            return state, []
        assert previous is not None
        events = [{"fault": "channel_stale", "phase": "onset", "t": state.t}]
        return dataclasses.replace(state, spectral_efficiency=previous), events

    def reset(self) -> None:
        self._last_h = None

    def state_dict(self) -> dict:
        return {
            "last_h": None if self._last_h is None else self._last_h.tolist()
        }

    def load_state_dict(self, state: dict) -> None:
        if not state:
            self.reset()
            return
        last_h = state.get("last_h")
        self._last_h = None if last_h is None else np.asarray(last_h, dtype=float)


_INCIDENT_KINDS = ("server_down", "bs_down", "fronthaul_degraded", "price_freeze")


@dataclass(frozen=True)
class ScriptedIncident:
    """A deterministic incident active for ``[at, at + duration)`` slots.

    Attributes:
        at: First slot the incident is active.
        duration: Number of slots it stays active.
        kind: One of ``server_down`` / ``bs_down`` / ``fronthaul_degraded``
            / ``price_freeze``.
        targets: Server or base-station indices affected (ignored by
            ``price_freeze``); non-negative, and checked against the
            network by :meth:`FaultPlan.check_targets` when a
            :class:`~repro.sim.scenario.Scenario` is built.
        factor: Multiplier for ``fronthaul_degraded``.
    """

    at: int
    duration: int
    kind: str
    targets: tuple[int, ...] = ()
    factor: float = 0.25

    def __post_init__(self) -> None:
        if self.kind not in _INCIDENT_KINDS:
            raise ConfigurationError(
                f"unknown incident kind {self.kind!r}; expected one of "
                f"{_INCIDENT_KINDS}"
            )
        if self.at < 0 or self.duration <= 0:
            raise ConfigurationError("incidents need at >= 0 and duration >= 1")
        if self.kind != "price_freeze" and not self.targets:
            raise ConfigurationError(f"{self.kind} incidents need explicit targets")
        if not 0.0 < self.factor <= 1.0:
            raise ConfigurationError("incident factor must lie in (0, 1]")
        object.__setattr__(self, "targets", tuple(int(x) for x in self.targets))
        if any(target < 0 for target in self.targets):
            raise ConfigurationError(
                f"{self.kind} incident at slot {self.at} has a negative "
                f"target: {self.targets}"
            )

    def active(self, t: int) -> bool:
        return self.at <= t < self.at + self.duration

    def subset(
        self, bs_map: Sequence[int], server_map: Sequence[int]
    ) -> "ScriptedIncident | None":
        """The incident as seen from one cell, or ``None`` if it does
        not touch the cell.

        ``server_down`` targets are remapped through *server_map* and
        ``bs_down`` / ``fronthaul_degraded`` through *bs_map*
        (``map[i_local] == i_global``); a ``price_freeze`` has no
        targets and lands in every cell.  An incident whose remapped
        target set is empty is dropped -- the fleet-wide incident
        simply never reaches that cell.
        """
        if self.kind == "price_freeze":
            return self
        source = server_map if self.kind == "server_down" else bs_map
        local = {int(g): i for i, g in enumerate(source)}
        targets = tuple(local[t] for t in self.targets if t in local)
        if not targets:
            return None
        return dataclasses.replace(self, targets=targets)


class FaultPlan:
    """Composes stochastic fault models plus scripted incidents.

    Stochastic :class:`StateFault` components run first, in the order
    given (each seeing its predecessors' output), then every active
    :class:`ScriptedIncident`.  The plan draws from its own seeded
    stream (``Scenario.fault_rng()``), leaving the state stream -- and
    therefore the compiled state pipeline -- untouched.

    Args:
        faults: Stochastic fault components, applied in order.
        schedule: The scripted incidents, kept in order as
            :attr:`incidents`.
    """

    def __init__(
        self,
        faults: Sequence[StateFault] = (),
        *,
        schedule: Iterable[ScriptedIncident] = (),
    ) -> None:
        self.faults = tuple(faults)
        for fault in self.faults:
            if not isinstance(fault, StateFault):
                raise ConfigurationError(
                    f"FaultPlan takes StateFault components, got "
                    f"{type(fault).__name__}"
                )
        self.incidents = tuple(schedule)
        for incident in self.incidents:
            if not isinstance(incident, ScriptedIncident):
                raise ConfigurationError(
                    "FaultPlan schedules take ScriptedIncident objects, got "
                    f"{type(incident).__name__}"
                )
        self._prev_price: float | None = None

    def __bool__(self) -> bool:
        return bool(self.faults) or bool(self.incidents)

    def check_targets(self, network: MECNetwork) -> None:
        """Reject scripted incidents that target indices *network* lacks.

        Raises:
            ConfigurationError: Names the first such incident and target.
        """
        for incident in self.incidents:
            if incident.kind == "price_freeze":
                continue
            if incident.kind == "server_down":
                noun, size = "server", network.num_servers
            else:
                noun, size = "base station", network.num_base_stations
            for target in incident.targets:
                if target >= size:
                    raise ConfigurationError(
                        f"{incident} targets {noun} {target}, but the "
                        f"network has {size}"
                    )

    def subset(
        self,
        device_map: Sequence[int],
        bs_map: Sequence[int],
        server_map: Sequence[int],
    ) -> "FaultPlan":
        """Project the plan onto a cell's sub-topology.

        Stochastic components are projected through
        :meth:`StateFault.subset` (fresh chains, sized by the cell's
        states, driven by the cell's own child fault stream) and
        scripted incidents through
        :meth:`ScriptedIncident.subset` (targets remapped to local
        indices, incidents missing the cell dropped).  The projected
        plan may be empty (falsy) -- a cell untouched by every
        incident of an incidents-only plan runs fault-free.
        """
        faults = tuple(
            fault.subset(device_map, bs_map, server_map) for fault in self.faults
        )
        incidents = (
            incident.subset(bs_map, server_map) for incident in self.incidents
        )
        return FaultPlan(faults, schedule=(i for i in incidents if i is not None))

    def reset(self) -> None:
        """Forget all component state (between independent runs)."""
        for fault in self.faults:
            fault.reset()
        self._prev_price = None

    def apply(
        self, state: SlotState, network: MECNetwork, rng: Rng
    ) -> tuple[SlotState, list[dict]]:
        """Run every component plus active incidents on one slot state."""
        events: list[dict] = []
        for fault in self.faults:
            state, fault_events = fault.apply(state, network, rng)
            events.extend(fault_events)
        for incident in self.incidents:
            if incident.active(state.t):
                state, incident_events = self._apply_incident(
                    incident, state, network
                )
                events.extend(incident_events)
        self._prev_price = float(state.price)
        return state, events

    def _apply_incident(
        self, incident: ScriptedIncident, state: SlotState, network: MECNetwork
    ) -> tuple[SlotState, list[dict]]:
        events: list[dict] = []
        if incident.at == state.t:
            events.append(
                {
                    "fault": f"incident.{incident.kind}",
                    "phase": "onset",
                    "t": state.t,
                    "targets": list(incident.targets),
                    "duration": incident.duration,
                }
            )
        if incident.kind == "server_down":
            mask = (
                state.available_servers.copy()
                if state.available_servers is not None
                else np.ones(network.num_servers, dtype=bool)
            )
            was_up = np.flatnonzero(mask)
            mask[list(incident.targets)] = False
            if not mask.any() and was_up.size:
                mask[was_up[0]] = True  # never go completely dark
            return dataclasses.replace(state, available_servers=mask), events
        if incident.kind == "bs_down":
            h = state.spectral_efficiency.copy()
            coverage_before = h > 0.0
            h[:, list(incident.targets)] = 0.0
            stranded = coverage_before.any(axis=1) & ~(h > 0.0).any(axis=1)
            for device in np.flatnonzero(stranded):
                for k in incident.targets:  # restore the first covering target column
                    if coverage_before[device, k]:
                        h[:, k] = state.spectral_efficiency[:, k]
                        break
            return dataclasses.replace(state, spectral_efficiency=h), events
        if incident.kind == "fronthaul_degraded":
            base = (
                state.fronthaul_se
                if state.fronthaul_se is not None
                else network.fronthaul_se
            )
            degraded = np.asarray(base, dtype=float).copy()
            degraded[list(incident.targets)] *= incident.factor
            return dataclasses.replace(state, fronthaul_se=degraded), events
        # price_freeze: hold the previous slot's (post-fault) price.
        if self._prev_price is not None:
            return dataclasses.replace(state, price=self._prev_price), events
        return state, events

    def stream(
        self,
        states: Iterator[SlotState],
        network: MECNetwork,
        rng: Rng,
        tracer: "Tracer | None" = None,
    ) -> Iterator[SlotState]:
        """Wrap a state iterator, applying the plan slot by slot.

        Emits each fault as a ``fault`` event plus a
        ``resilience.faults`` counter on *tracer*.  Does NOT reset the
        plan -- callers decide whether they are starting fresh
        (:meth:`reset`) or resuming from a checkpoint
        (:meth:`load_state_dict`).
        """
        tracer = as_tracer(tracer)
        for state in states:
            out, events = self.apply(state, network, rng)
            if tracer.enabled and events:
                for event in events:
                    tracer.event("fault", event)
                tracer.counter("resilience.faults", len(events))
            yield out

    def state_dict(self) -> dict:
        """Serializable plan state (for checkpoint/resume)."""
        return {
            "prev_price": self._prev_price,
            "faults": [fault.state_dict() for fault in self.faults],
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore plan state captured by :meth:`state_dict`."""
        if not state:
            self.reset()
            return
        prev = state.get("prev_price")
        self._prev_price = None if prev is None else float(prev)
        stored = state.get("faults", [])
        for fault, fault_state in zip(self.faults, stored):
            fault.load_state_dict(fault_state)
