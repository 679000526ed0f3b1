"""Degraded-mode execution: watchdogs, fallbacks, and quarantine.

The paper's Algorithm 1 assumes P2 is always solved to (approximate)
equilibrium within the slot.  A production controller cannot: solvers
overrun deadlines, iteration budgets run out, and substrate faults can
leave a device with an empty strategy set.  This module supplies the
pieces :class:`~repro.core.controller.DPPController` composes into a
never-abort slot loop:

* :class:`ResiliencePolicy` -- the knobs: per-slot wall-clock deadline,
  best-response iteration cap, partial-result acceptance, the fallback
  chain, quarantine, and an optional :class:`SolverChaos` injector.
* :func:`quarantine_state` -- identifies devices whose strategy set
  is genuinely empty under the slot's coverage/availability and rewrites
  the state so the rest of the fleet can still be served: quarantined
  devices get zero demand (they contribute zero latency, zero shares)
  and a synthetic feasible placeholder link so index-vector decisions
  remain well-formed.
* :func:`fallback_decision` -- the degraded chain behind CGBA:
  greedy -> repaired last-known-good -> random-feasible, each validated
  before being accepted.

All randomness in the fallback path is either avoided (greedy runs in
deterministic ascending order) or drawn from the controller's own rng,
so degraded runs stay reproducible.

Overload is the one failure mode handled elsewhere: when the *offered
load* (not a solver or a fault) is the problem, the controller's
:class:`~repro.core.overload.OverloadPolicy` sheds tasks with the same
zero-demand placeholder algebra :func:`quarantine_state` establishes
here -- shed devices keep their links but contribute zero latency and
zero shares for the slot.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.allocation import optimal_allocation
from repro.core.bdma import BDMAResult
from repro.core.drift_penalty import energy_cost
from repro.core.latency import optimal_total_latency
from repro.core.p2b import solve_p2b
from repro.core.state import Assignment, Decision, SlotState, validate_decision
from repro.exceptions import (
    ConfigurationError,
    InfeasibleError,
    ReproError,
    SolverError,
)
from repro.kernels import KernelBackend
from repro.network.topology import MECNetwork
from repro.obs.probe import Tracer, as_tracer
from repro.types import FloatArray, IntArray, Rng


@dataclass(frozen=True)
class SolverChaos:
    """Deterministic solver-failure injection for chaos testing.

    Decides per slot -- via a stateless, platform-independent draw from
    ``default_rng([seed, t])`` -- whether the primary solver "fails"
    this slot, exercising the fallback chain without patching solver
    internals.  Stateless in ``t`` means checkpoint/resume cannot
    desynchronise it.

    Attributes:
        failure_rate: Probability a given slot's primary solve is
            failed artificially.
        seed: Seed of the per-slot decision stream.
        fail_slots: Slots that always fail, on top of the random draw.
    """

    failure_rate: float = 0.0
    seed: int = 0
    fail_slots: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if not 0.0 <= self.failure_rate <= 1.0:
            raise ConfigurationError("failure_rate must lie in [0, 1]")
        object.__setattr__(
            self, "fail_slots", tuple(int(t) for t in self.fail_slots)
        )

    def trips(self, t: int) -> bool:
        """Whether the injected failure fires on slot *t*."""
        if t in self.fail_slots:
            return True
        if self.failure_rate <= 0.0:
            return False
        draw = float(np.random.default_rng([self.seed, t]).random())
        return draw < self.failure_rate


@dataclass(frozen=True)
class ResiliencePolicy:
    """Degraded-mode knobs for :class:`~repro.core.controller.DPPController`.

    The default-constructed policy turns everything on with no deadline
    and no iteration cap: the primary solver is never truncated, but a
    :class:`~repro.exceptions.SolverError` no longer aborts the run --
    the fallback chain produces a feasible decision and the slot record
    says so.  A controller without a policy behaves exactly as before
    (fail-fast).

    Attributes:
        deadline_seconds: Per-slot wall-clock budget for the BDMA solve;
            expired deadlines first truncate the alternation to the best
            round so far, and only fall back when not even one round
            finished.  ``None`` disables the watchdog.
        max_engine_iter: Cap on best-response moves per CGBA run (the
            iteration half of the watchdog).  ``None`` keeps the solver
            default.
        accept_partial: Consume ``ConvergenceError.best_so_far`` when the
            iteration cap is hit instead of failing the slot.
        fallback: Run the greedy -> last-known-good -> random chain on
            solver failure instead of re-raising.
        quarantine: Serve the feasible fleet when some devices have
            empty strategy sets, instead of aborting the slot.
        chaos: Optional injected-failure schedule (testing only).
    """

    deadline_seconds: float | None = None
    max_engine_iter: int | None = None
    accept_partial: bool = True
    fallback: bool = True
    quarantine: bool = True
    chaos: SolverChaos | None = None

    def __post_init__(self) -> None:
        if self.deadline_seconds is not None and self.deadline_seconds <= 0.0:
            raise ConfigurationError("deadline_seconds must be positive")
        if self.max_engine_iter is not None and self.max_engine_iter < 1:
            raise ConfigurationError("max_engine_iter must be >= 1")


def find_infeasible_devices(network: MECNetwork, state: SlotState) -> IntArray:
    """Devices with an empty strategy set under *state*.

    A device is infeasible when no covering base station offers at least
    one reachable, available server -- exactly the condition that makes
    :class:`~repro.network.connectivity.StrategySpace` raise.
    """
    coverage = state.coverage()
    num_bs = network.num_base_stations
    if state.available_servers is None:
        # Feasible scenarios guarantee every BS reaches >= 1 server, but
        # compute it anyway: a malformed topology should quarantine too.
        bs_has_server = np.array(
            [network.servers_reachable_from(k).size > 0 for k in range(num_bs)]
        )
    else:
        avail = state.available_servers
        bs_has_server = np.array(
            [bool(avail[network.servers_reachable_from(k)].any()) for k in range(num_bs)]
        )
    feasible_bs = coverage & bs_has_server[None, :]
    return np.flatnonzero(~feasible_bs.any(axis=1))


def quarantine_state(
    network: MECNetwork, state: SlotState, quarantined: IntArray
) -> SlotState:
    """Rewrite *state* so quarantined devices are inert placeholders.

    Quarantined devices get zero cycles and bits -- they contribute zero
    latency and zero resource shares (the latency algebra maps 0/0 loads
    to 0) -- plus a synthetic unit-efficiency link to the first base
    station that still offers a served pair, so index-vector decisions
    stay well-formed.  The returned state is fully validated.
    """
    if quarantined.size == 0:
        return state
    if state.available_servers is None:
        bs_ok = np.array(
            [
                network.servers_reachable_from(k).size > 0
                for k in range(network.num_base_stations)
            ]
        )
    else:
        avail = state.available_servers
        bs_ok = np.array(
            [
                bool(avail[network.servers_reachable_from(k)].any())
                for k in range(network.num_base_stations)
            ]
        )
    anchors = np.flatnonzero(bs_ok)
    if anchors.size == 0:
        raise InfeasibleError(
            "no base station offers any available server this slot; the "
            "scenario is globally infeasible and cannot be quarantined around"
        )
    anchor = int(anchors[0])
    cycles = state.cycles.copy()
    bits = state.bits.copy()
    h = state.spectral_efficiency.copy()
    cycles[quarantined] = 0.0
    bits[quarantined] = 0.0
    h[quarantined, :] = 0.0
    h[quarantined, anchor] = 1.0
    return SlotState(
        t=state.t,
        cycles=cycles,
        bits=bits,
        spectral_efficiency=h,
        price=state.price,
        fronthaul_se=state.fronthaul_se,
        available_servers=state.available_servers,
    )


def fallback_decision(
    network: MECNetwork,
    state: SlotState,
    space,
    rng: Rng,
    *,
    queue_backlog: float,
    v: float,
    budget: float,
    previous: Assignment | None = None,
    previous_frequencies: FloatArray | None = None,
    quarantined: IntArray | None = None,
    tracer: "Tracer | None" = None,
    backend: "KernelBackend | str | None" = None,
) -> tuple[BDMAResult, str]:
    """The degraded chain behind the primary solver.

    Tiers, in order, each validated against *state* before acceptance:

    1. ``greedy`` -- deterministic joint greedy P2-A (ascending device
       order, no rng) followed by the convex P2-B frequency solve.
    2. ``last_good`` -- the previous slot's assignment repaired into the
       current strategy space, with the previous frequencies clipped to
       bounds (no solver at all: survives even a broken P2-B).
    3. ``random`` -- a random feasible assignment at minimum clocks, the
       last-resort floor (always feasible when the space exists).

    Returns the decision plus the name of the tier that produced it;
    emits a ``fallback`` event and ``resilience.fallbacks`` /
    ``resilience.fallback.<tier>`` counters on *tracer*.  *backend* runs
    the greedy pass (bit-identical across backends); the greedy tier's
    P2-B frequency solve stays on the NumPy search either way.

    Raises:
        SolverError: Every tier failed (only possible when the strategy
            space itself is inconsistent with the state).
    """
    # Deferred: repro.baselines pulls in fixed_frequency, which imports
    # the controller, which imports this module -- a top-level import
    # here would close that cycle during package initialisation.
    from repro.baselines.greedy import solve_p2a_greedy

    tracer = as_tracer(tracer)
    failures: list[str] = []
    for tier in ("greedy", "last_good", "random"):
        try:
            if tier == "greedy":
                assignment = solve_p2a_greedy(
                    network, state, space, network.freq_min, None,
                    backend=backend,
                )
                frequencies = solve_p2b(
                    network, state, assignment, queue_backlog=queue_backlog, v=v
                )
            elif tier == "last_good":
                if previous is None:
                    continue
                bs_of, server_of = space.repair(
                    previous.bs_of, previous.server_of, rng
                )
                assignment = Assignment(bs_of=bs_of, server_of=server_of)
                if previous_frequencies is not None:
                    frequencies = np.clip(
                        previous_frequencies, network.freq_min, network.freq_max
                    )
                else:
                    frequencies = network.freq_min.copy()
            else:
                bs_of, server_of = space.random_assignment(rng)
                assignment = Assignment(bs_of=bs_of, server_of=server_of)
                frequencies = network.freq_min.copy()
            allocation = optimal_allocation(network, state, assignment)
            decision = Decision(
                assignment=assignment,
                allocation=allocation,
                frequencies=frequencies,
            )
            validate_decision(
                network, state, decision, quarantined=quarantined
            )
        except ReproError as exc:
            failures.append(f"{tier}: {exc}")
            continue
        latency = optimal_total_latency(network, state, assignment, frequencies)
        cost = energy_cost(
            network, frequencies, state.price, available=state.available_servers
        )
        objective = v * latency + queue_backlog * (cost - budget)
        if tracer.enabled:
            tracer.counter("resilience.fallbacks", 1)
            tracer.counter(f"resilience.fallback.{tier}", 1)
            tracer.event("fallback", {"t": state.t, "tier": tier})
        return (
            BDMAResult(
                assignment=assignment,
                frequencies=np.asarray(frequencies, dtype=np.float64),
                objective=objective,
                latency=latency,
                cost=cost,
            ),
            tier,
        )
    raise SolverError(
        "every fallback tier failed: " + "; ".join(failures)
    )
