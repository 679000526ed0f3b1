"""Algorithm 1: the online DPP controller.

Each slot the controller observes ``beta_t``, solves P2 (by BDMA with a
pluggable P2-A solver, so *BDMA-based DPP*, *ROPT-based DPP*, and
*MCBA-based DPP* are all instances of the same class), recovers the
closed-form optimal resource allocation of Lemma 1, and updates the
virtual queue with the realised energy-cost overshoot.
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass

import numpy as np

from repro.core.allocation import optimal_allocation
from repro.core.bdma import (
    P2ASolver,
    can_fuse,
    cgba_p2a_solver,
    round_events,
    solve_p2_bdma,
    solve_p2_bdma_fused,
)
from repro.core.budget import BudgetSchedule, as_schedule
from repro.core.overload import OverloadPolicy, shed_tasks
from repro.core.resilience import (
    ResiliencePolicy,
    fallback_decision,
    find_infeasible_devices,
    quarantine_state,
)
from repro.core.state import Assignment, Decision, ResourceAllocation, SlotState
from repro.core.virtual_queue import VirtualQueue
from repro.exceptions import (
    ConfigurationError,
    InfeasibleError,
    InjectedFaultError,
    SolverError,
)
from repro.kernels import get_kernels
from repro.network.connectivity import StrategySpace
from repro.network.topology import MECNetwork
from repro.obs.probe import Tracer, as_tracer
from repro.obs.telemetry import maybe_instrument_kernels
from repro.solvers.potential_game import EngineStats
from repro.types import FloatArray, Rng

__all__ = [
    "SlotRecord",
    "OnlineController",
    "DPPController",
    "P2ASolver",
    "FEASIBILITY_GAUGES",
    "feasibility_maxima",
]


@dataclass(frozen=True)
class SlotRecord:
    """Everything a controller did and observed in one slot.

    Attributes:
        t: Slot index.
        assignment: The discrete selections performed.
        frequencies: Server clocks (GHz) chosen for the slot.
        allocation: Lemma-1 optimal shares actually granted.
        latency: Realised overall latency ``T_t`` (seconds summed over
            devices).
        cost: Realised energy cost ``C_t``.
        theta: ``C_t - Cbar``.
        backlog_before: ``Q(t)`` used when deciding.
        backlog_after: ``Q(t+1)`` after the update (Eq. 21).
        solve_seconds: Wall-clock time spent deciding.
        engine_stats: Best-response-engine work counters aggregated over
            the slot's BDMA rounds (``None`` for P2-A solvers that do
            not report them).
        fallback: Which solver produced the decision: ``"primary"`` (the
            healthy path) or a degraded tier (``"greedy"``,
            ``"last_good"``, ``"random"``) from the resilience fallback
            chain.
        quarantined: Devices excluded this slot because their strategy
            set was genuinely empty (served with zero demand).
        shed: Devices whose tasks were shed this slot by the overload
            policy's admission control (served with zero demand; see
            :class:`~repro.core.overload.OverloadPolicy`).
    """

    t: int
    assignment: Assignment
    frequencies: FloatArray
    allocation: ResourceAllocation
    latency: float
    cost: float
    theta: float
    backlog_before: float
    backlog_after: float
    solve_seconds: float
    engine_stats: EngineStats | None = None
    fallback: str = "primary"
    quarantined: tuple[int, ...] = ()
    shed: tuple[int, ...] = ()

    def decision(self) -> Decision:
        """Bundle the slot's choices as a :class:`Decision`."""
        return Decision(
            assignment=self.assignment,
            allocation=self.allocation,
            frequencies=self.frequencies,
        )

    def to_dict(self, *, include_arrays: bool = False) -> dict:
        """JSON-ready view of the record, shared by the JSONL trace sink
        and :mod:`repro.io`.

        Args:
            include_arrays: Also include the bulky per-device/per-server
                decision arrays (assignments, frequencies, allocation
                shares) as plain lists.
        """
        out: dict = {
            "t": int(self.t),
            "latency": float(self.latency),
            "cost": float(self.cost),
            "theta": float(self.theta),
            "backlog_before": float(self.backlog_before),
            "backlog_after": float(self.backlog_after),
            "solve_seconds": float(self.solve_seconds),
        }
        if self.engine_stats is not None:
            out["engine_stats"] = self.engine_stats.to_dict()
        # Only present on degraded slots, so healthy traces (and the CI
        # trace baseline) keep their exact shape.
        if self.fallback != "primary":
            out["fallback"] = self.fallback
        if self.quarantined:
            out["quarantined"] = list(self.quarantined)
        if self.shed:
            out["shed"] = list(self.shed)
        if include_arrays:
            out["bs_of"] = self.assignment.bs_of.tolist()
            out["server_of"] = self.assignment.server_of.tolist()
            out["frequencies"] = np.asarray(self.frequencies).tolist()
            out["access_share"] = np.asarray(
                self.allocation.access_share
            ).tolist()
            out["compute_share"] = np.asarray(
                self.allocation.compute_share
            ).tolist()
        return out


#: The per-slot gauges :class:`repro.obs.monitors.FeasibilityMonitor`
#: reads, in :func:`feasibility_maxima`'s order.
FEASIBILITY_GAUGES = (
    "feas.access_share_max",
    "feas.fronthaul_share_max",
    "feas.compute_share_max",
    "feas.freq_excess",
)


def feasibility_maxima(
    network: MECNetwork,
    state: SlotState,
    assignment: Assignment,
    allocation: ResourceAllocation,
    frequencies: FloatArray,
) -> "tuple[float, float, float, float]":
    """The values of :data:`FEASIBILITY_GAUGES` for a Python-loop slot
    (a fused slot's kernel returns them).

    Worst cases over the slot: the largest access/fronthaul share sum on
    any base station, the largest compute share sum on any server
    (constraints (4)-(6), each must be ``<= 1``), and the largest clock
    excursion outside ``[F^L, F^U]`` among powered servers (must be 0).
    """
    num_bs, num_servers = network.num_base_stations, network.num_servers
    groups = np.concatenate(
        (assignment.bs_of, assignment.bs_of + num_bs, assignment.server_of + 2 * num_bs)
    )
    shares = np.concatenate(
        (allocation.access_share, allocation.fronthaul_share, allocation.compute_share)
    )
    totals = np.bincount(groups, weights=shares, minlength=2 * num_bs + num_servers)
    freqs = np.asarray(frequencies, dtype=np.float64)
    excess = np.maximum(freqs - network.freq_max, 0.0) + np.maximum(
        network.freq_min - freqs, 0.0
    )
    if state.available_servers is not None:
        excess = excess[state.available_servers]
    return (
        float(totals[:num_bs].max(initial=0.0)),
        float(totals[num_bs : 2 * num_bs].max(initial=0.0)),
        float(totals[2 * num_bs :].max(initial=0.0)),
        float(excess.max(initial=0.0)),
    )


class OnlineController(abc.ABC):
    """An online policy: one decision per observed slot state."""

    @abc.abstractmethod
    def step(self, state: SlotState) -> SlotRecord:
        """Observe ``beta_t``, decide ``alpha_t``, and account for it."""

    @abc.abstractmethod
    def reset(self) -> None:
        """Clear internal state between independent runs."""


class DPPController(OnlineController):
    """BDMA-based DPP (Algorithm 1), generic in the P2-A solver.

    Args:
        network: Static topology.
        rng: Randomness used by the per-slot solver.
        v: The DPP trade-off parameter ``V`` (larger favours latency).
        budget: The time-average energy-cost budget ``Cbar`` -- a float
            for the paper's constant reference, or a
            :class:`~repro.core.budget.BudgetSchedule` for time-varying
            pacing with the same long-run constraint (the queue only
            sees the running sum of ``C_t - Cbar_t``).
        z: BDMA alternation rounds (Algorithm 2's tunable).
        p2a_solver: P2-A solver; CGBA(0) when omitted.  Pass the ROPT or
            MCBA solvers from :mod:`repro.baselines` to reproduce the
            paper's *ROPT-based DPP* / *MCBA-based DPP* baselines.
        initial_backlog: ``Q(1)``.
        warm_start: Seed each BDMA round with the previous assignment.
        carry_over: Seed each slot's first BDMA round with the previous
            slot's assignment.  System states evolve smoothly, so the
            previous equilibrium is a near-optimal start; disable for the
            literal Algorithm 1 (fresh random profile every slot).
        tracer: Observability tracer (:class:`repro.obs.Probe` to
            record, ``None``/:data:`repro.obs.NULL_TRACER` to disable).
            When enabled, every step is wrapped in a ``slot`` span with
            nested ``state``/``bdma``/``allocation``/``queue`` phases.
        resilience: Degraded-mode policy
            (:class:`repro.core.resilience.ResiliencePolicy`).  ``None``
            (the default) keeps the historical fail-fast behaviour; with
            a policy, solver failures run the fallback chain, infeasible
            devices are quarantined with explicit accounting, and the
            per-slot watchdog (deadline + iteration cap) bounds solve
            time.  Healthy slots are bit-identical either way.
        overload: Optional :class:`~repro.core.overload.OverloadPolicy`.
            When the virtual-queue backlog crosses the policy's high
            watermark the controller sheds a deterministic fraction of
            the heaviest tasks per slot (admission control: shed
            devices are served with zero demand, listed on the
            :class:`SlotRecord`, and counted in
            ``repro_shed_tasks_total``) until the backlog drains below
            the low watermark.  ``None`` (default) never sheds --
            below the high watermark the two are bit-identical.
        engine_backend: Array-kernel backend (``"numpy"``/``"jit"``)
            for the per-slot solvers' hot loops; resolved once at
            construction via :func:`repro.kernels.get_kernels`.
            Backends are bit-identical by contract, so this changes
            wall-clock only.  Externally supplied ``p2a_solver``
            callables keep whatever backend they were built with.
    """

    def __init__(
        self,
        network: MECNetwork,
        rng: Rng,
        *,
        v: float,
        budget: "float | BudgetSchedule",
        z: int = 5,
        p2a_solver: P2ASolver | None = None,
        initial_backlog: float = 0.0,
        warm_start: bool = True,
        carry_over: bool = True,
        tracer: "Tracer | None" = None,
        resilience: ResiliencePolicy | None = None,
        overload: OverloadPolicy | None = None,
        engine_backend: str | None = None,
    ) -> None:
        if v <= 0.0:
            raise ConfigurationError(f"V must be positive, got {v}")
        self.network = network
        self.rng = rng
        self.v = float(v)
        self.budget_schedule = as_schedule(budget)
        #: Time-average budget (the actual constraint), for reporting.
        self.budget = self.budget_schedule.average
        self.z = int(z)
        self.p2a_solver = p2a_solver
        self.warm_start = bool(warm_start)
        self.carry_over = bool(carry_over)
        self.tracer = as_tracer(tracer)
        self.resilience = resilience
        self.overload = overload
        # Hysteresis flag: whether the previous slot left the
        # controller in overload (crosses slots, so it rides
        # state_dict for checkpoint/resume and sharded salvage).
        self._overloaded = False
        # Resolve once so an unavailable jit provider warns here, at
        # construction, rather than on every slot.  Under an active
        # telemetry context the resolved backend gains per-call
        # wall-clock histograms (repro_kernel_seconds); get_kernels
        # passes resolved backends through unchanged, so the
        # instrumented callables reach every downstream call site
        # (P2-B, the congestion game, the fast engine).
        self.engine_backend = maybe_instrument_kernels(
            get_kernels(engine_backend)
        )
        if (
            resilience is not None
            and p2a_solver is None
            and (resilience.max_engine_iter is not None or resilience.accept_partial)
        ):
            # Same default CGBA solver solve_p2_bdma would build, with
            # the watchdog's iteration cap and partial-acceptance knobs.
            self.p2a_solver = cgba_p2a_solver(
                tracer=self.tracer,
                max_iter=(
                    resilience.max_engine_iter
                    if resilience.max_engine_iter is not None
                    else 100_000
                ),
                accept_partial=resilience.accept_partial,
                backend=self.engine_backend,
            )
        # The default CGBA solver solve_p2_bdma would build per slot,
        # built once: it keeps its P2-A workspace (game and engine)
        # across slots.  Private, so p2a_solver keeps meaning "the
        # solver the caller chose".
        self._default_p2a_solver = cgba_p2a_solver(
            tracer=self.tracer, backend=self.engine_backend
        )
        self._initial_backlog = float(initial_backlog)
        self.queue = VirtualQueue(initial_backlog, tracer=self.tracer)
        self._space: StrategySpace | None = None
        self._space_key: tuple | None = None
        self._space_reused = False
        # The P2-A solver can_fuse was last asked about, and its answer.
        self._fusable: tuple[object, bool] = (None, False)
        self._previous: Assignment | None = None
        # Last accepted decision, kept regardless of the carry-over
        # knobs: it feeds the fallback chain's last-known-good tier.
        self._last_assignment: Assignment | None = None
        self._last_frequencies: FloatArray | None = None

    def strategy_space(self, state: SlotState) -> StrategySpace:
        """The feasible strategy sets under the slot's coverage, cached.

        Coverage is static in the default scenario so the space is built
        once and every later slot short-circuits on a key comparison:
        the coverage mask's shape and bytes and the availability mask's
        bytes, which are equal exactly when both boolean masks are
        equal.  With mobility or server faults the masks differ and the
        space is rebuilt.  ``step`` also skips the carry-over repair on
        a cache hit, since an assignment produced under the identical
        space is feasible by construction.
        """
        coverage = state.coverage()
        available = state.available_servers
        key = (
            coverage.shape,
            coverage.tobytes(),
            None if available is None else available.tobytes(),
        )
        if self._space is not None and key == self._space_key:
            self._space_reused = True
            return self._space
        self._space = StrategySpace(self.network, coverage, available)
        self._space_key = key
        self._space_reused = False
        return self._space

    def step(self, state: SlotState) -> SlotRecord:
        """Decide one slot.

        The slot's BDMA and Lemma-1 allocation run as one kernel call
        (:func:`~repro.core.bdma.solve_p2_bdma_fused`) when the backend
        has a fused slot kernel, the P2-A solver is a
        :func:`~repro.core.bdma.cgba_p2a_solver` on that backend and the
        network's energy models are quadratic; every other
        configuration runs the Python loop
        (:func:`~repro.core.bdma.solve_p2_bdma` and
        :func:`~repro.core.allocation.optimal_allocation`), which the
        fused call reproduces bit for bit.  Quarantine, shedding,
        carry-over repair, chaos trips and the fallback chain stay in
        Python either way.
        """
        tracer = self.tracer
        policy = self.resilience
        with tracer.span("slot"):
            with tracer.span("state"):
                quarantined = np.empty(0, dtype=np.int64)
                effective = state
                if policy is not None and policy.quarantine:
                    try:
                        space = self.strategy_space(state)
                    except InfeasibleError:
                        quarantined = find_infeasible_devices(self.network, state)
                        effective = quarantine_state(
                            self.network, state, quarantined
                        )
                        space = self.strategy_space(effective)
                        if tracer.enabled:
                            tracer.counter(
                                "resilience.quarantined", int(quarantined.size)
                            )
                            tracer.event(
                                "quarantine",
                                {"t": state.t, "devices": quarantined.tolist()},
                            )
                else:
                    space = self.strategy_space(state)
                backlog_before = self.queue.backlog
                shed: tuple[int, ...] = ()
                if self.overload is not None:
                    self._overloaded = self.overload.engaged(
                        self._overloaded, backlog_before
                    )
                    if tracer.enabled:
                        tracer.gauge(
                            "overload.state", 1.0 if self._overloaded else 0.0
                        )
                    if self._overloaded:
                        # Admission control: zero the heaviest devices'
                        # demand.  Coverage is untouched, so the
                        # strategy space built above stays valid;
                        # quarantined devices already carry zero demand
                        # and sort last, so they are never re-shed.
                        to_shed = self.overload.select(effective.cycles)
                        if to_shed.size:
                            effective = shed_tasks(effective, to_shed)
                            shed = tuple(int(i) for i in to_shed)
                            if tracer.enabled:
                                tracer.event(
                                    "shed",
                                    {"t": state.t, "devices": list(shed)},
                                )
                if (
                    self.carry_over
                    and self._previous is not None
                    and not self._space_reused
                ):
                    # Mobility can invalidate last slot's pairs; repair
                    # before reuse.
                    bs_of, server_of = space.repair(
                        self._previous.bs_of, self._previous.server_of, self.rng
                    )
                    self._previous = Assignment(bs_of=bs_of, server_of=server_of)
                slot_budget = self.budget_schedule.budget_at(state.t)
            started = time.perf_counter()
            fallback_tier = "primary"
            deadline = (
                started + policy.deadline_seconds
                if policy is not None and policy.deadline_seconds is not None
                else None
            )
            solver = (
                self.p2a_solver
                if self.p2a_solver is not None
                else self._default_p2a_solver
            )
            if solver is not self._fusable[0]:
                self._fusable = (
                    solver,
                    can_fuse(self.network, solver, self.engine_backend),
                )
            fused = None
            with tracer.span("bdma"):
                try:
                    if (
                        policy is not None
                        and policy.chaos is not None
                        and policy.chaos.trips(state.t)
                    ):
                        raise InjectedFaultError(
                            f"chaos: injected solver failure at slot {state.t}"
                        )
                    options = dict(
                        queue_backlog=backlog_before,
                        v=self.v,
                        budget=slot_budget,
                        z=self.z,
                        p2a_solver=solver,
                        warm_start=self.warm_start,
                        initial=self._previous if self.carry_over else None,
                        tracer=tracer,
                        deadline=deadline,
                    )
                    if self._fusable[1]:
                        fused = solve_p2_bdma_fused(
                            self.network, effective, space, self.rng, **options
                        )
                        result = fused.result
                    else:
                        result = solve_p2_bdma(
                            self.network,
                            effective,
                            space,
                            self.rng,
                            backend=self.engine_backend,
                            **options,
                        )
                except SolverError as exc:
                    if policy is None or not policy.fallback:
                        raise
                    if tracer.enabled:
                        tracer.event(
                            "solver_failure",
                            {"t": state.t, "error": str(exc)},
                        )
                    result, fallback_tier = fallback_decision(
                        self.network,
                        effective,
                        space,
                        self.rng,
                        queue_backlog=backlog_before,
                        v=self.v,
                        budget=slot_budget,
                        previous=self._last_assignment,
                        previous_frequencies=self._last_frequencies,
                        quarantined=quarantined if quarantined.size else None,
                        tracer=tracer,
                        backend=self.engine_backend,
                    )
            solve_seconds = time.perf_counter() - started
            if self.carry_over:
                self._previous = result.assignment
            self._last_assignment = result.assignment
            self._last_frequencies = result.frequencies

            # BDMA scored the winning round with exactly the latency and
            # cost calls; reuse its floats instead of recomputing.
            latency = result.latency
            cost = result.cost
            if fused is not None and fused.rounds is not None:
                # The kernel's sub-spans and counters, delivered once
                # the bdma span has timed the decision itself.
                tracer.defer(round_events, fused.rounds)
            with tracer.span("allocation"):
                # A fused slot's kernel already computed and checked the
                # shares and their feasibility maxima; wrapping them is
                # what is left.
                if fused is None:
                    allocation = optimal_allocation(
                        self.network, effective, result.assignment
                    )
                    if tracer.enabled:
                        feasibility = feasibility_maxima(
                            self.network,
                            effective,
                            result.assignment,
                            allocation,
                            result.frequencies,
                        )
                else:
                    allocation = fused.allocation()
                    feasibility = fused.feasibility
                if tracer.enabled:
                    for name, value in zip(FEASIBILITY_GAUGES, feasibility):
                        tracer.gauge(name, value)
            with tracer.span("queue"):
                theta = cost - slot_budget
                backlog_after = self.queue.update(theta)
        return SlotRecord(
            t=state.t,
            assignment=result.assignment,
            frequencies=result.frequencies,
            allocation=allocation,
            latency=latency,
            cost=cost,
            theta=theta,
            backlog_before=backlog_before,
            backlog_after=backlog_after,
            solve_seconds=solve_seconds,
            engine_stats=result.engine_stats,
            fallback=fallback_tier,
            quarantined=tuple(quarantined.tolist()),
            shed=shed,
        )

    def reset(self) -> None:
        self.queue = VirtualQueue(self._initial_backlog, tracer=self.tracer)
        self._space = None
        self._space_key = None
        self._space_reused = False
        self._previous = None
        self._last_assignment = None
        self._last_frequencies = None
        self._overloaded = False

    def state_dict(self) -> dict:
        """Serializable controller state (for checkpoint/resume).

        Captures everything :meth:`step` reads across slots: the virtual
        queue backlog, the solver rng's bit-generator state, the
        carried-over assignment and the last accepted decision.  The
        strategy-space cache is deliberately omitted -- it is rebuilt
        from the first resumed slot's coverage, and :meth:`repair`
        draws randomness only for infeasible entries, so a rebuild
        consumes no rng when coverage is unchanged.
        """

        def _assignment(a: Assignment | None) -> dict | None:
            if a is None:
                return None
            return {"bs_of": a.bs_of.tolist(), "server_of": a.server_of.tolist()}

        def _freqs(f: FloatArray | None) -> list | None:
            return None if f is None else np.asarray(f, dtype=np.float64).tolist()

        return {
            "backlog": float(self.queue.backlog),
            "rng": self.rng.bit_generator.state,
            "previous": _assignment(self._previous),
            "last_assignment": _assignment(self._last_assignment),
            "last_frequencies": _freqs(self._last_frequencies),
            "overload_active": bool(self._overloaded),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore controller state captured by :meth:`state_dict`.

        Keys this version no longer writes (``previous_freqs``) are
        ignored, so older checkpoints still resume.
        """

        def _assignment(data: dict | None) -> Assignment | None:
            if data is None:
                return None
            return Assignment(
                bs_of=np.asarray(data["bs_of"], dtype=np.int64),
                server_of=np.asarray(data["server_of"], dtype=np.int64),
            )

        def _freqs(data) -> FloatArray | None:
            return None if data is None else np.asarray(data, dtype=np.float64)

        self.queue = VirtualQueue(float(state["backlog"]), tracer=self.tracer)
        self.rng.bit_generator.state = state["rng"]
        self._previous = _assignment(state.get("previous"))
        self._last_assignment = _assignment(state.get("last_assignment"))
        self._last_frequencies = _freqs(state.get("last_frequencies"))
        self._overloaded = bool(state.get("overload_active", False))
        self._space = None
        self._space_key = None
        self._space_reused = False
