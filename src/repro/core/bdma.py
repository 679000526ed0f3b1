"""BDMA (Algorithm 2): alternating minimisation for P2.

P2 couples the NP-hard discrete selection ``(x, y)`` with the convex
frequency decision ``Omega``.  Motivated by Benders' decomposition, BDMA
alternates: starting from ``Omega = Omega^L`` (all servers at their
lowest clock), it solves P2-A for ``(x, y)`` under the current ``Omega``
(via a pluggable P2-A solver, CGBA by default), then P2-B for ``Omega``
under the new ``(x, y)``, for ``z`` rounds, returning the best
``f(x, y, Omega)`` seen.  Theorem 3 gives the
``R = 2.62 R_F / (1 - 8 lambda)`` guarantee already for ``z = 1``;
larger ``z`` can only improve the returned objective.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import NamedTuple, Protocol

import numpy as np

from repro.core.cgba import CGBAResult, solve_p2a_cgba
from repro.core.congestion_game import OffloadingCongestionGame
from repro.core.drift_penalty import energy_cost
from repro.core.latency import effective_fronthaul_se, optimal_total_latency
from repro.core.p2b import solve_p2b
from repro.core.state import Assignment, ResourceAllocation, SlotState
from repro.exceptions import (
    ConfigurationError,
    ConvergenceError,
    DeadlineError,
    ValidationError,
)
from repro.kernels import KernelBackend, get_kernels
from repro.network.connectivity import StrategySpace
from repro.network.topology import MECNetwork
from repro.obs.probe import Tracer, as_tracer
from repro.solvers.potential_game import EngineStats
from repro.types import FloatArray, Rng


class P2ASolver(Protocol):
    """Anything that produces an assignment for P2-A under fixed ``Omega``.

    Implementations: CGBA (the paper's algorithm), ROPT (uniform random),
    MCBA (Markov-chain Monte Carlo), and the exact branch-and-bound
    baseline; the DPP controller composes with any of them.
    """

    def __call__(
        self,
        network: MECNetwork,
        state: SlotState,
        space: StrategySpace,
        frequencies: FloatArray,
        rng: Rng,
        *,
        initial: Assignment | None,
    ) -> Assignment: ...


def cgba_p2a_solver(
    *,
    slack: float = 0.0,
    max_iter: int = 100_000,
    tracer: "Tracer | None" = None,
    accept_partial: bool = False,
    backend: "KernelBackend | str | None" = None,
) -> P2ASolver:
    """The default P2-A solver: CGBA(lambda) (Algorithm 3).

    The returned callable accumulates the best-response engine's work
    counters across calls; BDMA drains them via ``pop_stats()`` so each
    slot's :class:`BDMAResult` reports the engine work it caused.

    The callable keeps one P2-A workspace: the congestion game and
    best-response engine of its last call.  A call on the same
    ``network`` and ``space`` objects -- BDMA's alternation rounds, and
    every slot of a controller whose coverage does not change -- refills
    that game in place (``rebind`` on a new slot state) and restarts the
    engine instead of building both, which is bit-identical to fresh
    construction (see ``solve_p2a_cgba``'s ``reuse``).  A new space, as
    after a fault or under mobility, builds a new game that replaces the
    old one.  Build one solver per controller so the workspace persists.

    ``accept_partial`` forwards to :func:`solve_p2a_cgba`: a run that
    exhausts ``max_iter`` returns its best-so-far profile (with a
    ``resilience.partial_accepts`` counter) instead of raising
    :class:`~repro.exceptions.ConvergenceError` -- the iteration-cap
    half of degraded-mode execution.

    ``backend`` selects the array-kernel backend for the congestion
    game's hot loops (bit-identical across backends; wall-clock only).

    The callable exposes what the fused slot kernel needs to run CGBA
    in its place (:func:`solve_p2_bdma_fused`): ``max_iter``, the
    resolved ``kernels`` and ``fused_slot(network, space, z)``, which
    returns the slot binding of that pair for up to ``z`` rounds -- the
    P2-A workspace's game (an unbound one when the last call played
    elsewhere) bound to the kernel with this solver's settings, built
    once per strategy space.
    """
    kernels = get_kernels(backend)
    accumulated = EngineStats()
    last: "CGBAResult | _Workspace | None" = None
    bound: "_FusedSlotBinding | None" = None

    def solve(
        network: MECNetwork,
        state: SlotState,
        space: StrategySpace,
        frequencies: FloatArray,
        rng: Rng,
        *,
        initial: Assignment | None,
    ) -> Assignment:
        nonlocal last
        result = solve_p2a_cgba(
            network,
            state,
            space,
            frequencies,
            rng,
            slack=slack,
            initial=initial,
            max_iter=max_iter,
            tracer=tracer,
            reuse=last,
            accept_partial=accept_partial,
            backend=backend,
        )
        last = result
        if result.engine_stats is not None:
            accumulated.merge(result.engine_stats)
        return result.assignment

    def pop_stats() -> EngineStats:
        nonlocal accumulated
        stats, accumulated = accumulated, EngineStats()
        return stats

    def workspace(
        network: MECNetwork, space: StrategySpace
    ) -> OffloadingCongestionGame:
        nonlocal last
        game = last.game if last is not None else None
        if (
            game is None
            or game.network is not network
            or game.space is not space
            or game.kernels is not kernels
        ):
            game = OffloadingCongestionGame.unbound(network, space, kernels=kernels)
            last = _Workspace(game)
        return game

    def fused_slot(
        network: MECNetwork, space: StrategySpace, z: int
    ) -> "_FusedSlotBinding":
        nonlocal bound
        if (
            bound is not None
            and bound.space is space
            and bound.network is network
            and bound.kernel.rounds >= z
        ):
            return bound
        bound = _FusedSlotBinding(
            workspace(network, space), z, slack, max_iter, accept_partial
        )
        return bound

    solve.pop_stats = pop_stats  # type: ignore[attr-defined]
    solve.fused_slot = fused_slot  # type: ignore[attr-defined]
    solve.kernels = kernels  # type: ignore[attr-defined]
    solve.max_iter = max_iter  # type: ignore[attr-defined]
    # Warm-seeded CGBA is deterministic (max_gap selection, no rng once
    # an initial profile is given) and returns its seed at a fixed
    # point, which is what lets BDMA's fixed-point exit replay the
    # remaining rounds without running them.
    solve.supports_fixed_point = True  # type: ignore[attr-defined]
    return solve


class _Workspace(NamedTuple):
    """A P2-A workspace no CGBA call has run on yet (what
    ``solve_p2a_cgba``'s ``reuse`` reads of a result)."""

    game: OffloadingCongestionGame
    fast_engine: None = None


class _FusedSlotBinding:
    """What :func:`solve_p2_bdma_fused` resolves once per strategy
    space: the P2-A workspace's game, the kernel's
    :class:`~repro.kernels._adapt.SlotBinding` on it for up to
    ``rounds`` rounds, and the sizes the engine counters and the span
    replay need."""

    __slots__ = (
        "network", "space", "game", "kernel", "players", "candidates",
        "trace",
    )

    def __init__(
        self,
        game: OffloadingCongestionGame,
        rounds: int,
        slack: float,
        max_iter: int,
        accept_partial: bool,
    ) -> None:
        self.network = game.network
        self.space = game.space
        self.game = game
        self.kernel = game.kernels.bdma_slot(
            game.kernel_state(), rounds, slack, max_iter, accept_partial
        )
        self.players = game.num_players
        self.candidates = game.candidate_count()
        self.trace = (
            self.players,
            self.candidates,
            game.network.num_servers,
            accept_partial,
        )


@dataclass
class BDMAResult:
    """Outcome of one BDMA(z) run on P2.

    Attributes:
        assignment: Best discrete selections found.
        frequencies: Best clock frequencies found (GHz).
        objective: ``f(x, y, Omega)`` of the returned decision.
        latency: ``T_t`` of the returned decision -- the latency term
            already evaluated while scoring the round, so callers
            (the DPP controller) need not recompute it.
        cost: ``C_t`` of the returned decision, likewise.
        objective_history: Objective after each of the ``z`` rounds
            (non-increasing in its running minimum by construction).
        engine_stats: Aggregated best-response-engine counters across
            all ``z`` P2-A solves, when the solver reports them.
    """

    assignment: Assignment
    frequencies: FloatArray
    objective: float
    latency: float = 0.0
    cost: float = 0.0
    objective_history: list[float] = field(default_factory=list)
    engine_stats: EngineStats | None = None


def solve_p2_bdma(
    network: MECNetwork,
    state: SlotState,
    space: StrategySpace,
    rng: Rng,
    *,
    queue_backlog: float,
    v: float,
    budget: float,
    z: int = 5,
    p2a_solver: P2ASolver | None = None,
    warm_start: bool = True,
    initial: Assignment | None = None,
    tracer: "Tracer | None" = None,
    deadline: float | None = None,
    backend: "KernelBackend | str | None" = None,
) -> BDMAResult:
    """Solve P2 by alternating P2-A and P2-B for ``z`` rounds.

    Args:
        network: Static topology.
        state: The slot's system state ``beta_t``.
        space: Feasible strategy sets.
        rng: Randomness for the P2-A solver's initial profiles.
        queue_backlog: The virtual queue ``Q(t)``.
        v: DPP trade-off parameter ``V``.
        budget: The time-average cost budget ``Cbar``.
        z: Number of alternation rounds (Algorithm 2's tunable).
        p2a_solver: P2-A solver; a new CGBA(0) solver when omitted (pass
            one ``cgba_p2a_solver()`` to many calls to keep its game and
            engine across them, as the DPP controller does).
        warm_start: Seed each round's P2-A solve with the previous
            round's assignment.  Algorithm 3 as printed starts from a
            random profile every time; warm starting reaches the same
            fixed points in fewer moves and is the practical choice.
            Set ``False`` for the literal algorithm.
        initial: Seed the *first* round's P2-A solve with this
            assignment (e.g. the previous slot's decision); only used
            when ``warm_start`` is enabled.
        tracer: Observability tracer; when enabled, every round's P2-A
            and P2-B solve runs inside ``p2a``/``p2b`` spans, and the
            counters ``bdma.rounds`` (alternation rounds actually
            executed) and ``engine.warm_start_hits`` (rounds whose
            warm-seeded P2-A solve returned its seed, counting replayed
            rounds) are emitted.  The default CGBA solver is constructed
            with the same tracer so engine counters flow through;
            externally supplied ``p2a_solver`` callables are timed but
            not internally instrumented.
        deadline: Optional wall-clock deadline as a ``time.perf_counter``
            value (the solver-watchdog half of degraded-mode execution).
            Checked between alternation rounds: once expired, the best
            decision so far is returned immediately (with a
            ``resilience.deadline_truncations`` counter).  If the
            deadline expires before even one round finished, a
            :class:`~repro.exceptions.DeadlineError` is raised for the
            caller's fallback chain.  ``None`` (the default) never
            truncates, so healthy runs are bit-identical.
        backend: Array-kernel backend (``"numpy"``/``"jit"``) used by
            the default CGBA solver's congestion game and by the P2-B
            frequency search.  Backends are bit-identical by contract,
            so this changes wall-clock only.  An externally supplied
            ``p2a_solver`` is not affected (configure its backend at
            construction); P2-B still honours the choice.

    Returns:
        The best decision by P2 objective across all rounds.

    Raises:
        DeadlineError: The ``deadline`` expired with zero completed
            rounds.

    Notes:
        **Fixed-point exit (bit-exact, always on when eligible).**  When
        ``warm_start`` is enabled and the solver advertises
        ``supports_fixed_point`` (the default CGBA solver does), a round
        whose P2-A solve returns its own seed ends the alternation
        early: P2-B depends only on the assignment, so it would return
        last round's frequencies bit for bit, the objective would
        repeat, and the next warm-seeded P2-A solve -- deterministic,
        consuming no randomness -- would return the same assignment
        again.  Every remaining round is therefore an exact replay; the
        returned decision and ``objective_history`` are bit-identical to
        running all ``z`` rounds, only the engine work counters shrink.
    """
    if z < 1:
        raise ConfigurationError(f"z must be a positive integer, got {z}")
    if v <= 0.0:
        raise ConfigurationError(f"V must be positive, got {v}")
    if queue_backlog < 0.0:
        raise ConfigurationError("queue backlog cannot be negative")
    tracer = as_tracer(tracer)
    solver = (
        p2a_solver
        if p2a_solver is not None
        else cgba_p2a_solver(tracer=tracer, backend=backend)
    )
    pop_stats = getattr(solver, "pop_stats", None)
    if callable(pop_stats):
        pop_stats()  # discard counters accumulated by earlier callers

    frequencies = network.freq_min.copy()  # Omega^L (Algorithm 2, line 1)
    best_objective = float("inf")
    best_assignment: Assignment | None = None
    best_frequencies = frequencies.copy()
    best_latency = 0.0
    best_cost = 0.0
    history: list[float] = []
    previous: Assignment | None = initial
    fixed_point_capable = warm_start and getattr(
        solver, "supports_fixed_point", False
    )
    warm_hits = 0
    rounds_run = 0

    truncated = False
    for round_idx in range(z):
        if deadline is not None and time.perf_counter() >= deadline:
            if best_assignment is None:
                raise DeadlineError(_DEADLINE_MESSAGE)
            truncated = True
            # Pad the history like the fixed-point exit does, so its
            # length stays z regardless of where the truncation hit.
            history.extend([history[-1]] * (z - round_idx))
            break
        with tracer.span("p2a"):
            assignment = solver(
                network,
                state,
                space,
                frequencies,
                rng,
                initial=previous if warm_start else None,
            )
        rounds_run += 1
        if warm_start and previous is not None and _same(assignment, previous):
            warm_hits += 1
            if fixed_point_capable and round_idx > 0:
                # Alternation fixed point: ``frequencies`` already holds
                # P2-B of this very assignment (computed last round), so
                # this round and every later one replay bit for bit --
                # see the fixed-point note in the docstring.
                remaining = z - round_idx
                warm_hits += remaining - 1
                history.extend([history[-1]] * remaining)
                break
        with tracer.span("p2b"):
            frequencies = solve_p2b(
                network,
                state,
                assignment,
                queue_backlog=queue_backlog,
                v=v,
                tracer=tracer,
                backend=backend,
            )
        # dpp_objective's arithmetic, with the latency and cost terms
        # kept so the winning round's values ride along in the result
        # (the controller reports both; recomputing them per slot would
        # double the work for identical floats).
        latency = optimal_total_latency(network, state, assignment, frequencies)
        cost = energy_cost(
            network,
            frequencies,
            state.price,
            available=state.available_servers,
        )
        objective = v * latency + queue_backlog * (cost - budget)
        history.append(objective)
        if objective < best_objective:
            best_objective = objective
            best_assignment = assignment
            best_frequencies = frequencies.copy()
            best_latency = latency
            best_cost = cost
        previous = assignment

    if tracer.enabled:
        tracer.counter("bdma.rounds", rounds_run)
        tracer.counter("engine.warm_start_hits", warm_hits)
        if truncated:
            tracer.counter("resilience.deadline_truncations", 1)
    assert best_assignment is not None
    return BDMAResult(
        assignment=best_assignment,
        frequencies=best_frequencies,
        objective=best_objective,
        latency=best_latency,
        cost=best_cost,
        objective_history=history,
        engine_stats=pop_stats() if callable(pop_stats) else None,
    )


_DEADLINE_MESSAGE = "slot deadline expired before the first BDMA round finished"


def _same(a: Assignment, b: Assignment) -> bool:
    """Whether two assignments select the same pairs.

    ``Assignment`` holds contiguous int64 vectors, so equal shapes and
    equal bytes mean equal entries (``np.array_equal``, without its
    per-call overhead).
    """
    return (
        a.bs_of.shape == b.bs_of.shape
        and a.bs_of.tobytes() == b.bs_of.tobytes()
        and a.server_of.tobytes() == b.server_of.tobytes()
    )


class FusedSlot(NamedTuple):
    """One slot decided by the fused kernel (:func:`solve_p2_bdma_fused`).

    Attributes:
        result: The BDMA decision, as :func:`solve_p2_bdma` returns it.
        shares: Lemma 1's shares for ``result.assignment``, rows compute,
            access, fronthaul (what
            :func:`repro.core.allocation.optimal_allocation` computes).
        uncovered: A device whose chosen base station does not cover
            it (the shares are then not computed), or -1.
        invalid: Whether the kernel flagged a share as non-finite,
            negative or above ``1 + 1e-9``.
        rounds: The call's round rows for :func:`round_events`, to
            hand to ``Tracer.defer`` once the caller's ``bdma`` span
            has closed; ``None`` when untraced.
        feasibility: The allocation's ``feas.*`` gauge values
            (:data:`repro.core.controller.FEASIBILITY_GAUGES`), from
            the kernel; meaningful only when traced.
    """

    result: BDMAResult
    shares: np.ndarray
    uncovered: int
    invalid: bool
    rounds: "tuple | None"
    feasibility: "tuple[float, ...]" = ()

    def allocation(self) -> ResourceAllocation:
        """The shares as a :class:`ResourceAllocation`.

        The kernel checked every share's range and finiteness, so an
        unflagged slot skips the validating constructor; a flagged one
        runs it, which raises as on ``optimal_allocation``'s result.

        Raises:
            ValidationError: A device sits on a base station that does
                not cover it (``optimal_allocation``'s error), or a
                share lies outside ``[0, 1]``.
            ValueError: A share is not finite.
        """
        if self.uncovered >= 0:
            bad = self.uncovered
            raise ValidationError(
                f"device {bad} selected base station "
                f"{int(self.result.assignment.bs_of[bad])} "
                "with zero spectral efficiency"
            )
        shares = self.shares
        build = ResourceAllocation if self.invalid else ResourceAllocation.trusted
        return build(
            access_share=shares[1], fronthaul_share=shares[2], compute_share=shares[0]
        )


def round_events(payload: tuple, parent: str, t0: float):
    """The record entries of a fused call's rounds (``Tracer.defer``'s
    expansion), in the Python loop's order: per round the CGBA counters
    and spans, then P2-B's; a decided slot's rounds run, warm-start
    hits and truncation last.  The spans' paths are *parent* plus the
    payload's prefix (``"bdma/"`` once the bdma span has closed)."""
    prefix, rounds, times, done, players, candidates, servers, partial_ok = payload
    base = f"{parent}/{prefix}" if parent else prefix
    cgba, p2a, p2b = f"{base}p2a/cgba", f"{base}p2a", f"{base}p2b"
    for (stage, _, moves, converged, searched), t in zip(rounds, times):
        p2a_end = t[3]
        if stage >= 2:
            accepted = converged or partial_ok
            if not converged and accepted:
                yield 1, "resilience.partial_accepts", 1.0, None
            yield 0, cgba, t[6] - t[3], t[3] - t0
            if accepted:
                sweeps = moves + 1
                yield 1, "engine.moves", float(moves), None
                yield 1, "engine.sweeps", float(sweeps), None
                yield 1, "engine.gap_recomputations", float(players * sweeps), None
                yield (
                    1, "engine.candidate_evaluations",
                    float(candidates * sweeps), None,
                )
            p2a_end = t[6]
        yield 0, p2a, p2a_end - t[0], t[0] - t0
        if stage == 3:
            yield 1, "p2b.scalar_solves", float(searched), None
            yield 1, "p2b.fastpath", float(servers - searched), None
            yield 0, p2b, t[9] - t[7], t[7] - t0
    if done is not None:
        rounds_run, warm_hits, truncated = done
        yield 1, "bdma.rounds", float(rounds_run), None
        yield 1, "engine.warm_start_hits", float(warm_hits), None
        if truncated:
            yield 1, "resilience.deadline_truncations", 1.0, None


def _round_names(payload: tuple, parent: str) -> tuple:
    """The ``(kind, name)`` pairs :func:`round_events` yields for
    *payload* under *parent*, so a tracer can skip expanding rounds
    that no live sink reads."""
    prefix, rounds, _, done, *_, partial_ok = payload
    base = f"{parent}/{prefix}" if parent else prefix
    names = [(0, f"{base}p2a/cgba"), (0, f"{base}p2a"), (0, f"{base}p2b"), *_ROUND_COUNTERS]
    if partial_ok and any(r[0] >= 2 and not r[3] for r in rounds):
        names.append((1, "resilience.partial_accepts"))
    if done is not None and done[2]:
        names.append((1, "resilience.deadline_truncations"))
    return tuple(names)


_ROUND_COUNTERS = tuple(
    (1, name)
    for name in (
        "engine.moves", "engine.sweeps", "engine.gap_recomputations",
        "engine.candidate_evaluations", "p2b.scalar_solves", "p2b.fastpath",
        "bdma.rounds", "engine.warm_start_hits",
    )
)
round_events.names = _round_names


def can_fuse(network: MECNetwork, solver: object, kernels: KernelBackend) -> bool:
    """Whether :func:`solve_p2_bdma_fused` can run slots on *network*
    with *solver* on *kernels*: a backend with a fused slot kernel, a
    :func:`cgba_p2a_solver` on these very kernels, and quadratic energy
    models (``network.energy_table``)."""
    return (
        kernels.bdma_slot is not None
        and network.energy_table is not None
        and getattr(solver, "kernels", None) is kernels
        and callable(getattr(solver, "fused_slot", None))
    )


def solve_p2_bdma_fused(
    network: MECNetwork,
    state: SlotState,
    space: StrategySpace,
    rng: Rng,
    *,
    queue_backlog: float,
    v: float,
    budget: float,
    z: int,
    p2a_solver,
    warm_start: bool = True,
    initial: Assignment | None = None,
    tracer: "Tracer | None" = None,
    deadline: float | None = None,
) -> FusedSlot:
    """:func:`solve_p2_bdma` plus the slot's Lemma-1 allocation, in one
    kernel call.

    :func:`can_fuse` must hold for *network*, *p2a_solver* and the
    solver's kernels.  The call runs every round of the alternation in
    C (the P2-A workspace refill, CGBA's sweep and dynamics, P2-B's fast
    paths and golden-section search, the round's score, the
    deadline and fixed-point exits) and then Lemma 1 on the winner, bit
    for bit as the Python loop with the same solver: the decision, the
    engine counters, every tracer counter and the ``p2a``/``cgba``/
    ``p2b`` spans (replayed from the kernel's timestamps) come out the
    same.  Random first profiles are drawn here, before the call; when
    a failure or the deadline leaves some unused, the generator is
    rewound to where the Python loop would have left it.

    The Python left around the call is a thin shell: the solver's slot
    binding for *space* (built once per strategy space) holds the
    kernel's buffers and sizes, so a slot copies its arrays and seed
    profile in, packs its scalars into one buffer, and reads the
    decision, the engine totals and the share check back out.  The
    kernel checks every share's range and finiteness as it computes
    them, so :meth:`FusedSlot.allocation` and the decision's
    :class:`~repro.core.state.Assignment` skip the validating
    constructors; a flagged share takes the validating one.

    A failing call delivers its spans and counters to *tracer* before
    raising.  A decided slot leaves them in ``FusedSlot.replay`` for
    the caller to deliver once its ``bdma`` span has closed, so that
    span times the decision, not the tracer's bookkeeping.

    Raises:
        DeadlineError: The deadline expired before the first round.
        ConvergenceError: CGBA hit ``max_iter`` without
            ``accept_partial``.
        ConfigurationError: A first profile is infeasible for the slot.
    """
    if z < 1:
        raise ConfigurationError(f"z must be a positive integer, got {z}")
    if v <= 0.0:
        raise ConfigurationError(f"V must be positive, got {v}")
    if queue_backlog < 0.0:
        raise ConfigurationError("queue backlog cannot be negative")
    slot = p2a_solver.fused_slot(network, space, z)
    game, kernel = slot.game, slot.kernel
    seeds = kernel.seeds
    has_initial = initial is not None
    saved = None
    if warm_start and has_initial:
        drawn = 1
        seeds[0, 0] = initial.bs_of
        seeds[0, 1] = initial.server_of
    else:
        saved = rng.bit_generator.state
        drawn = 1 if warm_start else z
        for row in seeds[:drawn]:
            row[0], row[1] = space.random_assignment(rng)
    se, bits, cycles, fronthaul = kernel.slot_arrays
    if state.spectral_efficiency.shape != se.shape:
        raise ValueError(
            f"slot array has shape {state.spectral_efficiency.shape}, "
            f"expected {se.shape}"
        )
    se[...] = state.spectral_efficiency
    bits[...] = state.bits
    cycles[...] = state.cycles
    fronthaul[...] = effective_fronthaul_se(network, state)
    available = state.available_servers
    if available is not None:
        kernel.available[...] = available
    traced = tracer is not None and tracer.enabled
    kernel.pack(
        z, warm_start, has_initial, game.state is not state,
        deadline is not None, available is not None, traced,
        queue_backlog, v, budget, state.price,
        0.0 if deadline is None else deadline,
    )
    status = kernel.run()
    (
        started, rounds_run, warm_hits, truncated, uncovered, decided,
        invalid, moves, sweeps,
    ) = kernel.out_i.tolist()
    if started < drawn and saved is not None:
        # Rewind: the Python loop draws a profile only for rounds it
        # starts.
        rng.bit_generator.state = saved
        for _ in range(started):
            space.random_assignment(rng)
    if started:
        game.state = state
    if traced:
        rounds, times = kernel.kernel_rows()
    if status:
        # The loop's spans and counters up to the failure, inside the
        # caller's bdma span, ahead of any fallback's events.
        if traced:
            tracer.defer(round_events, ("", rounds, times, None, *slot.trace))
        if status == 1:
            raise DeadlineError(_DEADLINE_MESSAGE)
        if status == 2:
            raise ConvergenceError(
                f"best-response dynamics did not converge within "
                f"{p2a_solver.max_iter} moves"
            )
        if status == 3:
            raise game.infeasible_profile()
        raise IndexError("strategy profile entry out of range")
    assert decided
    payload = None
    if traced:
        payload = (
            "bdma/", rounds, times, (rounds_run, warm_hits, truncated),
            *slot.trace,
        )
    (
        objective, latency, cost, sweep_seconds, dynamics_seconds, *feasibility,
    ) = kernel.out_f.tolist()
    # The engine counters solve_p2_bdma's CGBA solver accumulates: per
    # round CGBA finished, its moves plus one sweep, each sweep over
    # every player and every candidate pair; then the sweep and
    # dynamics seconds (positional: this runs every slot).
    stats = EngineStats(
        moves,
        sweeps,
        slot.players * sweeps,
        slot.candidates * sweeps,
        sweep_seconds,
        dynamics_seconds,
    )
    best = kernel.best_assign.copy()
    result = BDMAResult(
        Assignment.trusted(best[0], best[1]),
        kernel.best_freq.copy(),
        objective,
        latency,
        cost,
        kernel.history[:z].tolist(),
        stats,
    )
    return FusedSlot(
        result, kernel.shares.copy(), uncovered, bool(invalid), payload,
        tuple(feasibility),
    )
