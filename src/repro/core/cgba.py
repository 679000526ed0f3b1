"""CGBA (Algorithm 3): best-response dynamics for P2-A.

CGBA interprets P2-A as the weighted congestion game of
:mod:`repro.core.congestion_game` and runs best-response dynamics with
the paper's selection rule: the player with the largest absolute
improvement moves, until no player can shrink its cost by more than the
relative slack ``lambda``.  Theorem 2 gives the
``2.62 / (1 - 8 lambda)`` approximation for ``lambda in (0, 0.125)`` and
convergence to a 2.62-approximate Nash profile for ``lambda = 0``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.congestion_game import OffloadingCongestionGame
from repro.core.state import Assignment, SlotState
from repro.exceptions import ConvergenceError
from repro.kernels import KernelBackend, get_kernels
from repro.network.connectivity import StrategySpace
from repro.network.topology import MECNetwork
from repro.obs.probe import Tracer, as_tracer
from repro.solvers.fast_engine import FastBestResponseEngine
from repro.solvers.potential_game import EngineStats
from repro.types import FloatArray, Rng


#: Theorem 2's base constant: the price of anarchy bound for weighted
#: congestion games with affine costs.
CGBA_BASE_RATIO = 2.62


def cgba_approximation_ratio(slack: float) -> float:
    """The ``2.62 / (1 - 8 lambda)`` bound of Theorem 2.

    Raises:
        ValueError: When ``slack`` is outside ``[0, 0.125)`` where the
            bound is meaningful.
    """
    if not 0.0 <= slack < 0.125:
        raise ValueError(f"Theorem 2 requires lambda in [0, 0.125), got {slack}")
    return CGBA_BASE_RATIO / (1.0 - 8.0 * slack)


@dataclass
class CGBAResult:
    """Outcome of one CGBA run.

    Attributes:
        assignment: The final (base station, server) selections.
        total_latency: ``T_t`` of the final profile under the game's
            fixed frequencies -- P2-A's objective value.
        iterations: Number of unilateral best-response moves performed.
        converged: Whether the ``lambda``-equilibrium test was met.
        engine_stats: Work counters of the best-response engine (moves,
            gap recomputations, candidate evaluations, per-phase times).
        game: The congestion game the run was played on.
        fast_engine: The best-response engine that ran.  Callers that
            solve P2-A repeatedly on one strategy space (BDMA's rounds,
            the controller's slots) pass the whole result back via
            ``solve_p2a_cgba(..., reuse=...)``, which refills this game
            and restarts this engine instead of building new ones.
    """

    assignment: Assignment
    total_latency: float
    iterations: int
    converged: bool
    engine_stats: EngineStats | None = None
    game: OffloadingCongestionGame | None = None
    fast_engine: FastBestResponseEngine | None = None


def solve_p2a_cgba(
    network: MECNetwork,
    state: SlotState,
    space: StrategySpace,
    frequencies: FloatArray,
    rng: Rng,
    *,
    slack: float = 0.0,
    initial: Assignment | None = None,
    max_iter: int = 100_000,
    tracer: "Tracer | None" = None,
    reuse: CGBAResult | None = None,
    accept_partial: bool = False,
    backend: "KernelBackend | str | None" = None,
) -> CGBAResult:
    """Solve P2-A with CGBA(lambda).

    Args:
        network: Static topology.
        state: The slot's system state ``beta_t``.
        space: Feasible strategy sets ``Z_i``.
        frequencies: Fixed server clocks ``Omega`` (GHz) for this subproblem.
        rng: Randomness for the initial profile.
        slack: The paper's ``lambda``; 0 runs to an exact equilibrium.
        initial: Warm-start assignment instead of a random profile.
        max_iter: Cap on best-response moves.
        tracer: Observability tracer; when enabled, the best-response
            run is wrapped in a ``cgba`` span and the engine's work
            counters (moves, sweeps, gap recomputations, candidate
            evaluations) are emitted as ``engine.*`` counters.
        accept_partial: When the dynamics exhaust ``max_iter`` without
            converging, consume :attr:`ConvergenceError.best_so_far` and
            return the last profile (``converged=False``) instead of
            raising.  Every best-response move strictly improves the
            potential, so the partial profile is feasible and typically
            near-equilibrium; a ``resilience.partial_accepts`` counter
            records the event.
        reuse: An earlier result to build on.  When its game was
            played on the same ``network`` and ``space`` objects with the
            same kernel backend, that game is refilled for this call
            (:meth:`~OffloadingCongestionGame.rebind` for a new
            ``state``, new clocks and a re-seeded profile for the same
            one) and its fast engine restarted, instead of constructing
            both afresh.  Refilling reproduces the constructor's
            arithmetic and rng consumption exactly, so results are
            bit-identical either way.  Any other result is ignored (a
            new strategy space builds a new game).  The reused game and
            engine are mutated, so *reuse* must not be read afterwards.
        backend: Array-kernel backend for the game's hot loops
            (:func:`repro.kernels.get_kernels` argument).  Every backend
            is bit-identical to the NumPy oracle, so this changes
            wall-clock only.

    Returns:
        A :class:`CGBAResult`; ``total_latency`` equals
        ``optimal_total_latency(network, state, result.assignment,
        frequencies)`` up to float rounding.
    """
    tracer = as_tracer(tracer)
    kernels = get_kernels(backend)
    fast_engine = None
    game = reuse.game if reuse is not None else None
    if (
        game is not None
        and game.network is network
        and game.space is space
        and game.kernels is kernels
    ):
        if game.state is state:
            game.update_frequencies(frequencies)
            game.reset_profile(initial, rng=rng)
        else:
            game.rebind(state, frequencies, initial, rng=rng)
        if reuse.fast_engine is not None and reuse.fast_engine.slack == slack:
            fast_engine = reuse.fast_engine
    else:
        game = OffloadingCongestionGame(
            network, state, space, frequencies, initial=initial, rng=rng,
            kernels=kernels,
        )
    with tracer.span("cgba"):
        try:
            if fast_engine is None:
                fast_engine = FastBestResponseEngine(game, slack=slack)
            else:
                fast_engine.restart()
            outcome = fast_engine.run(max_iter=max_iter)
        except ConvergenceError as exc:
            if not accept_partial or exc.best_so_far is None:
                raise
            # The game's profile already holds the last (best-so-far)
            # state -- moves are applied in place -- so the result below
            # reads the partial equilibrium via game.assignment().
            outcome = exc.best_so_far
            if tracer.enabled:
                tracer.counter("resilience.partial_accepts", 1)
    if tracer.enabled and outcome.stats is not None:
        stats = outcome.stats
        tracer.counter("engine.moves", stats.moves)
        tracer.counter("engine.sweeps", stats.sweeps)
        tracer.counter("engine.gap_recomputations", stats.gap_recomputations)
        tracer.counter("engine.candidate_evaluations", stats.candidate_evaluations)
    return CGBAResult(
        assignment=game.assignment(),
        total_latency=outcome.total_cost,
        iterations=outcome.iterations,
        converged=outcome.converged,
        engine_stats=outcome.stats,
        game=game,
        fast_engine=fast_engine,
    )
