"""The best-response engine CGBA runs on.

:func:`repro.solvers.potential_game.best_response_dynamics` recomputes
*every* player's best response in a Python loop after *every* unilateral
move -- O(I * |Z|) scalar work per iteration.  This engine plays the
same max-gap dynamics on an
:class:`~repro.core.congestion_game.OffloadingCongestionGame` through
its kernel backend:

* **One decomposed sweep per move** -- every strategy space is a
  product set (device ``i`` may pick any ``(k, n)`` with ``k`` covering
  ``i`` and ``n`` on ``k``'s player-independent server menu), so one
  ``gap_sweep`` scores every player in ``O(I (K + N))`` and retains the
  per-player argmins; only the selected mover's best strategy is
  resolved (``game.best_strategy_for``).
* **One call per run** -- a backend with a fused loop (the jit
  backend's ``run_dynamics``) runs the whole trajectory without
  re-entering Python.

The engine replays the reference dynamics *exactly*: the sweep is
numerically identical to the scalar best response (same IEEE operation
order, same first-minimum tie break) and the mover is the first
maximum of the gaps, as in the reference's ``max_gap`` rule.  The
equivalence tests assert bit-identical final assignments.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING

import numpy as np

from repro.exceptions import ConvergenceError
from repro.solvers.potential_game import BestResponseResult, EngineStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.congestion_game import OffloadingCongestionGame


class FastBestResponseEngine:
    """Max-gap best-response dynamics over an offloading congestion game.

    The engine owns the per-player improvement gaps.  A caller solving
    one game many times (CGBA across slots and BDMA rounds) keeps the
    engine and restarts it (:meth:`restart`) instead of rebuilding it.
    """

    def __init__(
        self, game: "OffloadingCongestionGame", *, slack: float = 0.0
    ) -> None:
        if not 0.0 <= slack < 1.0:
            raise ValueError(f"slack must lie in [0, 1), got {slack}")
        self.game = game
        self.slack = slack
        n = game.num_players
        #: Improvement gaps ``current - best``; ``-inf`` marks players
        #: failing the eligibility test ``(1 - slack) * current > best``.
        self.gaps = np.full(n, -np.inf)
        self._inelig = np.empty(n, dtype=bool)
        # Sweep accounting constants, hoisted out of _refresh.
        self._n = n
        self._all_candidates = game.candidate_count()
        self.restart()

    def restart(self) -> None:
        """Re-arm the engine on its game's current profile.

        Fresh work counters and the initial sweep -- exactly what
        construction does, so after the game's profile is re-seeded (or
        the game rebound to another slot on the same strategy space) a
        restarted engine runs the same dynamics as a new one.  The
        sweep overwrites every gap, so nothing of the previous run
        leaks.
        """
        self.stats = EngineStats()
        started = time.perf_counter()
        self._refresh()
        self.stats.setup_seconds = time.perf_counter() - started

    def _refresh(self) -> None:
        """Recompute every player's gap (and the retained argmins)."""
        best, current = self.game.batch_gap_costs()
        stats = self.stats
        stats.sweeps += 1
        gaps = self.gaps
        if self.slack == 0.0:
            # For slack 0 the eligibility test ``(1 - 0) * current >
            # best`` is ``current > best``, which in IEEE doubles holds
            # iff ``current - best > 0`` -- so the subtraction doubles as
            # the test, in place, no temporaries.
            np.subtract(current, best, out=gaps)
            np.less_equal(gaps, 0.0, out=self._inelig)
            np.copyto(gaps, -np.inf, where=self._inelig)
        else:
            eligible = (1.0 - self.slack) * current > best
            gaps[:] = np.where(eligible, current - best, -np.inf)
        stats.gap_recomputations += self._n
        stats.candidate_evaluations += self._all_candidates

    def _result(self, iterations: int, converged: bool) -> BestResponseResult:
        return BestResponseResult(
            iterations=iterations,
            converged=converged,
            total_cost=self.game.total_cost(),
            stats=self.stats,
        )

    def run(self, *, max_iter: int = 100_000) -> BestResponseResult:
        """Run to the slack-equilibrium; mirrors the reference engine's
        ``max_gap`` rule.

        Raises:
            ConvergenceError: If ``max_iter`` moves did not reach the
                stopping condition; ``best_so_far`` holds the last
                profile's result.
        """
        game = self.game
        stats = self.stats
        run_dynamics = game.kernels.run_dynamics
        if run_dynamics is not None:
            # The backend's fused loop: same argmax pick, same move,
            # same final state.  The C loop refreshes only what each
            # move touched, but every gap and argmin it leaves equals a
            # full sweep's, so the counters are reconstructed from the
            # move count as one sweep per move.
            started = time.perf_counter()
            moves, converged = run_dynamics(
                game.kernel_state(), self.gaps, self.slack, max_iter
            )
            stats.eval_seconds += time.perf_counter() - started
            stats.moves += moves
            stats.sweeps += moves
            stats.gap_recomputations += moves * self._n
            stats.candidate_evaluations += moves * self._all_candidates
            if converged:
                return self._result(moves, True)
        else:
            # Ineligible players carry -inf, so the first maximum is the
            # first maximum over the eligible players whenever one
            # exists.  Everything is bound to locals: this is the hot
            # loop of the NumPy backend.
            gaps = self.gaps
            perf = time.perf_counter
            refresh = self._refresh
            for iteration in range(max_iter):
                player = gaps.argmax()
                if gaps[player] == -np.inf:
                    return self._result(iteration, True)
                started = perf()
                game.move(player, game.best_strategy_for(player))
                stats.moves += 1
                stats.move_seconds += perf() - started
                started = perf()
                refresh()
                stats.eval_seconds += perf() - started
        raise ConvergenceError(
            f"best-response dynamics did not converge within {max_iter} moves",
            best_so_far=self._result(max_iter, False),
        )
