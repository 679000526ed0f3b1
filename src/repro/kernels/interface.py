"""The kernel interface: a struct-of-arrays view plus pure array functions.

The hot loops of the slot pipeline (the decomposed gap sweep of
:class:`~repro.core.congestion_game.OffloadingCongestionGame` -- the
only best-response evaluator, since every strategy space is a product
set -- the fused best-response dynamics of
:class:`~repro.solvers.fast_engine.FastBestResponseEngine`, and the
golden-section search of P2-B), the game's per-slot refills (profile
reset, state rebind, clock refresh), the fallback chain's greedy pass
and the fused slot call are expressed here as a narrow set of pure
array functions over a flat struct-of-arrays state.  Each
backend (:mod:`repro.kernels.numpy_backend`, the C ``jit`` backend)
provides the same functions with bit-identical IEEE semantics; the NumPy
implementation is the oracle every other backend is tested against.

The contract every backend must honour:

* identical elementwise expression trees (same association, no FMA
  contraction, no reassociated reductions);
* first-occurrence tie breaks for every argmin/argmax (strict ``<`` /
  ``>`` scans), matching ``np.argmin``/``np.argmax``;
* in-place mutation of exactly the arrays the NumPy path mutates, so a
  run can switch backends mid-stream and the game state stays exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = ["DecomposedState", "KernelBackend"]


@dataclass(frozen=True)
class DecomposedState:
    """Struct-of-arrays view of a congestion game's decomposed evaluator.

    All fields are *references* to the owning game's arrays (no copies):
    kernels mutate the game through this view.  The view is frozen and
    the game refills its arrays in place (profile resets, new slots), so
    every field is the same array object for the life of the game --
    which is what lets backends convert their arguments once.

    Shapes use ``I`` players, ``K`` base stations, ``N`` servers,
    ``G`` distinct server menus, ``W = 2K + N`` fused resources laid out
    ``[access | fronthaul | compute]``, and ``M`` total menu entries.
    The per-resource fields (``m_access``, ``sq_front``, ...) are views
    of the fused ``(W,)`` buffers (``m``, ``sq``), and ``pa_cur``,
    ``p_front`` and ``pc_cur`` are the rows of ``cur_p``.
    """

    num_players: int
    num_bs: int
    num_servers: int
    #: ``(W,)`` fused resource loads ``p_r(z)``.
    loads: np.ndarray
    #: ``(W,)`` fused sums of squared player weights per resource.
    sq: np.ndarray
    #: ``(W,)`` fused resource weights ``m_r``.
    m: np.ndarray
    #: ``(3, I)`` each player's weights on its current resources.
    cur_p: np.ndarray
    #: ``(I, W)`` static per-entry player weights ``p_{i,r}``.
    p: np.ndarray
    #: ``(I, W)`` static per-entry cost weights ``m_r * p_{i,r}``.
    w: np.ndarray
    #: ``(I, W)`` each player's own weight on its current resources.
    sub: np.ndarray
    #: ``(3, I)`` current-cost weights per player (access/front/compute).
    wcur: np.ndarray
    #: ``(3, I)`` int64 current resource indices into ``loads``.
    cur_idx: np.ndarray
    #: ``(K,)`` int64 menu group of every base station (``G`` = empty menu).
    menu_of_bs: np.ndarray
    #: ``(G + 1,)`` int64 offsets into ``menu_servers`` per group.
    menu_offsets: np.ndarray
    #: ``(M,)`` int64 concatenated server menus.
    menu_servers: np.ndarray
    #: Per-group compute-column spec (slice or index array); NumPy path only.
    cols: list
    #: ``(I, W)`` scratch: adjusted per-entry costs.
    adj: np.ndarray
    #: ``(I, K)`` scratch: access + fronthaul terms.
    t: np.ndarray
    #: ``(I, K)`` scratch: per-bs best compute term.
    bk: np.ndarray
    #: ``(I, G + 1)`` scratch: per-menu best compute term (col G = +inf).
    bvals: np.ndarray
    #: ``(G, I)`` intp: per-menu argmin server position.
    nidx: np.ndarray
    #: ``(I,)`` intp: per-player argmin base station.
    kbest: np.ndarray
    #: ``(I,)`` scratch: current costs.
    cc: np.ndarray
    #: ``(3, I)`` scratch: current cost terms.
    cc3: np.ndarray
    #: ``(I,)`` row index helper (``arange(I)``).
    rows: np.ndarray
    #: ``(I, K)`` access weights (+inf on uncovered links).
    p_access: np.ndarray
    #: ``(I,)`` fronthaul weights.
    p_front: np.ndarray
    #: ``(I, N)`` compute weights.
    p_compute: np.ndarray
    #: ``(K,)`` access resource weights ``1 / W^A_k``.
    m_access: np.ndarray
    #: ``(K,)`` fronthaul resource weights.
    m_front: np.ndarray
    #: ``(N,)`` compute resource weights ``1 / speed_n``.
    m_compute: np.ndarray
    #: ``(I,)`` int64 current base station per player.
    bs_of: np.ndarray
    #: ``(I,)`` int64 current server per player.
    server_of: np.ndarray
    #: ``(I,)`` current access weight per player.
    pa_cur: np.ndarray
    #: ``(I,)`` current compute weight per player.
    pc_cur: np.ndarray
    #: ``(K,)`` sum of squared access weights per base station.
    sq_access: np.ndarray
    #: ``(K,)`` sum of squared fronthaul weights per base station.
    sq_front: np.ndarray
    #: ``(N,)`` sum of squared compute weights per server.
    sq_compute: np.ndarray
    #: ``(N,)`` the game's server clocks ``Omega`` in GHz.
    frequencies: np.ndarray
    #: ``(K,)`` network constant: fronthaul bandwidths ``W^F_k``.
    fronthaul_bandwidth: np.ndarray
    #: ``(N,)`` network constant: per-server speed scales.
    speed_scale: np.ndarray
    #: ``(I, N)`` network constant: task suitabilities ``sigma``.
    suitability: np.ndarray
    #: ``(K,)`` network constant: access bandwidths ``W^A_k``.
    access_bandwidth: np.ndarray
    #: ``(N,)`` network constant: lowest clocks ``F^L`` in GHz.
    freq_min: np.ndarray
    #: ``(N,)`` network constant: highest clocks ``F^U`` in GHz.
    freq_max: np.ndarray
    #: ``(4, N)`` network constant: the quadratic energy rows ``scale,
    #: a, b, c`` (``MECNetwork.energy_table``), ``None`` for other
    #: energy models.
    energy_table: "np.ndarray | None"
    #: Backend-private argument caches, keyed by the raw provider's
    #: argument conversion: the C backend keeps the state's one
    #: ``repro_slot`` struct of converted pointers here, which every
    #: state-bound kernel and the fused slot call take (see
    #: :mod:`repro.kernels._adapt`).
    kernel_args: dict = field(default_factory=dict, repr=False, compare=False)


@dataclass(frozen=True)
class KernelBackend:
    """One backend's implementation of the kernel functions.

    Attributes:
        name: Public backend name (``"numpy"`` or ``"jit"``).
        provider: What actually runs underneath: ``"numpy"`` or
            ``"cc"`` (ctypes-loaded C kernels compiled at first use).
        gap_sweep: ``(state) -> (best_cost, current_cost)`` -- one full
            decomposed gap sweep; retains per-player argmins in
            ``state.nidx`` / ``state.kbest``.  The returned arrays may be
            buffers the next sweep on *state* overwrites.
        run_dynamics: ``(state, gaps, slack, max_iter) -> (moves,
            converged)`` -- the fused best-response loop (argmax pick,
            move, refresh, gap update per iteration), mutating the
            game through *state*.  After each move ``gaps``,
            ``state.kbest`` and ``state.nidx`` hold what a full
            ``gap_sweep`` would leave; ``gaps`` must be a C-contiguous
            float64 ``(I,)`` vector.  ``None`` when the backend has no
            fused loop (the engine then drives ``gap_sweep`` from
            Python).
        golden_quad: ``(lo, hi, ls, ep, scale, qa, qb, qc, tol,
            max_iter) -> (x, evals)`` -- per-lane golden-section search
            on ``f(x) = ls/x + ep * (scale * (qa x^2 + qb x + qc))``,
            replaying :func:`repro.solvers.scalar.minimize_convex_scalar`
            lane by lane; the eight lanes are 1-D arrays of one
            length.  ``None`` when unavailable.
        reset_profile: ``(state) -> finite`` -- rebuild every
            per-profile array from ``bs_of``/``server_of``: current
            indices and weights, loads and squared loads (in-order
            per-resource sums), the own-weight rows ``sub`` and the
            current-cost weights ``wcur``.  Returns ``False`` (leaving
            ``sub``/``wcur`` stale) when an access load is not finite.
        rebind: ``(state, spectral_efficiency, bits, cycles,
            fronthaul_se) -> None`` -- refill every slot-dependent
            weight from the slot's arrays and ``state.frequencies``:
            ``m_front``, ``m_compute``, the player weights (access
            weights ``+inf`` on uncovered links) and the decomposed
            ``p``/``w``.
        update_frequencies: ``(state) -> None`` -- the clock refresh:
            ``m_compute`` from ``state.frequencies``, the compute block
            of ``w`` and the compute row of ``wcur``.
        greedy_pass: ``(order, offsets, bs, server, p_access, p_front,
            p_compute, m_access, m_front, m_compute, joint) -> (bs_of,
            server_of)`` -- the one-pass greedy assignment over flat
            strategy arrays (see
            :func:`repro.baselines.greedy.solve_p2a_greedy`); each device
            in ``order`` commits its cheapest marginal pair, ties and
            NaNs resolved as ``np.argmin`` does.
        bdma_slot: ``(state, rounds, slack, max_iter, accept_partial)
            -> SlotBinding`` -- bind the fused slot call to *state* for
            up to *rounds* BDMA rounds with CGBA's settings: one slot of
            BDMA with CGBA for P2-A and the Lemma-1 allocation of its
            decision per ``run()``, bit-identical to the Python loop of
            :func:`repro.core.bdma.solve_p2_bdma`
            (:func:`repro.core.bdma.solve_p2_bdma_fused` drives it; see
            :class:`repro.kernels._adapt.SlotBinding`).  *state* must
            carry an ``energy_table``.  The binding shares the state's
            kernel arguments with the other entry points, so the
            separate kernels may run on *state* between its calls (and
            a later binding of *state* between them), without either
            disturbing the other.  ``None`` when the backend has no
            fused slot (the controller then runs the Python loop).
    """

    name: str
    provider: str
    gap_sweep: Callable
    reset_profile: Callable
    rebind: Callable
    update_frequencies: Callable
    greedy_pass: Callable
    run_dynamics: Callable | None = None
    golden_quad: Callable | None = None
    bdma_slot: Callable | None = None
