"""The weighted congestion game view of P2-A (the paper's WCG problem).

Resources are the access link of every base station (weight
``m = 1/W^A_k``), the fronthaul of every base station
(``m = 1/(W^F_k h^F_k)``), and every server's compute capacity
(``m = 1/speed_n(omega_n)``).  Device ``i`` playing strategy ``(k, n)``
places weight

* ``sqrt(d_i / h_{i,k})`` on the access resource of ``k``,
* ``sqrt(d_i)`` on the fronthaul resource of ``k``,
* ``sqrt(f_i / sigma_{i,n})`` on the compute resource of ``n``,

and experiences cost ``sum_r m_r p_{i,r} p_r(z)`` where ``p_r(z)`` is the
total weight on resource ``r``.  Summing player costs gives exactly
``T_t(x, y, Omega)`` of Eq. (20), and the game admits the weighted
potential ``Phi(z) = 1/2 sum_r m_r (p_r^2 + sum_{i in r} p_{i,r}^2)``,
which every best-response move strictly decreases -- the key fact behind
CGBA's convergence.
"""

from __future__ import annotations

import numpy as np

from repro.core.latency import effective_fronthaul_se
from repro.core.state import Assignment, SlotState
from repro.exceptions import ConfigurationError
from repro.kernels import DecomposedState, KernelBackend, get_kernels
from repro.network.connectivity import StrategySpace
from repro.network.topology import MECNetwork
from repro.solvers.potential_game import FiniteGame
from repro.types import FloatArray, Rng


class OffloadingCongestionGame(FiniteGame):
    """P2-A as a weighted congestion game with incremental bookkeeping.

    Args:
        network: Static topology.
        state: The slot's system state.
        space: Feasible strategies per device (must match the state's
            coverage: every listed pair has positive spectral efficiency).
        frequencies: Server clocks ``Omega`` in GHz, fixed for this game.
        initial: Starting assignment; drawn uniformly at random from the
            strategy space when omitted (Algorithm 3, line 1).
        rng: Required when *initial* is omitted.
        kernels: Array-kernel backend for the gap sweep and refills (a
            :class:`~repro.kernels.KernelBackend`, a backend name, or
            ``None`` for the NumPy reference kernels).  Every backend
            is bit-identical by contract, so this only changes speed.
    """

    def __init__(
        self,
        network: MECNetwork,
        state: SlotState,
        space: StrategySpace,
        frequencies: FloatArray,
        *,
        initial: Assignment | None = None,
        rng: Rng | None = None,
        kernels: KernelBackend | str | None = None,
    ) -> None:
        self._allocate(network, space, kernels)
        self.rebind(state, frequencies, initial, rng=rng)

    @classmethod
    def unbound(
        cls,
        network: MECNetwork,
        space: StrategySpace,
        *,
        kernels: KernelBackend | str | None = None,
    ) -> "OffloadingCongestionGame":
        """A game on *space* whose arrays describe no slot yet.

        Everything the constructor allocates, without its first
        :meth:`rebind` (so no rng is drawn and no kernel runs);
        ``state`` is ``None`` until a refill poses it.  The fused slot
        kernel (:func:`repro.core.bdma.solve_p2_bdma_fused`) refills
        such a game in place.
        """
        game = cls.__new__(cls)
        game._allocate(network, space, kernels)
        game.state = None
        return game

    def _allocate(
        self,
        network: MECNetwork,
        space: StrategySpace,
        kernels: KernelBackend | str | None,
    ) -> None:
        """Allocate every buffer and the kernel-state view (the
        constructor minus its first refill)."""
        self.network = network
        self.space = space
        self.kernels = get_kernels(kernels)
        num_players = network.num_devices
        num_bs = network.num_base_stations
        num_srv = network.num_servers
        width = 2 * num_bs + num_srv
        self._num_bs = num_bs

        # Everything below is allocated once and refilled in place by
        # rebind() through the kernel backend: the kernel-state view
        # (and the jit backend's cached pointer conversions) alias these
        # buffers, so one game can serve every slot played on its
        # strategy space.  Per-resource quantities live in fused
        # [access | fronthaul | compute] buffers (the per-resource names
        # are views), so loads, squared loads and total cost are one
        # pass each.
        # Resource weights m_r; the access weights depend on the network
        # alone, the fronthaul and compute weights on the slot.
        self._m = np.empty(width)
        self._m_access = self._m[:num_bs]
        self._m_front = self._m[num_bs : 2 * num_bs]
        self._m_compute = self._m[2 * num_bs :]
        np.divide(1.0, network.access_bandwidth, out=self._m_access)
        self._frequencies = np.empty(num_srv)

        # The strategy profile and, per player, its three current
        # resources (indices into the fused buffers) and its weights on
        # them -- rows [access | fronthaul | compute], kept in sync by
        # move(); the gap sweep reads these instead of re-gathering
        # 2-D.  The fronthaul weight row doubles as the player weights
        # p_front (they do not depend on the strategy).
        self._bs_of = np.empty(num_players, dtype=np.int64)
        self._server_of = np.empty(num_players, dtype=np.int64)
        self._cur_idx = np.empty((3, num_players), dtype=np.int64)
        self._cur_p = np.empty((3, num_players))
        self._pa_cur, self._p_front, self._pc_cur = self._cur_p
        self._devices = np.arange(num_players)
        # Player weights p_{i,r}.
        self._p_access = np.empty((num_players, num_bs))
        self._p_compute = np.empty((num_players, num_srv))

        # Resource loads p_r(z) and sums of squared player weights.
        self._loads = np.empty(width)
        self._load_access = self._loads[:num_bs]
        self._load_front = self._loads[num_bs : 2 * num_bs]
        self._load_compute = self._loads[2 * num_bs :]
        self._sq = np.empty(width)
        self._sq_access = self._sq[:num_bs]
        self._sq_front = self._sq[num_bs : 2 * num_bs]
        self._sq_compute = self._sq[2 * num_bs :]
        self._build_kernel_state()

    def _set_frequencies(self, frequencies: FloatArray) -> None:
        frequencies = np.asarray(frequencies, dtype=np.float64)
        if frequencies.size != self.network.num_servers:
            raise ConfigurationError("one frequency per server is required")
        np.copyto(self._frequencies, frequencies)

    def rebind(
        self,
        state: SlotState,
        frequencies: FloatArray,
        initial: Assignment | None = None,
        *,
        rng: Rng | None = None,
    ) -> None:
        """Re-pose the game for another slot on the same strategy space.

        Refills every state- and clock-dependent array in place (the
        kernel backend's ``rebind``), then re-seeds the profile exactly
        as :meth:`reset_profile` does (same rng consumption), so a
        rebound game is bitwise indistinguishable from a freshly
        constructed one.  The constructor itself is allocation plus
        this call.

        *state* must be compatible with the game's strategy space (every
        listed pair has positive spectral efficiency), as for the
        constructor.
        """
        self._set_frequencies(frequencies)
        # Until the refill completes the arrays describe no state.
        self.state = None
        self.kernels.rebind(
            self._ks,
            state.spectral_efficiency,
            state.bits,
            state.cycles,
            effective_fronthaul_se(self.network, state),
        )
        self.state = state
        self.reset_profile(initial, rng=rng)

    def _init_profile(self) -> None:
        """(Re)build loads and per-player caches from the profile arrays.

        The kernel backend's ``reset_profile`` fills the same buffers in
        place: the kernel-state view (and the jit backend's cached
        pointer conversions) alias them.
        """
        if not self.kernels.reset_profile(self._ks):
            raise self.infeasible_profile()

    def infeasible_profile(self) -> ConfigurationError:
        """The error for a profile reset that left a non-finite access
        load: it names the first device on an uncovered base station."""
        bad = int(np.flatnonzero(~np.isfinite(self._pa_cur))[0])
        return ConfigurationError(
            f"initial assignment is infeasible: device {bad} selected a "
            f"base station with zero spectral efficiency this slot"
        )

    def reset_profile(
        self, initial: Assignment | None = None, *, rng: Rng | None = None
    ) -> None:
        """Re-seed the strategy profile exactly as the constructor would.

        With the state, space, and frequencies unchanged, a reset game is
        indistinguishable from a freshly constructed one (same load
        bincounts, same rng consumption when *initial* is omitted), so
        BDMA can reuse one game across alternation rounds instead of
        rebuilding it every round.
        """
        if initial is None:
            if rng is None:
                raise ConfigurationError("either initial or rng must be provided")
            bs_of, server_of = self.space.random_assignment(rng)
        else:
            bs_of, server_of = initial.bs_of, initial.server_of
        # In place: the kernel-state view aliases these index arrays.
        np.copyto(self._bs_of, np.asarray(bs_of, dtype=np.int64))
        np.copyto(self._server_of, np.asarray(server_of, dtype=np.int64))
        self._init_profile()

    def update_frequencies(self, frequencies: FloatArray) -> None:
        """Re-fix the server clocks ``Omega`` without rebuilding the game.

        Only the compute resource weights depend on the frequencies;
        everything else (player weights, the menu tables) is a
        function of the state and the strategy space alone.
        """
        self._set_frequencies(frequencies)
        self.kernels.update_frequencies(self._ks)

    # -- FiniteGame interface ----------------------------------------------

    @property
    def num_players(self) -> int:
        return int(self._bs_of.size)

    def strategy_of(self, player: int) -> tuple[int, int]:
        return int(self._bs_of[player]), int(self._server_of[player])

    def player_cost(self, player: int) -> float:
        k = self._bs_of[player]
        n = self._server_of[player]
        pa = self._p_access[player, k]
        pf = self._p_front[player]
        pc = self._p_compute[player, n]
        return float(
            self._m_access[k] * pa * self._load_access[k]
            + self._m_front[k] * pf * self._load_front[k]
            + self._m_compute[n] * pc * self._load_compute[n]
        )

    def best_response(self, player: int) -> tuple[tuple[int, int], float]:
        ks, ns = self.space.pairs(player)
        k_cur = self._bs_of[player]
        n_cur = self._server_of[player]
        pa_cur = self._p_access[player, k_cur]
        pf = self._p_front[player]
        pc_cur = self._p_compute[player, n_cur]

        # Loads with the player removed from its current resources.
        load_a = self._load_access[ks].copy()
        load_f = self._load_front[ks].copy()
        load_c = self._load_compute[ns].copy()
        load_a[ks == k_cur] -= pa_cur
        load_f[ks == k_cur] -= pf
        load_c[ns == n_cur] -= pc_cur

        pa = self._p_access[player, ks]
        pc = self._p_compute[player, ns]
        costs = (
            self._m_access[ks] * pa * (load_a + pa)
            + self._m_front[ks] * pf * (load_f + pf)
            + self._m_compute[ns] * pc * (load_c + pc)
        )
        j = int(np.argmin(costs))
        return (int(ks[j]), int(ns[j])), float(costs[j])

    def num_strategies(self, player: int) -> int:
        return self.space.num_strategies(player)

    # -- the decomposed evaluator (the fast engine's substrate) -------------

    def _build_kernel_state(self) -> None:
        """Allocate the product-form (decomposed) evaluator state.

        The strategy space is, by construction, a product set per covered
        base station: device ``i`` may pick any ``(k, n)`` with ``k``
        covering ``i`` and ``n`` on base station ``k``'s server menu,
        and the menu does not depend on ``i``.  A candidate's cost
        splits as ``cost(i, k, n) = A(i, k) + B(i, n)`` (access +
        fronthaul terms vs. the compute term), so the per-player minimum
        is ``min_k [A(i, k) + min_{n in menu(k)} B(i, n)]`` -- an
        ``O(I (K + N))`` pass instead of ``O(C)`` over the flattened
        candidates, with one server argmin per *distinct* menu.

        Bit-exactness: the backend's ``rebind`` fills the per-entry
        arrays with the pairwise products ``m_r * p_{i,r}`` of the
        scalar :meth:`best_response` expression tree, and strictness of
        the split (``B >= Bmin`` with equality only at the argmin) makes
        the two-stage first-minimum tie break coincide with
        ``np.argmin`` over the player's candidates in
        :meth:`StrategySpace.pairs` order.

        The state is also what the backend's per-slot refills
        (``rebind``, ``reset_profile``, ``update_frequencies``) run on,
        so it is built with the game rather than on first use.
        """
        network = self.network
        num_bs = network.num_base_stations
        num_srv = network.num_servers
        players = self.num_players
        width = 2 * num_bs + num_srv

        menu_of_bs, menus = self.space.product_patterns()
        self._dc_menu_of_bs = menu_of_bs
        self._dc_menus = menus
        # A contiguous menu (the paper topology's two 8-server halves)
        # indexes the compute block with a slice -- a view, sparing the
        # fancy-index gather copy; the argmin over the strided view
        # reads the same memory with the same first-minimum tie break.
        self._dc_cols = [
            slice(2 * num_bs + int(menu[0]), 2 * num_bs + int(menu[-1]) + 1)
            if np.array_equal(menu, np.arange(menu[0], menu[-1] + 1))
            else 2 * num_bs + menu
            for menu in menus
        ]

        # Static per-entry weights, fused [access | fronthaul | compute]
        # like the loads buffer so the adjustment is four ufunc calls.
        self._dc_p = np.empty((players, width))
        self._dc_w = np.empty((players, width))

        # Per-profile caches: each player's own weight on its three
        # current resources (zero elsewhere) and its current-cost
        # weights m_r * p_{i,r}; both maintained incrementally by move().
        self._dc_sub = np.zeros((players, width))
        self._dc_wcur = np.empty((3, players))

        # Work buffers reused by every refresh.  Zero-filled rather than
        # left uninitialised: the jit kernels keep their own scratch and
        # never write these, so a game's whole kernel state is a pure
        # function of its inputs on every backend.
        self._dc_adj = np.zeros((players, width))
        self._dc_t = np.zeros((players, num_bs))
        self._dc_bk = np.zeros((players, num_bs))
        # Column len(menus) stays +inf: base stations with an empty
        # server menu contribute no candidates, so their total is never
        # the minimum.
        self._dc_bvals = np.full((players, len(menus) + 1), np.inf)
        # intp (== int64 here) so np.argmin can write them in place.
        self._dc_nidx = np.zeros((len(menus), players), dtype=np.intp)
        self._dc_kbest = np.zeros(players, dtype=np.intp)
        self._dc_cc = np.zeros(players)
        self._dc_cc3 = np.zeros((3, players))

        # Flattened menu tables for the non-NumPy kernels (the column
        # specs above are numpy gather syntax, not plain arrays).
        menu_offsets = np.zeros(len(menus) + 1, dtype=np.int64)
        if menus:
            np.cumsum([menu.size for menu in menus], out=menu_offsets[1:])
        menu_servers = (
            np.ascontiguousarray(np.concatenate(menus), dtype=np.int64)
            if menus
            else np.empty(0, dtype=np.int64)
        )
        self._ks = DecomposedState(
            num_players=players,
            num_bs=num_bs,
            num_servers=num_srv,
            loads=self._loads,
            sq=self._sq,
            m=self._m,
            cur_p=self._cur_p,
            p=self._dc_p,
            w=self._dc_w,
            sub=self._dc_sub,
            wcur=self._dc_wcur,
            cur_idx=self._cur_idx,
            menu_of_bs=np.ascontiguousarray(menu_of_bs, dtype=np.int64),
            menu_offsets=menu_offsets,
            menu_servers=menu_servers,
            cols=self._dc_cols,
            adj=self._dc_adj,
            t=self._dc_t,
            bk=self._dc_bk,
            bvals=self._dc_bvals,
            nidx=self._dc_nidx,
            kbest=self._dc_kbest,
            cc=self._dc_cc,
            cc3=self._dc_cc3,
            rows=self._devices,
            p_access=self._p_access,
            p_front=self._p_front,
            p_compute=self._p_compute,
            m_access=self._m_access,
            m_front=self._m_front,
            m_compute=self._m_compute,
            bs_of=self._bs_of,
            server_of=self._server_of,
            pa_cur=self._pa_cur,
            pc_cur=self._pc_cur,
            sq_access=self._sq_access,
            sq_front=self._sq_front,
            sq_compute=self._sq_compute,
            frequencies=self._frequencies,
            fronthaul_bandwidth=network.fronthaul_bandwidth,
            speed_scale=network.speed_scale,
            suitability=network.suitability,
            access_bandwidth=network.access_bandwidth,
            freq_min=network.freq_min,
            freq_max=network.freq_max,
            energy_table=network.energy_table,
        )

    def candidate_count(self) -> int:
        """Total candidate pairs ``sum |Z_i|`` over all players."""
        return self.space.flat().num_candidates

    def batch_gap_costs(self) -> tuple[FloatArray, FloatArray]:
        """``(best_cost, current_cost)`` of every player, best strategies
        deferred.

        Product-form evaluation (see :meth:`_build_kernel_state`),
        delegated to the selected kernel backend's ``gap_sweep`` --
        numerically identical to :meth:`best_response` and
        :meth:`player_cost` per player (same IEEE expression tree, same
        first-minimum tie break).  The returned arrays may be buffers
        the next sweep overwrites.  The per-player argmins are retained
        (in the kernel state) so the engine can resolve the selected
        mover's best strategy lazily via :meth:`best_strategy_for`.
        """
        return self.kernels.gap_sweep(self._ks)

    def kernel_state(self) -> "DecomposedState":
        """The struct-of-arrays view driven by the kernel backends.

        Engines hand this to :attr:`kernels`' ``run_dynamics`` to run
        whole best-response trajectories without re-entering Python;
        all arrays alias this game's state, so kernel mutations are
        game mutations.
        """
        return self._ks

    def best_strategy_for(self, player: int) -> tuple[int, int]:
        """The best response of *player* from the last gap refresh.

        Resolved from the retained decomposed argmins: the best base
        station, then the best server on that base station's menu --
        the same first-minimum pair :meth:`best_response` returns.
        """
        k = int(self._dc_kbest[player])
        g = int(self._dc_menu_of_bs[k])
        n = int(self._dc_menus[g][self._dc_nidx[g, player]])
        return k, n

    def move(self, player: int, strategy: tuple[int, int]) -> None:
        k_new, n_new = strategy
        k_old = int(self._bs_of[player])
        n_old = int(self._server_of[player])
        pa_old = self._p_access[player, k_old]
        pa_new = self._p_access[player, k_new]
        pf = self._p_front[player]
        pc_old = self._p_compute[player, n_old]
        pc_new = self._p_compute[player, n_new]

        self._load_access[k_old] -= pa_old
        self._load_access[k_new] += pa_new
        self._sq_access[k_old] -= pa_old * pa_old
        self._sq_access[k_new] += pa_new * pa_new

        self._load_front[k_old] -= pf
        self._load_front[k_new] += pf
        self._sq_front[k_old] -= pf * pf
        self._sq_front[k_new] += pf * pf

        self._load_compute[n_old] -= pc_old
        self._load_compute[n_new] += pc_new
        self._sq_compute[n_old] -= pc_old * pc_old
        self._sq_compute[n_new] += pc_new * pc_new

        self._bs_of[player] = k_new
        self._server_of[player] = n_new
        self._pa_cur[player] = pa_new
        self._pc_cur[player] = pc_new
        num_bs = self._num_bs
        cur_idx = self._cur_idx
        cur_idx[0, player] = k_new
        cur_idx[1, player] = num_bs + k_new
        cur_idx[2, player] = 2 * num_bs + n_new

        sub = self._dc_sub
        sub[player, k_old] = 0.0
        sub[player, num_bs + k_old] = 0.0
        sub[player, 2 * num_bs + n_old] = 0.0
        sub[player, k_new] = pa_new
        sub[player, num_bs + k_new] = pf
        sub[player, 2 * num_bs + n_new] = pc_new
        wcur = self._dc_wcur
        wcur[0, player] = self._m_access[k_new] * pa_new
        wcur[1, player] = self._m_front[k_new] * pf
        wcur[2, player] = self._m_compute[n_new] * pc_new

    def total_cost(self) -> float:
        """``sum_r m_r p_r(z)^2`` -- equals ``T_t(x, y, Omega)`` of Eq. (20).

        One fused product, then the access, fronthaul and compute blocks
        summed separately and in that order (the per-resource sums).
        """
        cost = self._m * self._loads
        cost *= self._loads
        num_bs = self._num_bs
        return float(
            cost[:num_bs].sum()
            + cost[num_bs : 2 * num_bs].sum()
            + cost[2 * num_bs :].sum()
        )

    # -- extras --------------------------------------------------------------

    def total_cost_of(self, assignment: Assignment) -> float:
        """``T_t`` of an arbitrary *assignment* under this game's state.

        Reuses the cached player-weight matrices, so evaluating a stored
        profile (e.g. MCBA's incumbent) costs three ``bincount`` calls
        instead of constructing a whole new game.
        """
        bs_of = np.asarray(assignment.bs_of, dtype=np.int64)
        server_of = np.asarray(assignment.server_of, dtype=np.int64)
        devices = np.arange(self.num_players)
        pa = self._p_access[devices, bs_of]
        pc = self._p_compute[devices, server_of]
        k = self.network.num_base_stations
        n = self.network.num_servers
        load_a = np.bincount(bs_of, weights=pa, minlength=k)
        load_f = np.bincount(bs_of, weights=self._p_front, minlength=k)
        load_c = np.bincount(server_of, weights=pc, minlength=n)
        return float(
            np.sum(self._m_access * load_a * load_a)
            + np.sum(self._m_front * load_f * load_f)
            + np.sum(self._m_compute * load_c * load_c)
        )

    def move_delta(self, player: int, strategy: tuple[int, int]) -> float:
        """Change of :meth:`total_cost` if *player* switched to *strategy*.

        Evaluated without mutating the game; used by the MCBA baseline's
        Metropolis acceptance test.
        """
        k_new, n_new = strategy
        k_old = int(self._bs_of[player])
        n_old = int(self._server_of[player])
        delta = 0.0

        if k_new != k_old:
            pa_old = self._p_access[player, k_old]
            pa_new = self._p_access[player, k_new]
            pf = self._p_front[player]
            la_old, la_new = self._load_access[k_old], self._load_access[k_new]
            lf_old, lf_new = self._load_front[k_old], self._load_front[k_new]
            delta += self._m_access[k_old] * ((la_old - pa_old) ** 2 - la_old**2)
            delta += self._m_access[k_new] * ((la_new + pa_new) ** 2 - la_new**2)
            delta += self._m_front[k_old] * ((lf_old - pf) ** 2 - lf_old**2)
            delta += self._m_front[k_new] * ((lf_new + pf) ** 2 - lf_new**2)

        if n_new != n_old:
            pc_old = self._p_compute[player, n_old]
            pc_new = self._p_compute[player, n_new]
            lc_old, lc_new = self._load_compute[n_old], self._load_compute[n_new]
            delta += self._m_compute[n_old] * ((lc_old - pc_old) ** 2 - lc_old**2)
            delta += self._m_compute[n_new] * ((lc_new + pc_new) ** 2 - lc_new**2)
        return float(delta)

    def potential(self) -> float:
        """The exact weighted potential ``Phi(z)``.

        Every unilateral move by player ``i`` changes ``Phi`` by exactly
        the change of ``T_i`` (the defining property of a potential game),
        so best-response dynamics strictly decrease it -- the invariant
        the property tests check.
        """
        return 0.5 * float(
            np.sum(
                self._m_access
                * (self._load_access * self._load_access + self._sq_access)
            )
            + np.sum(
                self._m_front * (self._load_front * self._load_front + self._sq_front)
            )
            + np.sum(
                self._m_compute
                * (self._load_compute * self._load_compute + self._sq_compute)
            )
        )

    def assignment(self) -> Assignment:
        """The current profile as an :class:`Assignment`."""
        return Assignment(bs_of=self._bs_of.copy(), server_of=self._server_of.copy())
