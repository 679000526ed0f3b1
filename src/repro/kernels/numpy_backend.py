"""NumPy reference kernels -- the bit-exactness oracle.

These are the exact ufunc sequences that previously lived inline in
:class:`~repro.core.congestion_game.OffloadingCongestionGame`; every
other backend must reproduce their results bit for bit (same IEEE
operation order, same first-minimum tie breaks, same in-order
``bincount`` sums).
"""

from __future__ import annotations

import numpy as np

from repro.kernels.interface import DecomposedState, KernelBackend

__all__ = ["make_numpy_backend"]


def gap_sweep(state: DecomposedState):
    """One full decomposed gap sweep over every player.

    Returns ``(best_cost, current_cost)`` and retains the per-player
    argmins in ``state.nidx`` / ``state.kbest`` so the caller can
    resolve the selected mover's strategy lazily.
    """
    num_bs = state.num_bs
    rows = state.rows
    # adj[i, r] = (load_r - own weight if i sits on r + p_{i,r}) * w_{i,r};
    # subtracting the zero entries of the maintained own-weight array
    # is a bitwise no-op, so no mask is needed.
    adj = state.adj
    np.subtract(state.loads, state.sub, out=adj)
    np.add(adj, state.p, out=adj)
    np.multiply(adj, state.w, out=adj)
    # A(i, k): access + fronthaul; B(i, n): compute.
    t = state.t
    np.add(adj[:, :num_bs], adj[:, num_bs : 2 * num_bs], out=t)
    bvals = state.bvals
    nidx = state.nidx
    for g, cols in enumerate(state.cols):
        sub = adj[:, cols]
        np.argmin(sub, axis=1, out=nidx[g])
        bvals[:, g] = sub[rows, nidx[g]]
    bvals.take(state.menu_of_bs, axis=1, out=state.bk)
    np.add(t, state.bk, out=t)
    np.argmin(t, axis=1, out=state.kbest)
    best_cost = t[rows, state.kbest]

    # current_cost via one fused gather: row j of cc3 is
    # wcur[j] * loads[current resource j], so the axis-0 sum is the
    # same (access + fronthaul) + compute addition order as the
    # scalar expression.
    cc3 = state.cc3
    state.loads.take(state.cur_idx, out=cc3)
    np.multiply(state.wcur, cc3, out=cc3)
    np.add.reduce(cc3, axis=0, out=state.cc)
    return best_cost, state.cc


def reset_profile(state: DecomposedState) -> bool:
    """Rebuild the per-profile arrays from ``bs_of``/``server_of``.

    One ``bincount`` over the fused ``(3, I)`` resource indices yields
    all three load vectors: resource blocks are disjoint, so every load
    is the same in-order sum as a per-resource ``bincount``.  Returns
    whether every access load is finite; on ``False`` the own-weight
    rows and current-cost weights are left unfilled.
    """
    num_bs = state.num_bs
    rows = state.rows
    idx, weights = state.cur_idx, state.cur_p
    idx[0] = state.bs_of
    np.add(state.bs_of, num_bs, out=idx[1])
    np.add(state.server_of, 2 * num_bs, out=idx[2])
    state.pa_cur[:] = state.p_access[rows, state.bs_of]
    state.pc_cur[:] = state.p_compute[rows, state.server_of]
    width = state.loads.size
    flat_idx = idx.ravel()
    state.loads[:] = np.bincount(flat_idx, weights=weights.ravel(), minlength=width)
    state.sq[:] = np.bincount(
        flat_idx, weights=(weights * weights).ravel(), minlength=width
    )
    if not np.isfinite(state.loads[:num_bs]).all():
        return False
    sub = state.sub
    sub.fill(0.0)
    sub[rows, idx] = weights
    np.multiply(state.m.take(idx), weights, out=state.wcur)
    return True


def _clock_weights(state: DecomposedState) -> None:
    """``m_compute = 1 / speed(Omega)``, the topology's ``speeds`` tree."""
    np.divide(
        1.0, state.speed_scale * state.frequencies * 1e9, out=state.m_compute
    )


def rebind(state: DecomposedState, spectral_efficiency, bits, cycles, fronthaul_se):
    """Refill every slot-dependent weight from the slot's arrays."""
    num_bs = state.num_bs
    np.divide(
        1.0, state.fronthaul_bandwidth * fronthaul_se, out=state.m_front
    )
    _clock_weights(state)
    # Access weights are +inf on uncovered links so an accidental
    # infeasible probe is never the argmin.  The masked-out h=0
    # entries overflow before they are overwritten; silence that.
    h = spectral_efficiency
    p_access = state.p_access
    with np.errstate(divide="ignore", over="ignore"):
        np.maximum(h, 1e-300, out=p_access)
        np.divide(bits[:, None], p_access, out=p_access)
        np.sqrt(p_access, out=p_access)
    np.copyto(p_access, np.inf, where=~(h > 0.0))
    np.sqrt(bits, out=state.p_front)
    np.divide(cycles[:, None], state.suitability, out=state.p_compute)
    np.sqrt(state.p_compute, out=state.p_compute)
    # The decomposed evaluator's static per-entry weights.
    p, w = state.p, state.w
    p[:, :num_bs] = p_access
    p[:, num_bs : 2 * num_bs] = state.p_front[:, None]
    p[:, 2 * num_bs :] = state.p_compute
    np.multiply(state.m_access, p_access, out=w[:, :num_bs])
    np.multiply(
        state.m_front, state.p_front[:, None], out=w[:, num_bs : 2 * num_bs]
    )
    np.multiply(state.m_compute, state.p_compute, out=w[:, 2 * num_bs :])


def update_frequencies(state: DecomposedState) -> None:
    """Re-derive the clock-dependent weights from ``state.frequencies``."""
    _clock_weights(state)
    np.multiply(
        state.m_compute, state.p_compute, out=state.w[:, 2 * state.num_bs :]
    )
    state.wcur[2] = state.m_compute[state.server_of] * state.pc_cur


def greedy_pass(
    order,
    offsets,
    bs,
    server,
    p_access,
    p_front,
    p_compute,
    m_access,
    m_front,
    m_compute,
    joint,
):
    """One sequential greedy pass, the one-pass baseline's loop.

    Each device in *order* takes its cheapest marginal (base station,
    server) pair given the loads the devices before it committed.
    Device ``i``'s candidates are ``bs[offsets[i]:offsets[i + 1]]`` and
    the matching ``server`` slice (the
    :class:`~repro.network.connectivity.FlatStrategies` layout).  A
    resource's marginal is ``m * p * (2 * load + p)``; communication is
    access plus fronthaul.  *joint* minimises communication plus
    compute; otherwise the device takes the communication argmin's base
    station, then the cheapest server among that station's candidates.
    Every argmin is ``np.argmin``'s (first minimum, or the first NaN).
    Returns ``(bs_of, server_of)``.
    """
    load_access = np.zeros(m_access.size)
    load_front = np.zeros(m_front.size)
    load_compute = np.zeros(m_compute.size)
    bounds = offsets.tolist()
    num_devices = len(bounds) - 1
    bs_of = np.empty(num_devices, dtype=np.int64)
    server_of = np.empty(num_devices, dtype=np.int64)
    for i in order.tolist():
        ks = bs[bounds[i] : bounds[i + 1]]
        ns = server[bounds[i] : bounds[i + 1]]
        pa = p_access[i, ks]
        pf = p_front[i]
        pc = p_compute[i, ns]
        comm = m_access[ks] * pa * (2.0 * load_access[ks] + pa) + m_front[ks] * pf * (
            2.0 * load_front[ks] + pf
        )
        comp = m_compute[ns] * pc * (2.0 * load_compute[ns] + pc)
        if joint:
            j = int(np.argmin(comm + comp))
        else:
            # Stage 1: best base station by communication marginal only.
            best_k = int(ks[np.argmin(comm)])
            candidates = np.flatnonzero(ks == best_k)
            # Stage 2: cheapest reachable server through that station.
            j = int(candidates[np.argmin(comp[candidates])])
        k, n = int(ks[j]), int(ns[j])
        bs_of[i] = k
        server_of[i] = n
        load_access[k] += pa[j]
        load_front[k] += pf
        load_compute[n] += pc[j]
    return bs_of, server_of


def make_numpy_backend() -> KernelBackend:
    """The reference backend: no fused loop, no native golden section."""
    return KernelBackend(
        name="numpy",
        provider="numpy",
        gap_sweep=gap_sweep,
        reset_profile=reset_profile,
        rebind=rebind,
        update_frequencies=update_frequencies,
        greedy_pass=greedy_pass,
        run_dynamics=None,
        golden_quad=None,
    )
