"""One-pass greedy assignment baselines (ablation).

Two variants, both a single sequential pass over devices:

* *joint* -- each device picks the feasible (base station, server) pair
  with the cheapest marginal total-latency increase given the loads
  committed so far; this is "one round of best response from empty".
* *decoupled* -- each device first picks the base station minimising the
  communication marginal alone, then the cheapest reachable server; this
  quantifies what the paper's joint selection buys over the naive
  two-stage heuristic.
"""

from __future__ import annotations

import numpy as np

from repro.core.latency import effective_fronthaul_se
from repro.core.state import Assignment, SlotState
from repro.exceptions import ConfigurationError
from repro.kernels import KernelBackend, get_kernels
from repro.network.connectivity import StrategySpace
from repro.network.topology import MECNetwork
from repro.types import FloatArray, IntArray, Rng


def solve_p2a_greedy(
    network: MECNetwork,
    state: SlotState,
    space: StrategySpace,
    frequencies: FloatArray,
    rng: Rng | None = None,
    *,
    joint: bool = True,
    order: IntArray | None = None,
    backend: "KernelBackend | str | None" = None,
) -> Assignment:
    """Sequential greedy assignment.

    Args:
        network: Static topology.
        state: The slot's system state.
        space: Feasible strategy sets.
        frequencies: Fixed server clocks.
        rng: Used to shuffle the device order when *order* is omitted;
            a deterministic ascending order is used when both are None.
        joint: Pick (base station, server) jointly (True) or decouple the
            two choices (False).
        order: Explicit device processing order.
        backend: Array-kernel backend that runs the pass
            (``greedy_pass``; see :mod:`repro.kernels`).  Bit-identical
            across backends -- wall-clock only.

    Returns:
        A feasible :class:`Assignment`.
    """
    num_devices = network.num_devices
    if order is None:
        order = np.arange(num_devices)
        if rng is not None:
            order = rng.permutation(num_devices)
    order = np.asarray(order, dtype=np.int64)
    if order.shape != (num_devices,) or not np.array_equal(
        np.sort(order), np.arange(num_devices)
    ):
        raise ConfigurationError("order must be a permutation of all devices")

    m_access = 1.0 / network.access_bandwidth
    m_front = 1.0 / (
        network.fronthaul_bandwidth * effective_fronthaul_se(network, state)
    )
    m_compute = 1.0 / network.speeds(np.asarray(frequencies, dtype=np.float64))
    h = state.spectral_efficiency

    # Player weights, computed once for all devices.
    with np.errstate(divide="ignore", over="ignore"):
        p_access = np.where(
            h > 0.0, np.sqrt(state.bits[:, None] / np.maximum(h, 1e-300)), np.inf
        )
    p_front = np.sqrt(state.bits)
    p_compute = np.sqrt(state.cycles[:, None] / network.suitability)

    flat = space.flat()
    bs_of, server_of = get_kernels(backend).greedy_pass(
        order,
        flat.offsets,
        flat.bs,
        flat.server,
        p_access,
        p_front,
        p_compute,
        m_access,
        m_front,
        m_compute,
        joint,
    )
    return Assignment(bs_of=bs_of, server_of=server_of)


def greedy_p2a_solver(
    *,
    joint: bool = True,
    shuffle: bool = True,
    backend: "KernelBackend | str | None" = None,
):
    """Greedy packaged as a P2-A solver for the DPP controller.

    The returned callable matches :class:`repro.core.bdma.P2ASolver`;
    the warm-start ``initial`` assignment is ignored (greedy always
    builds its pass from an empty profile).

    Args:
        joint: Joint (base station, server) selection versus the
            decoupled two-stage variant.
        shuffle: Shuffle the device processing order each slot (uses the
            controller's rng); ``False`` processes devices in index
            order, which is fully deterministic but order-biased.
        backend: Array-kernel backend for the greedy pass.
    """

    def solve(
        network: MECNetwork,
        state: SlotState,
        space: StrategySpace,
        frequencies: FloatArray,
        rng: Rng,
        *,
        initial: Assignment | None,
    ) -> Assignment:
        del initial  # greedy has no warm start; it is a single pass
        return solve_p2a_greedy(
            network,
            state,
            space,
            frequencies,
            rng if shuffle else None,
            joint=joint,
            backend=backend,
        )

    return solve
