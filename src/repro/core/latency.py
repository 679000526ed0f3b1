"""Latency algebra: Eqs. (7)-(11) and the closed forms (18)-(20).

Two layers:

* ``processing_latency`` / ``communication_latency`` / ``total_latency``
  evaluate the latency of *arbitrary* resource allocations (the ``L``
  quantities of the paper).
* ``optimal_processing_latency`` / ``optimal_communication_latency`` /
  ``optimal_total_latency`` evaluate the closed forms under Lemma 1's
  optimal allocations (the ``T`` quantities), without materialising the
  allocation -- these drive all the per-slot optimisation.

Zero-demand devices contribute zero latency even when their share is
zero (the 0/0 case is resolved to 0, matching the limit of the model).
"""

from __future__ import annotations

import numpy as np

from repro.core.state import Assignment, ResourceAllocation, SlotState
from repro.network.topology import MECNetwork
from repro.types import FloatArray


def effective_fronthaul_se(network: MECNetwork, state: SlotState) -> FloatArray:
    """The slot's fronthaul spectral efficiencies ``h^F_k``.

    The per-slot override in the state wins over the static topology
    values (the paper's time-invariant default).
    """
    if state.fronthaul_se is not None:
        return state.fronthaul_se
    return network.fronthaul_se


def _safe_ratio(numerator: FloatArray, denominator: FloatArray) -> FloatArray:
    """``numerator / denominator`` with 0/0 -> 0 and x/0 -> inf for x > 0."""
    out = np.full_like(numerator, np.inf, dtype=np.float64)
    zero_num = numerator == 0.0
    out[zero_num] = 0.0
    positive = denominator > 0.0
    np.divide(numerator, denominator, out=out, where=positive & ~zero_num)
    return out


def per_device_processing_latency(
    network: MECNetwork,
    state: SlotState,
    assignment: Assignment,
    allocation: ResourceAllocation,
    frequencies: FloatArray,
) -> FloatArray:
    """``L^P_{i,t}`` (Eq. 7) for every device, shape ``(I,)``."""
    devices = np.arange(assignment.num_devices)
    speeds = network.speeds(frequencies)[assignment.server_of]
    sigma = network.suitability[devices, assignment.server_of]
    capacity = speeds * sigma * allocation.compute_share
    return _safe_ratio(state.cycles, capacity)


def per_device_communication_latency(
    network: MECNetwork,
    state: SlotState,
    assignment: Assignment,
    allocation: ResourceAllocation,
) -> tuple[FloatArray, FloatArray]:
    """``(L^{C,A}_{i,t}, L^{C,F}_{i,t})`` (Eqs. 9-10), each shape ``(I,)``."""
    devices = np.arange(assignment.num_devices)
    h_access = state.spectral_efficiency[devices, assignment.bs_of]
    w_access = network.access_bandwidth[assignment.bs_of]
    access_rate = w_access * h_access * allocation.access_share
    access = _safe_ratio(state.bits, access_rate)

    w_front = network.fronthaul_bandwidth[assignment.bs_of]
    h_front = effective_fronthaul_se(network, state)[assignment.bs_of]
    front_rate = w_front * h_front * allocation.fronthaul_share
    fronthaul = _safe_ratio(state.bits, front_rate)
    return access, fronthaul


def per_device_latency(
    network: MECNetwork,
    state: SlotState,
    assignment: Assignment,
    allocation: ResourceAllocation,
    frequencies: FloatArray,
) -> FloatArray:
    """Total per-device latency ``L^P_i + L^{C,A}_i + L^{C,F}_i``."""
    proc = per_device_processing_latency(
        network, state, assignment, allocation, frequencies
    )
    access, fronthaul = per_device_communication_latency(
        network, state, assignment, allocation
    )
    return proc + access + fronthaul


def processing_latency(
    network: MECNetwork,
    state: SlotState,
    assignment: Assignment,
    allocation: ResourceAllocation,
    frequencies: FloatArray,
) -> float:
    """``L^P_t`` (Eq. 8): total processing latency across devices."""
    return float(
        per_device_processing_latency(
            network, state, assignment, allocation, frequencies
        ).sum()
    )


def communication_latency(
    network: MECNetwork,
    state: SlotState,
    assignment: Assignment,
    allocation: ResourceAllocation,
) -> float:
    """``L^C_t`` (Eq. 11): total communication latency across devices."""
    access, fronthaul = per_device_communication_latency(
        network, state, assignment, allocation
    )
    return float(access.sum() + fronthaul.sum())


def total_latency(
    network: MECNetwork,
    state: SlotState,
    assignment: Assignment,
    allocation: ResourceAllocation,
    frequencies: FloatArray,
) -> float:
    """``L_t(alpha_t, beta_t)``: overall system latency of the slot."""
    return processing_latency(
        network, state, assignment, allocation, frequencies
    ) + communication_latency(network, state, assignment, allocation)


# -- closed forms under Lemma 1's optimal allocation ------------------------


def server_load_roots(
    network: MECNetwork, state: SlotState, assignment: Assignment
) -> FloatArray:
    """Per-server aggregated weights ``sum_{i on n} sqrt(f_i / sigma_{i,n})``."""
    devices = np.arange(assignment.num_devices)
    sigma = network.suitability[devices, assignment.server_of]
    weights = np.sqrt(state.cycles / sigma)
    return np.bincount(
        assignment.server_of, weights=weights, minlength=network.num_servers
    )


def optimal_processing_latency(
    network: MECNetwork,
    state: SlotState,
    assignment: Assignment,
    frequencies: FloatArray,
) -> float:
    """``T^P_t`` (Eq. 18): processing latency under the optimal ``Phi``."""
    roots = server_load_roots(network, state, assignment)
    speeds = network.speeds(frequencies)
    return float((roots * roots / speeds).sum())


def optimal_communication_latency(
    network: MECNetwork, state: SlotState, assignment: Assignment
) -> float:
    """``T^C_t`` (Eq. 19): communication latency under the optimal ``Psi``.

    One ``bincount`` over fused ``[access | fronthaul]`` base-station
    indices yields both root vectors: the blocks are disjoint, so each
    is the same in-order sum as a per-kind ``bincount``.
    """
    num_devices = assignment.num_devices
    num_bs = network.num_base_stations
    bs_of = assignment.bs_of
    h_access = state.spectral_efficiency[np.arange(num_devices), bs_of]
    # Rows: access sqrt(d / h) (zero where the link is down), fronthaul
    # sqrt(d).
    weights = np.zeros((2, num_devices))
    np.divide(state.bits, h_access, out=weights[0], where=h_access > 0.0)
    np.sqrt(weights[0], out=weights[0])
    np.sqrt(state.bits, out=weights[1])
    groups = np.empty((2, num_devices), dtype=np.int64)
    groups[0] = bs_of
    np.add(bs_of, num_bs, out=groups[1])
    roots = np.bincount(groups.ravel(), weights=weights.ravel(), minlength=2 * num_bs)
    access_roots, front_roots = roots[:num_bs], roots[num_bs:]
    access = float((access_roots * access_roots / network.access_bandwidth).sum())
    # (1/W^F)(sum sqrt(d/h^F))^2 == (sum sqrt(d))^2 / (W^F h^F)
    fronthaul = float(
        (
            front_roots
            * front_roots
            / (network.fronthaul_bandwidth * effective_fronthaul_se(network, state))
        ).sum()
    )
    return access + fronthaul


def optimal_total_latency(
    network: MECNetwork,
    state: SlotState,
    assignment: Assignment,
    frequencies: FloatArray,
) -> float:
    """``T_t(x_t, y_t, Omega_t, beta_t)`` (Eq. 20)."""
    return optimal_processing_latency(
        network, state, assignment, frequencies
    ) + optimal_communication_latency(network, state, assignment)
