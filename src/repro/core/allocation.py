"""Lemma 1: closed-form optimal bandwidth and compute allocations.

Given the discrete selections ``(x_t, y_t)``, the REAL problem is convex
and its KKT conditions yield square-root proportional-fair shares:

* compute: ``phi_i  proportional to  sqrt(f_i / sigma_{i,n})`` among the
  devices sharing server ``n`` (Eq. 15);
* access: ``psi^A_i  proportional to  sqrt(d_i / h_{i,k})`` among the
  devices sharing base station ``k`` (Eq. 16);
* fronthaul: ``psi^F_i  proportional to  sqrt(d_i / h^F_k)``; since
  ``h^F_k`` is common to the group it cancels, leaving ``sqrt(d_i)``
  (Eq. 17).
"""

from __future__ import annotations

import numpy as np

from repro.core.state import Assignment, ResourceAllocation, SlotState
from repro.exceptions import ValidationError
from repro.network.topology import MECNetwork


def optimal_allocation(
    network: MECNetwork,
    state: SlotState,
    assignment: Assignment,
) -> ResourceAllocation:
    """Compute ``(Psi_t^*(x_t), Phi_t^*(y_t))`` per Lemma 1.

    Each share is ``w_i / sum_{j in group_i} w_j`` within the device's
    server (compute) or base station (access, fronthaul).  One
    ``bincount`` over fused ``[compute | access | fronthaul]`` group
    indices yields every group total: the blocks are disjoint, so each
    total is the same in-order sum as a per-kind ``bincount``.  Devices
    with zero weight (zero demand) get a zero share; a group whose total
    weight is zero produces all-zero shares, which is harmless since the
    corresponding latency terms are zero too.

    Args:
        network: Static topology (supplies ``sigma``).
        state: The slot's system state (supplies ``f_t, d_t, h_t``).
        assignment: The discrete selections ``(x_t, y_t)``.

    Returns:
        The optimal :class:`ResourceAllocation`.  Shares within each
        resource group sum to exactly 1 (when the group has any positive
        demand), so constraints (4)-(6) hold with equality.

    Raises:
        ValidationError: If a device's chosen base station does not cover
            it this slot (``h_{i,k} = 0`` would divide by zero).
    """
    num_devices = assignment.num_devices
    bs_of, server_of = assignment.bs_of, assignment.server_of
    devices = np.arange(num_devices)
    h_chosen = state.spectral_efficiency[devices, bs_of]
    uncovered = (h_chosen <= 0.0) & (state.bits > 0.0)
    if uncovered.any():
        bad = int(np.flatnonzero(uncovered)[0])
        raise ValidationError(
            f"device {bad} selected base station {int(bs_of[bad])} "
            "with zero spectral efficiency"
        )

    num_servers = network.num_servers
    num_bs = network.num_base_stations
    # Rows: compute sqrt(f / sigma), access sqrt(d / h) (zero where the
    # link is down), fronthaul sqrt(d) -- h^F is common to a base
    # station's group, so it cancels (Eq. 17).
    weights = np.zeros((3, num_devices))
    sigma_chosen = network.suitability[devices, server_of]
    np.sqrt(state.cycles / sigma_chosen, out=weights[0])
    np.divide(state.bits, h_chosen, out=weights[1], where=h_chosen > 0.0)
    np.sqrt(weights[1], out=weights[1])
    np.sqrt(state.bits, out=weights[2])
    groups = np.empty((3, num_devices), dtype=np.int64)
    groups[0] = server_of
    np.add(bs_of, num_servers, out=groups[1])
    np.add(bs_of, num_servers + num_bs, out=groups[2])
    totals = np.bincount(
        groups.ravel(), weights=weights.ravel(), minlength=num_servers + 2 * num_bs
    )
    denom = totals[groups]
    shares = np.zeros((3, num_devices))
    np.divide(weights, denom, out=shares, where=denom > 0.0)
    return ResourceAllocation(
        access_share=shares[1],
        fronthaul_share=shares[2],
        compute_share=shares[0],
    )
