"""The drift-plus-penalty objective of P2.

``f(x, y, Omega) = V * T_t(x, y, Omega, beta_t) + Q(t) * Theta(Omega, p_t)``
with ``Theta = C_t - Cbar``.  Kept as free functions so BDMA, the
baselines, and the tests all score candidate decisions identically.
"""

from __future__ import annotations

import numpy as np

from repro.core.latency import optimal_total_latency
from repro.core.state import Assignment, SlotState
from repro.energy.cost import slot_energy_cost
from repro.network.topology import MECNetwork
from repro.types import BoolArray, FloatArray


def energy_cost(
    network: MECNetwork,
    frequencies: FloatArray,
    price: float,
    *,
    available: BoolArray | None = None,
) -> float:
    """``C_t(Omega_t, p_t)`` (Eq. 13) for the network's servers.

    With the network's quadratic energy table the powers are one vector
    expression, ``scale * (a f^2 + b f + c)`` -- each model's ``power``
    term for term -- summed with the builtin ``sum`` in server order,
    the same float sequence as the per-model loop, which remains for
    any other energy model.

    Args:
        available: Optional server availability mask; offline servers
            draw no power (failure injection).
    """
    table = network.energy_table
    frequencies = np.asarray(frequencies, dtype=np.float64)
    shape = (network.num_servers,)
    if (
        table is not None
        and frequencies.shape == shape
        and (available is None or np.shape(available) == shape)
    ):
        scale, a, b, c = table
        power = scale * (a * frequencies * frequencies + b * frequencies + c)
        if available is not None:
            power = power[np.asarray(available, dtype=bool)]
        return price * sum(power.tolist())
    models = network.energy_models()
    if available is None:
        return slot_energy_cost(models, frequencies, price)
    total_power = sum(
        m.power(float(f))
        for m, f, up in zip(models, frequencies, available)
        if up
    )
    return price * total_power


def theta(
    network: MECNetwork,
    frequencies: FloatArray,
    price: float,
    budget: float,
    *,
    available: BoolArray | None = None,
) -> float:
    """``Theta(Omega_t, p_t) = C_t - Cbar``."""
    return energy_cost(network, frequencies, price, available=available) - budget


def dpp_objective(
    network: MECNetwork,
    state: SlotState,
    assignment: Assignment,
    frequencies: FloatArray,
    *,
    queue_backlog: float,
    v: float,
    budget: float,
) -> float:
    """Evaluate ``f(x, y, Omega)`` -- P2's objective -- for a candidate."""
    latency = optimal_total_latency(network, state, assignment, frequencies)
    return v * latency + queue_backlog * theta(
        network,
        frequencies,
        state.price,
        budget,
        available=state.available_servers,
    )
