"""Structural consistency checks for MEC networks.

:class:`~repro.network.topology.MECNetwork` already enforces referential
integrity at construction time; this module layers on the *semantic*
checks a scenario needs before simulation: every device can reach at
least one (base station, server) pair, all energy models are convex on
their frequency ranges, and coverage is not degenerate.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import InfeasibleError, TopologyError
from repro.network.coverage import coverage_matrix
from repro.network.topology import MECNetwork
from repro.types import BoolArray


def validate_network(
    network: MECNetwork,
    coverage: BoolArray | None = None,
    *,
    check_energy_convexity: bool = True,
) -> None:
    """Raise if *network* cannot support a feasible simulation.

    Args:
        network: The topology to validate.
        coverage: Optional explicit ``(I, K)`` coverage matrix; computed
            from positions and radii when omitted.
        check_energy_convexity: Numerically verify each server's energy
            model is convex on ``[F^L, F^U]`` (the paper's standing
            assumption; P2-B relies on it).

    Raises:
        InfeasibleError: A device has no feasible (base station, server)
            pair.
        TopologyError: A base station reaches no server, or an energy
            model fails the convexity check.
    """
    if coverage is None:
        coverage = coverage_matrix(
            network.device_positions(),
            network.base_station_positions(),
            np.array([b.coverage_radius for b in network.base_stations]),
        )
    if coverage.shape != (network.num_devices, network.num_base_stations):
        raise TopologyError(
            f"coverage must have shape (I, K) = "
            f"({network.num_devices}, {network.num_base_stations})"
        )

    reaches = np.array(
        [
            network.servers_reachable_from(k).size > 0
            for k in range(network.num_base_stations)
        ],
        dtype=bool,
    )
    if not reaches.all():
        bs = network.base_stations[int(np.argmin(reaches))]
        raise TopologyError(f"{bs.label} reaches no server")
    _check_devices(network, np.asarray(coverage, dtype=bool), reaches)

    if check_energy_convexity:
        for server in network.servers:
            if not server.energy_model.check_convex(server.freq_min, server.freq_max):
                raise TopologyError(
                    f"{server.label}: energy model is not convex on "
                    f"[{server.freq_min}, {server.freq_max}] GHz"
                )


def _check_devices(
    network: MECNetwork, coverage: BoolArray, reaches: BoolArray
) -> None:
    """Raise for the lowest-index device without a feasible pair.

    A device needs a covering base station, and -- coverage alone is not
    enough (constraint (3)) -- one of its covering stations must reach a
    server (``reaches[k]``).  One vectorised pass over the ``(I, K)``
    coverage matrix finds every offender; the error names the first.
    """
    feasible = (coverage & reaches[None, :]).any(axis=1)
    if feasible.all():
        return
    i = int(np.argmin(feasible))
    if not coverage[i].any():
        raise InfeasibleError(
            f"{network.devices[i].label} is covered by no base station",
            device=i,
        )
    raise InfeasibleError(
        f"{network.devices[i].label} has no feasible (base station, server) pair",
        device=i,
    )
