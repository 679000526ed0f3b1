"""P2-B: the convex frequency-scaling subproblem.

With the discrete selections fixed, P2-B separates per server into

    min_{omega in [F^L, F^U]}  V * A_n / speed_n(omega)
                               + Q(t) * p_t * g_n(omega),

where ``A_n = (sum_{i on n} sqrt(f_i / sigma_{i,n}))^2`` is the server's
aggregated demand and ``speed_n(omega) = cores_n * omega * 1e9``.  The
first term is convex decreasing, the second convex increasing (the
paper's convex-energy assumption), so each scalar problem is convex on a
box.  The paper hands this to CVX; we solve it with the golden-section
substitute of :mod:`repro.solvers.scalar`, one server at a time, or with
the backend's native ``golden_quad`` -- the same search, lane for lane
-- when every server has a quadratic energy model.
"""

from __future__ import annotations

import numpy as np

from repro.core.latency import server_load_roots
from repro.core.state import Assignment, SlotState
from repro.kernels import KernelBackend, get_kernels
from repro.network.topology import MECNetwork
from repro.obs.probe import Tracer, as_tracer
from repro.solvers.scalar import minimize_convex_scalar
from repro.types import FloatArray


def solve_p2b(
    network: MECNetwork,
    state: SlotState,
    assignment: Assignment,
    *,
    queue_backlog: float,
    v: float,
    tol: float = 1e-8,
    tracer: "Tracer | None" = None,
    backend: "KernelBackend | str | None" = None,
) -> FloatArray:
    """Optimal clock frequencies ``Omega`` for P2-B.

    Args:
        network: Static topology (speeds, frequency bounds, energy models).
        state: Current system state (task sizes, electricity price).
        assignment: Fixed discrete selections ``(x_t, y_t)``.
        queue_backlog: The virtual queue ``Q(t)``.
        v: The DPP trade-off parameter ``V``.
        tol: Relative tolerance of the scalar search.
        tracer: Observability tracer; when enabled, emits
            ``p2b.scalar_solves`` / ``p2b.fastpath`` counters telling
            how many servers needed the golden-section search versus the
            closed-form shortcuts.
        backend: Kernel backend for the golden-section search.  A
            backend providing a native ``golden_quad`` (the ``jit``
            backend) runs the search when every server has a (scaled)
            quadratic energy model (``network.energy_table``),
            bit-identically; the emitted counters are unchanged, so
            traces diff clean across backends.  ``None`` keeps the
            NumPy search.

    Returns:
        ``(N,)`` array of frequencies in GHz, elementwise in
        ``[F^L, F^U]``.

    Notes:
        Two fast paths avoid the scalar search: with zero energy pressure
        (``Q p_t = 0``) latency alone drives the decision, so loaded
        servers run at ``F^U`` and idle ones at ``F^L``; an idle server
        (``A_n = 0``) always parks at ``F^L`` because only the energy
        term remains, and it is increasing.
    """
    roots = server_load_roots(network, state, assignment)
    demand = roots * roots  # A_n
    energy_pressure = queue_backlog * state.price
    frequencies, servers = _fast_paths(network, state, demand, energy_pressure)
    if servers.size:
        frequencies[servers] = _golden_search(
            get_kernels(backend), network, servers, demand, energy_pressure,
            v, tol,
        )
    tracer = as_tracer(tracer)
    if tracer.enabled:
        tracer.counter("p2b.scalar_solves", servers.size)
        tracer.counter("p2b.fastpath", network.num_servers - servers.size)
    return frequencies


def _fast_paths(
    network: MECNetwork,
    state: SlotState,
    demand: FloatArray,
    energy_pressure: float,
) -> tuple[FloatArray, np.ndarray]:
    """Frequencies with the fast paths applied, and the lanes to search.

    Offline and idle servers park at ``F^L``; with zero energy pressure
    loaded servers run at ``F^U``; every other server is returned for
    the golden-section search.
    """
    frequencies = network.freq_min.copy()
    loaded = demand > 0.0
    if state.available_servers is not None:
        loaded &= np.asarray(state.available_servers, dtype=bool)
    if energy_pressure <= 0.0:
        frequencies[loaded] = network.freq_max[loaded]
        return frequencies, np.empty(0, dtype=np.int64)
    return frequencies, np.flatnonzero(loaded)


def _golden_search(
    kernels: KernelBackend,
    network: MECNetwork,
    servers: np.ndarray,
    demand: FloatArray,
    energy_pressure: float,
    v: float,
    tol: float,
) -> FloatArray:
    """The golden-section minimiser of each searched server's objective
    ``ls / omega + Q p_t g_n(omega)`` over its full ``[F^L, F^U]`` box.

    ``ls = V A_n / speed_n(1)``: speed is linear in omega, so the latency
    term is this scale over omega.  Runs *kernels*' native
    ``golden_quad`` when there is one and the network has a quadratic
    energy table, and :func:`minimize_convex_scalar` on each server's
    ``power`` otherwise; the two are bit-identical.
    """
    lo, hi = network.freq_min[servers], network.freq_max[servers]
    latency_scale = v * demand[servers] / (network.speed_scale[servers] * 1e9)
    if kernels.golden_quad is not None and network.energy_table is not None:
        scale, a, b, c = network.energy_table[:, servers]
        ep = np.full(servers.size, energy_pressure)
        x, _ = kernels.golden_quad(lo, hi, latency_scale, ep, scale, a, b, c, tol)
        return x
    x = np.empty(servers.size)
    for lane, (n, ls, low, high) in enumerate(
        zip(servers.tolist(), latency_scale.tolist(), lo.tolist(), hi.tolist())
    ):
        power = network.servers[n].energy_model.power

        def objective(freq: float) -> float:
            return ls / freq + energy_pressure * power(freq)

        x[lane] = minimize_convex_scalar(objective, low, high, tol=tol).x
    return x
