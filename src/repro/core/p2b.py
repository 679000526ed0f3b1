"""P2-B: the convex frequency-scaling subproblem.

With the discrete selections fixed, P2-B separates per server into

    min_{omega in [F^L, F^U]}  V * A_n / speed_n(omega)
                               + Q(t) * p_t * g_n(omega),

where ``A_n = (sum_{i on n} sqrt(f_i / sigma_{i,n}))^2`` is the server's
aggregated demand and ``speed_n(omega) = cores_n * omega * 1e9``.  The
first term is convex decreasing, the second convex increasing (the
paper's convex-energy assumption), so each scalar problem is convex on a
box.  The paper hands this to CVX; we solve it with the golden-section
substitute in :mod:`repro.solvers.scalar`: the per-server Python loop
below 64 servers and a *batched* search over all servers that need it
from 64 on.  The two are bit-identical per lane, so the choice is
speed only (numpy dispatch overhead makes the scalar loop win below ~64
servers: measured 320 us vs 1060 us per call at N=16 on the paper
scenario); the tests compare them through the private helpers.
"""

from __future__ import annotations

import numpy as np

from repro.core.latency import server_load_roots
from repro.core.state import Assignment, SlotState
from repro.energy.models import scaled_quadratic_coefficients
from repro.kernels import KernelBackend, get_kernels
from repro.network.topology import MECNetwork
from repro.obs.probe import Tracer, as_tracer
from repro.solvers.scalar import (
    _INVPHI,
    _INVPHI2,
    minimize_convex_scalar,
    minimize_convex_scalar_batch,
)
from repro.types import FloatArray

#: Fleet size above which the batched golden-section search beats the
#: scalar loop (numpy dispatch overhead amortises across lanes).
_BATCH_CUTOVER = 64


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
            closed-form shortcuts, plus ``p2b.batch_iters`` (total
            golden-section iterations across the batch) for fleets of
            64+ servers, which search in one batch.
        backend: Kernel backend for the golden-section search.  A
            backend providing a native ``golden_quad`` (the ``jit``
            backend) replaces the search core when every server has a
            (scaled) quadratic energy model (``network.energy_table``),
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
    batched = network.num_servers >= _BATCH_CUTOVER
    roots = server_load_roots(network, state, assignment)
    demand = roots * roots  # A_n
    energy_pressure = queue_backlog * state.price
    tracer = as_tracer(tracer)
    kernels = get_kernels(backend)
    native = kernels.golden_quad is not None and network.energy_table is not None

    if not batched and not native:
        return _solve_p2b_scalar(
            network, state, demand, energy_pressure, v, tol, tracer
        )
    frequencies, searched, batch_iters = _solve_p2b_batch(
        kernels if native else None, network, state, demand,
        energy_pressure, v, tol,
    )
    if tracer.enabled:
        tracer.counter("p2b.scalar_solves", searched)
        tracer.counter("p2b.fastpath", network.num_servers - searched)
        if batched:
            tracer.counter("p2b.batch_iters", batch_iters)
    return frequencies


def _solve_p2b_batch(
    kernels: "KernelBackend | None",
    network: MECNetwork,
    state: SlotState,
    demand: FloatArray,
    energy_pressure: float,
    v: float,
    tol: float,
) -> tuple[FloatArray, int, int]:
    """``(frequencies, searched servers, total evaluations)``: the
    scalar loop's fast paths as masks and every searched server in one
    golden-section search (on *kernels*' native ``golden_quad`` when
    given).  Bit-identical to :func:`_solve_p2b_scalar`."""
    frequencies, servers = _fast_paths(network, state, demand, energy_pressure)
    batch_iters = 0
    if servers.size:
        latency_scale = _latency_scale(network, servers, demand, v)
        frequencies[servers], batch_iters = _golden_search(
            kernels, network, servers, latency_scale, energy_pressure, tol
        )
    return frequencies, int(servers.size), batch_iters


def _fast_paths(
    network: MECNetwork,
    state: SlotState,
    demand: FloatArray,
    energy_pressure: float,
) -> tuple[FloatArray, np.ndarray]:
    """Frequencies with the fast paths applied, and the lanes to search.

    The scalar loop's precedence as masks: offline -> ``F^L``, idle ->
    ``F^L``, zero energy pressure -> ``F^U``; every other server is
    returned for the golden-section search.
    """
    frequencies = network.freq_min.copy()
    loaded = demand > 0.0
    if state.available_servers is not None:
        loaded &= np.asarray(state.available_servers, dtype=bool)
    if energy_pressure <= 0.0:
        frequencies[loaded] = network.freq_max[loaded]
        return frequencies, np.empty(0, dtype=np.int64)
    return frequencies, np.flatnonzero(loaded)


def _latency_scale(
    network: MECNetwork, servers: np.ndarray, demand: FloatArray, v: float
) -> FloatArray:
    """``V A_n / speed_n(1)``: speed is linear in omega, so the latency
    term of lane ``n`` is this scale over omega."""
    speed_one = network.speed_scale[servers] * 1.0 * 1e9
    return v * demand[servers] / speed_one


def _batch_objective(
    network: MECNetwork,
    servers: np.ndarray,
    latency_scale: FloatArray,
    energy_pressure: float,
):
    """The vectorized P2-B objective over the given server lanes.

    Elementwise identical to the scalar loop's closure: with a
    quadratic energy table the lanes evaluate the quadratic directly on
    its coefficient rows; anything else falls back to each model's
    ``power_many`` (itself elementwise equal to ``power``).
    """
    table = network.energy_table
    if table is not None:
        scale, a, b, c = table[:, servers]

        def objective(freq: FloatArray) -> FloatArray:
            # scale * (a f^2 + b f + c): ScaledEnergyModel's expression
            # tree; plain quadratics carry scale == 1.0, and multiplying
            # by exactly 1.0 is a bitwise identity.
            return latency_scale / freq + energy_pressure * (
                scale * (a * freq * freq + b * freq + c)
            )

        return objective

    groups: dict[int, tuple[object, list[int]]] = {}
    for lane, n in enumerate(servers):
        model = network.servers[int(n)].energy_model
        groups.setdefault(id(model), (model, []))[1].append(lane)
    grouped = [(model, np.array(lanes)) for model, lanes in groups.values()]

    def objective(freq: FloatArray) -> FloatArray:
        out = latency_scale / freq
        for model, lanes in grouped:
            out[lanes] += energy_pressure * model.power_many(freq[lanes])
        return out

    return objective


def _golden_search(
    kernels: "KernelBackend | None",
    network: MECNetwork,
    servers: np.ndarray,
    latency_scale: FloatArray,
    energy_pressure: float,
    tol: float,
) -> tuple[FloatArray, int]:
    """``(x, total_evals)`` for the per-lane golden-section search over
    each server's full ``[F^L, F^U]`` box.

    Uses *kernels*' native ``golden_quad`` when given (the caller checks
    the network has a quadratic energy table) -- bit-identical to the
    NumPy batch search, including the evaluation counts -- and the
    NumPy search otherwise.
    """
    lo, hi = network.freq_min[servers], network.freq_max[servers]
    if kernels is not None:
        scale, a, b, c = network.energy_table[:, servers]
        ep = np.full(servers.size, energy_pressure)
        x, evals = kernels.golden_quad(
            lo, hi, latency_scale, ep, scale, a, b, c, tol
        )
        return x, int(evals.sum())
    result = minimize_convex_scalar_batch(
        _batch_objective(network, servers, latency_scale, energy_pressure),
        lo,
        hi,
        tol=tol,
    )
    return result.x, int(result.iterations.sum())


def _solve_p2b_scalar(
    network: MECNetwork,
    state: SlotState,
    demand: FloatArray,
    energy_pressure: float,
    v: float,
    tol: float,
    tracer: Tracer,
) -> FloatArray:
    """The original per-server loop -- the batch path's reference oracle."""
    scalar_solves = 0
    frequencies = np.empty(network.num_servers)
    for n, server in enumerate(network.servers):
        lo, hi = server.freq_min, server.freq_max
        if (
            state.available_servers is not None
            and not state.available_servers[n]
        ):
            # Offline server: parked; it neither serves nor draws power.
            frequencies[n] = lo
            continue
        if demand[n] <= 0.0:
            frequencies[n] = lo
            continue
        if energy_pressure <= 0.0:
            frequencies[n] = hi
            continue
        # speed(omega) is linear in omega, so V A / speed = scale / omega.
        latency_scale = v * demand[n] / server.speed(1.0)
        model = server.energy_model
        quad = scaled_quadratic_coefficients(model)

        if quad is not None and hi > lo:
            # Golden-section search with the (Scaled)QuadraticEnergyModel
            # objective fused into the loop: the same probe points,
            # branch rule, iteration cap, and endpoint-included
            # first-minimum tie break as minimize_convex_scalar, and the
            # same expression tree as the model's ``power`` --
            # scale * (a f^2 + b f + c), where multiplying by a scale of
            # exactly 1.0 (the unscaled model) is a bitwise identity.
            # Inlining removes a Python call per probe, the hottest
            # scalar-path cost.
            s, qa, qb, qc = quad
            ls, ep = latency_scale, energy_pressure
            threshold = tol * max(1.0, hi - lo)
            a, b = lo, hi
            c = a + _INVPHI2 * (b - a)
            d = a + _INVPHI * (b - a)
            fc = ls / c + ep * (s * (qa * c * c + qb * c + qc))
            fd = ls / d + ep * (s * (qa * d * d + qb * d + qc))
            for _ in range(200):
                if (b - a) <= threshold:
                    break
                if fc <= fd:
                    b, d, fd = d, c, fc
                    c = a + _INVPHI2 * (b - a)
                    fc = ls / c + ep * (s * (qa * c * c + qb * c + qc))
                else:
                    a, c, fc = c, d, fd
                    d = a + _INVPHI * (b - a)
                    fd = ls / d + ep * (s * (qa * d * d + qb * d + qc))
            best_value = ls / lo + ep * (s * (qa * lo * lo + qb * lo + qc))
            best_x = lo
            value_hi = ls / hi + ep * (s * (qa * hi * hi + qb * hi + qc))
            if value_hi < best_value:
                best_value, best_x = value_hi, hi
            if fc < best_value:
                best_value, best_x = fc, c
            if fd < best_value:
                best_value, best_x = fd, d
            frequencies[n] = best_x
        else:

            def objective(freq: float) -> float:
                return latency_scale / freq + energy_pressure * model.power(freq)

            result = minimize_convex_scalar(objective, lo, hi, tol=tol)
            frequencies[n] = result.x
        scalar_solves += 1
    if tracer.enabled:
        tracer.counter("p2b.scalar_solves", scalar_solves)
        tracer.counter("p2b.fastpath", network.num_servers - scalar_solves)
    return frequencies
