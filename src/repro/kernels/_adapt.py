"""Glue adapting the raw flat-argument C kernels to the backend API.

The C provider exposes low-level entry points (flat positional argument
lists over contiguous arrays); this module wraps them into
:class:`~repro.kernels.interface.KernelBackend` callables, owning the
small per-state scratch buffers.

Per-state argument caching: the kernels take raw data pointers
(``convert`` turns an array into a ``ctypes.c_void_p``), and converting
~30 arrays per kernel call dominates the adapter once the kernels
themselves are fast.  A :class:`DecomposedState` is frozen and its game
refills the arrays in place, so each state's arguments are validated
and converted once, together with the adapter's own scratch, and every
later call on that state converts nothing.  ``rebind``'s slot arrays
(spectral efficiencies, bits, cycles, fronthaul efficiencies) are
copied into adapter-owned buffers converted with the rest: a copy costs
a fraction of a pointer conversion.  The only array still converted
per call is the engine's gap vector, and only for a new engine.
``golden_quad`` is not tied to a state: its lanes are copied into
adapter-owned buffers that are converted once per capacity.

``bdma_slot`` binds the fused slot call to a state: a
:class:`SlotBinding` whose one argument, a struct of pointers (the
``_SLOT_STATE_FIELDS``, then adapter-owned buffers and the scalar
block), is built and converted once.  Its caller fills the slot's
arrays, seed profiles and scalars in place, and each call converts
nothing.
"""

from __future__ import annotations

import struct
import sys
import threading
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from repro.kernels.interface import DecomposedState, KernelBackend

__all__ = ["RawKernels", "SlotBinding", "wrap_raw_backend"]


class RawKernels(NamedTuple):
    """The provider's flat-argument entry points."""

    gap_sweep: Callable
    run_dynamics: Callable
    golden_quad: Callable
    reset_profile: Callable
    rebind: Callable
    update_frequencies: Callable
    greedy_pass: Callable
    bdma_slot: Callable
    #: ``pointers -> (struct, argument)``: the fused slot call's struct
    #: of pointers and the argument that passes it.
    slot_struct: Callable


#: DecomposedState fields handed to the raw kernels with dtype int64;
#: every other array field is float64.
_I64_FIELDS = frozenset(
    (
        "cur_idx", "menu_of_bs", "menu_offsets", "menu_servers",
        "nidx", "kbest", "bs_of", "server_of",
    )
)
#: The evaluator fields both search kernels take, in argument order.
_EVALUATOR_FIELDS = (
    "loads", "p", "w", "sub", "wcur", "cur_idx", "menu_of_bs",
    "menu_offsets", "menu_servers", "nidx", "kbest",
)
#: The profile fields only the fused dynamics loop takes, in order.
_PROFILE_FIELDS = (
    "p_access", "p_front", "p_compute", "m_access", "m_front",
    "m_compute", "bs_of", "server_of", "pa_cur", "pc_cur",
    "sq_access", "sq_front", "sq_compute",
)
#: reset_profile's arguments after the sizes, in order.
_RESET_FIELDS = (
    "bs_of", "server_of", "p_access", "p_compute", "m",
    "cur_idx", "cur_p", "loads", "sq", "sub", "wcur",
)
#: rebind's arguments after the sizes and the four slot buffers.
_REBIND_FIELDS = (
    "fronthaul_bandwidth", "speed_scale", "suitability", "frequencies",
    "m_access", "m_front", "m_compute",
    "p_access", "p_front", "p_compute", "p", "w",
)
#: update_frequencies' arguments after the sizes, in order.
_CLOCK_FIELDS = (
    "speed_scale", "frequencies", "p_compute", "server_of", "pc_cur",
    "m_compute", "w", "wcur",
)


#: repro_bdma_slot's struct: the DecomposedState fields it aliases, in
#: the C struct's order; the adapter-owned buffers follow (see
#: SlotBinding).
_SLOT_STATE_FIELDS = (
    "loads", "sq", "m", "cur_p", "p", "w", "sub", "wcur",
    "cur_idx", "menu_of_bs", "menu_offsets", "menu_servers", "nidx", "kbest",
    "cc", "p_access", "p_front", "p_compute", "m_access", "m_front",
    "m_compute", "bs_of", "server_of", "pa_cur", "pc_cur", "sq_access",
    "sq_front", "sq_compute", "frequencies",
    "access_bandwidth", "fronthaul_bandwidth", "speed_scale", "suitability",
    "freq_min", "freq_max", "energy_table",
)
#: Per-round records of the slot call (see repro_bdma_slot): counts
#: (stage, refill kind, moves, converged, searched lanes, golden
#: evaluations) and times (P2-A start, refill, reset, CGBA start,
#: sweep, dynamics, CGBA end, P2-B start, golden, P2-B end).
ROUND_COUNTS = 8
ROUND_TIMES = 10
#: CPython 3.12 made the builtin sum of floats compensated; the slot
#: call mirrors the running interpreter's energy-cost sum.
_COMPENSATED_SUM = int(sys.version_info >= (3, 12))
#: repro_slot_params: the sizes, max_iter, accept_partial, the
#: compensated-sum flag and slack, packed once per binding; then z,
#: warm_start, has_initial, rebind_first, has_deadline, has_available,
#: queue_backlog, v, budget, price and deadline, packed per call.
_FIXED_PARAMS = struct.Struct("@7qd")
_CALL_PARAMS = struct.Struct("@6q5d")


def _validate(arr: np.ndarray, field: str) -> None:
    if not arr.flags.c_contiguous:
        raise ValueError(f"kernel state field {field!r} is not C-contiguous")
    expected = np.int64 if field in _I64_FIELDS else np.float64
    if arr.dtype != expected:
        raise ValueError(
            f"kernel state field {field!r} has dtype {arr.dtype}, "
            f"expected {np.dtype(expected)}"
        )


class _StateCache:
    """Converted kernel arguments for one :class:`DecomposedState`.

    Built on the first kernel call on a state: it validates and
    converts every field once, plus the adapter-owned buffers whose
    shapes are fixed for the life of the state (one adj row, one t row,
    per-menu best values, ``run_dynamics``' resource-major mirrors, the
    best-cost output, the converged flag and ``rebind``'s slot
    buffers).  The only per-call array, the engine's gap vector, is
    validated and converted again only when a different array is
    passed (a new engine).
    """

    __slots__ = (
        "sizes", "evaluator", "profile", "sweep_args", "reset_args",
        "rebind_args", "clock_args", "slot_buffers",
        "buffers", "best", "converged", "gaps", "gaps_arg",
        "converted", "scratch",
    )

    def __init__(self, state: DecomposedState, convert) -> None:
        # Field name -> converted pointer.  The cache lives in the
        # state's kernel_args, so it must not hold the state itself: a
        # cycle would keep the game's arrays alive past the game.
        self.converted: dict = {}

        def arg(name: str):
            return self.arg(state, name, convert)

        num_groups = len(state.cols)
        players, num_bs = state.num_players, state.num_bs
        adj = np.empty(2 * num_bs + state.num_servers)
        t = np.empty(num_bs)
        # The trailing bvals slot stays +inf -- base stations with an
        # empty server menu map to it, so their totals never win the
        # argmin (mirrors the NumPy evaluator's sentinel column).
        bvals = np.empty(num_groups + 1)
        bvals[-1] = np.inf
        # run_dynamics' mirrors, one column per player: p, w, sub and
        # adj (W rows each), t (K rows), the menu bests (G + 1 rows) and
        # the best totals; then the server -> menus map and per-menu
        # stamps.  Each call that makes a second move rebuilds them
        # before reading them, so nothing has to invalidate them.
        width = 2 * num_bs + state.num_servers
        mirror = np.empty((4 * width + num_bs + num_groups + 2) * players)
        imirror = np.empty(
            state.num_servers + 1 + state.menu_servers.size + num_groups,
            dtype=np.int64,
        )
        self.best = np.empty(players)
        self.converged = np.zeros(1, dtype=np.int64)
        # rebind's slot arrays: spectral efficiencies, bits, cycles and
        # fronthaul efficiencies.
        self.slot_buffers = (
            np.empty((players, num_bs)),
            np.empty(players),
            np.empty(players),
            np.empty(num_bs),
        )
        # The converted pointers stay valid only while these live.
        self.buffers = (adj, t, bvals, mirror, imirror)
        scratch = (convert(adj), convert(t), convert(bvals))
        self.scratch = (*scratch, convert(mirror), convert(imirror))
        self.sizes = (players, num_bs, state.num_servers, num_groups)
        self.evaluator = tuple(arg(name) for name in _EVALUATOR_FIELDS)
        self.profile = (
            *(arg(name) for name in _PROFILE_FIELDS),
            *scratch,
            convert(mirror),
            convert(imirror),
            convert(self.converged),
        )
        self.sweep_args = (
            *self.sizes, *self.evaluator,
            convert(self.best), arg("cc"), *scratch,
        )
        sizes3 = self.sizes[:3]
        self.reset_args = (*sizes3, *(arg(name) for name in _RESET_FIELDS))
        self.rebind_args = (
            *sizes3,
            *(convert(buffer) for buffer in self.slot_buffers),
            *(arg(name) for name in _REBIND_FIELDS),
        )
        self.clock_args = (*sizes3, *(arg(name) for name in _CLOCK_FIELDS))
        self.gaps = None
        self.gaps_arg = None

    def arg(self, state: DecomposedState, name: str, convert):
        """*state*'s field *name*, validated and converted once."""
        converted = self.converted.get(name)
        if converted is None:
            arr = getattr(state, name)
            _validate(arr, name)
            converted = self.converted[name] = convert(arr)
        return converted

    def bind_gaps(self, gaps: np.ndarray, convert) -> None:
        """Check and convert a new engine's gap vector, which the loop
        reads and writes for every player."""
        if not gaps.flags.c_contiguous:
            raise ValueError("gaps must be C-contiguous")
        if gaps.dtype != np.float64:
            raise ValueError(f"gaps has dtype {gaps.dtype}, expected float64")
        shape = (self.sizes[0],)
        if gaps.shape != shape:
            raise ValueError(f"gaps has shape {gaps.shape}, expected {shape}")
        self.gaps, self.gaps_arg = gaps, convert(gaps)


class SlotBinding:
    """The fused slot call bound to one state, sized for up to
    ``rounds`` BDMA rounds.

    The caller fills the inputs in place: ``slot_arrays`` (spectral
    efficiencies, bits, cycles, fronthaul efficiencies -- the state
    cache's rebind buffers), the ``available`` mask, ``seeds`` (one
    ``(2, I)`` profile per round) and the per-call scalars through
    ``pack(z, warm_start, has_initial, rebind_first, has_deadline,
    has_available, queue_backlog, v, budget, price, deadline)``.
    ``run()`` then makes the call and returns its status: 0 (decided),
    1 (deadline expired before the first round), 2 (CGBA hit
    ``max_iter`` without ``accept_partial``), 3 (a seed profile puts a
    device on a base station with a non-finite access weight) or 4 (a
    seed entry out of range).

    The results stay in the buffers until the next call: ``out_i``
    (rounds started, rounds run, warm-start hits, truncated, uncovered
    allocation device or -1, decided, shares invalid, engine moves,
    engine sweeps), ``out_f`` (objective, latency, cost, sweep and
    dynamics seconds), ``history``, ``best_assign``, ``best_freq``,
    ``shares`` (rows compute, access, fronthaul) and one row per
    started round in ``rcounts`` and ``rtimes`` (``ROUND_COUNTS`` and
    ``ROUND_TIMES`` columns, see ``repro_bdma_slot``).
    ``kernel_seconds()`` yields ``(kernel, seconds)`` per sub-kernel
    call of the last call, in call order.
    """

    __slots__ = (
        "rounds", "slot_arrays", "available", "seeds", "params", "pack",
        "run", "kernel_seconds", "history", "best_assign", "best_freq",
        "shares", "rcounts", "rtimes", "out_i", "out_f", "arrays", "struct",
    )

    def __init__(self, state: DecomposedState, cache: _StateCache,
                 raw: RawKernels, convert, rounds: int, slack: float,
                 max_iter: int, accept_partial: bool) -> None:
        players, num_bs, num_servers, _ = cache.sizes
        self.rounds = rounds
        self.slot_arrays = cache.slot_buffers
        self.available = np.empty(num_servers, dtype=np.int64)
        self.seeds = np.empty((rounds, 2, players), dtype=np.int64)
        self.best_assign = np.empty((2, players), dtype=np.int64)
        self.best_freq = np.empty(num_servers)
        self.shares = np.empty((3, players))
        self.history = np.empty(rounds)
        self.rtimes = np.zeros((rounds, ROUND_TIMES))
        self.out_f = np.zeros(5)
        self.rcounts = np.zeros((rounds, ROUND_COUNTS), dtype=np.int64)
        self.out_i = np.zeros(9, dtype=np.int64)
        self.params = np.zeros(
            (_FIXED_PARAMS.size + _CALL_PARAMS.size) // 8, dtype=np.int64
        )
        _FIXED_PARAMS.pack_into(
            self.params, 0, *cache.sizes, int(max_iter), int(accept_partial),
            _COMPENSATED_SUM, float(slack),
        )
        self.pack = partial(
            _CALL_PARAMS.pack_into, self.params, _FIXED_PARAMS.size
        )
        # The previous round's profile, the gaps, the clocks, and the
        # server roots, latency terms and per-base-station roots, the
        # powers and Lemma 1's group totals (repro_bdma_slot's layout).
        prev = np.empty((2, players), dtype=np.int64)
        gaps = np.empty(players)
        freq = np.empty(num_servers)
        work = np.empty(4 * num_servers + 5 * num_bs)
        self.arrays = (prev, gaps, freq, work)
        pointers = (
            *(cache.arg(state, name, convert) for name in _SLOT_STATE_FIELDS),
            *(convert(buffer) for buffer in cache.slot_buffers),
            convert(self.available),
            *cache.scratch,
            convert(cache.best), convert(gaps), convert(work),
            *(convert(a) for a in (self.seeds, prev, self.best_assign)),
            *(
                convert(a)
                for a in (
                    freq, self.best_freq, self.shares, self.history,
                    self.rtimes, self.out_f,
                )
            ),
            convert(self.rcounts), convert(self.out_i), convert(self.params),
        )
        self.struct, struct_arg = raw.slot_struct(pointers)
        self.run = partial(raw.bdma_slot, struct_arg)
        # A partial over the buffers, not a bound method, so a wrapper
        # of ``run`` can hold it without a cycle through the binding.
        self.kernel_seconds = partial(
            _kernel_seconds, self.out_i, self.rcounts, self.rtimes
        )


def _kernel_seconds(out_i, rcounts, rtimes):
    """``(kernel, seconds)`` per sub-kernel call of a slot call."""
    started = int(out_i[0])
    for (stage, refill, _, _, searched, _, _, _), times in zip(
        rcounts[:started].tolist(), rtimes[:started].tolist()
    ):
        yield ("rebind" if refill == 1 else "update_frequencies"), times[1]
        yield "reset_profile", times[2]
        if stage >= 2:
            yield "gap_sweep", times[4]
            yield "run_dynamics", times[5]
        if stage == 3 and searched:
            yield "golden_quad", times[8]


#: golden_quad's lane arguments, in order.
_LANE_NAMES = ("lo", "hi", "ls", "ep", "scale", "qa", "qb", "qc")


class _LaneBuffers:
    """``golden_quad``'s adapter-owned lanes, converted once per capacity.

    Eight input rows (``_LANE_NAMES``) plus the ``x`` and ``evals``
    outputs; the capacity at least doubles when a call needs more
    lanes, so conversions stop once the largest call has been seen.
    One set serves the whole backend, and the C call releases the GIL,
    so a call holds ``lock`` from the first copy in to the last copy
    out.
    """

    __slots__ = ("convert", "lock", "capacity", "rows", "x", "evals", "args")

    def __init__(self, convert) -> None:
        self.convert = convert
        self.lock = threading.Lock()
        self.capacity = -1

    def reserve(self, lanes: int) -> "_LaneBuffers":
        if lanes > self.capacity:
            self.capacity = max(lanes, 2 * self.capacity, 16)
            self.rows = np.empty((len(_LANE_NAMES), self.capacity))
            self.x = np.empty(self.capacity)
            self.evals = np.empty(self.capacity, dtype=np.int64)
            self.args = tuple(
                self.convert(a) for a in (*self.rows, self.x, self.evals)
            )
        return self


def wrap_raw_backend(raw: RawKernels, *, convert) -> KernelBackend:
    """Build the ``jit`` :class:`KernelBackend` from the raw C kernels.

    Args:
        raw: The provider's bound entry points.
        convert: Per-array argument conversion (array -> raw data
            pointer for the ctypes provider).
    """

    def _cache(state: DecomposedState) -> _StateCache:
        cache = state.kernel_args.get(convert)
        if cache is None:
            cache = state.kernel_args[convert] = _StateCache(state, convert)
        return cache

    def gap_sweep(state: DecomposedState):
        cache = _cache(state)
        raw.gap_sweep(*cache.sweep_args)
        return cache.best, state.cc

    def run_dynamics(state: DecomposedState, gaps, slack, max_iter):
        cache = _cache(state)
        if gaps is not cache.gaps:
            cache.bind_gaps(gaps, convert)
        moves = raw.run_dynamics(
            *cache.sizes, float(slack), int(max_iter),
            *cache.evaluator, cache.gaps_arg, *cache.profile,
        )
        return int(moves), bool(cache.converged[0])

    def reset_profile(state: DecomposedState) -> bool:
        status = raw.reset_profile(*_cache(state).reset_args)
        if status < 0:
            raise IndexError("strategy profile entry out of range")
        return bool(status)

    def rebind(state: DecomposedState, *slot_arrays) -> None:
        cache = _cache(state)
        for buffer, arr in zip(cache.slot_buffers, slot_arrays, strict=True):
            if arr.shape != buffer.shape:
                raise ValueError(
                    f"slot array has shape {arr.shape}, expected {buffer.shape}"
                )
            np.copyto(buffer, arr)
        raw.rebind(*cache.rebind_args)

    def update_frequencies(state: DecomposedState) -> None:
        raw.update_frequencies(*_cache(state).clock_args)

    def bdma_slot(
        state: DecomposedState, rounds: int, slack, max_iter, accept_partial
    ) -> SlotBinding:
        if state.energy_table is None:
            raise ValueError("bdma_slot needs a quadratic energy table")
        return SlotBinding(
            state, _cache(state), raw, convert, max(rounds, 1), slack,
            max_iter, accept_partial,
        )

    lane_buffers = _LaneBuffers(convert)

    def golden_quad(lo, hi, ls, ep, scale, qa, qb, qc, tol, max_iter=200):
        lanes = (lo, hi, ls, ep, scale, qa, qb, qc)
        shape = np.shape(lo)
        if len(shape) != 1:
            raise ValueError(f"golden_quad lanes must be 1-D, got shape {shape}")
        for name, lane in zip(_LANE_NAMES, lanes):
            if np.shape(lane) != shape:
                raise ValueError(
                    f"golden_quad lane {name!r} has shape {np.shape(lane)}, "
                    f"expected {shape}"
                )
        n = shape[0]
        with lane_buffers.lock:
            buffers = lane_buffers.reserve(n)
            for row, lane in zip(buffers.rows, lanes):
                row[:n] = lane
            lo_arg, hi_arg, *rest = buffers.args
            raw.golden_quad(n, lo_arg, hi_arg, float(tol), int(max_iter), *rest)
            return buffers.x[:n].copy(), buffers.evals[:n].copy()

    def greedy_pass(
        order, offsets, bs, server, p_access, p_front, p_compute,
        m_access, m_front, m_compute, joint,
    ):
        order, offsets, bs, server = (
            np.ascontiguousarray(a, dtype=np.int64)
            for a in (order, offsets, bs, server)
        )
        weights = tuple(
            np.ascontiguousarray(a, dtype=np.float64)
            for a in (
                p_access, p_front, p_compute, m_access, m_front, m_compute
            )
        )
        players = offsets.size - 1
        num_bs, num_servers = weights[3].size, weights[5].size
        shapes = (
            (players, num_bs), (players,), (players, num_servers),
            (num_bs,), (num_bs,), (num_servers,),
        )
        for arr, shape in zip(weights, shapes):
            if arr.shape != shape:
                raise ValueError(
                    f"greedy pass weight has shape {arr.shape}, expected {shape}"
                )
        if server.shape != bs.shape:
            raise ValueError("greedy pass bs and server arrays differ in shape")
        loads = np.empty(2 * num_bs + num_servers)
        bs_of = np.empty(players, dtype=np.int64)
        server_of = np.empty(players, dtype=np.int64)
        status = raw.greedy_pass(
            players, num_bs, num_servers, bs.size, order.size, int(bool(joint)),
            *(convert(a) for a in (order, offsets, bs, server, *weights)),
            convert(loads), convert(bs_of), convert(server_of),
        )
        if status == -2:
            raise ValueError("greedy pass: a device has an empty strategy set")
        if status < 0:
            raise IndexError("greedy pass: device or candidate index out of range")
        return bs_of, server_of

    return KernelBackend(
        name="jit",
        provider="cc",
        gap_sweep=gap_sweep,
        reset_profile=reset_profile,
        rebind=rebind,
        update_frequencies=update_frequencies,
        greedy_pass=greedy_pass,
        run_dynamics=run_dynamics,
        golden_quad=golden_quad,
        bdma_slot=bdma_slot,
    )
