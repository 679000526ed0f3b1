"""Glue adapting the raw C kernels to the backend API.

The C provider exposes low-level entry points over contiguous arrays;
this module wraps them into
:class:`~repro.kernels.interface.KernelBackend` callables, owning the
small per-state scratch buffers.

One argument layout: every state-bound kernel (``gap_sweep``,
``run_dynamics``, ``reset_profile``, ``rebind``, ``update_frequencies``
and the fused ``bdma_slot``) takes one ``repro_slot`` struct of
pointers.  The kernels take raw data pointers (``convert`` turns an
array into a ``ctypes.c_void_p``), and each conversion costs a few
microseconds.  A :class:`DecomposedState` is frozen and its
game refills the arrays in place, so each state gets one
:class:`_StateCache`: the state's fields (``_SLOT_STATE_FIELDS``) and
the adapter's state-sized buffers (``_CACHE_BUFFERS``) are validated and
converted once and laid out as the struct, and every later call on that
state converts nothing.  ``rebind``'s slot arrays (spectral
efficiencies, bits, cycles, fronthaul efficiencies) are copied into
such buffers: a copy costs a fraction of a pointer conversion.  Besides
the struct, ``run_dynamics`` takes the engine's gap vector, converted
again only for a new engine, and its slack and move budget.

``bdma_slot`` binds the fused slot call to a state: a
:class:`SlotBinding` owns the seed, round and result buffers
(``_BINDING_BUFFERS``) and installs them in the tail of the same
struct, which only the fused call reads.  Its caller fills the slot's
arrays, seed profiles and scalars in place, and each call converts
nothing.

``golden_quad`` and ``greedy_pass`` are not tied to a state and take
flat arguments; ``golden_quad``'s lanes are copied into adapter-owned
buffers that are converted once per capacity.
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
    """The provider's entry points: the state-bound kernels take the
    ``repro_slot`` struct's argument, ``golden_quad`` and
    ``greedy_pass`` flat arguments."""

    gap_sweep: Callable
    run_dynamics: Callable
    golden_quad: Callable
    reset_profile: Callable
    rebind: Callable
    update_frequencies: Callable
    greedy_pass: Callable
    bdma_slot: Callable
    #: ``pointers -> (struct, argument)``: a ``repro_slot`` struct of
    #: pointers (``None`` for NULL) and the argument that passes it.
    slot_struct: Callable


#: DecomposedState fields handed to the raw kernels with dtype int64;
#: every other array field is float64.
_I64_FIELDS = frozenset(
    (
        "cur_idx", "menu_of_bs", "menu_offsets", "menu_servers",
        "nidx", "kbest", "bs_of", "server_of",
    )
)
#: repro_slot's fields, in the C struct's order: the DecomposedState
#: fields it aliases (energy_table is NULL without a quadratic table),
_SLOT_STATE_FIELDS = (
    "loads", "sq", "m", "cur_p", "p", "w", "sub", "wcur",
    "cur_idx", "menu_of_bs", "menu_offsets", "menu_servers", "nidx", "kbest",
    "cc", "p_access", "p_front", "p_compute", "m_access", "m_front",
    "m_compute", "bs_of", "server_of", "pa_cur", "pc_cur", "sq_access",
    "sq_front", "sq_compute", "frequencies",
    "access_bandwidth", "fronthaul_bandwidth", "speed_scale", "suitability",
    "freq_min", "freq_max", "energy_table",
)
#: then the _StateCache buffers: rebind's slot arrays, the sweep
#: scratch, run_dynamics' mirrors, the best costs and the scalars,
_CACHE_BUFFERS = (
    "se", "bits", "cycles", "front_se", "adj", "t", "bvals", "mirror",
    "imirror", "best", "params",
)
#: then a SlotBinding's buffers, which only repro_bdma_slot reads.
_BINDING_BUFFERS = (
    "available", "gaps", "work", "seeds", "prev", "best_assign", "freq",
    "best_freq", "shares", "history", "rtimes", "out_f", "rcounts", "out_i",
)
#: Per-round records of the slot call (see repro_bdma_slot): counts
#: (stage, refill kind, moves, converged, searched lanes) and times
#: (P2-A start, refill, reset, CGBA start, sweep, dynamics, CGBA end,
#: P2-B start, golden, P2-B end).
ROUND_COUNTS = 5
ROUND_TIMES = 10
#: CPython 3.12 made the builtin sum of floats compensated; the slot
#: call mirrors the running interpreter's energy-cost sum.
_COMPENSATED_SUM = int(sys.version_info >= (3, 12))
#: repro_slot_params: the sizes and the compensated-sum flag, packed
#: once per state; then max_iter, accept_partial, slack, z, warm_start,
#: has_initial, rebind_first, has_deadline, has_available, traced,
#: queue_backlog, v, budget, price and deadline, packed before every
#: fused call.
_STATE_PARAMS = struct.Struct("@5q")
_CALL_PARAMS = struct.Struct("@2qd7q5d")


def _field_pointer(state: DecomposedState, name: str, convert):
    """*state*'s field *name*, validated and converted."""
    arr = getattr(state, name)
    if arr is None:
        return None
    if not arr.flags.c_contiguous:
        raise ValueError(f"kernel state field {name!r} is not C-contiguous")
    expected = np.int64 if name in _I64_FIELDS else np.float64
    if arr.dtype != expected:
        raise ValueError(
            f"kernel state field {name!r} has dtype {arr.dtype}, "
            f"expected {np.dtype(expected)}"
        )
    return convert(arr)


class _StateCache:
    """One :class:`DecomposedState`'s ``repro_slot`` struct.

    Built on the first kernel call on a state: it validates and
    converts every state field once, plus the adapter-owned buffers
    whose shapes are fixed for the life of the state (``rebind``'s slot
    arrays, one adj row, one t row, per-menu best values,
    ``run_dynamics``' resource-major mirrors, the best costs and the
    scalar block with the sizes packed).  The tail of the struct holds
    the buffers of the :class:`SlotBinding` that last ran, NULL before.
    ``run_dynamics`` also takes the engine's gap vector, validated and
    converted again only when a different array is passed (a new
    engine), and the ``converged`` flag.
    """

    __slots__ = (
        *_CACHE_BUFFERS, "sizes", "slot_arrays", "converged",
        "converged_arg", "gaps", "gaps_arg", "struct", "arg", "head", "tail",
    )

    def __init__(self, state: DecomposedState, slot_struct, convert) -> None:
        # The cache lives in the state's kernel_args, so it must not
        # hold the state itself: a cycle would keep the game's arrays
        # alive past the game.
        players, num_bs = state.num_players, state.num_bs
        num_servers, num_groups = state.num_servers, len(state.cols)
        width = 2 * num_bs + num_servers
        self.sizes = (players, num_bs, num_servers, num_groups)
        self.slot_arrays = (
            np.empty((players, num_bs)),
            np.empty(players),
            np.empty(players),
            np.empty(num_bs),
        )
        self.se, self.bits, self.cycles, self.front_se = self.slot_arrays
        self.adj = np.empty(width)
        self.t = np.empty(num_bs)
        # The trailing bvals slot stays +inf -- base stations with an
        # empty server menu map to it, so their totals never win the
        # argmin (mirrors the NumPy evaluator's sentinel column).
        self.bvals = np.empty(num_groups + 1)
        self.bvals[-1] = np.inf
        # run_dynamics' mirrors, one column per player: p, w, sub and
        # adj (W rows each), t (K rows), the menu bests (G + 1 rows) and
        # the best totals; then the server -> menus map and per-menu
        # stamps.  Each call that makes a second move rebuilds them
        # before reading them, so nothing has to invalidate them.
        self.mirror = np.empty((4 * width + num_bs + num_groups + 2) * players)
        self.imirror = np.empty(
            num_servers + 1 + state.menu_servers.size + num_groups,
            dtype=np.int64,
        )
        self.best = np.empty(players)
        self.params = np.zeros(
            (_STATE_PARAMS.size + _CALL_PARAMS.size) // 8, dtype=np.int64
        )
        _STATE_PARAMS.pack_into(self.params, 0, *self.sizes, _COMPENSATED_SUM)
        self.converged = np.zeros(1, dtype=np.int64)
        self.converged_arg = convert(self.converged)
        self.gaps = self.gaps_arg = None
        head = (
            *(_field_pointer(state, name, convert) for name in _SLOT_STATE_FIELDS),
            *(convert(getattr(self, name)) for name in _CACHE_BUFFERS),
        )
        self.head, self.tail = len(head), None
        self.struct, self.arg = slot_struct(
            (*head, *[None] * len(_BINDING_BUFFERS))
        )

    def install(self, tail: tuple) -> None:
        """Point the struct's tail at one binding's converted buffers."""
        self.struct[self.head:] = tail
        self.tail = tail

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
    has_available, traced, queue_backlog, v, budget, price, deadline)``.
    ``run()`` then makes the call and returns its status: 0 (decided),
    1 (deadline expired before the first round), 2 (CGBA hit
    ``max_iter`` without ``accept_partial``), 3 (a seed profile puts a
    device on a base station with a non-finite access weight) or 4 (a
    seed entry out of range).  The binding's buffers sit in the tail of
    the state's struct; ``run()`` puts them back first when a later
    binding of the same state has replaced them.

    The results stay in the buffers until the next call: ``out_i``
    (rounds started, rounds run, warm-start hits, truncated, uncovered
    allocation device or -1, decided, shares invalid, engine moves,
    engine sweeps), ``out_f`` (objective, latency, cost, sweep and
    dynamics seconds; when ``traced``, the allocation's access,
    fronthaul and compute share-sum maxima and clock excursion),
    ``history``, ``best_assign``, ``best_freq``,
    ``shares`` (rows compute, access, fronthaul) and one row per
    started round in ``rcounts`` and ``rtimes`` (``ROUND_COUNTS`` and
    ``ROUND_TIMES`` columns, see ``repro_bdma_slot``).
    ``kernel_rows()`` copies those rows out; :func:`kernel_seconds`
    turns them into ``(kernel, seconds)`` per sub-kernel call, in call
    order.
    """

    __slots__ = (
        *_BINDING_BUFFERS, "rounds", "slot_arrays", "pack", "run",
        "kernel_rows",
    )

    def __init__(self, cache: _StateCache, raw: RawKernels, convert,
                 rounds: int, slack: float, max_iter: int,
                 accept_partial: bool) -> None:
        players, num_bs, num_servers, _ = cache.sizes
        self.rounds = rounds
        self.slot_arrays = cache.slot_arrays
        self.available = np.empty(num_servers, dtype=np.int64)
        # The gaps, and the server roots, latency terms and
        # per-base-station roots, the powers and Lemma 1's group totals
        # (repro_bdma_slot's layout).
        self.gaps = np.empty(players)
        self.work = np.empty(4 * num_servers + 5 * num_bs)
        self.seeds = np.empty((rounds, 2, players), dtype=np.int64)
        # The previous round's profile and the clocks.
        self.prev = np.empty((2, players), dtype=np.int64)
        self.best_assign = np.empty((2, players), dtype=np.int64)
        self.freq = np.empty(num_servers)
        self.best_freq = np.empty(num_servers)
        self.shares = np.empty((3, players))
        self.history = np.empty(rounds)
        self.rtimes = np.zeros((rounds, ROUND_TIMES))
        self.out_f = np.zeros(9)
        self.rcounts = np.zeros((rounds, ROUND_COUNTS), dtype=np.int64)
        self.out_i = np.zeros(9, dtype=np.int64)
        tail = tuple(convert(getattr(self, name)) for name in _BINDING_BUFFERS)
        cache.install(tail)
        self.pack = partial(
            _CALL_PARAMS.pack_into, cache.params, _STATE_PARAMS.size,
            int(max_iter), int(accept_partial), float(slack),
        )
        # Partials over the cache and the buffers, not bound methods, so
        # a wrapper of ``run`` can hold them without a cycle through the
        # binding.
        self.run = partial(_run_slot, raw.bdma_slot, cache, tail)
        self.kernel_rows = partial(
            _round_rows, self.out_i, self.rcounts, self.rtimes
        )


def _run_slot(bdma_slot, cache: _StateCache, tail: tuple):
    """The fused call on *cache*'s struct with *tail* installed."""
    if cache.tail is not tail:
        cache.install(tail)
    return bdma_slot(cache.arg)


def _round_rows(out_i, rcounts, rtimes) -> "tuple[list, list]":
    """The last call's ``rcounts`` and ``rtimes`` rows, one per started
    round, as lists."""
    started = int(out_i[0])
    return rcounts[:started].tolist(), rtimes[:started].tolist()


def kernel_seconds(rcounts: list, rtimes: list):
    """``(kernel, seconds)`` per sub-kernel call of a slot call, from
    its :meth:`SlotBinding.kernel_rows`."""
    for (stage, refill, _, _, searched), times in zip(rcounts, rtimes):
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
            cache = state.kernel_args[convert] = _StateCache(
                state, raw.slot_struct, convert
            )
        return cache

    def gap_sweep(state: DecomposedState):
        cache = _cache(state)
        raw.gap_sweep(cache.arg)
        return cache.best, state.cc

    def run_dynamics(state: DecomposedState, gaps, slack, max_iter):
        cache = _cache(state)
        if gaps is not cache.gaps:
            cache.bind_gaps(gaps, convert)
        moves = raw.run_dynamics(
            cache.arg, cache.gaps_arg, float(slack), int(max_iter),
            cache.converged_arg,
        )
        return int(moves), bool(cache.converged[0])

    def reset_profile(state: DecomposedState) -> bool:
        status = raw.reset_profile(_cache(state).arg)
        if status < 0:
            raise IndexError("strategy profile entry out of range")
        return bool(status)

    def rebind(state: DecomposedState, *slot_arrays) -> None:
        cache = _cache(state)
        for buffer, arr in zip(cache.slot_arrays, slot_arrays, strict=True):
            if arr.shape != buffer.shape:
                raise ValueError(
                    f"slot array has shape {arr.shape}, expected {buffer.shape}"
                )
            np.copyto(buffer, arr)
        raw.rebind(cache.arg)

    def update_frequencies(state: DecomposedState) -> None:
        raw.update_frequencies(_cache(state).arg)

    def bdma_slot(
        state: DecomposedState, rounds: int, slack, max_iter, accept_partial
    ) -> SlotBinding:
        if state.energy_table is None:
            raise ValueError("bdma_slot needs a quadratic energy table")
        return SlotBinding(
            _cache(state), raw, convert, max(rounds, 1), slack, max_iter,
            accept_partial,
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
