"""NumPy vs C for CGBA's best-response dynamics.

The jit backend runs the whole best-response loop as one C call
(``run_dynamics``); the NumPy backend has no fused loop, so the engine
drives the same dynamics from Python with one ``gap_sweep`` per move.
The C loop refreshes the first move player by player and every later
move incrementally, from resource-major mirrors rebuilt by each call,
so these tests draw random games that reach every branch of it:
overlapping server menus, base stations whose menu is empty, uncovered
links (``+inf`` weights), zero-demand players, moves that keep the base
station or the server, one-move calls, slack 0 and slack > 0, and move
budgets that run out.  The C loop must end where the Python loop ends,
byte for byte.

The adapter in front of the C loop must also refuse a gap vector it
would read or write out of bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.cgba import solve_p2a_cgba
from repro.core.congestion_game import OffloadingCongestionGame
from repro.core.state import Assignment, SlotState
from repro.energy.models import QuadraticEnergyModel
from repro.exceptions import ConvergenceError
from repro.kernels import available_backends, get_kernels
from repro.network.connectivity import StrategySpace
from repro.network.topology import (
    BaseStation,
    EdgeServer,
    FronthaulType,
    MECNetwork,
    MobileDevice,
    ServerCluster,
)
from repro.solvers.fast_engine import FastBestResponseEngine

pytestmark = pytest.mark.skipif(
    not available_backends()["jit"],
    reason="backend 'jit' has no real provider (the C kernels did not build)",
)

SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

#: Kernel-state fields the loop leaves behind and the tests compare.
FINAL_FIELDS = (
    "loads", "sq", "sub", "wcur", "cur_idx", "bs_of", "server_of",
    "kbest", "nidx",
)

#: A move budget no drawn game needs.
UNBOUNDED = 10_000


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@dataclass
class Case:
    """One drawn game plus how to play it."""

    network: MECNetwork
    state: SlotState
    space: StrategySpace
    frequencies: np.ndarray
    slack: float
    max_iter: int
    profile_seed: int
    initial: "Assignment | None" = None
    features: set = field(default_factory=set)


def _choice(rng, values, size=None):
    return np.asarray(values, dtype=np.float64)[rng.integers(len(values), size=size)]


def draw_case(seed: int) -> Case:
    """A random game from *seed*.

    Half the games draw their numbers from small sets, so exact cost
    ties are common and the first-minimum rules decide moves.
    """
    rng = np.random.default_rng(seed)
    features: set = set()
    num_bs = int(rng.integers(1, 5))
    sizes = rng.integers(1, 4, size=int(rng.integers(1, 4)))
    num_servers = int(sizes.sum())
    num_devices = int(rng.choice([1, 2, 5, 12, 17, 33, 40]))
    discrete = bool(rng.integers(2))

    cluster_of = np.repeat(np.arange(sizes.size), sizes)
    clusters = tuple(
        ServerCluster(index=c, servers=tuple(np.flatnonzero(cluster_of == c).tolist()))
        for c in range(sizes.size)
    )
    energy = QuadraticEnergyModel(a=5.0, b=2.0, c=10.0)
    servers = tuple(
        EdgeServer(
            index=n, cluster=int(cluster_of[n]), cores=64, freq_min=1.8,
            freq_max=3.6, energy_model=energy,
            speed_scale=float(_choice(rng, (1.0, 2.0, 3.0))),
        )
        for n in range(num_servers)
    )
    base_stations = []
    for k in range(num_bs):
        reach = np.flatnonzero(rng.random(sizes.size) < 0.6)
        if reach.size == 0:
            reach = np.array([rng.integers(sizes.size)])
        base_stations.append(
            BaseStation(
                index=k,
                position=(0.0, 0.0),
                coverage_radius=1.0,
                access_bandwidth=float(_choice(rng, (20e6, 40e6, 80e6))),
                fronthaul_bandwidth=float(_choice(rng, (0.2e9, 0.8e9))),
                fronthaul_spectral_efficiency=10.0,
                fronthaul_type=(
                    FronthaulType.WIRED if reach.size == 1 else FronthaulType.WIRELESS
                ),
                connected_clusters=tuple(int(c) for c in reach),
            )
        )
    devices = tuple(
        MobileDevice(index=i, position=(0.0, 0.0)) for i in range(num_devices)
    )
    if discrete:
        suitability = _choice(rng, (0.5, 1.0), size=(num_devices, num_servers))
    else:
        suitability = rng.uniform(0.3, 1.0, size=(num_devices, num_servers))
    network = MECNetwork(
        tuple(base_stations), clusters, servers, devices, suitability
    )

    # Servers down at random; a base station whose reachable servers are
    # all down keeps no menu.  At least one server stays up.
    available = rng.random(num_servers) < 0.75
    available[rng.integers(num_servers)] = True
    menus = [
        np.array(
            [n for n in network.servers_reachable_from(k) if available[n]],
            dtype=np.int64,
        )
        for k in range(num_bs)
    ]
    usable = np.array([menu.size > 0 for menu in menus])
    if not usable.any():
        available[:] = True
        usable[:] = True

    # Coverage: uncovered links carry h = 0 (+inf access weight); every
    # device keeps at least one station with a usable menu.
    if discrete:
        h = _choice(rng, (1.0, 2.0, 4.0), size=(num_devices, num_bs))
    else:
        h = rng.uniform(0.5, 30.0, size=(num_devices, num_bs))
    h[rng.random((num_devices, num_bs)) < 0.35] = 0.0
    for i in range(num_devices):
        if not (h[i] > 0.0)[usable].any():
            h[i, rng.choice(np.flatnonzero(usable))] = 2.0
    if discrete:
        bits = _choice(rng, (1e6, 2e6), size=num_devices)
        cycles = _choice(rng, (1e8, 2e8), size=num_devices)
    else:
        bits = rng.uniform(1e6, 8e6, size=num_devices)
        cycles = rng.uniform(5e7, 3e8, size=num_devices)
    idle = rng.random(num_devices) < 0.2
    bits[idle] = 0.0
    cycles[idle] = 0.0
    state = SlotState(
        t=0, cycles=cycles, bits=bits, spectral_efficiency=h, price=0.5,
        available_servers=None if available.all() else available,
    )
    space = StrategySpace(network, state.coverage(), state.available_servers)
    frequencies = rng.uniform(network.freq_min, network.freq_max)

    menu_of_bs, distinct = space.product_patterns()
    if (menu_of_bs == len(distinct)).any():
        features.add("empty menu")
    if len(distinct) > 1 and np.unique(np.concatenate(distinct)).size < sum(
        menu.size for menu in distinct
    ):
        features.add("overlapping menus")
    if idle.any():
        features.add("zero demand")
    if (h == 0.0).any():
        features.add("uncovered link")
    slack = float(_choice(rng, (0.0, 0.0, 0.05, 0.3)))
    max_iter = int(rng.choice([1, 2, 3, 7, 20, UNBOUNDED, UNBOUNDED, UNBOUNDED]))
    return Case(
        network, state, space, frequencies, slack, max_iter,
        profile_seed=int(rng.integers(2**31)), features=features,
    )


def perturbed_equilibrium(case: Case) -> "Assignment | None":
    """An equilibrium with one device moved off it: calls started
    there often make exactly one move."""
    game = OffloadingCongestionGame(
        case.network, case.state, case.space, case.frequencies,
        rng=np.random.default_rng(case.profile_seed), kernels="numpy",
    )
    FastBestResponseEngine(game, slack=case.slack).run(max_iter=UNBOUNDED)
    equilibrium = game.assignment()
    bs_of, server_of = equilibrium.bs_of.copy(), equilibrium.server_of.copy()
    rng = np.random.default_rng(case.profile_seed + 1)
    for i in rng.permutation(case.network.num_devices):
        ks, ns = case.space.pairs(int(i))
        other = np.flatnonzero((ks != bs_of[i]) | (ns != server_of[i]))
        if other.size:
            j = int(rng.choice(other))
            bs_of[i], server_of[i] = ks[j], ns[j]
            return Assignment(bs_of=bs_of, server_of=server_of)
    return None


def play(case: Case, backend: str, moves_seen: "list | None" = None):
    """Run the engine on a fresh game; returns (game, engine, converged)."""
    game = OffloadingCongestionGame(
        case.network, case.state, case.space, case.frequencies,
        initial=case.initial, rng=np.random.default_rng(case.profile_seed),
        kernels=backend,
    )
    if moves_seen is not None:
        move = game.move

        def recording_move(player, strategy):
            moves_seen.append((*game.strategy_of(player), *strategy))
            move(player, strategy)

        game.move = recording_move
    engine = FastBestResponseEngine(game, slack=case.slack)
    try:
        result = engine.run(max_iter=case.max_iter)
    except ConvergenceError as exc:
        assert exc.best_so_far.iterations == case.max_iter
        return game, engine, False
    assert result.iterations == engine.stats.moves
    return game, engine, True


def assert_same_dynamics(case: Case, moves_seen: "list | None" = None) -> tuple:
    """Play *case* on both backends and compare everything the loop
    leaves behind; returns (moves, converged)."""
    oracle, oracle_engine, oracle_converged = play(case, "numpy", moves_seen)
    native, native_engine, native_converged = play(case, "jit")
    assert get_kernels("jit").run_dynamics is not None
    assert native_converged == oracle_converged
    assert native_engine.stats.moves == oracle_engine.stats.moves
    assert native_engine.stats.sweeps == oracle_engine.stats.sweeps
    assert (
        native_engine.stats.candidate_evaluations
        == oracle_engine.stats.candidate_evaluations
    )
    assert same_bits(native_engine.gaps, oracle_engine.gaps), "gaps"
    want, got = oracle.kernel_state(), native.kernel_state()
    for name in FINAL_FIELDS:
        assert same_bits(getattr(got, name), getattr(want, name)), name
    assert same_bits(native.total_cost(), oracle.total_cost())
    return oracle_engine.stats.moves, oracle_converged


def assert_same_partial_result(case: Case) -> None:
    """``solve_p2a_cgba(accept_partial=...)`` agrees on both backends."""
    results = {}
    for backend in ("numpy", "jit"):
        kwargs = dict(
            slack=case.slack, initial=case.initial, max_iter=case.max_iter,
            backend=backend,
        )
        rng = np.random.default_rng(case.profile_seed)
        results[backend] = solve_p2a_cgba(
            case.network, case.state, case.space, case.frequencies, rng,
            accept_partial=True, **kwargs,
        )
        try:
            strict = solve_p2a_cgba(
                case.network, case.state, case.space, case.frequencies,
                np.random.default_rng(case.profile_seed), **kwargs,
            )
        except ConvergenceError:
            assert not results[backend].converged
        else:
            assert strict.converged and results[backend].converged
    want, got = results["numpy"], results["jit"]
    assert got.converged == want.converged
    assert got.iterations == want.iterations
    assert same_bits(got.total_latency, want.total_latency)
    assert same_bits(got.assignment.bs_of, want.assignment.bs_of)
    assert same_bits(got.assignment.server_of, want.assignment.server_of)


class TestDynamicsMatchesPythonLoop:
    @SETTINGS
    @given(seed=st.integers(0, 2**32 - 1), perturb=st.booleans())
    def test_random_games(self, seed: int, perturb: bool) -> None:
        case = draw_case(seed)
        if perturb:
            case.initial = perturbed_equilibrium(case)
        assert_same_dynamics(case)

    @settings(
        max_examples=25, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(seed=st.integers(0, 2**32 - 1))
    def test_accept_partial(self, seed: int) -> None:
        assert_same_partial_result(draw_case(seed))

    def test_fixed_battery_reaches_every_branch(self) -> None:
        """A fixed set of games, checked like the drawn ones, that is
        known to reach every case the incremental loop distinguishes."""
        seen: set = set()
        for seed in range(60):
            case = draw_case(seed)
            if seed % 2:
                case.initial = perturbed_equilibrium(case)
            moves_seen: list = []
            moves, converged = assert_same_dynamics(case, moves_seen)
            seen |= case.features
            seen.add("slack > 0" if case.slack > 0.0 else "slack 0")
            if converged and moves == 1:
                seen.add("one-move call")
            if moves >= 3:
                seen.add("incremental moves")
            if not converged and moves >= 3:
                seen.add("budget ran out")
            for k_old, n_old, k_new, n_new in moves_seen:
                if k_old == k_new:
                    seen.add("kept base station")
                if n_old == n_new:
                    seen.add("kept server")
        assert seen >= {
            "empty menu", "overlapping menus", "zero demand", "uncovered link",
            "slack 0", "slack > 0", "one-move call", "incremental moves",
            "budget ran out", "kept base station", "kept server",
        }

    def test_many_moves_on_a_wide_game(self) -> None:
        """Long calls on a game with more players than any vector width."""
        for seed in range(200, 260):
            case = draw_case(seed)
            if case.network.num_devices >= 17:
                case.max_iter = UNBOUNDED
                moves, _ = assert_same_dynamics(case)
                if moves >= 10:
                    return
        pytest.fail("no drawn game made ten moves")


class TestGapVectorChecks:
    """The C loop reads and writes ``gaps`` for every player, so the
    adapter refuses any vector that does not hold exactly that."""

    def _game(self) -> OffloadingCongestionGame:
        case = next(
            case
            for case in map(draw_case, range(100))
            if case.network.num_devices > 1
        )
        return OffloadingCongestionGame(
            case.network, case.state, case.space, case.frequencies,
            rng=np.random.default_rng(0), kernels="jit",
        )

    @pytest.mark.parametrize(
        "make, message",
        (
            (lambda n: np.zeros(n, dtype=np.float32), "dtype"),
            (lambda n: np.zeros(n - 1), "shape"),
            (lambda n: np.zeros(n + 1), "shape"),
            (lambda n: np.zeros((n, 1)), "shape"),
            (lambda n: np.zeros(2 * n)[::2], "C-contiguous"),
        ),
    )
    def test_bad_gap_vector_rejected(self, make, message) -> None:
        game = self._game()
        gaps = make(game.num_players)
        run_dynamics = get_kernels("jit").run_dynamics
        before = game.kernel_state().loads.copy()
        with pytest.raises(ValueError, match=message):
            run_dynamics(game.kernel_state(), gaps, 0.0, 10)
        assert same_bits(game.kernel_state().loads, before)

    def test_checked_once_per_vector(self) -> None:
        game = self._game()
        engine = FastBestResponseEngine(game)
        engine.run(max_iter=UNBOUNDED)
        cache = next(iter(game.kernel_state().kernel_args.values()))
        assert cache.gaps is engine.gaps
        bound = cache.gaps_arg
        engine.restart()
        engine.run(max_iter=UNBOUNDED)
        assert cache.gaps_arg is bound
