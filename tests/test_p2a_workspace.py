"""The per-controller P2-A workspace: one game and engine, refilled per slot.

A DPP controller solves P2-A on the same strategy space slot after slot,
so its CGBA solver keeps one :class:`OffloadingCongestionGame` and one
:class:`FastBestResponseEngine` and refills them in place
(``rebind``/``restart``) instead of building new ones.  These tests pin
the two halves of that contract on the NumPy and jit backends:

* a rebound game is bitwise a freshly constructed one (every kernel
  state array, the rng after the profile draw, the CGBA equilibrium);
* in steady state nothing is rebuilt: no game or engine construction
  and no kernel-argument conversion after the first slot (the slot's
  own arrays are copied into converted buffers), exactly one
  new game per strategy-space change, and a checkpoint resumed with a
  fresh workspace replays a straight run bit for bit.
"""

from __future__ import annotations

import ctypes
import dataclasses
import gc
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro
from repro.core.cgba import solve_p2a_cgba
from repro.core.congestion_game import OffloadingCongestionGame
from repro.kernels import available_backends, get_kernels
from repro.kernels._adapt import wrap_raw_backend
from repro.network.connectivity import StrategySpace
from repro.radio.fronthaul import ScintillatingFronthaul
from repro.sim.checkpoint import Checkpoint, run_checkpointed
from repro.sim.faults import FaultPlan, ScriptedIncident
from repro.solvers.fast_engine import FastBestResponseEngine

requires_jit = pytest.mark.skipif(
    not available_backends()["jit"],
    reason="backend 'jit' has no real provider (the C kernels did not build)",
)
BACKENDS = ("numpy", pytest.param("jit", marks=requires_jit))

#: Move cap for the engine runs: far above what these games need, low
#: enough that a broken refill fails fast instead of cycling.
MAX_MOVES = 2_000

#: DecomposedState fields that are not arrays.
_NON_ARRAY_FIELDS = ("num_players", "num_bs", "num_servers", "cols", "kernel_args")


def kernel_arrays(game: OffloadingCongestionGame) -> dict[str, np.ndarray]:
    ks = game.kernel_state()
    return {
        f.name: getattr(ks, f.name)
        for f in dataclasses.fields(ks)
        if f.name not in _NON_ARRAY_FIELDS
    }


def assert_games_identical(a, b) -> None:
    """Bitwise equality of everything a kernel or the engine reads."""
    arrays_a, arrays_b = kernel_arrays(a), kernel_arrays(b)
    for name in arrays_a:
        np.testing.assert_array_equal(arrays_a[name], arrays_b[name], err_msg=name)
        assert arrays_a[name].dtype == arrays_b[name].dtype, name
    for name in ("_load_access", "_load_front", "_load_compute"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name), name)
    assert a.total_cost() == b.total_cost()
    assert a.potential() == b.potential()


def slot_sequence(seed: int, num_devices: int, slots: int, varying_fronthaul: bool):
    """A random topology, *slots* states on its (static) coverage, and
    random clocks per slot."""
    scenario = repro.make_paper_scenario(
        seed=seed,
        config=repro.ScenarioConfig(num_devices=num_devices),
        num_base_stations=4,
        num_clusters=2,
        servers_per_cluster=3,
        num_macro_stations=1,
        fronthaul=ScintillatingFronthaul(std=0.3) if varying_fronthaul else None,
    )
    network = scenario.network
    states = list(scenario.fresh_states(slots))
    space = StrategySpace(network, states[0].coverage())
    for state in states:
        assert np.array_equal(state.coverage(), space.coverage)
    clock_rng = np.random.default_rng(seed)
    clocks = [
        clock_rng.uniform(network.freq_min, network.freq_max) for _ in states
    ]
    return network, space, states, clocks


class TestRebindEqualsFresh:
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(0, 10_000),
        num_devices=st.integers(2, 14),
        slots=st.integers(2, 5),
        varying_fronthaul=st.booleans(),
        warm=st.lists(st.booleans(), min_size=5, max_size=5),
    )
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_rebound_game_is_a_fresh_game(
        self, backend, seed, num_devices, slots, varying_fronthaul, warm
    ) -> None:
        network, space, states, clocks = slot_sequence(
            seed, num_devices, slots, varying_fronthaul
        )
        kernels = get_kernels(backend)
        rng_fresh = np.random.default_rng(seed + 1)
        rng_rebound = np.random.default_rng(seed + 1)
        rebound = OffloadingCongestionGame(
            network, states[0], space, clocks[0], rng=rng_rebound, kernels=kernels
        )
        rng_fresh.bit_generator.state = rng_rebound.bit_generator.state
        ks = rebound.kernel_state()
        engine = FastBestResponseEngine(rebound)
        engine.run(max_iter=MAX_MOVES)
        previous = rebound.assignment()
        for t in range(1, slots):
            initial = previous if warm[t] else None
            fresh = OffloadingCongestionGame(
                network, states[t], space, clocks[t],
                initial=initial, rng=rng_fresh, kernels=kernels,
            )
            rebound.rebind(states[t], clocks[t], initial, rng=rng_rebound)
            assert rebound.state is states[t]
            assert rebound.kernel_state() is ks
            assert rng_fresh.bit_generator.state == rng_rebound.bit_generator.state
            np.testing.assert_array_equal(
                fresh.assignment().bs_of, rebound.assignment().bs_of
            )
            np.testing.assert_array_equal(
                fresh.assignment().server_of, rebound.assignment().server_of
            )
            for got, want in zip(
                rebound.batch_gap_costs(), fresh.batch_gap_costs()
            ):
                np.testing.assert_array_equal(got, want)
            for i in range(rebound.num_players):
                assert rebound.best_strategy_for(i) == fresh.best_strategy_for(i)

            engine.restart()
            got = engine.run(max_iter=MAX_MOVES)
            want = FastBestResponseEngine(fresh).run(max_iter=MAX_MOVES)
            assert (got.iterations, got.converged, got.total_cost) == (
                want.iterations, want.converged, want.total_cost,
            )
            assert got.stats.sweeps == want.stats.sweeps
            assert got.stats.candidate_evaluations == want.stats.candidate_evaluations
            assert_games_identical(rebound, fresh)
            previous = rebound.assignment()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_solve_with_reuse_matches_fresh_solves(self, backend) -> None:
        network, space, states, clocks = slot_sequence(5, 12, 6, True)
        rng_reused = np.random.default_rng(9)
        rng_fresh = np.random.default_rng(9)
        reused = None
        first_game = None
        for state, clock in zip(states, clocks):
            # Two solves per state: a new slot (rebind), then a second
            # round on the same state (new clocks, re-seeded profile).
            for frequencies in (clock, network.freq_max):
                reused = solve_p2a_cgba(
                    network, state, space, frequencies, rng_reused,
                    reuse=reused, backend=backend,
                )
                fresh = solve_p2a_cgba(
                    network, state, space, frequencies, rng_fresh, backend=backend
                )
                first_game = first_game or reused.game
                assert reused.game is first_game
                np.testing.assert_array_equal(
                    reused.assignment.bs_of, fresh.assignment.bs_of
                )
                np.testing.assert_array_equal(
                    reused.assignment.server_of, fresh.assignment.server_of
                )
                assert reused.total_latency == fresh.total_latency
                assert reused.iterations == fresh.iterations
                assert reused.engine_stats.moves == fresh.engine_stats.moves
                assert_games_identical(reused.game, fresh.game)

    def test_new_space_builds_a_new_game(self) -> None:
        network, space, states, clocks = slot_sequence(3, 8, 2, False)
        rng = np.random.default_rng(0)
        first = solve_p2a_cgba(network, states[0], space, clocks[0], rng)
        other = StrategySpace(network, space.coverage)
        second = solve_p2a_cgba(
            network, states[1], other, clocks[1], rng, reuse=first
        )
        assert second.game is not first.game
        assert second.fast_engine is not first.fast_engine
        # A different slack needs a different engine, on the same game.
        third = solve_p2a_cgba(
            network, states[1], other, clocks[1], rng, reuse=second, slack=0.05
        )
        assert third.game is second.game
        assert third.fast_engine is not second.fast_engine


    @pytest.mark.parametrize("backend", BACKENDS)
    def test_replaced_game_is_freed_by_refcount(self, backend) -> None:
        """No game<->engine cycle, and no cycle through the kernel
        adapter's per-state cache: dropping the last result frees the
        game, its kernel state (and with it the game's arrays) and its
        engine without the cycle collector."""
        network, space, states, clocks = slot_sequence(4, 8, 2, False)
        rng = np.random.default_rng(0)
        gc.disable()
        try:
            first = solve_p2a_cgba(
                network, states[0], space, clocks[0], rng, backend=backend
            )
            game, engine = weakref.ref(first.game), weakref.ref(first.fast_engine)
            kernel_state = weakref.ref(first.game.kernel_state())
            other = StrategySpace(network, space.coverage)
            solve_p2a_cgba(
                network, states[1], other, clocks[1], rng, reuse=first,
                backend=backend,
            )
            del first
            assert game() is None and engine() is None
            assert kernel_state() is None
        finally:
            gc.enable()


def counting_jit_backend(*, fused: bool = False):
    """The C provider's raw kernels behind a conversion-recording adapter.

    P2-B's golden-section kernel is dropped (P2-B then runs the NumPy
    search, bit-identical by contract), so every conversion recorded
    belongs to the P2-A kernels and the game's refills.  The fused slot
    kernel is dropped too, so controllers run the Python loop on the C
    P2-A kernels, unless *fused*: then controllers run every slot as
    one ``bdma_slot`` call and the conversions are its struct's.
    """
    from repro.kernels import native

    raw = native._bind(ctypes.CDLL(str(native._build_library())))
    converted: list[np.ndarray] = []

    def convert(arr):
        converted.append(arr)
        return native._as_ptr(arr)

    backend = wrap_raw_backend(raw, convert=convert)
    if not fused:
        backend = dataclasses.replace(backend, bdma_slot=None)
    return dataclasses.replace(backend, golden_quad=None), converted


@pytest.fixture
def constructions(monkeypatch):
    """Count game and engine constructions.

    Games are counted at their buffer allocation, which both the
    constructor and ``OffloadingCongestionGame.unbound`` (the fused slot
    path's workspace) run.
    """
    counts = {"game": 0, "engine": 0}
    for key, cls, method in (
        ("game", OffloadingCongestionGame, "_allocate"),
        ("engine", FastBestResponseEngine, "__init__"),
    ):
        original = getattr(cls, method)

        def counted(self, *args, _original=original, _key=key, **kwargs):
            counts[_key] += 1
            _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, method, counted)
    return counts


def small_scenario(fault_plan=None) -> repro.Scenario:
    return repro.make_paper_scenario(
        seed=42,
        config=repro.ScenarioConfig(num_devices=12),
        num_base_stations=3,
        num_clusters=2,
        servers_per_cluster=2,
        num_macro_stations=1,
        fault_plan=fault_plan,
    )


def make_controller(scenario, backend) -> repro.DPPController:
    return repro.DPPController(
        scenario.network,
        scenario.controller_rng("workspace"),
        v=100.0,
        budget=scenario.budget,
        z=3,
        engine_backend=backend,
    )


class TestSteadyState:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_nothing_is_rebuilt_after_the_first_slot(
        self, backend, constructions
    ) -> None:
        if backend == "jit":
            backend, converted = counting_jit_backend()
        else:
            converted = []
        scenario = small_scenario()
        controller = make_controller(scenario, backend)
        states = scenario.fresh_states(12)
        controller.step(next(states))
        assert constructions == {"game": 1, "engine": 1}
        assert converted or backend == "numpy"
        for state in states:
            converted.clear()
            controller.step(state)
            # Not even the slot's own arrays: rebind copies them into
            # buffers converted with the rest.
            assert converted == []
        assert constructions == {"game": 1, "engine": 1}
        # The public solver slot still reports "no solver chosen".
        assert controller.p2a_solver is None

    @requires_jit
    def test_fused_slots_rebuild_nothing_after_the_first(
        self, constructions
    ) -> None:
        backend, converted = counting_jit_backend(fused=True)
        scenario = small_scenario()
        controller = make_controller(scenario, backend)
        states = scenario.fresh_states(12)
        controller.step(next(states))
        # One unbound game for the kernel to refill; CGBA's engine runs
        # inside the call, so none is built.
        assert constructions == {"game": 1, "engine": 0}
        assert converted
        for state in states:
            converted.clear()
            controller.step(state)
            assert converted == []
        assert constructions == {"game": 1, "engine": 0}

    @requires_jit
    def test_fused_first_slot_converts_each_array_once(self) -> None:
        # One repro_slot struct per state: the fused slot and the
        # separate kernels share its pointers, so no array is converted
        # twice.
        backend, converted = counting_jit_backend(fused=True)
        scenario = repro.make_paper_scenario(seed=7)
        controller = make_controller(scenario, backend)
        controller.step(next(scenario.fresh_states(1)))
        assert converted
        assert len(converted) == len({id(arr) for arr in converted})

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_space_change_builds_exactly_one_game(
        self, backend, constructions
    ) -> None:
        plan = FaultPlan(
            schedule=[
                ScriptedIncident(at=4, duration=3, kind="server_down", targets=(1,))
            ]
        )
        scenario = small_scenario(plan)
        controller = make_controller(scenario, backend)
        built = []
        for state in scenario.fresh_states(10):
            before = constructions["game"]
            controller.step(state)
            built.append(constructions["game"] - before)
        # Slot 0 builds the workspace; the outage (slots 4-6) and the
        # recovery at slot 7 each change the strategy space once.
        assert built == [1, 0, 0, 0, 1, 0, 0, 1, 0, 0]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_resume_with_fresh_workspace_is_bit_identical(
        self, backend, tmp_path, constructions
    ) -> None:
        horizon = 12
        scenario = small_scenario()
        straight = repro.run_simulation(
            make_controller(scenario, backend),
            scenario.fresh_compiled_states(horizon),
            budget=scenario.budget,
        )
        path = tmp_path / "run.ckpt"
        killed_at = {"n": 0}

        def kill(record) -> None:
            killed_at["n"] += 1
            if killed_at["n"] == 7:
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            run_checkpointed(
                scenario, make_controller(scenario, backend),
                horizon=horizon, path=path, every=5, on_slot=kill,
            )
        assert Checkpoint.load(path).completed == 5
        fresh = small_scenario()
        before = constructions["game"]
        resumed = run_checkpointed(
            fresh, make_controller(fresh, backend),
            horizon=horizon, path=path, every=5, resume=True,
        )
        assert constructions["game"] == before + 1
        for name in ("latency", "cost", "theta", "backlog"):
            np.testing.assert_array_equal(
                getattr(resumed, name), getattr(straight, name), err_msg=name
            )
