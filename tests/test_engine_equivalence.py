"""Fast engine vs reference dynamics: exact-equivalence and property tests.

The fast engine (one decomposed gap sweep per move, or the jit
backend's fused ``run_dynamics`` loop) is specified to replay the
reference per-player dynamics *exactly* (same IEEE arithmetic, same
first-maximum pick), so these tests assert bit-identical final
assignments and equal move counts -- not just close potentials --
across randomized games, slacks and both kernel backends.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.core.cgba import solve_p2a_cgba
from repro.core.congestion_game import OffloadingCongestionGame
from repro.kernels import available_backends, get_kernels
from repro.network.connectivity import StrategySpace
from repro.solvers.fast_engine import FastBestResponseEngine
from repro.solvers.potential_game import best_response_dynamics

from conftest import make_tiny_network, make_tiny_state

requires_jit = pytest.mark.skipif(
    not available_backends()["jit"],
    reason="backend 'jit' has no real provider (the C kernels did not build)",
)
BACKENDS = ["numpy", pytest.param("jit", marks=requires_jit)]


def real_backends() -> list[str]:
    """The backends with a real provider here (numpy always)."""
    return [name for name, real in available_backends().items() if real]


def random_instance(seed: int, num_devices: int = 12):
    """A small randomized P2-A instance keyed by *seed*."""
    scenario = repro.make_paper_scenario(
        seed=seed,
        config=repro.ScenarioConfig(num_devices=num_devices),
        num_base_stations=3,
        num_clusters=2,
        servers_per_cluster=2,
        num_macro_stations=1,
    )
    network = scenario.network
    state = next(iter(scenario.fresh_states(1)))
    space = StrategySpace(network, state.coverage())
    frequencies = network.freq_max.copy()
    return network, state, space, frequencies


def paired_games(
    network, state, space, frequencies, seed: int, backend: str = "numpy"
):
    """Two independent games starting from the same random profile; the
    second (the fast engine's) runs on *backend*'s kernels."""
    bs_of, server_of = space.random_assignment(np.random.default_rng(seed))
    initial = repro.Assignment(bs_of=bs_of, server_of=server_of)
    ref = OffloadingCongestionGame(
        network, state, space, frequencies, initial=initial
    )
    fast = OffloadingCongestionGame(
        network, state, space, frequencies, initial=initial,
        kernels=get_kernels(backend),
    )
    return ref, fast


class TestEngineEquivalence:
    # The backend id goes last, so every case id keeps its stable
    # slack-seed prefix.
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("slack", [0.0, 0.05])
    def test_same_equilibrium_on_randomized_games(
        self, seed: int, slack: float, backend: str
    ):
        network, state, space, frequencies = random_instance(seed)
        ref_game, fast_game = paired_games(
            network, state, space, frequencies, seed, backend
        )
        ref = best_response_dynamics(ref_game, slack=slack)
        fast = FastBestResponseEngine(fast_game, slack=slack).run()
        assert ref.converged and fast.converged
        assert ref.iterations == fast.iterations == fast.stats.moves
        np.testing.assert_array_equal(
            ref_game.assignment().bs_of, fast_game.assignment().bs_of
        )
        np.testing.assert_array_equal(
            ref_game.assignment().server_of, fast_game.assignment().server_of
        )
        assert ref_game.potential() == pytest.approx(
            fast_game.potential(), rel=1e-12
        )
        assert ref.total_cost == pytest.approx(fast.total_cost, rel=1e-12)

    @pytest.mark.parametrize("selection", ["round_robin", "random"])
    def test_same_trajectory_under_other_selection_rules(self, selection: str):
        # Only the reference engine has other selection rules; the
        # equilibrium they reach is one the fast engine's sweep agrees
        # is an equilibrium (no move), on every backend.
        network, state, space, frequencies = random_instance(21)
        ref_game, _ = paired_games(network, state, space, frequencies, 5)
        ref = best_response_dynamics(
            ref_game, selection=selection, rng=np.random.default_rng(99)
        )
        assert ref.converged and ref.iterations > 0
        for backend in real_backends():
            game = OffloadingCongestionGame(
                network, state, space, frequencies,
                initial=ref_game.assignment(), kernels=get_kernels(backend),
            )
            fast = FastBestResponseEngine(game).run()
            assert fast.converged and fast.iterations == 0
            # Fresh loads vs loads updated move by move: equal to rounding.
            assert fast.total_cost == pytest.approx(ref.total_cost, rel=1e-12)

    def test_tiny_network_equivalence(self):
        network = make_tiny_network()
        state = make_tiny_state()
        space = StrategySpace(network, state.coverage())
        frequencies = np.array([2.0, 3.0, 2.5])
        for backend in real_backends():
            for seed in range(5):
                ref_game, fast_game = paired_games(
                    network, state, space, frequencies, seed, backend
                )
                ref = best_response_dynamics(ref_game)
                fast = FastBestResponseEngine(fast_game).run()
                assert ref.iterations == fast.iterations
                np.testing.assert_array_equal(
                    ref_game.assignment().bs_of, fast_game.assignment().bs_of
                )
                np.testing.assert_array_equal(
                    ref_game.assignment().server_of,
                    fast_game.assignment().server_of,
                )

    def test_cgba_engines_agree_and_reject_unknown(self):
        # CGBA has one engine; the per-player loop is the oracle it
        # must replay, run here on a fresh game from the same profile.
        network, state, space, frequencies = random_instance(3)
        bs_of, server_of = space.random_assignment(np.random.default_rng(0))
        initial = repro.Assignment(bs_of=bs_of, server_of=server_of)
        ref_game = OffloadingCongestionGame(
            network, state, space, frequencies, initial=initial
        )
        ref = best_response_dynamics(ref_game, selection="max_gap")
        for backend in real_backends():
            fast = solve_p2a_cgba(
                network, state, space, frequencies, None, initial=initial,
                backend=backend,
            )
            np.testing.assert_array_equal(
                fast.assignment.bs_of, ref_game.assignment().bs_of
            )
            np.testing.assert_array_equal(
                fast.assignment.server_of, ref_game.assignment().server_of
            )
            assert fast.iterations == ref.iterations > 0
            assert fast.total_latency == ref.total_cost
            assert fast.engine_stats is not None
            assert fast.engine_stats.moves == fast.iterations
        # ``engine=`` is not a parameter: passing it raises.
        with pytest.raises(TypeError, match="engine"):
            solve_p2a_cgba(
                network, state, space, frequencies, None,
                initial=initial, engine="reference",
            )


class TestBatchInterface:
    def test_batch_matches_scalar_best_responses(self):
        network, state, space, frequencies = random_instance(7)
        for backend in real_backends():
            _, game = paired_games(
                network, state, space, frequencies, 1, backend
            )
            best_cost, current = game.batch_gap_costs()
            for i in range(game.num_players):
                (k, n), cost = game.best_response(i)
                assert game.best_strategy_for(i) == (k, n)
                assert best_cost[i] == cost  # bit-identical, not approx
                assert current[i] == game.player_cost(i)

    def test_move_delta_agrees_with_actual_move(self):
        network, state, space, frequencies = random_instance(13)
        game, _ = paired_games(network, state, space, frequencies, 4)
        rng = np.random.default_rng(17)
        for _ in range(60):
            player = int(rng.integers(game.num_players))
            ks, ns = space.pairs(player)
            j = int(rng.integers(ks.size))
            proposal = (int(ks[j]), int(ns[j]))
            before = game.total_cost()
            predicted = game.move_delta(player, proposal)
            game.move(player, proposal)
            after = game.total_cost()
            assert after - before == pytest.approx(predicted, rel=1e-9, abs=1e-12)

    def test_total_cost_of_matches_fresh_game(self):
        network, state, space, frequencies = random_instance(19)
        game, _ = paired_games(network, state, space, frequencies, 6)
        bs_of, server_of = space.random_assignment(np.random.default_rng(23))
        other = repro.Assignment(bs_of=bs_of, server_of=server_of)
        fresh = OffloadingCongestionGame(
            network, state, space, frequencies, initial=other
        )
        assert game.total_cost_of(other) == pytest.approx(
            fresh.total_cost(), rel=1e-12
        )


class TestStatsThreading:
    def test_counters_consistent(self):
        network, state, space, frequencies = random_instance(37)
        for backend in real_backends():
            _, game = paired_games(
                network, state, space, frequencies, 8, backend
            )
            result = FastBestResponseEngine(game).run()
            stats = result.stats
            assert stats is not None
            assert stats.moves == result.iterations
            # Every sweep (the initial one plus one per move) covers
            # every player and every candidate pair.
            assert stats.sweeps == result.iterations + 1
            assert stats.gap_recomputations == game.num_players * stats.sweeps
            assert (
                stats.candidate_evaluations
                == space.flat().num_candidates * stats.sweeps
            )

    def test_reference_engine_reports_stats(self):
        network, state, space, frequencies = random_instance(41)
        game, _ = paired_games(network, state, space, frequencies, 9)
        result = best_response_dynamics(game)
        stats = result.stats
        assert stats is not None
        assert stats.moves == result.iterations
        # The naive engine recomputes every player every iteration.
        assert stats.gap_recomputations == game.num_players * (result.iterations + 1)
        assert stats.candidate_evaluations > 0

    def test_stats_flow_through_bdma_to_slot_record(self):
        scenario = repro.make_paper_scenario(
            seed=43,
            config=repro.ScenarioConfig(num_devices=10),
            num_base_stations=3,
            num_clusters=2,
            servers_per_cluster=2,
            num_macro_stations=1,
        )
        controller = repro.DPPController(
            scenario.network,
            scenario.controller_rng("engine-stats"),
            v=1e3,
            budget=5.0,
            z=2,
        )
        record = controller.step(next(iter(scenario.fresh_states(1))))
        assert record.engine_stats is not None
        assert record.engine_stats.moves >= 0
        assert record.engine_stats.gap_recomputations > 0


class TestControllerSpaceCache:
    def test_space_reused_when_coverage_static(self):
        scenario = repro.make_paper_scenario(
            seed=47,
            config=repro.ScenarioConfig(num_devices=10),
            num_base_stations=3,
            num_clusters=2,
            servers_per_cluster=2,
            num_macro_stations=1,
        )
        controller = repro.DPPController(
            scenario.network,
            scenario.controller_rng("cache"),
            v=1e3,
            budget=5.0,
            z=1,
        )
        states = list(scenario.fresh_states(2))
        first = controller.strategy_space(states[0])
        # Same coverage mask -> identical object, no rebuild.
        same = controller.strategy_space(
            repro.SlotState(
                t=1,
                cycles=states[1].cycles,
                bits=states[1].bits,
                spectral_efficiency=states[0].spectral_efficiency,
                price=states[1].price,
            )
        )
        assert same is first
        assert controller._space_reused

    def test_space_rebuilt_on_coverage_change(self):
        scenario = repro.make_paper_scenario(
            seed=53,
            config=repro.ScenarioConfig(num_devices=10),
            num_base_stations=3,
            num_clusters=2,
            servers_per_cluster=2,
            num_macro_stations=1,
        )
        controller = repro.DPPController(
            scenario.network,
            scenario.controller_rng("cache2"),
            v=1e3,
            budget=5.0,
            z=1,
        )
        state = next(iter(scenario.fresh_states(1)))
        first = controller.strategy_space(state)
        h = state.spectral_efficiency.copy()
        # Knock out one covered link (keeping every device covered).
        covered = np.argwhere(h > 0.0)
        for i, k in covered:
            if np.count_nonzero(h[i] > 0.0) > 1:
                h[i, k] = 0.0
                break
        changed = repro.SlotState(
            t=1,
            cycles=state.cycles,
            bits=state.bits,
            spectral_efficiency=h,
            price=state.price,
        )
        rebuilt = controller.strategy_space(changed)
        assert rebuilt is not first
        assert not controller._space_reused

    def test_repair_skipped_on_cache_hit(self, monkeypatch):
        scenario = repro.make_paper_scenario(
            seed=59,
            config=repro.ScenarioConfig(num_devices=10),
            num_base_stations=3,
            num_clusters=2,
            servers_per_cluster=2,
            num_macro_stations=1,
        )
        controller = repro.DPPController(
            scenario.network,
            scenario.controller_rng("cache3"),
            v=1e3,
            budget=5.0,
            z=1,
        )
        states = list(scenario.fresh_states(3))
        controller.step(states[0])
        space = controller._space
        calls = {"repair": 0}
        original = StrategySpace.repair

        def counting_repair(self, *args, **kwargs):
            calls["repair"] += 1
            return original(self, *args, **kwargs)

        monkeypatch.setattr(StrategySpace, "repair", counting_repair)
        # The coverage mask can change between random slots; only a
        # cache-hit slot may skip repair, so replay slot 0's coverage.
        replay = repro.SlotState(
            t=1,
            cycles=states[1].cycles,
            bits=states[1].bits,
            spectral_efficiency=states[0].spectral_efficiency,
            price=states[1].price,
        )
        controller.step(replay)
        assert controller._space is space
        assert calls["repair"] == 0
