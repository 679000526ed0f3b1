"""Tests for fault injection: outage models and the composable framework."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

import repro
from repro.core.drift_penalty import energy_cost
from repro.core.p2b import solve_p2b
from repro.core.state import Assignment, SlotState, validate_decision
from repro.exceptions import ConfigurationError, ValidationError
from repro.network.connectivity import StrategySpace
from repro.sim.faults import (
    BaseStationOutages,
    ChannelStaleness,
    FaultPlan,
    FronthaulDegradation,
    MarkovOutages,
    PriceFeedDropouts,
    ScriptedIncident,
    ServerOutages,
)

from conftest import make_tiny_network, make_tiny_state


def state_with_availability(mask) -> SlotState:
    base = make_tiny_state()
    return SlotState(
        t=base.t,
        cycles=base.cycles,
        bits=base.bits,
        spectral_efficiency=base.spectral_efficiency,
        price=base.price,
        available_servers=mask,
    )


class TestStateMask:
    def test_all_down_rejected(self) -> None:
        with pytest.raises(ValidationError):
            state_with_availability(np.zeros(3, dtype=bool))

    def test_validate_decision_rejects_offline_selection(self) -> None:
        network = make_tiny_network()
        state = state_with_availability(np.array([True, False, True]))
        assignment = Assignment(
            bs_of=np.array([0, 0, 1, 1]),
            server_of=np.array([0, 1, 2, 2]),  # server 1 is offline
        )
        from repro.core.allocation import optimal_allocation

        allocation = optimal_allocation(network, state, assignment)
        with pytest.raises(ValidationError, match="offline"):
            validate_decision(
                network,
                state,
                repro.Decision(
                    assignment=assignment,
                    allocation=allocation,
                    frequencies=np.full(3, 2.0),
                ),
            )


class TestStrategySpaceFiltering:
    def test_offline_servers_excluded(self) -> None:
        network = make_tiny_network()
        coverage = make_tiny_state().coverage()
        space = StrategySpace(
            network, coverage, np.array([True, False, True])
        )
        for i in range(4):
            _, ns = space.pairs(i)
            assert 1 not in ns.tolist()

    def test_cluster_outage_makes_small_cell_only_devices_reroute(self) -> None:
        network = make_tiny_network()
        coverage = make_tiny_state().coverage()
        # Cluster 1 (server 2) down: BS1 leads nowhere.
        space = StrategySpace(
            network, coverage, np.array([True, True, False])
        )
        for i in (2, 3):
            ks, _ = space.pairs(i)
            assert set(ks.tolist()) == {0}


class TestCostAndFrequencies:
    def test_offline_servers_draw_no_power(self) -> None:
        network = make_tiny_network()
        freqs = np.full(3, 3.6)
        full = energy_cost(network, freqs, 1.0)
        masked = energy_cost(
            network, freqs, 1.0, available=np.array([True, False, True])
        )
        expected = full - network.servers[1].energy_model.power(3.6)
        assert masked == pytest.approx(expected)

    def test_p2b_parks_offline_servers(self) -> None:
        network = make_tiny_network()
        state = state_with_availability(np.array([True, False, True]))
        assignment = Assignment(
            bs_of=np.array([0, 0, 1, 1]), server_of=np.array([0, 0, 2, 2])
        )
        freqs = solve_p2b(
            network, state, assignment, queue_backlog=0.0, v=10.0
        )
        assert freqs[1] == pytest.approx(network.servers[1].freq_min)
        assert freqs[0] == pytest.approx(network.servers[0].freq_max)


class TestControllerUnderOutages:
    def test_step_avoids_offline_servers(self) -> None:
        network = make_tiny_network()
        controller = repro.DPPController(
            network, np.random.default_rng(0), v=50.0, budget=20.0, z=1
        )
        state = state_with_availability(np.array([True, False, True]))
        record = controller.step(state)
        assert 1 not in record.assignment.server_of.tolist()
        validate_decision(network, state, record.decision())

    def test_space_cache_distinguishes_availability(self) -> None:
        network = make_tiny_network()
        controller = repro.DPPController(
            network, np.random.default_rng(0), v=50.0, budget=20.0, z=1
        )
        s_full = controller.strategy_space(make_tiny_state())
        s_masked = controller.strategy_space(
            state_with_availability(np.array([True, False, True]))
        )
        assert s_full is not s_masked


class TestMarkovOutages:
    def test_guard_paths_are_pinned(self) -> None:
        """200 slots of masks on the paper network, with failures fast
        enough that both guards (``min_up_fraction`` and
        ``min_up_per_cluster``) revive servers, hash to the digest the
        original stand-alone chain produced."""
        network = repro.make_paper_scenario(
            seed=0, config=repro.ScenarioConfig(num_devices=8)
        ).network
        model = MarkovOutages(
            mtbf_slots=2.0, mttr_slots=40.0,
            min_up_fraction=0.25, min_up_per_cluster=3,
        )
        rng = np.random.default_rng(2024)
        digest = hashlib.sha256()
        for t in range(200):
            mask = model.availability(t, network, rng)
            digest.update(np.ascontiguousarray(mask, dtype=bool).tobytes())
        assert digest.hexdigest() == (
            "273c120480d4aca428f3a7552bc1a2ef85916777b378266efffea1d768e22385"
        )
        assert sorted(model.state_dict()) == ["down_since", "up"]

    def test_stationary_unavailability(self) -> None:
        network = make_tiny_network()
        model = MarkovOutages(
            mtbf_slots=20.0,
            mttr_slots=5.0,
            min_up_fraction=0.0001,
            min_up_per_cluster=0,
        )
        rng = np.random.default_rng(0)
        ups = np.array(
            [model.availability(t, network, rng) for t in range(5_000)]
        )
        # Stationary availability = mtbf / (mtbf + mttr) = 0.8.
        assert float(ups.mean()) == pytest.approx(0.8, abs=0.05)

    def test_min_up_fraction_guard(self) -> None:
        network = make_tiny_network()
        # Catastrophic failure rates, but the guard holds 50% up.
        model = MarkovOutages(
            mtbf_slots=1.01, mttr_slots=1e9, min_up_fraction=0.5
        )
        rng = np.random.default_rng(1)
        for t in range(200):
            mask = model.availability(t, network, rng)
            assert int(mask.sum()) >= 2  # ceil(0.5 * 3)

    def test_validation(self) -> None:
        with pytest.raises(ConfigurationError):
            MarkovOutages(mtbf_slots=0.0)
        with pytest.raises(ConfigurationError):
            MarkovOutages(min_up_fraction=0.0)
        with pytest.raises(ConfigurationError):
            MarkovOutages(min_up_per_cluster=-1)

    def test_per_cluster_guard(self) -> None:
        network = make_tiny_network()  # clusters {0,1} and {2}
        model = MarkovOutages(
            mtbf_slots=1.01, mttr_slots=1e9,
            min_up_fraction=0.0001, min_up_per_cluster=1,
        )
        rng = np.random.default_rng(3)
        for t in range(100):
            mask = model.availability(t, network, rng)
            assert mask[:2].any()  # cluster 0 never fully dark
            assert mask[2]         # cluster 1 has a single server

    def test_reset(self) -> None:
        network = make_tiny_network()
        model = MarkovOutages(mtbf_slots=1.01, mttr_slots=1e9)
        rng = np.random.default_rng(2)
        for t in range(50):
            model.availability(t, network, rng)
        model.reset()
        # After reset the first availability call starts all-up before
        # applying one slot of failures; with fresh rng nothing fails.
        mask = model.availability(0, network, np.random.default_rng(1000))
        assert mask.sum() >= 2

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize(
        "mtbf,mttr", [(1.01, 1e9), (2.0, 50.0), (1.5, 1.5), (1e9, 1.01)]
    )
    def test_guards_hold_under_any_failure_regime(
        self, seed: int, mtbf: float, mttr: float
    ) -> None:
        """Property: whatever the chain parameters and rng draws, every
        emitted mask respects both guards on every slot."""
        network = make_tiny_network()
        model = MarkovOutages(
            mtbf_slots=mtbf, mttr_slots=mttr,
            min_up_fraction=0.5, min_up_per_cluster=1,
        )
        rng = np.random.default_rng(seed)
        min_up = int(np.ceil(0.5 * network.num_servers))
        for t in range(300):
            mask = model.availability(t, network, rng)
            assert int(mask.sum()) >= min_up
            for cluster in network.clusters:
                assert mask[list(cluster.servers)].any()

    def test_forced_repair_tie_break_is_deterministic(self) -> None:
        """Two identical models fed identical draws revive the same
        servers: the longest-down-first ordering is stable, never
        quicksort tie order."""
        network = make_tiny_network()
        masks = []
        for _ in range(2):
            model = MarkovOutages(
                mtbf_slots=1.01, mttr_slots=1e9, min_up_fraction=0.66
            )
            rng = np.random.default_rng(7)
            masks.append(
                np.array([model.availability(t, network, rng) for t in range(100)])
            )
        np.testing.assert_array_equal(masks[0], masks[1])
        # All three servers fail at once on some slot; with equal
        # downtimes the stable sort revives the lowest indices first.
        model = MarkovOutages(
            mtbf_slots=1.01, mttr_slots=1e9,
            min_up_fraction=0.66, min_up_per_cluster=0,
        )

        class AllFail:
            def random(self, n: int):
                return np.zeros(n)

        mask = model.availability(0, network, AllFail())
        assert mask.tolist() == [True, True, False]


class TestStateFaultComponents:
    def test_base_station_outages_zero_coverage_but_never_strand(self) -> None:
        network = make_tiny_network()
        fault = BaseStationOutages(mtbf_slots=1.01, mttr_slots=1e9)
        rng = np.random.default_rng(0)
        for t in range(40):
            state, _ = fault.apply(make_tiny_state(t=t), network, rng)
            coverage = state.spectral_efficiency > 0.0
            # Every device that had coverage keeps at least one BS.
            assert coverage.any(axis=1).all()

    def test_fronthaul_degradation_scales_but_never_zeroes(self) -> None:
        network = make_tiny_network()
        fault = FronthaulDegradation(
            mtbf_slots=1.01, mttr_slots=1e9, factor=0.25
        )
        rng = np.random.default_rng(1)
        state, events = fault.apply(make_tiny_state(), network, rng)
        assert state.fronthaul_se is not None
        assert (state.fronthaul_se > 0.0).all()
        ratio = state.fronthaul_se / network.fronthaul_se
        assert set(np.round(ratio, 12)) <= {0.25, 1.0}
        assert any(e["fault"] == "fronthaul_degraded" for e in events)
        with pytest.raises(ConfigurationError):
            FronthaulDegradation(factor=0.0)

    def test_price_dropouts_serve_stale_prices_and_report_age(self) -> None:
        network = make_tiny_network()
        fault = PriceFeedDropouts(mtbf_slots=1.01, mttr_slots=1e9)
        rng = np.random.default_rng(2)
        first, _ = fault.apply(make_tiny_state(t=0, price=0.5), network, rng)
        assert first.price == 0.5  # first slot is always fresh
        stale_events = []
        for t in range(1, 6):
            state, events = fault.apply(
                make_tiny_state(t=t, price=0.5 + t), network, rng
            )
            assert state.price == 0.5  # frozen at the last fresh value
            stale_events += events
        assert stale_events[0]["phase"] == "onset"
        # A recovering feed reports how long the controller was blind.
        fault._chain.force_up(np.array([0]))
        fault._chain.fail_prob = 0.0
        state, events = fault.apply(make_tiny_state(t=6, price=9.9), network, rng)
        assert state.price == 9.9
        assert events == [
            {"fault": "price_feed", "phase": "clear", "t": 6, "stale_slots": 5}
        ]

    def test_channel_staleness_serves_previous_csi(self) -> None:
        network = make_tiny_network()
        fault = ChannelStaleness(prob=1.0)
        rng = np.random.default_rng(3)
        a = make_tiny_state(t=0)
        fault.apply(a, network, rng)
        b = make_tiny_state(t=1)
        b = SlotState(
            t=1, cycles=b.cycles, bits=b.bits,
            spectral_efficiency=b.spectral_efficiency * 2.0, price=b.price,
        )
        out, events = fault.apply(b, network, rng)
        np.testing.assert_array_equal(
            out.spectral_efficiency, a.spectral_efficiency
        )
        assert events[0]["fault"] == "channel_stale"
        with pytest.raises(ConfigurationError):
            ChannelStaleness(prob=1.5)

    def test_server_outages_adapter_emits_transitions(self) -> None:
        network = make_tiny_network()
        fault = ServerOutages(
            MarkovOutages(mtbf_slots=1.01, mttr_slots=1e9,
                          min_up_fraction=0.0001, min_up_per_cluster=1)
        )
        rng = np.random.default_rng(4)
        kinds = set()
        for t in range(30):
            state, events = fault.apply(make_tiny_state(t=t), network, rng)
            assert state.available_servers is None or state.available_servers.any()
            kinds |= {(e["fault"], e["phase"]) for e in events}
        assert ("server_outage", "onset") in kinds


class TestScriptedIncidents:
    def test_validation(self) -> None:
        with pytest.raises(ConfigurationError):
            ScriptedIncident(at=-1, duration=2, kind="price_freeze")
        with pytest.raises(ConfigurationError):
            ScriptedIncident(at=0, duration=2, kind="reboot_the_moon")
        with pytest.raises(ConfigurationError):
            ScriptedIncident(at=0, duration=2, kind="server_down")  # no targets
        with pytest.raises(ConfigurationError):
            FaultPlan(schedule=[object()])  # type: ignore[list-item]
        with pytest.raises(ConfigurationError, match="negative"):
            ScriptedIncident(at=0, duration=2, kind="bs_down", targets=(-1,))

    @pytest.mark.parametrize(
        "incident, target",
        [
            (ScriptedIncident(at=0, duration=2, kind="server_down",
                              targets=(3, 99)), "server 99"),
            (ScriptedIncident(at=1, duration=1, kind="bs_down",
                              targets=(6,)), "base station 6"),
            (ScriptedIncident(at=1, duration=1, kind="fronthaul_degraded",
                              targets=(0, 7)), "base station 7"),
        ],
    )
    def test_scenario_rejects_targets_outside_the_network(
        self, incident, target
    ) -> None:
        # The paper network has 16 servers and 6 base stations; an
        # out-of-range target would otherwise change no state while its
        # onset event still names it.
        with pytest.raises(ConfigurationError, match=target) as err:
            repro.make_paper_scenario(
                seed=0,
                config=repro.ScenarioConfig(num_devices=8),
                fault_plan=FaultPlan(schedule=[incident]),
            )
        assert incident.kind in str(err.value)

    def test_window_and_application(self) -> None:
        network = make_tiny_network()
        plan = FaultPlan(
            schedule=[
                ScriptedIncident(
                    at=2, duration=2, kind="server_down", targets=(1,)
                )
            ]
        )
        rng = np.random.default_rng(0)
        down_slots = []
        for t in range(6):
            state, _ = plan.apply(make_tiny_state(t=t), network, rng)
            mask = state.available_servers
            down_slots.append(mask is not None and not mask[1])
        assert down_slots == [False, False, True, True, False, False]

    def test_bs_down_incident_never_strands_devices(self) -> None:
        network = make_tiny_network()
        plan = FaultPlan(
            schedule=[
                ScriptedIncident(
                    at=0, duration=1, kind="bs_down", targets=(0, 1)
                )
            ]
        )
        state, _ = plan.apply(
            make_tiny_state(), network, np.random.default_rng(0)
        )
        assert (state.spectral_efficiency > 0.0).any(axis=1).all()


class TestFaultPlan:
    def _full_plan(self) -> FaultPlan:
        return FaultPlan(
            faults=(
                ServerOutages(MarkovOutages(mtbf_slots=10.0, mttr_slots=3.0)),
                BaseStationOutages(mtbf_slots=12.0, mttr_slots=3.0),
                FronthaulDegradation(mtbf_slots=8.0, mttr_slots=4.0, factor=0.4),
                PriceFeedDropouts(mtbf_slots=9.0, mttr_slots=3.0),
                ChannelStaleness(prob=0.2),
            ),
            schedule=[
                ScriptedIncident(at=5, duration=3, kind="price_freeze")
            ],
        )

    def test_component_types_are_validated(self) -> None:
        with pytest.raises(ConfigurationError):
            FaultPlan(faults=(MarkovOutages(),))  # type: ignore[arg-type]

    def test_empty_plan_is_falsy(self) -> None:
        assert not FaultPlan()
        assert FaultPlan(faults=(ChannelStaleness(prob=0.1),))

    def test_scenario_stream_is_deterministic(self) -> None:
        def trajectories():
            scenario = repro.make_paper_scenario(
                seed=91,
                config=repro.ScenarioConfig(num_devices=8),
                fault_plan=self._full_plan(),
            )
            states = list(scenario.fresh_states(30))
            return (
                np.array([s.price for s in states]),
                np.stack([s.spectral_efficiency for s in states]),
            )

        (price_a, h_a), (price_b, h_b) = trajectories(), trajectories()
        np.testing.assert_array_equal(price_a, price_b)
        np.testing.assert_array_equal(h_a, h_b)

    def test_plan_leaves_base_state_stream_untouched(self) -> None:
        """The plan draws from its own stream: the underlying states are
        bit-identical with and without the plan (pre-fault)."""
        bare = repro.make_paper_scenario(
            seed=92, config=repro.ScenarioConfig(num_devices=8)
        )
        faulted = repro.make_paper_scenario(
            seed=92,
            config=repro.ScenarioConfig(num_devices=8),
            fault_plan=FaultPlan(faults=(PriceFeedDropouts(mtbf_slots=3.0),)),
        )
        base_cycles = np.stack([s.cycles for s in bare.fresh_states(20)])
        faulted_cycles = np.stack(
            [s.cycles for s in faulted.fresh_states(20)]
        )
        # Price feed faults only touch prices; demand streams match.
        np.testing.assert_array_equal(base_cycles, faulted_cycles)

    def test_compiled_and_per_slot_paths_agree_under_faults(self) -> None:
        scenario = repro.make_paper_scenario(
            seed=93,
            config=repro.ScenarioConfig(num_devices=8),
            fault_plan=self._full_plan(),
        )
        # 40 slots: the compiled stream crosses a block edge.
        per_slot = list(scenario.fresh_states(40))
        compiled = list(scenario.fresh_compiled_states(40))
        for a, b in zip(per_slot, compiled):
            np.testing.assert_array_equal(a.price, b.price)
            np.testing.assert_array_equal(
                a.spectral_efficiency, b.spectral_efficiency
            )

    def test_state_dict_round_trip(self) -> None:
        network = make_tiny_network()
        plan = self._full_plan()
        rng = np.random.default_rng(5)
        for t in range(10):
            plan.apply(make_tiny_state(t=t), network, rng)
        saved = plan.state_dict()
        rng_state = rng.bit_generator.state

        twin = self._full_plan()
        twin.load_state_dict(saved)
        twin_rng = np.random.default_rng()
        twin_rng.bit_generator.state = rng_state
        for t in range(10, 20):
            a, _ = plan.apply(make_tiny_state(t=t), network, rng)
            b, _ = twin.apply(make_tiny_state(t=t), network, twin_rng)
            np.testing.assert_array_equal(a.price, b.price)
            np.testing.assert_array_equal(
                a.spectral_efficiency, b.spectral_efficiency
            )


def _mask(state: SlotState, num_servers: int) -> np.ndarray:
    """The state's availability mask; a state without one has every
    server up (``ServerOutages`` leaves it ``None`` while none is down)."""
    if state.available_servers is None:
        return np.ones(num_servers, dtype=bool)
    return state.available_servers.copy()


class TestEndToEndWithFaults:
    def test_simulation_with_outages(self) -> None:
        scenario = repro.make_paper_scenario(
            seed=81,
            config=repro.ScenarioConfig(num_devices=10),
            num_base_stations=3,
            num_clusters=2,
            servers_per_cluster=2,
            num_macro_stations=1,
            fault_plan=FaultPlan(
                [ServerOutages(MarkovOutages(mtbf_slots=10.0, mttr_slots=3.0))]
            ),
        )
        states = list(scenario.fresh_states(40))
        masks = np.array([_mask(s, 4) for s in states])
        assert masks.shape == (40, 4)
        assert not masks.all()  # some outage happened over 40 slots
        controller = repro.DPPController(
            scenario.network,
            scenario.controller_rng(),
            v=100.0,
            budget=scenario.budget,
            z=1,
        )
        result = repro.run_simulation(
            controller, iter(states), budget=scenario.budget
        )
        assert np.all(np.isfinite(result.latency))

    def test_fresh_states_reset_fault_state(self) -> None:
        scenario = repro.make_paper_scenario(
            seed=82,
            config=repro.ScenarioConfig(num_devices=8),
            num_base_stations=3,
            num_clusters=2,
            servers_per_cluster=2,
            num_macro_stations=1,
            fault_plan=FaultPlan(
                [ServerOutages(MarkovOutages(mtbf_slots=5.0, mttr_slots=5.0))]
            ),
        )
        first = [_mask(s, 4) for s in scenario.fresh_states(20)]
        second = [_mask(s, 4) for s in scenario.fresh_states(20)]
        assert not np.array(first).all()
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)
