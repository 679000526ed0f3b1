"""NumPy vs C for a slot's refills, and the per-network tables.

The P2-A workspace refills its congestion game each slot through three
kernel-backend entry points (``rebind``, ``reset_profile`` and
``update_frequencies``); the NumPy versions are the oracle and the C
versions must match them bit for bit.  P2-B, the energy cost and the
Lemma-1 allocation read per-network tables and fused passes; these
must reproduce the per-server loops and per-kind passes they replace,
float for float, and reject bad input exactly as before.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro
from repro.core.allocation import optimal_allocation
from repro.core.congestion_game import OffloadingCongestionGame
from repro.core.drift_penalty import energy_cost
from repro.core.latency import effective_fronthaul_se, optimal_communication_latency
from repro.core.p2b import solve_p2b
from repro.core.state import Assignment, ResourceAllocation, SlotState
from repro.energy.models import (
    LinearEnergyModel,
    QuadraticEnergyModel,
    ScaledEnergyModel,
)
from repro.exceptions import ConfigurationError, ValidationError
from repro.kernels import available_backends, get_kernels
from repro.network.connectivity import StrategySpace
from repro.network.topology import MECNetwork
from repro.types import as_float_array

requires_jit = pytest.mark.skipif(
    not available_backends()["jit"],
    reason="backend 'jit' has no real provider (the C kernels did not build)",
)

#: DecomposedState fields that are not arrays.
_NON_ARRAY_FIELDS = ("num_players", "num_bs", "num_servers", "cols", "kernel_args")

SETTINGS = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def kernel_arrays(game: OffloadingCongestionGame) -> dict[str, np.ndarray]:
    ks = game.kernel_state()
    return {
        f.name: getattr(ks, f.name)
        for f in dataclasses.fields(ks)
        if f.name not in _NON_ARRAY_FIELDS
    }


def assert_same_state(a: OffloadingCongestionGame, b: OffloadingCongestionGame):
    arrays_a, arrays_b = kernel_arrays(a), kernel_arrays(b)
    for name in arrays_a:
        assert same_bits(arrays_a[name], arrays_b[name]), name
    assert same_bits(a.total_cost(), b.total_cost())
    assert same_bits(a.potential(), b.potential())


def paper_network(seed: int, num_devices: int) -> repro.Scenario:
    return repro.make_paper_scenario(
        seed=seed,
        config=repro.ScenarioConfig(num_devices=num_devices),
        num_base_stations=4,
        num_clusters=2,
        servers_per_cluster=3,
        num_macro_stations=1,
    )


def random_states(scenario, rng, count, *, available, fronthaul, idle):
    """*count* slot states with zero-demand devices (*idle*), an
    optional availability mask and optional fronthaul overrides."""
    network = scenario.network
    states = []
    for base in scenario.fresh_states(count):
        cycles, bits = base.cycles.copy(), base.bits.copy()
        cycles[idle] = 0.0
        bits[idle] = 0.0
        states.append(
            SlotState(
                t=base.t,
                cycles=cycles,
                bits=bits,
                spectral_efficiency=base.spectral_efficiency,
                price=base.price,
                fronthaul_se=(
                    rng.uniform(0.5, 20.0, network.num_base_stations)
                    if fronthaul
                    else None
                ),
                available_servers=available,
            )
        )
    return states


@requires_jit
class TestRefillKernels:
    @SETTINGS
    @given(
        seed=st.integers(0, 10_000),
        num_devices=st.integers(2, 14),
        down=st.lists(st.booleans(), min_size=6, max_size=6),
        fronthaul=st.booleans(),
        idle=st.lists(st.booleans(), min_size=14, max_size=14),
    )
    def test_games_match_across_backends(
        self, seed, num_devices, down, fronthaul, idle
    ) -> None:
        scenario = paper_network(seed, num_devices)
        network = scenario.network
        # Keep one server per cluster up, so every menu stays non-empty.
        available = ~np.array(down)
        for cluster in network.clusters:
            available[cluster.servers[0]] = True
        rng = np.random.default_rng(seed)
        states = random_states(
            scenario, rng, 3,
            available=available, fronthaul=fronthaul,
            idle=np.array(idle[:num_devices]),
        )
        space = StrategySpace(network, states[0].coverage(), available)
        clocks = [rng.uniform(network.freq_min, network.freq_max) for _ in range(6)]
        games = [
            OffloadingCongestionGame(
                network, states[0], space, clocks[0],
                rng=np.random.default_rng(seed), kernels=backend,
            )
            for backend in ("numpy", "jit")
        ]
        assert_same_state(*games)
        for t in (1, 2):
            bs_of, server_of = space.random_assignment(rng)
            initial = Assignment(bs_of=bs_of, server_of=server_of)
            for game in games:
                game.rebind(states[t], clocks[t], initial)
            assert_same_state(*games)
            for game in games:
                game.update_frequencies(clocks[t + 3])
            assert_same_state(*games)
            for game in games:
                game.reset_profile(rng=np.random.default_rng(seed + t))
            assert_same_state(*games)

    @SETTINGS
    @given(seed=st.integers(0, 10_000))
    def test_entry_points_match_on_raw_arrays(self, seed) -> None:
        """Raw slot arrays: exact zeros (uncovered links), subnormal
        efficiencies under the 1e-300 floor, zero-demand devices, and
        profiles on uncovered links (the non-finite-load path)."""
        scenario = paper_network(7, 9)
        network = scenario.network
        state = next(iter(scenario.fresh_states(1)))
        space = StrategySpace(network, state.coverage())
        kernels = [get_kernels("numpy"), get_kernels("jit")]
        games = [
            OffloadingCongestionGame(
                network, state, space, network.freq_min,
                rng=np.random.default_rng(0), kernels=k,
            )
            for k in kernels
        ]
        states = [game.kernel_state() for game in games]
        rng = np.random.default_rng(seed)
        num_devices, num_bs = state.spectral_efficiency.shape
        num_servers = network.num_servers
        h = rng.uniform(0.0, 20.0, (num_devices, num_bs))
        h[rng.random(h.shape) < 0.3] = 0.0
        h[rng.random(h.shape) < 0.1] = 1e-310
        bits = rng.uniform(0.0, 5e6, num_devices)
        bits[rng.random(num_devices) < 0.2] = 0.0
        cycles = rng.uniform(0.0, 5e9, num_devices)
        cycles[rng.random(num_devices) < 0.2] = 0.0
        front_se = rng.uniform(0.5, 20.0, num_bs)
        frequencies = rng.uniform(network.freq_min, network.freq_max)
        bs_of = rng.integers(0, num_bs, num_devices)
        server_of = rng.integers(0, num_servers, num_devices)
        finite = []
        for k, ks in zip(kernels, states):
            np.copyto(ks.frequencies, frequencies)
            k.rebind(ks, h, bits, cycles, front_se)
            np.copyto(ks.bs_of, bs_of)
            np.copyto(ks.server_of, server_of)
            finite.append(k.reset_profile(ks))
        assert finite[0] == finite[1]
        assert finite[0] == bool(np.isfinite(states[0].loads[:num_bs]).all())
        assert_same_state(*games)
        for k, ks in zip(kernels, states):
            np.copyto(ks.frequencies, network.freq_max)
            k.update_frequencies(ks)
        assert_same_state(*games)

    def test_infeasible_profile_raises_the_same_error(self) -> None:
        scenario = paper_network(3, 8)
        network = scenario.network
        state = next(iter(scenario.fresh_states(1)))
        space = StrategySpace(network, state.coverage())
        device, bs = map(int, np.argwhere(~state.coverage())[0])
        bs_of, server_of = space.random_assignment(np.random.default_rng(0))
        bs_of[device] = bs
        initial = Assignment(bs_of=bs_of, server_of=server_of)
        messages = []
        for backend in ("numpy", "jit"):
            with pytest.raises(ConfigurationError) as info:
                OffloadingCongestionGame(
                    network, state, space, network.freq_min,
                    initial=initial, kernels=backend,
                )
            messages.append(str(info.value))
        assert messages[0] == messages[1]
        assert f"device {device} selected a base station" in messages[0]

    def test_out_of_range_profile_is_rejected(self) -> None:
        scenario = paper_network(3, 8)
        state = next(iter(scenario.fresh_states(1)))
        space = StrategySpace(scenario.network, state.coverage())
        game = OffloadingCongestionGame(
            scenario.network, state, space, scenario.network.freq_min,
            rng=np.random.default_rng(0), kernels="jit",
        )
        ks = game.kernel_state()
        ks.server_of[0] = scenario.network.num_servers
        with pytest.raises(IndexError):
            game.kernels.reset_profile(ks)

    def test_slot_arrays_are_shape_checked(self) -> None:
        scenario = paper_network(3, 8)
        state = next(iter(scenario.fresh_states(1)))
        space = StrategySpace(scenario.network, state.coverage())
        game = OffloadingCongestionGame(
            scenario.network, state, space, scenario.network.freq_min,
            rng=np.random.default_rng(0), kernels="jit",
        )
        with pytest.raises(ValueError, match="shape"):
            game.kernels.rebind(
                game.kernel_state(),
                state.spectral_efficiency[:-1],
                state.bits,
                state.cycles,
                scenario.network.fronthaul_se,
            )


# -- the energy table --------------------------------------------------------


def with_models(network: MECNetwork, models) -> MECNetwork:
    servers = tuple(
        dataclasses.replace(server, energy_model=model)
        for server, model in zip(network.servers, models)
    )
    return MECNetwork(
        network.base_stations, network.clusters, servers, network.devices,
        network.suitability,
    )


def loop_energy_cost(network, frequencies, price, available) -> float:
    """The per-model loop ``energy_cost`` ran before the table."""
    if available is None:
        available = np.ones(network.num_servers, dtype=bool)
    return price * sum(
        m.power(float(f))
        for m, f, up in zip(network.energy_models(), frequencies, available)
        if up
    )


def random_quadratics(rng, count, scaled):
    models = []
    for use_scale in scaled[:count]:
        base = QuadraticEnergyModel(
            a=rng.uniform(0.0, 20.0), b=rng.uniform(-5.0, 5.0), c=rng.uniform(0, 50)
        )
        models.append(
            ScaledEnergyModel(base=base, scale=rng.uniform(1.0, 64.0))
            if use_scale
            else base
        )
    return models


def paper_default_network() -> MECNetwork:
    """The paper's 16-server topology: past 8 lanes a pairwise sum would
    differ from the builtin ``sum``'s sequential one."""
    return repro.make_paper_scenario(
        seed=1, config=repro.ScenarioConfig(num_devices=4)
    ).network


class TestEnergyTable:
    @SETTINGS
    @given(
        seed=st.integers(0, 10_000),
        scaled=st.lists(st.booleans(), min_size=16, max_size=16),
        offline=st.one_of(
            st.none(), st.lists(st.booleans(), min_size=16, max_size=16)
        ),
    )
    def test_matches_the_per_model_loop(self, seed, scaled, offline) -> None:
        rng = np.random.default_rng(seed)
        base = paper_default_network()
        assert base.num_servers == 16
        network = with_models(
            base, random_quadratics(rng, base.num_servers, scaled)
        )
        table = network.energy_table
        assert table.shape == (4, network.num_servers)
        for n, model in enumerate(network.energy_models()):
            if type(model) is ScaledEnergyModel:
                row = (model.scale, model.base.a, model.base.b, model.base.c)
            else:
                row = (1.0, model.a, model.b, model.c)
            assert tuple(table[:, n]) == row
        frequencies = rng.uniform(network.freq_min, network.freq_max)
        price = float(rng.uniform(0.0, 2.0))
        available = None if offline is None else ~np.array(offline)
        got = energy_cost(network, frequencies, price, available=available)
        want = loop_energy_cost(network, frequencies, price, available)
        assert same_bits(got, want)

    def test_non_quadratic_model_keeps_the_loop(self) -> None:
        rng = np.random.default_rng(5)
        base = paper_default_network()
        models = random_quadratics(rng, base.num_servers, [True] * 16)
        models[2] = LinearEnergyModel(slope=40.0, intercept=10.0)
        network = with_models(base, models)
        assert network.energy_table is None
        frequencies = rng.uniform(network.freq_min, network.freq_max)
        for available in (None, np.array([True, False] * 8)):
            got = energy_cost(network, frequencies, 0.7, available=available)
            assert same_bits(
                got, loop_energy_cost(network, frequencies, 0.7, available)
            )

    @requires_jit
    def test_non_quadratic_p2b_matches_across_backends(self) -> None:
        rng = np.random.default_rng(5)
        scenario = paper_network(1, 10)
        models = random_quadratics(rng, scenario.network.num_servers, [False] * 6)
        models[0] = LinearEnergyModel(slope=40.0, intercept=10.0)
        network = with_models(scenario.network, models)
        state = next(iter(scenario.fresh_states(1)))
        space = StrategySpace(network, state.coverage())
        bs_of, server_of = space.random_assignment(rng)
        request = dict(
            network=network,
            state=state,
            assignment=Assignment(bs_of=bs_of, server_of=server_of),
            queue_backlog=40.0,
            v=50.0,
        )
        want = solve_p2b(**request, backend="numpy")
        assert same_bits(solve_p2b(**request, backend="jit"), want)


# -- Lemma 1 and the round score -------------------------------------------


def three_pass_allocation(network, state, assignment) -> ResourceAllocation:
    """The per-kind Lemma-1 form the fused bincount replaced."""

    def shares(weights, groups, num_groups):
        totals = np.bincount(groups, weights=weights, minlength=num_groups)
        denom = totals[groups]
        out = np.zeros_like(weights)
        positive = denom > 0.0
        out[positive] = weights[positive] / denom[positive]
        return out

    devices = np.arange(assignment.num_devices)
    h_chosen = state.spectral_efficiency[devices, assignment.bs_of]
    if np.any((h_chosen <= 0.0) & (state.bits > 0.0)):
        bad = int(np.flatnonzero((h_chosen <= 0.0) & (state.bits > 0.0))[0])
        raise ValidationError(
            f"device {bad} selected base station {int(assignment.bs_of[bad])} "
            "with zero spectral efficiency"
        )
    sigma = network.suitability[devices, assignment.server_of]
    compute = shares(
        np.sqrt(state.cycles / sigma), assignment.server_of, network.num_servers
    )
    access_weights = np.zeros(assignment.num_devices)
    positive = h_chosen > 0.0
    access_weights[positive] = np.sqrt(state.bits[positive] / h_chosen[positive])
    access = shares(access_weights, assignment.bs_of, network.num_base_stations)
    fronthaul = shares(
        np.sqrt(state.bits), assignment.bs_of, network.num_base_stations
    )
    return ResourceAllocation(
        access_share=access, fronthaul_share=fronthaul, compute_share=compute
    )


def per_kind_communication_latency(network, state, assignment) -> float:
    """``T^C_t`` with one ``bincount`` per kind, as before the fusion."""
    devices = np.arange(assignment.num_devices)
    h_access = state.spectral_efficiency[devices, assignment.bs_of]
    access_weights = np.zeros(assignment.num_devices)
    positive = h_access > 0.0
    access_weights[positive] = np.sqrt(state.bits[positive] / h_access[positive])
    access_roots = np.bincount(
        assignment.bs_of, weights=access_weights,
        minlength=network.num_base_stations,
    )
    access = float(np.sum(access_roots * access_roots / network.access_bandwidth))
    front_roots = np.bincount(
        assignment.bs_of, weights=np.sqrt(state.bits),
        minlength=network.num_base_stations,
    )
    fronthaul = float(
        np.sum(
            front_roots
            * front_roots
            / (network.fronthaul_bandwidth * effective_fronthaul_se(network, state))
        )
    )
    return access + fronthaul


class TestFusedAllocation:
    @SETTINGS
    @given(
        seed=st.integers(0, 10_000),
        num_devices=st.integers(1, 12),
        idle=st.lists(st.booleans(), min_size=12, max_size=12),
        fronthaul=st.booleans(),
        park_idle=st.booleans(),
    )
    def test_matches_the_three_pass_form(
        self, seed, num_devices, idle, fronthaul, park_idle
    ) -> None:
        scenario = paper_network(seed, num_devices)
        network = scenario.network
        rng = np.random.default_rng(seed)
        idle = np.array(idle[:num_devices])
        (state,) = random_states(
            scenario, rng, 1, available=None, fronthaul=fronthaul, idle=idle
        )
        space = StrategySpace(network, state.coverage())
        bs_of, server_of = space.random_assignment(rng)
        if park_idle:
            # Zero-demand devices may sit on an uncovered base station.
            for i in np.flatnonzero(idle):
                uncovered = np.flatnonzero(~state.coverage()[i])
                if uncovered.size:
                    bs_of[i] = uncovered[0]
        assignment = Assignment(bs_of=bs_of, server_of=server_of)
        got = optimal_allocation(network, state, assignment)
        want = three_pass_allocation(network, state, assignment)
        for name in ("access_share", "fronthaul_share", "compute_share"):
            assert same_bits(getattr(got, name), getattr(want, name)), name
        assert same_bits(
            optimal_communication_latency(network, state, assignment),
            per_kind_communication_latency(network, state, assignment),
        )

    def test_zero_efficiency_error_is_unchanged(self) -> None:
        scenario = paper_network(4, 8)
        network = scenario.network
        state = next(iter(scenario.fresh_states(1)))
        space = StrategySpace(network, state.coverage())
        bs_of, server_of = space.random_assignment(np.random.default_rng(1))
        uncovered = np.argwhere(~state.coverage())
        for device, bs in uncovered[:2]:
            bs_of[device] = bs
        assignment = Assignment(bs_of=bs_of, server_of=server_of)
        errors = []
        for allocate in (optimal_allocation, three_pass_allocation):
            with pytest.raises(ValidationError) as info:
                allocate(network, state, assignment)
            errors.append(str(info.value))
        assert errors[0] == errors[1]
        assert errors[0].startswith(f"device {uncovered[0][0]} selected")


class TestRejections:
    """``ResourceAllocation`` and ``as_float_array`` reject as before:
    same predicates, same error order, same messages."""

    ok = np.array([0.2, 0.5])

    @pytest.mark.parametrize(
        ("access", "fronthaul", "compute", "error", "message"),
        [
            ([np.nan, 0.5], [-1.0, 0.5], [2.0, 0.5], ValueError,
             "access_share must be finite"),
            ([0.2, 0.5], [np.inf, 0.5], [-1.0, 0.5], ValueError,
             "fronthaul_share must be finite"),
            ([0.2, 0.5], [0.2, 0.5], [0.2, 0.5, 0.1], ValidationError,
             "all share vectors must be matching 1-D arrays"),
            ([[0.2, 0.5]], [[0.2, 0.5]], [[0.2, 0.5]], ValidationError,
             "all share vectors must be matching 1-D arrays"),
            ([0.2, 1.5], [-0.1, 0.5], [0.2, 0.5], ValidationError,
             r"access_share entries must lie in \[0, 1\]"),
            ([0.2, 0.5], [-0.1, 0.5], [2.0, 0.5], ValidationError,
             r"fronthaul_share entries must lie in \[0, 1\]"),
            ([0.2, 0.5], [0.2, 0.5], [0.2, 1.0 + 2e-9], ValidationError,
             r"compute_share entries must lie in \[0, 1\]"),
        ],
    )
    def test_resource_allocation_rejections(
        self, access, fronthaul, compute, error, message
    ) -> None:
        with pytest.raises(error, match=message):
            ResourceAllocation(
                access_share=access, fronthaul_share=fronthaul, compute_share=compute
            )

    def test_resource_allocation_accepts_the_tolerance_edge(self) -> None:
        edge = ResourceAllocation(
            access_share=[0.0, 1.0 + 1e-9],
            fronthaul_share=self.ok,
            compute_share=self.ok,
        )
        assert edge.access_share.flags.c_contiguous
        assert edge.num_devices == 2

    def test_as_float_array(self) -> None:
        strided = np.arange(6.0)[::2]
        out = as_float_array(strided, "x")
        assert out.flags.c_contiguous and out.dtype == np.float64
        np.testing.assert_array_equal(out, [0.0, 2.0, 4.0])
        assert as_float_array([1, 2], "x").dtype == np.float64
        for bad in ([1.0, np.inf], [np.nan], [[1.0], [-np.inf]]):
            with pytest.raises(ValueError, match="^x must be finite, got"):
                as_float_array(bad, "x")
