"""NumPy vs C for the fallback chain: the greedy pass and the repair.

The greedy tier of the fallback chain runs the one-pass greedy
assignment through the kernel backend's ``greedy_pass`` entry point; the
NumPy version is the oracle and the C version must match it bit for bit,
including ``np.argmin``'s tie rule (first minimum, or the first NaN).
``StrategySpace.repair`` fixes a carried-over assignment in one
vectorised pass; it must return the same arrays as the per-device loop
it replaced (kept here as the oracle) and leave the generator in the
same state.
"""

from __future__ import annotations

import dataclasses
import functools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro
from repro.baselines.greedy import solve_p2a_greedy
from repro.core.resilience import ResiliencePolicy, SolverChaos, fallback_decision
from repro.core.state import Assignment, SlotState
from repro.exceptions import SolverError, ValidationError
from repro.experiments import ablations
from repro.kernels import available_backends, get_kernels
from repro.network.connectivity import StrategySpace
from repro.obs.telemetry import (
    MetricsRegistry,
    histogram_summaries,
    instrument_kernels,
    telemetry_context,
)

requires_jit = pytest.mark.skipif(
    not available_backends()["jit"],
    reason="backend 'jit' has no real provider (the C kernels did not build)",
)

SETTINGS = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

MAX_DEVICES = 12


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def loop_repair(space: StrategySpace, bs_of, server_of, rng):
    """The per-device repair loop ``StrategySpace.repair`` replaced."""
    bs_of = np.array(bs_of, dtype=np.int64, copy=True)
    server_of = np.array(server_of, dtype=np.int64, copy=True)
    for i in range(space.num_devices):
        if not space.contains(i, int(bs_of[i]), int(server_of[i])):
            ks, ns = space.pairs(i)
            j = int(rng.integers(ks.size))
            bs_of[i] = ks[j]
            server_of[i] = ns[j]
    return bs_of, server_of


@functools.lru_cache(maxsize=None)
def small_scenario(seed: int, num_devices: int) -> repro.Scenario:
    """4 base stations, 2 clusters of 3 servers, *num_devices* devices."""
    return repro.make_paper_scenario(
        seed=seed,
        config=repro.ScenarioConfig(num_devices=num_devices),
        num_base_stations=4,
        num_clusters=2,
        servers_per_cluster=3,
        num_macro_stations=1,
    )


def availability(network, down) -> np.ndarray:
    """Servers up unless *down*; each cluster keeps its first server."""
    available = ~np.array(down[: network.num_servers], dtype=bool)
    for cluster in network.clusters:
        first = min(s.index for s in network.servers if s.cluster == cluster.index)
        available[first] = True
    return available


def slot_state(scenario, *, idle=(), stranded=(), available=None) -> SlotState:
    """The scenario's first slot with zero-demand (*idle*) devices,
    devices that cover nothing (*stranded*) and an availability mask."""
    base = next(iter(scenario.fresh_states(1)))
    num_devices = scenario.network.num_devices
    cycles, bits = base.cycles.copy(), base.bits.copy()
    h = base.spectral_efficiency.copy()
    for i, flag in enumerate(idle[:num_devices]):
        if flag:
            cycles[i] = bits[i] = 0.0
    for i, flag in enumerate(stranded[:num_devices]):
        if flag:
            h[i, :] = 0.0
    return dataclasses.replace(
        base,
        cycles=cycles,
        bits=bits,
        spectral_efficiency=h,
        available_servers=available,
    )


def kernel_counts(registry: MetricsRegistry) -> dict[str, int]:
    return {
        row["labels"]["kernel"]: row["count"]
        for row in histogram_summaries(registry, "repro_kernel_seconds")
    }


def flags(size: int = MAX_DEVICES):
    return st.lists(st.booleans(), min_size=size, max_size=size)


@requires_jit
class TestGreedyPassBackends:
    @SETTINGS
    @given(
        seed=st.integers(0, 10_000),
        num_devices=st.integers(1, MAX_DEVICES),
        down=flags(6),
        idle=flags(),
        stranded=flags(),
        full_coverage=st.booleans(),
        joint=st.booleans(),
        order_mode=st.sampled_from(("explicit", "shuffled", "default")),
        clock=st.floats(0.0, 1.0),
    )
    def test_numpy_and_c_agree(
        self, seed, num_devices, down, idle, stranded, full_coverage, joint,
        order_mode, clock,
    ) -> None:
        scenario = small_scenario(seed % 50, num_devices)
        network = scenario.network
        available = availability(network, down)
        if full_coverage:
            # Every base station is a candidate, covered or not: links
            # with zero efficiency carry +inf access weights, and a
            # stranded device has nothing but such links.
            state = slot_state(
                scenario, idle=idle, stranded=stranded, available=available
            )
            coverage = np.ones(
                (num_devices, network.num_base_stations), dtype=bool
            )
        else:
            state = slot_state(scenario, idle=idle, available=available)
            coverage = state.coverage()
        space = StrategySpace(network, coverage, available)
        frequencies = network.freq_min + clock * (network.freq_max - network.freq_min)
        order = np.random.default_rng(seed).permutation(num_devices)

        def run(backend):
            rng = np.random.default_rng(seed) if order_mode == "shuffled" else None
            with np.errstate(invalid="ignore"):
                return solve_p2a_greedy(
                    network, state, space, frequencies, rng,
                    joint=joint,
                    order=order if order_mode == "explicit" else None,
                    backend=backend,
                )

        ref, fast = run("numpy"), run("jit")
        assert same_bits(ref.bs_of, fast.bs_of)
        assert same_bits(ref.server_of, fast.server_of)

    @SETTINGS
    @given(data=st.data(), joint=st.booleans())
    def test_raw_arrays_with_ties_and_non_finite_marginals(self, data, joint) -> None:
        # Weights from a tiny alphabet make exact ties common; the
        # infinities and NaNs reach the marginals as inf, 0 * inf and
        # NaN.
        values = st.sampled_from((0.0, 0.5, 1.0, 2.0, np.inf, np.nan))
        num_devices = data.draw(st.integers(1, 6))
        num_bs = data.draw(st.integers(1, 3))
        num_servers = data.draw(st.integers(1, 3))
        pairs = [(k, n) for k in range(num_bs) for n in range(num_servers)]
        menus = [
            data.draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=6))
            for _ in range(num_devices)
        ]
        counts = np.array([len(menu) for menu in menus], dtype=np.int64)
        offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        bs = np.array([k for menu in menus for k, _ in menu], dtype=np.int64)
        server = np.array([n for menu in menus for _, n in menu], dtype=np.int64)

        def weights(*shape):
            size = int(np.prod(shape))
            drawn = data.draw(st.lists(values, min_size=size, max_size=size))
            return np.array(drawn, dtype=np.float64).reshape(shape)

        args = (
            data.draw(st.permutations(range(num_devices))),
            offsets, bs, server,
            weights(num_devices, num_bs), weights(num_devices),
            weights(num_devices, num_servers),
            weights(num_bs), weights(num_bs), weights(num_servers),
            joint,
        )
        args = (np.array(args[0], dtype=np.int64), *args[1:])
        with np.errstate(invalid="ignore"):
            ref = get_kernels("numpy").greedy_pass(*args)
        fast = get_kernels("jit").greedy_pass(*args)
        assert same_bits(ref[0], fast[0])
        assert same_bits(ref[1], fast[1])

    @settings(SETTINGS, max_examples=200)
    @given(
        seed=st.integers(0, 2**32 - 1),
        num_devices=st.integers(1, 4),
        num_bs=st.integers(1, 3),
        num_servers=st.integers(2, 4),
        joint=st.booleans(),
    )
    def test_near_ties_follow_the_oracle_expression_tree(
        self, seed, num_devices, num_bs, num_servers, joint
    ) -> None:
        # Resource weights m = 1 / p^2 for the first device in order, so
        # its marginals at zero load are all 1 up to rounding: which
        # candidate wins is decided by the last bits of each product
        # and sum, so only the oracle's association reproduces it.
        rng = np.random.default_rng(seed)
        offsets = np.arange(num_devices + 1, dtype=np.int64) * num_bs * num_servers
        bs = np.tile(np.repeat(np.arange(num_bs), num_servers), num_devices)
        server = np.tile(np.arange(num_servers), num_devices * num_bs)
        order = rng.permutation(num_devices)
        p_access = rng.uniform(0.1, 10.0, (num_devices, num_bs))
        p_front = rng.uniform(0.1, 10.0, num_devices)
        p_compute = rng.uniform(0.1, 10.0, (num_devices, num_servers))
        first = order[0]
        args = (
            order, offsets, bs, server, p_access, p_front, p_compute,
            1.0 / p_access[first] ** 2,
            np.full(num_bs, 1.0 / p_front[first] ** 2),
            1.0 / p_compute[first] ** 2,
            joint,
        )
        ref = get_kernels("numpy").greedy_pass(*args)
        fast = get_kernels("jit").greedy_pass(*args)
        assert same_bits(ref[0], fast[0])
        assert same_bits(ref[1], fast[1])


class TestGreedyPassRules:
    """Hand-built cases for the argmin rule, on every available backend."""

    BACKENDS = [
        "numpy",
        pytest.param("jit", marks=requires_jit),
    ]

    @staticmethod
    def one_device(p_compute, *, joint=True, m_compute=None):
        """One device, one base station, one candidate per server."""
        num_servers = len(p_compute)
        return (
            np.zeros(1, dtype=np.int64),
            np.array([0, num_servers], dtype=np.int64),
            np.zeros(num_servers, dtype=np.int64),
            np.arange(num_servers, dtype=np.int64),
            np.ones((1, 1)),
            np.ones(1),
            np.array([p_compute], dtype=np.float64),
            np.ones(1),
            np.ones(1),
            np.ones(num_servers) if m_compute is None else np.asarray(m_compute),
            joint,
        )

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("joint", (True, False))
    def test_exact_tie_takes_the_first_candidate(self, backend, joint) -> None:
        _, server_of = get_kernels(backend).greedy_pass(
            *self.one_device([2.0, 1.0, 1.0, 1.0], joint=joint)
        )
        assert server_of.tolist() == [1]

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("joint", (True, False))
    def test_first_nan_wins(self, backend, joint) -> None:
        # Server 0 is cheapest, servers 1 and 3 have NaN marginals.
        with np.errstate(invalid="ignore"):
            _, server_of = get_kernels(backend).greedy_pass(
                *self.one_device([0.5, np.nan, 1.0, np.nan], joint=joint)
            )
        assert server_of.tolist() == [1]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_inf_times_zero_is_a_nan_marginal(self, backend) -> None:
        # A zero weight on an infinitely slow server: 0 * inf is NaN,
        # which np.argmin picks over the finite candidate after it.
        with np.errstate(invalid="ignore"):
            _, server_of = get_kernels(backend).greedy_pass(
                *self.one_device([0.0, 0.0], m_compute=[np.inf, 1.0])
            )
        assert server_of.tolist() == [0]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_loads_steer_later_devices(self, backend) -> None:
        # Two identical devices, two identical servers: the first takes
        # server 0 (tie), so server 1 is cheaper for the second.
        args = (
            np.array([1, 0], dtype=np.int64),
            np.array([0, 2, 4], dtype=np.int64),
            np.zeros(4, dtype=np.int64),
            np.array([0, 1, 0, 1], dtype=np.int64),
            np.ones((2, 1)), np.ones(2), np.ones((2, 2)),
            np.ones(1), np.ones(1), np.ones(2),
            True,
        )
        bs_of, server_of = get_kernels(backend).greedy_pass(*args)
        assert bs_of.tolist() == [0, 0]
        assert server_of.tolist() == [1, 0]


@requires_jit
def test_c_pass_rejects_out_of_range_and_empty_sets() -> None:
    greedy = get_kernels("jit").greedy_pass
    base = TestGreedyPassRules.one_device([1.0, 2.0])
    with pytest.raises(IndexError):
        greedy(np.array([3], dtype=np.int64), *base[1:])
    with pytest.raises(IndexError):
        greedy(base[0], base[1], base[2], np.array([0, 7]), *base[4:])
    empty = np.array([0, 0], dtype=np.int64)
    with pytest.raises(ValueError, match="empty strategy set"):
        greedy(base[0], empty, *base[2:])
    with pytest.raises(ValueError, match="shape"):
        greedy(*base[:4], np.ones((1, 2)), *base[5:])


class TestAblationGreedy:
    #: ``run_ablation_greedy()`` rows (mean objective, ratio) as the
    #: per-device Python loop computed them, as float hex.
    ROWS = [
        ["CGBA(0)", "0x1.309d7d67ec839p+5", "0x1.0000000000000p+0"],
        ["greedy joint", "0x1.3c7b9cfb6ce9ep+5", "0x1.09d7a7c8d2966p+0"],
        ["greedy decoupled", "0x1.408929d952c50p+5", "0x1.0d820aab76179p+0"],
    ]

    @staticmethod
    def hex_rows(result):
        return [[name, float(a).hex(), float(b).hex()] for name, a, b in result.rows]

    def test_rows_regenerate_unchanged(self) -> None:
        result = ablations.run_ablation_greedy()
        assert self.hex_rows(result) == self.ROWS
        committed = (
            Path(__file__).parents[1] / "benchmarks" / "results" / "ablation_greedy.txt"
        )
        assert result.table() + "\n" == committed.read_text()

    @requires_jit
    def test_rows_on_the_c_pass(self, monkeypatch) -> None:
        monkeypatch.setattr(
            ablations,
            "solve_p2a_greedy",
            functools.partial(solve_p2a_greedy, backend="jit"),
        )
        assert self.hex_rows(ablations.run_ablation_greedy()) == self.ROWS


class TestRepair:
    @SETTINGS
    @given(
        seed=st.integers(0, 10_000),
        num_devices=st.integers(1, MAX_DEVICES),
        down=flags(6),
        mode=st.sampled_from(("mixed", "feasible", "infeasible")),
    )
    def test_matches_the_loop_oracle(self, seed, num_devices, down, mode) -> None:
        scenario = small_scenario(seed % 50, num_devices)
        network = scenario.network
        available = availability(network, down)
        space = StrategySpace(
            network, slot_state(scenario).coverage(), available
        )
        draws = np.random.default_rng(seed)
        if mode == "feasible":
            bs_of, server_of = space.random_assignment(draws)
        elif mode == "infeasible":
            bs_of = np.full(num_devices, -1, dtype=np.int64)
            server_of = draws.integers(0, network.num_servers, num_devices)
        else:
            # Out-of-range entries included: they are never feasible.
            bs_of = draws.integers(-1, network.num_base_stations + 1, num_devices)
            server_of = draws.integers(-1, network.num_servers + 1, num_devices)
        before = (bs_of.copy(), server_of.copy())

        rng, oracle_rng = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
        fixed = space.repair(bs_of, server_of, rng)
        expected = loop_repair(space, bs_of, server_of, oracle_rng)
        assert same_bits(fixed[0], expected[0])
        assert same_bits(fixed[1], expected[1])
        assert rng.bit_generator.state == oracle_rng.bit_generator.state
        assert same_bits(bs_of, before[0]) and same_bits(server_of, before[1])
        if mode == "feasible":
            untouched = np.random.default_rng(seed + 1).bit_generator.state
            assert rng.bit_generator.state == untouched
            assert same_bits(fixed[0], bs_of) and same_bits(fixed[1], server_of)
        for i in range(num_devices):
            assert space.contains(i, int(fixed[0][i]), int(fixed[1][i]))

    @pytest.mark.parametrize("delta", (1, -1))
    @pytest.mark.parametrize("which", ("bs_of", "server_of", "both"))
    def test_rejects_a_mis_sized_assignment(self, delta, which) -> None:
        scenario = small_scenario(0, 5)
        space = StrategySpace(scenario.network, slot_state(scenario).coverage())
        bs_of, server_of = space.random_assignment(np.random.default_rng(0))
        wrong = 5 + delta
        if which in ("bs_of", "both"):
            bs_of = np.resize(bs_of, wrong)
        if which in ("server_of", "both"):
            server_of = np.resize(server_of, wrong)
        with pytest.raises(ValidationError, match=r"shape \(I,\) = \(5,\)"):
            space.repair(bs_of, server_of, np.random.default_rng(0))


class TestFallbackDecision:
    @requires_jit
    @SETTINGS
    @given(
        seed=st.integers(0, 10_000),
        num_devices=st.integers(1, MAX_DEVICES),
        down=flags(6),
        idle=flags(),
        stranded=flags(),
        full_coverage=st.booleans(),
        with_previous=st.booleans(),
        backlog=st.sampled_from((0.0, 1.0, 50.0)),
    )
    def test_same_tier_and_decision_on_both_backends(
        self, seed, num_devices, down, idle, stranded, full_coverage,
        with_previous, backlog,
    ) -> None:
        # Under a full-coverage space a stranded device can only take an
        # uncovered link, which fails validation in every tier: both
        # backends must then raise the same error.
        scenario = small_scenario(seed % 50, num_devices)
        network = scenario.network
        available = availability(network, down)
        state = slot_state(
            scenario,
            idle=idle,
            stranded=stranded if full_coverage else (),
            available=available,
        )
        coverage = (
            np.ones((num_devices, network.num_base_stations), dtype=bool)
            if full_coverage
            else state.coverage()
        )
        space = StrategySpace(network, coverage, available)
        previous = None
        if with_previous:
            bs_of, server_of = space.random_assignment(np.random.default_rng(seed))
            previous = Assignment(bs_of=bs_of, server_of=server_of)

        def run(backend):
            rng = np.random.default_rng(seed)
            try:
                with np.errstate(invalid="ignore"):
                    outcome = fallback_decision(
                        network, state, space, rng,
                        queue_backlog=backlog, v=50.0, budget=1.0,
                        previous=previous, backend=backend,
                    )
            except SolverError as exc:
                outcome = str(exc)
            return outcome, rng.bit_generator.state

        (ref, ref_rng), (fast, fast_rng) = run("numpy"), run("jit")
        assert ref_rng == fast_rng
        if isinstance(ref, str):
            assert fast == ref
            return
        (ref, ref_tier), (fast, fast_tier) = ref, fast
        assert ref_tier == fast_tier
        assert same_bits(ref.assignment.bs_of, fast.assignment.bs_of)
        assert same_bits(ref.assignment.server_of, fast.assignment.server_of)
        for name in ("frequencies", "objective", "latency", "cost"):
            assert same_bits(getattr(ref, name), getattr(fast, name)), name

    @pytest.mark.parametrize(
        "backend", ("numpy", pytest.param("jit", marks=requires_jit))
    )
    def test_greedy_pass_is_timed_and_p2b_stays_on_numpy(self, backend) -> None:
        scenario = small_scenario(3, 8)
        network = scenario.network
        state = slot_state(scenario)
        space = StrategySpace(network, state.coverage())
        registry = MetricsRegistry()
        kernels = instrument_kernels(get_kernels(backend), registry)
        _, tier = fallback_decision(
            network, state, space, np.random.default_rng(0),
            queue_backlog=5.0, v=50.0, budget=1.0, backend=kernels,
        )
        assert tier == "greedy"
        # The greedy tier's P2-B is the NumPy search, whatever the
        # backend: no golden_quad call is added to the pinned counts.
        assert kernel_counts(registry) == {"greedy_pass": 1}


@pytest.mark.parametrize("backend", ("numpy", pytest.param("jit", marks=requires_jit)))
class TestControllersPassTheirBackend:
    def test_fallback_slot_times_the_greedy_pass(self, backend) -> None:
        scenario = small_scenario(3, 8)
        registry = MetricsRegistry()
        with telemetry_context(registry):
            controller = repro.make_controller(
                "dpp", scenario, engine_backend=backend,
                resilience=ResiliencePolicy(chaos=SolverChaos(fail_slots=(1,))),
            )
        records = [controller.step(state) for state in scenario.fresh_states(2)]
        assert [record.fallback for record in records] == ["primary", "greedy"]
        assert kernel_counts(registry)["greedy_pass"] == 1

    def test_greedy_controller_times_its_pass(self, backend) -> None:
        scenario = small_scenario(3, 8)
        registry = MetricsRegistry()
        with telemetry_context(registry):
            controller = repro.make_controller(
                "greedy", scenario, engine_backend=backend
            )
        for state in scenario.fresh_states(3):
            controller.step(state)
        assert kernel_counts(registry)["greedy_pass"] == 3
