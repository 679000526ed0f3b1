"""The fused slot kernel against the Python slot loop it replaces.

On the ``jit`` backend, :meth:`repro.core.controller.DPPController.step`
runs a slot's BDMA and Lemma-1 allocation as one C call
(:func:`repro.core.bdma.solve_p2_bdma_fused`).  The Python loop
(:func:`repro.core.bdma.solve_p2_bdma` plus ``optimal_allocation``)
stays the oracle: the same controller with its CGBA solver hidden
behind a plain wrapper runs it on the same C sub-kernels, and a
``numpy`` controller runs it on the NumPy kernels.  Every
:class:`~repro.core.controller.SlotRecord` field, the engine counts,
every tracer counter and span-path count, the kernel histogram counts
and the controller's rng must come out bitwise equal, over drawn
scenarios that cross the pairwise-sum block sizes (8 and 128 servers),
fault masks, quarantine, shedding, warm-start and carry-over settings,
alternation depths and iteration caps.
"""

from __future__ import annotations

import ctypes
import dataclasses
import time
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.core import controller as controller_module
from repro.core.bdma import (
    _FusedSlotBinding,
    cgba_p2a_solver,
    solve_p2_bdma,
    solve_p2_bdma_fused,
)
from repro.core.congestion_game import OffloadingCongestionGame
from repro.core.overload import OverloadPolicy
from repro.core.resilience import ResiliencePolicy
from repro.exceptions import DeadlineError
from repro.kernels import available_backends, get_kernels
from repro.kernels._adapt import _COMPENSATED_SUM
from repro.network.connectivity import StrategySpace
from repro.obs import JsonlSink, Probe, diff_traces, load_trace
from repro.obs.telemetry import MetricsRegistry, histogram_summaries, telemetry_context
from repro.sim.faults import (
    FaultPlan,
    PriceFeedDropouts,
    ScriptedIncident,
    ServerOutages,
)
from repro.solvers.fast_engine import FastBestResponseEngine

from conftest import make_tiny_network, make_tiny_state

pytestmark = pytest.mark.skipif(
    not available_backends()["jit"],
    reason="backend 'jit' has no real provider (the C kernels did not build)",
)


def python_loop(controller: repro.DPPController) -> repro.DPPController:
    """Hide *controller*'s CGBA solver behind a plain wrapper, which
    routes its slots to the Python loop on the same kernels."""
    solver = (
        controller.p2a_solver
        if controller.p2a_solver is not None
        else controller._default_p2a_solver
    )

    def loop_only(*args, **kwargs):
        return solver(*args, **kwargs)

    loop_only.pop_stats = solver.pop_stats
    loop_only.supports_fixed_point = True
    controller.p2a_solver = loop_only
    return controller


def record_view(record) -> dict:
    """Every SlotRecord field bitwise, wall-clock fields dropped."""
    view = record.to_dict(include_arrays=True)
    view.pop("solve_seconds")
    stats = view.pop("engine_stats", None)
    if stats is not None:
        view["engine_stats"] = tuple(
            stats[name]
            for name in ("moves", "sweeps", "gap_recomputations",
                         "candidate_evaluations")
        )
    for key in ("latency", "cost", "theta", "backlog_before", "backlog_after"):
        view[key] = np.float64(view[key]).tobytes()
    view["frequencies"] = np.asarray(record.frequencies).tobytes()
    for name in ("access_share", "fronthaul_share", "compute_share"):
        view[name] = np.asarray(getattr(record.allocation, name)).tobytes()
    return view


def run_slots(make_scenario, backend, horizon, *, loop, fused_calls, **knobs):
    """Drive one controller; return records (or the raised error),
    tracer counters and span-path counts, rng state and fused calls."""
    scenario = make_scenario()
    probe = Probe()
    controller = repro.DPPController(
        scenario.network,
        scenario.controller_rng("fused"),
        budget=scenario.budget,
        tracer=probe,
        engine_backend=backend,
        **knobs,
    )
    if loop:
        python_loop(controller)
    outcome: list = []
    before = fused_calls.call_count
    for state in scenario.fresh_states(horizon):
        try:
            outcome.append(record_view(controller.step(state)))
        except Exception as exc:  # the error itself must agree
            outcome.append((type(exc).__name__, str(exc)))
            break
    spans = {path: len(values) for path, values in probe.phases.spans.items()}
    return (
        outcome,
        dict(probe.phases.counters),
        spans,
        controller.rng.bit_generator.state,
        fused_calls.call_count - before,
    )


#: (clusters, servers per cluster): N = 3, 6, 8, 16, 128 and 132, on
#: both sides of the pairwise sum's 8- and 128-entry blocks.
SERVER_LAYOUTS = ((1, 3), (2, 3), (2, 4), (2, 8), (2, 64), (3, 44))


@st.composite
def slot_configs(draw):
    clusters, per_cluster = draw(st.sampled_from(SERVER_LAYOUTS))
    num_bs = draw(st.sampled_from((2, 3, 6, 9)))
    num_servers = clusters * per_cluster
    incidents = []
    if draw(st.booleans()):
        down = draw(
            st.lists(
                st.integers(0, num_servers - 1),
                min_size=1, max_size=max(1, num_servers // 2), unique=True,
            )
        )
        incidents.append(
            ScriptedIncident(at=draw(st.integers(0, 2)), duration=2,
                             kind="server_down", targets=tuple(down))
        )
    if draw(st.booleans()):
        incidents.append(
            ScriptedIncident(at=draw(st.integers(0, 2)), duration=2,
                             kind="bs_down",
                             targets=(draw(st.integers(0, num_bs - 1)),))
        )
    scenario_knobs = dict(
        seed=draw(st.integers(0, 10_000)),
        config=repro.ScenarioConfig(num_devices=draw(st.integers(3, 12))),
        num_base_stations=num_bs,
        num_macro_stations=draw(st.integers(1, 2)),
        num_clusters=clusters,
        servers_per_cluster=per_cluster,
        fault_plan=FaultPlan(schedule=incidents) if incidents else None,
    )
    resilience = None
    if draw(st.booleans()):
        resilience = ResiliencePolicy(
            max_engine_iter=draw(st.sampled_from((None, 1, 2, 4))),
            accept_partial=draw(st.booleans()),
            fallback=draw(st.booleans()),
        )
    overload = None
    if draw(st.booleans()):
        overload = OverloadPolicy(
            high_watermark=draw(st.sampled_from((0.01, 0.5, 5.0))),
            shed_fraction=draw(st.sampled_from((0.2, 0.5))),
        )
    controller_knobs = dict(
        v=draw(st.sampled_from((10.0, 100.0))),
        z=draw(st.integers(1, 5)),
        warm_start=draw(st.booleans()),
        carry_over=draw(st.booleans()),
        initial_backlog=draw(st.sampled_from((0.0, 0.3, 4.0))),
        resilience=resilience,
        overload=overload,
    )
    return scenario_knobs, controller_knobs, draw(st.integers(2, 5))


class TestFusedMatchesPythonLoop:
    @given(slot_configs())
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_drawn_scenarios(self, config) -> None:
        scenario_knobs, controller_knobs, horizon = config

        def make_scenario():
            return repro.make_paper_scenario(**scenario_knobs)

        with mock.patch.object(
            controller_module,
            "solve_p2_bdma_fused",
            wraps=controller_module.solve_p2_bdma_fused,
        ) as fused_calls:
            fused = run_slots(make_scenario, "jit", horizon, loop=False,
                              fused_calls=fused_calls, **controller_knobs)
            loop = run_slots(make_scenario, "jit", horizon, loop=True,
                             fused_calls=fused_calls, **controller_knobs)
            oracle = run_slots(make_scenario, "numpy", horizon, loop=False,
                               fused_calls=fused_calls, **controller_knobs)
        assert loop[4] == 0 and oracle[4] == 0
        assert fused[4] > 0 or isinstance(fused[0][0], tuple)
        for other in (loop, oracle):
            assert fused[0] == other[0]  # records, or the same error
            assert fused[1] == other[1]  # tracer counter totals
            assert fused[2] == other[2]  # span-path counts
            assert fused[3] == other[3]  # rng state

    @pytest.mark.parametrize("fallback", (False, True))
    def test_expired_deadline(self, fallback: bool) -> None:
        """A deadline already past raises DeadlineError before the first
        round on both paths (or runs the same fallback), and the fused
        path rewinds its drawn first profile."""

        def make_scenario():
            return repro.make_paper_scenario(
                seed=3, config=repro.ScenarioConfig(num_devices=8)
            )

        knobs = dict(
            v=100.0, z=3,
            resilience=ResiliencePolicy(deadline_seconds=1e-12,
                                        fallback=fallback),
        )
        with mock.patch.object(
            controller_module,
            "solve_p2_bdma_fused",
            wraps=controller_module.solve_p2_bdma_fused,
        ) as fused_calls:
            fused = run_slots(make_scenario, "jit", 3, loop=False,
                              fused_calls=fused_calls, **knobs)
            loop = run_slots(make_scenario, "jit", 3, loop=True,
                             fused_calls=fused_calls, **knobs)
        assert fused[4] > 0
        if not fallback:
            assert fused[0][0][0] == "DeadlineError"
        assert fused[0] == loop[0]
        assert fused[1] == loop[1]
        assert fused[3] == loop[3]

    def test_direct_call_raises_and_rewinds(self) -> None:
        network = make_tiny_network()
        state = make_tiny_state()
        space = StrategySpace(network, state.coverage())
        rng = np.random.default_rng(4)
        before = rng.bit_generator.state
        solver = cgba_p2a_solver(backend="jit")
        with pytest.raises(DeadlineError):
            solve_p2_bdma_fused(
                network, state, space, rng, queue_backlog=1.0, v=10.0,
                budget=20.0, z=2, p2a_solver=solver,
                deadline=time.perf_counter() - 1.0,
            )
        assert rng.bit_generator.state == before

    def test_quarantined_slot(self) -> None:
        """A stranded device is quarantined in Python before the call."""
        network = make_tiny_network()
        base = make_tiny_state()
        h = base.spectral_efficiency.copy()
        h[2, :] = 0.0
        states = [dataclasses.replace(base, spectral_efficiency=h),
                  make_tiny_state(t=1)]
        views = []
        for loop in (False, True):
            probe = Probe()
            controller = repro.DPPController(
                network, np.random.default_rng(0), v=50.0, budget=20.0, z=2,
                resilience=ResiliencePolicy(), tracer=probe,
                engine_backend="jit",
            )
            if loop:
                python_loop(controller)
            records = [controller.step(s) for s in states]
            assert records[0].quarantined == (2,)
            views.append(([record_view(r) for r in records],
                          dict(probe.phases.counters)))
        assert views[0] == views[1]

    def test_integer_clock_network(self) -> None:
        """Servers given integer clock bounds run on the C kernels,
        bitwise equal to the NumPy oracle."""
        tiny = make_tiny_network()
        network = repro.MECNetwork(
            tiny.base_stations,
            tiny.clusters,
            tuple(dataclasses.replace(s, freq_min=2, freq_max=4)
                  for s in tiny.servers),
            tiny.devices,
            tiny.suitability,
        )
        states = [make_tiny_state(t=t) for t in range(3)]
        views = []
        for backend in ("jit", "numpy"):
            controller = repro.DPPController(
                network, np.random.default_rng(0), v=50.0, budget=20.0, z=2,
                engine_backend=backend,
            )
            views.append([record_view(controller.step(s)) for s in states])
        assert views[0] == views[1]


class TestOneStructPerState:
    """The fused slot call and the separate kernels share one
    ``repro_slot`` struct per game state.  Whatever runs on that state
    between two fused calls -- a best-response engine on the fused
    call's own workspace game, or another binding -- leaves every call
    bit-identical to the NumPy oracle: the engine's gap vector, slack
    and move budget stay its own, and so do each binding's.  At these
    seeds the slack changes the decision."""

    def setup_method(self) -> None:
        scenario = repro.make_paper_scenario(
            seed=11, config=repro.ScenarioConfig(num_devices=24)
        )
        self.network = scenario.network
        self.states = list(scenario.fresh_states(3))
        self.space = StrategySpace(self.network, self.states[0].coverage())
        self.knobs = dict(
            queue_backlog=40.0, v=100.0, budget=scenario.budget, z=3
        )

    def _fused(self, solver, state, seed) -> tuple:
        return self._bits(solve_p2_bdma_fused(
            self.network, state, self.space, np.random.default_rng(seed),
            p2a_solver=solver, **self.knobs,
        ).result)

    def _oracle(self, state, seed, slack) -> tuple:
        return self._bits(solve_p2_bdma(
            self.network, state, self.space, np.random.default_rng(seed),
            p2a_solver=cgba_p2a_solver(
                slack=slack, max_iter=500, backend="numpy"
            ),
            **self.knobs,
        ))

    @staticmethod
    def _bits(result) -> tuple:
        return (
            result.assignment.bs_of.tobytes(),
            result.assignment.server_of.tobytes(),
            result.frequencies.tobytes(),
            np.array(
                [result.objective, result.latency, result.cost,
                 *result.objective_history]
            ).tobytes(),
            result.engine_stats.moves,
            result.engine_stats.sweeps,
        )

    def test_engine_run_between_fused_calls(self) -> None:
        network, states, space = self.network, self.states, self.space
        solver = cgba_p2a_solver(slack=0.05, max_iter=500, backend="jit")
        first = self._fused(solver, states[0], 1)
        assert first == self._oracle(states[0], 1, 0.05)
        game = solver.fused_slot(network, space, 3).game
        (cache,) = game.kernel_state().kernel_args.values()
        params = cache.params.tobytes()

        # The engine at its own slack (0) on the workspace game: rebind,
        # reset, sweep and dynamics through the shared struct.
        frequencies = np.frombuffer(first[2])
        reference = OffloadingCongestionGame(
            network, states[1], space, frequencies,
            rng=np.random.default_rng(2), kernels="numpy",
        )
        game.rebind(states[1], frequencies, rng=np.random.default_rng(2))
        engines = [FastBestResponseEngine(g) for g in (game, reference)]
        runs = [engine.run(max_iter=10_000) for engine in engines]
        assert runs[0].iterations == runs[1].iterations > 1
        for name in ("loads", "bs_of", "server_of"):
            assert getattr(game.kernel_state(), name).tobytes() == (
                getattr(reference.kernel_state(), name).tobytes()
            )
        assert engines[0].gaps.tobytes() == engines[1].gaps.tobytes()
        assert cache.params.tobytes() == params
        gaps = engines[0].gaps.copy()

        assert self._fused(solver, states[2], 6) == (
            self._oracle(states[2], 6, 0.05)
        )
        assert engines[0].gaps.tobytes() == gaps.tobytes()

    def test_bindings_of_one_state_take_turns(self) -> None:
        game = OffloadingCongestionGame.unbound(
            self.network, self.space, kernels="jit"
        )
        bindings = {
            slack: _FusedSlotBinding(game, 3, slack, 500, False)
            for slack in (0.05, 0.0)
        }
        for slack in (0.05, 0.0, 0.05):
            solver = SimpleNamespace(
                fused_slot=lambda *_, b=bindings[slack]: b, max_iter=500
            )
            assert self._fused(solver, self.states[0], 1) == (
                self._oracle(self.states[0], 1, slack)
            )


def kernel_counts(registry: MetricsRegistry) -> dict:
    return {
        row["labels"]["kernel"]: row["count"]
        for row in histogram_summaries(registry, "repro_kernel_seconds")
    }


def test_fused_kernel_histograms_match_the_python_loop() -> None:
    """instrument_kernels lands the fused call's sub-kernel timings in
    the sub-kernels' own series, one per call the Python loop makes,
    and adds no series of its own."""
    counts = []
    for loop in (False, True):
        registry = MetricsRegistry()
        scenario = repro.make_paper_scenario(
            seed=7, config=repro.ScenarioConfig(num_devices=40)
        )
        with telemetry_context(registry):
            controller = repro.DPPController(
                scenario.network, scenario.controller_rng("hist"), v=100.0,
                budget=scenario.budget, z=3, engine_backend="jit",
            )
        if loop:
            python_loop(controller)
        for state in scenario.fresh_states(30):
            controller.step(state)
        counts.append(kernel_counts(registry))
    assert counts[0] == counts[1]
    assert counts[0]["golden_quad"] > 0 and counts[0]["run_dynamics"] > 0
    assert "bdma_slot" not in counts[0]


def _kernel(name: str, *argtypes):
    from repro.kernels import native

    fn = getattr(ctypes.CDLL(str(native._build_library())), name)
    fn.restype = ctypes.c_double
    fn.argtypes = [ctypes.c_void_p, *argtypes]
    return fn


def _wide_values(rng, n: int) -> np.ndarray:
    # Wide magnitudes make any change of association visible.
    return rng.standard_normal(n) * 10.0 ** rng.integers(-8, 9, n)


def test_pairwise_sum_mirrors_numpy() -> None:
    """The C mirror of a contiguous float64 ``.sum()`` is bitwise
    numpy's, for every length across the 8- and 128-entry blocks."""
    fn = _kernel("repro_pairwise_sum", ctypes.c_longlong)
    rng = np.random.default_rng(11)
    for n in range(1, 301):
        values = _wide_values(rng, n)
        got = fn(values.ctypes.data, n)
        assert np.float64(got).tobytes() == values.sum().tobytes(), n


def test_builtin_sum_mirrors_the_interpreter() -> None:
    """The energy cost's ``sum(list)`` mirror agrees with the running
    interpreter's builtin, compensated or not."""
    fn = _kernel("repro_builtin_sum", ctypes.c_longlong, ctypes.c_longlong)
    rng = np.random.default_rng(12)
    for n in range(0, 70):
        values = _wide_values(rng, n)
        got = fn(values.ctypes.data, n, _COMPENSATED_SUM)
        assert np.float64(got).tobytes() == np.float64(
            sum(values.tolist())
        ).tobytes(), n


class TestTraceParity:
    """A traced jit run and a traced numpy run of one seed give the same
    span paths with the same counts and the same counter totals, so the
    trace diff (timings ignored) is clean."""

    def _record(self, tmp_path, backend: str):
        from repro.cli import main

        path = tmp_path / f"{backend}.jsonl"
        assert main(
            ["simulate", "--devices", "12", "--horizon", "8", "--z", "3",
             "--seed", "5", "--backend", backend, "--trace", str(path)]
        ) == 0
        return load_trace(path)

    def _assert_parity(self, base, fast) -> None:
        def span_counts(trace):
            out: dict = {}
            for span in trace.spans:
                out[span.name] = out.get(span.name, 0) + 1
            return out

        assert span_counts(fast) == span_counts(base)
        assert fast.counters == base.counters
        assert diff_traces(base, fast, include_times=False).ok

    def test_unsharded(self, tmp_path, capsys) -> None:
        self._assert_parity(
            self._record(tmp_path, "numpy"), self._record(tmp_path, "jit")
        )

    def test_two_cell_faulted(self, tmp_path) -> None:
        traces = []
        for backend in ("numpy", "jit"):
            path = tmp_path / f"cells-{backend}.jsonl"
            probe = Probe([JsonlSink(path)])
            scenario = repro.make_paper_scenario(
                9,
                config=repro.ScenarioConfig(num_devices=24),
                num_base_stations=4,
                num_macro_stations=4,
                wireless_fronthaul_fraction=1.0,
                fault_plan=FaultPlan(
                    faults=(ServerOutages(), PriceFeedDropouts(mtbf_slots=3.0)),
                    schedule=[
                        ScriptedIncident(
                            at=1, duration=2, kind="server_down", targets=(0,)
                        ),
                    ],
                ),
            )
            repro.api.run(
                scenario=scenario, horizon=6, cells=2, z=3,
                engine_backend=backend, tracer=probe,
            )
            probe.close()
            traces.append(load_trace(path))
        self._assert_parity(*traces)


def test_backend_without_fused_slot_runs_the_python_loop() -> None:
    """The numpy backend has no fused slot kernel."""
    assert get_kernels("numpy").bdma_slot is None
    assert get_kernels("jit").bdma_slot is not None
