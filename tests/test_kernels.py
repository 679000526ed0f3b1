"""Cross-backend parity: jit kernels must be bit-identical to NumPy.

The kernel contract (:mod:`repro.kernels.interface`) promises that
selecting ``backend="jit"`` changes wall-clock, never results.  These
tests enforce it end to end: slot-record streams, trajectory
fingerprints, engine counters, P2-B's clocks and grouped replication
must all match the NumPy oracle bit for bit --
including under injected faults and chaos, where the resilience
fallback chain runs on top of the kernels.

Tests that exercise the real jit provider (the C kernels) are skipped
when the C kernels do not build and load (``available_backends()["jit"]``
is then ``False`` and ``jit`` resolves to the oracle itself).
"""

from __future__ import annotations

import ctypes
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import repro
from repro.api import run
from repro.core.p2b import solve_p2b
from repro.core.resilience import ResiliencePolicy, SolverChaos
from repro.core.state import Assignment, SlotState
from repro.energy.models import QuadraticEnergyModel, ScaledEnergyModel
from repro.exceptions import ConfigurationError, SolverError
from repro.kernels import (
    BACKEND_NAMES,
    KernelBackend,
    available_backends,
    get_kernels,
    jit_provider,
)
from repro.kernels._adapt import wrap_raw_backend
from repro.network.topology import (
    BaseStation,
    EdgeServer,
    FronthaulType,
    MECNetwork,
    MobileDevice,
    ServerCluster,
)
from repro.obs import Probe
from repro.sim import replication
from repro.sim.faults import (
    ChannelStaleness,
    FaultPlan,
    FronthaulDegradation,
    PriceFeedDropouts,
    ScriptedIncident,
)
from repro.sim.replication import ReplicationSpec, run_replications
from repro.solvers.scalar import minimize_convex_scalar

from conftest import MEDIUM_FINGERPRINT, fingerprint

requires_jit = pytest.mark.skipif(
    not available_backends()["jit"],
    reason="backend 'jit' has no real provider (the C kernels did not build)",
)

def assert_records_identical(a, b) -> None:
    """Every SlotRecord field, arrays included, must match bitwise."""
    assert len(a) == len(b)
    for rec_a, rec_b in zip(a, b):
        da = rec_a.to_dict(include_arrays=True)
        db = rec_b.to_dict(include_arrays=True)
        assert set(da) == set(db)
        for key in da:
            if isinstance(da[key], (list, np.ndarray)):
                np.testing.assert_array_equal(da[key], db[key], err_msg=key)
            elif key not in ("solve_seconds", "engine_stats"):
                assert da[key] == db[key], key


class TestRegistry:
    def test_numpy_is_always_available(self) -> None:
        availability = available_backends()
        assert set(availability) == set(BACKEND_NAMES)
        assert availability["numpy"] is True

    def test_unknown_backend_rejected(self) -> None:
        with pytest.raises(ConfigurationError, match="unknown kernel backend"):
            get_kernels("cuda")

    @pytest.mark.default_backend
    def test_resolved_backends_pass_through_and_cache(self) -> None:
        numpy_kernels = get_kernels("numpy")
        assert get_kernels("numpy") is numpy_kernels
        assert get_kernels(numpy_kernels) is numpy_kernels
        assert isinstance(numpy_kernels, KernelBackend)
        # Unset is the C kernels, or the oracle itself -- under its own
        # name -- when they cannot build.
        default = get_kernels(None)
        assert default is get_kernels("jit")
        if default.provider == "cc":
            assert default.name == "jit"
        else:
            assert default is numpy_kernels

    def test_manifest_surfaces_backend_availability(self) -> None:
        from repro.obs.manifest import RunManifest, config_hash

        manifest = RunManifest(config={"horizon": 4}, seed=1)
        plain = manifest.to_dict()
        assert plain["backends"] == dict(
            available_backends(), jit_provider=jit_provider()
        )
        # Availability is machine-dependent provenance, not configuration:
        # it must not perturb the config hash.
        assert plain["config_hash"] == config_hash({"horizon": 4})

    @requires_jit
    def test_jit_backend_resolves_to_real_provider(self) -> None:
        kernels = get_kernels("jit")
        assert kernels.name == "jit"
        assert kernels.provider == "cc"
        assert kernels.golden_quad is not None
        assert kernels.run_dynamics is not None


@requires_jit
class TestGoldenQuadKernel:
    """The native golden-section kernel vs the NumPy search, run lane by
    lane over a batch of lanes."""

    def _lanes(self, size: int, seed: int):
        rng = np.random.default_rng(seed)
        lo = rng.uniform(0.5, 1.5, size)
        hi = lo + rng.uniform(0.0, 2.5, size)
        latency_scale = rng.uniform(0.1, 50.0, size)
        ep = rng.uniform(1e-6, 2e-4, size)
        scale = np.where(rng.random(size) < 0.5, 1.0, rng.uniform(0.5, 2.0, size))
        qa = rng.uniform(0.5, 4.0, size)
        qb = rng.uniform(0.0, 2.0, size)
        qc = rng.uniform(0.0, 10.0, size)
        return lo, hi, latency_scale, ep, scale, qa, qb, qc

    @staticmethod
    def _reference(lanes, tol: float):
        """``(x, evals)`` of :func:`minimize_convex_scalar` on each lane's
        quadratic objective."""
        xs, evals = [], []
        for lo, hi, ls, ep, s, qa, qb, qc in zip(*(lane.tolist() for lane in lanes)):

            def objective(f: float) -> float:
                return ls / f + ep * (s * (qa * f * f + qb * f + qc))

            result = minimize_convex_scalar(objective, lo, hi, tol=tol)
            xs.append(result.x)
            evals.append(result.iterations)
        return np.array(xs), np.array(evals, dtype=np.int64)

    @pytest.mark.parametrize("seed", (0, 1, 2))
    def test_bit_identical_to_numpy_batch_search(self, seed: int) -> None:
        lanes = self._lanes(64, seed)
        want_x, want_evals = self._reference(lanes, 1e-8)
        x, evals = get_kernels("jit").golden_quad(*lanes, 1e-8)
        np.testing.assert_array_equal(x, want_x)
        np.testing.assert_array_equal(evals, want_evals)

    def test_degenerate_lane_counts_one_eval(self) -> None:
        lanes = self._lanes(4, 3)
        lo, hi = lanes[0], lanes[1]
        hi[2] = lo[2]  # pinned bracket: hi == lo
        want_x, want_evals = self._reference(lanes, 1e-8)
        x, evals = get_kernels("jit").golden_quad(*lanes, 1e-8)
        assert evals[2] == 1 == want_evals[2]
        assert x[2] == lo[2]
        np.testing.assert_array_equal(x, want_x)
        np.testing.assert_array_equal(evals, want_evals)

    def _counting_golden_quad(self):
        """The C golden_quad behind a conversion-recording adapter."""
        from repro.kernels import native

        raw = native._bind(ctypes.CDLL(str(native._build_library())))
        converted: list = []

        def convert(arr):
            converted.append(arr)
            return native._as_ptr(arr)

        return wrap_raw_backend(raw, convert=convert).golden_quad, converted

    def test_lanes_converted_once_per_capacity(self) -> None:
        golden_quad, converted = self._counting_golden_quad()
        for size, grows in ((8, True), (8, False), (3, False), (40, True), (40, False)):
            lanes = self._lanes(size, size)
            converted.clear()
            x, evals = golden_quad(*lanes, 1e-8)
            assert bool(converted) == grows, size
            want_x, want_evals = get_kernels("jit").golden_quad(*lanes, 1e-8)
            np.testing.assert_array_equal(x, want_x)
            np.testing.assert_array_equal(evals, want_evals)

    def test_results_survive_the_next_call(self) -> None:
        golden_quad = get_kernels("jit").golden_quad
        first = self._lanes(6, 4)
        x, evals = golden_quad(*first, 1e-8)
        kept = x.copy(), evals.copy()
        golden_quad(*self._lanes(6, 5), 1e-8)
        np.testing.assert_array_equal(x, kept[0])
        np.testing.assert_array_equal(evals, kept[1])

    def test_concurrent_callers_get_their_own_results(self) -> None:
        """The lanes are one set per backend and the C call releases the
        GIL: callers on several threads must still each get their own
        lanes' results."""
        golden_quad = get_kernels("jit").golden_quad
        inputs = [self._lanes(size, seed) for seed, size in enumerate((7, 16, 33, 64))]
        expected = [golden_quad(*lanes, 1e-8) for lanes in inputs]
        mismatches: list = []

        def worker(lanes, want) -> None:
            for _ in range(300):
                x, evals = golden_quad(*lanes, 1e-8)
                if not (np.array_equal(x, want[0]) and np.array_equal(evals, want[1])):
                    mismatches.append(lanes[0].size)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(lanes, want))
                for lanes, want in zip(inputs * 2, expected * 2)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert mismatches == []

    @pytest.mark.parametrize("lane", range(8))
    def test_ragged_lanes_rejected(self, lane: int) -> None:
        lanes = list(self._lanes(8, 6))
        lanes[lane] = lanes[lane][:5]
        with pytest.raises(ValueError, match="shape"):
            get_kernels("jit").golden_quad(*lanes, 1e-8)

    def test_non_vector_lanes_rejected(self) -> None:
        lanes = [lane.reshape(2, 4) for lane in self._lanes(8, 7)]
        with pytest.raises(ValueError, match="1-D"):
            get_kernels("jit").golden_quad(*lanes, 1e-8)


def _p2b_case(servers: int, seed: int, pinned: float, idle: float,
              offline: float, backlog: float):
    """A one-cell network of *servers* servers with drawn clock ranges
    (a *pinned* share with ``F^L == F^U``) and (scaled) quadratic energy
    models, two devices per server on random servers (an *idle* share
    with zero cycles), and a state with an availability mask when
    *offline* > 0 (at least one server up)."""
    rng = np.random.default_rng(seed)
    lo = rng.uniform(0.5, 2.5, servers)
    hi = np.where(rng.random(servers) < pinned, lo, lo + rng.uniform(0.0, 2.5, servers))
    models = []
    for _ in range(servers):
        base = QuadraticEnergyModel(
            a=rng.uniform(0.5, 8.0), b=rng.uniform(0.0, 4.0), c=rng.uniform(0.0, 20.0)
        )
        models.append(
            ScaledEnergyModel(base=base, scale=rng.uniform(0.5, 4.0))
            if rng.random() < 0.5
            else base
        )
    devices = 2 * servers
    network = MECNetwork(
        (
            BaseStation(
                index=0, position=(0.0, 0.0), coverage_radius=1e4,
                access_bandwidth=80e6, fronthaul_bandwidth=1e9,
                fronthaul_spectral_efficiency=10.0,
                fronthaul_type=FronthaulType.WIRED, connected_clusters=(0,),
            ),
        ),
        (ServerCluster(index=0, servers=tuple(range(servers))),),
        tuple(
            EdgeServer(
                index=n, cluster=0, cores=int(rng.integers(8, 129)),
                freq_min=float(lo[n]), freq_max=float(hi[n]),
                energy_model=models[n], speed_scale=float(rng.uniform(1.0, 4.0)),
            )
            for n in range(servers)
        ),
        tuple(MobileDevice(index=i, position=(1.0, 1.0)) for i in range(devices)),
        rng.uniform(0.1, 1.0, (devices, servers)),
    )
    cycles = rng.uniform(1e8, 5e8, devices)
    cycles[rng.random(devices) < idle] = 0.0
    available = None
    if offline > 0.0:
        available = rng.random(servers) >= offline
        available[rng.integers(servers)] = True
    state = SlotState(
        t=0, cycles=cycles, bits=np.full(devices, 1e6),
        spectral_efficiency=np.ones((devices, 1)),
        price=float(rng.uniform(0.01, 2.0)), available_servers=available,
    )
    assignment = Assignment(
        bs_of=np.zeros(devices, dtype=np.int64),
        server_of=rng.integers(0, servers, devices),
    )
    return network, state, assignment, backlog


@requires_jit
class TestP2BParity:
    """``solve_p2b`` on the NumPy per-server search and on the C
    ``golden_quad``: bitwise-equal clocks and equal fast-path counts."""

    @settings(max_examples=30, deadline=None)
    @given(
        servers=st.integers(1, 160),
        seed=st.integers(0, 2**32 - 1),
        pinned=st.sampled_from([0.0, 0.3, 1.0]),
        idle=st.sampled_from([0.0, 0.3, 1.0]),
        offline=st.sampled_from([0.0, 0.0, 0.4]),
        backlog=st.one_of(st.just(0.0), st.floats(0.05, 50.0)),
    )
    # Fast-path edge cases: every device idle, zero energy pressure,
    # offline servers, one server, and a fleet past 64 servers.
    @example(servers=3, seed=7, pinned=0.0, idle=1.0, offline=0.0, backlog=5.0)
    @example(servers=3, seed=7, pinned=0.0, idle=0.0, offline=0.0, backlog=0.0)
    @example(servers=3, seed=7, pinned=0.0, idle=0.0, offline=0.5, backlog=8.0)
    @example(servers=1, seed=1, pinned=1.0, idle=0.0, offline=0.0, backlog=3.0)
    @example(servers=160, seed=2, pinned=0.3, idle=0.3, offline=0.4, backlog=50.0)
    def test_solve_p2b_numpy_matches_jit(
        self, servers: int, seed: int, pinned: float, idle: float,
        offline: float, backlog: float,
    ) -> None:
        network, state, assignment, q = _p2b_case(
            servers, seed, pinned, idle, offline, backlog
        )
        got = {}
        for backend in ("numpy", "jit"):
            probe = Probe()
            freqs = solve_p2b(
                network, state, assignment, queue_backlog=q, v=75.0,
                tracer=probe, backend=backend,
            )
            counters = probe.phases.counters
            got[backend] = (
                freqs.tobytes(),
                counters["p2b.scalar_solves"],
                counters["p2b.fastpath"],
            )
        assert got["numpy"] == got["jit"]
        assert got["jit"][1] + got["jit"][2] == servers


class TestSlotStreamParity:
    """Full pipeline runs must be bit-identical across backends."""

    def _run(self, backend: str, *, seed: int, horizon: int, devices: int,
             **kwargs):
        probe = Probe()
        result = run(
            controller="dpp",
            seed=seed,
            horizon=horizon,
            scenario_config=repro.ScenarioConfig(num_devices=devices),
            engine_backend=backend,
            keep_records=True,
            tracer=probe,
            **kwargs,
        )
        return result, dict(probe.phases.counters)

    @requires_jit
    def test_small_preset_records_and_counters(self) -> None:
        base, counters_np = self._run("numpy", seed=11, horizon=24, devices=12)
        fast, counters_jit = self._run("jit", seed=11, horizon=24, devices=12)
        assert fingerprint(fast) == fingerprint(base)
        assert_records_identical(base.records, fast.records)
        assert counters_jit == counters_np

    def test_medium_preset_matches_pinned_fingerprint(self) -> None:
        """Paper-scale run hits the committed fingerprint on both backends.

        The NumPy oracle is checked on every machine; the C backend only
        where a compiler provides it.
        """
        backends = ("numpy", "jit") if available_backends()["jit"] else ("numpy",)
        for backend in backends:
            result = run(
                controller="dpp", seed=7, horizon=240, engine_backend=backend
            )
            assert fingerprint(result) == MEDIUM_FINGERPRINT, backend

    @requires_jit
    def test_parity_under_faults_and_chaos(self) -> None:
        """Fault-injected states + chaos-driven fallbacks stay identical."""

        def scenario():
            return repro.make_paper_scenario(
                seed=17,
                config=repro.ScenarioConfig(num_devices=10),
                fault_plan=FaultPlan(
                    faults=(
                        FronthaulDegradation(
                            mtbf_slots=8.0, mttr_slots=4.0, factor=0.4
                        ),
                        PriceFeedDropouts(mtbf_slots=9.0, mttr_slots=3.0),
                        ChannelStaleness(prob=0.2),
                    ),
                    schedule=[
                        ScriptedIncident(at=5, duration=3, kind="price_freeze")
                    ],
                ),
            )

        def chaos_run(backend: str):
            return run(
                scenario=scenario(),
                controller="dpp",
                horizon=20,
                engine_backend=backend,
                keep_records=True,
                resilience=ResiliencePolicy(
                    chaos=SolverChaos(fail_slots=(2, 7))
                ),
            )

        base = chaos_run("numpy")
        fast = chaos_run("jit")
        assert fingerprint(fast) == fingerprint(base)
        assert_records_identical(base.records, fast.records)


class TestBatchedReplication:
    def _spec(self, **overrides) -> ReplicationSpec:
        fields = dict(num_devices=8, horizon=6)
        fields.update(overrides)
        return ReplicationSpec(**fields)

    def _outcome_tuples(self, report):
        # mean_solve_seconds is wall-clock, so it legitimately differs
        # between grouped and per-seed dispatch; everything else is
        # arithmetic and must match bitwise.
        return [
            (o.seed, o.mean_latency, o.mean_cost, o.mean_backlog, o.budget)
            for o in report.outcomes
        ]

    def test_spec_validation(self, monkeypatch) -> None:
        with pytest.raises(ConfigurationError):
            self._spec(batch_seeds=0)
        # get_kernels is the one backend-name check: run_replications
        # resolves the spec's backend before any worker starts.
        def no_worker(*args, **kwargs):
            raise AssertionError("a worker started")

        monkeypatch.setattr(replication, "ResidentWorker", no_worker)
        monkeypatch.setattr(replication, "InProcessWorker", no_worker)
        for processes in (None, 2):
            with pytest.raises(ConfigurationError, match="'cuda'"):
                run_replications(
                    self._spec(engine_backend="cuda"), [1, 2],
                    processes=processes,
                )

    @pytest.mark.parametrize("batch_seeds", (2, 4))
    def test_lockstep_batches_are_bit_identical(self, batch_seeds: int) -> None:
        seeds = [1, 2, 3, 4, 5]
        base = run_replications(self._spec(), seeds)
        batched = run_replications(
            self._spec(batch_seeds=batch_seeds), seeds
        )
        assert batched.failed_seeds == []
        assert self._outcome_tuples(batched) == self._outcome_tuples(base)

    @requires_jit
    def test_jit_batches_match_numpy(self) -> None:
        seeds = [1, 2, 3]
        base = run_replications(self._spec(), seeds)
        batched = run_replications(
            self._spec(batch_seeds=3, engine_backend="jit"), seeds
        )
        assert self._outcome_tuples(batched) == self._outcome_tuples(base)

    def test_failed_lane_is_retried_solo(self, monkeypatch) -> None:
        seeds = [1, 2, 3]
        base = run_replications(self._spec(), seeds)
        original = replication._run_one
        attempts = []

        def flaky_run_one(spec, seed, trace_phases):
            if seed == 2 and not attempts:
                attempts.append(seed)
                raise SolverError("injected transient failure for seed 2")
            return original(spec, seed, trace_phases)

        # The failed seed drops out of its group and is retried solo,
        # which is the exact arithmetic of an ungrouped run.
        monkeypatch.setattr(replication, "_run_one", flaky_run_one)
        flaky = run_replications(
            self._spec(batch_seeds=3), seeds, max_retries=2
        )
        assert flaky.failed_seeds == []
        assert self._outcome_tuples(flaky) == self._outcome_tuples(base)
