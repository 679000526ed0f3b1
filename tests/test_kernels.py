"""Cross-backend parity: jit kernels must be bit-identical to NumPy.

The kernel contract (:mod:`repro.kernels.interface`) promises that
selecting ``backend="jit"`` changes wall-clock, never results.  These
tests enforce it end to end: slot-record streams, trajectory
fingerprints, engine counters and grouped replication must all match
the NumPy oracle bit for bit --
including under injected faults and chaos, where the resilience
fallback chain runs on top of the kernels.

Tests that exercise the real jit provider (the C kernels) are skipped
when no C compiler is available (``available_backends()["jit"]`` is
then ``False`` and ``jit`` would silently alias the oracle).
"""

from __future__ import annotations

import ctypes
import sys
import threading

import numpy as np
import pytest

import repro
from repro.api import run
from repro.core.resilience import ResiliencePolicy, SolverChaos
from repro.exceptions import ConfigurationError, SolverError
from repro.kernels import (
    BACKEND_NAMES,
    KernelBackend,
    available_backends,
    get_kernels,
    jit_provider,
)
from repro.kernels._adapt import wrap_raw_backend
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
from repro.solvers.scalar import minimize_convex_scalar_batch

from conftest import MEDIUM_FINGERPRINT, fingerprint

requires_jit = pytest.mark.skipif(
    not available_backends()["jit"],
    reason="backend 'jit' has no real provider (needs a C compiler)",
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

    def test_resolved_backends_pass_through_and_cache(self) -> None:
        numpy_kernels = get_kernels("numpy")
        assert get_kernels("numpy") is numpy_kernels
        assert get_kernels(numpy_kernels) is numpy_kernels
        assert get_kernels(None).name == "numpy"
        assert isinstance(numpy_kernels, KernelBackend)

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
    """The native golden-section kernel vs the NumPy batch search."""

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

    @pytest.mark.parametrize("seed", (0, 1, 2))
    def test_bit_identical_to_numpy_batch_search(self, seed: int) -> None:
        lo, hi, ls, ep, scale, qa, qb, qc = self._lanes(64, seed)
        tol = 1e-8

        def objective(freq):
            return ls / freq + ep * (scale * (qa * freq * freq + qb * freq + qc))

        reference = minimize_convex_scalar_batch(objective, lo, hi, tol=tol)
        x, evals = get_kernels("jit").golden_quad(
            lo, hi, ls, ep, scale, qa, qb, qc, tol
        )
        np.testing.assert_array_equal(x, reference.x)
        np.testing.assert_array_equal(evals, reference.iterations)

    def test_degenerate_lane_counts_one_eval(self) -> None:
        lo, hi, ls, ep, scale, qa, qb, qc = self._lanes(4, 3)
        hi[2] = lo[2]  # pinned bracket: hi == lo

        def objective(freq):
            return ls / freq + ep * (scale * (qa * freq * freq + qb * freq + qc))

        reference = minimize_convex_scalar_batch(objective, lo, hi, tol=1e-8)
        x, evals = get_kernels("jit").golden_quad(
            lo, hi, ls, ep, scale, qa, qb, qc, 1e-8
        )
        assert evals[2] == 1 == reference.iterations[2]
        assert x[2] == lo[2]
        np.testing.assert_array_equal(x, reference.x)
        np.testing.assert_array_equal(evals, reference.iterations)

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

    def test_spec_validation(self) -> None:
        with pytest.raises(ConfigurationError):
            self._spec(batch_seeds=0)
        with pytest.raises(ConfigurationError):
            self._spec(engine_backend="cuda")

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
