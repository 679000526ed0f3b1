"""Tests for repeated-seed replication."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, SolverError
from repro.obs import Probe
from repro.sim import replication as replication_mod
from repro.sim.replication import ReplicationSpec, run_replications
from repro.sim.shard_runtime import WorkerFailure

SMALL_NETWORK = (
    ("num_base_stations", 3),
    ("num_clusters", 2),
    ("servers_per_cluster", 2),
    ("num_macro_stations", 1),
)


def small_spec(**overrides) -> ReplicationSpec:
    fields = dict(
        num_devices=8,
        horizon=6,
        z=1,
        network_overrides=SMALL_NETWORK,
    )
    fields.update(overrides)
    return ReplicationSpec(**fields)


def run_one(spec: ReplicationSpec, seed: int):
    return run_replications(spec, [seed]).outcomes[0]


def inject(monkeypatch, *, fail=(), flaky=(), crash=(), slow=()):
    """Patch ``_run_one``: seeds in *fail* always raise, seeds in
    *flaky* raise on their first attempt in each process, seeds in
    *crash* kill their worker process, and seeds in *slow* sleep 0.5 s
    first.  Resident workers fork after the patch, so they inherit it."""
    import os
    import time

    original = replication_mod._run_one
    attempts: dict[int, int] = {}

    def injected(spec, seed, trace_phases):
        if seed in slow:
            time.sleep(0.5)
        if seed in crash:
            os._exit(3)
        if seed in fail:
            raise SolverError(f"injected failure for seed {seed}")
        if seed in flaky:
            attempts[seed] = attempts.get(seed, 0) + 1
            if attempts[seed] == 1:
                raise SolverError(f"injected transient failure for seed {seed}")
        return original(spec, seed, trace_phases)

    monkeypatch.setattr(replication_mod, "_run_one", injected)


class TestSpec:
    def test_validation(self) -> None:
        with pytest.raises(ConfigurationError):
            ReplicationSpec(solver="gurobi")
        with pytest.raises(ConfigurationError):
            ReplicationSpec(horizon=0)

    def test_spec_is_hashable_and_picklable(self) -> None:
        import pickle

        spec = small_spec()
        assert hash(spec)
        assert pickle.loads(pickle.dumps(spec)) == spec


class TestExecution:
    def test_single_replication_outcome(self) -> None:
        outcome = run_one(small_spec(), 3)
        assert outcome.seed == 3
        assert outcome.mean_latency > 0.0
        assert outcome.mean_cost > 0.0
        assert outcome.budget > 0.0

    def test_deterministic_per_seed(self) -> None:
        a = run_one(small_spec(), 5)
        b = run_one(small_spec(), 5)
        assert a.mean_latency == pytest.approx(b.mean_latency)
        assert a.mean_cost == pytest.approx(b.mean_cost)

    def test_solvers_run(self) -> None:
        for solver in ("bdma", "ropt", "mcba"):
            outcome = run_one(small_spec(solver=solver), 1)
            assert np.isfinite(outcome.mean_latency)


class TestAggregation:
    def test_sequential_report(self) -> None:
        report = run_replications(small_spec(), seeds=(0, 1, 2))
        assert len(report.outcomes) == 3
        assert report.latency is not None
        assert report.latency.num_runs == 3
        assert report.latency.ci_low <= report.latency.mean <= report.latency.ci_high
        assert 0.0 <= report.budget_satisfaction_rate() <= 1.0

    def test_parallel_matches_sequential(self) -> None:
        seeds = (0, 1)
        sequential = run_replications(small_spec(), seeds=seeds)
        parallel = run_replications(small_spec(), seeds=seeds, processes=2)
        for a, b in zip(sequential.outcomes, parallel.outcomes):
            assert a.seed == b.seed
            assert a.mean_latency == pytest.approx(b.mean_latency)

    def test_empty_seeds_rejected(self) -> None:
        with pytest.raises(ConfigurationError):
            run_replications(small_spec(), seeds=())

    def test_bdma_beats_ropt_across_seeds(self) -> None:
        seeds = (0, 1, 2)
        bdma = run_replications(small_spec(horizon=12), seeds=seeds)
        ropt = run_replications(
            small_spec(horizon=12, solver="ropt"), seeds=seeds
        )
        assert bdma.latency is not None and ropt.latency is not None
        assert bdma.latency.mean < ropt.latency.mean


class ListSink:
    def __init__(self) -> None:
        self.items: list[dict] = []

    def emit(self, event: dict) -> None:
        self.items.append(event)

    def close(self) -> None:
        pass

    def events(self, name: str) -> list[dict]:
        return [
            e["data"]
            for e in self.items
            if e["kind"] == "event" and e["name"] == name
        ]

    def counter(self, name: str) -> float:
        return sum(
            e["value"]
            for e in self.items
            if e["kind"] == "counter" and e["name"] == name
        )


class TestFailureSalvage:
    def test_crashing_seed_lands_in_failed_seeds(self, monkeypatch) -> None:
        inject(monkeypatch, fail=(2,))
        sink = ListSink()
        report = run_replications(
            small_spec(),
            seeds=(1, 2, 3),
            max_retries=1,
            retry_backoff_seconds=0.0,
            tracer=Probe([sink]),
        )
        assert report.failed_seeds == [2]
        assert [o.seed for o in report.outcomes] == [1, 3]
        assert report.latency is not None and report.latency.num_runs == 2
        # One retry was attempted and recorded before giving up.
        retries = sink.events("replication.retry")
        assert [r["seed"] for r in retries] == [2]
        failed = sink.events("replication.seed_failed")
        assert failed == [
            {"seed": 2, "attempts": 2, "error": failed[0]["error"]}
        ]
        assert "injected failure" in failed[0]["error"]
        assert sink.counter("resilience.retries") == 1
        assert sink.counter("resilience.seed_failures") == 1

    def test_parallel_pool_salvages_around_a_crashing_seed(
        self, monkeypatch
    ) -> None:
        inject(monkeypatch, fail=(2,))
        report = run_replications(
            small_spec(),
            seeds=(1, 2, 3),
            processes=2,
            timeout_seconds=60.0,
            max_retries=0,
            retry_backoff_seconds=0.0,
        )
        assert report.failed_seeds == [2]
        assert [o.seed for o in report.outcomes] == [1, 3]

    def test_flaky_seed_succeeds_on_retry(self, monkeypatch) -> None:
        inject(monkeypatch, flaky=(5,))
        sink = ListSink()
        report = run_replications(
            small_spec(),
            seeds=(4, 5),
            max_retries=2,
            retry_backoff_seconds=0.0,
            tracer=Probe([sink]),
        )
        assert report.failed_seeds == []
        assert [o.seed for o in report.outcomes] == [4, 5]
        assert [r["attempt"] for r in sink.events("replication.retry")] == [1]
        assert sink.events("replication.seed_failed") == []

    def test_all_seeds_failing_yields_an_empty_report(
        self, monkeypatch
    ) -> None:
        inject(monkeypatch, fail=(1, 2))
        report = run_replications(
            small_spec(),
            seeds=(1, 2),
            timeout_seconds=60.0,
            max_retries=0,
            retry_backoff_seconds=0.0,
        )
        assert report.outcomes == []
        assert report.failed_seeds == [1, 2]
        assert report.budget == 0.0
        assert report.latency is None and report.cost is None
        assert report.budget_satisfaction_rate() == 0.0
        with pytest.raises(ConfigurationError, match="all 2 seeds failed"):
            report.summary()

    def test_summary_counts_failed_runs(self, monkeypatch) -> None:
        inject(monkeypatch, fail=(9,))
        report = run_replications(
            small_spec(),
            seeds=(1, 9),
            timeout_seconds=60.0,
            max_retries=0,
            retry_backoff_seconds=0.0,
        )
        summary = report.summary()
        assert summary.runs == 1
        assert summary.failed_runs == 1
        assert summary.to_dict()["failed_runs"] == 1

    def test_retry_knob_validation(self) -> None:
        with pytest.raises(ConfigurationError):
            run_replications(small_spec(), seeds=(0,), max_retries=-1)
        with pytest.raises(ConfigurationError):
            run_replications(small_spec(), seeds=(0,), timeout_seconds=0.0)
        with pytest.raises(TypeError, match="chunksize"):
            run_replications(small_spec(), seeds=(0,), chunksize=2)

    def test_hung_seed_worker_is_killed(self, monkeypatch) -> None:
        import multiprocessing
        import time

        original = replication_mod._run_one

        def hanging(spec, seed, trace_phases):
            if seed == 2:
                time.sleep(60.0)
            return original(spec, seed, trace_phases)

        # Pool workers fork after the patch, so they inherit it.
        monkeypatch.setattr(replication_mod, "_run_one", hanging)
        sink = ListSink()
        started = time.monotonic()
        report = run_replications(
            small_spec(),
            seeds=(1, 2, 3),
            processes=2,
            timeout_seconds=3.0,
            retry_backoff_seconds=0.0,
            tracer=Probe([sink]),
        )
        assert time.monotonic() - started < 30.0
        assert report.failed_seeds == [2]
        assert [o.seed for o in report.outcomes] == [1, 3]
        # The hung worker was killed, not left running past the run.
        assert multiprocessing.active_children() == []
        failed = sink.events("replication.seed_failed")
        assert [f["seed"] for f in failed] == [2]
        assert "timed out after 3.0s" in failed[0]["error"]

    def test_crashed_worker_charges_only_its_seeds(self, monkeypatch) -> None:
        import multiprocessing

        # Seed 1 is still running when seed 2 kills its worker.
        inject(monkeypatch, crash=(2,), slow=(1,))
        sink = ListSink()
        report = run_replications(
            small_spec(),
            seeds=(1, 2, 3, 4),
            processes=2,
            max_retries=1,
            retry_backoff_seconds=0.0,
            tracer=Probe([sink]),
        )
        assert report.failed_seeds == [2]
        assert [o.seed for o in report.outcomes] == [1, 3, 4]
        assert [r["seed"] for r in sink.events("replication.retry")] == [2]
        rebuilt = sink.events("replication.worker_rebuilt")
        assert [r["seeds"] for r in rebuilt] == [[2], [2]]
        assert multiprocessing.active_children() == []

    def test_crashed_worker_error_names_its_seeds(self, monkeypatch) -> None:
        import multiprocessing

        inject(monkeypatch, crash=(2,), slow=(1,))
        # Without retry options the seeds run in groups (1, 2) and
        # (3, 4); the dead worker's error names the group it held.
        with pytest.raises(
            WorkerFailure, match=r"seeds \[1, 2\]: worker \d died"
        ):
            run_replications(small_spec(), seeds=(1, 2, 3, 4), processes=2)
        assert multiprocessing.active_children() == []

    def test_resilient_path_matches_plain_outcomes(self) -> None:
        seeds = (0, 1)
        plain = run_replications(small_spec(), seeds=seeds)
        resilient = run_replications(
            small_spec(), seeds=seeds, max_retries=1,
            retry_backoff_seconds=0.0,
        )
        for a, b in zip(plain.outcomes, resilient.outcomes):
            assert a.seed == b.seed
            assert a.mean_latency == pytest.approx(b.mean_latency)


def outcome_tuples(report) -> list[tuple]:
    # mean_solve_seconds is wall-clock; everything else is arithmetic
    # and must match bitwise across dispatch modes.
    return [
        (o.seed, o.mean_latency, o.mean_cost, o.mean_backlog, o.budget)
        for o in report.outcomes
    ]


MATRIX_SEEDS = (1, 2, 3, 4)


@pytest.fixture(scope="module")
def sequential_baseline() -> list[tuple]:
    return outcome_tuples(run_replications(small_spec(), seeds=MATRIX_SEEDS))


@pytest.mark.parametrize("batch_seeds", (1, 3))
@pytest.mark.parametrize("processes", (None, 2))
class TestDispatchMatrix:
    """Every (in-process | pooled) x (per-seed | batched) dispatch mode
    lands on the sequential unbatched outcomes, salvages the same way,
    and fails fast the same way."""

    def test_outcomes_bit_identical(
        self, processes, batch_seeds, sequential_baseline
    ) -> None:
        report = run_replications(
            small_spec(batch_seeds=batch_seeds),
            seeds=MATRIX_SEEDS,
            processes=processes,
        )
        assert report.failed_seeds == []
        assert outcome_tuples(report) == sequential_baseline

    def test_failed_seed_is_salvaged(
        self, processes, batch_seeds, sequential_baseline, monkeypatch
    ) -> None:
        inject(monkeypatch, fail=(2,))
        report = run_replications(
            small_spec(batch_seeds=batch_seeds),
            seeds=MATRIX_SEEDS,
            processes=processes,
            timeout_seconds=60.0,
            max_retries=0,
            retry_backoff_seconds=0.0,
        )
        assert report.failed_seeds == [2]
        assert outcome_tuples(report) == [
            row for row in sequential_baseline if row[0] != 2
        ]

    def test_first_error_raises_without_retry_options(
        self, processes, batch_seeds, monkeypatch
    ) -> None:
        import repro
        from repro.exceptions import SolverError

        original = repro.make_paper_scenario

        def failing(seed, *args, **kwargs):
            if seed == 3:
                raise SolverError("scenario construction failed for seed 3")
            return original(seed, *args, **kwargs)

        # Resident workers fork after the patch, so they inherit it.
        monkeypatch.setattr(repro, "make_paper_scenario", failing)
        with pytest.raises(SolverError, match="seed 3"):
            run_replications(
                small_spec(batch_seeds=batch_seeds),
                seeds=MATRIX_SEEDS,
                processes=processes,
            )
