"""Repeated-seed replication of simulation runs.

Single simulation runs are noisy; claims in the paper are about
averages.  :func:`run_replications` executes the same experimental
configuration under several root seeds -- optionally across processes --
and aggregates the headline metrics with bootstrap confidence
intervals.

The configuration is a :class:`ReplicationSpec`: a plain, picklable
description (scenario knobs + controller knobs) from which each worker
rebuilds everything.  This is what makes multiprocessing safe -- no
controller or network objects ever cross process boundaries.

There is one dispatch loop.  The unit of work is a tuple of seeds, run
one after another, and it returns one ``(seed, outcome, error)`` entry
per seed.  Groups run in-process or on a single process pool; with retry
options a failed seed is retried solo, a hung or crashed group's pool
has its workers killed and is rebuilt, and the run ends with a
``failed_seeds`` list.  Without them the first error in seed order
propagates unchanged.
"""

from __future__ import annotations

import logging
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field

import numpy as np

import repro
from repro.analysis.aggregate import RunStatistics, summarize_runs
from repro.exceptions import ConfigurationError, SolverError
from repro.kernels import BACKEND_NAMES
from repro.obs.probe import Probe, Tracer, as_tracer

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ReplicationSpec:
    """A picklable description of one simulation configuration.

    Attributes:
        num_devices: Devices ``I``.
        horizon: Slots per run.
        v: DPP parameter ``V``.
        z: BDMA alternation rounds.
        solver: A controller name understood by
            :func:`repro.api.make_controller` (``"bdma"``/``"dpp"``,
            ``"mcba"``, ``"ropt"``, ``"greedy"``, or ``"fixed"``).
        workload: ``"uniform"`` or ``"diurnal"``.
        budget_fraction: Budget position in the feasible range.
        warm_start_queue: Start the queue at its estimated equilibrium.
        network_overrides: Extra :class:`~repro.network.builder.NetworkBuilder`
            fields (must be picklable).
        fail_seeds: Seeds whose runs always raise (failure injection for
            testing the retry/salvage machinery; never use in real
            experiments).
        flaky_seeds: Seeds whose runs fail on their first attempt in
            each process and succeed on retry (transient-failure
            injection).
        batch_seeds: Seeds per dispatched group, the pool's unit of
            work: a group's seeds run one after another in one worker.
            1 (the default) lets :func:`run_replications` size the
            groups from the seed and process counts.  A seed that fails
            inside a group is retried *solo* through the usual retry
            machinery.
        engine_backend: Array-kernel backend (``"numpy"``/``"jit"``) for
            every run's controller; bit-identical across backends.
    """

    num_devices: int = 30
    horizon: int = 96
    v: float = 100.0
    z: int = 3
    solver: str = "bdma"
    workload: str = "uniform"
    budget_fraction: float = 0.5
    warm_start_queue: bool = False
    network_overrides: tuple[tuple[str, object], ...] = ()
    fail_seeds: tuple[int, ...] = ()
    flaky_seeds: tuple[int, ...] = ()
    batch_seeds: int = 1
    engine_backend: str = "numpy"

    def __post_init__(self) -> None:
        if self.solver not in ("bdma", "dpp", "mcba", "ropt", "greedy", "fixed"):
            raise ConfigurationError(f"unknown solver {self.solver!r}")
        if self.horizon <= 0:
            raise ConfigurationError("horizon must be positive")
        if self.batch_seeds < 1:
            raise ConfigurationError("batch_seeds must be >= 1")
        if self.engine_backend not in BACKEND_NAMES:
            raise ConfigurationError(
                f"unknown engine backend {self.engine_backend!r}"
            )


@dataclass(frozen=True)
class ReplicationOutcome:
    """Headline metrics of one seed's run.

    Attributes:
        seed: Root seed of the run.
        mean_latency: Time-average latency.
        mean_cost: Time-average energy cost.
        mean_backlog: Time-average virtual-queue backlog.
        budget: The scenario's budget.
        mean_solve_seconds: Average per-slot decision time.
        phase_state: The worker tracer's aggregated phase state
            (:meth:`repro.obs.PhaseAggregator.state_dict`) when tracing
            was requested; the parent merges these.
    """

    seed: int
    mean_latency: float
    mean_cost: float
    mean_backlog: float
    budget: float
    mean_solve_seconds: float = float("nan")
    phase_state: dict | None = None


@dataclass
class ReplicationReport:
    """Aggregated statistics across seeds.

    Attributes:
        outcomes: Per-seed results for the seeds that *succeeded*, in
            seed order.
        latency: Bootstrap statistics of the time-average latency.
        cost: Bootstrap statistics of the time-average cost.
        budget: The (first successful seed's) budget for reference;
            ``0.0`` when every seed failed.
        failed_seeds: Seeds that produced no outcome after all retry
            attempts (empty on a healthy run).
    """

    outcomes: list[ReplicationOutcome] = field(default_factory=list)
    latency: RunStatistics | None = None
    cost: RunStatistics | None = None
    budget: float = 0.0
    failed_seeds: list[int] = field(default_factory=list)

    def budget_satisfaction_rate(self) -> float:
        """Fraction of *successful* seeds whose realised cost met their
        budget; ``0.0`` when no seed succeeded."""
        if not self.outcomes:
            return 0.0
        hits = sum(
            1 for o in self.outcomes if o.mean_cost <= o.budget * (1 + 1e-9)
        )
        return hits / len(self.outcomes)

    def summary(self) -> "ReplicationSummary":
        """Condense the report into a :class:`ReplicationSummary`.

        Field names deliberately mirror
        :class:`repro.sim.results.SimulationSummary` so both result
        flavours serialise and compare uniformly.

        Raises:
            ConfigurationError: The report has no successful outcomes to
                average (e.g. every seed landed in ``failed_seeds``).
        """
        if not self.outcomes:
            raise ConfigurationError(
                "cannot summarise an empty report"
                + (
                    f" (all {len(self.failed_seeds)} seeds failed)"
                    if self.failed_seeds
                    else ""
                )
            )
        return ReplicationSummary(
            runs=len(self.outcomes),
            failed_runs=len(self.failed_seeds),
            mean_latency=float(np.mean([o.mean_latency for o in self.outcomes])),
            mean_cost=float(np.mean([o.mean_cost for o in self.outcomes])),
            mean_backlog=float(np.mean([o.mean_backlog for o in self.outcomes])),
            budget_satisfied=self.budget_satisfaction_rate() >= 1.0,
            mean_solve_seconds=float(
                np.mean([o.mean_solve_seconds for o in self.outcomes])
            ),
            latency_ci=(
                (self.latency.ci_low, self.latency.ci_high)
                if self.latency is not None
                else None
            ),
            cost_ci=(
                (self.cost.ci_low, self.cost.ci_high)
                if self.cost is not None
                else None
            ),
        )


@dataclass(frozen=True)
class ReplicationSummary:
    """Headline statistics across seeds.

    Shares ``mean_latency`` / ``mean_cost`` / ``mean_backlog`` /
    ``budget_satisfied`` / ``mean_solve_seconds`` field names with
    :class:`repro.sim.results.SimulationSummary`; adds the seed count
    and bootstrap confidence intervals.
    """

    runs: int
    mean_latency: float
    mean_cost: float
    mean_backlog: float
    budget_satisfied: bool | None
    mean_solve_seconds: float
    latency_ci: tuple[float, float] | None = None
    cost_ci: tuple[float, float] | None = None
    failed_runs: int = 0

    def to_dict(self) -> dict:
        """JSON-ready view, uniform with ``SimulationSummary.to_dict``."""
        return {
            "runs": self.runs,
            "failed_runs": self.failed_runs,
            "mean_latency": self.mean_latency,
            "mean_cost": self.mean_cost,
            "mean_backlog": self.mean_backlog,
            "budget_satisfied": self.budget_satisfied,
            "mean_solve_seconds": self.mean_solve_seconds,
            "latency_ci": list(self.latency_ci) if self.latency_ci else None,
            "cost_ci": list(self.cost_ci) if self.cost_ci else None,
        }


def execute_replication(
    args: "tuple[ReplicationSpec, int] | tuple[ReplicationSpec, int, bool]",
) -> ReplicationOutcome:
    """Run one seed of a spec (module-level so it pickles for workers).

    Accepts ``(spec, seed)`` or ``(spec, seed, trace_phases)``; with
    ``trace_phases`` the worker runs under its own
    :class:`~repro.obs.Probe` and ships the aggregated phase state back
    in the outcome (tracers themselves never cross process boundaries).
    """
    spec, seed = args[0], args[1]
    trace_phases = bool(args[2]) if len(args) > 2 else False
    return _run_one(spec, seed, trace_phases)


#: Per-worker replication context installed once by :func:`_init_worker`,
#: so :func:`run_replications` ships the spec with each worker process
#: instead of pickling it into every seed group.
_WORKER_CONTEXT: "tuple[ReplicationSpec, bool] | None" = None


def _init_worker(spec: ReplicationSpec, trace_phases: bool) -> None:
    """Pool initializer: pin the spec and the tracing mode in the worker."""
    global _WORKER_CONTEXT
    _WORKER_CONTEXT = (spec, trace_phases)


#: Per-process attempt counts for ``flaky_seeds`` injection.  Worker
#: processes each get their own copy, so "fails once then succeeds"
#: holds per process -- exactly the transient crash being simulated.
_FLAKY_ATTEMPTS: dict[int, int] = {}


def _prepare(spec: ReplicationSpec, seed: int, trace_phases: bool):
    """Failure injection, scenario and controller for one seed's run.

    Returns ``(scenario, controller, probe)``; ``probe`` is ``None``
    unless *trace_phases*.
    """
    from repro.api import make_controller

    if seed in spec.fail_seeds:
        raise SolverError(f"injected failure for seed {seed}")
    if seed in spec.flaky_seeds:
        _FLAKY_ATTEMPTS[seed] = _FLAKY_ATTEMPTS.get(seed, 0) + 1
        if _FLAKY_ATTEMPTS[seed] == 1:
            raise SolverError(f"injected transient failure for seed {seed}")
    scenario = repro.make_paper_scenario(
        seed=seed,
        config=repro.ScenarioConfig(
            num_devices=spec.num_devices,
            workload=spec.workload,
            budget_fraction=spec.budget_fraction,
        ),
        **dict(spec.network_overrides),
    )
    probe = Probe() if trace_phases else None
    controller = make_controller(
        spec.solver,
        scenario,
        v=spec.v,
        z=spec.z,
        rng_label="replication",
        equilibrium_rng_label="replication-eq",
        warm_start_queue=spec.warm_start_queue,
        tracer=probe,
        engine_backend=spec.engine_backend,
    )
    return scenario, controller, probe


def _condense(
    seed: int, result, budget: float, probe: "Probe | None"
) -> ReplicationOutcome:
    """One run's :class:`~repro.sim.results.SimulationResult` as an outcome."""
    return ReplicationOutcome(
        seed=seed,
        mean_latency=result.time_average_latency(),
        mean_cost=result.time_average_cost(),
        mean_backlog=float(np.mean(result.backlog)),
        budget=budget,
        mean_solve_seconds=result.summary().mean_solve_seconds,
        phase_state=probe.phases.state_dict() if probe is not None else None,
    )


def _run_one(
    spec: ReplicationSpec, seed: int, trace_phases: bool
) -> ReplicationOutcome:
    """Run one seed of a spec and condense its outcome."""
    scenario, controller, probe = _prepare(spec, seed, trace_phases)
    result = repro.run_simulation(
        controller,
        scenario.fresh_compiled_states(spec.horizon, tracer=probe),
        budget=scenario.budget,
        tracer=probe,
    )
    return _condense(seed, result, scenario.budget, probe)


def _run_batch(
    spec: ReplicationSpec, seeds: "list[int] | tuple[int, ...]", trace_phases: bool
) -> "list[tuple[int, ReplicationOutcome | None, Exception | None]]":
    """The unit of work: run a group of seeds one after another.

    Returns one entry per seed, in seed order: ``(seed, outcome, None)``
    on success or ``(seed, None, error)`` on failure, each error caught
    per seed.  Never raises for a seed's failure.  Pool workers look it
    up at call time, so a patched module global reaches forked workers.
    """
    entries = []
    for seed in seeds:
        try:
            entries.append((seed, _run_one(spec, seed, trace_phases), None))
        except Exception as exc:
            entries.append((seed, None, exc))
    return entries


def _execute_group(seeds: "tuple[int, ...]"):
    """Pool worker entry: run one seed group against the pinned context."""
    assert _WORKER_CONTEXT is not None, "worker pool was not initialised"
    spec, trace_phases = _WORKER_CONTEXT
    return _run_batch(spec, seeds, trace_phases)


class _SeedTracker:
    """Retry bookkeeping for :func:`_dispatch`'s salvage mode."""

    def __init__(
        self,
        max_retries: int,
        backoff_seconds: float,
        tracer: Tracer,
    ) -> None:
        self.max_retries = max_retries
        self.backoff_seconds = backoff_seconds
        self.tracer = tracer
        self.attempts: dict[int, int] = {}
        self.failed: list[int] = []

    def note_failure(self, seed: int, error: Exception) -> bool:
        """Record a failed attempt; return ``True`` when *seed* should
        be retried (after the backoff sleep), ``False`` when it is
        permanently failed."""
        self.attempts[seed] = self.attempts.get(seed, 0) + 1
        attempt = self.attempts[seed]
        if attempt <= self.max_retries:
            logger.warning(
                "seed %d failed (attempt %d/%d): %s; retrying",
                seed,
                attempt,
                self.max_retries + 1,
                error,
            )
            if self.tracer.enabled:
                self.tracer.counter("resilience.retries", 1)
                self.tracer.event(
                    "replication.retry",
                    {"seed": seed, "attempt": attempt, "error": str(error)},
                )
            if self.backoff_seconds > 0.0:
                time.sleep(self.backoff_seconds * attempt)
            return True
        logger.error(
            "seed %d failed permanently after %d attempts: %s",
            seed,
            attempt,
            error,
        )
        if self.tracer.enabled:
            self.tracer.counter("resilience.seed_failures", 1)
            self.tracer.event(
                "replication.seed_failed",
                {"seed": seed, "attempts": attempt, "error": str(error)},
            )
        self.failed.append(seed)
        return False


def _discard_pool(pool: ProcessPoolExecutor) -> None:
    """Tear *pool* down and kill its workers.

    ``shutdown`` alone never stops a running task, so a hung seed's
    worker would outlive the run and block interpreter exit.
    """
    processes = list((pool._processes or {}).values())
    kill_workers = getattr(pool, "kill_workers", None)  # Python >= 3.14
    if kill_workers is not None:
        kill_workers()
    else:
        for process in processes:
            process.kill()
    pool.shutdown(wait=False, cancel_futures=True)
    for process in processes:
        process.join(timeout=5.0)


def _dispatch(
    spec: ReplicationSpec,
    groups: "list[tuple[int, ...]]",
    *,
    processes: "int | None",
    trace_phases: bool,
    timeout_seconds: "float | None",
    tracker: "_SeedTracker | None",
) -> dict[int, ReplicationOutcome]:
    """Run seed groups in-process or on one pool; salvage failures.

    Groups are collected in order.  A failed seed is retried solo, as a
    group of one, while *tracker* grants attempts; with no tracker the
    first error in seed order is raised unchanged.  A group timeout or
    a crashed worker (``BrokenProcessPool``) fails every seed of the
    group and poisons the pool: its workers are killed and the rest of
    the round is resubmitted to a fresh pool.  Terminates because every
    round either resolves the first pending group or consumes one of
    its seeds' bounded attempts.
    """
    pooled = processes is not None and processes > 1
    results: dict[int, ReplicationOutcome] = {}
    pending = list(groups)
    pool: "ProcessPoolExecutor | None" = None
    try:
        while pending:
            if pooled and pool is None:
                pool = ProcessPoolExecutor(
                    max_workers=processes,
                    initializer=_init_worker,
                    initargs=(spec, trace_phases),
                )
            futures = (
                [pool.submit(_execute_group, group) for group in pending]
                if pool is not None
                else None
            )
            next_pending: "list[tuple[int, ...]]" = []
            for position, group in enumerate(pending):
                poisoned = False
                try:
                    if futures is None:
                        entries = _run_batch(spec, group, trace_phases)
                    else:
                        entries = futures[position].result(timeout=timeout_seconds)
                except FuturesTimeout:
                    poisoned = True
                    error = TimeoutError(f"timed out after {timeout_seconds}s")
                    entries = [(seed, None, error) for seed in group]
                except BrokenProcessPool as exc:
                    poisoned = True
                    entries = [(seed, None, exc) for seed in group]
                except Exception as exc:  # the group failed as a whole
                    entries = [(seed, None, exc) for seed in group]
                for seed, outcome, error in entries:
                    if error is None:
                        results[seed] = outcome
                    elif tracker is None:
                        raise error
                    elif tracker.note_failure(seed, error):
                        next_pending.append((seed,))
                if poisoned:
                    next_pending.extend(pending[position + 1 :])
                    _discard_pool(pool)
                    pool = None
                    if tracker.tracer.enabled:
                        tracker.tracer.event(
                            "replication.pool_rebuilt",
                            {"pending": sum(len(g) for g in next_pending)},
                        )
                    break
            pending = next_pending
    except BaseException:
        if pool is not None:
            _discard_pool(pool)
        raise
    if pool is not None:
        pool.shutdown()
    return results


def run_replications(
    spec: ReplicationSpec,
    seeds: tuple[int, ...] | list[int],
    *,
    processes: int | None = None,
    tracer: "Tracer | None" = None,
    timeout_seconds: float | None = None,
    max_retries: int = 0,
    retry_backoff_seconds: float = 0.25,
) -> ReplicationReport:
    """Run *spec* under every seed and aggregate.

    Args:
        spec: The configuration to replicate.  Shipped to each worker
            process once, through the pool initializer, rather than
            pickled into every seed group.
        seeds: Root seeds; each yields an independent topology and
            state stream.
        processes: Worker processes; ``None`` or 1 runs in-process
            (no pickling, easier debugging).  Without retry options the
            pool receives groups of ``min(8, ceil(len(seeds) /
            processes))`` seeds (``spec.batch_seeds`` when above 1), so
            it round-trips groups instead of single seeds; the ordering
            of the outcomes is unaffected.
        tracer: Observability tracer.  Each run (worker) records into
            its own probe; the per-phase aggregations are merged into
            *tracer* when it is a :class:`repro.obs.Probe`, so the
            parent sees one profile across all seeds.  Retry and
            seed-failure events land here too.
        timeout_seconds: Per-group wall-clock deadline for collecting a
            pooled result; blowing it burns one attempt for every seed
            of the group, kills the pool's workers and rebuilds the
            pool.  Groups are single seeds unless ``spec.batch_seeds >
            1``.  ``None`` disables the watchdog.
        max_retries: Extra attempts per seed after its first failure.
            With the default 0, no timeout and no injection knobs, the
            first failing seed's error propagates unchanged.
        retry_backoff_seconds: Base sleep before attempt ``n``'s retry
            (linear backoff: ``base * n``).

    Returns:
        A :class:`ReplicationReport` with per-seed outcomes, bootstrap
        statistics of the headline metrics, and ``failed_seeds`` for
        any seed that never produced an outcome.  All seeds failing
        yields an empty report (``summary()`` then raises), not an
        exception here.
    """
    seeds = list(seeds)
    if not seeds:
        raise ConfigurationError("need at least one seed")
    if max_retries < 0:
        raise ConfigurationError("max_retries must be >= 0")
    if timeout_seconds is not None and timeout_seconds <= 0.0:
        raise ConfigurationError("timeout_seconds must be positive")
    trace_phases = tracer is not None and tracer.enabled
    salvage = (
        timeout_seconds is not None
        or max_retries > 0
        or bool(spec.fail_seeds)
        or bool(spec.flaky_seeds)
    )
    tracker = (
        _SeedTracker(max_retries, retry_backoff_seconds, as_tracer(tracer))
        if salvage
        else None
    )
    if spec.batch_seeds > 1:
        size = spec.batch_seeds
    elif salvage or processes is None or processes <= 1:
        size = 1  # per-seed timeouts and retries
    else:
        size = min(8, -(-len(seeds) // processes))
    results = _dispatch(
        spec,
        [tuple(seeds[i : i + size]) for i in range(0, len(seeds), size)],
        processes=processes,
        trace_phases=trace_phases,
        timeout_seconds=timeout_seconds,
        tracker=tracker,
    )
    outcomes = [results[s] for s in seeds if s in results]
    if isinstance(tracer, Probe):
        for outcome in outcomes:
            tracer.merge_phase_state(outcome.phase_state, order=(outcome.seed,))

    report = ReplicationReport(
        outcomes=outcomes,
        budget=outcomes[0].budget if outcomes else 0.0,
        failed_seeds=sorted(tracker.failed) if tracker is not None else [],
    )
    if outcomes:
        report.latency = summarize_runs(
            np.array([o.mean_latency for o in outcomes])
        )
        report.cost = summarize_runs(np.array([o.mean_cost for o in outcomes]))
    return report
