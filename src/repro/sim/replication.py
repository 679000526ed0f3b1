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
per seed.  Groups run on the sharded engine's worker handles
(:mod:`repro.sim.shard_runtime`): one
:class:`~repro.sim.shard_runtime.InProcessWorker`, or resident worker
processes that each hold at most one group at a time.  With retry
options a failed seed is retried solo, and a worker that crashes or
runs past its group's deadline is killed and respawned; only the group
it held is charged, and the run ends with a ``failed_seeds`` list.
Without them the first error in seed order propagates.
"""

from __future__ import annotations

import logging
import time
from collections import deque
from dataclasses import dataclass, field, replace
from multiprocessing.connection import wait

import numpy as np

from repro.analysis.aggregate import RunStatistics, summarize_runs
from repro.config import ScenarioConfig, make_paper_scenario
from repro.exceptions import ConfigurationError
from repro.kernels import get_kernels
from repro.obs.probe import Probe, Tracer, as_tracer
from repro.sim.engine import run_simulation
from repro.sim.shard_runtime import InProcessWorker, ResidentWorker, WorkerFailure

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
        batch_seeds: Seeds per dispatched group, the unit of work: a
            group's seeds run one after another in one worker.
            1 (the default) lets :func:`run_replications` size the
            groups from the seed and process counts.  A seed that fails
            inside a group is retried *solo* through the usual retry
            machinery.
        engine_backend: Array-kernel backend (``"numpy"``/``"jit"``) for
            every run's controller; bit-identical across backends.
            ``None`` is the C kernels when they build, else NumPy;
            :func:`run_replications` resolves it once, in the parent.
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
    batch_seeds: int = 1
    engine_backend: str | None = None

    def __post_init__(self) -> None:
        if self.solver not in ("bdma", "dpp", "mcba", "ropt", "greedy", "fixed"):
            raise ConfigurationError(f"unknown solver {self.solver!r}")
        if self.horizon <= 0:
            raise ConfigurationError("horizon must be positive")
        if self.batch_seeds < 1:
            raise ConfigurationError("batch_seeds must be >= 1")


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


def _prepare(spec: ReplicationSpec, seed: int, trace_phases: bool):
    """Scenario and controller for one seed's run.

    Returns ``(scenario, controller, probe)``; ``probe`` is ``None``
    unless *trace_phases*.
    """
    from repro.api import make_controller

    scenario = make_paper_scenario(
        seed=seed,
        config=ScenarioConfig(
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
    result = run_simulation(
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
    per seed.  Never raises for a seed's failure.  Seed runtimes look
    it up at call time, so a patched module global reaches forked
    workers.
    """
    entries = []
    for seed in seeds:
        try:
            entries.append((seed, _run_one(spec, seed, trace_phases), None))
        except Exception as exc:
            entries.append((seed, None, exc))
    return entries


class _SeedRuntime:
    """A worker's replication runtime: the spec and the tracing mode,
    shipped once in the init payload, and the one ``seeds`` command."""

    def __init__(self, payload: dict) -> None:
        self.spec: ReplicationSpec = payload["spec"]
        self.trace_phases: bool = payload["trace_phases"]

    def run_seeds(self, seeds: "tuple[int, ...]"):
        return _run_batch(self.spec, seeds, self.trace_phases)

    def close(self) -> None:
        pass


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


def _dispatch(
    spec: ReplicationSpec,
    groups: "list[tuple[int, ...]]",
    *,
    processes: "int | None",
    trace_phases: bool,
    timeout_seconds: "float | None",
    tracker: "_SeedTracker | None",
) -> dict[int, ReplicationOutcome]:
    """Run seed groups on worker handles; salvage failures.

    One :class:`~repro.sim.shard_runtime.InProcessWorker` runs the
    groups in order, or ``min(processes, len(groups))`` resident
    workers each hold one group and the next group goes to the first
    that replies.  A failed seed is retried solo while *tracker* grants
    attempts.  A worker that dies, or whose group is still running
    *timeout_seconds* after its dispatch, is killed and respawned, and
    only its group is charged.  With no tracker nothing is dispatched
    after an error, and once the busy workers reply the first error in
    seed order is raised.
    """
    pooled = processes is not None and processes > 1
    payload = {"runtime": _SeedRuntime, "spec": spec, "trace_phases": trace_phases}
    results: dict[int, ReplicationOutcome] = {}
    errors: "dict[int, Exception]" = {}  # group position -> first error
    pending = deque(enumerate(groups))
    busy: dict = {}  # worker -> (group position, group, deadline)
    workers: "list[ResidentWorker | InProcessWorker]" = []

    def settle(position: int, entries) -> None:
        for seed, outcome, error in entries:
            if error is None:
                results[seed] = outcome
            elif tracker is None:
                errors[position] = error
                return
            elif tracker.note_failure(seed, error):
                pending.append((position, (seed,)))

    try:
        for w in range(min(processes, len(groups)) if pooled else 1):
            handle = ResidentWorker if pooled else InProcessWorker
            workers.append(handle(w, [], payload))
        idle = deque(workers)
        while True:
            while pending and idle and not errors:
                worker = idle.popleft()
                position, group = pending.popleft()
                deadline = (
                    None
                    if timeout_seconds is None
                    else time.monotonic() + timeout_seconds
                )
                busy[worker] = (position, group, deadline)
                try:
                    worker.send("seeds", group)
                except WorkerFailure:
                    pass  # the dead worker's pipe reads EOF below
            if not busy:
                break
            if pooled:
                deadlines = [d for _, _, d in busy.values() if d is not None]
                ready = wait(
                    [worker.conn for worker in busy],
                    min(deadlines) - time.monotonic() if deadlines else None,
                )
            now = time.monotonic()
            for worker, (position, group, deadline) in list(busy.items()):
                error = None
                if not pooled or worker.conn in ready:
                    try:
                        entries = worker.recv()
                    except WorkerFailure as exc:
                        error = WorkerFailure(f"seeds {list(group)}: {exc}")
                elif deadline is not None and now >= deadline:
                    error = TimeoutError(f"timed out after {timeout_seconds}s")
                else:
                    continue
                if error is not None:
                    worker.respawn()
                    entries = [(seed, None, error) for seed in group]
                    if tracker is not None and tracker.tracer.enabled:
                        tracker.tracer.event(
                            "replication.worker_rebuilt",
                            {"worker": worker.index, "seeds": list(group)},
                        )
                del busy[worker]
                idle.append(worker)
                settle(position, entries)
        if errors:
            raise errors[min(errors)]
    except BaseException:
        if pooled:
            for worker in workers:
                worker.kill()
        raise
    for worker in workers:
        worker.stop()
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
            process once, in its init payload, rather than pickled into
            every seed group, with its backend resolved here first (an
            unknown name raises before any worker starts).
        seeds: Root seeds; each yields an independent topology and
            state stream.
        processes: Resident worker processes, each holding at most one
            seed group at a time; ``None`` or 1 runs in-process (no
            pickling, easier debugging).  Without retry options the
            workers receive groups of ``min(8, ceil(len(seeds) /
            processes))`` seeds (``spec.batch_seeds`` when above 1), so
            they round-trip groups instead of single seeds; the
            ordering of the outcomes is unaffected.
        tracer: Observability tracer.  Each run (worker) records into
            its own probe; the per-phase aggregations are merged into
            *tracer* when it is a :class:`repro.obs.Probe`, so the
            parent sees one profile across all seeds.  Retry and
            seed-failure events land here too.
        timeout_seconds: Per-group wall-clock deadline of a resident
            worker, counted from the group's dispatch; blowing it burns
            one attempt for every seed of the group and kills and
            respawns that worker only.  A worker that dies is handled
            the same way.  Groups are single seeds unless
            ``spec.batch_seeds > 1``.  ``None`` disables the watchdog;
            in-process runs have none.
        max_retries: Extra attempts per seed after its first failure.
            With the default 0 and no timeout, the first error in seed
            order propagates: a seed's own error unchanged, a dead
            worker's as a :class:`~repro.sim.shard_runtime.WorkerFailure`
            naming the seeds of the group it held.  Tests inject
            failures by patching ``_run_one``; there is no injection
            knob.
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
    # Workers run the backend the parent resolved; they never guess.
    spec = replace(spec, engine_backend=get_kernels(spec.engine_backend).name)
    if max_retries < 0:
        raise ConfigurationError("max_retries must be >= 0")
    if timeout_seconds is not None and timeout_seconds <= 0.0:
        raise ConfigurationError("timeout_seconds must be positive")
    trace_phases = tracer is not None and tracer.enabled
    salvage = timeout_seconds is not None or max_retries > 0
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
