"""The benchmark's workloads: how each is set up, run, and fingerprinted.

Every workload is a closed loop: each slot starts only after the
previous slot's queue update, and the simulator runs flat out.  Reasons
for each choice are in ``BENCHMARK.json`` and ``README.md``.

Seeds.  ``seed_offset`` (``perf.py run --seed N``) redraws every per-slot
random stream -- task sizes, channels, prices, fault chains, solver
chaos -- from the workload's default seed plus ``N``.  The deployment
(topology and cell plan) stays the one drawn from the default seed:
topologies differ so much in difficulty that a fresh one per seed would
swamp the change under test, while a fresh traffic realisation on the
same deployment re-checks a claim on inputs it was not tuned on.  The
replication workload is the exception by construction -- each of its
seeds *is* a topology -- so ``N`` slides its 64-seed window instead.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
from dataclasses import dataclass, field

import numpy as np

import repro
from repro import sharding
from repro.api import run
from repro.core.resilience import ResiliencePolicy, SolverChaos
from repro.obs.telemetry import MetricsRegistry
from repro.sim.faults import (
    BaseStationOutages,
    FaultPlan,
    FronthaulDegradation,
    MarkovOutages,
    PriceFeedDropouts,
    ServerOutages,
)
from repro.sim.replication import ReplicationSpec, run_replications
from repro.sim.seeding import SeedBank

#: Kernel backend of every workload (resolves to the C kernels when
#: numba is absent).
BACKEND = "jit"

#: Worker processes of every pooled workload: the machine's two cores.
PROCESSES = 2


@dataclass(frozen=True)
class Workload:
    """One named set of inputs.

    ``horizon`` is the slot count of one timed repeat; ``smoke_horizon``
    the count ``--smoke`` uses.  ``topology`` holds
    :func:`repro.make_paper_scenario` network overrides.
    """

    name: str
    kind: str  # "single", "sharded" or "replicate"
    seed: int
    horizon: int
    smoke_horizon: int
    devices: "int | None" = None
    topology: tuple = ()
    cells: int = 1
    epoch: int = 1
    partition_restarts: int = 8
    observability: bool = False
    faults: bool = False
    seeds: int = 0
    smoke_seeds: int = 0


def _metro(base_stations: int, clusters: int, servers: int) -> tuple:
    return (
        ("num_base_stations", base_stations),
        ("num_macro_stations", base_stations),
        ("wireless_fronthaul_fraction", 1.0),
        ("num_clusters", clusters),
        ("servers_per_cluster", servers),
    )


WORKLOADS = {
    w.name: w
    for w in (
        # The paper-default scenario, unsharded, no observability.
        Workload("paper-medium", "single", seed=7, horizon=1200, smoke_horizon=24),
        Workload(
            "metro-1024x8",
            "sharded",
            seed=7,
            horizon=150,
            smoke_horizon=8,
            devices=1024,
            topology=_metro(8, 8, 2),
            cells=8,
            observability=True,
        ),
        Workload(
            "giant-102k",
            "sharded",
            seed=11,
            horizon=16,
            smoke_horizon=2,
            devices=102_400,
            topology=_metro(128, 128, 1),
            cells=128,
            partition_restarts=2,
        ),
        Workload(
            "faulted-512x4",
            "sharded",
            seed=5,
            horizon=480,
            smoke_horizon=16,
            devices=512,
            topology=_metro(8, 4, 2),
            cells=4,
            epoch=8,
            faults=True,
        ),
        Workload(
            "replicate-64",
            "replicate",
            seed=0,
            horizon=60,
            smoke_horizon=8,
            devices=30,
            seeds=64,
            smoke_seeds=8,
        ),
    )
}

#: Share of slots whose primary solver ``faulted-512x4`` fails on purpose.
CHAOS_RATE = 0.1


def _fault_plan() -> FaultPlan:
    return FaultPlan(
        faults=(
            ServerOutages(MarkovOutages(mtbf_slots=40.0, mttr_slots=3.0)),
            BaseStationOutages(mtbf_slots=60.0, mttr_slots=2.0),
            FronthaulDegradation(mtbf_slots=30.0, mttr_slots=5.0, factor=0.3),
            PriceFeedDropouts(mtbf_slots=25.0, mttr_slots=3.0),
        )
    )


@dataclass
class Prepared:
    """A workload's inputs, built and ready to run."""

    workload: Workload
    horizon: int
    stream_seed: int
    scenario: object = None
    plan: object = None
    spec: "ReplicationSpec | None" = None
    seeds: list = field(default_factory=list)


def unit_slots(w: Workload, *, smoke: bool) -> int:
    """Slots one repeat of *w* simulates (summed over replication seeds)."""
    if smoke:
        return w.smoke_horizon * max(1, w.smoke_seeds)
    return w.horizon * max(1, w.seeds)


@dataclass
class Outcome:
    """What one run produced, reduced to what the benchmark checks."""

    fingerprint: str
    latency: float
    budget_ratio: float
    problems: list = field(default_factory=list)
    #: Per-seed mean slot decision time (ms); replication only, where
    #: no per-slot hook reaches the pooled workers.
    steps_ms: list = field(default_factory=list)
    failed_seeds: int = 0


def prepare(w: Workload, seed_offset: int, *, smoke: bool, span=None) -> Prepared:
    """Build *w*'s inputs; *span* (``span(name)`` -> context manager)
    times the scenario build and the cell partition when given."""
    timed = span if span is not None else (lambda name: contextlib.nullcontext())
    horizon = w.smoke_horizon if smoke else w.horizon
    stream_seed = w.seed + seed_offset
    if w.kind == "replicate":
        count = w.smoke_seeds if smoke else w.seeds
        spec = ReplicationSpec(
            num_devices=w.devices,
            horizon=horizon,
            z=3,
            batch_seeds=4,
            engine_backend=BACKEND,
        )
        return Prepared(
            w, horizon, stream_seed, spec=spec,
            seeds=list(range(stream_seed, stream_seed + count)),
        )
    with timed("setup.scenario"):
        config = (
            repro.ScenarioConfig(num_devices=w.devices)
            if w.devices is not None
            else None
        )
        scenario = repro.make_paper_scenario(
            w.seed,
            config=config,
            fault_plan=_fault_plan() if w.faults else None,
            **dict(w.topology),
        )
        scenario = dataclasses.replace(scenario, seeds=SeedBank(stream_seed))
    plan = None
    if w.kind == "sharded":
        with timed("setup.partition"):
            plan = sharding.partition_cells(
                scenario.network,
                w.cells,
                rng=SeedBank(w.seed).rng("cell-partition"),
                restarts=w.partition_restarts,
            )
    return Prepared(w, horizon, stream_seed, scenario=scenario, plan=plan)


def _digest(*arrays) -> str:
    digest = hashlib.sha256()
    for arr in arrays:
        digest.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
    return digest.hexdigest()


def _trajectory_fingerprint(result) -> str:
    """sha256 over the per-slot trajectories (the repo's pin format)."""
    return _digest(
        result.latency, result.cost, result.theta, result.backlog, result.price
    )


def execute(
    p: Prepared, *, tracer=None, registry=None, on_slot=None
) -> Outcome:
    """Run one repeat of the prepared workload.

    *on_slot* is the per-slot callback of the unsharded workload (the
    sharded step clock hooks the budget coordinator instead).
    """
    w = p.workload
    if w.kind == "replicate":
        report = run_replications(
            p.spec, p.seeds, processes=PROCESSES, tracer=tracer
        )
        outcomes = report.outcomes
        return Outcome(
            fingerprint=_digest(
                [
                    (o.seed, o.mean_latency, o.mean_cost, o.mean_backlog, o.budget)
                    for o in outcomes
                ]
            ),
            latency=float(np.mean([o.mean_latency for o in outcomes])),
            budget_ratio=float(np.mean([o.mean_cost / o.budget for o in outcomes])),
            steps_ms=[1e3 * o.mean_solve_seconds for o in outcomes],
            failed_seeds=len(report.failed_seeds),
            problems=(
                [f"seeds failed: {report.failed_seeds}"]
                if report.failed_seeds
                else []
            ),
        )
    if w.kind == "single":
        result = run(
            scenario=p.scenario,
            controller="dpp",
            horizon=p.horizon,
            engine_backend=BACKEND,
            tracer=tracer,
            metrics_registry=registry,
            on_slot=on_slot,
        )
        problems = []
    else:
        if registry is None and w.observability:
            registry = MetricsRegistry()
        params = {}
        if w.faults:
            params["resilience"] = ResiliencePolicy(
                chaos=SolverChaos(failure_rate=CHAOS_RATE, seed=p.stream_seed)
            )
        sharded = sharding.run_sharded(
            p.scenario,
            horizon=p.horizon,
            cells=p.plan,
            epoch=w.epoch,
            processes=PROCESSES,
            engine_backend=BACKEND,
            tracer=tracer,
            registry=registry,
            monitors=w.observability,
            **params,
        )
        result = sharded.merged
        problems = []
        if not np.allclose(
            sharded.budgets.sum(axis=1), result.budget, rtol=0.0, atol=1e-9
        ):
            problems.append("per-cell budget shares do not sum to the budget")
    return Outcome(
        fingerprint=_trajectory_fingerprint(result),
        latency=float(result.time_average_latency()),
        budget_ratio=float(result.time_average_cost() / result.budget),
        problems=problems,
    )
