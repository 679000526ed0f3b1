"""Sharded multi-cell simulation: one DPP controller per cell.

The monolithic slot solve costs superlinearly in the device count
``I``, so one controller over a metro-scale deployment is hopeless.
This module runs an independent :class:`~repro.core.controller.DPPController`
(own virtual queue, own rng streams, own state stream) inside each cell
of a :class:`~repro.network.partition.CellPlan`, while a
:class:`~repro.core.budget.BudgetCoordinator` splits the global energy
budget ``Cbar`` across cells every *epoch* -- proportional pacing on
observed per-cell spend, conserving the total exactly, so the sum of
the per-cell virtual-queue constraints is the global constraint.

Execution is epoch-segmented exactly like checkpoint/resume: each cell
keeps one continuing :class:`~repro.sim.scenario.StateStream` and draws
its compiled states segment by segment (``stream.take(start, count)``),
which is bit-identical to one uninterrupted pass.  There is one epoch
loop and two ways to run its workers (:mod:`repro.sim.shard_runtime`), both
speaking the same command protocol.  ``processes=None``/1 answers it
in-process: one worker holds every cell and runs them one after the
other; it is the bit-identical oracle.  ``processes > 1`` pins each
cell inside a long-lived resident worker process.  Either way
controllers advance in place for the whole run, the loop ships only
``(slot range, budget shares)`` per epoch and receives compact metric
/ telemetry / alert deltas back, and carry state is serialized only for
checkpoints and salvage.  Pooled runs whose state streams fit the
fixed layout also ship compiled slot states through double-buffered
shared-memory struct-of-arrays blocks (epoch ``e + 1`` compiles while
epoch ``e`` solves).

Fault tolerance: a resident worker that dies or times out is killed,
respawned, and *replayed* -- its cells re-run from slot 0 (or from the
carry pulled at the last checkpoint write) under the recorded per-epoch
budget shares, which
lands bit-identically in the state the dead worker held, so the merged
trajectories match an undisturbed run exactly.  ``checkpoint=`` /
``resume=`` on :meth:`ShardedController.run` extend the same carry
machinery to on-disk snapshots (:class:`~repro.sim.checkpoint.Checkpoint`,
one carry per cell).

The one-cell plan degenerates to the unsharded pipeline: the original
scenario object is reused verbatim, the coordinator's single share is
the whole budget, and the merged trajectories are bit-identical to
``repro.api.run`` without sharding (asserted, against a pinned
fingerprint, by ``tests/test_sharding.py``) --
including a scenario-level :class:`~repro.sim.faults.FaultPlan`, which
every execution path applies from the plan's own stream with its cursor
(plan state + plan rng) carried across epochs.
"""

from __future__ import annotations

import copy
import logging
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.core.budget import BudgetCoordinator
from repro.exceptions import ConfigurationError, SolverError
from repro.kernels import get_kernels
from repro.network.partition import CellPlan, extract_subnetwork, partition_cells
from repro.obs.monitors import Alert, HealthReport, MonitorStatus
from repro.obs.probe import Probe, Tracer, as_tracer
from repro.obs.telemetry import MetricsRegistry
from repro.radio.mobility import StaticMobility
from repro.sim.checkpoint import Checkpoint, config_digest
from repro.sim.results import TRAJECTORY_FIELDS, SimulationResult, SimulationSummary
from repro.sim.scenario import Scenario, StateGenerator
from repro.sim.shard_runtime import (
    InProcessWorker,
    ResidentWorker,
    SharedStatePlanner,
    WorkerFailure,
    _mp_context,
)

if TYPE_CHECKING:
    from repro.api import CellConfig, RunConfig

logger = logging.getLogger(__name__)

__all__ = [
    "ShardedController",
    "ShardedResult",
    "merge_cell_metrics",
    "run_sharded",
    "shard_scenarios",
]

#: Extra attempts per (worker, epoch) after a pooled worker's first
#: failure; the next failure gives the run up with a :class:`SolverError`.
MAX_RETRIES = 2


@dataclass
class _CheckpointPlan:
    """Where and how often :meth:`ShardedController.run` snapshots, and
    the configuration digest the snapshots carry."""

    path: Path
    every: int
    config_hash: str


def _check_config(config: "RunConfig", cells: "CellConfig") -> None:
    """Reject settings the sharded engine cannot run, before partitioning."""
    conflicts = [
        name
        for name, bad in (
            ("keep_records", config.obs.keep_records),
            ("warm_start_queue", config.warm_start_queue),
        )
        if bad
    ]
    if conflicts:
        raise ConfigurationError(
            f"a sharded run does not combine with: {', '.join(conflicts)}"
        )
    if config.controller == "fixed":
        raise ConfigurationError(
            "sharded runs need a budget-tracking controller; "
            "'fixed' has no virtual queue to coordinate"
        )
    if cells.epoch < 1:
        raise ConfigurationError(f"epoch must be >= 1, got {cells.epoch}")
    if cells.timeout_seconds is not None and cells.timeout_seconds <= 0:
        raise ConfigurationError(
            f"timeout_seconds must be positive, got {cells.timeout_seconds}"
        )
    from repro.api import _FAMILY_KNOBS, _validate_params

    if config.controller in _FAMILY_KNOBS:
        _validate_params(config.controller, dict(config.controller_params))


def _check_shardable(scenario: Scenario) -> None:
    """One structured capability check for multi-cell sharding.

    Collects *every* unsupported feature of the scenario and raises a
    single :class:`ConfigurationError` naming each offending feature
    and the flag combination that would work -- the did-you-mean style
    of ``make_controller`` -- instead of failing one bare check at a
    time.
    """
    problems: list[str] = []
    generator = scenario.generator
    if type(generator.mobility) is not StaticMobility:
        problems.append(
            f"mobility={type(generator.mobility).__name__} -- sharded runs "
            "require static mobility (devices must stay in their cell); "
            "drop the mobility model or run unsharded (cells=1)"
        )
    if not hasattr(generator.tasks, "subset"):
        problems.append(
            f"tasks={type(generator.tasks).__name__} -- the task generator "
            "has no subset() projection, so devices cannot be split across "
            "cells; implement subset() or run unsharded (cells=1)"
        )
    if problems:
        raise ConfigurationError(
            "this scenario cannot be sharded across multiple cells: "
            + "; ".join(problems)
        )


def shard_scenarios(scenario: Scenario, plan: CellPlan) -> list[Scenario]:
    """Carve one scenario into an independent scenario per cell.

    The one-cell plan returns ``[scenario]`` -- the *same object*, same
    seed bank, same stream labels, fault plan included -- which is what
    makes the one-cell sharded run bit-identical to the unsharded
    pipeline.  Multi-cell plans give each cell its own sub-topology
    (:func:`~repro.network.partition.extract_subnetwork`), a sliced
    task generator, deep-copied channel/price/fronthaul models,
    a child seed bank (independent streams per cell), a fair share of
    the budget, and -- when the scenario carries one -- the
    :class:`~repro.sim.faults.FaultPlan` projected onto the cell
    (:meth:`~repro.sim.faults.FaultPlan.subset`: independent per-cell
    chains from the cell's own fault stream, scripted incidents split
    by target with local indices).

    Raises:
        ConfigurationError: The plan leaves an entity of the scenario's
            network out of every cell
            (:meth:`~repro.network.partition.CellPlan.check_covers`), or
            a *multi-cell* plan was requested for a scenario using
            features the sharded engine cannot split (mobility, an
            unsliceable task generator); the message names every
            offending feature and the working alternative.
    """
    plan.check_covers(scenario.network)
    if plan.num_cells == 1:
        return [scenario]
    _check_shardable(scenario)
    generator = scenario.generator
    total_devices = scenario.network.num_devices
    out = []
    for cell in plan.cells:
        subnetwork, maps = extract_subnetwork(scenario.network, cell)
        tasks = generator.tasks.subset(maps.devices)
        cell_generator = StateGenerator(
            subnetwork,
            tasks,
            copy.deepcopy(generator.channel),
            copy.deepcopy(generator.prices),
            price_scale=generator.price_scale,
            fronthaul=copy.deepcopy(generator.fronthaul),
        )
        fault_plan = (
            scenario.fault_plan.subset(
                maps.devices, maps.base_stations, maps.servers
            )
            if scenario.fault_plan
            else None
        )
        out.append(
            Scenario(
                network=subnetwork,
                generator=cell_generator,
                seeds=scenario.seeds.child(f"cell{cell.index}"),
                budget=scenario.budget * cell.num_devices / total_devices,
                fault_plan=fault_plan,
            )
        )
    return out


def merge_cell_metrics(
    metrics_by_cell: "list[dict[str, list[float]]]", budget: float
) -> SimulationResult:
    """Fold per-cell trajectories into one cross-cell result.

    Latency, cost, theta, backlog, and solve time are *totals* across
    devices/queues, so they sum across cells per slot; the price is
    averaged (cells draw their own price noise).  Budget conservation
    makes the merged theta exactly ``C_t - Cbar`` -- the same semantics
    as an unsharded run against the global budget.
    """
    if not metrics_by_cell:
        raise ConfigurationError("nothing to merge")
    horizons = {len(m["latency"]) for m in metrics_by_cell}
    if len(horizons) != 1:
        raise ConfigurationError(
            f"cells disagree on the simulated horizon: {sorted(horizons)}"
        )
    stacked = {
        key: np.array([m[key] for m in metrics_by_cell], dtype=np.float64)
        for key in TRAJECTORY_FIELDS
    }
    return SimulationResult(
        latency=stacked["latency"].sum(axis=0),
        cost=stacked["cost"].sum(axis=0),
        theta=stacked["theta"].sum(axis=0),
        backlog=stacked["backlog"].sum(axis=0),
        solve_seconds=stacked["solve_seconds"].sum(axis=0),
        price=stacked["price"].mean(axis=0),
        budget=budget,
    )


@dataclass
class ShardedResult:
    """Outcome of one sharded run.

    Attributes:
        merged: The cross-cell :class:`~repro.sim.results.SimulationResult`
            (global totals per slot; drop-in comparable to an unsharded
            run against the global budget).
        cells: Per-cell summaries, in cell order.
        budgets: ``(epochs, cells)`` budget references applied per
            epoch; every row sums to the global budget.
        plan: The cell plan the run executed.
        health: Combined per-cell :class:`~repro.obs.monitors.HealthReport`
            when monitors were requested (statuses are named
            ``cell<N>/<monitor>``; every alert carries a ``cell`` label
            in its data), ``None`` otherwise.
    """

    merged: SimulationResult
    cells: list[SimulationSummary] = field(default_factory=list)
    budgets: "np.ndarray | None" = None
    plan: CellPlan | None = None
    health: "HealthReport | None" = None


class ShardedController:
    """Runs one controller per cell under a shared budget coordinator.

    Every setting comes from one :class:`repro.api.RunConfig`, whose
    field docs are the reference: ``controller``, ``v``, ``z`` and
    ``budget`` (every cell shares them; the budget is split by the
    coordinator), ``engine.backend``, ``obs.monitors`` (a default suite
    per cell; the budget monitor judges a cell against the
    slot-weighted mean of the shares it ran under), ``controller_params``
    and the :class:`repro.api.CellConfig` block in ``cells``
    (``CellConfig()`` when ``None``).  Only a DPP-family controller
    shards: ``"fixed"`` has no virtual queue to coordinate.  A pooled
    worker that dies or stays silent past ``cells.timeout_seconds`` is
    killed, respawned and replayed from the carry pulled at the last
    checkpoint write (or slot 0), at most :data:`MAX_RETRIES` times per
    worker and epoch.

    Args:
        scenario: The global scenario to shard.
        config: The run's settings.
        plan: A prebuilt :class:`~repro.network.partition.CellPlan`;
            when omitted the network is partitioned into
            ``cells.count`` cells with ``cells.partition_restarts``
            k-means restarts from the scenario's ``"cell-partition"``
            seed stream.
        tracer: Parent observability tracer; per-cell probes are merged
            into it (``shard.*`` events mark epochs and re-splits).
        registry: A live :class:`~repro.obs.telemetry.MetricsRegistry`
            the run streams into -- per-cell gauges and per-kernel /
            per-phase histograms, labelled ``cell="<index>"``, merged
            as each epoch's reply arrives, so a scrape *during* the run
            sees every finished epoch.

    Raises:
        ConfigurationError: On a setting the sharded engine cannot run
            (see :func:`_check_config`).
    """

    def __init__(
        self,
        scenario: Scenario,
        config: "RunConfig",
        *,
        plan: "CellPlan | None" = None,
        tracer: "Tracer | None" = None,
        registry: "MetricsRegistry | None" = None,
    ) -> None:
        from repro.api import CellConfig

        cells = config.cells if config.cells is not None else CellConfig()
        _check_config(config, cells)
        # Workers run the backend the parent resolved; they never guess.
        backend = get_kernels(config.engine.backend).name
        config = replace(config, engine=replace(config.engine, backend=backend))
        if plan is None:
            plan = partition_cells(
                scenario.network,
                cells.count,
                rng=scenario.seeds.rng("cell-partition"),
                restarts=cells.partition_restarts,
            )
        self.plan = plan
        self.scenario = scenario
        self.config = config
        self.cell_scenarios = shard_scenarios(scenario, plan)
        self.total_budget = float(
            scenario.budget if config.budget is None else config.budget
        )
        self.epoch = int(cells.epoch)
        self.processes = cells.processes
        self.timeout_seconds = cells.timeout_seconds
        self.tracer = as_tracer(tracer)
        self.registry = registry
        self._health: "HealthReport | None" = None
        self.coordinator = BudgetCoordinator(
            self.total_budget,
            np.maximum(plan.device_counts().astype(np.float64), 1.0),
            mode=cells.coordinator,
            floor_fraction=cells.floor_fraction,
            smoothing=cells.smoothing,
        )

    # -- the epoch loop ----------------------------------------------------

    def _run_epochs(
        self,
        horizon: int,
        *,
        ckpt: "_CheckpointPlan | None" = None,
        resume_state: "Checkpoint | None" = None,
    ) -> "tuple[list[dict], list]":
        """The sharded epoch loop, for either worker transport.

        ``processes`` None/1 uses one :class:`InProcessWorker` holding
        every cell; ``processes > 1`` pins cells round-robin onto
        long-lived :class:`ResidentWorker` processes.  Each epoch the
        parent ships only ``(slot range, budget shares, shared-buffer
        index)`` and receives metric/telemetry/alert deltas back.
        While resident workers solve epoch ``e`` the parent compiles
        epoch ``e + 1``'s slot states into the shared-memory double
        buffer (when :class:`SharedStatePlanner` supports the scenario)
        and the coordinator's spends arrive just in time for the next
        split.  A dead or hung resident worker is killed, respawned,
        restored from the carry pulled at the last checkpoint write (or
        slot 0), and *replayed* through the recorded budget history --
        bit-identical, so the merged trajectories match an undisturbed
        run exactly.
        """
        trace = self.tracer.enabled
        num_cells = len(self.cell_scenarios)
        pooled = self.processes is not None and self.processes > 1
        workers_n = min(int(self.processes), num_cells) if pooled else 1
        if resume_state is not None:
            self.coordinator.load_state_dict(resume_state.coordinator)
        planner = (
            SharedStatePlanner(self.cell_scenarios, epoch=self.epoch)
            if pooled and SharedStatePlanner.supported(self.cell_scenarios)
            else None
        )
        ctx = _mp_context() if pooled else None
        initial = self.coordinator.budgets()
        descriptors = planner.descriptors() if planner is not None else {}
        workers: "list[ResidentWorker | InProcessWorker]" = []
        metrics = [{k: [] for k in TRAJECTORY_FIELDS} for _ in range(num_cells)]
        budgets_applied: list = []
        completed = 0
        # Salvage bookkeeping: the recorded per-epoch budget shares of
        # *this* session, and the most recent full carry pull a rebuilt
        # worker can restart from (None = replay from slot 0).
        budget_history: "list[tuple[int, int, dict]]" = []
        base_carries: "dict | None" = None
        base_epoch = 0
        if resume_state is not None:
            completed = int(resume_state.completed)
            metrics = [
                {k: list(m.get(k, [])) for k in TRAJECTORY_FIELDS}
                for m in resume_state.metrics
            ]
            budgets_applied = [
                np.asarray(b, dtype=np.float64) for b in resume_state.budgets
            ]
            base_carries = dict(enumerate(resume_state.carries))
        last_ckpt = completed
        attempts: dict[int, int] = {}

        def rebuild(worker, exc, replay_to, epoch_data):
            """Respawn a failed worker and replay it to *replay_to*
            session epochs; re-dispatch *epoch_data* when given."""
            while True:
                if not self._note_worker_failure(attempts, worker, exc):
                    raise SolverError(
                        f"worker {worker.index} (cells {worker.cells}) "
                        f"failed permanently: {exc}"
                    ) from exc
                worker.respawn()
                history = budget_history[
                    base_epoch if base_carries is not None else 0 : replay_to
                ]
                deadline = self.timeout_seconds
                try:
                    if base_carries is not None:
                        worker.call(
                            "load",
                            {
                                "carries": {
                                    c: base_carries[c] for c in worker.cells
                                }
                            },
                            timeout=deadline,
                        )
                    if history:
                        worker.call(
                            "replay",
                            {"epochs": history},
                            timeout=(
                                None
                                if deadline is None
                                else deadline * max(1, len(history))
                            ),
                        )
                    if epoch_data is not None:
                        worker.send("epoch", epoch_data(worker))
                except WorkerFailure as next_exc:
                    exc = next_exc
                    continue
                if trace:
                    self.tracer.event(
                        "shard.worker_rebuilt",
                        {"worker": worker.index, "cells": worker.cells},
                    )
                return

        epochs: "list[tuple[int, int]]" = []
        s = completed
        while s < horizon:
            n = min(self.epoch, horizon - s)
            epochs.append((s, n))
            s += n

        try:
            for w in range(workers_n):
                cells_w = list(range(w, num_cells, workers_n))
                payload = {
                    "cells": cells_w,
                    "scenarios": {c: self.cell_scenarios[c] for c in cells_w},
                    "config": self.config,
                    "initial_budgets": {c: float(initial[c]) for c in cells_w},
                    "trace_phases": trace,
                    # Heartbeats only matter to a silence deadline.
                    "watchdog": self.timeout_seconds is not None,
                    "telemetry": self.registry is not None,
                    "shared": (
                        {c: descriptors[c] for c in cells_w}
                        if planner is not None
                        else None
                    ),
                }
                workers.append(
                    ResidentWorker(w, cells_w, payload, ctx=ctx)
                    if pooled
                    else InProcessWorker(w, cells_w, payload)
                )
            if base_carries is not None:  # resuming
                for worker in workers:
                    worker.call(
                        "load",
                        {"carries": {c: base_carries[c] for c in worker.cells}},
                        timeout=self.timeout_seconds,
                    )
                if planner is not None:
                    for c in range(num_cells):
                        planner.load_stream_state(c, base_carries[c])
            if planner is not None and epochs:
                buffer = planner.fill(0, *epochs[0])
            else:
                buffer = None
            next_buffer = None
            # The last epoch's telemetry deltas, merged once the next
            # epoch is dispatched so the merge overlaps the solve.
            unmerged: list = []
            for e, (start, count) in enumerate(epochs):
                budgets = self.coordinator.budgets()
                budgets_applied.append(budgets)
                shares = {c: float(budgets[c]) for c in range(num_cells)}
                budget_history.append((start, count, shares))
                attempts.clear()

                def epoch_data(worker, _start=start, _count=count,
                               _buffer=buffer, _shares=shares):
                    return {
                        "start": _start,
                        "count": _count,
                        "buffer": _buffer,
                        "budgets": {c: _shares[c] for c in worker.cells},
                    }

                for worker in workers:
                    try:
                        worker.send("epoch", epoch_data(worker))
                    except WorkerFailure as exc:
                        rebuild(worker, exc, e, epoch_data)
                # Pipelining: compile the next epoch's states into the
                # other buffer while the workers are solving this one.
                if planner is not None and e + 1 < len(epochs):
                    next_buffer = planner.fill(e + 1, *epochs[e + 1])
                self._merge_telemetry(unmerged)
                spends = np.zeros(num_cells)
                for worker in workers:
                    while True:
                        try:
                            reply = worker.recv(self.timeout_seconds)
                            break
                        except WorkerFailure as exc:
                            rebuild(worker, exc, e, epoch_data)
                    for c, out in reply["cells"].items():
                        for key in TRAJECTORY_FIELDS:
                            metrics[c][key].extend(out["metrics"][key])
                        spends[c] = out["spend"]
                    self._alert_events(
                        {c: out.get("alerts", ()) for c, out in reply["cells"].items()},
                        trace,
                    )
                    unmerged.append((reply.get("telemetry"), start + 1))
                buffer = next_buffer
                completed = start + count
                session_done = e + 1
                new_budgets = self.coordinator.update(spends)
                self._publish_epoch(completed, new_budgets)
                if trace:
                    self.tracer.event(
                        "shard.epoch",
                        {
                            "completed": completed,
                            "spends": spends.tolist(),
                            "budgets": new_budgets.tolist(),
                        },
                    )
                if ckpt is not None and completed - last_ckpt >= ckpt.every:
                    carries: dict = {}
                    for worker in workers:
                        while True:
                            try:
                                pulled = worker.call(
                                    "pull", timeout=self.timeout_seconds
                                )
                                break
                            except WorkerFailure as exc:
                                rebuild(worker, exc, session_done, None)
                        carries.update(pulled["carries"])
                        self._alert_events(pulled["alerts"], trace)
                        unmerged.append((pulled.get("telemetry"), start + 1))
                    if planner is not None:
                        # The parent owns the live state stream in
                        # shared mode; patch this epoch's boundary
                        # snapshot into the carries so a restore
                        # re-creates both sides consistently.
                        for c in range(num_cells):
                            carries[c] = dict(carries[c])
                            carries[c].update(planner.stream_state(c, e))
                    base_carries = carries
                    base_epoch = session_done
                    Checkpoint(
                        config_hash=ckpt.config_hash,
                        horizon=int(horizon),
                        completed=int(completed),
                        coordinator=self.coordinator.state_dict(),
                        carries=[carries[c] for c in range(num_cells)],
                        metrics=metrics,
                        budgets=[list(map(float, b)) for b in budgets_applied],
                    ).write(ckpt.path, self.tracer)
                    last_ckpt = completed
            self._merge_telemetry(unmerged)
            finish_out: dict = {}
            for worker in workers:
                while True:
                    try:
                        reply = worker.call(
                            "finish", timeout=self.timeout_seconds
                        )
                        break
                    except WorkerFailure as exc:
                        rebuild(worker, exc, len(budget_history), None)
                finish_out.update(reply["cells"])
                self._alert_events(
                    {c: out["new_alerts"] for c, out in reply["cells"].items()},
                    trace,
                )
                if self.registry is not None:
                    self.registry.merge_snapshot(
                        reply.get("telemetry"), generation=horizon + 1
                    )
            if trace and isinstance(self.tracer, Probe):
                for c in range(num_cells):
                    state = finish_out.get(c, {}).get("phase_state")
                    if state is not None:
                        self.tracer.merge_phase_state(state, order=(0, c))
            if self.config.obs.monitors:
                self._health = self._assemble_health(finish_out)
        finally:
            for worker in workers:
                worker.stop()
            if planner is not None:
                planner.close()
        return metrics, budgets_applied

    def _note_worker_failure(
        self, attempts: dict, worker: "ResidentWorker", exc: Exception
    ) -> bool:
        attempts[worker.index] = attempts.get(worker.index, 0) + 1
        retry = attempts[worker.index] <= MAX_RETRIES
        logger.warning(
            "resident worker %d (cells %s) failed (attempt %d/%d): %s",
            worker.index,
            worker.cells,
            attempts[worker.index],
            MAX_RETRIES + 1,
            exc,
        )
        hung = bool(getattr(exc, "hung", False))
        if self.tracer.enabled:
            self.tracer.counter("resilience.shard_retries", 1)
            if hung:
                # The watchdog (heartbeat silence past the per-epoch
                # deadline) caught a live-but-stuck worker; distinguish
                # it from a plain death in traces and telemetry.
                self.tracer.counter("resilience.worker_hangs", 1)
                self.tracer.event(
                    "shard.worker_hung",
                    {
                        "worker": worker.index,
                        "cells": worker.cells,
                        "deadline_seconds": self.timeout_seconds,
                    },
                )
            self.tracer.event(
                "shard.retry",
                {
                    "worker": worker.index,
                    "cells": worker.cells,
                    "attempt": attempts[worker.index],
                    "error": str(exc),
                },
            )
            # Keep the partial trace whole-record durable before the
            # salvage replay.
            self.tracer.flush()
        if self.registry is not None:
            counter = self.registry.counter(
                "repro_shard_retries_total",
                "Sharded epoch jobs that failed and were retried",
            )
            for c in worker.cells:
                counter.inc(1.0, cell=c)
        return retry

    def _assemble_health(self, finish_out: dict) -> HealthReport:
        statuses: list[MonitorStatus] = []
        alerts: list[Alert] = []
        for c in sorted(finish_out):
            cell = finish_out[c]
            for s in cell.get("statuses", ()):
                statuses.append(
                    MonitorStatus(
                        name=f"cell{c}/{s['name']}",
                        status=s["status"],
                        detail=s["detail"],
                        alerts=s["alerts"],
                    )
                )
            for data in cell.get("alerts", ()):
                alerts.append(
                    Alert(
                        monitor=data["monitor"],
                        severity=data["severity"],
                        message=data["message"],
                        t=data.get("t"),
                        data=dict(data.get("data", {})),
                    )
                )
        return HealthReport(statuses=tuple(statuses), alerts=tuple(alerts))

    # -- telemetry / monitor plumbing --------------------------------------

    def _alert_events(self, alerts: dict, trace: bool) -> None:
        """Emit the alerts a reply carried, per cell, when traced."""
        if trace:
            for cell_alerts in alerts.values():
                for data in cell_alerts:
                    self.tracer.event("alert", data)

    def _merge_telemetry(self, unmerged: list) -> None:
        """Merge and drop the ``(delta, generation)`` pairs *unmerged*
        holds."""
        if self.registry is not None:
            for delta, generation in unmerged:
                self.registry.merge_snapshot(delta, generation=generation)
        unmerged.clear()

    def _publish_epoch(self, completed: int, budgets: np.ndarray) -> None:
        """Parent-side epoch gauges: progress and the per-cell splits."""
        if self.registry is None:
            return
        self.registry.gauge(
            "repro_shard_completed_slots",
            "Slots completed by the sharded run so far",
        ).set(float(completed))
        budget_gauge = self.registry.gauge(
            "repro_cell_budget",
            "Per-cell budget share applied for the next epoch ($/slot)",
        )
        for c, value in enumerate(budgets):
            budget_gauge.set(float(value), cell=c)

    # -- public ------------------------------------------------------------

    def run(
        self,
        horizon: int,
        *,
        checkpoint: "str | Path | None" = None,
        checkpoint_every: "int | None" = None,
        resume: bool = False,
    ) -> ShardedResult:
        """Simulate *horizon* slots across every cell and merge.

        Cells advance in lockstep epochs; after each epoch the budget
        coordinator re-splits ``Cbar`` from the observed spends.
        In-process and resident workers produce bit-identical
        trajectories (salvage replays the same carry-state arithmetic
        the checkpoint layer proved exact).  Each per-cell summary is judged
        against the slot-weighted mean of the shares that cell actually
        ran under.

        Args:
            checkpoint: Snapshot the run to this path at epoch
                boundaries (a :class:`~repro.sim.checkpoint.Checkpoint`
                with one carry per cell).
            checkpoint_every: Minimum slots between snapshots; defaults
                to the epoch length (one snapshot per epoch).
            resume: Continue from a matching snapshot at *checkpoint*;
                without one the run starts fresh.  Resumed trajectories
                are bit-identical to an uninterrupted run's.
        """
        if horizon < 0:
            raise ConfigurationError(f"horizon must be >= 0, got {horizon}")
        self._health = None
        ckpt = None
        resume_state = None
        if checkpoint is not None:
            every = self.epoch if checkpoint_every is None else int(checkpoint_every)
            if every < 1:
                raise ConfigurationError(
                    f"checkpoint interval must be >= 1, got {checkpoint_every}"
                )
            config_hash = config_digest(
                {
                    "seed": self.scenario.seeds.seed,
                    "horizon": int(horizon),
                    "budget": float(self.total_budget),
                    "controller": self.config.controller,
                    "devices": self.scenario.network.num_devices,
                    "cells": self.plan.num_cells,
                    "epoch": self.epoch,
                    "coordinator": self.coordinator.mode,
                    "v": float(self.config.v),
                    "z": self.config.z,
                    "floor_fraction": self.coordinator.floor_fraction,
                    "smoothing": self.coordinator.smoothing,
                }
            )
            ckpt = _CheckpointPlan(Path(checkpoint), every, config_hash)
            if resume and ckpt.path.exists():
                resume_state = Checkpoint.load(
                    ckpt.path, config_hash=config_hash, horizon=horizon
                )
        metrics, budgets = self._run_epochs(
            horizon,
            ckpt=ckpt,
            resume_state=resume_state,
        )
        merged = merge_cell_metrics(metrics, self.total_budget)
        if budgets:
            applied = np.array(budgets)
            # Slots per epoch: all full except possibly the last.
            slots = np.minimum(
                self.epoch, horizon - self.epoch * np.arange(len(applied))
            )
            cell_budgets = slots @ applied / horizon
        else:
            applied, cell_budgets = None, self.coordinator.budgets()
        cell_summaries = [
            SimulationResult(
                **{k: np.asarray(m[k], dtype=np.float64) for k in TRAJECTORY_FIELDS},
                budget=float(b),
            ).summary()
            for m, b in zip(metrics, cell_budgets)
        ]
        if self._health is not None:
            merged.health = self._health
        return ShardedResult(
            merged=merged,
            cells=cell_summaries,
            budgets=applied,
            plan=self.plan,
            health=self._health,
        )


#: :func:`run_sharded` keywords that are top-level :class:`RunConfig`
#: fields and :class:`CellConfig` fields; ``engine_backend`` and
#: ``monitors`` fill the engine and obs blocks, every other keyword is
#: a controller-family knob.
_RUN_OPTIONS = ("controller", "v", "z", "budget")
_CELL_OPTIONS = (
    "epoch", "coordinator", "floor_fraction", "smoothing", "processes",
    "timeout_seconds",
)


def run_sharded(
    scenario: Scenario,
    *,
    horizon: int,
    cells: "CellPlan | int",
    checkpoint: "str | Path | None" = None,
    checkpoint_every: "int | None" = None,
    resume: bool = False,
    **options: object,
) -> ShardedResult:
    """One-call sharded run: partition, coordinate, execute, merge.

    *cells* is a prebuilt :class:`~repro.network.partition.CellPlan` or
    a cell count.  The run-time keywords are those of
    :meth:`ShardedController.run`; *options* are ``tracer=`` and
    ``registry=``, the :class:`repro.api.RunConfig` settings
    ``controller``/``v``/``z``/``budget``/``engine_backend``/``monitors``,
    the :class:`repro.api.CellConfig` settings ``epoch``/``coordinator``/
    ``floor_fraction``/``smoothing``/``processes``/``timeout_seconds``,
    and controller-family knobs (unknown names raise with a
    did-you-mean hint).  Returns the :class:`ShardedResult`;
    ``result.merged`` is the drop-in cross-cell
    :class:`~repro.sim.results.SimulationResult`.
    """
    from repro.api import CellConfig, EngineConfig, ObsConfig, RunConfig

    def take(names) -> dict:
        return {k: options.pop(k) for k in names if k in options}

    plan = cells if isinstance(cells, CellPlan) else None
    objects = take(("tracer", "registry"))
    config = RunConfig(
        horizon=horizon,
        engine=EngineConfig(backend=options.pop("engine_backend", None)),
        obs=ObsConfig(monitors=bool(options.pop("monitors", False))),
        cells=CellConfig(
            count=plan.num_cells if plan is not None else int(cells),
            **take(_CELL_OPTIONS),
        ),
        **take(_RUN_OPTIONS),
        controller_params=options,
    )
    return ShardedController(scenario, config, plan=plan, **objects).run(
        horizon,
        checkpoint=checkpoint,
        checkpoint_every=checkpoint_every,
        resume=resume,
    )
