"""Checkpoint/resume for long simulation runs.

A checkpointed run periodically snapshots everything the slot loop
carries across slots -- the state stream's rng, the fault plan's rng and
chain states, the generator's model states, the controller's virtual
queue / solver rng / carried assignments, and the aggregated metric
trajectories -- into one JSON file, written atomically (tmp +
``os.replace``) so a crash mid-write never corrupts the previous
snapshot.

Resuming restores all of it and continues from the next slot.  Because
every piece of cross-slot state is either captured exactly (rng
bit-generator states, float arrays) or deterministic in the slot index,
a resumed run is *bit-identical* to an uninterrupted one: same latency,
cost, and backlog trajectories, same final queue.  The equality is
asserted by ``tests/test_checkpoint.py`` and the CI ``chaos-smoke`` job.

Quickstart::

    result = repro.api.run(
        horizon=500, seed=7, checkpoint="run.ckpt", checkpoint_every=50
    )
    # ... process dies at slot 230; rerun with resume=True:
    result = repro.api.run(
        horizon=500, seed=7, checkpoint="run.ckpt", resume=True
    )
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from repro.exceptions import CheckpointError
from repro.obs.probe import Tracer, as_tracer
from repro.sim.engine import run_simulation
from repro.sim.results import SimulationResult
from repro.sim.scenario import Scenario, StateStream

logger = logging.getLogger(__name__)

__all__ = ["RunCheckpoint", "ShardCheckpoint", "run_checkpointed"]

#: Metric trajectories snapshotted per segment, in
#: :class:`~repro.sim.results.SimulationResult` field order.
_METRIC_KEYS = ("latency", "cost", "theta", "backlog", "solve_seconds", "price")


@dataclass
class RunCheckpoint:
    """One atomic snapshot of a run in progress.

    Attributes:
        config_hash: Digest of the run configuration (seed, horizon,
            budget, controller type, fleet size, ``V`` and ``z``).
            Resume refuses a checkpoint whose hash does not match the
            requested run.
        horizon: Total slots the run was asked for.
        completed: Slots finished when the snapshot was taken.
        state_rng: ``bit_generator.state`` of the state stream.
        controller: The controller's ``state_dict()``.
        generator: The state generator's ``state_dict()``.
        plan_rng: ``bit_generator.state`` of the fault plan's stream
            (``None`` when the scenario has no plan).
        fault_plan: The fault plan's ``state_dict()`` (``None`` without
            a plan).
        metrics: Per-slot trajectories accumulated so far, keyed by
            :data:`_METRIC_KEYS`.
        version: Snapshot format version.
    """

    config_hash: str
    horizon: int
    completed: int
    state_rng: dict
    controller: dict
    generator: dict
    plan_rng: dict | None = None
    fault_plan: dict | None = None
    metrics: dict = field(default_factory=dict)
    version: int = 1

    def write(self, path: "str | Path") -> None:
        """Atomically persist the snapshot to *path*.

        The JSON is written to a sibling temp file and moved into place
        with ``os.replace``, so readers only ever see a complete
        snapshot (the same pattern as ``RunManifest.write``).

        Raises:
            CheckpointError: The snapshot could not be serialized or
                written.
        """
        path = Path(path)
        tmp = path.with_suffix(path.suffix + ".tmp")
        try:
            tmp.write_text(json.dumps(asdict(self)))
            os.replace(tmp, path)
        except (OSError, TypeError, ValueError) as exc:
            raise CheckpointError(f"cannot write checkpoint {path}: {exc}") from exc

    @classmethod
    def load(cls, path: "str | Path") -> "RunCheckpoint":
        """Read a snapshot previously written by :meth:`write`.

        Raises:
            CheckpointError: The file is missing, unreadable, or not a
                known snapshot format.
        """
        path = Path(path)
        try:
            data = json.loads(path.read_text())
        except (OSError, ValueError) as exc:
            raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
        if not isinstance(data, dict) or "config_hash" not in data:
            raise CheckpointError(f"{path} is not a run checkpoint")
        version = int(data.get("version", 0))
        if version != 1:
            raise CheckpointError(
                f"unsupported checkpoint version {version} in {path}"
            )
        known = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in data.items() if k in known})


@dataclass
class ShardCheckpoint:
    """One atomic snapshot of a sharded run in progress.

    The sharded engine's cross-slot state is the per-cell *carry* (the
    same controller / generator / rng / fault-plan cursor bundle the
    resident workers ship on ``pull``) plus the budget coordinator's
    pacing state, so that is what the snapshot holds -- written at epoch
    boundaries by :meth:`repro.sim.sharded.ShardedController.run` when
    ``checkpoint=`` is set, restored on ``resume=True``.  A resumed
    sharded run is bit-identical to an uninterrupted one, on both the
    sequential and the resident execution paths (the carries are
    runtime-agnostic, so a snapshot written sequentially resumes under
    resident workers and vice versa).

    Attributes:
        config_hash: Digest of the sharded run configuration (seed,
            horizon, budget, controller name, fleet size, cell count,
            epoch length, coordinator mode).
        horizon: Total slots the run was asked for.
        completed: Slots finished when the snapshot was taken.
        coordinator: The budget coordinator's ``state_dict()``.
        carries: Per-cell carry dicts, in cell order.
        metrics: Per-cell metric trajectories accumulated so far.
        budgets: Per-epoch applied budget splits, in epoch order.
        version: Snapshot format version.
    """

    config_hash: str
    horizon: int
    completed: int
    coordinator: dict
    carries: list = field(default_factory=list)
    metrics: list = field(default_factory=list)
    budgets: list = field(default_factory=list)
    version: int = 1

    def write(self, path: "str | Path") -> None:
        """Atomically persist the snapshot (same pattern as
        :meth:`RunCheckpoint.write`)."""
        path = Path(path)
        tmp = path.with_suffix(path.suffix + ".tmp")
        try:
            tmp.write_text(json.dumps(asdict(self)))
            os.replace(tmp, path)
        except (OSError, TypeError, ValueError) as exc:
            raise CheckpointError(f"cannot write checkpoint {path}: {exc}") from exc

    @classmethod
    def load(cls, path: "str | Path") -> "ShardCheckpoint":
        """Read a snapshot previously written by :meth:`write`.

        Raises:
            CheckpointError: The file is missing, unreadable, or not a
                sharded-run snapshot.
        """
        path = Path(path)
        try:
            data = json.loads(path.read_text())
        except (OSError, ValueError) as exc:
            raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
        if not isinstance(data, dict) or "coordinator" not in data:
            raise CheckpointError(f"{path} is not a sharded-run checkpoint")
        version = int(data.get("version", 0))
        if version != 1:
            raise CheckpointError(
                f"unsupported checkpoint version {version} in {path}"
            )
        known = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in data.items() if k in known})


def _config_hash(scenario: Scenario, controller, horizon: int, budget) -> str:
    config = {
        "seed": scenario.seeds.seed,
        "horizon": int(horizon),
        "budget": repr(budget),
        "controller": type(controller).__name__,
        "devices": scenario.network.num_devices,
        "v": getattr(controller, "v", None),
        "z": getattr(controller, "z", None),
    }
    return hashlib.sha256(
        json.dumps(config, sort_keys=True).encode()
    ).hexdigest()[:16]


def _require_resumable(obj, role: str) -> None:
    if not (hasattr(obj, "state_dict") and hasattr(obj, "load_state_dict")):
        raise CheckpointError(
            f"{role} {type(obj).__name__} does not support checkpointing "
            "(needs state_dict()/load_state_dict())"
        )


def _result_from_metrics(
    metrics: dict, budget, records: list
) -> SimulationResult:
    return SimulationResult(
        **{k: np.asarray(metrics.get(k, []), dtype=float) for k in _METRIC_KEYS},
        budget=budget,
        records=records,
    )


def run_checkpointed(
    scenario: Scenario,
    controller,
    *,
    horizon: int,
    path: "str | Path",
    budget: float | None = None,
    every: int = 16,
    resume: bool = False,
    tracer: "Tracer | None" = None,
    keep_records: bool = False,
    on_slot=None,
) -> SimulationResult:
    """Drive *controller* through *horizon* slots with periodic snapshots.

    Runs the simulation in segments of *every* slots; after each segment
    a :class:`RunCheckpoint` is written atomically to *path* (a
    ``checkpoint`` event and ``resilience.checkpoints`` counter mark it
    on *tracer*).  With ``resume=True`` and a matching snapshot at
    *path*, the run continues from the snapshot's next slot; without one
    it falls back to a fresh start.  Resumed trajectories are
    bit-identical to an uninterrupted run's.

    Args:
        scenario: The scenario; its generator, seed bank, and optional
            fault plan are all checkpointed.
        controller: An online controller exposing
            ``state_dict``/``load_state_dict`` (e.g.
            :class:`~repro.core.controller.DPPController`).
        horizon: Total number of slots.
        path: Snapshot file location.
        budget: ``Cbar`` recorded on the result; ``scenario.budget``
            when omitted.
        every: Slots per segment between snapshots.
        resume: Continue from an existing snapshot at *path*.
        tracer: Observability tracer (fault/checkpoint events land here).
        keep_records: Retain per-slot records -- only for the slots run
            in *this* process; records from before a resume are gone.
        on_slot: Per-slot progress callback.

    Returns:
        The full-horizon :class:`~repro.sim.results.SimulationResult`
        (snapshotted metrics from before a resume included).

    Raises:
        CheckpointError: On an unusable controller/generator, a
            mismatched snapshot, or a write failure.
    """
    if every < 1:
        raise CheckpointError(f"checkpoint interval must be >= 1, got {every}")
    if horizon < 0:
        raise CheckpointError(f"horizon must be >= 0, got {horizon}")
    tracer = as_tracer(tracer)
    if budget is None:
        budget = scenario.budget
    _require_resumable(controller, "controller")
    suspects = scenario.generator.unresumable_models()
    if suspects:
        logger.warning(
            "models %s carry state but expose no state_dict(); a resumed "
            "run may diverge from an uninterrupted one",
            suspects,
        )
    config_hash = _config_hash(scenario, controller, horizon, budget)

    path = Path(path)
    completed = 0
    metrics: dict[str, list[float]] = {k: [] for k in _METRIC_KEYS}
    records: list = []
    stream = StateStream(scenario, tracer=tracer)
    if resume and path.exists():
        ck = RunCheckpoint.load(path)
        if ck.config_hash != config_hash:
            raise CheckpointError(
                f"checkpoint {path} belongs to a different run "
                f"(hash {ck.config_hash} != {config_hash}); "
                "pass resume=False to overwrite it"
            )
        if ck.horizon != horizon:
            raise CheckpointError(
                f"checkpoint {path} was taken for horizon {ck.horizon}, "
                f"requested {horizon}"
            )
        completed = int(ck.completed)
        metrics = {k: list(ck.metrics.get(k, [])) for k in _METRIC_KEYS}
        stream.load_state_dict(
            {
                "generator": ck.generator,
                "state_rng": ck.state_rng,
                "plan": ck.fault_plan,
                "plan_rng": ck.plan_rng,
            }
        )
        controller.load_state_dict(ck.controller)
        logger.info("resumed %s at slot %d/%d", path, completed, horizon)

    while completed < horizon:
        count = min(every, horizon - completed)
        part = run_simulation(
            controller,
            stream.take(completed, count),
            budget=budget,
            keep_records=keep_records,
            on_slot=on_slot,
            tracer=tracer,
        )
        for key in _METRIC_KEYS:
            metrics[key].extend(getattr(part, key).tolist())
        if keep_records:
            records.extend(part.records)
        completed += count
        cursor = stream.state_dict()
        snapshot = RunCheckpoint(
            config_hash=config_hash,
            horizon=horizon,
            completed=completed,
            state_rng=cursor["state_rng"],
            controller=controller.state_dict(),
            generator=cursor["generator"],
            plan_rng=cursor.get("plan_rng"),
            fault_plan=cursor.get("plan"),
            metrics=metrics,
        )
        snapshot.write(path)
        if tracer.enabled:
            tracer.counter("resilience.checkpoints", 1)
            tracer.event(
                "checkpoint", {"slot": completed, "path": str(path)}
            )

    return _result_from_metrics(metrics, budget, records)
