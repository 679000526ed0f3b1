"""Checkpoint/resume: one snapshot format for every long run.

Algorithm 1 carries little from one slot to the next: the virtual
queue, the controller's solver rng and carried decision, and the state
stream's cursor (the generator's model states, the state rng, and the
fault plan's chain states and rng).  That bundle is one cell's *carry*,
``{"controller": ..., **StateStream.state_dict()}``, built by
:func:`build_carry` and restored by :func:`restore_carry`.  A
:class:`Checkpoint` holds one carry per cell plus the metric
trajectories accumulated so far: an unsharded run
(:func:`run_checkpointed`) is one cell with no budget coordinator, and a
sharded run (:meth:`repro.sim.sharded.ShardedController.run`) adds the
coordinator's pacing state and the per-epoch budget splits.

The snapshot is one JSON file, written atomically (tmp +
``os.replace``) so a crash mid-write never corrupts the previous one.
:meth:`Checkpoint.load` reads it and, on resume, refuses a snapshot
taken for another configuration or horizon.  Version-1 files of both
earlier layouts still resume: the sharded layout is this one, and an
unsharded file's separate fields are mapped onto one carry.

Because every piece of cross-slot state is either captured exactly (rng
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
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.exceptions import CheckpointError
from repro.obs.probe import Tracer, as_tracer
from repro.sim.engine import run_simulation
from repro.sim.results import TRAJECTORY_FIELDS, SimulationResult
from repro.sim.scenario import Scenario, StateStream

logger = logging.getLogger(__name__)

__all__ = ["Checkpoint", "run_checkpointed"]

#: Format version :meth:`Checkpoint.write` stamps.  Version 1 had two
#: layouts: this one for sharded runs, separate fields for unsharded ones.
VERSION = 2


def build_carry(controller, stream: StateStream) -> dict:
    """One cell's cross-slot state: the controller's and its stream's."""
    return {"controller": controller.state_dict(), **stream.state_dict()}


def restore_carry(controller, stream: StateStream, carry: dict) -> None:
    """Restore a carry built by :func:`build_carry`."""
    controller.load_state_dict(carry["controller"])
    stream.load_state_dict(carry)


def config_digest(config: dict) -> str:
    """The digest a snapshot is matched by on resume."""
    return hashlib.sha256(
        json.dumps(config, sort_keys=True).encode()
    ).hexdigest()[:16]


def _unsharded_version_1(data: dict) -> dict:
    """Map a version-1 unsharded snapshot's fields onto one carry."""
    carry = {
        "controller": data["controller"],
        "generator": data["generator"],
        "state_rng": data["state_rng"],
    }
    if data.get("fault_plan") is not None:
        carry["plan"] = data["fault_plan"]
        carry["plan_rng"] = data["plan_rng"]
    return {
        "config_hash": data["config_hash"],
        "horizon": data["horizon"],
        "completed": data["completed"],
        "carries": [carry],
        "metrics": [data.get("metrics", {})],
        "version": 1,
    }


@dataclass
class Checkpoint:
    """One atomic snapshot of a run in progress.

    Attributes:
        config_hash: :func:`config_digest` of the run's configuration.
            Resume refuses a snapshot whose digest does not match the
            requested run's.
        horizon: Total slots the run was asked for.
        completed: Slots finished when the snapshot was taken.
        coordinator: The budget coordinator's ``state_dict()`` (empty
            for an unsharded run).
        carries: One carry per cell, in cell order (one for an
            unsharded run).
        metrics: Per-cell trajectories accumulated so far, keyed by
            :data:`~repro.sim.results.TRAJECTORY_FIELDS`.
        budgets: Per-epoch applied budget splits, in epoch order (empty
            for an unsharded run).
        version: Snapshot format version.
    """

    config_hash: str
    horizon: int
    completed: int
    coordinator: dict = field(default_factory=dict)
    carries: list = field(default_factory=list)
    metrics: list = field(default_factory=list)
    budgets: list = field(default_factory=list)
    version: int = VERSION

    def write(self, path: "str | Path", tracer: "Tracer | None" = None) -> None:
        """Atomically persist the snapshot to *path*.

        The JSON is written to a sibling temp file and moved into place
        with ``os.replace``, so readers only ever see a complete
        snapshot (the same pattern as ``RunManifest.write``).  A
        ``checkpoint`` event and the ``resilience.checkpoints`` counter
        mark the write on *tracer*.

        Raises:
            CheckpointError: The snapshot could not be serialized or
                written.
        """
        path = Path(path)
        tmp = path.with_suffix(path.suffix + ".tmp")
        try:
            tmp.write_text(json.dumps(vars(self)))
            os.replace(tmp, path)
        except (OSError, TypeError, ValueError) as exc:
            raise CheckpointError(f"cannot write checkpoint {path}: {exc}") from exc
        if tracer is not None and tracer.enabled:
            tracer.counter("resilience.checkpoints", 1)
            tracer.event(
                "checkpoint", {"slot": int(self.completed), "path": str(path)}
            )

    @classmethod
    def load(
        cls,
        path: "str | Path",
        *,
        config_hash: "str | None" = None,
        horizon: "int | None" = None,
    ) -> "Checkpoint":
        """Read a snapshot written by :meth:`write` (or a version-1 one).

        With *config_hash* and *horizon* given -- a resume -- the
        snapshot must have been taken for exactly that run.

        Raises:
            CheckpointError: The file is missing, unreadable, not a
                known snapshot format, or taken for another run.
        """
        path = Path(path)
        try:
            data = json.loads(path.read_text())
        except (OSError, ValueError) as exc:
            raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
        if not isinstance(data, dict) or "config_hash" not in data:
            raise CheckpointError(f"{path} is not a run checkpoint")
        version = int(data.get("version", 0))
        if version not in (1, VERSION):
            raise CheckpointError(
                f"unsupported checkpoint version {version} in {path}"
            )
        try:
            if version == 1 and "coordinator" not in data:
                data = _unsharded_version_1(data)
            known = {f for f in cls.__dataclass_fields__}
            ck = cls(**{k: v for k, v in data.items() if k in known})
        except (KeyError, TypeError) as exc:
            raise CheckpointError(f"{path} is not a run checkpoint: {exc}") from exc
        if config_hash is not None and ck.config_hash != config_hash:
            run = "sharded run" if ck.coordinator else "run"
            raise CheckpointError(
                f"checkpoint {path} belongs to a different {run} "
                f"(hash {ck.config_hash} != {config_hash}); "
                "pass resume=False to overwrite it"
            )
        if horizon is not None and ck.horizon != horizon:
            raise CheckpointError(
                f"checkpoint {path} was taken for horizon {ck.horizon}, "
                f"requested {horizon}"
            )
        return ck


def _require_resumable(obj, role: str) -> None:
    if not (hasattr(obj, "state_dict") and hasattr(obj, "load_state_dict")):
        raise CheckpointError(
            f"{role} {type(obj).__name__} does not support checkpointing "
            "(needs state_dict()/load_state_dict())"
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
    a one-cell :class:`Checkpoint` is written atomically to *path*.
    With ``resume=True`` and a matching snapshot at *path*, the run
    continues from the snapshot's next slot; without one it falls back
    to a fresh start.  Resumed trajectories are bit-identical to an
    uninterrupted run's.

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
    config_hash = config_digest(
        {
            "seed": scenario.seeds.seed,
            "horizon": int(horizon),
            "budget": repr(budget),
            "controller": type(controller).__name__,
            "devices": scenario.network.num_devices,
            "v": getattr(controller, "v", None),
            "z": getattr(controller, "z", None),
        }
    )

    path = Path(path)
    completed = 0
    metrics: dict[str, list[float]] = {k: [] for k in TRAJECTORY_FIELDS}
    records: list = []
    stream = StateStream(scenario, tracer=tracer)
    if resume and path.exists():
        ck = Checkpoint.load(path, config_hash=config_hash, horizon=horizon)
        completed = int(ck.completed)
        metrics = {k: list(ck.metrics[0].get(k, [])) for k in TRAJECTORY_FIELDS}
        restore_carry(controller, stream, ck.carries[0])
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
        for key in TRAJECTORY_FIELDS:
            metrics[key].extend(getattr(part, key).tolist())
        if keep_records:
            records.extend(part.records)
        completed += count
        Checkpoint(
            config_hash=config_hash,
            horizon=horizon,
            completed=completed,
            carries=[build_carry(controller, stream)],
            metrics=[metrics],
        ).write(path, tracer)

    return SimulationResult(
        **{k: np.asarray(metrics[k], dtype=float) for k in TRAJECTORY_FIELDS},
        budget=budget,
        records=records,
    )
