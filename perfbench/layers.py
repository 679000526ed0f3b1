"""Per-layer numbers of the traced run, and the hooks that collect them.

The controller layers already report themselves: spans reach the
attached :class:`~repro.obs.probe.Probe` (``probe.phases`` keeps every
sample, so percentiles are exact) and kernel calls reach the
``repro_kernel_seconds`` histograms of the attached
:class:`~repro.obs.telemetry.MetricsRegistry`.  The fleet layer times
none of its own phases, so this module times it from outside: it wraps
the public parent-side methods of the resident runtime, the budget
coordinator and the registry merge for the duration of one run and
restores them afterwards.  Nothing under ``src/`` changes.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict

import numpy as np

from repro.core.budget import BudgetCoordinator
from repro.obs.probe import Probe
from repro.obs.telemetry import (
    MetricsRegistry,
    histogram_summaries,
    telemetry_context,
)
from repro.sim import replication, sharded
from repro.sim.shard_runtime import ResidentWorker, SharedStatePlanner

#: Controller phases, by span leaf name (``slot/bdma/p2a`` -> ``phase.p2a``).
PHASES = ("slot", "state", "bdma", "p2a", "cgba", "p2b", "allocation", "queue")
KERNELS = (
    "candidate_costs",
    "segment_first_min",
    "gap_sweep",
    "run_dynamics",
    "golden_quad",
)
FLEET = ("spawn", "shm_fill", "dispatch", "wait", "first_wait", "stop", "coordinate")
SETUP = ("scenario", "partition", "shard_scenarios")
COUNTERS = (
    "engine.candidate_evaluations",
    "engine.moves",
    "engine.sweeps",
    "engine.warm_start_hits",
    "bdma.rounds",
    "p2b.scalar_solves",
    "p2b.batch_iters",
)


class Recorder:
    """Wall-clock samples per layer name, plus plain event counts."""

    def __init__(self) -> None:
        self.samples: "dict[str, list[float]]" = defaultdict(list)
        self.events: "dict[str, int]" = defaultdict(int)

    @contextlib.contextmanager
    def span(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.samples[name].append(time.perf_counter() - start)


@contextlib.contextmanager
def _patched(replacements: "list[tuple[object, str, object]]"):
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in replacements]
    try:
        for owner, attr, new in replacements:
            setattr(owner, attr, new)
        yield
    finally:
        for owner, attr, old in originals:
            setattr(owner, attr, old)


def _timed(recorder: Recorder, name: str, fn):
    def wrapper(*args, **kwargs):
        with recorder.span(name):
            return fn(*args, **kwargs)

    return wrapper


@contextlib.contextmanager
def step_clock(stamps: "list[float]", recorder: "Recorder | None" = None):
    """Timestamp every :meth:`BudgetCoordinator.update` (one per epoch of
    a sharded run) into *stamps*; with a *recorder*, also time it."""
    update = BudgetCoordinator.update

    def observed(self, spends):
        if recorder is None:
            out = update(self, spends)
        else:
            with recorder.span("fleet.coordinate"):
                out = update(self, spends)
        stamps.append(time.perf_counter())
        return out

    with _patched([(BudgetCoordinator, "update", observed)]):
        yield


@contextlib.contextmanager
def fleet_hooks(recorder: Recorder):
    """Time the resident runtime's parent side, the registry merge and
    the per-cell scenario split for the duration of the block.

    ``fleet.first_wait`` is the first reply wait after each worker
    spawn (it includes the worker building its cell runtimes); it is a
    subset of ``fleet.wait``.
    """
    spawn, recv, respawn = (
        ResidentWorker.spawn,
        ResidentWorker.recv,
        ResidentWorker.respawn,
    )
    fresh: "set[int]" = set()

    def timed_spawn(self, *args, **kwargs):
        with recorder.span("fleet.spawn"):
            out = spawn(self, *args, **kwargs)
        fresh.add(id(self))
        return out

    def timed_recv(self, *args, **kwargs):
        first = id(self) in fresh
        fresh.discard(id(self))
        start = time.perf_counter()
        try:
            return recv(self, *args, **kwargs)
        finally:
            seconds = time.perf_counter() - start
            recorder.samples["fleet.wait"].append(seconds)
            if first:
                recorder.samples["fleet.first_wait"].append(seconds)

    def counted_respawn(self, *args, **kwargs):
        recorder.events["fleet.respawns"] += 1
        return respawn(self, *args, **kwargs)

    with _patched(
        [
            (ResidentWorker, "spawn", timed_spawn),
            (ResidentWorker, "recv", timed_recv),
            (ResidentWorker, "respawn", counted_respawn),
            (ResidentWorker, "send", _timed(recorder, "fleet.dispatch", ResidentWorker.send)),
            (ResidentWorker, "stop", _timed(recorder, "fleet.stop", ResidentWorker.stop)),
            (
                SharedStatePlanner,
                "fill",
                _timed(recorder, "fleet.shm_fill", SharedStatePlanner.fill),
            ),
            (
                MetricsRegistry,
                "merge_snapshot",
                _timed(recorder, "obs.merge", MetricsRegistry.merge_snapshot),
            ),
            (
                sharded,
                "shard_scenarios",
                _timed(recorder, "setup.shard_scenarios", sharded.shard_scenarios),
            ),
        ]
    ):
        yield


#: Key under which pooled replication workers ship their kernel
#: histograms home inside an outcome's ``phase_state``.
_KERNEL_SNAPSHOT = "perfbench_kernels"


@contextlib.contextmanager
def replication_kernel_hooks(registry: MetricsRegistry):
    """Collect pooled replication workers' kernel timings into *registry*.

    Pool workers are forked with a wrapper in place of ``_run_batch``:
    each seed batch runs under a telemetry context, and the batch's
    registry snapshot rides home in its first outcome's ``phase_state``,
    which the parent already receives.  The parent-side wrapper of
    :meth:`Probe.merge_phase_state` folds it into *registry* (the phase
    merge itself ignores the extra key).  Needs the ``fork`` start
    method; under ``spawn`` the kernel rows stay empty.  Enter it before
    :func:`fleet_hooks`, so this bookkeeping merge is not timed as
    ``obs.merge``.
    """
    run_batch = replication._run_batch
    merge_phase_state = Probe.merge_phase_state
    merge_snapshot = MetricsRegistry.merge_snapshot

    def instrumented(spec, seeds, trace_phases):
        worker_registry = MetricsRegistry()
        with telemetry_context(worker_registry):
            out = run_batch(spec, seeds, trace_phases)
        for _, outcome, _ in out:
            if outcome is not None and outcome.phase_state is not None:
                outcome.phase_state[_KERNEL_SNAPSHOT] = worker_registry.snapshot()
                break
        return out

    def merging(self, state, *, order=None):
        if state:
            merge_snapshot(registry, state.get(_KERNEL_SNAPSHOT))
        return merge_phase_state(self, state, order=order)

    with _patched(
        [
            (replication, "_run_batch", instrumented),
            (Probe, "merge_phase_state", merging),
        ]
    ):
        yield


def _timing(name: str, count: int, total: float, p50: float, p95: float) -> dict:
    return {
        f"{name}.count": count,
        f"{name}.total_s": total,
        f"{name}.p50_ms": 1e3 * p50,
        f"{name}.p95_ms": 1e3 * p95,
    }


def _from_samples(name: str, samples) -> dict:
    if not samples:
        return _timing(name, 0, 0.0, 0.0, 0.0)
    values = np.asarray(samples, dtype=np.float64)
    return _timing(
        name,
        int(values.size),
        float(values.sum()),
        float(np.percentile(values, 50)),
        float(np.percentile(values, 95)),
    )


def _kernel_rows(registry: "MetricsRegistry | None") -> dict:
    """Per-kernel histogram rows, summed over cells and backends.

    Series are relabelled to ``kernel=`` only and merged into a scratch
    registry, so the bucket quantiles cover every cell together.
    """
    if registry is None:
        return {}
    family = registry.snapshot()["histograms"].get("repro_kernel_seconds")
    if family is None:
        return {}
    series: dict = {}
    for labels, (counts, total, count) in family["series"].items():
        key = tuple(pair for pair in labels if pair[0] == "kernel")
        slot = series.setdefault(key, [[0] * len(counts), 0.0, 0])
        slot[0] = [a + b for a, b in zip(slot[0], counts)]
        slot[1] += total
        slot[2] += count
    scratch = MetricsRegistry()
    scratch.merge_snapshot(
        {"histograms": {"k": {"bounds": family["bounds"], "series": series}}}
    )
    return {row["labels"]["kernel"]: row for row in histogram_summaries(scratch, "k")}


def _self_seconds(spans: dict, parent: str) -> float:
    depth = parent.count("/") + 1
    children = sum(
        sum(values)
        for path, values in spans.items()
        if path.startswith(parent + "/") and path.count("/") == depth
    )
    return sum(spans.get(parent, ())) - children


def layer_metrics(
    *,
    probe,
    registry: "MetricsRegistry | None",
    recorder: Recorder,
    wall_s: float,
    failed_seeds: int = 0,
) -> dict:
    """Every per-layer metric of one traced run of *wall_s* seconds.

    ``obs.trace_overhead_pct`` needs the untraced median and is added by
    the caller.
    """
    spans = probe.phases.spans
    by_leaf: "dict[str, list[float]]" = defaultdict(list)
    for path, values in spans.items():
        by_leaf[path.rsplit("/", 1)[-1]].extend(values)
    out: dict = {}
    for name in SETUP:
        out.update(_from_samples(f"setup.{name}", recorder.samples.get(f"setup.{name}")))
    for name in PHASES:
        out.update(_from_samples(f"phase.{name}", by_leaf.get(name)))
    out["phase.slot.self_s"] = _self_seconds(spans, "slot")
    out["phase.bdma.self_s"] = _self_seconds(spans, "slot/bdma")
    rows = _kernel_rows(registry)
    for name in KERNELS:
        row = rows.get(name)
        out.update(
            _timing(f"kernel.{name}", row["count"], row["sum"], row["p50"], row["p95"])
            if row is not None
            else _timing(f"kernel.{name}", 0, 0.0, 0.0, 0.0)
        )
    slot_total = out["phase.slot.total_s"]
    kernel_total = sum(out[f"kernel.{name}.total_s"] for name in KERNELS)
    out["kernel.share"] = kernel_total / slot_total if slot_total > 0 else 0.0
    for name in FLEET:
        out.update(_from_samples(f"fleet.{name}", recorder.samples.get(f"fleet.{name}")))
    out["fleet.respawns"] = recorder.events.get("fleet.respawns", 0)
    out.update(_from_samples("obs.merge", recorder.samples.get("obs.merge")))
    counters = probe.phases.counters
    for name in COUNTERS:
        out[name] = int(counters.get(name, 0))
    rounds = out["bdma.rounds"]
    out["engine.warm_start_hit_rate"] = (
        out["engine.warm_start_hits"] / rounds if rounds else 0.0
    )
    sweeps = out["engine.sweeps"]
    out["engine.moves_per_sweep"] = out["engine.moves"] / sweeps if sweeps else 0.0
    fallbacks = int(counters.get("resilience.fallbacks", 0))
    out["resilience.fallback"] = fallbacks
    decided = out["phase.slot.count"]
    out["resilience.fallback_frac"] = fallbacks / decided if decided else 0.0
    out["replication.retries"] = int(counters.get("resilience.retries", 0))
    out["replication.failed_seeds"] = int(failed_seeds)
    # Shares of the traced run's wall time; worker-side phases are
    # summed over processes, so phase coverage can exceed 1.
    out["phase.slot.coverage"] = slot_total / wall_s
    out["fleet.coverage"] = (
        sum(
            out[f"{name}.total_s"]
            for name in (
                "fleet.wait",
                "fleet.shm_fill",
                "fleet.dispatch",
                "fleet.coordinate",
                "obs.merge",
            )
        )
        / wall_s
    )
    return out
