"""Chaos smoke: the resilience layer's two core promises, end to end.

The CI ``chaos-smoke`` job runs this script.  It asserts, on a seeded
scenario with a composed :class:`~repro.sim.faults.FaultPlan` (fronthaul
degradation, price-feed dropouts, base-station and server outages) plus
injected solver failures on a fixed fraction of slots:

1. **Never-abort**: the degraded-mode controller decides every slot --
   the fallback chain serves the chaos-tripped slots, every trajectory
   entry is finite, and the ``resilience.*`` counters account for the
   injected failures.
2. **Bit-identical resume**: a run that checkpoints, is killed mid-way,
   and resumes from the snapshot in a fresh controller/scenario
   reproduces the uninterrupted run's latency/cost/backlog trajectories
   and final virtual queue exactly (no tolerance).
3. **Chaos at scale**: a 4-cell resident-runtime run under a fault plan
   whose base-station outage spans every cell, with the same solver
   chaos rate *plus* a hung worker (stopped with SIGSTOP before an
   epoch command reaches it, through a patched
   :meth:`~repro.sim.shard_runtime.ResidentWorker.send`), is detected
   by the heartbeat watchdog, salvaged by replay, and ends
   bit-identical to the undisturbed sharded run.

Run directly: ``python benchmarks/chaos_smoke.py``.
"""

from __future__ import annotations

import contextlib
import os
import signal
import sys
from pathlib import Path
from tempfile import TemporaryDirectory

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))

from _common import emit  # noqa: E402

import repro  # noqa: E402
from repro.core.resilience import ResiliencePolicy, SolverChaos  # noqa: E402
from repro.sim.checkpoint import run_checkpointed  # noqa: E402
from repro.sim.faults import (  # noqa: E402
    BaseStationOutages,
    FaultPlan,
    FronthaulDegradation,
    MarkovOutages,
    PriceFeedDropouts,
    ScriptedIncident,
    ServerOutages,
)

SEED = 7
HORIZON = 48
DEVICES = 12
CHAOS_RATE = 0.15  # >= 10% of slots lose their primary solver


def make_plan() -> FaultPlan:
    return FaultPlan(
        faults=(
            ServerOutages(MarkovOutages(mtbf_slots=40.0, mttr_slots=3.0)),
            BaseStationOutages(mtbf_slots=60.0, mttr_slots=2.0),
            FronthaulDegradation(mtbf_slots=30.0, mttr_slots=5.0, factor=0.3),
            PriceFeedDropouts(mtbf_slots=25.0, mttr_slots=3.0),
        )
    )


def make_scenario() -> repro.Scenario:
    return repro.make_paper_scenario(
        seed=SEED,
        config=repro.ScenarioConfig(num_devices=DEVICES),
        fault_plan=make_plan(),
    )


def make_controller(
    scenario: repro.Scenario, tracer=None
) -> repro.DPPController:
    return repro.DPPController(
        scenario.network,
        scenario.controller_rng("chaos-smoke"),
        v=100.0,
        budget=scenario.budget,
        z=2,
        resilience=ResiliencePolicy(
            chaos=SolverChaos(failure_rate=CHAOS_RATE, seed=11)
        ),
        tracer=tracer,
    )


class _CounterSink:
    def __init__(self) -> None:
        self.counters: dict[str, float] = {}
        self.events: set[str] = set()
        self.fallback_slots = 0
        self.slots = 0

    def emit(self, event: dict) -> None:
        if event["kind"] == "counter":
            name = event["name"]
            self.counters[name] = self.counters.get(name, 0.0) + event["value"]
        elif event["kind"] == "event":
            self.events.add(event["name"])
            if event["name"] == "slot":
                self.slots += 1
                if event["data"].get("fallback", "primary") != "primary":
                    self.fallback_slots += 1

    def close(self) -> None:
        pass


def check_never_abort() -> list[str]:
    sink = _CounterSink()
    probe = repro.obs.Probe([sink])
    scenario = make_scenario()
    controller = make_controller(scenario, tracer=probe)
    result = repro.run_simulation(
        controller,
        scenario.fresh_compiled_states(HORIZON, tracer=probe),
        budget=scenario.budget,
        tracer=probe,
    )
    assert result.horizon == HORIZON, "a slot was skipped"
    assert np.isfinite(result.latency).all() and np.isfinite(result.cost).all()
    fallbacks = sink.counters.get("resilience.fallbacks", 0.0)
    faults = sink.counters.get("resilience.faults", 0.0)
    assert sink.fallback_slots >= 1, "chaos never tripped"
    assert fallbacks == sink.fallback_slots
    assert faults > 0, "fault plan injected nothing"
    return [
        f"never-abort: {HORIZON} slots decided, "
        f"{sink.fallback_slots} via fallback, {faults:.0f} fault events",
        "counters: "
        + " ".join(
            f"{k.removeprefix('resilience.')}={v:.0f}"
            for k, v in sorted(sink.counters.items())
            if k.startswith("resilience.")
        ),
    ]


class _Kill(Exception):
    pass


def check_resume_equality() -> list[str]:
    base = repro.run_simulation(
        make_controller(make_scenario()),
        make_scenario().fresh_compiled_states(HORIZON),
        budget=None,
    )
    kill_at = HORIZON // 2 + 3
    with TemporaryDirectory() as tmp:
        path = Path(tmp) / "chaos.ckpt"
        seen = {"n": 0}

        def killer(record) -> None:
            seen["n"] += 1
            if seen["n"] == kill_at:
                raise _Kill

        try:
            run_checkpointed(
                make_scenario(),
                make_controller(make_scenario()),
                horizon=HORIZON,
                path=path,
                every=8,
                on_slot=killer,
            )
            raise AssertionError("kill never fired")
        except _Kill:
            pass
        resumed = run_checkpointed(
            make_scenario(),
            make_controller(make_scenario()),
            horizon=HORIZON,
            path=path,
            every=8,
            resume=True,
        )
    assert np.array_equal(base.latency, resumed.latency), "latency diverged"
    assert np.array_equal(base.cost, resumed.cost), "cost diverged"
    assert np.array_equal(base.backlog, resumed.backlog), "backlog diverged"
    assert base.backlog[-1] == resumed.backlog[-1]
    return [
        f"resume: killed at slot {kill_at}, resumed from snapshot; "
        f"{HORIZON}-slot trajectories bit-identical "
        f"(final Q = {resumed.backlog[-1]:.6f})"
    ]


def make_metro_scenario() -> repro.Scenario:
    """A 4-cell-able metro topology under a cell-spanning fault plan."""
    return repro.make_paper_scenario(
        seed=SEED,
        config=repro.ScenarioConfig(num_devices=20),
        num_base_stations=4,
        num_macro_stations=4,
        wireless_fronthaul_fraction=1.0,
        num_clusters=4,
        servers_per_cluster=2,
        fault_plan=FaultPlan(
            faults=(
                BaseStationOutages(mtbf_slots=60.0, mttr_slots=2.0),
                PriceFeedDropouts(mtbf_slots=25.0, mttr_slots=3.0),
            ),
            schedule=[
                # One scripted outage covering every base station, so
                # the incident projects into all four cells at once.
                ScriptedIncident(
                    at=4, duration=3, kind="bs_down", targets=(0, 1, 2, 3)
                )
            ],
        ),
    )


@contextlib.contextmanager
def hang_once(worker: int, epoch: int):
    """Inside the block, resident worker *worker* is stopped with SIGSTOP
    right before its *epoch*-th epoch command is sent (through a patched
    :meth:`ResidentWorker.send`): it never reads the command, so only
    the heartbeat watchdog can catch it.  Fires once; the yielded dict's
    ``"fired"`` says whether it did."""
    from repro.sim.shard_runtime import ResidentWorker

    send = ResidentWorker.send
    state = {"sent": 0, "fired": False}

    def hanging(self, command, data=None) -> None:
        if command == "epoch" and self.index == worker and not state["fired"]:
            if state["sent"] == epoch:
                state["fired"] = True
                os.kill(self.process.pid, signal.SIGSTOP)
            state["sent"] += 1
        send(self, command, data)

    ResidentWorker.send = hanging
    try:
        yield state
    finally:
        ResidentWorker.send = send


def check_sharded_chaos() -> list[str]:
    from repro import sharding

    resilience = ResiliencePolicy(
        chaos=SolverChaos(failure_rate=CHAOS_RATE, seed=11)
    )
    cells = sharding.partition_cells(
        make_metro_scenario().network, 4, rng=np.random.default_rng(3)
    )
    undisturbed = sharding.run_sharded(
        make_metro_scenario(),
        horizon=HORIZON,
        cells=cells,
        epoch=12,
        resilience=resilience,
    )
    sink = _CounterSink()
    ctrl = sharding.ShardedController(
        make_metro_scenario(),
        repro.RunConfig(
            cells=repro.CellConfig(
                count=cells.num_cells, processes=2, epoch=12,
                timeout_seconds=5.0,
            ),
            controller_params={"resilience": resilience},
        ),
        plan=cells,
        tracer=repro.obs.Probe([sink]),
    )
    with hang_once(worker=0, epoch=1) as hang:
        salvaged = ctrl.run(HORIZON)
    assert hang["fired"], "the hang was never injected"
    assert sink.counters.get("resilience.worker_hangs") == 1, sink.counters
    assert "shard.worker_hung" in sink.events, "the watchdog missed the hang"
    for name in ("latency", "cost", "theta", "backlog", "price"):
        assert np.array_equal(
            getattr(undisturbed.merged, name), getattr(salvaged.merged, name)
        ), f"{name} diverged after hang salvage"
    assert np.array_equal(undisturbed.budgets, salvaged.budgets)
    return [
        f"sharded chaos: {cells.num_cells} cells x resident runtime, "
        f"cell-spanning BS outage, {CHAOS_RATE:.0%} solver chaos; hung "
        "worker detected by the heartbeat watchdog and salvaged "
        "bit-identical"
    ]


def main() -> int:
    lines = ["chaos smoke (seed %d, horizon %d, chaos %.0f%%)"
             % (SEED, HORIZON, CHAOS_RATE * 100)]
    lines += check_never_abort()
    lines += check_resume_equality()
    lines += check_sharded_chaos()
    emit("chaos_smoke", "\n".join(lines))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
