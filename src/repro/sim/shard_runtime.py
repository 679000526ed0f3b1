"""Worker handles for cells and seed groups: state lives where it runs.

A worker answers one command protocol (:func:`_answer`) against the
runtime its init payload names: a :class:`_WorkerRuntime` for a sharded
run's cells (``epoch`` / ``pull`` / ``load`` / ``replay`` / ``finish``,
the default), or replication's seed runtime (``seeds``).  The parent
loops of :mod:`repro.sim.sharded` and :mod:`repro.sim.replication`
speak it through one of two interchangeable handles:

* :class:`CellRuntime` -- one cell's long-lived execution state: the
  controller (built once, strategy-space cache kept hot), its
  :class:`~repro.sim.scenario.StateStream` (generator, state rng and
  fault-plan cursor), the per-cell probe/monitor suite.  Controllers
  advance in place for the whole run; carry state is serialized only on
  ``pull`` (checkpoint/salvage) and ``load``/``replay``
  (resume/rebuild).
* :class:`_WorkerRuntime` -- everything one worker owns for its pinned
  cells.  Per epoch it receives only ``(slot range, budget shares,
  shared-state buffer index)`` and returns compact deltas (metric
  lists, a telemetry
  :meth:`~repro.obs.telemetry.MetricsRegistry.flush_delta` of the
  series the epoch touched, new monitor alerts).
* :class:`InProcessWorker` -- the sequential transport: one runtime
  (for a sharded run, over every cell), answering commands by direct
  call.  No process, no pickling; an exception propagates unchanged.
* :class:`ResidentWorker` -- the pooled transport: a long-lived worker
  process (``_worker_main``) with command round-trips over a pipe, a
  heartbeat-aware silence deadline (the hung-worker watchdog: workers
  ping between cells, so a stuck worker -- not just a dead one -- blows
  the deadline and is killed), and kill/respawn for the salvage path.
* :class:`SharedStatePlanner` -- the pooled epoch pipeline: it owns
  each cell's live state stream, compiles epoch ``e + 1``'s slot states
  into double-buffered :class:`~repro.kernels.shm.SharedStateBlock`
  struct-of-arrays segments while the workers are still solving epoch
  ``e``, and the workers map them zero-copy
  (:meth:`~repro.core.state.SlotState.trusted` views over shared
  memory).

Bit-identity: every byte of cross-slot state is either deterministic in
the slot index or an exactly-captured rng stream, so a worker rebuilt
after a crash can *replay* its cells from slot 0 (or from the last
pulled carry) under the recorded per-epoch budget shares and land in
exactly the state the dead worker held -- the same argument the
checkpoint layer proves for resume, applied per cell.
"""

from __future__ import annotations

import logging
import multiprocessing as mp
from typing import TYPE_CHECKING

import numpy as np

from repro.core.budget import CoordinatedBudget
from repro.core.state import SlotState
from repro.kernels.shm import SharedStateBlock
from repro.obs.monitors import BudgetDriftMonitor, MonitorSuite, default_monitors
from repro.obs.probe import Probe
from repro.obs.telemetry import MetricsRegistry, TelemetrySink, telemetry_context
from repro.sim.checkpoint import build_carry, restore_carry
from repro.sim.engine import run_simulation
from repro.sim.results import TRAJECTORY_FIELDS
from repro.sim.scenario import Scenario, StateStream

if TYPE_CHECKING:
    from repro.api import RunConfig

logger = logging.getLogger(__name__)

__all__ = [
    "CellRuntime",
    "InProcessWorker",
    "ResidentWorker",
    "SharedStatePlanner",
    "WorkerFailure",
]

def _mp_context():
    """Fork when the platform has it (fast spawn, no import re-exec);
    the default start method otherwise."""
    methods = mp.get_all_start_methods()
    return mp.get_context("fork" if "fork" in methods else None)


class WorkerFailure(RuntimeError):
    """A resident worker died, timed out, or reported a command error.

    Args:
        hung: The failure was a heartbeat-silence timeout -- the worker
            process is (probably) still alive but stuck, as opposed to
            dead or erroring.  The parent's salvage path is identical
            either way (kill, respawn, replay); the flag only feeds
            the ``shard.worker_hung`` observability trail.
    """

    def __init__(self, message: str, *, hung: bool = False) -> None:
        super().__init__(message)
        self.hung = bool(hung)


class CellRuntime:
    """One cell's execution state, advanced in place epoch by epoch.

    Same controller construction (same rng stream labels, same
    telemetry context), same continuing state stream, same fault-plan
    cursor wherever it lives, so a run driven through :meth:`run_epoch`
    is bit-identical whether the runtime sits in the parent or inside a
    resident worker.

    Args:
        cell: Cell index (labels telemetry/monitors).
        scenario: The cell's scenario, drawn through one
            :class:`~repro.sim.scenario.StateStream` (its optional
            ``fault_plan`` is applied from the plan's own stream).  With
            shared-memory states the parent owns the live stream and
            passes each epoch's states in; the runtime's own stream is
            then only the replay/salvage base.
        config: The run's :class:`repro.api.RunConfig`; the cell builds
            its controller from ``controller``/``v``/``z``/
            ``engine.backend``/``controller_params`` and, with
            ``obs.monitors``, its default monitor suite.
        budget: The cell's initial budget share.
    """

    def __init__(
        self,
        cell: int,
        scenario: Scenario,
        config: "RunConfig",
        *,
        budget: float,
        probe: "Probe | None" = None,
        registry: "MetricsRegistry | None" = None,
    ) -> None:
        from repro.api import make_controller

        self.cell = int(cell)
        self.probe = probe
        self.suite: "MonitorSuite | None" = None
        self._budget_monitor: "BudgetDriftMonitor | None" = None
        if config.obs.monitors:
            suite = default_monitors(budget=float(budget), network=scenario.network)
            self.suite = MonitorSuite(suite, labels={"cell": self.cell}).attach(probe)
            self._budget_monitor = next(
                m for m in suite if isinstance(m, BudgetDriftMonitor)
            )
        # Sum of share x slots, and slots, over the epochs run here.
        self._share_slots = 0.0
        self._slots = 0
        self.schedule = CoordinatedBudget(float(budget))
        with telemetry_context(registry, {"cell": self.cell}):
            self.controller = make_controller(
                config.controller,
                scenario,
                v=config.v,
                z=config.z,
                budget=self.schedule,
                tracer=probe,
                engine_backend=config.engine.backend,
                **dict(config.controller_params),
            )
        self.stream = StateStream(scenario, tracer=probe)
        self._alerts_shipped = 0

    def run_epoch(
        self, start: int, count: int, budget: float, states=None
    ) -> "tuple[dict, float]":
        """Advance the cell *count* slots under *budget*; return the
        segment's metric lists and its mean spend.

        *states* are the epoch's shared-memory states when the parent
        owns the stream (only for cells without a fault plan); the
        cell's own :class:`~repro.sim.scenario.StateStream` otherwise.
        """
        self.schedule.set(float(budget))
        if self._budget_monitor is not None:
            # The coordinator re-splits every epoch: judge the cell
            # against the slot-weighted mean of the shares it ran under.
            self._share_slots += float(budget) * count
            self._slots += count
            self._budget_monitor.budget = self._share_slots / self._slots
        if states is None:
            states = self.stream.take(start, count)
        part = run_simulation(self.controller, states, tracer=self.probe)
        metrics = {k: getattr(part, k).tolist() for k in TRAJECTORY_FIELDS}
        return metrics, float(part.time_average_cost())

    # -- carry (checkpoint / salvage only; never per epoch) ---------------

    def carry(self) -> dict:
        return build_carry(self.controller, self.stream)

    def load_carry(self, carry: dict) -> None:
        restore_carry(self.controller, self.stream, carry)

    # -- monitor alert shipping -------------------------------------------

    def new_alerts(self) -> "list[dict]":
        """Alerts raised since the last call (shipped per epoch)."""
        if self.suite is None:
            return []
        alerts = self.suite.alerts
        fresh = alerts[self._alerts_shipped :]
        self._alerts_shipped = len(alerts)
        return [a.to_dict() for a in fresh]

    def mark_alerts_shipped(self) -> None:
        """Swallow replayed-epoch alerts (the parent already saw them
        live from the worker that died)."""
        if self.suite is not None:
            self._alerts_shipped = len(self.suite.alerts)


# -- the worker process ----------------------------------------------------


class _WorkerRuntime:
    """Everything one resident worker owns for its pinned cells."""

    def __init__(self, payload: dict) -> None:
        #: Installed by ``_worker_main`` (which owns the pipe) when the
        #: parent armed a watchdog: called between cells so the
        #: watchdog sees progress.
        self.heartbeat = None
        self.cells: "list[int]" = list(payload["cells"])
        self.trace_phases: bool = payload["trace_phases"]
        telemetry: bool = payload["telemetry"]
        config = payload["config"]
        self.registry = MetricsRegistry() if telemetry else None
        self.blocks: "dict[int, SharedStateBlock]" = {}
        for c, descriptor in (payload.get("shared") or {}).items():
            self.blocks[c] = SharedStateBlock.attach(descriptor)
        want_probe = self.trace_phases or telemetry or config.obs.monitors
        self.runtimes: "dict[int, CellRuntime]" = {}
        for c in self.cells:
            probe = Probe() if want_probe else None
            if probe is not None and not self.trace_phases:
                probe._without_phases()  # nobody reads the phase state
            if self.registry is not None:
                probe.add_sink(TelemetrySink(self.registry, labels={"cell": c}))
            self.runtimes[c] = CellRuntime(
                c,
                payload["scenarios"][c],
                config,
                budget=payload["initial_budgets"][c],
                probe=probe,
                registry=self.registry,
            )

    def _block_states(self, cell: int, buffer: int, start: int, count: int):
        arrays = self.blocks[cell].arrays(buffer)
        cycles = arrays["cycles"]
        bits = arrays["bits"]
        se = arrays["se"]
        price = arrays["price"]
        for j in range(count):
            yield SlotState.trusted(
                t=start + j,
                cycles=cycles[j],
                bits=bits[j],
                spectral_efficiency=se[j],
                price=float(price[j]),
            )

    def _beat(self) -> None:
        if self.heartbeat is not None:
            self.heartbeat()

    def run_epoch(self, data: dict) -> dict:
        start, count = data["start"], data["count"]
        buffer = data.get("buffer")
        budgets = data["budgets"]
        cells_out = {}
        for c in self.cells:
            self._beat()
            runtime = self.runtimes[c]
            states = (
                self._block_states(c, buffer, start, count)
                if buffer is not None and c in self.blocks
                else None
            )
            metrics, spend = runtime.run_epoch(
                start, count, budgets[c], states=states
            )
            out = {"metrics": metrics, "spend": spend}
            if runtime.suite is not None:
                out["alerts"] = runtime.new_alerts()
            cells_out[c] = out
        reply = {"cells": cells_out}
        if self.registry is not None:
            reply["telemetry"] = self.registry.flush_delta()
        return reply

    def pull(self) -> dict:
        return {c: self.runtimes[c].carry() for c in self.cells}

    def load(self, data: dict) -> None:
        for c, carry in data["carries"].items():
            self.runtimes[c].load_carry(carry)

    def replay(self, data: dict) -> None:
        """Re-run recorded epochs to rebuild in-place state (salvage).

        Metrics are discarded (the parent kept the originals), the
        telemetry delta is swallowed (the dead worker already shipped
        those epochs), and replayed alerts are marked shipped -- only
        the cross-slot state matters, and it lands bit-identical
        because every input (budgets, streams) is the recorded one.
        """
        for start, count, budgets in data["epochs"]:
            self._beat()
            for c in self.cells:
                self.runtimes[c].run_epoch(start, count, budgets[c])
        if self.registry is not None:
            self.registry.flush_delta(swallow=True)
        for runtime in self.runtimes.values():
            runtime.mark_alerts_shipped()

    def finish(self) -> dict:
        out = {}
        for c in self.cells:
            runtime = self.runtimes[c]
            cell: dict = {}
            if runtime.suite is not None:
                report = runtime.suite.finish()
                cell["statuses"] = [
                    {
                        "name": s.name,
                        "status": s.status,
                        "detail": s.detail,
                        "alerts": s.alerts,
                    }
                    for s in report.statuses
                ]
                cell["alerts"] = [a.to_dict() for a in report.alerts]
            if self.trace_phases and runtime.probe is not None:
                cell["phase_state"] = runtime.probe.phases.state_dict()
            out[c] = cell
        reply = {"cells": out}
        if self.registry is not None:
            # End-of-run monitor checks count into the registry after
            # the last epoch's delta shipped; flush the remainder.
            reply["telemetry"] = self.registry.flush_delta()
        return reply

    def close(self) -> None:
        for block in self.blocks.values():
            block.close()


def _answer(runtime, command: str, data: "dict | None"):
    """Answer one protocol command; both worker transports call this."""
    if command == "seeds":
        return runtime.run_seeds(data)
    if command == "epoch":
        return runtime.run_epoch(data)
    if command == "pull":
        return runtime.pull()
    if command == "load":
        return runtime.load(data)
    if command == "replay":
        return runtime.replay(data)
    if command == "finish":
        return runtime.finish()
    raise ValueError(f"unknown command {command!r}")


def _worker_main(conn, payload: dict) -> None:
    """Resident worker loop: build once, answer commands until stopped."""
    try:
        runtime = payload.get("runtime", _WorkerRuntime)(payload)
    except BaseException as exc:  # noqa: BLE001 - ship init failures home
        try:
            conn.send(("error", {"stage": "init", "error": repr(exc)}))
        except Exception:
            pass
        return

    def heartbeat() -> None:
        # Progress pings between cells: the parent's recv() swallows
        # them and resets its silence timer, so a slow-but-alive epoch
        # never trips the watchdog while a hung worker does.
        try:
            conn.send(("hb", None))
        except Exception:
            pass  # parent gone; the command loop will notice

    # Without a silence deadline nobody reads the pings: skip the pipe
    # write (and the parent's wake-up) per cell.
    if payload.get("watchdog"):
        runtime.heartbeat = heartbeat
    try:
        while True:
            try:
                command, data = conn.recv()
            except (EOFError, OSError):
                break
            if command == "stop":
                break
            try:
                conn.send(("ok", _answer(runtime, command, data)))
            except BaseException as exc:  # noqa: BLE001 - report, then die
                # In-place state may be mid-epoch (poisoned); the parent
                # kills and rebuilds this worker rather than reusing it.
                try:
                    conn.send(
                        ("error", {"cmd": command, "error": repr(exc)})
                    )
                except Exception:
                    pass
                break
    finally:
        runtime.close()
        try:
            conn.close()
        except Exception:
            pass


# -- the parent-side handles -----------------------------------------------


class InProcessWorker:
    """Parent handle that answers the worker protocol in-process.

    Owns the runtime its payload names and speaks the same
    ``send`` / ``recv`` / ``call`` / ``stop`` as :class:`ResidentWorker`,
    so the sharded epoch loop and the replication loop drive both
    alike.  Commands run on ``send``; an exception propagates unchanged
    (never a :class:`WorkerFailure`), so a sequential run raises the
    first solver error instead of salvaging.
    """

    process = None

    def __init__(self, index: int, cells: "list[int]", payload: dict) -> None:
        self.index = int(index)
        self.cells = list(cells)
        self._runtime = payload.get("runtime", _WorkerRuntime)(payload)
        self._reply = None

    def send(self, command: str, data: "dict | None" = None) -> None:
        self._reply = _answer(self._runtime, command, data)

    def recv(self, timeout: "float | None" = None):
        reply, self._reply = self._reply, None
        return reply

    def call(self, command: str, data: "dict | None" = None,
             timeout: "float | None" = None):
        self.send(command, data)
        return self.recv(timeout)

    def stop(self) -> None:
        self._runtime.close()


class ResidentWorker:
    """Parent handle for one resident worker process.

    The init *payload* (for cells: scenarios, controller recipe, initial
    budget shares, shared-block descriptors; for seeds: the replication
    spec) is kept so :meth:`respawn` can rebuild a dead worker
    identically; the sharded salvage path then replays it back to the
    current slot.
    """

    def __init__(self, index: int, cells: "list[int]", payload: dict, ctx=None) -> None:
        self.index = int(index)
        self.cells = list(cells)
        self._payload = payload
        self._ctx = ctx if ctx is not None else _mp_context()
        self.process = None
        self.conn = None
        self.spawn()

    def spawn(self) -> None:
        parent_conn, child_conn = self._ctx.Pipe()
        self.process = self._ctx.Process(
            target=_worker_main, args=(child_conn, self._payload), daemon=True
        )
        self.process.start()
        child_conn.close()
        self.conn = parent_conn

    def send(self, command: str, data: "dict | None" = None) -> None:
        try:
            self.conn.send((command, data))
        except (BrokenPipeError, OSError) as exc:
            raise WorkerFailure(
                f"worker {self.index}: pipe broken sending {command!r}: {exc}"
            ) from exc

    def recv(self, timeout: "float | None" = None):
        """Wait for the next reply, heartbeat-aware.

        *timeout* is a **silence** deadline, not a total-reply one:
        workers send ``("hb", None)`` pings as they progress through
        their cells, every ping restarts the timer, and only a worker
        silent for a full *timeout* raises -- with ``hung=True``, since
        a worker that stopped talking without closing the pipe is
        stuck, not dead (a dead worker's closed pipe raises EOF
        immediately instead).
        """
        try:
            while True:
                if timeout is not None and not self.conn.poll(timeout):
                    raise WorkerFailure(
                        f"worker {self.index}: watchdog: no heartbeat or "
                        f"reply within {timeout}s",
                        hung=True,
                    )
                status, payload = self.conn.recv()
                if status != "hb":
                    break
        except WorkerFailure:
            raise
        except (EOFError, OSError, ConnectionError) as exc:
            raise WorkerFailure(f"worker {self.index} died: {exc}") from exc
        if status != "ok":
            raise WorkerFailure(f"worker {self.index} failed: {payload}")
        return payload

    def call(self, command: str, data: "dict | None" = None,
             timeout: "float | None" = None):
        self.send(command, data)
        return self.recv(timeout)

    def kill(self) -> None:
        if self.conn is not None:
            try:
                self.conn.close()
            except Exception:
                pass
            self.conn = None
        if self.process is not None:
            if self.process.is_alive():
                self.process.kill()
            self.process.join(timeout=5)
            self.process = None

    def respawn(self) -> None:
        """Replace a dead worker with a fresh one (state at slot 0)."""
        self.kill()
        self.spawn()

    def stop(self) -> None:
        """Graceful shutdown; falls back to kill."""
        try:
            if self.conn is not None:
                self.send("stop")
        except WorkerFailure:
            pass
        if self.process is not None:
            self.process.join(timeout=5)
        self.kill()


# -- parent-side shared-state pipeline -------------------------------------


class SharedStatePlanner:
    """Owns the live per-cell state streams and fills shared blocks.

    The parent draws each epoch's slot states exactly the way a
    worker's own stream would (same generator calls, same rng consumption)
    and writes them into per-cell double-buffered struct-of-arrays
    blocks; workers map the blocks zero-copy.  Buffer ``e % 2`` holds
    epoch ``e``, so filling epoch ``e + 1`` never races the workers
    still reading epoch ``e``, and the fill for ``e + 2`` only starts
    after ``e``'s results were collected.
    """

    #: Slot-state fields materialised per cell (optional arrays --
    #: fronthaul/availability -- are unsupported; see :meth:`supported`).
    _BUFFERS = 2

    def __init__(self, scenarios: "list[Scenario]", *, epoch: int) -> None:
        self.scenarios = scenarios
        self.blocks: "dict[int, SharedStateBlock]" = {}
        self.rngs = {}
        # Boundary stream states captured at each fill: the pipelined
        # fill of epoch ``e + 1`` advances the live stream past the
        # carry pull at the end of epoch ``e``, so carries must read
        # the state snapshotted when ``e`` itself was compiled.  Kept
        # raw -- (positions, model states, rng state) per cell -- since
        # only checkpoint writes read them (see :meth:`stream_state`).
        self._boundaries: "dict[int, dict[int, tuple]]" = {}
        for c, sc in enumerate(scenarios):
            devices = sc.network.num_devices
            stations = sc.network.num_base_stations
            self.blocks[c] = SharedStateBlock.create(
                {
                    "cycles": ((epoch, devices), np.float64),
                    "bits": ((epoch, devices), np.float64),
                    "se": ((epoch, devices, stations), np.float64),
                    "price": ((epoch,), np.float64),
                },
                buffers=self._BUFFERS,
            )
            sc.generator.reset()
            self.rngs[c] = sc.state_rng()

    @staticmethod
    def supported(scenarios: "list[Scenario]") -> bool:
        """Whether every cell's states fit the fixed-field layout.

        A fronthaul model emits optional per-slot arrays the
        struct-of-arrays blocks do not carry, and a fault plan must
        wrap the stream inside the worker (its components build new
        states); those compositions fall back to worker-side drawing.
        """
        for sc in scenarios:
            if sc.generator.fronthaul is not None or sc.fault_plan:
                return False
        return True

    def descriptors(self) -> dict:
        return {c: block.descriptor() for c, block in self.blocks.items()}

    def fill(self, epoch_index: int, start: int, count: int) -> int:
        """Compile slots ``[start, start + count)`` for every cell into
        the epoch's buffer; returns the buffer index workers read.

        Also snapshots the end-of-epoch stream state (generator + rng)
        under *epoch_index* for :meth:`stream_state`; only the last two
        boundaries are kept (the double buffer's working set).
        """
        buffer = epoch_index % self._BUFFERS
        boundary = {}
        for c, sc in enumerate(self.scenarios):
            arrays = self.blocks[c].arrays(buffer)
            stream = sc.generator.compile_states(count, self.rngs[c], start=start)
            for j, state in enumerate(stream):
                arrays["cycles"][j] = state.cycles
                arrays["bits"][j] = state.bits
                arrays["se"][j] = state.spectral_efficiency
                arrays["price"][j] = state.price
            boundary[c] = (
                sc.generator.positions,
                sc.generator.model_states(),
                self.rngs[c].bit_generator.state,
            )
        self._boundaries[epoch_index] = boundary
        for old in [k for k in self._boundaries if k < epoch_index - 1]:
            del self._boundaries[old]
        return buffer

    # -- stream state for carries (the parent owns the live stream) -------

    def stream_state(self, cell: int, epoch_index: int) -> dict:
        """The stream state as of the *end* of epoch *epoch_index* --
        i.e. the boundary captured when that epoch's states compiled,
        immune to the fill-ahead having advanced the live stream.

        Same dict as :meth:`StateGenerator.state_dict` would have given
        at the fill, built here rather than per fill."""
        positions, models, state_rng = self._boundaries[epoch_index][cell]
        return {
            "generator": {"positions": positions.tolist(), "models": models},
            "state_rng": state_rng,
        }

    def load_stream_state(self, cell: int, carry: dict) -> None:
        self.scenarios[cell].generator.load_state_dict(carry["generator"])
        self.rngs[cell].bit_generator.state = carry["state_rng"]

    def close(self) -> None:
        for block in self.blocks.values():
            block.close()
