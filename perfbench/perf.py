"""The perf harness: named workloads, end-to-end metrics, a traced breakdown.

Usage (from the repository root)::

    python3 perfbench/perf.py run [--workload NAME ...] [--seed N]
        [--seconds S] [--trace 0|1] [--smoke] [--out FILE] [--pins FILE]
    python3 perfbench/perf.py compare BASE.json OTHER.json [MORE.json ...]
    python3 perfbench/perf.py pin [--workload NAME ...]

``run`` measures each named workload (all of them by default).  Every
timed repeat runs in a fresh subprocess with single-threaded BLAS, and
repeats start one after another until ``--seconds`` have passed (at
least three).  Each repeat's trajectory fingerprint is checked against
the one pinned in ``pins.json`` (at ``--seed 0``) or against the other
repeats (at any other seed).  ``--trace 1`` adds one traced repeat that
collects the per-layer numbers.  Times are scaled to a reference speed
measured between repeats (see :func:`reference_seconds` and
``perfbench/README.md``).  The table lists every metric with its unit,
median and quartiles; the result file (``--out``) holds them all; the
last line of output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

whose metrics are the end-to-end ones of ``BENCHMARK.json`` (or, with
``--trace 1``, its per-layer ones).  ``attempted``/``failed`` count
simulated slots; a repeat that raised, missed its deadline, failed an
invariant or mismatched a fingerprint or a pinned count fails all its
slots.

``compare`` applies ``BENCHMARK.json``'s bounds to result files, the
first being the baseline.  ``pin`` re-records ``pins.json`` at seed 0.
"""

from __future__ import annotations

import os

# Every BLAS pool single-threaded, before anything can import numpy.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"
SPEC_PATH = ROOT / "BENCHMARK.json"
PINS_PATH = HERE / "pins.json"
DEFAULT_OUT = BUILD / "perf-result.json"

MIN_REPEATS = 3
MAX_REPEATS = 40
#: The speed reference (see :func:`reference_seconds`): a fixed
#: pure-Python loop, and its time on a quiet machine of the kind the
#: bounds were set on (a 2-vCPU VM, Python 3.11), so that scaled times
#: read like wall-clock times there.
REFERENCE_LOOPS = 400_000
REFERENCE_S = 0.030
#: A repeat may take this many times its pinned completion time (plus
#: a fixed allowance for a slow interpreter start) before it is killed.
DEADLINE_FACTOR = 5.0
DEADLINE_SLACK_S = 10.0
DEADLINE_CAP_S = 150.0


# -- environment ------------------------------------------------------------


def _bootstrap() -> None:
    """Point this process and its children at the checkout's sources,
    and build (or load) the C kernel library once, before any timing.

    Everything written (the kernel library cache, temporary files)
    stays under ``.bench_build`` in the checkout.
    """
    _exit_on_sigterm()
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"perf.py: no package sources at {SRC}; run it from a full "
            "checkout of the repository"
        )
    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["PYTHONPATH"] = str(SRC)
    # One hash seed for every repeat: set and dict layouts (and their
    # cost) stop varying from process to process.
    os.environ["PYTHONHASHSEED"] = "0"
    os.environ["REPRO_KERNEL_CACHE"] = str(BUILD / "kernels")
    os.environ["TMPDIR"] = str(BUILD / "tmp")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import workloads
    from repro.kernels import get_kernels

    get_kernels(workloads.BACKEND)


def _load_json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _machine() -> dict:
    import numpy as np
    from repro.kernels import jit_provider

    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "jit_provider": jit_provider(),
    }


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


# -- one repeat (runs in its own subprocess) --------------------------------


def cmd_repeat(args: argparse.Namespace) -> int:
    """Set up and run one repeat; print its measurements as JSON.

    Set-up time runs from before ``import repro`` to the run call, so
    it covers the package import, the kernel library load, the scenario
    build and the cell partition.
    """
    start = time.perf_counter()
    import resource

    import numpy as np

    import layers
    import workloads
    from repro.kernels import get_kernels
    from repro.obs.probe import Probe
    from repro.obs.telemetry import MetricsRegistry

    get_kernels(workloads.BACKEND)
    w = workloads.WORKLOADS[args.workload]
    recorder = layers.Recorder() if args.traced else None
    prepared = workloads.prepare(
        w, args.seed, smoke=args.smoke,
        span=recorder.span if recorder is not None else None,
    )
    setup_s = time.perf_counter() - start

    stamps: "list[float]" = []
    probe = registry = None
    with contextlib.ExitStack() as hooks:
        if args.traced:
            probe = Probe()
            registry = MetricsRegistry()
            if w.kind == "replicate":
                hooks.enter_context(layers.replication_kernel_hooks(registry))
            hooks.enter_context(layers.fleet_hooks(recorder))
        if w.kind == "sharded":
            hooks.enter_context(layers.step_clock(stamps, recorder))
        on_slot = (
            (lambda record: stamps.append(time.perf_counter()))
            if w.kind == "single"
            else None
        )
        run_start = time.perf_counter()
        outcome = workloads.execute(
            prepared, tracer=probe, registry=registry, on_slot=on_slot
        )
        wall_s = time.perf_counter() - run_start
    _stop_resource_tracker()

    kib = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    steps_ms = (
        outcome.steps_ms
        if w.kind == "replicate"
        else (1e3 * np.diff(stamps)).tolist()
    )
    out = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "slots": workloads.unit_slots(w, smoke=args.smoke),
        "steps_ms": steps_ms,
        "peak_rss_mb": kib / 1024.0,
        "latency": outcome.latency,
        "budget_ratio": outcome.budget_ratio,
        "fingerprint": outcome.fingerprint,
        "problems": outcome.problems,
    }
    if args.traced:
        out["layers"] = layers.layer_metrics(
            probe=probe,
            registry=registry,
            recorder=recorder,
            wall_s=wall_s,
            failed_seeds=outcome.failed_seeds,
        )
    print(json.dumps(out))
    return 0


def _stop_resource_tracker() -> None:
    """Stop and reap the shared-memory resource tracker, if one started,
    so no process outlives the repeat."""
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None and hasattr(tracker, "_stop"):
        tracker._stop()


def _run_child(
    workload: str, seed: int, *, smoke: bool, traced: bool, deadline: float
) -> "tuple[dict | None, str | None]":
    """Run one repeat subprocess; ``(result, None)`` or ``(None, error)``."""
    cmd = [
        sys.executable, str(HERE / "perf.py"), "repeat",
        "--workload", workload, "--seed", str(seed),
    ]
    if smoke:
        cmd.append("--smoke")
    if traced:
        cmd.append("--traced")
    # Own session, so a repeat that blows its deadline is killed
    # together with the worker processes it started.
    proc = subprocess.Popen(
        cmd,
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=deadline)
    except BaseException as exc:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            return None, f"missed its {deadline:.0f} s deadline"
        raise
    if proc.returncode != 0:
        tail = "\n".join(stderr.strip().splitlines()[-5:])
        return None, f"exited {proc.returncode}: {tail}"
    return json.loads(stdout.strip().splitlines()[-1]), None


# -- measuring one workload -------------------------------------------------


def _quantiles(values: "list[float]") -> "tuple[float, float, float]":
    """(median, q1, q3), the quartiles as ``statistics.quantiles`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def _reference_loop() -> float:
    """Median of three timings of the fixed loop, in this process."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        for i in range(REFERENCE_LOOPS):
            acc = (acc + i * i) % 1_000_003
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def reference_seconds(processes: int) -> float:
    """The machine's speed right now, as *processes* busy processes see it.

    The loop runs at once in that many processes and the slowest time
    counts, since a workload that keeps two cores busy waits for the
    slower one.  The loop uses no repository code, and it is timed
    between repeats, where no program code runs.
    """
    if processes == 1:
        return _reference_loop()
    procs = [
        subprocess.Popen(
            [sys.executable, str(HERE / "perf.py"), "reference"],
            stdout=subprocess.PIPE,
            text=True,
        )
        for _ in range(processes)
    ]
    try:
        return max(float(p.communicate(timeout=60)[0]) for p in procs)
    finally:
        for p in procs:
            p.kill()  # a no-op for those already reaped
            p.wait()


#: How each end-to-end metric follows the machine's speed: times scale
#: with it (+1), rates against it (-1), the rest not at all (0).
_SPEED_POWER = {
    "slots_per_s": -1,
    "completion_s": 1,
    "setup_s": 1,
    "step_p50_ms": 1,
    "peak_rss_mb": 0,
    "time_avg_latency_s": 0,
    "budget_ratio": 0,
}


def _e2e(repeats: "list[dict]", declared: "list[dict]") -> dict:
    """Each end-to-end metric: median, quartiles and per-repeat values,
    scaled to the reference speed, plus the unscaled median.

    Each repeat carries ``speed`` = ``REFERENCE_S`` ÷ the reference
    loop's time around it.  Times are multiplied by it and rates divided
    by it, so a slow spell of the shared host does not read as a slower
    program.
    """
    per_repeat = {
        "slots_per_s": [r["slots"] / r["wall_s"] for r in repeats],
        "completion_s": [r["setup_s"] + r["wall_s"] for r in repeats],
        "setup_s": [r["setup_s"] for r in repeats],
        "step_p50_ms": [statistics.median(r["steps_ms"]) for r in repeats],
        "peak_rss_mb": [r["peak_rss_mb"] for r in repeats],
        "time_avg_latency_s": [r["latency"] for r in repeats],
        "budget_ratio": [r["budget_ratio"] for r in repeats],
    }
    out = {}
    for metric in declared:
        raw = per_repeat[metric["name"]]
        power = _SPEED_POWER[metric["name"]]
        values = [v * r["speed"] ** power for v, r in zip(raw, repeats)]
        median, q1, q3 = _quantiles(values)
        out[metric["name"]] = {
            "unit": metric["unit"],
            "value": median,
            "q1": q1,
            "q3": q3,
            "values": values,
            "unscaled": statistics.median(raw),
        }
    return out


def _check(
    result: dict, *, pin: "dict | None", agreed: "str | None"
) -> "str | None":
    """Why *result* is wrong, or ``None``.  *agreed* is the fingerprint
    of the run's first repeat."""
    if result["problems"]:
        return "; ".join(result["problems"])
    if pin is not None and result["fingerprint"] != pin["fingerprint"]:
        return (
            f"fingerprint {result['fingerprint'][:16]} != pinned "
            f"{pin['fingerprint'][:16]}"
        )
    if agreed is not None and result["fingerprint"] != agreed:
        return "fingerprint differs from an earlier repeat"
    if pin is not None and "layers" in result:
        drift = {
            name: (result["layers"][name], count)
            for name, count in pin["counts"].items()
            if result["layers"].get(name) != count
        }
        if drift:
            return f"traced counts differ from pinned (got, pinned): {drift}"
    return None


@contextlib.contextmanager
def _cores_for(busy: int):
    """Give a single-process workload one core, for its repeats and its
    reference loop alike, so the loop times the core the workload runs
    on; pooled workloads keep every core."""
    cpus = os.sched_getaffinity(0)
    if busy > 1 or len(cpus) == 1:
        yield
        return
    os.sched_setaffinity(0, {max(cpus)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, cpus)


def measure(
    name: str,
    *,
    seed: int,
    seconds: float,
    trace: bool,
    smoke: bool,
    pins: dict,
    spec: dict,
) -> dict:
    """Every repeat of one workload, checked and summarised."""
    import workloads

    scale = "smoke" if smoke else "full"
    pinned = pins.get(name, {}).get(scale)
    pin = pinned if seed == 0 else None
    deadline = DEADLINE_CAP_S
    if pinned is not None:
        deadline = min(
            DEADLINE_CAP_S,
            DEADLINE_FACTOR * pinned["completion_s"] + DEADLINE_SLACK_S,
        )
    workload = workloads.WORKLOADS[name]
    slots = workloads.unit_slots(workload, smoke=smoke)
    busy = 1 if workload.kind == "single" else workloads.PROCESSES
    timed: "list[dict]" = []
    errors: "list[str]" = []
    attempted = failed = 0
    agreed = None
    started = time.perf_counter()
    target = 1 if smoke else MIN_REPEATS
    runs = 0
    traced = None
    with _cores_for(busy):
        before = reference_seconds(busy)
        while runs < target or (
            not smoke
            and runs < MAX_REPEATS
            and time.perf_counter() - started < seconds
        ):
            runs += 1
            result, error = _run_child(
                name, seed, smoke=smoke, traced=False, deadline=deadline
            )
            after = reference_seconds(busy)
            attempted += slots
            if result is not None:
                result["speed"] = 2.0 * REFERENCE_S / (before + after)
                error = _check(result, pin=pin, agreed=agreed)
                agreed = agreed or result["fingerprint"]
                timed.append(result)
            before = after
            if error is not None:
                failed += slots
                errors.append(f"repeat {runs}: {error}")
        if trace:
            traced, error = _run_child(
                name, seed, smoke=smoke, traced=True, deadline=deadline
            )
            after = reference_seconds(busy)
            attempted += slots
            if traced is not None:
                traced["speed"] = 2.0 * REFERENCE_S / (before + after)
                error = _check(traced, pin=pin, agreed=agreed)
            if error is not None:
                failed += slots
                errors.append(f"traced repeat: {error}")

    e2e = _e2e(timed, spec["end_to_end"]) if timed else {}
    report = {
        "correct": failed == 0 and bool(timed),
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "repeats": len(timed),
        "fingerprint": agreed,
        "errors": errors,
        "e2e": e2e,
        "layers": {},
    }
    if traced is not None:
        values = dict(traced["layers"])
        untraced = (
            statistics.median(r["wall_s"] * r["speed"] for r in timed)
            if timed
            else 0.0
        )
        values["obs.trace_overhead_pct"] = (
            100.0 * (traced["wall_s"] * traced["speed"] / untraced - 1.0)
            if untraced
            else 0.0
        )
        report["layers"] = {
            m["name"]: {"unit": m["unit"], "value": values[m["name"]]}
            for m in spec["per_layer"]
        }
    return report


# -- printing -----------------------------------------------------------------


def _fmt(value: float) -> str:
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def _print_workload(name: str, report: dict, *, seed: int) -> None:
    state = "correct" if report["correct"] else "NOT CORRECT"
    print(
        f"== {name}: seed {seed}, {report['repeats']} timed repeats"
        f"{' + 1 traced' if report['layers'] else ''}, "
        f"{report['attempted']} slots attempted, {report['failed']} failed "
        f"(failed_frac {report['failed_frac']:.3g}), {state}"
    )
    for line in report["errors"]:
        print(f"   ! {line}")
    if report["e2e"]:
        print(
            f"   {'metric':<24} {'unit':<9} {'median':>12} {'q1':>12} "
            f"{'q3':>12} {'unscaled':>12}"
        )
        for metric, m in report["e2e"].items():
            print(
                f"   {metric:<24} {m['unit']:<9} {_fmt(m['value']):>12} "
                f"{_fmt(m['q1']):>12} {_fmt(m['q3']):>12} {_fmt(m['unscaled']):>12}"
            )
    if report["layers"]:
        print("   per layer (traced repeat):")
        for metric, m in report["layers"].items():
            print(f"   {metric:<32} {m['unit']:<6} {_fmt(m['value']):>14}")


def _exit_on_sigterm() -> None:
    """Turn SIGTERM into SystemExit, so a stopped harness still kills
    the repeat it is waiting for (see :func:`_run_child`)."""
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))


def cmd_run(args: argparse.Namespace) -> int:
    _bootstrap()
    spec = _load_json(SPEC_PATH)
    pins = _load_json(args.pins) if args.pins.is_file() else {}
    names = args.workload or [w["name"] for w in spec["workloads"]]
    trace = bool(args.trace)
    reports = {}
    for name in names:
        reports[name] = measure(
            name,
            seed=args.seed,
            seconds=args.seconds,
            trace=trace,
            smoke=args.smoke,
            pins=pins,
            spec=spec,
        )
        _print_workload(name, reports[name], seed=args.seed)
    result = {
        "schema": "perfbench/1",
        "commit": _commit(),
        "machine": _machine(),
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "workloads": reports,
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(result, indent=2) + "\n")
    print(f"result written to {args.out}")

    section = "layers" if trace else "e2e"

    def metrics_of(report: dict, prefix: str = "") -> dict:
        return {
            prefix + metric: {"value": m["value"], "unit": m["unit"]}
            for metric, m in report[section].items()
        }

    if len(names) == 1:
        metrics = metrics_of(reports[names[0]])
    else:
        metrics = {}
        for name, report in reports.items():
            metrics.update(metrics_of(report, f"{name}:"))
    correct = all(r["correct"] for r in reports.values())
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(r["attempted"] for r in reports.values()),
                "failed": sum(r["failed"] for r in reports.values()),
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


# -- compare ------------------------------------------------------------------


def verdict(base: dict, other: dict, *, bound: float, better: str) -> str:
    """better / same / worse / unresolved for one (workload, metric).

    *unresolved* when either side's quartile spread exceeds the bound,
    unless every repeat of *other* beats every repeat of *base*.
    """
    sign = 1.0 if better == "lower" else -1.0

    def spread(m: dict) -> float:
        return (m["q3"] - m["q1"]) / abs(m["value"]) if m["value"] else 0.0

    if max(spread(base), spread(other)) > bound:
        if all(sign * (b - a) < 0 for a in base["values"] for b in other["values"]):
            return "better"
        return "unresolved"
    change = sign * (other["value"] - base["value"]) / abs(base["value"])
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "same"


def cmd_compare(args: argparse.Namespace) -> int:
    spec = _load_json(SPEC_PATH)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    base_path, *others = args.results
    base = _load_json(base_path)
    bad = False
    for other_path in others:
        other = _load_json(other_path)
        print(f"== {base_path} (base) vs {other_path}")
        for name, b in base["workloads"].items():
            o = other["workloads"].get(name)
            if o is None:
                print(f"   {name}: missing from {other_path}")
                bad = True
                continue
            if o["failed_frac"] > b["failed_frac"]:
                print(
                    f"   {name}: failed_frac rose "
                    f"{b['failed_frac']:.3g} -> {o['failed_frac']:.3g}"
                )
                bad = True
            for metric, rule in bounds.items():
                if metric not in b["e2e"] or metric not in o["e2e"]:
                    continue
                mb, mo = b["e2e"][metric], o["e2e"][metric]
                v = verdict(mb, mo, bound=rule["bound"], better=rule["better"])
                bad = bad or v == "worse"
                print(
                    f"   {name:<15} {metric:<20} {rule['unit']:<8} "
                    f"base {_fmt(mb['value'])} [{_fmt(mb['q1'])}, {_fmt(mb['q3'])}]"
                    f"  other {_fmt(mo['value'])} [{_fmt(mo['q1'])}, {_fmt(mo['q3'])}]"
                    f"  bound {rule['bound']:.0%}  {v}"
                )
    return 1 if bad else 0


# -- pin ----------------------------------------------------------------------


def cmd_pin(args: argparse.Namespace) -> int:
    """Re-record fingerprints, traced counts and completion times at seed 0."""
    _bootstrap()
    spec = _load_json(SPEC_PATH)
    pins = _load_json(PINS_PATH) if PINS_PATH.is_file() else {}
    for name in args.workload or [w["name"] for w in spec["workloads"]]:
        for scale in ("full", "smoke"):
            smoke = scale == "smoke"
            timed, error = _run_child(
                name, 0, smoke=smoke, traced=False, deadline=DEADLINE_CAP_S
            )
            if error is None:
                traced, error = _run_child(
                    name, 0, smoke=smoke, traced=True, deadline=DEADLINE_CAP_S
                )
            if error is None:
                error = _check(traced, pin=None, agreed=timed["fingerprint"])
            if error is not None:
                raise SystemExit(f"pin {name}/{scale}: {error}")
            pins.setdefault(name, {})[scale] = {
                "fingerprint": timed["fingerprint"],
                "completion_s": round(timed["setup_s"] + timed["wall_s"], 3),
                "counts": {
                    metric: value
                    for metric, value in sorted(traced["layers"].items())
                    if metric.endswith(".count")
                    and metric.startswith(("phase.", "kernel."))
                },
            }
            print(f"pinned {name}/{scale}: {timed['fingerprint'][:16]}")
    PINS_PATH.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
    return 0


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="measure workloads")
    run.add_argument(
        "--workload", action="append", help="workload name (repeatable; default: all)"
    )
    run.add_argument(
        "--seed", type=int, default=0, help="offset added to every workload seed"
    )
    run.add_argument(
        "--seconds", type=float, default=15.0,
        help="keep starting timed repeats until this much time has passed",
    )
    run.add_argument(
        "--trace", type=int, choices=(0, 1), default=0,
        help="1: add a traced repeat and report the per-layer metrics",
    )
    run.add_argument(
        "--smoke", action="store_true",
        help="tiny horizons, one timed repeat per workload",
    )
    run.add_argument("--out", type=Path, default=DEFAULT_OUT, help="result file")
    run.add_argument(
        "--pins", type=Path, default=PINS_PATH, help="pinned fingerprints and counts"
    )
    run.set_defaults(handler=cmd_run)

    compare = sub.add_parser("compare", help="compare result files")
    compare.add_argument("results", nargs="+", type=Path)
    compare.set_defaults(handler=cmd_compare)

    pin = sub.add_parser("pin", help="re-record pins.json at seed 0")
    pin.add_argument("--workload", action="append")
    pin.set_defaults(handler=cmd_pin)

    reference = sub.add_parser("reference")  # internal: one reference timing
    reference.set_defaults(handler=lambda args: print(_reference_loop()) or 0)

    repeat = sub.add_parser("repeat")  # internal: one measured subprocess
    repeat.add_argument("--workload", required=True)
    repeat.add_argument("--seed", type=int, required=True)
    repeat.add_argument("--smoke", action="store_true")
    repeat.add_argument("--traced", action="store_true")
    repeat.set_defaults(handler=cmd_repeat)

    args = parser.parse_args(argv)
    if args.command == "compare" and len(args.results) < 2:
        parser.error("compare needs a base and at least one other result file")
    return args.handler(args)


if __name__ == "__main__":
    raise SystemExit(main())
