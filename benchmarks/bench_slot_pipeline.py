"""End-to-end slot-pipeline bench: compiled states + warm starts + P2-B.

Times ``repro.api.run`` (the whole DPP slot pipeline: compiled state
stream, CGBA with cross-slot warm starts and the BDMA fixed-point
short-circuit, batched/scalar P2-B) at three deployment sizes and
records slots-per-second plus the engine counters and per-phase profile
of a traced run.  The medium preset is the paper-scale configuration
(I=40, 240 slots, seed 7); its result fingerprint is pinned so the
bench doubles as a correctness gate -- a speedup that changes the
trajectory bit stream fails here before it reaches the figures.

Writes ``benchmarks/results/BENCH_slot_pipeline.json`` next to the text
table.  The committed JSON also carries the pre-PR baseline measured on
the same machine and session (an identical timing loop against a
worktree at the parent commit), so the recorded speedup compares like
with like; re-measure the baseline before trusting the ratio on new
hardware.

Run directly (``python benchmarks/bench_slot_pipeline.py [--smoke]``)
or via pytest (``pytest benchmarks/bench_slot_pipeline.py``).  The
``--smoke`` mode is the CI job: a tiny horizon, no timing assertions,
just proof that every fast path actually engaged (compiled states
bit-equal to per-slot states, warm-start hits, P2-B solves) on the
runner.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))

from _common import RESULTS_DIR, emit  # noqa: E402

JSON_PATH = RESULTS_DIR / "BENCH_slot_pipeline.json"
SMOKE_JSON_PATH = RESULTS_DIR / "BENCH_slot_pipeline_smoke.json"
KERNEL_JSON_PATH = RESULTS_DIR / "BENCH_kernel_backend.json"

#: Paper-scale medium preset must reproduce this exact trajectory
#: stream (sha256 over latency/cost/theta/backlog/price); pinned when
#: the compiled pipeline landed, bit-identical to the per-slot path.
MEDIUM_FINGERPRINT = (
    "21d380f5230daf38751e1c04951c28466fde49023e1f3986efd1c8e59a801e04"
)

#: Pre-PR throughput of the medium preset, best of 5, measured in the
#: same session on the same machine from a worktree at the parent
#: commit (ab8a27d) with this timing loop.  Machine-specific: re-measure
#: when comparing on different hardware.
BASELINE = {
    "commit": "ab8a27d",
    "preset": "medium",
    "slots_per_sec": 89.41,
    "note": "same-session, same-machine, best of 5",
}

#: Throughput of the compiled-pipeline medium preset on the NumPy
#: kernels (the state of the tree before the kernel backends landed),
#: measured like BASELINE.  The jit gate compares against this: the
#: backend abstraction must beat the already-compiled pipeline, not
#: just the historical per-slot path.
NUMPY_BASELINE = {
    "commit": "364eb55",
    "preset": "medium",
    "slots_per_sec": 333.71,
    "note": "numpy kernels, same timing loop; re-measure on new hardware",
}

PRESETS = {
    "small": {"seed": 11, "horizon": 120, "devices": 30},
    # Paper defaults: I=40, K=6, N=16.
    "medium": {"seed": 7, "horizon": 240, "devices": None},
    "large": {"seed": 13, "horizon": 60, "devices": 120},
}


def _recorded_counters() -> dict:
    """Per-preset counters from the committed bench JSON (read before
    any rewrite, so deltas always compare against the repo baseline)."""
    try:
        committed = json.loads(JSON_PATH.read_text())
    except (OSError, ValueError):
        return {}
    return {
        row["preset"]: row.get("counters", {})
        for row in committed.get("rows", [])
    }


def _counter_deltas(row: dict, recorded: dict) -> dict:
    """Current-minus-recorded per counter; an all-zero dict is the
    behaviour-unchanged signature, any other value localises the drift
    to a specific engine phase."""
    baseline = recorded.get(row["preset"])
    if baseline is None:
        return {}
    keys = sorted(set(baseline) | set(row["counters"]))
    return {
        key: row["counters"].get(key, 0) - baseline.get(key, 0)
        for key in keys
    }


def _fingerprint(result) -> str:
    digest = hashlib.sha256()
    for arr in (
        result.latency,
        result.cost,
        result.theta,
        result.backlog,
        result.price,
    ):
        digest.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
    return digest.hexdigest()


def _run_preset(name: str, *, repeats: int, backend: str = "numpy") -> dict:
    from repro.api import run
    from repro.obs.probe import Probe

    preset = PRESETS[name]
    kwargs: dict = {
        "seed": preset["seed"],
        "horizon": preset["horizon"],
        "engine_backend": backend,
    }
    if preset["devices"] is not None:
        import repro

        kwargs["scenario_config"] = repro.ScenarioConfig(
            num_devices=preset["devices"]
        )
    if backend != "numpy":
        # Absorb the one-off C library build outside the timed
        # repeats.
        run(controller="dpp", **{**kwargs, "horizon": 8})

    seconds = []
    fingerprint = None
    for _ in range(repeats):
        started = time.perf_counter()
        result = run(controller="dpp", **kwargs)
        seconds.append(time.perf_counter() - started)
        fp = _fingerprint(result)
        if fingerprint is None:
            fingerprint = fp
        elif fp != fingerprint:
            raise AssertionError(f"{name}: nondeterministic trajectories")

    # One traced (untimed) run for counters and the phase profile.
    probe = Probe()
    run(controller="dpp", tracer=probe, **kwargs)
    counters = {k: v for k, v in sorted(probe.phases.counters.items())}

    best = min(seconds)
    return {
        "preset": name,
        "backend": backend,
        "seed": preset["seed"],
        "horizon": preset["horizon"],
        "devices": preset["devices"] or 40,
        "repeats": repeats,
        "best_seconds": best,
        "slots_per_sec": preset["horizon"] / best,
        "fingerprint": fingerprint,
        "counters": counters,
        "phase_table": probe.phases.table(),
    }


def run_pipeline_bench(*, repeats: int = 3, backend: str = "numpy") -> dict:
    recorded = _recorded_counters()
    rows = [
        _run_preset(name, repeats=repeats, backend=backend)
        for name in PRESETS
    ]
    for row in rows:
        row["counter_deltas"] = _counter_deltas(row, recorded)
    medium = next(r for r in rows if r["preset"] == "medium")
    return {
        "bench": "slot_pipeline",
        "backend": backend,
        "machine": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "baseline": BASELINE,
        "speedup_vs_baseline": medium["slots_per_sec"]
        / BASELINE["slots_per_sec"],
        "rows": rows,
    }


def run_backend_sweep(*, repeats: int = 3) -> dict:
    """Time every preset on every available backend; gate jit's gains.

    Writes ``BENCH_kernel_backend.json``: per-backend slots/s, jit
    speedups over both recorded baselines (the pre-compiled-pipeline
    89.4 and the NumPy-kernel 333.7), cross-backend fingerprint
    equality, and per-preset counter deltas against the committed
    baseline counters (all-zero deltas == identical work done).
    """
    from repro.kernels import available_backends, jit_provider

    recorded = _recorded_counters()
    backends = ["numpy"] + (["jit"] if available_backends()["jit"] else [])
    rows = []
    for backend in backends:
        for name in PRESETS:
            row = _run_preset(name, repeats=repeats, backend=backend)
            row["counter_deltas"] = _counter_deltas(row, recorded)
            rows.append(row)

    def medium(backend: str) -> dict:
        return next(
            r for r in rows
            if r["preset"] == "medium" and r["backend"] == backend
        )

    fingerprints_match = all(
        next(
            r for r in rows
            if r["preset"] == name and r["backend"] == "numpy"
        )["fingerprint"]
        == row["fingerprint"]
        for name in PRESETS
        for row in rows
        if row["preset"] == name
    )
    report = {
        "bench": "kernel_backend",
        "machine": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "jit_provider": jit_provider(),
        "backends": backends,
        "baselines": {
            "pre_pipeline": BASELINE,
            "numpy_kernels": NUMPY_BASELINE,
        },
        "numpy_medium_slots_per_sec": medium("numpy")["slots_per_sec"],
        "numpy_vs_numpy_baseline": medium("numpy")["slots_per_sec"]
        / NUMPY_BASELINE["slots_per_sec"],
        "fingerprints_match": fingerprints_match,
        "rows": rows,
    }
    if "jit" in backends:
        jit_medium = medium("jit")["slots_per_sec"]
        report["jit_medium_slots_per_sec"] = jit_medium
        report["jit_vs_pre_pipeline"] = jit_medium / BASELINE["slots_per_sec"]
        report["jit_vs_numpy_baseline"] = (
            jit_medium / NUMPY_BASELINE["slots_per_sec"]
        )
    return report


def run_smoke(*, backend: str = "numpy") -> dict:
    """CI smoke: prove the fast paths engage; assert no timings."""
    import repro
    from repro.api import run
    from repro.obs.probe import Probe

    def scenario():
        return repro.make_paper_scenario(
            seed=5, config=repro.ScenarioConfig(num_devices=12)
        )

    probe = Probe()
    compiled = run(
        scenario=scenario(), controller="dpp", horizon=12, tracer=probe,
        engine_backend=backend,
    )
    per_slot = run(
        scenario=scenario(), controller="dpp", horizon=12,
        compiled_states=False, engine_backend=backend,
    )
    if _fingerprint(compiled) != _fingerprint(per_slot):
        raise AssertionError("compiled states diverged from per-slot states")

    counters = probe.phases.counters
    checks = {
        "warm_start_hits": counters.get("engine.warm_start_hits", 0) > 0,
        "p2b_solves": (
            counters.get("p2b.scalar_solves", 0)
            + counters.get("p2b.batch_iters", 0)
        )
        > 0,
        "bdma_rounds": counters.get("bdma.rounds", 0) > 0,
        "compiled_bit_identical": True,
    }
    failed = [name for name, ok in checks.items() if not ok]
    if failed:
        raise AssertionError(
            f"fast paths did not engage: {failed}; counters={dict(counters)}"
        )
    return {
        "bench": "slot_pipeline_smoke",
        "backend": backend,
        "checks": checks,
        "counters": {k: v for k, v in sorted(counters.items())},
    }


def _table(report: dict) -> str:
    from repro.analysis.tables import format_table

    rows = [
        [
            r["preset"],
            r["devices"],
            r["horizon"],
            r["best_seconds"],
            r["slots_per_sec"],
            r["counters"].get("engine.warm_start_hits", 0),
            r["counters"].get("p2b.scalar_solves", 0)
            + r["counters"].get("p2b.batch_iters", 0),
        ]
        for r in report["rows"]
    ]
    table = format_table(
        ["preset", "I", "slots", "best (s)", "slots/s", "warm hits", "p2b work"],
        rows,
        title=(
            "Slot pipeline end to end (compiled states + warm starts): "
            f"medium {report['speedup_vs_baseline']:.2f}x vs pre-refactor "
            f"baseline {report['baseline']['slots_per_sec']:.1f} slots/s"
        ),
    )
    medium = next(r for r in report["rows"] if r["preset"] == "medium")
    return table + "\n\n" + medium["phase_table"]


def _sweep_table(report: dict) -> str:
    from repro.analysis.tables import format_table

    rows = [
        [
            r["preset"],
            r["backend"],
            r["horizon"],
            r["best_seconds"],
            r["slots_per_sec"],
            "yes" if not any(r["counter_deltas"].values()) else "NO",
        ]
        for r in report["rows"]
    ]
    jit_note = (
        f"jit {report['jit_vs_numpy_baseline']:.2f}x over numpy-kernel "
        f"baseline {NUMPY_BASELINE['slots_per_sec']:.1f} slots/s, "
        f"{report['jit_vs_pre_pipeline']:.2f}x over pre-pipeline "
        f"{BASELINE['slots_per_sec']:.1f}"
        if "jit" in report["backends"]
        else "jit backend unavailable (no C compiler)"
    )
    return format_table(
        ["preset", "backend", "slots", "best (s)", "slots/s", "same work"],
        rows,
        title=(
            f"Kernel backends (provider: {report['jit_provider']}): "
            + jit_note
        ),
    )


def _verify(report: dict) -> None:
    medium = next(r for r in report["rows"] if r["preset"] == "medium")
    assert medium["fingerprint"] == MEDIUM_FINGERPRINT, (
        "medium preset trajectories drifted: "
        f"{medium['fingerprint']} != {MEDIUM_FINGERPRINT}"
    )
    assert report["speedup_vs_baseline"] >= 3.0, (
        "slot pipeline speedup fell below the 3x gate "
        f"({report['speedup_vs_baseline']:.2f}x); if this is new hardware, "
        "re-measure BASELINE at the parent commit first"
    )
    drifted = {
        r["preset"]: {k: v for k, v in r["counter_deltas"].items() if v}
        for r in report["rows"]
        if any(r["counter_deltas"].values())
    }
    assert not drifted, (
        f"engine counters drifted from the committed baseline: {drifted}"
    )


def _verify_sweep(report: dict) -> None:
    assert report["fingerprints_match"], (
        "backends disagree on some preset's trajectory stream"
    )
    for row in report["rows"]:
        if row["preset"] == "medium":
            assert row["fingerprint"] == MEDIUM_FINGERPRINT, (
                f"medium drifted on backend {row['backend']}: "
                f"{row['fingerprint']} != {MEDIUM_FINGERPRINT}"
            )
        drift = {k: v for k, v in row["counter_deltas"].items() if v}
        assert not drift, (
            f"{row['preset']}/{row['backend']}: counter drift {drift}"
        )
    # The NumPy path must be untouched by the abstraction (within
    # timing noise), and jit must actually pay for itself.
    assert report["numpy_vs_numpy_baseline"] >= 0.85, (
        "NumPy kernels slowed down vs their recorded baseline "
        f"({report['numpy_vs_numpy_baseline']:.2f}x of "
        f"{NUMPY_BASELINE['slots_per_sec']} slots/s); the backend "
        "abstraction must not tax the oracle path"
    )
    if "jit" in report["backends"]:
        assert report["jit_vs_numpy_baseline"] >= 2.5, (
            "jit medium throughput fell below the 2.5x gate over the "
            f"NumPy-kernel baseline ({report['jit_vs_numpy_baseline']:.2f}x "
            f"of {NUMPY_BASELINE['slots_per_sec']} slots/s); if this is "
            "new hardware, re-measure NUMPY_BASELINE first"
        )


def _emit(report: dict, *, smoke: bool) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    path = SMOKE_JSON_PATH if smoke else JSON_PATH
    path.write_text(json.dumps(report, indent=2) + "\n")
    if smoke:
        print(json.dumps(report["checks"], indent=2))
    else:
        emit("slot_pipeline", _table(report))


def _emit_sweep(report: dict) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    KERNEL_JSON_PATH.write_text(json.dumps(report, indent=2) + "\n")
    emit("kernel_backend", _sweep_table(report))


def bench_slot_pipeline(benchmark) -> None:
    report = benchmark.pedantic(run_pipeline_bench, rounds=1, iterations=1)
    _emit(report, smoke=False)
    _verify(report)


def bench_kernel_backend(benchmark) -> None:
    report = benchmark.pedantic(run_backend_sweep, rounds=1, iterations=1)
    _emit_sweep(report)
    _verify_sweep(report)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI smoke: tiny run asserting the fast paths engage "
        "(no timing assertions, does not touch the committed JSON)",
    )
    parser.add_argument(
        "--backend",
        choices=("numpy", "jit"),
        default="numpy",
        help="kernel backend for the timed runs (and the smoke run)",
    )
    parser.add_argument(
        "--sweep-backends",
        action="store_true",
        help="time every preset on every available backend and gate the "
        "jit speedup (writes BENCH_kernel_backend.json)",
    )
    parser.add_argument(
        "--repeats", type=int, default=3, help="timed repeats per preset"
    )
    args = parser.parse_args(argv)
    if args.smoke:
        _emit(run_smoke(backend=args.backend), smoke=True)
        return 0
    if args.sweep_backends:
        report = run_backend_sweep(repeats=args.repeats)
        _emit_sweep(report)
        _verify_sweep(report)
        return 0
    report = run_pipeline_bench(repeats=args.repeats, backend=args.backend)
    _emit(report, smoke=False)
    _verify(report)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
