"""CI telemetry smoke: live OpenMetrics during a pooled sharded run.

Starts a :class:`~repro.obs.server.MetricsServer` on an ephemeral port,
runs a 4-cell sharded simulation across 4 worker processes, and scrapes
the endpoint from a background thread the whole time.  Asserts the
acceptance contract of the telemetry layer:

* at least one **mid-run** scrape parses as valid OpenMetrics and shows
  per-cell series streaming in while epochs are still completing (one
  scrape is taken right after each merge of a worker reply's telemetry,
  so the check does not depend on a poll landing in a short window);
* the final exposition carries every required family -- per-cell
  ``repro_queue_backlog`` and ``repro_budget_drift`` gauges, per-kernel
  ``repro_kernel_seconds`` histograms, per-cell monitor alerts/statuses
  folded into the merged health report;
* the run's merged trajectories are **bit-identical** to the same run
  in-process (``processes=None``), and that run's registry and health
  agree with the pooled run's: equal final counter values, gauge
  values and histogram observation counts (everything in the registry
  that does not depend on timing), equal status names and statuses,
  equal alert count.  Both worker transports of the one sharded epoch
  loop are gated.

Exits nonzero on any failure.  No timing assertions -- this is a
correctness smoke, not a perf gate.
"""

from __future__ import annotations

import sys
import threading
import time
import urllib.request
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))

CELLS = 4
PROCESSES = 4
HORIZON = 24
EPOCH = 6

REQUIRED_FAMILIES = (
    "repro_queue_backlog",
    "repro_budget_drift",
    "repro_kernel_seconds",
    "repro_phase_seconds",
    "repro_cell_budget",
    "repro_shard_completed_slots",
    "repro_slots",
)


def _scenario():
    import repro

    return repro.make_paper_scenario(
        9,
        config=repro.ScenarioConfig(num_devices=32),
        num_base_stations=8,
        num_macro_stations=8,
        wireless_fronthaul_fraction=1.0,
        num_clusters=4,
        servers_per_cluster=2,
    )


def main() -> int:
    from repro.obs.server import MetricsServer
    from repro.obs.telemetry import MetricsRegistry, parse_openmetrics
    from repro.sim.sharded import run_sharded

    registry = MetricsRegistry()
    mid_run: list[str] = []
    running = threading.Event()
    running.set()

    with MetricsServer(registry, port=0) as server:
        url = server.url
        print(f"scraping {url} during the run")

        def poll() -> None:
            while running.is_set():
                try:
                    body = urllib.request.urlopen(url, timeout=2).read()
                    mid_run.append(body.decode("utf-8"))
                except Exception:
                    pass
                time.sleep(0.05)

        def merge_then_scrape(snap, *, generation=None) -> None:
            merge(snap, generation=generation)
            if running.is_set():
                body = urllib.request.urlopen(url, timeout=5).read()
                mid_run.append(body.decode("utf-8"))

        merge = registry.merge_snapshot
        registry.merge_snapshot = merge_then_scrape
        poller = threading.Thread(target=poll, daemon=True)
        poller.start()
        result = run_sharded(
            _scenario(),
            horizon=HORIZON,
            cells=CELLS,
            epoch=EPOCH,
            processes=PROCESSES,
            registry=registry,
            monitors=True,
        )
        running.clear()
        poller.join(timeout=5)
        final = urllib.request.urlopen(url, timeout=5).read().decode("utf-8")

    checks: dict[str, bool] = {}

    # 1. Mid-run scrapes happened and parse as valid OpenMetrics.
    checks["mid_run_scrapes"] = len(mid_run) > 0
    parsed_mid = [parse_openmetrics(text) for text in mid_run]
    checks["mid_run_parses"] = len(parsed_mid) == len(mid_run)
    # Live streaming: some scrape taken before the run finished already
    # carried per-cell budget gauges (published as each epoch completes).
    checks["mid_run_per_cell_series"] = any(
        "repro_cell_budget" in families for families in parsed_mid
    )

    # 2. The final exposition has every required family, with per-cell
    #    labels on the per-cell ones.
    families = parse_openmetrics(final)
    for name in REQUIRED_FAMILIES:
        checks[f"family:{name}"] = name in families
    cells_seen = {
        labels.get("cell")
        for name in ("repro_queue_backlog", "repro_budget_drift")
        if name in families
        for _, labels, _ in families[name]["samples"]
    }
    checks["all_cells_reporting"] = cells_seen >= {
        str(c) for c in range(CELLS)
    }
    kernel_cells = {
        labels.get("cell")
        for _, labels, _ in families.get("repro_kernel_seconds", {}).get(
            "samples", []
        )
    }
    checks["kernel_histograms_per_cell"] = len(kernel_cells - {None}) == CELLS

    # 3. Monitors sharded per cell and folded into one health report.
    health = result.health
    checks["health_report"] = health is not None
    if health is not None:
        names = {status.name for status in health.statuses}
        checks["health_all_cells"] = all(
            any(n.startswith(f"cell{c}/") for n in names)
            for c in range(CELLS)
        )

    # 4. The in-process transport: bit-identical trajectories, and the
    #    same timing-free registry content and folded health as the
    #    pooled run.
    bare_registry = MetricsRegistry()
    bare = run_sharded(
        _scenario(),
        horizon=HORIZON,
        cells=CELLS,
        epoch=EPOCH,
        registry=bare_registry,
        monitors=True,
    )
    checks["fingerprint_identical"] = all(
        np.array_equal(
            getattr(result.merged, field), getattr(bare.merged, field)
        )
        for field in ("latency", "cost", "theta", "backlog", "price")
    )

    def counters(reg: MetricsRegistry) -> dict:
        return {
            name: family["series"]
            for name, family in reg.snapshot()["counters"].items()
        }

    def gauges(reg: MetricsRegistry) -> dict:
        return {
            name: {key: value for key, (value, _) in family["series"].items()}
            for name, family in reg.snapshot()["gauges"].items()
        }

    def observation_counts(reg: MetricsRegistry) -> dict:
        return {
            name: {key: count for key, (_, _, count) in family["series"].items()}
            for name, family in reg.snapshot()["histograms"].items()
        }

    for name, content in (
        ("counters", counters),
        ("gauges", gauges),
        ("histogram_counts", observation_counts),
    ):
        checks[f"in_process_{name}_equal"] = content(bare_registry) == content(
            registry
        )

    def folded(report) -> "tuple | None":
        if report is None:
            return None
        return (
            [(s.name, s.status) for s in report.statuses],
            len(report.alerts),
        )

    checks["in_process_health_equal"] = folded(bare.health) == folded(health)

    width = max(len(k) for k in checks)
    for name, ok in checks.items():
        print(f"  {name:<{width}} : {'ok' if ok else 'FAIL'}")
    failed = [name for name, ok in checks.items() if not ok]
    if failed:
        print(f"telemetry smoke FAILED: {failed}", file=sys.stderr)
        return 1
    print(
        f"telemetry smoke ok: {len(mid_run)} live scrapes, "
        f"{len(families)} families, {CELLS} cells x {PROCESSES} processes"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
