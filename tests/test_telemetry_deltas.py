"""Differential tests for the per-epoch telemetry flush.

A resident worker ships :meth:`MetricsRegistry.flush_delta` payloads
(touched series only, by integer id) and the parent folds them with
:meth:`MetricsRegistry.merge_snapshot`.  Folding every delta must give
exactly what merging one full :meth:`MetricsRegistry.snapshot` of an
undisturbed worker gives -- including across a worker that dies and is
replayed (its replay flush is swallowed) -- and a sharded run's parent
registry must hold the same counter values, gauge values and histogram
observation counts as before the flush existed (pinned in
``tests/data/metro_registry_seed.json``).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.obs.telemetry import MetricsRegistry
from repro.sim.sharded import run_sharded

SEED_DIGEST = Path(__file__).parent / "data" / "metro_registry_seed.json"

COUNTERS = ("repro_a_total", "repro_b_total")
GAUGES = ("repro_g", "repro_h")
HISTOGRAMS = ("repro_t_seconds", "repro_u_seconds")
BOUNDS = (0.5, 1.0, 4.0)

# Dyadic values keep every sum exact, so "equal" can mean bit-equal.
_values = st.integers(0, 48).map(lambda i: i / 8)
_updates = st.one_of(
    st.tuples(
        st.just("inc"), st.sampled_from(COUNTERS), st.integers(0, 2),
        st.booleans(), _values,
    ),
    st.tuples(
        st.just("set"), st.sampled_from(GAUGES), st.integers(0, 2),
        st.booleans(), _values,
    ),
    st.tuples(
        st.just("observe"), st.sampled_from(HISTOGRAMS), st.integers(0, 2),
        st.booleans(),
        st.one_of(_values, st.sampled_from(BOUNDS)),  # bounds exactly, too
    ),
)
#: Epochs of updates; each epoch ends in one flush.
_epochs = st.lists(st.lists(_updates, max_size=12), min_size=1, max_size=6)


class _Worker:
    """Applies update tuples to one registry, like a worker's sinks."""

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        self._bound: dict = {}
        # A pre-bound counter nobody ever increments (a sink's crash
        # counter): its family must still reach the parent.
        self.registry.counter("repro_idle_total", "never counted").labels(cell=0)

    def _family(self, kind: str, name: str):
        if kind == "inc":
            return self.registry.counter(name)
        if kind == "set":
            return self.registry.gauge(name)
        return self.registry.histogram(name, buckets=BOUNDS)

    def apply(self, update: tuple) -> None:
        kind, name, cell, prebound, value = update
        family = self._family(kind, name)
        if prebound:
            key = (name, cell)
            series = self._bound.get(key)
            if series is None:
                series = self._bound[key] = family.labels(cell=cell)
            getattr(series, kind)(value)
        else:
            getattr(family, kind)(value, cell=cell)


def _comparable(snapshot: dict) -> dict:
    """A snapshot minus pre-bound histogram series that never observed
    anything (a full snapshot lists them, a flush never ships them)."""
    out = {key: dict(families) for key, families in snapshot.items()}
    out["histograms"] = {
        name: {
            **family,
            "series": {k: v for k, v in family["series"].items() if v[2]},
        }
        for name, family in snapshot["histograms"].items()
    }
    return out


@settings(max_examples=120, deadline=None)
@given(
    epochs=_epochs,
    crash=st.integers(-1, 5),
    trailing=st.lists(_updates, max_size=6),
)
def test_folded_deltas_equal_a_full_snapshot(epochs, crash, trailing) -> None:
    """Fold every epoch's flush (a replayed worker swallowing its
    replay after *crash*) plus the finish flush; compare with one full
    snapshot of an undisturbed worker."""
    undisturbed = _Worker()
    for epoch in epochs:
        for update in epoch:
            undisturbed.apply(update)
    for update in trailing:  # e.g. end-of-run monitor checks
        undisturbed.apply(update)
    reference = MetricsRegistry()
    reference.merge_snapshot(undisturbed.registry.snapshot())

    parent = MetricsRegistry()
    worker = _Worker()
    for e, epoch in enumerate(epochs):
        for update in epoch:
            worker.apply(update)
        parent.merge_snapshot(worker.registry.flush_delta())
        if e == crash:
            # The worker dies after shipping epoch e; a fresh one
            # replays epochs 0..e and swallows that flush.
            worker = _Worker()
            for replayed in epochs[: e + 1]:
                for update in replayed:
                    worker.apply(update)
            assert worker.registry.flush_delta(swallow=True) is None
    for update in trailing:
        worker.apply(update)
    parent.merge_snapshot(worker.registry.flush_delta())  # finish

    assert _comparable(parent.snapshot()) == _comparable(reference.snapshot())
    assert parent.families() == reference.families()


def test_stale_generation_never_rolls_a_gauge_back() -> None:
    """Two workers write the same gauge; the parent folds the newer
    epoch's flush first and the older one after it."""
    early, late = MetricsRegistry(), MetricsRegistry()
    early.gauge("repro_q").set(10.0)
    late.gauge("repro_q").set(3.0)
    late.gauge("repro_q").set(4.0)
    parent = MetricsRegistry()
    parent.merge_snapshot(late.flush_delta(), generation=5)
    parent.merge_snapshot(early.flush_delta(), generation=1)
    assert parent.gauge("repro_q").value() == 4.0
    assert parent.snapshot()["gauges"]["repro_q"]["series"][()] == (4.0, (5, 2))


def _metro_scenario() -> repro.Scenario:
    return repro.make_paper_scenario(
        9,
        config=repro.ScenarioConfig(num_devices=36),
        num_base_stations=6,
        num_macro_stations=6,
        wireless_fronthaul_fraction=1.0,
        num_clusters=3,
        servers_per_cluster=2,
    )


def _digest(registry: MetricsRegistry) -> dict:
    """The timing-free content of a registry."""

    def label(name: str, key: tuple) -> str:
        return name + "{" + ",".join(f'{k}="{v}"' for k, v in key) + "}"

    snap = registry.snapshot()
    return {
        "families": registry.families(),
        "counters": {
            label(n, k): v
            for n, f in snap["counters"].items()
            for k, v in f["series"].items()
        },
        "gauges": {
            label(n, k): v[0]
            for n, f in snap["gauges"].items()
            for k, v in f["series"].items()
        },
        "histogram_counts": {
            label(n, k): s[2]
            for n, f in snap["histograms"].items()
            for k, s in f["series"].items()
        },
    }


@pytest.mark.parametrize("processes", [None, 2], ids=["in_process", "pooled"])
def test_sharded_registry_matches_the_pinned_seed(processes) -> None:
    """Epoch-1 sharded run, 3 cells, monitors on and a starved budget
    (so alerts fire live and at finish): counters, gauges and histogram
    observation counts equal the registry recorded before the
    touched-series flush replaced full per-epoch deltas."""
    registry = MetricsRegistry()
    run_sharded(
        _metro_scenario(),
        horizon=40,
        cells=3,
        epoch=1,
        budget=1e-4,
        processes=processes,
        registry=registry,
        monitors=True,
    )
    assert _digest(registry) == json.loads(SEED_DIGEST.read_text())
