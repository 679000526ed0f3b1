"""Tests that the runtime paths emit useful log records."""

from __future__ import annotations

import logging

import numpy as np

import repro

from conftest import make_tiny_network, make_tiny_state


class TestEngineLogging:
    def test_start_and_end_info_records(self, caplog) -> None:
        network = make_tiny_network()
        controller = repro.DPPController(
            network, np.random.default_rng(0), v=50.0, budget=20.0, z=1
        )
        states = [make_tiny_state(t=t) for t in range(3)]
        with caplog.at_level(logging.INFO, logger="repro.sim.engine"):
            repro.run_simulation(controller, iter(states), budget=20.0)
        messages = [r.message for r in caplog.records]
        assert any("simulation start" in m for m in messages)
        assert any("simulation done: 3 slots" in m for m in messages)

    def test_done_record_text_at_info(self, caplog) -> None:
        network = make_tiny_network()
        controller = repro.DPPController(
            network, np.random.default_rng(0), v=50.0, budget=20.0, z=1
        )
        states = [make_tiny_state(t=t) for t in range(3)]
        with caplog.at_level(logging.INFO, logger="repro.sim.engine"):
            result = repro.run_simulation(controller, iter(states), budget=20.0)
        [done] = [r for r in caplog.records if "simulation done" in r.message]
        assert done.levelno == logging.INFO
        assert done.message == (
            "simulation done: 3 slots, mean latency "
            f"{float(np.mean(result.latency)):.4f}, mean cost "
            f"{float(np.mean(result.cost)):.4f}"
        )

    def test_done_summary_not_computed_when_info_is_off(
        self, caplog, monkeypatch
    ) -> None:
        # The summary means are only computed for an enabled INFO line.
        import repro.sim.engine as engine

        network = make_tiny_network()
        controller = repro.DPPController(
            network, np.random.default_rng(0), v=50.0, budget=20.0, z=1
        )
        class CountingNumpy:
            """engine.py's ``np``, counting ``mean`` calls."""

            means = 0

            def __getattr__(self, name):
                return getattr(np, name)

            def mean(self, *args, **kwargs):
                CountingNumpy.means += 1
                return np.mean(*args, **kwargs)

        monkeypatch.setattr(engine, "np", CountingNumpy())
        with caplog.at_level(logging.WARNING, logger="repro.sim.engine"):
            engine.run_simulation(
                controller, iter([make_tiny_state()]), budget=20.0
            )
        assert CountingNumpy.means == 0

    def test_per_slot_debug_records(self, caplog) -> None:
        network = make_tiny_network()
        controller = repro.DPPController(
            network, np.random.default_rng(0), v=50.0, budget=20.0, z=1
        )
        with caplog.at_level(logging.DEBUG, logger="repro.sim.engine"):
            repro.run_simulation(
                controller, iter([make_tiny_state()]), budget=20.0
            )
        assert any("slot 0:" in r.message for r in caplog.records)

    def test_silent_at_warning_level(self, caplog) -> None:
        network = make_tiny_network()
        controller = repro.DPPController(
            network, np.random.default_rng(0), v=50.0, budget=20.0, z=1
        )
        with caplog.at_level(logging.WARNING, logger="repro.sim.engine"):
            repro.run_simulation(
                controller, iter([make_tiny_state()]), budget=20.0
            )
        assert not caplog.records
