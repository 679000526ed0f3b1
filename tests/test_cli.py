"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_a_command(self) -> None:
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_defaults(self) -> None:
        args = build_parser().parse_args(["simulate"])
        assert args.devices == 50
        assert args.solver == "bdma"
        assert args.v == 100.0
        assert args.horizon == 48

    def test_unknown_solver_rejected(self) -> None:
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--solver", "gurobi"])

    @pytest.mark.parametrize(
        "command",
        (["simulate"], ["metrics", "snapshot"], ["profile", "report"]),
    )
    def test_cell_runtime_flag_removed(self, command) -> None:
        with pytest.raises(SystemExit):
            build_parser().parse_args([*command, "--cell-runtime", "resident"])

    @pytest.mark.parametrize(
        "flags", (["--no-compiled-states"], ["--state-chunk", "16"])
    )
    def test_state_drawing_flags_removed(self, flags) -> None:
        # States always come from the state compiler; there is no
        # per-slot switch and no chunk size to set.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", *flags])


class TestCommands:
    def test_info(self, capsys) -> None:
        code = main(["info", "--devices", "10"])
        out = capsys.readouterr().out
        assert code == 0
        assert "repro 1.0.0" in out
        assert "I=10" in out
        assert "R_F" in out

    def test_simulate_small(self, capsys, tmp_path) -> None:
        out_file = tmp_path / "run.npz"
        code = main(
            [
                "simulate",
                "--devices", "8",
                "--horizon", "3",
                "--z", "1",
                "--output", str(out_file),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        summary = json.loads(out[out.index("{"): out.index("}") + 1])
        assert summary["horizon"] == 3
        assert out_file.exists()

    def test_simulate_with_chart_and_ropt(self, capsys) -> None:
        code = main(
            ["simulate", "--devices", "8", "--horizon", "3",
             "--solver", "ropt", "--chart"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "virtual queue backlog" in out

    def test_experiment_list(self, capsys) -> None:
        code = main(["experiment", "--list"])
        out = capsys.readouterr().out
        assert code == 0
        assert "fig4" in out
        assert "ablation-freq" in out

    def test_experiment_without_name_lists(self, capsys) -> None:
        code = main(["experiment"])
        assert code == 0
        assert "fig2" in capsys.readouterr().out

    def test_experiment_unknown_name(self, capsys) -> None:
        code = main(["experiment", "fig99"])
        assert code == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_experiment_fig3_runs(self, capsys) -> None:
        code = main(["experiment", "fig3", "--verify"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Fig. 3" in out
        assert "verified" in out

    def test_equilibrium(self, capsys) -> None:
        code = main(
            ["equilibrium", "--devices", "8", "--budget-fraction", "0.3"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "equilibrium Q*" in out


class TestObservabilityFlags:
    def test_simulate_fixed_solver(self, capsys) -> None:
        code = main(
            ["simulate", "--devices", "8", "--horizon", "2",
             "--solver", "fixed", "--fraction", "0.5"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "solver fixed" in out

    def test_profile_prints_phase_table(self, capsys) -> None:
        code = main(
            ["simulate", "--devices", "8", "--horizon", "3", "--profile"]
        )
        out = capsys.readouterr().out
        assert code == 0
        for phase in ("slot", "slot/bdma/p2a", "slot/queue"):
            assert phase in out
        assert "p50 ms" in out and "p95 ms" in out
        assert "bdma.rounds" in out

    def test_trace_writes_jsonl_and_manifest(self, capsys, tmp_path) -> None:
        trace = tmp_path / "run.jsonl"
        code = main(
            ["simulate", "--devices", "8", "--horizon", "3",
             "--seed", "5", "--trace", str(trace)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert f"trace written to {trace}" in out

        from repro.obs import read_jsonl

        events = read_jsonl(trace)
        kinds = {e["kind"] for e in events}
        assert {"span", "counter", "event"} <= kinds
        slots = [e for e in events if e["kind"] == "event"]
        assert len(slots) == 3

        manifest = json.loads((tmp_path / "run.manifest.json").read_text())
        assert manifest["seed"] == 5
        assert manifest["config"]["horizon"] == 3
        assert manifest["config_hash"]
        assert manifest["wall_clock_seconds"] >= 0.0

    def test_profile_without_trace_writes_nothing(self, capsys, tmp_path) -> None:
        code = main(
            ["simulate", "--devices", "8", "--horizon", "2", "--profile"]
        )
        assert code == 0
        assert list(tmp_path.iterdir()) == []


class TestMonitorAndDashboardFlags:
    def test_monitors_print_health_report(self, capsys) -> None:
        code = main(
            ["simulate", "--devices", "8", "--horizon", "3", "--z", "1",
             "--monitors"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "health: OK" in out
        for monitor in ("queue_stability", "feasibility", "budget",
                        "guarantee", "anomaly"):
            assert monitor in out

    def test_sharded_monitors_print_health_report(self, capsys) -> None:
        code = main(
            ["simulate", "--devices", "16", "--horizon", "4", "--z", "1",
             "--cells", "2", "--monitors"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "health:" in out
        # One default suite per cell, folded into one report.
        for cell in ("cell0", "cell1"):
            assert cell in out

    def test_sharded_dashboard_still_rejected(self, capsys) -> None:
        code = main(
            ["simulate", "--devices", "16", "--horizon", "4", "--cells", "2",
             "--dashboard"]
        )
        assert code == 2
        assert "--cells does not combine" in capsys.readouterr().err

    def test_dashboard_renders_frames(self, capsys) -> None:
        code = main(
            ["simulate", "--devices", "8", "--horizon", "3", "--z", "1",
             "--dashboard", "--ascii"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "slot 2" in out
        assert "backlog" in out
        # --ascii keeps the whole stream 7-bit clean.
        out.encode("ascii")
        # The health report follows the final frame.
        assert "health: OK" in out

    def test_monitor_alerts_reach_the_trace(self, capsys, tmp_path) -> None:
        trace = tmp_path / "run.jsonl"
        code = main(
            ["simulate", "--devices", "8", "--horizon", "3", "--z", "1",
             "--monitors", "--trace", str(trace)]
        )
        assert code == 0
        from repro.obs import load_trace

        # A clean run records zero alerts but still loads as a trace.
        assert load_trace(trace).alerts == []


class TestTraceCommands:
    def _record(self, tmp_path, name: str, horizon: int = 3):
        path = tmp_path / name
        assert main(
            ["simulate", "--devices", "8", "--horizon", str(horizon),
             "--z", "1", "--seed", "5", "--trace", str(path)]
        ) == 0
        return path

    def test_summary(self, capsys, tmp_path) -> None:
        path = self._record(tmp_path, "run.jsonl")
        capsys.readouterr()
        code = main(["trace", "summary", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "3 slots" in out
        assert "mean_latency" in out
        assert "slot/bdma" in out

    def test_diff_identical_exits_zero(self, capsys, tmp_path) -> None:
        a = self._record(tmp_path, "a.jsonl")
        b = self._record(tmp_path, "b.jsonl")
        capsys.readouterr()
        code = main(["trace", "diff", str(a), str(b), "--ignore-times"])
        out = capsys.readouterr().out
        assert code == 0
        assert "no regressions" in out

    def test_diff_regression_exits_one(self, capsys, tmp_path) -> None:
        import json as _json

        a = self._record(tmp_path, "a.jsonl")
        b = tmp_path / "b.jsonl"
        events = []
        for line in a.read_text().splitlines():
            event = _json.loads(line)
            if event["kind"] == "event" and event["name"] == "slot":
                event["data"]["cost"] *= 2.0
            events.append(event)
        b.write_text("\n".join(_json.dumps(e) for e in events) + "\n")
        capsys.readouterr()
        code = main(["trace", "diff", str(a), str(b), "--ignore-times"])
        out = capsys.readouterr().out
        assert code == 1
        assert "REGRESSION" in out
        assert "mean_cost" in out

    def test_trace_requires_a_subcommand(self) -> None:
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace"])


class TestCrashSalvage:
    """A dying simulate run must still flush its trace and manifest."""

    ARGS = ["simulate", "--devices", "8", "--horizon", "6", "--z", "1",
            "--seed", "5"]

    def _die_after(self, monkeypatch, exc: type, slots: int) -> None:
        import repro as repro_pkg

        original = repro_pkg.run_simulation

        def dying(controller, states, **kwargs):
            seen = {"n": 0}
            user_on_slot = kwargs.pop("on_slot", None)

            def on_slot(record):
                if user_on_slot is not None:
                    user_on_slot(record)
                seen["n"] += 1
                if seen["n"] >= slots:
                    raise exc("boom")

            return original(controller, states, on_slot=on_slot, **kwargs)

        monkeypatch.setattr(repro_pkg, "run_simulation", dying)

    def test_interrupt_exits_130_and_salvages(
        self, monkeypatch, capsys, tmp_path
    ) -> None:
        self._die_after(monkeypatch, KeyboardInterrupt, 2)
        trace = tmp_path / "run.jsonl"
        code = main(self.ARGS + ["--trace", str(trace)])
        captured = capsys.readouterr()
        assert code == 130
        assert "interrupted" in captured.err
        assert f"partial trace written to {trace}" in captured.err

        from repro.obs import read_jsonl

        slots = [
            e for e in read_jsonl(trace)
            if e["kind"] == "event" and e["name"] == "slot"
        ]
        assert len(slots) == 2  # the decided slots survived the death
        manifest = json.loads((tmp_path / "run.manifest.json").read_text())
        assert manifest["status"] == "interrupted"
        assert manifest["seed"] == 5

    def test_crash_exits_1_and_stamps_the_manifest(
        self, monkeypatch, capsys, tmp_path
    ) -> None:
        self._die_after(monkeypatch, RuntimeError, 1)
        trace = tmp_path / "run.jsonl"
        code = main(self.ARGS + ["--trace", str(trace)])
        captured = capsys.readouterr()
        assert code == 1
        assert "RuntimeError" in captured.err  # traceback reaches stderr
        manifest = json.loads((tmp_path / "run.manifest.json").read_text())
        assert manifest["status"] == "crashed"

    def test_interrupt_without_trace_still_exits_130(
        self, monkeypatch, capsys, tmp_path
    ) -> None:
        self._die_after(monkeypatch, KeyboardInterrupt, 1)
        assert main(self.ARGS) == 130
        assert list(tmp_path.iterdir()) == []

    def test_salvage_persists_a_metrics_snapshot(
        self, monkeypatch, capsys, tmp_path
    ) -> None:
        # With telemetry on, the salvage path must also write the final
        # OpenMetrics snapshot next to the trace for post-mortems.
        from repro.obs import parse_openmetrics

        self._die_after(monkeypatch, KeyboardInterrupt, 2)
        trace = tmp_path / "run.jsonl"
        code = main(
            self.ARGS + ["--trace", str(trace), "--metrics-port", "0"]
        )
        captured = capsys.readouterr()
        assert code == 130
        metrics = tmp_path / "run.jsonl.metrics"
        assert f"metrics snapshot written to {metrics}" in captured.err
        families = parse_openmetrics(metrics.read_text())
        assert "repro_slots" in families

    def test_healthy_run_stamps_completed(self, capsys, tmp_path) -> None:
        trace = tmp_path / "run.jsonl"
        assert main(self.ARGS + ["--trace", str(trace)]) == 0
        manifest = json.loads((tmp_path / "run.manifest.json").read_text())
        assert manifest["status"] == "completed"


class TestEquilibriumGuarantees:
    def test_equilibrium_prints_guarantee_checks(self, capsys) -> None:
        code = main(["equilibrium", "--devices", "8"])
        out = capsys.readouterr().out
        assert code == 0
        assert "guarantees" in out
        assert "CGBA (Thm 2)" in out
        assert "BDMA (Thm 3)" in out
        # The paper's bounds hold on the sampled slot.
        assert "[ok]" in out and "VIOLATED" not in out

    def test_measurement_above_a_relaxation_bound_is_inconclusive(
        self, capsys, monkeypatch
    ) -> None:
        # The relaxation bound lies below the optimum, so exceeding its
        # scaled value does not show that a theorem is broken.
        # The CLI imports the bound where it uses it: patch its home.
        monkeypatch.setattr(
            "repro.baselines.lower_bounds.p2a_lower_bound",
            lambda *args, **kwargs: 1e-12,
        )
        assert main(["equilibrium", "--devices", "8"]) == 0
        lines = [
            line for line in capsys.readouterr().out.splitlines()
            if "(Thm" in line
        ]
        assert len(lines) == 2
        for line in lines:
            assert "[inconclusive]" in line and "VIOLATED" not in line
