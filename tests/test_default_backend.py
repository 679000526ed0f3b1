"""The default path: what a run that names no kernel backend runs.

An unset backend means the C kernels when they build and load, and the
NumPy kernels otherwise.  Every test here opts out of the suite's
oracle fixture (``@pytest.mark.default_backend``) so it sees the
default a user's run gets.  Checked: the default reproduces the pinned
medium fingerprint bit for bit, every entry point records the backend
that actually ran, importing the package builds nothing, and a machine
that cannot build the C kernels runs NumPy -- under its own name -- with
one warning and no error, and its run manifests say the C kernels are
unavailable.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import warnings

import pytest

import repro
import repro.kernels
from repro.api import CellConfig, RunConfig, run
from repro.cli import main
from repro.kernels import available_backends, get_kernels, native
from repro.obs.telemetry import MetricsRegistry
from repro.sim import replication
from repro.sim.replication import ReplicationSpec, run_replications
from repro.sim.sharded import ShardedController

from conftest import MEDIUM_FINGERPRINT, fingerprint

pytestmark = pytest.mark.default_backend


def _default_name() -> str:
    """The backend an unset one resolves to on this machine."""
    return "jit" if available_backends()["jit"] else "numpy"


def _cli_manifest(tmp_path, *extra: str) -> dict:
    trace = tmp_path / "run.jsonl"
    code = main(
        ["simulate", "--devices", "6", "--horizon", "2", "--trace", str(trace),
         *extra]
    )
    assert code == 0
    return json.loads((tmp_path / "run.manifest.json").read_text())


def _ran_backends(registry: MetricsRegistry) -> set[str]:
    """The ``backend`` labels of every timed kernel call."""
    return {
        dict(labels)["backend"]
        for labels in registry._families["repro_kernel_seconds"]._series
    }


class TestDefaultIsTheCKernels:
    def test_unset_backend_reproduces_the_medium_fingerprint(self) -> None:
        default = run(controller="dpp", seed=7, horizon=240)
        oracle = run(
            controller="dpp", seed=7, horizon=240, engine_backend="numpy"
        )
        assert fingerprint(default) == MEDIUM_FINGERPRINT
        assert fingerprint(oracle) == MEDIUM_FINGERPRINT

    def test_config_and_manifest_name_the_backend_that_ran(
        self, tmp_path
    ) -> None:
        manifest = _cli_manifest(tmp_path)
        assert manifest["config"]["engine"]["backend"] == _default_name()
        registry = MetricsRegistry()
        run(
            controller="dpp", seed=7, horizon=2,
            scenario_config=repro.ScenarioConfig(num_devices=6),
            metrics_registry=registry,
        )
        assert _ran_backends(registry) == {_default_name()}

    def test_an_explicit_backend_is_recorded_as_named(self, tmp_path) -> None:
        manifest = _cli_manifest(tmp_path, "--backend", "numpy")
        assert manifest["config"]["engine"]["backend"] == "numpy"

    def test_entry_points_hand_workers_a_concrete_name(
        self, monkeypatch
    ) -> None:
        scenario = repro.make_paper_scenario(
            seed=3, config=repro.ScenarioConfig(num_devices=8)
        )
        sharded = ShardedController(scenario, RunConfig(cells=CellConfig(count=2)))
        assert sharded.config.engine.backend == _default_name()
        seen = []
        original = replication._run_one

        def spy(spec, seed, trace_phases):
            seen.append(spec.engine_backend)
            return original(spec, seed, trace_phases)

        monkeypatch.setattr(replication, "_run_one", spy)
        run_replications(ReplicationSpec(num_devices=6, horizon=2), [1])
        assert seen == [_default_name()]

    def test_import_builds_nothing(self, tmp_path) -> None:
        cache = tmp_path / "kernels"
        code = (
            "import sys, repro, repro.kernels\n"
            "assert repro.kernels._cache == {}, repro.kernels._cache\n"
            "assert 'repro.kernels.native' not in sys.modules\n"
        )
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src, REPRO_KERNEL_CACHE=str(cache))
        subprocess.run([sys.executable, "-c", code], check=True, env=env)
        assert not cache.exists()


@pytest.fixture
def fresh_resolution(monkeypatch):
    """A process that has resolved no backend yet."""
    monkeypatch.setattr(repro.kernels, "_cache", {})
    monkeypatch.setattr(native, "_backend", None)


def _unusable_cache(tmp_path, monkeypatch) -> str:
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("")
    monkeypatch.setenv("REPRO_KERNEL_CACHE", str(blocker / "kernels"))
    return "kernel cache" if native.find_compiler() else "no C compiler"


def _no_compiler(tmp_path, monkeypatch) -> str:
    empty = tmp_path / "bin"
    empty.mkdir()
    monkeypatch.setenv("PATH", str(empty))
    return "no C compiler"


@pytest.mark.usefixtures("fresh_resolution")
class TestFallbackWhenTheCKernelsCannotBuild:
    @pytest.mark.parametrize("breakage", [_unusable_cache, _no_compiler])
    @pytest.mark.parametrize("requested", [None, "jit"])
    def test_resolves_to_numpy_with_one_warning(
        self, breakage, requested, tmp_path, monkeypatch
    ) -> None:
        reason = breakage(tmp_path, monkeypatch)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            backend = get_kernels(requested)
            again = get_kernels(None if requested else "jit")
        assert backend.name == "numpy"
        assert backend is again is get_kernels("numpy")
        assert backend.bdma_slot is None
        assert len(caught) == 1
        assert caught[0].category is RuntimeWarning
        assert reason in str(caught[0].message)

    def test_manifest_reports_the_fallback(self, tmp_path) -> None:
        # A compiler on PATH is not enough: the manifest records what
        # the jit backend resolved to.
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("")
        trace = tmp_path / "run.jsonl"
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(
            os.environ, PYTHONPATH=src,
            REPRO_KERNEL_CACHE=str(blocker / "k"),
        )
        subprocess.run(
            [sys.executable, "-m", "repro", "simulate", "--devices", "6",
             "--horizon", "2", "--trace", str(trace)],
            check=True, env=env, capture_output=True,
        )
        manifest = json.loads((tmp_path / "run.manifest.json").read_text())
        assert manifest["config"]["engine"]["backend"] == "numpy"
        assert manifest["backends"] == {
            "numpy": True, "jit": False, "jit_provider": None,
        }

    def test_every_entry_point_reports_numpy(self, tmp_path, monkeypatch) -> None:
        _no_compiler(tmp_path, monkeypatch)
        with pytest.warns(RuntimeWarning, match="no C compiler"):
            manifest = _cli_manifest(tmp_path)
        assert manifest["config"]["engine"]["backend"] == "numpy"
        registry = MetricsRegistry()
        run(
            controller="dpp", seed=7, horizon=2, engine_backend="jit",
            scenario_config=repro.ScenarioConfig(num_devices=6),
            metrics_registry=registry,
        )
        assert _ran_backends(registry) == {"numpy"}
