"""Fig. 5: decision-time comparison of the P2-A algorithms."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.analysis.tables import format_table
from repro.baselines import solve_p2a_exact, solve_p2a_mcba, solve_p2a_ropt
from repro.core import solve_p2a_cgba
from repro.experiments.common import (
    ExperimentResult,
    paper_scenario,
    reduced_scenario,
    single_state,
)
from repro.network.connectivity import StrategySpace


def _timed(fn) -> float:
    started = time.perf_counter()
    fn()
    return time.perf_counter() - started


@dataclass
class Fig5Result(ExperimentResult):
    """Decision times at paper scale plus the exact-solver comparison.

    Attributes:
        paper_rows: Rows ``[I, t_CGBA, t_MCBA, t_ROPT]`` (seconds).
        exact_rows: Rows ``[I, t_CGBA, t_B&B, nodes, slowdown]`` on the
            reduced topology where branch-and-bound certifies optimality.
    """

    paper_rows: list[list[object]] = field(default_factory=list)
    exact_rows: list[list[object]] = field(default_factory=list)

    def table(self) -> str:
        table_a = format_table(
            ["I", "CGBA (s)", "MCBA (s)", "ROPT (s)"],
            self.paper_rows,
            title="Fig. 5 -- P2-A decision time, paper-scale topology",
        )
        table_b = format_table(
            ["I", "CGBA (s)", "B&B (s)", "B&B nodes", "B&B/CGBA slowdown"],
            self.exact_rows,
            title="Fig. 5 (companion) -- exact solver vs CGBA, reduced topology",
        )
        return table_a + "\n\n" + table_b

    def verify(self) -> None:
        for _, t_cgba, t_mcba, t_ropt in self.paper_rows:
            assert t_ropt < t_cgba
            assert t_ropt < t_mcba
        ropt_times = [row[3] for row in self.paper_rows]
        assert max(ropt_times) < 0.05, "ROPT should be near-instant at all I"
        slowdowns = [row[4] for row in self.exact_rows]
        assert max(slowdowns) > 3.0, "exact search should cost well over CGBA"


def run_fig5(
    *,
    device_counts: tuple[int, ...] = (80, 90, 100, 110, 120),
    exact_device_counts: tuple[int, ...] = (8, 10, 12),
) -> Fig5Result:
    """Time the P2-A algorithms across instance sizes.

    One untimed CGBA call runs first, on a scenario no row times, so
    the first row does not pay one-off costs (the kernel library load,
    first-call caches).
    """
    result = Fig5Result()
    if device_counts:
        warm = paper_scenario(99, device_counts[0])
        warm_state = single_state(warm)
        solve_p2a_cgba(
            warm.network,
            warm_state,
            StrategySpace(warm.network, warm_state.coverage()),
            warm.network.freq_max.copy(),
            warm.controller_rng("fig5-warm-up"),
        )
    for idx, num_devices in enumerate(device_counts):
        scenario = paper_scenario(100 + idx, num_devices)
        network, state = scenario.network, single_state(scenario)
        space = StrategySpace(network, state.coverage())
        frequencies = network.freq_max.copy()
        rng = scenario.controller_rng("fig5")
        t_cgba = _timed(
            lambda: solve_p2a_cgba(network, state, space, frequencies, rng)
        )
        t_mcba = _timed(
            lambda: solve_p2a_mcba(network, state, space, frequencies, rng)
        )
        t_ropt = _timed(lambda: solve_p2a_ropt(space, rng))
        result.paper_rows.append([num_devices, t_cgba, t_mcba, t_ropt])

    for idx, num_devices in enumerate(exact_device_counts):
        scenario = reduced_scenario(200 + idx, num_devices)
        network, state = scenario.network, single_state(scenario)
        space = StrategySpace(network, state.coverage())
        frequencies = network.freq_max.copy()
        rng = scenario.controller_rng("fig5-exact")
        started = time.perf_counter()
        solve_p2a_cgba(network, state, space, frequencies, rng)
        t_cgba = time.perf_counter() - started
        started = time.perf_counter()
        exact = solve_p2a_exact(network, state, space, frequencies)
        t_exact = time.perf_counter() - started
        result.exact_rows.append(
            [num_devices, t_cgba, t_exact, exact.nodes,
             t_exact / max(t_cgba, 1e-9)]
        )
    return result
