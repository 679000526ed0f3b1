"""Multi-cell scale-out, in one namespace.

The sharding layer spans three subpackages -- cell partitioning lives
with the topology code (:mod:`repro.network.partition`), budget
coordination with the budget algebra (:mod:`repro.core.budget`), and
the sharded engine with the simulation loop (:mod:`repro.sim.sharded`).
This module re-exports the public surface so scale-out reads as one
story::

    from repro import sharding

    scenario = repro.make_paper_scenario(seed=7)
    plan = sharding.partition_cells(scenario.network, 4)
    result = sharding.run_sharded(scenario, horizon=48, cells=plan)
    print(result.merged.summary(), result.budgets.sum(axis=1))
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.core.budget": ("BudgetCoordinator", "CoordinatedBudget"),
        "repro.network.partition": (
            "Cell",
            "CellIndexMaps",
            "CellPlan",
            "extract_subnetwork",
            "partition_cells",
        ),
        "repro.sim.checkpoint": ("Checkpoint",),
        "repro.sim.shard_runtime": (
            "CellRuntime",
            "ResidentWorker",
            "SharedStatePlanner",
            "WorkerFailure",
        ),
        "repro.sim.sharded": (
            "ShardedController",
            "ShardedResult",
            "merge_cell_metrics",
            "run_sharded",
            "shard_scenarios",
        ),
    },
)
