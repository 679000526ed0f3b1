"""Discrete-time simulation engine (paper Sec. VI).

* :mod:`repro.sim.seeding` -- reproducible independent RNG streams.
* :mod:`repro.sim.scenario` -- the per-slot state generator combining
  workload, channel, mobility, and price models into ``beta_t``.
* :mod:`repro.sim.engine` -- run a controller over a horizon.
* :mod:`repro.sim.results` -- the result container with time-average
  summaries.
* :mod:`repro.sim.metrics` -- window averages and convergence helpers.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".faults": (
            "MarkovOutages",
            "StateFault",
            "ServerOutages",
            "BaseStationOutages",
            "FronthaulDegradation",
            "PriceFeedDropouts",
            "ChannelStaleness",
            "ScriptedIncident",
            "FaultPlan",
        ),
        ".checkpoint": ("Checkpoint", "run_checkpointed"),
        ".replication": (
            "ReplicationSpec",
            "ReplicationOutcome",
            "ReplicationReport",
            "ReplicationSummary",
            "run_replications",
        ),
        ".seeding": ("SeedBank",),
        ".scenario": ("StateGenerator", "Scenario"),
        ".engine": ("run_simulation",),
        ".results": ("SimulationResult", "SimulationSummary"),
        ".metrics": (
            "window_averages",
            "cumulative_time_average",
            "converged_tail_mean",
        ),
        ".sharded": (
            "ShardedController",
            "ShardedResult",
            "merge_cell_metrics",
            "run_sharded",
            "shard_scenarios",
        ),
    },
)
