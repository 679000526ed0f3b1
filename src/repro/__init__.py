"""repro: a reproduction of "Energy-Aware Online Task Offloading and
Resource Allocation for Mobile Edge Computing" (ICDCS 2023).

The package implements the paper's BDMA-based drift-plus-penalty online
controller and every substrate it runs on: the MEC topology, radio
channels, workloads, energy models, electricity pricing, the baselines
(ROPT, MCBA, exact branch and bound), and a discrete-time simulation
engine.

Quickstart::

    import repro

    result = repro.api.run(controller="dpp", horizon=48, seed=7, v=100.0)
    print(result.summary())

The facade accepts every controller name the paper compares
(``"dpp"``/``"bdma"``, ``"mcba"``, ``"ropt"``, ``"greedy"``,
``"fixed"``); :mod:`repro.obs` adds tracing on top::

    probe = repro.obs.Probe()
    result = repro.api.run(controller="dpp", horizon=48, tracer=probe)
    print(probe.phases.table())

The pieces remain directly composable when the facade is too coarse::

    scenario = repro.make_paper_scenario(seed=7)
    controller = repro.DPPController(
        scenario.network,
        scenario.controller_rng(),
        v=100.0,
        budget=scenario.budget,
    )
    result = repro.run_simulation(
        controller, scenario.fresh_states(48), budget=scenario.budget
    )
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "._version": ("__version__",),
        # facade + observability
        ".api": ("api", "make_controller", "RunConfig", "CellConfig"),
        ".obs": ("obs",),
        ".sharding": ("sharding",),
        # configuration
        ".config": ("make_paper_scenario", "ScenarioConfig", "DEFAULT_PERIOD"),
        # core state/decisions and algorithms
        ".core.state": ("SlotState", "Assignment", "ResourceAllocation", "Decision"),
        ".core.allocation": ("optimal_allocation",),
        ".core.latency": ("optimal_total_latency", "total_latency"),
        ".core.congestion_game": ("OffloadingCongestionGame",),
        ".core.cgba": ("solve_p2a_cgba", "CGBAResult", "cgba_approximation_ratio"),
        ".core.p2b": ("solve_p2b",),
        ".core.bdma": ("solve_p2_bdma", "BDMAResult"),
        ".core.virtual_queue": ("VirtualQueue",),
        ".core.drift_penalty": ("dpp_objective",),
        ".core.controller": ("DPPController", "OnlineController", "SlotRecord"),
        # resilience
        ".core.resilience": ("ResiliencePolicy", "SolverChaos"),
        ".sim.faults": (
            "FaultPlan",
            "ScriptedIncident",
            "MarkovOutages",
        ),
        ".sim.checkpoint": ("Checkpoint", "run_checkpointed"),
        # budget schedules
        ".core.budget": (
            "BudgetSchedule",
            "ConstantBudget",
            "PeriodicBudget",
            "demand_weighted_budget",
        ),
        # theory bounds
        ".core.theory": (
            "bdma_approximation_ratio",
            "check_cgba_guarantee",
            "check_bdma_guarantee",
        ),
        # analysis
        ".analysis.equilibrium": ("estimate_equilibrium_backlog",),
        ".analysis.decomposition": ("seasonal_decompose", "periodicity_strength"),
        ".analysis.fairness": ("jain_index", "slot_latency_fairness"),
        ".analysis.text_plots": ("sparkline", "line_chart"),
        # io
        ".io": ("save_result", "load_result", "records_to_jsonl", "summary_to_json"),
        # trace fitting
        ".workload.estimation": (
            "fit_periodic_profile",
            "fit_price_model",
            "fit_task_generator",
        ),
        # baselines
        ".baselines.ropt": ("solve_p2a_ropt", "ropt_p2a_solver"),
        ".baselines.mcba": ("solve_p2a_mcba", "mcba_p2a_solver", "MCBAResult"),
        ".baselines.branch_and_bound": ("solve_p2a_exact", "BranchAndBoundResult"),
        ".baselines.lower_bounds": ("p2a_lower_bound",),
        ".baselines.greedy": ("solve_p2a_greedy", "greedy_p2a_solver"),
        ".baselines.fixed_frequency": ("FixedFrequencyController",),
        # network
        ".network.topology": (
            "MECNetwork",
            "BaseStation",
            "EdgeServer",
            "ServerCluster",
            "MobileDevice",
        ),
        ".network.builder": ("NetworkBuilder", "build_paper_network"),
        ".network.connectivity": ("StrategySpace",),
        ".network.validation": ("validate_network",),
        # simulation
        ".sim.scenario": ("Scenario", "StateGenerator"),
        ".sim.seeding": ("SeedBank",),
        ".sim.engine": ("run_simulation",),
        ".sim.results": ("SimulationResult", "SimulationSummary"),
        ".sim.replication": (
            "run_replications",
            "ReplicationSpec",
            "ReplicationReport",
            "ReplicationSummary",
        ),
        # exceptions
        ".exceptions": (
            "ReproError",
            "ConfigurationError",
            "TopologyError",
            "InfeasibleError",
            "SolverError",
            "ConvergenceError",
            "ValidationError",
            "DeadlineError",
            "InjectedFaultError",
            "CheckpointError",
        ),
    },
)
