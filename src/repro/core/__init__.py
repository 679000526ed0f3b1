"""The paper's primary contribution: BDMA-based DPP and its pieces.

Layout (bottom-up):

* :mod:`repro.core.state` -- per-slot system state ``beta_t`` and the
  five decision types ``alpha_t`` with constraint validation.
* :mod:`repro.core.allocation` -- Lemma 1: closed-form optimal bandwidth
  and computing resource allocations.
* :mod:`repro.core.latency` -- Eqs. (7)-(20): latencies under arbitrary
  allocations and the closed forms ``T^P``/``T^C`` under optimal ones.
* :mod:`repro.core.congestion_game` -- the weighted congestion game view
  of P2-A (WCG) with incremental loads and an exact potential function.
* :mod:`repro.core.cgba` -- Algorithm 3, CGBA(lambda).
* :mod:`repro.core.p2b` -- the convex frequency-scaling subproblem P2-B,
  solved per server.
* :mod:`repro.core.bdma` -- Algorithm 2, BDMA(z), alternating P2-A/P2-B.
* :mod:`repro.core.virtual_queue` -- the DPP virtual queue ``Q(t)``.
* :mod:`repro.core.drift_penalty` -- the drift-plus-penalty objective
  ``f(x, y, Omega) = V T_t + Q(t) Theta_t``.
* :mod:`repro.core.controller` -- Algorithm 1: the online BDMA-based DPP
  controller, parameterised by the P2-A solver so ROPT-/MCBA-based DPP
  reuse it.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".state": ("SlotState", "Assignment", "ResourceAllocation", "Decision"),
        ".allocation": ("optimal_allocation",),
        ".latency": (
            "processing_latency",
            "communication_latency",
            "total_latency",
            "per_device_latency",
            "optimal_processing_latency",
            "optimal_communication_latency",
            "optimal_total_latency",
        ),
        ".congestion_game": ("OffloadingCongestionGame",),
        ".cgba": ("CGBAResult", "solve_p2a_cgba"),
        ".p2b": ("solve_p2b",),
        ".bdma": ("BDMAResult", "solve_p2_bdma", "P2ASolver"),
        ".virtual_queue": ("VirtualQueue",),
        ".drift_penalty": ("dpp_objective",),
        ".budget": (
            "BudgetSchedule",
            "ConstantBudget",
            "PeriodicBudget",
            "CoordinatedBudget",
            "BudgetCoordinator",
            "demand_weighted_budget",
        ),
        ".controller": ("DPPController", "SlotRecord"),
        ".resilience": ("ResiliencePolicy", "SolverChaos"),
    },
)
