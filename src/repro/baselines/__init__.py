"""Baseline algorithms the paper compares against, plus ablation policies.

* :mod:`repro.baselines.ropt` -- ROPT: uniformly random selections with
  Lemma-1 optimal resource allocation (the paper's random baseline).
* :mod:`repro.baselines.mcba` -- MCBA: Markov-chain Monte Carlo search
  over assignments [36].
* :mod:`repro.baselines.branch_and_bound` -- exact best-first
  branch-and-bound for P2-A; our substitute for the paper's Gurobi
  optimum.
* :mod:`repro.baselines.lower_bounds` -- certified lower bounds on P2-A
  (congestion-free relaxation).
* :mod:`repro.baselines.greedy` -- one-pass greedy assignment, joint and
  decoupled variants (ablation).
* :mod:`repro.baselines.fixed_frequency` -- controllers pinning every
  server at a fixed clock (ablation on the value of frequency scaling).
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".ropt": ("solve_p2a_ropt", "ropt_p2a_solver"),
        ".mcba": ("MCBAResult", "solve_p2a_mcba", "mcba_p2a_solver"),
        ".branch_and_bound": ("BranchAndBoundResult", "solve_p2a_exact"),
        ".lower_bounds": ("p2a_lower_bound", "p2a_fractional_bound"),
        ".greedy": ("solve_p2a_greedy", "greedy_p2a_solver"),
        ".fixed_frequency": ("FixedFrequencyController",),
    },
)
