"""Generic numerical solvers used as substrates by the core algorithms.

This subpackage is deliberately free of any MEC-specific concepts so the
solvers can be tested (and reused) in isolation:

* :mod:`repro.solvers.scalar` -- bounded one-dimensional convex
  minimisation (golden-section search with an optional Newton fast path).
  This is our substitute for the CVX solver the paper uses for P2-B.
* :mod:`repro.solvers.potential_game` -- a generic best-response-dynamics
  engine over finite games; CGBA (Algorithm 3) is an instance of it.
* :mod:`repro.solvers.assignment` -- helpers for enumerating and scoring
  discrete assignment problems, shared by the branch-and-bound baseline.
"""

from repro.solvers.scalar import (
    GoldenSectionResult,
    minimize_convex_scalar,
    minimize_scalar_newton,
)
from repro.solvers.potential_game import (
    BestResponseResult,
    EngineStats,
    FiniteGame,
    best_response_dynamics,
)
from repro.solvers.fast_engine import FastBestResponseEngine
from repro.solvers.assignment import (
    QuadraticCongestionProblem,
    congestion_free_lower_bound,
)
from repro.solvers.relaxation import RelaxationResult, solve_fractional_relaxation

__all__ = [
    "GoldenSectionResult",
    "minimize_convex_scalar",
    "minimize_scalar_newton",
    "BestResponseResult",
    "EngineStats",
    "FiniteGame",
    "best_response_dynamics",
    "FastBestResponseEngine",
    "QuadraticCongestionProblem",
    "congestion_free_lower_bound",
    "RelaxationResult",
    "solve_fractional_relaxation",
]
