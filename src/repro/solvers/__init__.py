"""Generic numerical solvers used as substrates by the core algorithms.

This subpackage is deliberately free of any MEC-specific concepts so the
solvers can be tested (and reused) in isolation:

* :mod:`repro.solvers.scalar` -- bounded one-dimensional convex
  minimisation (golden-section search).
  This is our substitute for the CVX solver the paper uses for P2-B.
* :mod:`repro.solvers.potential_game` -- a generic best-response-dynamics
  engine over finite games; CGBA (Algorithm 3) is an instance of it.
* :mod:`repro.solvers.assignment` -- helpers for enumerating and scoring
  discrete assignment problems, shared by the branch-and-bound baseline.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".scalar": ("GoldenSectionResult", "minimize_convex_scalar"),
        ".potential_game": (
            "BestResponseResult",
            "EngineStats",
            "FiniteGame",
            "best_response_dynamics",
        ),
        ".fast_engine": ("FastBestResponseEngine",),
        ".assignment": ("QuadraticCongestionProblem", "congestion_free_lower_bound"),
        ".relaxation": ("RelaxationResult", "solve_fractional_relaxation"),
    },
)
