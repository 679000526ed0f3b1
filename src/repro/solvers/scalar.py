"""Bounded one-dimensional convex minimisation.

The P2-B frequency-scaling subproblem of the paper is separable per
server, leaving a one-dimensional convex objective on a box
``[lo, hi]``.  The paper hands this to the CVX solver; we implement the
substitute here: :func:`minimize_convex_scalar`, a derivative-free
golden-section search, exact to a configurable tolerance for any
unimodal function.  The C kernels' ``golden_quad`` replays it lane for
lane on quadratic energy models.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from repro.exceptions import SolverError

#: Inverse golden ratio, the interval-reduction factor per iteration.
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0


@dataclass(frozen=True)
class GoldenSectionResult:
    """Outcome of a scalar minimisation.

    Attributes:
        x: The minimiser found.
        value: Objective value at ``x``.
        iterations: Number of objective evaluations performed.
        converged: Whether the bracket shrank below tolerance.
    """

    x: float
    value: float
    iterations: int
    converged: bool


def minimize_convex_scalar(
    fn: Callable[[float], float],
    lo: float,
    hi: float,
    *,
    tol: float = 1e-9,
    max_iter: int = 200,
) -> GoldenSectionResult:
    """Minimise a unimodal function on ``[lo, hi]`` by golden-section search.

    Args:
        fn: Objective, assumed unimodal (convexity suffices) on the interval.
        lo: Lower bound of the feasible interval.
        hi: Upper bound of the feasible interval; must satisfy ``hi >= lo``.
        tol: Absolute tolerance on the bracket width, relative to the
            initial width (i.e. the search stops when the bracket is
            narrower than ``tol * max(1, hi - lo)``).
        max_iter: Hard cap on iterations.

    Returns:
        A :class:`GoldenSectionResult`.  The endpoints are always included
        as candidates so boundary optima are returned exactly.

    Raises:
        SolverError: If ``hi < lo`` or the bounds are not finite.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise SolverError(f"bounds must be finite, got [{lo}, {hi}]")
    if hi < lo:
        raise SolverError(f"empty interval: lo={lo} > hi={hi}")
    if hi == lo:
        return GoldenSectionResult(x=lo, value=fn(lo), iterations=1, converged=True)

    width = hi - lo
    threshold = tol * max(1.0, width)
    a, b = lo, hi
    c = a + _INVPHI2 * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = fn(c), fn(d)
    evals = 2
    converged = False
    for _ in range(max_iter):
        if (b - a) <= threshold:
            converged = True
            break
        if fc <= fd:
            b, d, fd = d, c, fc
            c = a + _INVPHI2 * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = fn(d)
        evals += 1

    # Pick the best among interior probes and the original endpoints, so
    # boundary minima (common in P2-B when the queue is empty) are exact.
    candidates = [(fn(lo), lo), (fn(hi), hi), (fc, c), (fd, d)]
    evals += 2
    best_value, best_x = min(candidates, key=lambda pair: pair[0])
    return GoldenSectionResult(
        x=best_x, value=best_value, iterations=evals, converged=converged
    )
