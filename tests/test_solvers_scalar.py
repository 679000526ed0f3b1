"""Tests for the bounded scalar convex minimiser."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.exceptions import SolverError
from repro.solvers.scalar import minimize_convex_scalar


class TestGoldenSection:
    def test_interior_minimum_quadratic(self) -> None:
        result = minimize_convex_scalar(lambda x: (x - 2.0) ** 2 + 1.0, 0.0, 5.0)
        assert result.converged
        assert result.x == pytest.approx(2.0, abs=1e-6)
        assert result.value == pytest.approx(1.0, abs=1e-10)

    def test_minimum_at_lower_bound(self) -> None:
        result = minimize_convex_scalar(lambda x: x * x, 1.0, 3.0)
        assert result.x == pytest.approx(1.0)
        assert result.value == pytest.approx(1.0)

    def test_minimum_at_upper_bound(self) -> None:
        result = minimize_convex_scalar(lambda x: -x, 0.0, 2.0)
        assert result.x == pytest.approx(2.0)
        assert result.value == pytest.approx(-2.0)

    def test_degenerate_interval(self) -> None:
        result = minimize_convex_scalar(lambda x: x * x, 1.5, 1.5)
        assert result.x == 1.5
        assert result.converged

    def test_empty_interval_raises(self) -> None:
        with pytest.raises(SolverError):
            minimize_convex_scalar(lambda x: x, 2.0, 1.0)

    def test_nonfinite_bounds_raise(self) -> None:
        with pytest.raises(SolverError):
            minimize_convex_scalar(lambda x: x, 0.0, math.inf)

    def test_p2b_shaped_objective(self) -> None:
        # V*A/omega + Q*p*(a omega^2 + b omega + c): the exact P2-B form.
        v_a, qp = 50.0, 0.3
        a, b, c = 5.0, 2.0, 10.0

        def objective(w: float) -> float:
            return v_a / w + qp * (a * w * w + b * w + c)

        result = minimize_convex_scalar(objective, 1.8, 3.6, tol=1e-10)
        # Stationary point solves 2 a qp w^3 + b qp w^2 = v_a.
        roots = np.roots([2 * a * qp, b * qp, 0.0, -v_a])
        real = [float(r.real) for r in roots if abs(r.imag) < 1e-9 and r.real > 0]
        expected = min(max(real[0], 1.8), 3.6)
        assert result.x == pytest.approx(expected, abs=1e-5)

    @given(
        center=st.floats(-5.0, 5.0),
        lo=st.floats(-10.0, 0.0),
        width=st.floats(0.5, 20.0),
    )
    def test_property_quadratic_minimum_clipped(
        self, center: float, lo: float, width: float
    ) -> None:
        hi = lo + width
        result = minimize_convex_scalar(
            lambda x: (x - center) ** 2, lo, hi, tol=1e-9
        )
        expected = min(max(center, lo), hi)
        assert result.x == pytest.approx(expected, abs=1e-4 * max(1.0, width))

    @given(slope=st.floats(-3.0, 3.0), intercept=st.floats(-2.0, 2.0))
    def test_property_linear_objective_picks_endpoint(
        self, slope: float, intercept: float
    ) -> None:
        result = minimize_convex_scalar(
            lambda x: slope * x + intercept, 0.0, 1.0
        )
        values = {0.0: intercept, 1.0: slope + intercept}
        assert result.value <= min(values.values()) + 1e-9

