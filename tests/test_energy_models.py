"""Tests for energy-consumption models and the i7-3770K fit."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.energy.cpu_data import (
    I7_3770K_FREQUENCIES_GHZ,
    I7_3770K_POWER_WATTS,
    fit_quadratic_power_curve,
)
from repro.energy.models import (
    CubicEnergyModel,
    LinearEnergyModel,
    PiecewiseLinearEnergyModel,
    QuadraticEnergyModel,
    ScaledEnergyModel,
    perturbed_quadratic_model,
)
from repro.exceptions import ConfigurationError


class TestCpuData:
    def test_measurements_are_convex_increasing(self) -> None:
        power = I7_3770K_POWER_WATTS
        assert np.all(np.diff(power) > 0)
        slopes = np.diff(power) / np.diff(I7_3770K_FREQUENCIES_GHZ)
        assert np.all(np.diff(slopes) >= -1e-9)

    def test_fit_is_convex_and_accurate(self) -> None:
        a, b, c = fit_quadratic_power_curve()
        assert a > 0.0
        fitted = a * I7_3770K_FREQUENCIES_GHZ**2 + b * I7_3770K_FREQUENCIES_GHZ + c
        rel_err = np.abs(fitted - I7_3770K_POWER_WATTS) / I7_3770K_POWER_WATTS
        assert float(rel_err.max()) < 0.03

    def test_fit_rejects_mismatched_inputs(self) -> None:
        with pytest.raises(ValueError):
            fit_quadratic_power_curve(np.array([1.0, 2.0]), np.array([1.0]))

    def test_fit_rejects_too_few_points(self) -> None:
        with pytest.raises(ValueError):
            fit_quadratic_power_curve(np.array([1.0, 2.0]), np.array([1.0, 2.0]))


class TestQuadraticModel:
    def test_power_evaluation(self) -> None:
        model = QuadraticEnergyModel(a=2.0, b=1.0, c=3.0)
        assert model.power(2.0) == pytest.approx(2 * 4 + 2 + 3)

    def test_derivative_exact(self) -> None:
        model = QuadraticEnergyModel(a=2.0, b=1.0, c=3.0)
        assert model.derivative(1.5) == pytest.approx(2 * 2 * 1.5 + 1)

    def test_vectorised_matches_scalar(self) -> None:
        model = QuadraticEnergyModel(a=2.0, b=-0.5, c=3.0)
        freqs = np.linspace(1.8, 3.6, 7)
        np.testing.assert_allclose(
            model.power_many(freqs), [model.power(float(f)) for f in freqs]
        )

    def test_concave_rejected(self) -> None:
        with pytest.raises(ConfigurationError):
            QuadraticEnergyModel(a=-1.0, b=0.0, c=0.0)

    def test_convexity_check(self) -> None:
        assert QuadraticEnergyModel(a=1.0, b=0.0, c=0.0).check_convex(1.0, 4.0)


class TestOtherModels:
    def test_linear_model(self) -> None:
        model = LinearEnergyModel(slope=3.0, intercept=1.0)
        assert model.power(2.0) == pytest.approx(7.0)
        assert model.derivative(99.0) == pytest.approx(3.0)
        assert model.check_convex(0.0, 10.0)

    def test_linear_negative_slope_rejected(self) -> None:
        with pytest.raises(ConfigurationError):
            LinearEnergyModel(slope=-1.0, intercept=0.0)

    def test_cubic_model(self) -> None:
        model = CubicEnergyModel(kappa=2.0, static=1.0)
        assert model.power(2.0) == pytest.approx(17.0)
        assert model.derivative(2.0) == pytest.approx(24.0)
        assert model.check_convex(0.0, 5.0)

    def test_piecewise_linear_interpolates(self) -> None:
        model = PiecewiseLinearEnergyModel(
            np.array([1.0, 2.0, 3.0]), np.array([10.0, 12.0, 16.0])
        )
        assert model.power(1.5) == pytest.approx(11.0)
        assert model.power(2.5) == pytest.approx(14.0)

    def test_piecewise_nonconvex_rejected(self) -> None:
        with pytest.raises(ConfigurationError, match="not convex"):
            PiecewiseLinearEnergyModel(
                np.array([1.0, 2.0, 3.0]), np.array([10.0, 15.0, 16.0])
            )

    def test_piecewise_unsorted_rejected(self) -> None:
        with pytest.raises(ConfigurationError):
            PiecewiseLinearEnergyModel(
                np.array([2.0, 1.0]), np.array([1.0, 2.0])
            )

    def test_scaled_model(self) -> None:
        base = QuadraticEnergyModel(a=1.0, b=0.0, c=2.0)
        scaled = ScaledEnergyModel(base=base, scale=16.0)
        assert scaled.power(2.0) == pytest.approx(16.0 * 6.0)
        assert scaled.derivative(2.0) == pytest.approx(16.0 * 4.0)

    def test_scaled_rejects_nonpositive_scale(self) -> None:
        base = LinearEnergyModel(slope=1.0, intercept=0.0)
        with pytest.raises(ConfigurationError):
            ScaledEnergyModel(base=base, scale=0.0)


class TestPerturbedQuadratic:
    def test_default_fit_runs_once_across_scenarios(self, monkeypatch) -> None:
        """The constant i7-3770K table is fitted once, not per server."""
        import repro
        from repro.energy import models

        fits = []

        def counted():
            fits.append(1)
            return fit_quadratic_power_curve()

        monkeypatch.setattr(models, "fit_quadratic_power_curve", counted)
        models._default_quadratic_fit.cache_clear()
        try:
            first = repro.make_paper_scenario(seed=1)
            second = repro.make_paper_scenario(seed=2)
        finally:
            models._default_quadratic_fit.cache_clear()
        assert len(fits) == 1
        assert first.network.num_servers + second.network.num_servers > 2
        # The cached tuple is the fit's exact floats, so every draw
        # equals one made from a fresh fit.
        fitted = fit_quadratic_power_curve()
        assert models._default_quadratic_fit() == fitted
        model = perturbed_quadratic_model(np.random.default_rng(3))
        explicit = perturbed_quadratic_model(
            np.random.default_rng(3), base_coefficients=fitted
        )
        assert model == explicit

    def test_follows_paper_recipe(self) -> None:
        # With a known rng, reproduce the draw by hand.
        a, b, c = fit_quadratic_power_curve()
        rng = np.random.default_rng(9)
        e = float(np.random.default_rng(9).standard_normal())
        model = perturbed_quadratic_model(rng)
        assert model.a == pytest.approx(a * (1 + 0.01 * e))
        assert model.b == pytest.approx(b * (1 + 0.1 * e))
        assert model.c == pytest.approx(c * (1 + 0.1 * e))

    @given(seed=st.integers(0, 5_000))
    def test_property_always_convex(self, seed: int) -> None:
        model = perturbed_quadratic_model(np.random.default_rng(seed))
        assert model.a >= 0.0
        assert model.check_convex(1.8, 3.6)

    def test_population_spread(self) -> None:
        rng = np.random.default_rng(0)
        models = [perturbed_quadratic_model(rng) for _ in range(64)]
        # Different servers get genuinely different curves; the paper's
        # recipe spreads the curves most near the ends of the range
        # (the perturbations nearly cancel around 2.7 GHz).
        low_end = np.array([m.power(1.8) for m in models])
        assert low_end.std() > 0.3
        coeffs_a = np.array([m.a for m in models])
        assert coeffs_a.std() > 0.0
