"""Convex per-server energy-consumption functions ``g_n(omega)``.

The paper does not fix a functional form: it only requires each server's
energy consumption to be convex in its clock frequency and allows every
server to have a *different* function.  The simulation section then
instantiates quadratics fitted to i7-3770K data with randomised
coefficients.  We provide that family plus linear ([8]'s model), cubic
(classic CMOS dynamic-power scaling), and piecewise-linear (arbitrary
convex tabulated data) variants, all behind one small interface.

Frequencies are expressed in GHz throughout this module (matching the
fitted data); powers are in watts.
"""

from __future__ import annotations

import abc
import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.energy.cpu_data import fit_quadratic_power_curve
from repro.exceptions import ConfigurationError
from repro.types import FloatArray, Rng


class EnergyModel(abc.ABC):
    """Energy consumption of one server as a function of clock frequency."""

    @abc.abstractmethod
    def power(self, frequency: float) -> float:
        """Power draw (watts) at the given clock *frequency* (GHz)."""

    def derivative(self, frequency: float, *, eps: float = 1e-6) -> float:
        """First derivative of :meth:`power`; default central difference."""
        return (self.power(frequency + eps) - self.power(frequency - eps)) / (2 * eps)

    def power_many(self, frequencies: FloatArray) -> FloatArray:
        """Vectorised :meth:`power`; subclasses may override for speed."""
        return np.array([self.power(float(f)) for f in np.asarray(frequencies)])

    def check_convex(self, lo: float, hi: float, samples: int = 64) -> bool:
        """Numerically verify convexity of the model on ``[lo, hi]``.

        Checks the midpoint inequality on an evenly spaced grid; this is a
        diagnostic helper (used by topology validation), not a proof.
        """
        xs = np.linspace(lo, hi, samples)
        ys = self.power_many(xs)
        mids = self.power_many((xs[:-1] + xs[1:]) / 2.0)
        return bool(np.all(mids <= (ys[:-1] + ys[1:]) / 2.0 + 1e-9))


@dataclass(frozen=True)
class QuadraticEnergyModel(EnergyModel):
    """``g(f) = a f^2 + b f + c`` with ``a >= 0`` (the paper's Fig. 3 fit)."""

    a: float
    b: float
    c: float

    def __post_init__(self) -> None:
        if self.a < 0.0:
            raise ConfigurationError(
                f"quadratic energy model must be convex (a >= 0), got a={self.a}"
            )

    def power(self, frequency: float) -> float:
        return self.a * frequency * frequency + self.b * frequency + self.c

    def derivative(self, frequency: float, *, eps: float = 1e-6) -> float:
        del eps
        return 2.0 * self.a * frequency + self.b

    def power_many(self, frequencies: FloatArray) -> FloatArray:
        f = np.asarray(frequencies, dtype=np.float64)
        return self.a * f * f + self.b * f + self.c


@dataclass(frozen=True)
class LinearEnergyModel(EnergyModel):
    """``g(f) = slope * f + intercept`` -- the model assumed by [8]."""

    slope: float
    intercept: float

    def __post_init__(self) -> None:
        if self.slope < 0.0:
            raise ConfigurationError("linear energy model requires slope >= 0")

    def power(self, frequency: float) -> float:
        return self.slope * frequency + self.intercept

    def derivative(self, frequency: float, *, eps: float = 1e-6) -> float:
        del frequency, eps
        return self.slope

    def power_many(self, frequencies: FloatArray) -> FloatArray:
        return self.slope * np.asarray(frequencies, dtype=np.float64) + self.intercept


@dataclass(frozen=True)
class CubicEnergyModel(EnergyModel):
    """``g(f) = kappa f^3 + static`` -- CMOS dynamic power scaling."""

    kappa: float
    static: float = 0.0

    def __post_init__(self) -> None:
        if self.kappa < 0.0:
            raise ConfigurationError("cubic energy model requires kappa >= 0")

    def power(self, frequency: float) -> float:
        return self.kappa * frequency**3 + self.static

    def derivative(self, frequency: float, *, eps: float = 1e-6) -> float:
        del eps
        return 3.0 * self.kappa * frequency * frequency

    def power_many(self, frequencies: FloatArray) -> FloatArray:
        f = np.asarray(frequencies, dtype=np.float64)
        return self.kappa * f**3 + self.static


class PiecewiseLinearEnergyModel(EnergyModel):
    """Convex interpolation of tabulated (frequency, power) measurements.

    Useful when a server's power curve is known only as measurements; the
    constructor verifies the tabulated points are convex so the P2-B
    subproblem stays convex.
    """

    def __init__(self, frequencies: FloatArray, powers: FloatArray) -> None:
        freqs = np.asarray(frequencies, dtype=np.float64)
        pows = np.asarray(powers, dtype=np.float64)
        if freqs.ndim != 1 or freqs.shape != pows.shape or freqs.size < 2:
            raise ConfigurationError("need matching 1-D arrays of >= 2 points")
        if not np.all(np.diff(freqs) > 0):
            raise ConfigurationError("frequencies must be strictly increasing")
        slopes = np.diff(pows) / np.diff(freqs)
        if not np.all(np.diff(slopes) >= -1e-9):
            raise ConfigurationError("tabulated power curve is not convex")
        self._freqs = freqs
        self._pows = pows

    @property
    def knots(self) -> tuple[FloatArray, FloatArray]:
        """The tabulated (frequencies, powers) defining the model."""
        return self._freqs.copy(), self._pows.copy()

    def power(self, frequency: float) -> float:
        return float(np.interp(frequency, self._freqs, self._pows))

    def power_many(self, frequencies: FloatArray) -> FloatArray:
        return np.interp(np.asarray(frequencies, dtype=np.float64),
                         self._freqs, self._pows)


@dataclass(frozen=True)
class ScaledEnergyModel(EnergyModel):
    """A base model multiplied by a constant (e.g. per-core power x cores)."""

    base: EnergyModel
    scale: float

    def __post_init__(self) -> None:
        if self.scale <= 0.0:
            raise ConfigurationError("scale must be positive")

    def power(self, frequency: float) -> float:
        return self.scale * self.base.power(frequency)

    def derivative(self, frequency: float, *, eps: float = 1e-6) -> float:
        return self.scale * self.base.derivative(frequency, eps=eps)

    def power_many(self, frequencies: FloatArray) -> FloatArray:
        return self.scale * self.base.power_many(frequencies)


def scaled_quadratic_coefficients(
    model: EnergyModel,
) -> tuple[float, float, float, float] | None:
    """``(scale, a, b, c)`` when *model* is a (possibly scaled) quadratic.

    ``scale * (a f^2 + b f + c)`` is then the model's ``power`` term
    for term: a plain quadratic carries ``scale == 1.0``, and
    multiplying by exactly 1.0 is a bitwise identity.  ``None`` for any
    other model (subclasses included, whose ``power`` may differ).
    """
    if type(model) is QuadraticEnergyModel:
        return (1.0, model.a, model.b, model.c)
    if type(model) is ScaledEnergyModel and type(model.base) is QuadraticEnergyModel:
        return (model.scale, model.base.a, model.base.b, model.base.c)
    return None


def quadratic_energy_table(models: Sequence[EnergyModel]) -> FloatArray | None:
    """``(4, N)`` rows ``scale, a, b, c`` of *models*, in order.

    ``None`` when any model is not a (scaled) quadratic.
    """
    rows = [scaled_quadratic_coefficients(model) for model in models]
    if any(row is None for row in rows):
        return None
    return np.array(rows, dtype=np.float64).T.copy()


@functools.lru_cache(maxsize=1)
def _default_quadratic_fit() -> tuple[float, float, float]:
    """The i7-3770K quadratic fit: a constant table, so fitted once."""
    return fit_quadratic_power_curve()


def perturbed_quadratic_model(
    rng: Rng,
    base_coefficients: tuple[float, float, float] | None = None,
) -> QuadraticEnergyModel:
    """Draw one server's energy model per the paper's recipe (Sec. VI-A).

    Starting from the i7-3770K quadratic fit ``(a, b, c)``, a standard
    normal ``e`` is drawn and the server's coefficients become
    ``a (1 + 0.01 e)``, ``b (1 + 0.1 e)``, ``c (1 + 0.1 e)``.  The draw is
    rejected and repeated in the (very rare) event that the perturbed
    quadratic loses convexity.

    Args:
        rng: Random generator.
        base_coefficients: Override the fitted ``(a, b, c)``; defaults to
            the i7-3770K fit.

    Returns:
        A convex :class:`QuadraticEnergyModel`.
    """
    if base_coefficients is None:
        base_coefficients = _default_quadratic_fit()
    a, b, c = base_coefficients
    for _ in range(100):
        e = float(rng.standard_normal())
        model_a = a * (1.0 + 0.01 * e)
        model_b = b * (1.0 + 0.1 * e)
        model_c = c * (1.0 + 0.1 * e)
        if model_a >= 0.0:
            return QuadraticEnergyModel(a=model_a, b=model_b, c=model_c)
    raise ConfigurationError(
        "could not draw a convex perturbed quadratic in 100 attempts; "
        "check the base coefficients"
    )
