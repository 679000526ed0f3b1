"""Energy substrate: server power models and electricity pricing.

This subpackage reproduces the energy side of the paper:

* :mod:`repro.energy.cpu_data` -- the digitised i7-3770K frequency/power
  measurements of Fig. 3 and their least-squares quadratic fit.
* :mod:`repro.energy.models` -- convex energy-consumption functions
  ``g_n(omega)``; the paper leaves the functional form unspecified and
  only requires convexity, so several families are provided.
* :mod:`repro.energy.pricing` -- time-varying electricity price processes
  ``p_t`` modelled as a periodic trend plus iid noise (the paper's
  NYISO-motivated model, Fig. 2).
* :mod:`repro.energy.cost` -- per-slot energy cost ``C_t`` (Eq. 13) and
  budget-selection helpers.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".cpu_data": (
            "I7_3770K_FREQUENCIES_GHZ",
            "I7_3770K_POWER_WATTS",
            "fit_quadratic_power_curve",
        ),
        ".models": (
            "EnergyModel",
            "QuadraticEnergyModel",
            "LinearEnergyModel",
            "CubicEnergyModel",
            "PiecewiseLinearEnergyModel",
            "ScaledEnergyModel",
            "perturbed_quadratic_model",
        ),
        ".pricing": (
            "PriceModel",
            "PeriodicPriceModel",
            "ConstantPriceModel",
            "TracePriceModel",
            "synthetic_nyiso_trend",
        ),
        ".cost": (
            "slot_energy_cost",
            "min_slot_cost",
            "max_slot_cost",
            "suggest_budget",
        ),
    },
)
