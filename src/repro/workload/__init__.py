"""Workload substrate: per-slot task generation.

Each device generates one task per slot with input data length ``d_{i,t}``
(bits) and job size ``f_{i,t}`` (CPU cycles).  The paper models both as a
periodic trend plus iid noise, motivated by a diurnal video-views trace;
its simulations draw them uniformly (50-200 Mcycles, 3-10 Mbit).

* :mod:`repro.workload.tasks` -- the :class:`~repro.workload.tasks.TaskBatch`
  value type.
* :mod:`repro.workload.generators` -- uniform and periodic-trend
  generators behind one interface.
* :mod:`repro.workload.traces` -- synthetic diurnal profiles (the Fig. 2
  substitutes) and a views-like trace generator.
* :mod:`repro.workload.suitability` -- draws of the ``sigma_{i,n}``
  suitability matrix.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".estimation": (
            "ProfileFit",
            "fit_periodic_profile",
            "fit_price_model",
            "fit_task_generator",
        ),
        ".tasks": ("TaskBatch",),
        ".generators": (
            "TaskGenerator",
            "UniformTaskGenerator",
            "PeriodicTaskGenerator",
            "TraceTaskGenerator",
        ),
        ".traces": ("diurnal_profile", "synthetic_video_views"),
        ".suitability": ("uniform_suitability", "clustered_suitability"),
    },
)
