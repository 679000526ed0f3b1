"""Radio substrate: access-link channel conditions and device mobility.

The paper's channel state ``h_{i,k,t}`` (bps/Hz spectral efficiency)
varies over time because devices move.  This subpackage provides:

* :mod:`repro.radio.channel` -- channel models producing the ``(I, K)``
  spectral-efficiency matrix each slot (uniform draws per the paper's
  settings, and a distance-based log-path-loss model for mobility
  scenarios).
* :mod:`repro.radio.fading` -- temporally correlated variation (AR(1)
  processes) so consecutive slots look like a moving user, not white
  noise.
* :mod:`repro.radio.mobility` -- device movement models (static, random
  waypoint).
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".channel": ("ChannelModel", "UniformChannelModel", "DistanceChannelModel"),
        ".fading": ("Ar1Process", "CorrelatedChannelModel"),
        ".fronthaul": ("FronthaulModel", "StaticFronthaul", "ScintillatingFronthaul"),
        ".mobility": ("MobilityModel", "StaticMobility", "RandomWaypointMobility"),
    },
)
