"""MEC network topology substrate (paper Sec. III-A, Fig. 1).

* :mod:`repro.network.topology` -- the entity model: base stations,
  edge-server clusters (server rooms), edge servers, mobile devices, and
  the :class:`~repro.network.topology.MECNetwork` container.
* :mod:`repro.network.coverage` -- planar geometry: which base stations
  cover which device positions.
* :mod:`repro.network.builder` -- random scenario construction following
  the paper's simulation settings (Sec. VI-A).
* :mod:`repro.network.connectivity` -- feasible strategy sets
  ``Z_i`` (which (base station, server) pairs each device may choose) and
  a networkx export of the topology.
* :mod:`repro.network.validation` -- structural consistency checks.
* :mod:`repro.network.partition` -- k-means cell partitioning and
  per-cell sub-topology extraction for multi-cell scale-out.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".presets": ("PRESETS", "get_preset"),
        ".topology": (
            "BaseStation",
            "EdgeServer",
            "ServerCluster",
            "MobileDevice",
            "MECNetwork",
            "FronthaulType",
        ),
        ".coverage": ("coverage_matrix", "distances"),
        ".builder": ("NetworkBuilder", "build_paper_network"),
        ".connectivity": ("StrategySpace", "to_networkx_graph"),
        ".validation": ("validate_network",),
        ".partition": (
            "Cell",
            "CellIndexMaps",
            "CellPlan",
            "partition_cells",
            "extract_subnetwork",
        ),
    },
)
