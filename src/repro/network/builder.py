"""Random scenario construction following the paper's settings (Sec. VI-A).

The published simulation uses six base stations, two server rooms with
eight edge servers each, and 80-120+ mobile devices.  Bandwidths,
spectral efficiencies, suitabilities and energy models are drawn from the
ranges quoted in the paper.  Everything is a knob on
:class:`NetworkBuilder` so experiments can deviate from the defaults.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.energy.models import ScaledEnergyModel, perturbed_quadratic_model
from repro.exceptions import ConfigurationError
from repro.network.coverage import coverage_matrix
from repro.network.topology import (
    BaseStation,
    EdgeServer,
    FronthaulType,
    MECNetwork,
    MobileDevice,
    ServerCluster,
)
from repro.types import BoolArray, Rng

#: Core count of the CPU whose power curve we digitised; per-core scaling
#: divides the fitted package power by this before multiplying by a
#: server's core count.
_REFERENCE_CORES = 4


@dataclass
class NetworkBuilder:
    """Configurable random generator of paper-style MEC networks.

    Attributes mirror Sec. VI-A of the paper; all bandwidths in Hz,
    distances in metres, frequencies in GHz.

    Attributes:
        num_devices: Number of mobile devices ``I``.
        num_base_stations: Number of base stations ``K``.
        num_clusters: Number of server rooms ``M``.
        servers_per_cluster: Servers hosted in each room.
        area_size: Side length of the square deployment area.
        num_macro_stations: How many of the stations are wide-coverage
            (low-band) macrocells; the rest are small cells.  At least one
            macro cell guarantees every device has a feasible choice.
        macro_radius: Coverage radius of macro stations; ``None`` sizes it
            to cover the whole area.
        small_cell_radius_range: Coverage radii of small cells.
        access_bandwidth_range: ``W^A`` draw range (paper: 50-100 MHz).
        fronthaul_bandwidth_range: ``W^F`` draw range (paper: 0.5-1 GHz).
        fronthaul_se: ``h^F`` (paper: 10 bps/Hz for all stations).
        wireless_fronthaul_fraction: Fraction of base stations given a
            wireless fronthaul connected to *every* cluster (the paper's
            default simulation wires each station to one random room).
        core_counts: Candidate core counts; assigned half-and-half
            (paper: 64 and 128).
        freq_min: ``F^L`` for every server (paper: 1.8 GHz).
        freq_max: ``F^U`` for every server (paper: 3.6 GHz).
        scale_energy_with_cores: Multiply the per-core power model by the
            server's core count (the digitised curve is normalised to a
            4-core package first).
        scale_speed_with_cores: Give each server a processing speed of
            ``cores * clock`` instead of the paper's ``clock`` (Eq. 7).
            Off by default: the literal model keeps processing latency a
            substantial fraction of the total, which is what makes the
            paper's frequency-scaling results pronounced.
        suitability_range: ``sigma`` draw range (paper: 0.5-1).
    """

    num_devices: int = 100
    num_base_stations: int = 6
    num_clusters: int = 2
    servers_per_cluster: int = 8
    area_size: float = 6_000.0
    num_macro_stations: int = 2
    macro_radius: float | None = None
    small_cell_radius_range: tuple[float, float] = (500.0, 1_500.0)
    access_bandwidth_range: tuple[float, float] = (50e6, 100e6)
    fronthaul_bandwidth_range: tuple[float, float] = (0.5e9, 1.0e9)
    fronthaul_se: float = 10.0
    wireless_fronthaul_fraction: float = 0.0
    core_counts: tuple[int, ...] = (64, 128)
    freq_min: float = 1.8
    freq_max: float = 3.6
    scale_energy_with_cores: bool = True
    scale_speed_with_cores: bool = False
    suitability_range: tuple[float, float] = (0.5, 1.0)

    def __post_init__(self) -> None:
        if self.num_devices <= 0:
            raise ConfigurationError("num_devices must be positive")
        if self.num_macro_stations < 1:
            raise ConfigurationError(
                "need at least one macro station so every device is covered"
            )
        if self.num_macro_stations > self.num_base_stations:
            raise ConfigurationError("more macro stations than base stations")
        if not 0.0 <= self.wireless_fronthaul_fraction <= 1.0:
            raise ConfigurationError("wireless_fronthaul_fraction must be in [0,1]")

    def build(self, rng: Rng) -> tuple[MECNetwork, BoolArray]:
        """Draw one network and its device coverage matrix."""
        clusters = self._build_clusters()
        servers = self._build_servers(rng)
        base_stations = self._build_base_stations(rng)
        devices = self._build_devices(rng)
        lo, hi = self.suitability_range
        suitability = rng.uniform(
            lo, hi, size=(self.num_devices, len(servers))
        )
        network = MECNetwork(
            base_stations=base_stations,
            clusters=clusters,
            servers=servers,
            devices=devices,
            suitability=suitability,
        )
        coverage = coverage_matrix(
            network.device_positions(),
            network.base_station_positions(),
            np.array([b.coverage_radius for b in base_stations]),
        )
        return network, coverage

    # -- pieces ------------------------------------------------------------

    def _build_clusters(self) -> tuple[ServerCluster, ...]:
        clusters = []
        for m in range(self.num_clusters):
            first = m * self.servers_per_cluster
            clusters.append(
                ServerCluster(
                    index=m,
                    servers=tuple(range(first, first + self.servers_per_cluster)),
                    name=f"Room{m}",
                )
            )
        return tuple(clusters)

    def _build_servers(self, rng: Rng) -> tuple[EdgeServer, ...]:
        total = self.num_clusters * self.servers_per_cluster
        # Half-and-half core assignment, shuffled across rooms (paper:
        # "half of the sixteen servers have 64 cores, and others have 128").
        per_kind = int(np.ceil(total / len(self.core_counts)))
        cores = np.array(
            [c for c in self.core_counts for _ in range(per_kind)][:total]
        )
        rng.shuffle(cores)
        servers = []
        for n in range(total):
            per_core = perturbed_quadratic_model(rng)
            if self.scale_energy_with_cores:
                model = ScaledEnergyModel(
                    base=per_core, scale=float(cores[n]) / _REFERENCE_CORES
                )
            else:
                model = per_core
            servers.append(
                EdgeServer(
                    index=n,
                    cluster=n // self.servers_per_cluster,
                    cores=int(cores[n]),
                    freq_min=self.freq_min,
                    freq_max=self.freq_max,
                    energy_model=model,
                    speed_scale=float(cores[n]) if self.scale_speed_with_cores else 1.0,
                )
            )
        return tuple(servers)

    def _build_base_stations(self, rng: Rng) -> tuple[BaseStation, ...]:
        macro_radius = self.macro_radius
        if macro_radius is None:
            # Cover the whole square from anywhere inside it.
            macro_radius = float(np.sqrt(2.0) * self.area_size)
        stations = []
        n_wireless = int(round(self.wireless_fronthaul_fraction * self.num_base_stations))
        wireless_set = set(
            rng.choice(self.num_base_stations, size=n_wireless, replace=False).tolist()
        )
        for k in range(self.num_base_stations):
            position = tuple(rng.uniform(0.0, self.area_size, size=2).tolist())
            if k < self.num_macro_stations:
                radius = macro_radius
            else:
                radius = float(rng.uniform(*self.small_cell_radius_range))
            if k in wireless_set:
                fronthaul_type = FronthaulType.WIRELESS
                connected = tuple(range(self.num_clusters))
            else:
                fronthaul_type = FronthaulType.WIRED
                connected = (int(rng.integers(self.num_clusters)),)
            stations.append(
                BaseStation(
                    index=k,
                    position=position,  # type: ignore[arg-type]
                    coverage_radius=radius,
                    access_bandwidth=float(rng.uniform(*self.access_bandwidth_range)),
                    fronthaul_bandwidth=float(
                        rng.uniform(*self.fronthaul_bandwidth_range)
                    ),
                    fronthaul_spectral_efficiency=self.fronthaul_se,
                    fronthaul_type=fronthaul_type,
                    connected_clusters=connected,
                )
            )
        return tuple(stations)

    def _build_devices(self, rng: Rng) -> tuple[MobileDevice, ...]:
        positions = rng.uniform(0.0, self.area_size, size=(self.num_devices, 2))
        return tuple(
            MobileDevice(index=i, position=(x, y))
            for i, (x, y) in enumerate(positions.tolist())
        )


def build_paper_network(
    rng: Rng, *, num_devices: int = 100, **overrides: object
) -> tuple[MECNetwork, BoolArray]:
    """Build a network with the paper's default simulation settings.

    Args:
        rng: Random generator.
        num_devices: Number of mobile devices (the paper sweeps 80-120).
        **overrides: Any :class:`NetworkBuilder` field, e.g.
            ``num_base_stations=8``.

    Returns:
        ``(network, coverage)`` -- the topology and its static coverage
        matrix.
    """
    builder = NetworkBuilder(num_devices=num_devices, **overrides)  # type: ignore[arg-type]
    return builder.build(rng)
