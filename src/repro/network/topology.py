"""Entity model of the heterogeneous MEC system (paper Sec. III-A).

The system consists of ``K`` base stations, ``M`` server rooms (clusters)
hosting ``N`` edge servers in total, and ``I`` mobile devices.  Mobile
devices reach base stations over *access links*; base stations reach
server clusters over *fronthaul links* (wired fronthaul connects a base
station to exactly one cluster, wireless fronthaul may reach several).

All quantities use SI units: bandwidths in Hz, spectral efficiencies in
bps/Hz, positions in metres.  Clock frequencies are stated in GHz to
match the energy-model fits; :meth:`EdgeServer.speed` converts to
cycles/second including the core count.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.energy.models import EnergyModel, quadratic_energy_table
from repro.exceptions import ConfigurationError, TopologyError
from repro.types import FloatArray, as_float_array


class FronthaulType(enum.Enum):
    """Physical medium of a base station's fronthaul link."""

    WIRED = "wired"
    WIRELESS = "wireless"


@dataclass(frozen=True)
class BaseStation:
    """A base station ``B_k``.

    Attributes:
        index: Position ``k`` within the network's base-station tuple.
        position: Planar (x, y) coordinates in metres.
        coverage_radius: Access-link coverage radius in metres.
        access_bandwidth: ``W_k^A`` in Hz.
        fronthaul_bandwidth: ``W_k^F`` in Hz.
        fronthaul_spectral_efficiency: ``h_k^F`` in bps/Hz (time-invariant
            per the paper; the algorithms would accept a varying value).
        fronthaul_type: Wired or wireless fronthaul medium.
        connected_clusters: Indices of the server clusters this base
            station's fronthaul reaches.  Wired stations connect to
            exactly one cluster.
        name: Human-readable label.
    """

    index: int
    position: tuple[float, float]
    coverage_radius: float
    access_bandwidth: float
    fronthaul_bandwidth: float
    fronthaul_spectral_efficiency: float
    fronthaul_type: FronthaulType
    connected_clusters: tuple[int, ...]
    name: str = ""

    def __post_init__(self) -> None:
        if self.coverage_radius <= 0:
            raise ConfigurationError(f"{self.label}: coverage radius must be positive")
        if self.access_bandwidth <= 0 or self.fronthaul_bandwidth <= 0:
            raise ConfigurationError(f"{self.label}: bandwidths must be positive")
        if self.fronthaul_spectral_efficiency <= 0:
            raise ConfigurationError(
                f"{self.label}: fronthaul spectral efficiency must be positive"
            )
        if not self.connected_clusters:
            raise ConfigurationError(f"{self.label}: connects to no cluster")
        if (
            self.fronthaul_type is FronthaulType.WIRED
            and len(self.connected_clusters) != 1
        ):
            raise ConfigurationError(
                f"{self.label}: wired fronthaul must connect to exactly one cluster"
            )

    @property
    def label(self) -> str:
        """Readable identifier used in error messages."""
        return self.name or f"BS{self.index}"

    def covers(self, position: tuple[float, float]) -> bool:
        """Whether a device at *position* is inside this station's cell.

        The same rule, operation for operation, as
        :func:`~repro.network.coverage.coverage_matrix`, so the two agree
        on boundary points.
        """
        dx = position[0] - self.position[0]
        dy = position[1] - self.position[1]
        return math.sqrt(dx * dx + dy * dy) <= self.coverage_radius


@dataclass(frozen=True)
class EdgeServer:
    """An edge server ``S_n`` living in one server room.

    Attributes:
        index: Position ``n`` in the network's server tuple.
        cluster: Index of the hosting cluster (server room).
        cores: Number of CPU cores.  Following the paper's model, the
            processing speed seen by a task is the *clock frequency*
            (Eq. 7 uses ``f / (omega sigma phi)``); cores differentiate
            servers through their energy draw.  Set ``speed_scale`` to
            fold a parallelism factor into the speed instead.
        freq_min: ``F_n^L`` -- lowest allowed clock frequency, GHz.
        freq_max: ``F_n^U`` -- highest allowed clock frequency, GHz.
        energy_model: Total-server power draw as a function of the clock
            frequency in GHz (convex, per the paper's assumption).
        speed_scale: Multiplier applied to the clock when computing the
            processing speed (1.0 reproduces the paper's Eq. 7; the
            scenario builder can set it to the core count to model
            perfectly parallel tasks).
        name: Human-readable label.
    """

    index: int
    cluster: int
    cores: int
    freq_min: float
    freq_max: float
    energy_model: EnergyModel
    speed_scale: float = 1.0
    name: str = ""

    def __post_init__(self) -> None:
        if self.cores <= 0:
            raise ConfigurationError(f"{self.label}: cores must be positive")
        if self.speed_scale <= 0:
            raise ConfigurationError(f"{self.label}: speed_scale must be positive")
        if not 0 < self.freq_min <= self.freq_max:
            raise ConfigurationError(
                f"{self.label}: need 0 < freq_min <= freq_max, "
                f"got [{self.freq_min}, {self.freq_max}]"
            )

    @property
    def label(self) -> str:
        """Readable identifier used in error messages."""
        return self.name or f"S{self.index}"

    @property
    def frequency_ratio(self) -> float:
        """``F_n^U / F_n^L``, the factor appearing in Theorem 3's ratio."""
        return self.freq_max / self.freq_min

    def speed(self, frequency_ghz: float) -> float:
        """Processing speed in cycles/second at a clock of *frequency_ghz*."""
        return self.speed_scale * frequency_ghz * 1e9


@dataclass(frozen=True)
class ServerCluster:
    """A server room hosting a set of edge servers."""

    index: int
    servers: tuple[int, ...]
    name: str = ""

    def __post_init__(self) -> None:
        if not self.servers:
            raise ConfigurationError(f"{self.label}: empty cluster")

    @property
    def label(self) -> str:
        """Readable identifier used in error messages."""
        return self.name or f"Cluster{self.index}"


@dataclass(frozen=True)
class MobileDevice:
    """A mobile wireless device ``D_i``; its tasks arrive each slot."""

    index: int
    position: tuple[float, float]
    name: str = ""

    @property
    def label(self) -> str:
        """Readable identifier used in error messages."""
        return self.name or f"D{self.index}"


class MECNetwork:
    """The full MEC topology plus task-suitability parameters.

    This is the static part of the system: everything that does not
    change across time slots.  Per-slot state (channel conditions, task
    sizes, prices) lives in :class:`repro.core.state.SlotState`.

    Devices are kept as one read-only ``(I, 2)`` position array (plus
    their names, when any device has one); :attr:`devices` builds the
    :class:`MobileDevice` objects only when read.

    Args:
        base_stations: The ``K`` base stations, ordered by index.
        clusters: The ``M`` server rooms, ordered by index.
        servers: The ``N`` edge servers, ordered by index.
        devices: The ``I`` mobile devices, ordered by index, or an
            ``(I, 2)`` array of their positions (unnamed devices).
        suitability: ``(I, N)`` matrix of ``sigma_{i,n}`` in ``(0, 1]``.
    """

    def __init__(
        self,
        base_stations: tuple[BaseStation, ...],
        clusters: tuple[ServerCluster, ...],
        servers: tuple[EdgeServer, ...],
        devices: tuple[MobileDevice, ...] | FloatArray,
        suitability: FloatArray,
    ) -> None:
        self.base_stations = tuple(base_stations)
        self.clusters = tuple(clusters)
        self.servers = tuple(servers)
        #: Per-device names, or ``None`` when no device has one.
        self.device_names: tuple[str, ...] | None = None
        if isinstance(devices, np.ndarray):
            positions = np.array(devices, dtype=np.float64)
            if positions.ndim != 2 or positions.shape[1:] != (2,):
                raise TopologyError(
                    f"device positions must have shape (I, 2), got {positions.shape}"
                )
        else:
            devices = tuple(devices)
            self._check_indices(devices, "device")
            # Seed the cached property: the caller's objects are the devices.
            self.__dict__["devices"] = devices
            positions = np.array(
                [d.position for d in devices], dtype=np.float64
            ).reshape(len(devices), 2)
            if any(d.name for d in devices):
                self.device_names = tuple(d.name for d in devices)
        # Read-only: device_positions() hands out this one array.
        positions.flags.writeable = False
        self._device_positions = positions
        self.suitability = as_float_array(suitability, "suitability")
        self._check_structure()

        # Cached flat arrays used heavily by the core algorithms.
        self.access_bandwidth = np.array(
            [b.access_bandwidth for b in self.base_stations], dtype=np.float64
        )
        self.fronthaul_bandwidth = np.array(
            [b.fronthaul_bandwidth for b in self.base_stations], dtype=np.float64
        )
        self.fronthaul_se = np.array(
            [b.fronthaul_spectral_efficiency for b in self.base_stations],
            dtype=np.float64,
        )
        self.freq_min = np.array([s.freq_min for s in self.servers], dtype=np.float64)
        self.freq_max = np.array([s.freq_max for s in self.servers], dtype=np.float64)
        self.cores = np.array([s.cores for s in self.servers], dtype=np.int64)
        self.speed_scale = np.array(
            [s.speed_scale for s in self.servers], dtype=np.float64
        )
        self.server_cluster = np.array(
            [s.cluster for s in self.servers], dtype=np.int64
        )
        #: ``(4, N)`` per-server ``scale, a, b, c`` rows of the energy
        #: models (``g_n = scale * (a f^2 + b f + c)``), or ``None`` when
        #: any model is not a (scaled) quadratic.  Read by P2-B's search
        #: lanes and by :func:`repro.core.drift_penalty.energy_cost`.
        self.energy_table = quadratic_energy_table(self.energy_models())

        # servers_by_bs[k] -- indices of servers reachable through B_k.
        self._servers_by_bs: list[np.ndarray] = []
        for bs in self.base_stations:
            reachable = [
                s.index for s in self.servers if s.cluster in bs.connected_clusters
            ]
            self._servers_by_bs.append(np.array(sorted(reachable), dtype=np.int64))

    # -- sizes -----------------------------------------------------------

    @property
    def num_base_stations(self) -> int:
        """``K``."""
        return len(self.base_stations)

    @property
    def num_clusters(self) -> int:
        """``M``."""
        return len(self.clusters)

    @property
    def num_servers(self) -> int:
        """``N``."""
        return len(self.servers)

    @property
    def num_devices(self) -> int:
        """``I``."""
        return len(self._device_positions)

    @cached_property
    def devices(self) -> tuple[MobileDevice, ...]:
        """The ``I`` mobile devices, built from the positions on first read."""
        names = self.device_names or ("",) * self.num_devices
        return tuple(
            MobileDevice(i, (x, y), name)
            for i, ((x, y), name) in enumerate(
                zip(self._device_positions.tolist(), names)
            )
        )

    # -- derived quantities ----------------------------------------------

    def servers_reachable_from(self, bs_index: int) -> np.ndarray:
        """Indices of servers in clusters linked to base station *bs_index*."""
        return self._servers_by_bs[bs_index]

    def speeds(self, frequencies: FloatArray) -> FloatArray:
        """Per-server processing speeds (cycles/s) at the given clocks (GHz)."""
        frequencies = np.asarray(frequencies, dtype=np.float64)
        return self.speed_scale * frequencies * 1e9

    def energy_models(self) -> list[EnergyModel]:
        """The servers' energy models, ordered by server index."""
        return [s.energy_model for s in self.servers]

    def max_frequency_ratio(self) -> float:
        """``R_F = max_n F_n^U / F_n^L`` from Theorem 3."""
        return float(max(s.frequency_ratio for s in self.servers))

    def device_positions(self) -> FloatArray:
        """``(I, 2)`` array of device coordinates (cached, read-only)."""
        return self._device_positions

    def base_station_positions(self) -> FloatArray:
        """``(K, 2)`` array of base-station coordinates."""
        return np.array([b.position for b in self.base_stations], dtype=np.float64)

    # -- internal ----------------------------------------------------------

    @staticmethod
    def _check_indices(seq: tuple, kind: str) -> None:
        if not seq:
            raise TopologyError(f"network has no {kind}s")
        for pos, item in enumerate(seq):
            if item.index != pos:
                raise TopologyError(
                    f"{kind} at position {pos} carries index {item.index}"
                )

    def _check_structure(self) -> None:
        for seq, kind in (
            (self.base_stations, "base station"),
            (self.clusters, "cluster"),
            (self.servers, "server"),
        ):
            self._check_indices(seq, kind)
        if not self.num_devices:
            raise TopologyError("network has no devices")
        n_clusters = len(self.clusters)
        for bs in self.base_stations:
            for c in bs.connected_clusters:
                if not 0 <= c < n_clusters:
                    raise TopologyError(f"{bs.label}: unknown cluster {c}")
        for cluster in self.clusters:
            for s in cluster.servers:
                if not 0 <= s < len(self.servers):
                    raise TopologyError(f"{cluster.label}: unknown server {s}")
                if self.servers[s].cluster != cluster.index:
                    raise TopologyError(
                        f"{cluster.label} lists {self.servers[s].label} but that "
                        f"server claims cluster {self.servers[s].cluster}"
                    )
        for server in self.servers:
            if server.index not in self.clusters[server.cluster].servers:
                raise TopologyError(
                    f"{server.label} is missing from its cluster's server list"
                )
        expected = (self.num_devices, len(self.servers))
        if self.suitability.shape != expected:
            raise TopologyError(
                f"suitability must have shape {expected}, got {self.suitability.shape}"
            )
        if np.any(self.suitability <= 0.0) or np.any(self.suitability > 1.0):
            raise TopologyError("suitability entries must lie in (0, 1]")

    def __repr__(self) -> str:
        return (
            f"MECNetwork(K={self.num_base_stations}, M={self.num_clusters}, "
            f"N={self.num_servers}, I={self.num_devices})"
        )
