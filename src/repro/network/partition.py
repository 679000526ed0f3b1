"""Cell partitioning: carving one MEC topology into independent cells.

The ROADMAP's scale-out path runs one DPP controller *per cell* instead
of one controller over the whole deployment.  A cell is a self-contained
slice of the topology -- base stations, the server clusters they reach,
and the devices they cover -- so the per-slot game each controller
solves shrinks from ``I`` devices to ``I / C``.  Because the solver cost
grows superlinearly in ``I``, the sum of the per-cell solves is far
cheaper than the monolithic solve even on one core.

:func:`partition_cells` clusters base stations by location (k-means with
restarts, scored on a latency proxy plus workload balance -- the same
objective pair as the edge-server-placement literature), then repairs
the assignment so every cell is simulatable on its own:

* every server cluster lands in a cell one of its connected base
  stations occupies (balanced across candidate cells);
* a wired base station follows its single cluster, so its fronthaul
  never crosses a cell boundary;
* each device joins the cell of its nearest covering base station, so
  coverage is preserved inside the cell;
* cells that end up with no devices are merged into their nearest
  populated neighbour.

:func:`extract_subnetwork` then materialises one cell as a standalone
:class:`~repro.network.topology.MECNetwork` with densely renumbered
indices, plus the local-to-global index maps needed to slice workloads
and merge results.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from repro.exceptions import ConfigurationError
from repro.network.coverage import ROW_BLOCK, distances
from repro.network.topology import FronthaulType, MECNetwork, MobileDevice
from repro.network.validation import validate_network
from repro.types import FloatArray, Rng

__all__ = ["Cell", "CellPlan", "partition_cells", "extract_subnetwork"]


@dataclass(frozen=True)
class Cell:
    """One cell of a :class:`CellPlan`: global indices of its members.

    Attributes:
        index: Cell id within the plan.
        base_stations: Global base-station indices, ascending.
        clusters: Global server-cluster indices, ascending.
        servers: Global server indices (the union of the clusters'
            servers), ascending.
        devices: Global device indices, ascending.
    """

    index: int
    base_stations: tuple[int, ...]
    clusters: tuple[int, ...]
    servers: tuple[int, ...]
    devices: tuple[int, ...]

    @property
    def num_devices(self) -> int:
        return len(self.devices)


#: Member kinds of a :class:`Cell`: field, noun for error messages, and
#: the :class:`MECNetwork` size property bounding its indices.
_KINDS = (
    ("base_stations", "base station", "num_base_stations"),
    ("clusters", "cluster", "num_clusters"),
    ("servers", "server", "num_servers"),
    ("devices", "device", "num_devices"),
)


@dataclass(frozen=True)
class CellPlan:
    """A partition of a network into disjoint cells.

    No base station, cluster, server, or device appears in more than one
    cell (asserted at construction); :meth:`check_covers` asserts that
    every entity of a given network is in some cell, which is what the
    sharded engine requires of the plan it runs.  ``latency_score`` is the mean
    distance of base stations to their cell centroid (the placement
    literature's access-latency proxy) and ``balance_score`` the
    coefficient of variation of per-cell device counts; ``score`` is
    the weighted sum :func:`partition_cells` minimised over restarts.
    """

    cells: tuple[Cell, ...]
    score: float = 0.0
    latency_score: float = 0.0
    balance_score: float = 0.0

    def __post_init__(self) -> None:
        if not self.cells:
            raise ConfigurationError("a CellPlan needs at least one cell")
        for kind, _, _ in _KINDS:
            counts = self._membership(kind)
            if (counts > 1).any():
                raise ConfigurationError(
                    f"{kind} {np.flatnonzero(counts > 1).tolist()} appear in "
                    "multiple cells"
                )

    def _membership(self, kind: str, size: int = 0) -> np.ndarray:
        """How many cells hold each index of *kind* (at least *size* long)."""
        members = [getattr(cell, kind) for cell in self.cells]
        flat = np.fromiter(
            itertools.chain.from_iterable(members),
            dtype=np.int64,
            count=sum(map(len, members)),
        )
        if flat.size and flat.min() < 0:
            raise ConfigurationError(f"{kind} index {flat.min()} is negative")
        return np.bincount(flat, minlength=size)

    def check_covers(self, network: MECNetwork) -> None:
        """Raise unless every entity of *network* is in exactly one cell.

        Raises:
            ConfigurationError: Naming the first entity the plan leaves
                out, or an index beyond *network*'s entities.
        """
        for kind, noun, num in _KINDS:
            size = getattr(network, num)
            counts = self._membership(kind, size)
            if counts.size > size:
                raise ConfigurationError(
                    f"the cell plan names {noun} {counts.size - 1} but "
                    f"{network!r} has {size}"
                )
            missing = np.flatnonzero(counts == 0)
            if missing.size:
                raise ConfigurationError(
                    f"{noun} {missing[0]} is in no cell of the plan; a plan "
                    "must cover every entity of the network it splits"
                )

    @property
    def num_cells(self) -> int:
        return len(self.cells)

    def device_counts(self) -> np.ndarray:
        """Per-cell device counts, in cell order."""
        return np.array([c.num_devices for c in self.cells], dtype=np.int64)


def _kmeans(
    points: FloatArray, k: int, rng: Rng, *, max_iter: int = 50
) -> np.ndarray:
    """Plain Lloyd's k-means over 2-D points; returns point labels."""
    centers = points[rng.choice(len(points), size=k, replace=False)]
    labels = np.zeros(len(points), dtype=np.int64)
    for _ in range(max_iter):
        dist = np.linalg.norm(points[:, None, :] - centers[None, :, :], axis=2)
        new_labels = dist.argmin(axis=1)
        for c in range(k):
            mask = new_labels == c
            if mask.any():
                centers[c] = points[mask].mean(axis=0)
            else:  # dead centroid: reseed on a random point
                centers[c] = points[rng.integers(len(points))]
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    return labels


def _assign_clusters(
    network: MECNetwork, bs_cell: np.ndarray, num_cells: int
) -> np.ndarray:
    """Cell of each server cluster, balanced over its candidate cells.

    A cluster's candidates are the cells of the base stations whose
    fronthaul reaches it; among candidates it goes to the cell holding
    the fewest clusters so far (ties to the cell more of its stations
    voted for, then the lower id).  Clusters no station reaches join
    the most common cell -- they are simply unreachable capacity.
    """
    connected: list[list[int]] = [[] for _ in network.clusters]
    for bs in network.base_stations:
        for m in bs.connected_clusters:
            connected[m].append(int(bs_cell[bs.index]))
    mode = int(np.bincount(bs_cell, minlength=num_cells).argmax())
    cluster_cell = np.zeros(network.num_clusters, dtype=np.int64)
    load = np.zeros(num_cells, dtype=np.int64)
    for m, cells in enumerate(connected):
        if not cells:
            cluster_cell[m] = mode
            continue
        votes = Counter(cells)
        best = min(votes, key=lambda c: (load[c], -votes[c], c))
        cluster_cell[m] = best
        load[best] += 1
    return cluster_cell


def _repair_base_stations(
    network: MECNetwork, bs_cell: np.ndarray, cluster_cell: np.ndarray
) -> np.ndarray:
    """Move stations so each reaches >= 1 of its clusters in-cell.

    Wired fronthaul connects to exactly one cluster, so the station
    must live in that cluster's cell; a wireless station keeps its
    k-means cell when any connected cluster landed there, else follows
    its first cluster.
    """
    repaired = bs_cell.copy()
    for bs in network.base_stations:
        cells_of_clusters = {int(cluster_cell[m]) for m in bs.connected_clusters}
        if bs.fronthaul_type is FronthaulType.WIRED:
            repaired[bs.index] = int(cluster_cell[bs.connected_clusters[0]])
        elif int(repaired[bs.index]) not in cells_of_clusters:
            repaired[bs.index] = min(cells_of_clusters)
    return repaired


def _nearest_covering_station(network: MECNetwork) -> np.ndarray:
    """Index of each device's nearest *covering* base station.

    It does not depend on the cell assignment, so
    :func:`partition_cells` computes it once per call; a device's cell
    is then ``bs_cell[nearest]``.  Devices are taken
    :data:`~repro.network.coverage.ROW_BLOCK` at a time.
    """
    positions = network.device_positions()
    bs_positions = network.base_station_positions()
    radii = np.array([b.coverage_radius for b in network.base_stations])
    nearest = np.empty(len(positions), dtype=np.intp)
    for start in range(0, len(positions), ROW_BLOCK):
        dist = distances(positions[start : start + ROW_BLOCK], bs_positions)
        dist[~(dist <= radii[None, :])] = np.inf
        block = dist.argmin(axis=1)
        uncovered = np.flatnonzero(np.isinf(dist[np.arange(len(dist)), block]))
        if uncovered.size:
            raise ConfigurationError(
                f"device {start + uncovered[0]} is covered by no base station; "
                "partition a validated network"
            )
        nearest[start : start + ROW_BLOCK] = block
    return nearest


def _merge_empty_cells(
    network: MECNetwork,
    bs_cell: np.ndarray,
    cluster_cell: np.ndarray,
    nearest: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fold cells without devices (or stations) into viable neighbours.

    A cell must hold at least one base station, one cluster, and one
    device to be a valid :class:`~repro.network.topology.MECNetwork`.
    The repair steps guarantee station => cluster, so the only dead
    cells are those that attracted no device (or no station at all);
    their stations and clusters move wholesale to the viable cell with
    the nearest station centroid, and devices are then re-assigned.
    """
    bs_positions = network.base_station_positions()
    while True:
        device_cell = bs_cell[nearest]
        present = np.unique(bs_cell)
        viable = [
            int(c)
            for c in present
            if (device_cell == c).any() and (cluster_cell == c).any()
        ]
        dead = [int(c) for c in present if int(c) not in viable]
        # Clusters stranded in a cell with no base station follow suit.
        stranded = [
            int(c)
            for c in np.unique(cluster_cell)
            if not (bs_cell == c).any()
        ]
        dead = sorted(set(dead) | set(stranded))
        if not dead:
            return bs_cell, cluster_cell, device_cell
        if not viable:
            raise ConfigurationError(
                "partition produced no viable cell; the topology cannot "
                "be split this way"
            )
        centroids = {
            c: bs_positions[bs_cell == c].mean(axis=0) for c in viable
        }
        for c in dead:
            members = bs_cell == c
            if members.any():
                origin = bs_positions[members].mean(axis=0)
            else:
                origin = bs_positions.mean(axis=0)
            target = min(
                viable,
                key=lambda v: float(np.linalg.norm(origin - centroids[v])),
            )
            bs_cell = np.where(members, target, bs_cell)
            cluster_cell = np.where(cluster_cell == c, target, cluster_cell)


def _group(labels: np.ndarray, present: list[int]) -> list[tuple[int, ...]]:
    """Indices carrying each label of *present*, ascending within each.

    One stable argsort splits every label's members at once.
    """
    order = np.argsort(labels, kind="stable")
    ranked = labels[order]
    starts = np.searchsorted(ranked, present, side="left").tolist()
    ends = np.searchsorted(ranked, present, side="right").tolist()
    return [tuple(order[a:b].tolist()) for a, b in zip(starts, ends)]


def _build_plan(
    network: MECNetwork,
    bs_cell: np.ndarray,
    cluster_cell: np.ndarray,
    device_cell: np.ndarray,
    *,
    balance_weight: float,
) -> CellPlan:
    """Assemble (renumbered) cells and score the partition."""
    present = np.unique(bs_cell).tolist()
    members = zip(
        _group(bs_cell, present),
        _group(cluster_cell, present),
        _group(cluster_cell[network.server_cluster], present),
        _group(device_cell, present),
    )
    cells = [
        Cell(
            index=local,
            base_stations=base_stations,
            clusters=clusters,
            servers=servers,
            devices=devices,
        )
        for local, (base_stations, clusters, servers, devices) in enumerate(members)
    ]
    bs_positions = network.base_station_positions()
    scale = float(
        np.linalg.norm(bs_positions.max(axis=0) - bs_positions.min(axis=0))
    )
    scale = scale if scale > 0.0 else 1.0
    spread = []
    for cell in cells:
        members = bs_positions[list(cell.base_stations)]
        spread.extend(
            np.linalg.norm(members - members.mean(axis=0), axis=1).tolist()
        )
    latency = float(np.mean(spread)) / scale
    counts = np.array([c.num_devices for c in cells], dtype=np.float64)
    balance = float(counts.std() / counts.mean()) if counts.mean() else 0.0
    return CellPlan(
        cells=tuple(cells),
        score=latency + balance_weight * balance,
        latency_score=latency,
        balance_score=balance,
    )


def partition_cells(
    network: MECNetwork,
    num_cells: int,
    *,
    rng: Rng | None = None,
    restarts: int = 8,
    balance_weight: float = 1.0,
) -> CellPlan:
    """Partition *network* into up to *num_cells* independent cells.

    Base stations are clustered by location with k-means (*restarts*
    independent initialisations; the plan minimising ``latency +
    balance_weight * balance`` wins), then repaired so every cell is a
    standalone topology (see the module docstring).  Merging empty
    cells can return fewer than *num_cells* cells.

    Args:
        network: The topology to split (must pass
            :func:`~repro.network.validation.validate_network`).
        num_cells: Target cell count; 1 returns the trivial plan.
        rng: Randomness for k-means initialisation; a fixed-seed
            generator when omitted, so the default is deterministic.
        restarts: Independent k-means initialisations to score.
        balance_weight: Weight of the device-count-balance term
            relative to the latency proxy.

    Raises:
        ConfigurationError: *num_cells* is out of range or the network
            cannot be split (e.g. an uncovered device).
    """
    if num_cells < 1:
        raise ConfigurationError(f"num_cells must be >= 1, got {num_cells}")
    if num_cells > network.num_base_stations:
        raise ConfigurationError(
            f"cannot split {network.num_base_stations} base stations into "
            f"{num_cells} cells"
        )
    if restarts < 1:
        raise ConfigurationError("restarts must be >= 1")
    if num_cells == 1:
        return CellPlan(
            cells=(
                Cell(
                    index=0,
                    base_stations=tuple(range(network.num_base_stations)),
                    clusters=tuple(range(network.num_clusters)),
                    servers=tuple(range(network.num_servers)),
                    devices=tuple(range(network.num_devices)),
                ),
            )
        )
    if rng is None:
        rng = np.random.default_rng(0)
    bs_positions = network.base_station_positions()
    nearest = _nearest_covering_station(network)
    best: CellPlan | None = None
    for _ in range(restarts):
        raw = _kmeans(bs_positions, num_cells, rng)
        cluster_cell = _assign_clusters(network, raw, num_cells)
        bs_cell = _repair_base_stations(network, raw, cluster_cell)
        bs_cell, cluster_cell, device_cell = _merge_empty_cells(
            network, bs_cell, cluster_cell, nearest
        )
        plan = _build_plan(
            network,
            bs_cell,
            cluster_cell,
            device_cell,
            balance_weight=balance_weight,
        )
        # Prefer plans that kept more cells, then the better score.
        if best is None or (plan.num_cells, -plan.score) > (
            best.num_cells,
            -best.score,
        ):
            best = plan
    assert best is not None
    return best


@dataclass(frozen=True)
class CellIndexMaps:
    """Local-to-global index maps of one extracted subnetwork.

    ``devices[i_local] == i_global`` and likewise for the other
    entities; these are what slices workloads going in and re-labels
    results coming out.
    """

    base_stations: tuple[int, ...]
    clusters: tuple[int, ...]
    servers: tuple[int, ...]
    devices: tuple[int, ...]


def extract_subnetwork(
    network: MECNetwork, cell: Cell
) -> tuple[MECNetwork, CellIndexMaps]:
    """Materialise *cell* as a standalone, densely indexed network.

    Entities are renumbered to local indices (preserving relative
    order), cross-references (`cluster` fields, ``connected_clusters``,
    cluster server lists) are remapped, out-of-cell cluster links of
    wireless stations are dropped, and the suitability matrix is sliced
    to the cell's (device, server) block.  The result is validated
    structurally (energy-model convexity is skipped: the models are
    unchanged from the parent network).

    Raises:
        ConfigurationError: The cell references unknown entities or a
            wired station's cluster is outside the cell.
    """
    for kind, _, num in _KINDS:
        bound = getattr(network, num)
        members = getattr(cell, kind)
        if not members:
            raise ConfigurationError(f"cell {cell.index} has no {kind}")
        if min(members) < 0 or max(members) >= bound:
            raise ConfigurationError(
                f"cell {cell.index}: {kind} out of range for {network!r}"
            )
    cluster_local = {g: l for l, g in enumerate(cell.clusters)}
    server_local = {g: l for l, g in enumerate(cell.servers)}

    base_stations = []
    for local, g in enumerate(cell.base_stations):
        bs = network.base_stations[g]
        connected = tuple(
            cluster_local[m] for m in bs.connected_clusters if m in cluster_local
        )
        if not connected:
            raise ConfigurationError(
                f"cell {cell.index}: {bs.label} reaches no in-cell cluster"
            )
        base_stations.append(
            replace(bs, index=local, connected_clusters=connected)
        )
    clusters = tuple(
        replace(
            network.clusters[g],
            index=local,
            servers=tuple(
                server_local[s]
                for s in network.clusters[g].servers
                if s in server_local
            ),
        )
        for local, g in enumerate(cell.clusters)
    )
    servers = tuple(
        replace(
            network.servers[g],
            index=local,
            cluster=cluster_local[network.servers[g].cluster],
        )
        for local, g in enumerate(cell.servers)
    )
    rows = np.array(cell.devices)
    devices = network.device_positions()[rows]
    names = network.device_names
    if names is not None:
        devices = tuple(
            MobileDevice(local, (x, y), names[g])
            for local, (g, (x, y)) in enumerate(zip(cell.devices, devices.tolist()))
        )
    suitability = network.suitability[np.ix_(rows, np.array(cell.servers))]
    subnetwork = MECNetwork(
        base_stations=tuple(base_stations),
        clusters=clusters,
        servers=servers,
        devices=devices,
        suitability=suitability,
    )
    validate_network(subnetwork, check_energy_convexity=False)
    maps = CellIndexMaps(
        base_stations=cell.base_stations,
        clusters=cell.clusters,
        servers=cell.servers,
        devices=cell.devices,
    )
    return subnetwork, maps
