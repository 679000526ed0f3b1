"""Feasible strategy sets and graph views of the topology.

At each slot, device ``i`` picks a (base station, server) pair out of its
feasible set ``Z_i`` (constraints (1)-(3)): the base station must cover
the device and must have a fronthaul link to the server's cluster.
:class:`StrategySpace` precomputes these pairs from a coverage matrix so
the game-theoretic algorithms iterate over flat arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import networkx as nx

from repro.exceptions import InfeasibleError
from repro.network.topology import MECNetwork
from repro.types import BoolArray, IntArray


def reachable_servers(network: MECNetwork, bs_index: int) -> IntArray:
    """Indices of servers reachable through base station *bs_index*."""
    return network.servers_reachable_from(bs_index)


@dataclass(frozen=True)
class FlatStrategies:
    """All devices' feasible pairs concatenated into parallel arrays.

    Candidate ``c`` belongs to device ``player[c]`` and denotes the pair
    ``(bs[c], server[c])``; device ``i``'s candidates occupy the
    contiguous slice ``offsets[i]:offsets[i + 1]``.  This is the index
    structure the vectorized best-response engine gathers loads through,
    so one numpy pass scores every candidate of every player at once.

    Attributes:
        bs: ``(C,)`` base-station index per candidate.
        server: ``(C,)`` server index per candidate.
        player: ``(C,)`` owning device per candidate.
        offsets: ``(I + 1,)`` slice boundaries per device.
        counts: ``(I,)`` strategy-set sizes ``|Z_i|``.
    """

    bs: IntArray
    server: IntArray
    player: IntArray
    offsets: IntArray
    counts: IntArray

    @property
    def num_candidates(self) -> int:
        """Total number of (device, bs, server) candidates ``C``."""
        return int(self.bs.size)

    def subset_indices(self, players: IntArray) -> tuple[IntArray, IntArray]:
        """Candidate indices of *players* plus subset segment offsets.

        Returns ``(indices, offsets)`` where ``indices`` concatenates the
        candidate slices of the given players (in their given order) and
        ``offsets`` bounds each player's segment within ``indices`` --
        the structure ``np.minimum.reduceat`` needs for per-player
        reductions over the subset.
        """
        counts = self.counts[players]
        ends = np.cumsum(counts)
        starts_out = ends - counts
        # Multi-arange: for each player p, the run offsets[p] + 0..counts[p].
        indices = np.repeat(self.offsets[players] - starts_out, counts)
        indices += np.arange(int(ends[-1]) if counts.size else 0, dtype=np.int64)
        offsets = np.concatenate([[0], ends[:-1]]) if counts.size else np.zeros(1, np.int64)
        return indices, offsets.astype(np.int64)


class StrategySpace:
    """Per-device feasible (base station, server) pairs.

    Args:
        network: The static topology.
        coverage: ``(I, K)`` boolean matrix of which base stations cover
            which devices at the moment of construction.  When coverage is
            static (the default scenario) one strategy space serves the
            whole simulation; with mobility, rebuild it per slot.
        available_servers: Optional ``(N,)`` availability mask; offline
            servers are excluded from every device's strategy set.

    Raises:
        InfeasibleError: If any device ends up with an empty strategy set.
    """

    def __init__(
        self,
        network: MECNetwork,
        coverage: BoolArray,
        available_servers: BoolArray | None = None,
    ) -> None:
        coverage = np.asarray(coverage, dtype=bool)
        if coverage.shape != (network.num_devices, network.num_base_stations):
            raise InfeasibleError(
                "coverage matrix shape must be (I, K) = "
                f"({network.num_devices}, {network.num_base_stations}), "
                f"got {coverage.shape}"
            )
        if available_servers is not None:
            available_servers = np.asarray(available_servers, dtype=bool)
            if available_servers.shape != (network.num_servers,):
                raise InfeasibleError(
                    f"available_servers must have shape (N,) = "
                    f"({network.num_servers},), got {available_servers.shape}"
                )
        self.network = network
        self.coverage = coverage
        self.available_servers = available_servers
        self._menus: list[IntArray] | None = None
        self._patterns: tuple[IntArray, list[IntArray]] | None = None
        self._players_by_bs: list[IntArray] | None = None
        self._players_by_server: list[IntArray] | None = None
        self._flat = self._enumerate(coverage)
        # Per-device views into the flat arrays.
        bounds = self._flat.offsets.tolist()
        spans = list(zip(bounds[:-1], bounds[1:]))
        self._bs_choices = [self._flat.bs[a:b] for a, b in spans]
        self._server_choices = [self._flat.server[a:b] for a, b in spans]

    def _enumerate(self, coverage: BoolArray) -> FlatStrategies:
        """Every device's feasible pairs, in one pass over ``coverage``.

        Device ``i``'s candidates are ``(k, n)`` for each covering
        station ``k`` ascending and each ``n`` of ``k``'s server menu
        (:meth:`server_menu`), in that order.  ``np.nonzero`` walks the
        coverage matrix device-major, so repeating each (device,
        station) hit once per menu entry lays the candidates out
        exactly in that order.
        """
        menus = self.server_menu()
        menu_size = np.array([menu.size for menu in menus], dtype=np.int64)
        menu_start = np.cumsum(menu_size) - menu_size
        menu_servers = np.concatenate([*menus, np.zeros(0, dtype=np.int64)])

        device, station = np.nonzero(coverage)
        hits = menu_size[station]
        counts = np.bincount(
            device, weights=hits, minlength=coverage.shape[0]
        ).astype(np.int64)
        if not counts.all():
            i = int(np.argmin(counts))
            raise InfeasibleError(
                f"{self.network.devices[i].label} has an empty strategy set",
                device=i,
            )
        offsets = np.zeros(counts.size + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        # Multi-arange over the menus: hit h contributes the run
        # menu_start[station[h]] + 0..hits[h].
        ends = np.cumsum(hits)
        picks = np.repeat(menu_start[station] - (ends - hits), hits)
        picks += np.arange(int(offsets[-1]), dtype=np.int64)
        return FlatStrategies(
            bs=np.repeat(station.astype(np.int64), hits),
            server=menu_servers[picks],
            player=np.repeat(device.astype(np.int64), hits),
            offsets=offsets,
            counts=counts,
        )

    @property
    def num_devices(self) -> int:
        """Number of devices the space was built for."""
        return len(self._bs_choices)

    def flat(self) -> FlatStrategies:
        """The concatenated candidate arrays (built at construction)."""
        return self._flat

    def _build_inverted_index(self) -> None:
        by_bs: list[list[int]] = [[] for _ in range(self.network.num_base_stations)]
        by_server: list[list[int]] = [[] for _ in range(self.network.num_servers)]
        for i in range(self.num_devices):
            for k in np.unique(self._bs_choices[i]):
                by_bs[int(k)].append(i)
            for n in np.unique(self._server_choices[i]):
                by_server[int(n)].append(i)
        self._players_by_bs = [np.array(p, dtype=np.int64) for p in by_bs]
        self._players_by_server = [np.array(p, dtype=np.int64) for p in by_server]

    def players_touching_bs(self, bs: int) -> IntArray:
        """Devices whose strategy set contains base station *bs*.

        These are exactly the players whose best response can change when
        the load on *bs* (access or fronthaul) changes -- the inverted
        index behind the incremental engine's dirty-player tracking.
        """
        if self._players_by_bs is None:
            self._build_inverted_index()
        assert self._players_by_bs is not None
        return self._players_by_bs[bs]

    def players_touching_server(self, server: int) -> IntArray:
        """Devices whose strategy set contains *server* (see above)."""
        if self._players_by_server is None:
            self._build_inverted_index()
        assert self._players_by_server is not None
        return self._players_by_server[server]

    def server_menu(self) -> list[IntArray]:
        """Per-base-station candidate server list, in enumeration order.

        Entry ``k`` holds exactly the servers a device covered by ``k``
        may pair with -- ``servers_reachable_from(k)`` filtered by the
        availability mask, in the same order the constructor enumerated
        them.  The menus are player-independent by construction, which is
        what makes the space a product set per covered base station.
        """
        if self._menus is None:
            menus: list[IntArray] = []
            for k in range(self.network.num_base_stations):
                servers = [
                    int(n)
                    for n in self.network.servers_reachable_from(k)
                    if (
                        self.available_servers is None
                        or self.available_servers[int(n)]
                    )
                ]
                menus.append(np.array(servers, dtype=np.int64))
            self._menus = menus
        return self._menus

    def product_patterns(self) -> tuple[IntArray, list[IntArray]]:
        """Distinct server menus and the base-station -> menu mapping.

        Returns ``(menu_of_bs, menus)``: ``menus`` lists the distinct
        per-BS server menus (each an ordered server index array) and
        ``menu_of_bs[k]`` indexes the menu of base station ``k``, with
        ``len(menus)`` standing in for an empty menu (no usable server).
        The decomposed best-response evaluator minimises over servers
        once per distinct menu instead of once per candidate.
        """
        if self._patterns is None:
            menus = self.server_menu()
            distinct: list[IntArray] = []
            seen: dict[bytes, int] = {}
            menu_of_bs = np.empty(len(menus), dtype=np.int64)
            for k, menu in enumerate(menus):
                if menu.size == 0:
                    menu_of_bs[k] = -1
                    continue
                key = menu.tobytes()
                if key not in seen:
                    seen[key] = len(distinct)
                    distinct.append(menu)
                menu_of_bs[k] = seen[key]
            menu_of_bs[menu_of_bs < 0] = len(distinct)
            self._patterns = (menu_of_bs, distinct)
        return self._patterns

    def pairs(self, device: int) -> tuple[IntArray, IntArray]:
        """Feasible strategies of *device* as parallel (bs, server) arrays."""
        return self._bs_choices[device], self._server_choices[device]

    def num_strategies(self, device: int) -> int:
        """Size of ``Z_i`` for *device*."""
        return int(self._bs_choices[device].size)

    def contains(self, device: int, bs: int, server: int) -> bool:
        """Whether (bs, server) is a feasible strategy for *device*."""
        ks, ns = self.pairs(device)
        return bool(np.any((ks == bs) & (ns == server)))

    def repair(
        self,
        bs_of: IntArray,
        server_of: IntArray,
        rng: np.random.Generator,
    ) -> tuple[IntArray, IntArray]:
        """Fix entries of an assignment that are infeasible in this space.

        Used when carrying a decision across slots under mobility: a
        device whose previous (base station, server) pair is no longer
        feasible gets a fresh uniformly random feasible pair; feasible
        entries are kept.  Returns new arrays; the inputs are not
        modified.
        """
        bs_of = np.array(bs_of, dtype=np.int64, copy=True)
        server_of = np.array(server_of, dtype=np.int64, copy=True)
        for i in range(self.num_devices):
            if not self.contains(i, int(bs_of[i]), int(server_of[i])):
                j = int(rng.integers(self._bs_choices[i].size))
                bs_of[i] = self._bs_choices[i][j]
                server_of[i] = self._server_choices[i][j]
        return bs_of, server_of

    def random_assignment(self, rng: np.random.Generator) -> tuple[IntArray, IntArray]:
        """Draw one uniformly random feasible strategy per device.

        Returns:
            ``(bs_of, server_of)`` index vectors of length ``I``; this is
            the selection rule of the ROPT baseline and the starting
            profile of CGBA (Algorithm 3, line 1).
        """
        bs_of = np.empty(self.num_devices, dtype=np.int64)
        server_of = np.empty(self.num_devices, dtype=np.int64)
        for i in range(self.num_devices):
            j = int(rng.integers(self._bs_choices[i].size))
            bs_of[i] = self._bs_choices[i][j]
            server_of[i] = self._server_choices[i][j]
        return bs_of, server_of


def to_networkx_graph(network: MECNetwork, coverage: BoolArray | None = None) -> nx.Graph:
    """Export the topology as a labelled networkx graph.

    Nodes carry a ``kind`` attribute (``"device"``, ``"bs"``,
    ``"cluster"``, ``"server"``); edges a ``link`` attribute (``"access"``,
    ``"fronthaul"``, ``"hosting"``).  Handy for plotting and for graph
    metrics in analyses.
    """
    graph = nx.Graph()
    for d in network.devices:
        graph.add_node(f"D{d.index}", kind="device", pos=d.position)
    for b in network.base_stations:
        graph.add_node(f"B{b.index}", kind="bs", pos=b.position)
    for c in network.clusters:
        graph.add_node(f"M{c.index}", kind="cluster")
    for s in network.servers:
        graph.add_node(f"S{s.index}", kind="server")
        graph.add_edge(f"M{s.cluster}", f"S{s.index}", link="hosting")
    for b in network.base_stations:
        for c in b.connected_clusters:
            graph.add_edge(
                f"B{b.index}",
                f"M{c}",
                link="fronthaul",
                medium=b.fronthaul_type.value,
            )
    if coverage is not None:
        for i, k in zip(*np.nonzero(coverage)):
            graph.add_edge(f"D{int(i)}", f"B{int(k)}", link="access")
    return graph
