"""Feasible strategy sets and graph views of the topology.

At each slot, device ``i`` picks a (base station, server) pair out of its
feasible set ``Z_i`` (constraints (1)-(3)): the base station must cover
the device and must have a fronthaul link to the server's cluster.
:class:`StrategySpace` precomputes these pairs from a coverage matrix so
the game-theoretic algorithms iterate over flat arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.exceptions import InfeasibleError, ValidationError
from repro.network.topology import MECNetwork
from repro.types import BoolArray, IntArray

if TYPE_CHECKING:
    import networkx as nx


@dataclass(frozen=True)
class FlatStrategies:
    """All devices' feasible pairs concatenated into parallel arrays.

    Candidate ``c`` belongs to device ``player[c]`` and denotes the pair
    ``(bs[c], server[c])``; device ``i``'s candidates occupy the
    contiguous slice ``offsets[i]:offsets[i + 1]``.  Random draws,
    repair and the greedy pass index these arrays, so one numpy pass
    covers every candidate of every player.

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
        self._flat = self._enumerate(coverage)

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
        return self._flat.counts.size

    def flat(self) -> FlatStrategies:
        """The concatenated candidate arrays (built at construction)."""
        return self._flat

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
        """Feasible strategies of *device* as parallel (bs, server) arrays.

        Views of :meth:`flat`'s arrays over the device's offsets.
        """
        flat = self._flat
        span = slice(flat.offsets[device], flat.offsets[device + 1])
        return flat.bs[span], flat.server[span]

    def num_strategies(self, device: int) -> int:
        """Size of ``Z_i`` for *device*."""
        return int(self._flat.counts[device])

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
        modified.  The draws are one ``rng.integers(|Z_i|)`` per
        repaired device in device order, as :meth:`random_assignment`
        makes them (none when nothing needs repair).

        Raises:
            ValidationError: When *bs_of* or *server_of* is not ``(I,)``.
        """
        bs_of = np.array(bs_of, dtype=np.int64, copy=True)
        server_of = np.array(server_of, dtype=np.int64, copy=True)
        expected = (self.num_devices,)
        if bs_of.shape != expected or server_of.shape != expected:
            raise ValidationError(
                f"repair needs bs_of and server_of of shape (I,) = {expected}, "
                f"got {bs_of.shape} and {server_of.shape}"
            )
        flat = self._flat
        # One membership pass over every candidate: a device is feasible
        # when one of its candidates is exactly its current pair.
        hit = (flat.bs == bs_of[flat.player]) & (
            flat.server == server_of[flat.player]
        )
        bad = np.flatnonzero(~np.logical_or.reduceat(hit, flat.offsets[:-1]))
        if bad.size:
            # Skipped when nothing needs repair (the common case after
            # a space change): the draw costs microseconds even empty.
            picks = flat.offsets[bad] + rng.integers(flat.counts[bad])
            bs_of[bad] = flat.bs[picks]
            server_of[bad] = flat.server[picks]
        return bs_of, server_of

    def random_assignment(self, rng: np.random.Generator) -> tuple[IntArray, IntArray]:
        """Draw one uniformly random feasible strategy per device.

        Returns:
            ``(bs_of, server_of)`` index vectors of length ``I``; this is
            the selection rule of the ROPT baseline and the starting
            profile of CGBA (Algorithm 3, line 1).
        """
        flat = self._flat
        # One draw per device in device order: the array form of
        # ``rng.integers(count)`` yields the same values and leaves the
        # generator in the same state as one call per device.
        picks = flat.offsets[:-1] + rng.integers(flat.counts)
        return flat.bs[picks], flat.server[picks]


def to_networkx_graph(
    network: MECNetwork, coverage: BoolArray | None = None
) -> "nx.Graph":
    """Export the topology as a labelled networkx graph.

    Nodes carry a ``kind`` attribute (``"device"``, ``"bs"``,
    ``"cluster"``, ``"server"``); edges a ``link`` attribute (``"access"``,
    ``"fronthaul"``, ``"hosting"``).  Handy for plotting and for graph
    metrics in analyses.
    """
    # Imported here: networkx is the slowest import of the package and
    # nothing else needs it.
    import networkx as nx

    graph = nx.Graph()
    for i, (x, y) in enumerate(network.device_positions().tolist()):
        graph.add_node(f"D{i}", kind="device", pos=(x, y))
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
