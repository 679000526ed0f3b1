"""Tests for strategy spaces and the networkx export."""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.exceptions import InfeasibleError
from repro.network.builder import build_paper_network
from repro.network.connectivity import StrategySpace, to_networkx_graph

from conftest import make_tiny_network, make_tiny_state


class TestStrategySpace:
    def test_pairs_respect_coverage_and_fronthaul(self) -> None:
        net = make_tiny_network()
        space = StrategySpace(net, make_tiny_state().coverage())
        # Devices 0, 1: BS0 only -> servers 0, 1.
        for i in (0, 1):
            ks, ns = space.pairs(i)
            assert set(zip(ks.tolist(), ns.tolist())) == {(0, 0), (0, 1)}
        # Devices 2, 3: additionally BS1 -> server 2.
        for i in (2, 3):
            ks, ns = space.pairs(i)
            assert set(zip(ks.tolist(), ns.tolist())) == {
                (0, 0), (0, 1), (1, 2)
            }

    def test_num_strategies_and_contains(self) -> None:
        net = make_tiny_network()
        space = StrategySpace(net, make_tiny_state().coverage())
        assert space.num_strategies(0) == 2
        assert space.num_strategies(2) == 3
        assert space.contains(2, 1, 2)
        assert not space.contains(0, 1, 2)
        assert not space.contains(0, 0, 2)

    def test_empty_strategy_set_raises(self) -> None:
        net = make_tiny_network()
        coverage = make_tiny_state().coverage()
        coverage[0, :] = False
        with pytest.raises(InfeasibleError) as excinfo:
            StrategySpace(net, coverage)
        assert excinfo.value.device == 0

    def test_wrong_shape_raises(self) -> None:
        net = make_tiny_network()
        with pytest.raises(InfeasibleError):
            StrategySpace(net, np.ones((4, 5), dtype=bool))

    def test_random_assignment_feasible(self) -> None:
        net = make_tiny_network()
        space = StrategySpace(net, make_tiny_state().coverage())
        rng = np.random.default_rng(0)
        for _ in range(20):
            bs_of, server_of = space.random_assignment(rng)
            for i in range(net.num_devices):
                assert space.contains(i, int(bs_of[i]), int(server_of[i]))

    def test_random_assignment_covers_all_strategies(self) -> None:
        net = make_tiny_network()
        space = StrategySpace(net, make_tiny_state().coverage())
        rng = np.random.default_rng(1)
        seen = set()
        for _ in range(200):
            bs_of, server_of = space.random_assignment(rng)
            seen.add((int(bs_of[2]), int(server_of[2])))
        assert seen == {(0, 0), (0, 1), (1, 2)}


def loop_random_assignment(space: StrategySpace, rng):
    """The per-device draw the vectorised ``random_assignment`` replaced."""
    bs_of = np.empty(space.num_devices, dtype=np.int64)
    server_of = np.empty(space.num_devices, dtype=np.int64)
    for i in range(space.num_devices):
        ks, ns = space.pairs(i)
        j = int(rng.integers(ks.size))
        bs_of[i] = ks[j]
        server_of[i] = ns[j]
    return bs_of, server_of


class TestRandomAssignment:
    def test_matches_the_per_device_loop(self) -> None:
        """Same values and same generator state as one draw per device,
        over random spaces with set sizes from 1 upwards."""
        rng = np.random.default_rng(5)
        sizes = set()
        for trial in range(50):
            network, coverage = build_paper_network(
                np.random.default_rng(trial),
                num_devices=int(rng.integers(1, 40)),
                num_base_stations=int(rng.integers(1, 7)),
                num_macro_stations=1,
                num_clusters=int(rng.integers(1, 4)),
                servers_per_cluster=int(rng.integers(1, 4)),
                wireless_fronthaul_fraction=float(rng.uniform()),
            )
            space = StrategySpace(network, coverage)
            sizes.update(space.flat().counts.tolist())
            ours = np.random.default_rng(trial)
            theirs = np.random.default_rng(trial)
            for _ in range(3):
                got = space.random_assignment(ours)
                want = loop_random_assignment(space, theirs)
                for a, b in zip(got, want):
                    assert a.dtype == np.int64
                    np.testing.assert_array_equal(a, b)
                assert ours.bit_generator.state == theirs.bit_generator.state
        assert 1 in sizes and max(sizes) > 1


def reference_choices(network, coverage, available_servers=None):
    """The per-device, per-station, per-server enumeration the flat
    construction replaced: (bs choices, server choices) per device, or
    the (message, device) of the first empty strategy set."""
    bs_choices, server_choices = [], []
    for i in range(network.num_devices):
        pairs = [
            (int(k), int(n))
            for k in np.flatnonzero(coverage[i])
            for n in network.servers_reachable_from(int(k))
            if available_servers is None or available_servers[int(n)]
        ]
        if not pairs:
            label = network.devices[i].label
            return f"{label} has an empty strategy set", i
        bs_choices.append(np.array([k for k, _ in pairs], dtype=np.int64))
        server_choices.append(np.array([n for _, n in pairs], dtype=np.int64))
    return bs_choices, server_choices


class TestFlatConstruction:
    @pytest.mark.parametrize("with_availability", [False, True])
    def test_matches_per_device_reference(self, with_availability) -> None:
        rng = np.random.default_rng(17 + with_availability)
        outcomes = set()
        for trial in range(120):
            network, coverage = build_paper_network(
                np.random.default_rng(trial),
                num_devices=int(rng.integers(1, 40)),
                num_base_stations=int(rng.integers(1, 7)),
                num_macro_stations=1,
                num_clusters=int(rng.integers(1, 4)),
                servers_per_cluster=int(rng.integers(1, 4)),
                wireless_fronthaul_fraction=float(rng.uniform()),
            )
            # Thin the coverage so some sets shrink or empty out.
            coverage = coverage & (rng.uniform(size=coverage.shape) < 0.9)
            available = (
                rng.uniform(size=network.num_servers) < 0.8
                if with_availability
                else None
            )
            expected = reference_choices(network, coverage, available)
            if isinstance(expected[0], str):
                with pytest.raises(InfeasibleError) as excinfo:
                    StrategySpace(network, coverage, available)
                assert (str(excinfo.value), excinfo.value.device) == expected
                outcomes.add("empty")
                continue
            outcomes.add("built")
            space = StrategySpace(network, coverage, available)
            bs_choices, server_choices = expected
            assert space.num_devices == len(bs_choices)
            for i, want in enumerate(zip(bs_choices, server_choices)):
                assert space.num_strategies(i) == want[0].size
                for ours, theirs in zip(space.pairs(i), want):
                    assert ours.dtype == np.int64
                    np.testing.assert_array_equal(ours, theirs)
            flat = space.flat()
            counts = np.array([c.size for c in bs_choices], dtype=np.int64)
            offsets = np.concatenate([[0], np.cumsum(counts)])
            for name, want in (
                ("bs", np.concatenate(bs_choices)),
                ("server", np.concatenate(server_choices)),
                ("player", np.repeat(np.arange(counts.size), counts)),
                ("offsets", offsets),
                ("counts", counts),
            ):
                got = getattr(flat, name)
                assert got.dtype == np.int64, name
                np.testing.assert_array_equal(got, want, err_msg=name)
        assert outcomes == {"empty", "built"}


class TestProductSet:
    """Every strategy space is a product set per covering station -- the
    premise of the decomposed gap sweep, CGBA's only best-response
    evaluator: device ``i`` may pick any ``(k, n)`` with ``k`` covering
    ``i`` and ``n`` on ``k``'s server menu, which does not depend on
    ``i``."""

    @settings(
        max_examples=80,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(data=st.data())
    def test_candidates_are_covering_stations_times_menus(self, data) -> None:
        network, _ = build_paper_network(
            np.random.default_rng(data.draw(st.integers(0, 2**16))),
            num_devices=data.draw(st.integers(1, 10)),
            num_base_stations=data.draw(st.integers(1, 5)),
            num_macro_stations=1,
            num_clusters=data.draw(st.integers(1, 3)),
            servers_per_cluster=data.draw(st.integers(1, 3)),
            wireless_fronthaul_fraction=data.draw(st.floats(0.0, 1.0)),
        )
        shape = (network.num_devices, network.num_base_stations)
        coverage = np.array(
            data.draw(
                st.lists(
                    st.booleans(),
                    min_size=shape[0] * shape[1],
                    max_size=shape[0] * shape[1],
                )
            ),
            dtype=bool,
        ).reshape(shape)
        available = data.draw(
            st.none()
            | st.lists(
                st.booleans(),
                min_size=network.num_servers,
                max_size=network.num_servers,
            ).map(lambda mask: np.array(mask, dtype=bool))
        )
        # Each station's menu, built independently of the space.
        menus = [
            np.array(
                [
                    int(n)
                    for n in network.servers_reachable_from(k)
                    if available is None or available[int(n)]
                ],
                dtype=np.int64,
            )
            for k in range(network.num_base_stations)
        ]
        menu_sizes = np.array([menu.size for menu in menus], dtype=np.int64)
        counts = coverage.astype(np.int64) @ menu_sizes
        if not counts.all():
            with pytest.raises(InfeasibleError) as excinfo:
                StrategySpace(network, coverage, available)
            assert excinfo.value.device == int(np.argmin(counts))
            return
        space = StrategySpace(network, coverage, available)
        for got, want in zip(space.server_menu(), menus):
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, want)
        for i in range(network.num_devices):
            stations = np.flatnonzero(coverage[i])
            ks, ns = space.pairs(i)
            np.testing.assert_array_equal(
                ks, np.repeat(stations, menu_sizes[stations])
            )
            np.testing.assert_array_equal(
                ns, np.concatenate([menus[k] for k in stations])
            )
        np.testing.assert_array_equal(space.flat().counts, counts)


class TestRepair:
    def test_keeps_feasible_entries(self) -> None:
        net = make_tiny_network()
        space = StrategySpace(net, make_tiny_state().coverage())
        bs_of = np.array([0, 0, 1, 1], dtype=np.int64)
        server_of = np.array([0, 1, 2, 2], dtype=np.int64)
        fixed_bs, fixed_server = space.repair(
            bs_of, server_of, np.random.default_rng(0)
        )
        np.testing.assert_array_equal(fixed_bs, bs_of)
        np.testing.assert_array_equal(fixed_server, server_of)

    def test_replaces_infeasible_entries(self) -> None:
        net = make_tiny_network()
        coverage = make_tiny_state().coverage()
        coverage[2, 1] = False  # device 2 loses BS1
        space = StrategySpace(net, coverage)
        bs_of = np.array([0, 0, 1, 1], dtype=np.int64)
        server_of = np.array([0, 1, 2, 2], dtype=np.int64)
        fixed_bs, fixed_server = space.repair(
            bs_of, server_of, np.random.default_rng(0)
        )
        assert space.contains(2, int(fixed_bs[2]), int(fixed_server[2]))
        assert int(fixed_bs[2]) == 0  # only the macro remains
        # Untouched devices keep their pairs.
        assert int(fixed_bs[3]) == 1 and int(fixed_server[3]) == 2

    def test_inputs_not_mutated(self) -> None:
        net = make_tiny_network()
        coverage = make_tiny_state().coverage()
        coverage[2, 1] = False
        space = StrategySpace(net, coverage)
        bs_of = np.array([0, 0, 1, 1], dtype=np.int64)
        server_of = np.array([0, 1, 2, 2], dtype=np.int64)
        space.repair(bs_of, server_of, np.random.default_rng(0))
        assert int(bs_of[2]) == 1  # original array untouched


class TestGraphExport:
    def test_networkx_is_imported_on_demand(self) -> None:
        code = (
            "import sys, repro; "
            "assert 'networkx' not in sys.modules; "
            "from repro.network import to_networkx_graph; "
            "assert 'networkx' not in sys.modules"
        )
        import repro

        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        subprocess.run([sys.executable, "-c", code], check=True, env=env)

    def test_node_and_edge_kinds(self) -> None:
        net = make_tiny_network()
        graph = to_networkx_graph(net, make_tiny_state().coverage())
        kinds = {data["kind"] for _, data in graph.nodes(data=True)}
        assert kinds == {"device", "bs", "cluster", "server"}
        links = {data["link"] for _, _, data in graph.edges(data=True)}
        assert links == {"access", "fronthaul", "hosting"}

    def test_counts(self) -> None:
        net = make_tiny_network()
        graph = to_networkx_graph(net)
        # 4 devices + 2 BS + 2 clusters + 3 servers.
        assert graph.number_of_nodes() == 11
        # 3 hosting + 2 fronthaul edges; no access edges without coverage.
        assert graph.number_of_edges() == 5
