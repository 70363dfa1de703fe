"""Unit tests for FIB computation, cross-validated with networkx."""

from collections import deque

import networkx as nx
import pytest

from repro.routing.fib import compute_fibs, shortest_path_lengths
from repro.topo import click_testbed, fat_tree, hyperx, jellyfish, leaf_spine, linear


def to_networkx(topo):
    g = nx.Graph()
    g.add_nodes_from(topo.node_names())
    for link in topo.links:
        g.add_edge(link.node_a, link.node_b)
    return g


class TestAgainstNetworkx:
    @pytest.mark.parametrize("factory", [lambda: fat_tree(k=4), click_testbed, lambda: leaf_spine(2, 2, 2)])
    def test_next_hops_lie_on_shortest_paths(self, factory):
        topo = factory()
        g = to_networkx(topo)
        fibs = compute_fibs(topo)
        for switch, table in fibs.items():
            for dst, next_hops in table.items():
                d = nx.shortest_path_length(g, switch, dst)
                for hop in next_hops:
                    hop_d = 0 if hop == dst else nx.shortest_path_length(g, hop, dst)
                    assert hop_d == d - 1, f"{switch}->{hop}->{dst}"

    def test_all_equal_cost_hops_present(self):
        topo = fat_tree(k=4)
        g = to_networkx(topo)
        fibs = compute_fibs(topo)
        for switch, table in fibs.items():
            for dst, next_hops in table.items():
                d = nx.shortest_path_length(g, switch, dst)
                expected = sorted(
                    nbr
                    for nbr in g.neighbors(switch)
                    if not nbr.startswith("host") or nbr == dst
                    if (0 if nbr == dst else nx.shortest_path_length(g, nbr, dst)) == d - 1
                )
                assert next_hops == expected


class TestStructure:
    def test_every_switch_routes_to_every_host(self):
        topo = fat_tree(k=4)
        fibs = compute_fibs(topo)
        for switch in topo.switches:
            assert set(fibs[switch]) == set(topo.hosts)

    def test_edge_switch_routes_directly_to_attached_host(self):
        topo = fat_tree(k=4)
        fibs = compute_fibs(topo)
        assert fibs["edge_0_0"]["host_0"] == ["host_0"]

    def test_edge_switch_has_multiple_uplink_choices(self):
        topo = fat_tree(k=4)
        fibs = compute_fibs(topo)
        # Cross-pod destination: both aggregation switches are equal cost.
        hops = fibs["edge_0_0"]["host_15"]
        assert len(hops) == 2
        assert all(h.startswith("agg_0") for h in hops)

    def test_core_switch_single_downlink(self):
        topo = fat_tree(k=4)
        fibs = compute_fibs(topo)
        # A core switch reaches any host through exactly one aggregation
        # switch (the one in the destination pod it is wired to).
        for dst in topo.hosts:
            assert len(fibs["core_0"][dst]) == 1

    def test_linear_chain_routes_both_directions(self):
        topo = linear(switches=3, hosts_per_switch=1)
        fibs = compute_fibs(topo)
        assert fibs["sw_0"]["host_2"] == ["sw_1"]
        assert fibs["sw_2"]["host_0"] == ["sw_1"]

    def test_next_hops_never_through_foreign_hosts(self):
        topo = fat_tree(k=4)
        fibs = compute_fibs(topo)
        for switch, table in fibs.items():
            for dst, hops in table.items():
                for hop in hops:
                    assert not hop.startswith("host") or hop == dst

    def test_fibs_deterministic(self):
        a = compute_fibs(fat_tree(k=4))
        b = compute_fibs(fat_tree(k=4))
        assert a == b


class TestShortestPathLengths:
    def test_matches_networkx(self):
        topo = fat_tree(k=4)
        g = to_networkx(topo)
        mine = shortest_path_lengths(topo, "host_0")
        theirs = nx.shortest_path_length(g, "host_0")
        assert mine == dict(theirs)


def _reference_fibs(topo):
    """The straightforward algorithm, one BFS per destination host: the
    oracle for compute_fibs's grouped BFS."""
    adj = topo.adjacency()
    switch_names = set(topo.switches)
    fibs = {name: {} for name in topo.switches}
    for dst in topo.hosts:
        dist = {dst: 0}
        frontier = deque([dst])
        while frontier:
            node = frontier.popleft()
            for nbr in adj[node]:
                if nbr not in dist:
                    dist[nbr] = dist[node] + 1
                    frontier.append(nbr)
        for switch in topo.switches:
            d = dist.get(switch)
            if d is None:
                continue
            next_hops = [
                nbr
                for nbr in adj[switch]
                if dist.get(nbr, -1) == d - 1 and (nbr in switch_names or nbr == dst)
            ]
            if next_hops:
                fibs[switch][dst] = sorted(next_hops)
    return fibs


def _odd_hosts():
    """Hosts that are not single-homed on a switch: one behind another
    host, one dual-homed, one isolated (as after a link failure)."""
    topo = linear(switches=3, hosts_per_switch=1)
    topo.add_host("behind_host_0")
    topo.add_link("behind_host_0", "host_0", 1e9, 5e-6)
    topo.add_host("dual")
    topo.add_link("dual", "sw_0", 1e9, 5e-6)
    topo.add_link("dual", "sw_2", 1e9, 5e-6)
    topo.add_host("isolated")
    return topo


class TestGroupedBfsMatchesPerHostBfs:
    @pytest.mark.parametrize("factory", [
        lambda: fat_tree(k=4),
        lambda: fat_tree(k=8),
        leaf_spine,
        lambda: jellyfish(switches=12, fabric_degree=3, hosts_per_switch=2, seed=5),
        lambda: linear(switches=4, hosts_per_switch=2),
        click_testbed,
        lambda: hyperx(shape=(3, 3), hosts_per_switch=2),
        _odd_hosts,
    ], ids=["fat_tree_k4", "fat_tree_k8", "leaf_spine", "jellyfish", "linear",
            "click_testbed", "hyperx", "odd_hosts"])
    def test_identical_tables_and_key_order(self, factory):
        topo = factory()
        fibs = compute_fibs(topo)
        reference = _reference_fibs(topo)
        assert fibs == reference
        assert list(fibs) == list(reference)
        for switch in reference:
            assert list(fibs[switch]) == list(reference[switch]), switch
