"""Forwarding-table computation.

§3 of the paper assumes FIB-based forwarding (no spanning tree): each switch
holds, per destination host, the set of neighbors on shortest paths, and
picks among them with flow-level ECMP.  A centralized controller (or OSPF)
would compute the same tables; we compute them directly with BFS — one
per edge switch, shared by the hosts hanging off it — which is exact
all-shortest-path routing.

The output is symbolic (names, not ports); :mod:`repro.net.network`
translates neighbor names into port indices when it instantiates switches.
"""

from __future__ import annotations

from collections import deque

from repro.topo.base import Topology

__all__ = ["compute_fibs", "shortest_path_lengths"]


def compute_fibs(topo: Topology) -> dict[str, dict[str, list[str]]]:
    """Compute ``fib[switch][dst_host] -> sorted list of next-hop names``.

    Every entry lists *all* shortest-path next hops, so ECMP fan-out falls
    out for free.  Hosts get no FIB (they only talk to their edge switch).
    The destinations of one BFS group share one next-hop list per switch
    (the same list object, not copies), so consumers can resolve each
    distinct list once; treat the lists as read-only.

    Destinations are grouped by the root of their BFS.  A host whose only
    neighbour is a switch ``s`` is reached through ``s`` alone, so its
    distance from every other node is one more than ``s``'s: every switch
    but ``s`` has the same next hops towards each host of the group, and
    ``s`` forwards on the host's own link.  One BFS from ``s`` serves the
    whole group.  Any other host is its own root.
    """
    adj = topo.adjacency()
    switch_names = set(topo.switches)
    fibs: dict[str, dict[str, list[str]]] = {name: {} for name in topo.switches}
    groups: dict[str, dict[str, list[str]]] = {}

    for dst in topo.hosts:
        nbrs = adj[dst]
        root = nbrs[0] if len(nbrs) == 1 and nbrs[0] in switch_names else dst
        shared = groups.get(root)
        if shared is None:
            shared = groups[root] = _next_hops_towards(adj, topo.switches, switch_names, root)
        for switch, next_hops in shared.items():
            fibs[switch][dst] = next_hops
        if root != dst:
            fibs[root][dst] = [nbr for nbr in adj[root] if nbr == dst]
    return fibs


def _next_hops_towards(adj: dict[str, list[str]], switches: list[str],
                       switch_names: set[str], root: str) -> dict[str, list[str]]:
    """``switch -> sorted shortest-path next hops towards root`` for every
    switch other than ``root`` that has one; a hop is a switch or
    ``root`` itself."""
    dist = _bfs_distances(adj, root)
    table = {}
    for switch in switches:
        d = dist.get(switch)
        if d is None:
            continue
        next_hops = [
            nbr
            for nbr in adj[switch]
            if dist.get(nbr, -1) == d - 1 and (nbr in switch_names or nbr == root)
        ]
        if next_hops:
            table[switch] = sorted(next_hops)
    return table


def shortest_path_lengths(topo: Topology, src: str) -> dict[str, int]:
    """Hop distance from ``src`` to every reachable node (testing aid)."""
    return _bfs_distances(topo.adjacency(), src)


def _bfs_distances(adj: dict[str, list[str]], start: str) -> dict[str, int]:
    dist = {start: 0}
    frontier = deque([start])
    while frontier:
        node = frontier.popleft()
        base = dist[node]
        for nbr in adj[node]:
            if nbr not in dist:
                dist[nbr] = base + 1
                frontier.append(nbr)
    return dist
