"""NetworkX interop and topology analytics.

Experiment design often needs graph-theoretic placement decisions —
"put the adversary on the highest-betweenness cut", "how many vertex-
disjoint paths protect the far corner?".  Rather than re-implementing
graph algorithms, this module bridges :class:`~repro.topology.graph.
Topology` to networkx and wraps the handful of analytics the examples
and benches use.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..errors import TopologyError
from .graph import BASE_STATION_ID, Topology


def to_networkx(topology: Topology):
    """An undirected ``networkx.Graph`` view (positions as node attrs)."""
    import networkx

    graph = networkx.Graph()
    graph.update(edges=topology.edges(), nodes=topology.node_ids)
    for node, (x, y) in topology.positions.items():
        graph.nodes[node]["pos"] = (x, y)
    return graph


def from_networkx(graph) -> Topology:
    """Build a :class:`Topology` from a networkx graph with int nodes
    ``0..n-1`` (node 0 becomes the base station)."""
    nodes = sorted(graph.nodes)
    if nodes != list(range(len(nodes))):
        raise TopologyError("nodes must be consecutive integers starting at 0")
    positions = {
        node: tuple(data["pos"])
        for node, data in graph.nodes(data=True)
        if "pos" in data
    }
    return Topology(len(nodes), list(graph.edges), positions=positions or None)


def betweenness_ranking(topology: Topology) -> List[Tuple[int, float]]:
    """Sensors ranked by betweenness centrality (descending) — the
    natural 'most damaging compromise' ordering for experiment design."""
    import networkx

    graph = to_networkx(topology)
    scores = networkx.betweenness_centrality(graph)
    return sorted(
        ((node, score) for node, score in scores.items() if node != BASE_STATION_ID),
        key=lambda pair: (-pair[1], pair[0]),
    )


def most_central_sensors(topology: Topology, count: int) -> List[int]:
    """The ``count`` highest-betweenness sensors (worst-case compromise
    set for dropping attacks)."""
    if count < 0:
        raise TopologyError("count must be non-negative")
    return [node for node, _score in betweenness_ranking(topology)[:count]]


def disjoint_paths_to_base(topology: Topology, sensor: int) -> int:
    """Number of vertex-disjoint paths from a sensor to the base station
    — how many simultaneous compromises it takes to fence it off
    (relevant to multipath aggregation, §IV-D)."""
    import networkx

    if sensor == BASE_STATION_ID:
        raise TopologyError("the base station needs no path to itself")
    graph = to_networkx(topology)
    return networkx.node_connectivity(graph, sensor, BASE_STATION_ID)


def cluster_topology(
    num_clusters: int,
    cluster_size: int,
    seed: int = 0,
    intra_radius: float = 0.35,
) -> Topology:
    """A clustered deployment: dense node clusters bridged by their
    heads in a line back to the base station — the classic hierarchical
    WSN layout, and a worst case for cut-vertex attacks.

    Node 0 is the base station; node ``1 + c * cluster_size`` is cluster
    ``c``'s head.  Heads form a chain ``BS - head_0 - head_1 - ...``;
    members connect to their head and to nearby members.
    """
    import random as _random

    if num_clusters < 1 or cluster_size < 1:
        raise TopologyError("need at least one cluster with one member")
    num_nodes = 1 + num_clusters * cluster_size
    edges: List[Tuple[int, int]] = []
    positions: Dict[int, Tuple[float, float]] = {0: (0.0, 0.5)}
    rng = _random.Random(("clusters", seed).__repr__())
    previous_head = 0
    for cluster in range(num_clusters):
        head = 1 + cluster * cluster_size
        cx = (cluster + 1) / (num_clusters + 1)
        positions[head] = (cx, 0.5)
        edges.append((previous_head, head))
        members = list(range(head + 1, head + cluster_size))
        for member in members:
            positions[member] = (
                cx + rng.uniform(-0.08, 0.08),
                0.5 + rng.uniform(-0.2, 0.2),
            )
            edges.append((head, member))
        # Intra-cluster member links by proximity.
        for i, a in enumerate(members):
            for b in members[i + 1 :]:
                ax, ay = positions[a]
                bx, by = positions[b]
                if (ax - bx) ** 2 + (ay - by) ** 2 <= (intra_radius * 0.4) ** 2:
                    edges.append((a, b))
        previous_head = head
    return Topology(num_nodes, edges, positions=positions)
