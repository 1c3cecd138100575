"""Sensor-network topology model and generators.

A :class:`~repro.topology.graph.Topology` is the *radio* connectivity
graph: which sensors can physically hear one another, stored once as CSR
arrays (``indptr``/``cols``).  The base station is node ``0`` by
convention.  Protocol code operates on the *secure* subgraph (radio edges
whose endpoints share a non-revoked Eschenauer–Gligor key), which
:class:`~repro.net.network.Network` derives as an edge-key column over the
same arrays; :meth:`~repro.topology.graph.Topology.depths` is the one
traversal for both.

Generators cover the standard evaluation shapes: random geometric graphs
(the usual sensor-deployment model), grids, lines (worst-case depth), and
balanced trees.
"""

from .generators import (
    grid_topology,
    line_topology,
    random_geometric_topology,
    star_topology,
    tree_topology,
)
from .graph import Topology
from .interop import (
    betweenness_ranking,
    cluster_topology,
    disjoint_paths_to_base,
    from_networkx,
    most_central_sensors,
    to_networkx,
)

__all__ = [
    "Topology",
    "betweenness_ranking",
    "cluster_topology",
    "disjoint_paths_to_base",
    "from_networkx",
    "most_central_sensors",
    "to_networkx",
    "grid_topology",
    "line_topology",
    "random_geometric_topology",
    "star_topology",
    "tree_topology",
]
