"""Radio-connectivity graph for a sensor network.

The topology is undirected and static for the lifetime of an experiment.
Node ``0`` is the base station.  Depth (the paper's per-sensor ``depth``
and network depth ``L``) is defined on a *subset* of nodes — the proofs
always exclude malicious sensors when reasoning about depth, so
:meth:`Topology.depths` takes the node set to consider.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

from ..errors import TopologyError

BASE_STATION_ID = 0


def depths_over(
    adjacency: Dict[int, Iterable[int]],
    source: int = BASE_STATION_ID,
    allowed: Optional[Set[int]] = None,
) -> Dict[int, int]:
    """BFS depths over a plain adjacency mapping (behind
    :meth:`Topology.depths`).

    ``allowed`` restricts traversal (the source is always allowed);
    unreachable nodes are absent from the result.
    """
    depth: Dict[int, int] = {source: 0}
    frontier = deque([source])
    while frontier:
        current = frontier.popleft()
        next_depth = depth[current] + 1
        for neighbor in adjacency.get(current, ()):
            if neighbor not in depth and (allowed is None or neighbor in allowed):
                depth[neighbor] = next_depth
                frontier.append(neighbor)
    return depth


class Topology:
    """An undirected radio graph over integer node ids.

    Parameters
    ----------
    num_nodes:
        Total node count *including* the base station (node ``0``).
    edges:
        Iterable of undirected ``(a, b)`` pairs.
    positions:
        Optional ``{node_id: (x, y)}`` map for geometric topologies; kept
        for visualization and wormhole-distance checks but never consulted
        by protocol logic.
    """

    def __init__(
        self,
        num_nodes: int,
        edges: Iterable[Tuple[int, int]],
        positions: Optional[Dict[int, Tuple[float, float]]] = None,
    ) -> None:
        if num_nodes < 2:
            raise TopologyError("a sensor network needs the base station plus >= 1 sensor")
        self.num_nodes = num_nodes
        self._adjacency: Dict[int, Set[int]] = {i: set() for i in range(num_nodes)}
        for a, b in edges:
            self.add_edge(a, b)
        self.positions = dict(positions) if positions else {}

    # ------------------------------------------------------------------
    # Construction and basic queries
    # ------------------------------------------------------------------
    def add_edge(self, a: int, b: int) -> None:
        self._check_node(a)
        self._check_node(b)
        if a == b:
            raise TopologyError(f"self-loop on node {a}")
        self._adjacency[a].add(b)
        self._adjacency[b].add(a)

    def has_edge(self, a: int, b: int) -> bool:
        return b in self._adjacency.get(a, ())

    def neighbors(self, node: int) -> FrozenSet[int]:
        self._check_node(node)
        return frozenset(self._adjacency[node])

    def degree(self, node: int) -> int:
        self._check_node(node)
        return len(self._adjacency[node])

    @property
    def node_ids(self) -> range:
        return range(self.num_nodes)

    @property
    def sensor_ids(self) -> List[int]:
        """All node ids except the base station."""
        return [i for i in range(self.num_nodes) if i != BASE_STATION_ID]

    def edges(self) -> Iterator[Tuple[int, int]]:
        for a in range(self.num_nodes):
            for b in self._adjacency[a]:
                if a < b:
                    yield (a, b)

    def num_edges(self) -> int:
        return sum(1 for _ in self.edges())

    # ------------------------------------------------------------------
    # Depth and connectivity (Section III definitions)
    # ------------------------------------------------------------------
    def depths(
        self,
        include: Optional[Set[int]] = None,
        source: int = BASE_STATION_ID,
    ) -> Dict[int, int]:
        """BFS depth of every reachable node, restricted to ``include``.

        ``include`` is the node set the paths may traverse (the paper
        computes depth "excluding all malicious sensors").  The source is
        always considered included.  Unreachable nodes are absent from
        the result.
        """
        allowed = set(include) if include is not None else None
        if allowed is not None:
            allowed.add(source)
        self._check_node(source)
        return depths_over(self._adjacency, source=source, allowed=allowed)

    def network_depth(self, exclude: Optional[Set[int]] = None) -> int:
        """The paper's ``L``: max depth over reachable honest sensors."""
        exclude = exclude or set()
        include = {i for i in range(self.num_nodes) if i not in exclude}
        depth = self.depths(include=include)
        reachable = [d for node, d in depth.items() if node != BASE_STATION_ID]
        if not reachable:
            raise TopologyError("no sensor is reachable from the base station")
        return max(reachable)

    def is_connected(self, exclude: Optional[Set[int]] = None) -> bool:
        """Whether all non-excluded nodes reach the base station."""
        exclude = exclude or set()
        include = {i for i in range(self.num_nodes) if i not in exclude}
        depth = self.depths(include=include)
        return all(node in depth for node in include)

    def connected_component(self, exclude: Optional[Set[int]] = None) -> Set[int]:
        """Nodes reachable from the base station avoiding ``exclude``."""
        exclude = exclude or set()
        include = {i for i in range(self.num_nodes) if i not in exclude}
        return set(self.depths(include=include))

    # ------------------------------------------------------------------
    # Derivation
    # ------------------------------------------------------------------
    def subgraph(self, keep_edge) -> "Topology":
        """A copy retaining only edges for which ``keep_edge(a, b)`` is true."""
        kept = [(a, b) for a, b in self.edges() if keep_edge(a, b)]
        return Topology(self.num_nodes, kept, positions=self.positions)

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.num_nodes:
            raise TopologyError(f"unknown node id {node} (num_nodes={self.num_nodes})")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Topology(n={self.num_nodes}, edges={self.num_edges()})"
