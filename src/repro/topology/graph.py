"""Radio-connectivity graph for a sensor network.

The topology is undirected and static for the lifetime of an experiment.
Node ``0`` is the base station.  The graph is stored once, as CSR: node
``n``'s radio neighbours are ``cols[indptr[n]:indptr[n + 1]]``.  The
secure view (:class:`~repro.net.network.Network`) reads these arrays
directly and keeps only a parallel edge-key column beside them.

Depth (the paper's per-sensor ``depth`` and network depth ``L``) is
defined on a *subset* of nodes — the proofs always exclude malicious
sensors when reasoning about depth — so :meth:`Topology.depths` takes the
node set to consider.  It is the one breadth-first traversal: every
depth, connectivity and component query, radio or secure, runs it.
"""

from __future__ import annotations

from array import array
from collections import deque
from itertools import accumulate, chain
from typing import (
    Callable, Container, Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple,
)

from ..errors import TopologyError

BASE_STATION_ID = 0


class Topology:
    """An undirected radio graph over integer node ids.

    Parameters
    ----------
    num_nodes:
        Total node count *including* the base station (node ``0``).
    edges:
        Iterable of undirected ``(a, b)`` pairs; duplicates collapse.
    positions:
        Optional ``{node_id: (x, y)}`` map for geometric topologies; kept
        for visualization and wormhole-distance checks but never consulted
        by protocol logic.

    The adjacency is two flat arrays, ``indptr`` (``array('q')``, one
    offset per node plus one) and ``cols`` (``array('i')``, both
    directions of every edge).  Row order is protocol semantics — it
    fixes inbox deposit order, single-path parents and the per-receiver
    loss and fault draws — so each row keeps the iteration order of a
    ``frozenset`` of the node's neighbour set built in edge order.
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
        # Neighbour sets exist only while the rows are built.
        rows: List[Set[int]] = [set() for _ in range(num_nodes)]
        for a, b in edges:
            self._check_node(a)
            self._check_node(b)
            if a == b:
                raise TopologyError(f"self-loop on node {a}")
            rows[a].add(b)
            rows[b].add(a)
        self.indptr = array("q", [0])
        self.indptr.extend(accumulate(map(len, rows)))
        self.cols = array("i", chain.from_iterable(map(frozenset, rows)))
        self.positions = dict(positions) if positions else {}

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    def has_edge(self, a: int, b: int) -> bool:
        if not 0 <= a < self.num_nodes:
            return False
        return b in self.cols[self.indptr[a]:self.indptr[a + 1]]

    def neighbors(self, node: int) -> FrozenSet[int]:
        self._check_node(node)
        return frozenset(self.cols[self.indptr[node]:self.indptr[node + 1]])

    def degree(self, node: int) -> int:
        self._check_node(node)
        return self.indptr[node + 1] - self.indptr[node]

    @property
    def node_ids(self) -> range:
        return range(self.num_nodes)

    @property
    def sensor_ids(self) -> List[int]:
        """All node ids except the base station."""
        return [i for i in range(self.num_nodes) if i != BASE_STATION_ID]

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Each undirected edge once, as ``(a, b)`` with ``a < b``, in
        row order."""
        indptr, cols = self.indptr, self.cols
        for a in range(self.num_nodes):
            for pos in range(indptr[a], indptr[a + 1]):
                b = cols[pos]
                if a < b:
                    yield (a, b)

    def num_edges(self) -> int:
        return len(self.cols) // 2

    # ------------------------------------------------------------------
    # Depth and connectivity (Section III definitions)
    # ------------------------------------------------------------------
    def depths(
        self,
        include: Optional[Container[int]] = None,
        source: int = BASE_STATION_ID,
        edge_ok: Optional[Callable[[int, int, int], bool]] = None,
    ) -> Dict[int, int]:
        """BFS depth of every reachable node, restricted to ``include``.

        ``include`` is the node set the paths may traverse (the paper
        computes depth "excluding all malicious sensors"), as a set; the
        source is always included.  ``edge_ok(position, a, b)``, when
        given, decides whether the walk may cross from ``a`` to ``b``
        over CSR entry ``cols[position]`` (the secure view passes its
        edge-key test).  Unreachable nodes are absent from the result.
        """
        self._check_node(source)
        indptr, cols = self.indptr, self.cols
        depth: Dict[int, int] = {source: 0}
        frontier = deque((source,))
        while frontier:
            current = frontier.popleft()
            next_depth = depth[current] + 1
            for pos in range(indptr[current], indptr[current + 1]):
                neighbor = cols[pos]
                if (
                    neighbor not in depth
                    and (include is None or neighbor in include)
                    and (edge_ok is None or edge_ok(pos, current, neighbor))
                ):
                    depth[neighbor] = next_depth
                    frontier.append(neighbor)
        return depth

    def network_depth(self, exclude: Optional[Set[int]] = None) -> int:
        """The paper's ``L``: max depth over reachable honest sensors."""
        depth = self.depths(include=self._kept(exclude))
        if len(depth) == 1:
            raise TopologyError("no sensor is reachable from the base station")
        return max(depth.values())

    def is_connected(self, exclude: Optional[Set[int]] = None) -> bool:
        """Whether all non-excluded nodes reach the base station."""
        include = self._kept(exclude)
        depth = self.depths(include=include)
        return all(node in depth for node in include)

    def connected_component(self, exclude: Optional[Set[int]] = None) -> Set[int]:
        """Nodes reachable from the base station avoiding ``exclude``."""
        return set(self.depths(include=self._kept(exclude)))

    def _kept(self, exclude: Optional[Set[int]]) -> Set[int]:
        exclude = exclude or set()
        return {i for i in range(self.num_nodes) if i not in exclude}

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
