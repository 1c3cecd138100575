"""repro — a full reproduction of VMAT (Chen & Yu, ICDCS 2011):
secure in-network aggregation with malicious node revocation, built on
symmetric-key cryptography only.

Quickstart
----------
>>> from repro import build_deployment, VMATProtocol, MinQuery
>>> deployment = build_deployment(num_nodes=40, seed=7)
>>> protocol = VMATProtocol(deployment.network)
>>> readings = {i: float(10 + i) for i in deployment.network.topology.sensor_ids}
>>> result = protocol.execute(MinQuery(), readings)
>>> result.estimate == min(readings.values())
True

See ``examples/`` for attacked deployments, COUNT/SUM queries and the
revocation loop, and ``DESIGN.md`` for the system inventory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .config import (
    ClockConfig,
    ExperimentConfig,
    KeyConfig,
    NetworkConfig,
    ProtocolConfig,
    RevocationConfig,
    small_test_config,
)
from .core import (
    AverageQuery,
    CountQuery,
    ExecutionOutcome,
    ExecutionResult,
    MaxQuery,
    MinQuery,
    SumQuery,
    VMATProtocol,
    required_synopses,
)
from .errors import ConfigError
from .keys import KeyRegistry
from .net import Network
from .operator import NetworkOperator
from .tracing import Tracer
from .topology import (
    Topology,
    grid_topology,
    line_topology,
    random_geometric_topology,
    star_topology,
    tree_topology,
)

__version__ = "1.0.0"

__all__ = [
    "AverageQuery",
    "ClockConfig",
    "CountQuery",
    "Deployment",
    "ExecutionOutcome",
    "ExecutionResult",
    "ExperimentConfig",
    "KeyConfig",
    "KeyRegistry",
    "MaxQuery",
    "MinQuery",
    "Network",
    "NetworkConfig",
    "NetworkOperator",
    "ProtocolConfig",
    "RevocationConfig",
    "SumQuery",
    "Topology",
    "Tracer",
    "VMATProtocol",
    "build_deployment",
    "grid_topology",
    "line_topology",
    "random_geometric_topology",
    "required_synopses",
    "small_test_config",
    "star_topology",
    "tree_topology",
]


@dataclass
class Deployment:
    """A ready-to-run sensor network: topology + keys + network state."""

    network: Network
    registry: KeyRegistry
    topology: Topology
    config: ExperimentConfig


def build_deployment(
    num_nodes: int = 50,
    seed: int = 0,
    config: Optional[ExperimentConfig] = None,
    topology: Optional[Topology] = None,
    malicious_ids: Iterable[int] = (),
    master_secret: Optional[bytes] = None,
    key_scheme: str = "eschenauer-gligor",
) -> Deployment:
    """Assemble a deployment with sensible defaults.

    Uses the downsized test key configuration by default (near-certain
    edge-key coverage on small networks); pass an explicit ``config``
    with :class:`KeyConfig` defaults for paper-scale key pools.  The
    default topology is a connected random geometric graph with the
    base station at the center.

    ``key_scheme`` selects the pre-distribution: ``"eschenauer-gligor"``
    (random rings, the paper's default) or ``"pairwise"`` (a dedicated
    key per node pair — the ``r = n`` extreme of Section III; the key
    config is derived from the node count and any configured pool/ring
    sizes are ignored).
    """
    from dataclasses import replace as _replace

    from .topology.generators import recommended_radius

    if not -(2**63) <= seed < 2**63:
        # The default master secret keys on 8 signed seed bytes.
        raise ConfigError("seed must fit in a signed 64-bit int")
    if key_scheme not in ("eschenauer-gligor", "pairwise"):
        raise ConfigError(f"unknown key scheme {key_scheme!r}")
    config = config or small_test_config()
    if topology is None:
        topology = random_geometric_topology(
            num_nodes, recommended_radius(num_nodes), seed=seed
        )
    secret = master_secret or b"vmat-deployment-" + seed.to_bytes(8, "big", signed=True)

    ring_indices_factory = None
    if key_scheme == "pairwise":
        from .keys.schemes import PairwiseScheme

        scheme = PairwiseScheme(topology.num_nodes)
        config = _replace(config, keys=scheme.key_config())
        ring_indices_factory = scheme.ring_indices

    # Size the crypto caches for this deployment before anything warms
    # them: the defaults fit the test topologies, and a 10k+-node build
    # against default-sized caches turns them into pure churn (every
    # entry evicted before its first hit).  Grow-only, so a bigger
    # earlier deployment in the same process keeps its sizing.
    from .perf.cache import autosize_caches, caching_enabled

    if caching_enabled():
        autosize_caches(topology.num_nodes, pool_size=config.keys.pool_size)

    registry = KeyRegistry(
        secret,
        topology.num_nodes,
        config.keys,
        config.revocation,
        ring_indices_factory=ring_indices_factory,
    )
    network = Network(
        topology, registry, config, seed=seed, malicious_ids=malicious_ids
    )
    return Deployment(network=network, registry=registry, topology=topology, config=config)
