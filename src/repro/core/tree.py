"""Tree formation (Section IV-A) — timestamp-based, plus the naive
hop-count baseline it replaces, plus multi-path rings (Section IV-D).

**VMAT variant (timestamp).**  The base station floods a beacon at an
authenticated, pre-announced start time.  A sensor's *level* is the
interval in which it first receives the beacon; it re-forwards only in
the next interval.  Because honest sensors delay exactly one interval per
hop, every honest sensor within honest-path depth ``L`` acquires a level
in ``[1, L]`` — and nothing the adversary does can push an honest
sensor's level *above* ``L`` (forwarding a beacon early can only lower
levels; forwarding late is ignored after the ``L``-th interval).

**Naive variant (hop count).**  The classic TAG-style flood in which the
level is the hop count carried *inside the message*.  A wormhole pair can
concatenate paths and inflate hop counts past ``L``, leaving victims with
no valid transmission slot (Figure 2(c)) — the ablation benchmark
``bench_ablation_tree`` measures exactly this.

**Multi-path rings.**  With ``NetworkConfig.multipath = True`` a sensor
records *every* neighbour whose beacon arrived in its level interval as a
parent, turning the tree into the ring structure of synopsis diffusion.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set

from ..errors import ProtocolError
from ..keys.registry import BASE_STATION_ID
from ..net.message import TreeBeacon
from ..net.network import Network
from .contexts import TreeContext
from .phase_state import TreeColumns, node_id_bound


@dataclass
class TreeFormationResult:
    """Outcome of one tree-formation phase."""

    variant: str
    levels: Dict[int, int] = field(default_factory=dict)  # honest sensors only
    parents: Dict[int, List[int]] = field(default_factory=dict)
    invalid_level_sensors: Set[int] = field(default_factory=set)

    def valid_fraction(self, honest_ids) -> float:
        """Fraction of honest sensors that obtained a usable level."""
        honest = list(honest_ids)
        if not honest:
            return 1.0
        return sum(1 for i in honest if i in self.levels) / len(honest)


def form_tree(
    network: Network,
    adversary,
    depth_bound: int,
    variant: str = "timestamp",
) -> TreeFormationResult:
    """Run one tree-formation phase and install levels/parents on nodes.

    ``adversary`` may be ``None`` (no malicious sensors act) or an
    :class:`~repro.adversary.base.Adversary`, whose ``tree_interval``
    hook runs for every malicious sensor in every interval.
    """
    if variant not in ("timestamp", "hopcount"):
        raise ProtocolError(f"unknown tree variant {variant!r}")

    # The start announcement itself (authenticated broadcast) prevents
    # adversary-initiated tree formations (Section IV-A).
    network.authenticated_flood("tree-formation", variant, depth_bound)

    phase = network.new_phase("tree", depth_bound)
    ctx = TreeContext(
        network=network, phase=phase, depth_bound=depth_bound, variant=variant
    )
    multipath = network.config.network.multipath
    result = TreeFormationResult(variant=variant)

    for node in network.nodes.values():
        node.level = None
        node.parents = []
        node.forwarded_beacon = False

    revoked = network.registry.revoked_sensors
    honest_ids = [i for i in network.nodes if i not in revoked]
    honest_set = set(honest_ids)

    # Service seam: with a driver attached (repro.service), the honest
    # per-interval work runs on node-host processes holding deterministic
    # replicas; the coordinator keeps the base-station and adversary
    # sides.  Inline runs keep the honest state in columns: levels, a
    # cursor-addressed parents arena and the forward schedule
    # (repro.core.phase_state).
    driver = network.honest_driver
    cols = None
    if driver is not None:
        driver.phase_begin("tree", phase, depth_bound=depth_bound, variant=variant)
    else:
        cols = TreeColumns(
            node_id_bound(network), depth_bound, multipath,
            hopcount=variant == "hopcount",
        )

    for k in phase.intervals():
        # 1. Base station seeds the flood in interval 1.
        if k == 1:
            beacon = TreeBeacon(origin=BASE_STATION_ID, hop_count=1)
            phase.send(
                BASE_STATION_ID,
                network.secure_neighbors(BASE_STATION_ID),
                beacon,
                interval=1,
            )

        # 2. Honest sensors scheduled last interval forward now.
        if driver is not None:
            driver.tick(k)
        else:
            for node_id, hop_count in cols.take_pending():
                neighbors = network.secure_neighbors(node_id)
                beacon = TreeBeacon(origin=node_id, hop_count=hop_count)
                phase.send(node_id, neighbors, beacon, interval=k)

        # 3. Malicious sensors act (inject, tunnel, replay, stay silent).
        if adversary is not None:
            for node_id in sorted(network.malicious_ids):
                adversary.tree_interval(ctx, node_id, k)

        # 4. Honest sensors process this interval's arrivals.  Only
        # sensors that received something can change state, so the loop
        # visits the (typically sparse) arrival map in ascending id
        # order — which is also the forward schedule's, and hence next
        # interval's send order.
        if driver is not None:
            driver.deliver(k)
        else:
            arrived = phase.arrival_map(k)
            for node_id in sorted(arrived) if arrived else ():
                if node_id not in honest_set:
                    continue
                arrivals = phase.verified_inbox(node_id, k)
                beacons = [d for d in arrivals if isinstance(d.payload, TreeBeacon)]
                if beacons:
                    cols.accept(node_id, beacons, k)

    if cols is not None:
        cols.install(network, honest_ids, result)
        return result

    driver.phase_end()
    for node_id in honest_ids:
        node = network.nodes[node_id]
        if node.has_valid_level(depth_bound):
            result.levels[node_id] = node.level  # type: ignore[assignment]
            result.parents[node_id] = list(node.parents)
        else:
            result.invalid_level_sensors.add(node_id)
            node.level = None
            node.parents = []
    return result


def _accept_timestamp(node, beacons, interval, depth_bound, multipath, pending_forward):
    """VMAT rule: level = first arrival interval; forward once, next slot.

    Per-node form for service node hosts; inline runs apply the same
    rule through :meth:`TreeColumns.accept`.
    """
    if node.level is None:
        node.level = interval
        if multipath:
            node.parents = sorted({d.sender for d in beacons})
        else:
            node.parents = [beacons[0].sender]
        if not node.forwarded_beacon and interval + 1 <= depth_bound:
            node.forwarded_beacon = True
            pending_forward[node.node_id] = TreeBeacon(
                origin=node.node_id, hop_count=interval + 1
            )
    elif multipath and node.level == interval:
        # Ring structure: additional same-interval beacons add parents.
        extra = sorted({d.sender for d in beacons} - set(node.parents))
        node.parents.extend(extra)


def _accept_hopcount(node, beacons, depth_bound, multipath, pending_forward):
    """Naive rule: level = hop count *claimed in the message* + manipulation.

    The first beacon wins (classic TAG flood).  The adversary can inflate
    ``hop_count`` arbitrarily; a victim whose resulting level exceeds
    ``depth_bound`` has no valid transmission slot and drops out of the
    aggregation — the failure mode of Figure 2(c).  Per-node form for
    service node hosts (inline runs: :meth:`TreeColumns.accept`).
    """
    if node.level is not None:
        return
    first = beacons[0]
    claimed = first.payload.hop_count
    node.level = claimed
    node.parents = (
        sorted({d.sender for d in beacons if d.payload.hop_count == claimed})
        if multipath
        else [first.sender]
    )
    if not node.forwarded_beacon:
        node.forwarded_beacon = True
        # Note: forwarded regardless of validity — the victim doesn't know
        # L was exceeded until it tries to pick a slot.
        pending_forward[node.node_id] = TreeBeacon(
            origin=node.node_id, hop_count=claimed + 1
        )
