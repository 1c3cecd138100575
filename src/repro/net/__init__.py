"""Message layer: wire formats, nodes, the audit log, slotted network.

This is the substrate the VMAT phases run on:

* :mod:`~repro.net.message` — the protocol payloads (readings, vetoes,
  tree-formation beacons, predicate-test frames) with byte-accurate
  ``wire_size`` accounting.
* :mod:`~repro.net.node` — per-sensor runtime state (key material, the
  verified authenticated-broadcast index, protocol level/parents) and
  the network's *audit log* holding the tuples of Sections IV-B/IV-C.
* :mod:`~repro.net.network` — the slotted network: interval-indexed
  transmission with edge-MAC verification, per-interval forwarding
  capacity (the resource choking attacks exhaust), revocation-aware
  secure links, and byte/round metrics.
"""

from .message import (
    PredicateChallenge,
    PredicateReply,
    ReadingMessage,
    SynopsisBundle,
    TreeBeacon,
    VetoMessage,
    message_digest,
)
from .node import AuditLog, HonestNode
from .network import Delivery, Network, PhaseContext

__all__ = [
    "AuditLog",
    "Delivery",
    "HonestNode",
    "Network",
    "PhaseContext",
    "PredicateChallenge",
    "PredicateReply",
    "ReadingMessage",
    "SynopsisBundle",
    "TreeBeacon",
    "VetoMessage",
    "message_digest",
]
