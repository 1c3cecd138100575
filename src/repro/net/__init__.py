"""Message layer: wire formats, the audit log, slotted network.

This is the substrate the VMAT phases run on:

* :mod:`~repro.net.message` — the protocol payloads (readings, vetoes,
  tree-formation beacons, predicate-test frames) with byte-accurate
  ``wire_size`` accounting.
* :mod:`~repro.net.node` — the network's *audit log* holding the
  tuples of Sections IV-B/IV-C (per-sensor state is columns,
  :mod:`repro.core.node_columns`).
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
from .node import AuditLog
from .network import Delivery, Network, PhaseContext

__all__ = [
    "AuditLog",
    "Delivery",
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
