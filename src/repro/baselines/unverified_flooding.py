"""The unverifiable-MAC flooding baseline ([23]-style) — the choking victim.

Roy et al. [23] authenticate contributions with MACs that only the base
station can verify.  Intermediate sensors therefore cannot tell a
legitimate message from adversarial junk and must forward *everything* —
so an adversary that injects spurious traffic saturates the relays'
per-interval forwarding capacity and crowds the legitimate message out
(the choking attack of Section III).

This module runs a confirmation phase under that forwarding discipline:
relays keep a FIFO queue of every distinct veto they have seen and drain
at most ``forwarding_capacity`` payloads per interval.  Contrast with
SOF, whose relays forward exactly one veto ever and are untouchable by
volume.  The ``bench_ablation_choking`` benchmark sweeps the junk rate
and measures legitimate-veto delivery under both disciplines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..crypto.mac import verify_mac
from ..keys.registry import BASE_STATION_ID
from ..net.message import VetoMessage, message_digest
from ..net.network import Network
from ..core.contexts import ConfirmationContext


@dataclass
class UnverifiedFloodingResult:
    """What reached the base station under forward-everything relaying."""

    broadcast_minima: Tuple[float, ...]
    valid_veto_arrived: bool = False
    spurious_vetoes_arrived: int = 0
    suppressed_sends: int = 0
    honest_vetoers: int = 0

    @property
    def attack_succeeded(self) -> bool:
        """The choking attack wins when an honest vetoer existed but no
        valid veto got through — the corrupted result stands
        unchallenged *and nothing is learned about the attacker*."""
        return self.honest_vetoers > 0 and not self.valid_veto_arrived


def run_unverified_confirmation(
    network: Network,
    adversary,
    depth_bound: int,
    nonce: bytes,
    broadcast_minima: Sequence[float],
) -> UnverifiedFloodingResult:
    """Confirmation with [23]-style forward-everything relays."""
    L = depth_bound
    minima = tuple(broadcast_minima)
    network.authenticated_flood("unverified-confirmation", minima, nonce)

    phase = network.new_phase("unverified-confirmation", L)
    ctx = ConfirmationContext(
        network=network, phase=phase, depth_bound=L, nonce=nonce, broadcast_minima=minima
    )
    result = UnverifiedFloodingResult(broadcast_minima=minima)

    honest_ids = network.honest_ids

    # Per-node forwarding queue of distinct vetoes, FIFO.
    queues: Dict[int, List[VetoMessage]] = {i: [] for i in honest_ids}
    seen: Dict[int, Set[bytes]] = {i: set() for i in honest_ids}

    # Honest vetoers enqueue their own veto first.
    from ..core.confirmation import _make_veto

    for node_id in honest_ids:
        veto = _make_veto(network, node_id, minima, nonce, L)
        if veto is not None:
            result.honest_vetoers += 1
            queues[node_id].append(veto)
            seen[node_id].add(message_digest(veto))

    bs_digests_valid: Set[bytes] = set()
    bs_digests_spurious: Set[bytes] = set()

    for k in phase.intervals():
        if adversary is not None:
            for node_id in sorted(network.malicious_ids):
                adversary.conf_interval(ctx, node_id, k)

        # Drain queues up to capacity; order fixed by node id for
        # determinism.
        for node_id in honest_ids:
            queue = queues[node_id]
            neighbors = network.secure_neighbors(node_id)
            while queue and phase.remaining_capacity(node_id, k) > 0:
                veto = queue.pop(0)
                if not neighbors:
                    continue
                if not phase.send(node_id, neighbors, veto, interval=k):
                    queue.insert(0, veto)
                    break
        result.suppressed_sends = phase.suppressed_sends

        # Everyone ingests this interval's arrivals into their queues —
        # relays CANNOT verify, so junk and legitimate look identical.
        for node_id in honest_ids:
            for delivery in phase.verified_inbox(node_id, k):
                if not isinstance(delivery.payload, VetoMessage):
                    continue
                digest = message_digest(delivery.payload)
                if digest in seen[node_id]:
                    continue
                seen[node_id].add(digest)
                queues[node_id].append(delivery.payload)

        for delivery in phase.verified_inbox(BASE_STATION_ID, k):
            veto = delivery.payload
            if not isinstance(veto, VetoMessage):
                continue
            if _veto_valid(network, veto, minima, nonce, L):
                bs_digests_valid.add(message_digest(veto))
            else:
                bs_digests_spurious.add(message_digest(veto))

    network.metrics.record_flooding_rounds(1.0, "unverified-confirmation")
    result.valid_veto_arrived = bool(bs_digests_valid)
    result.spurious_vetoes_arrived = len(bs_digests_spurious)
    return result


def _veto_valid(network: Network, veto: VetoMessage, minima, nonce: bytes, L: int) -> bool:
    registry = network.registry
    return (
        0 <= veto.instance < len(minima)
        and veto.value < minima[veto.instance]
        and 1 <= veto.level <= L
        and 1 <= veto.sensor_id < network.topology.num_nodes
        and verify_mac(
            registry.sensor_key(veto.sensor_id),
            veto.mac,
            veto.sensor_id,
            veto.instance,
            veto.value,
            veto.level,
            nonce,
        )
    )
