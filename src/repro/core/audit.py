"""Well-formed audit trails (Section V) — definitions, validators, and an
omniscient reconstructor used to verify Theorem 2 in tests.

A *well-formed audit trail for veto-triggered pinpointing* is an ordered
list of stored tuples plus special ⊥-tuples where:

* each ⊥-tuple is owned by the (colluding) malicious sensors;
* no two ⊥-tuples are adjacent, and the last tuple is a ⊥-tuple;
* every level lies in ``[0, L]``;
* a normal tuple's level is exactly one smaller than its predecessor's,
  a ⊥-tuple's level strictly smaller;
* partial aggregation values are non-increasing along the trail;
* adjacent tuples share the edge key (out-edge of one = in-edge of the
  next), and both owners hold it.

The junk-trail variants flip the direction (levels increase / intervals
decrease) and require the message to be byte-identical throughout.

The protocol itself never *materializes* these trails — they live
distributed across sensors and are queried via keyed predicate tests.
This module exists to state Theorem 2's invariant executable-ly: after
any attacked execution, the reconstructor can exhibit a trail and the
validator can certify it well-formed.  It reads the rows every sensor
keeps in the network's :class:`~repro.net.node.AuditLog` directly (a
view no single sensor has): each "who sent this?" step is one query
over a send table, the lowest matching id winning.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Set

from ..errors import AuditTrailError
from ..keys.registry import BASE_STATION_ID, KeyRegistry
from ..net.message import VetoMessage, message_digest
from ..net.network import Network
from ..net.node import AuditTable, digest_equal


@dataclass(frozen=True)
class AuditTuple:
    """One trail entry.  ``owner=None`` marks a ⊥-tuple (a contiguous
    malicious segment); ``position`` is the level (aggregation trails)
    or interval (confirmation trails)."""

    position: int
    value: float
    owner: Optional[int]
    in_edge_index: Optional[int]
    out_edge_index: Optional[int]

    @property
    def is_bottom(self) -> bool:
        return self.owner is None


def validate_veto_trail(
    trail: Sequence[AuditTuple],
    depth_bound: int,
    network: Optional[Network] = None,
) -> None:
    """Raise :class:`AuditTrailError` unless the trail is well-formed for
    veto-triggered pinpointing.  With a ``network``, additionally check
    key possession (owners must hold the linking edge keys; ⊥ owners are
    checked against the adversary's pooled loot)."""
    if not trail:
        raise AuditTrailError("empty trail")
    if not trail[-1].is_bottom:
        raise AuditTrailError("trail must end with a ⊥-tuple")
    for index, entry in enumerate(trail):
        if not 0 <= entry.position <= depth_bound:
            raise AuditTrailError(f"tuple {index}: level {entry.position} outside [0, L]")
        if index == 0:
            continue
        prev = trail[index - 1]
        if entry.is_bottom and prev.is_bottom:
            raise AuditTrailError(f"tuples {index - 1},{index}: adjacent ⊥-tuples")
        if entry.is_bottom:
            if not entry.position < prev.position:
                raise AuditTrailError(
                    f"tuple {index}: ⊥ level {entry.position} not below {prev.position}"
                )
        elif entry.position != prev.position - 1:
            raise AuditTrailError(
                f"tuple {index}: level {entry.position} != predecessor - 1"
            )
        if entry.value > prev.value:
            raise AuditTrailError(f"tuple {index}: value increased along the trail")
        if prev.out_edge_index != entry.in_edge_index:
            raise AuditTrailError(
                f"tuples {index - 1},{index}: edge-key mismatch "
                f"({prev.out_edge_index} vs {entry.in_edge_index})"
            )
        if network is not None and prev.out_edge_index is not None:
            _check_possession(network, prev, entry, prev.out_edge_index)


def validate_junk_trail(
    trail: Sequence[AuditTuple],
    depth_bound: int,
    ascending_levels: bool,
    network: Optional[Network] = None,
) -> None:
    """Well-formedness for junk-triggered trails.

    ``ascending_levels=True`` for the aggregation variant (levels grow by
    one per normal tuple walking away from the base station);
    ``False`` for the confirmation variant (intervals shrink by one).
    All tuples carry the identical message, so values must be equal.
    """
    if not trail:
        raise AuditTrailError("empty trail")
    if not trail[-1].is_bottom:
        raise AuditTrailError("trail must end with a ⊥-tuple")
    for index, entry in enumerate(trail):
        if not 0 <= entry.position <= depth_bound + 1:
            raise AuditTrailError(f"tuple {index}: position {entry.position} out of range")
        if index == 0:
            continue
        prev = trail[index - 1]
        if entry.is_bottom and prev.is_bottom:
            raise AuditTrailError(f"tuples {index - 1},{index}: adjacent ⊥-tuples")
        step_ok = (
            entry.position > prev.position
            if (ascending_levels and entry.is_bottom)
            else entry.position == prev.position + 1
            if ascending_levels
            else entry.position < prev.position
            if entry.is_bottom
            else entry.position == prev.position - 1
        )
        if not step_ok:
            raise AuditTrailError(
                f"tuple {index}: position {entry.position} breaks monotonicity"
            )
        if entry.value != prev.value:
            raise AuditTrailError("junk trails carry one identical message")
        if prev.out_edge_index != entry.in_edge_index:
            raise AuditTrailError("edge-key mismatch along junk trail")
        if network is not None and prev.out_edge_index is not None:
            _check_possession(network, prev, entry, prev.out_edge_index)


def _check_possession(network: Network, a: AuditTuple, b: AuditTuple, key_index: int) -> None:
    for entry in (a, b):
        if entry.owner is None:
            if key_index not in network.adversary_pool_indices():
                raise AuditTrailError(
                    f"⊥-tuple linked by key {key_index} the adversary does not hold"
                )
        elif entry.owner != BASE_STATION_ID and not network.registry.node_holds(
            entry.owner, key_index
        ):
            raise AuditTrailError(f"owner {entry.owner} does not hold key {key_index}")


# ----------------------------------------------------------------------
# Omniscient reconstruction (test infrastructure for Theorem 2)
# ----------------------------------------------------------------------
def reconstruct_veto_trail(
    network: Network,
    adversary,
    veto: VetoMessage,
    depth_bound: int,
) -> List[AuditTuple]:
    """Exhibit the well-formed veto trail Theorem 2 promises.

    Uses simulation-omniscient access to the network's audit log (the
    honest sensors' rows, plus whatever rows the adversary's mimicry
    kept).  Walks the forwarding chain of the vetoed value from the
    vetoer toward the base station; malicious sensors without a
    qualifying send row terminate the trail as the final ⊥-tuple.
    """
    sends = network.audit.aggregation_sends
    keepers = _record_keepers(network, adversary)
    trail: List[AuditTuple] = []
    current = veto.sensor_id
    level = veto.level
    bound = veto.value
    in_edge: Optional[int] = None
    instance = veto.instance

    for _ in range(depth_bound + 2):
        row = None
        if current in keepers:
            qualifying = [
                r
                for r in sends.rows_of(current)
                if sends.message[r].instance == instance
                and sends.message[r].value <= bound
                and sends.position[r] <= level
            ]
            if qualifying:
                row = max(
                    qualifying, key=lambda r: (sends.position[r], -sends.message[r].value)
                )
        is_malicious = network.is_malicious(current)
        if row is None:
            if not is_malicious:
                raise AuditTrailError(
                    f"honest sensor {current} has no qualifying send — "
                    "Theorem 2's trail cannot be built (protocol bug)"
                )
            trail.append(
                AuditTuple(
                    position=level,
                    value=bound,
                    owner=None,
                    in_edge_index=in_edge,
                    out_edge_index=None,
                )
            )
            return trail
        trail.append(
            AuditTuple(
                position=sends.position[row],
                value=sends.message[row].value,
                owner=None if is_malicious else current,
                in_edge_index=in_edge,
                out_edge_index=sends.edge[row],
            )
        )
        next_hop = sends.peer[row]
        if next_hop == BASE_STATION_ID:
            raise AuditTrailError(
                "trail reached the base station — but the base station "
                "did not receive the vetoed value (protocol bug)"
            )
        current = next_hop
        level = sends.position[row] - 1
        bound = sends.message[row].value
        in_edge = sends.edge[row]
    raise AuditTrailError("trail exceeded L + 1 tuples")


def reconstruct_junk_conf_trail(
    network: Network,
    adversary,
    veto: VetoMessage,
    bs_key_index: int,
    arrival_interval: int,
    depth_bound: int,
) -> List[AuditTuple]:
    """Exhibit the junk-confirmation trail for a spurious veto the base
    station received over ``bs_key_index`` in ``arrival_interval``.

    Walks backwards: who (per the distributed records) sent the
    byte-identical veto on that key in that interval, what in-edge key
    their receipt names, and so on until a sender without a receipt —
    the injector — terminates the trail as the final ⊥-tuple.
    """
    digest = message_digest(veto)
    log = network.audit
    keepers = _record_keepers(network, adversary)
    trail: List[AuditTuple] = []
    key_index = bs_key_index  # key the current tuple used to SEND onward
    interval = arrival_interval

    # Note on edge fields: trail tuples are listed base-station-first
    # (intervals decreasing, the §V junk presentation), which is the
    # *opposite* of message flow.  ``in_edge``/``out_edge`` are therefore
    # trail-order links — a tuple's out-edge connects it to the NEXT
    # tuple in the list (the key it *received* the message on) so the
    # uniform adjacency rule ``prev.out == next.in`` holds for every
    # trail kind.
    for _ in range(depth_bound + 2):
        sender = _lowest_sender(log.confirmation_sends, keepers, digest, interval, key_index)
        if sender is None:
            # No record of this send anywhere: the physical sender was a
            # malicious node that (unlike the honest-mimicking default)
            # kept no records.  It could only have authenticated the
            # frame with a compromised key, so this is the ⊥ terminus.
            if key_index not in network.adversary_pool_indices():
                raise AuditTrailError(
                    f"unrecorded junk send on key {key_index} the adversary "
                    "does not hold (protocol bug)"
                )
            trail.append(
                AuditTuple(
                    position=interval,
                    value=veto.value,
                    owner=None,
                    in_edge_index=key_index,
                    out_edge_index=None,
                )
            )
            return trail
        is_malicious = network.is_malicious(sender)
        receipt = _first_receipt(log.confirmation_receipts, sender, interval - 1, digest)
        if receipt is None:
            # The injector: sent without receiving — ⊥ terminates here.
            if not is_malicious:
                raise AuditTrailError(
                    f"honest sensor {sender} forwarded junk it never "
                    "received (protocol bug)"
                )
            trail.append(
                AuditTuple(
                    position=interval,
                    value=veto.value,
                    owner=None,
                    in_edge_index=key_index,
                    out_edge_index=None,
                )
            )
            return trail
        trail.append(
            AuditTuple(
                position=interval,
                value=veto.value,
                owner=None if is_malicious else sender,
                in_edge_index=key_index,
                out_edge_index=receipt,
            )
        )
        key_index = receipt
        interval -= 1
        if interval < 1:
            raise AuditTrailError("junk trail walked past interval 1")
    raise AuditTrailError("junk trail exceeded L + 1 tuples")


def reconstruct_junk_agg_trail(
    network: Network,
    adversary,
    message,
    bs_key_index: int,
    depth_bound: int,
) -> List[AuditTuple]:
    """Exhibit the junk-aggregation trail for a spurious minimum the
    base station received over ``bs_key_index`` (§V: levels *ascend*
    walking away from the base station, identical message throughout).

    Edge fields are trail-order links, as in
    :func:`reconstruct_junk_conf_trail`.
    """
    digest = message_digest(message)
    log = network.audit
    keepers = _record_keepers(network, adversary)
    trail: List[AuditTuple] = []
    key_index = bs_key_index
    level = 1
    L = depth_bound

    for _ in range(depth_bound + 2):
        sender = _lowest_sender(log.aggregation_sends, keepers, digest, level, key_index)
        if sender is None:
            if key_index not in network.adversary_pool_indices():
                raise AuditTrailError(
                    f"unrecorded junk send on key {key_index} the adversary "
                    "does not hold (protocol bug)"
                )
            trail.append(
                AuditTuple(
                    position=level,
                    value=message.value,
                    owner=None,
                    in_edge_index=key_index,
                    out_edge_index=None,
                )
            )
            return trail
        is_malicious = network.is_malicious(sender)
        # A level-l node listens at interval L - l.
        receipt = _first_receipt(log.aggregation_receipts, sender, L - level, digest)
        if receipt is None:
            if not is_malicious:
                raise AuditTrailError(
                    f"honest sensor {sender} forwarded junk it never "
                    "received (protocol bug)"
                )
            trail.append(
                AuditTuple(
                    position=level,
                    value=message.value,
                    owner=None,
                    in_edge_index=key_index,
                    out_edge_index=None,
                )
            )
            return trail
        trail.append(
            AuditTuple(
                position=level,
                value=message.value,
                owner=None if is_malicious else sender,
                in_edge_index=key_index,
                out_edge_index=receipt,
            )
        )
        key_index = receipt
        level += 1
        if level > L:
            raise AuditTrailError("junk trail walked past level L")
    raise AuditTrailError("junk trail exceeded L + 1 tuples")


def _record_keepers(network: Network, adversary) -> Set[int]:
    """The sensors whose rows the omniscient walks may read: every
    honest sensor, plus the adversary's when it is given."""
    keepers = set(network.honest_sensors)
    if adversary is not None:
        keepers.update(getattr(adversary, "state", {}))
    return keepers


def _lowest_sender(
    sends: AuditTable, keepers: Set[int], digest: bytes, position: int, key_index: int
) -> Optional[int]:
    """Omniscient lookup: the lowest id whose rows show it sent this
    exact message at ``position`` over ``key_index``."""
    return min(
        sends.query(keepers, position, key_index, key_index, digest_equal(digest)),
        default=None,
    )


def _first_receipt(
    receipts: AuditTable, node: int, position: int, digest: bytes
) -> Optional[int]:
    """The in-edge key of ``node``'s first receipt of this exact message
    at ``position``, if it recorded one."""
    for row in receipts.rows_of(node):
        if (
            receipts.position[row] == position
            and message_digest(receipts.message[row]) == digest
        ):
            return receipts.edge[row]
    return None


def merge_bottom_segments(trail: Sequence[AuditTuple]) -> List[AuditTuple]:
    """Collapse runs of consecutive ⊥-tuples into one (the paper's trails
    represent a contiguous malicious segment as a single ⊥-tuple)."""
    merged: List[AuditTuple] = []
    for entry in trail:
        if merged and merged[-1].is_bottom and entry.is_bottom:
            merged[-1] = AuditTuple(
                position=entry.position,
                value=entry.value,
                owner=None,
                in_edge_index=merged[-1].in_edge_index,
                out_edge_index=entry.out_edge_index,
            )
        else:
            merged.append(entry)
    return merged
