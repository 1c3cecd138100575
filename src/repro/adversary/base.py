"""Adversary state machine and the honest-mimicking base strategy.

Every protocol phase calls one adversary hook per malicious sensor per
interval, *before* honest sensors act in that interval.  The hook sees
the live :class:`~repro.net.network.PhaseContext` and may transmit
through the same link layer as honest sensors — with three extra
capabilities honest code never uses: sending with any *compromised* key,
sending to non-neighbours (wormholes), and forging the unauthenticated
claimed-sender field.  The link layer itself enforces the boundary: a
send with a key outside the adversary's loot raises, because the model
says such a MAC cannot be produced.

The :class:`Strategy` base class implements *honest mimicry*: a
compromised sensor that behaves exactly like an honest one (it keeps its
own level, aggregates minima, forwards vetoes, answers predicate tests
truthfully from its own audit records).  Attack strategies subclass it
and override only the hooks where they deviate, which keeps each attack
a faithful "honest except for X" Byzantine behaviour.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..crypto.mac import compute_mac, verify_mac
from ..net.message import (
    PredicateReply,
    ReadingMessage,
    SynopsisBundle,
    TreeBeacon,
    VetoMessage,
)
from ..net.network import Delivery, Network


class MaliciousNodeState:
    """Mutable per-sensor scratchpad for a compromised sensor.

    Holds the per-execution values an honest sensor keeps in the
    network's :class:`~repro.core.node_columns.NodeColumns`, as
    attributes, so the mimicking strategy can run the honest
    algorithms.  Its audit tuples go to the
    network's :class:`~repro.net.node.AuditLog`, the same tables honest
    sensors write, so predicates are answered from them alike."""

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id
        self.reading: float = 0.0
        self.query_values: Optional[List[float]] = None
        self.own_messages: List[ReadingMessage] = []
        self.level: Optional[int] = None
        self.parents: List[int] = []
        self.best: List[ReadingMessage] = []
        self.forwarded_veto = False
        self.forwarded_beacon = False
        self.relayed_reply_phase: Optional[int] = None  # id() of the phase
        self.scratch: Dict[str, object] = {}

    def begin_execution(self) -> None:
        self.own_messages = []
        self.level = None
        self.parents = []
        self.best = []
        self.forwarded_veto = False
        self.forwarded_beacon = False
        self.relayed_reply_phase = None
        self.scratch.clear()


class Adversary:
    """Owns the compromised sensors and routes hooks to the strategy."""

    def __init__(self, network: Network, strategy: Optional["Strategy"] = None, seed: int = 0) -> None:
        self.network = network
        self.strategy = strategy if strategy is not None else Strategy()
        self.rng = random.Random(("adversary", seed).__repr__())
        # Capturing a sensor yields its ring and its sensor key; the
        # registry serves both (the link layer pools the rings,
        # :meth:`Network.adversary_pool_indices`), so no key is copied
        # here.
        self.state: Dict[int, MaliciousNodeState] = {
            node_id: MaliciousNodeState(node_id) for node_id in network.malicious_ids
        }
        self.strategy.bind(self)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def begin_execution(
        self,
        readings: Dict[int, float],
        query_values: Dict[int, List[float]],
        own_messages: Dict[int, List[ReadingMessage]],
    ) -> None:
        """Reset per-execution state and install this round's readings."""
        for node_id, state in self.state.items():
            state.begin_execution()
            state.reading = readings.get(node_id, 0.0)
            state.query_values = list(query_values.get(node_id, []))
            state.own_messages = list(own_messages.get(node_id, []))
            state.best = list(state.own_messages)
        self.strategy.begin_execution(self)

    # ------------------------------------------------------------------
    # Capabilities
    # ------------------------------------------------------------------
    def sensor_key(self, node_id: int) -> bytes:
        """A compromised sensor's sensor key (``KeyError`` for any other)."""
        if node_id not in self.network.malicious_ids:
            raise KeyError(node_id)
        return self.network.registry.sensor_key(node_id)

    def verify_for(self, node_id: int, delivery: Delivery, phase_name: str) -> bool:
        """Link-layer verification as the compromised sensor would do it:
        the key must be in its *own* ring (mimicry — an honest sensor
        could not check keys it does not hold), unrevoked, MAC valid."""
        registry = self.network.registry
        if not registry.node_holds(node_id, delivery.key_index):
            return False
        if registry.revocation.is_key_revoked(delivery.key_index):
            return False
        return verify_mac(
            registry.pool_key(delivery.key_index),
            delivery.edge_mac,
            "edge",
            delivery.sender,
            delivery.receiver,
            phase_name,
            delivery.interval,
            delivery.payload.canonical_bytes(),
        )

    def usable_neighbors(self, node_id: int) -> List[int]:
        return self.network.secure_neighbors(node_id)

    def recorded_links(self, node_id: int, others: Iterable[int]) -> List[Tuple[int, int]]:
        """``(other, edge key)`` for each of ``others`` sharing an edge key
        with ``node_id``: the links a send by ``node_id`` is booked on."""
        registry = self.network.registry
        links = []
        for other in others:
            index = registry.edge_key_index(node_id, other)
            if index is not None:
                links.append((other, index))
        return links

    def sign_reading(self, node_id: int, value: float, nonce: bytes, instance: int = 0) -> ReadingMessage:
        """A *valid* reading message for the compromised sensor's own id —
        the one attack the secure-aggregation problem does not try to
        prevent (reporting an arbitrary reading for oneself)."""
        mac = compute_mac(self.sensor_key(node_id), node_id, instance, value, nonce)
        return ReadingMessage(sensor_id=node_id, value=value, mac=mac, instance=instance)

    def sign_veto(
        self, node_id: int, value: float, level: int, nonce: bytes, instance: int = 0
    ) -> VetoMessage:
        mac = compute_mac(self.sensor_key(node_id), node_id, instance, value, level, nonce)
        return VetoMessage(
            sensor_id=node_id, value=value, level=level, mac=mac, instance=instance
        )

    def forge_reading(
        self, claimed_id: int, value: float, instance: int = 0, salt: int = 0
    ) -> ReadingMessage:
        """A *spurious* reading: the MAC is garbage because the adversary
        does not hold ``claimed_id``'s sensor key."""
        fake_mac = compute_mac(b"not-the-real-key", claimed_id, value, salt)
        return ReadingMessage(sensor_id=claimed_id, value=value, mac=fake_mac, instance=instance)

    def forge_veto(
        self, claimed_id: int, value: float, level: int, instance: int = 0, salt: int = 0
    ) -> VetoMessage:
        fake_mac = compute_mac(b"not-the-real-key", claimed_id, value, level, salt)
        return VetoMessage(
            sensor_id=claimed_id, value=value, level=level, mac=fake_mac, instance=instance
        )

    # ------------------------------------------------------------------
    # Hook dispatch (called by the protocol phases)
    # ------------------------------------------------------------------
    def tree_interval(self, ctx, node_id: int, k: int) -> None:
        self.strategy.tree_interval(self, ctx, node_id, k)

    def agg_interval(self, ctx, node_id: int, k: int) -> None:
        self.strategy.agg_interval(self, ctx, node_id, k)

    def conf_interval(self, ctx, node_id: int, k: int) -> None:
        self.strategy.conf_interval(self, ctx, node_id, k)

    def predtest_interval(self, ctx, node_id: int, k: int) -> None:
        self.strategy.predtest_interval(self, ctx, node_id, k)


class Strategy:
    """Honest-mimicking base strategy (a passive compromised sensor).

    Timing note: hooks run at the *start* of interval ``k``, before the
    honest sensors of interval ``k`` act, so mimicry processes the inbox
    of interval ``k - 1`` — exactly the information an honest sensor
    would be acting on when it transmits in interval ``k``.
    """

    def bind(self, adversary: "Adversary") -> None:
        """Called once when attached; strategies may keep derived state."""

    def begin_execution(self, adv: "Adversary") -> None:
        """Called at the start of each protocol execution."""

    # ------------------------------------------------------------------
    # Tree formation
    # ------------------------------------------------------------------
    def tree_interval(self, adv: Adversary, ctx, node_id: int, k: int) -> None:
        state = adv.state[node_id]
        if k == 1 or state.level is not None:
            return
        beacons = [
            d
            for d in ctx.phase.inbox(node_id, k - 1)
            if isinstance(d.payload, TreeBeacon) and adv.verify_for(node_id, d, ctx.phase.name)
        ]
        if not beacons:
            return
        state.level = k - 1
        state.parents = sorted({d.sender for d in beacons}) if (
            adv.network.config.network.multipath
        ) else [beacons[0].sender]
        if not state.forwarded_beacon and k <= ctx.depth_bound:
            state.forwarded_beacon = True
            ctx.phase.send(
                node_id,
                adv.usable_neighbors(node_id),
                TreeBeacon(origin=node_id, hop_count=k),
                interval=k,
            )

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def agg_interval(self, adv: Adversary, ctx, node_id: int, k: int) -> None:
        state = adv.state[node_id]
        if state.level is None or not state.own_messages:
            return
        L = ctx.depth_bound
        if not 1 <= state.level <= L:
            return
        listen = L - state.level
        slot = L - state.level + 1
        if k - 1 == listen and listen >= 1:
            self._mimic_collect(adv, ctx, node_id, k - 1)
        if k == slot:
            messages = self.agg_select(adv, ctx, node_id)
            self._mimic_transmit(adv, ctx, node_id, messages, k)

    def agg_select(self, adv: Adversary, ctx, node_id: int) -> List[ReadingMessage]:
        """What to forward at the aggregation slot.  The honest answer is
        the per-instance minimum of own messages and verified receipts
        (``state.best``).  Attack strategies override this."""
        return list(adv.state[node_id].best)

    def _mimic_collect(self, adv: Adversary, ctx, node_id: int, interval: int) -> None:
        state = adv.state[node_id]
        receipts = adv.network.audit.aggregation_receipts
        for delivery in ctx.phase.inbox(node_id, interval):
            if not isinstance(delivery.payload, SynopsisBundle):
                continue
            if not adv.verify_for(node_id, delivery, ctx.phase.name):
                continue
            messages = [
                message for message in delivery.payload.messages
                if 0 <= message.instance < len(state.best)
            ]
            receipts.add(node_id, interval, ((delivery.sender, delivery.key_index),), messages)
            for message in messages:
                if message < state.best[message.instance]:
                    state.best[message.instance] = message

    def _mimic_transmit(
        self, adv: Adversary, ctx, node_id: int, messages: Sequence[ReadingMessage], k: int
    ) -> None:
        state = adv.state[node_id]
        if not messages:
            return
        registry = adv.network.registry
        parents = [p for p in state.parents if registry.link_usable(node_id, p)]
        if not parents:
            return
        ctx.phase.send(node_id, parents, SynopsisBundle(tuple(messages)), interval=k)
        adv.network.audit.aggregation_sends.add(
            node_id, state.level, adv.recorded_links(node_id, parents), messages
        )

    # ------------------------------------------------------------------
    # Confirmation (SOF)
    # ------------------------------------------------------------------
    def conf_interval(self, adv: Adversary, ctx, node_id: int, k: int) -> None:
        state = adv.state[node_id]
        if k == 1:
            veto = self._mimic_make_veto(adv, ctx, node_id)
            if veto is not None:
                state.forwarded_veto = True
                self._mimic_send_veto(adv, ctx, node_id, veto, k)
            return
        if state.forwarded_veto:
            return
        for delivery in ctx.phase.inbox(node_id, k - 1):
            if isinstance(delivery.payload, VetoMessage) and adv.verify_for(
                node_id, delivery, ctx.phase.name
            ):
                state.forwarded_veto = True
                adv.network.audit.confirmation_receipts.add(
                    node_id, k - 1, ((delivery.sender, delivery.key_index),),
                    (delivery.payload,),
                )
                self._mimic_send_veto(adv, ctx, node_id, delivery.payload, k)
                break

    def _mimic_make_veto(self, adv: Adversary, ctx, node_id: int) -> Optional[VetoMessage]:
        state = adv.state[node_id]
        if state.level is None or state.query_values is None:
            return None
        for instance, minimum in enumerate(ctx.broadcast_minima):
            if instance < len(state.query_values) and state.query_values[instance] < minimum:
                return adv.sign_veto(
                    node_id, state.query_values[instance], state.level, ctx.nonce, instance
                )
        return None

    def _mimic_send_veto(self, adv: Adversary, ctx, node_id: int, veto: VetoMessage, k: int) -> None:
        neighbors = adv.usable_neighbors(node_id)
        if not neighbors or k > ctx.phase.num_intervals:
            return
        ctx.phase.send(node_id, neighbors, veto, interval=k)
        adv.network.audit.confirmation_sends.add(
            node_id, k, adv.recorded_links(node_id, neighbors), (veto,)
        )

    # ------------------------------------------------------------------
    # Keyed predicate test
    # ------------------------------------------------------------------
    def predtest_interval(self, adv: Adversary, ctx, node_id: int, k: int) -> None:
        from ..crypto.hash import oneway_hash

        state = adv.state[node_id]
        kind, ident = ctx.key_ref
        if k == 1:
            registry = adv.network.registry
            holds = (kind == "sensor" and ident == node_id) or (
                kind == "pool" and registry.node_holds(node_id, ident)
            )
            if not holds:
                return
            truthful = bool(
                ctx.predicate is not None
                and ctx.predicate.satisfied_by(adv.network.audit, (node_id,), ctx.depth_bound)
            )
            if not self.predtest_answer(adv, ctx, node_id, truthful):
                return
            key = adv.sensor_key(node_id) if kind == "sensor" else registry.pool_key(ident)
            reply = PredicateReply(mac=compute_mac(key, "predicate-reply", ctx.nonce))
            neighbors = adv.usable_neighbors(node_id)
            if neighbors:
                ctx.phase.send(node_id, neighbors, reply, interval=k)
            state.relayed_reply_phase = ctx.phase.sequence
            return
        # Relay mimicry: forward the first hash-valid reply once.
        if state.relayed_reply_phase == ctx.phase.sequence:
            return
        for delivery in ctx.phase.inbox(node_id, k - 1):
            payload = delivery.payload
            if isinstance(payload, PredicateReply) and oneway_hash(payload.mac) == ctx.reply_hash:
                state.relayed_reply_phase = ctx.phase.sequence
                neighbors = adv.usable_neighbors(node_id)
                if neighbors and k <= ctx.phase.num_intervals:
                    ctx.phase.send(node_id, neighbors, payload, interval=k)
                break

    def predtest_answer(self, adv: Adversary, ctx, node_id: int, truthful: bool) -> bool:
        """Whether this compromised key-holder emits the "yes" reply.

        The honest-mimicking default answers truthfully.  Policies:
        ``deny`` (never reply), ``lie_yes`` (reply whenever able),
        ``coin`` (random) are provided by attack strategies.
        """
        return truthful
