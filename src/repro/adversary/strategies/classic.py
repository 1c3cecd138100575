"""Classic single-node attack strategies (Section III/IV attack model).

Every strategy is "honest except for X": it inherits the full mimicry of
:class:`~repro.adversary.base.Strategy` and overrides only the hooks
where it deviates, so attacks compose with normal protocol participation
exactly as a real compromised sensor would.  Adaptive (per-round
schedule) strategies live in :mod:`repro.adversary.strategies.adaptive`,
coordinated multi-node plans in
:mod:`repro.adversary.strategies.colluding`, and the name → metadata
registry in :mod:`repro.adversary.zoo`.

All strategies accept a ``predtest`` policy controlling behaviour under
the keyed predicate tests of the pinpointing protocols:

* ``"truthful"`` — answer from the node's real records (a confessing
  dropper loses its whole ring in one execution, via Figure 5 step 7);
* ``"deny"`` — never reply (the slow-drip attack: one edge key revoked
  per execution, via Figure 6 step 2);
* ``"lie_yes"`` — reply whenever the node holds the tested key
  (framing/misdirection attempts; Lemmas 4/5 bound the damage);
* ``"coin"`` — random answers (the "inconsistent binary search"
  behaviour handled by Figure 6 step 12).
"""

from __future__ import annotations

from typing import List, Optional

from ...errors import ProtocolError
from ...net.message import ReadingMessage, TreeBeacon
from ..base import Adversary, Strategy

_POLICIES = ("truthful", "deny", "lie_yes", "coin")


def _lowest_honest(adv: Adversary, node_id: int) -> int:
    """The framing victim every deterministic forgery claims."""
    return next((i for i in adv.network.honest_sensors if i != node_id), node_id)


class PolicyStrategy(Strategy):
    """Base for attack strategies: adds the predicate-test policy knob."""

    def __init__(self, predtest: str = "truthful") -> None:
        if predtest not in _POLICIES:
            raise ProtocolError(f"unknown predtest policy {predtest!r}; use one of {_POLICIES}")
        self.predtest = predtest

    def predtest_answer(self, adv: Adversary, ctx, node_id: int, truthful: bool) -> bool:
        if self.predtest == "truthful":
            return truthful
        if self.predtest == "deny":
            return False
        if self.predtest == "lie_yes":
            return True
        return adv.rng.random() < 0.5  # "coin"


class PassiveStrategy(PolicyStrategy):
    """A compromised sensor that (so far) behaves exactly honestly.

    Useful as a control: with passive compromised sensors every VMAT
    execution must return the correct result and revoke nothing.
    """


class DropMinimumStrategy(PolicyStrategy):
    """The dropping attack of Section IV-B: silently discard the values
    received from children and forward only the sensor's own messages.

    If the dropped value was the network minimum, its (honest) owner
    vetoes during confirmation and veto-triggered pinpointing follows
    the audit trail into this sensor.
    """

    def agg_select(self, adv: Adversary, ctx, node_id: int) -> List[ReadingMessage]:
        return list(adv.state[node_id].own_messages)


class HideAndVetoStrategy(PolicyStrategy):
    """Report a huge value during aggregation, then (legitimately) veto.

    Section IV-C: "A malicious sensor can generate a valid veto if it
    purposely hid its value during the aggregation phase."  The audit
    trail is equivalent to the sensor dropping its own value, so
    veto-triggered pinpointing still revokes adversary key material.
    """

    def __init__(self, hidden_value: float = 2.0**40, predtest: str = "truthful") -> None:
        super().__init__(predtest=predtest)
        self.hidden_value = hidden_value

    def agg_select(self, adv: Adversary, ctx, node_id: int) -> List[ReadingMessage]:
        state = adv.state[node_id]
        return [
            adv.sign_reading(node_id, self.hidden_value, ctx.nonce, instance=m.instance)
            for m in state.own_messages
        ]


class JunkMinimumStrategy(PolicyStrategy):
    """Inject a spurious minimum during aggregation (Section IV-B).

    The forged message claims an honest sensor's id with a tiny value;
    its sensor MAC cannot verify, so the base station detects junk and
    junk-triggered pinpointing walks the trail back to this sensor.
    Honest ancestors *will* forward the junk — they cannot check sensor
    MACs — which is exactly why the audit trail matters.
    """

    def __init__(
        self,
        junk_value: float = -1.0,
        claimed_id: Optional[int] = None,
        predtest: str = "deny",
    ) -> None:
        super().__init__(predtest=predtest)
        self.junk_value = junk_value
        self.claimed_id = claimed_id

    def agg_select(self, adv: Adversary, ctx, node_id: int) -> List[ReadingMessage]:
        state = adv.state[node_id]
        claimed = self.claimed_id
        if claimed is None:
            claimed = _lowest_honest(adv, node_id)
        return [
            adv.forge_reading(claimed, self.junk_value, instance=m.instance)
            for m in state.own_messages
        ]


class SpuriousVetoStrategy(PolicyStrategy):
    """The confirmation-phase choking attack of Section IV-C: inject a
    spurious veto in interval 1 so it races — and with an adversary close
    to the honest vetoers, beats — the legitimate veto.  SOF guarantees
    the base station still receives *some* veto (Lemma 1), and the junk
    trail leads back here.
    """

    def __init__(
        self,
        claimed_id: Optional[int] = None,
        fake_level: int = 1,
        predtest: str = "deny",
    ) -> None:
        super().__init__(predtest=predtest)
        self.claimed_id = claimed_id
        self.fake_level = fake_level

    def conf_interval(self, adv: Adversary, ctx, node_id: int, k: int) -> None:
        state = adv.state[node_id]
        if k != 1:
            return  # one-time flooding locks relays on first reception anyway
        state.forwarded_veto = True
        claimed = self.claimed_id
        if claimed is None:
            claimed = _lowest_honest(adv, node_id)
        finite = [m for m in ctx.broadcast_minima if m != float("inf")]
        base = min(finite) if finite else 0.0
        veto = adv.forge_veto(claimed, base - 1.0, self.fake_level, salt=node_id)
        neighbors = adv.usable_neighbors(node_id)
        if neighbors:
            ctx.phase.send(node_id, neighbors, veto, interval=1)


class WormholeStrategy(PolicyStrategy):
    """Two colluding sensors tunnel tree beacons (Figure 2(c)).

    The entry sensor captures the first beacon it hears; the exit sensor
    replays it far away with an inflated hop count.  Against the naive
    hop-count tree this pushes victims' levels past ``L`` and
    disenfranchises them; against VMAT's timestamp levels the replay is
    harmless (arrival interval bounds the level).
    """

    def __init__(self, entry: int, exit: int, inflation: int = 10, predtest: str = "deny") -> None:
        super().__init__(predtest=predtest)
        self.entry = entry
        self.exit = exit
        self.inflation = inflation
        self._captured_hop: Optional[int] = None
        self._replayed = False

    def begin_execution(self, adv: Adversary) -> None:
        self._captured_hop = None
        self._replayed = False

    def tree_interval(self, adv: Adversary, ctx, node_id: int, k: int) -> None:
        if node_id == self.entry and self._captured_hop is None and k >= 2:
            beacons = [
                d
                for d in ctx.phase.inbox(node_id, k - 1)
                if isinstance(d.payload, TreeBeacon)
                and adv.verify_for(node_id, d, ctx.phase.name)
            ]
            if beacons:
                self._captured_hop = beacons[0].payload.hop_count
        if node_id == self.exit and self._captured_hop is not None and not self._replayed:
            self._replayed = True
            beacon = TreeBeacon(
                origin=self.exit, hop_count=self._captured_hop + self.inflation
            )
            neighbors = adv.usable_neighbors(node_id)
            if neighbors:
                ctx.phase.send(node_id, neighbors, beacon, interval=k)
        # Otherwise behave honestly so the colluders stay embedded.
        if node_id not in (self.entry, self.exit):
            super().tree_interval(adv, ctx, node_id, k)


class ChokingFloodStrategy(PolicyStrategy):
    """Brute-force junk flooding: burn the sensor's entire per-interval
    forwarding capacity on distinct spurious vetoes, every interval.

    Against VMAT this is noise — honest SOF relays lock onto one veto and
    predicate-test relays forward only the hash-valid reply.  Against the
    unverifiable-MAC baseline (:mod:`repro.baselines.unverified_flooding`)
    it crowds legitimate vetoes out of relay queues, which is the attack
    that motivates SOF (Section II).
    """

    def __init__(self, predtest: str = "deny") -> None:
        super().__init__(predtest=predtest)
        self._salt = 0

    def conf_interval(self, adv: Adversary, ctx, node_id: int, k: int) -> None:
        state = adv.state[node_id]
        state.forwarded_veto = True
        neighbors = adv.usable_neighbors(node_id)
        if not neighbors:
            return
        finite = [m for m in ctx.broadcast_minima if m != float("inf")]
        base = min(finite) if finite else 0.0
        while ctx.phase.remaining_capacity(node_id, k) > 0:
            self._salt += 1
            veto = adv.forge_veto(
                claimed_id=node_id, value=base - 1.0, level=1, salt=self._salt
            )
            if not ctx.phase.send(node_id, neighbors, veto, interval=k):
                break


class RelayDropStrategy(PolicyStrategy):
    """Data-plane omission: participate honestly in tree formation (to
    stay embedded as other sensors' parent), then relay *nothing* — no
    aggregation bundles, no vetoes, no predicate replies.

    Against VMAT this is the weakest useful attack: as long as the
    honest sensors stay connected (the Section III assumption), SOF
    routes vetoes around the silence, and when the silence swallowed the
    true minimum the audit trail ends exactly at the silent sensor's
    boundary — Figure 6 step 2 revokes the edge key.  (A sensor that
    also suppresses tree beacons simply partitions its subtree, which
    the paper scopes out: VMAT then answers for the remaining connected
    component.)
    """

    def agg_interval(self, adv: Adversary, ctx, node_id: int, k: int) -> None:
        return  # silence

    def conf_interval(self, adv: Adversary, ctx, node_id: int, k: int) -> None:
        return  # silence

    def predtest_interval(self, adv: Adversary, ctx, node_id: int, k: int) -> None:
        return  # silence


class ReplayStrategy(PolicyStrategy):
    """Replay the previous execution's minimum during this aggregation.

    Tests the nonce-freshness defence of Section IV-B: every reading MAC
    binds the per-execution nonce, so a replayed message — even one that
    was perfectly valid last time — verifies as junk at the base station
    and junk-triggered pinpointing tracks it back.
    """

    def __init__(self, predtest: str = "deny") -> None:
        super().__init__(predtest=predtest)
        self._previous_best: dict[int, ReadingMessage] = {}
        self._current_best: dict[int, ReadingMessage] = {}

    def begin_execution(self, adv: Adversary) -> None:
        self._previous_best = dict(self._current_best)
        self._current_best = {}

    def agg_select(self, adv: Adversary, ctx, node_id: int):
        state = adv.state[node_id]
        # Remember this execution's minimum for the next replay.
        for message in state.best:
            current = self._current_best.get(node_id)
            if current is None or message < current:
                self._current_best[node_id] = message
        stale = self._previous_best.get(node_id)
        if stale is not None:
            return [stale]
        return list(state.best)


class FramingChokeMixStrategy(JunkMinimumStrategy):
    """Framing-vs-choking mix on a single sensor: inject a junk minimum
    that frames an honest sensor during aggregation *and* race the
    confirmation phase with a spurious veto claiming the same victim.

    The two trails are independent — whichever reaches the base station
    first triggers its own pinpoint walk, and both end at this sensor's
    audit boundary (Section VI-B twice over).  Mixing buys the adversary
    nothing but loses key material on two fronts; the tournament report
    makes that trade-off measurable.
    """

    def __init__(
        self,
        junk_value: float = -1.0,
        claimed_id: Optional[int] = None,
        predtest: str = "deny",
    ) -> None:
        super().__init__(junk_value=junk_value, claimed_id=claimed_id, predtest=predtest)
        self.fake_level = 1

    def conf_interval(self, adv: Adversary, ctx, node_id: int, k: int) -> None:
        SpuriousVetoStrategy.conf_interval(self, adv, ctx, node_id, k)


class ZooWormholeStrategy(WormholeStrategy):
    """Registry-friendly wormhole: endpoints picked at bind time.

    :class:`WormholeStrategy` needs explicit ``entry``/``exit`` sensors;
    the zoo registry requires construction from ``predtest`` alone, so
    this variant tunnels between the two extreme compromised ids (with a
    single compromised sensor it degenerates to a local replay, which is
    equally harmless against timestamp levels).
    """

    def __init__(self, predtest: str = "deny") -> None:
        super().__init__(entry=-1, exit=-1, predtest=predtest)

    def bind(self, adversary: Adversary) -> None:
        ids = sorted(adversary.network.malicious_ids)
        if ids:
            self.entry = ids[0]
            self.exit = ids[-1]

    def tree_interval(self, adv: Adversary, ctx, node_id: int, k: int) -> None:
        super().tree_interval(adv, ctx, node_id, k)
        if node_id in (self.entry, self.exit):
            # Unlike the raw wormhole, endpoints also join the tree
            # honestly: the tunnel is a *side channel*, not an opt-out,
            # so the attack's only lever is the inflated replay — which
            # timestamp levels ignore (the "harmless" contract).
            Strategy.tree_interval(self, adv, ctx, node_id, k)
