"""Adaptive attack strategies: per-round schedules and best response.

The paper's attack model explicitly "allow[s] malicious sensors to
behave arbitrarily and adaptively"; these strategies change behaviour
across executions (the protocol's "rounds") based on a fixed schedule
(:class:`BurstStrategy`, the ShadowModel mostly-honest/bursts-of-
cheating pattern) or on observed detection pressure
(:class:`AdaptiveStrategy` escalation, :class:`BestResponseStrategy`
greedy action selection).  None of the schedules is random: every
decision is a pure function of the execution counter and the public
revocation state, so runs stay bit-reproducible under one seed.
"""

from __future__ import annotations

from typing import Dict, List

from ...errors import ProtocolError
from ...net.message import ReadingMessage
from ..base import Adversary
from .classic import PolicyStrategy, _lowest_honest


class AdaptiveStrategy(PolicyStrategy):
    """An adaptive Byzantine schedule (the paper's model explicitly
    "allow[s] malicious sensors to behave arbitrarily and adaptively").

    The strategy escalates based on how much of its key material the
    base station has already revoked:

    * **lurk** — behave exactly honestly (and answer predicate tests
      truthfully) until ``patience`` executions have passed;
    * **drop** — silently drop child minima, denying predicate tests,
      until ``escalate_after`` of its keys have been individually
      revoked;
    * **junk** — switch to spurious-minimum injection for the endgame.

    Nothing in the schedule helps it: Lemmas 4/5 hold per execution, so
    each phase just selects *which* adversary key gets revoked next.
    """

    def __init__(
        self, patience: int = 2, escalate_after: int = 3, predtest: str = "truthful"
    ) -> None:
        super().__init__(predtest=predtest)
        self.patience = patience
        self.escalate_after = escalate_after
        self._executions = 0
        self.mode = "lurk"

    def begin_execution(self, adv: Adversary) -> None:
        self._executions += 1
        revocation = adv.network.registry.revocation
        exposed = sum(
            revocation.exposed_ring_count(node_id) for node_id in adv.state
            if not revocation.is_sensor_revoked(node_id)
        )
        if self._executions <= self.patience:
            self.mode = "lurk"
        elif exposed < self.escalate_after:
            self.mode = "drop"
        else:
            self.mode = "junk"

    def predtest_answer(self, adv: Adversary, ctx, node_id: int, truthful: bool) -> bool:
        if self.mode == "lurk":
            return truthful
        return False  # deny once hostile

    def agg_select(self, adv: Adversary, ctx, node_id: int) -> List[ReadingMessage]:
        state = adv.state[node_id]
        if self.mode == "lurk":
            return list(state.best)
        if self.mode == "drop":
            return list(state.own_messages)
        claimed = _lowest_honest(adv, node_id)
        return [
            adv.forge_reading(claimed, -1.0, instance=m.instance, salt=self._executions)
            for m in state.own_messages
        ]


_BURST_CHEATS = ("veto", "drop", "junk")


class BurstStrategy(PolicyStrategy):
    """Mostly honest, with bursts of cheating (the ShadowModel pattern).

    Executions alternate through a fixed ``period``: honest mimicry on
    every round except the last of each period, where the sensor cheats.
    The default cheat is a *recorded* spurious veto — it forges a veto
    framing an honest sensor, injects it at interval 2 (a relay slot,
    not the vetoer slot), and books the send in the audit log under its
    own id so later predicate tests can be answered "truthfully".
    Cooking the books does not help: the junk-confirmation walk
    (Figure 6) asks for the matching interval-1 *receipt*, which no
    forger can have, and the absence branch revokes the sensor — or, in
    benign mode, defers to inconclusive, which is exactly the deferral
    the ``revoke-on-absence-despite-benign-mode`` planted mutant removes.

    ``cheat="drop"`` and ``cheat="junk"`` burst the Section IV-B
    dropping/junk-injection attacks instead.
    """

    def __init__(self, period: int = 2, cheat: str = "veto", predtest: str = "truthful") -> None:
        super().__init__(predtest=predtest)
        if cheat not in _BURST_CHEATS:
            raise ProtocolError(
                f"unknown burst cheat {cheat!r}; use one of {_BURST_CHEATS}"
            )
        self.period = max(2, int(period))
        self.cheat = cheat
        self._execution = 0

    @property
    def cheating(self) -> bool:
        return self._execution > 0 and self._execution % self.period == 0

    def begin_execution(self, adv: Adversary) -> None:
        self._execution += 1

    def agg_select(self, adv: Adversary, ctx, node_id: int) -> List[ReadingMessage]:
        state = adv.state[node_id]
        if not self.cheating or self.cheat == "veto":
            return list(state.best)
        if self.cheat == "drop":
            return list(state.own_messages)
        claimed = _lowest_honest(adv, node_id)
        return [
            adv.forge_reading(claimed, -1.0, instance=m.instance, salt=self._execution)
            for m in state.own_messages
        ]

    def conf_interval(self, adv: Adversary, ctx, node_id: int, k: int) -> None:
        if not self.cheating or self.cheat != "veto":
            super().conf_interval(adv, ctx, node_id, k)
            return
        state = adv.state[node_id]
        if k != 2 or state.forwarded_veto:
            return
        state.forwarded_veto = True
        finite = [m for m in ctx.broadcast_minima if m != float("inf")]
        base = min(finite) if finite else 0.0
        veto = adv.forge_veto(
            _lowest_honest(adv, node_id), base - 1.0, 1, salt=self._execution
        )
        neighbors = adv.usable_neighbors(node_id)
        if not neighbors or k > ctx.phase.num_intervals:
            return
        ctx.phase.send(node_id, neighbors, veto, interval=k)
        # Keep honest-looking books: record the forwarding so the
        # Figure-6 "who sent this?" search can be answered truthfully.
        adv.network.audit.confirmation_sends.add(
            node_id, k, adv.recorded_links(node_id, neighbors), (veto,)
        )


_MENU = ("drop", "junk", "spurious-veto")


class BestResponseStrategy(PolicyStrategy):
    """Greedy best response to observed detection pressure.

    Before each execution the strategy charges the *previous* round's
    action with the detection pressure it attracted — exposed ring keys
    plus (heavily weighted) revoked compromised sensors, all read from
    the public revocation state — then plays the cheapest action on the
    menu (drop → junk → spurious-veto, ties broken in menu order).  When
    every action has a positive observed cost it lies low for one round
    (honest mimicry) while the books decay, the "mixed strategy with a
    cooling-off period" shape of the game-theoretic WSN analyses.

    Per Lemmas 4/5 no schedule escapes: each damaging round still costs
    provably-adversary key material, so best response converges to
    either lying low (no damage) or bleeding keys.
    """

    def __init__(self, predtest: str = "truthful") -> None:
        super().__init__(predtest=predtest)
        self.action = "drop"
        self._costs: Dict[str, int] = {action: 0 for action in _MENU}
        self._pressure_before = 0
        self._execution = 0

    def _pressure(self, adv: Adversary) -> int:
        revocation = adv.network.registry.revocation
        exposed = sum(
            revocation.exposed_ring_count(node_id) for node_id in adv.state
        )
        revoked = sum(
            1 for node_id in adv.state if revocation.is_sensor_revoked(node_id)
        )
        return exposed + 100 * revoked

    def begin_execution(self, adv: Adversary) -> None:
        self._execution += 1
        pressure = self._pressure(adv)
        if self.action in self._costs:
            self._costs[self.action] += pressure - self._pressure_before
        self._pressure_before = pressure
        floor = min(self._costs.values())
        if floor > 0:
            self.action = "passive"
            self._costs = {a: cost - 1 for a, cost in self._costs.items()}
        else:
            self.action = next(a for a in _MENU if self._costs[a] == floor)

    def agg_select(self, adv: Adversary, ctx, node_id: int) -> List[ReadingMessage]:
        state = adv.state[node_id]
        if self.action == "drop":
            return list(state.own_messages)
        if self.action == "junk":
            claimed = _lowest_honest(adv, node_id)
            return [
                adv.forge_reading(
                    claimed, -1.0, instance=m.instance, salt=self._execution
                )
                for m in state.own_messages
            ]
        return list(state.best)

    def conf_interval(self, adv: Adversary, ctx, node_id: int, k: int) -> None:
        if self.action != "spurious-veto":
            super().conf_interval(adv, ctx, node_id, k)
            return
        state = adv.state[node_id]
        if k != 1:
            return
        state.forwarded_veto = True
        finite = [m for m in ctx.broadcast_minima if m != float("inf")]
        base = min(finite) if finite else 0.0
        veto = adv.forge_veto(
            _lowest_honest(adv, node_id), base - 1.0, 1, salt=self._execution
        )
        neighbors = adv.usable_neighbors(node_id)
        if neighbors:
            ctx.phase.send(node_id, neighbors, veto, interval=1)
