"""Colluding multi-node strategies sharing a coordinated plan.

The Section III attack model lets the adversary compromise several
sensors and run them as one coordinated actor.  Strategies here differ
from the classic family in *capability*: they are bound to the full
roster of compromised sensors and may read each other's protocol state
(:class:`CoverForAccompliceStrategy` literally inspects its accomplice's
audit records before vetoing).  The zoo registry labels them with the
``colluding`` capability class; the property tests assert that no
single-node strategy ever performs such a cross-node read.
"""

from __future__ import annotations

from typing import List, Optional

from ...net.message import ReadingMessage
from ..base import Adversary, Strategy
from .classic import PassiveStrategy, PolicyStrategy


class ColludingStrategy(PolicyStrategy):
    """Base for coordinated plans: binds the roster of compromised
    sensors and lets subclasses assign roles over it deterministically
    (sorted ids — every colluder derives the same plan with no
    communication, the strongest coordination assumption)."""

    def __init__(self, predtest: str = "truthful") -> None:
        super().__init__(predtest=predtest)
        self.roster: List[int] = []

    def bind(self, adversary: Adversary) -> None:
        self.roster = sorted(adversary.network.malicious_ids)
        self._assign_roles(adversary)

    def _assign_roles(self, adversary: Adversary) -> None:
        """Subclass hook: split ``self.roster`` into roles."""

    def _victim(self, adv: Adversary) -> int:
        """The honest sensor every colluder agrees to frame."""
        roster = set(self.roster)
        return next((i for i in adv.network.honest_sensors if i not in roster), self.roster[0])


class CoverForAccompliceStrategy(ColludingStrategy):
    """Cover-for-accomplice vetoes: one *accomplice* runs the Section
    IV-B dropping attack while the remaining colluders act as *covers* —
    they watch the accomplice's state, and when it swallowed the true
    minimum they flood the confirmation phase with *valid* own-key
    vetoes (each claiming a value just below the broadcast minimum)
    while refusing to relay anyone else's veto.

    The hope is to bury the honest owner's veto among decoys and stall
    pinpointing on the covers.  VMAT is indifferent: each cover's veto
    is its own signed claim, so the Figure-5 ring search lands on the
    cover itself — every decoy costs a colluder its key material
    (Lemma 4 protects only *honest* vetoers).
    """

    def __init__(self, predtest: str = "truthful") -> None:
        super().__init__(predtest=predtest)
        self.accomplice: Optional[int] = None
        self.covers: List[int] = []

    def _assign_roles(self, adversary: Adversary) -> None:
        self.accomplice = self.roster[0] if self.roster else None
        self.covers = self.roster[1:]

    def agg_select(self, adv: Adversary, ctx, node_id: int) -> List[ReadingMessage]:
        state = adv.state[node_id]
        if node_id == self.accomplice:
            return list(state.own_messages)  # swallow child minima
        return list(state.best)

    def _accomplice_swallowed(self, adv: Adversary, ctx) -> bool:
        """Cross-node read (the colluding capability): did the accomplice
        receive a minimum strictly below what the base station announced?"""
        if self.accomplice is None:
            return False
        acc_state = adv.state.get(self.accomplice)
        if acc_state is None:
            return False
        for instance, minimum in enumerate(ctx.broadcast_minima):
            if instance < len(acc_state.best) and acc_state.best[instance].value < minimum:
                return True
        return False

    def conf_interval(self, adv: Adversary, ctx, node_id: int, k: int) -> None:
        if node_id == self.accomplice:
            super().conf_interval(adv, ctx, node_id, k)
            return
        state = adv.state[node_id]
        if k != 1:
            return  # covers never relay: suppress everyone else's veto
        state.forwarded_veto = True
        if state.level is None or not self._accomplice_swallowed(adv, ctx):
            return
        finite = [m for m in ctx.broadcast_minima if m != float("inf")]
        base = min(finite) if finite else 0.0
        veto = adv.sign_veto(node_id, base - 1.0, state.level, ctx.nonce)
        neighbors = adv.usable_neighbors(node_id)
        if neighbors:
            ctx.phase.send(node_id, neighbors, veto, interval=1)


class SplitRolesStrategy(ColludingStrategy):
    """Split framing/choking roles over the roster: even-position
    colluders are *framers* (junk minima claiming one agreed honest
    victim, Section IV-B) and odd-position colluders are *chokers*
    (interval-1 spurious vetoes claiming the same victim, Section IV-C).

    Coordinating on a single victim maximises the chance some forgery
    sticks; it also means both the junk-aggregation and junk-confirmation
    pinpoint walks run against the same plan, revoking key material on
    two fronts per execution.
    """

    def __init__(self, junk_value: float = -1.0, predtest: str = "deny") -> None:
        super().__init__(predtest=predtest)
        self.junk_value = junk_value
        self.framers: List[int] = []
        self.chokers: List[int] = []

    def _assign_roles(self, adversary: Adversary) -> None:
        self.framers = self.roster[0::2]
        self.chokers = self.roster[1::2]

    def agg_select(self, adv: Adversary, ctx, node_id: int) -> List[ReadingMessage]:
        state = adv.state[node_id]
        if node_id not in self.framers:
            return list(state.best)
        victim = self._victim(adv)
        return [
            adv.forge_reading(victim, self.junk_value, instance=m.instance, salt=node_id)
            for m in state.own_messages
        ]

    def conf_interval(self, adv: Adversary, ctx, node_id: int, k: int) -> None:
        if node_id not in self.chokers:
            super().conf_interval(adv, ctx, node_id, k)
            return
        state = adv.state[node_id]
        if k != 1:
            return
        state.forwarded_veto = True
        finite = [m for m in ctx.broadcast_minima if m != float("inf")]
        base = min(finite) if finite else 0.0
        veto = adv.forge_veto(self._victim(adv), base - 1.0, 1, salt=node_id)
        neighbors = adv.usable_neighbors(node_id)
        if neighbors:
            ctx.phase.send(node_id, neighbors, veto, interval=1)


class PerNodeStrategy(Strategy):
    """Heterogeneous adversary: a different strategy per compromised
    sensor (e.g. one dropper deep in the network while a neighbour of
    the base station chokes the confirmation phase).

    Unassigned sensors fall back to ``default`` (honest mimicry unless
    overridden).  Byzantine generals need not agree on a playbook.
    """

    def __init__(self, assignments: dict, default: Optional[Strategy] = None) -> None:
        self.assignments = dict(assignments)
        self.default = default if default is not None else PassiveStrategy()

    def bind(self, adversary: Adversary) -> None:
        for strategy in self._all_strategies():
            strategy.bind(adversary)

    def begin_execution(self, adv: Adversary) -> None:
        for strategy in self._all_strategies():
            strategy.begin_execution(adv)

    def _all_strategies(self):
        seen = []
        for strategy in list(self.assignments.values()) + [self.default]:
            if all(strategy is not s for s in seen):
                seen.append(strategy)
        return seen

    def _for(self, node_id: int) -> Strategy:
        return self.assignments.get(node_id, self.default)

    def tree_interval(self, adv, ctx, node_id, k):
        self._for(node_id).tree_interval(adv, ctx, node_id, k)

    def agg_interval(self, adv, ctx, node_id, k):
        self._for(node_id).agg_interval(adv, ctx, node_id, k)

    def conf_interval(self, adv, ctx, node_id, k):
        self._for(node_id).conf_interval(adv, ctx, node_id, k)

    def predtest_interval(self, adv, ctx, node_id, k):
        self._for(node_id).predtest_interval(adv, ctx, node_id, k)

    def predtest_answer(self, adv, ctx, node_id, truthful):
        return self._for(node_id).predtest_answer(adv, ctx, node_id, truthful)
