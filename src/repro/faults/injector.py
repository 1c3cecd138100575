"""Runtime interpretation of a :class:`~repro.faults.plan.FaultPlan`.

The injector is *pulled*, never pushed: the network's slotted phases
and the authenticated-broadcast path each expose an explicit hook point that
asks the attached injector a question ("is this node down?", "does this
frame take extra loss?") at the moment the answer matters.  Nothing is
monkeypatched; a network without an injector takes the exact code paths
it always did.

Determinism contract: every stochastic decision (burst-loss draws,
duplication draws) comes from one :class:`random.Random` seeded by
``("fault-injector", plan_hash, seed)`` via :mod:`repro.seeding`, and
the injector is queried from the network's own deterministic iteration
order — so a run is a pure function of ``(plan, seed)`` and is
bit-identical at any campaign worker count.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from ..seeding import derive_rng
from .plan import (
    BroadcastDelay,
    BroadcastLoss,
    BurstLoss,
    ClockDrift,
    Duplicate,
    FaultPlan,
    LinkDown,
    NodeCrash,
    Partition,
    _Windowed,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..net.network import Network


class FaultInjector:
    """Applies one fault plan to one network, deterministically.

    Usage::

        injector = FaultInjector(plan, seed=cell_seed).attach(network)

    After :meth:`attach`, the network consults the injector at its hook
    points; the injector tracks global time through
    :meth:`on_interval_begin`, once per slotted interval, and
    :meth:`advance_to` (the service runtime's interval clock).
    """

    def __init__(self, plan: FaultPlan, seed: int = 0) -> None:
        self.plan = plan
        self.seed = seed
        # The stream's identity is the plan *content* plus the run seed:
        # editing the plan or reseeding the cell re-derives every draw.
        self.rng = derive_rng("fault-injector", plan.plan_hash(), seed)
        self.network: Optional["Network"] = None
        #: Current global interval index (cumulative across all phases).
        self.now = 0
        self._activated: Set[int] = set()  # event positions already counted
        self._announced_broadcasts: Set[int] = set()
        self._drifting: Set[int] = set()  # nodes with a non-zero drift applied

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self, network: "Network") -> "FaultInjector":
        """Register with ``network`` and return self (for chaining)."""
        self.network = network
        network.fault_injector = self
        return self

    def advance_to(self, global_interval: int) -> None:
        """Advance the injector's clock (monotone; no accounting)."""
        if global_interval > self.now:
            self.now = global_interval

    def extend_events(self, new_events) -> None:
        """Append fault events to the live plan (service degradation path).

        The service runtime maps a node host that died past its restart
        budget onto synthesized :class:`~repro.faults.plan.NodeCrash`
        events for its hosted sensors, mid-session.  Appending preserves
        the positions of existing events, so activation accounting
        (``_activated`` is keyed by position) stays valid.  The plan
        *content* changes, which would re-derive the per-frame RNG stream
        identity — but the kinds that consume that stream (burst-loss,
        duplicate) are exactly the kinds the service spec rejects, and
        this method exists for the service path; the already-constructed
        ``self.rng`` is deliberately left untouched.
        """
        import dataclasses

        self.plan = dataclasses.replace(
            self.plan, events=tuple(self.plan.events) + tuple(new_events)
        )

    # ------------------------------------------------------------------
    # Hook: slotted interval boundary
    # ------------------------------------------------------------------
    def on_interval_begin(self, phase_name: str, global_interval: int) -> None:
        """Called by :meth:`PhaseContext.begin_interval` once per slot.

        Performs the per-interval accounting — crash/partition interval
        counters, activation-edge fault counts, tracer events — and
        applies/clears per-node clock drift for the new interval.
        """
        self.advance_to(global_interval)
        network = self.network
        if network is None:
            return
        # Replica networks (service node hosts) apply every fault's
        # *state* effects — crash flags, drift, blocked links — but the
        # coordinator already does the global accounting for the same
        # plan on the same clock, so replicas skip the metric writes.
        replica = network.service_replica
        metrics = network.metrics

        down_honest = [n for n in network.honest_sensors if self.node_down(n)]
        if down_honest:
            if not replica:
                metrics.record_crash_intervals(len(down_honest))
            # A crashed sensor knows (watchdog reboot, radio gap) that
            # it missed traffic: it must abstain from vetoing on a view
            # it cannot trust.
            network.node_columns.crash_suspected[down_honest] = True
        if not replica and any(
            isinstance(e, Partition) and e.active(self.now) for e in self.plan.events
        ):
            metrics.record_partition_intervals(1)

        self._apply_clock_drift(network)
        if not replica:
            self._record_activations(network, phase_name)

    def _apply_clock_drift(self, network: "Network") -> None:
        drift_by_node: Dict[int, float] = {}
        for event in self.plan.events:
            if isinstance(event, ClockDrift) and event.active(self.now):
                drift_by_node[event.node] = drift_by_node.get(event.node, 0.0) + event.drift
        clocks = network.clocks
        for node_id in self._drifting - set(drift_by_node):
            if node_id in clocks:
                clocks.drift[node_id] = 0.0
        for node_id, drift in drift_by_node.items():
            if node_id in clocks:
                clocks.drift[node_id] = drift
        self._drifting = set(drift_by_node)

    def _record_activations(self, network: "Network", phase_name: str) -> None:
        """Count each windowed event once, when its window first opens."""
        for position, event in enumerate(self.plan.events):
            if position in self._activated or not isinstance(event, _Windowed):
                continue
            if not event.active(self.now):
                continue
            self._activated.add(position)
            network.metrics.record_fault(event.KIND)
            if network.tracer is not None:
                network.tracer.record(
                    "fault",
                    fault=event.KIND,
                    phase=phase_name,
                    global_interval=self.now,
                    **{k: v for k, v in event.to_dict().items() if k != "kind"},
                )

    # ------------------------------------------------------------------
    # Hook: link layer (queried per frame by ``PhaseContext.send``)
    # ------------------------------------------------------------------
    def node_down(self, node_id: int) -> bool:
        """Whether ``node_id`` is crashed right now."""
        return any(
            isinstance(e, NodeCrash) and e.node == node_id and e.active(self.now)
            for e in self.plan.events
        )

    def link_blocked(self, a: int, b: int) -> bool:
        """Whether the radio edge ``a``-``b`` is down (churn or partition)."""
        for event in self.plan.events:
            if isinstance(event, (LinkDown, Partition)):
                if event.active(self.now) and event.blocks(a, b):
                    return True
        return False

    def extra_loss_rate(self, receiver: int) -> float:
        """Burst-loss probability for frames addressed to ``receiver``."""
        rate = 0.0
        for event in self.plan.events:
            if isinstance(event, BurstLoss) and event.active(self.now):
                if event.applies_to(receiver):
                    rate = max(rate, event.loss_rate)
        return rate

    def duplicate_probability(self, receiver: int) -> float:
        """Probability a delivered frame to ``receiver`` arrives twice."""
        prob = 0.0
        for event in self.plan.events:
            if isinstance(event, Duplicate) and event.active(self.now):
                if event.applies_to(receiver):
                    prob = max(prob, event.probability)
        return prob

    def clock_interval_shift(self, sender: int) -> int:
        """Whole intervals by which ``sender``'s frames land late.

        Inside the guard band (effective offset within half an interval)
        the shift is 0 — Section IV-A's slotting absorbs the error.  Once
        drift pushes the effective offset past the half-interval, frames
        meant for interval ``k`` land in ``k + shift``.
        """
        network = self.network
        if network is None or sender not in network.clocks:
            return 0
        clocks = network.clocks
        total = abs(float(clocks.offsets[sender] + clocks.drift[sender]))
        margin = network.config.clock.interval_length / 2
        if total <= margin:
            return 0
        return 1 + int((total - margin) // network.config.clock.interval_length)

    # ------------------------------------------------------------------
    # Hook: authenticated broadcast
    # ------------------------------------------------------------------
    def on_broadcast(self, round_index: int) -> None:
        """Record activation of broadcast-round events (once per round)."""
        network = self.network
        if network is None or round_index in self._announced_broadcasts:
            return
        self._announced_broadcasts.add(round_index)
        if network.service_replica:
            return  # accounting happens once, on the coordinator
        for event in self.plan.events:
            if isinstance(event, (BroadcastLoss, BroadcastDelay)):
                if event.round == round_index:
                    network.metrics.record_fault(event.KIND)
                    if network.tracer is not None:
                        network.tracer.record(
                            "fault",
                            fault=event.KIND,
                            round=round_index,
                            **{
                                k: v
                                for k, v in event.to_dict().items()
                                if k not in ("kind", "round")
                            },
                        )

    def broadcast_blocked(self, round_index: int, node_id: int) -> bool:
        """Whether ``node_id`` misses the ``round_index``-th broadcast."""
        return any(
            isinstance(e, BroadcastLoss)
            and e.round == round_index
            and e.applies_to(node_id)
            for e in self.plan.events
        )

    def broadcast_delay(self, round_index: int) -> float:
        """Extra flooding rounds the ``round_index``-th broadcast costs."""
        return sum(
            e.extra_rounds
            for e in self.plan.events
            if isinstance(e, BroadcastDelay) and e.round == round_index
        )
