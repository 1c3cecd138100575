"""The VMAT invariant catalog: the paper's theorems as machine checks.

Each :class:`Invariant` is a declarative checker over an
:class:`ExecutionView` — a normalized snapshot of one Figure-1 execution
built either live (from a :class:`~repro.net.network.Network` plus its
trace events, by :class:`~repro.invariants.monitor.InvariantMonitor`) or
offline (from a trace JSONL file alone, by
:mod:`repro.invariants.offline`).  A second family of store-scope
invariants checks campaign :class:`~repro.campaign.store.RunStore`
records; those live in :mod:`repro.invariants.offline` but register in
the same :data:`CATALOG` so ``python -m repro invariants list`` shows
one unified table.

The catalog encodes, with paper anchors:

* **honest-node-safety** (Lemmas 4/5, Theorem 6, §VI) — no honest
  sensor is ever revoked; no key outside the adversary's pooled rings
  is ever revoked.
* **positive-proof-revocation** (§VI, Figures 4-6) — every revocation
  carries a recognized justification, and under benign fault injection
  only *positive-proof* justifications may fire (absence-based branches
  must defer — the repro.faults degradation contract).
* **revocation-progress** (Theorems 6/7, §VI) — absent benign faults,
  every non-result execution revokes at least one key or sensor (the
  strict-progress property that makes sessions terminate).
* **aggregate-error-bound** (Lemma 1, Theorem 1, §V/§VIII) — an
  accepted MIN/MAX result is bracketed by the honest and overall true
  values; synopsis estimates stay within the §VIII error envelope.
* **clock-sync-delta** (§III, §IV-A) — pairwise clock error stays
  within Δ whenever no drift excursion is injected.
* **broadcast-authenticity** (§IV, [20]) — every honest verifier's
  μTESLA chain state hashes back to the deployed anchor.
* **edge-mac-authenticity** (§IV-B) — a frame is only ever *verified*
  under an unrevoked key its physical sender actually possesses and the
  honest receiver actually holds (checked live, per transmission).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Optional, Tuple

#: Pinpoint justifications that are *positive proof* of maliciousness:
#: the blamed sensor itself admitted (under its own sensor key) to an
#: impossible tuple.  Sound under arbitrary message loss, so they revoke
#: even in benign mode (see repro.core.pinpoint.Pinpointer).
POSITIVE_PROOF_REASONS = frozenset({
    "claimed interval-L receipt",
    "originated junk at max level",
    "originated spurious veto",
})

#: Absence-based justifications — silence, a missing receipt, an
#: unanswered search.  Sound only under reliable links; benign mode must
#: defer them instead of revoking.
ABSENCE_BASED_REASONS = frozenset({
    "refused Figure-5 search",
    "no consistent admitter (Figure 6)",
    "nobody admits forwarding junk",
    "no receipt for forwarded junk",
    "nobody admits forwarding junk veto",
    "no receipt for forwarded junk veto",
})

#: Structural reasons produced by the revocation state machine itself
#: rather than a pinpoint walk (ring dumps, the θ rule).
_STRUCTURAL_PREFIXES = ("ring of sensor ", "threshold theta=")

#: Absolute slack for float comparisons on estimates/true values.
_EPS = 1e-9

#: Multiplier on the first-order expected relative error for synopsis
#: estimates (§VIII): E|err| = sqrt(2/(pi m)), per-trial deviations are
#: asymptotically N(0, 1/m), so 6x the mean absolute error is ~4.8
#: standard deviations — loose enough for single trials, tight enough
#: to catch a broken estimator or a forged synopsis let through.
SYNOPSIS_ERROR_MULTIPLIER = 6.0


@dataclass(frozen=True)
class Violation:
    """One invariant breach, with enough context to act on it."""

    invariant: str
    detail: str
    context: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "invariant": self.invariant,
            "detail": self.detail,
            "context": dict(self.context),
        }

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.invariant}] {self.detail}"


@dataclass
class ExecutionView:
    """Everything one finished execution exposes to the oracles.

    Built from trace events (``execution-start`` … ``execution-end`` +
    trailing ``revocation`` events); ``network`` is attached only in
    online mode and unlocks the checks that need live ground truth
    (registry state, clocks, broadcast verifiers).
    """

    query: str
    outcome: str
    depth_bound: int = 0
    instances: int = 1
    malicious: FrozenSet[int] = frozenset()
    faults_active: bool = False
    adversary_active: bool = False
    estimate: Optional[float] = None
    honest_true: Optional[float] = None
    overall_true: Optional[float] = None
    #: Honest ground truth restricted to the base station's honest
    #: secure component at execution start — what SOF can actually
    #: guarantee when earlier revocations disconnected the topology.
    reachable_honest_true: Optional[float] = None
    #: Size of that component; ``0`` means no honest sensor was
    #: reachable and the execution's result carries no guarantee at all.
    reachable_honest_count: Optional[int] = None
    inconclusive_reason: Optional[str] = None
    #: ``revocation`` trace events of this execution: dicts with
    #: ``what`` ("key" | "sensor"), ``target`` and ``reason``.
    revocations: Tuple[Dict[str, Any], ...] = ()
    #: Every trace event dict in this execution's segment.
    events: Tuple[Dict[str, Any], ...] = ()
    network: Any = None


class Invariant:
    """One declarative checker.  Subclasses override :meth:`check`."""

    #: Stable identifier, used in violations, CLI filters and repro files.
    name: str = ""
    #: Paper anchor the invariant formalizes.
    section: str = ""
    description: str = ""
    #: Where the invariant can run: "execution" views, raw "trace"
    #: segments, campaign "store" records.  Informational (CLI listing).
    scope: str = "execution"

    def check(self, view: ExecutionView) -> List[Violation]:
        raise NotImplementedError

    def violation(self, detail: str, **context: Any) -> Violation:
        return Violation(invariant=self.name, detail=detail, context=context)


def classify_reason(reason: str) -> str:
    """Bucket a revocation justification: positive | absence | structural
    | unknown."""
    if reason in POSITIVE_PROOF_REASONS:
        return "positive"
    if reason in ABSENCE_BASED_REASONS:
        return "absence"
    if any(reason.startswith(prefix) for prefix in _STRUCTURAL_PREFIXES):
        return "structural"
    return "unknown"


class HonestNodeSafety(Invariant):
    name = "honest-node-safety"
    section = "Lemmas 4/5, Theorem 6 (§VI)"
    description = (
        "No honest sensor is ever revoked, and no pool key outside the "
        "adversary's compromised rings is ever revoked."
    )

    def check(self, view: ExecutionView) -> List[Violation]:
        violations: List[Violation] = []
        for event in view.revocations:
            if event.get("what") == "sensor" and event["target"] not in view.malicious:
                violations.append(self.violation(
                    f"honest sensor {event['target']} was revoked "
                    f"({event.get('reason')!r})",
                    target=event["target"], reason=event.get("reason"),
                ))
            if (
                event.get("what") == "key"
                and not view.adversary_active
                and not view.malicious
            ):
                violations.append(self.violation(
                    f"key {event['target']} revoked with no adversary present "
                    f"({event.get('reason')!r})",
                    target=event["target"], reason=event.get("reason"),
                ))
        network = view.network
        if network is not None:
            # Omniscient cross-check of the *cumulative* registry state:
            # catches revocations that never surfaced as trace events.
            adversary_keys = network.adversary_pool_indices()
            for sensor in sorted(network.registry.revoked_sensors):
                if sensor not in network.malicious_ids:
                    violations.append(self.violation(
                        f"registry holds honest sensor {sensor} as revoked",
                        target=sensor,
                    ))
            for key in sorted(network.registry.revoked_keys):
                if key not in adversary_keys:
                    violations.append(self.violation(
                        f"registry holds key {key} as revoked but the "
                        "adversary never held it",
                        target=key,
                    ))
        return violations


class PositiveProofRevocation(Invariant):
    name = "positive-proof-revocation"
    section = "§VI Figures 4-6; docs/FAULTS.md degradation contract"
    description = (
        "Every revocation carries a recognized justification; under "
        "benign fault injection only positive-proof justifications may "
        "revoke (absence-based branches must defer to inconclusive)."
    )

    def check(self, view: ExecutionView) -> List[Violation]:
        violations: List[Violation] = []
        for event in view.revocations:
            reason = str(event.get("reason", ""))
            bucket = classify_reason(reason)
            if bucket == "unknown":
                violations.append(self.violation(
                    f"unrecognized revocation justification {reason!r} for "
                    f"{event.get('what')} {event.get('target')}",
                    reason=reason, target=event.get("target"),
                ))
            elif bucket == "absence" and view.faults_active:
                violations.append(self.violation(
                    f"absence-based revocation ({reason!r}) of "
                    f"{event.get('what')} {event.get('target')} fired while "
                    "a fault injector was active — benign mode must defer",
                    reason=reason, target=event.get("target"),
                ))
        if view.outcome == "result" and view.revocations:
            violations.append(self.violation(
                "an execution that produced a result also revoked "
                f"{len(view.revocations)} target(s) — revocation without a "
                "pinpoint trigger",
                outcome=view.outcome,
            ))
        return violations


class RevocationProgress(Invariant):
    name = "revocation-progress"
    section = "Theorems 6/7 (§VI, §VII)"
    description = (
        "Absent benign faults, every execution either answers the query "
        "or strictly shrinks the adversary's key material — and never "
        "goes inconclusive."
    )

    def check(self, view: ExecutionView) -> List[Violation]:
        if view.faults_active:
            return []  # benign degradation is allowed to stall (docs/FAULTS.md)
        violations: List[Violation] = []
        if view.outcome == "inconclusive":
            violations.append(self.violation(
                "execution went inconclusive with no fault injector "
                f"attached (reason: {view.inconclusive_reason!r})",
                reason=view.inconclusive_reason,
            ))
        elif view.outcome != "result" and not view.revocations:
            violations.append(self.violation(
                f"execution ended in {view.outcome!r} without revoking "
                "anything — Theorem 6 guarantees at least one revocation",
                outcome=view.outcome,
            ))
        return violations


class AggregateErrorBound(Invariant):
    name = "aggregate-error-bound"
    section = "Lemma 1, Theorem 1 (§V); §VIII error analysis"
    description = (
        "An accepted MIN/MAX result is bracketed by the honest-only and "
        "all-participants true values; synopsis estimates stay within "
        "the §VIII relative-error envelope absent interference."
    )

    def check(self, view: ExecutionView) -> List[Violation]:
        if view.outcome != "result" or view.faults_active:
            # Under benign faults a result may legitimately miss crashed
            # sensors' readings; the chaos store invariants cover that
            # regime instead.
            return []
        estimate = view.estimate
        honest, overall = view.honest_true, view.overall_true
        if estimate is None or honest is None or overall is None:
            return []
        if view.reachable_honest_count == 0:
            # Revocations disconnected every honest sensor from the base
            # station; the deployment assumption is gone and the result
            # covers nobody.  Nothing left to promise.
            return []
        violations: List[Violation] = []
        # What SOF's veto guarantee covers: honest sensors the base
        # station could still reach.  Stranded honest sensors (topology
        # split by an earlier revocation) cannot veto, by design.
        guaranteed = (
            view.reachable_honest_true
            if view.reachable_honest_true is not None
            else honest
        )
        if view.query in ("min", "max"):
            low, high = min(honest, overall), max(honest, overall)
            if view.query == "min":
                # Lemma 1 / SOF: a result above the reachable honest
                # minimum is impossible (its owner would have vetoed); a
                # result below every assigned reading means a forged
                # value was accepted (the registered strategies never
                # self-report below their assigned reading).
                if estimate > guaranteed + _EPS or estimate < low - _EPS:
                    violations.append(self.violation(
                        f"MIN result {estimate} escapes [{low}, {guaranteed}] "
                        "(assigned-reading floor / reachable honest minimum)",
                        estimate=estimate, honest_true=honest, overall_true=overall,
                        reachable_honest_true=view.reachable_honest_true,
                    ))
            else:
                if estimate < guaranteed - _EPS or estimate > high + _EPS:
                    violations.append(self.violation(
                        f"MAX result {estimate} escapes [{guaranteed}, {high}] "
                        "(reachable honest maximum / assigned-reading ceiling)",
                        estimate=estimate, honest_true=honest, overall_true=overall,
                        reachable_honest_true=view.reachable_honest_true,
                    ))
        elif not view.adversary_active and view.instances >= 8 and overall > 0:
            from ..core.synopses import expected_relative_error

            bound = SYNOPSIS_ERROR_MULTIPLIER * expected_relative_error(view.instances)
            rel = abs(estimate - overall) / overall
            if rel > bound:
                violations.append(self.violation(
                    f"{view.query.upper()} relative error {rel:.4f} exceeds "
                    f"{bound:.4f} (= {SYNOPSIS_ERROR_MULTIPLIER} x expected "
                    f"at m={view.instances})",
                    rel_error=rel, bound=bound, instances=view.instances,
                ))
        return violations


class ClockSyncDelta(Invariant):
    name = "clock-sync-delta"
    section = "§III synchronized-clocks assumption, §IV-A guard bands"
    description = (
        "Pairwise clock disagreement stays within Delta whenever no "
        "drift excursion is injected (online only)."
    )

    def check(self, view: ExecutionView) -> List[Violation]:
        network = view.network
        if network is None:
            return []
        clocks = network.clocks
        if clocks.drift.any():
            return []  # the injected fault *is* the excursion
        error = clocks.max_pairwise_error()
        delta = network.config.clock.max_error
        if error > delta + 1e-12:
            return [self.violation(
                f"max pairwise clock error {error:.6f} exceeds Delta = {delta}",
                max_error=error,
                delta=delta,
            )]
        return []


class BroadcastAuthenticity(Invariant):
    name = "broadcast-authenticity"
    section = "§IV authenticated broadcast ([20], μTESLA hash chains)"
    description = (
        "Every honest verifier's chain head hashes back to the deployed "
        "anchor in exactly its verified-index steps (online only)."
    )

    def check(self, view: ExecutionView) -> List[Violation]:
        network = view.network
        if network is None:
            return []
        from ..crypto.hash import verify_chain_link

        violations: List[Violation] = []
        anchor = network.authority.anchor
        indices = network.node_columns.broadcast_index
        for node_id in network.honest_sensors:
            index = int(indices[node_id])
            head = network.verified_chain_value(index)
            distance = (
                -1 if head is None else verify_chain_link(anchor, head, max_distance=index)
            )
            if distance != index:
                violations.append(self.violation(
                    f"sensor {node_id}'s verifier state is off-chain: "
                    f"verified index {index} but the chain walk gives "
                    f"{distance}",
                    node=node_id, index=index, distance=distance,
                ))
        return violations


class EdgeMacAuthenticity(Invariant):
    name = "edge-mac-authenticity"
    section = "§IV-B edge MACs over pairwise pool keys"
    description = (
        "A transmission is only ever verified under an unrevoked key its "
        "physical sender possesses and its honest receiver holds; forged "
        "sender ids only pass on adversary-held keys (checked live per "
        "frame by the monitor; re-checked per execution here)."
    )

    def check(self, view: ExecutionView) -> List[Violation]:
        network = view.network
        if network is None:
            return []
        violations: List[Violation] = []
        for event in view.events:
            if event.get("kind") != "transmission" or not event.get("verified"):
                continue
            violations.extend(check_transmission_event(self, network, event))
        return violations


def check_transmission_event(
    invariant: Invariant, network, event: Dict[str, Any]
) -> List[Violation]:
    """The per-frame §IV-B checks shared by the live monitor and the
    per-execution sweep.  ``event`` is a verified ``transmission`` trace
    event (dict form)."""
    violations: List[Violation] = []
    sender = event["sender"]
    claimed = event.get("claimed", sender)
    receiver = event["receiver"]
    key_index = event["key_index"]
    if not network.sender_possesses_key(sender, key_index):
        violations.append(invariant.violation(
            f"verified frame from {sender} under key {key_index} the "
            "sender does not possess",
            sender=sender, key_index=key_index,
        ))
    if claimed != sender and key_index not in network.adversary_pool_indices():
        violations.append(invariant.violation(
            f"sender {sender} forged claimed id {claimed} on key "
            f"{key_index} the adversary does not hold",
            sender=sender, claimed=claimed, key_index=key_index,
        ))
    if network.is_honest_sensor(receiver):
        if not network.registry.node_holds(receiver, key_index):
            violations.append(invariant.violation(
                f"receiver {receiver} verified a frame under key "
                f"{key_index} it does not hold",
                receiver=receiver, key_index=key_index,
            ))
    return violations


#: The execution-scope catalog, applied to every ExecutionView.
EXECUTION_INVARIANTS: Tuple[Invariant, ...] = (
    HonestNodeSafety(),
    PositiveProofRevocation(),
    RevocationProgress(),
    AggregateErrorBound(),
    ClockSyncDelta(),
    BroadcastAuthenticity(),
    EdgeMacAuthenticity(),
)


def check_execution(view: ExecutionView, invariants=None) -> List[Violation]:
    """Run the execution-scope catalog over one view."""
    violations: List[Violation] = []
    for invariant in (invariants if invariants is not None else EXECUTION_INVARIANTS):
        violations.extend(invariant.check(view))
    return violations
