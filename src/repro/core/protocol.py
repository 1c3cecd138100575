"""The full VMAT driver (Figure 1) and the repeated-execution session.

One :meth:`VMATProtocol.execute` is one run of Figure 1:

1. form an aggregation tree;
2. run the aggregation phase, wait for the minimum;
3. spurious minimum → junk-triggered pinpointing/revocation, return;
4. broadcast the minimum, wait for vetoes (SOF);
5. no veto → return the minimum as the correct result;
6. spurious veto → junk-triggered pinpointing/revocation, return;
7. legitimate veto → veto-triggered pinpointing/revocation, return.

:meth:`VMATProtocol.run_session` then repeats executions, which is how
Theorem 7's overall guarantee plays out operationally: every execution
either answers the query or strictly shrinks the adversary's key
material, so a persistent attacker is fully revoked after finitely many
executions and the system returns to answering every query.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..crypto.encoding import encode_parts
from ..crypto.mac import (
    DEFAULT_MAC_LENGTH,
    compute_mac_message,
    keyed_sha256_pair,
    verify_mac,
)
from ..crypto.nonce import NonceSource
from ..errors import ProtocolError
from ..keys.registry import BASE_STATION_ID
from ..keys.revocation import RevocationEvent
from ..net.message import ReadingMessage
from ..net.network import Network
from .aggregation import AggregationResult, run_aggregation
from .confirmation import ConfirmationResult, run_confirmation
from .node_columns import NO_LEVEL
from .pinpoint import Pinpointer, PinpointOutcome
from .queries import MinQuery
from .synopses import verify_synopsis
from .tree import TreeFormationResult, form_tree


def sign_instance_values(
    registry, sensor_id: int, values: Sequence[float], nonce: bytes
) -> List[ReadingMessage]:
    """A sensor's per-instance messages, MAC'd under its sensor key.

    Module-level so service node hosts (repro.service.node) install the
    byte-identical state on their replicas that the coordinator computes.
    """
    # ``store=False``: this runs once per sensor per execution, so at
    # scale it would insert one derived key and one keyed HMAC state per
    # sensor into the shared caches — a ~2%-hit-rate working set that
    # evicts the reusable pool-key entries and sits in RSS.  Keys that
    # *are* already cached (the base station's verify side) still hit.
    key = registry.sensor_key(sensor_id, store=False)
    # The MAC'd tuple is (sensor_id, instance, value, nonce); only the
    # middle two fields vary across the m instances, so encode the
    # static prefix/suffix once.  Canonical encodings concatenate, so
    # the stitched message is byte-identical to
    # encode_parts(sensor_id, instance, value, nonce).
    prefix = encode_parts(sensor_id)
    suffix = encode_parts(nonce)
    if len(values) > 1:
        # Several instances under one key: key the HMAC state once
        # locally instead of re-deriving it per instance.
        pair = keyed_sha256_pair(key, store=False)
        messages = []
        for instance, value in enumerate(values):
            h = pair[0].copy()
            h.update(prefix + encode_parts(instance, value) + suffix)
            o = pair[1].copy()
            o.update(h.digest())
            messages.append(
                ReadingMessage(
                    sensor_id=sensor_id,
                    value=value,
                    mac=o.digest()[:DEFAULT_MAC_LENGTH],
                    instance=instance,
                )
            )
        return messages
    return [
        ReadingMessage(
            sensor_id=sensor_id,
            value=value,
            mac=compute_mac_message(
                key, prefix + encode_parts(instance, value) + suffix, store=False
            ),
            instance=instance,
        )
        for instance, value in enumerate(values)
    ]


def install_execution(
    network: Network,
    readings: Dict[int, float],
    query,
    nonce: bytes,
    sign: Optional[Callable[..., List[ReadingMessage]]] = None,
    adversary=None,
) -> Dict[int, List[ReadingMessage]]:
    """Start one execution (Figure 1) on every unrevoked honest sensor.

    Clears the network's audit log, resets each sensor's level, parents
    and one-time flags, installs its reading (0.0 when ``readings``
    names none) and its query values, and returns its per-instance
    messages: ``sign(registry, sensor_id, values, nonce)``, by default
    :func:`sign_instance_values`.  ``crash_suspected`` is not touched:
    the driver resets it before the query flood, which precedes this
    call and may itself be the broadcast a sensor misses.

    With an ``adversary``, every compromised sensor (revoked or not)
    gets the same install — reading, query values, messages signed by
    the same ``sign`` — through :meth:`Adversary.begin_execution`.
    """
    sign = sign or sign_instance_values
    network.audit.clear()
    ids = network.honest_ids
    columns = network.node_columns
    columns.level[ids] = NO_LEVEL
    columns.parents_len[ids] = 0
    columns.forwarded_veto[ids] = False
    columns.forwarded_beacon[ids] = False
    own_readings = [float(readings.get(node_id, 0.0)) for node_id in ids]
    own_values: List[float] = []
    own_messages: Dict[int, List[ReadingMessage]] = {}
    for node_id, reading in zip(ids, own_readings):
        values = query.instance_values(node_id, reading, nonce)
        own_values.extend(values)
        own_messages[node_id] = sign(network.registry, node_id, values, nonce)
    m = query.num_instances
    columns.query_values = np.zeros((len(columns.reading), m))
    if ids:
        columns.reading[ids] = own_readings
        columns.query_values[ids] = np.reshape(own_values, (len(ids), m))
    if adversary is not None:
        malicious = network.malicious_ids
        mal_readings = {i: float(readings.get(i, 0.0)) for i in malicious}
        mal_values = {
            i: query.instance_values(i, mal_readings[i], nonce) for i in malicious
        }
        adversary.begin_execution(
            mal_readings,
            mal_values,
            {i: sign(network.registry, i, mal_values[i], nonce) for i in malicious},
        )
    return own_messages


class ExecutionOutcome(enum.Enum):
    """Terminal state of one Figure-1 execution.

    ``INCONCLUSIVE`` exists only under benign fault injection
    (:mod:`repro.faults`): the execution neither produced a trustworthy
    result nor gathered positive proof against anyone — e.g. no
    aggregate reached the base station through a partition, or
    pinpointing hit an absence-based branch it may not act on.  The
    session answers it by re-executing, never by revoking.
    """

    RESULT = "result"
    VETO_PINPOINT = "veto-pinpoint"
    JUNK_AGGREGATION_PINPOINT = "junk-aggregation-pinpoint"
    JUNK_CONFIRMATION_PINPOINT = "junk-confirmation-pinpoint"
    INCONCLUSIVE = "inconclusive"


@dataclass
class ExecutionResult:
    """Everything one execution produced, for callers and benches."""

    outcome: ExecutionOutcome
    query_name: str
    # Why an INCONCLUSIVE execution could not conclude (benign mode only).
    inconclusive_reason: Optional[str] = None
    estimate: Optional[float] = None
    minima: List[float] = field(default_factory=list)
    pinpoint: Optional[PinpointOutcome] = None
    tree: Optional[TreeFormationResult] = None
    # Ground truth over the readings assigned this execution (honest +
    # malicious self-reports), for correctness assertions.
    honest_true_value: Optional[float] = None
    overall_true_value: Optional[float] = None
    # Ground truth restricted to honest sensors the base station could
    # actually reach at execution start (the honest secure component).
    # The SOF veto guarantee — and therefore the aggregate-error bound
    # the invariant catalog checks — only covers *connected* honest
    # sensors: a revocation that split the topology leaves stranded
    # sensors unable to veto, by design.
    reachable_honest_true_value: Optional[float] = None
    # How many honest sensors that component contained (0 means the
    # execution could not promise anything about its result).
    reachable_honest_count: Optional[int] = None
    flooding_rounds: float = 0.0
    num_vetoers: int = 0

    @property
    def produced_result(self) -> bool:
        return self.outcome is ExecutionOutcome.RESULT

    @property
    def revocations(self) -> List[RevocationEvent]:
        return self.pinpoint.revocations if self.pinpoint is not None else []


@dataclass
class SessionResult:
    """Outcome of a repeated-execution session (Theorem 7 in action)."""

    executions: List[ExecutionResult] = field(default_factory=list)
    final_estimate: Optional[float] = None

    @property
    def executions_until_result(self) -> int:
        return len(self.executions)

    @property
    def total_revocations(self) -> int:
        return sum(len(e.revocations) for e in self.executions)


class VMATProtocol:
    """Drives VMAT executions over one network + adversary."""

    def __init__(
        self,
        network: Network,
        adversary=None,
        depth_bound: Optional[int] = None,
        tree_variant: str = "timestamp",
        nonce_seed: bytes = b"vmat-nonce-seed",
    ) -> None:
        self.network = network
        self.adversary = adversary
        self.depth_bound = (
            depth_bound if depth_bound is not None
            else network.config.protocol.depth_bound
        )
        self.tree_variant = tree_variant
        self.nonces = NonceSource(nonce_seed)

    # ------------------------------------------------------------------
    # One execution of Figure 1
    # ------------------------------------------------------------------
    def execute(self, query, readings: Dict[int, float]) -> ExecutionResult:
        """Run one execution of Figure 1 for ``query``.

        ``readings`` assigns a reading to every sensor id (honest and
        malicious; a malicious sensor's assigned reading is what it
        would report if it behaved, and what its strategy may deviate
        from).
        """
        network = self.network
        L = self.depth_bound
        rounds_before = network.metrics.flooding_rounds
        tracer = getattr(network, "tracer", None)
        if tracer is not None:
            # Ground-truth context rides along so a trace file alone is
            # enough to re-check the invariant catalog offline
            # (repro.invariants): which ids were compromised, whether a
            # fault injector / adversary was active, and the query shape.
            tracer.record(
                "execution-start",
                query=query.name,
                depth_bound=L,
                instances=query.num_instances,
                malicious=sorted(network.malicious_ids),
                faults=network.fault_injector is not None,
                adversary=self.adversary is not None,
            )

        # Benign-failure self-awareness resets at the execution boundary,
        # *before* the query flood: the query broadcast is part of this
        # execution and a node that misses it must stay suspected.
        network.node_columns.crash_suspected[:] = False
        # Service seam (repro.service): node hosts mirror the execution
        # boundary — they reset crash flags now, and install the same
        # per-execution state on their replicas right after the query
        # flood reaches them (the broadcast hook fires in between).
        driver = network.honest_driver
        if driver is not None:
            driver.execution_starting()

        # Fresh query nonce, announced with the query (Section IV-B).
        nonce = self.nonces.next()
        network.authenticated_flood("query", query.name, query.num_instances, nonce)

        # Clear the previous execution's audit trail (the pinpointing
        # that may follow an execution runs before the next one starts,
        # so the trail it needs is always intact), then install
        # per-execution state on honest sensors and the adversary's
        # compromised ones.
        own_messages = install_execution(
            network, readings, query, nonce, adversary=self.adversary
        )
        revoked = network.registry.revoked_sensors
        if driver is not None:
            driver.begin_execution(readings, query.name, query.num_instances, nonce)

        result = ExecutionResult(outcome=ExecutionOutcome.RESULT, query_name=query.name)
        participating = [i for i in readings if i not in revoked]
        result.honest_true_value = query.true_value(
            [readings[i] for i in participating if i not in network.malicious_ids]
        )
        result.overall_true_value = query.true_value(
            [readings[i] for i in participating]
        )
        component = network.honest_secure_component()
        reachable_honest = [
            readings[i]
            for i in participating
            if i not in network.malicious_ids and i in component
        ]
        result.reachable_honest_count = len(reachable_honest)
        if reachable_honest:
            result.reachable_honest_true_value = query.true_value(reachable_honest)

        # Step 1: tree formation.
        result.tree = form_tree(network, self.adversary, L, variant=self.tree_variant)

        # Step 2: aggregation.
        agg = run_aggregation(
            network,
            self.adversary,
            L,
            nonce,
            own_messages,
            query.num_instances,
            verify_minimum=lambda instance, message: self._verify_minimum(
                query, nonce, instance, message
            ),
        )
        result.minima = agg.minimum_values()

        # Steps 3-4: spurious minimum → junk-triggered pinpointing.
        if agg.junk is not None:
            instance, message, delivery = agg.junk
            pinpointer = self._pinpointer()
            result.pinpoint = pinpointer.junk_aggregation(message, delivery)
            result.outcome = ExecutionOutcome.JUNK_AGGREGATION_PINPOINT
            self._degrade_if_inconclusive(result)
            result.flooding_rounds = network.metrics.flooding_rounds - rounds_before
            self._trace_outcome(result)
            return result

        # Benign degradation (repro.faults): nothing at all reached the
        # base station — a partition or crash wave swallowed every
        # aggregate.  Broadcasting the (vacuous) minima would make every
        # surviving sensor veto and push pinpointing into walks that can
        # only end in absence-based blame; declare the execution
        # inconclusive instead and let the session retry.
        if network.fault_injector is not None and all(m is None for m in agg.minima):
            result.outcome = ExecutionOutcome.INCONCLUSIVE
            result.inconclusive_reason = "no aggregate reached the base station"
            result.flooding_rounds = network.metrics.flooding_rounds - rounds_before
            self._trace_outcome(result)
            return result

        # Step 5: broadcast the minima, wait for vetoes.
        conf = run_confirmation(network, self.adversary, L, nonce, result.minima)
        relays = set(network.audit.confirmation_receipts.node)
        forwarded = network.node_columns.forwarded_veto
        result.num_vetoers = sum(
            1 for node_id in own_messages  # the unrevoked honest sensors
            if forwarded[node_id] and node_id not in relays
        )

        # Step 6: no veto → the minimum is correct.
        if conf.silent:
            result.outcome = ExecutionOutcome.RESULT
            result.estimate = query.estimate(result.minima)
            result.flooding_rounds = network.metrics.flooding_rounds - rounds_before
            self._trace_outcome(result)
            return result

        pinpointer = self._pinpointer()
        if conf.valid_veto is not None:
            # Step 8: legitimate veto → veto-triggered pinpointing.
            veto, _delivery, _interval = conf.valid_veto
            result.pinpoint = pinpointer.veto_triggered(veto)
            result.outcome = ExecutionOutcome.VETO_PINPOINT
        else:
            # Step 7: spurious veto → junk-triggered pinpointing.
            veto, delivery, interval = conf.spurious_veto
            result.pinpoint = pinpointer.junk_confirmation(veto, delivery, interval)
            result.outcome = ExecutionOutcome.JUNK_CONFIRMATION_PINPOINT
        self._degrade_if_inconclusive(result)
        result.flooding_rounds = network.metrics.flooding_rounds - rounds_before
        self._trace_outcome(result)
        return result

    def _degrade_if_inconclusive(self, result: "ExecutionResult") -> None:
        """Fold an inconclusive pinpoint walk into the execution outcome.

        Benign mode only: the walk withheld an absence-based revocation
        (see :class:`~repro.core.pinpoint.Pinpointer`), so the execution
        as a whole concluded nothing — no result, no one punished.
        """
        pinpoint = result.pinpoint
        if pinpoint is not None and pinpoint.inconclusive and not pinpoint.revocations:
            result.outcome = ExecutionOutcome.INCONCLUSIVE
            result.inconclusive_reason = pinpoint.inconclusive_reason

    def _trace_outcome(self, result: "ExecutionResult") -> None:
        tracer = getattr(self.network, "tracer", None)
        if tracer is None:
            return
        tracer.record(
            "execution-end",
            outcome=result.outcome.value,
            query=result.query_name,
            estimate=result.estimate,
            honest_true=result.honest_true_value,
            overall_true=result.overall_true_value,
            reachable_honest_true=result.reachable_honest_true_value,
            reachable_honest_count=result.reachable_honest_count,
            inconclusive_reason=result.inconclusive_reason,
            flooding_rounds=result.flooding_rounds,
        )
        for event in result.revocations:
            tracer.record(
                "revocation",
                what=event.kind,
                target=event.target,
                reason=event.reason,
            )

    # ------------------------------------------------------------------
    # Repeated executions (Theorem 7 operationally)
    # ------------------------------------------------------------------
    def run_session(
        self,
        query,
        readings: Dict[int, float],
        max_executions: int = 10_000,
    ) -> SessionResult:
        """Repeat executions until one returns a result.

        Every non-result execution revokes at least one adversary key
        (Theorem 6), so with a finite adversary the loop terminates; the
        ``max_executions`` guard exists only to fail loudly if that
        invariant were ever broken.
        """
        session = SessionResult()
        for _ in range(max_executions):
            execution = self.execute(query, readings)
            session.executions.append(execution)
            if execution.produced_result:
                session.final_estimate = execution.estimate
                return session
            if not execution.revocations:
                if execution.outcome is ExecutionOutcome.INCONCLUSIVE:
                    # Benign degradation (repro.faults): nothing was
                    # learned and nobody may be blamed; retry.  Theorem 7
                    # holds against *adversaries*, not crashed radios.
                    continue
                raise ProtocolError(
                    "an execution neither produced a result nor revoked "
                    "anything — Theorem 7 violated"
                )
        raise ProtocolError(
            f"no result after {max_executions} executions; the adversary "
            "should have been fully revoked long before this"
        )

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _pinpointer(self) -> Pinpointer:
        # Benign mode tracks the fault injector: only when benign
        # failures are actually possible do the absence-based blame
        # branches become unsound (and get deferred).  Fault-free runs
        # keep the paper's strict Theorem-6 behaviour bit-for-bit.
        return Pinpointer(
            self.network,
            self.adversary,
            self.depth_bound,
            self.nonces,
            benign_mode=self.network.fault_injector is not None,
        )

    def _verify_minimum(self, query, nonce: bytes, instance: int, message: ReadingMessage) -> bool:
        """Base-station check on a candidate minimum (Figure 1, step 4):
        a plausible unrevoked origin, a valid sensor-key MAC, and (for
        synopsis queries) a value some legal reading could produce."""
        network = self.network
        sensor_id = message.sensor_id
        if not 1 <= sensor_id < network.topology.num_nodes:
            return False
        if network.registry.revocation.is_sensor_revoked(sensor_id):
            return False
        if not verify_mac(
            network.registry.sensor_key(sensor_id),
            message.mac,
            sensor_id,
            message.instance,
            message.value,
            nonce,
        ):
            return False
        domain = query.instance_reading_domain(instance)
        if domain is None:
            return True
        if domain == "config":
            protocol = network.config.protocol
            low, high = max(1, protocol.reading_min), protocol.reading_max
        else:
            low, high = domain
        return verify_synopsis(nonce, sensor_id, instance, message.value, low, high)
