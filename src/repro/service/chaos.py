"""Seeded chaos harness for the service runtime.

Injects process-level and transport-level failures into a live service
session on a *deterministic* schedule, then checks that the resilience
layer (``runtime.py``) holds its contract:

* within the restart budget the session's protocol-level outcome is
  **bit-for-bit identical** to an undisturbed run (the journal-replay
  equivalence claim);
* past the budget the session still completes — INCONCLUSIVE, no
  exception, no hang — and ``repro.invariants`` honest-node-safety holds
  (a dead host's sensors are benign crash faults, never "malicious");
* two runs of the same plan produce identical outcome documents
  (zero-tolerance diff in CI).

Fault vocabulary (all schedule points are deterministic — global
interval indices, control-record counts, connect-attempt counts — never
wall-clock):

:class:`KillHost`
    SIGKILL (or SIGSTOP, for hung-host detection) one host immediately
    before the tick of a given global interval.
:class:`ResetControl`
    Hard TCP reset (``SO_LINGER`` abort) of one host's control channel
    after the coordinator has sent it N records — exercises mid-session
    channel loss where *both* sides may have partial state.
:class:`RefuseConnect`
    The targeted incarnation's control connect sees N synthetic
    ``ConnectionRefusedError``\\ s before succeeding — exercises the
    seeded retry/backoff path without racing a real listener.

Run it from the CLI: ``python -m repro service chaos --profile kill``.
"""

from __future__ import annotations

import signal
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..errors import ConfigError, ServiceError
from ..seeding import derive_rng
from .resilience import CHAOS_REFUSE_ENV
from .spec import ServiceSpec, query_by_name

PROFILES = ("kill", "stop", "reset", "flaky", "mixed")


# ----------------------------------------------------------------------
# Plan vocabulary
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class KillHost:
    """Kill (or stop) ``host`` just before the tick of ``interval``."""

    host: int
    interval: int  # global (cumulative) interval index, 1-based
    stop: bool = False  # SIGSTOP instead of SIGKILL: hung, not dead

    def to_dict(self) -> Dict[str, object]:
        return {"kind": "kill", "host": self.host,
                "interval": self.interval, "stop": self.stop}


@dataclass(frozen=True)
class ResetControl:
    """RST ``host``'s control channel after it has been sent
    ``after_records`` control records (counted per incarnation's channel,
    fires once per plan entry)."""

    host: int
    after_records: int

    def to_dict(self) -> Dict[str, object]:
        return {"kind": "reset", "host": self.host,
                "after_records": self.after_records}


@dataclass(frozen=True)
class RefuseConnect:
    """``host``'s incarnation number ``incarnation`` fails its first
    ``attempts`` control-connect attempts with a synthetic refusal."""

    host: int
    incarnation: int
    attempts: int

    def to_dict(self) -> Dict[str, object]:
        return {"kind": "refuse", "host": self.host,
                "incarnation": self.incarnation, "attempts": self.attempts}


@dataclass(frozen=True)
class ChaosPlan:
    """One deterministic failure schedule for one service session."""

    name: str
    kills: Tuple[KillHost, ...] = ()
    resets: Tuple[ResetControl, ...] = ()
    refusals: Tuple[RefuseConnect, ...] = ()

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "kills": [k.to_dict() for k in self.kills],
            "resets": [r.to_dict() for r in self.resets],
            "refusals": [r.to_dict() for r in self.refusals],
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "ChaosPlan":
        return cls(
            name=str(payload["name"]),
            kills=tuple(
                KillHost(host=int(k["host"]), interval=int(k["interval"]),
                         stop=bool(k.get("stop", False)))
                for k in payload.get("kills", ())
            ),
            resets=tuple(
                ResetControl(host=int(r["host"]),
                             after_records=int(r["after_records"]))
                for r in payload.get("resets", ())
            ),
            refusals=tuple(
                RefuseConnect(host=int(r["host"]),
                              incarnation=int(r["incarnation"]),
                              attempts=int(r["attempts"]))
                for r in payload.get("refusals", ())
            ),
        )


def seeded_chaos_plan(
    spec: ServiceSpec, seed: int, profile: str = "kill"
) -> ChaosPlan:
    """Derive a chaos plan from ``(spec.seed, seed, profile)``.

    The schedule is a pure function of its inputs — two calls with the
    same arguments return the same plan, which is what makes the CI
    double-run diff meaningful.
    """
    if profile not in PROFILES:
        raise ConfigError(f"unknown chaos profile {profile!r}; known: {PROFILES}")
    rng = derive_rng("service-chaos", spec.seed, seed, profile)
    host = rng.randrange(spec.processes)
    interval = 2 + rng.randrange(5)  # early enough that every phase kind runs after
    kills: Tuple[KillHost, ...] = ()
    resets: Tuple[ResetControl, ...] = ()
    refusals: Tuple[RefuseConnect, ...] = ()
    if profile in ("kill", "mixed"):
        kills += (KillHost(host=host, interval=interval),)
    if profile == "stop":
        kills += (KillHost(host=host, interval=interval, stop=True),)
    if profile in ("reset", "mixed"):
        target = rng.randrange(spec.processes)
        resets += (ResetControl(host=target, after_records=5 + rng.randrange(20)),)
    if profile in ("flaky", "mixed"):
        target = rng.randrange(spec.processes)
        refusals += (
            RefuseConnect(host=target, incarnation=1, attempts=1 + rng.randrange(2)),
        )
    if profile == "flaky":
        resets += (ResetControl(host=host, after_records=5 + rng.randrange(20)),)
    return ChaosPlan(
        name=f"{profile}-s{seed}", kills=kills, resets=resets, refusals=refusals
    )


# ----------------------------------------------------------------------
# Controller: the runtime's chaos hooks
# ----------------------------------------------------------------------
class ChaosController:
    """Fires a :class:`ChaosPlan` through the runtime's three hook points.

    Every hook keys off deterministic counters (global interval, records
    sent on a channel, incarnation number), so the induced failure —
    and therefore the recovery trace — is identical across runs.
    """

    def __init__(self, plan: ChaosPlan) -> None:
        self.plan = plan
        self._fired_kills: Set[int] = set()
        self._fired_resets: Set[int] = set()

    def spawn_env(self, host_index: int, incarnation: int) -> Optional[Dict[str, str]]:
        """Environment overrides for one spawned host incarnation."""
        attempts = sum(
            r.attempts
            for r in self.plan.refusals
            if r.host == host_index and r.incarnation == incarnation
        )
        if attempts <= 0:
            return None
        return {CHAOS_REFUSE_ENV: str(attempts)}

    def before_tick(self, runtime) -> None:
        """Deliver scheduled kills/stops at their global interval."""
        now = runtime.network.metrics.intervals_elapsed
        for position, kill in enumerate(self.plan.kills):
            if position in self._fired_kills or kill.interval > now:
                continue
            self._fired_kills.add(position)
            if kill.host in runtime.dead_hosts:
                continue
            sig = signal.SIGSTOP if kill.stop else signal.SIGKILL
            runtime.retry_trace.append(
                ("chaos-kill", kill.host, now, "stop" if kill.stop else "kill")
            )
            runtime.supervisor.signal_host(kill.host, sig)

    def on_record_sent(self, runtime, host_index: int, channel) -> None:
        """Abort the control channel at its scheduled record count."""
        for position, reset in enumerate(self.plan.resets):
            if position in self._fired_resets:
                continue
            if reset.host != host_index:
                continue
            if channel.records_sent < reset.after_records:
                continue
            self._fired_resets.add(position)
            runtime.retry_trace.append(
                ("chaos-reset", host_index, channel.records_sent)
            )
            channel.abort()


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------
@dataclass
class ChaosReport:
    """Outcome of one chaos session, in diff-stable form."""

    outcome: Dict[str, object]
    safety_violations: List[str] = field(default_factory=list)

    @property
    def safe(self) -> bool:
        return not self.safety_violations


def run_chaos(
    spec: ServiceSpec,
    plan: ChaosPlan,
    query_name: str = "min",
    attack: Optional[str] = None,
    max_executions: int = 50,
) -> ChaosReport:
    """One full service session with ``plan``'s failures injected.

    Returns a :class:`ChaosReport` whose ``outcome`` dict is canonical:
    every field is a pure function of ``(spec, plan, query, attack)``,
    so two runs must serialize identically (the CI zero-tolerance diff).
    Honest-node-safety is checked over every execution; violations make
    the report unsafe but are returned, not raised.
    """
    from ..invariants import ExecutionView, HonestNodeSafety
    from .runtime import (
        ServiceRuntime,
        _build_protocol,
        _session_loop,
        default_readings,
        strip_runtime_metrics,
    )

    spec.validate()
    deployment, protocol = _build_protocol(spec, attack)
    network = deployment.network
    query = query_by_name(query_name)
    readings = default_readings(spec)

    runtime = ServiceRuntime(network, spec)
    runtime.chaos = ChaosController(plan)
    runtime.launch()
    try:
        executions, estimate = _session_loop(
            protocol, query, readings, max_executions,
            time_metrics=network.metrics, runtime=runtime,
        )
    finally:
        errors = runtime.finish()
    if errors:
        raise ServiceError("chaos teardown reported: " + "; ".join(errors))

    checker = HonestNodeSafety()
    violations: List[str] = []
    malicious = frozenset(spec.malicious_ids)
    for index, execution in enumerate(executions):
        view = ExecutionView(
            query=query_name,
            outcome=execution.outcome.value,
            malicious=malicious,
            faults_active=True,
            adversary_active=attack is not None,
            revocations=tuple(
                {"what": ev.kind, "target": ev.target, "reason": ev.reason}
                for ev in execution.revocations
            ),
            network=network if index == len(executions) - 1 else None,
        )
        violations.extend(str(v) for v in checker.check(view))

    outcome: Dict[str, object] = {
        "plan": plan.to_dict(),
        "query": query_name,
        "attack": attack,
        "estimate": estimate,
        "outcomes": [e.outcome.value for e in executions],
        "revocations": [
            [ev.kind, ev.target, ev.reason]
            for e in executions
            for ev in e.revocations
        ],
        "num_executions": len(executions),
        "restarts": {str(k): v for k, v in sorted(runtime.restarts_used.items())},
        "degraded_hosts": sorted(runtime.dead_hosts),
        "retry_trace": [list(item) for item in runtime.retry_trace],
        "host_events": {
            str(k): int(v)
            for k, v in sorted(network.metrics.host_events.items())
        },
        "metrics": strip_runtime_metrics(network.metrics.to_dict()),
        "honest_node_safety": {"ok": not violations, "violations": violations},
    }
    return ChaosReport(outcome=outcome, safety_violations=violations)
