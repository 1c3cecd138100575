"""The service coordinator: the unmodified protocol over real processes.

:class:`ServiceRuntime` is the *driver* the core phase loops hand their
honest step to when ``network.honest_driver`` is set
(:func:`repro.core.phase_state.honest_step`).  The coordinator process
keeps the base station, the adversary and a complete mirror of every
frame (so the in-process protocol logic — aggregation decisions, veto
classification, pinpointing — runs unchanged); each phase's honest step
runs on node-host OS processes (:mod:`repro.service.node`), each over
its hosted shard, speaking the byte-level frame encodings over
length-prefixed TCP.

Interval discipline (one ``tick``/``deliver`` round trip per slot):

* ``tick k`` — every host runs its hosted sensors' sends for interval
  ``k`` concurrently, ships cross-host frames peer-to-peer, and reports
  *all* frames up; the coordinator folds them into its mirror store in
  the canonical ``(band, order, subseq)`` order.
* ``deliver k`` — the coordinator ships its own deposits (base-station
  and adversary frames) down, hosts run acceptance, and the step's
  report rows (tree levels and parents; vetoers come back with
  ``phase-begin``) feed the coordinator's copy of the step.

Frames the coordinator deposits get *band 0* before the tick (adversary
hooks that run first in the interval, sends into future intervals) and
*band 2* after it (the tree phase's post-tick adversary) — reproducing
the simulator's chronological deposit order on every inbox.

Revocations are the one piece of registry state that must not drift:
:class:`_SyncingRegistry` wraps the coordinator's registry so every
``revoke_key``/``revoke_sensor`` is replayed on all replicas (the
θ-threshold cascade then re-derives identically everywhere).
"""

from __future__ import annotations

import dataclasses
import json
import socket
import time
import weakref
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.protocol import ExecutionOutcome, VMATProtocol
from ..errors import ConfigError, HostChannelError, ProtocolError, ServiceError
from ..faults import FaultInjector
from ..faults.plan import FaultPlan, NodeCrash
from ..metrics import Metrics
from ..net.soa import SoATransport, block_rows
from .resilience import (
    DEGRADE_HORIZON,
    ControlTimeouts,
    JournalEntry,
    control_timeout,
    shutdown_grace,
)
from .spec import ServiceSpec, query_by_name
from .supervisor import Supervisor
from .wire import RecordChannel, delivery_envelope, envelope_sort_key, \
    ingest_envelope

#: Attack names (CLI-level) -> (strategy registry name, predtest policy).
ATTACKS = {
    "drop": ("drop-minimum", "deny"),
    "junk": ("junk-minimum", "truthful"),
    "spurious-veto": ("spurious-veto", "truthful"),
    "hide": ("hide-and-veto", "truthful"),
}


class CoordinatorTransport(SoATransport):
    """The coordinator's frame store: the full mirror, plus down-shipping.

    Every deposit lands in the column store (so the base station and the
    adversary read exactly what the simulator would have shown them);
    rows addressed to a *hosted* sensor are additionally packed for
    shipment to that sensor's host on the next ``deliver``.
    """

    __slots__ = ("runtime", "_phase", "_last_batch")

    def __init__(self, runtime: "ServiceRuntime", phase) -> None:
        super().__init__()
        self.runtime = runtime
        # Weak: the phase owns this store, and a strong back-reference
        # would leave every finished phase for the cyclic collector.
        self._phase = weakref.ref(phase)
        self._last_batch = None

    def deposit(self, interval, batches, counts, receivers, key_indices, verdicts) -> None:
        super().deposit(interval, batches, counts, receivers, key_indices, verdicts)
        runtime = self.runtime
        if interval > self._phase().current_interval or not runtime.tick_done:
            band = 0  # lands before the interval's honest sends
        else:
            band = 2  # post-tick (tree-phase adversary): after honest sends
        for batch, receiver, key_index, _ in block_rows(
            batches, counts, receivers, key_indices, verdicts
        ):
            host = runtime.host_of.get(receiver)
            if host is None:
                continue  # base station or malicious sensor: coordinator-local
            runtime.order_counter += 1
            env = delivery_envelope(
                batch, receiver, key_index, interval, band, runtime.order_counter, 0
            )
            runtime.pending_ship.setdefault(host, []).append(env)

    def ingest(self, env) -> None:
        """Fold one host-reported frame into the mirror as one row (no
        re-shipping)."""
        interval, receiver, _band, _order, _subseq, _sender, key_index, _mac, _payload = env
        batch, verified = ingest_envelope(self._phase(), env, self._last_batch)
        self._last_batch = batch
        super().deposit(interval, (batch,), (1,), (receiver,), (key_index,), (verified,))


class _SyncingRegistry:
    """Registry proxy that replays revocations on every node host.

    Only the two entry points pinpointing uses are intercepted; the
    θ-threshold cascade runs *inside* the registry on each process and
    re-derives the same follow-on revocations deterministically.
    """

    def __init__(self, registry, runtime: "ServiceRuntime") -> None:
        self._registry = registry
        self._runtime = runtime

    def revoke_key(self, index: int, reason: str = "pinpointed"):
        events = self._registry.revoke_key(index, reason=reason)
        self._runtime.sync_revocation("key", index, reason)
        return events

    def revoke_sensor(self, sensor_id: int, reason: str = "pinpointed"):
        events = self._registry.revoke_sensor(sensor_id, reason=reason)
        self._runtime.sync_revocation("sensor", sensor_id, reason)
        return events

    def __getattr__(self, name):
        return getattr(self._registry, name)


class ServiceRuntime:
    """Launches node hosts and drives them in lockstep with the protocol.

    Resilience model (docs/SERVICE.md, "Failure semantics"): every
    control exchange is journaled before it is sent, and the lockstep
    discipline (at most one un-acknowledged record per host) means a
    failed host has acknowledged *exactly* the journal minus the
    in-flight entry.  Recovery is therefore: kill + respawn the host
    (budget permitting), replay the acknowledged prefix — every control
    record drives a deterministic recomputation, so the fresh replica
    converges to the dead incarnation's exact state — then re-issue the
    in-flight record live.  A host that exhausts its restart budget is
    degraded instead: its sensors become synthesized benign crash faults
    and the session completes INCONCLUSIVE-safe.
    """

    def __init__(self, network, spec: ServiceSpec, spawn_hosts: bool = True) -> None:
        spec.validate()
        if not spawn_hosts and spec.control_port == 0:
            raise ConfigError(
                "externally-started hosts need a fixed control_port in the spec"
            )
        self.network = network
        self.spec = spec
        self.spawn_hosts = spawn_hosts
        self.host_of = spec.host_of_map()
        self.channels: Dict[int, RecordChannel] = {}
        self.supervisor: Optional[Supervisor] = None
        self.server: Optional[socket.socket] = None
        self.phase = None
        self.tick_done = False
        self.order_counter = 0
        self.pending_ship: Dict[int, List[tuple]] = {}
        self._interval_started = 0.0
        self._raw_registry = None
        # Resilience state.
        self.timeouts = ControlTimeouts.from_spec(spec)
        self.journal: List[JournalEntry] = []
        self.dead_hosts: set = set()
        self.restarts_used: Dict[int, int] = {}
        self.incarnation: Dict[int, int] = {}
        self.peer_ports: List[int] = []
        self.retry_trace: List[tuple] = []
        self.chaos = None  # ChaosController, attached by run_chaos
        self._spec_json: Optional[str] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _count_wire(self, nbytes: int, frames: int) -> None:
        self.network.metrics.record_wire(nbytes, frames)

    def launch(self) -> None:
        spec = self.spec
        server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        server.bind((spec.host, spec.control_port))
        server.listen(spec.processes)
        server.settimeout(control_timeout(spec))
        control_port = server.getsockname()[1]
        child_spec = dataclasses.replace(spec, control_port=control_port)
        spec_json = child_spec.to_json()
        self._spec_json = spec_json

        self.supervisor = Supervisor(grace=shutdown_grace(spec))
        try:
            if self.spawn_hosts:
                for host_index in range(spec.processes):
                    self.incarnation[host_index] = 1
                    extra_env = None
                    if self.chaos is not None:
                        extra_env = self.chaos.spawn_env(host_index, 1)
                    self.supervisor.spawn_host(
                        host_index, spec_json, extra_env=extra_env
                    )
            by_index: Dict[int, RecordChannel] = {}
            peer_ports = [0] * spec.processes
            for _ in range(spec.processes):
                try:
                    conn, _addr = server.accept()
                except socket.timeout:
                    raise ServiceError(
                        f"only {len(by_index)}/{spec.processes} node hosts "
                        "connected before the control timeout "
                        f"({len(self.supervisor.alive())} still alive)"
                    ) from None
                channel = RecordChannel(
                    conn, on_wire=self._count_wire, timeouts=self.timeouts
                )
                hello = channel.recv()
                if hello[0] != "hello":
                    raise ServiceError(f"expected hello, got {hello[0]!r}")
                _tag, host_index, peer_port = hello
                by_index[host_index] = channel
                peer_ports[host_index] = peer_port
            self.peer_ports = peer_ports
            for i in range(spec.processes):
                self._wire_channel(i, by_index[i])
            ports = tuple(peer_ports)
            for i in range(spec.processes):
                self._send_to(i, ("peers", ports))
            for i in range(spec.processes):
                self._expect_ok(self.channels[i])
        except Exception:
            self.supervisor.shutdown()
            server.close()
            raise
        self.server = server

        network = self.network
        network.transport_factory = lambda phase: CoordinatorTransport(self, phase)
        network.honest_driver = self
        network.broadcast_hook = self._on_broadcast
        self._raw_registry = network.registry
        network.registry = _SyncingRegistry(self._raw_registry, self)

    def finish(self) -> List[str]:
        """Tear everything down; returns (non-fatal) host error strings.

        No recovery is attempted here — a host that cannot answer the
        shutdown request is simply reported.  Exit codes land in
        host-event accounting, except for incarnations the runtime
        killed on purpose (restarts, degradations, chaos): their
        SIGKILL exit status is expected and carries no information.
        """
        errors: List[str] = []
        answered: List[int] = []
        for i in sorted(self.channels):
            channel = self.channels[i]
            try:
                record = channel.request("shutdown")
                if record[0] == "metrics":
                    answered.append(i)
                    self.network.metrics.merge(
                        Metrics.from_dict(json.loads(record[1]))
                    )
                else:
                    errors.append(f"expected metrics record, got {record[0]!r}")
            except ServiceError as exc:
                errors.append(str(exc))
            channel.close()
        self.channels = {}
        if self.supervisor is not None:
            # Hosts that answered are exiting on their own; let them
            # finish before the SIGTERM sweep instead of racing them.
            self.supervisor.reap_exiting(answered)
            for host_exit in self.supervisor.shutdown_report():
                if host_exit.expected:
                    continue
                if host_exit.host_index >= 0:
                    self.network.metrics.record_host_event(
                        f"host-{host_exit.host_index}.exit:{host_exit.returncode}"
                    )
                if host_exit.returncode != 0:
                    errors.append(
                        f"node host exited with status {host_exit.returncode}"
                    )
            self.supervisor = None
        if self.server is not None:
            self.server.close()
            self.server = None
        network = self.network
        network.transport_factory = None
        network.honest_driver = None
        network.broadcast_hook = None
        if self._raw_registry is not None:
            network.registry = self._raw_registry
            self._raw_registry = None
        return errors

    def _expect_ok(self, channel: RecordChannel) -> None:
        record = channel.recv()
        if record[0] != "ok":
            raise ServiceError(f"expected ok, got {record[0]!r}")

    # ------------------------------------------------------------------
    # Journaled exchanges + host recovery
    # ------------------------------------------------------------------
    def _live_indices(self) -> List[int]:
        return [
            i for i in range(self.spec.processes) if i not in self.dead_hosts
        ]

    def _probe_host(self, i: int) -> None:
        """Liveness probe run between recv poll slices: a reaped child
        means the channel can never produce another record."""
        supervisor = self.supervisor
        if supervisor is None:
            return
        code = supervisor.poll_host(i)
        if code is not None:
            raise HostChannelError(f"host {i} process exited with status {code}")

    def _wire_channel(self, i: int, channel: RecordChannel) -> None:
        channel.liveness = lambda: self._probe_host(i)
        self.channels[i] = channel

    def _send_to(self, i: int, record: tuple) -> None:
        channel = self.channels[i]
        channel.send(*record)
        if self.chaos is not None:
            self.chaos.on_record_sent(self, i, channel)

    def _exchange(self, entry: JournalEntry) -> Dict[int, tuple]:
        """One lockstep control exchange with every live host.

        Journal first, then send to all, then collect from all; hosts
        whose channel fails at either step are recovered *after* the
        healthy hosts' replies are in (their mirrored frames feed a
        restarted host's catch-up).  Hosts that exhaust their restart
        budget are degraded, and the degradation record is itself
        exchanged (and journaled) once the entry completes, so live
        hosts and any future replay install identical crash faults.
        """
        self.journal.append(entry)
        live = self._live_indices()
        replies: Dict[int, tuple] = {}
        failed: List[int] = []
        for i in live:
            try:
                self._send_to(i, entry.record_for(i))
            except HostChannelError:
                failed.append(i)
        for i in live:
            if i in failed:
                continue
            try:
                replies[i] = self.channels[i].recv()
            except HostChannelError:
                failed.append(i)
        newly_dead: List[tuple] = []
        for i in sorted(failed):
            reply = self._recover_host(i, entry, replies, newly_dead)
            if reply is not None:
                replies[i] = reply
        if entry.kind == "tick" and entry.up is None:
            up = [
                env
                for record in replies.values()
                if record and record[0] == "tick-done"
                for env in record[1]
            ]
            up.sort(key=envelope_sort_key)
            entry.up = tuple(up)
        for degrade_info in newly_dead:
            self._announce_degrade(degrade_info)
        return replies

    def _recover_host(
        self,
        i: int,
        entry: JournalEntry,
        replies: Dict[int, tuple],
        newly_dead: List[tuple],
    ) -> Optional[tuple]:
        """Restart host ``i`` and return its reply to the in-flight
        ``entry``, or ``None`` after marking it dead (budget exhausted)."""
        while True:
            if self.restarts_used.get(i, 0) >= self.spec.restart_budget:
                newly_dead.append(self._mark_dead(i))
                return None
            self.restarts_used[i] = self.restarts_used.get(i, 0) + 1
            self.network.metrics.record_host_event(f"host-{i}.restart")
            self.retry_trace.append(("restart", i, self.restarts_used[i]))
            try:
                return self._restart_and_replay(i, entry, replies, newly_dead)
            except HostChannelError:
                continue  # the new incarnation failed too; burn another restart

    def _restart_and_replay(
        self,
        i: int,
        entry: JournalEntry,
        replies: Dict[int, tuple],
        newly_dead: List[tuple],
    ) -> tuple:
        assert self.journal and self.journal[-1] is entry
        old = self.channels.pop(i, None)
        if old is not None:
            old.close()
        supervisor = self.supervisor
        assert supervisor is not None
        supervisor.kill_host(i)
        self.incarnation[i] = self.incarnation.get(i, 1) + 1
        extra_env = None
        if self.chaos is not None:
            extra_env = self.chaos.spawn_env(i, self.incarnation[i])
        assert self._spec_json is not None
        supervisor.spawn_host(i, self._spec_json, extra_env=extra_env)
        assert self.server is not None
        try:
            conn, _addr = self.server.accept()
        except socket.timeout:
            raise HostChannelError(
                f"restarted host {i} did not reconnect within the control timeout"
            ) from None
        channel = RecordChannel(
            conn, on_wire=self._count_wire, timeouts=self.timeouts
        )
        hello = channel.recv()
        if hello[0] != "hello" or hello[1] != i:
            channel.close()
            raise ServiceError(
                f"expected hello from restarted host {i}, got {hello!r}"
            )
        self.peer_ports[i] = hello[2]
        self._wire_channel(i, channel)
        # Replay the acknowledged prefix: deterministic recomputation,
        # replies are read (an "error" record would raise) and discarded.
        for past in self.journal[:-1]:
            self._send_to(i, self._replay_record(past, i))
            channel.recv()
        # Fresh peer plumbing: the new incarnation listens on a new port.
        self._send_to(i, ("peers", tuple(self.peer_ports)))
        self._expect_ok(channel)
        self._renotify_peers(i, entry, replies, newly_dead)
        # Re-issue the in-flight record live and adopt its reply.
        self._send_to(i, self._reissue_record(entry, i, replies))
        return channel.recv()

    def _renotify_peers(
        self,
        restarted: int,
        entry: JournalEntry,
        replies: Dict[int, tuple],
        newly_dead: List[tuple],
    ) -> None:
        """Push the updated port table to every other live host.

        A host that fails *here* already acknowledged the in-flight
        entry, so its recovery re-issues that entry too; the returned
        reply is a deterministic duplicate of the one already collected
        and replaces it in ``replies`` (identical content).
        """
        ports = tuple(self.peer_ports)
        for j in self._live_indices():
            if j == restarted or j not in self.channels:
                continue
            try:
                self._send_to(j, ("peers", ports))
                self._expect_ok(self.channels[j])
            except HostChannelError:
                reply = self._recover_host(j, entry, replies, newly_dead)
                if reply is not None:
                    replies[j] = reply

    def _replay_record(self, past: JournalEntry, i: int) -> tuple:
        if past.kind == "tick":
            assert past.record is not None
            return ("replay-tick", past.record[1], self._tick_foreign(i, past, None))
        return past.record_for(i)

    def _reissue_record(
        self, entry: JournalEntry, i: int, replies: Dict[int, tuple]
    ) -> tuple:
        if entry.kind == "tick":
            assert entry.record is not None
            return (
                "catchup-tick",
                entry.record[1],
                self._tick_foreign(i, entry, replies),
            )
        return entry.record_for(i)

    def _tick_foreign(
        self,
        host_index: int,
        entry: JournalEntry,
        replies: Optional[Dict[int, tuple]],
    ) -> tuple:
        """Frames host ``host_index`` must receive for a tick it re-runs:
        addressed to one of its sensors, sent by a sensor it does not
        itself recompute.  From the completed entry's ``up`` mirror when
        available, else from the in-flight replies collected so far."""
        envs = entry.up
        if envs is None:
            collected = [
                env
                for record in (replies or {}).values()
                if record and record[0] == "tick-done"
                for env in record[1]
            ]
            collected.sort(key=envelope_sort_key)
            envs = tuple(collected)
        host_of = self.host_of
        return tuple(
            env
            for env in envs
            if host_of.get(env[1]) == host_index
            and host_of.get(env[5]) != host_index
        )

    # ------------------------------------------------------------------
    # Degradation: dead host -> synthesized benign crash faults
    # ------------------------------------------------------------------
    def _mark_dead(self, i: int) -> tuple:
        """Declare host ``i`` dead and install its sensors' crash faults
        on the coordinator; returns the info for the journaled announce."""
        self.dead_hosts.add(i)
        channel = self.channels.pop(i, None)
        if channel is not None:
            channel.close()
        if self.supervisor is not None:
            self.supervisor.kill_host(i)
        metrics = self.network.metrics
        metrics.record_host_event(f"host-{i}.degraded")
        self.retry_trace.append(("degrade", i))
        now = max(1, metrics.intervals_elapsed)
        crashed = tuple(
            sensor for sensor, host in sorted(self.host_of.items()) if host == i
        )
        self._install_crash_faults(now, crashed)
        return (i, now, crashed)

    def _install_crash_faults(self, now: int, crashed: Tuple[int, ...]) -> None:
        events = tuple(
            NodeCrash(start=now, end=DEGRADE_HORIZON, node=sensor)
            for sensor in crashed
        )
        network = self.network
        injector = network.fault_injector
        if injector is None:
            injector = FaultInjector(
                FaultPlan(name="host-degradation", events=events),
                seed=self.spec.fault_seed,
            ).attach(network)
        else:
            injector.extend_events(events)
        injector.advance_to(now)

    def _announce_degrade(self, degrade_info: tuple) -> None:
        """Journal + broadcast the degradation so every live host (and
        any future replay) installs the same synthesized crash faults."""
        _i, now, crashed = degrade_info
        replies = self._exchange(
            JournalEntry("degrade", ("degrade", now, crashed))
        )
        for record in replies.values():
            if record[0] != "ok":
                raise ServiceError(f"degrade not applied: {record[0]!r}")

    # ------------------------------------------------------------------
    # Cross-process side channels
    # ------------------------------------------------------------------
    def _on_broadcast(self, payload: tuple) -> None:
        replies = self._exchange(JournalEntry("broadcast", ("broadcast", payload)))
        for record in replies.values():
            if record[0] != "ok":
                raise ServiceError(f"broadcast not applied: {record[0]!r}")

    def sync_revocation(self, what: str, target: int, reason: str) -> None:
        replies = self._exchange(
            JournalEntry("revoke", ("revoke", what, target, reason))
        )
        for record in replies.values():
            if record[0] != "ok":
                raise ServiceError(f"revocation not applied: {record[0]!r}")

    # ------------------------------------------------------------------
    # Driver interface (called by the core phase loops)
    # ------------------------------------------------------------------
    def execution_starting(self) -> None:
        replies = self._exchange(
            JournalEntry("execution-starting", ("execution-starting",))
        )
        for record in replies.values():
            if record[0] != "ok":
                raise ServiceError(f"execution reset failed: {record[0]!r}")

    def begin_execution(self, readings, query_name, num_instances, nonce) -> None:
        pairs = tuple(
            (int(node_id), float(value))
            for node_id, value in sorted(readings.items())
        )
        replies = self._exchange(
            JournalEntry(
                "begin-execution",
                ("begin-execution", pairs, query_name, num_instances, nonce),
            )
        )
        for record in replies.values():
            if record[0] != "ok":
                raise ServiceError(f"begin-execution failed: {record[0]!r}")

    def phase_begin(self, mirror, args: tuple) -> "_HostedStep":
        """Start ``mirror``'s phase on every host, each building the same
        step over its hosted shard from ``args``; returns the step the
        phase loop drives."""
        phase = mirror.phase
        self.phase = phase
        self.tick_done = False
        self.pending_ship = {}
        replies = self._exchange(
            JournalEntry(
                "phase-begin", ("phase-begin", phase.name, phase.num_intervals, args)
            )
        )
        for i in sorted(replies):
            if replies[i][0] != "phase-begun":
                raise ServiceError(f"phase-begin failed: {replies[i][0]!r}")
            mirror.absorb(replies[i][1])
        return _HostedStep(self, mirror)

    def tick(self, k: int) -> None:
        self._interval_started = time.perf_counter()
        if self.chaos is not None:
            self.chaos.before_tick(self)
        entry = JournalEntry("tick", ("tick", k))
        replies = self._exchange(entry)
        for record in replies.values():
            if record[0] != "tick-done":
                raise ServiceError(f"tick failed: {record[0]!r}")
        # Honest frames are (band 1, sender id, per-host seq): the global
        # sort (done by _exchange when it fills entry.up) reproduces the
        # simulator's ascending-sender send order.
        transport = self.phase.transport
        for env in entry.up or ():
            transport.ingest(env)
        self.tick_done = True

    def deliver(self, k: int) -> List[tuple]:
        """Ship the coordinator's frames down and run the hosts'
        acceptance; returns each host's reported rows, by host index."""
        pending = self.pending_ship
        self.pending_ship = {}
        # Journal a record for *every* host index (not just live ones):
        # the per-host down-frames are part of the deterministic replay a
        # future restart needs, whichever host it is for.
        per_host = {
            i: ("deliver", k, tuple(pending.get(i, ())))
            for i in range(self.spec.processes)
        }
        replies = self._exchange(JournalEntry("deliver", per_host=per_host))
        for record in replies.values():
            if record[0] != "deliver-done":
                raise ServiceError(f"deliver failed: {record[0]!r}")
        self.tick_done = False
        self.network.metrics.record_wall_clock(
            self.phase.name, time.perf_counter() - self._interval_started
        )
        return [replies[i][1] for i in sorted(replies)]

    def phase_end(self) -> None:
        replies = self._exchange(JournalEntry("phase-end", ("phase-end",)))
        for record in replies.values():
            if record[0] != "ok":
                raise ServiceError(f"phase-end failed: {record[0]!r}")
        self.phase = None


class _HostedStep:
    """A phase's honest step running on the node hosts.

    ``tick``/``deliver`` drive the hosts; ``mirror`` — the same step
    over no ids — absorbs the rows they report, and every other
    attribute (``TreeColumns.install``) reads it.  The mirror then
    delivers the interval over the coordinator's frames: it hosts no
    sensor, so only the base station can listen there (a reply flood's
    ``heard``).  The phase ends on the hosts right after its last
    interval is delivered.
    """

    def __init__(self, runtime: ServiceRuntime, mirror) -> None:
        self.runtime = runtime
        self.mirror = mirror

    def tick(self, k: int) -> None:
        self.runtime.tick(k)

    def deliver(self, k: int) -> None:
        for rows in self.runtime.deliver(k):
            self.mirror.absorb(rows)
        self.mirror.deliver(k)
        if k == self.mirror.phase.num_intervals:
            self.runtime.phase_end()

    def __getattr__(self, name):
        return getattr(self.mirror, name)


# ----------------------------------------------------------------------
# Sessions over the service transport
# ----------------------------------------------------------------------
@dataclass
class ServiceRunResult:
    """Protocol-level outcome of one session (service or simulator leg)."""

    estimate: Optional[float]
    outcomes: List[str]
    revocations: List[Tuple[str, int, str]]  # (kind, target, reason)
    num_executions: int
    metrics: Metrics
    latency: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: Hosts that exhausted their restart budget and were degraded to
    #: synthesized benign crash faults (service leg only).
    degraded_hosts: Tuple[int, ...] = ()
    #: Restarts actually performed, per host index (service leg only).
    host_restarts: Dict[int, int] = field(default_factory=dict)


def default_readings(spec: ServiceSpec) -> Dict[int, float]:
    """Deterministic readings over all sensors (honest and malicious)."""
    return {
        i: 50.0 + ((i * 7) % 23) + 0.25 * i for i in range(1, spec.num_nodes)
    }


def _build_protocol(spec: ServiceSpec, attack: Optional[str]):
    from ..adversary import Adversary
    from ..adversary.strategies import make_strategy
    from ..faults import FaultInjector

    deployment = spec.build_deployment()
    network = deployment.network
    plan = spec.plan()
    if plan is not None:
        FaultInjector(plan, seed=spec.fault_seed).attach(network)
    adversary = None
    if attack is not None:
        if attack not in ATTACKS:
            raise ConfigError(
                f"unknown attack {attack!r}; known: {sorted(ATTACKS)}"
            )
        strategy_name, predtest = ATTACKS[attack]
        adversary = Adversary(
            network, make_strategy(strategy_name, predtest=predtest), seed=spec.seed
        )
    protocol = VMATProtocol(
        network, adversary,
        depth_bound=spec.depth_bound, tree_variant=spec.tree_variant,
    )
    return deployment, protocol


def _session_loop(
    protocol, query, readings, max_executions, time_metrics=None, runtime=None
):
    """``VMATProtocol.run_session`` semantics, with optional per-execution
    wall-clock sampling (the service leg records; the simulator leg, whose
    timings are meaningless for the comparison, does not).

    When a :class:`ServiceRuntime` is supplied and it has degraded hosts,
    an INCONCLUSIVE execution *ends* the session (estimate ``None``)
    instead of retrying: the crashed sensors never come back, so further
    executions cannot produce a result, and completing without one is the
    documented benign-degradation outcome."""
    executions = []
    for _ in range(max_executions):
        started = time.perf_counter()
        execution = protocol.execute(query, readings)
        if time_metrics is not None:
            time_metrics.record_wall_clock(
                "execution", time.perf_counter() - started
            )
        executions.append(execution)
        if execution.produced_result:
            return executions, execution.estimate
        if not execution.revocations:
            if execution.outcome is ExecutionOutcome.INCONCLUSIVE:
                if runtime is not None and runtime.dead_hosts:
                    return executions, None
                continue
            raise ProtocolError(
                "an execution neither produced a result nor revoked "
                "anything — Theorem 7 violated"
            )
    raise ProtocolError(f"no result after {max_executions} executions")


def _run_result(executions, estimate, metrics, with_latency: bool) -> ServiceRunResult:
    return ServiceRunResult(
        estimate=estimate,
        outcomes=[e.outcome.value for e in executions],
        revocations=[
            (event.kind, event.target, event.reason)
            for e in executions
            for event in e.revocations
        ],
        num_executions=len(executions),
        metrics=metrics,
        latency=metrics.latency_percentiles() if with_latency else {},
    )


def run_service_session(
    spec: ServiceSpec,
    query_name: str = "min",
    attack: Optional[str] = None,
    readings: Optional[Dict[int, float]] = None,
    max_executions: int = 50,
    external_hosts: bool = False,
) -> ServiceRunResult:
    """One full query session over a loopback service deployment.

    Launches the node hosts, drives executions until one produces a
    result (Theorem 7 semantics), merges every host's metrics, and always
    tears the deployment down — no orphan survives an exception.
    """
    spec.validate()
    query = query_by_name(query_name)
    deployment, protocol = _build_protocol(spec, attack)
    network = deployment.network
    if readings is None:
        readings = default_readings(spec)

    runtime = ServiceRuntime(network, spec, spawn_hosts=not external_hosts)
    runtime.launch()
    try:
        executions, estimate = _session_loop(
            protocol, query, readings, max_executions,
            time_metrics=network.metrics, runtime=runtime,
        )
    finally:
        errors = runtime.finish()
    if errors:
        raise ServiceError("service teardown reported: " + "; ".join(errors))
    result = _run_result(executions, estimate, network.metrics, with_latency=True)
    result.degraded_hosts = tuple(sorted(runtime.dead_hosts))
    result.host_restarts = dict(sorted(runtime.restarts_used.items()))
    return result


def run_sim_session(
    spec: ServiceSpec,
    query_name: str = "min",
    attack: Optional[str] = None,
    readings: Optional[Dict[int, float]] = None,
    max_executions: int = 50,
) -> ServiceRunResult:
    """The in-process control leg: the same seeded session ``spec``
    describes, run entirely inside the simulator (no processes)."""
    spec.validate()
    query = query_by_name(query_name)
    deployment, protocol = _build_protocol(spec, attack)
    if readings is None:
        readings = default_readings(spec)
    executions, estimate = _session_loop(protocol, query, readings, max_executions)
    return _run_result(
        executions, estimate, deployment.network.metrics, with_latency=False
    )


# ----------------------------------------------------------------------
# Simulator-vs-service equivalence
# ----------------------------------------------------------------------
_RUNTIME_ONLY_METRICS = ("wall_clock", "wire_bytes", "wire_frames", "host_events")


def strip_runtime_metrics(snapshot: Dict[str, object]) -> Dict[str, object]:
    """Drop the fields only the service runtime produces (timings, wire
    accounting); everything else must match the simulator bit-for-bit."""
    return {k: v for k, v in snapshot.items() if k not in _RUNTIME_ONLY_METRICS}


@dataclass
class EquivalenceReport:
    matches: bool
    diffs: List[str]
    service: ServiceRunResult
    sim: ServiceRunResult


def run_equivalence(
    spec: ServiceSpec,
    query_name: str = "min",
    attack: Optional[str] = None,
    max_executions: int = 50,
) -> EquivalenceReport:
    """Run the same seeded session twice — once over node-host processes,
    once in-process — and compare every protocol-level outcome."""
    readings = default_readings(spec)
    service = run_service_session(
        spec, query_name, attack=attack, readings=readings,
        max_executions=max_executions,
    )
    sim = run_sim_session(
        spec, query_name, attack=attack, readings=readings,
        max_executions=max_executions,
    )

    diffs: List[str] = []
    if service.estimate != sim.estimate:
        diffs.append(f"estimate: service={service.estimate} sim={sim.estimate}")
    if service.outcomes != sim.outcomes:
        diffs.append(f"outcomes: service={service.outcomes} sim={sim.outcomes}")
    if service.revocations != sim.revocations:
        diffs.append(
            f"revocations: service={service.revocations} sim={sim.revocations}"
        )
    service_metrics = strip_runtime_metrics(service.metrics.to_dict())
    sim_metrics = strip_runtime_metrics(sim.metrics.to_dict())
    if service_metrics != sim_metrics:
        keys = sorted(
            set(service_metrics) | set(sim_metrics),
        )
        for key in keys:
            left, right = service_metrics.get(key), sim_metrics.get(key)
            if left != right:
                diffs.append(f"metrics[{key}]: service={left!r} sim={right!r}")
    return EquivalenceReport(
        matches=not diffs, diffs=diffs, service=service, sim=sim
    )
