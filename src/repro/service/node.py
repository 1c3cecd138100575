"""The node-host process: honest sensors as an asyncio service replica.

One host process owns a *shard* of the honest sensors (round-robin over
the spec) but holds a full deterministic replica of the deployment —
rebuilding topology, key rings and clocks from the spec means only
frames and control events ever cross the wire.

Execution model (driven by the coordinator's :class:`~repro.service.
runtime.ServiceRuntime` over the control channel, in lockstep with the
unmodified phase functions in :mod:`repro.core`):

* ``phase-begin`` — create the replica phase and build the phase's
  honest step (:mod:`repro.core.phase_state`) over the hosted shard:
  the same object the in-process simulator builds over every honest
  sensor.  Building it runs the phase's setup (initial vetoes, the
  predicate evaluated over the **local** audit log, ...).
* ``tick k`` — the step's sends for interval ``k``, through the real
  :meth:`PhaseContext.send` path (capacity, faults, metrics, edge
  HMACs); frames are shipped to peer hosts over TCP and every frame is
  reported up to the coordinator's mirror store.
* ``deliver k`` — ingest coordinator frames (base station + adversary),
  run the step's acceptance, and reply with the rows the coordinator's
  copy of the step absorbs (:meth:`HonestStep.report`).
* ``phase-end`` — the step's ``finish`` (the tree installs the hosted
  sensors' levels and parents).

Frames are ordered by the ``(band, order, subseq)`` key (see
:mod:`repro.service.wire`), which reproduces the simulator's chronological
per-inbox deposit order exactly; everything downstream is byte-identical.

SIGTERM is trapped: the host flushes its metrics (to
``<metrics_dir>/host-<i>.metrics.json`` when configured) and exits 0, so
a supervisor teardown never loses accounting and never leaves orphans.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
from typing import Dict, List, Optional, Tuple

from ..core.aggregation import SlotSchedule
from ..core.confirmation import VetoSchedule
from ..core.predicate_test import ReplyRelay
from ..core.protocol import install_execution
from ..core.tree import TreeColumns
from ..errors import ServiceError
from ..faults import FaultInjector
from ..faults.plan import FaultPlan, NodeCrash
from ..net.soa import block_rows
from .resilience import (
    CHAOS_REFUSE_ENV,
    DEGRADE_HORIZON,
    ControlTimeouts,
    RetryPolicy,
    control_timeout,
)
from .spec import METRICS_DIR_ENV, ServiceSpec, query_by_name
from .wire import AsyncRecordStream, delivery_envelope, ingest_envelope


class ReplicaTransport:
    """Per-phase frame store on a node host.

    Locally-hosted receivers get the frame directly; remote-hosted
    receivers get it shipped over TCP; *every* frame is also reported up
    so the coordinator's mirror store (read by the base station and the
    adversary) stays complete.  Buckets hold ``(sort key, batch, key
    index, verdict)`` rows and sort on the shared envelope key,
    reproducing the simulator's chronological inbox order.

    A host reads its frames only through ``rows``: the honest steps
    sweep it, and nothing on a host calls ``PhaseContext.inbox`` (the
    adversary and the base station run on the coordinator).  The MAC a
    frame carried off the wire is checked here and kept only as its
    verdict; the coordinator's mirror does the same for the rows it
    ingests, so a ``Delivery`` built from either store recomputes its
    ``edge_mac`` locally.
    """

    __slots__ = ("host", "phase", "_buckets", "_seq", "_ingested", "_last_batch")

    def __init__(self, host: "NodeHost", phase) -> None:
        self.host = host
        self.phase = phase
        # interval -> receiver -> [(sort_key, batch, key_index, verdict)]
        self._buckets: Dict[int, Dict[int, List[tuple]]] = {}
        self._seq = 0
        # Envelopes already ingested this phase.  A full envelope tuple is
        # globally unique (band-1 frames carry the sending host's monotone
        # per-phase sequence), so dropping exact repeats makes every
        # recovery path idempotent: a restarted host's catch-up re-ships
        # the same batches its dead incarnation may have partially
        # delivered, and receivers keep exactly one copy.
        self._ingested: set = set()
        self._last_batch = None

    def deposit(self, interval, batches, counts, receivers, key_indices, verdicts) -> None:
        """One envelope per row: every row is reported up, a hosted
        receiver's also goes into its bucket, a peer-hosted one's is
        shipped to that peer."""
        host = self.host
        for batch, receiver, key_index, verdict in block_rows(
            batches, counts, receivers, key_indices, verdicts
        ):
            sender = batch.claimed_sender
            self._seq += 1
            env = delivery_envelope(batch, receiver, key_index, interval, 1, sender, self._seq)
            host.up_outbox.append(env)
            if receiver in host.hosted_set:
                self._bucket(interval, receiver).append(
                    ((1, sender, self._seq), batch, key_index, bool(verdict))
                )
                continue
            peer = host.host_of.get(receiver)
            if peer is not None and peer != host.host_index:
                host.peer_outbox.setdefault(peer, []).append(env)
            # Base-station / malicious receivers live on the coordinator;
            # the up-report above is their delivery.

    def ingest(self, env) -> None:
        if env in self._ingested:
            return
        interval, receiver, band, order, subseq, _sender, key_index, _mac, _payload = env
        batch, verified = ingest_envelope(self.phase, env, self._last_batch)
        self._last_batch = batch
        if receiver not in self.host.hosted_set:
            raise ServiceError(
                f"host {self.host.host_index} received a frame for "
                f"non-hosted sensor {receiver}"
            )
        self._ingested.add(env)
        self._bucket(interval, receiver).append(((band, order, subseq), batch, key_index, verified))

    def _bucket(self, interval: int, receiver: int) -> List[tuple]:
        return self._buckets.setdefault(interval, {}).setdefault(receiver, [])

    def rows(self, interval: int):
        receivers: List[int] = []
        batches: List[object] = []
        key_indices: List[int] = []
        verdicts: List[bool] = []
        for receiver, bucket in self._buckets.get(interval, {}).items():
            bucket.sort(key=lambda row: row[0])
            for _, batch, key_index, verdict in bucket:
                receivers.append(receiver)
                batches.append(batch)
                key_indices.append(key_index)
                verdicts.append(verdict)
        return receivers, range(len(batches)), batches, key_indices, verdicts


class NodeHost:
    """One node-host process: replica state + control/peer protocol."""

    def __init__(self, spec: ServiceSpec, host_index: int) -> None:
        spec.validate()
        self.spec = spec
        self.host_index = host_index
        self.hosted = sorted(spec.hosted_ids(host_index))
        self.hosted_set = frozenset(self.hosted)
        self.host_of = spec.host_of_map()

        deployment = spec.build_deployment()
        self.deployment = deployment
        self.network = deployment.network
        self.network.service_replica = True
        self.network.transport_factory = lambda phase: ReplicaTransport(self, phase)
        plan = spec.plan()
        if plan is not None:
            FaultInjector(plan, seed=spec.fault_seed).attach(self.network)

        self.phase = None
        self.transport: Optional[ReplicaTransport] = None
        self.up_outbox: List[tuple] = []
        self.peer_outbox: Dict[int, List[tuple]] = {}
        self.peer_ports: Tuple[int, ...] = ()
        self._peer_streams: Dict[int, AsyncRecordStream] = {}
        self._batch_counter: Dict[int, int] = {}  # retry-schedule identity
        self.step = None  # the current phase's honest step (repro.core)
        self.own_messages: Dict[int, list] = {}
        # Phase kind -> honest step, built over the hosted shard.  The
        # sensors' signed own messages are host state, never wire args.
        self._steps = {
            "tree": TreeColumns,
            "aggregation": lambda *args: SlotSchedule(
                *args, own_messages=self.own_messages
            ),
            "confirmation": VetoSchedule,
            "predicate-reply": lambda network, phase, ids, *args: ReplyRelay(
                network, phase, frozenset(ids), *args
            ),
        }
        self._stopping = False
        self.timeouts = ControlTimeouts.from_spec(spec)
        self.retry = RetryPolicy.from_spec(spec)
        self._hb_task: Optional[asyncio.Task] = None

    # ------------------------------------------------------------------
    # Wire accounting (merged into the coordinator's metrics at shutdown)
    # ------------------------------------------------------------------
    def _count_wire(self, nbytes: int, frames: int) -> None:
        self.network.metrics.record_wire(nbytes, frames)

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    async def run(self) -> None:
        spec = self.spec
        server = await asyncio.start_server(self._serve_peer, spec.host, 0)
        peer_port = server.sockets[0].getsockname()[1]
        reader, writer = await self._connect_control()
        control = AsyncRecordStream(reader, writer, on_wire=self._count_wire)

        loop = asyncio.get_running_loop()
        main_task = asyncio.current_task()
        loop.add_signal_handler(signal.SIGTERM, self._on_sigterm, main_task)
        try:
            await control.send("hello", self.host_index, peer_port)
            self._hb_task = asyncio.create_task(self._heartbeat(control))
            while True:
                try:
                    record = await control.recv()
                except (ConnectionError, OSError):
                    break  # coordinator gone (or chaos reset): exit cleanly
                if record is None or self._stopping:
                    break
                try:
                    reply = await self._dispatch(record)
                except asyncio.CancelledError:
                    raise
                except Exception as exc:  # reported, not fatal to the wire
                    reply = ("error", f"{type(exc).__name__}: {exc}")
                try:
                    await control.send(*reply)
                except (ConnectionError, OSError):
                    break
                if record[0] == "shutdown":
                    break
        except asyncio.CancelledError:
            pass  # SIGTERM: fall through to the flush below
        finally:
            loop.remove_signal_handler(signal.SIGTERM)
            if self._hb_task is not None:
                self._hb_task.cancel()
            # The host is exiting either way now; a supervisor SIGTERM
            # racing this teardown must not turn a clean exit into -15.
            signal.signal(signal.SIGTERM, signal.SIG_IGN)
            self._flush_metrics()
            control.close()
            for stream in self._peer_streams.values():
                stream.close()
            server.close()
            await server.wait_closed()

    async def _heartbeat(self, control: AsyncRecordStream) -> None:
        """Periodic liveness keep-alive on the control channel.

        Heartbeats flow whenever the event loop is free — between
        dispatches and during retry sleeps — so the coordinator's
        detection window distinguishes "busy or waiting" (heartbeats
        arriving) from "hung or stopped" (total silence)."""
        try:
            while True:
                await asyncio.sleep(self.timeouts.heartbeat_interval)
                await control.send("hb")
        except (asyncio.CancelledError, ConnectionError, OSError):
            pass  # channel gone or host exiting; the main loop owns that

    async def _connect_control(self):
        """Dial the coordinator, retrying while it is still coming up.

        In loopback runs the coordinator listens before spawning hosts,
        so the first attempt succeeds; under an external supervisor
        (compose) start order is arbitrary and hosts must wait.  The
        first ``retry_attempts`` tries follow the seed-derived backoff
        schedule (so induced failures produce identical retry traces);
        past the schedule the host keeps polling at ``retry_max_s`` until
        the control timeout expires.  The chaos harness injects
        connection refusals via ``REPRO_SERVICE_CHAOS_REFUSE``.
        """
        spec = self.spec
        refuse = int(os.environ.get(CHAOS_REFUSE_ENV, "0"))
        delays = self.retry.schedule("control-connect", self.host_index)
        loop = asyncio.get_running_loop()
        deadline = loop.time() + control_timeout(spec)
        attempt = 0
        while True:
            try:
                if attempt < refuse:
                    raise ConnectionRefusedError("chaos: synthetic refusal")
                return await asyncio.open_connection(spec.host, spec.control_port)
            except OSError:
                self.network.metrics.record_host_event(
                    f"host-{self.host_index}.retry:control-connect"
                )
                if loop.time() >= deadline:
                    raise ServiceError(
                        f"coordinator at {spec.host}:{spec.control_port} "
                        "unreachable within the control timeout"
                    ) from None
                delay = delays[attempt] if attempt < len(delays) else self.retry.max_delay
                attempt += 1
                await asyncio.sleep(delay)

    def _on_sigterm(self, main_task) -> None:
        self._stopping = True
        main_task.cancel()

    def _flush_metrics(self) -> None:
        metrics_dir = self.spec.metrics_dir or os.environ.get(METRICS_DIR_ENV)
        if not metrics_dir:
            return
        try:
            os.makedirs(metrics_dir, exist_ok=True)
            path = os.path.join(metrics_dir, f"host-{self.host_index}.metrics.json")
            with open(path, "w") as handle:
                json.dump(self.network.metrics.to_dict(), handle, sort_keys=True)
                handle.write("\n")
        except OSError:
            pass  # a failed flush must not turn shutdown into a crash loop

    # ------------------------------------------------------------------
    # Peer frame server
    # ------------------------------------------------------------------
    async def _serve_peer(self, reader, writer) -> None:
        stream = AsyncRecordStream(reader, writer, on_wire=self._count_wire)
        try:
            while True:
                record = await stream.recv()
                if record is None:
                    break
                if record[0] != "frames":
                    raise ServiceError(f"unexpected peer record {record[0]!r}")
                transport = self.transport
                if transport is None:
                    raise ServiceError("peer frame outside any phase")
                for env in record[1]:
                    transport.ingest(env)
                await stream.send("ack")
        except asyncio.CancelledError:
            pass  # loop teardown on host exit; ending quietly is correct
        except (ConnectionError, OSError):
            pass  # peer died mid-stream (chaos/restart); it will redial
        finally:
            stream.close()

    async def _peer_stream(self, peer_index: int) -> AsyncRecordStream:
        stream = self._peer_streams.get(peer_index)
        if stream is None:
            reader, writer = await asyncio.open_connection(
                self.spec.host, self.peer_ports[peer_index]
            )
            stream = AsyncRecordStream(reader, writer, on_wire=self._count_wire)
            self._peer_streams[peer_index] = stream
        return stream

    def _drop_peer_stream(self, peer_index: int) -> None:
        stream = self._peer_streams.pop(peer_index, None)
        if stream is not None:
            stream.close()

    async def _ship_envelopes(self, peer_index: int, envelopes: tuple) -> bool:
        """Ship one frame batch to a peer host, with seeded retry.

        Each attempt is dial + send + bounded ack wait (a stopped peer
        accepts connections but never acks, so the wait must be bounded).
        After a failed attempt the cached stream is dropped — a late ack
        from it must not be mistaken for a later batch's.  A batch that
        exhausts its schedule is *dropped*, not fatal: every frame is
        also mirrored up to the coordinator, which re-delivers it to a
        restarted receiver during catch-up; a receiver that never
        restarts is on its way to degradation anyway.
        """
        dial_seq = self._batch_counter[peer_index] = (
            self._batch_counter.get(peer_index, 0) + 1
        )
        delays = (0.0,) + self.retry.schedule(
            "peer-send", self.host_index, peer_index, dial_seq
        )
        for attempt, delay in enumerate(delays):
            if delay:
                await asyncio.sleep(delay)
            if attempt:
                self.network.metrics.record_host_event(
                    f"host-{self.host_index}.retry:peer-send"
                )
            try:
                stream = await self._peer_stream(peer_index)
                await stream.send("frames", envelopes)
                ack = await asyncio.wait_for(
                    stream.recv(), timeout=self.spec.peer_ack_timeout_s
                )
            except (asyncio.TimeoutError, ConnectionError, OSError):
                self._drop_peer_stream(peer_index)
                continue
            if ack is None:
                self._drop_peer_stream(peer_index)
                continue
            if ack[0] != "ack":
                raise ServiceError(f"peer {peer_index} sent {ack[0]!r}, not ack")
            return True
        self.network.metrics.record_host_event(
            f"host-{self.host_index}.peer-undeliverable"
        )
        return False

    async def _flush_peer_outbox(self) -> None:
        for peer_index, envelopes in sorted(self.peer_outbox.items()):
            if envelopes:
                await self._ship_envelopes(peer_index, tuple(envelopes))
        self.peer_outbox = {}

    # ------------------------------------------------------------------
    # Control dispatch
    # ------------------------------------------------------------------
    async def _dispatch(self, record) -> tuple:
        kind = record[0]
        if kind == "tick":
            return await self._handle_tick(record[1])
        if kind == "replay-tick":
            return self._handle_replay_tick(record[1], record[2])
        if kind == "catchup-tick":
            return await self._handle_catchup_tick(record[1], record[2])
        if kind == "deliver":
            return self._handle_deliver(record[1], record[2])
        if kind == "degrade":
            return self._handle_degrade(record[1], record[2])
        if kind == "phase-begin":
            return self._handle_phase_begin(*record[1:])
        if kind == "phase-end":
            self.step.finish()
            self.phase = None
            self.transport = None
            self.step = None
            return ("ok",)
        if kind == "broadcast":
            self.network.authenticated_flood(*record[1])
            return ("ok",)
        if kind == "execution-starting":
            self.network.node_columns.crash_suspected[:] = False
            return ("ok",)
        if kind == "begin-execution":
            return self._handle_begin_execution(*record[1:])
        if kind == "revoke":
            _, what, target, reason = record
            if what == "key":
                self.network.registry.revoke_key(target, reason=reason)
            elif what == "sensor":
                self.network.registry.revoke_sensor(target, reason=reason)
            else:
                raise ServiceError(f"unknown revocation kind {what!r}")
            return ("ok",)
        if kind == "peers":
            # Port table refresh.  A restarted peer listens on a fresh
            # ephemeral port, so cached streams are stale: drop them and
            # re-dial lazily on the next ship.
            self.peer_ports = tuple(record[1])
            for stream in self._peer_streams.values():
                stream.close()
            self._peer_streams = {}
            return ("ok",)
        if kind == "shutdown":
            return ("metrics", json.dumps(self.network.metrics.to_dict()))
        raise ServiceError(f"unknown control record {kind!r}")

    # ------------------------------------------------------------------
    # Execution boundary
    # ------------------------------------------------------------------
    def _handle_begin_execution(
        self, reading_pairs, query_name, num_instances, nonce
    ) -> tuple:
        network = self.network
        readings = {int(node_id): float(value) for node_id, value in reading_pairs}
        query = query_by_name(query_name)
        if query.num_instances != num_instances:
            raise ServiceError(
                f"query {query_name!r} instance mismatch: "
                f"{query.num_instances} != {num_instances}"
            )
        # The full honest install (not just the hosted shard): the
        # coordinator's execute() installs state on every honest sensor,
        # and mirror-equality is simplest to audit when replicas do the same.
        self.own_messages = install_execution(network, readings, query, nonce)
        return ("ok",)

    # ------------------------------------------------------------------
    # Phase setup
    # ------------------------------------------------------------------
    def _handle_phase_begin(self, kind, num_intervals, args) -> tuple:
        network = self.network
        step = self._steps.get(kind)
        if step is None:
            raise ServiceError(f"unknown phase kind {kind!r}")
        self.phase = network.new_phase(kind, num_intervals)
        self.transport = self.phase.transport
        revoked = network.registry.revoked_sensors
        hosted_honest = [i for i in self.hosted if i not in revoked]
        self.step = step(network, self.phase, hosted_honest, *args)
        return ("phase-begun", self.step.report())

    # ------------------------------------------------------------------
    # tick: hosted sends for interval k
    # ------------------------------------------------------------------
    async def _handle_tick(self, k: int) -> tuple:
        phase = self.phase
        if phase is None:
            raise ServiceError("tick outside any phase")
        phase.begin_interval(k)
        self.step.tick(k)
        await self._flush_peer_outbox()
        up = tuple(self.up_outbox)
        self.up_outbox = []
        return ("tick-done", up)

    def _handle_replay_tick(self, k: int, foreign) -> tuple:
        """Re-execute an already-completed tick during journal replay.

        The hosted sends are recomputed (rebuilding local buckets,
        sequence counters, metrics and per-phase context exactly), but
        nothing leaves the process: the coordinator's mirror already has
        the up-frames and the peers already received their batches.
        ``foreign`` re-delivers the frames other hosts shipped to this
        one for interval ``k``.
        """
        phase = self.phase
        if phase is None:
            raise ServiceError("replay-tick outside any phase")
        phase.begin_interval(k)
        self.step.tick(k)
        self.peer_outbox = {}
        self.up_outbox = []
        transport = self.transport
        assert transport is not None
        for env in foreign:
            transport.ingest(env)
        return ("ok",)

    async def _handle_catchup_tick(self, k: int, foreign) -> tuple:
        """Execute the in-flight tick live after a restart.

        Like a normal tick — peer batches *are* shipped, because the
        dead incarnation may have died before delivering them (receivers
        drop exact repeats, so partial prior delivery is harmless) — but
        the frames other hosts already reported for this interval arrive
        as ``foreign`` instead of over peer sockets.
        """
        phase = self.phase
        if phase is None:
            raise ServiceError("catchup-tick outside any phase")
        phase.begin_interval(k)
        self.step.tick(k)
        await self._flush_peer_outbox()
        transport = self.transport
        assert transport is not None
        for env in foreign:
            transport.ingest(env)
        up = tuple(self.up_outbox)
        self.up_outbox = []
        return ("tick-done", up)

    def _handle_degrade(self, now: int, crashed_ids) -> tuple:
        """Map a dead host's sensors onto synthesized crash faults.

        Mirrors what the coordinator did locally: from global interval
        ``now`` (the coordinator's clock — replicas track their own copy
        but the record carries the authoritative value) the dead host's
        sensors are benign-crashed to the horizon, and the presence of a
        fault injector flips pinpointing into benign mode everywhere.
        """
        events = tuple(
            NodeCrash(start=max(1, int(now)), end=DEGRADE_HORIZON, node=int(s))
            for s in crashed_ids
        )
        injector = self.network.fault_injector
        if injector is None:
            injector = FaultInjector(
                FaultPlan(name="host-degradation", events=events),
                seed=self.spec.fault_seed,
            ).attach(self.network)
        else:
            injector.extend_events(events)
        injector.advance_to(int(now))
        return ("ok",)

    # ------------------------------------------------------------------
    # deliver: coordinator frames + hosted acceptance for interval k
    # ------------------------------------------------------------------
    def _handle_deliver(self, k: int, envelopes) -> tuple:
        transport = self.transport
        if transport is None:
            raise ServiceError("deliver outside any phase")
        for env in envelopes:
            transport.ingest(env)
        self.step.deliver(k)
        return ("deliver-done", self.step.report())


def run_node_host(spec: ServiceSpec, host_index: int) -> int:
    """Entry point for ``python -m repro service node``."""
    host = NodeHost(spec, host_index)
    asyncio.run(host.run())
    return 0
