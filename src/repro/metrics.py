"""Cross-cutting measurement: bytes, messages, flooding rounds, tests.

The paper's cost claims are stated in two units:

* **flooding rounds** — "the amount of time required for the base station
  to flood the entire sensor network" (Section III).  Tree formation,
  aggregation and confirmation each cost one round (L intervals); every
  authenticated broadcast costs one round; every keyed predicate test
  costs two (challenge out, reply back).
* **communication complexity** — "the total number of bits sent and
  received by a sensor, including those bits forwarded for other
  sensors" (Section VII).

:class:`Metrics` accumulates both, per node and in aggregate, so the
benchmark harness can regenerate the Section IX comparisons and validate
Theorems 2, 6 and 7 empirically.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple


@dataclass
class Metrics:
    """Mutable accumulator shared by one protocol execution."""

    bytes_sent: Counter = field(default_factory=Counter)
    bytes_received: Counter = field(default_factory=Counter)
    messages_sent: Counter = field(default_factory=Counter)
    messages_received: Counter = field(default_factory=Counter)
    flooding_rounds: float = 0.0
    messages_lost: int = 0
    predicate_tests: int = 0
    authenticated_broadcasts: int = 0
    intervals_elapsed: int = 0
    round_log: List[Tuple[str, float]] = field(default_factory=list)
    # Fault-injection accounting (repro.faults).  ``faults_injected``
    # counts activations/occurrences per fault kind ("crash",
    # "partition", "burst-loss", ...); ``crash_intervals`` accumulates
    # node-intervals spent crashed (2 nodes down for 3 intervals = 6);
    # ``partition_intervals`` counts intervals with a partition active.
    faults_injected: Counter = field(default_factory=Counter)
    crash_intervals: int = 0
    partition_intervals: int = 0
    # Service-runtime accounting (repro.service).  ``wall_clock`` holds
    # raw latency samples in seconds, keyed by label (one sample per
    # interval barrier per phase, plus one per execution) — percentiles
    # are derived at read time so merge stays a lossless concatenation.
    # ``wire_bytes``/``wire_frames`` count real bytes/records on the
    # inter-process TCP streams (framing + control overhead included),
    # as opposed to the modelled radio bytes in ``bytes_sent``.
    wall_clock: Dict[str, List[float]] = field(default_factory=dict)
    wire_bytes: int = 0
    wire_frames: int = 0
    # Host-level reliability accounting (repro.service.resilience).
    # Counts lifecycle events per node-host process, keyed as
    # "host-<index>.<event>": restarts, degradations, retry attempts
    # ("retry:control-connect", "retry:peer-send"), undeliverable peer
    # batches, and final exit codes ("exit:0").  Runtime-only: stripped
    # by the simulator-equivalence gate like wall_clock/wire_*.
    host_events: Counter = field(default_factory=Counter)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record_transmission(self, sender: int, receiver: int, num_bytes: int) -> None:
        self.record_send(sender, (receiver,), num_bytes)

    def record_send(
        self, sender: int, receivers: Sequence[int], num_bytes: int, repeats: int = 0
    ) -> None:
        """One :meth:`record_transmission` per receiver, in order, with
        the sender's side written in one update.

        ``repeats`` of the entries are receive-only copies (fault-injected
        duplicates, each listed right after its original): the receiver
        hears them, the sender transmitted them once.
        """
        self.record_sends((sender,), (len(receivers),), (num_bytes,), receivers, (repeats,))

    def record_sends(
        self,
        senders: Sequence[int],
        counts: Sequence[int],
        wires: Sequence[int],
        receivers: Sequence[int],
        repeats: Optional[Sequence[int]] = None,
    ) -> None:
        """One :meth:`record_send` per sender, written as one block.

        Sender ``i`` sent ``counts[i]`` frames of ``wires[i]`` bytes to
        the next ``counts[i]`` entries of ``receivers``, ``repeats[i]``
        of them receive-only copies (none when ``repeats`` is omitted).
        Receive counts go through one ``Counter`` update for the whole
        block; received bytes are added row by row, at each sender's
        wire size.
        """
        self.messages_received.update(receivers)
        bytes_sent, messages_sent = self.bytes_sent, self.messages_sent
        bytes_received = self.bytes_received
        stop = 0
        for i, sender in enumerate(senders):
            count = counts[i]
            if not count:
                continue
            wire = wires[i]
            sent = count - (repeats[i] if repeats is not None else 0)
            bytes_sent[sender] += wire * sent
            messages_sent[sender] += sent
            start, stop = stop, stop + count
            for row in range(start, stop):
                bytes_received[receivers[row]] += wire

    def record_flooding_rounds(self, rounds: float, label: str = "") -> None:
        self.flooding_rounds += rounds
        self.round_log.append((label, rounds))

    def record_predicate_test(self) -> None:
        """One keyed predicate test = 2 flooding rounds (Section VI-A)."""
        self.predicate_tests += 1
        self.record_flooding_rounds(2.0, "keyed-predicate-test")

    def record_authenticated_broadcast(self) -> None:
        """One authenticated broadcast = 1 flooding round."""
        self.authenticated_broadcasts += 1
        self.record_flooding_rounds(1.0, "authenticated-broadcast")

    def record_intervals(self, count: int) -> None:
        self.intervals_elapsed += count

    def record_lost_transmission(self, sender: int, num_bytes: int) -> None:
        """A frame that was transmitted but never delivered.

        The sender burns the airtime either way, so the send side is
        charged exactly as for a delivered frame; only the receive side
        stays empty.
        """
        self.bytes_sent[sender] += num_bytes
        self.messages_sent[sender] += 1
        self.messages_lost += 1

    def record_fault(self, kind: str, count: int = 1) -> None:
        """One injected-fault activation or occurrence of ``kind``."""
        self.faults_injected[kind] += count

    def record_crash_intervals(self, node_intervals: int) -> None:
        self.crash_intervals += node_intervals

    def record_partition_intervals(self, intervals: int) -> None:
        self.partition_intervals += intervals

    def record_wall_clock(self, label: str, seconds: float) -> None:
        """One wall-clock latency sample for ``label`` (service runtime)."""
        self.wall_clock.setdefault(label, []).append(float(seconds))

    def record_wire(self, num_bytes: int, frames: int = 1) -> None:
        """Bytes/records actually moved over an inter-process stream."""
        self.wire_bytes += num_bytes
        self.wire_frames += frames

    def record_host_event(self, event: str, count: int = 1) -> None:
        """One host-lifecycle event, e.g. ``"host-1.restart"`` (service)."""
        self.host_events[event] += count

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def node_communication(self, node: int) -> int:
        """Paper's per-sensor communication complexity, in bytes."""
        return self.bytes_sent[node] + self.bytes_received[node]

    def max_node_communication(self, node_ids) -> int:
        return max((self.node_communication(n) for n in node_ids), default=0)

    def total_bytes(self) -> int:
        return sum(self.bytes_sent.values())

    def total_messages(self) -> int:
        return sum(self.messages_sent.values())

    def latency_percentiles(self) -> Dict[str, Dict[str, float]]:
        """Per-label p50/p95/p99 over the wall-clock samples (seconds).

        Nearest-rank percentiles: deterministic, no interpolation, and
        well-defined for a single sample (every percentile is it).
        """
        return {
            label: {
                "p50": percentile(samples, 50.0),
                "p95": percentile(samples, 95.0),
                "p99": percentile(samples, 99.0),
                "count": float(len(samples)),
            }
            for label, samples in sorted(self.wall_clock.items())
            if samples
        }

    def merge(self, other: "Metrics") -> None:
        """Fold another execution's numbers into this accumulator."""
        self.bytes_sent.update(other.bytes_sent)
        self.bytes_received.update(other.bytes_received)
        self.messages_sent.update(other.messages_sent)
        self.messages_received.update(other.messages_received)
        self.flooding_rounds += other.flooding_rounds
        self.messages_lost += other.messages_lost
        self.predicate_tests += other.predicate_tests
        self.authenticated_broadcasts += other.authenticated_broadcasts
        self.intervals_elapsed += other.intervals_elapsed
        self.round_log.extend(other.round_log)
        self.faults_injected.update(other.faults_injected)
        self.crash_intervals += other.crash_intervals
        self.partition_intervals += other.partition_intervals
        # Latency merge algebra is sample concatenation: percentiles of
        # the union are then derivable from the merged accumulator, which
        # a merge of precomputed percentiles would not be.
        for label, samples in other.wall_clock.items():
            self.wall_clock.setdefault(label, []).extend(samples)
        self.wire_bytes += other.wire_bytes
        self.wire_frames += other.wire_frames
        self.host_events.update(other.host_events)

    # ------------------------------------------------------------------
    # Serialization (lossless, JSON-ready)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """JSON-ready snapshot; :meth:`from_dict` inverts it losslessly.

        Counter keys (node ids) become strings because JSON objects only
        key on strings; ``from_dict`` restores them to ``int``.

        Service-only fields (``wall_clock``, ``wire_bytes``,
        ``wire_frames``) are emitted only when non-empty, so snapshots of
        simulator runs are byte-identical to what they always were.
        """
        data: Dict[str, object] = {
            "bytes_sent": {str(k): v for k, v in self.bytes_sent.items()},
            "bytes_received": {str(k): v for k, v in self.bytes_received.items()},
            "messages_sent": {str(k): v for k, v in self.messages_sent.items()},
            "messages_received": {str(k): v for k, v in self.messages_received.items()},
            "flooding_rounds": self.flooding_rounds,
            "messages_lost": self.messages_lost,
            "predicate_tests": self.predicate_tests,
            "authenticated_broadcasts": self.authenticated_broadcasts,
            "intervals_elapsed": self.intervals_elapsed,
            "round_log": [[label, rounds] for label, rounds in self.round_log],
            "faults_injected": dict(self.faults_injected),
            "crash_intervals": self.crash_intervals,
            "partition_intervals": self.partition_intervals,
        }
        if self.wall_clock:
            data["wall_clock"] = {
                label: list(samples) for label, samples in sorted(self.wall_clock.items())
            }
        if self.wire_bytes or self.wire_frames:
            data["wire_bytes"] = self.wire_bytes
            data["wire_frames"] = self.wire_frames
        if self.host_events:
            data["host_events"] = {
                str(k): int(v) for k, v in sorted(self.host_events.items())
            }
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Metrics":
        """Rebuild an accumulator from :meth:`to_dict` output."""

        def counter(name: str) -> Counter:
            return Counter({int(k): v for k, v in data.get(name, {}).items()})

        return cls(
            bytes_sent=counter("bytes_sent"),
            bytes_received=counter("bytes_received"),
            messages_sent=counter("messages_sent"),
            messages_received=counter("messages_received"),
            flooding_rounds=float(data.get("flooding_rounds", 0.0)),
            messages_lost=int(data.get("messages_lost", 0)),
            predicate_tests=int(data.get("predicate_tests", 0)),
            authenticated_broadcasts=int(data.get("authenticated_broadcasts", 0)),
            intervals_elapsed=int(data.get("intervals_elapsed", 0)),
            round_log=[(label, rounds) for label, rounds in data.get("round_log", [])],
            faults_injected=Counter(
                {str(k): int(v) for k, v in data.get("faults_injected", {}).items()}
            ),
            crash_intervals=int(data.get("crash_intervals", 0)),
            partition_intervals=int(data.get("partition_intervals", 0)),
            wall_clock={
                str(label): [float(s) for s in samples]
                for label, samples in data.get("wall_clock", {}).items()
            },
            wire_bytes=int(data.get("wire_bytes", 0)),
            wire_frames=int(data.get("wire_frames", 0)),
            host_events=Counter(
                {str(k): int(v) for k, v in data.get("host_events", {}).items()}
            ),
        )

    def summary(self) -> Dict[str, float]:
        result = {
            "total_bytes": float(self.total_bytes()),
            "total_messages": float(self.total_messages()),
            "flooding_rounds": self.flooding_rounds,
            "predicate_tests": float(self.predicate_tests),
            "authenticated_broadcasts": float(self.authenticated_broadcasts),
            "intervals_elapsed": float(self.intervals_elapsed),
            "messages_lost": float(self.messages_lost),
            "faults_injected": float(sum(self.faults_injected.values())),
            "crash_intervals": float(self.crash_intervals),
            "partition_intervals": float(self.partition_intervals),
        }
        # Latency keys appear only for service runs, keeping simulator
        # summaries (and everything keyed off them) exactly as before.
        for label, stats in self.latency_percentiles().items():
            for name in ("p50", "p95", "p99"):
                result[f"latency_{label}_{name}"] = stats[name]
        if self.wire_bytes or self.wire_frames:
            result["wire_bytes"] = float(self.wire_bytes)
            result["wire_frames"] = float(self.wire_frames)
        if self.host_events:
            result["host_events"] = float(sum(self.host_events.values()))
            result["host_restarts"] = float(
                sum(v for k, v in self.host_events.items() if k.endswith(".restart"))
            )
        return result


def percentile(samples: List[float], pct: float) -> float:
    """Nearest-rank percentile (ceil(p/100 * n)-th smallest sample)."""
    if not samples:
        raise ValueError("percentile of an empty sample set")
    ordered = sorted(samples)
    rank = max(1, -(-int(pct * len(ordered)) // 100))  # ceil without floats
    return ordered[min(rank, len(ordered)) - 1]
