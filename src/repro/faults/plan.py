"""Declarative fault plans: typed benign events with a stable hash.

A :class:`FaultPlan` is pure data — it round-trips through JSON
(:meth:`FaultPlan.to_json` / :meth:`FaultPlan.from_json`), hashes
stably (:meth:`FaultPlan.plan_hash`), and is interpreted at runtime by
:class:`repro.faults.injector.FaultInjector`.  Every event models a
*benign* failure: honest hardware or the environment misbehaving, never
a Byzantine adversary (that is :mod:`repro.adversary`'s job).  The
distinction matters because the degradation policy — "benign failure is
never punished with revocation" — keys off the plan being benign by
construction.

Windowed events are expressed in **global interval indices**: the
cumulative count of slotted protocol intervals begun since the network
was deployed (:attr:`repro.metrics.Metrics.intervals_elapsed`).  The
first interval of the first phase is index 1; an event with
``start=1, end=7`` is active while intervals 1-6 run.  Broadcast events
are keyed by the 1-based ordinal of the authenticated broadcast
instead, since broadcasts happen between slotted phases.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields
from typing import Any, Dict, List, Mapping, Optional, Tuple, Type

from ..errors import REQUIRED, ConfigError, typed_fields
from ..keys.registry import BASE_STATION_ID
from ..seeding import canonical_json


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


@dataclass(frozen=True)
class FaultEvent:
    """Base class: one typed benign fault.

    Subclasses set ``KIND`` (the JSON tag) and declare their own fields;
    serialization is derived from the dataclass fields, so an event type
    is defined exactly once.
    """

    KIND = ""

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form, tagged with ``kind``."""
        out: Dict[str, Any] = {"kind": self.KIND}
        for f in fields(self):
            value = getattr(self, f.name)
            out[f.name] = list(value) if isinstance(value, tuple) else value
        return out

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "FaultEvent":
        """Rebuild the right event subclass from its tagged dict.

        Each field is checked against its dataclass annotation (and each
        id of a tuple field is checked), so a malformed event raises
        :class:`ConfigError` here rather than failing mid-run.
        """
        if not isinstance(data, Mapping):
            raise ConfigError(f"a fault event is a JSON object, not {type(data).__name__}")
        data = dict(data)
        kind = data.pop("kind", None)
        cls = EVENT_TYPES.get(kind) if isinstance(kind, str) else None
        if cls is None:
            known = ", ".join(sorted(EVENT_TYPES))
            raise ConfigError(f"unknown fault kind {kind!r}; known kinds: {known}")
        try:
            values = typed_fields("event", data, _event_fields(cls))
            for name, value in values.items():
                if isinstance(value, (list, tuple)) and not all(
                    isinstance(v, int) and not isinstance(v, bool) for v in value
                ):
                    raise ConfigError(f"event field {name!r} must list int ids, got {value!r}")
        except ConfigError as exc:
            raise ConfigError(f"bad fields for fault kind {kind!r}: {exc}") from None
        return cls(**values)


@dataclass(frozen=True)
class _Windowed(FaultEvent):
    """Shared shape for events active over an interval window."""

    start: int = 1
    end: int = 2

    def __post_init__(self) -> None:
        _require(self.start >= 1, f"{self.KIND}: start must be >= 1 (got {self.start})")
        _require(self.end > self.start, f"{self.KIND}: end must exceed start")

    def active(self, now: int) -> bool:
        """Whether the window covers global interval ``now``."""
        return self.start <= now < self.end


@dataclass(frozen=True)
class NodeCrash(_Windowed):
    """Benign fail-stop: ``node`` is down for ``[start, end)``.

    A crashed sensor transmits nothing, receives nothing, and — having
    detectably missed part of the execution — abstains from vetoing for
    the remainder of any execution it crashed in.  Distinct from
    Byzantine compromise: the node's keys are never used against the
    protocol and it resumes honestly at ``end``.
    """

    KIND = "crash"
    node: int = 1

    def __post_init__(self) -> None:
        super().__post_init__()
        _require(
            self.node != BASE_STATION_ID,
            "crash: the base station is assumed reliable (Section III); "
            "crashing it is outside the model",
        )
        _require(self.node >= 0, "crash: node must be a valid id")


@dataclass(frozen=True)
class LinkDown(_Windowed):
    """Link churn: the radio edge ``a``-``b`` is down for ``[start, end)``."""

    KIND = "link-down"
    a: int = 0
    b: int = 1

    def __post_init__(self) -> None:
        super().__post_init__()
        _require(self.a != self.b, "link-down: endpoints must differ")
        _require(self.a >= 0 and self.b >= 0, "link-down: endpoints must be valid ids")

    def blocks(self, x: int, y: int) -> bool:
        return {x, y} == {self.a, self.b}


@dataclass(frozen=True)
class Partition(_Windowed):
    """Network partition: ``nodes`` are cut from the rest for the window.

    Every radio link with exactly one endpoint inside ``nodes`` is down.
    The base station must stay on the majority side (it is the trusted
    time/broadcast reference), so ``nodes`` may not contain it.
    """

    KIND = "partition"
    nodes: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        super().__post_init__()
        object.__setattr__(self, "nodes", tuple(self.nodes))
        _require(bool(self.nodes), "partition: needs at least one node")
        _require(
            BASE_STATION_ID not in self.nodes,
            "partition: the base station side is the reference side; "
            "list the minority side only",
        )
        _require(len(set(self.nodes)) == len(self.nodes), "partition: duplicate nodes")

    def blocks(self, x: int, y: int) -> bool:
        return (x in self.nodes) != (y in self.nodes)


@dataclass(frozen=True)
class BurstLoss(_Windowed):
    """Per-receiver burst loss: extra independent drop probability.

    During the window, every frame addressed to ``receiver`` (or to any
    receiver, when ``receiver`` is ``None``) is additionally lost with
    probability ``loss_rate``, on an independent per-receiver draw from
    the injector's seeded stream.  Airtime is still charged.
    """

    KIND = "burst-loss"
    receiver: Optional[int] = None
    loss_rate: float = 0.5

    def __post_init__(self) -> None:
        super().__post_init__()
        _require(0.0 < self.loss_rate < 1.0, "burst-loss: loss_rate must be in (0, 1)")

    def applies_to(self, receiver: int) -> bool:
        return self.receiver is None or self.receiver == receiver


@dataclass(frozen=True)
class Duplicate(_Windowed):
    """Frame duplication: a delivered frame arrives twice.

    With probability ``probability`` (independent seeded draw) the
    receiver gets a second copy of a successfully delivered frame —
    the classic retransmit-ack-lost artefact.  Duplicates charge the
    receive side only; the protocols must stay idempotent under them.
    """

    KIND = "duplicate"
    receiver: Optional[int] = None
    probability: float = 0.25

    def __post_init__(self) -> None:
        super().__post_init__()
        _require(
            0.0 < self.probability < 1.0, "duplicate: probability must be in (0, 1)"
        )

    def applies_to(self, receiver: int) -> bool:
        return self.receiver is None or self.receiver == receiver


@dataclass(frozen=True)
class BroadcastLoss(FaultEvent):
    """A lost authenticated-broadcast round.

    The ``round``-th authenticated broadcast (1-based, counted across
    the whole deployment) never reaches ``nodes`` (every honest sensor,
    when empty).  An affected sensor misses a control message it knows
    it should have seen — its μTESLA chain index jumps — so it abstains
    from vetoing for the rest of that execution rather than acting on a
    stale view.
    """

    KIND = "broadcast-loss"
    round: int = 1
    nodes: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        _require(self.round >= 1, "broadcast-loss: round is 1-based")
        object.__setattr__(self, "nodes", tuple(self.nodes))
        _require(
            BASE_STATION_ID not in self.nodes,
            "broadcast-loss: the base station is the broadcast source",
        )

    def applies_to(self, node: int) -> bool:
        return not self.nodes or node in self.nodes


@dataclass(frozen=True)
class BroadcastDelay(FaultEvent):
    """A delayed authenticated-broadcast round.

    The ``round``-th authenticated broadcast still reaches everyone but
    costs ``extra_rounds`` additional flooding rounds — the [20]
    primitive retrying through a lossy period.  Pure latency: charged to
    :class:`~repro.metrics.Metrics`, no delivery effect.
    """

    KIND = "broadcast-delay"
    round: int = 1
    extra_rounds: float = 1.0

    def __post_init__(self) -> None:
        _require(self.round >= 1, "broadcast-delay: round is 1-based")
        _require(self.extra_rounds > 0, "broadcast-delay: extra_rounds must be positive")


@dataclass(frozen=True)
class ClockDrift(_Windowed):
    """A clock-error excursion on one sensor.

    During the window, ``drift`` (in time units, may be negative) is
    added to ``node``'s clock offset, pushing its error toward — and,
    if large enough, past — the paper's bound Δ.  Within the guard
    band the excursion is harmless (that is Section IV-A's point); once
    the effective offset escapes the half-interval, the sensor's frames
    land whole intervals late and may miss their listening slots
    entirely (counted as lost).
    """

    KIND = "clock-drift"
    node: int = 1
    drift: float = 0.0

    def __post_init__(self) -> None:
        super().__post_init__()
        _require(
            self.node != BASE_STATION_ID,
            "clock-drift: the base station is the time reference",
        )
        _require(self.drift != 0.0, "clock-drift: drift of 0 is a no-op")


EVENT_TYPES: Dict[str, Type[FaultEvent]] = {
    cls.KIND: cls
    for cls in (
        NodeCrash,
        LinkDown,
        Partition,
        BurstLoss,
        Duplicate,
        BroadcastLoss,
        BroadcastDelay,
        ClockDrift,
    )
}


#: JSON types accepted for each annotation an event field carries (the
#: annotations are strings under ``from __future__ import annotations``);
#: a tuple field arrives as a JSON list of ids.
_JSON_TYPES: Dict[str, Tuple[type, ...]] = {
    "int": (int,),
    "float": (int, float),
    "Optional[int]": (int, type(None)),
    "Tuple[int, ...]": (list, tuple),
}


def _event_fields(cls: Type[FaultEvent]) -> Dict[str, Tuple[Tuple[type, ...], Any]]:
    """``typed_fields`` table of one event type, from its dataclass fields."""
    return {f.name: (_JSON_TYPES[f.type], f.default) for f in fields(cls)}


#: JSON field -> (accepted types, default) for :meth:`FaultPlan.from_dict`.
_PLAN_FIELDS: Dict[str, Tuple[Tuple[type, ...], Any]] = {
    "name": ((str,), REQUIRED),
    "description": ((str,), ""),
    "events": ((list, tuple), ()),
}


@dataclass(frozen=True)
class FaultPlan:
    """A named, ordered schedule of benign fault events.

    Pure data with a stable content hash: the hash (and therefore the
    injector's RNG stream) depends only on the plan's canonical JSON,
    never on construction order of equal plans or on the process.
    """

    name: str
    events: Tuple[FaultEvent, ...] = ()
    description: str = ""

    def __post_init__(self) -> None:
        _require(bool(self.name), "FaultPlan needs a name")
        object.__setattr__(self, "events", tuple(self.events))
        for event in self.events:
            _require(
                isinstance(event, FaultEvent),
                f"FaultPlan events must be FaultEvent instances, got {type(event).__name__}",
            )

    # ------------------------------------------------------------------
    # JSON round-trip
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form (inverse: :meth:`from_dict`)."""
        return {
            "name": self.name,
            "description": self.description,
            "events": [event.to_dict() for event in self.events],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultPlan":
        """Inverse of :meth:`to_dict`; a malformed plan raises
        :class:`ConfigError`."""
        plan = typed_fields("FaultPlan", data, _PLAN_FIELDS)
        return cls(
            name=plan["name"],
            description=plan["description"],
            events=tuple(FaultEvent.from_dict(e) for e in plan["events"]),
        )

    def to_json(self) -> str:
        """Pretty JSON for plan files."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        """Parse a plan file produced by :meth:`to_json` (or by hand)."""
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise ConfigError(f"fault plan is not valid JSON: {exc}") from None
        return cls.from_dict(data)

    def plan_hash(self) -> str:
        """Stable content hash (hex) naming this plan's exact schedule."""
        return hashlib.sha256(canonical_json(self.to_dict()).encode("utf-8")).hexdigest()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def horizon(self) -> int:
        """Last global interval any windowed event touches (0 if none)."""
        return max((e.end for e in self.events if isinstance(e, _Windowed)), default=0)

    def counts_by_kind(self) -> Dict[str, int]:
        """Number of scheduled events per kind."""
        out: Dict[str, int] = {}
        for event in self.events:
            out[event.KIND] = out.get(event.KIND, 0) + 1
        return out

    def describe(self) -> str:
        """Human-readable multi-line summary (CLI ``faults describe``)."""
        lines = [
            f"fault plan {self.name!r}  ({len(self.events)} events, "
            f"hash {self.plan_hash()[:12]})"
        ]
        if self.description:
            lines.append(f"  {self.description}")
        for event in self.events:
            payload = {k: v for k, v in event.to_dict().items() if k != "kind"}
            rendered = ", ".join(f"{k}={v}" for k, v in sorted(payload.items()))
            lines.append(f"  - {event.KIND}: {rendered}")
        if not self.events:
            lines.append("  (empty plan: a no-op injector)")
        return "\n".join(lines)
