"""Wall-clock timelines for protocol executions.

The proofs count *flooding rounds*; a deployment plans in *seconds*.
This module maps an execution onto global time using the interval
structure and the bounded-error clocks:

* :class:`PhasePlan` — one slotted phase laid onto an
  :class:`~repro.sim.clock.IntervalSchedule`.
* :func:`plan_execution` — the full Figure-1 happy path as a sequence of
  phase plans (announcements, tree formation, aggregation,
  confirmation), giving total latency in seconds.
* :func:`simulate_slot_timing` — lays every sensor's guard-banded
  transmissions onto the clock columns and *checks* that every honest
  receiver observes the intended interval: the executable form of the
  Section IV-A claim that bounded clock error is harmless.

These planners take the same ``ClockConfig`` as the network, so latency
numbers and the slotted simulation agree by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from ..config import ClockConfig
from ..errors import SimulationError
from .clock import ClockAssignment, IntervalSchedule, observed_interval, safe_send_time


@dataclass(frozen=True)
class PhasePlan:
    """One protocol phase pinned to global time."""

    name: str
    schedule: IntervalSchedule

    @property
    def start_time(self) -> float:
        return self.schedule.start_time

    @property
    def end_time(self) -> float:
        return self.schedule.end_time

    @property
    def duration(self) -> float:
        return self.end_time - self.start_time


@dataclass
class ExecutionTimeline:
    """The Figure-1 happy path laid end-to-end on the global clock."""

    phases: List[PhasePlan] = field(default_factory=list)

    @property
    def total_duration(self) -> float:
        if not self.phases:
            return 0.0
        return self.phases[-1].end_time - self.phases[0].start_time

    def phase(self, name: str) -> PhasePlan:
        for plan in self.phases:
            if plan.name == name:
                return plan
        raise SimulationError(f"no phase named {name!r} in the timeline")

    def describe(self) -> List[Tuple[str, float, float]]:
        return [(p.name, p.start_time, p.end_time) for p in self.phases]


# A flooding round (base station floods the whole network) spans the
# network depth in intervals; announcements via authenticated broadcast
# cost one flooding round each (Section III).
_HAPPY_PATH_PHASES: Tuple[Tuple[str, str], ...] = (
    ("tree-announce", "flood"),
    ("tree-formation", "slotted"),
    ("query-announce", "flood"),
    ("aggregation", "slotted"),
    ("confirmation-announce", "flood"),
    ("confirmation", "slotted"),
)


def plan_execution(
    depth_bound: int,
    clock: ClockConfig,
    start_time: float = 0.0,
) -> ExecutionTimeline:
    """Lay out one happy-path execution; every phase spans ``L``
    intervals (a flood needs one interval per hop, like a slotted
    phase), so the total is ``6 L`` intervals — O(1) flooding rounds."""
    if depth_bound < 1:
        raise SimulationError("depth bound must be >= 1")
    timeline = ExecutionTimeline()
    cursor = start_time
    for name, _kind in _HAPPY_PATH_PHASES:
        schedule = IntervalSchedule(cursor, clock.interval_length, depth_bound)
        timeline.phases.append(PhasePlan(name=name, schedule=schedule))
        cursor = schedule.end_time
    return timeline


def pinpointing_duration(
    depth_bound: int,
    predicate_tests: int,
    clock: ClockConfig,
) -> float:
    """Wall-clock cost of a pinpointing run: each keyed predicate test
    is two flooding rounds of ``L`` intervals each (Theorem 6)."""
    if predicate_tests < 0:
        raise SimulationError("predicate_tests must be non-negative")
    return predicate_tests * 2 * depth_bound * clock.interval_length


def execution_latency_seconds(
    depth_bound: int,
    clock: ClockConfig,
    predicate_tests: int = 0,
) -> float:
    """Seconds from query announcement to result/revocation."""
    happy = plan_execution(depth_bound, clock).total_duration
    return happy + pinpointing_duration(depth_bound, predicate_tests, clock)


def simulate_slot_timing(
    num_nodes: int,
    depth_bound: int,
    clock_config: ClockConfig,
    seed: int = 0,
    sends: Optional[Iterable[Tuple[int, int]]] = None,
) -> Dict[Tuple[int, int], int]:
    """Send guard-banded transmissions and report, for each send, how
    many *other* nodes observe a different interval.

    ``sends`` is ``(node_id, interval)`` pairs; by default every node
    transmits once in every interval.  Each send is judged on its own,
    against every receiver's offset.  Returns ``{(node, interval):
    mismatch count}`` — all zeros when the guard-band arithmetic is
    sound, which the caller should assert.
    """
    offsets = ClockAssignment(range(num_nodes), clock_config, seed).offsets.tolist()
    schedule = IntervalSchedule(0.0, clock_config.interval_length, depth_bound)
    if sends is None:
        sends = [
            (node, interval)
            for node in range(num_nodes)
            for interval in range(1, depth_bound + 1)
        ]
    mismatches: Dict[Tuple[int, int], int] = {}
    for sender, interval in sends:
        send_time = safe_send_time(schedule, interval, offsets[sender], clock_config)
        mismatches[(sender, interval)] = sum(
            1
            for receiver, offset in enumerate(offsets)
            if receiver != sender
            and observed_interval(schedule, send_time, offset) != interval
        )
    return mismatches
