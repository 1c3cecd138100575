"""Simulation kernel: slotted intervals and loosely synchronized clocks.

VMAT's proofs reason in *intervals* and *flooding rounds* over a network of
sensors whose clocks agree only up to a bounded error ``Delta``.  The
kernel is slotted, with no event queue: every protocol phase runs as a
sweep over its intervals (:class:`repro.net.network.PhaseContext`).  This
subpackage provides the abstractions those sweeps and the timing checks
share:

* :class:`~repro.sim.clock.IntervalSchedule` — maps interval indices to
  global times for a protocol phase.
* :class:`~repro.sim.clock.ClockAssignment` — every node's clock offset,
  bounded by ``Delta / 2``, and any injected drift, as columns indexed by
  node id.  The guard-band arithmetic of Section IV-A
  (:func:`~repro.sim.clock.safe_send_time`,
  :func:`~repro.sim.clock.observed_interval`) is plain functions of one
  offset: a sensor transmits "inside interval k" such that every honest
  receiver also observes interval k.
* :mod:`repro.sim.timeline` — wall-clock execution timelines and the
  guard-band check over a whole deployment.
"""

from .clock import ClockAssignment, IntervalSchedule
from .timeline import (
    ExecutionTimeline,
    PhasePlan,
    execution_latency_seconds,
    pinpointing_duration,
    plan_execution,
    simulate_slot_timing,
)

__all__ = [
    "ClockAssignment",
    "ExecutionTimeline",
    "PhasePlan",
    "execution_latency_seconds",
    "pinpointing_duration",
    "plan_execution",
    "simulate_slot_timing",
    "IntervalSchedule",
]
