"""repro.faults — deterministic fault injection for VMAT experiments.

The paper's security argument (Sections IV-VIII) draws a hard line
between *malicious* behaviour — which pinpointing must punish — and
*benign* failure — crashes, partitions, burst loss, clock error — which
must never cost an honest sensor its keys.  This package makes that
boundary measurable:

* :class:`FaultPlan` — a declarative, JSON-round-tripping schedule of
  typed benign :class:`FaultEvent` s with a stable content hash;
* :class:`FaultInjector` — the runtime that applies a plan through
  explicit hook points in :mod:`repro.net.network`'s slotted phases and
  the authenticated-broadcast path, and writes clock drift into the
  :mod:`repro.sim.clock` drift column (no monkeypatching);
* :func:`chaos_plan` — deterministic preset plans backing the ``chaos``
  campaign scenario family.

Everything is seeded through :mod:`repro.seeding`, so a run is fully
determined by ``(plan, seed)`` — bit-identical at any worker count.
See ``docs/FAULTS.md`` for the schema and the degradation policy.
"""

from __future__ import annotations

from .injector import FaultInjector
from .plan import (
    BroadcastDelay,
    BroadcastLoss,
    BurstLoss,
    ClockDrift,
    Duplicate,
    FaultEvent,
    FaultPlan,
    LinkDown,
    NodeCrash,
    Partition,
)
from .presets import CHAOS_PROFILES, chaos_plan

__all__ = [
    "BroadcastDelay",
    "BroadcastLoss",
    "BurstLoss",
    "CHAOS_PROFILES",
    "ClockDrift",
    "Duplicate",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "LinkDown",
    "NodeCrash",
    "Partition",
    "chaos_plan",
]
