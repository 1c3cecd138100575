"""Loosely synchronized clocks with bounded error (Section III), slotted.

The paper assumes "loosely synchronized clocks with bounded clock errors":
the offset between any two honest sensors' clocks never exceeds ``Delta``.
Section IV-A's guard-band technique then makes interval-slotted protocols
safe: a sensor that must transmit "in interval k" avoids the first and
last ``Delta`` of the interval *by its own clock*, which guarantees every
honest receiver's clock also reads interval k at the moment of reception.

We model each sensor's clock as ``local = global + offset`` with
``|offset| <= Delta / 2`` so that any two honest sensors disagree by at
most ``Delta``, exactly the paper's bound.  A clock is nothing but its
offset: :class:`ClockAssignment` keeps every node's offset (and any
injected drift) as a column, and the guard-band arithmetic below is
plain functions of one offset.

>>> schedule = IntervalSchedule(0.0, 1.0, 5)
>>> config = ClockConfig(interval_length=1.0, max_error=0.2)
>>> send = safe_send_time(schedule, 2, 0.1, config)
>>> [observed_interval(schedule, send, offset) for offset in (-0.1, 0.0, 0.1)]
[2, 2, 2]
"""

from __future__ import annotations

import random

import numpy as np

from ..config import ClockConfig
from ..errors import SimulationError


class IntervalSchedule:
    """Maps the paper's 1-based interval indices to global time.

    A protocol phase starting at ``start_time`` with interval length
    ``interval_length`` has interval ``k`` spanning::

        [start_time + (k-1) * interval_length, start_time + k * interval_length)

    The paper's proofs index intervals from 1; index 0 is reserved for
    "before the phase" (e.g. the base station's own actions).
    """

    def __init__(self, start_time: float, interval_length: float, num_intervals: int) -> None:
        if interval_length <= 0:
            raise SimulationError("interval_length must be positive")
        if num_intervals < 1:
            raise SimulationError("a phase needs at least one interval")
        self.start_time = start_time
        self.interval_length = interval_length
        self.num_intervals = num_intervals

    @property
    def end_time(self) -> float:
        return self.start_time + self.num_intervals * self.interval_length

    def interval_start(self, k: int) -> float:
        """Global start time of interval ``k`` (1-based)."""
        self._check_index(k)
        return self.start_time + (k - 1) * self.interval_length

    def interval_end(self, k: int) -> float:
        self._check_index(k)
        return self.start_time + k * self.interval_length

    def interval_of(self, time: float) -> int:
        """Interval index containing global ``time``; 0 if before phase.

        Times at or beyond the end of the phase map to
        ``num_intervals + 1``, matching the paper's rule that messages
        arriving after the L-th interval are ignored.
        """
        if time < self.start_time:
            return 0
        if time >= self.end_time:
            return self.num_intervals + 1
        k = int((time - self.start_time) // self.interval_length) + 1
        # ``time - start_time`` can lose a ulp when start_time and the
        # interval length are not float-aligned (start 5.0, length 0.1:
        # 5.1 - 5.0 = 0.0999...), landing an exact boundary time in the
        # wrong interval.  Nudge the candidate until it agrees with
        # interval_start/interval_end, which place boundaries by
        # multiplication — one step is always enough at these magnitudes.
        if k < self.num_intervals and time >= self.start_time + k * self.interval_length:
            k += 1
        elif k > 1 and time < self.start_time + (k - 1) * self.interval_length:
            k -= 1
        return k

    def midpoint(self, k: int) -> float:
        """Global midpoint of interval ``k`` — the canonical safe send time."""
        self._check_index(k)
        return self.interval_start(k) + self.interval_length / 2

    def _check_index(self, k: int) -> None:
        if not 1 <= k <= self.num_intervals:
            raise SimulationError(
                f"interval index {k} out of range [1, {self.num_intervals}]"
            )


def check_offset(offset: float, config: ClockConfig) -> None:
    """Refuse a synchronization offset outside the paper's ``Delta / 2``."""
    if abs(offset) > config.max_error / 2 + 1e-12:
        raise SimulationError(
            f"clock offset {offset} exceeds Delta/2 = {config.max_error / 2}"
        )


def local_time(global_time: float, offset: float) -> float:
    """What a clock with ``offset`` reads at the given global instant."""
    return global_time + offset


def global_time(local_time: float, offset: float) -> float:
    """The global instant at which a clock with ``offset`` reads ``local_time``."""
    return local_time - offset


def safe_send_time(
    schedule: IntervalSchedule, interval: int, offset: float, config: ClockConfig
) -> float:
    """Global time at which a sensor with ``offset`` transmits so that
    receivers see ``interval``.

    Implements the guard-band rule of Section IV-A: aim for the
    midpoint of the interval by the *local* clock.  Because the
    interval is longer than ``2 * Delta`` (enforced by
    :class:`~repro.config.ClockConfig`), the midpoint by any honest
    clock is at least ``Delta`` clear of both interval boundaries, so
    every honest receiver observes the same interval index.
    """
    check_offset(offset, config)
    global_send = global_time(schedule.midpoint(interval), offset)
    guard = config.guard_band
    start, end = schedule.interval_start(interval), schedule.interval_end(interval)
    # Sanity check the guard-band property rather than silently
    # trusting it.
    if not start + guard / 2 <= global_send <= end - guard / 2:
        raise SimulationError(
            "guard-band violation: send time escapes the interval; "
            "check ClockConfig.interval_length > 2 * max_error"
        )
    return global_send


def observed_interval(schedule: IntervalSchedule, global_time: float, offset: float) -> int:
    """The interval index a clock with ``offset`` reads at ``global_time``."""
    return schedule.interval_of(local_time(global_time, offset))


class ClockAssignment:
    """Every node's clock as two float64 columns indexed by node id.

    ``offsets`` is the deployment-time synchronization error, drawn
    deterministically within ``Delta / 2``.  The base station (node id 0
    by convention) gets a zero offset and draws nothing: it is the time
    reference that announces phase starting times via authenticated
    broadcast.  ``drift`` is an *injected excursion* on top of the
    offset, written by :mod:`repro.faults`; unlike the offset it may
    escape the bound, which is the failure mode the fault layer exists
    to exercise.

    ``node_ids`` are ``0 .. n-1`` (:attr:`repro.topology.Topology.node_ids`).
    """

    __slots__ = ("config", "offsets", "drift")

    def __init__(
        self,
        node_ids: range,
        config: ClockConfig,
        seed: int,
        base_station_id: int = 0,
    ) -> None:
        rng = random.Random(("clocks", seed).__repr__())
        half = config.max_error / 2
        self.config = config
        self.offsets = np.zeros(len(node_ids), dtype=np.float64)
        self.drift = np.zeros(len(node_ids), dtype=np.float64)
        sensors = [node_id for node_id in node_ids if node_id != base_station_id]
        uniform = rng.uniform
        self.offsets[sensors] = [uniform(-half, half) for _ in sensors]

    def __contains__(self, node_id: int) -> bool:
        return 0 <= node_id < len(self.offsets)

    def __len__(self) -> int:
        return len(self.offsets)

    def max_pairwise_error(self) -> float:
        """Largest clock disagreement across all pairs, drift included,
        so the bound ``<= Delta`` holds exactly when no drift excursion
        is in force."""
        if not len(self.offsets):
            return 0.0
        effective = self.offsets + self.drift
        return float(effective.max() - effective.min())
