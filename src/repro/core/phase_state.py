"""One honest step per phase: the shape every VMAT phase loop drives.

Each phase module exposes its honest side as one *step* object built
over the honest ids it runs, with the same small interface:

* ``tick(k)`` — the hosted sensors' sends for interval ``k``;
* ``deliver(k)`` — their acceptance of interval ``k``'s arrivals;
* ``report()`` / ``absorb(rows)`` — the state rows a service
  coordinator mirrors (tree levels and parents, initial vetoers);
* ``finish()`` — run once after the last interval.

The steps are :class:`~repro.core.tree.TreeColumns` (§IV-A),
:class:`~repro.core.aggregation.SlotSchedule` (§IV-B),
:class:`~repro.core.confirmation.VetoSchedule` (§IV-C) and
:class:`~repro.core.predicate_test.ReplyRelay` (§VI-A).  They keep
per-node phase state as flat columns rather than per-node Python
containers (at 100k nodes those containers dominated the interval
loop's allocation churn).

**One kernel.**  :func:`honest_step` is the only place a phase chooses
where its honest side runs.  Inline runs build the step over every
honest id — honest or attacked, traced or not, caches on or off.  With
a service driver attached (:mod:`repro.service`) each node host builds
the same step over its hosted shard, and the coordinator keeps a copy
over no ids that absorbs the rows the hosts report.  Adversary hooks
never touch a step: malicious state lives in per-node
:class:`~repro.adversary.base.MaliciousNodeState` rows and every
injection goes through the shared transport.

**Order contract.**  Every step fixes the visit and send orders the
protocol's output depends on: stable argsort grouping keeps ascending
participant order within a level group, and the append-only schedules
are filled while visiting arrivals in ascending id order, so they drain
in ascending order too.  A shard visits a subsequence of the same
order, and the service wire sorts frames by sender, so sharding is not
observable.  ``tests/test_kernel_digests.py`` freezes the resulting
output per cell, inline and over node hosts.
"""

from __future__ import annotations

from typing import Tuple

_EMPTY: Tuple[int, ...] = ()


class HonestStep:
    """Base of the per-phase steps: the parts most phases leave empty."""

    __slots__ = ("network", "phase")

    def __init__(self, network, phase) -> None:
        self.network = network
        self.phase = phase

    def report(self) -> tuple:
        """State rows for the coordinator's copy since the last report."""
        return _EMPTY

    def absorb(self, rows) -> None:
        """Fold rows another process's copy of this step reported."""

    def finish(self) -> None:
        """Run after the last interval."""


def honest_step(network, phase, step, ids, *args, **local):
    """The phase's honest side as one ``tick``/``deliver`` object.

    Inline runs build ``step(network, phase, ids, *args, **local)``.
    With a service driver attached, node hosts build the step over
    their hosted shards from the positional ``args``, which cross the
    wire; the keyword ``local`` inputs do not (each host holds its
    own).  The coordinator keeps the same step over no ids, which
    absorbs what the hosts report.
    """
    driver = network.honest_driver
    if driver is None:
        return step(network, phase, ids, *args, **local)
    return driver.phase_begin(step(network, phase, _EMPTY, *args, **local), args)
