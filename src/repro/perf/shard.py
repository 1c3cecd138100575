"""Region-sharded multiprocessing for deployment builds.

Large-topology deployment builds are embarrassingly parallel over
*contiguous id regions*: every sensor's key ring is a pure function of
``(master secret, sensor id)`` and every edge's key is a pure function
of its endpoints' rings, so a build can be split into ``[start, stop)``
regions, computed in worker processes, and concatenated **in region
order** — the result is byte-identical to the sequential computation no
matter how many shards ran (the bit-identical contract of
docs/PERFORMANCE.md applies to parallelism exactly as it does to
caching).

Only *fork*-based pools are used: workers either receive small picklable
argument tuples or inherit large read-only arrays copy-on-write through
a module global set just before the pool spawns.  On platforms without
``fork`` (or with ``REPRO_BUILD_SHARDS=1``/``0``) everything runs inline
in the parent, producing the same bytes.
"""

from __future__ import annotations

import os
from typing import Any, Callable, List, Sequence, Tuple

#: Below this many items a region split costs more than it saves.
AUTO_SHARD_MIN_ITEMS = 20_000

#: Hard cap on worker processes; build regions are memory-bandwidth
#: bound well before this.
MAX_SHARDS = 8


def _env_shards() -> "int | None":
    raw = os.environ.get("REPRO_BUILD_SHARDS", "").strip()
    if not raw:
        return None
    try:
        value = int(raw)
    except ValueError:
        return None
    return max(1, value)


def fork_available() -> bool:
    """Whether fork-based worker pools exist on this platform."""
    try:
        import multiprocessing

        return "fork" in multiprocessing.get_all_start_methods()
    except Exception:  # pragma: no cover - exotic platforms
        return False


def shard_count(num_items: int, minimum: int = AUTO_SHARD_MIN_ITEMS) -> int:
    """How many regions to split ``num_items`` into (1 = run inline).

    ``REPRO_BUILD_SHARDS`` overrides the automatic choice (``1`` or
    ``0`` forces inline); small builds and fork-less platforms always
    run inline.
    """
    override = _env_shards()
    if override is not None:
        return 1 if num_items <= 1 else min(override, MAX_SHARDS, num_items)
    if num_items < minimum or not fork_available():
        return 1
    cpus = os.cpu_count() or 1
    return max(1, min(cpus, MAX_SHARDS, num_items))


def regions(num_items: int, shards: int) -> List[Tuple[int, int]]:
    """Contiguous, near-even ``[start, stop)`` regions covering
    ``range(num_items)`` in order.  Empty regions are dropped, so the
    result may have fewer than ``shards`` entries (and is empty for
    zero items) — concatenating per-region results in list order always
    reproduces the sequential computation.
    """
    if num_items <= 0 or shards <= 0:
        return []
    shards = min(shards, num_items)
    step, extra = divmod(num_items, shards)
    out: List[Tuple[int, int]] = []
    start = 0
    for index in range(shards):
        stop = start + step + (1 if index < extra else 0)
        if stop > start:
            out.append((start, stop))
        start = stop
    return out


def fork_map(
    worker: Callable[[Any], Any], args: Sequence[Any], shards: int
) -> List[Any]:
    """Map ``worker`` over ``args`` in a fork pool, results in order.

    Falls back to an inline map when only one region is requested or
    fork is unavailable — the worker must therefore be a pure function
    of its argument (plus any copy-on-write module state its module set
    up), so inline and forked runs return identical values.
    """
    if shards <= 1 or len(args) <= 1 or not fork_available():
        return [worker(arg) for arg in args]
    import multiprocessing

    context = multiprocessing.get_context("fork")
    with context.Pool(processes=min(shards, len(args))) as pool:
        return pool.map(worker, list(args))
