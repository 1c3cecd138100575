"""Bounded LRU caches behind the bit-identical optimization layer.

The repository keeps three caches, each because a measured workload
hits it: pre-keyed HMAC states (``hmac-keyed-states``), derived pool
keys (``derived-keys``) and synopsis draw vectors
(``synopsis-draw-vectors``).  Each goes through :class:`LRUCache`, for
three reasons:

* **bit-identical by construction** — a cache may only ever store the
  exact value the cached computation would have produced, so a hit and a
  miss are observationally indistinguishable (docs/PERFORMANCE.md states
  the contract; ``tests/test_golden_vectors.py`` enforces it);
* **bounded** — sensor-network sweeps touch unbounded key/nonce spaces,
  so every cache evicts least-recently-used entries past ``maxsize``
  instead of growing without limit;
* **centrally switchable** — :func:`set_caching` / :func:`disabled`
  turn every registered cache into a pass-through and change nothing
  else: the kernel, frame store and storage backends are the same
  either way.  That is how any doubt about a cache's transparency can
  be settled empirically (``tests/test_perf.py`` runs fixed sessions
  and the chaos cell both ways and asserts equal outputs; the scale
  sweep's reference legs do the same at up to 1,000 nodes).

The registry is process-global; caches are keyed by name and report hit
/miss/eviction counts through :func:`cache_stats`.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from contextlib import contextmanager
from typing import Any, Dict, Hashable, Iterator, List, Optional

from ..errors import ConfigError

#: All caches ever constructed, by name — the disable/clear/stats surface.
_REGISTRY: "OrderedDict[str, LRUCache]" = OrderedDict()

#: Environment override: set ``REPRO_DISABLE_PERF_CACHES=1`` to start the
#: process with every cache off.  CI re-runs the full-stack matrix, the
#: golden vectors and the kernel digests under this flag to prove warm
#: and cache-free executions are bit-identical end to end.
_DISABLED_BY_ENV = os.environ.get("REPRO_DISABLE_PERF_CACHES", "").strip().lower() in {
    "1", "true", "yes", "on",
}

#: Process-global switch; flipped only by :func:`set_caching`.
_ENABLED = not _DISABLED_BY_ENV


class LRUCache:
    """A named, bounded, least-recently-used mapping.

    ``get`` returns ``None`` on a miss (``None`` is never a legal cached
    value here — every cached computation yields bytes/tuples/objects),
    and both ``get`` and ``put`` become no-ops while caching is globally
    disabled, so the disabled path is exactly the uncached computation.
    """

    def __init__(self, name: str, maxsize: int) -> None:
        if maxsize < 1:
            raise ConfigError(f"cache {name!r} needs maxsize >= 1, got {maxsize}")
        if name in _REGISTRY:
            raise ConfigError(f"duplicate cache name {name!r}")
        self.name = name
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._data: "OrderedDict[Hashable, Any]" = OrderedDict()
        _REGISTRY[name] = self

    def __len__(self) -> int:
        return len(self._data)

    def get(self, key: Hashable) -> Optional[Any]:
        if not _ENABLED:
            return None
        value = self._data.get(key)
        if value is None:
            self.misses += 1
            return None
        self._data.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key: Hashable, value: Any) -> None:
        if not _ENABLED:
            return
        data = self._data
        if key in data:
            data.move_to_end(key)
        data[key] = value
        if len(data) > self.maxsize:
            data.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        self._data.clear()

    def resize(self, maxsize: int) -> None:
        """Change the bound in place (both directions).

        Shrinking evicts least-recently-used entries down to the new
        bound (counted as evictions, like any other capacity eviction);
        growing just raises the bound.  Either way the mapping object is
        preserved, so :meth:`view` references stay valid.
        """
        if maxsize < 1:
            raise ConfigError(
                f"cache {self.name!r} needs maxsize >= 1, got {maxsize}"
            )
        self.maxsize = maxsize
        while len(self._data) > maxsize:
            self._data.popitem(last=False)
            self.evictions += 1

    def view(self) -> "OrderedDict[Hashable, Any]":
        """The backing mapping, for zero-overhead hot-path reads.

        The view honors :func:`set_caching`: disabling clears the
        mapping **in place** and keeps ``put`` a no-op, so reads through
        a view miss exactly when ``get`` would.  What a view skips is
        accounting — no hit counter, no recency update — so entries
        only ever read through a view age out in insertion order rather
        than strict LRU.  Callers must treat the view as read-only and
        route misses through ``get``/``put``.
        """
        return self._data

    def stats(self) -> Dict[str, int]:
        """Counters for one cache (sizes included), JSON-ready."""
        return {
            "size": len(self._data),
            "maxsize": self.maxsize,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }


def _pow2_at_least(value: int) -> int:
    return 1 << max(0, value - 1).bit_length()


def autosize_caches(num_nodes: int, pool_size: int = 0) -> Dict[str, int]:
    """Grow per-key caches to fit one deployment's working set.

    The default bounds were tuned for ≤1k-node topologies; at 10k nodes
    BENCH_scale.json showed ``hmac-keyed-states`` thrashing (12,233
    misses, 1,813 evictions, 0 hits) because the working set — one keyed
    state per sensor key plus one per touched pool key — no longer fit.
    Called by ``build_deployment`` with the topology parameters, this
    resizes the per-key caches so a single execution's working set fits
    with slack.  Sizes are grow-only (a later small build never shrinks
    what a big one provisioned) and rounded up to powers of two so
    repeated builds of similar sizes are idempotent.

    Returns the ``{name: maxsize}`` actually in effect for the caches it
    manages (missing names — modules not yet imported — are skipped).
    """
    pool = max(0, int(pool_size))
    nodes = max(1, int(num_nodes))
    targets = {
        # One keyed HMAC state per *reused* key: the touched pool keys
        # plus broadcast/base-station keys.  Per-sensor keyed states are
        # no longer inserted by the bulk signing sweep
        # (``sign_instance_values`` passes ``store=False``), so sensor
        # count stopped being a sizing term.
        "hmac-keyed-states": min(pool, 4 * nodes) + 2048,
        # Raw derived keys: every pool key, once (bulk per-sensor key
        # derivation also skips insertion).
        "derived-keys": pool + 2048,
    }
    applied: Dict[str, int] = {}
    for name, want in targets.items():
        cache = _REGISTRY.get(name)
        if cache is None:
            continue
        size = _pow2_at_least(max(cache.maxsize, want))
        if size != cache.maxsize:
            cache.resize(size)
        applied[name] = cache.maxsize
    return applied


def caching_enabled() -> bool:
    """Whether the optimization layer's caches are currently active."""
    return _ENABLED


def set_caching(enabled: bool) -> None:
    """Globally enable/disable every registered cache.

    Disabling also clears all cached state, so re-enabling starts cold —
    the scale sweep relies on this for fair cold-vs-warm timings.
    """
    global _ENABLED
    _ENABLED = bool(enabled)
    if not _ENABLED:
        clear_caches()


@contextmanager
def disabled() -> Iterator[None]:
    """Run a block with every cache off (the same kernel, no caches)."""
    previous = _ENABLED
    set_caching(False)
    try:
        yield
    finally:
        set_caching(previous)


def clear_caches() -> None:
    """Drop every cached entry (counters are kept)."""
    for cache in _REGISTRY.values():
        cache.clear()


def cache_stats() -> Dict[str, Dict[str, int]]:
    """Hit/miss/eviction counters for every registered cache."""
    return {name: cache.stats() for name, cache in _REGISTRY.items()}


def registered_caches() -> List[str]:
    """Names of every cache constructed so far (import-order stable)."""
    return list(_REGISTRY)


def merge_cache_stats(
    base: Dict[str, Dict[str, int]], update: Dict[str, Dict[str, int]]
) -> Dict[str, Dict[str, int]]:
    """Combine two :func:`cache_stats` snapshots into one honest view.

    Counters (hits/misses/evictions) are cumulative per process, so the
    later snapshot's value wins via ``max``.  ``size`` is *instantaneous*
    and gets wiped by any intervening :func:`clear_caches` — taking the
    max across snapshots preserves the high-water mark a cleared cache
    actually reached (a post-clear read once recorded "960 hits, size
    0" for a cache that had been full).
    """
    merged = {name: dict(stats) for name, stats in base.items()}
    for name, stats in update.items():
        into = merged.setdefault(name, dict(stats))
        for field, value in stats.items():
            if field == "maxsize":
                into[field] = value
            else:
                into[field] = max(into.get(field, 0), value)
    return merged


def diff_cache_stats(
    before: Dict[str, Dict[str, int]], after: Dict[str, Dict[str, int]]
) -> Dict[str, Dict[str, int]]:
    """Per-interval counter deltas between two snapshots of one process.

    Used by campaign workers to report what *one cell* contributed:
    summing deltas across records never double-counts a warm worker's
    cumulative counters.  ``size``/``maxsize`` are carried from ``after``
    (they are states, not flows).
    """
    delta: Dict[str, Dict[str, int]] = {}
    for name, stats in after.items():
        prior = before.get(name, {})
        delta[name] = {
            field: (
                value
                if field in ("size", "maxsize")
                else max(0, value - prior.get(field, 0))
            )
            for field, value in stats.items()
        }
    return delta


def sum_cache_stats(
    base: Dict[str, Dict[str, int]], delta: Dict[str, Dict[str, int]]
) -> Dict[str, Dict[str, int]]:
    """Accumulate per-cell counter deltas (from :func:`diff_cache_stats`).

    Counter flows add; ``size`` keeps the high-water mark; ``maxsize``
    is a constant and is carried through.
    """
    merged = {name: dict(stats) for name, stats in base.items()}
    for name, stats in delta.items():
        into = merged.setdefault(name, {})
        for field, value in stats.items():
            if field == "maxsize":
                into[field] = value
            elif field == "size":
                into[field] = max(into.get(field, 0), value)
            else:
                into[field] = into.get(field, 0) + value
    return merged
