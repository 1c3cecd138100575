"""repro.perf — the bit-identical hot-path optimization layer.

This package owns three things:

* :mod:`~repro.perf.cache` — the bounded-LRU infrastructure behind
  the three hot-path caches in the repository (pre-keyed HMAC states,
  derived pool keys, synopsis draw vectors), with a global
  enable/disable switch so an uncached run stays one context manager
  away (the switch turns off caches and nothing else);
* :mod:`~repro.perf.shard` — forked build regions for the ring table
  of large deployments;
* :mod:`~repro.perf.scale` — the whole-execution scale sweep behind
  ``python -m repro bench scale``: single VMAT executions on 100- to
  10,000-node topologies, with a cache-disabled leg (up to 1,000
  nodes) asserting end-to-end metrics equality, and a
  ``BENCH_scale.json`` payload gated on speedup ratios.

The layer-wide contract (see docs/PERFORMANCE.md): **no optimization may
change any observable byte** — MACs, PRF outputs, synopsis floats,
canonical encodings, per-cell seeds and metrics must be identical with
the caches enabled, disabled, cold or warm.  Golden-vector tests
(``tests/test_golden_vectors.py``) pin the exact outputs;
``tests/test_perf.py`` gates each cache on deterministic hit counts and
checks fixed sessions and the chaos cell warm against disabled; the
chaos campaign's zero-tolerance store diff pins the end-to-end
behaviour.
"""

from __future__ import annotations

from .cache import (
    LRUCache,
    cache_stats,
    caching_enabled,
    clear_caches,
    disabled,
    registered_caches,
    set_caching,
)

__all__ = [
    "LRUCache",
    "cache_stats",
    "caching_enabled",
    "clear_caches",
    "disabled",
    "registered_caches",
    "set_caching",
]
