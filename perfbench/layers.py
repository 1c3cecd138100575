"""Per-layer spans for the benchmark, installed around the program's
entry points by patching the names their callers look up.

Two kinds of span:

* **Nested** spans cover the protocol and set-up layers (tree formation,
  aggregation, pinpointing, key registry, ...).  They keep a stack, so
  each layer's *self* time excludes the nested layers it called.  The
  benchmark opens a root span around every set-up (``setup``) and every
  timed operation (``op``); the root's self time is what no layer
  covers, reported as ``unaccounted_s``.
* **Flat** spans cover the hot substrate calls (``PhaseContext.send`` /
  ``inbox``, ``Network.authenticated_flood``).  They record calls and
  inclusive time only and do not touch the stack: the substrate is a
  second split of the same wall time, overlapping the protocol layers
  that call it, and a cheap wrapper matters at millions of calls.

Nothing is patched until :meth:`SpanTracer.install`; :meth:`restore`
puts every original back.  Wrappers return exactly what the wrapped
call returns.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Tuple


#: Per-layer metric -> (end-to-end metric it should move, workload where).
LAYER_TARGETS: Dict[str, Tuple[str, str]] = {
    "topology.grid_s": ("setup_s", "grid10k-min"),
    "keys.registry_s": ("setup_s", "grid10k-min"),
    "net.network_s": ("setup_s", "grid10k-min"),
    "core.tree.form_tree_s": ("exec_s", "grid10k-min"),
    "core.aggregation.run_aggregation_s": ("exec_s", "grid10k-min"),
    "core.confirmation.run_confirmation_s": ("exec_s", "grid10k-min"),
    "net.send.calls": ("exec_s", "grid10k-min"),
    "net.send.s": ("exec_s", "grid10k-min"),
    "net.inbox.calls": ("exec_s", "grid10k-min"),
    "net.inbox.s": ("exec_s", "grid10k-min"),
    "net.frames": ("exec_s", "grid10k-min"),
    "core.protocol.sign_s": ("exec_s", "grid256-count"),
    "core.synopses.draws_s": ("exec_s", "grid256-count"),
    "core.synopses.verify_s": ("exec_s", "grid256-count"),
    "core.pinpoint.s": ("session_s", "grid256-attack"),
    "core.predicate_test.calls": ("session_s", "grid256-attack"),
    "core.predicate_test.s": ("session_s", "grid256-attack"),
    "net.flood.calls": ("session_s", "grid256-attack"),
    "net.flood.s": ("session_s", "grid256-attack"),
    "keys.revocation.s": ("session_s", "grid256-attack"),
    "keys.revocation.revoked_keys": ("session_s", "grid256-attack"),
    "perf.cache.hmac-keyed-states.hit_ratio": ("exec_s", "grid256-count"),
    "perf.cache.payload-encodings.hit_ratio": ("exec_s", "grid10k-min"),
    "perf.cache.id-encodings.hit_ratio": ("exec_s", "grid10k-min"),
    "perf.cache.derived-keys.hit_ratio": ("exec_s", "grid10k-min"),
    "perf.cache.edge-mac-verdicts.hit_ratio": ("session_s", "grid256-attack"),
    "perf.cache.broadcast-mac-verdicts.hit_ratio": ("session_s", "grid256-attack"),
    "service.launch_s": ("session_s", "service25-attack"),
    "service.finish_s": ("session_s", "service25-attack"),
    "service.phase.tree.p50_s": ("session_s", "service25-attack"),
    "service.phase.aggregation.p50_s": ("session_s", "service25-attack"),
    "service.phase.confirmation.p50_s": ("session_s", "service25-attack"),
    "service.phase.predicate-reply.p50_s": ("session_s", "service25-attack"),
    "service.wire_frames": ("session_s", "service25-attack"),
    "service.wire_bytes": ("session_s", "service25-attack"),
    "unaccounted_s": ("exec_s / session_s", "every workload"),
    "trace_overhead_s": ("exec_s / session_s", "every workload"),
}

#: The caches whose hit ratios are reported (``perf.cache.<name>``).
CACHE_NAMES = (
    "hmac-keyed-states",
    "payload-encodings",
    "id-encodings",
    "derived-keys",
    "edge-mac-verdicts",
    "broadcast-mac-verdicts",
)

#: Spans normalised per deployment set-up rather than per operation.
SETUP_SPANS = ("topology.grid", "keys.registry", "net.network")

#: Nested spans reported per operation: span name -> metric name.
OP_SPANS = {
    "core.tree.form_tree": "core.tree.form_tree_s",
    "core.aggregation.run_aggregation": "core.aggregation.run_aggregation_s",
    "core.confirmation.run_confirmation": "core.confirmation.run_confirmation_s",
    "core.protocol.sign": "core.protocol.sign_s",
    "core.synopses.draws": "core.synopses.draws_s",
    "core.synopses.verify": "core.synopses.verify_s",
    "core.pinpoint": "core.pinpoint.s",
    "core.predicate_test": "core.predicate_test.s",
    "keys.revocation": "keys.revocation.s",
    "service.launch": "service.launch_s",
    "service.finish": "service.finish_s",
}

#: Flat substrate spans reported per operation (calls and seconds).
FLAT_SPANS = ("net.send", "net.inbox", "net.flood")


class SpanTracer:
    """Accumulates per-span self time, inclusive time and call counts."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self._flat: Dict[str, List[float]] = {}
        self._stack: List[List[float]] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` inside a nested span called ``name``."""
        stack = self._stack
        self_s, total_s, calls = self.self_s, self.total_s, self.calls
        clock = time.perf_counter

        @functools.wraps(fn)
        def nested(*args, **kwargs):
            frame = [0.0]  # time spent in nested spans
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_s[name] += elapsed - frame[0]
                total_s[name] += elapsed
                calls[name] += 1
                if stack:
                    stack[-1][0] += elapsed

        return nested

    def wrap_flat(self, name: str, fn: Callable) -> Callable:
        """``fn`` inside a flat span: calls and inclusive seconds only."""
        acc = self._flat.setdefault(name, [0.0, 0])
        clock = time.perf_counter

        @functools.wraps(fn)
        def flat(*args, **kwargs):
            start = clock()
            result = fn(*args, **kwargs)
            acc[0] += clock() - start
            acc[1] += 1
            return result

        return flat

    def span(self, name: str, fn: Callable, *args, **kwargs) -> Any:
        """Call ``fn`` inside a nested span (the benchmark's root spans)."""
        return self.wrap(name, fn)(*args, **kwargs)

    def take(self) -> Dict[str, Dict[str, float]]:
        """Everything accumulated since the last take, then reset."""
        out = {
            name: {
                "self_s": self.self_s[name],
                "total_s": self.total_s[name],
                "calls": self.calls[name],
            }
            for name in list(self.calls)
        }
        for name, acc in self._flat.items():
            out[name] = {"self_s": acc[0], "total_s": acc[0], "calls": acc[1]}
            acc[0], acc[1] = 0.0, 0
        self.self_s.clear()
        self.total_s.clear()
        self.calls.clear()
        return out

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def _patch(self, owner: Any, attr: str, name: str, flat: bool = False) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        wrapper = self.wrap_flat(name, original) if flat else self.wrap(name, original)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap every layer entry point under the name its caller uses."""
        import repro
        import repro.core.pinpoint as pinpoint
        import repro.core.protocol as protocol
        import repro.core.queries as queries
        import repro.core.synopses as synopses
        import repro.keys.registry as registry
        import repro.net.network as network
        import repro.service.runtime as runtime

        # Set-up: build_deployment looks these up in the package namespace.
        self._patch(repro, "grid_topology", "topology.grid")
        self._patch(repro, "KeyRegistry", "keys.registry")
        self._patch(repro, "Network", "net.network")
        # Protocol phases, by the names VMATProtocol.execute calls.
        self._patch(protocol, "form_tree", "core.tree.form_tree")
        self._patch(protocol, "run_aggregation", "core.aggregation.run_aggregation")
        self._patch(protocol, "run_confirmation", "core.confirmation.run_confirmation")
        self._patch(protocol, "sign_instance_values", "core.protocol.sign")
        self._patch(protocol, "verify_synopsis", "core.synopses.verify")
        self._patch(queries, "exponential_draws", "core.synopses.draws")
        self._patch(synopses, "exponential_draws", "core.synopses.draws")
        for method in ("veto_triggered", "junk_aggregation", "junk_confirmation"):
            self._patch(pinpoint.Pinpointer, method, "core.pinpoint")
        self._patch(pinpoint, "run_keyed_predicate_test", "core.predicate_test")
        for method in ("revoke_key", "revoke_sensor"):
            self._patch(registry.KeyRegistry, method, "keys.revocation")
        self._patch(runtime.ServiceRuntime, "launch", "service.launch")
        self._patch(runtime.ServiceRuntime, "finish", "service.finish")
        # Substrate.
        self._patch(network.PhaseContext, "send", "net.send", flat=True)
        self._patch(network.PhaseContext, "inbox", "net.inbox", flat=True)
        self._patch(network.Network, "authenticated_flood", "net.flood", flat=True)

    def restore(self) -> None:
        """Put every patched name back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def cache_counts(
    before: Dict[str, Dict[str, int]], after: Dict[str, Dict[str, int]]
) -> Dict[str, Tuple[int, int]]:
    """(hits, misses) of each reported cache between two ``cache_stats()``
    snapshots."""
    def moved(name: str, field: str) -> int:
        return after.get(name, {}).get(field, 0) - before.get(name, {}).get(field, 0)

    return {name: (moved(name, "hits"), moved(name, "misses")) for name in CACHE_NAMES}


def cache_hit_ratios(
    before: Dict[str, Dict[str, int]], after: Dict[str, Dict[str, int]]
) -> Dict[str, float]:
    """Hit ratio of each reported cache between two snapshots; 0.0 for a
    cache with no lookups in between."""
    return {
        f"perf.cache.{name}.hit_ratio": hits / (hits + misses) if hits + misses else 0.0
        for name, (hits, misses) in cache_counts(before, after).items()
    }
