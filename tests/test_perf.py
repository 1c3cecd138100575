"""repro.perf: LRU cache semantics, cache hit gates, cache transparency."""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro import VMATProtocol, build_deployment, grid_topology, small_test_config
from repro.adversary import Adversary, SpuriousVetoStrategy
from repro.config import RevocationConfig
from repro.core.queries import CountQuery, MinQuery
from repro.errors import ConfigError
from repro.perf.cache import (
    LRUCache,
    cache_stats,
    caching_enabled,
    clear_caches,
    disabled,
    registered_caches,
    set_caching,
)


@pytest.fixture(autouse=True)
def _clean_state():
    set_caching(True)
    clear_caches()
    yield
    set_caching(True)
    clear_caches()


def _fresh_cache(name: str, maxsize: int) -> LRUCache:
    # The registry rejects duplicate names; tests get unique ones.
    return LRUCache(f"test-{name}-{id(object())}", maxsize=maxsize)


class TestLRUCache:
    def test_bounded_eviction_is_lru(self):
        cache = _fresh_cache("evict", 2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh "a"; "b" is now oldest
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert cache.evictions == 1
        assert len(cache) == 2

    def test_put_existing_key_updates_without_eviction(self):
        cache = _fresh_cache("update", 2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)
        assert cache.get("a") == 10
        assert cache.get("b") == 2
        assert cache.evictions == 0

    def test_maxsize_must_be_positive(self):
        with pytest.raises(ConfigError):
            LRUCache("test-bad-maxsize", maxsize=0)

    def test_duplicate_name_rejected(self):
        cache = _fresh_cache("dup", 4)
        with pytest.raises(ConfigError):
            LRUCache(cache.name, maxsize=4)

    def test_stats_counts_hits_misses(self):
        cache = _fresh_cache("stats", 4)
        assert cache.get("missing") is None
        cache.put("k", b"v")
        assert cache.get("k") == b"v"
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["size"] == 1
        assert cache.name in registered_caches()
        assert cache_stats()[cache.name] == stats

    def test_package_registers_only_the_paying_caches(self):
        # A fresh interpreter: this process also holds the tests' caches.
        import os
        import subprocess
        import sys

        import repro

        code = (
            "import json, repro, repro.net.network, repro.keys.soa;"
            "from repro.perf.cache import registered_caches;"
            "print(json.dumps(registered_caches()))"
        )
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)))
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert json.loads(out.stdout) == [
            "hmac-keyed-states",
            "derived-keys",
            "synopsis-draw-vectors",
        ]

    def test_disable_clears_and_bypasses(self):
        cache = _fresh_cache("disable", 4)
        cache.put("k", b"v")
        set_caching(False)
        assert not caching_enabled()
        assert cache.get("k") is None  # cleared, and get is a no-op
        cache.put("k", b"v")
        assert len(cache) == 0  # put is a no-op too
        set_caching(True)
        assert cache.get("k") is None  # re-enabling starts cold

    def test_disabled_context_restores_previous_state(self):
        assert caching_enabled()
        with disabled():
            assert not caching_enabled()
            with disabled():
                assert not caching_enabled()
            assert not caching_enabled()  # inner exit keeps outer's False
        assert caching_enabled()

    def test_view_tracks_disable_in_place(self):
        """The raw view must never serve stale entries: disabling clears
        the backing dict *in place*, and put stays a no-op."""
        cache = _fresh_cache("view", 4)
        view = cache.view()
        cache.put("k", b"v")
        assert view.get("k") == b"v"
        set_caching(False)
        assert view.get("k") is None
        cache.put("k", b"v")
        assert view.get("k") is None
        set_caching(True)
        cache.put("k", b"v2")
        assert view.get("k") == b"v2"


_PAYING_CACHES = ("hmac-keyed-states", "derived-keys", "synopsis-draw-vectors")


def _config(theta=None):
    config = small_test_config(depth_bound=8, pool_size=200, ring_size=40, num_synopses=20)
    if theta is not None:
        config = replace(config, revocation=RevocationConfig(theta=theta))
    return config


def _count_session():
    """Honest COUNT on a 5x5 grid: signs and checks m=20 synopses."""
    dep = build_deployment(config=_config(), topology=grid_topology(5, 5), seed=7)
    readings = {i: 50.0 + i for i in dep.topology.sensor_ids}
    session = VMATProtocol(dep.network).run_session(CountQuery(num_synopses=20), readings)
    return dep, session


def _attacked_session():
    """θ=3, sensor 12 running spurious-veto: pinpointing and revocation."""
    dep = build_deployment(
        config=_config(theta=3), topology=grid_topology(5, 5), seed=7, malicious_ids={12}
    )
    adversary = Adversary(dep.network, SpuriousVetoStrategy(), seed=7)
    readings = {i: 50.0 + i for i in dep.topology.sensor_ids}
    session = VMATProtocol(dep.network, adversary=adversary).run_session(MinQuery(), readings)
    return dep, session


def _observed(dep, session):
    """Everything a session lets an observer see."""
    return {
        "estimate": session.final_estimate,
        "outcomes": [e.outcome.name for e in session.executions],
        "revoked_keys": sorted(dep.registry.revocation.revoked_keys),
        "revoked_sensors": sorted(dep.registry.revocation.revoked_sensors),
        "metrics": dep.network.metrics.to_dict(),
    }


def _lookups(run):
    """``run()``'s observation and each cache's (hits, misses) during it."""
    clear_caches()
    before = cache_stats()
    observed = _observed(*run())
    after = cache_stats()
    counts = {
        name: (
            after[name]["hits"] - before[name]["hits"],
            after[name]["misses"] - before[name]["misses"],
        )
        for name in _PAYING_CACHES
    }
    return observed, counts


class TestCacheHitGate:
    """Each cache earns its place by hitting on fixed sessions.  Hit
    and miss counts do not vary run to run, so they are compared, not
    timed."""

    def test_every_cache_hits_and_counts_repeat(self):
        set_caching(True)  # holds under REPRO_DISABLE_PERF_CACHES=1 too
        hits = dict.fromkeys(_PAYING_CACHES, 0)
        for run in (_count_session, _attacked_session):
            _, first = _lookups(run)
            _, second = _lookups(run)
            assert first == second, run.__name__
            for name, (hit, _) in first.items():
                hits[name] += hit
        assert all(hits[name] >= 1 for name in _PAYING_CACHES), hits


class TestCacheTransparency:
    """Warm caches and :func:`disabled` give the same observable run."""

    @pytest.mark.parametrize("run", [_count_session, _attacked_session])
    def test_session_warm_equals_disabled(self, run):
        warm, _ = _lookups(run)
        with disabled():
            cold = _observed(*run())
        assert json.dumps(warm, sort_keys=True) == json.dumps(cold, sort_keys=True)

    def test_chaos_cell_warm_equals_disabled(self):
        import repro.campaign.scenarios  # noqa: F401  (registers the scenarios)
        from repro.campaign.registry import get_scenario

        run = get_scenario("chaos").run
        params = {"nodes": 16, "profile": "mixed", "executions": 2}
        warm = run(dict(params), 1337)
        with disabled():
            cold = run(dict(params), 1337)
        assert repr(warm) == repr(cold)
        assert warm["faults_injected"] > 0
