"""repro.perf: LRU cache semantics, the bench harness, payload gating."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.errors import ConfigError, ReproError
from repro.perf.bench import (
    MicroBench,
    _run_micro,
    compare_bench_payloads,
    run_bench,
)
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
            "import json, repro, repro.net.network, repro.keys.soa, repro.perf.bench;"
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


class TestMicroHarness:
    def test_refuses_to_time_nonidentical_outputs(self):
        bench = MicroBench(
            name="broken",
            kind="crypto",
            ops_per_round=1,
            reference=lambda: b"a",
            optimized=lambda: b"b",
        )
        with pytest.raises(ReproError, match="bit-identical"):
            _run_micro(bench, repeat=1)

    def test_times_identical_outputs(self):
        bench = MicroBench(
            name="ok",
            kind="structural",
            ops_per_round=10,
            reference=lambda: [i * 2 for i in range(100)],
            optimized=lambda: [i * 2 for i in range(100)],
        )
        result = _run_micro(bench, repeat=2)
        assert result.name == "ok"
        assert result.ref_us > 0 and result.opt_us > 0
        assert result.speedup > 0

    def test_run_bench_rejects_bad_params(self):
        with pytest.raises(ReproError):
            run_bench(repeat=0)
        with pytest.raises(ReproError):
            run_bench(scale=0)


class TestFullBench:
    @pytest.fixture(scope="class")
    def report(self):
        # One tiny-but-real run shared by the assertions below.
        set_caching(True)
        clear_caches()
        return run_bench(repeat=1, scale=2, profile=True, profile_top=5)

    def test_all_benches_bit_identical_and_positive(self, report):
        assert report.micro, "micro suite is empty"
        kinds = {r.kind for r in report.micro}
        assert kinds == {"crypto", "primitive", "structural"}
        for r in report.micro:
            assert r.ref_us > 0 and r.opt_us > 0, r.name

    def test_e2e_cells_bit_identical(self, report):
        assert {r.cell for r in report.e2e} == {"fig7", "fig8", "chaos"}
        assert all(r.metrics_equal for r in report.e2e)
        assert report.e2e_cells_per_sec_opt > 0
        assert report.e2e_cells_per_sec_ref > 0

    def test_profile_table_present_when_requested(self, report):
        assert report.profile_table is not None
        assert "hotspots" in report.profile_table

    def test_payload_and_render_shapes(self, report):
        payload = report.payload()
        assert set(payload) >= {"micro", "e2e", "e2e_cells_per_sec", "cache_stats"}
        json.dumps(payload)  # must be JSON-serializable as-is
        text = report.render()
        assert "e2e throughput" in text
        for r in report.micro:
            assert r.name in text

    def test_profile_disabled_means_no_profiler(self):
        set_caching(True)
        clear_caches()
        report = run_bench(repeat=1, scale=1, profile=False)
        assert report.profile_table is None


class TestComparePayloads:
    BASE = {
        "micro": {"compute_mac": {"kind": "primitive", "speedup": 2.5}},
        "e2e": {"chaos": {"speedup": 1.4, "metrics_equal": True}},
    }

    def test_equal_payload_passes(self):
        report = compare_bench_payloads(self.BASE, self.BASE, threshold=0.5)
        assert report.passed
        assert report.compared == 2

    def test_speedup_gain_passes_one_sided(self):
        new = {
            "micro": {"compute_mac": {"kind": "primitive", "speedup": 9.9}},
            "e2e": {"chaos": {"speedup": 5.0, "metrics_equal": True}},
        }
        assert compare_bench_payloads(self.BASE, new, threshold=0.5).passed

    def test_large_drop_fails(self):
        new = {
            "micro": {"compute_mac": {"kind": "primitive", "speedup": 1.0}},
            "e2e": {"chaos": {"speedup": 1.4, "metrics_equal": True}},
        }
        report = compare_bench_payloads(self.BASE, new, threshold=0.5)
        assert not report.passed
        assert report.regressions[0].group == "micro:compute_mac"

    def test_missing_bench_fails(self):
        new = {"micro": {}, "e2e": dict(self.BASE["e2e"])}
        report = compare_bench_payloads(self.BASE, new, threshold=0.5)
        assert not report.passed
        assert "micro:compute_mac" in report.missing_groups

    def test_broken_bit_identity_fails_regardless_of_speed(self):
        new = {
            "micro": dict(self.BASE["micro"]),
            "e2e": {"chaos": {"speedup": 99.0, "metrics_equal": False}},
        }
        report = compare_bench_payloads(self.BASE, new, threshold=0.5)
        assert not report.passed
        assert any(r.metric == "metrics_equal" for r in report.regressions)


class TestCli:
    def test_bench_writes_payload_and_self_compares(self, tmp_path, capsys):
        out = tmp_path / "BENCH_perf.json"
        # --output is written before --compare reads it, so one
        # invocation exercises both paths; comparing a payload against
        # itself must always pass the gate (timing noise at this tiny
        # scale would make a two-invocation comparison flaky).
        assert main([
            "bench", "--repeat", "1", "--scale", "1", "--quiet",
            "--output", str(out), "--compare", str(out), "--threshold", "0.5",
        ]) == 0
        payload = json.loads(out.read_text())
        assert "micro" in payload and "e2e" in payload
        captured = capsys.readouterr().out
        assert "e2e throughput" in captured
        assert "PASS" in captured

    def test_bench_compare_missing_baseline_errors(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert main([
            "bench", "--repeat", "1", "--scale", "1", "--quiet",
            "--compare", str(missing),
        ]) == 1
        assert "cannot read baseline" in capsys.readouterr().out
