"""The benchmark's own checks, on shrunken copies of its workloads.

    python3 -m pytest perfbench -q

* Per-layer counts repeat exactly across two runs of the same seed.
* Every layer wrapper is transparent: a traced run produces the same
  outcome as an untraced one, and ``restore`` puts every original back.
* Without the program next to it, ``run.py`` fails without a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.service import ServiceSpec

from layers import FLAT_SPANS, SpanTracer, cache_counts
from workloads import GridWorkload, ServiceWorkload, run_workload

HERE = Path(__file__).resolve().parent

SMALL = [
    GridWorkload("small-min", 8, 8, "min", pool_size=16_384, ring_size=250, setup_repeats=1),
    GridWorkload(
        "small-count", 6, 6, "count", pool_size=16_384, ring_size=250,
        num_synopses=100, setup_repeats=1, fresh_per_op=True,
    ),
    GridWorkload(
        "small-attack", 8, 8, "min", pool_size=2_000, ring_size=60,
        theta=5, attacker=9, strategy="spurious-veto", setup_repeats=1, fresh_per_op=True,
    ),
    ServiceWorkload(
        "small-service",
        ServiceSpec(num_nodes=16, processes=1, malicious_ids=(5,), theta=6),
        attack="spurious-veto", setup_repeats=1,
    ),
]
IDS = [w.name for w in SMALL]


def traced_run(workload, seed: int = 7):
    tracer = SpanTracer()
    tracer.install()
    try:
        return run_workload(workload, seed, ops=2, tracer=tracer)
    finally:
        tracer.restore()


def layer_counts(record):
    spans = record.spans_ops
    return {
        "net.frames": [o.frames for o in record.outcomes],
        "revoked_keys": [o.revoked_keys for o in record.outcomes],
        "calls": {
            name: spans.get(name, {}).get("calls", 0)
            for name in ("core.predicate_test", "core.pinpoint", *FLAT_SPANS)
        },
        "cache": cache_counts(record.cache_before, record.cache_after),
    }


@pytest.mark.parametrize("workload", SMALL, ids=IDS)
def test_layer_counts_repeat_exactly(workload):
    first, second = traced_run(workload), traced_run(workload)
    assert not first.errors and not first.mismatches
    assert layer_counts(first) == layer_counts(second)


@pytest.mark.parametrize("workload", SMALL, ids=IDS)
def test_tracing_does_not_change_outcomes(workload):
    def outcomes(record):
        return [
            (o.estimate, o.executions, o.revoked_sensors, o.revoked_keys, o.digest)
            for o in record.outcomes
        ]

    plain = run_workload(workload, 11, ops=2)
    traced = traced_run(workload, seed=11)
    assert outcomes(plain) == outcomes(traced)
    assert plain.digests == traced.digests


def test_wrappers_return_what_the_wrapped_call_returns():
    tracer = SpanTracer()
    payload = object()

    def target(a, b=2):
        return (a, b, payload)

    assert tracer.wrap("x", target)(1, b=3) == target(1, b=3)
    assert tracer.wrap_flat("y", target)(1) == target(1)
    spans = tracer.take()
    assert spans["x"]["calls"] == 1 and spans["y"]["calls"] == 1


def test_restore_puts_every_original_back():
    import repro
    import repro.core.protocol as protocol
    import repro.net.network as network

    originals = (repro.KeyRegistry, protocol.form_tree, network.PhaseContext.__dict__["inbox"])
    tracer = SpanTracer()
    tracer.install()
    assert repro.KeyRegistry is not originals[0]
    tracer.restore()
    assert (repro.KeyRegistry, protocol.form_tree, network.PhaseContext.__dict__["inbox"]) == originals


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid256-count",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)


def test_failures_are_counted_and_the_run_goes_on(monkeypatch):
    from repro.core.protocol import VMATProtocol
    from repro.errors import ProtocolError

    workload = SMALL[0]
    original = VMATProtocol.run_session
    calls = []

    def flaky(self, *args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise ProtocolError("injected")
        return original(self, *args, **kwargs)

    monkeypatch.setattr(VMATProtocol, "run_session", flaky)
    record = run_workload(workload, 3, ops=3, expected_digest="not-the-digest")
    assert record.attempted == 4  # warm-up plus three
    assert record.errors == {"ProtocolError": 1}
    assert record.mismatches == {"metrics-digest": 3}
    assert record.failed == 4 and len(record.outcomes) == 2
