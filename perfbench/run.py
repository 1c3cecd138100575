"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload grid10k-min --seed 1 --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric, measured with tracing off.
``--trace 1`` runs the workload twice, untraced then traced, and prints
the per-layer table: each layer's self time (or count, or cache hit
ratio), the end-to-end metric it should move, ``unaccounted_s`` and the
tracing overhead.  Human-readable lines come first; the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

Run it from the root of a checkout: the program under test is imported
from ``src/``.  Workloads and their readings are in ``workloads.py``,
the layer spans in ``layers.py``.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import sys
from collections import Counter
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_program() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program to measure: {SRC / 'repro'} is missing")
    sys.path.insert(0, str(SRC))


_import_program()

from repro.metrics import percentile  # noqa: E402

from layers import (  # noqa: E402
    FLAT_SPANS,
    LAYER_TARGETS,
    OP_SPANS,
    SETUP_SPANS,
    SpanTracer,
    cache_hit_ratios,
)
from workloads import WORKLOADS, RunRecord, expected_digests, peak_rss_bytes, run_workload  # noqa: E402


def tail(samples: List[float]) -> Tuple[float, float]:
    """(value, percentile): the highest nearest-rank percentile with at
    least ten samples above it; the maximum below eleven samples."""
    ordered = sorted(samples)
    rank = len(ordered) - 10 if len(ordered) >= 11 else len(ordered)
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def end_to_end(workload, record: RunRecord, baseline_rss: int) -> Tuple[Dict[str, Tuple[float, str]], List[str]]:
    """Timings are medians of wall times the host factor of the stretch
    they ran in (``run_workload``): seconds on a quiet host."""
    outcomes = record.outcomes
    sessions = [o.session_s * o.host_factor for o in outcomes]
    setups = [wall * factor for wall, factor in zip(record.setup_walls, record.setup_factors)]
    tail_s, tail_pct = tail(sessions)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "exec_s": (statistics.median(o.session_s * o.host_factor / o.executions for o in outcomes), "s"),
        "session_s": (statistics.median(sessions), "s"),
        "net_bytes_per_node": ((record.peak_rss_bytes - baseline_rss) / workload.nodes, "B"),
        "radio_max_node_bytes": (statistics.median(o.radio_max_node_bytes for o in outcomes), "B"),
        "intervals_per_result": (statistics.median(o.intervals for o in outcomes), "count"),
        "ops_ok_ratio": ((record.attempted - record.failed) / record.attempted, "ratio"),
    }
    notes = [
        f"{len(sessions)} measured sessions of {statistics.median(o.executions for o in outcomes):g} "
        f"executions: tail p{tail_pct:.1f} {tail_s:.6f} s",
        f"raw walls: session median {statistics.median(o.session_s for o in outcomes):.6f} s, "
        f"{len(setups)} set-ups median {statistics.median(record.setup_walls):.6f} s; "
        f"host factor median {statistics.median(o.host_factor for o in outcomes):.4f}",
    ]
    return metrics, notes


def per_layer(record: RunRecord, untraced: RunRecord) -> Tuple[Dict[str, Tuple[float, str]], List[str]]:
    setup_spans: Dict[str, Dict[str, float]] = {}
    for part in (record.spans_setup, record.spans_ops):
        for name, stats in part.items():
            into = setup_spans.setdefault(name, {"self_s": 0.0, "calls": 0})
            into["self_s"] += stats["self_s"]
            into["calls"] += stats["calls"]
    spans = record.spans_ops
    ops = spans["op"]["calls"]
    outcomes = record.outcomes

    def per_op(name: str, key: str = "self_s") -> float:
        return spans.get(name, {}).get(key, 0) / ops

    metrics: Dict[str, Tuple[float, str]] = {}
    for name in SETUP_SPANS:  # one call per deployment build
        stats = setup_spans.get(name, {"self_s": 0.0, "calls": 0})
        metrics[f"{name}_s"] = (stats["self_s"] / stats["calls"] if stats["calls"] else 0.0, "s")
    for name, metric in OP_SPANS.items():
        metrics[metric] = (per_op(name), "s")
    for name in FLAT_SPANS:
        metrics[f"{name}.calls"] = (per_op(name, "calls"), "count")
        metrics[f"{name}.s"] = (per_op(name), "s")
    metrics["core.predicate_test.calls"] = (per_op("core.predicate_test", "calls"), "count")
    metrics["net.frames"] = (statistics.mean(o.frames for o in outcomes), "count")
    metrics["keys.revocation.revoked_keys"] = (statistics.mean(o.revoked_keys for o in outcomes), "count")
    for name, ratio in cache_hit_ratios(record.cache_before, record.cache_after).items():
        metrics[name] = (ratio, "ratio")
    for phase in ("tree", "aggregation", "confirmation", "predicate-reply"):
        samples = [s for o in outcomes for s in o.phase_samples.get(phase, [])]
        metrics[f"service.phase.{phase}.p50_s"] = (percentile(samples, 50.0) if samples else 0.0, "s")
    metrics["service.wire_frames"] = (statistics.mean(o.wire_frames for o in outcomes), "count")
    metrics["service.wire_bytes"] = (statistics.mean(o.wire_bytes for o in outcomes), "B")
    metrics["unaccounted_s"] = (per_op("op"), "s")
    # Both sides at the speed of a quiet host, like the end-to-end timings.
    untraced_op = statistics.median(o.op_s * o.host_factor for o in untraced.outcomes)
    metrics["trace_overhead_s"] = (
        statistics.median(o.op_s * o.host_factor for o in outcomes) - untraced_op, "s"
    )

    op_wall = per_op("op", "total_s")
    setup_wall = setup_spans["setup"]["self_s"] / setup_spans["setup"]["calls"] + sum(
        metrics[f"{name}_s"][0] for name in SETUP_SPANS
    )
    notes = [
        f"traced op wall {op_wall:.6f} s = nested layer self times + unaccounted_s; "
        "net.* spans overlap the layers that call them",
        f"traced set-up wall {setup_wall:.6f} s, of which keys.registry "
        f"{metrics['keys.registry_s'][0] / setup_wall:.1%}",
        f"untraced op median {untraced_op:.6f} s",
    ]
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # A SIGTERM unwinds like an error, so the node hosts a service
    # session started are still reaped.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    workload = WORKLOADS[args.workload]
    digest = expected_digests()[workload.name]
    baseline = peak_rss_bytes()  # after imports, before any set-up
    if args.trace:
        untraced = run_workload(workload, args.seed, args.seconds / 2, expected_digest=digest)
        tracer = SpanTracer()
        tracer.install()
        try:
            record = run_workload(
                workload, args.seed, args.seconds / 2, tracer=tracer, expected_digest=digest
            )
        finally:
            tracer.restore()
        records = [untraced, record]
    else:
        record = run_workload(workload, args.seed, args.seconds, expected_digest=digest)
        records = [record]
    if not all(r.outcomes for r in records):
        sys.exit("perfbench: no operation succeeded")
    if args.trace:
        metrics, notes = per_layer(record, untraced)
    else:
        metrics, notes = end_to_end(workload, record, baseline)
    attempted = sum(r.attempted for r in records)
    failed = sum(r.failed for r in records)
    errors = sum((r.errors for r in records), Counter())
    mismatches = sum((r.mismatches for r in records), Counter())

    if args.trace:  # the order of the layer list, with the metric each should move
        metrics = {name: metrics[name] for name in LAYER_TARGETS}
    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}")
    for name, (value, unit) in metrics.items():
        target = ""
        if args.trace:
            e2e, where = LAYER_TARGETS[name]
            target = f"  -> {e2e} [{where}]"
        print(f"  {name:<44} {value:>16.6f} {unit:<6}{target}")
    for note in notes:
        print(f"  note: {note}")
    print(f"  metrics digest {sorted(set(record.digests))} (expected {digest})")
    print(f"  attempted {attempted}, failed {failed}: errors {dict(errors)}, "
          f"mismatches {dict(mismatches)}")
    print(json.dumps({
        "correct": not mismatches,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
