"""Scale benchmark: single VMAT executions on large topologies.

This harness measures whole *executions* as the topology grows: the
workload the batched-delivery / lazy-edge-MAC /
incremental-secure-topology layer exists for.  Each cell builds one deployment (grid or line), runs a
fixed number of honest ``MinQuery`` executions, and records

* execution wall time and build wall time,
* ``nodes/s`` (nodes x executions / execution wall),
* ``frames/s`` (radio frames from ``Metrics.total_messages`` / wall),
* peak RSS (``ru_maxrss``; a process-wide high-water mark, so cells run
  smallest-first and each cell reports the mark *after* it ran).

Cells up to 1,000 nodes also run a cache-free leg (every cache
disabled via :func:`repro.perf.cache.disabled`; the kernel is the same)
on a fresh deployment with the same seed and assert
``Metrics.to_dict()`` equality — the cache-transparency contract of
``tests/test_perf.py``, applied end-to-end at scale; ``ref_s``/``speedup``
therefore measure what the caches alone buy.  The 10,000- and
100,000-node cells run optimized-only: their cache-free legs would
dominate the whole suite's budget, and the contract they would check is
already pinned by the smaller sizes (and by
``tests/test_kernel_digests.py``).

Line topologies stop at 1,000 nodes by design: a 10k-node line has
depth bound ~10k, and the paper's interval loop is O(n x L) — that cell
measures patience, not the optimization layer.  The 10k point uses a
100x100 grid (depth bound 198); the 100k point uses a 250x400 grid; the
opt-in 1M point (``make bench-scale-1m``) a 1000x1000 grid.  Cells at
or above 100k nodes additionally enforce two absolute gates: peak
bytes/node must stay strictly below :data:`MEMORY_BYTES_PER_NODE_GATE`
(the 10k-grid footprint of the pre-SoA object kernel), and build plus
optimized execution wall time must stay under the
:data:`SCALE_BUDGET_S` wall-clock budget (``REPRO_SCALE_BUDGET_S``
overrides), or the cell raises.

``python -m repro bench scale`` drives this module, writes
``BENCH_scale.json`` and gates regressions with
:func:`compare_scale_payloads` — on speedup ratios, bytes/node and
completion, not raw wall times, so the gate travels across hardware.
The comparison is sizes-aware: baseline cells whose size is absent from
the new payload's ``sizes`` list are skipped, so CI can sweep ≤10k
while the committed baseline keeps its 100k cell (run via
``make bench-scale-100k``).
"""

from __future__ import annotations

import gc
import math
import os
import resource
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from ..errors import ReproError
from .cache import cache_stats, clear_caches, disabled, merge_cache_stats

#: Node counts the default sweep covers.  The 100k cell is the
#: struct-of-arrays kernel's target: it only fits under the
#: memory-per-node gate below (the pre-SoA object kernel at that size
#: held millions of per-node containers).
SCALE_SIZES: Tuple[int, ...] = (100, 1_000, 10_000, 100_000)

#: The opt-in top size: one million nodes on a 1000x1000 grid.  Not in
#: the default sweep (its build alone is minutes of wall) — run it via
#: ``make bench-scale-1m`` or ``bench scale --sizes ... 1000000``.
MILLION_NODES = 1_000_000

#: Cells at/above this node count must hold the memory gate and the
#: wall-clock budget.
MEMORY_GATE_MIN_NODES = 100_000

#: Wall-clock budget (seconds) for gated cells: deployment build plus
#: the optimized executions must finish inside it.  Sized so the 100k
#: cell (~30 s) passes with an order of magnitude of slack and a 1M
#: cell that degenerated back to per-node-object scaling (> 10x the
#: column-kernel wall) fails.  ``REPRO_SCALE_BUDGET_S`` overrides.
SCALE_BUDGET_S = 1_800.0

#: Peak-RSS budget per node for gated cells, in bytes: the 10k grid
#: cell's whole-process footprint *before* the struct-of-arrays kernel
#: (404,844 KB for 10,000 nodes, BENCH_scale.json as of the resilience
#: PR).  A 100k run must come in strictly below the per-node footprint
#: the object kernel already paid at a tenth the size.
MEMORY_BYTES_PER_NODE_GATE = 404_844 * 1024 // 10_000

#: Sizes whose cells also run the cache-disabled reference leg.  The
#: 10k cells skip it (see module docstring).
REFERENCE_MAX_NODES = 1_000

#: Largest node count a *line* cell is built for (depth bound ~ n).
LINE_MAX_NODES = 1_000

_SCALE_SEED = 2011  # ICDCS 2011 — fixed so payloads are comparable

#: Executions per cell: >1 keeps the cells flood-heavy (every execution
#: re-floods the query and re-runs the aggregation schedule on a warm
#: deployment) without changing the deployment build cost.
_EXECUTIONS = {"grid": 2, "line": 2}
_EXECUTIONS_10K = 1  # one execution is plenty of work at 10k nodes


def scale_budget_s() -> float:
    """The gated cells' wall-clock budget (env-overridable, seconds)."""
    raw = os.environ.get("REPRO_SCALE_BUDGET_S", "").strip()
    if raw:
        try:
            value = float(raw)
            if value > 0:
                return value
        except ValueError:
            pass
    return SCALE_BUDGET_S


def grid_dims(nodes: int) -> Tuple[int, int]:
    """Grid dimensions for ``nodes``: the squarest factoring (rows <= cols).

    Exact for the sweep's sizes (10x10, 25x40, 100x100); raises for a
    prime-ish count that would degenerate into a line.
    """
    root = math.isqrt(nodes)
    for rows in range(root, 0, -1):
        if nodes % rows == 0:
            cols = nodes // rows
            if rows == 1 and nodes > 3:
                raise ReproError(
                    f"{nodes} nodes only factors as a 1x{nodes} grid — "
                    "pick a composite node count"
                )
            return rows, cols
    raise ReproError(f"cannot factor {nodes} into grid dimensions")


def _depth_bound(kind: str, nodes: int) -> int:
    if kind == "grid":
        rows, cols = grid_dims(nodes)
        return rows + cols - 2  # BFS depth of a grid from its corner
    if kind == "line":
        return nodes - 1
    raise ReproError(f"unknown scale topology kind {kind!r}")


def scale_cells(sizes: Tuple[int, ...] = SCALE_SIZES) -> List[Tuple[str, int]]:
    """The (kind, nodes) sweep for ``sizes``, smallest cells first.

    Smallest-first ordering makes each cell's peak-RSS reading as tight
    as a monotone process-wide high-water mark allows.
    """
    cells = [("grid", n) for n in sizes]
    cells += [("line", n) for n in sizes if n <= LINE_MAX_NODES]
    return sorted(cells, key=lambda cell: (cell[1], cell[0]))


@dataclass
class ScaleResult:
    """One cell of the scale sweep."""

    cell: str
    kind: str
    nodes: int
    depth_bound: int
    executions: int
    build_s: float
    opt_s: float
    nodes_per_sec: float
    frames: int
    frames_per_sec: float
    peak_rss_kb: int
    bytes_per_node: float = 0.0
    ref_s: Optional[float] = None
    speedup: Optional[float] = None
    metrics_equal: Optional[bool] = None


def _peak_rss_kb() -> int:
    """Process-wide peak RSS in KB (``ru_maxrss`` is KB on Linux)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - darwin reports bytes
        peak //= 1024
    return int(peak)


def _build_deployment(kind: str, nodes: int, seed: int, malicious_ids=None):
    from dataclasses import replace

    from .. import build_deployment, small_test_config
    from ..topology.generators import grid_topology, line_topology

    if kind == "grid":
        rows, cols = grid_dims(nodes)
        topology = grid_topology(rows, cols)
    else:
        topology = line_topology(nodes)
    # Paper-scale rings (the evaluation's r = 250) over a pool sized so
    # a degree-4 grid keeps near-certain edge-key coverage: two rings
    # share a key with probability ~1 - e^(-r^2/u) ~ 0.98.  The toy
    # test-config pool (u = 200) would make every ring intersection
    # trivially cheap and understate the uncached leg's real cost.
    config = small_test_config(
        depth_bound=_depth_bound(kind, nodes), pool_size=16_384, ring_size=250
    )
    # Multi-path rings (Section IV-D, synopsis diffusion): every sensor
    # records all same-interval beacon senders as parents and transmits
    # its bundle to each of them.  This is the flood-heavy configuration
    # the batched-delivery layer targets — per-frame work (edge MACs,
    # pool-key derivation, ring intersection) multiplies with the ring
    # fan-out while the per-broadcast work stays constant.
    config = replace(config, network=replace(config.network, multipath=True))
    return build_deployment(
        config=config,
        topology=topology,
        malicious_ids=set(malicious_ids or ()),
        seed=seed,
    )


def _run_executions(kind: str, nodes: int, executions: int, seed: int):
    """Build a fresh deployment, run ``executions`` honest MinQueries.

    Returns (build_s, exec_s, metrics_dict, total_frames).  A fresh
    deployment per call keeps reference and optimized legs starting from
    identical state.
    """
    from .. import MinQuery, VMATProtocol

    started = time.perf_counter()
    deployment = _build_deployment(kind, nodes, seed)
    build_s = time.perf_counter() - started

    network = deployment.network
    protocol = VMATProtocol(network)
    readings = {i: 10.0 + (i % 9) for i in deployment.topology.sensor_ids}
    per_exec: List[float] = []
    # Pause cyclic GC while timing (frames and audit records allocate
    # heavily); both legs get identical treatment.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(executions):
            started = time.perf_counter()
            result = protocol.execute(MinQuery(), readings)
            per_exec.append(time.perf_counter() - started)
            if not result.produced_result:
                raise ReproError(
                    f"scale cell {kind}-{nodes}: honest execution failed to "
                    "produce a result"
                )
    finally:
        if gc_was_enabled:
            gc.enable()
    # Steady-state wall estimate: the fastest execution times the count.
    # The first warm execution pays every cold cache miss and any timing
    # run may eat a scheduler hiccup; the per-execution minimum is the
    # repeatable number (both legs get the same treatment).
    exec_s = min(per_exec) * executions
    metrics = network.metrics
    return build_s, exec_s, metrics.to_dict(), metrics.total_messages()


def reference_equality(
    kind: str, nodes: int, executions: int, seed: int = _SCALE_SEED
) -> Dict[str, float]:
    """Deterministic disabled-vs-warm equality check for one cell.

    Runs the reference leg (caches disabled) and a cold-started warm leg
    on fresh deployments with the same seed, asserts byte-identical
    ``Metrics.to_dict()``, and returns only *deterministic* numbers — no
    wall times — so the campaign store can diff this cell at zero
    tolerance.  Raises :class:`ReproError` on any divergence.
    """
    with disabled():
        _, _, ref_metrics, ref_frames = _run_executions(kind, nodes, executions, seed)
    clear_caches()
    _, _, opt_metrics, opt_frames = _run_executions(kind, nodes, executions, seed)
    if ref_metrics != opt_metrics:
        diverging = sorted(
            key
            for key in set(ref_metrics) | set(opt_metrics)
            if ref_metrics.get(key) != opt_metrics.get(key)
        )
        raise ReproError(
            f"scale cell {kind}-{nodes}: disabled and warm runs diverge "
            f"on metrics keys {diverging} — bit-identity broken"
        )
    if ref_frames != opt_frames:
        raise ReproError(
            f"scale cell {kind}-{nodes}: frame counts diverge "
            f"({ref_frames} reference vs {opt_frames} warm)"
        )
    return {
        "metrics_equal": 1.0,
        "frames": float(opt_frames),
        "messages_sent": float(sum(opt_metrics["messages_sent"].values())),
        "intervals": float(opt_metrics["intervals_elapsed"]),
    }


def _run_attacked_executions(
    kind: str, nodes: int, executions: int, strategy: str, seed: int
):
    """One attacked leg: fresh deployment, zoo adversary, same readings.

    Returns (outcome values, metrics_dict, total_frames).  Unlike the
    honest leg, a failed execution is a legal outcome (e.g. relay-drop
    chokes the tree) — the outcome *sequence* is part of the compared
    state instead.
    """
    from .. import MinQuery, VMATProtocol
    from ..adversary import Adversary, make_strategy

    malicious = {max(1, nodes // 3), max(2, nodes // 2)}
    deployment = _build_deployment(kind, nodes, seed, malicious_ids=malicious)
    network = deployment.network
    adversary = Adversary(network, make_strategy(strategy), seed=seed)
    protocol = VMATProtocol(network, adversary=adversary)
    readings = {i: 10.0 + (i % 9) for i in deployment.topology.sensor_ids}
    outcomes = [
        protocol.execute(MinQuery(), readings).outcome.value
        for _ in range(executions)
    ]
    metrics = network.metrics
    return outcomes, metrics.to_dict(), metrics.total_messages()


def attacked_reference_equality(
    kind: str,
    nodes: int,
    executions: int,
    strategy: str = "relay-drop",
    seed: int = _SCALE_SEED,
) -> Dict[str, float]:
    """Disabled-vs-warm equality for one *attacked* cell.

    Adversarial runs use the same column kernel, so the same
    cache-transparency contract as :func:`reference_equality` must hold
    with a zoo
    strategy active: byte-identical ``Metrics.to_dict()``, identical
    outcome sequence, identical frame counts.  Two deterministic
    mid-topology sensors are compromised (colluding strategies need at
    least two); both legs build fresh deployments and re-seed the
    adversary identically.  Raises :class:`ReproError` on divergence.
    """
    with disabled():
        ref_outcomes, ref_metrics, ref_frames = _run_attacked_executions(
            kind, nodes, executions, strategy, seed
        )
    clear_caches()
    opt_outcomes, opt_metrics, opt_frames = _run_attacked_executions(
        kind, nodes, executions, strategy, seed
    )
    if ref_outcomes != opt_outcomes:
        raise ReproError(
            f"attacked scale cell {kind}-{nodes} ({strategy}): outcome "
            f"sequences diverge ({ref_outcomes} reference vs {opt_outcomes} "
            "warm)"
        )
    if ref_metrics != opt_metrics:
        diverging = sorted(
            key
            for key in set(ref_metrics) | set(opt_metrics)
            if ref_metrics.get(key) != opt_metrics.get(key)
        )
        raise ReproError(
            f"attacked scale cell {kind}-{nodes} ({strategy}): disabled and "
            f"warm runs diverge on metrics keys {diverging} — bit-identity "
            "broken"
        )
    if ref_frames != opt_frames:
        raise ReproError(
            f"attacked scale cell {kind}-{nodes} ({strategy}): frame counts "
            f"diverge ({ref_frames} reference vs {opt_frames} warm)"
        )
    return {
        "metrics_equal": 1.0,
        "frames": float(opt_frames),
        "messages_sent": float(sum(opt_metrics["messages_sent"].values())),
        "intervals": float(opt_metrics["intervals_elapsed"]),
    }


def run_scale_cell(kind: str, nodes: int, with_reference: bool) -> ScaleResult:
    """Run one (kind, nodes) cell; reference leg only when requested."""
    executions = _EXECUTIONS_10K if nodes >= 10_000 else _EXECUTIONS[kind]
    ref_s: Optional[float] = None
    metrics_equal: Optional[bool] = None
    ref_metrics: Any = None
    if with_reference:
        with disabled():
            _, ref_s, ref_metrics, _ = _run_executions(
                kind, nodes, executions, _SCALE_SEED
            )
    clear_caches()  # the optimized leg starts cold, like a fresh worker
    build_s, opt_s, opt_metrics, frames = _run_executions(
        kind, nodes, executions, _SCALE_SEED
    )
    if with_reference:
        metrics_equal = ref_metrics == opt_metrics
        if not metrics_equal:
            raise ReproError(
                f"scale cell {kind}-{nodes}: cache-disabled and warm runs "
                "produced different Metrics.to_dict() — bit-identity broken"
            )
    # Per-node footprint from the process high-water mark.  Cells run
    # smallest-first, so the largest cell's reading is its own peak; for
    # the small cells the number is an upper bound only (a later reading
    # of an earlier mark) and is recorded, not gated.
    peak_rss_kb = _peak_rss_kb()
    bytes_per_node = round(peak_rss_kb * 1024 / nodes, 1)
    if nodes >= MEMORY_GATE_MIN_NODES and bytes_per_node >= MEMORY_BYTES_PER_NODE_GATE:
        raise ReproError(
            f"scale cell {kind}-{nodes}: {bytes_per_node:.0f} bytes/node "
            f"(peak RSS {peak_rss_kb} KB) breaches the "
            f"{MEMORY_BYTES_PER_NODE_GATE} bytes/node gate — the "
            "struct-of-arrays kernel is not carrying this size"
        )
    budget = scale_budget_s()
    if nodes >= MEMORY_GATE_MIN_NODES and build_s + opt_s > budget:
        raise ReproError(
            f"scale cell {kind}-{nodes}: build + optimized executions took "
            f"{build_s + opt_s:.1f} s, over the {budget:.0f} s wall-clock "
            "budget (REPRO_SCALE_BUDGET_S overrides)"
        )
    return ScaleResult(
        cell=f"{kind}-{nodes}",
        kind=kind,
        nodes=nodes,
        depth_bound=_depth_bound(kind, nodes),
        executions=executions,
        build_s=round(build_s, 6),
        opt_s=round(opt_s, 6),
        nodes_per_sec=round(nodes * executions / opt_s, 2) if opt_s > 0 else 0.0,
        frames=frames,
        frames_per_sec=round(frames / opt_s, 2) if opt_s > 0 else 0.0,
        peak_rss_kb=peak_rss_kb,
        bytes_per_node=bytes_per_node,
        ref_s=round(ref_s, 6) if ref_s is not None else None,
        speedup=(
            round(ref_s / opt_s, 2) if ref_s is not None and opt_s > 0 else None
        ),
        metrics_equal=metrics_equal,
    )


@dataclass
class ScaleReport:
    """Everything one ``repro bench scale`` invocation measured."""

    cells: List[ScaleResult] = field(default_factory=list)
    cache_stat_snapshot: Dict[str, Dict[str, int]] = field(default_factory=dict)

    def payload(self) -> Dict[str, Any]:
        """The ``BENCH_scale.json`` payload (comparison-stable keys)."""
        return {
            "python": sys.version.split()[0],
            "seed": _SCALE_SEED,
            # Node counts this sweep covered — the comparison gate only
            # expects cells whose size a fresh run actually swept, so a
            # CI smoke over the small sizes can diff against a payload
            # that also carries the 100k cell.
            "sizes": sorted({r.nodes for r in self.cells}),
            "cells": {
                r.cell: {
                    "kind": r.kind,
                    "nodes": r.nodes,
                    "depth_bound": r.depth_bound,
                    "executions": r.executions,
                    "build_s": r.build_s,
                    "opt_s": r.opt_s,
                    "ref_s": r.ref_s,
                    "speedup": r.speedup,
                    "metrics_equal": r.metrics_equal,
                    "nodes_per_sec": r.nodes_per_sec,
                    "frames": r.frames,
                    "frames_per_sec": r.frames_per_sec,
                    "peak_rss_kb": r.peak_rss_kb,
                    "bytes_per_node": r.bytes_per_node,
                }
                for r in self.cells
            },
            "cache_stats": self.cache_stat_snapshot or cache_stats(),
        }

    def render(self) -> str:
        from ..campaign.report import format_table

        rows = [
            [
                r.cell,
                r.depth_bound,
                r.ref_s if r.ref_s is not None else "-",
                r.opt_s,
                f"{r.speedup}x" if r.speedup is not None else "-",
                r.nodes_per_sec,
                r.frames_per_sec,
                r.peak_rss_kb // 1024,
                int(r.bytes_per_node),
            ]
            for r in self.cells
        ]
        return format_table(
            "scale cells (reference = caches disabled, same build)",
            ["cell", "depth", "ref_s", "opt_s", "speedup", "nodes/s", "frames/s", "rss_mb", "B/node"],
            rows,
        )


def run_scale_bench(
    sizes: Tuple[int, ...] = SCALE_SIZES,
    progress: Optional[Callable[[str], None]] = None,
) -> ScaleReport:
    """Run the scale sweep over ``sizes`` and return the report."""
    if not sizes or any(n < 4 for n in sizes):
        raise ReproError("scale sizes must be >= 4 nodes")
    say = progress or (lambda message: None)
    report = ScaleReport()
    for kind, nodes in scale_cells(tuple(sizes)):
        result = run_scale_cell(kind, nodes, with_reference=nodes <= REFERENCE_MAX_NODES)
        report.cells.append(result)
        # Snapshot while this cell's caches are still warm; the next
        # cell's reference leg enters disabled(), which clears them.
        report.cache_stat_snapshot = merge_cache_stats(
            report.cache_stat_snapshot, cache_stats()
        )
        say(
            f"scale {result.cell}: opt {result.opt_s}s"
            + (f", ref {result.ref_s}s ({result.speedup}x)" if result.ref_s is not None else "")
            + f", {result.frames_per_sec:.0f} frames/s, rss {result.peak_rss_kb // 1024} MB"
        )
    return report


def compare_scale_payloads(
    base: Mapping[str, Any], new: Mapping[str, Any], threshold: float = 0.5
) -> "Any":
    """Gate a fresh scale payload against a committed ``BENCH_scale.json``.

    Gates on what travels across hardware: per-cell **speedup ratios**
    (one-sided — only a drop beyond ``threshold`` regresses),
    **bytes/node** (one-sided — only growth beyond ``threshold``
    regresses; the absolute 100k gate lives in :func:`run_scale_cell`),
    the bit-identity flag, and cell *presence* — sizes-aware: a base
    cell only counts as missing when the fresh payload claims to have
    swept that node count (its ``sizes`` key), so a CI smoke over the
    small sizes diffs cleanly against a full payload carrying the 100k
    cell.  Raw wall times and throughputs are recorded for humans but
    never gated.  Returns a
    :class:`repro.campaign.report.ComparisonReport`.
    """
    from ..campaign.report import ComparisonReport, Regression

    report = ComparisonReport(
        base_run="BENCH_scale.json", new_run="bench-scale", threshold=threshold
    )
    new_cells = new.get("cells") or {}
    new_sizes = set(new.get("sizes") or ())
    if not new_sizes:  # pre-sizes payloads: infer coverage from the cells
        new_sizes = {
            entry.get("nodes") for entry in new_cells.values() if entry.get("nodes")
        }
    for cell, entry in (base.get("cells") or {}).items():
        new_entry = new_cells.get(cell)
        if new_entry is None:
            # Sizes-aware skip only when both sides carry size info;
            # legacy payloads keep the strict every-cell expectation.
            nodes = entry.get("nodes")
            if not new_sizes or nodes is None or nodes in new_sizes:
                report.missing_groups.append(f"scale:{cell}")
            continue
        base_speedup = entry.get("speedup")
        new_speedup = new_entry.get("speedup")
        if isinstance(base_speedup, (int, float)):
            if not isinstance(new_speedup, (int, float)):
                report.missing_groups.append(f"scale:{cell} :: speedup")
            else:
                report.compared += 1
                drop = (base_speedup - new_speedup) / base_speedup if base_speedup else 0.0
                if drop > threshold:
                    report.regressions.append(
                        Regression(
                            group=f"scale:{cell}",
                            metric="speedup",
                            base_mean=float(base_speedup),
                            new_mean=float(new_speedup),
                            rel_delta=-drop,
                        )
                    )
        base_bpn = entry.get("bytes_per_node")
        new_bpn = new_entry.get("bytes_per_node")
        if isinstance(base_bpn, (int, float)) and base_bpn > 0:
            if isinstance(new_bpn, (int, float)):
                report.compared += 1
                growth = (new_bpn - base_bpn) / base_bpn
                if growth > threshold:
                    report.regressions.append(
                        Regression(
                            group=f"scale:{cell}",
                            metric="bytes_per_node",
                            base_mean=float(base_bpn),
                            new_mean=float(new_bpn),
                            rel_delta=growth,
                        )
                    )
        if new_entry.get("metrics_equal") is False:
            report.regressions.append(
                Regression(
                    group=f"scale:{cell}",
                    metric="metrics_equal",
                    base_mean=1.0,
                    new_mean=0.0,
                    rel_delta=-1.0,
                )
            )
    return report
