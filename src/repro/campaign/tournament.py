"""Adversary tournaments: strategy × predtest × topology × fault grid.

Every cell of the tournament runs one adversary configuration from the
zoo registry (:mod:`repro.adversary.zoo`) through a seeded deployment
and scores the damage it inflicted against how fast VMAT pinpointed it.
Two of the paper's theorems ride along as **per-cell oracles** — honest
node safety (Lemmas 4/5) and revocation progress (Theorems 6/7), via
:class:`repro.invariants.InvariantMonitor` — so a violation *fails the
cell*, not just a number in a report.  The grid itself reuses the
spawn-safe campaign machinery: hash-derived per-cell seeds, the JSONL
result store, resume, and zero-tolerance run-to-run comparison.

Scoring
-------

``damage``
    Σ |estimate − honest-true-minimum| over executions that produced an
    accepted result.  Executions that ended in pinpointing contribute
    no damage (the base station published nothing).
``detection_latency_intervals``
    Protocol intervals elapsed until the first revocation; when the
    strategy is never caught, the full session length (it evaded for
    the whole tournament cell).
``damage_per_latency``
    ``damage / max(latency, 1)`` — damage bought per interval of
    evasion.  The ranking report orders strategies by this score: high
    means VMAT is paying real accuracy while pinpointing is slow, ``0``
    means the strategy is either harmless or caught before it profits.

::

    python -m repro campaign tournament run --jobs 4
    python -m repro campaign tournament report latest --output BENCH_tournament.json
    python -m repro campaign tournament compare <base> <new>
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..errors import ConfigError, ReproError
from .registry import scenario
from .spec import CampaignSpec, ScenarioSpec

#: Topology axis values: name → (builder kind, sensor count).  Small on
#: purpose — a tournament sweeps hundreds of cells; scale lives in
#: ``bench scale``.
TOPOLOGIES: Tuple[str, ...] = ("line-10", "grid-16")

#: Fault-profile axis values.  ``none`` is the paper's fault-free model
#: (strict Theorem-6 pinpointing); ``quiet`` attaches a fault injector
#: with an empty plan — benign mode on, behaviour otherwise untouched —
#: so absence-based blame defers to INCONCLUSIVE exactly as under real
#: crashes, without fault randomness inside the tournament cell.
FAULT_PROFILES: Tuple[str, ...] = ("none", "quiet")

PREDTESTS: Tuple[str, ...] = ("truthful", "deny")


def _build_topology(name: str, min_malicious: int):
    """Resolve a topology axis value: (topology, depth_bound, malicious,
    planted_minimum_sensor)."""
    from ..topology import grid_topology, line_topology

    if name == "line-10":
        topology = line_topology(10)
        malicious: Tuple[int, ...] = (4,) if min_malicious < 2 else (3, 6)
        return topology, 12, malicious, 7
    if name == "grid-16":
        topology = grid_topology(4, 4)
        malicious = (5,) if min_malicious < 2 else (5, 10)
        return topology, 8, malicious, 15
    raise ConfigError(f"unknown tournament topology {name!r}; use one of {TOPOLOGIES}")


@scenario(
    "tournament",
    description=(
        "Adversary zoo tournament: one zoo strategy per cell, scored by "
        "damage-per-detection-latency, with honest-node-safety and "
        "revocation-progress invariants asserted in-cell"
    ),
    grid={
        "strategy": (
            "passive",
            "drop-minimum",
            "hide-and-veto",
            "junk-minimum",
            "spurious-veto",
            "choking-flood",
            "relay-drop",
            "replay",
            "wormhole",
            "framing-choke-mix",
            "adaptive",
            "burst",
            "burst-junk",
            "best-response",
            "cover-accomplice",
            "split-roles",
        ),
        "predtest": PREDTESTS,
        "topology": TOPOLOGIES,
        "profile": FAULT_PROFILES,
        "executions": (3,),
    },
    reduced_grid={
        "strategy": ("drop-minimum", "spurious-veto"),
        "predtest": PREDTESTS,
        "topology": TOPOLOGIES,
        "profile": ("none",),
        "executions": (2,),
    },
)
def tournament_scenario(params: Mapping[str, Any], seed: int) -> Dict[str, float]:
    """One tournament cell: a zoo adversary vs VMAT, invariant-gated.

    The cell raises (fails) if the invariant monitor records a single
    honest-node-safety or revocation-progress violation, or if any
    honest sensor ends the session revoked.  All randomness flows from
    the cell seed, so every number returned is bit-reproducible at any
    ``--jobs``.
    """
    from .. import MinQuery, VMATProtocol, build_deployment, small_test_config
    from ..adversary import ZOO, Adversary, make_strategy
    from ..faults import FaultInjector, FaultPlan
    from ..invariants import HonestNodeSafety, InvariantMonitor, RevocationProgress
    from ..tracing import Tracer

    strategy_name = str(params["strategy"])
    info = ZOO.get(strategy_name)
    if info is None:
        raise ConfigError(
            f"unknown tournament strategy {strategy_name!r}; registered: {sorted(ZOO)}"
        )
    executions = int(params["executions"])
    profile = str(params["profile"])
    if profile not in FAULT_PROFILES:
        raise ConfigError(f"unknown fault profile {profile!r}; use one of {FAULT_PROFILES}")

    topology, depth_bound, malicious, min_sensor = _build_topology(
        str(params["topology"]), info.contract.min_malicious
    )
    deployment = build_deployment(
        config=small_test_config(depth_bound=depth_bound),
        topology=topology,
        malicious_ids=set(malicious),
        seed=seed,
    )
    network = deployment.network
    if profile == "quiet":
        FaultInjector(FaultPlan(name="quiet"), seed=seed).attach(network)
    adversary = Adversary(
        network, make_strategy(strategy_name, predtest=str(params["predtest"])), seed=seed
    )
    protocol = VMATProtocol(network, adversary=adversary)
    tracer = Tracer.attach(network)
    monitor = InvariantMonitor.attach(
        tracer,
        network,
        invariants=[HonestNodeSafety(), RevocationProgress()],
        on_violation="record",
    )

    readings = {i: 100.0 + i for i in topology.sensor_ids}
    readings[min_sensor] = 1.0

    damage = 0.0
    revocations = 0
    results_produced = inconclusive = pinpoints = 0
    detection_latency: Optional[int] = None
    for _ in range(executions):
        result = protocol.execute(MinQuery(), readings)
        if result.produced_result and result.estimate is not None:
            results_produced += 1
            if result.honest_true_value is not None:
                damage += abs(result.estimate - result.honest_true_value)
        elif result.outcome.value == "inconclusive":
            inconclusive += 1
        else:
            pinpoints += 1
        if result.revocations:
            revocations += len(result.revocations)
            if detection_latency is None:
                detection_latency = network.metrics.intervals_elapsed

    monitor.check_now()
    monitor.detach()
    if monitor.violations:
        raise ReproError(
            f"invariant violation(s) in tournament cell {strategy_name!r}: "
            + "; ".join(f"{v.invariant}: {v.detail}" for v in monitor.violations[:5])
        )
    revoked_honest = [
        node_id
        for node_id in network.honest_sensors
        if network.registry.revocation.is_sensor_revoked(node_id)
    ]
    if revoked_honest:
        raise ReproError(
            f"honest sensors {revoked_honest} revoked in tournament cell "
            f"{strategy_name!r} — Lemmas 4/5 violated"
        )

    total_intervals = network.metrics.intervals_elapsed
    latency = detection_latency if detection_latency is not None else total_intervals
    return {
        "damage": damage,
        "detection_latency_intervals": float(latency),
        "damage_per_latency": damage / max(latency, 1),
        "detected": 1.0 if detection_latency is not None else 0.0,
        "revocations": float(revocations),
        "results_produced": float(results_produced),
        "inconclusive": float(inconclusive),
        "pinpoints": float(pinpoints),
        "total_intervals": float(total_intervals),
        "honest_revoked": 0.0,  # enforced above; kept for regression diffs
        "invariant_violations": 0.0,  # enforced above; kept for regression diffs
    }


def build_tournament_spec(
    strategies: Optional[Sequence[str]] = None,
    predtests: Sequence[str] = PREDTESTS,
    topologies: Sequence[str] = TOPOLOGIES,
    profiles: Sequence[str] = ("none",),
    executions: int = 3,
    name: str = "tournament",
    seed: int = 0,
    replicates: int = 1,
    cell_timeout: float = 0.0,
) -> CampaignSpec:
    """A :class:`CampaignSpec` for one tournament grid.

    ``strategies=None`` enters the full zoo.  Axis values are validated
    here so a typo fails before any worker spawns.
    """
    from ..adversary import ZOO

    if strategies is None:
        strategies = tuple(sorted(ZOO))
    unknown = [s for s in strategies if s not in ZOO]
    if unknown:
        raise ConfigError(f"unknown strategies {unknown}; registered: {sorted(ZOO)}")
    for topology in topologies:
        _build_topology(str(topology), 1)  # validates the name
    bad_profiles = [p for p in profiles if p not in FAULT_PROFILES]
    if bad_profiles:
        raise ConfigError(
            f"unknown fault profiles {bad_profiles}; use subset of {FAULT_PROFILES}"
        )
    grid = {
        "strategy": tuple(strategies),
        "predtest": tuple(predtests),
        "topology": tuple(topologies),
        "profile": tuple(profiles),
        "executions": (int(executions),),
    }
    return CampaignSpec(
        name=name,
        scenarios=(ScenarioSpec(scenario="tournament", grid=grid),),
        seed=seed,
        replicates=replicates,
        cell_timeout=cell_timeout,
    )


# ----------------------------------------------------------------------
# Ranking report
# ----------------------------------------------------------------------
def rank_run(run) -> List[Dict[str, Any]]:
    """Per-strategy ranking over one tournament run's store.

    Groups the run's ``ok`` tournament records by strategy (aggregating
    over predtest, topology, profile and replicate), averages the cell
    scores, and sorts by mean ``damage_per_latency`` descending — the
    most cost-effective adversary first.  Zoo metadata (family,
    capability, contract) is joined in for the report.
    """
    from ..adversary import ZOO

    by_cell: Dict[str, Mapping[str, Any]] = {}
    for record in run.load_results():
        if record.get("status") == "ok" and record.get("scenario") == "tournament":
            by_cell[record["cell_id"]] = record
    buckets: Dict[str, List[Mapping[str, Any]]] = {}
    for record in by_cell.values():
        buckets.setdefault(str(record["params"]["strategy"]), []).append(record)

    rows: List[Dict[str, Any]] = []
    for strategy_name, records in buckets.items():
        metrics = [r["metrics"] for r in records]
        count = len(metrics)

        def mean(key: str) -> float:
            return sum(float(m[key]) for m in metrics) / count

        info = ZOO.get(strategy_name)
        rows.append(
            {
                "strategy": strategy_name,
                "family": info.family if info else "?",
                "capability": info.capability if info else "?",
                "contract": info.contract.outcome if info else "?",
                "cells": count,
                "score": mean("damage_per_latency"),
                "damage": mean("damage"),
                "latency": mean("detection_latency_intervals"),
                "detected": mean("detected"),
                "revocations": mean("revocations"),
            }
        )
    rows.sort(key=lambda r: (-r["score"], -r["damage"], r["strategy"]))
    return rows


def render_ranking(rows: Sequence[Mapping[str, Any]]) -> str:
    """Human-readable damage-per-detection-latency leaderboard."""
    from .report import format_table

    if not rows:
        return "no tournament records to rank"
    return format_table(
        "tournament ranking (damage per interval of evasion, descending)",
        ["#", "strategy", "family", "capability", "contract", "cells",
         "score", "damage", "latency", "detected"],
        [
            [
                rank,
                row["strategy"],
                row["family"],
                row["capability"],
                row["contract"],
                row["cells"],
                f"{row['score']:.4g}",
                f"{row['damage']:.4g}",
                f"{row['latency']:.4g}",
                f"{row['detected']:.2f}",
            ]
            for rank, row in enumerate(rows, start=1)
        ],
    )


def tournament_bench_payload(summary: Mapping[str, Any], rows: Sequence[Mapping[str, Any]]) -> Dict[str, Any]:
    """BENCH_tournament.json payload: run summary + the ranking table."""
    return {
        "kind": "tournament",
        "run_id": summary.get("run_id"),
        "git_sha": summary.get("git_sha"),
        "spec_hash": summary.get("spec_hash"),
        "cells_ok": summary.get("cells_ok"),
        "cells_failed": summary.get("cells_failed"),
        "ranking": [dict(row) for row in rows],
        "groups": summary.get("groups"),
    }
