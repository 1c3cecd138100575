"""Simulator-vs-service bit-for-bit equivalence (the issue's gate).

Each test runs the same seeded session twice — once over real asyncio
node-host OS processes on loopback, once entirely in-process — and
asserts protocol-level identity: aggregate estimate, per-execution
outcomes, the revocation set, and every protocol metric (message and
byte counts per node, flooding rounds, broadcasts, ...) after stripping
the runtime-only fields (wall-clock timings, wire accounting).

Configs are sized for CI: small topologies, and θ lowered to 6 in the
attacked cell so the revocation cascade converges in a few executions.
The equivalence claim itself is scale-independent — the transport ships
the simulator's own frame encodings.
"""

from __future__ import annotations

import pytest

from repro.faults.plan import FaultPlan, LinkDown, NodeCrash
from repro.service import ServiceSpec, run_equivalence


def assert_equivalent(report):
    assert report.matches, "service/simulator divergence:\n" + "\n".join(
        report.diffs
    )


@pytest.mark.slow
def test_clean_session_matches_simulator():
    """8 nodes over 2 host processes, no adversary: one execution."""
    report = run_equivalence(ServiceSpec(num_nodes=8, processes=2, seed=3))
    assert_equivalent(report)
    assert report.service.estimate == report.sim.estimate is not None
    assert report.service.num_executions == 1
    assert report.service.revocations == []
    # The service leg measured real wall-clock per phase and execution.
    latency = report.service.latency
    assert "execution" in latency
    for label, stats in latency.items():
        assert stats["p50"] <= stats["p95"] <= stats["p99"], label
    # Frames actually crossed process boundaries.
    assert report.service.metrics.wire_bytes > 0
    assert report.sim.metrics.wire_bytes == 0


@pytest.mark.slow
@pytest.mark.parametrize(
    "tree",
    [
        dict(processes=2),
        dict(processes=3, tree_variant="hopcount", multipath=True),
    ],
    ids=["timestamp", "hopcount-multipath"],
)
def test_attacked_session_with_revocations_matches_simulator(tree):
    """25 nodes, spurious-veto attacker, θ=6, under either tree variant.

    Drives the full VMAT session loop — repeated executions, key
    revocations, the θ-cascade and finally a sensor revocation — and the
    cross-process replica must reproduce the simulator's every step:
    same executions, same revocation sequence, same estimate.  The
    hop-count case runs the naive tree with multi-path parents on 3 hosts.
    """
    spec = ServiceSpec(num_nodes=25, seed=0, malicious_ids=(5,), theta=6, **tree)
    report = run_equivalence(spec, attack="spurious-veto")
    assert_equivalent(report)
    assert report.service.num_executions > 1
    revocations = report.service.revocations
    assert revocations, "the attacked session must revoke"
    assert ("sensor", 5) in {(kind, target) for kind, target, _ in revocations}
    assert report.service.estimate is not None


@pytest.mark.slow
def test_three_host_sharding_matches_simulator():
    """Same attacked session, different sharding: the cut of the node set
    across processes must not be observable in any protocol outcome."""
    spec = ServiceSpec(
        num_nodes=25, processes=3, seed=0, malicious_ids=(5,), theta=6
    )
    report = run_equivalence(spec, attack="spurious-veto")
    assert_equivalent(report)
    two_hosts = run_equivalence(
        ServiceSpec(num_nodes=25, processes=2, seed=0, malicious_ids=(5,), theta=6),
        attack="spurious-veto",
    )
    assert report.service.revocations == two_hosts.service.revocations
    assert report.service.estimate == two_hosts.service.estimate


@pytest.mark.slow
def test_fault_plan_session_matches_simulator():
    """Crash + link-down windows replayed identically on every replica.

    Benign faults must degrade both legs the same way: same outcomes
    (results or inconclusive executions), and — per the benign-failure
    safety property — no revocations in either leg.
    """
    plan = FaultPlan(
        name="svc-faults",
        events=(
            NodeCrash(start=3, end=9, node=7),
            LinkDown(start=5, end=14, a=2, b=3),
        ),
    )
    spec = ServiceSpec(
        num_nodes=25, processes=2, seed=2, fault_plan=plan.to_json()
    )
    report = run_equivalence(spec)
    assert_equivalent(report)
    assert report.service.revocations == []
    summary = report.service.metrics.summary()
    assert summary["faults_injected"] > 0
