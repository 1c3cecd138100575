"""Unit coverage for the service runtime's non-protocol machinery.

The end-to-end bit-for-bit guarantees live in
``tests/test_service_equivalence.py``; here we pin the pieces those runs
rest on — spec serialization and sharding, the deployment generator's
artifacts, the wall-clock latency algebra in :class:`repro.metrics.
Metrics`, and supervisor SIGTERM handling (graceful exit + metrics
flush, no orphans).
"""

from __future__ import annotations

import json
import os

import pytest

from repro.errors import ConfigError
from repro.faults.plan import BurstLoss, FaultPlan, NodeCrash
from repro.metrics import Metrics, percentile
from repro.service import (
    ServiceSpec,
    generate_deployment,
    strip_runtime_metrics,
)
from repro.service.spec import SPEC_ENV


# ----------------------------------------------------------------------
# ServiceSpec: serialization, validation, sharding
# ----------------------------------------------------------------------
def test_spec_json_round_trip():
    spec = ServiceSpec(
        num_nodes=30, seed=7, processes=3, malicious_ids=(4, 9),
        depth_bound=8, theta=6, multipath=True, metrics_dir="/tmp/m",
    )
    assert ServiceSpec.from_json(spec.to_json()) == spec


def test_spec_unknown_field_rejected():
    with pytest.raises(ConfigError, match="unknown ServiceSpec field"):
        ServiceSpec.from_dict({"num_nodes": 10, "warp_factor": 9})


def test_spec_from_env_requires_variable(monkeypatch):
    monkeypatch.delenv(SPEC_ENV, raising=False)
    with pytest.raises(ConfigError, match=SPEC_ENV):
        ServiceSpec.from_env()
    spec = ServiceSpec(num_nodes=12, processes=2)
    monkeypatch.setenv(SPEC_ENV, spec.to_json())
    assert ServiceSpec.from_env() == spec


@pytest.mark.parametrize(
    "kwargs, match",
    [
        (dict(num_nodes=1), "at least one sensor"),
        (dict(processes=0), "at least one node-host"),
        (dict(num_nodes=4, processes=9), "only 3 honest sensors"),
        (dict(malicious_ids=(99,)), "outside"),
        (dict(tree_variant="steiner"), "unknown tree variant"),
        (dict(num_nodes=4, processes=3, malicious_ids=(2, 2)), "only 2 honest sensors"),
        (dict(num_nodes=10**12), "32-bit"),
        (dict(num_nodes=2**31), "32-bit"),
    ],
)
def test_spec_validation_rejects(kwargs, match):
    with pytest.raises(ConfigError, match=match):
        ServiceSpec(**kwargs).validate()


@pytest.mark.parametrize(
    "text",
    [
        "[]",
        "not json",
        '{"num_nodes": "x"}',
        '{"malicious_ids": 5}',
        '{"malicious_ids": [3, "4"]}',
        '{"seed": "a"}',
        '{"num_nodes": 2.5}',
        '{"multipath": "yes"}',
        '{"processes": true}',
        '{"theta": 6.5}',
        '{"fault_plan": 7}',
        '{"fault_plan": "{"}',
        '{"fault_plan": "[]"}',
        '{"seed": 18446744073709551616}',
        '{"control_timeout_s": NaN}',
        '{"retry_max_s": Infinity}',
    ],
)
def test_spec_from_json_rejects_malformed_input_with_config_error(text):
    """What a node host parses off REPRO_SERVICE_SPEC fails typed."""
    with pytest.raises(ConfigError):
        ServiceSpec.from_json(text).validate()


def test_spec_from_json_accepts_ints_for_floats_and_nulls_for_optionals():
    spec = ServiceSpec.from_json(
        '{"control_timeout_s": 30, "theta": null, "malicious_ids": [4]}'
    )
    assert spec.control_timeout_s == 30
    assert spec.theta is None
    assert spec.malicious_ids == (4,)


def test_spec_rejects_unreplayable_fault_kinds():
    plan = FaultPlan(
        name="bad", events=(BurstLoss(start=1, end=4, loss_rate=0.5),)
    )
    with pytest.raises(ConfigError, match="not replayable"):
        ServiceSpec(fault_plan=plan.to_json()).validate()


def test_spec_accepts_replayable_fault_plan():
    plan = FaultPlan(name="ok", events=(NodeCrash(start=2, end=5, node=3),))
    spec = ServiceSpec(fault_plan=plan.to_json())
    spec.validate()
    assert spec.plan().counts_by_kind() == {"crash": 1}


# ----------------------------------------------------------------------
# Frame envelopes: the receiving process checks the shipped MAC
# ----------------------------------------------------------------------
def _tampered(env):
    """The envelope with one byte of its edge MAC flipped."""
    mac = bytearray(env[7])
    mac[0] ^= 0x01
    return env[:7] + (bytes(mac),) + env[8:]


def test_tampered_wire_mac_is_refused():
    from types import SimpleNamespace

    from repro import build_deployment, small_test_config
    from repro.net.message import TreeBeacon
    from repro.service.runtime import CoordinatorTransport
    from repro.service.wire import delivery_envelope, ingest_envelope
    from repro.topology.generators import line_topology

    deployment = build_deployment(
        config=small_test_config(depth_bound=10), topology=line_topology(8), seed=3
    )
    net = deployment.network
    sender_phase = net.new_phase("t", 3)
    sender_phase.begin_interval(1)
    assert sender_phase.send(2, [1, 3], TreeBeacon(origin=2, hop_count=1), interval=1)
    (delivery,) = sender_phase.inbox(3, 1)
    receivers, batch_ids, batches, key_indices, _ = sender_phase.rows(1)
    row = list(receivers).index(3)
    env = delivery_envelope(batches[batch_ids[row]], 3, key_indices[row], 1, 1, 2, 1)
    assert env[7] == delivery.edge_mac
    bad = _tampered(env)
    assert bad != env

    good, verified = ingest_envelope(sender_phase, env)
    assert verified is True
    batch, verified = ingest_envelope(sender_phase, bad)
    assert verified is False
    assert batch.claimed_sender == 2 and batch.payload == delivery.payload
    # A repeat of the previous envelope's sender and payload reuses its
    # batch; the MAC is still checked per envelope.
    reused, verified = ingest_envelope(sender_phase, bad, good)
    assert reused is good and verified is False

    # The coordinator's mirror records the host-reported frame as a row
    # with a false verdict, next to the genuine copy's true one.
    runtime = SimpleNamespace(host_of={}, tick_done=False, order_counter=0, pending_ship={})
    net.transport_factory = lambda phase: CoordinatorTransport(runtime, phase)
    mirror = net.new_phase("t", 3)
    assert type(mirror.transport) is CoordinatorTransport
    mirror.begin_interval(1)
    mirror.transport.ingest(bad)
    mirror.transport.ingest(env)
    receivers, batch_ids, batches, key_indices, verdicts = mirror.rows(1)
    assert list(receivers) == [3, 3]
    assert [bool(v) for v in verdicts] == [False, True]
    assert list(key_indices) == [delivery.key_index] * 2
    assert [d.verified for d in mirror.inbox(3, 1)] == [False, True]


def test_sharding_partitions_honest_sensors():
    spec = ServiceSpec(num_nodes=20, processes=3, malicious_ids=(5, 11))
    shards = [spec.hosted_ids(i) for i in range(3)]
    flat = sorted(x for shard in shards for x in shard)
    assert flat == spec.honest_sensor_ids()  # disjoint + complete
    assert 5 not in flat and 11 not in flat
    # Round-robin keeps shard sizes within one of each other.
    sizes = sorted(len(s) for s in shards)
    assert sizes[-1] - sizes[0] <= 1
    # host_of_map agrees with hosted_ids.
    host_of = spec.host_of_map()
    for index, shard in enumerate(shards):
        assert all(host_of[s] == index for s in shard)
    with pytest.raises(ConfigError, match="host index"):
        spec.hosted_ids(3)


# ----------------------------------------------------------------------
# Deployment generator
# ----------------------------------------------------------------------
def test_generate_deployment_artifacts(tmp_path):
    spec = ServiceSpec(num_nodes=9, processes=2, seed=3)
    written = generate_deployment(spec, str(tmp_path))
    names = {os.path.basename(p) for p in written}
    assert names == {"spec.json", "docker-compose.yml", "Procfile"}

    on_disk = ServiceSpec.from_json((tmp_path / "spec.json").read_text())
    # The ephemeral port 0 is replaced by a knowable rendezvous port.
    assert on_disk.control_port != 0
    assert on_disk.num_nodes == 9 and on_disk.processes == 2

    compose = (tmp_path / "docker-compose.yml").read_text()
    assert "coordinator:" in compose
    assert "node-0:" in compose and "node-1:" in compose
    assert "node-2:" not in compose
    assert SPEC_ENV in compose
    assert "--external-hosts" in compose
    # Hosts in compose dial the coordinator by service name.
    inline = compose.split(f"{SPEC_ENV}: '", 1)[1].split("'", 1)[0]
    assert json.loads(inline)["host"] == "coordinator"

    procfile = (tmp_path / "Procfile").read_text()
    assert procfile.count("node-") == 2
    assert "--external-hosts" in procfile


# ----------------------------------------------------------------------
# Wall-clock latency algebra
# ----------------------------------------------------------------------
def test_latency_percentiles_nearest_rank():
    metrics = Metrics()
    for ms in range(1, 101):  # samples 0.001 .. 0.100
        metrics.record_wall_clock("tree", ms / 1000.0)
    stats = metrics.latency_percentiles()["tree"]
    assert stats == {"p50": 0.050, "p95": 0.095, "p99": 0.099, "count": 100.0}
    # A single sample is every percentile of itself.
    metrics.record_wall_clock("aggregation", 0.25)
    agg = metrics.latency_percentiles()["aggregation"]
    assert agg == {"p50": 0.25, "p95": 0.25, "p99": 0.25, "count": 1.0}


def test_percentile_of_empty_samples_raises():
    with pytest.raises(ValueError):
        percentile([], 50.0)


def test_latency_merge_concatenates_samples():
    left, right = Metrics(), Metrics()
    for value in (0.010, 0.020, 0.030):
        left.record_wall_clock("execution", value)
    for value in (0.040, 0.050):
        right.record_wall_clock("execution", value)
    right.record_wall_clock("tree", 0.001)
    left.merge(right)
    assert left.wall_clock["execution"] == [0.010, 0.020, 0.030, 0.040, 0.050]
    stats = left.latency_percentiles()
    # Percentiles of the union, not a merge of precomputed percentiles.
    assert stats["execution"]["p50"] == 0.030
    assert stats["execution"]["p99"] == 0.050
    assert stats["tree"]["count"] == 1.0


def test_wall_clock_and_wire_survive_serialization():
    metrics = Metrics()
    metrics.record_wall_clock("confirmation", 0.125)
    metrics.record_wire(4096, frames=3)
    restored = Metrics.from_dict(metrics.to_dict())
    assert restored.wall_clock == {"confirmation": [0.125]}
    assert restored.wire_bytes == 4096 and restored.wire_frames == 3


def test_strip_runtime_metrics_drops_only_runtime_fields():
    metrics = Metrics()
    metrics.record_transmission(1, 2, 100)
    metrics.record_wall_clock("tree", 0.5)
    metrics.record_wire(64)
    stripped = strip_runtime_metrics(metrics.to_dict())
    assert "wall_clock" not in stripped
    assert "wire_bytes" not in stripped and "wire_frames" not in stripped
    assert stripped["bytes_sent"] == {"1": 100}


# ----------------------------------------------------------------------
# Supervisor: SIGTERM is graceful — metrics flushed, children reaped
# ----------------------------------------------------------------------
def test_sigterm_flushes_metrics_and_reaps_children(tmp_path):
    from repro.service import ServiceRuntime

    spec = ServiceSpec(
        num_nodes=8, processes=2, seed=1, metrics_dir=str(tmp_path)
    )
    network = spec.build_deployment().network
    runtime = ServiceRuntime(network, spec)
    runtime.launch()
    try:
        supervisor = runtime.supervisor
        assert len(supervisor.alive()) == 2
        # SIGTERM without a shutdown record: hosts trap it, flush their
        # metrics snapshots, and exit 0 — the graceful path.
        codes = supervisor.shutdown()
        assert codes == [0, 0]
        assert supervisor.alive() == []
        flushed = sorted(p.name for p in tmp_path.glob("host-*.metrics.json"))
        assert flushed == ["host-0.metrics.json", "host-1.metrics.json"]
        for path in tmp_path.glob("host-*.metrics.json"):
            Metrics.from_dict(json.loads(path.read_text()))  # parses losslessly
    finally:
        runtime.finish()
    # finish() detached every hook even though the hosts were already gone.
    assert network.honest_driver is None
    assert network.transport_factory is None
