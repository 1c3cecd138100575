"""Committed kernel digests: the simulator's observable output, frozen.

Every cell below runs a short, fully seeded workload and folds what it
observed into one chained SHA-256: each ``Tracer`` event
(``json.dumps(sort_keys=True)``), then ``Metrics.to_dict()``, then the
outcome sequence.  ``DIGESTS`` holds the values the cache-free reference
path produced when the oracle was frozen.  The kernel may change shape
freely underneath — caches on or off, any storage layout — as long as
every cell still hashes to its committed digest.

``SERVICE_DIGESTS`` does the same for ``repro.service`` sessions over
node-host processes (estimate, outcomes, revocations and the protocol
metrics), so the hosts' honest side is frozen too.

Three planted kernel mutants show the oracle is sharp: each must change
at least one digest (a mutant that makes a cell raise counts as a
change — the kernel no longer produces the frozen output).

Regenerate the table (only when an output change is intended and
reviewed) with::

    PYTHONPATH=src python tests/test_kernel_digests.py
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import replace

import pytest

from repro import CountQuery, MinQuery, VMATProtocol, build_deployment, small_test_config
from repro.adversary import Adversary, WormholeStrategy, make_strategy
from repro.faults import ClockDrift, Duplicate, FaultInjector, FaultPlan
from repro.faults.plan import BroadcastLoss, BurstLoss, LinkDown, NodeCrash
from repro.perf.cache import clear_caches, disabled
from repro.topology.generators import grid_topology, line_topology
from repro.tracing import Tracer


# ----------------------------------------------------------------------
# Digest
# ----------------------------------------------------------------------
def _link(state: bytes, obj) -> bytes:
    return hashlib.sha256(state + json.dumps(obj, sort_keys=True).encode()).digest()


def chained_digest(tracer, metrics, outcomes) -> str:
    state = b""
    for event in tracer if tracer is not None else ():
        state = _link(state, event.to_dict())
    state = _link(state, metrics.to_dict())
    for outcome in outcomes:
        state = _link(state, outcome)
    return state.hex()


# ----------------------------------------------------------------------
# Cells
# ----------------------------------------------------------------------
def _zoo_cell(strategy, traced, topo, seed=17):
    """The tests/test_soa.py adversarial matrix cell."""
    topology = line_topology(10) if topo == "line" else grid_topology(4, 4)
    deployment = build_deployment(
        config=small_test_config(depth_bound=20),
        topology=topology,
        malicious_ids={3, 5},
        seed=seed,
    )
    network = deployment.network
    adversary = Adversary(network, make_strategy(strategy), seed=seed)
    tracer = Tracer.attach(network) if traced else None
    protocol = VMATProtocol(network, adversary=adversary)
    readings = {i: 50.0 + i for i in deployment.topology.sensor_ids}
    outcomes = [protocol.execute(MinQuery(), readings).outcome.value for _ in range(2)]
    return tracer, network.metrics, outcomes


def _tree_cell(variant, inflation):
    """A wormhole pair against either tree variant (Figure 2(c))."""
    deployment = build_deployment(
        config=small_test_config(depth_bound=12),
        topology=line_topology(12),
        malicious_ids={2, 8},
        seed=3,
    )
    network = deployment.network
    strategy = WormholeStrategy(entry=2, exit=8, inflation=inflation)
    adversary = Adversary(network, strategy, seed=3)
    tracer = Tracer.attach(network)
    protocol = VMATProtocol(network, adversary=adversary, tree_variant=variant)
    readings = {i: 40.0 + i for i in deployment.topology.sensor_ids}
    outcomes = []
    for _ in range(2):
        result = protocol.execute(MinQuery(), readings)
        tree = result.tree
        outcomes.append(
            [
                result.outcome.value,
                sorted(tree.levels.items()),
                sorted(tree.parents.items()),
                sorted(tree.invalid_level_sensors),
            ]
        )
    return tracer, network.metrics, outcomes


def _scale_cell(kind):
    """The honest multipath scale leg (``repro.perf.scale``), 100 nodes."""
    from repro.perf.scale import _build_deployment

    deployment = _build_deployment(kind, 100, seed=2011)
    network = deployment.network
    tracer = Tracer.attach(network)
    protocol = VMATProtocol(network)
    readings = {i: 10.0 + (i % 9) for i in deployment.topology.sensor_ids}
    outcomes = []
    for _ in range(2):
        result = protocol.execute(MinQuery(), readings)
        outcomes.append([result.outcome.value, result.estimate])
    return tracer, network.metrics, outcomes


def _count_cell():
    """Synopsis COUNT (Section VIII) with a junk-injecting sensor."""
    deployment = build_deployment(
        config=small_test_config(depth_bound=10),
        topology=grid_topology(4, 4),
        malicious_ids={6},
        seed=31,
    )
    network = deployment.network
    adversary = Adversary(network, make_strategy("junk-minimum"), seed=31)
    tracer = Tracer.attach(network)
    protocol = VMATProtocol(network, adversary=adversary)
    query = CountQuery(predicate=lambda r: r > 50, num_synopses=40)
    readings = {i: float(30 + (i * 13) % 60) for i in deployment.topology.sensor_ids}
    outcomes = []
    for _ in range(2):
        result = protocol.execute(query, readings)
        outcomes.append([result.outcome.value, result.estimate])
    return tracer, network.metrics, outcomes


def _fault_cell():
    """Residual loss + injected duplicates + a clock escaping the guard band."""
    config = small_test_config(depth_bound=8)
    config = replace(config, network=replace(config.network, loss_rate=0.05))
    deployment = build_deployment(config=config, topology=grid_topology(4, 4), seed=7)
    network = deployment.network
    plan = FaultPlan(
        "digest-faults",
        events=(
            Duplicate(probability=0.3, start=1, end=80),
            ClockDrift(node=5, drift=1.4, start=1, end=80),
        ),
    )
    FaultInjector(plan, seed=7).attach(network)
    tracer = Tracer.attach(network)
    protocol = VMATProtocol(network)
    readings = {i: 20.0 + (i % 7) for i in deployment.topology.sensor_ids}
    outcomes = []
    for _ in range(2):
        result = protocol.execute(MinQuery(), readings)
        outcomes.append([result.outcome.value, result.estimate])
    return tracer, network.metrics, outcomes


def _drop_cell():
    """Every link-layer drop branch: a crashed sender, a crashed
    receiver, a severed link and per-receiver burst loss."""
    deployment = build_deployment(
        config=small_test_config(depth_bound=8), topology=grid_topology(4, 4), seed=11
    )
    network = deployment.network
    plan = FaultPlan(
        "digest-drops",
        events=(
            # Sensor 5 is down in the slot it beacons in (it heard its
            # parent one slot earlier); sensor 15, a far corner, is down
            # while only its neighbours transmit to it.
            NodeCrash(node=5, start=3, end=4),
            NodeCrash(node=15, start=12, end=30),
            LinkDown(a=1, b=2, start=1, end=40),
            BurstLoss(loss_rate=0.35, start=1, end=60),
        ),
    )
    FaultInjector(plan, seed=11).attach(network)
    tracer = Tracer.attach(network)
    protocol = VMATProtocol(network)
    readings = {i: 30.0 + (i % 5) for i in deployment.topology.sensor_ids}
    outcomes = []
    for _ in range(2):
        result = protocol.execute(MinQuery(), readings)
        outcomes.append([result.outcome.value, result.estimate])
    return tracer, network.metrics, outcomes


def _regions_cell():
    """An attacked 7x7 grid: spurious vetoes, pinpointing and revocation
    reading the adversary's and the base station's inboxes."""
    deployment = build_deployment(
        config=small_test_config(depth_bound=14),
        topology=grid_topology(7, 7),
        malicious_ids={17},
        seed=5,
    )
    network = deployment.network
    adversary = Adversary(network, make_strategy("spurious-veto"), seed=5)
    tracer = Tracer.attach(network)
    protocol = VMATProtocol(network, adversary=adversary)
    readings = {i: 60.0 + (i % 11) for i in deployment.topology.sensor_ids}
    readings[40] = 1.0
    outcomes = [protocol.execute(MinQuery(), readings).outcome.value for _ in range(2)]
    return tracer, network.metrics, outcomes


def _pairwise_cell():
    """Explicit pairwise rings (Section III) under a spurious vetoer:
    two pinpointed keys reach θ=2 and revoke the sensor in full."""
    config = small_test_config(depth_bound=10)
    config = replace(config, revocation=replace(config.revocation, theta=2))
    deployment = build_deployment(
        config=config,
        topology=grid_topology(4, 4),
        malicious_ids={6},
        seed=23,
        key_scheme="pairwise",
    )
    network = deployment.network
    adversary = Adversary(network, make_strategy("spurious-veto"), seed=23)
    tracer = Tracer.attach(network)
    protocol = VMATProtocol(network, adversary=adversary)
    readings = {i: 70.0 + (i % 9) for i in deployment.topology.sensor_ids}
    readings[15] = 3.0
    outcomes = []
    for _ in range(3):
        result = protocol.execute(MinQuery(), readings)
        outcomes.append([result.outcome.value, result.estimate])
    # The cell must exercise the θ rule, not only per-key revocation.
    assert any(
        event.kind == "sensor" and event.target == 6 and event.triggered_by_key is not None
        for event in deployment.registry.revocation.log
    ), "no θ-triggered sensor revocation"
    return tracer, network.metrics, outcomes


def _attacked_relay_cell():
    """Predicate-reply floods under residual loss, burst loss, duplicates,
    a missed authenticated broadcast and a tracer: a spurious vetoer on a
    6x6 grid keeps pinpointing busy while every fault hook fires."""
    config = small_test_config(depth_bound=10)
    config = replace(config, network=replace(config.network, loss_rate=0.03))
    deployment = build_deployment(
        config=config, topology=grid_topology(6, 6), malicious_ids={14}, seed=9
    )
    network = deployment.network
    plan = FaultPlan(
        "digest-attacked-relay",
        events=(
            Duplicate(probability=0.2, start=1, end=100_000),
            BurstLoss(loss_rate=0.1, start=1, end=100_000),
            BroadcastLoss(round=9, nodes=(20,)),
        ),
    )
    FaultInjector(plan, seed=9).attach(network)
    adversary = Adversary(network, make_strategy("spurious-veto"), seed=9)
    tracer = Tracer.attach(network)
    protocol = VMATProtocol(network, adversary=adversary)
    readings = {i: 60.0 + (i % 11) for i in deployment.topology.sensor_ids}
    outcomes = []
    for _ in range(4):
        result = protocol.execute(MinQuery(), readings)
        outcomes.append([result.outcome.value, result.estimate])
    metrics = network.metrics
    assert metrics.predicate_tests > 0, "no predicate test ran"
    assert metrics.faults_injected["broadcast-miss"] > 0, "no sensor missed a broadcast"
    return tracer, metrics, outcomes


def _attacked_grid_256_cell():
    """The grid256-attack benchmark session, traced: a 16x16 grid, pool
    2,000, ring 60, θ=5, sensor 18 running spurious-veto, multipath,
    one ``run_session`` to a result.  Revocations land mid-session, so
    the secure view changes epoch between predicate tests."""
    config = small_test_config(depth_bound=30, pool_size=2_000, ring_size=60)
    config = replace(
        config,
        network=replace(config.network, multipath=True),
        revocation=replace(config.revocation, theta=5),
    )
    deployment = build_deployment(
        config=config, topology=grid_topology(16, 16), malicious_ids={18}, seed=2011
    )
    network = deployment.network
    adversary = Adversary(network, make_strategy("spurious-veto"), seed=2011)
    tracer = Tracer.attach(network)
    protocol = VMATProtocol(network, adversary, nonce_seed=b"perfbench-nonce")
    rng = random.Random(4)
    readings = {i: float(rng.randrange(21, 10_000)) for i in range(1, 256)}
    readings[rng.choice([i for i in readings if i != 18])] = 20.0
    session = protocol.run_session(MinQuery(), readings)
    registry = deployment.registry
    assert sorted(registry.revoked_sensors) == [18], registry.revoked_sensors
    assert len(registry.revoked_keys) == 60, len(registry.revoked_keys)
    outcomes = [
        [execution.outcome.value, execution.estimate] for execution in session.executions
    ]
    return tracer, network.metrics, outcomes + [session.final_estimate]


CELLS = {}
for _strategy in ("relay-drop", "cover-accomplice"):
    for _traced in (False, True):
        for _topo in ("line", "grid"):
            CELLS[f"zoo-{_strategy}-{'traced' if _traced else 'untraced'}-{_topo}"] = (
                lambda s=_strategy, t=_traced, g=_topo: _zoo_cell(s, t, g)
            )
for _variant in ("timestamp", "hopcount"):
    for _inflation in (10, -3, 2**31):
        CELLS[f"tree-{_variant}-wormhole{_inflation:+d}"] = (
            lambda v=_variant, i=_inflation: _tree_cell(v, i)
        )
CELLS["scale-grid-100"] = lambda: _scale_cell("grid")
CELLS["scale-line-100"] = lambda: _scale_cell("line")
CELLS["count-junk-grid"] = _count_cell
CELLS["faults-loss-dup-clock"] = _fault_cell
CELLS["faults-burst-crash-link"] = _drop_cell
CELLS["regions-attacked-grid"] = _regions_cell
CELLS["pairwise-spurious-veto-grid"] = _pairwise_cell
CELLS["faults-attacked-relay"] = _attacked_relay_cell
CELLS["attacked-grid-256-traced"] = _attacked_grid_256_cell


def cell_digest(name: str) -> str:
    clear_caches()
    return chained_digest(*CELLS[name]())


# ----------------------------------------------------------------------
# Service cells: the same kind of oracle over node-host processes
# ----------------------------------------------------------------------
_ATTACKED_25 = dict(num_nodes=25, seed=0, malicious_ids=(5,), theta=6)
_SERVICE_FAULT_PLAN = FaultPlan(
    name="svc-faults",
    events=(NodeCrash(start=3, end=9, node=7), LinkDown(start=5, end=14, a=2, b=3)),
)

#: name -> (ServiceSpec kwargs, attack)
SERVICE_CELLS = {
    "service-clean-8x2": (dict(num_nodes=8, processes=2, seed=3), None),
    "service-spurious-veto-25x2": (dict(_ATTACKED_25, processes=2), "spurious-veto"),
    "service-spurious-veto-25x3": (dict(_ATTACKED_25, processes=3), "spurious-veto"),
    "service-faults-25x2": (
        dict(num_nodes=25, processes=2, seed=2,
             fault_plan=_SERVICE_FAULT_PLAN.to_json()),
        None,
    ),
    "service-hopcount-multipath-25x3": (
        dict(_ATTACKED_25, processes=3, tree_variant="hopcount", multipath=True),
        "spurious-veto",
    ),
}


def service_cell_digest(name: str) -> str:
    """Chained SHA-256 over one ``run_service_session``: the estimate,
    the outcome sequence, the revocation list and the protocol metrics
    (runtime-only fields stripped)."""
    from repro.service import ServiceSpec, run_service_session, strip_runtime_metrics

    kwargs, attack = SERVICE_CELLS[name]
    result = run_service_session(ServiceSpec(**kwargs), attack=attack)
    state = b""
    for obj in (
        result.estimate,
        result.outcomes,
        result.revocations,
        strip_runtime_metrics(result.metrics.to_dict()),
    ):
        state = _link(state, obj)
    return state.hex()


#: Recorded from ``run_service_session`` before the hosts ran the shared
#: column steps (the per-node host loops were the reference).  The 2- and
#: 3-host spurious-veto cells agree: sharding is not observable.
SERVICE_DIGESTS = {
    "service-clean-8x2": "e874d39f2d045d511bac01c66ba1f3bbae8a41bcd407fffb9734db204267afc2",
    "service-faults-25x2": "f9bf9b72cc0f039de65a6dad99d8c27d53d4d582e0628386bfdbff263e3004d7",
    "service-hopcount-multipath-25x3": "3964b7dd831dd5873d183ac85bb596a0c848d0c0d312c1c1dfbfd3c1a262e620",
    "service-spurious-veto-25x2": "8d4a163147bc564e2e75cde49d0b0440a21cbcadd291b1ef3e3e424073423d48",
    "service-spurious-veto-25x3": "8d4a163147bc564e2e75cde49d0b0440a21cbcadd291b1ef3e3e424073423d48",
}


#: Recorded from the cache-free reference path (``perf.cache.disabled()``).
DIGESTS = {
    "attacked-grid-256-traced": "9fa968fff123de50600a41d7ddf253bc436059dfcba26cd4b3f28e3d25022fe6",
    "count-junk-grid": "71501b336800ffd6da6b55584024e4173a7b392f36f0a487e5c448025a69331a",
    "faults-attacked-relay": "d62ba945f73c65cbb905a359ceabaeadb1fb022618dd090b6adac063b74812bd",
    "faults-burst-crash-link": "ebfb18801aff7d96dce83ad1a65f03723daab51a8d8a70f55cb49458007422f4",
    "faults-loss-dup-clock": "4163c3b5ab41a898690a86fc9dc7b233fa727fd85c923412dde2aeb9f2480619",
    "pairwise-spurious-veto-grid": "6c790ecdf8e3f6aa2bfc2e178bd2a2e057eca90a6a4334d2e1a10d6914efa988",
    "regions-attacked-grid": "1168a15f678f9a6460616c7d5ba5dde40df886516b1cf50ea6ede1d021f19cbe",
    "scale-grid-100": "ef915a5d3218bde75a7d47fc3e69156337acea030e8b501fd41d60db05bc4bef",
    "scale-line-100": "6a2fb3c015483620776bd9570c38c4501e75a31400cb7c39f32e773816d7ef8d",
    "tree-hopcount-wormhole+10": "a066ff4be8386301675165b4977703e0bd61efe7d0ae43b28b27dddbfa180c56",
    "tree-hopcount-wormhole+2147483648": "31d298d93dfb26b2c5a6b93ce892a672fdf63f0980285f8213e761af2aa77120",
    "tree-hopcount-wormhole-3": "bf2083480c57e05e200642844fec01d9932e2229b1f036185c5632817e282739",
    "tree-timestamp-wormhole+10": "df6b26f33de1b4ac809248f9851aa205c55b51acc22243bfbddb823dd153ce62",
    "tree-timestamp-wormhole+2147483648": "df6b26f33de1b4ac809248f9851aa205c55b51acc22243bfbddb823dd153ce62",
    "tree-timestamp-wormhole-3": "df6b26f33de1b4ac809248f9851aa205c55b51acc22243bfbddb823dd153ce62",
    "zoo-cover-accomplice-traced-grid": "fc01f337dc7da55d2bae5d1bc403cce29fedd451fb7fb0eb02f5f48995414c87",
    "zoo-cover-accomplice-traced-line": "06d64d6acc915a78555789e7de32f90b81b28ea985020ab00384abeb42849e7c",
    "zoo-cover-accomplice-untraced-grid": "d64d9c297aaf0d77a7cd700034a7b1722d7049b2a805be015c7659ebd066bda4",
    "zoo-cover-accomplice-untraced-line": "8c5149c3e7cefb9f4d8b42efd3964b7ad266056166b9cbc19236f128ce93049a",
    "zoo-relay-drop-traced-grid": "251d833e094e0bb5a506f1a05ef22217d9e175568c436b66a1860bf3303ceab3",
    "zoo-relay-drop-traced-line": "fcafdab8865128667a0e71a3fb18d79a37f442aa22b4f3bfcaa45f6cfe545301",
    "zoo-relay-drop-untraced-grid": "95671fe0e64a88e3ef0ebb4beb318ea8de3c25c3b5436463875b093f20a5aa36",
    "zoo-relay-drop-untraced-line": "62a619f726e58643976952fc2afc2ae7d8f41a0d816d097ccd35b53f8d8644de",
}


# ----------------------------------------------------------------------
# Tests
# ----------------------------------------------------------------------
def test_every_cell_has_a_digest():
    assert sorted(DIGESTS) == sorted(CELLS)
    assert sorted(SERVICE_DIGESTS) == sorted(SERVICE_CELLS)


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(SERVICE_CELLS))
def test_service_cell_matches_frozen_digest(name):
    assert service_cell_digest(name) == SERVICE_DIGESTS[name]


@pytest.mark.parametrize("caches", ["warm", "disabled"])
@pytest.mark.parametrize("name", sorted(CELLS))
def test_cell_matches_frozen_digest(name, caches):
    if caches == "disabled":
        with disabled():
            digest = cell_digest(name)
    else:
        digest = cell_digest(name)
    assert digest == DIGESTS[name]


def _first_changed_digest(cells):
    """Name of the first cell whose output no longer matches, if any."""
    for name in cells:
        try:
            digest = cell_digest(name)
        except Exception:  # the kernel no longer produces the output
            return name
        if digest != DIGESTS[name]:
            return name
    return None


def _reversed_inbox(original):
    def inbox(self, receiver, interval):
        return original(self, receiver, interval)[::-1]

    return inbox


def _skip_revocation_patch(self):
    # Advance the epoch and drop the memos, but never rewrite the
    # edge keys the new log entries revoked.
    self._epoch = len(self.network.registry.revocation.log)
    self._component = None
    self._depth_bound = None
    self._rows = None


def _keyless_query(original):
    # Drop the key-range bound: any edge key matches.
    def query(self, candidates, position, key_low, key_high, match):
        return original(self, candidates, position, -(2**31), 2**31 - 1, match)

    return query


class TestMutantsChangeDigests:
    """Each planted kernel mutant must break at least one frozen digest."""

    def test_swapped_deposit_order(self, monkeypatch):
        from repro.net.network import PhaseContext

        monkeypatch.setattr(PhaseContext, "inbox", _reversed_inbox(PhaseContext.inbox))
        assert _first_changed_digest(sorted(CELLS)) is not None

    def test_skipped_revocation_patch(self, monkeypatch):
        from repro.net.network import _SecureTopologyView

        monkeypatch.setattr(_SecureTopologyView, "sync", _skip_revocation_patch)
        assert _first_changed_digest(sorted(CELLS)) is not None

    def test_audit_query_without_key_range(self, monkeypatch):
        from repro.net.node import AuditTable

        monkeypatch.setattr(AuditTable, "query", _keyless_query(AuditTable.query))
        assert _first_changed_digest(sorted(CELLS)) is not None


if __name__ == "__main__":  # pragma: no cover - regeneration entry point
    with disabled():
        for _name in sorted(CELLS):
            print(f'    "{_name}": "{cell_digest(_name)}",')
    for _name in sorted(SERVICE_CELLS):
        print(f'    "{_name}": "{service_cell_digest(_name)}",')
