"""Tests for :mod:`repro.adversary.zoo` — the strategy registry.

Four layers, each derived from the registry itself so a new strategy is
automatically covered (and an unregistered one fails collection):

* **completeness** — every concrete strategy class in
  ``repro.adversary.strategies`` is reachable from a zoo entry (checked
  at import time: a strategy without a detection contract fails test
  collection, not just one test);
* **metadata + spec round-trip** — every entry carries valid
  family/capability/section/contract metadata, and
  ``make_strategy`` → ``strategy_spec`` → JSON → ``strategy_from_spec``
  reproduces the same configuration;
* **detection contracts** — for every entry, the scenario its contract
  pins (line(10), planted minimum downstream of the adversary, quiet
  fault injector iff ``contract.faults``) produces the contracted
  outcome class, and no honest sensor is ever revoked;
* **behavioral properties** — same seed ⇒ bit-identical metrics across
  two runs, and single-node strategies never read another compromised
  node's state (the capability class is honored, not just declared).
"""

from __future__ import annotations

import inspect
import json

import pytest

from repro import MinQuery, VMATProtocol, build_deployment, small_test_config
from repro.adversary import (
    CAPABILITY_CLASSES,
    FAMILIES,
    OUTCOME_CLASSES,
    STRATEGY_REGISTRY,
    ZOO,
    Adversary,
    DetectionContract,
    Strategy,
    make_strategy,
    strategy_from_spec,
    strategy_spec,
)
from repro.adversary.strategies import adaptive, classic, colluding
from repro.adversary.strategies.classic import PolicyStrategy, WormholeStrategy
from repro.adversary.strategies.colluding import ColludingStrategy, PerNodeStrategy
from repro.errors import ProtocolError
from repro.faults import FaultInjector, FaultPlan
from repro.topology import line_topology

# ----------------------------------------------------------------------
# Collection-time completeness guard
# ----------------------------------------------------------------------
#: Classes that legitimately carry no zoo entry: abstract bases, the
#: per-node combinator (parameterized by other strategies, so it has no
#: single contract), and the raw wormhole (superseded in the zoo by
#: ZooWormholeStrategy, whose endpoints also join the tree honestly).
_EXEMPT = {Strategy, PolicyStrategy, ColludingStrategy, PerNodeStrategy, WormholeStrategy}


def _concrete_strategy_classes():
    found = set()
    for module in (classic, adaptive, colluding):
        for obj in vars(module).values():
            if (
                inspect.isclass(obj)
                and issubclass(obj, Strategy)
                and obj.__module__ == module.__name__
            ):
                found.add(obj)
    return found


_UNREGISTERED = sorted(
    cls.__name__
    for cls in _concrete_strategy_classes() - _EXEMPT
    if cls not in {info.factory for info in ZOO.values()}
)
# Failing here (at import, i.e. collection) is the point: a strategy
# merged without a detection contract must not silently skip the table.
assert not _UNREGISTERED, (
    f"strategies missing a zoo entry + detection contract: {_UNREGISTERED}"
)

ALL_NAMES = sorted(ZOO)
SINGLE_NODE = [n for n in ALL_NAMES if ZOO[n].capability == "single-node"]


# ----------------------------------------------------------------------
# The contract scenario (the same shape the tournament cells pin)
# ----------------------------------------------------------------------
def run_contract_scenario(name: str, seed: int = 11, malicious=None):
    """Run one zoo strategy under its contract's pinned scenario.

    Line of 10 with the honest minimum planted *downstream* of the
    compromised region, so drop/forge/choke strategies all have
    something to bite on; a quiet fault injector iff the contract says
    the outcome only holds in benign mode.
    """
    info = ZOO[name]
    contract = info.contract
    topology = line_topology(10)
    if malicious is None:
        malicious = {4} if contract.min_malicious < 2 else {3, 6}
    deployment = build_deployment(
        config=small_test_config(depth_bound=12),
        topology=topology,
        malicious_ids=set(malicious),
        seed=seed,
    )
    network = deployment.network
    if contract.faults:
        FaultInjector(FaultPlan(name="quiet"), seed=seed).attach(network)
    adversary = Adversary(network, make_strategy(name), seed=seed)
    protocol = VMATProtocol(network, adversary=adversary)
    readings = {i: 100.0 + i for i in topology.sensor_ids}
    readings[7] = 1.0
    results = [protocol.execute(MinQuery(), readings) for _ in range(contract.executions)]
    return network, adversary, results


def _revoked_honest(network):
    return [
        node_id
        for node_id in network.honest_sensors
        if network.registry.revocation.is_sensor_revoked(node_id)
    ]


# ----------------------------------------------------------------------
# Metadata
# ----------------------------------------------------------------------
class TestRegistryMetadata:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_entry_is_complete(self, name: str) -> None:
        info = ZOO[name]
        assert info.name == name
        assert info.family in FAMILIES
        assert info.capability in CAPABILITY_CLASSES
        assert info.section, f"{name}: no paper-section provenance"
        assert info.description, f"{name}: no description"
        assert info.contract.outcome in OUTCOME_CLASSES
        assert info.contract.executions >= 1
        assert info.contract.min_malicious >= 1

    def test_colluding_family_implies_colluding_capability(self) -> None:
        for name in ALL_NAMES:
            if ZOO[name].family == "colluding":
                assert ZOO[name].capability == "colluding", name

    def test_unknown_outcome_class_rejected(self) -> None:
        with pytest.raises(ProtocolError, match="unknown outcome class"):
            DetectionContract(outcome="slapped-on-the-wrist")

    def test_back_compat_registry_is_the_paramless_slice(self) -> None:
        assert set(STRATEGY_REGISTRY) == {
            name for name, info in ZOO.items() if not info.params
        }
        for name, factory in STRATEGY_REGISTRY.items():
            assert factory is ZOO[name].factory

    def test_fuzzer_walks_the_whole_zoo(self) -> None:
        from repro.invariants.fuzz import STRATEGIES

        assert STRATEGIES == tuple(sorted(ZOO))

    def test_tournament_grid_covers_the_whole_zoo(self) -> None:
        from repro.campaign import get_scenario

        grid = get_scenario("tournament").grid
        assert set(grid["strategy"]) == set(ZOO)


# ----------------------------------------------------------------------
# Spec round-trip
# ----------------------------------------------------------------------
class TestSpecRoundTrip:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_json_round_trip(self, name: str) -> None:
        strategy = make_strategy(name)
        spec = json.loads(json.dumps(strategy_spec(strategy)))
        rebuilt = strategy_from_spec(spec)
        assert type(rebuilt) is type(strategy)
        assert rebuilt.zoo_name == strategy.zoo_name == name
        assert rebuilt.predtest == strategy.predtest == ZOO[name].contract.predtest

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_predtest_override_round_trips(self, name: str) -> None:
        strategy = make_strategy(name, predtest="coin")
        rebuilt = strategy_from_spec(strategy_spec(strategy))
        assert rebuilt.predtest == "coin"

    def test_unknown_name_rejected(self) -> None:
        with pytest.raises(ProtocolError, match="unknown strategy"):
            make_strategy("zero-day")

    def test_extra_spec_keys_rejected(self) -> None:
        with pytest.raises(ProtocolError, match="unknown strategy-spec keys"):
            strategy_from_spec({"name": "passive", "budget": 9000})

    def test_nameless_spec_rejected(self) -> None:
        with pytest.raises(ProtocolError, match="requires a 'name'"):
            strategy_from_spec({"predtest": "deny"})

    def test_hand_built_strategy_has_no_spec(self) -> None:
        from repro.adversary.strategies.classic import PassiveStrategy

        with pytest.raises(ProtocolError, match="not built by make_strategy"):
            strategy_spec(PassiveStrategy())


# ----------------------------------------------------------------------
# Detection contracts (the zoo's core promise, table-driven)
# ----------------------------------------------------------------------
class TestDetectionContracts:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_contract_holds(self, name: str) -> None:
        contract = ZOO[name].contract
        network, _, results = run_contract_scenario(name)
        outcomes = [r.outcome.value for r in results]
        revocations = sum(len(r.revocations) for r in results)

        assert not _revoked_honest(network), (
            f"{name}: honest sensors revoked — Lemmas 4/5 violated"
        )
        if contract.outcome == "revoked":
            assert revocations >= 1, f"{name}: contract says revoked, got {outcomes}"
        elif contract.outcome == "harmless":
            assert revocations == 0, f"{name}: harmless strategy got revoked"
            assert outcomes == ["result"] * contract.executions
            for result in results:
                assert result.estimate == result.honest_true_value == 1.0
        elif contract.outcome == "choked-but-safe":
            assert revocations == 0
            assert outcomes == ["result"] * contract.executions
            for result in results:
                # Degraded but honest: the estimate covers exactly the
                # reachable honest component, never a forged value.
                assert result.estimate == result.reachable_honest_true_value
                assert result.estimate != result.honest_true_value
        elif contract.outcome == "inconclusive-under-faults":
            assert contract.faults, f"{name}: outcome class requires faults=True"
            assert revocations == 0
            assert "inconclusive" in outcomes, (
                f"{name}: expected a deferred (inconclusive) execution, got {outcomes}"
            )
        else:  # pragma: no cover - OUTCOME_CLASSES is closed
            pytest.fail(f"unhandled outcome class {contract.outcome!r}")


# ----------------------------------------------------------------------
# Behavioral properties
# ----------------------------------------------------------------------
class TestSeedDeterminism:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_same_seed_same_metrics(self, name: str) -> None:
        net_a, _, results_a = run_contract_scenario(name, seed=23)
        net_b, _, results_b = run_contract_scenario(name, seed=23)
        assert net_a.metrics.to_dict() == net_b.metrics.to_dict()
        assert [r.outcome.value for r in results_a] == [
            r.outcome.value for r in results_b
        ]
        assert [r.estimate for r in results_a] == [r.estimate for r in results_b]


class _RecordingState(dict):
    """adv.state stand-in that records cross-node reads during hooks."""

    def __init__(self, data):
        super().__init__(data)
        self.current_node = None
        self.cross_reads = []

    def _note(self, key):
        if self.current_node is not None and key != self.current_node:
            self.cross_reads.append((self.current_node, key))

    def __getitem__(self, key):
        self._note(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self._note(key)
        return super().get(key, default)


def _instrument(adversary: Adversary) -> _RecordingState:
    """Swap in the recording state and scope hook dispatch to a node."""
    proxy = _RecordingState(adversary.state)
    adversary.state = proxy
    for hook in ("tree_interval", "agg_interval", "conf_interval", "predtest_interval"):
        original = getattr(adversary, hook)

        def wrapped(ctx, node_id, k, _original=original):
            proxy.current_node = node_id
            try:
                return _original(ctx, node_id, k)
            finally:
                proxy.current_node = None

        setattr(adversary, hook, wrapped)
    return proxy


class TestCapabilityClassHonored:
    """`capability` is a behavioral claim, not a label: single-node
    strategies must work from one compromised sensor's view alone."""

    def _run_instrumented(self, name: str):
        topology = line_topology(10)
        deployment = build_deployment(
            config=small_test_config(depth_bound=12),
            topology=topology,
            malicious_ids={3, 6},
            seed=11,
        )
        network = deployment.network
        adversary = Adversary(network, make_strategy(name), seed=11)
        proxy = _instrument(adversary)
        protocol = VMATProtocol(network, adversary=adversary)
        readings = {i: 100.0 + i for i in topology.sensor_ids}
        readings[7] = 1.0
        for _ in range(2):
            protocol.execute(MinQuery(), readings)
        return proxy

    @pytest.mark.parametrize("name", SINGLE_NODE)
    def test_single_node_never_reads_peer_state(self, name: str) -> None:
        proxy = self._run_instrumented(name)
        assert not proxy.cross_reads, (
            f"{name} is declared single-node but read peer state: "
            f"{proxy.cross_reads[:5]}"
        )

    def test_instrument_detects_collusion(self) -> None:
        # Positive control: the cover-for-accomplice colluders *must*
        # cross-read (that is their whole mechanism), proving the
        # recording proxy actually sees such reads.
        proxy = self._run_instrumented("cover-accomplice")
        assert proxy.cross_reads
