"""Baselines: naive collect-all, alarm-only, unverified flooding,
set-sampling cost model."""

from __future__ import annotations

import pytest

from repro import MinQuery, VMATProtocol, build_deployment, small_test_config
from repro.adversary import Adversary, ChokingFloodStrategy, DropMinimumStrategy
from repro.baselines import (
    AlarmOnlyProtocol,
    AlarmOutcome,
    SetSamplingCostModel,
    naive_collection_cost,
    run_unverified_confirmation,
    vmat_query_cost,
)
from repro.baselines.naive import NAIVE_REPORT_BYTES
from repro.config import ProtocolConfig
from repro.core.confirmation import run_confirmation
from repro.core.protocol import install_execution
from repro.core.tree import form_tree
from repro.topology import grid_topology, line_topology, star_topology


class TestNaiveCollection:
    def test_line_cost_quadratic_at_bottleneck(self):
        dep = build_deployment(
            config=small_test_config(depth_bound=12),
            topology=line_topology(10),
            seed=1,
        )
        tree = form_tree(dep.network, None, 12)
        cost = naive_collection_cost(tree.levels, tree.parents)
        # Node 1 relays all 9 readings: sent 9r + received 8r.
        assert cost.per_node_bytes[1] == 17 * NAIVE_REPORT_BYTES
        assert cost.max_node_bytes == cost.per_node_bytes[1]

    def test_star_cost_is_one_report_each(self):
        dep = build_deployment(topology=star_topology(8), seed=1)
        tree = form_tree(dep.network, None, 4)
        cost = naive_collection_cost(tree.levels, tree.parents)
        assert all(v == NAIVE_REPORT_BYTES for v in cost.per_node_bytes.values())
        assert cost.base_station_rx_bytes == 7 * NAIVE_REPORT_BYTES

    def test_paper_comparison_orders_of_magnitude(self):
        """Section IX: naive >= 80 KB at n=10,000 vs VMAT ~2.4 KB."""
        protocol = ProtocolConfig()  # m = 100, 24-byte synopses
        vmat = vmat_query_cost(protocol)
        assert vmat == 2_400
        naive_bottleneck = 10_000 * NAIVE_REPORT_BYTES  # BS neighbourhood
        assert naive_bottleneck >= 80_000
        assert 10 <= naive_bottleneck / vmat <= 200  # "one to two orders"

    def test_ratio_helper(self):
        dep = build_deployment(topology=star_topology(5), seed=1)
        tree = form_tree(dep.network, None, 3)
        cost = naive_collection_cost(tree.levels, tree.parents)
        assert cost.ratio_to(1) == cost.max_node_bytes
        with pytest.raises(ValueError):
            cost.ratio_to(0)


class TestAlarmOnly:
    def _attacked(self):
        dep = build_deployment(
            config=small_test_config(depth_bound=12),
            topology=line_topology(8),
            malicious_ids={3},
            seed=9,
        )
        adv = Adversary(dep.network, DropMinimumStrategy(predtest="deny"), seed=9)
        return dep, adv

    def test_honest_run_returns_result(self):
        dep = build_deployment(num_nodes=15, seed=2)
        protocol = AlarmOnlyProtocol(dep.network)
        readings = {i: 20.0 + i for i in dep.topology.sensor_ids}
        result = protocol.execute(MinQuery(), readings)
        assert result.outcome is AlarmOutcome.RESULT
        assert result.estimate == 21.0

    def test_attack_raises_alarm_but_learns_nothing(self):
        dep, adv = self._attacked()
        protocol = AlarmOnlyProtocol(dep.network, adversary=adv)
        readings = {i: 20.0 + i for i in dep.topology.sensor_ids}
        readings[7] = 1.0
        result = protocol.execute(MinQuery(), readings)
        assert result.outcome is AlarmOutcome.ALARM
        assert not dep.registry.revoked_keys  # no pinpointing, no progress

    def test_persistent_attacker_stalls_forever(self):
        """The Section I motivation: a single malicious sensor keeps
        failing verification without exposing itself."""
        dep, adv = self._attacked()
        protocol = AlarmOnlyProtocol(dep.network, adversary=adv)
        readings = {i: 20.0 + i for i in dep.topology.sensor_ids}
        readings[7] = 1.0
        session = protocol.run_session(MinQuery(), readings, max_executions=15)
        assert session.stalled
        assert len(session.executions) == 15
        assert not dep.registry.revoked_keys

    def test_vmat_resolves_the_same_scenario(self):
        dep, adv = self._attacked()
        protocol = VMATProtocol(dep.network, adversary=adv)
        readings = {i: 20.0 + i for i in dep.topology.sensor_ids}
        readings[7] = 1.0
        session = protocol.run_session(MinQuery(), readings, max_executions=100)
        assert session.final_estimate is not None


class TestUnverifiedFlooding:
    def _setup(self, malicious, strategy, seed=3):
        dep = build_deployment(
            config=small_test_config(depth_bound=10),
            topology=grid_topology(4, 4),
            malicious_ids=malicious,
            seed=seed,
        )
        adv = Adversary(dep.network, strategy, seed=seed) if malicious else None
        readings = {i: 20.0 + i for i in dep.topology.sensor_ids}
        readings[15] = 1.0
        install_execution(dep.network, readings, MinQuery(), b"n")
        if adv is not None:
            mal = dep.network.malicious_ids
            adv.begin_execution(
                {i: readings[i] for i in mal},
                {i: [readings[i]] for i in mal},
                {i: [] for i in mal},
            )
        form_tree(dep.network, adv, 10)
        return dep, adv

    def test_without_attack_valid_veto_arrives(self):
        dep, adv = self._setup(frozenset(), None)
        result = run_unverified_confirmation(dep.network, None, 10, b"n", [10.0])
        assert result.valid_veto_arrived
        assert result.honest_vetoers == 1

    def test_choking_attack_can_silence_the_baseline(self):
        dep, adv = self._setup({1, 2, 4, 5}, ChokingFloodStrategy(), seed=3)
        result = run_unverified_confirmation(dep.network, adv, 10, b"n", [10.0])
        # With chokers ringing the base station, the legitimate veto
        # drowns in relay queues: the corrupted result would stand and
        # nothing is learned about the attacker.
        assert result.spurious_vetoes_arrived > 0
        assert result.attack_succeeded
        assert not result.valid_veto_arrived

    def test_sof_survives_the_same_attack(self):
        dep, adv = self._setup({1, 2, 4, 5}, ChokingFloodStrategy(), seed=3)
        result = run_confirmation(dep.network, adv, 10, b"n", [10.0])
        # Lemma 1: SOF delivers *some* veto — silence is impossible.
        assert not result.silent


class TestSetSamplingModel:
    def test_logarithmic_rounds(self):
        model = SetSamplingCostModel()
        assert model.levels(1024) == 10
        assert model.flooding_rounds(1024) == 10 * 2 * 3

    def test_rounds_grow_with_n(self):
        model = SetSamplingCostModel()
        assert model.flooding_rounds(10_000) > model.flooding_rounds(100)

    def test_latency_ratio(self):
        model = SetSamplingCostModel()
        # VMAT's happy path is ~5 rounds; [29] needs Omega(log n).
        assert model.latency_ratio_vs_vmat(10_000, vmat_rounds=5.0) > 10


class TestInsecureTag:
    def _deployment(self, malicious=frozenset()):
        return build_deployment(
            config=small_test_config(depth_bound=12),
            topology=line_topology(8),
            malicious_ids=malicious,
            seed=5,
        )

    def test_honest_tag_answers_cheaply(self):
        from repro.baselines import run_insecure_tag_min

        dep = self._deployment()
        readings = {i: 20.0 + i for i in dep.topology.sensor_ids}
        readings[7] = 1.0
        result = run_insecure_tag_min(dep.network, None, 12, readings)
        assert result.minimum == 1.0
        # Two flooding rounds: tree announce/flood + aggregation.
        assert result.flooding_rounds <= 3.0

    def test_dropper_silently_corrupts_tag(self):
        from repro.adversary import Adversary, DropMinimumStrategy
        from repro.baselines import run_insecure_tag_min

        dep = self._deployment(malicious={3})
        adv = Adversary(dep.network, DropMinimumStrategy(), seed=5)
        readings = {i: 20.0 + i for i in dep.topology.sensor_ids}
        readings[7] = 1.0
        result = run_insecure_tag_min(dep.network, adv, 12, readings)
        # The wrong answer stands, nothing alarms, nothing is revoked.
        assert result.minimum is not None and result.minimum > 1.0
        assert not dep.registry.revoked_keys

    def test_security_overhead_is_bounded(self):
        """VMAT's happy path costs ~2.5x TAG's rounds and bytes at MIN —
        the price of verifiability, not an order of magnitude."""
        from repro.baselines import run_insecure_tag_min

        dep = self._deployment()
        readings = {i: 20.0 + i for i in dep.topology.sensor_ids}
        tag = run_insecure_tag_min(dep.network, None, 12, readings)

        dep = self._deployment()
        protocol = VMATProtocol(dep.network)
        bytes_before = dep.network.metrics.total_bytes()
        result = protocol.execute(MinQuery(), readings)
        vmat_bytes = dep.network.metrics.total_bytes() - bytes_before
        assert result.produced_result
        assert result.flooding_rounds / tag.flooding_rounds <= 3.0
        assert vmat_bytes / max(tag.total_bytes, 1) <= 25.0
