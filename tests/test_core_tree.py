"""Tree formation (Section IV-A): timestamp vs hop count, wormholes,
multipath rings."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro import build_deployment, small_test_config
from repro.adversary import Adversary, PassiveStrategy, WormholeStrategy
from repro.config import NetworkConfig
from repro.core.tree import form_tree
from repro.errors import ProtocolError
from repro.topology import grid_topology, line_topology, star_topology


class TestTimestampTree:
    def test_levels_equal_depth_without_adversary(self, line_deployment):
        result = form_tree(line_deployment.network, None, 12)
        depths = line_deployment.topology.depths()
        for node, level in result.levels.items():
            assert level == depths[node]

    def test_every_honest_sensor_gets_valid_level(self, deployment):
        result = form_tree(deployment.network, None, deployment.config.protocol.depth_bound)
        assert result.invalid_level_sensors == set()
        assert result.valid_fraction(deployment.network.honest_sensors) == 1.0

    def test_parents_are_one_level_above(self, grid_deployment):
        result = form_tree(grid_deployment.network, None, 10)
        for node, parents in result.parents.items():
            for parent in parents:
                parent_level = 0 if parent == 0 else result.levels.get(parent)
                assert parent_level == result.levels[node] - 1

    def test_star_topology_all_level_one(self):
        dep = build_deployment(topology=star_topology(8), seed=1)
        result = form_tree(dep.network, None, 6)
        assert all(level == 1 for level in result.levels.values())
        assert all(parents == [0] for parents in result.parents.values())

    def test_unknown_variant_rejected(self, deployment):
        with pytest.raises(ProtocolError):
            form_tree(deployment.network, None, 6, variant="bogus")

    def test_flooding_round_charged(self, deployment):
        before = deployment.network.metrics.flooding_rounds
        form_tree(deployment.network, None, 6)
        assert deployment.network.metrics.flooding_rounds > before


class TestMultipath:
    def test_multipath_collects_all_same_level_parents(self):
        config = replace(
            small_test_config(depth_bound=10),
            network=NetworkConfig(multipath=True),
        )
        dep = build_deployment(config=config, topology=grid_topology(4, 4), seed=2)
        result = form_tree(dep.network, None, 10)
        # Interior grid nodes have two shortest paths to the corner BS.
        multi_parent = [n for n, parents in result.parents.items() if len(parents) > 1]
        assert multi_parent, "grid should produce multi-parent nodes"
        for node, parents in result.parents.items():
            assert len(parents) == len(set(parents))


class TestWormhole:
    def _deployment(self, variant):
        # Line: BS .. entry=1 near BS, exit=8 far away; victim 9 beyond exit.
        dep = build_deployment(
            config=small_test_config(depth_bound=12),
            topology=line_topology(10),
            malicious_ids={1, 8},
            seed=5,
        )
        adv = Adversary(dep.network, WormholeStrategy(entry=1, exit=8, inflation=20), seed=5)
        result = form_tree(dep.network, adv, 12, variant=variant)
        return dep, result

    def test_hopcount_variant_is_vulnerable(self):
        dep, result = self._deployment("hopcount")
        # The replayed beacon reaches node 7/9 before the honest flood,
        # carrying an inflated hop count -> invalid level.
        assert result.invalid_level_sensors, "wormhole should disenfranchise victims"

    def test_timestamp_variant_is_immune(self):
        dep, result = self._deployment("timestamp")
        assert result.invalid_level_sensors == set()
        # Victims' levels may be *smaller* (the tunnel is a shortcut) but
        # never exceed the bound — the paper's property.
        for level in result.levels.values():
            assert 1 <= level <= 12

    def test_wormhole_lowers_but_never_raises_timestamp_levels(self):
        # Grid keeps the honest component connected, so the paper's
        # guarantee (level <= honest-path depth) applies to every victim.
        topo = grid_topology(4, 4)
        malicious = {5, 10}
        dep = build_deployment(
            config=small_test_config(depth_bound=10),
            topology=topo,
            malicious_ids=malicious,
            seed=6,
        )
        adv = Adversary(dep.network, WormholeStrategy(entry=5, exit=10, inflation=20), seed=6)
        result = form_tree(dep.network, adv, 10, variant="timestamp")
        honest_depths = topo.depths(
            include={i for i in topo.node_ids if i not in malicious}
        )
        for node, level in result.levels.items():
            assert level <= honest_depths[node]


class TestPassiveAdversaryParity:
    def test_passive_malicious_nodes_keep_tree_intact(self):
        dep = build_deployment(num_nodes=25, seed=9, malicious_ids={3, 7})
        adv = Adversary(dep.network, PassiveStrategy(), seed=9)
        result = form_tree(dep.network, adv, dep.config.protocol.depth_bound)
        assert result.invalid_level_sensors == set()
