"""Connectivity-under-revocation analysis (§IX closing remark)."""

from __future__ import annotations

import math
import random
from collections import deque

import pytest

from repro import build_deployment
from repro.analysis import link_survival_probability, revocation_sweep
from repro.config import ExperimentConfig, KeyConfig, ProtocolConfig
from repro.errors import ConfigError


class TestLinkSurvival:
    def test_no_revocation_full_survival(self):
        assert link_survival_probability(KeyConfig(), 0.0) == pytest.approx(1.0)

    def test_full_revocation_zero_survival(self):
        assert link_survival_probability(KeyConfig(), 1.0) == pytest.approx(0.0, abs=1e-9)

    def test_monotone_in_fraction(self):
        values = [
            link_survival_probability(KeyConfig(), phi)
            for phi in (0.0, 0.25, 0.5, 0.75, 0.99)
        ]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_denser_rings_survive_better(self):
        sparse = KeyConfig(pool_size=10_000, ring_size=50)
        dense = KeyConfig(pool_size=10_000, ring_size=400)
        assert link_survival_probability(dense, 0.5) > link_survival_probability(
            sparse, 0.5
        )

    def test_rejects_out_of_range(self):
        with pytest.raises(ConfigError):
            link_survival_probability(KeyConfig(), 1.5)


def _bfs_connected_share(num_nodes, fraction, config, trials, seed):
    """Ground truth for the sweep: revoke the same keys on the same
    deployments through the registry, then BFS over ``link_usable``."""
    total = 0.0
    pool_size = config.keys.pool_size
    for trial in range(trials):
        deployment = build_deployment(
            num_nodes=num_nodes, seed=seed + 1000 * trial, config=config
        )
        registry = deployment.registry
        registry.revocation.theta = None
        order = list(range(pool_size))
        random.Random(("connectivity", seed, trial).__repr__()).shuffle(order)
        for index in order[: math.ceil(fraction * pool_size)]:
            registry.revoke_key(index)
        reached = {0}
        frontier = deque([0])
        while frontier:
            node = frontier.popleft()
            for other in deployment.topology.neighbors(node):
                if other not in reached and registry.link_usable(node, other):
                    reached.add(other)
                    frontier.append(other)
        total += (len(reached) - 1) / len(deployment.network.honest_sensors)
    return total / trials


class TestRevocationSweep:
    def test_sweep_matches_link_usable_ground_truth(self):
        # Sparse rings so 90% revocation really cuts links; the sweep
        # must see every revoked key, not the epoch-0 secure view.
        config = ExperimentConfig(
            keys=KeyConfig(pool_size=1_000, ring_size=60),
            protocol=ProtocolConfig(depth_bound=12),
        )
        series = revocation_sweep(60, [0.9], config=config, trials=2, seed=0)
        truth = _bfs_connected_share(60, 0.9, config, trials=2, seed=0)
        assert truth < 0.95
        assert series.connected_share[0.9] == pytest.approx(truth)

    def test_sweep_shape(self):
        config = ExperimentConfig(
            keys=KeyConfig(pool_size=500, ring_size=50),
            protocol=ProtocolConfig(depth_bound=10),
        )
        series = revocation_sweep(40, [0.0, 0.5, 0.95], config=config, trials=2, seed=2)
        assert series.connected_share[0.0] == 1.0
        assert series.connected_share[0.95] <= series.connected_share[0.0]

    def test_collapse_fraction_none_when_robust(self):
        series = revocation_sweep(30, [0.0, 0.1], trials=1, seed=3)
        assert series.collapse_fraction(threshold=0.5) is None

    def test_rejects_bad_inputs(self):
        with pytest.raises(ConfigError):
            revocation_sweep(30, [1.0], trials=1)
        with pytest.raises(ConfigError):
            revocation_sweep(30, [0.5], trials=0)
