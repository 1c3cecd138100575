"""Ablation A-tree — timestamp levels vs hop-count levels (Section IV-A).

Reproduces the Figure 2(c) attack: a wormhole pair tunnels the
tree-formation beacon and replays it with an inflated hop count.  Under
the naive hop-count rule victims adopt levels beyond ``L`` and lose
their transmission slot (disenfranchised); under VMAT's timestamp rule
the arrival interval bounds the level and nothing is lost.

Reported: fraction of honest sensors with a valid level, per variant,
over several placements.
"""

from __future__ import annotations

import pytest

from repro import build_deployment, small_test_config
from repro.adversary import Adversary, WormholeStrategy
from repro.core.tree import form_tree
from repro.topology import grid_topology

from .helpers import print_table, run_once

DEPTH = 10
# (entry near the BS, exit far away) wormhole placements on a 5x5 grid.
PLACEMENTS = [(1, 18), (5, 23), (6, 19)]


def run_variant(variant: str, entry: int, exit: int, seed: int):
    deployment = build_deployment(
        config=small_test_config(depth_bound=DEPTH),
        topology=grid_topology(5, 5),
        malicious_ids={entry, exit},
        seed=seed,
    )
    adversary = Adversary(
        deployment.network,
        WormholeStrategy(entry=entry, exit=exit, inflation=25),
        seed=seed,
    )
    result = form_tree(deployment.network, adversary, DEPTH, variant=variant)
    return result.valid_fraction(deployment.network.honest_sensors)


def test_tree_formation_under_wormhole(benchmark):
    def experiment():
        rows = []
        for entry, exit in PLACEMENTS:
            timestamp = run_variant("timestamp", entry, exit, seed=entry)
            hopcount = run_variant("hopcount", entry, exit, seed=entry)
            rows.append((entry, exit, timestamp, hopcount))
        return rows

    rows = run_once(benchmark, experiment)
    print_table(
        "Wormhole attack on tree formation: fraction of honest sensors "
        "with a valid level",
        ["entry", "exit", "timestamp (VMAT)", "hop count (naive)"],
        rows,
    )

    for entry, exit, timestamp, hopcount in rows:
        # VMAT: immune — every honest sensor keeps a valid level.
        assert timestamp == 1.0
        # Naive: at least someone is pushed past L.
        assert hopcount < 1.0
