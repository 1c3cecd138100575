"""Ablation A-sof — SOF vs unverifiable-MAC flooding under choking.

The attack of Sections II/III: compromised sensors around the base
station flood spurious vetoes at full radio capacity during the
confirmation phase, racing the single legitimate veto.

* [23]-style relays cannot verify and forward everything: the
  legitimate veto drowns (attack succeeds — the corrupted result stands
  and nothing is learned);
* SOF relays forward exactly one veto: the base station always receives
  *something* (Lemma 1), and junk arrivals trigger junk-triggered
  pinpointing, so the attack always costs the adversary.

Reported: silencing rate of each scheme over seeds, with 4 chokers.
"""

from __future__ import annotations

import pytest

from repro import MinQuery, build_deployment, small_test_config
from repro.adversary import Adversary, ChokingFloodStrategy
from repro.baselines import run_unverified_confirmation
from repro.core.confirmation import run_confirmation
from repro.core.protocol import install_execution
from repro.core.tree import form_tree
from repro.topology import grid_topology

from .helpers import print_table, run_once

DEPTH = 10
CHOKERS = {1, 2, 4, 5}
SEEDS = range(10)


def build_scenario(seed: int):
    deployment = build_deployment(
        config=small_test_config(depth_bound=DEPTH),
        topology=grid_topology(4, 4),
        malicious_ids=CHOKERS,
        seed=seed,
    )
    adversary = Adversary(deployment.network, ChokingFloodStrategy(), seed=seed)
    readings = {i: 20.0 + i for i in deployment.topology.sensor_ids}
    readings[15] = 1.0  # honest vetoer: broadcast minimum is wrong
    install_execution(deployment.network, readings, MinQuery(), b"demo-nonce")
    malicious = deployment.network.malicious_ids
    adversary.begin_execution(
        {i: readings[i] for i in malicious},
        {i: [readings[i]] for i in malicious},
        {i: [] for i in malicious},
    )
    form_tree(deployment.network, adversary, DEPTH)
    return deployment, adversary


def test_sof_vs_unverified_flooding_under_choking(benchmark):
    def experiment():
        baseline_silenced = 0
        baseline_valid = 0
        sof_silent = 0
        sof_junk_caught = 0
        for seed in SEEDS:
            deployment, adversary = build_scenario(seed)
            result = run_unverified_confirmation(
                deployment.network, adversary, DEPTH, b"bench", [10.0]
            )
            if result.attack_succeeded:
                baseline_silenced += 1
            if result.valid_veto_arrived:
                baseline_valid += 1

            deployment, adversary = build_scenario(seed)
            result = run_confirmation(
                deployment.network, adversary, DEPTH, b"bench", [10.0]
            )
            if result.silent:
                sof_silent += 1
            if result.valid_veto is not None or result.spurious_veto is not None:
                sof_junk_caught += 1
        return baseline_silenced, baseline_valid, sof_silent, sof_junk_caught

    baseline_silenced, baseline_valid, sof_silent, sof_caught = run_once(
        benchmark, experiment
    )
    trials = len(list(SEEDS))
    print_table(
        f"Choking attack ({len(CHOKERS)} attackers at the BS), {trials} trials",
        ["scheme", "silenced", "BS hears a veto"],
        [
            ["unverified flooding [23]", baseline_silenced, baseline_valid],
            ["SOF (VMAT)", sof_silent, sof_caught],
        ],
    )

    # SOF: Lemma 1 — silence is impossible with an honest vetoer.
    assert sof_silent == 0
    assert sof_caught == trials
    # The baseline loses most of the time under a BS-adjacent choke.
    assert baseline_silenced >= trials * 0.6
