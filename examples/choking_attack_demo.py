"""Why SOF exists: choking attacks vs verifiable one-time flooding.

Four compromised sensors ring the base station and flood spurious vetoes
at full radio capacity during the confirmation phase:

* under a [23]-style scheme — relays cannot verify vetoes, so they must
  forward everything — the legitimate veto drowns in relay queues and
  the corrupted result stands, with no way to find the attacker;
* under VMAT's SOF, every honest relay forwards exactly one veto; the
  base station is guaranteed to receive *some* veto (Lemma 1), and
  whichever kind arrives, pinpointing revokes adversary key material.

Run:  python examples/choking_attack_demo.py
"""

from __future__ import annotations

from repro import MinQuery, build_deployment, small_test_config
from repro.adversary import Adversary, ChokingFloodStrategy
from repro.baselines import run_unverified_confirmation
from repro.core.confirmation import run_confirmation
from repro.core.protocol import install_execution
from repro.core.tree import form_tree
from repro.topology import grid_topology

CHOKERS = {1, 2, 4, 5}  # the base station's neighbourhood
DEPTH = 10


def build_scenario(seed: int):
    deployment = build_deployment(
        config=small_test_config(depth_bound=DEPTH),
        topology=grid_topology(4, 4),
        malicious_ids=CHOKERS,
        seed=seed,
    )
    adversary = Adversary(deployment.network, ChokingFloodStrategy(), seed=seed)
    readings = {i: 20.0 + i for i in deployment.topology.sensor_ids}
    readings[15] = 1.0  # honest vetoer: the broadcast minimum is wrong
    install_execution(deployment.network, readings, MinQuery(), b"demo-nonce")
    malicious = deployment.network.malicious_ids
    adversary.begin_execution(
        {i: readings[i] for i in malicious},
        {i: [readings[i]] for i in malicious},
        {i: [] for i in malicious},
    )
    form_tree(deployment.network, adversary, DEPTH)
    return deployment, adversary


def main() -> None:
    seeds = range(8)
    baseline_silenced = 0
    sof_silenced = 0
    for seed in seeds:
        deployment, adversary = build_scenario(seed)
        result = run_unverified_confirmation(
            deployment.network, adversary, DEPTH, b"demo-nonce", [10.0]
        )
        if not result.valid_veto_arrived:
            baseline_silenced += 1

        deployment, adversary = build_scenario(seed)
        result = run_confirmation(
            deployment.network, adversary, DEPTH, b"demo-nonce", [10.0]
        )
        if result.silent:
            sof_silenced += 1

    print(f"choking attack, {len(CHOKERS)} attackers at the base station, "
          f"{len(list(seeds))} trials:")
    print(f"  forward-everything baseline: legitimate veto silenced in "
          f"{baseline_silenced}/{len(list(seeds))} trials")
    print(f"  VMAT SOF:                    base station heard nothing in "
          f"{sof_silenced}/{len(list(seeds))} trials (Lemma 1 says 0)")
    assert sof_silenced == 0


if __name__ == "__main__":
    main()
