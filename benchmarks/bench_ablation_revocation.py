"""Ablation A-revoke — θ-threshold sensor revocation vs per-key only.

Section I: "VMAT instead will try to uniquely pinpoint a malicious
sensor after just revoking a small number of its symmetric keys.  We
show that this can often reduce the number of keys that need to be
individually revoked by over 90%."

Scenario: a malicious hub between the base station and many honest
spokes drops the minimum every query while denying all predicate tests
(the slowest-drip adversary).  We count how many of the hub's keys must
be individually pinpointed before it is neutralized:

* with the θ rule: about θ exposures, then the ring-seed announcement
  takes out everything;
* without it (θ = None): keys drip out one by one until the hub's links
  are all dead.
"""

from __future__ import annotations

import pytest

from repro import MinQuery, VMATProtocol, build_deployment, small_test_config
from repro.adversary import Adversary, DropMinimumStrategy
from repro.config import RevocationConfig
from repro.topology import Topology

from .helpers import print_table, run_once

NUM_SPOKES = 14


def hub_scenario(theta):
    from dataclasses import replace

    edges = [(0, 1)] + [(1, spoke) for spoke in range(2, NUM_SPOKES + 2)]
    config = small_test_config(depth_bound=4)
    if theta is not None:
        config = replace(config, revocation=RevocationConfig(theta=theta))
    deployment = build_deployment(
        config=config,
        topology=Topology(NUM_SPOKES + 2, edges),
        malicious_ids={1},
        seed=11,
    )
    if theta is None:
        deployment.registry.revocation.theta = None
    adversary = Adversary(deployment.network, DropMinimumStrategy(predtest="deny"), seed=11)
    protocol = VMATProtocol(deployment.network, adversary=adversary)
    return deployment, protocol


def attack_until_quiet(deployment, protocol, max_executions=400):
    spokes = [i for i in deployment.topology.sensor_ids if i != 1]
    executions = 0
    for round_index in range(max_executions):
        target = spokes[round_index % len(spokes)]
        readings = {i: 100.0 + i for i in deployment.topology.sensor_ids}
        readings[target] = 1.0
        result = protocol.execute(MinQuery(), readings)
        executions += 1
        if result.produced_result:
            break
    individually = sum(
        1
        for event in deployment.registry.revocation.log
        if event.kind == "key" and not event.reason.startswith("ring of")
    )
    return executions, individually, 1 in deployment.registry.revoked_sensors


def safe_theta(deployment):
    loot = deployment.network.adversary_pool_indices()
    return 1 + max(
        len(set(deployment.registry.ring(h)) & loot)
        for h in deployment.network.honest_sensors
    )


def test_threshold_revocation_saves_individual_revocations(benchmark):
    def experiment():
        deployment, protocol = hub_scenario(theta=None)
        baseline = attack_until_quiet(deployment, protocol)

        probe, _ = hub_scenario(theta=None)
        theta = safe_theta(probe)
        deployment, protocol = hub_scenario(theta=theta)
        with_rule = attack_until_quiet(deployment, protocol)
        return theta, baseline, with_rule

    theta, baseline, with_rule = run_once(benchmark, experiment)
    ring_size = small_test_config().keys.ring_size
    rows = [
        ["per-key only (theta=None)", baseline[0], baseline[1], baseline[2]],
        [f"theta rule (theta={theta})", with_rule[0], with_rule[1], with_rule[2]],
    ]
    print_table(
        "Persistent dropper hub: cost to neutralize",
        ["scheme", "executions", "keys individually revoked", "hub fully revoked"],
        rows,
    )
    saving = 1 - with_rule[1] / max(baseline[1], 1)
    print(f"individual-revocation saving from the theta rule: {saving:.0%} "
          f"(ring size {ring_size}; paper reports >90% at r=250)")

    # The θ rule fully revokes the hub; per-key never does.
    assert with_rule[2] is True
    assert baseline[2] is False
    # And it needs far fewer individually pinpointed keys + executions.
    assert with_rule[1] < baseline[1]
    assert with_rule[0] < baseline[0]
