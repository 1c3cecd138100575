"""Connectivity under mass key revocation (Section IX, closing remark).

The paper caps the revocation story: "for scenarios with much larger
numbers of malicious sensors ... the adversary will likely have already
acquired a large fraction of edge keys from the global key pool.
Revoking all these edge keys, even if possible, will likely result in a
disconnected network.  Thus in such scenarios, directly tolerating the
malicious sensors (e.g., as in [29]) will perhaps be more meaningful."

This module quantifies that cliff:

* :func:`revocation_sweep` — empirically revoke a growing random
  fraction of the key pool on a deployed network and measure the share
  of honest sensors still securely connected to the base station.
* :func:`link_survival_probability` — closed form: the probability a
  radio link survives when a fraction ``phi`` of the pool is revoked,
  conditioned on the endpoints sharing at least one key.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..config import ExperimentConfig, KeyConfig
from ..errors import ConfigError


@dataclass
class ConnectivitySeries:
    """Secure-component share vs fraction of the pool revoked."""

    num_nodes: int
    fractions: Tuple[float, ...]
    # fraction revoked -> mean share of honest sensors still connected
    connected_share: Dict[float, float] = field(default_factory=dict)
    trials: int = 1

    def collapse_fraction(self, threshold: float = 0.5) -> Optional[float]:
        """Smallest swept revocation fraction at which fewer than
        ``threshold`` of the sensors stay connected (None if never)."""
        for fraction in self.fractions:
            if self.connected_share[fraction] < threshold:
                return fraction
        return None


def revocation_sweep(
    num_nodes: int,
    fractions: Sequence[float],
    config: Optional[ExperimentConfig] = None,
    trials: int = 3,
    seed: int = 0,
) -> ConnectivitySeries:
    """Measure secure connectivity as a random pool fraction is revoked.

    Each trial builds a fresh deployment, revokes ``ceil(phi * u)``
    uniformly chosen pool keys (no θ rule — this models the aftermath of
    mass revocation, not its mechanism), and measures the share of
    sensors remaining in the base station's honest secure component.
    """
    from .. import build_deployment, small_test_config

    if trials < 1:
        raise ConfigError("trials must be >= 1")
    fractions = tuple(sorted(set(float(f) for f in fractions)))
    if any(not 0.0 <= f < 1.0 for f in fractions):
        raise ConfigError("fractions must lie in [0, 1)")
    config = config or small_test_config()
    series = ConnectivitySeries(
        num_nodes=num_nodes, fractions=fractions, trials=trials
    )
    totals = {fraction: 0.0 for fraction in fractions}
    for trial in range(trials):
        deployment = build_deployment(
            num_nodes=num_nodes, seed=seed + 1000 * trial, config=config
        )
        pool_size = config.keys.pool_size
        rng = random.Random(("connectivity", seed, trial).__repr__())
        order = list(range(pool_size))
        rng.shuffle(order)
        revoked_so_far = 0
        registry = deployment.registry
        # Through the logged path, so the secure view sees every key.
        registry.revocation.theta = None
        num_sensors = len(deployment.network.honest_sensors)
        for fraction in fractions:
            target = math.ceil(fraction * pool_size)
            while revoked_so_far < target:
                registry.revoke_key(order[revoked_so_far], reason="mass revocation")
                revoked_so_far += 1
            component = deployment.network.honest_secure_component()
            connected_sensors = len(component) - 1  # minus the BS
            totals[fraction] += connected_sensors / num_sensors
    for fraction in fractions:
        series.connected_share[fraction] = totals[fraction] / trials
    return series


def link_survival_probability(
    key_config: KeyConfig, fraction_revoked: float, max_terms: int = 60
) -> float:
    """P[link keeps >= 1 usable key | endpoints share >= 1 key] when a
    random fraction ``phi`` of the pool is revoked.

    The shared-key count K of two independent rings is asymptotically
    Poisson with mean ``r^2 / u``; each shared key independently
    survives with probability ``1 - phi``.
    """
    if not 0.0 <= fraction_revoked <= 1.0:
        raise ConfigError("fraction_revoked must be in [0, 1]")
    u, r = key_config.pool_size, key_config.ring_size
    mean_shared = r * r / u
    p_share = 1.0 - math.exp(-mean_shared)
    if p_share <= 0.0:
        return 0.0
    survive = 0.0
    pmf = math.exp(-mean_shared)
    for k in range(1, max_terms):
        pmf = pmf * mean_shared / k
        survive += pmf * (1.0 - fraction_revoked**k)
    return survive / p_share
