"""Figure 7: effectiveness of edge-key revocation (Section IX).

Setup, exactly as the paper's: each sensor holds ``r = 250`` keys drawn
uniformly from a pool of ``u = 100,000``; ``f`` sensors are malicious.
The adversary's pooled loot is the union of the ``f`` rings; in the worst
case every one of those keys eventually gets (legitimately) revoked.  An
honest sensor is *mis-revoked* under threshold ``θ`` when at least ``θ``
of its own ring keys fall inside the adversary's loot — the framing risk
of Section VI-C.

Two independent computations are provided and cross-checked in tests:

* **Monte Carlo** (:func:`misrevocation_trials`) — the paper's method
  (100 trials).  The adversary's rings are sampled explicitly; each
  honest sensor's overlap with a fixed loot set of size ``|A|`` is then
  Hypergeometric(u, |A|, r)-distributed and independent across sensors,
  so honest overlaps are drawn directly from that law instead of
  materializing 10,000 rings per trial.  This is an *exact* distributional
  shortcut, not an approximation.
* **Closed form** (:func:`expected_misrevocations`) — the expectation
  ``(n - f) * P[Hypergeom(u, |A|, r) >= θ]`` with ``|A|`` set to its own
  expectation (keys escaping at least one of f rings).
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy

from ..config import KeyConfig
from ..errors import ConfigError


@dataclass
class MisrevocationSeries:
    """One Figure-7 curve: avg mis-revoked honest sensors per θ."""

    num_sensors: int
    num_malicious: int
    trials: int
    theta_values: Tuple[int, ...]
    avg_misrevoked: Dict[int, float] = field(default_factory=dict)
    # Raw per-trial counts, for error bars.
    per_trial: Dict[int, List[int]] = field(default_factory=dict)

    def smallest_theta_below(self, target: float = 1.0) -> int:
        """Smallest θ keeping the average mis-revocations below target
        (the paper: θ = 27 suffices for f = 20 at the 'below 1' bar)."""
        for theta in self.theta_values:
            if self.avg_misrevoked[theta] < target:
                return theta
        raise ConfigError(
            f"no tested θ keeps avg mis-revocations below {target}; extend the sweep"
        )


def misrevocation_trials(
    num_sensors: int,
    num_malicious: int,
    theta_values: Sequence[int],
    trials: int = 100,
    key_config: KeyConfig = KeyConfig(),
    seed: int = 0,
) -> MisrevocationSeries:
    """Monte-Carlo estimate of the Figure-7 curve for one (n, f)."""
    if num_malicious >= num_sensors:
        raise ConfigError("need at least one honest sensor")
    thetas = tuple(sorted(set(int(t) for t in theta_values)))
    series = MisrevocationSeries(
        num_sensors=num_sensors,
        num_malicious=num_malicious,
        trials=trials,
        theta_values=thetas,
        per_trial={theta: [] for theta in thetas},
    )
    u, r = key_config.pool_size, key_config.ring_size
    honest = num_sensors - num_malicious

    label = ("fig7", seed, num_sensors, num_malicious).__repr__()
    digest = hashlib.sha256(label.encode()).digest()
    np_rng = numpy.random.default_rng(int.from_bytes(digest[:8], "big"))
    rng = random.Random(label)

    for _ in range(trials):
        # Adversary loot: union of f rings (explicitly sampled).
        loot: set[int] = set()
        for _ring in range(num_malicious):
            loot.update(rng.sample(range(u), r))
        loot_size = len(loot)
        # Honest overlaps ~ iid Hypergeometric(u, loot_size, r).
        overlaps = np_rng.hypergeometric(loot_size, u - loot_size, r, size=honest)
        for theta in thetas:
            series.per_trial[theta].append(int((overlaps >= theta).sum()))

    for theta in thetas:
        values = series.per_trial[theta]
        series.avg_misrevoked[theta] = sum(values) / len(values)
    return series


def expected_misrevocations(
    num_sensors: int,
    num_malicious: int,
    theta: int,
    key_config: KeyConfig = KeyConfig(),
) -> float:
    """Closed-form expectation of mis-revoked honest sensors.

    Uses the expected loot size ``u * (1 - (1 - r/u)^f)`` and the exact
    hypergeometric tail (via scipy when present, log-space fallback
    otherwise).
    """
    u, r = key_config.pool_size, key_config.ring_size
    loot = round(u * (1.0 - (1.0 - r / u) ** num_malicious))
    honest = num_sensors - num_malicious
    return honest * _hypergeom_sf(theta - 1, u, loot, r)


def _hypergeom_sf(k: int, total: int, good: int, draws: int) -> float:
    """P[X > k] for X ~ Hypergeometric(total, good, draws)."""
    try:
        from scipy.stats import hypergeom

        return float(hypergeom.sf(k, total, good, draws))
    except ImportError:  # pragma: no cover
        upper = min(good, draws)
        return math.fsum(_hypergeom_pmf(i, total, good, draws) for i in range(k + 1, upper + 1))


def _hypergeom_pmf(k: int, total: int, good: int, draws: int) -> float:
    return math.exp(
        _log_comb(good, k)
        + _log_comb(total - good, draws - k)
        - _log_comb(total, draws)
    )


def _log_comb(n: int, k: int) -> float:
    if k < 0 or k > n:
        return float("-inf")
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def smallest_safe_theta(
    num_sensors: int,
    num_malicious: int,
    key_config: KeyConfig = KeyConfig(),
    target: float = 1.0,
    theta_max: int = 250,
) -> int:
    """Smallest θ whose *expected* mis-revocations fall below ``target``
    — the analytic counterpart of reading Figure 7 off the page."""
    for theta in range(1, theta_max + 1):
        if expected_misrevocations(num_sensors, num_malicious, theta, key_config) < target:
            return theta
    raise ConfigError("no θ up to theta_max meets the target")


def figure7(
    network_sizes: Sequence[int] = (1_000, 10_000),
    malicious_counts: Sequence[int] = (1, 5, 10, 20),
    theta_values: Sequence[int] = tuple(range(1, 41)),
    trials: int = 100,
    key_config: KeyConfig = KeyConfig(),
    seed: int = 0,
) -> Dict[Tuple[int, int], MisrevocationSeries]:
    """The full Figure-7 grid: one series per (n, f)."""
    results: Dict[Tuple[int, int], MisrevocationSeries] = {}
    for n in network_sizes:
        for f in malicious_counts:
            results[(n, f)] = misrevocation_trials(
                n, f, theta_values, trials=trials, key_config=key_config, seed=seed
            )
    return results
