"""Configuration objects for every subsystem.

All configs are frozen dataclasses with eager validation in
``__post_init__``: a config object that exists is a config object that is
internally consistent.  Experiments are fully determined by
``(config, seed)`` — no component reads global randomness.

The defaults follow the paper's evaluation section (Section IX):
Eschenauer–Gligor rings of ``r = 250`` keys drawn from a pool of
``u = 100,000``, 100 synopses for COUNT/SUM queries, and a revocation
threshold swept around ``theta = 7 .. 27``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ConfigError


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


@dataclass(frozen=True)
class ClockConfig:
    """Loosely synchronized clocks with bounded error (Section III).

    ``max_error`` is the paper's ``Delta``: the maximum clock offset
    between any two honest sensors.  ``interval_length`` is the duration
    of one protocol interval; the guard-band technique of Section IV-A
    requires ``interval_length > 2 * max_error``.
    """

    interval_length: float = 1.0
    max_error: float = 0.05

    def __post_init__(self) -> None:
        _require(self.interval_length > 0, "interval_length must be positive")
        _require(self.max_error >= 0, "max_error must be non-negative")
        _require(
            self.interval_length > 2 * self.max_error,
            "interval_length must exceed 2 * max_error so the guard-band "
            "technique of Section IV-A can place a send strictly inside "
            "the receiver's interval",
        )

    @property
    def guard_band(self) -> float:
        """Time kept clear at each end of an interval when transmitting."""
        return self.max_error


@dataclass(frozen=True)
class KeyConfig:
    """Eschenauer–Gligor key pre-distribution parameters (Section III).

    ``pool_size`` is the paper's ``u`` and ``ring_size`` its ``r``.  The
    paper's evaluation uses ``r = 250`` keys from a pool of ``u =
    100,000``, which gives two neighbouring sensors a shared key with
    probability about 0.5.
    """

    pool_size: int = 100_000
    ring_size: int = 250
    key_length: int = 16

    def __post_init__(self) -> None:
        _require(self.pool_size > 0, "pool_size must be positive")
        _require(
            0 < self.ring_size <= self.pool_size,
            "ring_size must be in (0, pool_size]",
        )
        _require(8 <= self.key_length <= 32, "key_length must be in [8, 32]")

    def edge_key_probability(self) -> float:
        """Probability that two independent rings share at least one key.

        Exact hypergeometric form: ``1 - C(u - r, r) / C(u, r)`` computed
        in log-space to stay stable for the paper's parameters.
        """
        import math

        u, r = self.pool_size, self.ring_size
        if 2 * r > u:
            return 1.0
        log_p_disjoint = 0.0
        for i in range(r):
            log_p_disjoint += math.log(u - r - i) - math.log(u - i)
        return 1.0 - math.exp(log_p_disjoint)


@dataclass(frozen=True)
class RevocationConfig:
    """Threshold-based whole-sensor revocation (Section VI-C).

    A sensor is revoked in full once ``theta`` of its ring keys have been
    individually revoked.  Smaller ``theta`` revokes attackers faster but
    risks mis-revoking honest sensors that happen to share many keys with
    the adversary (Figure 7 quantifies the trade-off).
    """

    theta: int = 27

    def __post_init__(self) -> None:
        _require(self.theta >= 1, "theta must be at least 1")


@dataclass(frozen=True)
class ProtocolConfig:
    """VMAT protocol parameters (Sections IV-VIII).

    ``depth_bound`` is the paper's ``L``: a known upper bound on the depth
    of the honest sensor network.  ``num_synopses`` is ``m`` in Section
    VIII (the paper's evaluation uses 100).  ``reading_domain`` bounds the
    integer readings sensors may report, used to verify that synopses
    correspond to *some* legal reading (Section VIII).
    """

    depth_bound: int = 10
    num_synopses: int = 100
    reading_min: int = 0
    reading_max: int = 10_000
    synopsis_bytes: int = 24
    reading_bytes: int = 8

    def __post_init__(self) -> None:
        _require(self.depth_bound >= 1, "depth_bound (L) must be >= 1")
        _require(self.num_synopses >= 1, "num_synopses (m) must be >= 1")
        _require(
            self.reading_min <= self.reading_max,
            "reading_min must not exceed reading_max",
        )
        _require(self.synopsis_bytes > 0, "synopsis_bytes must be positive")
        _require(self.reading_bytes > 0, "reading_bytes must be positive")

    @property
    def domain_size(self) -> int:
        return self.reading_max - self.reading_min + 1


@dataclass(frozen=True)
class NetworkConfig:
    """Message-layer behaviour of the simulated sensor network.

    ``forwarding_capacity`` is the number of messages a sensor can
    transmit per interval.  It is the resource a *choking attack* exhausts
    (Section III): schemes in which relays cannot verify messages must
    forward everything and are throttled by this bound, while VMAT's SOF
    and keyed-predicate-test relays forward at most one verified message
    and never hit it.
    """

    forwarding_capacity: int = 8
    multipath: bool = False
    # Per-transmission loss probability.  The paper assumes reliable
    # links ("after proper retransmissions if necessary"); a nonzero
    # loss rate is an *extension* for studying the footnote claim that
    # multi-path (synopsis-diffusion style) aggregation makes residual
    # losses nearly harmless.  Authenticated broadcasts stay reliable
    # (that is the [20] primitive's contract).
    #
    # CAUTION: the pinpointing guarantees (Lemmas 4/5) are proved under
    # reliable delivery — a lost bundle makes an honest parent unable to
    # admit a receipt its honest child truthfully claims, and Figure 6
    # step 2 would then revoke an honest-held edge key.  That is *why*
    # the paper assumes retransmission-backed reliability.  Use a
    # nonzero loss rate only for data-plane robustness studies without
    # adversaries (as the tests and benches here do), or accept that
    # revocations may hit honest keys exactly as a real deployment with
    # unreliable links would.
    loss_rate: float = 0.0

    def __post_init__(self) -> None:
        _require(self.forwarding_capacity >= 1, "forwarding_capacity >= 1")
        _require(0.0 <= self.loss_rate < 1.0, "loss_rate must be in [0, 1)")


@dataclass(frozen=True)
class ExperimentConfig:
    """Top-level bundle used by the drivers, benches and examples."""

    clock: ClockConfig = field(default_factory=ClockConfig)
    keys: KeyConfig = field(default_factory=KeyConfig)
    revocation: RevocationConfig = field(default_factory=RevocationConfig)
    protocol: ProtocolConfig = field(default_factory=ProtocolConfig)
    network: NetworkConfig = field(default_factory=NetworkConfig)

    def with_depth_bound(self, depth_bound: int) -> "ExperimentConfig":
        """Return a copy with ``protocol.depth_bound`` replaced."""
        from dataclasses import replace

        return replace(self, protocol=replace(self.protocol, depth_bound=depth_bound))


def small_test_config(
    depth_bound: int = 6,
    pool_size: int = 200,
    ring_size: int = 40,
    num_synopses: int = 20,
) -> ExperimentConfig:
    """A downsized config for unit tests and examples.

    The paper-scale pool (u = 100,000, r = 250) gives each neighbour pair
    only a ~0.5 chance of a shared key, which makes tiny test topologies
    flaky.  Shrinking the pool while growing the relative ring size keeps
    every subsystem exercised with near-certain edge-key coverage.
    """

    return ExperimentConfig(
        keys=KeyConfig(pool_size=pool_size, ring_size=ring_size),
        protocol=ProtocolConfig(depth_bound=depth_bound, num_synopses=num_synopses),
    )
