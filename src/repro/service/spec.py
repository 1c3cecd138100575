"""Deployment specification for the service runtime (repro.service).

A :class:`ServiceSpec` is the single source of truth shared by the
coordinator and every node-host process: the same spec (shipped to hosts
via the ``REPRO_SERVICE_SPEC`` environment variable) deterministically
rebuilds the same deployment — topology, key material, clocks — on every
process, so only *frames* and *control events* ever cross the wire, never
key material.

The service transport is interval-synchronous and loss-free by contract:
fault kinds whose effects depend on per-frame randomness drawn at the
coordinator (``burst-loss``, ``duplicate``) or that shift frames across
the interval barrier (``clock-drift``) cannot be replayed bit-identically
on replicas and are rejected up front.  Supported kinds — ``crash``,
``link-down``, ``partition``, ``broadcast-loss``, ``broadcast-delay`` —
are windowed on the shared cumulative-interval axis and replay
identically everywhere.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import typing
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..core.queries import MaxQuery, MinQuery
from ..errors import ConfigError, parse_json
from ..faults.plan import FaultPlan

SPEC_ENV = "REPRO_SERVICE_SPEC"
METRICS_DIR_ENV = "REPRO_SERVICE_METRICS_DIR"

#: Fault kinds the service transport cannot replay deterministically on
#: replicas (per-frame coordinator RNG or cross-interval frame motion).
UNSUPPORTED_FAULT_KINDS = frozenset({"burst-loss", "duplicate", "clock-drift"})

#: Queries the v1 service runtime can reconstruct on node hosts from the
#: query name alone (no per-query parameters ride the wire yet).
_QUERIES = {"min": MinQuery, "max": MaxQuery}
SUPPORTED_QUERIES = tuple(_QUERIES)


def query_by_name(name: str):
    """The query a service session runs, rebuilt from its name alone."""
    query = _QUERIES.get(name)
    if query is None:
        raise ConfigError(
            f"query {name!r} not supported by the service runtime; "
            f"supported: {SUPPORTED_QUERIES}"
        )
    return query()


@dataclass(frozen=True)
class ServiceSpec:
    """Everything needed to rebuild one service deployment anywhere."""

    num_nodes: int = 25
    seed: int = 0
    processes: int = 2
    malicious_ids: Tuple[int, ...] = ()
    depth_bound: int = 6
    pool_size: int = 200
    ring_size: int = 40
    num_synopses: int = 20
    theta: Optional[int] = None
    tree_variant: str = "timestamp"
    multipath: bool = False
    fault_plan: Optional[str] = None  # canonical FaultPlan JSON
    fault_seed: int = 0
    host: str = "127.0.0.1"
    control_port: int = 0
    metrics_dir: Optional[str] = None
    # Resilience knobs (repro.service.resilience).  All timeouts are in
    # seconds.  ``control_timeout_s`` bounds one blocking control-channel
    # exchange end to end (env override: REPRO_SERVICE_TIMEOUT);
    # ``shutdown_grace_s`` is the SIGTERM->SIGKILL grace the supervisor
    # allows (env override: REPRO_SERVICE_GRACE).  Hosts heartbeat every
    # ``heartbeat_interval_s``; total control-channel silence longer than
    # ``detection_window_s`` declares the host unresponsive.  A failed
    # host is restarted (with journal replay) at most ``restart_budget``
    # times per session before it is declared dead and degraded onto
    # synthesized crash faults.  Retries (control connect, peer dials)
    # follow a seed-derived exponential-backoff schedule: up to
    # ``retry_attempts`` tries, delays ``retry_base_s * 2^i`` capped at
    # ``retry_max_s``, each stretched by up to ``retry_jitter`` fraction.
    control_timeout_s: float = 60.0
    shutdown_grace_s: float = 5.0
    heartbeat_interval_s: float = 0.5
    detection_window_s: float = 10.0
    restart_budget: int = 1
    retry_attempts: int = 4
    retry_base_s: float = 0.05
    retry_max_s: float = 0.5
    retry_jitter: float = 0.5
    peer_ack_timeout_s: float = 2.0

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        if self.num_nodes < 2:
            raise ConfigError("a service deployment needs at least one sensor")
        if self.processes < 1:
            raise ConfigError("at least one node-host process is required")
        if self.processes > len(self.honest_sensor_ids()):
            raise ConfigError(
                f"{self.processes} processes but only "
                f"{len(self.honest_sensor_ids())} honest sensors to host"
            )
        for mid in self.malicious_ids:
            if not 1 <= mid < self.num_nodes:
                raise ConfigError(f"malicious id {mid} outside 1..{self.num_nodes - 1}")
        if not -(2**63) <= self.seed < 2**63:
            # build_deployment keys the master secret with 8 seed bytes.
            raise ConfigError("seed must fit in a signed 64-bit int")
        if self.tree_variant not in ("timestamp", "hopcount"):
            raise ConfigError(f"unknown tree variant {self.tree_variant!r}")
        for name in (
            "control_timeout_s",
            "shutdown_grace_s",
            "heartbeat_interval_s",
            "detection_window_s",
            "retry_base_s",
            "retry_max_s",
            "peer_ack_timeout_s",
        ):
            if not 0 < getattr(self, name) < math.inf:  # NaN fails both
                raise ConfigError(f"{name} must be positive and finite")
        if self.restart_budget < 0:
            raise ConfigError("restart_budget must be >= 0")
        if self.retry_attempts < 1:
            raise ConfigError("retry_attempts must be >= 1")
        if self.retry_jitter < 0:
            raise ConfigError("retry_jitter must be >= 0")
        if self.fault_plan is not None:
            plan = FaultPlan.from_json(self.fault_plan)
            bad = sorted(set(plan.counts_by_kind()) & UNSUPPORTED_FAULT_KINDS)
            if bad:
                raise ConfigError(
                    f"fault kind(s) {bad} are not replayable over the service "
                    "transport (coordinator-side per-frame randomness or "
                    "cross-interval frame motion); supported kinds: crash, "
                    "link-down, partition, broadcast-loss, broadcast-delay"
                )

    # ------------------------------------------------------------------
    # Deterministic deployment reconstruction
    # ------------------------------------------------------------------
    def build_deployment(self):
        """The deployment every process reconstructs independently.

        Byte-identical everywhere: all inputs are spec fields, and
        :func:`repro.build_deployment` derives key material and topology
        deterministically from them.
        """
        from .. import build_deployment, small_test_config

        config = small_test_config(
            depth_bound=self.depth_bound,
            pool_size=self.pool_size,
            ring_size=self.ring_size,
            num_synopses=self.num_synopses,
        )
        if self.theta is not None:
            config = dataclasses.replace(
                config,
                revocation=dataclasses.replace(config.revocation, theta=self.theta),
            )
        if self.multipath:
            config = dataclasses.replace(
                config,
                network=dataclasses.replace(config.network, multipath=True),
            )
        if config.network.loss_rate > 0.0:
            raise ConfigError("the service transport requires loss_rate == 0")
        return build_deployment(
            num_nodes=self.num_nodes,
            seed=self.seed,
            config=config,
            malicious_ids=self.malicious_ids,
        )

    def plan(self) -> Optional[FaultPlan]:
        if self.fault_plan is None:
            return None
        return FaultPlan.from_json(self.fault_plan)

    # ------------------------------------------------------------------
    # Sharding
    # ------------------------------------------------------------------
    def honest_sensor_ids(self) -> List[int]:
        """Sensors that were honest at deployment time (ascending)."""
        malicious = set(self.malicious_ids)
        return [i for i in range(1, self.num_nodes) if i not in malicious]

    def hosted_ids(self, host_index: int) -> List[int]:
        """The shard of honest sensors process ``host_index`` hosts.

        Round-robin over the ascending honest id list, so shards are
        balanced and stable under the spec alone.
        """
        if not 0 <= host_index < self.processes:
            raise ConfigError(f"host index {host_index} outside 0..{self.processes - 1}")
        return self.honest_sensor_ids()[host_index :: self.processes]

    def host_of_map(self) -> Dict[int, int]:
        """sensor id -> host index, for every honest-at-deployment sensor."""
        out: Dict[int, int] = {}
        for index, sensor_id in enumerate(self.honest_sensor_ids()):
            out[sensor_id] = index % self.processes
        return out

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        out = dataclasses.asdict(self)
        out["malicious_ids"] = list(self.malicious_ids)
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ServiceSpec":
        """Rebuild a spec, checking each field against its annotation."""
        if not isinstance(data, dict):
            raise ConfigError(
                f"a ServiceSpec is a JSON object, not {type(data).__name__}"
            )
        hints = typing.get_type_hints(cls)
        unknown = sorted(set(data) - set(hints))
        if unknown:
            raise ConfigError(f"unknown ServiceSpec field(s): {unknown}")
        payload = dict(data)
        if isinstance(payload.get("malicious_ids"), list):
            payload["malicious_ids"] = tuple(payload["malicious_ids"])
        for name, value in payload.items():
            if not _matches(value, hints[name]):
                raise ConfigError(
                    f"ServiceSpec field {name!r} must be {hints[name]}, got {value!r}"
                )
        return cls(**payload)  # type: ignore[arg-type]

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ServiceSpec":
        return cls.from_dict(parse_json(text, "ServiceSpec"))

    @classmethod
    def from_env(cls) -> "ServiceSpec":
        text = os.environ.get(SPEC_ENV)
        if not text:
            raise ConfigError(f"{SPEC_ENV} is not set; node hosts need the spec")
        return cls.from_json(text)


def _matches(value, hint) -> bool:
    """Whether a decoded JSON value fits a ServiceSpec annotation: ints
    are not bools, floats accept ints, ``Optional`` accepts ``None``, and
    ``Tuple[int, ...]`` holds ints."""
    origin = typing.get_origin(hint)
    if origin is typing.Union:
        return any(_matches(value, arm) for arm in typing.get_args(hint))
    if origin is tuple:
        item = typing.get_args(hint)[0]
        return isinstance(value, tuple) and all(_matches(v, item) for v in value)
    if hint is type(None):
        return value is None
    if hint is float:
        return type(value) in (int, float)
    return type(value) is hint
