"""Alarm-only secure aggregation (SHIA-style [3]) — detect, never punish.

The protocols VMAT improves on (SHIA and its descendants, Section I) can
verify whether an aggregation result was corrupted and raise an alarm,
but cannot pinpoint the culprit: "even a single malicious sensor can keep
failing the final result verification without exposing itself."

We model the family faithfully inside our framework: the baseline runs
the same tree formation, aggregation and confirmation machinery as VMAT
— the veto doubles as the result-verification alarm — but records no
audit trails and performs no pinpointing.  Under a persistent attacker
its session loop never terminates, which is exactly the failure mode the
Section IX liveness bench contrasts with VMAT's bounded revocation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..crypto.nonce import NonceSource
from ..net.network import Network
from ..core.aggregation import run_aggregation
from ..core.confirmation import run_confirmation
from ..core.protocol import install_execution
from ..core.tree import form_tree


class AlarmOutcome(enum.Enum):
    RESULT = "result"
    ALARM = "alarm"


@dataclass
class AlarmResult:
    outcome: AlarmOutcome
    estimate: Optional[float] = None
    minima: List[float] = field(default_factory=list)


@dataclass
class AlarmSession:
    executions: List[AlarmResult] = field(default_factory=list)
    final_estimate: Optional[float] = None

    @property
    def stalled(self) -> bool:
        """True when the session hit its execution cap without a result —
        the permanent state of this baseline under persistent attack."""
        return self.final_estimate is None and bool(self.executions)


class AlarmOnlyProtocol:
    """Detection without revocation: the pre-VMAT state of the art."""

    def __init__(
        self,
        network: Network,
        adversary=None,
        depth_bound: Optional[int] = None,
        nonce_seed: bytes = b"alarm-only-nonce",
    ) -> None:
        self.network = network
        self.adversary = adversary
        self.depth_bound = (
            depth_bound if depth_bound is not None
            else network.config.protocol.depth_bound
        )
        self.nonces = NonceSource(nonce_seed)

    def execute(self, query, readings: Dict[int, float]) -> AlarmResult:
        """One aggregation attempt: a veto (valid or spurious) is an
        alarm; otherwise the result stands."""
        network = self.network
        L = self.depth_bound
        nonce = self.nonces.next()
        network.authenticated_flood("alarm-only-query", query.name, nonce)

        own_messages = install_execution(
            network, readings, query, nonce, adversary=self.adversary
        )

        form_tree(network, self.adversary, L)
        agg = run_aggregation(
            network, self.adversary, L, nonce, own_messages, query.num_instances,
            verify_minimum=lambda instance, message: self._verify(query, nonce, instance, message),
        )
        if agg.junk is not None:
            return AlarmResult(outcome=AlarmOutcome.ALARM, minima=agg.minimum_values())
        minima = agg.minimum_values()
        conf = run_confirmation(network, self.adversary, L, nonce, minima)
        if not conf.silent:
            return AlarmResult(outcome=AlarmOutcome.ALARM, minima=minima)
        return AlarmResult(
            outcome=AlarmOutcome.RESULT, estimate=query.estimate(minima), minima=minima
        )

    def run_session(
        self, query, readings: Dict[int, float], max_executions: int = 50
    ) -> AlarmSession:
        """Retry until a result — which a persistent attacker prevents
        forever.  The cap is the measurement, not a safety net."""
        session = AlarmSession()
        for _ in range(max_executions):
            result = self.execute(query, readings)
            session.executions.append(result)
            if result.outcome is AlarmOutcome.RESULT:
                session.final_estimate = result.estimate
                break
        return session

    def _verify(self, query, nonce, instance, message) -> bool:
        from ..crypto.mac import verify_mac
        from ..core.synopses import verify_synopsis

        network = self.network
        if not 1 <= message.sensor_id < network.topology.num_nodes:
            return False
        if not verify_mac(
            network.registry.sensor_key(message.sensor_id),
            message.mac,
            message.sensor_id,
            message.instance,
            message.value,
            nonce,
        ):
            return False
        domain = query.instance_reading_domain(instance)
        if domain is None:
            return True
        if domain == "config":
            protocol = network.config.protocol
            low, high = max(1, protocol.reading_min), protocol.reading_max
        else:
            low, high = domain
        return verify_synopsis(nonce, message.sensor_id, instance, message.value, low, high)
