"""Long-running network operation: epochs, health, trust bookkeeping.

The protocol layer answers one query; a deployment runs for months.
:class:`NetworkOperator` is the daily-driver wrapper a downstream user
actually operates:

* run periodic query epochs over evolving readings (a workload field or
  caller-supplied);
* keep longitudinal health state — per-epoch outcomes, revocation
  history, surviving population, secure-connectivity checks;
* expose a :meth:`health_report` summarizing whether the deployment is
  answering queries, under attack, or degraded.

All protocol guarantees flow through unchanged; the operator adds no
trust assumptions (it runs at the base station, which is trusted).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from .core.protocol import ExecutionOutcome, ExecutionResult, VMATProtocol
from .errors import ConfigError
from .net.network import Network


@dataclass
class EpochRecord:
    """One operational epoch: the query, its outcome and the fallout."""

    epoch: int
    query_name: str
    outcome: ExecutionOutcome
    estimate: Optional[float]
    true_value: Optional[float]
    revoked_keys: int
    revoked_sensors: List[int]
    attempts: int

    @property
    def answered(self) -> bool:
        return self.outcome is ExecutionOutcome.RESULT

    @property
    def relative_error(self) -> Optional[float]:
        if not self.answered or self.true_value in (None, 0):
            return None
        if self.estimate is None:
            return None
        return abs(self.estimate - self.true_value) / abs(self.true_value)


@dataclass
class HealthReport:
    """Operator-level summary across all epochs so far."""

    epochs: int
    answered: int
    attacked_epochs: int
    total_revoked_keys: int
    revoked_sensors: List[int]
    surviving_sensors: int
    securely_connected: int
    # Mean relative error of answered epochs, per query kind.  Kept
    # separate because they fail differently: a COUNT error is estimator
    # noise, while a MIN "error" after the adversary partitioned a
    # region reflects the connected-component semantics of Section III.
    mean_relative_error_by_query: Dict[str, float] = field(default_factory=dict)

    @property
    def availability(self) -> float:
        return self.answered / self.epochs if self.epochs else 1.0

    @property
    def mean_relative_error(self) -> Optional[float]:
        """Aggregate across all query kinds (None when nothing to average)."""
        values = list(self.mean_relative_error_by_query.values())
        return sum(values) / len(values) if values else None


class NetworkOperator:
    """Runs epochs of queries and tracks deployment health."""

    def __init__(
        self,
        network: Network,
        adversary=None,
        protocol: Optional[VMATProtocol] = None,
        max_attempts_per_epoch: int = 200,
    ) -> None:
        if max_attempts_per_epoch < 1:
            raise ConfigError("max_attempts_per_epoch must be >= 1")
        self.network = network
        self.protocol = protocol or VMATProtocol(network, adversary=adversary)
        self.max_attempts = max_attempts_per_epoch
        self.history: List[EpochRecord] = []
        self._epoch = 0

    # ------------------------------------------------------------------
    # Epochs
    # ------------------------------------------------------------------
    def run_epoch(self, query, readings: Dict[int, float]) -> EpochRecord:
        """Run one query epoch: repeat executions until an answer.

        Pre-answer executions revoke adversary material (Theorem 7), so
        this terminates; the record captures how hard the epoch was.
        """
        self._epoch += 1
        keys_before = len(self.network.registry.revoked_keys)
        sensors_before = set(self.network.registry.revoked_sensors)

        session = self.protocol.run_session(
            query, readings, max_executions=self.max_attempts
        )
        last = session.executions[-1]
        record = EpochRecord(
            epoch=self._epoch,
            query_name=query.name,
            outcome=last.outcome,
            estimate=session.final_estimate,
            true_value=last.honest_true_value,
            revoked_keys=len(self.network.registry.revoked_keys) - keys_before,
            revoked_sensors=sorted(
                set(self.network.registry.revoked_sensors) - sensors_before
            ),
            attempts=session.executions_until_result,
        )
        self.history.append(record)
        return record

    def run_epochs(
        self,
        query,
        field,
        num_epochs: int,
        topology=None,
    ) -> List[EpochRecord]:
        """Run several epochs over a workload field's evolving readings."""
        topology = topology or self.network.topology
        records = []
        for _ in range(num_epochs):
            readings = field.readings(topology, epoch=self._epoch)
            records.append(self.run_epoch(query, readings))
        return records

    # ------------------------------------------------------------------
    # Health
    # ------------------------------------------------------------------
    def health_report(self) -> HealthReport:
        answered = [r for r in self.history if r.answered]
        errors_by_query: Dict[str, List[float]] = {}
        for record in answered:
            error = record.relative_error
            if error is not None:
                errors_by_query.setdefault(record.query_name, []).append(error)
        revoked_sensors = sorted(self.network.registry.revoked_sensors)
        surviving = len(self.network.honest_ids)
        component = self.network.honest_secure_component()
        return HealthReport(
            epochs=len(self.history),
            answered=len(answered),
            attacked_epochs=sum(1 for r in self.history if r.attempts > 1),
            total_revoked_keys=len(self.network.registry.revoked_keys),
            revoked_sensors=revoked_sensors,
            surviving_sensors=surviving,
            securely_connected=len(component) - 1,
            mean_relative_error_by_query={
                name: sum(values) / len(values)
                for name, values in errors_by_query.items()
            },
        )
