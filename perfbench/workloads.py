"""The benchmark's workloads, and the closed loop that runs them.

Every workload is a closed loop: one caller in one thread issues the
next operation only after the previous one returned.  An operation is
one query session, from the first ``execute`` to a RESULT: a single
execution on the honest workloads, several (pinpointing, revocation,
then the answer) on the attacked ones.

The seed makes the readings and the honest sensor that holds the
planted minimum.  Topology, key material and the compromised sensor
are fixed per workload: they set how much work an operation is, so
fixing them makes runs with different seeds comparable, and the
protocol metrics of an operation are then the same for every seed,
which lets one recorded digest per workload gate all of them.
"""

from __future__ import annotations

import functools
import gc
import hashlib
import hmac
import json
import operator
import os
import random
import resource
import socket
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import repro
from repro import CountQuery, MinQuery, VMATProtocol, small_test_config
from repro.adversary import Adversary, make_strategy
from repro.core.synopses import estimate_sum, exponential_draws
from repro.crypto.nonce import NonceSource
from repro.errors import BroadcastAuthError, ProtocolError, ServiceError
from repro.perf.cache import cache_stats, clear_caches
from repro.service import ServiceSpec, run_service_session, strip_runtime_metrics
from repro.service.spec import SPEC_ENV
from repro.service.supervisor import python_env

from layers import SpanTracer

#: Errors an operation may end in; each is counted by type and the run
#: goes on.  Anything else is a bug in the benchmark and stops it.
TYPED_ERRORS = (ServiceError, BroadcastAuthError, ProtocolError)

#: The planted minimum; every other reading is drawn above it.
PLANTED_MIN = 20.0
READING_RANGE = (21, 10_000)

#: Key-material seed of every simulated deployment, and the protocol's
#: nonce secret (mirrored by the COUNT oracle).
DEPLOYMENT_SEED = 2011
NONCE_SEED = b"perfbench-nonce"

#: How long a node host may take to exit after the shutdown handshake.
HOST_EXIT_TIMEOUT_S = 30.0

EXPECTED_PATH = Path(__file__).with_name("expected.json")

#: Wall of :func:`calibration_wall` on a quiet 2-vCPU Xeon host.
CALIBRATION_REF_S = 0.056
_CALIBRATION_KEY = b"perfbench-calibrate"


def expected_digests() -> Dict[str, str]:
    return json.loads(EXPECTED_PATH.read_text())["metrics_digest"]


def calibration_wall() -> float:
    """Wall of a fixed stretch of interpreter work owned by the benchmark:
    keyed hashing, tuple-keyed dict traffic and a sort, the program's own
    mix.  No change to the program can move it, so its wall measures how
    fast the host runs Python right now."""
    started = time.perf_counter()
    table: Dict[Tuple[int, int], Tuple[int, bytes]] = {}
    for i in range(12_000):
        mac = hmac.new(_CALIBRATION_KEY, i.to_bytes(8, "little"), hashlib.sha256).digest()
        table[(i % 1021, mac[0] & 1)] = (i, mac)
        table.get((i % 1019, mac[1] & 1))
    sorted(table, key=operator.itemgetter(1))
    return time.perf_counter() - started


# ----------------------------------------------------------------------
# Readings and outcomes
# ----------------------------------------------------------------------
def make_readings(nodes: int, malicious: Tuple[int, ...], seed: int) -> Dict[int, float]:
    """Seeded readings for sensors 1..nodes-1, with the unique minimum
    planted on an honest sensor."""
    rng = random.Random(seed)
    readings = {i: float(rng.randrange(*READING_RANGE)) for i in range(1, nodes)}
    planted = rng.choice([i for i in readings if i not in malicious])
    readings[planted] = PLANTED_MIN
    return readings


@dataclass
class Outcome:
    """What one operation produced, for the gate and the metrics."""

    estimate: Optional[float]
    executions: int
    session_s: float  # first execute to RESULT
    op_s: float  # the whole operation (the root span)
    revoked_sensors: Tuple[int, ...]
    revoked_keys: int
    metrics: Dict[str, Any]  # this operation's Metrics.to_dict() delta
    expected_estimate: Optional[float] = None
    phase_samples: Dict[str, List[float]] = field(default_factory=dict)
    wire_bytes: int = 0
    wire_frames: int = 0
    host_factor: float = 1.0  # see run_workload

    @property
    def digest(self) -> str:
        stripped = strip_runtime_metrics(self.metrics)
        blob = json.dumps(stripped, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    @property
    def frames(self) -> int:
        return sum(self.metrics["messages_sent"].values())

    @property
    def radio_max_node_bytes(self) -> float:
        """The paper's per-node cost: the busiest node's bytes sent plus
        received, per execution."""
        sent, received = self.metrics["bytes_sent"], self.metrics["bytes_received"]
        busiest = max(
            (sent.get(n, 0) + received.get(n, 0) for n in set(sent) | set(received)),
            default=0,
        )
        return busiest / self.executions

    @property
    def intervals(self) -> int:
        return self.metrics["intervals_elapsed"]


def metrics_delta(before: Dict[str, Any], after: Dict[str, Any]) -> Dict[str, Any]:
    """``after - before`` for two ``Metrics.to_dict()`` snapshots of one
    accumulator: counters and numbers subtract, logs keep the new tail."""
    delta: Dict[str, Any] = {}
    for key, value in after.items():
        old = before.get(key)
        if isinstance(value, dict):
            old = old or {}
            if value and isinstance(next(iter(value.values())), list):
                delta[key] = {k: v[len(old.get(k, [])):] for k, v in value.items()}
            else:
                moved = {k: v - old.get(k, 0) for k, v in value.items()}
                delta[key] = {k: v for k, v in moved.items() if v}
        elif isinstance(value, list):
            delta[key] = value[len(old or []):]
        else:
            delta[key] = value - (old or 0)
    return delta


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class GridWorkload:
    """A simulated grid deployment queried through ``VMATProtocol``."""

    name: str
    rows: int
    cols: int
    query: str  # "min" or "count"
    pool_size: int
    ring_size: int
    num_synopses: int = 20
    theta: Optional[int] = None
    attacker: Optional[int] = None
    strategy: Optional[str] = None
    setup_repeats: int = 2
    #: Give every session a new deployment.  Attacked sessions revoke
    #: keys, so they need one; honest sessions on a reused deployment
    #: slow down as it ages, so where set-up is cheap, each gets one too.
    fresh_per_op: bool = False

    @property
    def nodes(self) -> int:
        return self.rows * self.cols

    @property
    def malicious(self) -> Tuple[int, ...]:
        return (self.attacker,) if self.attacker is not None else ()

    def config(self):
        config = small_test_config(
            depth_bound=self.rows + self.cols - 2,  # BFS depth from the corner
            pool_size=self.pool_size,
            ring_size=self.ring_size,
            num_synopses=self.num_synopses,
        )
        config = replace(config, network=replace(config.network, multipath=True))
        if self.theta is not None:
            config = replace(config, revocation=replace(config.revocation, theta=self.theta))
        return config

    def setup(self):
        topology = repro.grid_topology(self.rows, self.cols)
        deployment = repro.build_deployment(
            config=self.config(),
            topology=topology,
            malicious_ids=set(self.malicious),
            seed=DEPLOYMENT_SEED,
        )
        adversary = None
        if self.strategy is not None:
            adversary = Adversary(
                deployment.network, make_strategy(self.strategy), seed=DEPLOYMENT_SEED
            )
        protocol = VMATProtocol(deployment.network, adversary, nonce_seed=NONCE_SEED)
        return _GridState(deployment, protocol, NonceSource(NONCE_SEED))

    def _query(self, readings: Dict[int, float]):
        if self.query == "min":
            return MinQuery()
        # Count the sensors at or above the median reading.
        threshold = sorted(readings.values())[len(readings) // 2]
        return CountQuery(
            predicate=functools.partial(operator.le, threshold),
            num_synopses=self.num_synopses,
        )

    def op(self, state: "_GridState", readings: Dict[int, float], timed) -> Outcome:
        """One session; ``timed`` runs the call inside the root span."""
        network = state.deployment.network
        registry = state.deployment.registry
        query = self._query(readings)
        before = network.metrics.to_dict()
        started = time.perf_counter()
        session = timed("op", state.protocol.run_session, query, readings)
        session_s = time.perf_counter() - started
        outcome = Outcome(
            estimate=session.final_estimate,
            executions=len(session.executions),
            session_s=session_s,
            op_s=session_s,
            revoked_sensors=tuple(sorted(registry.revoked_sensors)),
            revoked_keys=len(registry.revoked_keys),
            metrics=metrics_delta(before, network.metrics.to_dict()),
        )
        if self.query == "min":
            outcome.expected_estimate = PLANTED_MIN
        else:
            # Honest COUNT sessions are one execution: one nonce each.
            nonce = state.oracle_nonces.next()
            outcome.expected_estimate = count_oracle(query, readings, nonce)
        return outcome


@dataclass
class _GridState:
    deployment: Any
    protocol: VMATProtocol
    oracle_nonces: NonceSource


def count_oracle(query: CountQuery, readings: Dict[int, float], nonce: bytes) -> float:
    """The COUNT estimate recomputed offline: per synopsis instance, the
    minimum exponential draw over the counted sensors, then the paper's
    estimator (Section VIII)."""
    counted = [i for i, r in readings.items() if query.predicate(r)]
    draws = [exponential_draws(nonce, i, query.num_synopses) for i in counted]
    return estimate_sum([min(column) for column in zip(*draws)])


@dataclass(frozen=True)
class ServiceWorkload:
    """A loopback ``repro.service`` deployment: a coordinator in this
    process and node-host processes, one full session per operation.

    The hosts are started the way an external supervisor (compose)
    starts them, and the coordinator runs with ``external_hosts=True``:
    teardown is then the shutdown handshake, after which each host exits
    on its own.  With coordinator-spawned hosts, the SIGTERM sent right
    after that handshake kills some hosts while they exit (status -15),
    which fails a share of the sessions for a reason unrelated to the
    work measured.
    """

    name: str
    spec: ServiceSpec
    attack: str
    setup_repeats: int = 8
    fresh_per_op = False

    @property
    def nodes(self) -> int:
        return self.spec.num_nodes

    @property
    def malicious(self) -> Tuple[int, ...]:
        return tuple(self.spec.malicious_ids)

    def setup(self):
        """The coordinator's deployment build (each session repeats it)."""
        return self.spec.build_deployment()

    def _session(self, readings: Dict[int, float]):
        # The coordinator and the host mostly take turns.  On one CPU
        # they hand over without a cross-CPU wake-up, whose latency on a
        # shared host swings from run to run, and the calibration loop
        # times the CPU the session ran on.  The host inherits the pin.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        spec = replace(self.spec, control_port=_free_port())
        env = python_env()
        env[SPEC_ENV] = spec.to_json()
        hosts = [
            subprocess.Popen(
                [sys.executable, "-m", "repro", "service", "node", "--host-index", str(i)],
                env=env,
                stdin=subprocess.DEVNULL,
            )
            for i in range(spec.processes)
        ]
        try:
            result = run_service_session(
                spec, "min", self.attack, readings, external_hosts=True
            )
            codes = [host.wait(timeout=HOST_EXIT_TIMEOUT_S) for host in hosts]
        finally:
            for host in hosts:
                if host.poll() is None:
                    host.kill()
                    host.wait()
        if any(codes):
            raise ServiceError(f"node hosts exited with status {codes}")
        return result

    def op(self, state: Any, readings: Dict[int, float], timed) -> Outcome:
        """Start the hosts, run launch, executions until a RESULT and
        teardown, and reap the hosts."""
        started = time.perf_counter()
        result = timed("op", self._session, readings)
        op_s = time.perf_counter() - started
        metrics = result.metrics
        phases = {k: list(v) for k, v in metrics.wall_clock.items() if k != "execution"}
        return Outcome(
            estimate=result.estimate,
            executions=result.num_executions,
            session_s=sum(metrics.wall_clock.get("execution", [])),
            op_s=op_s,
            revoked_sensors=tuple(sorted(t for kind, t, _ in result.revocations if kind == "sensor")),
            revoked_keys=sum(1 for kind, _t, _r in result.revocations if kind == "key"),
            metrics=metrics.to_dict(),
            expected_estimate=PLANTED_MIN,
            phase_samples=phases,
            wire_bytes=metrics.wire_bytes,
            wire_frames=metrics.wire_frames,
        )


def _free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


WORKLOADS = {
    w.name: w
    for w in (
        GridWorkload(
            "grid10k-min", 100, 100, "min", pool_size=16_384, ring_size=250, setup_repeats=1,
        ),
        GridWorkload(
            "grid256-count", 16, 16, "count", pool_size=16_384, ring_size=250,
            num_synopses=100, setup_repeats=2, fresh_per_op=True,
        ),
        GridWorkload(
            "grid256-attack", 16, 16, "min", pool_size=2_000, ring_size=60,
            theta=5, attacker=18, strategy="spurious-veto", setup_repeats=2, fresh_per_op=True,
        ),
        ServiceWorkload(
            "service25-attack",
            ServiceSpec(num_nodes=25, processes=1, malicious_ids=(5,), theta=6),
            attack="spurious-veto",
        ),
    )
}


# ----------------------------------------------------------------------
# The closed loop
# ----------------------------------------------------------------------
@dataclass
class RunRecord:
    """Everything one pass of a workload measured."""

    setup_walls: List[float] = field(default_factory=list)
    setup_factors: List[float] = field(default_factory=list)  # host factor of each
    outcomes: List[Outcome] = field(default_factory=list)
    attempted: int = 0
    errors: Counter = field(default_factory=Counter)  # by exception type
    mismatches: Counter = field(default_factory=Counter)  # by failed check
    digests: List[str] = field(default_factory=list)
    cache_before: Dict[str, Dict[str, int]] = field(default_factory=dict)
    cache_after: Dict[str, Dict[str, int]] = field(default_factory=dict)
    peak_rss_bytes: int = 0  # after the set-ups and the warm-up operation
    spans_setup: Dict[str, Dict[str, float]] = field(default_factory=dict)
    spans_ops: Dict[str, Dict[str, float]] = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return sum(self.errors.values()) + sum(self.mismatches.values())


def check(workload, outcome: Outcome, expected_digest: Optional[str]) -> List[str]:
    """The correctness gate: estimate, revoked set, metrics digest."""
    problems = []
    if outcome.estimate != outcome.expected_estimate:
        problems.append("estimate")
    # Exactly the compromised sensors are revoked, and no honest one.
    if outcome.revoked_sensors != tuple(sorted(workload.malicious)):
        problems.append("revoked-set")
    if expected_digest is not None and outcome.digest != expected_digest:
        problems.append("metrics-digest")
    return problems


def run_workload(
    workload,
    seed: int,
    seconds: float = 0.0,
    ops: Optional[int] = None,
    tracer: Optional[SpanTracer] = None,
    expected_digest: Optional[str] = None,
) -> RunRecord:
    """Set up, run one discarded warm-up operation, then operations until
    ``seconds`` have passed (or exactly ``ops`` of them), then set up
    again.

    Every set-up and operation is followed by a calibration loop, so
    each timed stretch sits between two.  Its *host factor* is
    ``CALIBRATION_REF_S`` over the mean wall of those two loops: the
    speed of the host while it ran, relative to a quiet one.  A shared
    host drifts by 1.5-2x over minutes; wall times the factor does not.
    """
    readings = make_readings(workload.nodes, workload.malicious, seed)
    record = RunRecord()
    last_calibration = [calibration_wall()]

    def host_factor() -> float:
        """The factor of the stretch that just ended."""
        before, after = last_calibration[0], calibration_wall()
        last_calibration[0] = after
        return 2 * CALIBRATION_REF_S / (before + after)

    def timed(name, fn, *args):
        return tracer.span(name, fn, *args) if tracer is not None else fn(*args)

    def setup():
        clear_caches()  # each deployment starts cold, as in a fresh process
        gc.collect()
        started = time.perf_counter()
        state = timed("setup", workload.setup)
        record.setup_walls.append(time.perf_counter() - started)
        record.setup_factors.append(host_factor())
        return state

    def one_op(state, keep: bool) -> None:
        record.attempted += 1
        if workload.fresh_per_op:
            state = setup()
        else:
            gc.collect()  # start every operation from the same collector state
        try:
            outcome = workload.op(state, readings, timed)
        except TYPED_ERRORS as exc:
            record.errors[type(exc).__name__] += 1
            host_factor()
            return
        outcome.host_factor = host_factor()
        record.mismatches.update(check(workload, outcome, expected_digest))
        record.digests.append(outcome.digest)
        if keep:
            record.outcomes.append(outcome)

    def setups() -> None:
        for _ in range(workload.setup_repeats):
            setup()  # each build is dropped before the next

    # Set-ups run before and after the operations, so that they sample
    # more than one stretch of host load.
    setups()
    state = setup()
    one_op(state, keep=False)  # warm-up: lazy set-up and first-use costs
    record.peak_rss_bytes = peak_rss_bytes()
    if tracer is not None:
        record.spans_setup = tracer.take()
    record.cache_before = cache_stats()
    started = time.perf_counter()
    measured = 0
    while (measured < ops) if ops is not None else (
        measured == 0 or time.perf_counter() - started < seconds
    ):
        one_op(state, keep=True)
        measured += 1
    record.cache_after = cache_stats()
    if tracer is not None:
        record.spans_ops = tracer.take()
    state = None
    setups()
    if tracer is not None:
        spans = tracer.take()
        for name, stats in spans.items():
            into = record.spans_setup.setdefault(name, dict.fromkeys(stats, 0))
            for key, value in stats.items():
                into[key] += value
    return record


def peak_rss_bytes() -> int:
    """Process-wide peak RSS (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
