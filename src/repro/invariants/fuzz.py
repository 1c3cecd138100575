"""Seeded adversary fuzzer: random-walk the attack/fault/topology space
and assert the invariant catalog on every run.

The fuzzer samples :class:`FuzzConfig` points — a topology shape, a set
of compromised sensors, an adversary strategy and predicate-test policy,
an optional benign fault profile, a query — with all randomness derived
through :mod:`repro.seeding`, so trial ``i`` of master seed ``s`` is the
same config on every machine forever.  Each config runs under an
:class:`~repro.invariants.monitor.InvariantMonitor`; any violation is
greedily shrunk (:func:`shrink`) to a smaller config that still violates
the *same* invariant, and saved as a JSON repro that
:func:`replay_repro` re-runs deterministically.

``python -m repro fuzz --trials N --seed S`` drives this; with
``--mutant NAME`` the fuzzer runs against a planted weakening
(:mod:`repro.invariants.mutants`), which is how CI proves the fuzzer can
actually find protocol bugs, not just pass on the correct build.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Dict, List, Optional, Tuple

from ..adversary.zoo import ZOO
from ..errors import ReproError
from ..seeding import canonical_json, derive_rng, derive_seed
from .catalog import Violation
from .monitor import InvariantMonitor

REPRO_FORMAT_VERSION = 1

#: Strategy / predtest / fault axes the fuzzer walks.  Topologies are
#: restricted to always-connected families (line, grid) so every
#: sampled config satisfies the deployment assumptions; disconnected
#: geometric samples would fuzz the *builder's* validation, not the
#: protocol.  Strategies come from the full adversary zoo, so every
#: registered attack — classic, adaptive and colluding — is walked
#: against the whole invariant catalog, not just the two oracles the
#: tournament asserts.
STRATEGIES = tuple(sorted(ZOO))
PREDTESTS = ("truthful", "deny", "lie_yes", "coin")
FAULT_PROFILES = ("none", "crash", "partition", "burst", "clock", "mixed")
QUERIES = ("min", "max")

#: Weighted fault draw: half the trials run fault-free.  The catalog's
#: strongest oracles (revocation-progress, the absence-based deferral
#: checks) are suspended while a fault injector is attached, so a
#: uniform draw over :data:`FAULT_PROFILES` — five faulty profiles to
#: one clean — would leave most trials unable to detect a weakened
#: pinpointer at all.
_FAULT_DRAW = ("none",) * 4 + FAULT_PROFILES[1:]


@dataclass(frozen=True)
class FuzzConfig:
    """One deterministic fuzzer scenario (JSON round-trippable)."""

    seed: int
    topology: str = "line"            # "line" | "grid"
    size: int = 8                     # nodes on a line; side^2 total on a grid
    malicious: Tuple[int, ...] = ()
    strategy: str = "passive"
    predtest: str = "truthful"
    fault_profile: str = "none"
    executions: int = 2
    query: str = "min"
    theta: Optional[int] = None

    def to_dict(self) -> Dict[str, Any]:
        data = asdict(self)
        data["malicious"] = list(self.malicious)
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FuzzConfig":
        if not isinstance(data, dict):
            raise ReproError(f"a FuzzConfig is a JSON object, not {type(data).__name__}")
        known = {f for f in cls.__dataclass_fields__}
        extra = set(data) - known
        if extra:
            raise ReproError(f"unknown FuzzConfig fields: {sorted(extra)}")
        data = dict(data)
        try:
            data["malicious"] = tuple(data.get("malicious", ()))
            return cls(**data)
        except TypeError as exc:
            raise ReproError(f"malformed FuzzConfig: {exc}") from None

    # ------------------------------------------------------------------
    def build_topology(self):
        from ..topology import grid_topology, line_topology

        if self.topology == "line":
            return line_topology(self.size)
        if self.topology == "grid":
            return grid_topology(self.size, self.size)
        raise ReproError(f"unknown fuzz topology {self.topology!r}")

    def depth_bound(self) -> int:
        if self.topology == "line":
            return self.size - 1
        return 2 * (self.size - 1)


def sample_config(master_seed: int, trial: int) -> FuzzConfig:
    """The deterministic trial-th config of a master seed."""
    rng = derive_rng("fuzz", master_seed, trial)
    topology = rng.choice(("line", "grid"))
    size = rng.randint(6, 10) if topology == "line" else rng.randint(3, 5)
    num_nodes = size if topology == "line" else size * size
    sensor_ids = list(range(1, num_nodes))
    strategy = rng.choice(STRATEGIES)
    # Colluding strategies need enough compromised nodes to fill their
    # roles; the zoo contract records the floor per strategy.
    floor = ZOO[strategy].contract.min_malicious
    ceiling = max(floor, min(2, len(sensor_ids)))
    num_malicious = rng.randint(floor, ceiling)
    malicious = tuple(sorted(rng.sample(sensor_ids, num_malicious)))
    fault_profile = rng.choice(_FAULT_DRAW)
    return FuzzConfig(
        seed=derive_seed("fuzz-run", master_seed, trial),
        topology=topology,
        size=size,
        malicious=malicious,
        strategy=strategy,
        predtest=rng.choice(PREDTESTS),
        fault_profile=fault_profile,
        executions=rng.randint(1, 3),
        query=rng.choice(QUERIES),
    )


def run_config(config: FuzzConfig, mutant: Optional[str] = None) -> List[Violation]:
    """Run one config under the monitor; returns its violations.

    With ``mutant`` set, the named weakening from
    :mod:`repro.invariants.mutants` is applied for the duration.
    """
    if mutant is not None:
        from .mutants import _PATCHES

        if mutant not in _PATCHES:
            raise ReproError(f"unknown mutant {mutant!r}; known: {sorted(_PATCHES)}")
        with _PATCHES[mutant]():
            return _run_config(config)
    return _run_config(config)


def _run_config(config: FuzzConfig) -> List[Violation]:
    from .. import MaxQuery, MinQuery, VMATProtocol, build_deployment, small_test_config
    from ..adversary import Adversary, make_strategy
    from ..config import RevocationConfig
    from ..faults import FaultInjector, chaos_plan
    from ..tracing import Tracer

    topology = config.build_topology()
    exp_config = small_test_config(depth_bound=config.depth_bound())
    if config.theta is not None:
        exp_config = replace(exp_config, revocation=RevocationConfig(theta=config.theta))
    deployment = build_deployment(
        config=exp_config,
        topology=topology,
        malicious_ids=set(config.malicious),
        seed=config.seed,
    )
    network = deployment.network
    if config.fault_profile != "none":
        plan = chaos_plan(
            config.fault_profile,
            topology.num_nodes,
            config.depth_bound(),
            config.seed,
            executions=config.executions,
        )
        FaultInjector(plan, seed=config.seed).attach(network)
    adversary = None
    if config.malicious:
        adversary = Adversary(
            network, make_strategy(config.strategy, config.predtest), seed=config.seed
        )
    protocol = VMATProtocol(network, adversary=adversary)
    tracer = Tracer.attach(network)
    monitor = InvariantMonitor.attach(tracer, network)

    rng = derive_rng("fuzz-readings", config.seed)
    readings = {i: float(rng.randint(10, 1000)) for i in topology.sensor_ids}
    query = MinQuery() if config.query == "min" else MaxQuery()
    try:
        # Bounded execute() loop, NOT run_session: a benign-mode run
        # against a stonewalling adversary legitimately stays
        # inconclusive forever, which run_session treats as an error.
        for _ in range(config.executions):
            protocol.execute(query, readings)
    except ReproError as exc:
        monitor.violations.append(Violation(
            invariant="execution-error",
            detail=f"{type(exc).__name__}: {exc}",
            context={"config": config.to_dict()},
        ))
    monitor.check_now()
    monitor.detach()
    return monitor.violations


# ----------------------------------------------------------------------
# Shrinking
# ----------------------------------------------------------------------
def _shrink_candidates(config: FuzzConfig) -> List[FuzzConfig]:
    """Next-step shrinks, most aggressive first."""
    candidates: List[FuzzConfig] = []
    if config.fault_profile != "none":
        candidates.append(replace(config, fault_profile="none"))
    if config.executions > 1:
        candidates.append(replace(config, executions=1))
    if len(config.malicious) > 1:
        for dropped in config.malicious:
            candidates.append(replace(
                config,
                malicious=tuple(i for i in config.malicious if i != dropped),
            ))
    min_size = 4 if config.topology == "line" else 3
    if config.size > min_size:
        smaller = config.size - 1
        num_nodes = smaller if config.topology == "line" else smaller * smaller
        kept = tuple(i for i in config.malicious if i < num_nodes)
        if kept == config.malicious:
            candidates.append(replace(config, size=smaller))
    if config.predtest != "truthful":
        candidates.append(replace(config, predtest="truthful"))
    return candidates


def shrink(
    config: FuzzConfig,
    violated: List[str],
    mutant: Optional[str] = None,
    max_rounds: int = 32,
) -> Tuple[FuzzConfig, List[Violation]]:
    """Greedily shrink ``config`` while it still violates the same set.

    A candidate replaces the current config only if its run violates at
    least the invariants in ``violated`` (so shrinking never wanders to
    a *different* bug).  Returns the smallest config found plus its
    violations.
    """
    target = set(violated)
    current = config
    current_violations = run_config(config, mutant=mutant)
    for _ in range(max_rounds):
        for candidate in _shrink_candidates(current):
            violations = run_config(candidate, mutant=mutant)
            if target <= {v.invariant for v in violations}:
                current, current_violations = candidate, violations
                break
        else:
            break
    return current, current_violations


# ----------------------------------------------------------------------
# Repro files
# ----------------------------------------------------------------------
def repro_dict(
    config: FuzzConfig, violations: List[Violation], mutant: Optional[str]
) -> Dict[str, Any]:
    return {
        "version": REPRO_FORMAT_VERSION,
        "config": config.to_dict(),
        "violated": sorted({v.invariant for v in violations}),
        "violations": [v.to_dict() for v in violations],
        "mutant": mutant,
    }


def save_repro(path, data: Dict[str, Any]) -> None:
    with open(path, "w") as handle:
        handle.write(canonical_json(data))
        handle.write("\n")


def replay_repro(path) -> Tuple[List[Violation], List[str]]:
    """Re-run a saved repro; returns (violations, expected_invariants).

    Deterministic: the replayed run must violate exactly the invariants
    the repro recorded (callers assert this; the CLI exits nonzero
    otherwise).  An unreadable or malformed file raises
    :class:`ReproError`.
    """
    try:
        with open(path) as handle:
            data = json.load(handle)
    except (OSError, ValueError) as exc:
        raise ReproError(f"cannot read repro {path}: {exc}") from None
    if not isinstance(data, dict):
        raise ReproError(f"repro {path} is not a JSON object")
    if data.get("version") != REPRO_FORMAT_VERSION:
        raise ReproError(
            f"unsupported repro version {data.get('version')!r} in {path}"
        )
    if "config" not in data:
        raise ReproError(f"repro {path} has no 'config'")
    config = FuzzConfig.from_dict(data["config"])
    violations = run_config(config, mutant=data.get("mutant"))
    return violations, list(data.get("violated", []))


# ----------------------------------------------------------------------
# The fuzz loop
# ----------------------------------------------------------------------
@dataclass
class FuzzReport:
    """Everything one fuzz campaign learned."""

    master_seed: int
    trials: int
    mutant: Optional[str] = None
    configs_run: int = 0
    violations_found: int = 0
    #: (trial, shrunken config, violations) per violating trial.
    findings: List[Tuple[int, FuzzConfig, List[Violation]]] = field(
        default_factory=list
    )
    repro_paths: List[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.findings


def fuzz(
    master_seed: int,
    trials: int,
    mutant: Optional[str] = None,
    repro_dir=None,
    do_shrink: bool = True,
) -> FuzzReport:
    """Run ``trials`` seeded configs, shrinking and saving any finding."""
    from pathlib import Path

    report = FuzzReport(master_seed=master_seed, trials=trials, mutant=mutant)
    for trial in range(trials):
        config = sample_config(master_seed, trial)
        violations = run_config(config, mutant=mutant)
        report.configs_run += 1
        if not violations:
            continue
        report.violations_found += len(violations)
        if do_shrink:
            violated = sorted({v.invariant for v in violations})
            config, violations = shrink(config, violated, mutant=mutant)
        report.findings.append((trial, config, violations))
        if repro_dir is not None:
            directory = Path(repro_dir)
            directory.mkdir(parents=True, exist_ok=True)
            path = directory / f"repro-seed{master_seed}-trial{trial}.json"
            save_repro(path, repro_dict(config, violations, mutant))
            report.repro_paths.append(str(path))
    return report
