"""Planted protocol weakenings: the catalog's mutation smoke-check.

A test oracle is only as good as its ability to notice a broken
protocol.  Each :class:`Mutant` here deliberately disables one defense
the paper's proofs rely on — skip the minimum's sensor-MAC check, trust
veto MACs blindly, ignore the benign-mode deferral rule, let pinpointing
terminate silently, count ring-dump revocations toward the θ rule,
un-defer a single absence branch in benign mode, deploy clocks twice as
far apart as Δ allows, book links under a key the receiver does not
hold — and pairs it with a
*provocation*: a deterministic adversarial scenario in which the
missing defense matters.

:func:`run_mutant` applies the weakening (a reversible monkey-patch),
runs the provocation under an :class:`InvariantMonitor`, and returns the
violations.  :func:`mutation_smoke` is the full check: every mutant's
provocation must be **clean unpatched** (so the scenario itself is not
what trips the catalog) and **flagged patched** (the named invariant
catches the weakening).  ``python -m repro invariants mutants`` and CI's
``campaign-smoke`` job run it; a mutant that survives means the
catalog has a blind spot and fails the build.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, replace
from typing import Dict, Iterator, List, Optional, Tuple

from ..errors import ReproError
from .catalog import Violation
from .monitor import InvariantMonitor


@dataclass(frozen=True)
class Mutant:
    """One deliberate weakening plus the scenario that exposes it."""

    name: str
    description: str
    #: Which paper defense the patch removes.
    weakens: str
    #: Invariant names, at least one of which must flag the provocation.
    expected: Tuple[str, ...]
    #: Provocation parameters (see :func:`run_provocation`).
    strategy: str = "passive"
    predtest: str = "truthful"
    theta: Optional[int] = None
    benign_faults: bool = False
    executions: int = 2


# ----------------------------------------------------------------------
# The weakenings (reversible monkey-patches)
# ----------------------------------------------------------------------
@contextlib.contextmanager
def _patched(obj, attribute: str, value) -> Iterator[None]:
    original = getattr(obj, attribute)
    setattr(obj, attribute, value)
    try:
        yield
    finally:
        setattr(obj, attribute, original)


@contextlib.contextmanager
def _mutate_accept_any_minimum() -> Iterator[None]:
    """Drop §IV-B's sensor-MAC + domain checks on aggregated minima."""
    from ..core.protocol import VMATProtocol

    with _patched(
        VMATProtocol,
        "_verify_minimum",
        lambda self, query, nonce, instance, message: True,
    ):
        yield


@contextlib.contextmanager
def _mutate_skip_veto_mac() -> Iterator[None]:
    """Trust every veto's claimed sensor id without checking its MAC."""
    from ..core import confirmation

    with _patched(confirmation, "verify_mac", lambda *args, **kwargs: True):
        yield


@contextlib.contextmanager
def _mutate_ignore_benign_deferral() -> Iterator[None]:
    """Run pinpoint walks full-strength even under a fault injector."""
    from ..core import pinpoint

    class _NoDeferralPinpointer(pinpoint.Pinpointer):
        def __init__(self, *args, **kwargs):
            kwargs["benign_mode"] = False
            super().__init__(*args, **kwargs)

    with _patched(pinpoint, "Pinpointer", _NoDeferralPinpointer):
        # The protocol driver resolves the class through the module at
        # import time; patch its reference too.
        from ..core import protocol

        with _patched(protocol, "Pinpointer", _NoDeferralPinpointer):
            yield


@contextlib.contextmanager
def _mutate_silent_pinpoint() -> Iterator[None]:
    """Let pinpoint walks terminate without revoking anybody."""
    from ..core.pinpoint import Pinpointer

    def _no_revoke_key(self, outcome, index, reason):
        outcome.blamed_key = index

    def _no_revoke_sensor(self, outcome, sensor_id, reason):
        outcome.blamed_sensor = sensor_id

    def _finish_quietly(self, outcome):
        outcome.tests_run = self.tests_run - self._tests_at_start
        return outcome

    with _patched(Pinpointer, "_revoke_key", _no_revoke_key), _patched(
        Pinpointer, "_revoke_sensor", _no_revoke_sensor
    ), _patched(Pinpointer, "_finish", _finish_quietly):
        yield


@contextlib.contextmanager
def _mutate_threshold_counts_ring_dumps() -> Iterator[None]:
    """Apply the θ rule to *all* revoked ring keys, not just exposed ones.

    Section VI-C counts only individually-exposed keys toward θ; ring
    dumps (the wholesale revocation of a pinpointed sensor's ring) must
    not count, or one revoked attacker takes every honest sensor that
    shares ring keys with it down too.
    """
    from ..keys.revocation import RevocationState

    original_threshold = RevocationState._run_threshold
    original_revoke_sensor = RevocationState.revoke_sensor

    def _counts_everything(self, trigger_key):
        # Alias the exposed-count storage to the total-revoked storage.
        with _patched(self, "_exposed_count", self._revoked_count):
            return original_threshold(self, trigger_key)

    def _revoke_sensor_with_threshold(self, sensor_id, reason="pinpointed",
                                      triggered_by_key=None):
        events = original_revoke_sensor(
            self, sensor_id, reason=reason, triggered_by_key=triggered_by_key
        )
        # The buggy accounting: a ring dump's key revocations feed the
        # θ rule too (the correct code runs it here only under cascade).
        if events and not self.cascade:
            events.extend(self._run_threshold(trigger_key=triggered_by_key))
        return events

    with _patched(RevocationState, "_run_threshold", _counts_everything), _patched(
        RevocationState, "revoke_sensor", _revoke_sensor_with_threshold
    ):
        yield


@contextlib.contextmanager
def _mutate_revoke_on_absence_despite_benign_mode() -> Iterator[None]:
    """Un-defer ONE absence branch: the forwarded-junk-veto receipt check.

    Unlike ``ignore-benign-deferral`` (which turns benign mode off
    wholesale), this mutant leaves benign mode on and selectively
    revokes on the "no receipt for forwarded junk veto" branch — the
    deep Figure-6 walk only an adaptive burst adversary reaches, so the
    classic provocations cannot expose it.
    """
    from ..core.pinpoint import Pinpointer

    original = Pinpointer._revoke_sensor_or_defer

    def _eager(self, outcome, sensor_id, reason):
        if reason == "no receipt for forwarded junk veto":
            self._revoke_sensor(outcome, sensor_id, reason)
        else:
            original(self, outcome, sensor_id, reason)

    with _patched(Pinpointer, "_revoke_sensor_or_defer", _eager):
        yield


@contextlib.contextmanager
def _mutate_clock_offsets_over_delta() -> Iterator[None]:
    """Draw deployment clock offsets from ``uniform(-Δ, Δ)`` instead of
    ``uniform(-Δ/2, Δ/2)``: two sensors may then disagree by up to 2Δ,
    breaking the §III synchronization bound the guard bands assume."""
    from ..sim.clock import ClockAssignment

    original = ClockAssignment.__init__

    def _wide(self, node_ids, config, seed, base_station_id=0):
        original(self, node_ids, replace(config, max_error=2 * config.max_error), seed,
                 base_station_id)
        self.config = config

    with _patched(ClockAssignment, "__init__", _wide):
        yield


@contextlib.contextmanager
def _mutate_book_unshared_key() -> Iterator[None]:
    """Book every aggregation link under the sender's highest ring key
    instead of the edge key both endpoints share: honest receivers then
    accept frames under keys they do not hold."""
    from ..net.network import _SecureTopologyView

    original = _SecureTopologyView.usable_links

    def _own_top_key(self, node_id, others):
        top = self.network.registry.ring(node_id)[-1]
        return [(other, top) for other, _ in original(self, node_id, others)]

    with _patched(_SecureTopologyView, "usable_links", _own_top_key):
        yield


_PATCHES = {
    "accept-any-minimum": _mutate_accept_any_minimum,
    "book-unshared-key": _mutate_book_unshared_key,
    "clock-offsets-over-delta": _mutate_clock_offsets_over_delta,
    "revoke-on-absence-despite-benign-mode": (
        _mutate_revoke_on_absence_despite_benign_mode
    ),
    "skip-veto-mac": _mutate_skip_veto_mac,
    "ignore-benign-deferral": _mutate_ignore_benign_deferral,
    "silent-pinpoint": _mutate_silent_pinpoint,
    "threshold-counts-ring-dumps": _mutate_threshold_counts_ring_dumps,
}

MUTANTS: Dict[str, Mutant] = {
    mutant.name: mutant
    for mutant in (
        Mutant(
            name="accept-any-minimum",
            description=(
                "Base station accepts any aggregated minimum without its "
                "sensor-MAC/domain checks; a forged -1.0 'minimum' becomes "
                "the accepted result."
            ),
            weakens="§IV-B reading verification (Lemma 1 soundness)",
            expected=("aggregate-error-bound",),
            strategy="junk-minimum",
        ),
        Mutant(
            name="skip-veto-mac",
            description=(
                "Confirmation-phase vetoes are trusted without verifying "
                "the claimed sensor's MAC; a forged veto drags its claimed "
                "honest sensor into a Figure-4 walk it must fail."
            ),
            weakens="§VI veto authentication (Figure 1 step 7 classification)",
            expected=("honest-node-safety",),
            strategy="spurious-veto",
        ),
        Mutant(
            name="ignore-benign-deferral",
            description=(
                "Pinpointing ignores the benign-failure deferral rule and "
                "issues absence-based revocations while a fault injector "
                "is attached."
            ),
            weakens="repro.faults degradation contract (docs/FAULTS.md)",
            expected=("positive-proof-revocation", "honest-node-safety"),
            strategy="spurious-veto",
            predtest="deny",
            benign_faults=True,
        ),
        Mutant(
            name="revoke-on-absence-despite-benign-mode",
            description=(
                "The forwarded-junk-veto receipt check revokes on absence "
                "even in benign mode; a burst adversary's forged veto under "
                "a quiet fault injector turns a mandated deferral into an "
                "absence-based revocation."
            ),
            weakens="repro.faults degradation contract (single-branch deferral)",
            expected=("positive-proof-revocation",),
            strategy="burst",
            predtest="truthful",
            benign_faults=True,
            executions=2,
        ),
        Mutant(
            name="silent-pinpoint",
            description=(
                "Pinpoint walks complete without actually revoking their "
                "verdicts — executions burn rounds but the adversary never "
                "loses key material."
            ),
            weakens="Theorem 6 strict progress",
            expected=("revocation-progress",),
            strategy="spurious-veto",
        ),
        Mutant(
            name="threshold-counts-ring-dumps",
            description=(
                "The θ threshold rule counts ring-dump key revocations as "
                "exposures; revoking one attacker cascades into honest "
                "sensors that merely share ring keys."
            ),
            weakens="§VI-C exposed-key accounting (Figure 7 safety)",
            expected=("honest-node-safety",),
            strategy="junk-minimum",
            theta=3,
        ),
        Mutant(
            name="book-unshared-key",
            description=(
                "Aggregation links are booked under the sender's highest "
                "ring key instead of the shared edge key; honest receivers "
                "verify bundles under a key they do not hold."
            ),
            weakens="§IV-B edge keys (the lowest shared, unrevoked pool key)",
            expected=("edge-mac-authenticity",),
        ),
        Mutant(
            name="clock-offsets-over-delta",
            description=(
                "Deployment clock offsets are drawn from uniform(-Delta, "
                "Delta) instead of uniform(-Delta/2, Delta/2); two sensors "
                "may disagree by up to 2 Delta, past the bound every guard "
                "band is sized for."
            ),
            weakens="§III synchronized clocks (pairwise error <= Delta)",
            expected=("clock-sync-delta",),
        ),
    )
}


# ----------------------------------------------------------------------
# The provocations
# ----------------------------------------------------------------------
def run_provocation(
    mutant: Mutant, seed: int = 7
) -> Tuple[List[Violation], List[str]]:
    """Run a mutant's scenario (unpatched) under the invariant monitor.

    Returns ``(violations, outcomes)``.  Deterministic in ``seed``: a
    10-node line deployment with sensor 4 compromised and the honest
    minimum downstream of it at sensor 7, so drop/forge strategies all
    have something to bite on.
    """
    from .. import MinQuery, VMATProtocol, build_deployment, small_test_config
    from ..adversary import Adversary, make_strategy
    from ..config import RevocationConfig
    from ..faults import FaultInjector, FaultPlan
    from ..topology import line_topology
    from ..tracing import Tracer

    config = small_test_config(depth_bound=12)
    if mutant.theta is not None:
        config = replace(config, revocation=RevocationConfig(theta=mutant.theta))
    topology = line_topology(10)
    deployment = build_deployment(
        config=config, topology=topology, malicious_ids={4}, seed=seed
    )
    network = deployment.network
    if mutant.benign_faults:
        # An injector with an empty plan: benign mode on, behavior
        # otherwise untouched, so the provocation stays deterministic.
        FaultInjector(FaultPlan(name="quiet"), seed=seed).attach(network)
    adversary = Adversary(network, make_strategy(mutant.strategy, mutant.predtest), seed=seed)
    protocol = VMATProtocol(network, adversary=adversary)
    tracer = Tracer.attach(network)
    monitor = InvariantMonitor.attach(tracer, network)

    readings = {i: 100.0 + i for i in topology.sensor_ids}
    readings[7] = 1.0
    outcomes: List[str] = []
    for _ in range(mutant.executions):
        try:
            result = protocol.execute(MinQuery(), readings)
        except ReproError as exc:
            # A mutant may break the protocol's own internal sanity
            # checks before the catalog sees the damage; surface that as
            # an outcome rather than crashing the smoke-check.
            outcomes.append(f"error: {exc}")
            break
        outcomes.append(result.outcome.value)
    monitor.check_now()
    monitor.detach()
    return monitor.violations, outcomes


def run_mutant(name: str, seed: int = 7) -> Tuple[List[Violation], List[str]]:
    """Run one mutant's provocation with its weakening applied."""
    mutant = MUTANTS.get(name)
    if mutant is None:
        raise ReproError(f"unknown mutant {name!r}; known: {sorted(MUTANTS)}")
    with _PATCHES[name]():
        return run_provocation(mutant, seed=seed)


@dataclass(frozen=True)
class MutantReport:
    """Outcome of one mutant's smoke-check leg."""

    name: str
    baseline_clean: bool
    caught: bool
    caught_by: Tuple[str, ...]
    expected: Tuple[str, ...]
    outcomes: Tuple[str, ...]

    @property
    def passed(self) -> bool:
        return self.baseline_clean and self.caught


def mutation_smoke(seed: int = 7, names=None) -> List[MutantReport]:
    """Check every planted mutant is caught (and only the mutant is).

    For each mutant: the provocation run *without* the patch must raise
    zero violations, and the run *with* the patch must be flagged by at
    least one of the mutant's expected invariants.
    """
    reports: List[MutantReport] = []
    for name in names if names is not None else sorted(MUTANTS):
        mutant = MUTANTS.get(name)
        if mutant is None:
            raise ReproError(f"unknown mutant {name!r}; known: {sorted(MUTANTS)}")
        baseline_violations, _ = run_provocation(mutant, seed=seed)
        violations, outcomes = run_mutant(name, seed=seed)
        caught_by = tuple(sorted({
            v.invariant for v in violations if v.invariant in mutant.expected
        }))
        reports.append(MutantReport(
            name=name,
            baseline_clean=not baseline_violations,
            caught=bool(caught_by),
            caught_by=caught_by,
            expected=mutant.expected,
            outcomes=tuple(outcomes),
        ))
    return reports
