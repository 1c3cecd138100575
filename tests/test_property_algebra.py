"""Seeded randomized property tests: merge algebra and spec stability.

Two families of properties the subsystems rely on but no example-based
test can pin down:

* :meth:`repro.metrics.Metrics.merge` is the fold the campaign runner
  and session driver use to accumulate executions — it must behave like
  a monoid (identity, associativity) and be commutative up to
  ``round_log`` order (the log is an append-ordered trace, so
  commutativity holds on the multiset of entries, not their order);
* :class:`~repro.faults.FaultPlan` and
  :class:`~repro.campaign.spec.CampaignSpec` hash and round-trip
  **by content**: reordering the keys of their JSON encodings must
  produce the same object, the same canonical JSON and the same derived
  seeds (the stores commit these hashes; a key-order dependence would
  silently fork every committed run id).

All randomness is seeded through :mod:`repro.seeding` so failures
reproduce exactly.
"""

from __future__ import annotations

import json

import pytest

from repro.campaign.spec import CampaignSpec, derive_cell_seed
from repro.faults import FaultPlan, chaos_plan
from repro.metrics import Metrics
from repro.seeding import canonical_json, derive_rng

# ----------------------------------------------------------------------
# Random generators (all deterministic in the test's seed)
# ----------------------------------------------------------------------

_FAULT_KINDS = ("crash", "partition", "burst-loss", "clock-drift")
_ROUND_LABELS = ("authenticated-broadcast", "keyed-predicate-test", "aggregation", "")


def random_metrics(seed: int) -> Metrics:
    rng = derive_rng("metrics-algebra", seed)
    metrics = Metrics()
    for _ in range(rng.randint(0, 12)):
        metrics.record_transmission(
            rng.randint(0, 9), rng.randint(0, 9), rng.randint(1, 64)
        )
    for _ in range(rng.randint(0, 4)):
        metrics.record_flooding_rounds(
            float(rng.randint(1, 3)), rng.choice(_ROUND_LABELS)
        )
    for _ in range(rng.randint(0, 3)):
        metrics.record_predicate_test()
    for _ in range(rng.randint(0, 3)):
        metrics.record_authenticated_broadcast()
    for _ in range(rng.randint(0, 3)):
        metrics.record_lost_transmission(rng.randint(0, 9), rng.randint(1, 64))
    for _ in range(rng.randint(0, 5)):
        metrics.record_fault(rng.choice(_FAULT_KINDS), rng.randint(1, 3))
    metrics.record_intervals(rng.randint(0, 20))
    metrics.record_crash_intervals(rng.randint(0, 8))
    metrics.record_partition_intervals(rng.randint(0, 8))
    return metrics


def copy_of(metrics: Metrics) -> Metrics:
    return Metrics.from_dict(metrics.to_dict())


def merged(a: Metrics, b: Metrics) -> Metrics:
    result = copy_of(a)
    result.merge(copy_of(b))
    return result


def order_insensitive_view(metrics: Metrics) -> dict:
    """``to_dict`` with the append-ordered round log sorted away."""
    data = metrics.to_dict()
    data["round_log"] = sorted(tuple(entry) for entry in data["round_log"])
    return data


# ----------------------------------------------------------------------
# Metrics merge algebra
# ----------------------------------------------------------------------
class TestMetricsMergeAlgebra:
    @pytest.mark.parametrize("seed", range(20))
    def test_identity(self, seed: int) -> None:
        """Fresh Metrics is a two-sided identity for merge."""
        m = random_metrics(seed)
        assert merged(m, Metrics()).to_dict() == m.to_dict()
        assert merged(Metrics(), m).to_dict() == m.to_dict()

    @pytest.mark.parametrize("seed", range(20))
    def test_commutative_up_to_log_order(self, seed: int) -> None:
        a, b = random_metrics(seed), random_metrics(seed + 1000)
        assert order_insensitive_view(merged(a, b)) == order_insensitive_view(
            merged(b, a)
        )

    @pytest.mark.parametrize("seed", range(20))
    def test_associative_exactly(self, seed: int) -> None:
        """(a+b)+c == a+(b+c) including round_log order."""
        a = random_metrics(seed)
        b = random_metrics(seed + 1000)
        c = random_metrics(seed + 2000)
        assert merged(merged(a, b), c).to_dict() == merged(a, merged(b, c)).to_dict()

    @pytest.mark.parametrize("seed", range(10))
    def test_merge_does_not_mutate_operand(self, seed: int) -> None:
        a, b = random_metrics(seed), random_metrics(seed + 1000)
        before = b.to_dict()
        target = copy_of(a)
        target.merge(b)
        assert b.to_dict() == before

    @pytest.mark.parametrize("seed", range(10))
    def test_round_trip_lossless(self, seed: int) -> None:
        m = random_metrics(seed)
        assert copy_of(m).to_dict() == m.to_dict()
        assert copy_of(m).summary() == m.summary()


class TestRecordSendIsPerReceiverFold:
    """``record_send`` is one ``record_transmission`` per receiver."""

    @staticmethod
    def random_sends(seed: int):
        rng = derive_rng("record-send", seed)
        # Receivers repeat (fault-injected duplicates, re-sends) and
        # lists may be empty (every receiver dropped).
        return [
            (
                rng.randint(0, 9),
                [rng.randint(0, 9) for _ in range(rng.randint(0, 5))],
                rng.randint(1, 64),
            )
            for _ in range(rng.randint(1, 15))
        ]

    @staticmethod
    def folded(sends, batched: bool) -> Metrics:
        metrics = Metrics()
        for sender, receivers, num_bytes in sends:
            if batched:
                metrics.record_send(sender, receivers, num_bytes)
            else:
                for receiver in receivers:
                    metrics.record_transmission(sender, receiver, num_bytes)
        return metrics

    @pytest.mark.parametrize("seed", range(20))
    def test_equal_to_per_receiver_records(self, seed: int) -> None:
        sends = self.random_sends(seed)
        batched, reference = self.folded(sends, True), self.folded(sends, False)
        # Counter insertion order included: to_dict emits it as is.
        assert json.dumps(batched.to_dict()) == json.dumps(reference.to_dict())

    @pytest.mark.parametrize("seed", range(20))
    def test_repeats_charge_the_receive_side_only(self, seed: int) -> None:
        """A send whose rows include fault-injected duplicates (each right
        after its original) equals one record_transmission per original
        plus a receive-only charge per duplicate, in row order."""
        rng = derive_rng("record-send-repeats", seed)
        batched, reference = Metrics(), Metrics()
        for sender, receivers, num_bytes in self.random_sends(seed):
            rows, repeats = [], 0
            for receiver in receivers:
                rows.append(receiver)
                reference.record_transmission(sender, receiver, num_bytes)
                if rng.random() < 0.4:
                    rows.append(receiver)
                    repeats += 1
                    reference.bytes_received[receiver] += num_bytes
                    reference.messages_received[receiver] += 1
            batched.record_send(sender, rows, num_bytes, repeats)
        assert json.dumps(batched.to_dict()) == json.dumps(reference.to_dict())

    @pytest.mark.parametrize("seed", range(10))
    def test_merge_sees_no_difference(self, seed: int) -> None:
        sends = self.random_sends(seed)
        base = random_metrics(seed)
        left = merged(base, self.folded(sends, True))
        right = merged(base, self.folded(sends, False))
        assert json.dumps(left.to_dict()) == json.dumps(right.to_dict())
        assert left.summary() == right.summary()


# ----------------------------------------------------------------------
# JSON round-trip stability under key reordering
# ----------------------------------------------------------------------

def reorder_keys(value, rng):
    """Recursively shuffle the key order of every JSON object."""
    if isinstance(value, dict):
        items = [(k, reorder_keys(v, rng)) for k, v in value.items()]
        rng.shuffle(items)
        return dict(items)
    if isinstance(value, list):
        return [reorder_keys(v, rng) for v in value]
    return value


class TestFaultPlanKeyOrderStability:
    @pytest.mark.parametrize("profile", ["crash", "partition", "burst", "clock", "mixed"])
    def test_reordered_json_same_plan_and_hash(self, profile: str) -> None:
        plan = chaos_plan(profile, num_nodes=12, depth_bound=6, seed=3, executions=2)
        rng = derive_rng("plan-reorder", profile)
        scrambled = json.dumps(reorder_keys(plan.to_dict(), rng))
        reparsed = FaultPlan.from_json(scrambled)
        assert reparsed == plan
        assert reparsed.plan_hash() == plan.plan_hash()
        assert canonical_json(reparsed.to_dict()) == canonical_json(plan.to_dict())


class TestCampaignSpecKeyOrderStability:
    def make_spec(self) -> CampaignSpec:
        from repro.campaign import ScenarioSpec

        return CampaignSpec(
            name="algebra",
            scenarios=(
                ScenarioSpec(scenario="fig7", grid={
                    "nodes": (300,), "malicious": (1, 3), "trials": (5,),
                    "theta_max": (12,),
                }),
                ScenarioSpec(scenario="chaos", grid={
                    "nodes": (16,), "profile": ("crash", "mixed"),
                    "executions": (2,),
                }),
            ),
            seed=11,
            replicates=2,
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_reordered_json_same_spec_hash_and_cells(self, seed: int) -> None:
        spec = self.make_spec()
        rng = derive_rng("spec-reorder", seed)
        scrambled = json.dumps(reorder_keys(spec.to_dict(), rng))
        reparsed = CampaignSpec.from_json(scrambled)
        assert reparsed.spec_hash() == spec.spec_hash()
        assert [c.cell_id for c in reparsed.cells()] == [
            c.cell_id for c in spec.cells()
        ]
        assert [c.seed for c in reparsed.cells()] == [c.seed for c in spec.cells()]

    def test_cell_seed_is_param_order_free(self) -> None:
        params_a = {"nodes": 300, "malicious": 1, "trials": 5}
        params_b = {"trials": 5, "nodes": 300, "malicious": 1}
        assert derive_cell_seed(7, "fig7", params_a) == derive_cell_seed(
            7, "fig7", params_b
        )
