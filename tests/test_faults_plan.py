"""Fault plans: typed events, JSON round-trip, stable hash, presets."""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigError
from repro.faults import (
    CHAOS_PROFILES,
    BroadcastDelay,
    BroadcastLoss,
    BurstLoss,
    ClockDrift,
    Duplicate,
    FaultPlan,
    LinkDown,
    NodeCrash,
    Partition,
    chaos_plan,
)
from repro.faults.plan import EVENT_TYPES, FaultEvent


def sample_plan() -> FaultPlan:
    """One plan containing every event kind."""
    return FaultPlan(
        name="kitchen-sink",
        description="every kind once",
        events=(
            NodeCrash(node=3, start=2, end=6),
            LinkDown(a=1, b=2, start=1, end=4),
            Partition(nodes=(4, 5), start=3, end=8),
            BurstLoss(receiver=None, loss_rate=0.25, start=1, end=9),
            Duplicate(receiver=2, probability=0.5, start=2, end=5),
            BroadcastLoss(round=1, nodes=(3,)),
            BroadcastDelay(round=2, extra_rounds=2.0),
            ClockDrift(node=6, drift=1.5, start=4, end=7),
        ),
    )


class TestRoundTrip:
    def test_json_round_trip_preserves_plan(self):
        plan = sample_plan()
        restored = FaultPlan.from_json(plan.to_json())
        assert restored == plan
        assert restored.plan_hash() == plan.plan_hash()

    def test_every_kind_round_trips(self):
        for event in sample_plan().events:
            assert FaultEvent.from_dict(event.to_dict()) == event

    def test_registry_covers_all_kinds(self):
        assert set(EVENT_TYPES) == {e.KIND for e in sample_plan().events}

    def test_tuples_serialize_as_lists(self):
        data = Partition(nodes=(4, 5), start=1, end=2).to_dict()
        assert data["nodes"] == [4, 5]
        assert json.dumps(data)  # JSON-ready without custom encoders

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="unknown fault kind"):
            FaultEvent.from_dict({"kind": "meteor-strike"})

    def test_bad_fields_rejected(self):
        with pytest.raises(ConfigError, match="bad fields"):
            FaultEvent.from_dict({"kind": "crash", "nonsense": 1})


class TestHash:
    def test_hash_is_stable_across_equal_plans(self):
        assert sample_plan().plan_hash() == sample_plan().plan_hash()

    def test_hash_sees_every_field(self):
        base = FaultPlan("p", (NodeCrash(node=3, start=2, end=6),))
        other = FaultPlan("p", (NodeCrash(node=3, start=2, end=7),))
        renamed = FaultPlan("q", (NodeCrash(node=3, start=2, end=6),))
        assert len({base.plan_hash(), other.plan_hash(), renamed.plan_hash()}) == 3

    def test_hash_ignores_source_dict_key_order(self):
        plan = sample_plan()
        shuffled = json.loads(plan.to_json())
        shuffled["events"] = [
            dict(reversed(list(e.items()))) for e in shuffled["events"]
        ]
        assert FaultPlan.from_dict(shuffled).plan_hash() == plan.plan_hash()


class TestValidation:
    def test_window_must_be_nonempty_and_one_based(self):
        with pytest.raises(ConfigError):
            NodeCrash(node=1, start=0, end=2)
        with pytest.raises(ConfigError):
            NodeCrash(node=1, start=3, end=3)

    def test_base_station_cannot_crash_partition_or_drift(self):
        with pytest.raises(ConfigError):
            NodeCrash(node=0, start=1, end=2)
        with pytest.raises(ConfigError):
            Partition(nodes=(0, 1), start=1, end=2)
        with pytest.raises(ConfigError):
            ClockDrift(node=0, drift=1.0, start=1, end=2)
        with pytest.raises(ConfigError):
            BroadcastLoss(round=1, nodes=(0,))

    def test_partition_needs_distinct_nodes(self):
        with pytest.raises(ConfigError):
            Partition(nodes=(), start=1, end=2)
        with pytest.raises(ConfigError):
            Partition(nodes=(1, 1), start=1, end=2)

    def test_link_down_needs_two_endpoints(self):
        with pytest.raises(ConfigError):
            LinkDown(a=2, b=2, start=1, end=2)

    def test_rates_must_be_proper_probabilities(self):
        for bad in (0.0, 1.0, -0.1, 2.0):
            with pytest.raises(ConfigError):
                BurstLoss(loss_rate=bad, start=1, end=2)
            with pytest.raises(ConfigError):
                Duplicate(probability=bad, start=1, end=2)

    def test_broadcast_events_are_one_based(self):
        with pytest.raises(ConfigError):
            BroadcastLoss(round=0)
        with pytest.raises(ConfigError):
            BroadcastDelay(round=0)
        with pytest.raises(ConfigError):
            BroadcastDelay(round=1, extra_rounds=0.0)

    def test_zero_drift_is_rejected_as_noop(self):
        with pytest.raises(ConfigError):
            ClockDrift(node=1, drift=0.0, start=1, end=2)

    def test_plan_needs_name_and_typed_events(self):
        with pytest.raises(ConfigError):
            FaultPlan(name="")
        with pytest.raises(ConfigError):
            FaultPlan(name="p", events=({"kind": "crash"},))  # type: ignore[arg-type]

    @pytest.mark.parametrize(
        "data",
        [
            {},
            {"name": 7},
            {"name": "p", "events": 3},
            {"name": "p", "events": [1]},
            {"name": "p", "events": ["crash"]},
            {"name": "p", "events": [{"kind": ["crash"]}]},
            {"name": "p", "description": None},
            {"name": "p", "even": []},
            [],
        ],
        ids=[
            "no-name", "int-name", "int-events", "int-event", "str-event",
            "list-kind", "null-description", "unknown-key", "not-an-object",
        ],
    )
    def test_malformed_plan_dicts_raise_config_error(self, data):
        with pytest.raises(ConfigError):
            FaultPlan.from_dict(data)
        with pytest.raises(ConfigError):
            FaultPlan.from_json(json.dumps(data))

    @pytest.mark.parametrize(
        "event",
        [
            {"kind": "crash", "node": True, "start": 1, "end": 2},
            {"kind": "crash", "node": 3, "start": 1.5, "end": 2},
            {"kind": "partition", "nodes": "ab", "start": 1, "end": 2},
            {"kind": "partition", "nodes": [2, True], "start": 1, "end": 2},
            {"kind": "clock-drift", "node": 2, "drift": "x", "start": 1, "end": 3},
            {"kind": "clock-drift", "node": "3", "drift": 0.1, "start": 1, "end": 3},
            {"kind": "burst-loss", "receiver": 1.5, "loss_rate": 0.5},
            {"kind": "broadcast-loss", "round": 2.0},
            {"kind": "broadcast-loss", "round": 1, "nodes": [1.5]},
        ],
        ids=[
            "bool-node", "float-start", "str-nodes", "bool-in-nodes", "str-drift",
            "str-node", "float-receiver", "float-round", "float-in-nodes",
        ],
    )
    def test_malformed_event_fields_raise_config_error(self, event):
        with pytest.raises(ConfigError, match="bad fields"):
            FaultEvent.from_dict(event)
        with pytest.raises(ConfigError):
            FaultPlan.from_json(json.dumps({"name": "p", "events": [event]}))


class TestSemantics:
    def test_window_is_half_open(self):
        event = NodeCrash(node=1, start=3, end=5)
        assert [event.active(t) for t in (2, 3, 4, 5)] == [False, True, True, False]

    def test_partition_blocks_only_crossing_links(self):
        cut = Partition(nodes=(4, 5), start=1, end=2)
        assert cut.blocks(4, 1) and cut.blocks(1, 5)
        assert not cut.blocks(4, 5) and not cut.blocks(1, 2)

    def test_burst_loss_targeting(self):
        assert BurstLoss(receiver=None, loss_rate=0.5, start=1, end=2).applies_to(9)
        targeted = BurstLoss(receiver=3, loss_rate=0.5, start=1, end=2)
        assert targeted.applies_to(3) and not targeted.applies_to(4)

    def test_broadcast_loss_empty_nodes_means_everyone(self):
        assert BroadcastLoss(round=1).applies_to(7)
        assert not BroadcastLoss(round=1, nodes=(3,)).applies_to(7)

    def test_horizon_and_counts(self):
        plan = sample_plan()
        assert plan.horizon() == 9  # the widest window's end
        counts = plan.counts_by_kind()
        assert counts == {kind: 1 for kind in EVENT_TYPES}

    def test_describe_mentions_name_hash_and_kinds(self):
        plan = sample_plan()
        text = plan.describe()
        assert "kitchen-sink" in text
        assert plan.plan_hash()[:12] in text
        for kind in EVENT_TYPES:
            assert kind in text
        assert "empty plan" in FaultPlan(name="nothing").describe()


class TestChaosPresets:
    def test_presets_are_deterministic(self):
        for profile in CHAOS_PROFILES:
            a = chaos_plan(profile, 16, 6, seed=7)
            b = chaos_plan(profile, 16, 6, seed=7)
            assert a == b and a.plan_hash() == b.plan_hash()

    def test_seed_changes_the_plan(self):
        a = chaos_plan("mixed", 16, 6, seed=1)
        b = chaos_plan("mixed", 16, 6, seed=2)
        assert a.plan_hash() != b.plan_hash()

    def test_mixed_profile_covers_many_kinds(self):
        counts = chaos_plan("mixed", 16, 6, seed=3).counts_by_kind()
        assert {
            "crash", "partition", "burst-loss", "duplicate", "clock-drift",
            "broadcast-loss", "broadcast-delay",
        } <= set(counts)

    def test_unknown_profile_and_tiny_network_rejected(self):
        with pytest.raises(ConfigError):
            chaos_plan("locusts", 16, 6, seed=0)
        with pytest.raises(ConfigError):
            chaos_plan("crash", 2, 6, seed=0)
