"""The network audit log — the local half of every pinpointing predicate.

Each predicate of Section VI is one query over one table of
:class:`~repro.net.node.AuditLog`.  The oracle below checks every query
against a brute-force scan over per-row tuples: one ``any()`` body per
predicate, over one sensor's rows at a time.
"""

from __future__ import annotations

import random
from array import array
from typing import NamedTuple

import pytest

from repro.adversary.base import MaliciousNodeState
from repro.core.audit import _lowest_sender
from repro.core.predicate_test import (
    AggForwarded,
    AggReceived,
    AggReceivedExact,
    AggSentExact,
    ConfReceivedExact,
    ConfSentExact,
)
from repro.net.message import ReadingMessage, VetoMessage, message_digest
from repro.core.node_columns import NO_LEVEL, NodeColumns
from repro.net.node import AuditLog


def reading(value, instance=0, sensor_id=9):
    return ReadingMessage(sensor_id=sensor_id, value=value, mac=b"m" * 8, instance=instance)


def veto(value=1.0, level=3, sensor_id=9):
    return VetoMessage(sensor_id=sensor_id, value=value, level=level, mac=b"m" * 8)


DEPTH = 8


@pytest.fixture
def audit():
    log = AuditLog()
    log.aggregation_sends.add(1, 4, [(2, 17)], [reading(5.0)])
    log.aggregation_receipts.add(1, 6, [(7, 23)], [reading(5.0)])
    log.confirmation_sends.add(1, 2, [(3, 31)], [veto()])
    log.confirmation_receipts.add(1, 1, [(5, 29)], [veto()])
    return log


def holds(predicate, audit, node=1):
    return node in predicate.satisfied_by(audit, {node}, DEPTH)


class TestAggForwardedValue:
    def test_matches_on_equal_bound(self, audit):
        assert holds(AggForwarded(level=4, value_bound=5.0, key_low=0, key_high=99), audit)

    def test_matches_on_looser_bound(self, audit):
        assert holds(AggForwarded(4, 100.0, 0, 99), audit)

    def test_rejects_tighter_bound(self, audit):
        assert not holds(AggForwarded(4, 4.9, 0, 99), audit)

    def test_rejects_wrong_level(self, audit):
        assert not holds(AggForwarded(3, 5.0, 0, 99), audit)

    def test_key_range_inclusive(self, audit):
        assert holds(AggForwarded(4, 5.0, 17, 17), audit)
        assert not holds(AggForwarded(4, 5.0, 18, 99), audit)
        assert not holds(AggForwarded(4, 5.0, 0, 16), audit)

    def test_instance_filter(self, audit):
        assert not holds(AggForwarded(4, 5.0, 0, 99, instance=1), audit)

    def test_answers_only_from_the_candidates_own_rows(self, audit):
        assert not holds(AggForwarded(4, 5.0, 0, 99), audit, node=2)


class TestAggReceivedValue:
    # A receipt in interval 6 came from a child at level DEPTH - 6 + 1.
    def test_matches(self, audit):
        assert holds(AggReceived(0, 99, value_bound=5.0, child_level=3, key_index=23), audit)

    def test_rejects_other_edge_key(self, audit):
        assert not holds(AggReceived(0, 99, 5.0, 3, 24), audit)

    def test_rejects_other_interval(self, audit):
        assert not holds(AggReceived(0, 99, 5.0, 4, 23), audit)

    def test_id_range(self, audit):
        assert not holds(AggReceived(2, 99, 5.0, 3, 23), audit)


class TestExactQueries:
    def test_agg_sent_exact(self, audit):
        digest = message_digest(reading(5.0))
        assert holds(AggSentExact(0, 99, digest, level=4, key_index=17), audit)
        assert not holds(AggSentExact(0, 99, digest, 5, 17), audit)
        assert not holds(AggSentExact(0, 99, message_digest(reading(6.0)), 4, 17), audit)

    def test_agg_received_exact(self, audit):
        digest = message_digest(reading(5.0))
        assert holds(AggReceivedExact(digest, interval=6, key_low=0, key_high=99), audit)
        assert not holds(AggReceivedExact(digest, 6, 24, 99), audit)

    def test_conf_sent_exact(self, audit):
        digest = message_digest(veto())
        assert holds(ConfSentExact(0, 99, digest, interval=2, key_index=31), audit)
        assert not holds(ConfSentExact(0, 99, digest, 1, 31), audit)

    def test_conf_received_exact(self, audit):
        digest = message_digest(veto())
        assert holds(ConfReceivedExact(digest, interval=1, key_low=29, key_high=29), audit)
        assert not holds(ConfReceivedExact(digest, 1, 30, 99), audit)


class TestTables:
    def test_add_is_link_major(self):
        log = AuditLog()
        a, b = reading(1.0), reading(2.0, instance=1)
        log.aggregation_sends.add(4, 3, [(1, 10), (2, 11)], [a, b])
        table = log.aggregation_sends
        assert list(table.node) == [4, 4, 4, 4]
        assert list(table.position) == [3, 3, 3, 3]
        assert list(table.peer) == [1, 1, 2, 2]
        assert list(table.edge) == [10, 10, 11, 11]
        assert table.message == [a, b, a, b]

    def test_rows_of_keeps_append_order(self):
        log = AuditLog()
        for position in (5, 2, 7):
            log.confirmation_sends.add(3, position, [(1, position)], [veto()])
            log.confirmation_sends.add(4, position, [(1, position)], [veto()])
        table = log.confirmation_sends
        assert [table.position[r] for r in table.rows_of(3)] == [5, 2, 7]
        assert table.rows_of(9) == []

    def test_empty_links_or_messages_add_nothing(self, audit):
        before = len(audit.aggregation_sends)
        audit.aggregation_sends.add(1, 4, [], [reading(1.0)])
        audit.aggregation_sends.add(1, 4, [(2, 17)], [])
        assert len(audit.aggregation_sends) == before


# ----------------------------------------------------------------------
# Oracle: every query against a brute-force scan over per-row tuples
# ----------------------------------------------------------------------
class Row(NamedTuple):
    node: int
    position: int
    edge: int
    peer: int
    message: object


def _rows(table):
    return [
        Row(table.node[i], table.position[i], table.edge[i], table.peer[i], table.message[i])
        for i in range(len(table))
    ]


def agg_forwarded_value(rows, level, value_bound, key_low, key_high, instance):
    return any(
        r.position == level
        and r.message.instance == instance
        and r.message.value <= value_bound
        and key_low <= r.edge <= key_high
        for r in rows
    )


def agg_received_value(rows, interval, value_bound, in_edge_index, instance):
    return any(
        r.position == interval
        and r.message.instance == instance
        and r.message.value <= value_bound
        and r.edge == in_edge_index
        for r in rows
    )


def sent_exact(rows, digest, position, out_edge_index):
    return any(
        r.position == position
        and r.edge == out_edge_index
        and message_digest(r.message) == digest
        for r in rows
    )


def received_exact(rows, digest, position, key_low, key_high):
    return any(
        r.position == position
        and key_low <= r.edge <= key_high
        and message_digest(r.message) == digest
        for r in rows
    )


NODES = range(1, 9)
READINGS = [reading(v, instance=i, sensor_id=s) for v in (1.0, 2.5, 4.0)
            for i in (0, 1) for s in (3, 6)]
VETOES = [veto(value=v, level=lv, sensor_id=s) for v in (0.5, 2.0)
          for lv in (1, 2) for s in (3, 6)]


def random_log(rng):
    log = AuditLog()
    for table, pool in (
        (log.aggregation_sends, READINGS), (log.aggregation_receipts, READINGS),
        (log.confirmation_sends, VETOES), (log.confirmation_receipts, VETOES),
    ):
        for _ in range(rng.randrange(40)):
            links = [(rng.randrange(9), rng.randrange(12)) for _ in range(rng.randrange(3))]
            messages = rng.sample(pool, rng.randrange(1, 3))
            table.add(rng.choice(NODES), rng.randrange(1, DEPTH + 1), links, messages)
    return log


#: Predicate kind -> the table it reads.
KIND_TABLES = ("aggregation_sends", "aggregation_receipts", "aggregation_sends", "aggregation_receipts",
               "confirmation_sends", "confirmation_receipts")


def random_predicate(rng, rows):
    """A random predicate of a random kind and its reference:
    ``(node, that node's rows per table) -> bool``.  Half the draws
    aim at a row of the table the kind reads, so both answers occur."""
    kind = rng.randrange(6)
    position = rng.randrange(1, DEPTH + 1)
    key_index = rng.randrange(12)
    id_low = rng.randrange(1, 9)
    bound = rng.choice((0.0, 1.0, 2.5, 3.0, 4.0, 9.0))
    instance = rng.randrange(2)
    message = rng.choice(READINGS if kind < 4 else VETOES)
    table_rows = rows[KIND_TABLES[kind]]
    if table_rows and rng.random() < 0.5:
        row = rng.choice(table_rows)
        position, key_index, message = row.position, row.edge, row.message
        id_low = row.node - rng.randrange(2)
        bound = message.value + rng.choice((-0.5, 0.0, 0.5))
        instance = message.instance
    key_low = key_index - rng.randrange(3)
    key_high = key_index + rng.randrange(-1, 3)
    id_high = id_low + rng.randrange(-1, 6)
    digest = message_digest(message)

    def in_range(node):
        return id_low <= node <= id_high

    if kind == 0:
        return kind, (AggForwarded(position, bound, key_low, key_high, instance),
                      lambda n, t: agg_forwarded_value(
                          t["aggregation_sends"], position, bound, key_low, key_high, instance))
    if kind == 1:
        child_level = DEPTH - position + 1
        return kind, (AggReceived(id_low, id_high, bound, child_level, key_index, instance),
                      lambda n, t: in_range(n) and agg_received_value(
                          t["aggregation_receipts"], position, bound, key_index, instance))
    if kind == 2:
        return kind, (AggSentExact(id_low, id_high, digest, position, key_index),
                      lambda n, t: in_range(n) and sent_exact(
                          t["aggregation_sends"], digest, position, key_index))
    if kind == 3:
        return kind, (AggReceivedExact(digest, position, key_low, key_high),
                      lambda n, t: received_exact(
                          t["aggregation_receipts"], digest, position, key_low, key_high))
    if kind == 4:
        return kind, (ConfSentExact(id_low, id_high, digest, position, key_index),
                      lambda n, t: in_range(n) and sent_exact(
                          t["confirmation_sends"], digest, position, key_index))
    return kind, (ConfReceivedExact(digest, position, key_low, key_high),
                  lambda n, t: received_exact(
                      t["confirmation_receipts"], digest, position, key_low, key_high))


TABLES = ("aggregation_sends", "aggregation_receipts", "confirmation_sends", "confirmation_receipts")


def test_queries_match_brute_force_scans():
    answers = set()
    for seed in range(40):
        rng = random.Random(f"audit-oracle:{seed}")
        log = random_log(rng)
        rows = {name: _rows(getattr(log, name)) for name in TABLES}
        by_node = {
            node: {name: [r for r in rows[name] if r.node == node] for name in TABLES}
            for node in NODES
        }
        for _ in range(60):
            kind, (predicate, reference) = random_predicate(rng, rows)
            candidates = set(rng.sample(list(NODES), rng.randrange(len(NODES) + 1)))
            expected = {n for n in candidates if reference(n, by_node[n])}
            assert predicate.satisfied_by(log, candidates, DEPTH) == expected, predicate
            answers.add((kind, bool(expected)))
    # Every kind was answered both ways.
    assert answers == {(kind, answer) for kind in range(6) for answer in (True, False)}


@pytest.mark.parametrize("seed", range(20))
def test_sender_lookups_match_sorted_scans(seed):
    rng = random.Random(f"audit-senders:{seed}")
    log = random_log(rng)
    for name, pool in (("aggregation_sends", READINGS), ("confirmation_sends", VETOES)):
        table = getattr(log, name)
        rows = _rows(table)
        for _ in range(40):
            keepers = set(rng.sample(list(NODES), rng.randrange(1, len(NODES) + 1)))
            if rows and rng.random() < 0.5:
                row = rng.choice(rows)
                digest, position, key = message_digest(row.message), row.position, row.edge
            else:
                digest = message_digest(rng.choice(pool))
                position, key = rng.randrange(1, DEPTH + 1), rng.randrange(12)
            expected = next(
                (
                    node for node in sorted(keepers)
                    if sent_exact([r for r in rows if r.node == node], digest, position, key)
                ),
                None,
            )
            assert _lowest_sender(table, keepers, digest, position, key) == expected


# ----------------------------------------------------------------------
# Node state
# ----------------------------------------------------------------------
class TestLifecycle:
    def test_clear_empties_everything(self, audit):
        audit.clear()
        tables = [getattr(audit, name) for name in AuditLog.__slots__]
        assert all(len(table) == 0 and len(table.node) == 0 for table in tables)
        audit.aggregation_sends.add(1, 4, [(2, 17)], [reading(5.0)])
        assert holds(AggForwarded(4, 5.0, 0, 99), audit)

    def test_nodes_keep_no_audit_state(self, deployment):
        assert not hasattr(deployment.network.node_columns, "audit")
        assert "audit" not in NodeColumns.__slots__
        assert not hasattr(MaliciousNodeState(4), "audit")

    def test_each_execution_starts_a_fresh_log(self, deployment):
        from repro import MinQuery, VMATProtocol

        network = deployment.network
        stale = reading(1.0)
        network.audit.aggregation_sends.add(1, 3, [(0, 1)], [stale])
        readings = {i: 10.0 + i for i in deployment.topology.sensor_ids}
        VMATProtocol(network).execute(MinQuery(), readings)
        assert len(network.audit.aggregation_sends)
        assert all(message is not stale for message in network.audit.aggregation_sends.message)

    def test_begin_execution_resets_node_state(self, deployment):
        from repro import MinQuery
        from repro.core.protocol import install_execution

        network = deployment.network
        columns = network.node_columns
        assert columns.query_values is None
        columns.level[1] = 3
        columns.parents_arena = array("i", [0])
        columns.parents_len[1] = 1
        assert columns.parents(1) == [0]
        columns.forwarded_veto[1] = True
        columns.forwarded_beacon[1] = True
        own = install_execution(network, {1: 7.5}, MinQuery(), b"nonce")
        assert columns.reading[1] == 7.5
        assert columns.level[1] == NO_LEVEL and columns.parents(1) == []
        assert not columns.forwarded_veto[1] and not columns.forwarded_beacon[1]
        assert columns.query_values.shape == (network.topology.num_nodes, 1)
        assert columns.query_values[1].tolist() == [7.5]
        assert [m.value for m in own[1]] == [7.5]
        assert list(own) == list(network.honest_ids)

    def test_level_column_validity(self, deployment):
        level = deployment.network.node_columns.level

        def valid(node_id, depth_bound):
            return bool(1 <= level[node_id] <= depth_bound)

        level[1] = NO_LEVEL
        assert not valid(1, 10)
        level[1] = 5
        assert valid(1, 10)
        level[1] = 11
        assert not valid(1, 10)
