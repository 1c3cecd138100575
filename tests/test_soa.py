"""The struct-of-arrays simulation kernel and the caches around it.

Covers the three SoA layers (keys table, column transport, phase column
state) plus the sharding and cache-sizing machinery around them:

* cache transparency — full executions, warm vs cache-disabled, over
  line / grid / flood-heavy multipath topologies (both legs run the one
  column kernel; only the caches differ);
* arrival-order preservation — ``inbox`` on every frame store (column,
  coordinator mirror, node-host replica) must replay the deposit order
  the plain list store recorded, exactly;
* region sharding edge cases (empty, singleton, more shards than items);
* ring-table rows / intersections / bulk edge keys vs per-object rings;
* whole-table hashes of the large-build ring path, and the batched ring
  sampler vs the per-seed reference;
* revocation parity — the array-backed state's event log vs the one
  the dict backend recorded, entry for entry;
* cache autosizing (grow-only) and the large-build ring-cache bypass.
"""

import hashlib
import os
import random
import signal

import numpy as np
import pytest

from repro import MinQuery, VMATProtocol, build_deployment, small_test_config
from repro.config import KeyConfig
from repro.crypto import prf
from repro.errors import ConfigError, CryptoError
from repro.faults import Duplicate, FaultInjector, FaultPlan
from repro.keys.ring import ring_indices_from_seed, ring_seed
from repro.keys.revocation import RevocationState
from repro.keys.soa import RingTable
from repro.net.node import HonestNode
from repro.net.soa import SoATransport
from repro.perf.cache import (
    LRUCache,
    autosize_caches,
    cache_stats,
    caching_enabled,
    clear_caches,
    disabled,
)
from repro.perf.scale import reference_equality
from repro.perf.shard import fork_map, regions, shard_count
from repro.topology.generators import grid_topology, line_topology


# ----------------------------------------------------------------------
# End-to-end cache transparency: warm caches vs every cache disabled
# ----------------------------------------------------------------------
class TestBitIdentityMatrix:
    @pytest.mark.parametrize(
        "kind,nodes",
        [("grid", 100), ("line", 100), ("grid", 400)],
        ids=["grid-100", "line-100", "grid-400"],
    )
    def test_scale_cells_bit_identical(self, kind, nodes):
        # Flood-heavy multipath cells (the scale bench's configuration):
        # metrics and frame counts must not depend on the caches.
        clear_caches()
        out = reference_equality(kind, nodes, executions=2)
        assert out["metrics_equal"] == 1.0
        assert out["frames"] > 0

    def test_single_path_line_bit_identical(self):
        # Non-multipath, default key config — exercises the column tree
        # with single-parent acceptance, caches warm vs disabled.
        def run():
            deployment = build_deployment(
                config=small_test_config(depth_bound=40),
                topology=line_topology(30),
                seed=9,
            )
            net = deployment.network
            readings = {i: 5.0 + i for i in deployment.topology.sensor_ids}
            result = VMATProtocol(net).execute(MinQuery(), readings)
            assert result.produced_result
            return net.metrics.to_dict()

        with disabled():
            reference = run()
        clear_caches()
        assert run() == reference


# ----------------------------------------------------------------------
# Arrival-order preservation under the column frame store
# ----------------------------------------------------------------------
class TestTransportOrder:
    #: Per-receiver inbox order of ``_send_pattern``, as the plain
    #: per-receiver list store delivered it (recorded before the column
    #: store became the only store).
    REFERENCE_ORDERS = {
        1: [(2, 1), (2, 2), (0, 1)],
        3: [(2, 1), (4, 1), (2, 2)],
        5: [(4, 1)],
    }

    #: Every inbox of ``_duplicate_inboxes`` as (sender, hop, key,
    #: verdict), duplicates included, plus the run's metrics, as the
    #: list store produced them.
    DUPLICATE_FRAMES = {
        0: [],
        1: [(2, 1, 11, True), (2, 2, 11, True), (2, 3, 11, True), (2, 3, 11, True),
            (0, 1, 6, True)],
        2: [],
        3: [(2, 1, 26, True), (2, 1, 26, True), (4, 1, 5, True), (4, 1, 5, True),
            (2, 2, 26, True), (2, 2, 26, True), (4, 2, 5, True), (2, 3, 26, True),
            (4, 3, 5, True)],
        4: [],
        5: [(4, 1, 1, True), (4, 1, 1, True), (6, 1, 37, True), (6, 1, 37, True),
            (4, 2, 1, True), (6, 2, 37, True), (6, 2, 37, True), (4, 3, 1, True),
            (4, 3, 1, True), (6, 3, 37, True), (6, 3, 37, True)],
        6: [],
        7: [(6, 1, 37, True), (6, 1, 37, True), (6, 2, 37, True), (6, 2, 37, True),
            (6, 3, 37, True)],
    }
    DUPLICATE_METRICS = {
        "authenticated_broadcasts": 0,
        "bytes_received": {"1": 65, "3": 117, "5": 143, "7": 65},
        "bytes_sent": {"0": 13, "2": 78, "4": 78, "6": 78},
        "crash_intervals": 0,
        "faults_injected": {"duplicate": 12},
        "flooding_rounds": 0.0,
        "intervals_elapsed": 1,
        "messages_lost": 0,
        "messages_received": {"1": 5, "3": 9, "5": 11, "7": 5},
        "messages_sent": {"0": 1, "2": 6, "4": 6, "6": 6},
        "partition_intervals": 0,
        "predicate_tests": 0,
        "round_log": [],
    }

    #: The three frame stores behind ``PhaseContext``.
    STORES = ("soa", "coordinator", "replica")

    def _phase(self, store="soa"):
        """The 8-node line and a 3-interval phase over one frame store."""
        from types import SimpleNamespace

        from repro.service.node import ReplicaTransport
        from repro.service.runtime import CoordinatorTransport

        deployment = build_deployment(
            config=small_test_config(depth_bound=10), topology=line_topology(8), seed=3
        )
        net = deployment.network
        if store == "coordinator":
            runtime = SimpleNamespace(host_of={}, tick_done=False, order_counter=0, pending_ship={})
            net.transport_factory = lambda phase: CoordinatorTransport(runtime, phase)
        elif store == "replica":
            host = SimpleNamespace(
                up_outbox=[], hosted_set=frozenset(range(8)), host_of={}, host_index=0,
                peer_outbox={},
            )
            net.transport_factory = lambda phase: ReplicaTransport(host, phase)
        phase = net.new_phase("t", 3)
        expected = {
            "soa": SoATransport, "coordinator": CoordinatorTransport, "replica": ReplicaTransport,
        }[store]
        assert type(phase.transport) is expected
        return net, phase

    def _send_pattern(self, net, phase):
        from repro.net.message import TreeBeacon

        phase.begin_interval(1)
        # Interleaved senders targeting overlapping receivers: per
        # receiver, frames must come back in send order.
        phase.send(2, [1, 3], TreeBeacon(origin=2, hop_count=1), interval=1)
        phase.send(4, [3, 5], TreeBeacon(origin=4, hop_count=1), interval=1)
        phase.send(2, [1, 3], TreeBeacon(origin=2, hop_count=2), interval=1)
        phase.send(0, [1], TreeBeacon(origin=0, hop_count=1), interval=1)

    @staticmethod
    def _in_store_order(store, inboxes):
        """``inboxes`` (deposit order) as ``store`` orders them.  A node
        host sorts its own frames on the envelope key ``(1, sender,
        sequence)``, so per receiver they come sender by sender, each
        sender's in deposit order.  That is deposit order for every
        host-side send: an honest step sends one block per interval, in
        ascending sender order."""
        if store != "replica":
            return inboxes
        return {r: sorted(frames, key=lambda frame: frame[0]) for r, frames in inboxes.items()}

    def _orders(self, phase, receivers):
        return {
            r: [(d.sender, d.payload.hop_count) for d in phase.inbox(r, 1)]
            for r in receivers
        }

    def test_soa_store_replays_reference_deposit_order(self):
        net, phase = self._phase()
        self._send_pattern(net, phase)
        warm = self._orders(phase, (1, 3, 5))
        assert warm == self.REFERENCE_ORDERS

    @staticmethod
    def _swept(phase, interval):
        """Each receiver's rows of ``rows(interval)`` as (sender,
        payload, key, verdict), in row order."""
        receivers, batch_ids, batches, key_indices, verdicts = phase.rows(interval)
        swept = {}
        for receiver, batch_id, key_index, verdict in zip(
            receivers, batch_ids, key_indices, verdicts
        ):
            batch = batches[batch_id]
            swept.setdefault(receiver, []).append(
                (batch.claimed_sender, batch.payload, key_index, bool(verdict))
            )
        return swept

    def test_rows_cover_every_receiver(self):
        net, phase = self._phase()
        self._send_pattern(net, phase)
        swept = self._swept(phase, 1)
        assert sorted(swept) == [1, 3, 5]
        for receiver, order in self.REFERENCE_ORDERS.items():
            assert [(sender, payload.hop_count) for sender, payload, _, _ in swept[receiver]] == order
        assert all(verdict for rows in swept.values() for *_, verdict in rows)
        assert 7 not in swept

    @pytest.mark.parametrize("store", STORES)
    def test_inbox_replays_reference_order_on_every_store(self, store):
        net, phase = self._phase(store)
        self._send_pattern(net, phase)
        expected = self._in_store_order(store, self.REFERENCE_ORDERS)
        assert self._orders(phase, (1, 3, 5)) == expected

    @pytest.mark.parametrize("store", STORES)
    def test_rows_contract_matches_frames_on_every_store(self, store):
        """Each receiver's rows filtered out of ``rows(k)`` are the
        frames ``inbox(receiver, k)`` returns, in order: sender, payload,
        key index and ``verified``, duplicate and rejected rows included."""
        from repro.net.message import TreeBeacon

        net, phase = self._phase(store)
        plan = FaultPlan("dup-rows", events=(Duplicate(probability=0.5, start=1, end=9),))
        FaultInjector(plan, seed=4).attach(net)
        phase.begin_interval(1)
        for hop in range(1, 4):
            phase.send(2, [1, 3], TreeBeacon(origin=2, hop_count=hop), interval=1)
            phase.broadcast([4, 6], [TreeBeacon(origin=4, hop_count=hop),
                                     TreeBeacon(origin=6, hop_count=hop)], 1)
        # A key of 2's ring that 1 does not hold: a rejected row.
        registry = net.registry
        foreign = next(i for i in registry.ring(2).indices if i not in registry.ring(1))
        phase.send(2, [1], TreeBeacon(origin=2, hop_count=9), interval=1, key_index=foreign)
        phase.send(0, [1], TreeBeacon(origin=0, hop_count=1), interval=1)

        swept = self._swept(phase, 1)
        framed = {
            r: [(d.sender, d.payload, d.key_index, d.verified) for d in phase.inbox(r, 1)]
            for r in range(8)
        }
        assert {r: swept.get(r, []) for r in range(8)} == framed
        rows = [row for frames in framed.values() for row in frames]
        assert (2, TreeBeacon(origin=2, hop_count=9), foreign, False) in rows
        assert net.metrics.faults_injected["duplicate"] > 0
        assert any(a == b for frames in framed.values() for a, b in zip(frames, frames[1:]))

    def _duplicate_inboxes(self, store):
        """A fanout pattern under a Duplicate plan: every inbox,
        duplicates included, as (sender, hop, key, verdict)."""
        from repro.net.message import TreeBeacon

        net, phase = self._phase(store)
        plan = FaultPlan("dup-order", events=(Duplicate(probability=0.5, start=1, end=9),))
        FaultInjector(plan, seed=4).attach(net)
        phase.begin_interval(1)
        for hop in range(1, 4):
            phase.send(2, [1, 3], TreeBeacon(origin=2, hop_count=hop), interval=1)
            phase.send(4, [3, 5], TreeBeacon(origin=4, hop_count=hop), interval=1)
            phase.send(6, [5, 7], TreeBeacon(origin=6, hop_count=hop), interval=1)
        phase.send(0, [1], TreeBeacon(origin=0, hop_count=1), interval=1)
        inboxes = {
            r: [(d.sender, d.payload.hop_count, d.key_index, d.verified)
                for d in phase.inbox(r, 1)]
            for r in range(8)
        }
        return inboxes, net.metrics.to_dict()

    @pytest.mark.parametrize("store", STORES)
    def test_duplicate_plan_replays_on_every_store(self, store):
        # The plan duplicated some frames: the pattern is not vacuous.
        assert self.DUPLICATE_METRICS["faults_injected"]["duplicate"] > 0
        expected = self._in_store_order(store, self.DUPLICATE_FRAMES)
        assert self._duplicate_inboxes(store) == (expected, self.DUPLICATE_METRICS)


def _square(x):
    # Module-level so the fork pool can pickle it.
    return x * x


# ----------------------------------------------------------------------
# Region sharding
# ----------------------------------------------------------------------
class TestSharding:
    def test_regions_cover_contiguously(self):
        parts = regions(10, 3)
        assert parts == [(0, 4), (4, 7), (7, 10)]

    def test_regions_edge_cases(self):
        assert regions(0, 4) == []
        assert regions(1, 4) == [(0, 1)]  # singleton: one region, no empties
        assert regions(3, 8) == [(0, 1), (1, 2), (2, 3)]  # shards > items
        assert regions(5, 0) == []

    def test_shard_count_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_BUILD_SHARDS", "3")
        assert shard_count(1_000_000) == 3
        monkeypatch.setenv("REPRO_BUILD_SHARDS", "1")
        assert shard_count(1_000_000) == 1
        monkeypatch.delenv("REPRO_BUILD_SHARDS")
        assert shard_count(10) == 1  # below the auto-shard minimum

    def test_fork_map_matches_inline(self):
        args = list(range(7))
        assert fork_map(_square, args, shards=1) == [x * x for x in args]
        assert fork_map(_square, args, shards=4) == [x * x for x in args]


# ----------------------------------------------------------------------
# Ring table vs per-object rings
# ----------------------------------------------------------------------
class TestRingTable:
    SECRET = b"soa-parity-secret"

    def _config(self):
        return small_test_config(pool_size=200, ring_size=40).keys

    def test_rows_match_reference_sampler(self):
        config = self._config()
        table = RingTable(self.SECRET, num_nodes=12, config=config)
        for sensor_id in range(1, 12):
            seed = ring_seed(self.SECRET, sensor_id)
            reference = ring_indices_from_seed(seed, config)
            assert table.row_list(sensor_id) == list(reference)
            assert all(isinstance(i, int) for i in table.row_list(sensor_id))

    def test_intersect_and_holds(self):
        config = self._config()
        table = RingTable(self.SECRET, num_nodes=12, config=config)
        a, b = set(table.row_list(3)), set(table.row_list(7))
        assert table.intersect(3, 7) == tuple(sorted(a & b))
        for index in sorted(a)[:5]:
            assert table.holds(3, index)
        assert not table.holds(3, min(set(range(200)) - a))

    def test_bulk_edge_keys_match_per_edge(self):
        config = self._config()
        table = RingTable(self.SECRET, num_nodes=12, config=config)
        heads = [0, 1, 2, 5]
        tails = [3, 2, 9, 11]
        bulk = table.edge_keys(heads, tails).tolist()
        for position, (a, b) in enumerate(zip(heads, tails)):
            if a == 0:
                expected = table.row_list(b)[0]
            elif b == 0:
                expected = table.row_list(a)[0]
            else:
                shared = table.intersect(a, b)
                expected = shared[0] if shared else -1
            assert bulk[position] == expected

    def test_explicit_rows_sorted_and_validated(self):
        from repro.errors import KeyManagementError

        table = RingTable.from_rows([(4, 0, 2), (5, 2, 3)], pool_size=6)
        assert (table.num_nodes, table.ring_size, table.pool_size) == (3, 3, 6)
        assert table.row_list(1) == [0, 2, 4] and table.row_list(2) == [2, 3, 5]
        assert table.intersect(1, 2) == (2,)
        assert table.edge_keys([0, 1], [2, 2]).tolist() == [2, 2]
        for rows, message in (
            ([(0, 1), (2,)], "one length"),
            ([], "list of rows"),
            ([(0, 6)], "outside pool"),
            ([(-1, 2)], "outside pool"),
            ([(1, 1)], "twice"),
        ):
            with pytest.raises(KeyManagementError, match=message):
                RingTable.from_rows(rows, pool_size=6)


# ----------------------------------------------------------------------
# Whole-table oracle: row bytes of the ring-table build
# ----------------------------------------------------------------------
class TestRingTableOracle:
    """SHA-256 of ``RingTable.rows.tobytes()`` for six tables, large and
    small, recorded from the per-seed stdlib sampler.  Every row is
    ``sorted(random.Random(seed).sample(range(u), r))``, which the base
    station re-derives on revocation, so these bytes may never move.
    """

    SECRET = b"ring-table-oracle"
    TABLES = {
        # The shape of the grid10k-min benchmark deployment.
        "9999x16384-250": (
            10_000, 16_384, 250,
            "66d0b4889f2df35b94ff6ec0ce1ffd55c1c5656b5d45e617bf3174cbf8374a0a",
        ),
        # Just above random.sample's set-path limit (1,045 for r=250):
        # acceptance 1100/2048 and ~27 duplicates per ring.
        "5000x1100-250": (
            5_001, 1_100, 250,
            "f7e127da60d7d74e7c2d4963f2efebf0d0a7d958e01cbcfbd355a795041b9891",
        ),
        # random.sample's pool path.
        "5000x200-40": (
            5_001, 200, 40,
            "61c1f9afd6c789a50fb766e78ed8b8279bc3c18b590a7cae06df0b59490462ea",
        ),
        # The two key shapes of the 16x16 grid benchmark deployments.
        "255x16384-250": (
            256, 16_384, 250,
            "4e2c069865adde5818fb1e8f2da1cf48a8c202b800c0b3165c17c854bf59fc91",
        ),
        "255x2000-60": (
            256, 2_000, 60,
            "0d43101f7dda9097c6884adf3d5084cce74670f43a67dfd4cb697667dcfabfa2",
        ),
        # A small pool-path table (the 25-node service deployment's shape).
        "24x200-40": (
            25, 200, 40,
            "edb3c6bfb5280eae1c861a6af733ad0c70e1d3bce959b45502a1962345e6be82",
        ),
    }

    @staticmethod
    def table_hash(num_nodes, pool_size, ring_size):
        config = KeyConfig(pool_size=pool_size, ring_size=ring_size)
        table = RingTable(TestRingTableOracle.SECRET, num_nodes, config)
        return hashlib.sha256(table.rows.tobytes()).hexdigest()

    @pytest.mark.parametrize("shards", ["1", "2"], ids=["inline", "shards-2"])
    @pytest.mark.parametrize("name", sorted(TABLES))
    def test_table_hash(self, name, shards, monkeypatch):
        monkeypatch.setenv("REPRO_BUILD_SHARDS", shards)
        num_nodes, pool_size, ring_size, expected = self.TABLES[name]
        assert self.table_hash(num_nodes, pool_size, ring_size) == expected

    @pytest.mark.parametrize("mutant", ["keep-last-occurrence", "low-bits"])
    def test_planted_mutants_break_the_hash(self, mutant, monkeypatch):
        # The hashes are sharp: each planted sampler mutant, with the
        # first-row guard switched off, moves the whole-table hash; with
        # the guard on, the build refuses instead.
        if mutant == "keep-last-occurrence":

            def last_occurrences(values):
                last = np.ones(values.shape, dtype=bool)
                last[:, :-1] = values[:, :-1] != values[:, 1:]
                return last

            monkeypatch.setattr(prf, "_first_occurrences", last_occurrences)
        else:
            monkeypatch.setattr(
                prf, "_top_bits", lambda words, bits: words & np.uint32((1 << bits) - 1)
            )
        num_nodes, pool_size, ring_size, expected = self.TABLES["5000x1100-250"]
        with pytest.raises(CryptoError):
            self.table_hash(num_nodes, pool_size, ring_size)
        monkeypatch.setattr(prf, "_check_first_row", lambda *args: None)
        assert self.table_hash(num_nodes, pool_size, ring_size) != expected


# ----------------------------------------------------------------------
# Batched ring selection vs the per-seed reference sampler
# ----------------------------------------------------------------------
class TestRingSelectionBatch:
    # Ring seeds are 16 bytes: with their SHA-512, a 20-word
    # init_by_array key.  Leading zero bytes drop whole high words.
    NORMAL = bytes(range(1, 17))
    ZEROS_4 = bytes(4) + bytes(range(1, 13))
    ZEROS_8 = bytes(8) + bytes(range(1, 9))

    @pytest.mark.parametrize(
        "population,count",
        [(16_384, 250), (1_100, 250), (1_046, 250), (2_000, 60), (22, 3), (2**31, 700)],
    )
    def test_mixed_key_lengths_match_reference(self, population, count, monkeypatch):
        monkeypatch.setattr(prf, "_MIN_BATCH_DRAWS", 1)  # batch every set-path shape
        derived = [ring_seed(b"batch-secret", s) for s in range(1, 40)]
        seeds = [self.ZEROS_4, *derived[:13], self.ZEROS_8, *derived[13:], self.NORMAL]
        rows = prf.sample_distinct_rows(seeds, population, count)
        assert rows.dtype == np.int32 and rows.shape == (len(seeds), count)
        for seed, row in zip(seeds, rows):
            assert row.tolist() == prf.sample_distinct_indices(seed, population, count)

    @pytest.mark.parametrize(
        "population,count", [(1_045, 250), (200, 40), (21, 3)], ids=["limit", "pool", "tiny"]
    )
    def test_pool_path_shapes_defer_to_reference(self, population, count, monkeypatch):
        # random.sample's pool path (n <= 21 + 4**ceil(log4(3k))) is not
        # replayed: the batch runs the per-seed reference there.
        monkeypatch.setattr(prf, "_sample_block", None)
        seeds = [self.NORMAL, self.ZEROS_4, self.ZEROS_8]
        rows = prf.sample_distinct_rows(seeds, population, count)
        for seed, row in zip(seeds, rows):
            assert row.tolist() == prf.sample_distinct_indices(seed, population, count)

    def test_calls_with_few_draws_defer_to_reference(self, monkeypatch):
        # 64 rings of 250 are 16,000 draws, under the batching minimum.
        monkeypatch.setattr(prf, "_sample_block", None)
        seeds = [ring_seed(b"few-draws", s) for s in range(1, 65)]
        rows = prf.sample_distinct_rows(seeds, 16_384, 250)
        for seed, row in zip(seeds, rows):
            assert row.tolist() == prf.sample_distinct_indices(seed, 16_384, 250)

    def test_short_rows_continue_their_word_stream(self):
        # At 1,046/250 about one row in a hundred needs more than the
        # first 624 words; those rows must continue their generator's
        # stream, not restart it.
        class Counting(random.Random):
            words = 0

            def getrandbits(self, k):
                self.words += 1
                return super().getrandbits(k)

        seeds = [ring_seed(b"continuation", s) for s in range(1, 512)]
        long_rows = 0
        for seed in seeds:
            rng = Counting(seed)
            rng.sample(range(1_046), 250)
            long_rows += rng.words > prf._MT_N
        assert long_rows >= 2

        # A stream that restarts never completes a short row: bound the
        # call so that failure shows as an error, not a hang.
        def _overrun(signum, frame):
            raise TimeoutError("short rows never completed")

        previous = signal.signal(signal.SIGALRM, _overrun)
        signal.alarm(20)
        try:
            rows = prf.sample_distinct_rows(seeds, 1_046, 250)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        for seed, row in zip(seeds, rows):
            assert row.tolist() == prf.sample_distinct_indices(seed, 1_046, 250)

    def test_first_row_guard_raises_on_divergence(self, monkeypatch):
        # Stands in for an interpreter whose random module no longer
        # matches the replay.
        monkeypatch.setattr(prf, "_MIN_BATCH_DRAWS", 1)
        monkeypatch.setattr(
            prf, "sample_distinct_indices", lambda seed, population, count: list(range(count))
        )
        with pytest.raises(CryptoError, match="diverges"):
            prf.sample_distinct_rows([self.NORMAL, self.ZEROS_4], 16_384, 250)

    def test_shape_edges(self):
        assert prf.sample_distinct_rows([], 16_384, 250).shape == (0, 250)
        assert prf.sample_distinct_rows([self.NORMAL], 16_384, 0).shape == (1, 0)
        with pytest.raises(CryptoError, match="int32"):
            prf.sample_distinct_rows([self.NORMAL], 2**31 + 1, 3)


# ----------------------------------------------------------------------
# Revocation parity: the array-backed state vs the dict backend's record
# ----------------------------------------------------------------------
_THETA3 = "threshold theta=3 reached"


def _ring_dump(sensor, keys):
    return [("key", key, f"ring of sensor {sensor}", None) for key in keys]


class TestRevocationParity:
    """Event logs and ring counts of one scripted revocation run, as the
    per-object dict backend produced them (recorded before the array
    state became the only backend), for both cascade modes."""

    SCRIPT = [4, 8, 14, 18, 4, 10]  # ring 1's first four keys, ring 2's first two

    EXPECTED = {
        False: dict(
            call_events=[1, 1, 20, 0, 0, 1],
            sensor_events=8,
            log=[
                ("key", 4, "pinpointed", None),
                ("key", 8, "pinpointed", None),
                ("key", 14, "pinpointed", None),
                ("sensor", 1, _THETA3, 14),
                *_ring_dump(1, [18, 27, 29, 36, 43, 45, 49, 54, 58]),
                ("sensor", 4, _THETA3, 14),
                *_ring_dump(4, [19, 20, 23, 24, 26, 38, 47, 53]),
                ("key", 10, "pinpointed", None),
                ("sensor", 5, "pinpointed", None),
                *_ring_dump(5, [2, 13, 17, 21, 33, 35, 52]),
            ],
            revoked_sensors={1, 4, 5},
            counts=[(12, 3), (5, 2), (6, 1), (12, 3), (12, 1), (6, 0), (4, 0), (3, 1), (4, 0)],
        ),
        True: dict(
            call_events=[1, 1, 60, 0, 0, 0],
            sensor_events=0,
            log=[
                ("key", 4, "pinpointed", None),
                ("key", 8, "pinpointed", None),
                ("key", 14, "pinpointed", None),
                ("sensor", 1, _THETA3, 14),
                *_ring_dump(1, [18, 27, 29, 36, 43, 45, 49, 54, 58]),
                ("sensor", 4, _THETA3, 14),
                *_ring_dump(4, [19, 20, 23, 24, 26, 38, 47, 53]),
                ("sensor", 3, _THETA3, 14),
                *_ring_dump(3, [1, 6, 10, 13, 30, 50, 51, 57]),
                ("sensor", 5, _THETA3, 14),
                *_ring_dump(5, [2, 17, 21, 33, 35, 52]),
                ("sensor", 6, _THETA3, 14),
                *_ring_dump(6, [0, 9, 15, 42]),
                ("sensor", 9, _THETA3, 14),
                *_ring_dump(9, [34, 37, 48, 55, 56]),
                ("sensor", 2, _THETA3, 14),
                *_ring_dump(2, [11, 12, 16, 22, 32, 44]),
                ("sensor", 7, _THETA3, 14),
                *_ring_dump(7, [7, 28, 40]),
                ("sensor", 8, _THETA3, 14),
                *_ring_dump(8, [41]),
            ],
            revoked_sensors=set(range(1, 10)),
            counts=[(12, 12)] * 9,
        ),
    }

    def _state(self, theta, cascade):
        config = small_test_config(pool_size=60, ring_size=12).keys
        table = RingTable(b"revocation-parity", num_nodes=10, config=config)
        return table, RevocationState(table, theta=theta, cascade=cascade)

    @pytest.mark.parametrize("cascade", [False, True])
    def test_event_logs_identical(self, cascade):
        expected = self.EXPECTED[cascade]
        table, state = self._state(theta=3, cascade=cascade)
        assert self.SCRIPT == table.row_list(1)[:4] + table.row_list(2)[:2]
        returned = [state.revoke_key(index) for index in self.SCRIPT]
        returned.append(state.revoke_sensor(5))
        assert [len(events) for events in returned[:-1]] == expected["call_events"]
        assert len(returned[-1]) == expected["sensor_events"]
        log = [(e.kind, e.target, e.reason, e.triggered_by_key) for e in state.log]
        assert log == expected["log"]
        assert [e for events in returned for e in events] == state.log
        assert state.revoked_keys == {t for kind, t, _, _ in log if kind == "key"}
        assert state.revoked_sensors == expected["revoked_sensors"]
        counts = [
            (state.revoked_ring_count(s), state.exposed_ring_count(s)) for s in range(1, 10)
        ]
        assert counts == expected["counts"]
        assert state.threshold_pending() == set()

    def test_holders_identical(self):
        table, state = self._state(theta=None, cascade=False)
        rows = {s: set(table.row_list(s)) for s in range(1, 10)}
        for index in range(60):
            expected = tuple(s for s in range(1, 10) if index in rows[s])
            assert state.holders_of(index) == expected
            assert all(isinstance(s, int) for s in state.holders_of(index))


# ----------------------------------------------------------------------
# Cache autosizing
# ----------------------------------------------------------------------
class TestCacheSizing:
    def test_autosize_grows_and_never_shrinks(self):
        applied = autosize_caches(5_000, pool_size=16_384)
        assert applied["hmac-keyed-states"] >= 5_000 + 2048
        # Power-of-two rounded.
        assert all(size & (size - 1) == 0 for size in applied.values())
        # Grow-only: a smaller deployment later keeps the larger sizing.
        again = autosize_caches(10, pool_size=10)
        for name, size in applied.items():
            assert again.get(name, size) >= size

    def test_autosized_build_stops_hmac_evictions(self):
        clear_caches()
        deployment = build_deployment(
            config=small_test_config(depth_bound=30, pool_size=2_048, ring_size=60),
            topology=grid_topology(12, 12),
            seed=5,
        )
        readings = {i: 1.0 + i for i in deployment.topology.sensor_ids}
        result = VMATProtocol(deployment.network).execute(MinQuery(), readings)
        assert result.produced_result
        stats = cache_stats()["hmac-keyed-states"]
        assert stats["evictions"] == 0
        assert stats["hits"] > 0

    def test_resize_evicts_down_and_validates(self):
        cache = LRUCache("soa-test-resize", maxsize=8)
        for i in range(8):
            cache.put(i, i)
        cache.resize(2)
        assert len(cache.view()) == 2
        assert cache.evictions == 6
        with pytest.raises(ConfigError):
            cache.resize(0)


# ----------------------------------------------------------------------
# One kernel: every inline run, honest or attacked, caches on or off
# ----------------------------------------------------------------------
def _assert_column_kernel(network):
    """The network runs the column kernel: node views over shared
    columns, the SoA frame store and the ring-table registry."""
    nodes = list(network.nodes.values())
    assert nodes and all(type(node) is HonestNode for node in nodes)
    assert all(node._columns is network.node_columns for node in nodes)
    assert type(network.new_phase("probe", 1).transport) is SoATransport
    assert network.registry.ring_table is not None
    assert isinstance(network.registry.revocation, RevocationState)


class TestColumnGating:
    """Every inline run takes the column kernel.

    Attacked runs stay columnar (adversary hooks mutate only their own
    MaliciousNodeState rows and inject through the shared transport),
    traced runs too (the transmit path emits the trace event from
    scalars), and ``perf.cache.disabled()`` turns off caches and
    nothing else — the kernel is the same.  These tests pin the kernel
    choice plus the cache-transparency consequence: an attacked run
    behaves identically with caches warm or disabled.
    """

    def _deployment(self, malicious=frozenset()):
        return build_deployment(
            config=small_test_config(depth_bound=12),
            topology=line_topology(10),
            malicious_ids=set(malicious),
            seed=13,
        )

    def test_honest_inline_run_engages_columns(self):
        assert caching_enabled()
        _assert_column_kernel(self._deployment().network)

    def test_columns_cover_attacked_runs(self):
        from repro.adversary import Adversary, make_strategy

        network = self._deployment(malicious={4}).network
        Adversary(network, make_strategy("drop-minimum"), seed=13)
        _assert_column_kernel(network)

    def test_columns_cover_traced_runs(self):
        from repro.tracing import Tracer

        network = self._deployment().network
        Tracer.attach(network)
        _assert_column_kernel(network)

    def test_disable_switch_keeps_columns(self):
        with disabled():
            network = self._deployment().network
            _assert_column_kernel(network)
            readings = {i: 5.0 + i for i in network.nodes}
            assert VMATProtocol(network).execute(MinQuery(), readings).produced_result
            _assert_column_kernel(network)

    def _attacked_metrics(self):
        from repro.adversary import Adversary, make_strategy

        deployment = self._deployment(malicious={4})
        network = deployment.network
        adversary = Adversary(network, make_strategy("drop-minimum"), seed=13)
        protocol = VMATProtocol(network, adversary=adversary)
        readings = {i: 100.0 + i for i in deployment.topology.sensor_ids}
        readings[7] = 1.0
        outcomes = [protocol.execute(MinQuery(), readings).outcome.value for _ in range(2)]
        return outcomes, network.metrics.to_dict()

    def test_attacked_run_bit_identical_warm_vs_disabled(self):
        clear_caches()
        warm_outcomes, warm_metrics = self._attacked_metrics()
        with disabled():
            ref_outcomes, ref_metrics = self._attacked_metrics()
        assert warm_outcomes == ref_outcomes
        assert warm_metrics == ref_metrics


# ----------------------------------------------------------------------
# Adversarial bit-identity matrix: zoo x tracer x topology
# ----------------------------------------------------------------------
class TestAdversarialBitIdentityMatrix:
    """Cache transparency under active adversaries.

    Every cell runs the same two-execution campaign twice — caches warm,
    then with every cache disabled — and asserts outcome sequence,
    ``Metrics.to_dict()`` and, when a tracer is attached, the full event
    stream are equal.  The matrix spans a single-node zoo strategy
    (relay-drop) and a colluding one (cover-accomplice), tracer on/off,
    and line/grid topologies; ``tests/test_kernel_digests.py`` freezes
    the same cells' output.
    """

    def _run(self, strategy, topo, traced, seed=17):
        from repro.adversary import Adversary, make_strategy
        from repro.tracing import Tracer

        topology = line_topology(10) if topo == "line" else grid_topology(4, 4)
        deployment = build_deployment(
            config=small_test_config(depth_bound=20),
            topology=topology,
            malicious_ids={3, 5},  # cover-accomplice needs >= 2 colluders
            seed=seed,
        )
        network = deployment.network
        adversary = Adversary(network, make_strategy(strategy), seed=seed)
        tracer = Tracer.attach(network) if traced else None
        protocol = VMATProtocol(network, adversary=adversary)
        readings = {i: 50.0 + i for i in deployment.topology.sensor_ids}
        outcomes = [
            protocol.execute(MinQuery(), readings).outcome.value for _ in range(2)
        ]
        trace = [(e.kind, e.fields) for e in tracer] if tracer is not None else None
        return outcomes, network.metrics.to_dict(), trace

    @pytest.mark.parametrize("topo", ["line", "grid"])
    @pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
    @pytest.mark.parametrize("strategy", ["relay-drop", "cover-accomplice"])
    def test_warm_matches_disabled(self, strategy, traced, topo):
        clear_caches()
        warm = self._run(strategy, topo, traced)
        with disabled():
            reference = self._run(strategy, topo, traced)
        assert warm[0] == reference[0]  # outcome sequence
        assert warm[1] == reference[1]  # metrics, byte for byte
        assert warm[2] == reference[2]  # trace events (None when untraced)


# ----------------------------------------------------------------------
# Registry backend selection
# ----------------------------------------------------------------------
class TestBackendSelection:
    def test_warm_build_uses_table_backend(self):
        assert caching_enabled()
        deployment = build_deployment(
            config=small_test_config(depth_bound=10),
            topology=line_topology(6),
            seed=1,
        )
        assert deployment.registry.ring_table is not None
        assert isinstance(deployment.registry.revocation, RevocationState)

    def test_disabled_build_uses_table_backend(self):
        # The registry backend follows the ring source, not the caches.
        with disabled():
            deployment = build_deployment(
                config=small_test_config(depth_bound=10),
                topology=line_topology(6),
                seed=1,
            )
            _assert_column_kernel(deployment.network)

    def test_backends_agree_on_registry_api(self):
        # Drawn rows vs the same rings supplied explicitly (the path an
        # explicit-ring scheme takes).
        from repro.keys.registry import KeyRegistry

        keys = small_test_config(depth_bound=10).keys
        table = KeyRegistry(b"backend-parity", 6, keys)
        rings = {s: table.ring(s).indices for s in range(1, 6)}
        explicit = KeyRegistry(
            b"backend-parity", 6, keys, ring_indices_factory=rings.__getitem__
        )
        for sensor in range(1, 6):
            assert table.ring(sensor).indices == explicit.ring(sensor).indices
            table_mat = table.sensor_deployment_material(sensor)
            explicit_mat = explicit.sensor_deployment_material(sensor)
            assert table_mat.ring_indices == explicit_mat.ring_indices
            assert table_mat.sensor_key == explicit_mat.sensor_key
            assert table_mat.all_keys == explicit_mat.all_keys
        for a in range(6):
            for b in range(a + 1, 6):
                assert table.shared_key_indices(a, b) == explicit.shared_key_indices(a, b)
                assert table.edge_key_index(a, b) == explicit.edge_key_index(a, b)


# ----------------------------------------------------------------------
# Hop-count levels: forged claims of any size, on the columns
# ----------------------------------------------------------------------
class TestHopCountLevels:
    """The hop-count baseline adopts whatever hop count a beacon claims.

    A wormhole can make that ``-1`` or past ``2**31``; neither may read
    back as "no level" (and so re-accept a later beacon) or overflow an
    ``int32`` cell.  Claims stay in the tree step; a node's level cell
    only ever holds ``None`` or a valid level.
    """

    def _tree(self, inflation):
        from repro.adversary import Adversary, WormholeStrategy
        from repro.core.tree import form_tree

        deployment = build_deployment(
            config=small_test_config(depth_bound=12),
            topology=line_topology(12),
            malicious_ids={2, 8},
            seed=3,
        )
        network = deployment.network
        adversary = Adversary(
            network, WormholeStrategy(entry=2, exit=8, inflation=inflation), seed=3
        )
        return form_tree(network, adversary, 12, variant="hopcount")

    @pytest.mark.parametrize("inflation", [-3, 2**31], ids=["negative", "past-int32"])
    def test_forged_claims_leave_victims_invalid(self, inflation):
        result = self._tree(inflation)
        assert {7, 9} <= result.invalid_level_sensors
        assert not {7, 9} & set(result.levels)
        with disabled():
            reference = self._tree(inflation)
        assert reference.levels == result.levels
        assert reference.invalid_level_sensors == result.invalid_level_sensors

    def test_level_cells_hold_none_or_valid_levels(self):
        network = build_deployment(
            config=small_test_config(depth_bound=6), topology=line_topology(4), seed=1
        ).network
        node = network.nodes[2]
        for value in (None, 1, 5, 6, None):
            node.level = value
            assert node.level == value
            assert node.has_valid_level(6) == (value is not None and 1 <= value <= 6)
        assert network.nodes[1].level is None
