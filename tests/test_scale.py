"""The large-topology scale layer: batched delivery, lazy edge MACs,
interval-edge semantics, cache-stat algebra and the scale bench harness.

These tests pin the contracts the 10k-node path leans on:

* ``IntervalSchedule.interval_of`` is exact at float interval
  boundaries (consistent with ``interval_start``/``interval_end`` even
  when ``start_time`` and the interval length are not float-aligned);
* ``PhaseContext.rows`` reads an interval as ``inbox`` does — same
  readability gate, same membership, same frames per receiver;
* lazy edge-MAC verification is observationally identical to eager
  verification at transmit time, including when revocations land
  between a frame's transmission and its first read;
* the incremental secure-topology view answers exactly like the
  registry's direct link computation across revocation epochs;
* the cache-stat algebra (merge/diff/sum) keeps honest counters across
  clears and worker processes;
* a network's memory grows by a few array cells per sensor, not by a
  per-sensor object;
* the scale bench's cell plan, payload gate and bit-identity check.
"""

from __future__ import annotations

import math

import pytest

from repro import build_deployment, small_test_config
from repro.errors import NetworkError, ReproError
from repro.net.message import TreeBeacon
from repro.perf.cache import (
    clear_caches,
    diff_cache_stats,
    disabled,
    merge_cache_stats,
    sum_cache_stats,
)
from repro.perf.scale import (
    LINE_MAX_NODES,
    REFERENCE_MAX_NODES,
    SCALE_SIZES,
    attacked_reference_equality,
    compare_scale_payloads,
    grid_dims,
    reference_equality,
    scale_cells,
)
from repro.sim import IntervalSchedule
from repro.topology import line_topology


def beacon(origin=0, hop=1):
    return TreeBeacon(origin=origin, hop_count=hop)


# ----------------------------------------------------------------------
# IntervalSchedule float boundaries
# ----------------------------------------------------------------------
class TestIntervalBoundaries:
    @pytest.mark.parametrize(
        "start,length,num",
        [
            (0.0, 1.0, 10),
            (0.0, 0.1, 37),  # 0.1 is not representable
            (5.0, 0.1, 50),  # 5.1 - 5.0 loses a ulp in subtraction
            (3.7, 0.3, 29),
            (1e6, 0.1, 20),  # large offset, tiny interval
        ],
    )
    def test_boundaries_consistent_with_interval_start(self, start, length, num):
        s = IntervalSchedule(start, length, num)
        for k in range(1, num + 1):
            boundary = s.interval_start(k)
            assert s.interval_of(boundary) == k
            assert s.interval_of(math.nextafter(boundary, -math.inf)) == k - 1
            assert s.interval_of(s.midpoint(k)) == k
            # interval_end(k) == interval_start(k+1) bit-for-bit, so the
            # end boundary belongs to the next interval (k+1; the
            # "ignored" sentinel num+1 past the phase).
            assert s.interval_of(s.interval_end(k)) == k + 1

    def test_before_and_after_phase(self):
        s = IntervalSchedule(5.0, 0.1, 50)
        assert s.interval_of(math.nextafter(5.0, -math.inf)) == 0
        assert s.interval_of(-100.0) == 0
        assert s.interval_of(s.end_time) == s.num_intervals + 1
        assert s.interval_of(s.end_time + 1e9) == s.num_intervals + 1

    def test_monotone_over_dense_samples(self):
        s = IntervalSchedule(5.0, 0.1, 20)
        previous = 0
        time = math.nextafter(5.0, -math.inf)
        while time < s.end_time + 0.05:
            k = s.interval_of(time)
            assert k >= previous
            previous = k
            time += 0.003

    def test_unchanged_documented_semantics(self):
        # The pre-fix doctest behaviour (aligned schedules) must hold.
        s = IntervalSchedule(0.0, 1.0, 5)
        assert s.interval_of(-0.5) == 0
        assert s.interval_of(0.0) == 1
        assert s.interval_of(0.999) == 1
        assert s.interval_of(4.5) == 5
        assert s.interval_of(5.0) == 6


# ----------------------------------------------------------------------
# an interval's arrivals through rows(), and interval-edge inbox
# visibility (batched path)
# ----------------------------------------------------------------------
def arrived(phase, interval):
    """The receivers with at least one row in ``interval``."""
    return set(phase.rows(interval)[0])


class TestArrivalMap:
    """Who received what in an interval, read as ``PhaseContext.rows``."""

    def test_future_interval_unreadable(self, line_deployment):
        phase = line_deployment.network.new_phase("t", 3)
        phase.begin_interval(1)
        with pytest.raises(NetworkError):
            phase.rows(2)

    def test_empty_interval_yields_no_rows(self, line_deployment):
        phase = line_deployment.network.new_phase("t", 3)
        phase.begin_interval(1)
        phase.begin_interval(2)
        for interval in (1, 2):
            receivers, batch_ids, _, key_indices, verdicts = phase.rows(interval)
            assert not receivers and not batch_ids and not key_indices and not verdicts

    def test_membership_matches_inbox(self, line_deployment):
        net = line_deployment.network
        phase = net.new_phase("t", 2)
        phase.begin_interval(1)
        phase.send(0, net.secure_neighbors(0), beacon(), interval=1)
        phase.send(5, net.secure_neighbors(5), beacon(origin=5), interval=1)
        with_frames = {
            node for node in net.topology.node_ids if phase.inbox(node, 1)
        }
        assert arrived(phase, 1) == with_frames
        # Compare frame *values*: the column store materializes fresh
        # Delivery objects per read, so identity across two reads is not
        # part of the transport contract (and nothing consumes it).
        frame_key = lambda d: (d.sender, d.receiver, d.payload, d.key_index, d.verified)
        receivers, batch_ids, batches, key_indices, verdicts = phase.rows(1)
        for node in with_frames:
            assert [
                (batches[b].claimed_sender, r, batches[b].payload, key, bool(verdict))
                for r, b, key, verdict in zip(receivers, batch_ids, key_indices, verdicts)
                if r == node
            ] == [frame_key(d) for d in phase.inbox(node, 1)]

    def test_future_send_invisible_until_interval_begins(self, line_deployment):
        net = line_deployment.network
        phase = net.new_phase("t", 3)
        phase.begin_interval(1)
        assert phase.send(0, [1], beacon(), interval=2)
        with pytest.raises(NetworkError):
            phase.inbox(1, 2)
        with pytest.raises(NetworkError):
            phase.rows(2)
        phase.begin_interval(2)
        assert len(phase.verified_inbox(1, 2)) == 1
        assert 1 in arrived(phase, 2)

    def test_current_interval_send_visible_immediately(self, line_deployment):
        net = line_deployment.network
        phase = net.new_phase("t", 2)
        phase.begin_interval(1)
        assert phase.send(0, [1], beacon(), interval=1)
        assert 1 in arrived(phase, 1)
        assert len(phase.verified_inbox(1, 1)) == 1


# ----------------------------------------------------------------------
# Lazy edge-MAC verification == eager verification at transmit time
# ----------------------------------------------------------------------
class TestLazyVerification:
    def _one_frame(self, seed=7):
        deployment = build_deployment(
            config=small_test_config(depth_bound=12),
            topology=line_topology(10),
            seed=seed,
        )
        net = deployment.network
        phase = net.new_phase("t", 2)
        phase.begin_interval(1)
        assert phase.send(0, [1], beacon(), interval=1)
        (delivery,) = phase.inbox(1, 1)
        return net, phase, delivery

    @staticmethod
    def _eager(net, phase, delivery):
        """The frame's MAC and verdict computed eagerly, from scratch:
        HMAC over the canonical edge message, then the receiver's full
        acceptance check (prechecks plus MAC verification)."""
        from repro.crypto.encoding import encode_parts
        from repro.crypto.mac import compute_mac_message
        from repro.net.network import _edge_mac_message

        message = _edge_mac_message(
            delivery.sender,
            delivery.receiver,
            encode_parts(phase.name),
            delivery.interval,
            delivery.payload.canonical_bytes(),
        )
        mac = compute_mac_message(net.registry.pool_key(delivery.key_index), message)
        verdict = net.receiver_accepts(
            delivery.receiver, delivery.key_index, mac, delivery.sender,
            phase.name, delivery.interval, delivery.payload,
        )
        return mac, verdict

    def test_lazy_matches_eager_verdict(self):
        net, phase, lazy = self._one_frame()
        assert lazy._verified is None  # genuinely deferred
        _, eager_verdict = self._eager(net, phase, lazy)
        assert lazy.verified == eager_verdict is True

    def test_revocation_between_send_and_read_does_not_flip_verdict(self):
        # Eager verification happens at transmit, so a key revoked
        # *after* the frame is on the air cannot unverify it.
        net, phase, lazy = self._one_frame()
        assert lazy._verified is None
        _, transmit_verdict = self._eager(net, phase, lazy)
        assert transmit_verdict is True
        # The lazy read must agree even though it comes after the revocation.
        net.registry.revoke_key(lazy.key_index)
        assert lazy.verified is transmit_verdict

    def test_key_revoked_before_send_sealed_unverified_both_paths(self):
        def run():
            deployment = build_deployment(
                config=small_test_config(depth_bound=12),
                topology=line_topology(10),
                seed=7,
            )
            net = deployment.network
            key_index = net.edge_key_index(0, 1)
            net.registry.revoke_key(key_index)
            phase = net.new_phase("t", 2)
            phase.begin_interval(1)
            # Base station pins the now-revoked key explicitly (it holds
            # every pool key, so possession passes; acceptance must not).
            assert phase.send(0, [1], beacon(), interval=1, key_index=key_index)
            (delivery,) = phase.inbox(1, 1)
            return delivery.verified

        assert run() is False
        with disabled():
            assert run() is False

    def test_materialized_mac_still_verifies(self):
        # Reading edge_mac first forces the HMAC to exist.  The simulator
        # computed it over the frame's own bytes, so the verdict stays
        # the transmit-time one and agrees with eager verification; a
        # MAC received off the wire is checked by ingest_envelope.
        net, phase, delivery = self._one_frame()
        assert delivery._verified is None
        mac = delivery.edge_mac
        assert isinstance(mac, bytes) and len(mac) > 0
        assert delivery._verified is None  # materializing did not decide
        assert delivery.verified is True

    def test_lazy_mac_equals_eager_mac_bytes(self):
        net, phase, lazy = self._one_frame()
        eager_mac, _ = self._eager(net, phase, lazy)
        assert lazy.edge_mac == eager_mac  # same bytes either way


# ----------------------------------------------------------------------
# Incremental secure-topology view vs the registry's direct computation
# ----------------------------------------------------------------------
class TestSecureViewEquivalence:
    def _assert_views_agree(self, net):
        registry, topology = net.registry, net.topology
        for a in topology.node_ids:
            reference = [o for o in topology.neighbors(a) if registry.link_usable(a, o)]
            assert net.secure_neighbors(a) == reference
            assert net.secure_links(a) == [
                (o, registry.edge_key_index(a, o)) for o in reference
            ]
            assert net.usable_links(a, topology.neighbors(a)) == [
                (b, registry.edge_key_index(a, b))
                for b in topology.neighbors(a)
                if registry.link_usable(a, b)
            ]
            for b in topology.neighbors(a):
                assert net.edge_key_index(a, b) == registry.edge_key_index(a, b)

    def test_agreement_across_revocation_epochs(self, line_deployment):
        net = line_deployment.network
        self._assert_views_agree(net)
        # Key revocation bumps the epoch; the view must resync.
        key_index = net.edge_key_index(3, 4)
        net.registry.revoke_key(key_index)
        self._assert_views_agree(net)
        # Sensor revocation dumps a whole ring.
        net.registry.revoke_sensor(7)
        self._assert_views_agree(net)

    def test_component_agreement_after_sensor_revocation(self, line_deployment):
        net = line_deployment.network
        net.registry.revoke_sensor(5)
        revoked = net.registry.revoked_sensors
        secure = net.topology.subgraph(net.registry.link_usable)
        reference = secure.connected_component(
            exclude={
                i
                for i in net.topology.node_ids
                if i != 0 and (not net.is_honest_sensor(i) or i in revoked)
            }
        )
        assert net.honest_secure_component() == reference
        # A revoked mid-line sensor cuts everything behind it off.
        assert all(node <= 4 for node in reference)


class TestEdgeKeyColumn:
    """The view's key column is computed once per undirected edge and
    mirrored into both directed entries; every entry must equal the
    registry's own computation for that ordered pair."""

    @staticmethod
    def _assert_column(network):
        topology, registry = network.topology, network.registry
        keys = network._secure_view().keys
        assert len(keys) == len(topology.cols)
        for a in topology.node_ids:
            for pos in range(topology.indptr[a], topology.indptr[a + 1]):
                expected = registry.edge_key_index(a, topology.cols[pos])
                assert keys[pos] == (-1 if expected is None else expected)

    def test_epoch_zero_fill_on_a_geometric_graph(self):
        # Rows of degree up to ~20, neither sorted nor in set order.
        self._assert_column(build_deployment(num_nodes=300, seed=3).network)

    def test_fill_after_revocations(self):
        net = build_deployment(num_nodes=300, seed=3).network
        a, b = next(iter(net.topology.edges()))
        net.registry.revoke_key(net.registry.edge_key_index(a, b))
        net.registry.revoke_sensor(7)
        # The view is first built here, at a nonzero revocation epoch.
        self._assert_column(net)


# ----------------------------------------------------------------------
# Network memory per sensor
# ----------------------------------------------------------------------
class TestNetworkMemory:
    """A sensor is an id into the network's columns: building a
    :class:`~repro.net.network.Network` costs a few array cells per
    sensor (state columns, clock offsets, the honest-id tuple), not a
    per-sensor object."""

    @staticmethod
    def _network_bytes(side):
        import tracemalloc

        from repro.keys.registry import KeyRegistry
        from repro.net.network import Network
        from repro.topology import grid_topology

        config = small_test_config()
        topology = grid_topology(side, side)
        registry = KeyRegistry(b"network-memory", topology.num_nodes, config.keys)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            network = Network(topology, registry, config, seed=1)
            used = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert network.topology is topology
        return used

    def test_bytes_per_added_sensor(self):
        small, large = self._network_bytes(40), self._network_bytes(80)
        per_sensor = (large - small) / (80 * 80 - 40 * 40)
        assert per_sensor < 128, f"{per_sensor:.1f} B per added sensor"


def _grid10k_deployment():
    """The 100x100 grid at paper-scale rings (pool 16,384, ring 250),
    multipath: the grid10k-min shape."""
    from dataclasses import replace

    from repro.topology import grid_topology

    config = small_test_config(depth_bound=198, pool_size=16_384, ring_size=250)
    config = replace(config, network=replace(config.network, multipath=True))
    return build_deployment(config=config, topology=grid_topology(100, 100), seed=1)


class TestRadioGraphMemory:
    """The radio graph is held once, as the topology's CSR arrays; the
    secure view adds a key column beside it instead of a second copy."""

    def test_topology_bytes_per_sensor(self):
        import gc
        import tracemalloc

        from repro.topology import Topology, grid_topology

        edges = list(grid_topology(100, 100).edges())
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            topology = Topology(10_000, edges)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert topology.num_edges() == len(edges)
        assert kept / 10_000 < 64, f"{kept / 10_000:.1f} B per sensor"

    def test_first_secure_view_build_peak(self):
        import gc
        import tracemalloc

        network = _grid10k_deployment().network
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            network._secure_view()
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak / 10_000 <= 165, f"{peak / 10_000:.1f} B per sensor"

    def test_reply_relay_build_is_independent_of_population(self):
        # A keyed predicate test's honest step costs its key's holders
        # (176 here), not a set over all 10k sensors.
        peak = _reply_relay_build_peak(_grid10k_deployment().network)
        assert peak < 64 * 1024, f"{peak / 1024:.1f} KiB"

    def test_reply_relay_build_is_independent_of_audit_trail(self):
        # After one honest MIN execution the audit tables hold ~19k send
        # and ~19k receipt rows; the predicate query reads them in place
        # instead of copying whole columns.
        from repro import MinQuery, VMATProtocol

        network = _grid10k_deployment().network
        readings = {i: float(i) for i in network.topology.sensor_ids}
        VMATProtocol(network).execute(MinQuery(), readings)
        assert len(network.audit.aggregation_sends) > 15_000
        peak = _reply_relay_build_peak(network)
        assert peak < 64 * 1024, f"{peak / 1024:.1f} KiB"


def _reply_relay_build_peak(network) -> int:
    """tracemalloc peak of building a warm ``ReplyRelay`` for pool key 7
    (an ``AggForwarded`` predicate over the whole key range)."""
    import gc
    import tracemalloc

    from repro.core.phase_state import honest_step
    from repro.core.predicate_test import AggForwarded, ReplyRelay, reply_mac_for
    from repro.crypto.hash import oneway_hash

    index, nonce = 7, b"relaynon"
    assert len(network.registry.holders(index)) > 150
    reply_hash = oneway_hash(reply_mac_for(network.registry.pool_key(index), nonce))
    predicate = AggForwarded(level=1, value_bound=1.0, key_low=0, key_high=16_383)
    phase = network.new_phase("predicate-reply", 198)

    def build():
        return honest_step(
            network, phase, ReplyRelay, network.honest_id_set(),
            ("pool", index), predicate.encode(), nonce, reply_hash,
        )

    build()  # warm: the per-epoch id set, holder list and key caches
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        build()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


# ----------------------------------------------------------------------
# Cache-stat algebra (satellite: read-after-clear high-water regression)
# ----------------------------------------------------------------------
def _snap(size=0, maxsize=100, hits=0, misses=0, evictions=0):
    return {
        "size": size,
        "maxsize": maxsize,
        "hits": hits,
        "misses": misses,
        "evictions": evictions,
    }


class TestCacheStatAlgebra:
    def test_merge_keeps_high_water_size_across_clear(self):
        # The "960 hits, size 0" bug: a snapshot taken after
        # clear_caches() must not erase the size the cache reached.
        warm = {"c": _snap(size=5, hits=960, misses=40)}
        post_clear = {"c": _snap(size=0, hits=960, misses=40)}
        merged = merge_cache_stats(warm, post_clear)
        assert merged["c"]["size"] == 5
        assert merged["c"]["hits"] == 960

    def test_merge_takes_latest_cumulative_counters(self):
        early = {"c": _snap(size=2, hits=10, misses=5)}
        late = {"c": _snap(size=1, hits=25, misses=9)}
        merged = merge_cache_stats(early, late)
        assert merged["c"]["hits"] == 25
        assert merged["c"]["misses"] == 9
        assert merged["c"]["size"] == 2  # high-water, not latest

    def test_merge_adds_new_caches(self):
        merged = merge_cache_stats({"a": _snap(hits=1)}, {"b": _snap(hits=2)})
        assert set(merged) == {"a", "b"}

    def test_diff_isolates_one_cell_on_a_warm_worker(self):
        before = {"c": _snap(size=3, hits=100, misses=20)}
        after = {"c": _snap(size=4, hits=130, misses=21)}
        delta = diff_cache_stats(before, after)
        assert delta["c"]["hits"] == 30
        assert delta["c"]["misses"] == 1
        assert delta["c"]["size"] == 4  # state, carried from `after`

    def test_diff_clamps_counter_resets_to_zero(self):
        before = {"c": _snap(hits=50)}
        after = {"c": _snap(hits=10)}  # process restarted in between
        assert diff_cache_stats(before, after)["c"]["hits"] == 0

    def test_sum_accumulates_worker_deltas(self):
        total = {}
        for delta in (
            {"c": _snap(size=2, hits=30, misses=3)},
            {"c": _snap(size=5, hits=10, misses=1)},
            {"c": _snap(size=1, hits=5, misses=0)},
        ):
            total = sum_cache_stats(total, delta)
        assert total["c"]["hits"] == 45
        assert total["c"]["misses"] == 4
        assert total["c"]["size"] == 5  # high-water across cells
        assert total["c"]["maxsize"] == 100


# ----------------------------------------------------------------------
# The scale bench harness
# ----------------------------------------------------------------------
class TestScaleHarness:
    def test_grid_dims_for_sweep_sizes(self):
        assert grid_dims(100) == (10, 10)
        assert grid_dims(1_000) == (25, 40)
        assert grid_dims(10_000) == (100, 100)
        assert grid_dims(12) == (3, 4)

    def test_grid_dims_rejects_degenerate_primes(self):
        with pytest.raises(ReproError):
            grid_dims(101)

    def test_scale_cells_plan(self):
        cells = scale_cells(SCALE_SIZES)
        assert cells[0] == ("grid", 100)  # smallest-first for RSS honesty
        assert [n for _, n in cells] == sorted(n for _, n in cells)
        assert ("line", 10_000) not in cells  # capped at LINE_MAX_NODES
        assert ("grid", 10_000) in cells
        assert all(n <= LINE_MAX_NODES for kind, n in cells if kind == "line")

    def test_compare_passes_within_threshold(self):
        base = {"cells": {"grid-100": {"speedup": 6.0, "metrics_equal": True}}}
        new = {"cells": {"grid-100": {"speedup": 4.0, "metrics_equal": True}}}
        assert compare_scale_payloads(base, new, threshold=0.5).passed

    def test_compare_flags_speedup_collapse(self):
        base = {"cells": {"grid-100": {"speedup": 6.0, "metrics_equal": True}}}
        new = {"cells": {"grid-100": {"speedup": 2.0, "metrics_equal": True}}}
        report = compare_scale_payloads(base, new, threshold=0.5)
        assert not report.passed
        assert report.regressions[0].metric == "speedup"

    def test_compare_flags_missing_cell(self):
        base = {"cells": {"grid-100": {"speedup": 6.0}}}
        report = compare_scale_payloads(base, {"cells": {}}, threshold=0.5)
        assert not report.passed
        assert "scale:grid-100" in report.missing_groups

    def test_compare_flags_broken_bit_identity(self):
        base = {"cells": {"grid-100": {"speedup": 6.0, "metrics_equal": True}}}
        new = {"cells": {"grid-100": {"speedup": 6.0, "metrics_equal": False}}}
        report = compare_scale_payloads(base, new, threshold=0.5)
        assert not report.passed
        assert report.regressions[0].metric == "metrics_equal"

    def test_compare_never_gates_raw_wall_times(self):
        base = {"cells": {"grid-100": {"speedup": 6.0, "opt_s": 0.1, "metrics_equal": True}}}
        new = {"cells": {"grid-100": {"speedup": 6.0, "opt_s": 99.0, "metrics_equal": True}}}
        assert compare_scale_payloads(base, new, threshold=0.5).passed

    def test_reference_max_below_10k(self):
        # The 10k cells must never be asked for a reference leg.
        assert REFERENCE_MAX_NODES < 10_000


class TestScaleBitIdentity:
    def test_reference_equality_small_grid(self):
        clear_caches()
        result = reference_equality("grid", 16, executions=1, seed=11)
        assert result["metrics_equal"] == 1.0
        assert result["frames"] > 0
        assert result["intervals"] > 0

    @pytest.mark.parametrize("strategy", ["relay-drop", "cover-accomplice", "spurious-veto"])
    def test_attacked_reference_equality(self, strategy):
        # A single-node dropper, a colluding strategy and the
        # predicate-test-heavy spurious vetoer produce byte-identical
        # output with caches warm and disabled, outcome sequence
        # included (docs/PERFORMANCE.md).
        result = attacked_reference_equality("grid", 100, executions=2, strategy=strategy)
        assert result["metrics_equal"] == 1.0
        assert result["frames"] > 0
