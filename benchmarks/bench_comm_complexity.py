"""Claim C-comm — Section IX communication comparison.

The paper: "100 synopses will only take 2.4 KB ... a naive approach
would incur a communication complexity of at least 80 KB for a network
with 10,000 sensors, which is one to two orders of magnitude larger
than VMAT."

Two computations:

1. **Paper-scale closed form** — exact byte loads on a formed tree at
   n = 10,000 (naive collect-all bottleneck) vs the 100-synopsis bundle.
2. **Measured on the simulator** — a full COUNT query (m = 100) over a
   300-sensor deployment with real byte accounting, vs the naive
   baseline's exact cost on the *same tree*.
"""

from __future__ import annotations

import pytest

from repro import CountQuery, VMATProtocol, build_deployment, small_test_config
from repro.baselines import naive_collection_cost
from repro.core.tree import form_tree
from repro.topology import random_geometric_topology
from repro.topology.generators import recommended_radius

from .helpers import get_scenario, print_table, run_once


def test_comm_paper_scale_closed_form(benchmark):
    # The closed form is the registered "comm" campaign scenario —
    # exactly what `python -m repro campaign run --scenario comm` fans out.
    comm = get_scenario("comm")

    def experiment():
        metrics = comm.run({"nodes": 10_000, "synopses": 100}, seed=0)
        return int(metrics["vmat_bytes"]), int(metrics["naive_bytes"])

    vmat_bytes, naive_bottleneck = run_once(benchmark, experiment)
    ratio = naive_bottleneck / vmat_bytes
    print_table(
        "Section IX comparison at n = 10,000 (bytes through the bottleneck)",
        ["scheme", "bytes", "vs VMAT"],
        [
            ["VMAT (100 synopses)", vmat_bytes, 1.0],
            ["naive collect-all", naive_bottleneck, ratio],
        ],
    )
    assert vmat_bytes == 2_400  # the paper's 2.4 KB
    assert naive_bottleneck >= 80_000  # the paper's ">= 80 KB"
    assert 10 <= ratio <= 200  # "one to two orders of magnitude"


def _measure(num_nodes: int):
    # Fixed-shape grids (corner base station, 10 rows) so the naive
    # bottleneck scales exactly linearly with n and the comparison is
    # noise-free; depth grows mildly with n and L covers it.
    from repro.topology import grid_topology

    cols = num_nodes // 10
    topology = grid_topology(10, cols)
    depth = 9 + cols - 1
    config = small_test_config(depth_bound=depth + 2, num_synopses=100)
    deployment = build_deployment(config=config, topology=topology, seed=3)
    protocol = VMATProtocol(deployment.network)
    readings = {i: 1.0 if i % 2 == 0 else 0.0 for i in topology.sensor_ids}
    query = CountQuery(predicate=lambda r: r > 0.5, num_synopses=100)
    result = protocol.execute(query, readings)
    assert result.produced_result

    tree = form_tree(deployment.network, None, depth + 2)
    naive = naive_collection_cost(tree.levels, tree.parents)
    vmat_max = max(
        deployment.network.metrics.node_communication(i)
        for i in deployment.network.honest_sensors
    )
    return vmat_max, naive.max_node_bytes, result.estimate


def test_comm_measured_crossover(benchmark):
    """The crossover: naive's bottleneck grows linearly with n while
    VMAT's per-sensor load stays flat, so naive loses by 10-100x at the
    paper's n = 10,000 even though it can win at toy sizes."""
    sizes = (150, 300)
    measured = run_once(benchmark, lambda: {n: _measure(n) for n in sizes})

    rows = []
    for n in sizes:
        vmat_max, naive_max, estimate = measured[n]
        rows.append([n, vmat_max, naive_max, estimate])
    print_table(
        "Measured per-sensor bottleneck bytes (COUNT, m=100)",
        ["n", "VMAT max node", "naive max node", "count estimate"],
        rows,
    )

    vmat_growth = measured[sizes[1]][0] / measured[sizes[0]][0]
    naive_growth = measured[sizes[1]][1] / measured[sizes[0]][1]
    print(f"growth when n doubles: VMAT x{vmat_growth:.2f}, naive x{naive_growth:.2f}")
    # Naive scales with n (the BS neighbourhood relays everything);
    # VMAT's dominant per-sensor cost is size-independent bundles.
    assert naive_growth > 1.6
    assert vmat_growth < naive_growth
    # Extrapolated to the paper's n = 10,000, naive loses decisively.
    naive_at_10k = measured[sizes[1]][1] * (10_000 / sizes[1])
    assert naive_at_10k / measured[sizes[1]][0] > 10
