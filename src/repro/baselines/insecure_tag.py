"""Insecure TAG aggregation [15] — the no-security cost floor.

TAG is the classic in-network aggregation service VMAT hardens: a
hop-count tree and a single convergecast of partial aggregates, with no
MACs, no confirmation phase and no audit state.  It answers MIN in 2
flooding rounds and a handful of bytes — and a single malicious sensor
can silently set the answer to anything.

This baseline exists to price VMAT's *security overhead* (extra rounds,
extra bytes, extra state) against the undefended floor, and to
demonstrate the corruption TAG cannot even detect.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..keys.registry import BASE_STATION_ID
from ..net.message import ReadingMessage, SynopsisBundle
from ..net.network import Network


@dataclass
class TagResult:
    """What insecure TAG reports — taken entirely on faith."""

    minimum: Optional[float]
    flooding_rounds: float
    total_bytes: int

    @property
    def answered(self) -> bool:
        return self.minimum is not None


def run_insecure_tag_min(
    network: Network,
    adversary,
    depth_bound: int,
    readings: Dict[int, float],
) -> TagResult:
    """One TAG MIN query: hop-count tree + unverified convergecast.

    Malicious sensors participate through the same adversary hooks as in
    VMAT (a dropper drops, a junk injector injects) — but here nothing
    checks anything: whatever reaches the base station *is* the answer.
    """
    from ..core.aggregation import run_aggregation
    from ..core.protocol import install_execution
    from ..core.queries import MinQuery
    from ..core.tree import form_tree

    bytes_before = network.metrics.total_bytes()
    rounds_before = network.metrics.flooding_rounds

    # Every sensor, honest or compromised, still frames its reading as a
    # message; the MACs carry no weight because nothing verifies them
    # (accept-everything callback).
    nonce = b"insecure-tag"
    own = install_execution(
        network, readings, MinQuery(), nonce,
        sign=lambda registry, node_id, values, _nonce: [
            ReadingMessage(sensor_id=node_id, value=values[0], mac=b"\x00" * 8)
        ],
        adversary=adversary,
    )

    form_tree(network, adversary, depth_bound, variant="hopcount")
    agg = run_aggregation(
        network,
        adversary,
        depth_bound,
        nonce,
        own,
        num_instances=1,
        verify_minimum=lambda instance, message: True,  # TAG verifies nothing
    )
    minima = agg.minimum_values()
    minimum = minima[0] if minima and minima[0] != float("inf") else None
    return TagResult(
        minimum=minimum,
        flooding_rounds=network.metrics.flooding_rounds - rounds_before,
        total_bytes=network.metrics.total_bytes() - bytes_before,
    )
