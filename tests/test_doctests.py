"""Docstring examples must keep working (they are the first code a new
user copies)."""

from __future__ import annotations

import doctest

import pytest

import repro
import repro.campaign.registry
import repro.sim.clock
import repro.tracing

MODULES_WITH_EXAMPLES = [repro, repro.campaign.registry, repro.sim.clock, repro.tracing]


@pytest.mark.parametrize(
    "module", MODULES_WITH_EXAMPLES, ids=lambda m: m.__name__
)
def test_doctests(module):
    results = doctest.testmod(module, verbose=False)
    assert results.attempted > 0, f"{module.__name__} lost its doctest examples"
    assert results.failed == 0
