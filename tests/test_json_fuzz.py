"""Seeded malformed-input fuzzing of the JSON parsers at file boundaries.

Fault plans, service specs, campaign specs and fuzz-repro files arrive
as hand-editable JSON.  Four entry points parse them:
``FaultPlan.from_json``, ``ServiceSpec.from_json``,
``CampaignSpec.from_json`` and ``invariants.fuzz.replay_repro`` (which
then replays the config it read).  Every mutated or truncated document
must end in a value or a typed :class:`~repro.errors.ReproError`, within
a time bound: never a bare ``TypeError``/``OverflowError``, a recursion
blow-up or a hang.  Modelled on ``tests/test_decode_fuzz.py``.
"""

from __future__ import annotations

import json
import random
import time

import pytest

from repro.campaign.spec import CampaignSpec, ScenarioSpec
from repro.errors import ReproError
from repro.faults import (
    BroadcastDelay,
    BroadcastLoss,
    BurstLoss,
    ClockDrift,
    Duplicate,
    FaultPlan,
    LinkDown,
    NodeCrash,
    Partition,
)
from repro.invariants.fuzz import FuzzConfig, repro_dict, replay_repro
from repro.seeding import canonical_json
from repro.service.spec import ServiceSpec

#: Wall-clock bound for one input.  A repro that parses is replayed,
#: so its bound covers one small protocol run as well.
TIME_BOUND_S = {"fault-plan": 0.5, "service-spec": 0.5, "campaign-spec": 0.5, "repro": 5.0}

#: Mutated documents per entry point.
TRIALS = 300

PLAN = FaultPlan(
    name="fuzz-plan",
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
SERVICE = ServiceSpec(
    num_nodes=12,
    processes=2,
    malicious_ids=(3,),
    theta=4,
    fault_plan=FaultPlan("svc", events=(NodeCrash(node=5, start=2, end=4),)).to_json(),
)
CAMPAIGN = CampaignSpec(
    name="fuzz-campaign",
    scenarios=(ScenarioSpec("comm", {"nodes": [20, 40], "trace": 0}), ScenarioSpec("fig8")),
    seed=3,
    replicates=2,
    cell_timeout=1.5,
    imports=("repro.campaign.scenarios",),
)
REPRO = repro_dict(
    FuzzConfig(seed=5, topology="line", size=4, malicious=(2,), strategy="spurious-veto",
               executions=1),
    [],
    None,
)


def _replay_text(tmp_path):
    path = tmp_path / "repro.json"

    def replay(text: str):
        path.write_text(text, encoding="utf-8", errors="surrogatepass")
        return replay_repro(path)

    return replay


#: entry point -> (parser factory over a scratch directory, seed document)
ENTRY_POINTS = {
    "fault-plan": (lambda tmp_path: FaultPlan.from_json, PLAN.to_dict()),
    "service-spec": (lambda tmp_path: ServiceSpec.from_json, SERVICE.to_dict()),
    "campaign-spec": (lambda tmp_path: CampaignSpec.from_json, CAMPAIGN.to_dict()),
    "repro": (_replay_text, REPRO),
}

#: JSON values spliced in by the structural mutations: wrong types,
#: boundary numbers, non-finite floats and empty containers.
VALUES = (
    None, True, False, 0, -1, 1, 2, 7, 2**31, -(2**63), 10**400, 0.5, -2.5, 1e308,
    float("inf"), float("nan"), "", "x", "line", "crash", [], [1, 2], ["a"], {}, {"kind": "crash"},
)

#: Fragments spliced in by the text mutations.
FRAGMENTS = (
    "{", "}", "[", "]", ",", ":", '"', "\\", "null", "true", "-", "0", "9" * 40, "1e999",
    "NaN", "-Infinity", '"\\ud800"', "[" * 2000, '{"kind": "crash"}',
)


def _paths(doc, prefix=()):
    """Every (container, key) path into a decoded JSON document."""
    out = []
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return out
    for key, value in items:
        out.append(prefix + (key,))
        out.extend(_paths(value, prefix + (key,)))
    return out


def mutate_document(doc, rng: random.Random):
    """One seeded structural corruption of a decoded document: replace
    a value, drop a key or item, add an unknown key, or wrap a value."""
    doc = json.loads(json.dumps(doc))
    paths = _paths(doc)
    if not paths:
        return rng.choice(VALUES)
    path = rng.choice(paths)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    kind = rng.randrange(4)
    if kind == 0:
        parent[key] = rng.choice(VALUES)
    elif kind == 1:
        del parent[key]
    elif kind == 2 and isinstance(parent, dict):
        parent["x" + str(rng.randrange(100))] = rng.choice(VALUES)
    else:
        parent[key] = [parent[key]] if rng.random() < 0.5 else {"v": parent[key]}
    return doc


def mutate_text(text: str, rng: random.Random) -> str:
    """One seeded textual corruption: truncate, overwrite characters,
    delete or repeat a span, or splice in a fragment."""
    kind = rng.randrange(5)
    at = rng.randrange(len(text) + 1)
    if kind == 0:
        return text[:at]
    if kind == 1:
        chars = list(text)
        for _ in range(rng.randint(1, 3)):
            chars[rng.randrange(len(chars))] = rng.choice('{}[]:,"-.0123456789eEtfn\\ ')
        return "".join(chars)
    if kind == 2:
        return text[:at] + text[at + rng.randint(1, 12):]
    if kind == 3:
        return text[:at] + text[at:at + rng.randint(1, 12)] * 2 + text[at:]
    return text[:at] + rng.choice(FRAGMENTS) + text[at:]


def _ends_typed(parse, text: str, bound: float) -> None:
    started = time.perf_counter()
    try:
        parse(text)
    except ReproError:
        pass
    elapsed = time.perf_counter() - started
    assert elapsed < bound, f"{text[:200]!r} took {elapsed:.3f} s"


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_mutated_documents_end_in_a_value_or_a_typed_error(entry, tmp_path):
    factory, doc = ENTRY_POINTS[entry]
    parse = factory(tmp_path)
    rng = random.Random(f"json-fuzz:{entry}")
    text = canonical_json(doc)
    parse(text)  # the well-formed document parses
    for _ in range(TRIALS):
        if rng.random() < 0.5:
            mutated = json.dumps(mutate_document(doc, rng))
        else:
            mutated = mutate_text(text, rng)
        _ends_typed(parse, mutated, TIME_BOUND_S[entry])


#: Numbers at the edges of what JSON decodes to: ints no float holds,
#: ints past 64 bits, non-finite floats, negatives.
BOUNDARY_NUMBERS = (10**400, -(10**400), 2**64, -1, float("nan"), float("inf"))


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_boundary_numbers_in_every_field_end_typed(entry, tmp_path):
    """Each boundary number in each field of the document, one at a time."""
    factory, doc = ENTRY_POINTS[entry]
    parse = factory(tmp_path)
    for path in _paths(doc):
        for number in BOUNDARY_NUMBERS:
            mutated = json.loads(json.dumps(doc))
            parent = mutated
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]] = number
            _ends_typed(parse, json.dumps(mutated), TIME_BOUND_S[entry])


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize(
    "text",
    [
        pytest.param("[" * 100_000 + "]" * 100_000, id="deep-nesting"),
        pytest.param('"\\ud800"', id="lone-surrogate"),
        pytest.param("9" * 5_000, id="huge-int"),
        pytest.param("", id="empty"),
    ],
)
def test_known_malformed_documents_raise_typed_errors(entry, text, tmp_path):
    factory, _ = ENTRY_POINTS[entry]
    with pytest.raises(ReproError):
        factory(tmp_path)(text)
