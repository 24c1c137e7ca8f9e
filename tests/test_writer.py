"""`serialize.dumps` against `json.dumps(indent=2, sort_keys=True)`.

The CLI writes every JSON payload with `dumps`, and `construct` hands it the
rights structure itself, so its bytes must equal the stdlib encoder's on
the dict that `environment_to_doc` builds.
"""

import json
import pathlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from instances import random_scr
from rotakit import conditions, constructors
from rotakit.rights import BASE, GRAPH, OPAQUE, RightsStructure, State
from rotakit.serialize import (
    DOMAIN_RULES,
    domain_scr,
    dumps,
    environment_to_doc,
    is_domain_doc,
    load_document,
    rights_to_doc,
    scr_from_doc,
    scr_to_doc,
)

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def _reference(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True)


def _assert_same(got: str, want: str) -> None:
    """Report where two outputs first differ; pytest's own diff of two outputs of a
    megabyte or more takes minutes."""
    if got != want:
        at = next((i for i, pair in enumerate(zip(got, want)) if pair[0] != pair[1]), None)
        at = min(len(got), len(want)) if at is None else at
        pytest.fail(f"differ at {at}: {got[at - 60:at + 60]!r} != {want[at - 60:at + 60]!r}")


# strings that need escapes, non-ASCII text, astral characters and a lone surrogate
CHARS = st.one_of(st.sampled_from('"\\/\n\r\t\b\f\x00\x1f\x7f é€😀 \ud800'), st.characters())
TEXT = st.text(CHARS, max_size=8)
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(min_value=-(2**70), max_value=2**70), TEXT
)
PAYLOADS = st.recursive(
    SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(TEXT, children, max_size=4),
    ),
    max_leaves=25,
)


@settings(derandomize=True, database=None, max_examples=250, deadline=None)
@given(payload=PAYLOADS)
def test_dumps_matches_json_dumps(payload):
    assert dumps(payload) == _reference(payload)


@pytest.mark.parametrize(
    "payload",
    [{1, 2}, 1.5, [1, 2.0], {"a": {"b": frozenset()}}, {"a": [object()]}, {1: "x"}],
)
def test_dumps_refuses_what_it_does_not_write(payload):
    with pytest.raises(TypeError):
        dumps(payload)


def _fixture_rules():
    """(scr, canonical orderings or None) for every fixture and every rule it takes."""
    for path in sorted(FIXTURES.glob("*.json")):
        doc = load_document(str(path))
        if is_domain_doc(doc):
            for rule in DOMAIN_RULES[doc["kind"]][1]:
                yield domain_scr(doc, rule)
        else:
            yield scr_from_doc(doc), None


def _seeded_rules(seed: int, count: int):
    rng = random.Random(seed)
    for i in range(count):
        yield random_scr(
            rng,
            n_alternatives=rng.randint(2, 4),
            n_agents=rng.randint(2, 3),
            n_profiles=rng.randint(1, 3),
            multi_valued=i % 2 == 1,
        ), None


def _structures(rules):
    """Every Theorem-1 structure, and every Theorem-4 structure that exists."""
    for scr, witness in rules:
        yield scr, 1, constructors.build_thm1_structure(scr)
        witness = witness or conditions.find_shared_ordering(scr)
        if witness is not None:
            yield scr, 4, constructors.build_thm4_structure(scr, witness)


def _assert_construct_bytes(scr, structure):
    extra = {"verification": {"kind": "mss", "ok": True, "profiles": []}}
    payload = {**scr_to_doc(scr), "rights": structure, **extra}
    reference = {**environment_to_doc(scr, scr.profiles, structure), **extra}
    _assert_same(dumps(payload), _reference(reference))


@pytest.mark.parametrize(
    "rules", [_fixture_rules, lambda: _seeded_rules(6, 60)], ids=["fixtures", "seeded"]
)
def test_construct_payload_matches_environment_doc(rules):
    theorems = []
    for scr, theorem, structure in _structures(rules()):
        _assert_construct_bytes(scr, structure)
        theorems.append(theorem)
    assert theorems.count(1) >= 5 and theorems.count(4) >= 3


def test_structure_at_any_depth_and_without_rules():
    singles = frozenset([frozenset([0]), frozenset([1])])
    structure = RightsStructure(
        (State("x", "x"), State("y", "y"), State("g", "y", "graph", "R")),
        {("x", "y"): [[0], [1]], ("y", "x"): [[1], [0]], ("g", "x"): frozenset([frozenset([0, 1])])},
        {("y", "x"): "r1", ("g", "x"): ""},
    )
    # equal families given as distinct lists compile to one family, with one rendering
    assert structure.gamma[("x", "y")] is structure.gamma[("y", "x")] == singles
    doc = rights_to_doc(structure)
    assert [e.get("rule") for e in doc["gamma"]] == [None, "r1", None]
    for wrap in (lambda r: r, lambda r: [r], lambda r: {"a": [{"b": r}, 7]}, lambda r: (r, r)):
        _assert_same(dumps(wrap(structure)), _reference(wrap(doc)))


NAMES = st.text(CHARS, min_size=1, max_size=4)
FAMILIES = st.frozensets(st.frozensets(st.integers(0, 3), min_size=1, max_size=3),
                         min_size=1, max_size=3)


@st.composite
def _rights_structures(draw):
    """1-4 states of every kind, gamma on some of their distinct pairs (none at all
    included), each family drawn from a small pool and copied so that equal families
    are distinct objects (some as lists, which compile to one shared family), and a
    rule, an empty rule or none per entry."""
    keys = draw(st.lists(NAMES, min_size=1, max_size=4, unique=True))
    states = []
    for key in keys:
        kind = draw(st.sampled_from([BASE, GRAPH, OPAQUE]))
        profile = draw(NAMES if kind == GRAPH else st.none() | NAMES)
        states.append(State(key, draw(NAMES), kind, profile))
    pairs = [(a, b) for a in keys for b in keys if a != b]
    pool = draw(st.lists(FAMILIES, min_size=1, max_size=3))
    gamma, provenance = {}, {}
    for pair in draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else ():
        family = draw(st.sampled_from(pool))
        gamma[pair] = [list(k) for k in family] if draw(st.booleans()) else frozenset(list(family))
        rule = draw(st.none() | st.just("") | NAMES)
        if rule is not None:
            provenance[pair] = rule
    return RightsStructure(tuple(states), gamma, provenance)


def _nest(value, wraps):
    for how, key in wraps:
        value = {"list": [7, value], "tuple": (value,), "dict": {key: value, key + "~": None}}[how]
    return value


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(
    structure=_rights_structures(),
    wraps=st.lists(st.tuples(st.sampled_from(["list", "tuple", "dict"]), TEXT), max_size=3),
)
def test_dumps_writes_any_structure_as_its_rights_doc(structure, wraps):
    got = dumps(_nest(structure, wraps))
    assert got == _reference(_nest(rights_to_doc(structure), wraps))
