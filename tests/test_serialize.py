import json
import tracemalloc

import pytest

from rotakit.constructors import build_thm1_structure
from rotakit.model import InputError
from rotakit.rights import SocialEnvironment, build_improvement_digraph
from rotakit.serialize import (
    digraph_to_dot,
    domain_environment,
    domain_scr,
    environment_from_doc,
    environment_to_doc,
    load_document,
    rights_from_doc,
    rights_to_doc,
    scr_from_doc,
    scr_to_doc,
)

XYZ_ENV_DOC = {
    "alternatives": ["x", "y", "z"],
    "agents": 3,
    "profiles": [
        {"id": "R", "ranks": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]},
        {"id": "Rp", "ranks": [[0, 1, 2], [0, 1, 2], [1, 0, 2]]},
    ],
    "scr": {"R": ["x", "y", "z"], "Rp": ["x", "y"]},
    "rights": {
        "states": [
            {"id": "x", "kind": "base", "outcome": "x"},
            {"id": "y", "kind": "base", "outcome": "y"},
            {"id": "z", "kind": "base", "outcome": "z"},
        ],
        "gamma": [
            {"from": "x", "to": "y", "coalitions": [[2]]},
            {"from": "y", "to": "x", "coalitions": [[0], [1]]},
            {"from": "z", "to": "y", "coalitions": [[0, 1], [0, 2], [1, 2], [0, 1, 2]]},
            {"from": "x", "to": "z", "coalitions": [[0, 1], [0, 2], [1, 2], [0, 1, 2]]},
        ],
    },
}

JOBS_DOC = {
    "kind": "jobs",
    "jobs": ["j1", "j2", "j3"],
    "profiles": [
        {"id": "P", "orders": [["j1", "j3", "j2"], ["j1", "j2", "j3"], ["j2", "j3", "j1"]]},
        {"id": "Pp", "orders": [["j1", "j3", "j2"], ["j1", "j2", "j3"], ["j3", "j2", "j1"]]},
    ],
}

ECONOMY_DOC = {
    "kind": "economy",
    "agents": 3,
    "houses": ["h1", "h2", "h3"],
    "outside": "h0",
    "owners": {"h1": [0], "h2": [1], "h3": [2]},
    "profiles": [
        {"id": "R", "orders": [["h2", "h3", "h1", "h0"], ["h3", "h1", "h2", "h0"], ["h1", "h2", "h3", "h0"]]}
    ],
}


def test_scr_round_trip(xyz_scr):
    doc = scr_to_doc(xyz_scr)
    assert scr_from_doc(doc) == xyz_scr
    # and again through actual JSON text
    assert scr_from_doc(json.loads(json.dumps(doc))) == xyz_scr


def test_scr_from_doc_matches_fixture(xyz_scr):
    assert scr_from_doc(XYZ_ENV_DOC) == xyz_scr


def test_rights_round_trip(xyz_scr):
    structure = build_thm1_structure(xyz_scr)
    doc = {"rights": rights_to_doc(structure)}
    parsed = rights_from_doc(doc)
    assert parsed.states == structure.states
    assert parsed.gamma == structure.gamma
    assert parsed.provenance == structure.provenance


def _rights_doc(*gamma) -> dict:
    states = [{"id": k, "kind": "base", "outcome": k} for k in "xyz"]
    return {"rights": {"states": states, "gamma": list(gamma)}}


@pytest.mark.parametrize("member", [True, 1.0, False, 0.0])
def test_equal_but_mistyped_coalitions_still_fail_after_a_valid_one(member):
    # 1 == True == 1.0 with one hash: a coalition list read once must not
    # let a later, equal list of bools or floats through
    doc = _rights_doc(
        {"from": "x", "to": "y", "coalitions": [[1], [0]]},
        {"from": "y", "to": "z", "coalitions": [[0]]},
        {"from": "z", "to": "x", "coalitions": [[int(member)], [0]]},
        {"from": "x", "to": "z", "coalitions": [[member], [0]]},
    )
    assert rights_from_doc(
        {"rights": {**doc["rights"], "gamma": doc["rights"]["gamma"][:3]}}
    ).max_agent() == 1
    with pytest.raises(InputError) as err:
        rights_from_doc(doc)
    assert err.value.path == "$.rights.gamma[3].coalitions"
    assert str(err.value) == (
        f"$.rights.gamma[3].coalitions: expected lists of agent indices: "
        f"agent index {member!r} is not an integer"
    )


def test_coalition_lists_that_differ_in_order_or_repeats_read_to_one_family():
    lists = ([[0, 1]], [[1, 0]], [[0, 1], [0, 1]], [[1, 0], [0, 1]])
    pairs = [("x", "y"), ("y", "z"), ("z", "x"), ("x", "z")]
    doc = _rights_doc(*({"from": a, "to": b, "coalitions": c} for (a, b), c in zip(pairs, lists)))
    structure = rights_from_doc(doc)
    families = [structure.gamma[pair] for pair in pairs]
    assert families == [frozenset([frozenset([0, 1])])] * 4
    assert all(fam is families[0] for fam in families)


def test_duplicate_gamma_entries_merge_and_the_last_rule_wins():
    doc = _rights_doc(
        {"from": "x", "to": "y", "coalitions": [[0]], "rule": "first"},
        {"from": "y", "to": "x", "coalitions": [[1]]},
        {"from": "x", "to": "y", "coalitions": [[1], [0]], "rule": "second"},
        {"from": "x", "to": "y", "coalitions": [[0, 1]], "rule": ""},
        {"from": "y", "to": "x", "coalitions": [[1]], "rule": "late"},
    )
    structure = rights_from_doc(doc)
    assert list(structure.gamma) == [("x", "y"), ("y", "x")]
    assert structure.gamma[("x", "y")] == frozenset(map(frozenset, [[0], [1], [0, 1]]))
    assert structure.gamma[("y", "x")] == frozenset([frozenset([1])])
    assert structure.provenance == {("x", "y"): "second", ("y", "x"): "late"}


def test_environment_doc_round_trip(xyz_scr, xyz_structure):
    doc = environment_to_doc(xyz_scr, xyz_scr.profiles, xyz_structure)
    env = environment_from_doc(doc, "Rp")
    assert env.profile.id == "Rp"
    assert env.rights.gamma == xyz_structure.gamma


def test_environment_requires_known_profile():
    with pytest.raises(InputError):
        environment_from_doc(XYZ_ENV_DOC, "nope")


def test_huge_gamma_agent_index_is_refused_before_a_bitmask_is_built():
    """An index of 10**8 as a coalition bitmask would be a 12.5 MB int."""
    doc = json.loads(json.dumps(XYZ_ENV_DOC))
    doc["rights"]["gamma"][2]["coalitions"] = [[0, 1], [10**8]]
    tracemalloc.start()
    try:
        with pytest.raises(InputError) as err:
            environment_from_doc(doc, "R")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value) == "gamma mentions an agent index outside the profile"
    assert err.value.path == "$.rights.gamma[2].coalitions"
    assert peak < 2_000_000


def _fault(doc: dict, *edits) -> tuple[str, str]:
    """The message and path `environment_from_doc` refuses `doc` with, after each
    (field path, value) edit of a copy."""
    doc = json.loads(json.dumps(doc))
    for where, value in edits:
        parent = doc
        for key in where[:-1]:
            parent = parent[key]
        parent[where[-1]] = value
    with pytest.raises(InputError) as err:
        environment_from_doc(doc, "R")
    return str(err.value), err.value.path


def test_of_two_faults_the_first_in_document_order_is_named():
    """The states are checked first, then the gamma entries in document order, each in
    full before the next one is read."""
    outside = (("rights", "gamma", 1, "coalitions"), [[0], [3]])
    empty = (("rights", "gamma", 3, "coalitions"), [[0], []])
    named = ("gamma mentions an agent index outside the profile", "$.rights.gamma[1].coalitions")
    assert _fault(XYZ_ENV_DOC, outside, empty) == named
    named = ("coalitions must be nonempty", "$.rights.gamma[3].coalitions")
    assert _fault(XYZ_ENV_DOC, empty) == named
    twin = (("rights", "states", 2, "id"), "x")
    bad_entry = (("rights", "gamma", 0), {"from": "x", "coalitions": [[0]]})
    assert _fault(XYZ_ENV_DOC, bad_entry, twin) == ("duplicate state keys", "$.rights.states[2].id")
    assert _fault(XYZ_ENV_DOC, bad_entry) == (
        "missing field $.rights.gamma[0].to", "$.rights.gamma[0].to"
    )
    # an entry's own faults: its endpoints before its coalitions
    ghost = (("rights", "gamma", 1, "to"), "w")
    assert _fault(XYZ_ENV_DOC, outside, ghost) == (
        "gamma entry on unknown state pair ('y', 'w')", "$.rights.gamma[1].to"
    )


def test_environment_requires_rights_block():
    doc = {k: v for k, v in XYZ_ENV_DOC.items() if k != "rights"}
    with pytest.raises(InputError) as err:
        environment_from_doc(doc, "R")
    assert str(err.value) == "document has no rights block; cannot build an environment"
    assert err.value.path == "$.rights"


def test_domain_doc_jobs_matches_library(job_table_problems):
    from rotakit.domains import efficient_scr

    scr, witness = domain_scr(JOBS_DOC, "efficient")
    assert witness is None
    assert scr == efficient_scr(job_table_problems[:2])


def test_domain_doc_economy(housing_economy):
    scr, _ = domain_scr(ECONOMY_DOC)
    assert scr.choice("R") == {"h2,h3,h1"}
    env = domain_environment(ECONOMY_DOC, "R")
    assert env.profile.id == "R"


def test_domain_doc_bad_rule():
    with pytest.raises(InputError, match="rule 'exclusion-core' does not apply to kind 'jobs'"):
        domain_scr(JOBS_DOC, "exclusion-core")
    for rule in (["phi"], {"phi": 1}, 7):
        with pytest.raises(InputError, match="does not apply to kind 'jobs'"):
            domain_scr(JOBS_DOC, rule)
    for kind in ([], {}, None, "house"):
        with pytest.raises(InputError, match="not a domain document"):
            domain_scr({**JOBS_DOC, "kind": kind})
    # the document is read before the rule is checked
    with pytest.raises(InputError, match=r"\$\.jobs"):
        domain_scr({**JOBS_DOC, "jobs": 7}, "exclusion-core")


def test_load_document_reports_json_position(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"alternatives": [}')
    with pytest.raises(InputError) as err:
        load_document(str(path))
    assert "line 1" in str(err.value)


def test_missing_field_paths():
    with pytest.raises(InputError) as err:
        scr_from_doc({"alternatives": ["x"], "agents": 1})
    assert "$.profiles" in str(err.value) or "profiles" in str(err.value)


def test_dot_export_contains_nodes_edges_and_highlight(xyz_structure, xyz_scr):
    env = SocialEnvironment(xyz_structure, xyz_scr.profile("Rp"))
    dg = build_improvement_digraph(env)
    dot = digraph_to_dot(dg, env, highlight=("x", "y"))
    assert dot.startswith("digraph")
    assert '"x" -> "y"' in dot
    assert "lightblue" in dot
    assert "{2}" in dot


def test_dot_export_blocks_cluster(xyz_structure, xyz_scr):
    env = SocialEnvironment(xyz_structure, xyz_scr.profile("Rp"))
    dg = build_improvement_digraph(env)
    dot = digraph_to_dot(dg, env, blocks=[["x", "y"]])
    assert "subgraph cluster_0" in dot


def _dot_strings_close(line: str) -> bool:
    """Lex `line` the way DOT reads quoted strings: inside one, a backslash
    escapes the next character, and every string must close on its line."""
    inside, i = False, 0
    while i < len(line):
        if inside and line[i] == "\\":
            i += 2
            continue
        inside ^= line[i] == '"'
        i += 1
    return not inside


def test_dot_export_escapes_backslashes_and_quotes():
    doc = {
        "alternatives": ["x\\", 'y"z'],
        "agents": 1,
        "profiles": [{"id": "R", "ranks": [[1, 0]]}],
        "rights": {
            "states": [{"id": "a\\", "outcome": "x\\"}, {"id": 'b"x', "outcome": 'y"z'}],
            "gamma": [{"from": "a\\", "to": 'b"x', "coalitions": [[0]]}],
        },
    }
    env = environment_from_doc(doc, "R")
    dg = build_improvement_digraph(env)
    for blocks in (None, [["a\\", 'b"x']]):
        dot = digraph_to_dot(dg, env, highlight=["a\\"], blocks=blocks)
        assert all(_dot_strings_close(line) for line in dot.splitlines())
        # the label keeps its intentional line break between id and outcome
        assert '"a\\\\" [label="a\\\\\\nh=x\\\\" style=filled' in dot
        assert '"b\\"x" [label="b\\"x\\nh=y\\"z"];' in dot
        assert '"a\\\\" -> "b\\"x" [label="{0}"];' in dot
