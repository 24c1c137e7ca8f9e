"""Mutation fuzzing of the shipped fixtures through `cli.main`.

Each example takes one fixture, replaces one node of its JSON tree with a
value of another type or deletes one object key, and runs one cheap
command on the result. Whatever the document, the CLI must answer with an
exit code from its contract (0-4) and must not let an exception escape.
"""

import contextlib
import copy
import functools
import io
import json
import operator
import pathlib

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rotakit.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent / "fixtures"

# fixture -> the cheap commands that read it (the environment is read by
# two, since solve reads its rights and check its SCR)
COMMANDS = {
    "example-environment": (
        ("solve", "--profile", "R", "--concept", "mss"),
        ("check", "--condition", "maskin"),
    ),
    "jobs-domain": (("domain",),),
    "marriage-domain": (("domain",),),
    "economy-domain": (("domain",),),
}
FIXTURES = {name: json.loads((ROOT / f"{name}.json").read_text()) for name in COMMANDS}
SAMPLES = (None, True, False, 0, 7, -1, 2.5, "", "x", [], [7], ["x"], [[7]], {}, {"x": 7})


def _node_paths(node, path=()):
    """Paths of every node below the root, parents before children."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield path + (key,)
        yield from _node_paths(child, path + (key,))


NODES = {name: tuple(_node_paths(doc)) for name, doc in FIXTURES.items()}


@st.composite
def mutations(draw):
    name = draw(st.sampled_from(sorted(FIXTURES)))
    argv = draw(st.sampled_from(COMMANDS[name]))
    path = draw(st.sampled_from(NODES[name]))
    old = functools.reduce(operator.getitem, path, FIXTURES[name])
    if isinstance(path[-1], str) and draw(st.booleans()):
        return name, argv, path, ("delete",)
    value = draw(st.sampled_from([v for v in SAMPLES if type(v) is not type(old)]))
    return name, argv, path, ("set", value)


def _apply(doc, path, action):
    doc = copy.deepcopy(doc)
    parent = functools.reduce(operator.getitem, path[:-1], doc)
    if action[0] == "delete":
        del parent[path[-1]]
    else:
        parent[path[-1]] = copy.deepcopy(action[1])
    return doc


@settings(
    derandomize=True,
    database=None,
    max_examples=800,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(case=mutations())
def test_mutated_fixture_never_escapes_the_exit_contract(tmp_path_factory, case):
    name, argv, path, action = case
    bad = tmp_path_factory.getbasetemp() / "fuzz.json"
    bad.write_text(json.dumps(_apply(FIXTURES[name], path, action)))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main([argv[0], str(bad), *argv[1:]])
    assert code in (0, 1, 2, 3, 4)
