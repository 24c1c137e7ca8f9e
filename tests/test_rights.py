import copy
import itertools
import pickle
import random

import pytest

from instances import random_environment
from oracles import dfs_reachable, digraph_adjacency
from rotakit.domains import Economy
from rotakit.model import InputError, Profile
from rotakit.rights import (
    RightsStructure,
    SocialEnvironment,
    State,
    build_improvement_digraph,
    coalition,
    coalition_key,
    find_myopic_improvement_path,
)
from rotakit.serialize import _state_doc, dumps, rights_from_doc

ALTS = ("x", "y", "z")


def _env(xyz_structure, profile):
    return SocialEnvironment(xyz_structure, profile)


def test_empty_gamma_has_no_edges():
    rights = RightsStructure(tuple(State(a, a) for a in ALTS), {})
    profile = Profile.from_orders("R", ALTS, [["x", "y", "z"]])
    dg = build_improvement_digraph(SocialEnvironment(rights, profile))
    assert dg.edges == ()


def test_xyz_digraph_at_second_profile(xyz_structure, xyz_profiles):
    _, rp = xyz_profiles
    dg = build_improvement_digraph(_env(xyz_structure, rp))
    moves = {(e.source, e.target, frozenset(e.coalition)) for e in dg.edges}
    assert ("x", "y", frozenset([2])) in moves
    assert ("y", "x", frozenset([0])) in moves
    assert ("y", "x", frozenset([1])) in moves
    # nothing improving leaves {x, y}
    assert all(t in {"x", "y"} for s in ("x", "y") for t in dg.targets(s))


def test_edges_follow_source_then_target_then_coalition_order():
    # gamma is declared out of order; (a, b) and (b, c) have several winners
    rights = RightsStructure(
        (State("a", "x"), State("b", "y"), State("c", "z")),
        {
            ("b", "c"): [[2], [1], [0, 1], [0]],
            ("c", "a"): [[0]],
            ("a", "c"): [[0, 1, 2]],
            ("a", "b"): [[1, 0], [2]],
        },
    )
    profile = Profile.from_orders("R", ALTS, [["z", "y", "x"], ["z", "y", "x"], ["y", "z", "x"]])
    dg = build_improvement_digraph(SocialEnvironment(rights, profile))
    assert [(e.source, e.target, sorted(e.coalition)) for e in dg.edges] == [
        ("a", "b", [2]),
        ("a", "b", [0, 1]),
        ("a", "c", [0, 1, 2]),
        ("b", "c", [0]),
        ("b", "c", [1]),
        ("b", "c", [0, 1]),
    ]


def test_edge_soundness_random():
    rng = random.Random(3)
    for _ in range(30):
        env = random_environment(rng, n_states=rng.randint(2, 7), n_agents=rng.randint(1, 3))
        dg = build_improvement_digraph(env)
        for e in dg.edges:
            assert e.coalition in env.rights.entitled(e.source, e.target)
            ha, hb = env.outcome(e.source), env.outcome(e.target)
            assert all(env.profile.strictly_prefers(i, hb, ha) for i in e.coalition)


def _seeded_families(rng: random.Random, count: int):
    """Families on 1-5 agents: random ones, and every third one closed upward, as the
    exclusion rights' families are."""
    for draw in range(count):
        n = rng.randint(1, 5)
        every = [frozenset(c) for r in range(1, n + 1) for c in itertools.combinations(range(n), r)]
        fam = set(rng.sample(every, rng.randint(1, min(6, len(every)))))
        if draw % 3 == 0:
            fam = {c for c in every if any(k <= c for k in fam)}
        yield n, sorted(fam, key=coalition_key)


def test_family_record_keeps_the_minimal_multi_agent_masks_and_every_verdict():
    """The stored other masks are the minimal ones that meet no one-agent coalition, and at
    each of the 2^n gain masks, read off a two-state structure whose gainers strictly prefer
    the target, the edge stands exactly when some coalition lies inside the gainers."""
    rng, states = random.Random(41), (State("a", "x"), State("b", "y"))
    sizes = set()
    for n, ordered in _seeded_families(rng, 150):
        rights = RightsStructure(states, {("a", "b"): frozenset(ordered)})
        ((_, _, record, _),) = rights._core.rows[0]
        masks = [sum(1 << i for i in k) for k in ordered]
        one = sum(m for m in masks if not m & (m - 1))
        free = [m for m in masks if m & (m - 1) and not m & one]
        assert record[3] == one
        assert record[4] == tuple(m for m in free if not any(k != m and k & m == k for k in free))
        sizes.add((len(free), len(record[4])))
        for gain in range(1 << n):  # the other agents are indifferent or prefer the source
            rows = [(1, 0) if gain >> i & 1 else rng.choice([(0, 0), (0, 1)]) for i in range(n)]
            env = SocialEnvironment(rights, Profile.from_ranks("R", ("x", "y"), rows))
            dg = build_improvement_digraph(env)
            won = tuple(k for k in ordered if all(gain >> i & 1 for i in k))
            assert dg.has_edge("a", "b") == bool(won)
            assert dict(dg.edge_coalitions) == ({("a", "b"): won} if won else {})
    assert any(free > kept > 0 for free, kept in sizes), "some masks must be dropped"


def test_path_from_inside_target_is_empty(xyz_structure, xyz_profiles):
    r, _ = xyz_profiles
    path = find_myopic_improvement_path(_env(xyz_structure, r), "x", {"x", "y"})
    assert path is not None and len(path) == 0
    assert path.states == ("x",)


def test_two_step_path_through_intermediate():
    # a -> b is blocked; the only way into {c} is a -> b' -> c
    states = tuple(State(k, k) for k in ("a", "b", "c"))
    rights = RightsStructure(
        states,
        {
            ("a", "b"): frozenset([frozenset([0])]),
            ("b", "c"): frozenset([frozenset([1])]),
        },
    )
    profile = Profile.from_orders("R", ("a", "b", "c"), [["c", "b", "a"], ["c", "b", "a"]])
    env = SocialEnvironment(rights, profile)
    path = find_myopic_improvement_path(env, "a", {"c"})
    assert path is not None
    assert path.states == ("a", "b", "c")
    assert [s.coalition for s in path.steps] == [frozenset([0]), frozenset([1])]


def test_unreachable_target_returns_none():
    states = tuple(State(k, k) for k in ("a", "b", "c", "d"))
    rights = RightsStructure(
        states, {("a", "b"): frozenset([frozenset([0])])}
    )
    profile = Profile.from_orders("R", ("a", "b", "c", "d"), [["b", "a", "d", "c"]])
    env = SocialEnvironment(rights, profile)
    assert find_myopic_improvement_path(env, "a", {"c", "d"}) is None


def test_path_agrees_with_exhaustive_reachability():
    rng = random.Random(17)
    for _ in range(40):
        env = random_environment(rng, n_states=rng.randint(2, 10), n_agents=rng.randint(1, 3))
        dg = build_improvement_digraph(env)
        adj = digraph_adjacency(dg)
        nodes = list(dg.nodes)
        start = rng.choice(nodes)
        targets = set(rng.sample(nodes, rng.randint(1, len(nodes))))
        path = find_myopic_improvement_path(env, start, targets, digraph=dg)
        reachable = dfs_reachable(adj, start)
        if path is None:
            assert not (reachable & targets)
        else:
            assert path.states[-1] in targets
            for a, b in zip(path.states, path.states[1:]):
                assert b in adj[a]


def test_shortest_and_deterministic(xyz_structure, xyz_profiles):
    r, _ = xyz_profiles
    env = _env(xyz_structure, r)
    path = find_myopic_improvement_path(env, "z", {"x"})
    # z -> y -> x beats nothing shorter; first coalition in size-then-members order
    assert path.states == ("z", "y", "x")
    assert path.steps[0].coalition == frozenset([0, 2])


def test_environment_validation(xyz_structure):
    bad_profile = Profile.from_orders("B", ("x", "y"), [["x", "y"]])
    with pytest.raises(InputError):
        SocialEnvironment(xyz_structure, bad_profile)  # z unknown
    two_agent = Profile.from_orders("B", ALTS, [["x", "y", "z"], ["x", "y", "z"]])
    with pytest.raises(InputError):
        SocialEnvironment(xyz_structure, two_agent)  # gamma mentions agent 2


def test_rights_structure_validation():
    states = tuple(State(k, k) for k in ("a", "b"))
    with pytest.raises(InputError):
        RightsStructure(states, {("a", "a"): frozenset([frozenset([0])])})
    with pytest.raises(InputError):
        RightsStructure(states, {("a", "q"): frozenset([frozenset([0])])})
    with pytest.raises(InputError):
        RightsStructure(states, {("a", "b"): frozenset([frozenset()])})
    with pytest.raises(InputError):
        RightsStructure((State("a", "a"), State("a", "a")), {})
    assert RightsStructure(states, {("a", "b"): frozenset()}).gamma == {}


def test_validation_errors_locate_the_refused_value(xyz_structure):
    states = tuple(State(k, k) for k in ("a", "b", "c"))
    one = frozenset([frozenset([0])])
    no_z = Profile.from_orders("B", ("x", "y"), [["x", "y"]])
    bc = ("b", "c")  # a tuple target is one unknown key, not a group of keys
    refusals = [
        (lambda: RightsStructure((), {}), ("states",)),
        (lambda: RightsStructure(states + (State("b", "c"),), {}), ("states", 3, "key")),
        (lambda: RightsStructure(states, {("a", "q"): one}), ("gamma", ("a", "q"), "to")),
        (lambda: RightsStructure(states, {("q", "a"): one}), ("gamma", ("q", "a"), "from")),
        (lambda: RightsStructure(states, {("a", bc): one}), ("gamma", ("a", bc), "to")),
        (lambda: RightsStructure(states, {("a", ()): one}), ("gamma", ("a", ()), "to")),
        (lambda: RightsStructure(states, {("b", "b"): one}), ("gamma", ("b", "b"), "to")),
        (lambda: RightsStructure(states, {("a", "b"): [[]]}), ("gamma", ("a", "b"), "coalitions")),
        (lambda: RightsStructure(states, {("a", "b"): [[-1]]}), ("gamma", ("a", "b"), "coalitions")),
        (lambda: SocialEnvironment(xyz_structure, no_z), ("rights", "states", 2, "outcome")),
    ]
    for build, where in refusals:
        with pytest.raises(InputError) as err:
            build()
        assert err.value.where == where and err.value.path is None
    # a state is refused when a structure is built, whether a `State` or a plain tuple
    odd_states = [
        (("d", "d", "weird", None), ("states", 3, "kind"), "unknown state kind 'weird'"),
        (("d", "d", "graph", None), ("states", 3, "profile"), "graph state 'd' needs a profile id"),
    ]
    for row, where, message in odd_states:
        for state in (State(*row), row):
            with pytest.raises(InputError) as err:
                RightsStructure(states + (state,), {})
            assert (str(err.value), err.value.where, err.value.path) == (message, where, None)
    two_agent = Profile.from_orders("B", ALTS, [["x", "y", "z"], ["x", "y", "z"]])
    with pytest.raises(InputError) as err:
        SocialEnvironment(xyz_structure, two_agent)
    # the first gamma pair, in declaration order, whose family holds agent 2
    assert err.value.where == ("rights", "gamma", ("x", "y"), "coalitions")
    assert err.value.value == 2


@pytest.mark.parametrize("members", [[1.7], "01", [True], [1, True], [1.0], [0, 2**64 * 1.0]])
def test_coalition_refuses_members_that_are_not_ints(members):
    with pytest.raises(InputError) as err:
        coalition(members, ("owners", "h1"))
    assert str(err.value) == "agent indices must be integers"
    assert err.value.where == ("owners", "h1")


def test_structures_and_economies_refuse_members_that_are_not_ints():
    states = tuple(State(k, k) for k in ("a", "b"))
    ints = frozenset([frozenset([1])])
    # an equal family of a bool, after one of ints, is refused too
    for gamma in ({("a", "b"): [[1.7]]}, {("a", "b"): ints, ("b", "a"): {frozenset([True])}}):
        with pytest.raises(InputError) as err:
            RightsStructure(states, gamma)
        assert err.value.where == ("gamma", list(gamma)[-1], "coalitions")
    with pytest.raises(InputError) as err:
        Economy("E", 1, ("h1",), "h0", {"h1": [0.9]}, (("h1", "h0"),))
    assert err.value.where == ("owners", "h1")


def test_rules_are_kept_on_stored_entries_only():
    """A rule lives on a gamma entry: one on a pair with no coalitions or on unknown
    states is dropped, and so is an empty rule, so structures that write the same
    JSON compare equal."""
    states = tuple(State(k, k) for k in ("x", "y"))
    bare = RightsStructure(states, {("x", "y"): [[0]]})
    ghosts = {("x", "y"): "", ("y", "x"): "r1", ("nope", "q"): "r2"}
    assert dict(RightsStructure(states, {("x", "y"): [[0]], ("y", "x"): []}, ghosts).provenance) == {}
    assert RightsStructure(states, {("x", "y"): [[0]], ("y", "x"): []}, ghosts) == bare
    gamma = [{"from": "x", "to": "y", "coalitions": [[0]]},
             {"from": "y", "to": "x", "coalitions": [], "rule": "ghost"}]
    read = rights_from_doc({"rights": {"states": [_state_doc(s) for s in states], "gamma": gamma}})
    assert (dict(read.gamma), dict(read.provenance)) == ({("x", "y"): frozenset([frozenset([0])])}, {})
    assert read == bare and dumps(read) == dumps(bare)


def test_structures_and_digraphs_survive_pickle_and_deepcopy(xyz_structure, xyz_profiles):
    dg = build_improvement_digraph(_env(xyz_structure, xyz_profiles[1]))
    for copy_of in (lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy):
        again = copy_of(xyz_structure)
        assert again == xyz_structure and again.max_agent() == xyz_structure.max_agent()
        assert repr(again) == repr(xyz_structure)
        assert copy_of(dg) == dg
        for structure in (again, xyz_structure):
            with pytest.raises(TypeError):
                hash(structure)


def test_views_and_structures_print_their_entries(xyz_structure, xyz_profiles):
    dg = build_improvement_digraph(_env(xyz_structure, xyz_profiles[1]))
    assert len(dg.edge_coalitions) > 0
    for view in (xyz_structure.gamma, xyz_structure.provenance, dg.edge_coalitions):
        assert repr(view) == repr(dict(view))
    # families print as the document writes them, so equal structures print alike
    gamma = {pair: sorted(sorted(k) for k in fam) for pair, fam in xyz_structure.gamma.items()}
    states = tuple(State(a, a) for a in ALTS)
    assert repr(xyz_structure) == f"RightsStructure({states!r}, {gamma!r}, {{}})"
    names = {"RightsStructure": RightsStructure, "State": State}
    assert eval(repr(xyz_structure), names) == xyz_structure


def test_view_items_and_values_are_those_of_the_built_dict(xyz_structure, xyz_profiles):
    dg = build_improvement_digraph(_env(xyz_structure, xyz_profiles[1]))
    for view in (xyz_structure.gamma, xyz_structure.provenance, dg.edge_coalitions):
        table = dict(view)
        assert list(view.items()) == list(table.items())
        assert list(view.values()) == list(table.values())
        assert type(view.items()) is type(table.items())  # the dict's own, not per-key lookups


def test_states_are_named_tuples_and_equality_is_the_written_form():
    """A `State` is a 4-tuple; a structure equals another exactly when both write the
    same document, whatever their states were given as or their gamma's order."""
    state = State("g", "x", "graph", "R")
    key, outcome, kind, profile = state
    assert state == ("g", "x", "graph", "R") and (key, profile) == ("g", "R")
    assert State("x", "x") == ("x", "x", "base", None)
    rows = (("x", "x", "base", None), ("y", "y", "opaque", None), ("g", "x", "graph", "R"))
    gamma = {("x", "y"): [[0]], ("g", "x"): [[1], [0, 1]]}
    made = RightsStructure(tuple(State(*r) for r in rows), gamma, {("g", "x"): "r"})
    again = RightsStructure(rows, dict(reversed(gamma.items())), {("g", "x"): "r"})
    assert made == again and dumps(made) == dumps(again) and repr(made) == repr(again)
    assert made.states == rows and all(type(s) is State for s in again.states)
    assert made.state("g") == state and type(again.state("g")) is State
    assert made.outcome("g") == "x"
    for other in (
        RightsStructure(rows[::-1], gamma, {("g", "x"): "r"}),
        RightsStructure(rows, gamma),
        RightsStructure(rows, {**gamma, ("x", "y"): [[1]]}, {("g", "x"): "r"}),
        RightsStructure(rows[:2] + (("g", "x", "graph", "Rp"),), gamma, {("g", "x"): "r"}),
    ):
        assert other != made and dumps(other) != dumps(made)
    assert made != rows and made != dict(made.gamma)


def test_two_step_path_out_of_a_chosen_base_state():
    # chosen outcome a is nobody's unanimous top: the escape from its base
    # state runs through a detour (agent 1 moves a -> b, agent 0 re-enters
    # the chosen state), and that detour is the shortest path
    from rotakit.constructors import build_thm1_structure, graph_state_key
    from rotakit.model import SocialChoiceRule

    profile = Profile.from_orders("R", ("a", "b"), [["a", "b"], ["b", "a"]])
    scr = SocialChoiceRule((profile,), {"R": {"a"}})
    structure = build_thm1_structure(scr)
    env = SocialEnvironment(structure, profile)
    target = graph_state_key("a", "R")
    path = find_myopic_improvement_path(env, "a", {target})
    assert path is not None
    assert path.states == ("a", "b", target)
    assert [s.coalition for s in path.steps] == [frozenset([1]), frozenset([0])]
