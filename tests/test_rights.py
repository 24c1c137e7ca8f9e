import random

import pytest

from oracles import dfs_reachable, digraph_adjacency
from rotakit.generators import random_environment
from rotakit.model import InputError, Profile
from rotakit.rights import (
    RightsStructure,
    SocialEnvironment,
    State,
    build_improvement_digraph,
    find_myopic_improvement_path,
)

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
    refusals = [
        (lambda: RightsStructure((), {}), ("states",)),
        (lambda: RightsStructure(states + (State("b", "c"),), {}), ("states", 3, "key")),
        (lambda: RightsStructure(states, {("a", "q"): one}), ("gamma", ("a", "q"), "to")),
        (lambda: RightsStructure(states, {("q", "a"): one}), ("gamma", ("q", "a"), "from")),
        (lambda: RightsStructure(states, {("b", "b"): one}), ("gamma", ("b", "b"), "to")),
        (lambda: SocialEnvironment(xyz_structure, no_z), ("rights", "states", 2, "outcome")),
    ]
    for build, where in refusals:
        with pytest.raises(InputError) as err:
            build()
        assert err.value.where == where and err.value.path is None
    two_agent = Profile.from_orders("B", ALTS, [["x", "y", "z"], ["x", "y", "z"]])
    with pytest.raises(InputError) as err:
        SocialEnvironment(xyz_structure, two_agent)
    # the first gamma pair, in declaration order, whose family holds agent 2
    assert err.value.where == ("rights", "gamma", ("x", "y"), "coalitions")
    assert err.value.value == 2


def test_is_individual_based(xyz_structure):
    assert not xyz_structure.is_individual_based()
    states = tuple(State(k, k) for k in ("a", "b"))
    solo = RightsStructure(states, {("a", "b"): frozenset([frozenset([1])])})
    assert solo.is_individual_based()


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
