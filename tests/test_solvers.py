import os
import pathlib
import random
import subprocess
import sys
from itertools import product

import pytest

from instances import random_environment
from oracles import brute_force_mss, dfs_reachable, digraph_adjacency
import rotakit
from rotakit.model import InputError, Profile
from rotakit.rights import (
    RightsStructure,
    SocialEnvironment,
    State,
    build_improvement_digraph,
)
from rotakit.solvers import (
    compute_absorbing_sets,
    compute_core,
    compute_generalized_stable_sets,
    compute_mss,
    is_rotation_program,
    partition_into_rotation_programs,
)


def _cycle_env(cycles, n_states, extra=()):
    """Improving cycles realised with one agent per cycle position via many
    agents: agent k strictly prefers the (k+1)-th state of its cycle."""
    keys = [f"s{i}" for i in range(n_states)]
    states = tuple(State(k, k) for k in keys)
    gamma = {}
    rows = []
    agent = 0
    for cyc in cycles:
        for i, a in enumerate(cyc):
            b = cyc[(i + 1) % len(cyc)]
            gamma[(keys[a], keys[b])] = frozenset([frozenset([agent])])
            row = [1] * n_states
            row[b] = 0
            rows.append(row)
            agent += 1
    for a, b in extra:
        gamma[(keys[a], keys[b])] = frozenset([frozenset([agent])])
        row = [1] * n_states
        row[b] = 0
        rows.append(row)
        agent += 1
    profile = Profile.from_ranks("R", tuple(keys), rows)
    return SocialEnvironment(RightsStructure(states, gamma), profile)


def test_core_empty_gamma_is_everything():
    states = tuple(State(f"s{i}", f"s{i}") for i in range(4))
    profile = Profile.from_orders("R", tuple(s.key for s in states), [[s.key for s in states]])
    env = SocialEnvironment(RightsStructure(states, {}), profile)
    assert set(compute_core(env).sets[0]) == {s.key for s in states}


def test_core_two_cycle_is_empty():
    env = _cycle_env([(0, 1)], 2)
    assert compute_core(env).sets[0] == ()


def test_absorbing_dag_sinks():
    env = _cycle_env([], 4, extra=[(0, 1), (1, 2), (0, 3)])
    blocks = compute_absorbing_sets(env)
    assert blocks == (("s2",), ("s3",))


def test_absorbing_two_disjoint_three_cycles():
    env = _cycle_env([(0, 1, 2), (3, 4, 5)], 6)
    blocks = compute_absorbing_sets(env)
    assert [set(b) for b in blocks] == [{"s0", "s1", "s2"}, {"s3", "s4", "s5"}]


def test_mss_single_state():
    states = (State("s0", "s0"),)
    profile = Profile.from_orders("R", ("s0",), [["s0"]])
    env = SocialEnvironment(RightsStructure(states, {}), profile)
    report = compute_mss(env)
    assert report.sets[0] == ("s0",)


def test_mss_of_constructed_xyz_structure(xyz_scr):
    from rotakit.constructors import build_thm1_structure

    structure = build_thm1_structure(xyz_scr)
    env = SocialEnvironment(structure, xyz_scr.profile("Rp"))
    assert compute_mss(env).outcome_set == {"x", "y"}


def test_mss_matches_subset_oracle_on_random_six_state_environments():
    rng = random.Random(23)
    for _ in range(50):
        env = random_environment(rng, n_states=6, n_agents=rng.randint(1, 4))
        dg = build_improvement_digraph(env)
        assert compute_mss(env, dg).states == brute_force_mss(dg)


def test_mss_minimality_up_to_ten_states():
    # the oracle searches subsets smallest-first, so agreement proves both
    # properties and minimality at once
    rng = random.Random(37)
    for _ in range(10):
        env = random_environment(rng, n_states=rng.randint(9, 10), n_agents=3)
        dg = build_improvement_digraph(env)
        assert compute_mss(env, dg).states == brute_force_mss(dg)


def test_mss_witness_paths_and_deterrence():
    rng = random.Random(5)
    env = random_environment(rng, n_states=7, n_agents=2)
    dg = build_improvement_digraph(env)
    report = compute_mss(env, dg)
    members = report.states
    adj = digraph_adjacency(dg)
    assert all(adj[s] <= set(members) for s in members)
    for s, states in report.witness["external_paths"].items():
        assert states[0] == s and states[-1] in members


def test_generalized_stable_sets_selects_one_per_absorbing_set():
    env = _cycle_env([(0, 1)], 4, extra=[(2, 0), (2, 3), (3, 2)])
    # absorbing sets: {s0, s1} and ... s2<->s3 cycle has an exit 2->0, so only
    # sinks remain; recompute from the solver itself for the ground truth
    blocks = compute_absorbing_sets(env)
    vsets = compute_generalized_stable_sets(env)
    assert {frozenset(v) for v in vsets} <= {
        frozenset(pick) for pick in product(*blocks)
    }
    union = {s for v in vsets for s in v}
    assert union == {s for b in blocks for s in b}


def test_generalized_stable_sets_dag_two_sinks():
    env = _cycle_env([], 3, extra=[(0, 1), (0, 2)])
    assert compute_generalized_stable_sets(env) == (("s1", "s2"),)


def test_generalized_stable_sets_empty_gamma():
    states = tuple(State(f"s{i}", f"s{i}") for i in range(3))
    profile = Profile.from_orders("R", ("s0", "s1", "s2"), [["s0", "s1", "s2"]])
    env = SocialEnvironment(RightsStructure(states, {}), profile)
    assert compute_generalized_stable_sets(env) == (("s0", "s1", "s2"),)


def test_generalized_stable_sets_internal_external_direct():
    rng = random.Random(40)
    for _ in range(25):
        env = random_environment(rng, n_states=rng.randint(2, 7), n_agents=2)
        dg = build_improvement_digraph(env)
        adj = digraph_adjacency(dg)
        for v in compute_generalized_stable_sets(env, dg):
            vs = set(v)
            for s in vs:
                for t in vs:
                    if s != t:
                        assert t not in dfs_reachable(adj, s)
            for s in dg.nodes:
                if s not in vs:
                    assert dfs_reachable(adj, s) & vs


def test_rotation_program_singleton():
    states = (State("a", "a"), State("b", "b"))
    profile = Profile.from_orders("R", ("a", "b"), [["a", "b"]])
    env = SocialEnvironment(RightsStructure(states, {}), profile)
    assert is_rotation_program(env, ["a"])
    # with an improving exit the singleton fails clause (ii)
    env2 = SocialEnvironment(
        RightsStructure(states, {("a", "b"): frozenset([frozenset([0])])}),
        Profile.from_orders("R", ("a", "b"), [["b", "a"]]),
    )
    verdict = is_rotation_program(env2, ["a"])
    assert not verdict and verdict.clause == "ii"


def test_rotation_program_xyz_order_fails(xyz_structure, xyz_profiles):
    r, _ = xyz_profiles
    env = SocialEnvironment(xyz_structure, r)
    verdict = is_rotation_program(env, ["x", "y", "z"])
    assert not verdict
    assert verdict.clause in ("ii", "iii")


def test_rotation_program_two_cycle_passes():
    env = _cycle_env([(0, 1)], 2)
    assert is_rotation_program(env, ["s0", "s1"])


def test_rotation_program_clause_iii_missing_step():
    # a -> b improves for agent 0, but b has no improving move back to a
    states = (State("a", "a"), State("b", "b"))
    profile = Profile.from_orders("R", ("a", "b"), [["b", "a"]])
    gamma = {("a", "b"): frozenset([frozenset([0])])}
    env = SocialEnvironment(RightsStructure(states, gamma), profile)
    verdict = is_rotation_program(env, ["a", "b"])
    assert not verdict and verdict.clause == "iii"
    assert verdict.detail == "no entitled improvement b -> a"


def test_rotation_program_clause_i_repeated_outcome():
    states = (State("a", "z"), State("b", "z"))
    profile = Profile.from_orders("R", ("z",), [["z"]])
    env = SocialEnvironment(RightsStructure(states, {}), profile)
    verdict = is_rotation_program(env, ["a", "b"])
    assert not verdict and verdict.clause == "i"


def test_rotation_program_backward_direction_flag():
    # one agent prefers s1 over s0; entitlements both ways
    keys = ("s0", "s1")
    states = tuple(State(k, k) for k in keys)
    gamma = {
        ("s0", "s1"): frozenset([frozenset([0])]),
        ("s1", "s0"): frozenset([frozenset([1])]),
    }
    profile = Profile.from_ranks("R", keys, [(1, 0), (0, 1)])
    env = SocialEnvironment(RightsStructure(states, gamma), profile)
    assert is_rotation_program(env, keys, forward=True)
    # the backward reading wants an entitled coalition preferring the source
    assert not is_rotation_program(env, keys, forward=False)


def test_rotation_program_input_errors(xyz_structure, xyz_profiles):
    r, _ = xyz_profiles
    env = SocialEnvironment(xyz_structure, r)
    with pytest.raises(InputError):
        is_rotation_program(env, ["x", "x"])
    with pytest.raises(InputError):
        is_rotation_program(env, [])
    with pytest.raises(InputError):
        is_rotation_program(env, ["nope"])


def test_partition_failure_reports_witness(xyz_structure, xyz_profiles):
    r, _ = xyz_profiles
    env = SocialEnvironment(xyz_structure, r)
    mss = compute_mss(env)
    result = partition_into_rotation_programs(env, mss.states)
    assert not result.ok
    assert result.witness_state == "x"


def test_partition_singleton_mss():
    env = _cycle_env([], 2, extra=[(1, 0)])
    mss = compute_mss(env)
    result = partition_into_rotation_programs(env, mss.states)
    assert result.ok and result.blocks == (("s0",),)


def test_partition_two_cycles_same_outcomes():
    # two 2-cycles over outcome pairs {z0, z1}
    keys = ("a", "b", "c", "d")
    states = (State("a", "z0"), State("b", "z1"), State("c", "z0"), State("d", "z1"))
    gamma = {}
    rows = []
    for agent, (src, dst) in enumerate([("a", "b"), ("b", "a"), ("c", "d"), ("d", "c")]):
        gamma[(src, dst)] = frozenset([frozenset([agent])])
    alts = ("z0", "z1")
    rows = [(1, 0), (0, 1), (1, 0), (0, 1)]
    profile = Profile.from_ranks("R", alts, rows)
    env = SocialEnvironment(RightsStructure(states, gamma), profile)
    mss = compute_mss(env)
    assert mss.states == {"a", "b", "c", "d"}
    result = partition_into_rotation_programs(env, mss.states)
    assert result.ok
    assert [set(b) for b in result.blocks] == [{"a", "b"}, {"c", "d"}]


def test_partition_rejects_blocks_with_different_outcomes():
    env = _cycle_env([(0, 1)], 3)  # s2 isolated singleton, different outcome
    mss = compute_mss(env)
    result = partition_into_rotation_programs(env, mss.states)
    assert not result.ok
    assert "different outcome" in result.reason


def test_core_is_subset_of_mss_random():
    rng = random.Random(8)
    for _ in range(30):
        env = random_environment(rng, n_states=rng.randint(1, 8), n_agents=rng.randint(1, 3))
        dg = build_improvement_digraph(env)
        core = set(compute_core(env, dg).sets[0])
        assert core <= set(compute_mss(env, dg).states)


_UNKNOWN_STATES = """
from rotakit.model import InputError, Profile
from rotakit.rights import RightsStructure, SocialEnvironment, State, find_myopic_improvement_path
from rotakit.solvers import partition_into_rotation_programs

profile = Profile.from_orders("R", ("x", "y"), [["x", "y"]])
env = SocialEnvironment(RightsStructure((State("x", "x"), State("y", "y")), {}), profile)
unknown = ["q1", "q2", "q3", "q4"]
for call in (lambda: partition_into_rotation_programs(env, unknown),
             lambda: find_myopic_improvement_path(env, "x", unknown)):
    try:
        call()
    except InputError as exc:
        print(exc)
"""


def test_of_several_unknown_states_the_callers_first_is_named():
    """The partition and the myopic path search name the first unknown state in the order
    given, whatever the string hash seed: a walk over a set of them named one by its hash."""
    src = str(pathlib.Path(rotakit.__file__).parents[1])
    for seed in ("1", "2", "6"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        run = subprocess.run(
            [sys.executable, "-c", _UNKNOWN_STATES], env=env, capture_output=True, text=True
        )
        assert (run.returncode, run.stdout.splitlines()) == (0, ["unknown state 'q1'"] * 2)
