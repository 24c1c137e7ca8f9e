import random

import pytest

from instances import random_scr
from rotakit.conditions import OrderingWitness, find_shared_ordering
from rotakit.constructors import (
    RULE1,
    RULE2,
    RULE3,
    RULE4,
    build_thm1_structure,
    build_thm4_structure,
    compute_diagnostic_sets,
    graph_state_key,
    verify_implementation_in_mss,
    verify_implementation_in_rotation_programs,
)
from rotakit.model import InputError, Profile, SocialChoiceRule, lower_contour_set
from rotakit.rights import GRAPH, SocialEnvironment, build_improvement_digraph
from rotakit.solvers import compute_mss
from rotakit.conditions import check_indirect_monotonicity


def test_thm1_single_alternative_single_profile():
    p = Profile.from_orders("R", ("x",), [["x"], ["x"]])
    scr = SocialChoiceRule((p,), {"R": {"x"}})
    structure = build_thm1_structure(scr)
    assert len(structure.states) == 2
    env = SocialEnvironment(structure, p)
    mss = compute_mss(env)
    assert set(mss.sets[0]) == {graph_state_key("x", "R"), "x"}
    assert mss.outcome_set == {"x"}


def test_thm1_xyz_states_and_verification(xyz_scr):
    structure = build_thm1_structure(xyz_scr)
    assert len(structure.states) == 8  # 5 graph states + 3 alternatives
    report = verify_implementation_in_mss(structure, xyz_scr)
    assert report.ok
    assert {v.profile_id: v.ok for v in report.per_profile} == {"R": True, "Rp": True}


def test_rules_are_mutually_exclusive_and_exhaustive(xyz_scr):
    structure = build_thm1_structure(xyz_scr)
    graph_keys = {s.key for s in structure.states if s.kind == GRAPH}
    profile_of = {s.key: s.profile_id for s in structure.states}
    for a in structure.keys():
        for b in structure.keys():
            if a == b:
                continue
            rule = structure.provenance.get((a, b))
            fam = structure.gamma.get((a, b))
            if a in graph_keys and b in graph_keys:
                if profile_of[a] == profile_of[b]:
                    assert rule == RULE1 and fam
                else:
                    assert rule is None and fam is None  # rule 5: empty
            elif a in graph_keys:
                assert rule == RULE2 and fam
            elif b in graph_keys:
                assert rule == RULE3 and fam
            else:
                assert rule == RULE4 and fam


def test_rule2_grants_per_lower_contour(xyz_scr):
    structure = build_thm1_structure(xyz_scr)
    r = xyz_scr.profile("R")
    for z in xyz_scr.choice("R"):
        key = graph_state_key(z, "R")
        for x in xyz_scr.alternatives:
            fam = structure.gamma.get((key, x), frozenset())
            agents = {i for k in fam for i in k}
            expected = {i for i in range(3) if x in lower_contour_set(r, i, z)}
            assert agents == expected
        # the self exit is granted to everyone
        assert structure.gamma[(key, z)] == frozenset(frozenset([i]) for i in range(3))


def test_thm4_rule1_follows_the_ordering():
    alts = ("a", "b", "c")
    r = Profile.from_orders("R", alts, [["a", "b", "c"], ["b", "c", "a"], ["c", "a", "b"]])
    scr = SocialChoiceRule((r,), {"R": {"a", "b", "c"}})
    witness = OrderingWitness({"R": ("a", "c", "b")})
    structure = build_thm4_structure(scr, witness)
    rule1 = {pair for pair, rule in structure.provenance.items() if rule == RULE1}
    k = lambda z: graph_state_key(z, "R")
    assert rule1 == {(k("a"), k("c")), (k("c"), k("b")), (k("b"), k("a"))}


def test_thm4_singleton_choice_has_no_rule1():
    p = Profile.from_orders("R", ("x", "y"), [["x", "y"], ["x", "y"]])
    scr = SocialChoiceRule((p,), {"R": {"x"}})
    structure = build_thm4_structure(scr, OrderingWitness({"R": ("x",)}))
    assert RULE1 not in structure.provenance.values()
    assert verify_implementation_in_rotation_programs(structure, scr).ok


def test_thm4_requires_orderings_for_every_profile(xyz_scr):
    with pytest.raises(InputError):
        build_thm4_structure(xyz_scr, OrderingWitness({"R": ("x", "y", "z")}))
    with pytest.raises(InputError):
        build_thm4_structure(
            xyz_scr, OrderingWitness({"R": ("x", "y"), "Rp": ("x", "y")})
        )


def test_diagnostic_sets_u_empty_without_unanimous_top(xyz_scr):
    structure = build_thm1_structure(xyz_scr)
    diag = compute_diagnostic_sets(structure, xyz_scr, xyz_scr.profile("R"))
    assert diag.u_states == ()
    assert set(diag.m_states) == {graph_state_key(z, "R") for z in ("x", "y", "z")}


def test_diagnostic_sets_unanimous_top():
    p = Profile.from_orders("R", ("x", "y"), [["x", "y"], ["x", "y"]])
    scr = SocialChoiceRule((p,), {"R": {"x"}})
    structure = build_thm1_structure(scr)
    diag = compute_diagnostic_sets(structure, scr, p)
    assert diag.u_states == ("x",)


def test_mss_equals_diagnostic_union_on_xyz_rule(xyz_scr):
    structure = build_thm1_structure(xyz_scr)
    for p in xyz_scr.profiles:
        diag = compute_diagnostic_sets(structure, xyz_scr, p)
        mss = compute_mss(SocialEnvironment(structure, p))
        assert diag.union == mss.states


def test_diagnostic_escape_and_deterrence_on_random_structures():
    from rotakit.rights import can_reach

    rng = random.Random(97)
    accepted = 0
    while accepted < 25:
        scr = random_scr(rng, n_alternatives=3, n_agents=3, n_profiles=2)
        if not check_indirect_monotonicity(scr):
            continue
        accepted += 1
        structure = build_thm1_structure(scr)
        for p in scr.profiles:
            env = SocialEnvironment(structure, p)
            dg = build_improvement_digraph(env)
            diag = compute_diagnostic_sets(structure, scr, p)
            targets = diag.m_states + diag.u_states
            escapers = can_reach(dg, targets)
            # every alternative outside the unanimous-top set reaches the target set
            for s in structure.states:
                if s.kind != GRAPH and s.key not in diag.u_states:
                    assert s.key in escapers
            # stuck states map into the choice set and admit no improving exit
            for rp_id, stuck in diag.q_by_profile.items():
                for key in stuck:
                    assert structure.outcome(key) in scr.choice(p.id)
                    assert all(t in stuck for t in dg.targets(key))


def test_verifier_reports_inefficient_rule():
    p = Profile.from_orders("R", ("x", "y"), [["x", "y"], ["x", "y"]])
    scr = SocialChoiceRule((p,), {"R": {"y"}})  # dominated choice
    structure = build_thm1_structure(scr)
    report = verify_implementation_in_mss(structure, scr)
    assert not report.ok
    (verdict,) = report.per_profile
    assert verdict.profile_id == "R"
    assert "x" in verdict.extra or "y" in verdict.missing


def test_verifier_names_the_chosen_outcomes_the_mss_misses():
    p = Profile.from_orders("R", ("x", "y"), [["x", "y"], ["y", "x"]])
    structure = build_thm1_structure(SocialChoiceRule((p,), {"R": {"x"}}))
    report = verify_implementation_in_mss(structure, SocialChoiceRule((p,), {"R": {"x", "y"}}))
    (verdict,) = report.per_profile
    assert not report.ok and not verdict.ok
    assert verdict.missing == {"y"} and verdict.extra == frozenset()


def test_hand_structure_implements_mss_but_not_rotation(
    xyz_structure, xyz_scr
):
    report = verify_implementation_in_mss(xyz_structure, xyz_scr)
    assert report.ok
    rotation = verify_implementation_in_rotation_programs(xyz_structure, xyz_scr)
    assert not rotation.ok
    assert not rotation.partitions["R"].ok
    assert rotation.partitions["Rp"].ok


def test_thm4_chain_instance_end_to_end():
    alts = ("a", "b", "c")
    r = Profile.from_orders("R", alts, [["a", "b", "c"], ["b", "a", "c"]])
    rp = Profile.from_ranks("Rp", alts, [(0, 1, 2), (0, 0, 1)])
    scr = SocialChoiceRule((r, rp), {"R": {"a", "b"}, "Rp": {"a"}})
    witness = find_shared_ordering(scr)
    assert witness is not None
    structure = build_thm4_structure(scr, witness)
    report = verify_implementation_in_rotation_programs(structure, scr)
    assert report.ok
    # at Rp everything collapses onto singleton blocks with outcome a
    for block in report.partitions["Rp"].blocks:
        assert {structure.outcome(s) for s in block} == {"a"}


def test_thm4_duplicate_content_profiles_partition_into_parallel_blocks():
    # two profiles with identical preferences under different ids: neither
    # tagged cycle can escape at the other profile, so the MSS carries two
    # parallel rotation programs over the same outcome pair
    alts = ("a", "b")
    r1 = Profile.from_orders("R1", alts, [["a", "b"], ["b", "a"]])
    r2 = Profile.from_orders("R2", alts, [["a", "b"], ["b", "a"]])
    scr = SocialChoiceRule((r1, r2), {"R1": {"a", "b"}, "R2": {"a", "b"}})
    witness = find_shared_ordering(scr)
    assert witness is not None
    structure = build_thm4_structure(scr, witness)
    report = verify_implementation_in_rotation_programs(structure, scr)
    assert report.ok
    for pid in ("R1", "R2"):
        blocks = report.partitions[pid].blocks
        assert len(blocks) == 2
        assert all(len(block) == 2 for block in blocks)
        diag = compute_diagnostic_sets(structure, scr, scr.profile(pid))
        other = "R2" if pid == "R1" else "R1"
        assert set(diag.q_by_profile[other]) == {
            graph_state_key(a, other) for a in alts
        }
