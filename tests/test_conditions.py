import random

import pytest

from instances import random_scr
from rotakit.conditions import (
    OrderingWitness,
    check_indirect_monotonicity,
    check_maskin_monotonicity,
    check_property_m,
    check_rotation_monotonicity,
    coerce_orderings,
    find_shared_ordering,
    rotation_certificates,
    verify_rotation_monotonicity_with,
)
from rotakit.model import (
    CapExceeded,
    InputError,
    Profile,
    SocialChoiceRule,
    lower_contour_set,
)

ALTS = ("x", "y", "z")


@pytest.fixture
def majority_like_scr():
    """F(R) = everything, F(R') = {z}; y never falls, so monotonicity breaks."""
    r = Profile.from_orders("R", ALTS, [["z", "y", "x"], ["x", "z", "y"], ["y", "x", "z"]])
    rp = Profile.from_orders("Rp", ALTS, [["z", "y", "x"], ["z", "y", "x"], ["y", "z", "x"]])
    return SocialChoiceRule((r, rp), {"R": {"x", "y", "z"}, "Rp": {"z"}})


@pytest.fixture
def chain_scr():
    """Two outcomes at R, a singleton at R' reachable only through the chain
    branch of Property M: b never falls, yet F(R') = {a}."""
    alts = ("a", "b", "c")
    r = Profile.from_orders("R", alts, [["a", "b", "c"], ["b", "a", "c"]])
    rp = Profile.from_ranks("Rp", alts, [(0, 1, 2), (0, 0, 1)])
    return SocialChoiceRule((r, rp), {"R": {"a", "b"}, "Rp": {"a"}})


def test_maskin_constant_rule_ok(xyz_profiles):
    r, rp = xyz_profiles
    scr = SocialChoiceRule((r, rp), {"R": {"x"}, "Rp": {"x"}})
    assert check_maskin_monotonicity(scr)


def test_maskin_xyz_rule_ok(xyz_scr):
    assert check_maskin_monotonicity(xyz_scr)


def test_maskin_counterexample(majority_like_scr):
    verdict = check_maskin_monotonicity(majority_like_scr)
    assert not verdict
    assert verdict.counterexample == ("R", "Rp", "y")


def test_indirect_xyz_rule_ok(xyz_scr):
    assert check_indirect_monotonicity(xyz_scr)


def test_indirect_monotone_single_valued_ok():
    r = Profile.from_orders("R", ALTS, [["x", "y", "z"], ["x", "z", "y"]])
    rp = Profile.from_orders("Rp", ALTS, [["y", "x", "z"], ["y", "z", "x"]])
    scr = SocialChoiceRule((r, rp), {"R": {"x"}, "Rp": {"y"}})
    assert check_maskin_monotonicity(scr)
    assert check_indirect_monotonicity(scr)


def test_indirect_violated(majority_like_scr):
    verdict = check_indirect_monotonicity(majority_like_scr)
    assert not verdict
    assert verdict.failing == ("R", "Rp", "y")


def test_indirect_witnesses_reverify():
    rng = random.Random(31)
    seen = 0
    while seen < 10:
        scr = random_scr(rng, n_alternatives=4, n_agents=3, n_profiles=3)
        verdict = check_indirect_monotonicity(scr)
        if not verdict:
            continue
        for w in verdict.witnesses:
            seen += 1
            r, rp = scr.profile(w.profile_id), scr.profile(w.other_id)
            assert w.path[0] == w.outcome and w.path[-1] != w.outcome
            assert set(w.path) <= scr.choice(w.profile_id)
            for (a, b), agent in zip(zip(w.path, w.path[1:]), w.step_agents):
                assert rp.strictly_prefers(agent, b, a)
            zh = w.path[-1]
            assert not lower_contour_set(r, w.reversal_agent, zh) <= lower_contour_set(
                rp, w.reversal_agent, zh
            )


def test_rotation_xyz_both_orderings_fail(xyz_scr):
    verdict = check_rotation_monotonicity(xyz_scr)
    assert not verdict
    (obstruction,) = verdict.obstructions
    assert obstruction.profile_id == "R"
    assert {f[0] for f in obstruction.failures} == {("x", "y", "z"), ("x", "z", "y")}


def test_rotation_certificates_reverify(marriage_market_problems):
    from rotakit.domains import marriage_optimal_scr, optimal_orderings

    scr = marriage_optimal_scr(marriage_market_problems)
    witness = optimal_orderings(marriage_market_problems)
    verdict = verify_rotation_monotonicity_with(scr, witness)
    assert verdict
    # re-verify one certificate against the raw definitions
    r, rp = scr.profile("R"), scr.profile("Rp")
    certs = rotation_certificates(scr, r, witness.orderings["R"], rp)
    for start, cert in zip(witness.orderings["R"], certs):
        assert cert is not None and cert.start == start
        pos = start
        for nxt, agent in cert.chain:
            assert rp.strictly_prefers(agent, nxt, pos)
            pos = nxt
        assert pos == cert.reversal_outcome
        assert r.weakly_prefers(cert.reversal_agent, pos, cert.reversal_alt)
        assert rp.strictly_prefers(cert.reversal_agent, cert.reversal_alt, pos)


def test_rotation_cap_exceeded():
    alts = tuple(f"a{i}" for i in range(4))
    p = Profile.from_orders("R", alts, [list(alts), list(reversed(alts))])
    scr = SocialChoiceRule((p,), {"R": set(alts)})
    with pytest.raises(CapExceeded):
        check_rotation_monotonicity(scr, cap=3)


def test_rotation_single_profile_vacuous():
    p = Profile.from_orders("R", ALTS, [["x", "y", "z"], ["z", "y", "x"]])
    scr = SocialChoiceRule((p,), {"R": {"x", "z"}})
    verdict = check_rotation_monotonicity(scr)
    assert verdict
    assert verdict.witness.orderings["R"] == ("x", "z")


def test_property_m_vacuous_when_multi_valued(xyz_scr):
    witness = OrderingWitness({"R": ("x", "y", "z"), "Rp": ("x", "y")})
    assert check_property_m(xyz_scr, witness)


def test_property_m_chain_branch(chain_scr):
    witness = OrderingWitness({"R": ("a", "b"), "Rp": ("a",)})
    r, rp = chain_scr.profile("R"), chain_scr.profile("Rp")
    # the rotation certificate for b genuinely fails, forcing the chain branch
    assert rotation_certificates(chain_scr, r, ("a", "b"), rp)[1] is None
    assert check_property_m(chain_scr, witness)


def test_property_m_failure_detected():
    # make the singleton's lower-contour condition fail: c sits above the
    # successor at R' for agent 2
    alts = ("a", "b", "c")
    r = Profile.from_orders("R", alts, [["a", "b", "c"], ["b", "a", "c"]])
    rp = Profile.from_orders("Rp", alts, [["a", "b", "c"], ["a", "c", "b"]])
    scr = SocialChoiceRule((r, rp), {"R": {"a", "b"}, "Rp": {"a"}})
    witness = OrderingWitness({"R": ("a", "b"), "Rp": ("a",)})
    certs = rotation_certificates(scr, r, ("a", "b"), rp)
    if certs[1] is None:  # only then does the second branch matter
        verdict = check_property_m(scr, witness)
        assert not verdict


def test_property_m_bad_ordering_rejected(xyz_scr):
    with pytest.raises(InputError):
        check_property_m(xyz_scr, OrderingWitness({"R": ("x", "y"), "Rp": ("x", "y")}))
    with pytest.raises(InputError):
        check_property_m(xyz_scr, OrderingWitness({"R": ("x", "y", "z")}))


def test_coerce_orderings_accepts_mappings(xyz_scr):
    table = coerce_orderings(xyz_scr, {"R": ["x", "y", "z"], "Rp": ["y", "x"]})
    assert table["Rp"] == ("y", "x")


def test_find_shared_ordering_xyz_none(xyz_scr):
    assert find_shared_ordering(xyz_scr) is None


def test_find_shared_ordering_chain_instance(chain_scr):
    witness = find_shared_ordering(chain_scr)
    assert witness is not None
    assert witness.orderings["R"] == ("a", "b")
    assert witness.orderings["Rp"] == ("a",)


def test_find_shared_ordering_multi_valued_equals_rotation_search():
    rng = random.Random(59)
    for _ in range(25):
        scr = random_scr(rng, n_alternatives=4, n_agents=3, n_profiles=2, multi_valued=True)
        rot = check_rotation_monotonicity(scr)
        shared = find_shared_ordering(scr)
        assert rot.ok == (shared is not None)
        if shared is not None:
            assert verify_rotation_monotonicity_with(scr, shared)
            assert check_property_m(scr, shared)


@pytest.mark.parametrize("n_agents, n_alternatives", [(1, 3), (3, 1)])
def test_random_multi_valued_scr_refuses_impossible_sizes(n_agents, n_alternatives):
    # every linear profile then has a one-outcome frontier, which no redraw can fix
    rng = random.Random(5)
    with pytest.raises(InputError, match="multi-valued SCR needs at least 2 agents"):
        random_scr(rng, n_alternatives, n_agents, 2, multi_valued=True)
    assert rng.getstate() == random.Random(5).getstate(), "nothing may be drawn first"


def test_maskin_implies_indirect_on_random_rules():
    rng = random.Random(71)
    checked = 0
    for _ in range(120):
        scr = random_scr(
            rng,
            n_alternatives=rng.randint(2, 4),
            n_agents=rng.randint(2, 4),
            n_profiles=rng.randint(2, 3),
        )
        if check_maskin_monotonicity(scr):
            checked += 1
            assert check_indirect_monotonicity(scr)
    assert checked >= 10


def test_rotation_multi_valued_implies_indirect_on_random_rules():
    rng = random.Random(73)
    checked = 0
    for _ in range(120):
        scr = random_scr(rng, n_alternatives=4, n_agents=3, n_profiles=2, multi_valued=True)
        if check_rotation_monotonicity(scr):
            checked += 1
            assert check_indirect_monotonicity(scr)
    assert checked >= 10


def test_rotation_singleton_outside_choice_triggers_and_passes():
    # F(R') is a singleton not chosen at R: the trigger fires and both chosen
    # outcomes certify through direct reversals (the new top outranks them)
    alts = ("a", "b", "c")
    r = Profile.from_orders("R", alts, [["a", "b", "c"], ["b", "a", "c"]])
    rp = Profile.from_orders("Rp", alts, [["c", "a", "b"], ["c", "b", "a"]])
    scr = SocialChoiceRule((r, rp), {"R": {"a", "b"}, "Rp": {"c"}})
    verdict = check_rotation_monotonicity(scr)
    assert verdict
    shared = find_shared_ordering(scr)
    assert shared is not None
    from rotakit.constructors import (
        build_thm4_structure,
        verify_implementation_in_rotation_programs,
    )

    structure = build_thm4_structure(scr, shared)
    assert verify_implementation_in_rotation_programs(structure, scr).ok


def test_rotation_singleton_outside_choice_can_violate():
    # neither chosen outcome falls, no walk reaches a reversal, yet the rule
    # moves to a singleton outside the chosen set: the condition fails
    alts = ("a", "b", "c")
    r = Profile.from_orders("R", alts, [["a", "b", "c"], ["b", "a", "c"], ["c", "a", "b"]])
    rp = Profile.from_ranks("Rp", alts, [(0, 1, 1), (1, 0, 2), (1, 2, 0)])
    scr = SocialChoiceRule((r, rp), {"R": {"a", "b"}, "Rp": {"c"}})
    from rotakit.model import check_efficiency

    assert check_efficiency(scr)
    verdict = check_rotation_monotonicity(scr)
    assert not verdict
    assert verdict.obstructions[0].profile_id == "R"
