import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotakit.conditions import check_rotation_monotonicity
from rotakit.domains.housing import Economy, house_allocations
from rotakit.domains.jobs import JobRotationProblem, build_phi, extend_job_preferences
from rotakit.domains.marriage import all_matchings
from rotakit.generators import random_marriage_problem
from rotakit.model import (
    CapExceeded,
    InputError,
    Preference,
    Profile,
    SocialChoiceRule,
    check_efficiency,
    dominates,
    is_monotonic_transformation,
    lower_contour_set,
    pareto_frontier,
    validate_domain_restriction,
)
from rotakit.rights import RightsStructure, SocialEnvironment, State
from rotakit.solvers import compute_generalized_stable_sets

ALTS = ("x", "y", "z")


def test_lower_contour_middle_alternative(xyz_profiles):
    r, _ = xyz_profiles
    assert lower_contour_set(r, 2, "z") == {"z", "x"}


def test_lower_contour_top_is_everything(xyz_profiles):
    r, _ = xyz_profiles
    assert lower_contour_set(r, 0, "x") == set(ALTS)


def test_lower_contour_total_indifference():
    p = Profile.from_ranks("T", ALTS, [[0, 0, 0]])
    for a in ALTS:
        assert lower_contour_set(p, 0, a) == set(ALTS)


@given(st.permutations(list(range(5))))
def test_lower_contour_linear_sizes(ranks):
    alts = tuple(f"a{i}" for i in range(5))
    p = Profile.from_ranks("L", alts, [ranks])
    for a in alts:
        assert len(lower_contour_set(p, 0, a)) == 5 - p.rank(0, a)


@given(st.lists(st.integers(0, 3), min_size=4, max_size=4))
@settings(max_examples=60)
def test_lower_contour_contains_its_argument(ranks):
    alts = tuple(f"a{i}" for i in range(4))
    p = Profile.from_ranks("W", alts, [ranks])
    for a in alts:
        assert a in lower_contour_set(p, 0, a)


@given(st.lists(st.lists(st.integers(0, 3), min_size=4, max_size=4), min_size=1, max_size=3))
@settings(max_examples=60)
def test_contour_masks_are_lower_contours_in_sorted_id_order(rows):
    alts = ("c", "a", "d", "b")  # declared out of sorted-id order
    p = Profile.from_ranks("W", alts, rows)
    assert "contour_masks" not in vars(p), "built on first read, not with the profile"
    ordered = sorted(alts)
    for i, masks in enumerate(p.contour_masks):
        for j, x in enumerate(ordered):
            members = {a for k, a in enumerate(ordered) if masks[j] >> k & 1}
            assert members == lower_contour_set(p, i, x)


def test_lower_contour_unknowns_rejected(xyz_profiles):
    r, _ = xyz_profiles
    with pytest.raises(InputError):
        lower_contour_set(r, 0, "w")
    with pytest.raises(InputError):
        lower_contour_set(r, 9, "x")


def test_rank_normalisation_is_contiguous():
    p = Preference(ALTS, (10, 50, 10))
    assert p.ranks == (0, 1, 0)
    assert not p.is_linear()


def test_profile_shape_validation():
    with pytest.raises(InputError):
        Profile.from_ranks("bad", ALTS, [[0, 1]])
    with pytest.raises(InputError):
        Profile.from_orders("bad", ALTS, [["x", "y"]])
    with pytest.raises(InputError):
        Profile("empty", ())


def test_domain_restriction_linear_always_ok(xyz_profiles):
    for p in xyz_profiles:
        assert validate_domain_restriction(p)


def test_domain_restriction_unanimous_tie():
    p = Profile.from_ranks("tie", ("a", "b"), [[0, 0], [1, 1]])
    verdict = validate_domain_restriction(p)
    assert not verdict.ok
    assert verdict.pair == ("a", "b")


def test_domain_restriction_extended_job_profiles_exhaustive():
    # distinct allocations always differ in somebody's own job
    from rotakit.domains import JobRotationProblem, extend_job_preferences

    jobs = ("j1", "j2", "j3", "j4")
    for orders in itertools.islice(itertools.permutations(itertools.permutations(jobs), 4), 12):
        p = JobRotationProblem("D", jobs, tuple(orders))
        ext = extend_job_preferences(p)
        verdict = validate_domain_restriction(ext)
        assert verdict.ok, verdict.pair


def test_check_efficiency_full_frontier_ok(xyz_profiles):
    r, rp = xyz_profiles
    scr = SocialChoiceRule((r, rp), {p.id: pareto_frontier(p) for p in (r, rp)})
    assert check_efficiency(scr)


def test_check_efficiency_xyz_rule(xyz_scr, xyz_profiles):
    assert check_efficiency(xyz_scr)
    # cross-check: every chosen outcome survives a raw dominance scan
    for p in xyz_profiles:
        for z in xyz_scr.choice(p.id):
            assert not any(dominates(p, x, z) for x in ALTS if x != z)


def test_check_efficiency_counterexample():
    p = Profile.from_orders("R", ALTS, [["x", "y", "z"], ["y", "x", "z"]])
    scr = SocialChoiceRule((p,), {"R": {"z"}})
    verdict = check_efficiency(scr)
    assert not verdict.ok
    assert verdict.outcome == "z"
    assert dominates(p, verdict.dominator, "z")


def test_monotonic_transformation_reflexive(xyz_profiles):
    r, _ = xyz_profiles
    for z in ALTS:
        assert is_monotonic_transformation(r, r, z)


def test_monotonic_transformation_witnesses(xyz_profiles):
    r, rp = xyz_profiles
    assert is_monotonic_transformation(r, rp, "y")
    assert not is_monotonic_transformation(r, rp, "z")  # agent 3's contour shrinks


def test_monotonic_transformation_mismatched_profiles(xyz_profiles):
    r, _ = xyz_profiles
    other = Profile.from_orders("O", ("a", "b"), [["a", "b"]])
    with pytest.raises(InputError):
        is_monotonic_transformation(r, other, "x")


def test_scr_validation():
    p = Profile.from_orders("R", ALTS, [["x", "y", "z"]])
    with pytest.raises(InputError):
        SocialChoiceRule((p,), {"R": set()})
    with pytest.raises(InputError):
        SocialChoiceRule((p,), {"R": {"w"}})
    with pytest.raises(InputError):
        SocialChoiceRule((p,), {"S": {"x"}})
    with pytest.raises(InputError):
        SocialChoiceRule((), {})


def test_scr_graph_enumeration(xyz_scr):
    pairs = [(a, prof.id) for a, prof in xyz_scr.graph()]
    assert pairs == [("x", "R"), ("y", "R"), ("z", "R"), ("x", "Rp"), ("y", "Rp")]


def _ordering_search():
    alts = tuple(f"a{i}" for i in range(4))
    p = Profile.from_orders("R", alts, [list(alts), list(reversed(alts))])
    check_rotation_monotonicity(SocialChoiceRule((p,), {"R": set(alts)}), cap=3)


def _generalized_product():
    """Two improving 2-cycles: two absorbing sets of two states each."""
    keys = ("s0", "s1", "s2", "s3")
    moves = [("s0", "s1"), ("s1", "s0"), ("s2", "s3"), ("s3", "s2")]
    gamma = {move: frozenset([frozenset([i])]) for i, move in enumerate(moves)}
    rows = [[int(k != b) for k in keys] for _, b in moves]  # agent i prefers its target
    profile = Profile.from_ranks("R", keys, rows)
    env = SocialEnvironment(RightsStructure(tuple(State(k, k) for k in keys), gamma), profile)
    compute_generalized_stable_sets(env, cap=3)


def _jobs(n):
    jobs = tuple(f"j{i}" for i in range(n))
    return JobRotationProblem("P", jobs, tuple([jobs] * n))


def _economy(n_agents, n_houses):
    houses = tuple(f"h{i}" for i in range(1, n_houses + 1))
    owners = {h: frozenset([i % n_agents]) for i, h in enumerate(houses)}
    house_allocations(Economy("big", n_agents, houses, "h0", owners, [houses + ("h0",)] * n_agents))


@pytest.mark.parametrize(
    "search, message, cap, needed",
    [
        (_ordering_search, "ordering search over 4 outcomes at 'R' exceeds the cap of 3", 3, 4),
        (_generalized_product, "4 candidate selections exceed the cap of 3", 3, 4),
        (lambda: extend_job_preferences(_jobs(7)),
         "extension over 7! allocations exceeds the cap of 6!", 6, 7),
        (lambda: build_phi(_jobs(6)), "phi over 6 agents exceeds the cap of 5", 5, 6),
        (lambda: _economy(5, 2), "economies beyond 4 agents/houses are refused", 4, 5),
        (lambda: _economy(2, 5), "economies beyond 4 agents/houses are refused", 4, 5),
        (lambda: all_matchings(random_marriage_problem(random.Random(71), "R", 6, 6)),
         "matching enumeration beyond 5 per side is refused", 5, 6),
        (lambda: all_matchings(random_marriage_problem(random.Random(71), "R", 2, 6)),
         "matching enumeration beyond 5 per side is refused", 5, 6),
    ],
    ids=["ordering", "generalized", "extension", "phi", "agents", "houses", "both-sides", "women"],
)
def test_cap_refusals_report_message_cap_and_needed(search, message, cap, needed):
    """Every brute-force search refuses with the compared cap and need."""
    with pytest.raises(CapExceeded) as got:
        search()
    assert (str(got.value), got.value.cap, got.value.needed) == (message, cap, needed)
