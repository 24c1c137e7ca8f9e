import itertools
import random

import pytest

from rotakit.conditions import check_maskin_monotonicity
from rotakit.constructors import build_thm1_structure, verify_implementation_in_mss
from rotakit.domains import (
    Economy,
    allocation_profile,
    can_exclusion_block,
    direct_exclusion_core,
    endowment,
    exclusion_core_scr,
    exclusion_environment,
    exclusion_rights_structure,
    house_allocations,
)
from rotakit.generators import random_economy
from rotakit.model import CapExceeded, InputError, check_efficiency
from rotakit.rights import build_improvement_digraph
from rotakit.solvers import compute_absorbing_sets, compute_core, compute_mss

MU = "h2,h3,h1"
SIGMA1, SIGMA2, SIGMA3 = "h2,h1,h3", "h1,h3,h2", "h3,h2,h1"


def test_endowment_from_minimal_controlling_coalitions(housing_economy):
    assert endowment(housing_economy, []) == frozenset()  # agency
    assert endowment(housing_economy, [0]) == {"h1"}
    assert endowment(housing_economy, [1, 2]) == {"h2", "h3"}
    assert endowment(housing_economy, [0, 1, 2]) == {"h1", "h2", "h3"}  # exhaustivity


def test_endowment_monotone_random():
    rng = random.Random(83)
    for _ in range(10):
        e = random_economy(rng, "E", 3)
        coalitions = [set(c) for size in range(4) for c in itertools.combinations(range(3), size)]
        for small in coalitions:
            for big in coalitions:
                if small <= big:
                    assert endowment(e, small) <= endowment(e, big)


def test_direct_exclusion_core_is_exactly_mu(housing_economy):
    assert direct_exclusion_core(housing_economy) == (MU,)


def test_sigma_cycle_edges_with_expected_coalitions(housing_economy):
    env = exclusion_environment(housing_economy)
    dg = build_improvement_digraph(env)
    for a, b, members in [
        (SIGMA1, SIGMA2, {1, 2}),
        (SIGMA2, SIGMA3, {0, 2}),
        (SIGMA3, SIGMA1, {0, 1}),
    ]:
        assert frozenset(members) in dg.edge_coalitions.get((a, b), ())


def test_cycle_escapes_to_core(housing_economy):
    env = exclusion_environment(housing_economy)
    dg = build_improvement_digraph(env)
    blocks = compute_absorbing_sets(env, dg)
    assert blocks == ((MU,),)


def test_mss_outcome_is_core_allocation(housing_economy):
    env = exclusion_environment(housing_economy)
    assert compute_mss(env).outcome_set == {MU}


def test_core_of_environment_equals_definition_scan(housing_economy):
    env = exclusion_environment(housing_economy)
    assert compute_core(env).outcome_set == set(direct_exclusion_core(housing_economy))


def test_blocking_respects_clause_b(housing_economy):
    mu = ("h2", "h1", "h3")  # sigma1: agent 1 holds his top
    sigma = ("h1", "h3", "h2")  # sigma2
    assert can_exclusion_block(housing_economy, mu, [1, 2], sigma)
    # a move harming an agent whose house lies outside the endowment fails
    assert not can_exclusion_block(housing_economy, ("h2", "h3", "h1"), [0, 1], sigma)


def test_move_harming_nobody_entitles_all_gaining_coalitions(housing_economy):
    structure = exclusion_rights_structure(housing_economy)
    # from everyone-homeless to everyone-housed nobody is harmed
    start = "h0,h0,h0"
    fams = structure.gamma.get((start, MU))
    assert fams is not None
    assert frozenset([0, 1, 2]) in fams and frozenset([0]) in fams


def test_own_top_house_endowment_is_core():
    e = Economy(
        "R",
        2,
        ("h1", "h2"),
        "h0",
        {"h1": frozenset([0]), "h2": frozenset([1])},
        (("h1", "h2", "h0"), ("h2", "h1", "h0")),
    )
    assert "h1,h2" in direct_exclusion_core(e)


def test_core_nonempty_on_random_economies():
    rng = random.Random(89)
    for _ in range(25):
        e = random_economy(rng, "E", 3)
        core = direct_exclusion_core(e)
        assert core, e
        env = exclusion_environment(e)
        assert compute_core(env).outcome_set == set(core)


def test_exclusion_core_rule_is_maskin_monotone_and_efficient(housing_economy):
    rng = random.Random(91)
    economies = [housing_economy]
    for i in range(2):
        e = random_economy(rng, f"E{i}", 3)
        economies.append(
            Economy(f"E{i}", 3, housing_economy.houses, "h0", housing_economy.owners, e.orders)
        )
    scr = exclusion_core_scr(economies)
    assert check_efficiency(scr)
    assert check_maskin_monotonicity(scr)


def test_exclusion_core_rule_monotone_over_exhaustive_two_agent_domain():
    # every linear preference profile of a 2-agent, 2-house economy
    houses = ("h1", "h2")
    owners = {"h1": frozenset([0]), "h2": frozenset([1])}
    orders = list(itertools.permutations(("h1", "h2", "h0")))
    economies = []
    for i, (o1, o2) in enumerate(itertools.product(orders, repeat=2)):
        economies.append(Economy(f"E{i}", 2, houses, "h0", owners, (o1, o2)))
    scr = exclusion_core_scr(economies)
    assert len(scr.profiles) == 36
    assert check_efficiency(scr)
    assert check_maskin_monotonicity(scr)


def test_thm1_implements_exclusion_core(housing_economy):
    scr = exclusion_core_scr([housing_economy])
    structure = build_thm1_structure(scr)
    assert verify_implementation_in_mss(structure, scr).ok


def test_allocation_profile_ranks_by_own_house(housing_economy):
    prof = allocation_profile(housing_economy)
    assert prof.strictly_prefers(0, MU, SIGMA2)  # h2 beats h1 for agent 1
    assert prof.pref(0).indifferent(MU, SIGMA1)  # both give agent 1 h2


def test_allocation_enumeration_counts(housing_economy):
    allocations = house_allocations(housing_economy)
    assert len(allocations) == 34  # sum_k C(3,k) * P(3,k)
    assert len(set(allocations)) == 34


def test_economy_caps_and_validation():
    with pytest.raises(CapExceeded):
        house_allocations(
            Economy(
                "big",
                5,
                tuple(f"h{i}" for i in range(1, 6)),
                "h0",
                {f"h{i}": frozenset([i - 1]) for i in range(1, 6)},
                tuple(
                    tuple([f"h{j}" for j in range(1, 6)] + ["h0"]) for _ in range(5)
                ),
            )
        )
    with pytest.raises(InputError):
        Economy("bad", 2, ("h1",), "h0", {}, (("h1", "h0"), ("h1", "h0")))
    with pytest.raises(InputError):
        Economy(
            "bad", 2, ("h1",), "h1", {"h1": frozenset([0])},
            (("h1",), ("h1",)),
        )


def test_allocation_profile_passes_domain_restriction(housing_economy):
    from rotakit.model import validate_domain_restriction

    assert validate_domain_restriction(allocation_profile(housing_economy))


def test_exclusion_core_rule_checks_owners_and_leaves_the_rest_to_the_scr(housing_economy):
    e = housing_economy
    with pytest.raises(InputError, match="^duplicate profile ids in SCR domain$"):
        exclusion_core_scr([e, e])
    owners = {**e.owners, "h1": frozenset([0, 1])}
    other = Economy("Q", 3, e.houses, e.outside, owners, e.orders)
    with pytest.raises(InputError, match="^domain economies disagree on ownership$"):
        exclusion_core_scr([e, other])
    other = Economy("Q", 3, e.houses, "h9", e.owners, tuple(o[:-1] + ("h9",) for o in e.orders))
    with pytest.raises(InputError, match="^SCR domain profiles disagree on the alternative"):
        exclusion_core_scr([e, other])
