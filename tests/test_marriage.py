import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotakit.conditions import check_rotation_monotonicity, verify_rotation_monotonicity_with
from rotakit.domains import (
    MarriageProblem,
    all_matchings,
    deferred_acceptance,
    enumerate_stable_matchings,
    is_stable,
    marriage_optimal_scr,
    matching_id,
    matching_profile,
    optimal_orderings,
    stable_set_scr,
)
from rotakit.domains.marriage import Matching
from rotakit.generators import random_marriage_problem
from rotakit.model import CapExceeded, InputError, validate_domain_restriction


def test_deferred_acceptance_reproduces_all_four_optima(marriage_market_problems):
    p_r, p_rp = marriage_market_problems
    assert matching_id(deferred_acceptance(p_r, "men"), p_r) == "m1:w2,m2:w3,m3:w1"
    assert matching_id(deferred_acceptance(p_r, "women"), p_r) == "m1:w1,m2:w2,m3:w3"
    assert matching_id(deferred_acceptance(p_rp, "men"), p_rp) == "m1:w2,m2:w3,m3:w1"
    assert matching_id(deferred_acceptance(p_rp, "women"), p_rp) == "m1:w3,m2:w1,m3:w2"


def test_mutual_top_market():
    men, women = ("m1", "m2"), ("w1", "w2")
    p = MarriageProblem(
        "R",
        men,
        women,
        {"m1": ("w1", "w2", "m1"), "m2": ("w2", "w1", "m2")},
        {"w1": ("m1", "m2", "w1"), "w2": ("m2", "m1", "w2")},
    )
    expected = "m1:w1,m2:w2"
    assert matching_id(deferred_acceptance(p, "men"), p) == expected
    assert matching_id(deferred_acceptance(p, "women"), p) == expected


def test_deferred_acceptance_output_is_stable_random():
    rng = random.Random(61)
    for _ in range(25):
        p = random_marriage_problem(
            rng, "R", rng.randint(1, 4), rng.randint(1, 4), pure=False
        )
        for side in ("men", "women"):
            assert is_stable(deferred_acceptance(p, side), p)


@given(
    st.permutations(["w1", "w2", "w3", "m1"]),
    st.permutations(["w1", "w2", "w3", "m2"]),
    st.permutations(["w1", "w2", "w3", "m3"]),
    st.permutations(["m1", "m2", "m3", "w1"]),
    st.permutations(["m1", "m2", "m3", "w2"]),
    st.permutations(["m1", "m2", "m3", "w3"]),
)
@settings(max_examples=60, deadline=None)
def test_deferred_acceptance_stable_property(p1, p2, p3, q1, q2, q3):
    problem = MarriageProblem(
        "R",
        ("m1", "m2", "m3"),
        ("w1", "w2", "w3"),
        {"m1": tuple(p1), "m2": tuple(p2), "m3": tuple(p3)},
        {"w1": tuple(q1), "w2": tuple(q2), "w3": tuple(q3)},
    )
    for side in ("men", "women"):
        assert is_stable(deferred_acceptance(problem, side), problem)


def test_deferred_acceptance_side_optimal_random():
    rng = random.Random(67)
    for _ in range(15):
        n = rng.randint(2, 4)
        p = random_marriage_problem(rng, "R", n, n, pure=rng.random() < 0.5)
        stable = enumerate_stable_matchings(p)
        mu_m = deferred_acceptance(p, "men")
        mu_w = deferred_acceptance(p, "women")
        assert mu_m in stable and mu_w in stable
        for mu in stable:
            for m in p.men:
                a, b = mu_m.partner(m), mu.partner(m)
                assert a == b or p.prefers(m, a, b)
            for w in p.women:
                a, b = mu_w.partner(w), mu.partner(w)
                assert a == b or p.prefers(w, a, b)


def test_woman_optimal_stable_at_second_profile(marriage_market_problems):
    _, p_rp = marriage_market_problems
    assert is_stable(deferred_acceptance(p_rp, "women"), p_rp)


def test_swapping_partners_creates_blocking_pair(marriage_market_problems):
    p_r, _ = marriage_market_problems
    # swap the partners of m1 and m2 in the man-optimal matching
    swapped = Matching.from_man_map(p_r, {"m1": "w3", "m2": "w2", "m3": "w1"})
    verdict = is_stable(swapped, p_r)
    assert not verdict.ok
    assert verdict.blocking_pair is not None


def test_unstable_by_individual_rationality():
    p = MarriageProblem(
        "R",
        ("m1",),
        ("w1",),
        {"m1": ("m1", "w1")},  # prefers staying single
        {"w1": ("m1", "w1")},
    )
    mu = Matching.from_man_map(p, {"m1": "w1"})
    verdict = is_stable(mu, p)
    assert not verdict.ok and verdict.ir_violator == "m1"
    assert matching_id(deferred_acceptance(p, "men"), p) == "m1:m1"


def test_enumerate_contains_optimal_matchings(marriage_market_problems):
    p_r, _ = marriage_market_problems
    stable = enumerate_stable_matchings(p_r)
    assert deferred_acceptance(p_r, "men") in stable
    assert deferred_acceptance(p_r, "women") in stable


def test_single_pair_market():
    p = MarriageProblem(
        "R", ("m1",), ("w1",), {"m1": ("w1", "m1")}, {"w1": ("m1", "w1")}
    )
    stable = enumerate_stable_matchings(p)
    assert len(stable) == 1
    assert matching_id(stable[0], p) == "m1:w1"


def test_pure_model_enumeration_and_stability(marriage_market_problems):
    p_r, _ = marriage_market_problems
    pure = MarriageProblem(
        "R",
        p_r.men,
        p_r.women,
        {m: tuple(x for x in p_r.men_prefs[m] if x != m) for m in p_r.men},
        {w: tuple(x for x in p_r.women_prefs[w] if x != w) for w in p_r.women},
        pure=True,
    )
    matchings = all_matchings(pure)
    assert len(matchings) == 6  # only perfect matchings in the pure model
    stable = enumerate_stable_matchings(pure)
    assert stable == tuple(mu for mu in matchings if is_stable(mu, pure))
    assert deferred_acceptance(pure, "men") in stable


def test_matching_profile_passes_domain_restriction(marriage_market_problems):
    for p in marriage_market_problems:
        assert validate_domain_restriction(matching_profile(p))


def test_marriage_optimal_scr_rotation_monotone(marriage_market_problems):
    scr = marriage_optimal_scr(marriage_market_problems)
    witness = optimal_orderings(marriage_market_problems)
    assert verify_rotation_monotonicity_with(scr, witness)
    # the exhaustive search agrees the condition holds
    assert check_rotation_monotonicity(scr)


def test_optimal_scr_singleton_when_unique_stable():
    men, women = ("m1", "m2"), ("w1", "w2")
    p = MarriageProblem(
        "R",
        men,
        women,
        {"m1": ("w1", "w2", "m1"), "m2": ("w2", "w1", "m2")},
        {"w1": ("m1", "m2", "w1"), "w2": ("m2", "m1", "w2")},
    )
    scr = marriage_optimal_scr([p])
    assert scr.choice("R") == {"m1:w1,m2:w2"}


def test_some_marriage_domain_violates_rotation_monotonicity():
    """The optimal-stable-pair rule can violate rotation monotonicity; a search
    over cyclic-pattern domains must surface a violation the checker reports."""
    import itertools

    men, women = ("m1", "m2", "m3"), ("w1", "w2", "w3")
    men_prefs = {
        m: tuple(women[(i + 1 + k) % 3] for k in range(3)) + (m,)
        for i, m in enumerate(men)
    }

    def cyclic_women(offset, descending):
        wp = {}
        for i, w in enumerate(women):
            idx = [(i + offset + k) % 3 for k in range(3)]
            if descending:
                idx = [idx[0]] + idx[1:][::-1]
            wp[w] = tuple(men[j] for j in idx) + (w,)
        return wp

    patterns = [(o, d) for o in range(3) for d in (False, True)]
    found = None
    for pat_r, pat_rp in itertools.product(patterns, repeat=2):
        if pat_r == pat_rp:
            continue
        problems = [
            MarriageProblem("R0", men, women, men_prefs, cyclic_women(*pat_r)),
            MarriageProblem("R1", men, women, men_prefs, cyclic_women(*pat_rp)),
        ]
        verdict = check_rotation_monotonicity(marriage_optimal_scr(problems))
        if not verdict:
            found = verdict
            break
    assert found is not None, "no violating optimal-stable-pair domain found"
    assert found.obstructions and found.obstructions[0].failures


def test_stable_set_scr(marriage_market_problems):
    scr = stable_set_scr(marriage_market_problems)
    for p in marriage_market_problems:
        expected = {matching_id(mu, p) for mu in enumerate_stable_matchings(p)}
        assert scr.choice(p.id) == expected


def test_matching_validation():
    with pytest.raises(InputError):
        Matching((("a", "b"), ("b", "c"), ("c", "a")))


def test_enumeration_cap():
    rng = random.Random(71)
    p = random_marriage_problem(rng, "R", 6, 6)
    with pytest.raises(CapExceeded):
        all_matchings(p)


def test_problem_validation():
    men, women = ("m1",), ("w1",)
    with pytest.raises(InputError):
        MarriageProblem("R", men, women, {"m1": ("w1",)}, {"w1": ("m1", "w1")})
    with pytest.raises(InputError):
        MarriageProblem(
            "R", ("m1", "m2"), ("w1",), {"m1": ("w1",), "m2": ("w1",)},
            {"w1": ("m1", "m2")}, pure=True,
        )


def test_stable_set_rule_implementable_in_mss_on_pure_domain(marriage_market_problems):
    # the all-stable-matchings rule of the pure model is efficient and
    # monotone, so the five-rule construction implements it in MSS
    from rotakit.conditions import check_maskin_monotonicity
    from rotakit.constructors import build_thm1_structure, verify_implementation_in_mss
    from rotakit.model import check_efficiency

    pure_problems = []
    for p in marriage_market_problems:
        pure_problems.append(
            MarriageProblem(
                p.id,
                p.men,
                p.women,
                {m: tuple(x for x in p.men_prefs[m] if x != m) for m in p.men},
                {w: tuple(x for x in p.women_prefs[w] if x != w) for w in p.women},
                pure=True,
            )
        )
    scr = stable_set_scr(pure_problems)
    assert check_efficiency(scr)
    assert check_maskin_monotonicity(scr)
    structure = build_thm1_structure(scr)
    assert verify_implementation_in_mss(structure, scr).ok


def test_marriage_rules_leave_repeated_ids_and_markets_to_the_scr():
    p = MarriageProblem("R", ("m1",), ("w1",), {"m1": ("w1", "m1")}, {"w1": ("m1", "w1")})
    q = MarriageProblem("Q", ("m2",), ("w1",), {"m2": ("w1", "m2")}, {"w1": ("m2", "w1")})
    for rule in (marriage_optimal_scr, stable_set_scr):
        with pytest.raises(InputError, match="^duplicate profile ids in SCR domain$"):
            rule([p, p])
        with pytest.raises(InputError, match="^SCR domain profiles disagree on the alternative"):
            rule([p, q])
