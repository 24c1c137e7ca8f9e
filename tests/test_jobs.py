import itertools
import random
from types import SimpleNamespace

import pytest

from oracles import backtrack_circular_no_repeat, brute_force_pareto
from rotakit.domains import (
    JobRotationProblem,
    alloc_id,
    arrangement_orderings,
    build_phi,
    circular_arrangement,
    common_best_job,
    efficient_scr,
    extend_job_preferences,
    parse_alloc,
    pareto_efficient_allocations,
    phi_orderings,
    phi_scr,
    second_best_swap,
    top_job_groups,
)
from rotakit import generators
from rotakit.generators import random_common_best_domain, random_hat_domain, random_job_problem
from rotakit.model import CapExceeded, InputError


def test_extension_two_agents():
    p = JobRotationProblem("P", ("j1", "j2"), (("j1", "j2"), ("j1", "j2")))
    ext = extend_job_preferences(p)
    assert ext.strictly_prefers(0, "j1,j2", "j2,j1")
    assert ext.strictly_prefers(1, "j2,j1", "j1,j2")


def test_extension_indifference_when_own_job_fixed():
    p = JobRotationProblem(
        "P", ("j1", "j2", "j3"), (("j1", "j2", "j3"),) * 3
    )
    ext = extend_job_preferences(p)
    # agent 0 keeps j1 in both; the other two swap
    assert ext.pref(0).indifferent("j1,j2,j3", "j1,j3,j2")


def test_extension_cap():
    jobs = tuple(f"j{i}" for i in range(7))
    p = JobRotationProblem("P", jobs, tuple([jobs] * 7))
    with pytest.raises(CapExceeded):
        extend_job_preferences(p)


def test_job_tables_pareto_sets(job_table_problems):
    p, pp, ppp = job_table_problems
    assert pareto_efficient_allocations(extend_job_preferences(p)) == {
        "j3,j1,j2",
        "j1,j2,j3",
        "j1,j3,j2",
    }
    assert pareto_efficient_allocations(extend_job_preferences(ppp)) == {
        "j3,j1,j2",
        "j1,j3,j2",
    }
    # the middle table also leaves (j2, j1, j3) undominated: agents 2 and 3
    # both hold their top job there, so nothing can weakly improve on it
    assert pareto_efficient_allocations(extend_job_preferences(pp)) == {
        "j3,j1,j2",
        "j1,j2,j3",
        "j2,j1,j3",
    }


def test_job_tables_frontiers_match_bruteforce(job_table_problems):
    for problem in job_table_problems:
        ext = extend_job_preferences(problem)
        assert pareto_efficient_allocations(ext) == brute_force_pareto(ext)


def test_job_tables_efficient_rule_violates_rotation_monotonicity(job_table_problems):
    from rotakit.conditions import check_rotation_monotonicity

    scr = efficient_scr(job_table_problems)
    assert not check_rotation_monotonicity(scr)


def test_identical_preferences_make_every_allocation_efficient():
    p = JobRotationProblem("P", ("j1", "j2", "j3"), (("j1", "j2", "j3"),) * 3)
    assert len(pareto_efficient_allocations(extend_job_preferences(p))) == 6


def test_common_best_job_detection(job_table_problems):
    p, _, _ = job_table_problems
    assert common_best_job(p) is None
    q = JobRotationProblem("Q", ("j1", "j2"), (("j1", "j2"), ("j1", "j2")))
    assert common_best_job(q) == "j1"


def test_circular_arrangement_two_agents():
    q = JobRotationProblem("Q", ("j1", "j2"), (("j1", "j2"), ("j1", "j2")))
    arrangement = circular_arrangement(q)
    assert sorted(arrangement) == ["j1,j2", "j2,j1"]


def test_circular_arrangement_requires_common_best(job_table_problems):
    with pytest.raises(InputError):
        circular_arrangement(job_table_problems[0])


def test_circular_arrangement_properties_random():
    rng = random.Random(19)
    for k in range(40):
        n = [2, 3, 4][k % 3]
        problem = random_job_problem(rng, "P", n, common_best="j1")
        arrangement = circular_arrangement(problem)
        frontier = pareto_efficient_allocations(extend_job_preferences(problem))
        assert sorted(arrangement) == sorted(frontier)
        holders = [parse_alloc(a).index("j1") for a in arrangement]
        for i in range(len(holders)):
            assert holders[i] != holders[(i + 1) % len(holders)]
        # a backtracking search agrees an arrangement exists for these counts
        assert backtrack_circular_no_repeat(holders) is not None


def test_holder_count_inequality_and_injection():
    # the count of any holder never exceeds the others combined; the
    # second-best swap witnesses it injectively inside the frontier
    rng = random.Random(29)
    for k in range(30):
        n = [2, 3, 4][k % 3]
        problem = random_job_problem(rng, "P", n, common_best="j1")
        groups = top_job_groups(problem)
        counts = {i: len(g) for i, g in groups.items()}
        total = sum(counts.values())
        frontier = set()
        for g in groups.values():
            frontier |= set(g)
        for i, c in counts.items():
            assert total - c >= c, counts
            swapped = [alloc_id(second_best_swap(problem, parse_alloc(a))) for a in groups[i]]
            assert len(set(swapped)) == len(swapped)  # injective
            for image in swapped:
                assert image in frontier
                assert parse_alloc(image).index("j1") != i


def test_sampled_domains_are_clamped_to_their_distinct_profiles(monkeypatch):
    rng = random.Random(7)
    assert len(random_common_best_domain(rng, 3, 100)) == 8  # (2!)^3
    assert len(random_hat_domain(rng, 3, 100)) == 72  # 3 * (2!)^2 * 3!
    assert len(random_hat_domain(rng, 2, 100)) == 2
    # stand-in problems with distinct orders: the clamp alone decides the count
    ids = itertools.count()
    stub = lambda rng, pid, n, common_best: SimpleNamespace(orders=next(ids))  # noqa: E731
    monkeypatch.setattr(generators, "random_job_problem", stub)
    assert len(random_common_best_domain(rng, 4, 10**6)) == 1296  # (3!)^4
    # ((5000-1)!)^5000 has about 81 million digits; its first factor already exceeds 2
    assert len(random_common_best_domain(rng, 5000, 2)) == 2


def test_arrangement_orderings_cover_domain():
    rng = random.Random(41)
    problems = random_common_best_domain(rng, 3, 2)
    witness = arrangement_orderings(problems)
    assert set(witness.orderings) == {p.id for p in problems}


def test_phi_two_agents():
    p = JobRotationProblem("P", ("j1", "j2"), (("j1", "j2"), ("j1", "j2")))
    ordered = build_phi(p)
    assert ordered == ("j1,j2", "j2,j1")


def test_phi_requires_shared_top():
    p = JobRotationProblem("P", ("j1", "j2"), (("j1", "j2"), ("j2", "j1")))
    with pytest.raises(InputError):
        build_phi(p)


def test_phi_cap():
    jobs = tuple(f"j{i}" for i in range(6))
    p = JobRotationProblem("P", jobs, tuple([jobs] * 6))
    with pytest.raises(CapExceeded):
        build_phi(p)


def test_phi_ordering_properties_random():
    rng = random.Random(43)
    for k in range(40):
        n = [2, 3, 4, 5][k % 4]
        (problem,) = random_hat_domain(rng, n, 1)
        ordered = build_phi(problem)
        tau = problem.top(0)
        assert len(ordered) % 2 == 0 and len(ordered) >= 2
        allocs = [parse_alloc(a) for a in ordered]
        for i, alloc in enumerate(allocs, start=1):
            if i % 2 == 1:
                assert alloc[0] == tau
            else:
                assert alloc[1] == tau
        for i in range(0, len(allocs), 2):
            x, xhat = allocs[i], allocs[i + 1]
            assert xhat[0] == x[1] and xhat[1] == x[0] and xhat[2:] == x[2:]
        # hat closure: x in phi(R) iff its swap is
        ids = set(ordered)
        for alloc in allocs:
            swap = (alloc[1], alloc[0]) + alloc[2:]
            assert alloc_id(swap) in ids
        # the improvement cycle: agent 2 gains on odd steps, agent 1 on even
        ext = extend_job_preferences(problem)
        m = len(ordered)
        for i in range(m):
            agent = 1 if (i + 1) % 2 == 1 else 0
            assert ext.strictly_prefers(agent, ordered[(i + 1) % m], ordered[i])


def test_phi_step2_assignments_are_efficient():
    rng = random.Random(47)
    for _ in range(10):
        (problem,) = random_hat_domain(rng, 4, 1)
        tau = problem.top(0)
        rest = [j for j in problem.jobs if j != tau]
        chosen = {parse_alloc(a)[2:] for a in build_phi(problem)}
        # no chosen tail assignment is dominated by another injective one
        for tail in chosen:
            for other in itertools.permutations(rest, len(tail)):
                if other == tail:
                    continue
                ranks = [
                    (order.index(o), order.index(t))
                    for order, o, t in zip(problem.orders[2:], other, tail)
                ]
                weakly = all(ro <= rt for ro, rt in ranks)
                strictly = any(ro < rt for ro, rt in ranks)
                assert not (weakly and strictly)


def test_phi_scr_and_orderings_agree():
    rng = random.Random(53)
    problems = random_hat_domain(rng, 3, 2)
    scr = phi_scr(problems)
    witness = phi_orderings(problems)
    for p in problems:
        assert frozenset(witness.orderings[p.id]) == scr.choice(p.id)


def test_job_problem_validation():
    with pytest.raises(InputError):
        JobRotationProblem("P", ("j1", "j2"), (("j1", "j2"),))
    with pytest.raises(InputError):
        JobRotationProblem("P", ("j1", "j2"), (("j1", "j1"), ("j1", "j2")))
    with pytest.raises(InputError):
        JobRotationProblem("P", ("j1",), (("j1",),))


def test_reverse_preferences_turns_common_worst_into_common_best():
    from rotakit.domains import reverse_preferences

    p = JobRotationProblem(
        "P", ("j1", "j2", "j3"),
        (("j2", "j3", "j1"), ("j3", "j2", "j1"), ("j2", "j1", "j3")),
    )
    assert common_best_job(p) is None  # but j1 is worst for 0 and 1 only
    q = JobRotationProblem(
        "Q", ("j1", "j2", "j3"),
        (("j2", "j3", "j1"), ("j3", "j2", "j1"), ("j2", "j3", "j1")),
    )
    flipped = reverse_preferences(q)
    assert common_best_job(flipped) == "j1"
    assert circular_arrangement(flipped)


def test_job_rules_leave_repeated_ids_and_job_sets_to_the_scr():
    p = JobRotationProblem("P", ("j1", "j2"), (("j1", "j2"), ("j1", "j2")))
    q = JobRotationProblem("Q", ("j1", "j3"), (("j1", "j3"), ("j1", "j3")))
    for rule in (efficient_scr, phi_scr):
        with pytest.raises(InputError, match="^duplicate profile ids in SCR domain$"):
            rule([p, p])
        with pytest.raises(InputError, match="^SCR domain profiles disagree on the alternative"):
            rule([p, q])
