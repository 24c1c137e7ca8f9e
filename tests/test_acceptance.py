"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Exact reproduction of the worked fixtures plus seeded property suites
backed by independent brute-force oracles.  Every tolerance is exact set
equality; every suite has a hard runtime budget asserted at the end.
Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager

from instances import random_environment, random_scr
from oracles import brute_force_mss, brute_force_pareto
from rotakit.conditions import (
    check_indirect_monotonicity,
    check_property_m,
    check_rotation_monotonicity,
    find_shared_ordering,
    verify_rotation_monotonicity_with,
)
from rotakit.constructors import (
    build_thm1_structure,
    build_thm4_structure,
    compute_diagnostic_sets,
    verify_implementation_in_mss,
    verify_implementation_in_rotation_programs,
)
from rotakit.domains import (
    arrangement_orderings,
    build_phi,
    circular_arrangement,
    deferred_acceptance,
    direct_exclusion_core,
    efficient_scr,
    exclusion_core_scr,
    exclusion_environment,
    extend_job_preferences,
    marriage_optimal_scr,
    matching_id,
    optimal_orderings,
    pareto_efficient_allocations,
    parse_alloc,
    phi_orderings,
    phi_scr,
    top_job_groups,
)
from rotakit.generators import random_common_best_domain, random_hat_domain
from rotakit.model import SocialChoiceRule, check_efficiency
from rotakit.rights import SocialEnvironment, build_improvement_digraph
from rotakit.solvers import (
    compute_absorbing_sets,
    compute_generalized_stable_sets,
    compute_mss,
)


@contextmanager
def criterion(number: int, description: str, limit_seconds: float):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL — {description}")
        raise
    elapsed = time.monotonic() - start
    print(f"ACCEPTANCE {number}: PASS — {description} ({elapsed:.2f}s)")
    assert elapsed < limit_seconds, f"criterion {number} took {elapsed:.2f}s"


def test_criterion_1_xyz_fixture(xyz_scr):
    with criterion(1, "three-alternative fixture: conditions and MSS implementation", 1.0):
        assert check_efficiency(xyz_scr)
        assert check_indirect_monotonicity(xyz_scr)
        verdict = check_rotation_monotonicity(xyz_scr)
        assert not verdict
        (obstruction,) = verdict.obstructions
        assert obstruction.profile_id == "R"
        # every circular ordering of F(R) is reported as failing
        assert {f[0] for f in obstruction.failures} == {("x", "y", "z"), ("x", "z", "y")}
        report = verify_implementation_in_mss(build_thm1_structure(xyz_scr), xyz_scr)
        assert report.ok
        for v in report.per_profile:
            assert v.actual == v.expected


def test_criterion_2_job_tables(job_table_problems):
    with criterion(2, "job rotation tables: Pareto sets and rotation-monotonicity failure", 1.0):
        extensions = {q.id: extend_job_preferences(q) for q in job_table_problems}
        frontiers = {pid: pareto_efficient_allocations(ext) for pid, ext in extensions.items()}
        # independent dominance oracle agrees on every profile
        for pid, ext in extensions.items():
            assert frontiers[pid] == brute_force_pareto(ext)
        assert frontiers["P"] == {"j3,j1,j2", "j1,j2,j3", "j1,j3,j2"}
        assert frontiers["Ppp"] == {"j3,j1,j2", "j1,j3,j2"}
        # the middle profile's frontier holds a third allocation besides the
        # two the other profiles share: (j2,j1,j3) hands agents 2 and 3 their
        # top jobs there and is undominated, as the oracle above confirms
        assert {"j3,j1,j2", "j1,j2,j3"} < frontiers["Pp"]
        assert frontiers["Pp"] == {"j3,j1,j2", "j1,j2,j3", "j2,j1,j3"}
        # the efficient rule fails rotation monotonicity, and so does the
        # two-element subselection at the middle profile
        assert not check_rotation_monotonicity(efficient_scr(job_table_problems))
        subselection = SocialChoiceRule(
            tuple(extensions[q.id] for q in job_table_problems),
            {
                "P": frozenset({"j3,j1,j2", "j1,j2,j3", "j1,j3,j2"}),
                "Pp": frozenset({"j3,j1,j2", "j1,j2,j3"}),
                "Ppp": frozenset({"j3,j1,j2", "j1,j3,j2"}),
            },
        )
        assert check_efficiency(subselection)
        assert not check_rotation_monotonicity(subselection)


def test_criterion_3_marriage_market(marriage_market_problems):
    with criterion(3, "marriage market: optimal matchings and rotation monotonicity", 1.0):
        p_r, p_rp = marriage_market_problems
        assert matching_id(deferred_acceptance(p_r, "men"), p_r) == "m1:w2,m2:w3,m3:w1"
        assert matching_id(deferred_acceptance(p_r, "women"), p_r) == "m1:w1,m2:w2,m3:w3"
        assert matching_id(deferred_acceptance(p_rp, "men"), p_rp) == "m1:w2,m2:w3,m3:w1"
        assert matching_id(deferred_acceptance(p_rp, "women"), p_rp) == "m1:w3,m2:w1,m3:w2"
        scr = marriage_optimal_scr(marriage_market_problems)
        witness = optimal_orderings(marriage_market_problems)
        # ordering is (woman-optimal, man-optimal) at each profile
        for p in marriage_market_problems:
            mu_w = matching_id(deferred_acceptance(p, "women"), p)
            mu_m = matching_id(deferred_acceptance(p, "men"), p)
            assert witness.orderings[p.id] == (mu_w, mu_m)
        assert verify_rotation_monotonicity_with(scr, witness)


def test_criterion_4_housing(housing_economy):
    with criterion(4, "housing exchange economy: core, cycle, MSS, construction", 5.0):
        mu = "h2,h3,h1"
        assert direct_exclusion_core(housing_economy) == (mu,)
        env = exclusion_environment(housing_economy)
        dg = build_improvement_digraph(env)
        cycle = [("h2,h1,h3", "h1,h3,h2", {1, 2}),
                 ("h1,h3,h2", "h3,h2,h1", {0, 2}),
                 ("h3,h2,h1", "h2,h1,h3", {0, 1})]
        for a, b, members in cycle:
            assert frozenset(members) in dg.edge_coalitions.get((a, b), ())
        assert compute_mss(env, dg).outcome_set == {mu}
        scr = exclusion_core_scr([housing_economy])
        report = verify_implementation_in_mss(build_thm1_structure(scr), scr)
        assert report.ok


def test_criterion_5_solution_concept_equivalence():
    with criterion(5, "absorbing = MSS = generalized stable unions on 200 environments", 60.0):
        rng = random.Random(101)
        for k in range(200):
            env = random_environment(
                rng,
                n_states=rng.randint(2, 8),
                n_agents=rng.randint(1, 4),
                weak=(k % 3 == 0),
            )
            dg = build_improvement_digraph(env)
            mss = compute_mss(env, dg).states
            absorbing_union = frozenset(
                s for b in compute_absorbing_sets(env, dg) for s in b
            )
            generalized_union = frozenset(
                s for v in compute_generalized_stable_sets(env, dg) for s in v
            )
            oracle = brute_force_mss(dg)
            assert mss == absorbing_union == generalized_union == oracle


def test_criterion_6_theorem1_property_suite():
    with criterion(6, "Theorem 1 construction on 100 efficient indirect-monotone rules", 120.0):
        rng = random.Random(103)
        accepted = 0
        while accepted < 100:
            scr = random_scr(
                rng,
                n_alternatives=rng.randint(2, 4),
                n_agents=rng.randint(2, 4),
                n_profiles=rng.randint(1, 3),
            )
            assert check_efficiency(scr)  # holds by construction
            if not check_indirect_monotonicity(scr):
                continue
            accepted += 1
            structure = build_thm1_structure(scr)
            assert verify_implementation_in_mss(structure, scr).ok
            for p in scr.profiles:
                diag = compute_diagnostic_sets(structure, scr, p)
                mss = compute_mss(SocialEnvironment(structure, p))
                assert diag.union == mss.states


def test_criterion_7_theorem5_pipeline():
    with criterion(7, "common-best-job pipeline on 50 seeded domains", 120.0):
        rng = random.Random(107)
        problems_seen = 0
        for k in range(50):
            n = (2, 3, 4)[k % 3]
            problems = random_common_best_domain(rng, n, 2)
            problems_seen += len(problems)
            for problem in problems:
                arrangement = circular_arrangement(problem)
                holders = [parse_alloc(a).index("j1") for a in arrangement]
                for i in range(len(holders)):
                    assert holders[i] != holders[(i + 1) % len(holders)]
                counts = {i: len(g) for i, g in top_job_groups(problem).items()}
                total = sum(counts.values())
                assert all(total - c >= c for c in counts.values())
            scr = efficient_scr(problems)
            orderings = arrangement_orderings(problems)
            assert verify_rotation_monotonicity_with(scr, orderings)
            assert check_property_m(scr, orderings)
            structure = build_thm4_structure(scr, orderings)
            assert verify_implementation_in_rotation_programs(structure, scr).ok
        assert problems_seen >= 50


def test_criterion_8_theorem6_pipeline():
    with criterion(8, "partially-informed-planner pipeline on 50 seeded domains", 120.0):
        rng = random.Random(109)
        problems_seen = 0
        for k in range(50):
            n = (2, 3, 4)[k % 3]
            problems = random_hat_domain(rng, n, 2)
            problems_seen += len(problems)
            for problem in problems:
                ordered = build_phi(problem)
                tau = problem.top(0)
                allocs = [parse_alloc(a) for a in ordered]
                assert len(allocs) % 2 == 0
                ids = set(ordered)
                assert len(ids) == len(ordered)
                for i, alloc in enumerate(allocs, start=1):
                    if i % 2 == 1:
                        assert alloc[0] == tau  # property (1)
                    else:
                        assert alloc[1] == tau  # property (2)
                for i in range(0, len(allocs), 2):
                    x, xhat = allocs[i], allocs[i + 1]
                    assert xhat == (x[1], x[0]) + x[2:]  # property (3)
                for alloc in allocs:  # hat closure
                    assert ",".join((alloc[1], alloc[0]) + alloc[2:]) in ids
            scr = phi_scr(problems)
            orderings = phi_orderings(problems)
            structure = build_thm4_structure(scr, orderings)
            assert verify_implementation_in_rotation_programs(structure, scr).ok
        assert problems_seen >= 50


def test_criterion_9_necessity_crosscheck(xyz_scr):
    with criterion(9, "rotation monotonicity iff rotation-program pipeline succeeds", 120.0):
        rng = random.Random(113)
        outcomes = {True: 0, False: 0}
        instances = [xyz_scr]  # multi-valued everywhere, known violator
        while len(instances) < 120:
            instances.append(
                random_scr(
                    rng,
                    n_alternatives=rng.randint(3, 4),
                    n_agents=rng.randint(2, 4),
                    n_profiles=rng.randint(2, 3),
                    multi_valued=True,
                )
            )
        for scr in instances:
            assert all(len(scr.choice(p.id)) > 1 for p in scr.profiles)
            monotone = bool(check_rotation_monotonicity(scr))
            shared = find_shared_ordering(scr)
            assert (shared is not None) == monotone
            pipeline_ok = False
            if shared is not None:
                structure = build_thm4_structure(scr, shared)
                pipeline_ok = verify_implementation_in_rotation_programs(structure, scr).ok
            assert pipeline_ok == monotone
            outcomes[monotone] += 1
        assert outcomes[True] >= 1 and outcomes[False] >= 1, outcomes
