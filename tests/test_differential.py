"""The int-indexed digraph and solver core, the linear-time paths, the
housing bitmask kernel, the table-driven condition checks, the contour-split
five-rule structure, the rights-block reader, the rows as the only store
of a rights structure's states and gamma (against the dict compile), the
environment's unknown-outcome refusal and the domains' allocation
enumeration, own-share extensions and phi filter against the reference
code they replaced (tests/oracles.py), plus forged digraphs that must
still trip every post-hoc re-verification check."""

import itertools
import json
import pathlib
import random
from collections import Counter, deque

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from instances import (
    random_environment,
    random_linear_profile,
    random_scr,
    random_weak_profile,
)
from oracles import (
    brute_force_stable_matching_ids,
    contour_five_rule_gamma,
    dict_compiled_rights,
    dict_rights_digraph,
    dict_rights_doc,
    dominance_scan_efficiency,
    dominance_scan_pareto_frontier,
    dominance_scan_phi,
    forward_bfs_path,
    from_maps,
    full_hops_into,
    index_allocation_profile,
    index_extend_job_preferences,
    index_matching_profile,
    int_tarjan_sccs,
    pair_scan_digraph,
    pairwise_domain_restriction,
    pairwise_generalized_stable_sets,
    per_member_absorbing_sets,
    per_state_external_paths,
    per_state_unknown_outcome,
    recursive_house_allocations,
    scan_direct_exclusion_core,
    scan_exclusion_gamma,
    scan_rights_gamma,
    streamed_rights_read,
    string_absorbing_sets,
    string_check_indirect_monotonicity,
    string_check_maskin_monotonicity,
    string_check_property_m,
    string_check_rotation_monotonicity,
    string_core,
    string_digraph,
    string_find_shared_ordering,
    string_generalized_stable_sets,
    string_mss,
    string_partition,
    string_rotation_certificates,
    string_tarjan_sccs,
    string_verify_rotation_monotonicity_with,
    tarjan_verify,
    terminal_components,
)
from rotakit import constructors, solvers
from rotakit.conditions import (
    check_indirect_monotonicity,
    check_maskin_monotonicity,
    check_property_m,
    check_rotation_monotonicity,
    find_shared_ordering,
    rotation_certificates,
    verify_rotation_monotonicity_with,
)
from rotakit.constructors import (
    build_thm1_structure,
    build_thm4_structure,
    verify_implementation_in_mss,
    verify_implementation_in_rotation_programs,
)
from rotakit.domains import (
    Economy,
    allocation_profile,
    build_phi,
    direct_exclusion_core,
    enumerate_stable_matchings,
    exclusion_environment,
    exclusion_rights_structure,
    extend_job_preferences,
    house_allocations,
    matching_id,
    matching_profile,
)
from rotakit.generators import (
    random_common_best_domain,
    random_economy,
    random_hat_domain,
    random_marriage_domain,
    random_marriage_problem,
)
from rotakit.model import (
    CapExceeded,
    InputError,
    Profile,
    SocialChoiceRule,
    check_efficiency,
    pareto_frontier,
    validate_domain_restriction,
)
from rotakit.rights import (
    ImprovementDigraph,
    RightsStructure,
    SocialEnvironment,
    State,
    build_improvement_digraph,
    find_myopic_improvement_path,
    hops_into,
)
from rotakit.serialize import (
    domain_scr,
    dumps,
    environment_from_doc,
    is_domain_doc,
    jobs_to_doc,
    load_document,
    marriage_to_doc,
    rights_from_doc,
    rights_to_doc,
    scr_from_doc,
)
from rotakit.solvers import (
    SolutionReport,
    compute_absorbing_sets,
    compute_core,
    compute_generalized_stable_sets,
    compute_mss,
    partition_into_rotation_programs,
    verified_mss_states,
)

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def _shuffled_gamma(env: SocialEnvironment, rng: random.Random) -> SocialEnvironment:
    """The same environment with gamma listed in a random order."""
    items = list(env.rights.gamma.items())
    rng.shuffle(items)
    return SocialEnvironment(RightsStructure(env.rights.states, dict(items)), env.profile)


def _assert_rows_match_dicts(fast: RightsStructure, ref, rng: random.Random) -> None:
    """The gamma count, the entries in order, the states, the views, the JSON, two random
    profiles' digraphs and the refusal of a profile that lacks some outcomes of a structure
    equal those of the dict compile `ref` of the same input."""
    assert len(fast.gamma) == len(ref.gamma) and "_table" not in vars(fast.gamma)  # counted
    assert list(fast.entries()) == [  # by source, then target id, whatever the groups
        (a, b, fam, ref.provenance.get((a, b))) for (a, b), fam in ref.gamma.items()
    ]
    for key, s in zip(fast.keys(), ref.states, strict=True):  # read off the rows
        assert (fast.outcome(key), fast.state(key)) == (s.outcome, s)
        assert type(fast.state(key)) is State
    assert fast.states == ref.states and all(type(s) is State for s in fast.states)
    assert list(fast.gamma.items()) == list(ref.gamma.items())
    assert list(fast.provenance.items()) == list(ref.provenance.items())
    assert fast.max_agent() == ref.max_agent
    doc = dict_rights_doc(ref)  # tests/test_writer.py pins the bytes `dumps` writes for a doc
    assert rights_to_doc(fast) == doc and json.loads(dumps(fast)) == doc
    outcomes = tuple(dict.fromkeys(s.outcome for s in fast.states))
    for draw in (random_linear_profile, random_weak_profile):
        profile = draw(rng, "R", outcomes, max(1, fast.max_agent() + 1))
        dg = build_improvement_digraph(SocialEnvironment(fast, profile))
        succ, pred, edges = dict_rights_digraph(ref, profile)
        assert (dg.succ, dg.pred) == (succ, pred)
        assert list(dg.edge_coalitions.items()) == list(edges.items())
    if len(outcomes) > 1:
        kept = rng.sample(outcomes, rng.randint(1, len(outcomes) - 1))
        profile = random_linear_profile(rng, "L", kept, max(1, fast.max_agent() + 1))
        want = per_state_unknown_outcome(ref.states, profile)
        with pytest.raises(InputError) as err:
            SocialEnvironment(fast, profile)
        assert (str(err.value), err.value.where) == (str(want), want.where)


def _sparse_environments(seed: int, count: int):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(2, 30)
        env = random_environment(
            rng,
            n_states=n,
            n_agents=rng.randint(1, 3),
            n_alternatives=rng.randint(2, n + 1),
            density=rng.uniform(0.5, 3.0) / n,
            weak=rng.random() < 0.5,
        )
        yield _shuffled_gamma(env, rng)


def _shortest_path_count(dg, start, targets) -> int:
    """Number of distinct shortest paths from `start` into `targets`."""
    dist, count = {start: 0}, {start: 1}
    queue = deque([start])
    best = None
    total = 0
    while queue:
        a = queue.popleft()
        if best is not None and dist[a] >= best:
            break
        for b in dg.adjacency[a]:
            if b not in dist:
                dist[b], count[b] = dist[a] + 1, 0
                if b not in targets:
                    queue.append(b)
            if dist[b] == dist[a] + 1:
                count[b] += count[a]
                if b in targets:
                    best = dist[b]
    for t in targets:
        if dist.get(t) == best:
            total += count[t]
    return total


def test_digraph_matches_pair_scan_on_sparse_environments():
    for env in _sparse_environments(11, 150):
        fast, ref = build_improvement_digraph(env), pair_scan_digraph(env)
        assert fast.nodes == ref.nodes
        assert fast.edges == ref.edges
        assert list(fast.adjacency.items()) == list(ref.adjacency.items())
        assert list(fast.predecessors.items()) == list(ref.predecessors.items())
        assert list(fast.edge_coalitions.items()) == list(ref.edge_coalitions.items())


def _field_edge_environments(rng: random.Random):
    """Every state its own outcome, gamma dense with random families on the first agents, and
    weak orders whose largest rank is 2^k - 1 or 2^k, the edge of a packed rank field.  The
    last agents are named by no coalition, one agent is indifferent among all outcomes, and
    one structure's gamma grants every pair to nobody, so that it names no agent."""
    for top in (1, 2, 3, 4, 7, 8, 15, 16):
        n_agents, named = rng.randint(2, 6), rng.randint(1, 3)
        states = tuple(State(f"s{i}", f"x{i}") for i in range(top + 1 + rng.randint(0, 3)))
        every = [frozenset(c) for r in (1, 2, 3) for c in itertools.combinations(range(named), r)]
        gamma = {
            (a.key, b.key): frozenset(rng.sample(every, rng.randint(1, len(every))))
            for a in states
            for b in states
            if a != b and rng.random() < 0.8
        }
        outcomes = [s.outcome for s in states]
        rows = []
        for i in range(n_agents):
            row = [*range(top + 1), *(rng.randint(0, top) for _ in outcomes[top + 1 :])]
            rng.shuffle(row)
            rows.append(row if i != 1 else [0] * len(outcomes))
        profile = Profile.from_ranks("R", outcomes, rows)
        assert max(map(max, rows)) == top
        yield SocialEnvironment(RightsStructure(states, gamma), profile)
        if top == 16:
            nobody = dict.fromkeys(gamma, frozenset())
            yield SocialEnvironment(RightsStructure(states, nobody), profile)


def _dense_environments():
    """Sampled economies of 2-4 agents, the Theorem-4 structures of marriage 3x3 and 4x4
    (8 agents) and of jobs n = 4, and the packed field's edges."""
    rng = random.Random(36)
    for n in (2, 3, 4):
        yield exclusion_environment(random_economy(rng, f"E{n}", n))
    domains = [marriage_to_doc(random_marriage_domain(rng, n, 2)) for n in (3, 4)]
    domains.append(jobs_to_doc(random_common_best_domain(rng, 4, 2)))
    for doc in domains:
        scr, witness = domain_scr(doc)
        structure = build_thm4_structure(scr, witness)
        yield from (SocialEnvironment(structure, p) for p in scr.profiles)
    yield from _field_edge_environments(rng)


def test_digraph_matches_pair_scan_on_dense_environments():
    sizes = []
    for env in _dense_environments():
        fast, ref = build_improvement_digraph(env), pair_scan_digraph(env)
        assert (fast.succ, fast.pred) == (ref.succ, ref.pred)
        assert list(fast.edge_coalitions.items()) == list(ref.edge_coalitions.items())
        sizes.append((env.profile.n_agents, len(env.rights.gamma), len(fast.edge_coalitions)))
    assert max(sizes) >= (8, 40_000, 1) and any(not entries for _, entries, _ in sizes), sizes


def test_gamma_order_does_not_change_digraph_or_document():
    for env in _sparse_environments(12, 40):
        backwards = dict(reversed(list(env.rights.gamma.items())))
        again = SocialEnvironment(RightsStructure(env.rights.states, backwards), env.profile)
        assert build_improvement_digraph(again) == build_improvement_digraph(env)
        doc = rights_to_doc(again.rights)
        assert doc == rights_to_doc(env.rights)
        keys = env.rights.keys()
        pairs = [(a, b) for a in keys for b in keys if (a, b) in env.rights.gamma]
        assert [(g["from"], g["to"]) for g in doc["gamma"]] == pairs


def test_solvers_match_reference_on_sparse_environments():
    ties = 0
    for env in _sparse_environments(13, 150):
        dg = build_improvement_digraph(env)
        blocks = compute_absorbing_sets(env, dg)
        assert blocks == per_member_absorbing_sets(dg)
        report = compute_mss(env, dg)
        members = report.states
        expected = per_state_external_paths(dg, members)
        assert list(report.witness["external_paths"].items()) == list(expected.items())
        ties += sum(_shortest_path_count(dg, s, members) > 1 for s in expected)
        n_candidates = 1
        for b in blocks:
            n_candidates *= len(b)
        if n_candidates <= 256:
            assert compute_generalized_stable_sets(env, dg) == pairwise_generalized_stable_sets(
                dg, blocks
            )
    assert ties >= 20, "the sample must exercise ties among shortest paths"


def _assert_int_core_matches_strings(env: SocialEnvironment, cap: int = 256) -> SolutionReport:
    """Every view and solver result of the int core equals, in order, what the
    string-keyed reference code computes on the string-keyed digraph."""
    fast, ref = build_improvement_digraph(env), string_digraph(env)
    assert len(fast.edge_coalitions) == len(ref.edge_coalitions)
    assert fast.nodes == ref.nodes
    assert list(fast.adjacency.items()) == list(ref.adjacency.items())
    assert list(fast.predecessors.items()) == list(ref.predecessors.items())
    assert list(fast.edge_coalitions.items()) == list(ref.edge_coalitions.items())
    assert fast.edges == ref.edges
    assert fast == ref
    terminal = solvers._terminal_sccs(fast.succ)
    assert terminal == terminal_components(fast, int_tarjan_sccs(fast))
    assert terminal == terminal_components(ref, string_tarjan_sccs(ref))
    assert compute_core(env, fast) == string_core(env, ref)
    assert compute_absorbing_sets(env, fast) == string_absorbing_sets(ref)
    report, expected = compute_mss(env, fast), string_mss(env, ref)
    assert report == expected
    goals = sorted(map(fast.id_of.__getitem__, report.states))
    assert hops_into(fast, goals) == full_hops_into(fast, goals)
    paths = report.witness["external_paths"]
    assert list(paths.items()) == list(expected.witness["external_paths"].items())
    try:
        generalized = compute_generalized_stable_sets(env, fast, cap=cap)
    except CapExceeded as exc:
        with pytest.raises(CapExceeded) as expected_exc:
            string_generalized_stable_sets(ref, cap)
        assert str(exc) == str(expected_exc.value)
    else:
        assert generalized == string_generalized_stable_sets(ref, cap)
    partition = partition_into_rotation_programs(env, report.states, fast)
    assert partition == string_partition(env, ref, report.states)
    return report


def test_int_core_matches_strings_on_sparse_environments():
    for env in _sparse_environments(14, 150):
        _assert_int_core_matches_strings(env)


def _random_succ(n: int, shape: str, density: float, rng: random.Random) -> list[list[int]]:
    """Successor lists on ids 0..n-1: each ordered pair, loops included, an edge with
    probability `density` ("random"), one cycle through every id ("cycle"), or a chain
    into a cycle, a plain chain when that cycle has one id ("tail"); each list shuffled."""
    if shape == "random":
        succ = [[b for b in range(n) if rng.random() < density] for _ in range(n)]
    elif shape == "cycle":
        succ = [[(a + 1) % n] for a in range(n)]
    else:
        k = rng.randrange(n) if n else 0  # the cycle is k..n-1
        succ = [[a + 1] if a + 1 < n else [k] if k < a else [] for a in range(n)]
    for out in succ:
        rng.shuffle(out)
    return succ


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(
    n=st.integers(0, 40),
    shape=st.sampled_from(("random", "cycle", "tail")),
    density=st.floats(0, 1),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=40, shape="cycle", density=0.0, seed=0)
@example(n=40, shape="tail", density=0.0, seed=0)
def test_terminal_sccs_and_hops_match_reference_on_any_digraph(n, shape, density, seed):
    rng = random.Random(seed)
    succ = _random_succ(n, shape, density, rng)
    pred: list[list[int]] = [[] for _ in succ]
    for a, out in enumerate(succ):
        for b in out:
            pred[b].append(a)
    dg = ImprovementDigraph({f"s{i}": i for i in range(n)}, succ, pred, {})
    assert solvers._terminal_sccs(succ) == terminal_components(dg, int_tarjan_sccs(dg))
    goals = [rng.randrange(n) for _ in range(rng.randint(0, 3))] if n else []
    assert hops_into(dg, goals) == full_hops_into(dg, goals)


def _own_outcome_environments(seed: int, count: int):
    """Every state its own outcome and a few targets per state, mostly with
    every agent entitled alone: the shape in which one SCC holds most states."""
    rng = random.Random(seed)
    for _ in range(count):
        n, n_agents = rng.randint(2, 40), rng.randint(2, 5)
        states = tuple(State(f"s{i}", f"x{i}") for i in range(n))
        keys = [s.key for s in states]
        singletons = frozenset(frozenset([i]) for i in range(n_agents))
        coalitions = [
            frozenset(c)
            for size in range(1, n_agents + 1)
            for c in itertools.combinations(range(n_agents), size)
        ]
        gamma = {}
        for a in keys:
            for b in rng.sample(keys, min(n, rng.randint(2, 5))):
                if a != b and rng.random() < 0.7:
                    gamma[(a, b)] = singletons
                elif a != b:
                    gamma[(a, b)] = frozenset(rng.sample(coalitions, min(2, len(coalitions))))
        profile = random_weak_profile(rng, "R", [s.outcome for s in states], n_agents)
        yield _shuffled_gamma(SocialEnvironment(RightsStructure(states, gamma), profile), rng)


def test_int_core_matches_strings_when_every_state_has_its_own_outcome():
    giant = 0
    for env in _own_outcome_environments(15, 120):
        report = _assert_int_core_matches_strings(env)
        largest = max(len(b) for b in report.witness["absorbing_sets"])
        giant += len(env.rights.states) >= 10 and largest * 2 >= len(env.rights.states)
    assert giant >= 10, "the sample must include absorbing sets holding most states"


def _theorem_structures(scr, witness=None):
    yield build_thm1_structure(scr)
    witness = witness or find_shared_ordering(scr)
    if witness is not None:
        yield build_thm4_structure(scr, witness)


def test_int_core_matches_strings_on_theorem_structures():
    checked = 0
    for path in sorted(FIXTURES.glob("*.json")):
        doc = load_document(str(path))
        scr, witness = domain_scr(doc) if is_domain_doc(doc) else (scr_from_doc(doc), None)
        for structure in _theorem_structures(scr, witness):
            for p in scr.profiles:
                _assert_int_core_matches_strings(SocialEnvironment(structure, p))
                checked += 1
    rng = random.Random(16)
    for _ in range(60):
        n_agents = rng.randint(1, 3)
        scr = random_scr(
            rng,
            n_alternatives=rng.randint(2, 5),
            n_agents=n_agents,
            n_profiles=rng.randint(1, 3),
            # one linear agent has a one-outcome frontier: random_scr would redraw forever
            multi_valued=n_agents > 1 and rng.random() < 0.5,
        )
        for structure in _theorem_structures(scr):
            for p in scr.profiles:
                _assert_int_core_matches_strings(SocialEnvironment(structure, p))
                checked += 1
    assert checked >= 150


def test_partition_matches_strings_on_arbitrary_state_sets():
    rng = random.Random(18)
    reasons = set()
    for env in _sparse_environments(18, 150):
        keys = env.rights.keys()
        fast, ref = build_improvement_digraph(env), string_digraph(env)
        for _ in range(4):
            members = rng.sample(keys, rng.randint(1, len(keys)))
            result = partition_into_rotation_programs(env, members, fast)
            assert result == string_partition(env, ref, members)
            reasons.add(result.reason.split(" ")[0] if result.reason else "ok")
    assert reasons >= {"ok", "improvement", "two", "successor", "blocks"}, reasons


def test_edge_count_is_read_without_building_the_table():
    for env in _sparse_environments(17, 20):
        dg, ref = build_improvement_digraph(env), string_digraph(env)
        assert len(dg.edge_coalitions) == len(ref.edge_coalitions)
        assert "_table" not in vars(dg.edge_coalitions)
        assert "adjacency" not in vars(dg) and "predecessors" not in vars(dg)
        assert list(dg.edge_coalitions.items()) == list(ref.edge_coalitions.items())


def test_shortest_path_tie_follows_declaration_order():
    # s reaches t through x or y in two steps; y is declared first, so both
    # the per-state BFS and the reverse-distance walk must go through y.
    keys = ("s", "y", "x", "t")
    states = tuple(State(k, k) for k in keys)
    one = frozenset([frozenset([0])])
    gamma = {("x", "t"): one, ("s", "x"): one, ("y", "t"): one, ("s", "y"): one}
    profile = Profile.from_orders("R", keys, [["t", "x", "y", "s"]])
    env = SocialEnvironment(RightsStructure(states, gamma), profile)
    dg = build_improvement_digraph(env)
    assert dg.adjacency["s"] == ("y", "x")
    paths = compute_mss(env, dg).witness["external_paths"]
    assert paths["s"] == ("s", "y", "t")
    assert paths == per_state_external_paths(dg, frozenset({"t"}))


def test_myopic_path_matches_forward_bfs_on_arbitrary_targets():
    # find_myopic_improvement_path follows the next hops of one reverse
    # search; it must return the early-exit forward BFS's path, coalitions
    # included, for any target set (empty, start inside, unreachable).
    rng = random.Random(14)
    ties = missing = 0
    for i in range(600):
        n = rng.randint(2, 14)
        env = random_environment(
            rng,
            n_states=n,
            n_agents=rng.randint(1, 3),
            n_alternatives=rng.randint(2, n + 1),
            density=rng.uniform(1.0, 5.0) / n,
            weak=i % 2 == 1,
        )
        dg = build_improvement_digraph(env)
        for start in dg.nodes:
            targets = set(rng.sample(dg.nodes, rng.randint(0, n)))
            path = find_myopic_improvement_path(env, start, targets, digraph=dg)
            assert path == forward_bfs_path(dg, start, targets)
            if path is None:
                missing += 1
            elif path.steps:
                ties += _shortest_path_count(dg, start, targets) > 1
    assert ties >= 100 and missing >= 1000, "the sample must exercise ties and unreachable targets"


def _random_economies(seed: int, count: int):
    """Economies of 1-4 agents and 1-4 houses with owner coalitions of any
    size and the outside option anywhere in each order.  Only the first is
    4x4: the reference scan takes seconds on each of those."""
    rng = random.Random(seed)
    sizes = [(n, m) for n in range(1, 5) for m in range(1, 5) if n * m < 16]
    for e in range(count):
        n, m = (4, 4) if e == 0 else rng.choice(sizes)
        houses = tuple(f"h{i + 1}" for i in range(m))
        owners = {h: frozenset(rng.sample(range(n), rng.randint(1, n))) for h in houses}
        orders = []
        for _ in range(n):
            order = list(houses) + ["h0"]
            rng.shuffle(order)
            orders.append(tuple(order))
        yield Economy(f"E{e}", n, houses, "h0", owners, tuple(orders))


def test_housing_kernel_matches_definition_scans():
    rng = random.Random(22)
    cores = set()
    for economy in _random_economies(21, 60):
        fast = exclusion_rights_structure(economy)
        _assert_rows_match_dicts(fast, dict_compiled_rights(*scan_exclusion_gamma(economy)), rng)
        core = direct_exclusion_core(economy)
        assert core == scan_direct_exclusion_core(economy)
        cores.add(len(core) / len(fast.states))
    assert len(cores) > 10, "the sample must give cores of many sizes"


def _assert_same_profile(fast: Profile, ref: Profile) -> None:
    assert fast.id == ref.id and fast.alternatives == ref.alternatives
    assert [p.ranks for p in fast.prefs] == [p.ranks for p in ref.prefs]


def test_economy_allocations_and_profile_match_recursive_enumeration():
    sizes = set()
    for economy in _random_economies(31, 80):
        sizes.add((economy.n_agents, len(economy.houses)))
        assert house_allocations(economy) == recursive_house_allocations(economy)
        _assert_same_profile(allocation_profile(economy), index_allocation_profile(economy))
    assert len(sizes) == 16, "the sample must cover 1-4 agents x 1-4 houses"


def test_pareto_frontier_matches_dominance_scan():
    """Weak and strict profiles over 1-7 alternatives, declared in shuffled order,
    and 1-4 agents."""
    rng = random.Random(34)
    sizes = set()
    for k in range(4000):
        alts = tuple(f"a{i}" for i in rng.sample(range(7), rng.randint(1, 7)))
        draw = random_weak_profile if k % 2 else random_linear_profile
        profile = draw(rng, "R", alts, rng.randint(1, 4))
        frontier = pareto_frontier(profile)
        assert frontier == dominance_scan_pareto_frontier(profile), profile
        sizes.add((len(alts), len(frontier) < len(alts)))
    assert len(sizes) == 13, "every size but one alternative must have a dominated one"


def test_domain_restriction_and_efficiency_match_pairwise_scans():
    """Verdict and witness on weak profiles over 2-7 alternatives, declared in
    shuffled order, and 1-4 agents (ties are where domain restriction fails),
    with chosen sets that are random nonempty subsets of all the alternatives
    (where efficiency fails) or of the frontier; and on every fixture."""
    rng = random.Random(35)
    seen = set()
    for k in range(3000):
        alts = tuple(f"a{i}" for i in rng.sample(range(7), rng.randint(2, 7)))
        n_agents = rng.randint(1, 4)
        profiles = [random_weak_profile(rng, f"R{j}", alts, n_agents) for j in range(3)]
        for p in profiles:
            verdict = validate_domain_restriction(p)
            assert verdict == pairwise_domain_restriction(p), p
            seen.add(("domain", verdict.ok))
        pool = {p.id: sorted(pareto_frontier(p)) if k % 2 else alts for p in profiles}
        choices = {pid: rng.sample(z, rng.randint(1, len(z))) for pid, z in pool.items()}
        scr = SocialChoiceRule(profiles, choices)
        verdict = check_efficiency(scr)
        assert verdict == dominance_scan_efficiency(scr), scr
        seen.add(("efficiency", verdict.ok))
    assert len(seen) == 4, "each check must both pass and fail in the sample"
    for path in sorted(FIXTURES.glob("*.json")):
        doc = load_document(str(path))
        scr = domain_scr(doc)[0] if is_domain_doc(doc) else scr_from_doc(doc)
        for p in scr.profiles:
            assert validate_domain_restriction(p) == pairwise_domain_restriction(p)
        assert check_efficiency(scr) == dominance_scan_efficiency(scr)


def test_job_extension_and_phi_match_index_loops_and_dominance_scan():
    rng = random.Random(32)
    phis = 0
    for n in range(2, 7):
        for domain in (random_hat_domain, random_common_best_domain):
            for problem in domain(rng, n, 8):
                ext = extend_job_preferences(problem)
                _assert_same_profile(ext, index_extend_job_preferences(problem))
                if n > 5:
                    with pytest.raises(CapExceeded):
                        build_phi(problem)
                    continue
                assert build_phi(problem) == dominance_scan_phi(problem)
                phis += 1
    assert phis > 50, "n = 2 clamps each domain to its one or two profiles"


def test_matching_profile_and_stable_set_match_index_loop_and_brute_force():
    rng = random.Random(33)
    markets = [(a, b, False) for a in range(1, 5) for b in range(1, 5)]
    markets += [(a, a, True) for a in range(1, 5)]
    for n_men, n_women, pure in markets:
        for k in range(3):
            problem = random_marriage_problem(rng, f"M{k}", n_men, n_women, pure)
            _assert_same_profile(matching_profile(problem), index_matching_profile(problem))
            stable = tuple(matching_id(mu, problem) for mu in enumerate_stable_matchings(problem))
            assert stable == brute_force_stable_matching_ids(problem)


def test_equal_families_validate_once_to_equal_results():
    states = tuple(State(k, k) for k in "abc")
    fam = frozenset([frozenset([0]), frozenset([0, 1])])
    again = frozenset([frozenset([1, 0]), frozenset([0])])
    assert again == fam and again is not fam
    shared = RightsStructure(states, {("a", "b"): fam, ("b", "c"): again})
    assert shared.gamma[("a", "b")] is shared.gamma[("b", "c")]
    listed = RightsStructure(states, {("a", "b"): [[0], [1, 0]], ("b", "c"): [[0], [0, 1]]})
    assert listed.gamma == shared.gamma
    assert listed.max_agent() == shared.max_agent() == 1


def _rights_documents():
    """Rights blocks of the seeded sparse environments, each coalition list
    shuffled with some coalitions repeated and some entries split in two
    for the same pair, then those of the fixtures and of their Theorem-1 and
    Theorem-4 structures (graph and opaque states, rules)."""
    rng = random.Random(19)
    for env in _sparse_environments(11, 150):
        doc = rights_to_doc(env.rights)
        split = []
        for entry in doc["gamma"]:
            coalitions = [rng.sample(k, len(k)) for k in entry["coalitions"]]
            coalitions += rng.choices(coalitions, k=rng.randint(0, 2))
            rng.shuffle(coalitions)
            if len(coalitions) > 1 and rng.random() < 0.2:
                cut = rng.randint(1, len(coalitions) - 1)
                split.append({**entry, "coalitions": coalitions[cut:]})
                coalitions = coalitions[:cut]
            entry["coalitions"] = coalitions
        doc["gamma"] += split
        yield {"rights": doc}
    for path in sorted(FIXTURES.glob("*.json")):
        doc = load_document(str(path))
        if "rights" in doc:
            yield doc
        scr, witness = domain_scr(doc) if is_domain_doc(doc) else (scr_from_doc(doc), None)
        for structure in _theorem_structures(scr, witness):
            yield {"rights": rights_to_doc(structure)}


def _scan_read(doc):
    return dict_compiled_rights(*scan_rights_gamma(doc))


def test_rights_reader_matches_per_entry_reader():
    rng = random.Random(23)
    documents = 0
    for doc in _rights_documents():
        fast = rights_from_doc(doc)
        _assert_rows_match_dicts(fast, _scan_read(doc), rng)
        one: dict = {}
        assert all(one.setdefault(fam, fam) is fam for fam in fast.gamma.values())
        documents += 1
    assert documents >= 150 + 4


def test_sparse_solve_documents_match_dict_compile(monkeypatch):
    """The benchmark's sparse-solve documents, at 40-64 states, read to the rows that
    the dict compile of the per-entry reader gives."""
    monkeypatch.syspath_prepend(str(FIXTURES.parent / "bench"))
    import workloads

    rng = random.Random(25)
    for seed in range(4):
        for doc in workloads.sparse_solve(seed, scale=0.02).docs.values():
            _assert_rows_match_dicts(rights_from_doc(doc), _scan_read(doc), rng)


def test_int_core_matches_strings_on_sparse_solve_documents(monkeypatch):
    """The benchmark's sparse-solve documents at 40-64 states, with a dozen
    absorbing sets or one of about 40 states, so generalized stable sets are
    compared at that many sets, and their cap refusal at that size."""
    monkeypatch.syspath_prepend(str(FIXTURES.parent / "bench"))
    import workloads

    for seed in range(4):
        for doc in workloads.sparse_solve(seed, scale=0.02).docs.values():
            env = environment_from_doc(doc, doc["profiles"][0]["id"])
            for cap in (256, 16):
                _assert_int_core_matches_strings(env, cap)


def test_public_constructor_matches_dict_compile():
    """`RightsStructure(states, gamma, provenance)` on the seeded sparse environments,
    with families given as frozensets or lists, some empty, and rules that are empty,
    on pairs with no entry, or on unknown states."""
    rng = random.Random(24)
    for env in _sparse_environments(12, 150):
        states, keys = env.rights.states, env.rights.keys()
        pairs = [(a, b) for a in keys for b in keys if a != b]
        gamma = {p: rng.choice([fam, [list(k) for k in fam]]) for p, fam in env.rights.gamma.items()}
        for p in rng.sample(pairs, min(3, len(pairs))):
            gamma.setdefault(p, rng.choice([frozenset(), []]))
        provenance = {p: rng.choice(["", "r1", "r2"]) for p in rng.sample(pairs, len(pairs) // 2)}
        provenance[("nope", keys[0])] = "ghost"
        fast = RightsStructure(states, gamma, provenance)
        _assert_rows_match_dicts(fast, dict_compiled_rights(states, gamma, provenance), rng)


def _random_groups(rng: random.Random, keys: list[str], agents: int, count: int) -> list:
    """(from, targets, coalitions, rule) groups over `keys` that repeat pairs within and
    across groups, give some alone, grant nobody now and then, and share family objects."""
    families = [
        frozenset(frozenset(rng.sample(range(agents), rng.randint(1, agents))) for _ in range(2))
        for _ in range(4)
    ] + [frozenset()]
    groups = []
    for _ in range(count):
        a = rng.choice(keys)
        targets = rng.choices([k for k in keys if k != a], k=rng.choice([1, 1, 2, 3, 5]))
        to = targets[0] if len(targets) == 1 and rng.random() < 0.5 else targets  # one key: alone
        groups.append((a, to, rng.choice(families), rng.choice([None, "", "r1", "r2"])))
    return groups


def _targets(to) -> list:
    return [to] if type(to) is str else list(to)


def _one_at_a_time(states, groups):
    """The dict compile of `groups` read one entry at a time: coalitions on a repeated pair
    join, and the last nonempty rule stands."""
    gamma, provenance = {}, {}
    for a, to, fam, rule in groups:
        for b in _targets(to):
            gamma[a, b] = gamma.get((a, b), frozenset()) | fam
            provenance[a, b] = rule or provenance.get((a, b))
    return dict_compiled_rights(states, gamma, provenance)


def test_grouped_input_matches_one_entry_at_a_time():
    """Groups that repeat pairs, alone or in other groups, and groups that grant nobody
    store what their entries, given one at a time, store; a broken entry is refused as it
    is when the entries come one at a time."""
    rng = random.Random(26)
    broken = 0
    for _ in range(300):
        states = [State(f"s{i}", f"o{rng.randrange(4)}") for i in range(rng.randint(2, 7))]
        keys = [s.key for s in states]
        groups = _random_groups(rng, keys, rng.randint(1, 3), rng.randint(0, 12))
        grouped = RightsStructure._build(states, groups)
        _assert_rows_match_dicts(grouped, _one_at_a_time(states, groups), rng)
        if groups:
            a, to, fam, rule = groups[k := rng.randrange(len(groups))]
            targets = _targets(to)
            targets[rng.randrange(len(targets))] = rng.choice(["ghost", a])
            bad = rng.choice([fam, [[0], [-1]]])
            groups[k] = (rng.choice([a, "ghost"]), targets, bad, rule)
            alone = [(x, b, f, r) for x, to, f, r in groups for b in _targets(to)]
            errors = []
            for given in (groups, alone):
                with pytest.raises(InputError) as err:
                    RightsStructure._build(states, given)
                errors.append((str(err.value), err.value.where))
            assert errors[0] == errors[1]
            broken += 1
    assert broken > 250


def test_rule_made_structures_reach_the_builder_as_groups(monkeypatch):
    """The exclusion structure of an n = 4 economy reaches the builder as at most 2^n groups
    per source, and the Theorem-4 structure of a jobs n = 5 domain as fewer groups than a
    tenth of its entries.  Each stored row strictly increases in target id, and no stored
    entry grants nobody, as the Rule-2 group of the targets that every agent ranks above a
    Pareto-dominated choice would."""
    given = []
    compile_rows = RightsStructure._compile

    def recorded(structure, states, groups, agents=None):
        given.append(groups := list(groups))
        compile_rows(structure, states, groups, agents)

    monkeypatch.setattr(RightsStructure, "_compile", recorded)
    economy = Economy(
        "E", 4, ("h1", "h2", "h3", "h4"), "h0",
        {"h1": {0}, "h2": {1, 2}, "h3": {3}, "h4": {0, 3}},
        tuple((*random.Random(i).sample(["h1", "h2", "h3", "h4"], 4), "h0") for i in range(4)),
    )
    structures = [exclusion_rights_structure(economy)]
    assert len(structures[0].gamma) > 40_000
    assert max(Counter(a for a, *_ in given.pop()).values()) <= 2**4
    problems = random_common_best_domain(random.Random(5), 5, 2)
    scr, witness = domain_scr(jobs_to_doc(problems))
    structures.append(build_thm4_structure(scr, witness))
    assert len(given.pop()) < len(structures[1].gamma) / 10 and not given
    p = Profile.from_orders("R", ("x", "y", "z"), [["x", "y", "z"], ["y", "x", "z"]])
    structures.append(build_thm1_structure(SocialChoiceRule((p,), {"R": {"z"}})))
    assert structures[2].entitled("z@R", "x") == frozenset()
    for row in (row for s in structures for row in s._core.rows):
        assert all(b < c for (b, *_), (c, *_) in zip(row, row[1:]))
        assert all(fam[0] for _, _, fam, _ in row)


def _read_error(read, doc) -> tuple[str, str | None] | None:
    try:
        read(doc)
    except InputError as exc:
        return str(exc), exc.path
    return None


def _fails_like_per_entry_reader(rng: random.Random, doc: dict, seen: set) -> None:
    """One broken gamma entry or state per mutation of `doc` gives the reference reader's
    message and path; only where it had no path does the reader now name one."""
    bad = [True, False, 1.0, -1, "0", None, [0], {}]
    mutations = [
        lambda g, s: g["coalitions"][0].__setitem__(0, rng.choice(bad)),
        lambda g, s: g["coalitions"].append(rng.choice([[], [rng.choice(bad)], 7, "ab"])),
        lambda g, s: g.__setitem__("coalitions", rng.choice([7, "ab", [7], {}, None])),
        lambda g, s: g.__setitem__(rng.choice(["from", "to"]), rng.choice([7, None, "nope"])),
        lambda g, s: g.__setitem__("to", g["from"]),
        lambda g, s: g.__setitem__("rule", rng.choice([7, None, ["r"]])),
        lambda g, s: g.pop(rng.choice(["from", "to", "coalitions"])),
        lambda g, s: g.clear(),
        lambda g, s: s.__setitem__("id", rng.choice([7, "s0"])),
        lambda g, s: s.__setitem__("outcome", rng.choice([7, None])),
    ]
    for mutate in mutations:
        broken = json.loads(json.dumps(doc))
        rights = broken["rights"]
        mutate(rng.choice(rights["gamma"]), rng.choice(rights["states"]))
        fast, ref = _read_error(rights_from_doc, broken), _read_error(_scan_read, broken)
        assert (fast is None) == (ref is None)
        if ref is not None:
            assert fast[0] == ref[0]
            assert fast[1] == ref[1] or ref[1] is None and fast[1].startswith("$.rights.")
            seen.add(ref[1] is None)


def test_rights_reader_fails_like_per_entry_reader():
    """Broken gamma entries and states give the reference reader's message and
    path; only where it had no path does the reader now name one."""
    rng = random.Random(20)
    seen = set()
    for doc in _rights_documents():
        if doc["rights"]["gamma"]:
            _fails_like_per_entry_reader(rng, doc, seen)
    assert seen == {True, False}, "both path-carrying and library errors must occur"


def test_rights_reader_names_the_entry_that_holds_an_agent_outside_the_profile():
    """On documents that carry `agents`, so that the agent range is checked, broken
    entries and states still read as the reference reader reads them, and an agent index
    at or above `agents`, put on any one entry (often a later entry of a repeated pair),
    is refused at that entry's coalitions."""
    rng = random.Random(21)
    seen, repeats = set(), 0
    for doc in _rights_documents():
        gamma = doc["rights"]["gamma"]
        if not gamma:
            continue
        top = max(m for g in gamma for k in g["coalitions"] for m in k)
        doc = {**doc, "agents": top + 1 + rng.randrange(2)}
        assert _read_error(rights_from_doc, doc) is None
        _fails_like_per_entry_reader(rng, doc, seen)
        broken = json.loads(json.dumps(doc))
        pairs = [(g["from"], g["to"]) for g in broken["rights"]["gamma"]]
        later = [i for i, pair in enumerate(pairs) if pair in pairs[:i]]
        i = rng.choice(later) if later and rng.random() < 0.7 else rng.randrange(len(pairs))
        repeats += i in later
        coalitions = broken["rights"]["gamma"][i]["coalitions"]
        outside = broken["agents"] + rng.choice([0, 1, 10**11])
        if rng.random() < 0.5:
            coalitions.insert(rng.randint(0, len(coalitions)), [outside])
        else:
            rng.choice(coalitions).append(outside)
        refused = "gamma mentions an agent index outside the profile"
        assert _read_error(rights_from_doc, broken) == (refused, f"$.rights.gamma[{i}].coalitions")
    assert seen == {True, False} and repeats > 20


def _reader_documents(monkeypatch):
    """The fixtures' rights documents, their Theorem-1 and Theorem-4 structures with
    `agents` set, and the sparse-solve documents at scale 0.02."""
    for path in sorted(FIXTURES.glob("*.json")):
        doc = load_document(str(path))
        if "rights" in doc:
            yield doc
        scr, witness = domain_scr(doc) if is_domain_doc(doc) else (scr_from_doc(doc), None)
        for structure in _theorem_structures(scr, witness):
            yield {"agents": scr.n_agents, "rights": rights_to_doc(structure)}
    monkeypatch.syspath_prepend(str(FIXTURES.parent / "bench"))
    import workloads

    for seed in range(2):
        yield from workloads.sparse_solve(seed, scale=0.02).docs.values()


def _coalitions(entry: dict) -> list:
    """The entry's coalitions, made a nonempty list of lists again where a fault replaced
    them."""
    cs = entry.get("coalitions")
    if not (isinstance(cs, list) and cs and all(isinstance(k, list) for k in cs)):
        entry["coalitions"] = [[0]]
    return entry["coalitions"]


def _put_fault(rng: random.Random, doc: dict, gamma: list, states: list) -> None:
    """One fault, in place, in the rights block of `doc`, on one of the entries `gamma` and
    one of the states `states` that it held before any fault."""
    rights, entry, state = doc["rights"], rng.choice(gamma), rng.choice(states)
    fault = rng.randrange(10)
    if fault == 0:  # a wrong type
        at, key = rng.choice([(entry, "from"), (entry, "to"), (entry, "coalitions"),
                              (state, "id"), (state, "outcome"), (rights, "gamma"),
                              (rights, "states")])
        at[key] = rng.choice([7, None, "ab", ["x"], [7], [None], {"a": 1}])
    elif fault == 1:  # a bool or float member
        k = rng.choice(_coalitions(entry))
        k.insert(rng.randint(0, len(k)), rng.choice([True, False, 1.0, 0.0, 2.5]))
    elif fault == 2:  # a missing key
        at, key = rng.choice([(entry, "from"), (entry, "to"), (entry, "coalitions"),
                              (state, "id"), (state, "outcome")])
        at.pop(key, None)
    elif fault == 3:  # an unknown state
        entry[rng.choice(["from", "to"])] = "ghost"
    elif fault == 4:  # a self-pair
        entry["to"] = entry.get("from", "x")
    elif fault == 5:  # an empty coalition
        cs = _coalitions(entry)
        cs.insert(rng.randint(0, len(cs)), [])
    elif fault == 6:  # an agent at or above $.agents
        rng.choice(_coalitions(entry)).append(doc["agents"] + rng.choice([0, 1, 10**11]))
    elif fault == 7:  # a duplicate state id
        twin = rng.choice(states)
        if twin is state and isinstance(rights["states"], list):
            rights["states"].append(twin := dict(state))
        state["id"] = twin.get("id")
    elif fault == 8:  # a rule that is no string
        entry["rule"] = rng.choice([7, None, ["r"], True])
    else:  # an unknown kind, a graph kind with no profile, or a profile that is no string
        state[rng.choice(["kind", "profile"])] = rng.choice([7, None, "weird", "graph", ["p"]])


def test_rights_reader_matches_the_streamed_reader(monkeypatch):
    """The builder's one document loop compiles what the streamed reader it replaced
    compiled, and of one to three faults (wrong types, bool or float members, missing
    keys, unknown states, self-pairs, empty coalitions, agents at or above `$.agents`,
    duplicate state ids, non-string rules, state kinds and profiles the reader refuses) it
    names the one the streamed reader named, with the same message and path."""
    rng = random.Random(27)
    documents = refused = 0
    for doc in _reader_documents(monkeypatch):
        _assert_rows_match_dicts(rights_from_doc(doc), streamed_rights_read(doc), rng)
        documents += 1
        for _ in range(30):
            broken = json.loads(json.dumps(doc))
            # the faults fall on two entries and two states, so often on one of them twice
            rights = broken["rights"]
            picks = (rights["gamma"], rights["states"])
            gamma, states = (rng.sample(v, min(2, len(v))) for v in picks)
            for _ in range(rng.randint(1, 3)):
                _put_fault(rng, broken, gamma, states)
            named = _read_error(streamed_rights_read, broken)
            assert _read_error(rights_from_doc, broken) == named
            refused += named is not None
    assert documents == 11 and refused > 0.9 * 30 * documents


def test_each_distinct_coalition_list_is_checked_once(monkeypatch):
    """Reading a sparse-solve document checks each coalition of each distinct coalition
    list once, however many entries repeat the list: all of giant-scc's entries share one
    list of five singletons."""
    monkeypatch.syspath_prepend(str(FIXTURES.parent / "bench"))
    import workloads
    from rotakit import rights

    calls, check = [], rights.coalition
    monkeypatch.setattr(rights, "coalition", lambda k, where=(): calls.append(k) or check(k, where))
    docs = workloads.sparse_solve(1, scale=0.02).docs
    for name, doc in docs.items():
        calls.clear()
        gamma = doc["rights"]["gamma"]
        distinct = {json.dumps(g["coalitions"]): len(g["coalitions"]) for g in gamma}
        rights_from_doc(doc)
        assert len(calls) == sum(distinct.values()) < sum(len(g["coalitions"]) for g in gamma)
    assert len(calls) == 5 and name == "giant-scc.json"


def _ordering_scrs(seed: int, count: int):
    """Small SCRs for the ordering searches: half efficient rules on linear
    profiles, half arbitrary choices on weak orders with ties.  Each declares
    its alternatives in a shuffled order, so that declaration order and
    sorted-id order differ."""
    rng = random.Random(seed)
    for k in range(count):
        n_alts, n_agents, n_profiles = rng.randint(2, 6), rng.randint(2, 4), rng.randint(2, 5)
        if k % 2 == 0:
            scr = random_scr(rng, n_alts, n_agents, n_profiles, multi_valued=rng.random() < 0.3)
        else:
            alts = tuple(f"a{i}" for i in range(n_alts))
            profiles = tuple(
                random_weak_profile(rng, f"R{j}", alts, n_agents) for j in range(n_profiles)
            )
            choices = {p.id: rng.sample(alts, rng.randint(1, min(n_alts, 5))) for p in profiles}
            scr = SocialChoiceRule(profiles, choices)
        order = rng.sample(range(n_alts), n_alts)
        alts = tuple(scr.alternatives[i] for i in order)
        profiles = tuple(
            Profile.from_ranks(p.id, alts, [[q.ranks[i] for i in order] for q in p.prefs])
            for p in scr.profiles
        )
        yield SocialChoiceRule(profiles, scr.choices)


def _orderings(rng: random.Random, scr, witness):
    """The witness's orderings when there is one, else a random ordering per profile."""
    if witness is not None:
        return dict(witness.orderings)
    return {
        p.id: tuple(rng.sample(sorted(scr.choice(p.id)), len(scr.choice(p.id))))
        for p in scr.profiles
    }


def test_ordering_searches_match_string_search():
    rng = random.Random(31)
    seen = set()
    for scr in _ordering_scrs(31, 1100):
        rot = check_rotation_monotonicity(scr, cap=6)
        assert rot == string_check_rotation_monotonicity(scr, 6)
        shared = find_shared_ordering(scr, cap=6)
        assert shared == string_find_shared_ordering(scr, 6)
        assert check_indirect_monotonicity(scr) == string_check_indirect_monotonicity(scr)
        assert check_maskin_monotonicity(scr) == string_check_maskin_monotonicity(scr)
        for witness in (rot.witness, shared, None):
            table = _orderings(rng, scr, witness)
            verdict = verify_rotation_monotonicity_with(scr, table)
            assert verdict == string_verify_rotation_monotonicity_with(scr, table)
            pm = check_property_m(scr, table)
            assert pm == string_check_property_m(scr, table)
            seen.add(pm.failure.reason if pm.failure else "property M holds")
        weak = not all(p.is_linear() for p in scr.profiles)
        seen.add((weak, bool(rot), shared is not None))
        seen.update(len(o.failures) for o in rot.obstructions)
    assert {(w, r, s) for w in (False, True) for r, s in ((0, 0), (1, 0), (1, 1))} <= seen, seen
    assert {"no chain to the singleton", "lower-contour condition fails at the singleton"} <= seen
    assert {1, 2, 6, 24} <= seen, "obstructions must list failures of many orderings"


def _weak_order_rules(rng: random.Random, count: int, agents: int, alternatives: int):
    """Rules on weak orders of 1-`agents` agents over 2-`alternatives` alternatives, declared
    in a shuffled order, each choosing a random nonempty set at each of 1-3 profiles."""
    for _ in range(count):
        n_alts = rng.randint(2, alternatives)
        alts = tuple(rng.sample([f"a{i}" for i in range(n_alts)], n_alts))
        n_agents = rng.randint(1, agents)
        profiles = tuple(
            random_weak_profile(rng, f"R{j}", alts, n_agents) for j in range(rng.randint(1, 3))
        )
        choices = {p.id: rng.sample(alts, rng.randint(1, n_alts)) for p in profiles}
        yield SocialChoiceRule(profiles, choices), None


def test_theorem_structures_match_contour_structures(monkeypatch):
    """Rule 2 split on contour bitsets grants what frozenset lower contours grant, and the
    rows hold what the dict compile of those grants holds, in the same order, for both
    theorem structures on every fixture, on seeded weak-order rules of up to 3 agents and
    of up to 6 agents and 9 alternatives, whose chosen states split their targets into
    many Rule-2 groups, and on the SCRs of the ordering searches."""
    rng = random.Random(34)
    rules = []
    for path in sorted(FIXTURES.glob("*.json")):
        doc = load_document(str(path))
        rules.append(domain_scr(doc) if is_domain_doc(doc) else (scr_from_doc(doc), None))
    rules += _weak_order_rules(rng, 60, 3, 5)
    rules += ((scr, None) for scr in _ordering_scrs(31, 1100))
    rules += _weak_order_rules(random.Random(35), 80, 6, 9)
    most = 0  # the most Rule-2 groups, distinct families, of one chosen state
    for scr, witness in rules:
        table = _orderings(rng, scr, witness)
        built = [build_thm1_structure(scr), build_thm4_structure(scr, table)]
        monkeypatch.setattr(constructors, "_five_rule_structure", contour_five_rule_gamma)
        reference = [build_thm1_structure(scr), build_thm4_structure(scr, table)]
        monkeypatch.undo()
        for fast, ref in zip(built, reference):
            _assert_rows_match_dicts(fast, dict_compiled_rights(*ref), rng)
        rule2 = {(a, fam) for a, _, fam, rule in built[0].entries() if rule == constructors.RULE2}
        most = max(most, *Counter(a for a, _ in rule2).values())
    assert len(rules) == 64 + 1100 + 80
    assert most >= 8, "some chosen state must split its targets into many Rule-2 groups"


def test_verifiers_match_the_scc_pass_on_every_profile(monkeypatch):
    """Both implementation verifiers give the report of `tarjan_verify`, which takes every
    MSS from the SCC pass, on both theorem structures of every fixture, of the SCRs of the
    ordering searches, of the 506 two-profile census classes and of the scr-pareto and
    domain-pipelines benchmark documents at a small scale, seeds 0-3.  A recording wrapper
    sorts each predicted MSS into certified (no SCC pass) and refused (the SCC pass ran):
    both must occur.  `tarjan_verify` passes no prediction, so none of its calls is sorted."""
    monkeypatch.syspath_prepend(str(FIXTURES.parent / "bench"))
    import workloads
    from test_census import STRICT_ROWS, _census, _scr

    docs = [load_document(str(path)) for path in sorted(FIXTURES.glob("*.json"))]
    for seed in range(4):
        for make in (workloads.scr_pareto, workloads.domain_pipelines):
            docs += make(seed, scale=0.1).docs.values()
    rules = [domain_scr(doc) if is_domain_doc(doc) else (scr_from_doc(doc), None) for doc in docs]
    rules += ((scr, None) for scr in _ordering_scrs(31, 1100))
    rules += ((_scr(key), None) for key in _census(STRICT_ROWS))
    assert len(rules) == 4 + 4 * 5 + 1100 + 506
    passes, paths = [], Counter()
    absorbing, verified = solvers.compute_absorbing_sets, solvers._verified_mss

    def counted(env, dg):
        passes.append(dg)
        return absorbing(env, dg)

    def recorded(env, dg, predicted=()):
        before = len(passes)
        found = verified(env, dg, predicted)
        if predicted:
            paths["refused" if len(passes) > before else "certified"] += 1
        return found

    monkeypatch.setattr(solvers, "compute_absorbing_sets", counted)
    monkeypatch.setattr(solvers, "_verified_mss", recorded)
    rng = random.Random(36)
    for scr, witness in rules:
        table = _orderings(rng, scr, witness)
        for structure in (build_thm1_structure(scr), build_thm4_structure(scr, table)):
            for verify, kind in (
                (verify_implementation_in_mss, "mss"),
                (verify_implementation_in_rotation_programs, "rotation-programs"),
            ):
                assert verify(structure, scr) == tarjan_verify(structure, scr, kind)
    assert paths["certified"] > 0 and paths["refused"] > 0, paths


def _edge_environment(keys, edges) -> tuple[SocialEnvironment, ImprovementDigraph]:
    """States `keys`, each its own outcome, whose improvement edges are exactly `edges`:
    agent j ranks the target of edge j first and may move alone along it."""
    gamma = {edge: [[j]] for j, edge in enumerate(edges)}
    rights = RightsStructure(tuple(State(k, k) for k in keys), gamma)
    orders = [[b, *(k for k in keys if k != b)] for _, b in edges]
    env = SocialEnvironment(rights, Profile.from_orders("R", keys, orders))
    return env, build_improvement_digraph(env)


@pytest.mark.parametrize(
    "keys, edges, predicted, fault",
    [
        # a <-> b, and b -> c leaves the prediction
        ("abc", ["ab", "ba", "bc"], "ab", "has an escaping improvement path"),
        # two disjoint 2-cycles given as one block: a forward search from a misses c and d
        ("abcd", ["ab", "ba", "cd", "dc"], "abcd", "fails mutual reachability at a"),
        # one terminal SCC {a, b}, and a second sink c that never reaches it
        ("abcd", ["ab", "ba", "da", "dc"], "ab", None),
        # a strict subset of the only terminal SCC, the cycle a -> b -> c -> a
        ("abcd", ["ab", "bc", "ca", "da"], "ab", "fails mutual reachability at b"),
        # the sink a has no path back into the rest, the cycle b <-> c that enters it
        ("abc", ["bc", "cb", "ba"], "abc", "fails mutual reachability at a"),
    ],
    ids=["edge-leaves", "two-cycles-as-one", "second-sink", "strict-subset", "no-path-back"],
)
def test_a_refused_prediction_gives_the_scc_pass_result(keys, edges, predicted, fault):
    """A predicted MSS that is not the only terminal SCC is refused by the check named by
    `fault` (by the search into it where None), and the SCC pass's result is returned."""
    env, dg = _edge_environment(tuple(keys), [tuple(e) for e in edges])
    ids = [dg.id_of[k] for k in predicted]
    found = solvers._block_fault(dg, ids)
    assert found is None if fault is None else found.endswith(fault), found
    scc_pass = solvers._verified_mss(env, dg)
    assert scc_pass[0] != (tuple(predicted),)
    assert solvers._verified_mss(env, dg, ids) == scc_pass
    assert verified_mss_states(env, dg, ids) == verified_mss_states(env, dg)


def test_rotation_certificates_match_string_certificates_on_every_ordering():
    checked = 0
    for scr in _ordering_scrs(32, 300):
        for r in scr.profiles:
            outcomes = sorted(scr.choice(r.id))
            if len(outcomes) > 4:
                continue
            for ordering in itertools.permutations(outcomes):
                for rp in scr.profiles:
                    certs = rotation_certificates(scr, r, ordering, rp)
                    assert certs == string_rotation_certificates(scr, r, ordering, rp)
                    checked += sum(c is not None and len(c.chain) > 0 for c in certs)
    assert checked > 1000, "the sample must include certificates that walk"


def test_ordering_cap_refuses_like_the_string_search():
    rng = random.Random(33)
    for scr in _ordering_scrs(33, 200):
        cap = rng.randint(1, 4)
        for fast, ref in (
            (check_rotation_monotonicity, string_check_rotation_monotonicity),
            (find_shared_ordering, string_find_shared_ordering),
        ):
            try:
                expected = ref(scr, cap)
            except CapExceeded as exc:
                with pytest.raises(CapExceeded) as got:
                    fast(scr, cap=cap)
                assert (str(got.value), got.value.cap, got.value.needed) == (
                    str(exc), exc.cap, exc.needed
                )
            else:
                assert fast(scr, cap=cap) == expected


# ---------------------------------------------------------------------------
# Forged digraphs: adjacency and predecessors that disagree, or an SCC list
# that is wrong, must still end in the solvers' RuntimeError checks.


def _forged(adjacency, predecessors) -> tuple[SocialEnvironment, ImprovementDigraph]:
    keys = tuple(adjacency)
    env = SocialEnvironment(
        RightsStructure(tuple(State(k, k) for k in keys), {}),
        Profile.from_orders("R", keys, [list(keys)]),
    )
    coalitions = {(a, b): (frozenset([0]),) for a in keys for b in adjacency[a]}
    return env, from_maps(keys, adjacency, predecessors, coalitions)


def test_forged_absorbing_backward_reachability_fails():
    # a <-> b per adjacency, but predecessors forget b -> a.
    env, dg = _forged({"a": ("b",), "b": ("a",)}, {"a": (), "b": ("a",)})
    with pytest.raises(RuntimeError, match="fails mutual reachability at b"):
        compute_absorbing_sets(env, dg)


def test_forged_absorbing_forward_reachability_fails(monkeypatch):
    # Only b -> a exists, but the SCC step claims {a, b} is one component.
    env, dg = _forged({"a": (), "b": ("a",)}, {"a": ("b",), "b": ()})
    monkeypatch.setattr(solvers, "_terminal_sccs", lambda _succ: [[0, 1]])
    with pytest.raises(RuntimeError, match="fails mutual reachability at a"):
        compute_absorbing_sets(env, dg)


def test_forged_mss_external_stability_fails_when_unreached():
    env, dg = _forged({"a": ("b",), "b": ()}, {"a": (), "b": ()})
    with pytest.raises(RuntimeError, match="iterated external stability fails from a"):
        compute_mss(env, dg)


def test_forged_mss_external_stability_fails_on_missing_step():
    # Predecessors claim a -> b; adjacency has a -> c -> b instead.
    env, dg = _forged(
        {"a": ("c",), "b": (), "c": ("b",)}, {"a": (), "b": ("a",), "c": ()}
    )
    with pytest.raises(RuntimeError, match="iterated external stability fails from a"):
        compute_mss(env, dg)


def test_forged_mss_deterrence_fails(monkeypatch):
    env, dg = _forged({"a": ("b",), "b": ()}, {"a": (), "b": ("a",)})
    monkeypatch.setattr(solvers, "compute_absorbing_sets", lambda _env, _dg: (("a",),))
    with pytest.raises(RuntimeError, match="deterrence of external deviations fails at a -> b"):
        compute_mss(env, dg)


def test_forged_generalized_coverage_fails():
    # Two sinks x and y, but predecessors claim y -> x.
    env, dg = _forged({"x": (), "y": ()}, {"x": ("y",), "y": ()})
    with pytest.raises(RuntimeError, match="do not cover the absorbing union"):
        compute_generalized_stable_sets(env, dg)
