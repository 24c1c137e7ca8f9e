"""Independent brute-force oracles used to cross-check the solvers.

Everything here recomputes results from raw definitions (subset
enumeration, dominance scans, backtracking search) without reusing the
library's algorithmic paths, so a bug in a solver cannot hide behind an
identical bug in its test.  The reference code at the end is the
straightforward pair-scan and per-state versions of paths that the
library now runs in linear time, and the housing definition scans that
it now runs on bitmasks; differential tests compare the two.
"""

from __future__ import annotations

from itertools import combinations, product

from rotakit.domains.housing import _entitled, alloc_id, can_exclusion_block, house_allocations
from rotakit.rights import (
    BASE,
    ImprovementDigraph,
    RightsStructure,
    State,
    coalition_key,
    find_myopic_improvement_path,
    reachable_from,
)
from rotakit.solvers import _tarjan_sccs


def digraph_adjacency(dg) -> dict[str, set[str]]:
    """Adjacency rebuilt from the raw edge list, not the cached table."""
    adj: dict[str, set[str]] = {n: set() for n in dg.nodes}
    for e in dg.edges:
        adj[e.source].add(e.target)
    return adj


def dfs_reachable(adj: dict[str, set[str]], start: str) -> set[str]:
    seen = {start}
    stack = [start]
    while stack:
        a = stack.pop()
        for b in adj[a]:
            if b not in seen:
                seen.add(b)
                stack.append(b)
    return seen


def brute_force_mss(dg) -> frozenset[str]:
    """Smallest nonempty state set with deterrence of external deviations and
    a path into it from every outside state; asserts uniqueness."""
    adj = digraph_adjacency(dg)
    nodes = list(dg.nodes)
    reach = {s: dfs_reachable(adj, s) for s in nodes}
    for size in range(1, len(nodes) + 1):
        found = []
        for comb in combinations(nodes, size):
            m = set(comb)
            deterrence = all(adj[s] <= m for s in m)
            external = all(reach[s] & m for s in nodes if s not in m)
            if deterrence and external:
                found.append(frozenset(m))
        if found:
            assert len(found) == 1, f"minimal stable set is not unique: {found}"
            return found[0]
    raise AssertionError("no stable set found (impossible for finite digraphs)")


def brute_force_pareto(profile) -> frozenset[str]:
    """Dominance scan straight from rank comparisons."""
    alts = profile.alternatives
    n = profile.n_agents

    def dominated(z: str) -> bool:
        for x in alts:
            if x == z:
                continue
            ok = all(profile.rank(i, x) <= profile.rank(i, z) for i in range(n))
            strict = any(profile.rank(i, x) < profile.rank(i, z) for i in range(n))
            if ok and strict:
                return True
        return False

    return frozenset(z for z in alts if not dominated(z))


def backtrack_circular_no_repeat(labels: list) -> list[int] | None:
    """Arrange item indices so no two cyclically adjacent items share a label.

    Pure backtracking over positions; returns indices into `labels` or None
    when no arrangement exists.
    """
    n = len(labels)
    if n == 1:
        return None
    order: list[int] = []
    used = [False] * n

    def extend(pos: int) -> bool:
        if pos == n:
            return labels[order[0]] != labels[order[-1]]
        for i in range(n):
            if used[i]:
                continue
            if order and labels[order[-1]] == labels[i]:
                continue
            used[i] = True
            order.append(i)
            if extend(pos + 1):
                return True
            order.pop()
            used[i] = False
        return False

    return order if extend(0) else None


# ---------------------------------------------------------------------------
# Reference code: the pair-scan digraph construction and the per-state
# re-verification loops that the linear-time paths in rotakit replaced.
# Differential tests require the library to return exactly what these do.


def pair_scan_digraph(env):
    """The improvement digraph built by scanning every ordered state pair."""
    rights, profile = env.rights, env.profile
    keys = rights.keys()
    adjacency = {k: [] for k in keys}
    predecessors = {k: [] for k in keys}
    edge_coalitions = {}
    for a in keys:
        ha = rights.outcome(a)
        for b in keys:
            fam = rights.gamma.get((a, b))
            if not fam:
                continue
            hb = rights.outcome(b)
            winners = [
                k for k in fam if all(profile.strictly_prefers(i, hb, ha) for i in k)
            ]
            if not winners:
                continue
            winners.sort(key=coalition_key)
            edge_coalitions[(a, b)] = tuple(winners)
            adjacency[a].append(b)
            predecessors[b].append(a)
    return ImprovementDigraph(
        nodes=keys,
        adjacency={k: tuple(v) for k, v in adjacency.items()},
        predecessors={k: tuple(v) for k, v in predecessors.items()},
        edge_coalitions=edge_coalitions,
    )


def per_member_absorbing_sets(dg) -> tuple[tuple[str, ...], ...]:
    """Terminal SCCs, each re-verified by one forward search per member."""
    order = {k: i for i, k in enumerate(dg.nodes)}
    terminal = []
    for comp in _tarjan_sccs(dg):
        members = set(comp)
        if all(t in members for s in comp for t in dg.adjacency.get(s, ())):
            terminal.append(tuple(sorted(comp, key=order.__getitem__)))
    terminal.sort(key=lambda block: order[block[0]])
    for block in terminal:
        members = frozenset(block)
        for s in block:
            if not members <= reachable_from(dg, [s]):
                raise RuntimeError(f"absorbing set {block} fails mutual reachability at {s}")
        if reachable_from(dg, block) != members:
            raise RuntimeError(f"absorbing set {block} has an escaping improvement path")
    return tuple(terminal)


def per_state_external_paths(env, dg, members) -> dict[str, tuple[str, ...]]:
    """One forward BFS per state outside `members`, in declaration order."""
    paths = {}
    for s in dg.nodes:
        if s in members:
            continue
        path = find_myopic_improvement_path(env, s, members, digraph=dg)
        if path is None:
            raise RuntimeError(f"iterated external stability fails from {s}")
        paths[s] = path.states
    return paths


def pairwise_reachability(dg) -> dict[str, frozenset[str]]:
    return {s: reachable_from(dg, [s]) for s in dg.nodes}


def pairwise_generalized_stable_sets(dg, blocks) -> tuple[tuple[str, ...], ...]:
    """Every one-per-block selection checked on full pairwise reachability."""
    order = {k: i for i, k in enumerate(dg.nodes)}
    reach = pairwise_reachability(dg)
    found = []
    for pick in product(*blocks):
        members = frozenset(pick)
        if any(t in reach[s] for s in members for t in members if t != s):
            continue
        if all(members & reach[s] for s in dg.nodes if s not in members):
            found.append(tuple(sorted(members, key=order.__getitem__)))
    return tuple(found)


# ---------------------------------------------------------------------------
# Reference code: the housing definition scans that the bitmask kernel in
# rotakit.domains.housing replaced, one `_entitled` call per
# (allocation, allocation, coalition).


def _all_coalitions(n: int) -> list[frozenset[int]]:
    return [frozenset(c) for size in range(1, n + 1) for c in combinations(range(n), size)]


def scan_direct_exclusion_core(economy) -> tuple[str, ...]:
    """Allocations no coalition can directly exclusion block, by definition scan."""
    allocations = house_allocations(economy)
    coalitions = _all_coalitions(economy.n_agents)
    core = []
    for mu in allocations:
        blocked = any(
            can_exclusion_block(economy, mu, k, sigma)
            for sigma in allocations
            if sigma != mu
            for k in coalitions
        )
        if not blocked:
            core.append(alloc_id(mu))
    return tuple(core)


def scan_exclusion_rights_structure(economy) -> RightsStructure:
    """Gamma over all allocations, one clause (b) test per coalition and pair."""
    allocations = house_allocations(economy)
    states = tuple(State(alloc_id(a), alloc_id(a), BASE) for a in allocations)
    coalitions = _all_coalitions(economy.n_agents)
    gamma = {}
    for mu in allocations:
        for sigma in allocations:
            if mu == sigma:
                continue
            fam = frozenset(k for k in coalitions if _entitled(economy, mu, sigma, k))
            if fam:
                gamma[(alloc_id(mu), alloc_id(sigma))] = fam
    return RightsStructure(states, gamma)
