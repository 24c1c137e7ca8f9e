"""Independent brute-force oracles used to cross-check the solvers.

Everything here recomputes results from raw definitions (subset
enumeration, dominance scans, backtracking search) without reusing the
library's algorithmic paths, so a bug in a solver cannot hide behind an
identical bug in its test.  The reference code at the end is the
straightforward pair-scan and per-state versions of paths that the
library now runs in linear time (among them the early-exit forward BFS
path search), the string-map digraph construction and the string-keyed
solvers that the library now runs on int ids, the housing definition
scans that it now runs on bitmasks, the frozenset-contour condition
checks and five-rule structure that it now runs on contour bitmasks and
rank rows, the per-entry rights-block reader that it now runs on one
shared family per coalition list, the streamed reader whose generator the
builder's one document loop replaced, the dict compile of a rights structure
(gamma and provenance dicts beside six-field rows) whose rows are now its
only store, the per-state loop with which a social environment refused a
state whose outcome the profile lacks, and the domains' recursive allocation
enumeration, `.index()` rank loops and pairwise dominance filter that it
now runs on `itertools.product`, `Profile.from_shares` and
`pareto_frontier`, the pairwise `dominates` scan that `pareto_frontier`
now runs on upper-contour bitmasks, and the pairwise scans with which the
domain-restriction and efficiency checks now read rank columns and the
Pareto frontier; differential tests compare the two.
"""

from __future__ import annotations

import itertools
from collections import deque
from itertools import combinations, product
from typing import Iterator, NamedTuple, NoReturn

from rotakit.domains.housing import (
    ECONOMY_CAP,
    _entitled,
    alloc_id,
    can_exclusion_block,
    house_allocations,
)
from rotakit.domains.jobs import PHI_CAP
from rotakit.domains.marriage import all_matchings, matching_id
from rotakit.conditions import (
    IndirectVerdict,
    IndirectWitness,
    MaskinVerdict,
    OrderingWitness,
    PropertyMFailure,
    PropertyMVerdict,
    RotationCertificate,
    RotationObstruction,
    RotationVerdict,
    coerce_orderings,
)
from rotakit.constructors import RULE1, RULE2, RULE3, RULE4, graph_state_key
from rotakit.model import (
    CapExceeded,
    DomainRestrictionVerdict,
    EfficiencyVerdict,
    InputError,
    Profile,
    _agents,
    _error,
    _list,
    _need,
    dominates,
    is_monotonic_transformation,
    lower_contour_set,
)
from rotakit.rights import (
    BASE,
    GRAPH,
    OPAQUE,
    ImprovementDigraph,
    ImprovementPath,
    PathStep,
    State,
    coalition,
    coalition_key,
)
from rotakit.serialize import _read
from rotakit.solvers import PartitionResult, RotationProgramVerdict, SolutionReport


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
    return from_maps(keys, adjacency, predecessors, edge_coalitions)


def per_member_absorbing_sets(dg) -> tuple[tuple[str, ...], ...]:
    """Terminal SCCs, each re-verified by one forward search per member."""
    order = {k: i for i, k in enumerate(dg.nodes)}
    terminal = []
    for comp in string_tarjan_sccs(dg):
        members = set(comp)
        if all(t in members for s in comp for t in dg.adjacency.get(s, ())):
            terminal.append(tuple(sorted(comp, key=order.__getitem__)))
    terminal.sort(key=lambda block: order[block[0]])
    for block in terminal:
        members = frozenset(block)
        for s in block:
            if not members <= string_reachable(dg.adjacency, [s]):
                raise RuntimeError(f"absorbing set {block} fails mutual reachability at {s}")
        if string_reachable(dg.adjacency, block) != members:
            raise RuntimeError(f"absorbing set {block} has an escaping improvement path")
    return tuple(terminal)


def from_maps(nodes, adjacency, predecessors, edge_coalitions) -> ImprovementDigraph:
    """A digraph from string maps: per node its targets and its sources, in
    the order given (a node missing from a map has none)."""
    nodes = tuple(nodes)
    id_of = {k: i for i, k in enumerate(nodes)}
    succ = [[id_of[b] for b in adjacency.get(a, ())] for a in nodes]
    pred = [[id_of[b] for b in predecessors.get(a, ())] for a in nodes]
    return ImprovementDigraph(id_of, succ, pred, edge_coalitions)


def forward_bfs_path(dg, start, targets) -> ImprovementPath | None:
    """Shortest improvement path from `start` into `targets` by an early-exit
    forward BFS along `adjacency`, ties broken by adjacency order; each step
    takes the first coalition of `edge_coalitions`."""
    targets = set(targets)
    if start in targets:
        return ImprovementPath(start, ())
    parent = {start: start}
    queue = deque([start])
    goal = None
    while queue and goal is None:
        a = queue.popleft()
        for b in dg.adjacency[a]:
            if b in parent:
                continue
            parent[b] = a
            if b in targets:
                goal = b
                break
            queue.append(b)
    if goal is None:
        return None
    chain = [goal]
    while chain[-1] != start:
        chain.append(parent[chain[-1]])
    chain.reverse()
    steps = (PathStep(dg.edge_coalitions[(a, b)][0], b) for a, b in zip(chain, chain[1:]))
    return ImprovementPath(start, tuple(steps))


def per_state_external_paths(dg, members) -> dict[str, tuple[str, ...]]:
    """One forward BFS per state outside `members`, in declaration order."""
    paths = {}
    for s in dg.nodes:
        if s in members:
            continue
        path = forward_bfs_path(dg, s, members)
        if path is None:
            raise RuntimeError(f"iterated external stability fails from {s}")
        paths[s] = path.states
    return paths


def pairwise_reachability(dg) -> dict[str, frozenset[str]]:
    return {s: string_reachable(dg.adjacency, [s]) for s in dg.nodes}


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
# Reference code: the string-keyed digraph build and solvers that the int
# core in rotakit.rights and rotakit.solvers replaced.  They read only the
# digraph's string views (`adjacency`, `predecessors`, `edge_coalitions`).


def string_digraph(env) -> ImprovementDigraph:
    """The improvement digraph built gamma entry by gamma entry on state keys."""
    rights, prefs = env.rights, env.profile.prefs
    keys = rights.keys()
    by_outcome = {h: tuple(p.rank(h) for p in prefs) for h in {s.outcome for s in rights.states}}
    ranks = {s.key: by_outcome[s.outcome] for s in rights.states}
    adjacency: dict[str, list[str]] = {k: [] for k in keys}
    predecessors: dict[str, list[str]] = {k: [] for k in keys}
    edge_coalitions = {}
    for a, b, fam, _ in rights.entries():
        ra, rb = ranks[a], ranks[b]
        winners = []
        for k in fam:
            for i in k:
                if rb[i] >= ra[i]:
                    break
            else:
                winners.append(k)
        if not winners:
            continue
        if len(winners) > 1:
            winners.sort(key=coalition_key)
        edge_coalitions[(a, b)] = tuple(winners)
        adjacency[a].append(b)
        predecessors[b].append(a)
    return from_maps(keys, adjacency, predecessors, edge_coalitions)


def string_reachable(neighbours, starts, allowed=None) -> frozenset[str]:
    """Keys reachable from `starts` along a key -> keys map, inside `allowed` if given."""
    seen = set(starts)
    queue = deque(seen)
    while queue:
        for b in neighbours.get(queue.popleft(), ()):
            if b not in seen and (allowed is None or b in allowed):
                seen.add(b)
                queue.append(b)
    return frozenset(seen)


def string_tarjan_sccs(dg) -> list[tuple[str, ...]]:
    """Strongly connected components, iterative Tarjan, nodes in declaration order."""
    index_of: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    sccs: list[tuple[str, ...]] = []
    counter = itertools.count()

    for root in dg.nodes:
        if root in index_of:
            continue
        work = [(root, iter(dg.adjacency.get(root, ())))]
        index_of[root] = low[root] = next(counter)
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for nxt in it:
                if nxt not in index_of:
                    index_of[nxt] = low[nxt] = next(counter)
                    stack.append(nxt)
                    on_stack.add(nxt)
                    work.append((nxt, iter(dg.adjacency.get(nxt, ()))))
                    advanced = True
                    break
                if nxt in on_stack:
                    low[node] = min(low[node], index_of[nxt])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index_of[node]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == node:
                        break
                sccs.append(tuple(comp))
    return sccs


def int_tarjan_sccs(dg) -> list[tuple[str, ...]]:
    """Every strongly connected component, iterative Tarjan on the successor ids, roots
    in declaration order, each as keys in the order the stack gives them up."""
    succ, keys = dg.succ, dg.nodes
    index, low = [-1] * len(keys), [0] * len(keys)
    on_stack = [False] * len(keys)
    stack: list[int] = []
    work: list = []
    sccs: list[tuple[str, ...]] = []
    counter = itertools.count()

    def enter(v: int) -> None:
        index[v] = low[v] = next(counter)
        stack.append(v)
        on_stack[v] = True
        work.append((v, iter(succ[v])))

    for root in range(len(keys)):
        if index[root] >= 0:
            continue
        enter(root)
        while work:
            node, it = work[-1]
            for nxt in it:
                if index[nxt] < 0:
                    enter(nxt)
                    break
                if on_stack[nxt] and index[nxt] < low[node]:
                    low[node] = index[nxt]
            else:
                work.pop()
                if work and low[node] < low[work[-1][0]]:
                    low[work[-1][0]] = low[node]
                if low[node] == index[node]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        comp.append(keys[w])
                        if w == node:
                            break
                    sccs.append(tuple(comp))
    return sccs


def terminal_components(dg, sccs) -> list[list[int]]:
    """The components of `sccs` (key tuples) with no edge leaving them, each as its
    sorted ids, ordered by first id."""
    terminal = []
    for comp in sccs:
        ids, members = sorted(dg.id_of[k] for k in comp), {dg.id_of[k] for k in comp}
        if all(t in members for s in ids for t in dg.succ[s]):
            terminal.append(ids)
    return sorted(terminal, key=lambda ids: ids[0])


def full_hops_into(dg, goals) -> tuple[list[int], list[int], list[int]]:
    """The reverse BFS of `rights.hops_into`, reading every `pred` list of the
    visit order, with a generator per state for its next hop."""
    succ, dist, hop = dg.succ, [-1] * len(dg.nodes), [-1] * len(dg.nodes)
    order = []
    for g in goals:
        if dist[g] < 0:
            dist[g] = 0
            order.append(g)
    for b in order:
        closer = dist[b]
        for a in dg.pred[b]:
            if dist[a] < 0:
                dist[a] = closer + 1
                order.append(a)
                hop[a] = next((t for t in succ[a] if dist[t] == closer), -1)
    return order, dist, hop


def string_core(env, dg) -> SolutionReport:
    core = tuple(s for s in dg.nodes if not dg.adjacency.get(s))
    return SolutionReport("core", (core,), (_outcomes_of(env, core),))


def _outcomes_of(env, states) -> tuple[str, ...]:
    return tuple(sorted({env.outcome(s) for s in states}))


def string_absorbing_sets(dg) -> tuple[tuple[str, ...], ...]:
    """Terminal SCCs with the forward, confined backward and escape searches."""
    order = {k: i for i, k in enumerate(dg.nodes)}
    terminal = []
    for comp in string_tarjan_sccs(dg):
        members = set(comp)
        if all(t in members for s in comp for t in dg.adjacency.get(s, ())):
            terminal.append(tuple(sorted(comp, key=order.__getitem__)))
    terminal.sort(key=lambda block: order[block[0]])
    for block in terminal:
        members = frozenset(block)
        if not members <= string_reachable(dg.adjacency, block[:1]):
            raise RuntimeError(f"absorbing set {block} fails mutual reachability at {block[0]}")
        back = string_reachable(dg.predecessors, block[:1], members)
        for s in block:
            if s not in back:
                raise RuntimeError(f"absorbing set {block} fails mutual reachability at {s}")
        if string_reachable(dg.adjacency, block) != members:
            raise RuntimeError(f"absorbing set {block} has an escaping improvement path")
    return tuple(terminal)


def string_mss(env, dg) -> SolutionReport:
    blocks = string_absorbing_sets(dg)
    members = frozenset(s for b in blocks for s in b)
    mss = tuple(s for s in dg.nodes if s in members)
    for s in mss:
        for t in dg.adjacency.get(s, ()):
            if t not in members:
                raise RuntimeError(f"deterrence of external deviations fails at {s} -> {t}")
    witness = {
        "absorbing_sets": [list(b) for b in blocks],
        "deterrence": True,
        "external_paths": string_shortest_paths_into(dg, members),
    }
    return SolutionReport("mss", (mss,), (_outcomes_of(env, mss),), witness)


def string_shortest_paths_into(dg, targets) -> dict[str, tuple[str, ...]]:
    """Reverse BFS distances, then the first one-step-closer target per state."""
    dist = dict.fromkeys(targets, 0)
    paths = {t: (t,) for t in targets}
    queue = deque(targets)
    while queue:
        b = queue.popleft()
        for a in dg.predecessors.get(b, ()):
            if a not in dist:
                dist[a] = dist[b] + 1
                queue.append(a)
                closer = dist[b]
                nxt = next((t for t in dg.adjacency.get(a, ()) if dist.get(t) == closer), None)
                if nxt is None:
                    raise RuntimeError(f"iterated external stability fails from {a}")
                paths[a] = (a,) + paths[nxt]
    for s in dg.nodes:
        if s not in dist:
            raise RuntimeError(f"iterated external stability fails from {s}")
    return {s: paths[s] for s in dg.nodes if s not in targets}


def string_generalized_stable_sets(dg, cap: int) -> tuple[tuple[str, ...], ...]:
    """One-per-block candidates on bitmasks of the absorbing sets each state reaches."""
    blocks = string_absorbing_sets(dg)
    n_candidates = 1
    for b in blocks:
        n_candidates *= len(b)
    if n_candidates > cap:
        raise CapExceeded(f"{n_candidates} candidate selections exceed the cap of {cap}")
    order = {k: i for i, k in enumerate(dg.nodes)}
    reaches = dict.fromkeys(dg.nodes, 0)
    own = {}
    for j, block in enumerate(blocks):
        for s in string_reachable(dg.predecessors, block):
            reaches[s] |= 1 << j
        for s in block:
            own[s] = 1 << j
    found = []
    if all(reaches[s] for s in dg.nodes):
        stable_picks = [tuple(s for s in b if reaches[s] == own[s]) for b in blocks]
        for pick in itertools.product(*stable_picks):
            found.append(tuple(sorted(pick, key=order.__getitem__)))
    if frozenset(s for v in found for s in v) != frozenset(own):
        raise RuntimeError("generalized stable sets do not cover the absorbing union")
    return tuple(found)


def string_is_rotation_program(env, dg, ordered) -> RotationProgramVerdict:
    """Clauses (i)-(iii) of a rotation program, forward reading of (iii)."""
    m = len(ordered)
    if len({env.outcome(s) for s in ordered}) != m:
        return RotationProgramVerdict(False, "i", "two states share an outcome")
    for i, s in enumerate(ordered):
        succ = ordered[(i + 1) % m]
        for t in dg.adjacency.get(s, ()):
            if m == 1 or t != succ:
                return RotationProgramVerdict(
                    False, "ii", f"entitled improvement {s} -> {t} leaves the cycle"
                )
    if m > 1:
        for i, s in enumerate(ordered):
            succ = ordered[(i + 1) % m]
            if (s, succ) not in dg.edge_coalitions:
                return RotationProgramVerdict(
                    False, "iii", f"no entitled improvement {s} -> {succ}"
                )
    return RotationProgramVerdict(True)


def string_partition(env, dg, mss_states) -> PartitionResult:
    """The forced-successor partition of an MSS into rotation programs."""
    members = set(mss_states)
    order = {k: i for i, k in enumerate(dg.nodes)}
    succ = {}
    for s in sorted(members, key=order.__getitem__):
        targets = dg.adjacency.get(s, ())
        outside = [t for t in targets if t not in members]
        if outside:
            return PartitionResult(
                False, witness_state=s, reason=f"improvement exit to {outside[0]} leaves the MSS"
            )
        if len(targets) > 1:
            return PartitionResult(
                False,
                witness_state=s,
                reason=f"two improvement targets {targets[0]} and {targets[1]}",
            )
        succ[s] = targets[0] if targets else None
    blocks = []
    assigned = set()
    for s in sorted(members, key=order.__getitem__):
        if s in assigned:
            continue
        if succ[s] is None:
            blocks.append((s,))
            assigned.add(s)
            continue
        cycle = [s]
        cur = succ[s]
        while cur is not None and cur != s and cur not in assigned and len(cycle) <= len(members):
            cycle.append(cur)
            cur = succ[cur]
        if cur != s:
            return PartitionResult(
                False, witness_state=s, reason="successor chain does not close into a cycle"
            )
        blocks.append(tuple(cycle))
        assigned.update(cycle)
    outcome_sets = [frozenset(env.outcome(s) for s in b) for b in blocks]
    for b, outs in zip(blocks, outcome_sets):
        if len(outs) != len(b):
            return PartitionResult(
                False, witness_state=b[0], reason="repeated outcome inside a block"
            )
        if outs != outcome_sets[0]:
            return PartitionResult(
                False, witness_state=b[0], reason="blocks have different outcome sets"
            )
    for b in blocks:
        verdict = string_is_rotation_program(env, dg, b)
        if not verdict:
            return PartitionResult(
                False, witness_state=b[0], reason=f"clause ({verdict.clause}): {verdict.detail}"
            )
    blocks.sort(key=lambda b: order[b[0]])
    return PartitionResult(True, tuple(blocks))


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


def scan_exclusion_gamma(economy) -> tuple:
    """The states and gamma (with no provenance) over all allocations, one clause (b)
    test per coalition and pair."""
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
    return states, gamma, {}


# ---------------------------------------------------------------------------
# Reference code: the condition checks that rotakit.conditions now runs on
# contour bitmask tables.  Maskin and indirect triggers are tested with
# `is_monotonic_transformation`, and every candidate ordering rebuilds its
# steps and preference reversals from frozenset lower-contour sets.


def string_check_maskin_monotonicity(scr) -> MaskinVerdict:
    for r in scr.profiles:
        for rp in scr.profiles:
            for z in sorted(scr.choice(r.id)):
                if z in scr.choice(rp.id):
                    continue
                if is_monotonic_transformation(r, rp, z):
                    return MaskinVerdict(False, (r.id, rp.id, z))
    return MaskinVerdict(True)


def string_step_improver(rp, a: str, b: str) -> int | None:
    """First agent strictly preferring b to a at rp, if any."""
    for i in range(rp.n_agents):
        if rp.strictly_prefers(i, b, a):
            return i
    return None


def string_preference_reversal(r, rp, x: str) -> tuple[int, str] | None:
    """First (agent, z) with x weakly above z at r but z strictly above x at rp."""
    for i in range(r.n_agents):
        shrank = lower_contour_set(r, i, x) - lower_contour_set(rp, i, x)
        if shrank:
            return i, min(shrank)
    return None


def string_check_indirect_monotonicity(scr) -> IndirectVerdict:
    witnesses = []
    for r in scr.profiles:
        chosen = scr.choice(r.id)
        for rp in scr.profiles:
            for z in sorted(chosen - scr.choice(rp.id)):
                if not is_monotonic_transformation(r, rp, z):
                    continue
                witness = _string_indirect_walk(scr, r, rp, z)
                if witness is None:
                    return IndirectVerdict(False, tuple(witnesses), (r.id, rp.id, z))
                witnesses.append(witness)
    return IndirectVerdict(True, tuple(witnesses))


def _string_indirect_walk(scr, r, rp, z: str) -> IndirectWitness | None:
    nodes = sorted(scr.choice(r.id))
    parent: dict[str, tuple[str, int]] = {}
    seen = {z}
    frontier = [z]
    while frontier:
        nxt = []
        for a in frontier:
            for b in nodes:
                if b in seen:
                    continue
                agent = string_step_improver(rp, a, b)
                if agent is None:
                    continue
                seen.add(b)
                parent[b] = (a, agent)
                rev = string_preference_reversal(r, rp, b)
                if rev is not None:
                    path = [b]
                    agents = []
                    while path[-1] != z:
                        prev, ag = parent[path[-1]]
                        agents.append(ag)
                        path.append(prev)
                    path.reverse()
                    agents.reverse()
                    return IndirectWitness(r.id, rp.id, z, tuple(path), tuple(agents), rev[0])
                nxt.append(b)
        frontier = nxt
    return None


def string_rotation_trigger(scr, r_id: str, rp_id: str) -> bool:
    fr, frp = scr.choice(r_id), scr.choice(rp_id)
    if fr == frp:
        return False
    if len(frp) > 1:
        return True
    return not (frp <= fr)


def string_rotation_certificates(scr, r, ordering, rp) -> list[RotationCertificate | None]:
    ordering = tuple(ordering)
    m = len(ordering)
    steps = [string_step_improver(rp, ordering[k], ordering[(k + 1) % m]) for k in range(m)]
    reversals = [string_preference_reversal(r, rp, x) for x in ordering]
    certs: list[RotationCertificate | None] = []
    for i in range(m):
        cert = None
        chain: list[tuple[str, int]] = []
        for h in range(m):
            pos = (i + h) % m
            if reversals[pos] is not None:
                agent, alt = reversals[pos]
                cert = RotationCertificate(ordering[i], tuple(chain), ordering[pos], agent, alt)
                break
            if steps[pos] is None:
                break
            chain.append((ordering[(pos + 1) % m], steps[pos]))
        certs.append(cert)
    return certs


def string_ordering_rotation_ok(scr, r, ordering) -> tuple[bool, tuple[str, str] | None]:
    for rp in scr.profiles:
        if not string_rotation_trigger(scr, r.id, rp.id):
            continue
        certs = string_rotation_certificates(scr, r, ordering, rp)
        for x, cert in zip(ordering, certs):
            if cert is None:
                return False, (rp.id, x)
    return True, None


def string_searched_orderings(scr, r, cap: int):
    outcomes = sorted(scr.choice(r.id))
    if len(outcomes) > cap:
        raise CapExceeded(
            f"ordering search over {len(outcomes)} outcomes at {r.id!r} "
            f"exceeds the cap of {cap}",
            cap=cap,
            needed=len(outcomes),
        )
    if len(outcomes) <= 1:
        return [tuple(outcomes)]
    head = outcomes[0]
    return ((head,) + tail for tail in itertools.permutations(outcomes[1:]))


def string_check_rotation_monotonicity(scr, cap: int) -> RotationVerdict:
    orderings: dict[str, tuple[str, ...]] = {}
    obstructions: list[RotationObstruction] = []
    for r in scr.profiles:
        failures = []
        found = None
        for ordering in string_searched_orderings(scr, r, cap):
            ok, failure = string_ordering_rotation_ok(scr, r, ordering)
            if ok:
                found = ordering
                break
            failures.append((ordering, failure[0], failure[1]))
        if found is None:
            obstructions.append(RotationObstruction(r.id, tuple(failures)))
        else:
            orderings[r.id] = found
    if obstructions:
        return RotationVerdict(False, None, tuple(obstructions))
    return RotationVerdict(True, OrderingWitness(orderings))


def string_verify_rotation_monotonicity_with(scr, orderings) -> RotationVerdict:
    table = coerce_orderings(scr, orderings)
    obstructions = []
    for r in scr.profiles:
        ok, failure = string_ordering_rotation_ok(scr, r, table[r.id])
        if not ok:
            obstructions.append(
                RotationObstruction(r.id, ((table[r.id], failure[0], failure[1]),))
            )
    if obstructions:
        return RotationVerdict(False, None, tuple(obstructions))
    return RotationVerdict(True, OrderingWitness(table))


def string_ordering_property_m_ok(scr, r, ordering) -> PropertyMFailure | None:
    m = len(ordering)
    for rp in scr.profiles:
        frp = scr.choice(rp.id)
        if frp == scr.choice(r.id) or len(frp) != 1:
            continue
        (target,) = frp
        if target not in ordering:
            continue
        k = ordering.index(target)
        certs = string_rotation_certificates(scr, r, ordering, rp)
        steps = [string_step_improver(rp, ordering[t], ordering[(t + 1) % m]) for t in range(m)]
        xk1 = ordering[(k + 1) % m]
        contour_ok = all(
            lower_contour_set(r, i, target) | {xk1} <= lower_contour_set(rp, i, target)
            for i in range(r.n_agents)
        )
        for j in range(m):
            if j == k or certs[j] is not None:
                continue
            span = (k - j) % m
            chain_ok = all(steps[(j + t) % m] is not None for t in range(span))
            if not (chain_ok and contour_ok):
                reason = "no chain to the singleton" if not chain_ok else (
                    "lower-contour condition fails at the singleton"
                )
                return PropertyMFailure(r.id, rp.id, ordering[j], reason)
    return None


def string_check_property_m(scr, orderings) -> PropertyMVerdict:
    table = coerce_orderings(scr, orderings)
    for r in scr.profiles:
        failure = string_ordering_property_m_ok(scr, r, table[r.id])
        if failure is not None:
            return PropertyMVerdict(False, failure)
    return PropertyMVerdict(True)


def string_find_shared_ordering(scr, cap: int) -> OrderingWitness | None:
    # every chosen set meets the cap before any profile is searched
    searches = [(r, string_searched_orderings(scr, r, cap)) for r in scr.profiles]
    orderings: dict[str, tuple[str, ...]] = {}
    for r, searched in searches:
        found = None
        for ordering in searched:
            ok, _ = string_ordering_rotation_ok(scr, r, ordering)
            if ok and string_ordering_property_m_ok(scr, r, ordering) is None:
                found = ordering
                break
        if found is None:
            return None
        orderings[r.id] = found
    return OrderingWitness(orderings)


# ---------------------------------------------------------------------------
# Reference code: the five-rule structure that rotakit.constructors now
# builds on rank rows, with Rule 2 read off frozenset lower-contour sets.


def contour_five_rule_gamma(scr, rule1) -> tuple:
    """The states, gamma and provenance of the five-rule structure."""
    agents = range(scr.n_agents)
    singletons = [frozenset([i]) for i in agents]
    everyone = frozenset(singletons)
    states = []
    gamma = {}
    provenance = {}

    def grant(pair, fam, rule):
        gamma[pair] = fam
        provenance[pair] = rule

    for z, p in scr.graph():
        key = graph_state_key(z, p.id)
        states.append(State(key, z, GRAPH, p.id))
        for x in rule1[p.id].get(z, ()):
            grant((key, graph_state_key(x, p.id)), everyone, RULE1)
        contours = [lower_contour_set(p, i, z) for i in agents]
        for x in scr.alternatives:
            fam = frozenset(singletons[i] for i in agents if x in contours[i])
            if fam:
                grant((key, x), fam, RULE2)
            grant((x, key), everyone, RULE3)
    for x in scr.alternatives:
        states.append(State(x, x, BASE))
        for y in scr.alternatives:
            if x != y:
                grant((x, y), everyone, RULE4)
    return tuple(states), gamma, provenance


# ---------------------------------------------------------------------------
# Reference code: the rights-block reader that `serialize.rights_from_doc`
# replaced, which builds a fresh family of fresh coalitions for every gamma
# entry and checks each agent index with `_agents`.


def scan_rights_gamma(doc) -> tuple:
    """The states, merged gamma and provenance (every rule, ghost ones too) of a
    document's rights block."""
    rdoc = _need(doc, "rights", "$")
    states = []
    for i, sdoc in _read(enumerate, _need(rdoc, "states", "$.rights"), "$.rights.states"):
        path = f"$.rights.states[{i}]"
        key = _need(sdoc, "id", path, str)
        kind = sdoc.get("kind", BASE)
        if kind not in (BASE, GRAPH, OPAQUE):
            raise _error(f"{path}.kind", f"unknown kind {kind!r}")
        profile = _need(sdoc, "profile", path, str) if kind == GRAPH or "profile" in sdoc else None
        states.append(State(key, _need(sdoc, "outcome", path, str), kind, profile))
    gamma: dict[tuple[str, str], frozenset] = {}
    provenance: dict[tuple[str, str], str] = {}
    entries = _read(enumerate, rdoc.get("gamma", []), "$.rights.gamma")
    try:  # one handler for the whole loop: nothing is added per entry
        for i, gdoc in entries:
            path = f"$.rights.gamma[{i}]"
            pair = (_need(gdoc, "from", path, str), _need(gdoc, "to", path, str))
            fam = frozenset(map(_agents, _need(gdoc, "coalitions", path)))
            if pair in gamma:
                fam = fam | gamma[pair]
            gamma[pair] = fam
            if "rule" in gdoc and _need(gdoc, "rule", path, str):
                provenance[pair] = gdoc["rule"]
    except InputError:
        raise
    except (TypeError, ValueError) as exc:
        raise _error(f"{path}.coalitions", f"expected lists of agent indices: {exc}") from None
    return tuple(states), gamma, provenance


# ---------------------------------------------------------------------------
# Reference code: the rights reader that the builder's document loop replaced.
# A generator over `$.rights.gamma` typed every member of every entry, keyed a
# shared tuple per distinct coalition list by `tuple(map(tuple, ...))`, and
# re-read an entry it could not take to name its fault; the builder's one-key
# branch then checked each yielded entry's endpoints, and its family once per
# shared tuple, before it drew the next.  Merged into dicts, the entries give
# the dict compile below.

_INT = frozenset([int])


def _streamed_gamma(gdocs, entry: list) -> Iterator[tuple]:
    """(from, to, coalitions, rule) per entry of `$.rights.gamma`, its index kept in
    `entry[0]`, with one shared tuple for each distinct list of coalitions."""
    families: dict[tuple, tuple] = {}
    for entry[0], gdoc in enumerate(_list(gdocs, "$.rights.gamma")):
        try:  # 1, True and 1.0 are equal keys: only JSON integers may reach the memo
            a, b, key = gdoc["from"], gdoc["to"], tuple(map(tuple, gdoc["coalitions"]))
            ints = _INT.issuperset(map(type, itertools.chain.from_iterable(key)))
            if not (ints and str is type(a) is type(b)):
                raise TypeError
        except (KeyError, TypeError):
            _streamed_entry_error(gdoc, f"$.rights.gamma[{entry[0]}]")
        rule = _need(gdoc, "rule", f"$.rights.gamma[{entry[0]}]", str) if "rule" in gdoc else None
        yield a, b, families.setdefault(key, key), rule


def _streamed_entry_error(gdoc, path: str) -> NoReturn:
    """Raise the error of a gamma entry that `_streamed_gamma` cannot read."""
    _need(gdoc, "from", path, str), _need(gdoc, "to", path, str)
    coalitions = _need(gdoc, "coalitions", path)
    try:
        frozenset(map(_agents, coalitions))
    except (TypeError, ValueError) as exc:
        raise _error(f"{path}.coalitions", f"expected lists of agent indices: {exc}") from None
    raise _error(f"{path}.coalitions", "expected lists of agent indices")  # a spent iterator


def streamed_rights_read(doc) -> DictRights:
    """The dict compile of a document's rights block, read as the streamed reader read it:
    the states, their count and ids, then each gamma entry: its shape and rule, its
    endpoints, and its family's coalitions and agents below `$.agents`, when that is an
    int, once per shared tuple."""
    rdoc = _need(doc, "rights", "$")
    states = []
    for i, sdoc in enumerate(_list(_need(rdoc, "states", "$.rights"), "$.rights.states")):
        path = f"$.rights.states[{i}]"
        key = _need(sdoc, "id", path, str)
        kind = sdoc.get("kind", BASE)
        if kind not in (BASE, GRAPH, OPAQUE):
            raise _error(f"{path}.kind", f"unknown kind {kind!r}")
        profile = _need(sdoc, "profile", path, str) if kind == GRAPH or "profile" in sdoc else None
        states.append(State(key, _need(sdoc, "outcome", path, str), kind, profile))
    agents = doc.get("agents") if type(doc.get("agents")) is int else None
    if not states:
        raise InputError("rights structure needs at least one state", "$.rights.states")
    index: dict[str, int] = {}
    for i, s in enumerate(states):
        if index.setdefault(s.key, i) != i:
            raise InputError("duplicate state keys", f"$.rights.states[{i}].id")
    gamma: dict[tuple[str, str], frozenset] = {}
    provenance: dict[tuple[str, str], str] = {}
    checked: dict[int, tuple] = {}
    entry = [None]
    for a, b, fam, rule in _streamed_gamma(rdoc.get("gamma", []), entry):
        path = f"$.rights.gamma[{entry[0]}]"
        ia, ib = index.get(a), index.get(b)
        if ia is None or ib is None:
            what = f"gamma entry on unknown state pair ({a!r}, {b!r})"
            raise InputError(what, f"{path}.{'from' if ia is None else 'to'}")
        if ia == ib:
            what = f"gamma is defined on distinct pairs only, got ({a!r}, {a!r})"
            raise InputError(what, f"{path}.to")
        if id(fam) not in checked:
            try:
                valid = frozenset(coalition(k) for k in fam)
            except InputError as exc:
                raise InputError(str(exc), f"{path}.coalitions") from None
            if agents is not None and max(map(max, valid), default=-1) >= agents:
                what = "gamma mentions an agent index outside the profile"
                raise InputError(what, f"{path}.coalitions")
            checked[id(fam)] = fam, valid
        gamma[a, b] = gamma.get((a, b), frozenset()) | checked[id(fam)][1]
        if rule:
            provenance[a, b] = rule
    return dict_compiled_rights(states, gamma, provenance)


# ---------------------------------------------------------------------------
# Reference code: the compile that `RightsStructure` ran while it kept gamma
# and provenance as dicts beside its rows: a copy of gamma, a rebuilt gamma of
# validated families, and one six-field row entry per gamma entry.  Here gamma
# and provenance are listed in row order, and provenance keeps only the
# nonempty rules of stored entries, as the rows, now the only store, do.


class DictRights(NamedTuple):
    states: tuple
    keys: tuple
    outcomes: tuple
    pair_a: tuple
    pair_b: tuple
    rows: tuple  # per source id: (b, p, single, multi, family, masks) by target id
    gamma: dict
    provenance: dict
    max_agent: int


def dict_compiled_rights(states, gamma, provenance=None) -> DictRights:
    provenance = provenance or {}
    states = tuple(states)
    if not states:
        raise InputError("rights structure needs at least one state", where=("states",))
    index: dict[str, int] = {}
    for i, s in enumerate(states):
        if index.setdefault(s.key, i) != i:
            raise InputError("duplicate state keys", where=("states", i, "key"))
    outcomes: dict[str, int] = {}
    outcome_of = [outcomes.setdefault(s.outcome, len(outcomes)) for s in states]
    n_out = len(outcomes)
    rebuilt = {}
    rows: list[list[tuple]] = [[] for _ in states]
    pairs: dict[int, int] = {}
    checked: dict[frozenset, frozenset] = {}
    families: dict = {}

    def validated(fam) -> tuple:
        valid = set()
        for k in fam:
            raw = frozenset(k)
            if raw not in checked:
                checked[raw] = coalition(raw)
            valid.add(checked[raw])
        ordered = tuple(sorted(valid, key=coalition_key))
        masks = tuple(sum(1 << i for i in k) for k in ordered)
        single = sum(m for k, m in zip(ordered, masks) if len(k) == 1)
        multi = tuple(m for k, m in zip(ordered, masks) if len(k) > 1)
        return frozenset(valid), (single, multi, ordered, masks)

    for pair, fam in dict(gamma).items():
        a, b = pair
        ia, ib = index.get(a), index.get(b)
        if ia is None or ib is None:
            where = ("gamma", pair, "from" if ia is None else "to")
            raise InputError(f"gamma entry on unknown state pair ({a!r}, {b!r})", where=where)
        if ia == ib:
            what = f"gamma is defined on distinct pairs only, got ({a!r}, {a!r})"
            raise InputError(what, where=("gamma", pair, "to"))
        try:
            valid, compiled = families[fam]
        except KeyError:
            valid, compiled = families[fam] = validated(fam)
        except TypeError:  # an unhashable family, such as a list of lists
            valid, compiled = validated(fam)
        if valid:
            rebuilt[pair] = valid
            p = pairs.setdefault(outcome_of[ia] * n_out + outcome_of[ib], len(pairs))
            rows[ia].append((ib, p, *compiled))
    for row in rows:
        row.sort()
    ordered = sorted(rebuilt, key=lambda pair: (index[pair[0]], index[pair[1]]))
    return DictRights(
        states,
        tuple(index),
        tuple(outcomes),
        tuple(code // n_out for code in pairs),
        tuple(code % n_out for code in pairs),
        tuple(map(tuple, rows)),
        {pair: rebuilt[pair] for pair in ordered},
        {pair: provenance[pair] for pair in ordered if provenance.get(pair)},
        max((max(k) for k in checked.values()), default=-1),
    )


def dict_rights_doc(ref: DictRights) -> dict:
    """The `rights` block that `rights_to_doc` wrote from the dicts."""
    gamma = []
    for a, row in zip(ref.keys, ref.rows):
        for b, *_ in row:
            pair = (a, ref.keys[b])
            entry = {"from": a, "to": pair[1], "coalitions": sorted(map(sorted, ref.gamma[pair]))}
            gamma.append({**entry, "rule": ref.provenance[pair]} if pair in ref.provenance else entry)
    states = []
    for s in ref.states:
        doc = {"id": s.key, "kind": s.kind, "outcome": s.outcome}
        states.append(doc if s.profile_id is None else {**doc, "profile": s.profile_id})
    return {"states": states, "gamma": gamma}


def per_state_unknown_outcome(states, profile) -> InputError | None:
    """The refusal of the first state whose outcome `profile` lacks, as
    `SocialEnvironment` raised it while it walked every state, or None."""
    alts = set(profile.alternatives)
    for i, s in enumerate(states):
        if s.outcome not in alts:
            what = f"state {s.key!r} has unknown outcome {s.outcome!r}"
            return InputError(what, where=("rights", "states", i, "outcome"))
    return None


def dict_rights_digraph(ref: DictRights, profile) -> tuple[list, list, dict]:
    """`succ`, `pred` and `edge_coalitions` of one profile's digraph, built on the
    six-field rows as `build_improvement_digraph` did."""
    gain = [0] * len(ref.pair_a)
    for i, pref in enumerate(profile.prefs[: ref.max_agent + 1]):
        bit, rank = 1 << i, [pref.rank(h) for h in ref.outcomes]
        gain = [g | bit if rank[b] < rank[a] else g for g, a, b in zip(gain, ref.pair_a, ref.pair_b)]
    succ: list[list[int]] = [[] for _ in ref.keys]
    pred: list[list[int]] = [[] for _ in ref.keys]
    edges = {}
    for a, row in enumerate(ref.rows):
        for b, p, single, multi, family, masks in row:
            g = gain[p]
            if g and (g & single or any(m & g == m for m in multi)):
                succ[a].append(b)
                pred[b].append(a)
            winners = tuple(k for k, m in zip(family, masks) if m & g == m)
            if winners:
                edges[(ref.keys[a], ref.keys[b])] = winners
    return succ, pred, edges


# ---------------------------------------------------------------------------
# Reference code: the domain enumeration and own-share extensions that
# rotakit.domains now builds on itertools.product, Profile.from_shares and
# model.pareto_frontier.  Every rank is an `.index()` into the agent's
# order, and phi's remainder is filtered by a pairwise dominance scan.


def recursive_house_allocations(economy) -> tuple[tuple[str, ...], ...]:
    """Depth-first placement: each agent takes every unused house in house
    order, then the outside option."""
    if economy.n_agents > ECONOMY_CAP or len(economy.houses) > ECONOMY_CAP:
        raise CapExceeded(
            f"economies beyond {ECONOMY_CAP} agents/houses are refused",
            cap=ECONOMY_CAP,
            needed=max(economy.n_agents, len(economy.houses)),
        )
    out = []

    def place(agent: int, used: set, acc: list) -> None:
        if agent == economy.n_agents:
            out.append(tuple(acc))
            return
        for h in economy.houses:
            if h not in used:
                used.add(h)
                acc.append(h)
                place(agent + 1, used, acc)
                acc.pop()
                used.discard(h)
        acc.append(economy.outside)
        place(agent + 1, used, acc)
        acc.pop()

    place(0, set(), [])
    return tuple(out)


def _index_profile(pid, alternatives, assignments, orders) -> Profile:
    rows = [tuple(order.index(a[i]) for a in assignments) for i, order in enumerate(orders)]
    return Profile.from_ranks(pid, alternatives, rows)


def index_allocation_profile(economy) -> Profile:
    allocations = recursive_house_allocations(economy)
    alts = tuple(",".join(a) for a in allocations)
    return _index_profile(economy.id, alts, allocations, economy.orders)


def index_extend_job_preferences(problem) -> Profile:
    allocations = tuple(itertools.permutations(problem.jobs))
    alts = tuple(",".join(a) for a in allocations)
    return _index_profile(problem.id, alts, allocations, problem.orders)


def index_matching_profile(problem) -> Profile:
    matchings = all_matchings(problem)
    alts = tuple(matching_id(mu, problem) for mu in matchings)
    shares = [tuple(mu.partner(a) for a in problem.agents) for mu in matchings]
    orders = [problem.pref_list(a) for a in problem.agents]
    return _index_profile(problem.id, alts, shares, orders)


def _assignment_dominates(problem, agents, better, worse) -> bool:
    if better == worse:
        return False
    strict = False
    for pos, agent in enumerate(agents):
        rb = problem.orders[agent].index(better[pos])
        rw = problem.orders[agent].index(worse[pos])
        if rb > rw:
            return False
        if rb < rw:
            strict = True
    return strict


def dominance_scan_pareto_frontier(profile) -> frozenset[str]:
    """`model.pareto_frontier` as a scan of every pair of alternatives with `dominates`."""
    alts = profile.alternatives
    return frozenset(z for z in alts if not any(dominates(profile, x, z) for x in alts))


def pairwise_domain_restriction(profile) -> DomainRestrictionVerdict:
    """`model.validate_domain_restriction` as a scan of every pair of alternatives
    for unanimous indifference."""
    alts = profile.alternatives
    for i, x in enumerate(alts):
        for y in alts[i + 1 :]:
            if all(p.indifferent(x, y) for p in profile.prefs):
                return DomainRestrictionVerdict(False, (x, y))
    return DomainRestrictionVerdict(True)


def dominance_scan_efficiency(scr) -> EfficiencyVerdict:
    """`model.check_efficiency` as a scan of every chosen outcome against every
    alternative with `dominates`."""
    for p in scr.profiles:
        for z in sorted(scr.choices[p.id]):
            for x in p.alternatives:
                if x != z and dominates(p, x, z):
                    return EfficiencyVerdict(False, p.id, z, x)
    return EfficiencyVerdict(True)


def dominance_scan_phi(problem) -> tuple[str, ...]:
    """`build_phi` with the remaining agents' efficient assignments found by
    testing every pair of candidate assignments for dominance."""
    if problem.n > PHI_CAP:
        raise CapExceeded(f"phi over {problem.n} agents", cap=PHI_CAP, needed=problem.n)
    tau = problem.top(0)
    if tau != problem.top(1):
        raise InputError("agents 1 and 2 do not share a top job")
    rest = [j for j in problem.jobs if j != tau]
    others = list(range(2, problem.n))
    candidates = list(itertools.permutations(rest, len(others)))
    ordered = []
    for sigma in candidates:
        if any(_assignment_dominates(problem, others, other, sigma) for other in candidates):
            continue
        leftover = next(j for j in rest if j not in sigma)
        ordered.append(",".join((tau, leftover) + sigma))
        ordered.append(",".join((leftover, tau) + sigma))
    return tuple(ordered)


def brute_force_stable_matching_ids(problem) -> tuple[str, ...]:
    """Ids of the stable matchings, each man choosing a woman or himself, with
    individual rationality and blocking pairs read off the preference lists."""
    men, women = problem.men, problem.women

    def rank(agent, other):
        return problem.pref_list(agent).index(other)

    found = []
    for choice in product(*[women + (m,) for m in men]):
        wives = [w for w in choice if w in women]
        if len(set(wives)) != len(wives) or (problem.pure and len(wives) != len(women)):
            continue
        partner = {a: a for a in problem.agents}
        for m, w in zip(men, choice):
            partner[m], partner[w] = w, m
        if not problem.pure and any(rank(a, a) < rank(a, partner[a]) for a in problem.agents):
            continue
        if any(
            partner[m] != w and rank(m, w) < rank(m, partner[m]) and rank(w, m) < rank(w, partner[w])
            for m in men
            for w in women
        ):
            continue
        found.append(",".join(f"{m}:{partner[m]}" for m in men))
    return tuple(sorted(found))
