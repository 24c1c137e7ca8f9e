"""Solution concepts on a social environment.

Core, absorbing sets, the myopic stable set (MSS), generalized stable
sets, and rotation-program machinery, all on the improvement digraph of
a finite environment.

For finite state spaces the MSS is the union of the absorbing sets,
which are exactly the terminal strongly connected components of the
improvement digraph; `compute_mss` re-verifies deterrence of external
deviations and iterated external stability on its output rather than
trusting that characterisation.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .model import CapExceeded, InputError, Verdict
from .rights import (
    ImprovementDigraph,
    SocialEnvironment,
    build_improvement_digraph,
    can_reach,
    reachable_from,
)

GENERALIZED_PRODUCT_CAP = 4096


@dataclass(frozen=True)
class SolutionReport:
    """Outcome of one solve: state sets, their h-images, and witness data."""

    concept: str
    sets: tuple[tuple[str, ...], ...]
    outcomes: tuple[tuple[str, ...], ...]
    witness: Mapping[str, object] = field(default_factory=dict)

    @property
    def states(self) -> frozenset[str]:
        return frozenset(s for block in self.sets for s in block)

    @property
    def outcome_set(self) -> frozenset[str]:
        return frozenset(o for block in self.outcomes for o in block)

    def as_dict(self) -> dict:
        return {
            "concept": self.concept,
            "sets": [list(s) for s in self.sets],
            "outcomes": [list(o) for o in self.outcomes],
            "witness": _plain(self.witness),
        }


def _plain(obj):
    if isinstance(obj, Mapping):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, frozenset):
        return sorted(_plain(v) for v in obj)
    return obj


def _outcomes_of(env: SocialEnvironment, states: Iterable[str]) -> tuple[str, ...]:
    return tuple(sorted({env.outcome(s) for s in states}))


def compute_core(
    env: SocialEnvironment, digraph: ImprovementDigraph | None = None
) -> SolutionReport:
    """States from which no entitled coalition strictly improves."""
    dg = digraph if digraph is not None else build_improvement_digraph(env)
    core = tuple(s for s in dg.nodes if not dg.adjacency.get(s))
    return SolutionReport("core", (core,), (_outcomes_of(env, core),))


def _tarjan_sccs(dg: ImprovementDigraph) -> list[tuple[str, ...]]:
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


def compute_absorbing_sets(
    env: SocialEnvironment, digraph: ImprovementDigraph | None = None
) -> tuple[tuple[str, ...], ...]:
    """Terminal SCCs of the improvement digraph, re-verified post hoc.

    Condition (a), mutual reachability inside each set, and condition (b),
    no improvement path escaping it, are both checked against the digraph
    after the SCC computation: a forward search from the set's first state
    must reach every member, a backward search from it that stays inside
    the set must reach every member too, and nothing may be reachable from
    the set outside it.  Each search is linear in the set and its edges.
    """
    dg = digraph if digraph is not None else build_improvement_digraph(env)
    order = {k: i for i, k in enumerate(dg.nodes)}
    terminal = []
    for comp in _tarjan_sccs(dg):
        members = set(comp)
        if all(t in members for s in comp for t in dg.adjacency.get(s, ())):
            terminal.append(tuple(sorted(comp, key=order.__getitem__)))
    terminal.sort(key=lambda block: order[block[0]])
    for block in terminal:
        members = frozenset(block)
        if not members <= reachable_from(dg, block[:1]):
            raise RuntimeError(f"absorbing set {block} fails mutual reachability at {block[0]}")
        back = _reach_within(dg.predecessors, block[0], members)
        for s in block:
            if s not in back:
                raise RuntimeError(f"absorbing set {block} fails mutual reachability at {s}")
        if reachable_from(dg, block) != members:
            raise RuntimeError(f"absorbing set {block} has an escaping improvement path")
    return tuple(terminal)


def _reach_within(
    neighbours: Mapping[str, tuple[str, ...]], start: str, allowed: frozenset[str]
) -> set[str]:
    """States of `allowed` reachable from `start` along `neighbours` without leaving it."""
    seen = {start}
    queue = deque(seen)
    while queue:
        for b in neighbours.get(queue.popleft(), ()):
            if b in allowed and b not in seen:
                seen.add(b)
                queue.append(b)
    return seen


def compute_mss(
    env: SocialEnvironment, digraph: ImprovementDigraph | None = None
) -> SolutionReport:
    """The myopic stable set: union of absorbing sets, with re-verification.

    The witness records, for every state outside the set, a shortest
    improvement path into it (iterated external stability), and confirms
    deterrence of external deviations.
    """
    dg = digraph if digraph is not None else build_improvement_digraph(env)
    blocks = compute_absorbing_sets(env, dg)
    members = frozenset(s for b in blocks for s in b)
    mss = tuple(s for s in dg.nodes if s in members)
    for s in mss:
        for t in dg.adjacency.get(s, ()):
            if t not in members:
                raise RuntimeError(f"deterrence of external deviations fails at {s} -> {t}")
    external_paths = _shortest_paths_into(dg, members)
    witness = {
        "absorbing_sets": [list(b) for b in blocks],
        "deterrence": True,
        "external_paths": external_paths,
    }
    return SolutionReport("mss", (mss,), (_outcomes_of(env, mss),), witness)


def _shortest_paths_into(
    dg: ImprovementDigraph, targets: frozenset[str]
) -> dict[str, tuple[str, ...]]:
    """For every state outside `targets`, in declaration order, a shortest
    improvement path into `targets`.

    One reverse BFS gives each state its distance to `targets`; a path then
    steps, at every state, to the first target in adjacency order that is
    one step closer.  That is the lexicographically smallest shortest path,
    the one a forward BFS with declaration-order tie-breaks finds.  Every
    step is checked against the forward adjacency.
    """
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


def compute_generalized_stable_sets(
    env: SocialEnvironment,
    digraph: ImprovementDigraph | None = None,
    cap: int = GENERALIZED_PRODUCT_CAP,
) -> tuple[tuple[str, ...], ...]:
    """All generalized stable sets of a finite environment.

    Candidates pick exactly one state per absorbing set; each candidate is
    then checked against iterated internal stability (no improvement path
    between distinct members) and iterated external stability, on bitmasks
    of the absorbing sets each state reaches (one reverse search per
    absorbing set).  The union of the returned sets must equal the union
    of the absorbing sets, and that equality is enforced here.
    """
    dg = digraph if digraph is not None else build_improvement_digraph(env)
    blocks = compute_absorbing_sets(env, dg)
    n_candidates = 1
    for b in blocks:
        n_candidates *= len(b)
    if n_candidates > cap:
        raise CapExceeded(
            f"{n_candidates} candidate selections exceed the cap of {cap}",
            cap=cap,
            needed=n_candidates,
        )
    order = {k: i for i, k in enumerate(dg.nodes)}
    # reaches[s] has bit j when s has an improvement path into blocks[j].
    # Each block is strongly connected (compute_absorbing_sets verified
    # it), so s reaches a state of blocks[j] exactly when bit j is set.
    reaches = dict.fromkeys(dg.nodes, 0)
    own = {}
    for j, block in enumerate(blocks):
        for s in can_reach(dg, block):
            reaches[s] |= 1 << j
        for s in block:
            own[s] = 1 << j
    # A candidate takes one state from every block, so a state outside it
    # reaches a member exactly when it reaches some block, and a member
    # reaches another member exactly when it reaches a block not its own.
    externally_stable = all(reaches[s] for s in dg.nodes)
    found: list[tuple[str, ...]] = []
    if externally_stable:
        stable_picks = [tuple(s for s in b if reaches[s] == own[s]) for b in blocks]
        for pick in itertools.product(*stable_picks):
            found.append(tuple(sorted(pick, key=order.__getitem__)))
    absorbing_union = frozenset(own)
    union = frozenset(s for v in found for s in v)
    if union != absorbing_union:
        raise RuntimeError("generalized stable sets do not cover the absorbing union")
    return tuple(found)


@dataclass(frozen=True)
class RotationProgramVerdict(Verdict):
    ok: bool
    clause: str | None = None
    detail: str | None = None


def _entitled_worsening(env: SocialEnvironment, a: str, b: str) -> bool:
    """Some entitled coalition at (a, b) unanimously strictly prefers h(a)."""
    ha, hb = env.outcome(a), env.outcome(b)
    return any(
        all(env.profile.strictly_prefers(i, ha, hb) for i in k)
        for k in env.rights.entitled(a, b)
    )


def is_rotation_program(
    env: SocialEnvironment,
    ordered: Sequence[str],
    forward: bool = True,
    digraph: ImprovementDigraph | None = None,
) -> RotationProgramVerdict:
    """Check the three rotation-program clauses for a cyclic state order.

    (i) outcomes pairwise distinct; (ii) no entitled coalition strictly
    improves from s_i to any state other than s_{i+1}; (iii) between
    consecutive states some entitled coalition strictly improves.  Indices
    wrap around.  `forward=True` reads (iii) as improvement toward the
    successor, the direction the consecutive-rights construction realises;
    `forward=False` flips it (an entitled coalition prefers the
    predecessor's outcome).  A single state with no improving exit counts
    as a rotation program of length one.
    """
    ordered = tuple(ordered)
    if not ordered:
        raise InputError("rotation program must contain at least one state")
    if len(set(ordered)) != len(ordered):
        raise InputError("duplicate state in rotation program order")
    for s in ordered:
        env.rights.index(s)
    dg = digraph if digraph is not None else build_improvement_digraph(env)
    m = len(ordered)

    outcomes = [env.outcome(s) for s in ordered]
    if len(set(outcomes)) != m:
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
            if forward:
                if not dg.has_edge(s, succ):
                    return RotationProgramVerdict(
                        False, "iii", f"no entitled improvement {s} -> {succ}"
                    )
            else:
                if not _entitled_worsening(env, s, succ):
                    return RotationProgramVerdict(
                        False, "iii", f"no entitled backward move {s} -> {succ}"
                    )
    return RotationProgramVerdict(True)


@dataclass(frozen=True)
class PartitionResult(Verdict):
    ok: bool
    blocks: tuple[tuple[str, ...], ...] = ()
    witness_state: str | None = None
    reason: str | None = None


def partition_into_rotation_programs(
    env: SocialEnvironment,
    mss_states: Iterable[str],
    digraph: ImprovementDigraph | None = None,
) -> PartitionResult:
    """Partition an MSS into rotation programs with identical outcome sets.

    Clause (ii) forces the successor of every non-singleton block member:
    each state may have at most one improvement target, singleton blocks
    none at all.  The partition, when it exists, is therefore unique; a
    state breaking the rules is returned as the witness.
    """
    dg = digraph if digraph is not None else build_improvement_digraph(env)
    members = set(mss_states)
    for s in members:
        env.rights.index(s)
    order = {k: i for i, k in enumerate(dg.nodes)}

    succ: dict[str, str | None] = {}
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

    blocks: list[tuple[str, ...]] = []
    assigned: set[str] = set()
    for s in sorted(members, key=order.__getitem__):
        if s in assigned:
            continue
        if succ[s] is None:
            blocks.append((s,))
            assigned.add(s)
            continue
        # Walk the forced successor chain; it must come back to s.
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
                False,
                witness_state=b[0],
                reason="blocks have different outcome sets",
            )
    for b in blocks:
        verdict = is_rotation_program(env, b, digraph=dg)
        if not verdict:
            return PartitionResult(
                False, witness_state=b[0], reason=f"clause ({verdict.clause}): {verdict.detail}"
            )
    blocks.sort(key=lambda b: order[b[0]])
    return PartitionResult(True, tuple(blocks))
