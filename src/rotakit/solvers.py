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
import math
from typing import Iterable, Mapping, Sequence

from .model import CapExceeded, InputError, Record, Verdict
from .rights import (
    ImprovementDigraph,
    SocialEnvironment,
    build_improvement_digraph,
    hops_into,
    search,
)

GENERALIZED_PRODUCT_CAP = 4096


class SolutionReport(Record):
    """Outcome of one solve: state sets, their h-images, and witness data.

    The witness holds only str-keyed dicts, lists, tuples, strings and bools,
    so `serialize.dumps` writes `as_dict()` as it stands."""

    concept: str
    sets: tuple[tuple[str, ...], ...]
    outcomes: tuple[tuple[str, ...], ...]
    witness: Mapping[str, object] | None = None  # a fresh {} when none is given

    def __post_init__(self):
        if self.witness is None:
            vars(self)["witness"] = {}

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
            "witness": self.witness,
        }


def _outcomes_of(env: SocialEnvironment, states: Iterable[str]) -> tuple[str, ...]:
    return tuple(sorted({env.outcome(s) for s in states}))


def compute_core(
    env: SocialEnvironment, digraph: ImprovementDigraph | None = None
) -> SolutionReport:
    """States from which no entitled coalition strictly improves."""
    dg = digraph if digraph is not None else build_improvement_digraph(env)
    core = tuple(k for k, out in zip(dg.nodes, dg.succ) if not out)
    return SolutionReport("core", (core,), (_outcomes_of(env, core),))


def _terminal_sccs(succ: Sequence[Sequence[int]]) -> list[list[int]]:
    """Terminal SCCs of the digraph with successor lists `succ`, as sorted ids ordered by
    first id, in one iterative Tarjan pass.  `num[v]` is -1 before v is reached, its stack
    position while on the stack (a root's is where its component starts), and n once its
    component is done, which lowers no low-link.  An edge into a done component, or a child
    that is the root of its own, marks its source; a component with none marked is terminal."""
    n = len(succ)
    num, low, out, terminal = [-1] * n, [0] * n, bytearray(n), []
    for root in range(n):
        if num[root] >= 0:
            continue
        num[root] = low[root] = 0  # every earlier component is done: the stack is empty
        stack, work = [root], [(root, iter(succ[root]))]
        while work:
            v, it = work[-1]
            for w in it:
                x = num[w]
                if x < 0:
                    num[w] = low[w] = len(stack)
                    stack.append(w)
                    work.append((w, iter(succ[w])))
                    break
                if x < low[v]:
                    low[v] = x
                elif x == n:
                    out[v] = 1
            else:
                work.pop()
                x = low[v]
                if x == num[v]:
                    comp, stack[x:] = stack[x:], []
                    for w in comp:
                        num[w] = n
                    if not any(map(out.__getitem__, comp)):
                        terminal.append(sorted(comp))
                    if work:
                        out[work[-1][0]] = 1
                elif x < low[work[-1][0]]:  # not a root, so not the tree's root either
                    low[work[-1][0]] = x
    return sorted(terminal)


def _block_fault(dg: ImprovementDigraph, ids: Sequence[int]) -> str | None:
    """Why the sorted `ids` are no absorbing set of `dg`, or None: a forward search from the
    first id and a backward one inside the set must reach every member, and an escape search
    nothing outside it.  Each search is linear in the set and its edges."""
    succ, members = dg.succ, set(ids)
    if not members <= search(succ, ids[:1]):
        fault = f"fails mutual reachability at {dg.nodes[ids[0]]}"
    elif len(back := search(dg.pred, ids[:1], members)) < len(members):
        fault = f"fails mutual reachability at {dg.nodes[min(members - back)]}"
    elif search(succ, ids) != members:
        fault = "has an escaping improvement path"
    else:
        return None
    return f"absorbing set {tuple(dg.nodes[s] for s in ids)} {fault}"


def compute_absorbing_sets(
    env: SocialEnvironment, digraph: ImprovementDigraph | None = None
) -> tuple[tuple[str, ...], ...]:
    """Terminal SCCs of the improvement digraph, re-verified post hoc.

    Condition (a), mutual reachability inside each set, and condition (b),
    no improvement path escaping it, are both checked against the digraph
    after the SCC computation, by `_block_fault`.
    """
    dg = digraph if digraph is not None else build_improvement_digraph(env)
    blocks = []
    for ids in _terminal_sccs(dg.succ):
        if fault := _block_fault(dg, ids):
            raise RuntimeError(fault)
        blocks.append(tuple(dg.nodes[s] for s in ids))
    return tuple(blocks)


def compute_mss(
    env: SocialEnvironment, digraph: ImprovementDigraph | None = None
) -> SolutionReport:
    """The myopic stable set: union of absorbing sets, with re-verification.

    The witness records, for every state outside the set, a shortest
    improvement path into it (iterated external stability), and confirms
    deterrence of external deviations.
    """
    dg = digraph if digraph is not None else build_improvement_digraph(env)
    blocks, mss, order, hop = _verified_mss(env, dg)
    keys = dg.nodes
    paths: list = [(k,) for k in keys]
    for a in order[len(mss):]:  # each next hop's path is built before its own
        paths[a] = (keys[a],) + paths[hop[a]]
    witness = {
        "absorbing_sets": [list(b) for b in blocks],
        "deterrence": True,
        "external_paths": {keys[s]: paths[s] for s, h in enumerate(hop) if h >= 0},
    }
    return SolutionReport("mss", (mss,), (_outcomes_of(env, mss),), witness)


def _verified_mss(env: SocialEnvironment, dg: ImprovementDigraph, predicted=()):
    """Absorbing sets, the MSS and the next hops into it (`hops_into`), with
    every re-verification check of `compute_mss` (each hop a forward edge,
    every state reached) but without its paths.  Returns (absorbing sets,
    MSS states in declaration order, reverse-BFS order, next hop per state
    id, -1 inside).  `predicted`, increasing ids, is the MSS and its one absorbing
    set, with no SCC pass, when it passes `_block_fault` and every other state has
    a next hop: it is then the only terminal SCC.  Else the SCC pass runs."""
    if predicted and not _block_fault(dg, predicted):
        order, _, hop = hops_into(dg, predicted)  # hop is -1 on the goals alone when it holds
        if len(order) == len(dg.nodes) and hop.count(-1) == len(predicted):
            mss = tuple(dg.nodes[s] for s in predicted)
            return (mss,), mss, order, hop
    blocks = compute_absorbing_sets(env, dg)
    ids = sorted(dg.id_of[s] for b in blocks for s in b)
    keys, succ, inside = dg.nodes, dg.succ, set(ids)
    for s in ids:
        for t in succ[s]:
            if t not in inside:
                raise RuntimeError(
                    f"deterrence of external deviations fails at {keys[s]} -> {keys[t]}"
                )
    mss = tuple(keys[s] for s in ids)
    order, dist, hop = hops_into(dg, ids)
    for a in order[len(mss):]:
        if hop[a] < 0:
            raise RuntimeError(f"iterated external stability fails from {keys[a]}")
    if -1 in dist:
        raise RuntimeError(f"iterated external stability fails from {keys[dist.index(-1)]}")
    return blocks, mss, order, hop


def verified_mss_states(
    env: SocialEnvironment, dg: ImprovementDigraph, predicted: Sequence[int] = ()
) -> tuple[str, ...]:
    """The MSS in declaration order, verified as `_verified_mss` does, without paths."""
    return _verified_mss(env, dg, predicted)[1]


def compute_generalized_stable_sets(
    env: SocialEnvironment,
    digraph: ImprovementDigraph | None = None,
    cap: int = GENERALIZED_PRODUCT_CAP,
) -> tuple[tuple[str, ...], ...]:
    """All generalized stable sets of a finite environment: each pick of one
    state per absorbing set, in declaration order.

    `_verified_mss` proves each absorbing set strongly connected with no
    path out of it (so no path joins two picks: internal stability) and
    every state reaching the MSS (so reaching a pick: external stability).
    One scan of the members' predecessors confirms that no member of one
    set is listed as improving into another.
    """
    dg = digraph if digraph is not None else build_improvement_digraph(env)
    blocks = _verified_mss(env, dg)[0]
    n_candidates = math.prod(map(len, blocks))
    message = f"{n_candidates} candidate selections exceed the cap of {cap}"
    CapExceeded.check(n_candidates, cap, message)
    owner = {dg.id_of[s]: j for j, b in enumerate(blocks) for s in b}
    for s, j in owner.items():
        if any(owner.get(a, j) != j for a in dg.pred[s]):
            raise RuntimeError("generalized stable sets do not cover the absorbing union")
    return tuple(tuple(sorted(pick, key=dg.id_of.get)) for pick in itertools.product(*blocks))


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

    ids = [dg.id_of[s] for s in ordered]
    for i, s in enumerate(ids):
        for t in dg.succ[s]:
            if m == 1 or t != ids[(i + 1) % m]:
                detail = f"entitled improvement {ordered[i]} -> {dg.nodes[t]} leaves the cycle"
                return RotationProgramVerdict(False, "ii", detail)

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
    members = dict.fromkeys(mss_states)  # in the caller's order: the first unknown is named
    for s in members:
        env.rights.index(s)
    keys = dg.nodes
    ids = sorted(dg.id_of[s] for s in members)
    inside = set(ids)

    succ: dict[int, int | None] = {}
    for s in ids:
        targets = dg.succ[s]
        outside = [keys[t] for t in targets if t not in inside]
        reason = f"improvement exit to {outside[0]} leaves the MSS" if outside else None
        if len(targets) > 1 and not outside:
            reason = f"two improvement targets {keys[targets[0]]} and {keys[targets[1]]}"
        if reason:
            return PartitionResult(False, witness_state=keys[s], reason=reason)
        succ[s] = targets[0] if targets else None

    blocks: list[tuple[str, ...]] = []  # each starts at the smallest unassigned id: in id order
    assigned: set[int] = set()
    for s in ids:
        if s in assigned:
            continue
        if succ[s] is None:
            blocks.append((keys[s],))
            assigned.add(s)
            continue
        # Walk the forced successor chain; it must come back to s.
        cycle = [s]
        cur = succ[s]
        while cur is not None and cur != s and cur not in assigned and len(cycle) <= len(ids):
            cycle.append(cur)
            cur = succ[cur]
        if cur != s:
            return PartitionResult(
                False, witness_state=keys[s], reason="successor chain does not close into a cycle"
            )
        blocks.append(tuple(keys[c] for c in cycle))
        assigned.update(cycle)

    outcome_sets = [frozenset(env.outcome(s) for s in b) for b in blocks]
    for b, outs in zip(blocks, outcome_sets):
        if len(outs) != len(b) or outs != outcome_sets[0]:
            reason = "repeated outcome inside a block"
            if len(outs) == len(b):
                reason = "blocks have different outcome sets"
            return PartitionResult(False, witness_state=b[0], reason=reason)
    for b in blocks:
        verdict = is_rotation_program(env, b, digraph=dg)
        if not verdict:
            return PartitionResult(
                False, witness_state=b[0], reason=f"clause ({verdict.clause}): {verdict.detail}"
            )
    return PartitionResult(True, tuple(blocks))
