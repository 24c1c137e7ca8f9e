"""Rights structures, social environments, and the improvement digraph.

A rights structure is a finite state set, an outcome map h, and a sparse
code of rights gamma: (state, state) -> family of nonempty coalitions.
An absent gamma entry means nobody is entitled to that move.  Pairing a
rights structure with a preference profile gives a social environment,
whose improvement digraph has an edge (s, t, K) exactly when K is
entitled to move from s to t and every member of K strictly prefers
h(t) to h(s).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .model import InputError, Profile

Coalition = frozenset[int]

BASE = "base"
GRAPH = "graph"
OPAQUE = "opaque"


def coalition(members: Iterable[int]) -> Coalition:
    k = frozenset(int(m) for m in members)
    if not k:
        raise InputError("coalitions must be nonempty")
    if any(m < 0 for m in k):
        raise InputError("agent indices must be nonnegative")
    return k


def coalition_key(k: Coalition) -> tuple[int, tuple[int, ...]]:
    """Deterministic sort key: by size, then by sorted members."""
    return (len(k), tuple(sorted(k)))


@dataclass(frozen=True)
class State:
    """A state with its outcome label.  Graph states remember their profile tag."""

    key: str
    outcome: str
    kind: str = BASE
    profile_id: str | None = None

    def __post_init__(self):
        if self.kind not in (BASE, GRAPH, OPAQUE):
            raise InputError(f"unknown state kind {self.kind!r}")
        if self.kind == GRAPH and self.profile_id is None:
            raise InputError(f"graph state {self.key!r} needs a profile id")


@dataclass(frozen=True)
class RightsStructure:
    states: tuple[State, ...]
    gamma: Mapping[tuple[str, str], frozenset[Coalition]]
    provenance: Mapping[tuple[str, str], str] = field(default_factory=dict)
    _index: Mapping[str, int] = field(init=False, repr=False, compare=False)
    _targets: Mapping[str, tuple[str, ...]] = field(init=False, repr=False, compare=False)
    _max_agent: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        states = tuple(self.states)
        object.__setattr__(self, "states", states)
        if not states:
            raise InputError("rights structure needs at least one state")
        index = {s.key: i for i, s in enumerate(states)}
        if len(index) != len(states):
            raise InputError("duplicate state keys")
        object.__setattr__(self, "_index", index)
        gamma = {}
        targets: dict[str, list[str]] = {}
        checked: dict[frozenset, Coalition] = {}
        families: dict = {}

        def validated(fam) -> frozenset[Coalition]:
            valid = set()
            for k in fam:
                raw = frozenset(k)
                if raw not in checked:
                    checked[raw] = coalition(raw)
                valid.add(checked[raw])
            return frozenset(valid)

        for (a, b), fam in dict(self.gamma).items():
            if a not in index or b not in index:
                raise InputError(f"gamma entry on unknown state pair ({a!r}, {b!r})")
            if a == b:
                raise InputError(f"gamma is defined on distinct pairs only, got ({a!r}, {a!r})")
            try:
                valid = families[fam]
            except KeyError:
                valid = families[fam] = validated(fam)
            except TypeError:  # an unhashable family, such as a list of lists
                valid = validated(fam)
            if valid:
                gamma[(a, b)] = valid
                targets.setdefault(a, []).append(b)
        object.__setattr__(self, "gamma", gamma)
        for out in targets.values():
            out.sort(key=index.__getitem__)
        object.__setattr__(self, "_targets", {a: tuple(out) for a, out in targets.items()})
        object.__setattr__(self, "_max_agent", max((max(k) for k in checked.values()), default=-1))

    def index(self, key: str) -> int:
        try:
            return self._index[key]
        except KeyError:
            raise InputError(f"unknown state {key!r}") from None

    def state(self, key: str) -> State:
        return self.states[self.index(key)]

    def outcome(self, key: str) -> str:
        return self.state(key).outcome

    def keys(self) -> tuple[str, ...]:
        return tuple(s.key for s in self.states)

    def entitled(self, a: str, b: str) -> frozenset[Coalition]:
        self.index(a), self.index(b)
        return self.gamma.get((a, b), frozenset())

    def targets_from(self, a: str) -> tuple[str, ...]:
        """States b with a nonempty gamma entry (a, b), in declaration order."""
        return self._targets.get(a, ())

    def is_individual_based(self) -> bool:
        return all(len(k) == 1 for fam in self.gamma.values() for k in fam)

    def max_agent(self) -> int:
        """Largest agent index mentioned anywhere in gamma (-1 if gamma is empty)."""
        return self._max_agent


@dataclass(frozen=True)
class SocialEnvironment:
    """A rights structure evaluated at one preference profile."""

    rights: RightsStructure
    profile: Profile

    def __post_init__(self):
        alts = set(self.profile.alternatives)
        for s in self.rights.states:
            if s.outcome not in alts:
                raise InputError(f"state {s.key!r} has unknown outcome {s.outcome!r}")
        if self.rights.max_agent() >= self.profile.n_agents:
            raise InputError("gamma mentions an agent index outside the profile")

    def outcome(self, key: str) -> str:
        return self.rights.outcome(key)


@dataclass(frozen=True)
class Edge:
    source: str
    target: str
    coalition: Coalition


@dataclass(frozen=True)
class ImprovementDigraph:
    """Improvement moves of one environment, with deterministic ordering.

    `nodes` follow state declaration order; `adjacency` lists, per node,
    the distinct improvement targets in declaration order; `edge_coalitions`
    lists, per (source, target), the witnessing coalitions sorted by size
    then members, with its pairs by source, then by target.
    """

    nodes: tuple[str, ...]
    adjacency: Mapping[str, tuple[str, ...]]
    predecessors: Mapping[str, tuple[str, ...]]
    edge_coalitions: Mapping[tuple[str, str], tuple[Coalition, ...]]

    @property
    def edges(self) -> tuple[Edge, ...]:
        """Every move (s, t, K), flattened from `edge_coalitions` in its order."""
        return tuple(
            Edge(a, b, k) for (a, b), winners in self.edge_coalitions.items() for k in winners
        )

    def has_edge(self, a: str, b: str) -> bool:
        return (a, b) in self.edge_coalitions

    def targets(self, a: str) -> tuple[str, ...]:
        return self.adjacency.get(a, ())


def build_improvement_digraph(env: SocialEnvironment) -> ImprovementDigraph:
    """All edges (s, t, K) with K entitled and h(t) strictly preferred by every member.

    Walks gamma source by source, so the cost is linear in the number of
    gamma entries, not in the number of state pairs.
    """
    rights, prefs = env.rights, env.profile.prefs
    keys = rights.keys()
    by_outcome = {h: tuple(p.rank(h) for p in prefs) for h in {s.outcome for s in rights.states}}
    ranks = {s.key: by_outcome[s.outcome] for s in rights.states}
    adjacency: dict[str, list[str]] = {k: [] for k in keys}
    predecessors: dict[str, list[str]] = {k: [] for k in keys}
    edge_coalitions: dict[tuple[str, str], tuple[Coalition, ...]] = {}
    for a in keys:
        ra = ranks[a]
        out = adjacency[a]
        for b in rights.targets_from(a):
            rb = ranks[b]
            winners = []
            for k in rights.gamma[(a, b)]:
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
            out.append(b)
            predecessors[b].append(a)
    return ImprovementDigraph(
        nodes=keys,
        adjacency={k: tuple(v) for k, v in adjacency.items()},
        predecessors={k: tuple(v) for k, v in predecessors.items()},
        edge_coalitions=edge_coalitions,
    )


def reachable_from(dg: ImprovementDigraph, sources: Iterable[str]) -> frozenset[str]:
    """States reachable from `sources` along improvement edges (sources included)."""
    seen = set(sources)
    queue = deque(seen)
    while queue:
        a = queue.popleft()
        for b in dg.adjacency.get(a, ()):
            if b not in seen:
                seen.add(b)
                queue.append(b)
    return frozenset(seen)


def can_reach(dg: ImprovementDigraph, targets: Iterable[str]) -> frozenset[str]:
    """States with some improvement path into `targets` (targets included)."""
    seen = set(targets)
    queue = deque(seen)
    while queue:
        b = queue.popleft()
        for a in dg.predecessors.get(b, ()):
            if a not in seen:
                seen.add(a)
                queue.append(a)
    return frozenset(seen)


@dataclass(frozen=True)
class PathStep:
    coalition: Coalition
    state: str


@dataclass(frozen=True)
class ImprovementPath:
    """A myopic improvement path: start state plus (coalition, next state) steps."""

    start: str
    steps: tuple[PathStep, ...]

    @property
    def states(self) -> tuple[str, ...]:
        return (self.start,) + tuple(s.state for s in self.steps)

    def __len__(self) -> int:
        return len(self.steps)


def find_myopic_improvement_path(
    env: SocialEnvironment,
    start: str,
    targets: Iterable[str],
    digraph: ImprovementDigraph | None = None,
) -> ImprovementPath | None:
    """Shortest improvement path from `start` into `targets`, or None.

    Ties are broken by state declaration order; a start already inside the
    target set yields the empty path.  Each step records the first
    witnessing coalition in deterministic order.
    """
    rights = env.rights
    rights.index(start)
    target_set = set(targets)
    for t in target_set:
        rights.index(t)
    if start in target_set:
        return ImprovementPath(start, ())
    dg = digraph if digraph is not None else build_improvement_digraph(env)
    parent: dict[str, str] = {}
    queue = deque([start])
    seen = {start}
    goal = None
    while queue and goal is None:
        a = queue.popleft()
        for b in dg.adjacency.get(a, ()):
            if b in seen:
                continue
            seen.add(b)
            parent[b] = a
            if b in target_set:
                goal = b
                break
            queue.append(b)
    if goal is None:
        return None
    chain = [goal]
    while chain[-1] != start:
        chain.append(parent[chain[-1]])
    chain.reverse()
    steps = tuple(
        PathStep(dg.edge_coalitions[(a, b)][0], b) for a, b in zip(chain, chain[1:])
    )
    return ImprovementPath(start, steps)
