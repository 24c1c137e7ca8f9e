"""Rights structures, social environments, and the improvement digraph.

A rights structure is a finite state set, an outcome map h, and a sparse
code of rights gamma: (state, state) -> family of nonempty coalitions.
An absent gamma entry means nobody is entitled to that move.  Pairing a
rights structure with a preference profile gives a social environment,
whose improvement digraph has an edge (s, t, K) exactly when K is
entitled to move from s to t and every member of K strictly prefers
h(t) to h(s).  A rights structure is compiled once, when built, to ints
and coalition bitmasks; each profile's digraph is built and solved on ints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Collection, Iterable, Mapping, NamedTuple, Sequence

from .model import InputError, Profile

Coalition = frozenset[int]

BASE = "base"
GRAPH = "graph"
OPAQUE = "opaque"


def coalition(members: Iterable[int], where: tuple = ()) -> Coalition:
    """The members as a coalition; a refusal names `where` as its location."""
    k = frozenset(int(m) for m in members)
    if not k:
        raise InputError("coalitions must be nonempty", where=where)
    if any(m < 0 for m in k):
        raise InputError("agent indices must be nonnegative", where=where)
    return k


def coalition_key(k: Coalition) -> tuple[int, tuple[int, ...]]:
    """Deterministic sort key: by size, then by sorted members."""
    return (len(k), tuple(sorted(k)))


def check_agent_range(gamma: Mapping, top: int, n_agents: int, *where) -> None:
    """Refuse `top`, gamma's largest agent index, at its first pair unless below `n_agents`."""
    if top >= n_agents:
        pair = next(p for p, fam in gamma.items() if any(top in k for k in fam))
        what = "gamma mentions an agent index outside the profile"
        raise InputError(what, where=(*where, "gamma", pair, "coalitions"), value=top)


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


class CompiledRights(NamedTuple):
    """A rights structure on ints.  `rows[a]` holds, by target id, one
    `(b, p, single, multi, family, masks)` per gamma entry (a, b): `p` numbers
    the outcome pair (h(a), h(b)), whose outcome ids are `pair_a[p]` and
    `pair_b[p]`; `family` is the entry's coalitions sorted by `coalition_key`
    and `masks` their agent bitmasks; `single` is the union of the one-agent
    masks and `multi` the other masks."""

    keys: tuple[str, ...]
    outcomes: tuple[str, ...]
    pair_a: tuple[int, ...]
    pair_b: tuple[int, ...]
    rows: tuple[tuple[tuple, ...], ...]


@dataclass(frozen=True)
class RightsStructure:
    states: tuple[State, ...]
    gamma: Mapping[tuple[str, str], frozenset[Coalition]]
    provenance: Mapping[tuple[str, str], str] = field(default_factory=dict)
    _index: Mapping[str, int] = field(init=False, repr=False, compare=False)
    _core: CompiledRights = field(init=False, repr=False, compare=False)
    _max_agent: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        states = tuple(self.states)
        object.__setattr__(self, "states", states)
        if not states:
            raise InputError("rights structure needs at least one state", where=("states",))
        index: dict[str, int] = {}
        for i, s in enumerate(states):
            if index.setdefault(s.key, i) != i:
                raise InputError("duplicate state keys", where=("states", i, "key"))
        object.__setattr__(self, "_index", index)
        outcomes: dict[str, int] = {}
        outcome_of = [outcomes.setdefault(s.outcome, len(outcomes)) for s in states]
        n_out = len(outcomes)
        gamma = {}
        rows: list[list[tuple]] = [[] for _ in states]
        pairs: dict[int, int] = {}
        checked: dict[frozenset, Coalition] = {}
        families: dict = {}

        def validated(fam) -> tuple:
            """The family, checked, with its `(single, multi, family, masks)`."""
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

        for pair, fam in dict(self.gamma).items():
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
                gamma[pair] = valid
                p = pairs.setdefault(outcome_of[ia] * n_out + outcome_of[ib], len(pairs))
                rows[ia].append((ib, p, *compiled))
        object.__setattr__(self, "gamma", gamma)
        for row in rows:
            row.sort()  # by target id: a row holds each target once
        core = CompiledRights(
            tuple(index),
            tuple(outcomes),
            tuple(code // n_out for code in pairs),
            tuple(code % n_out for code in pairs),
            tuple(map(tuple, rows)),
        )
        object.__setattr__(self, "_core", core)
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
        return self._core.keys

    def entitled(self, a: str, b: str) -> frozenset[Coalition]:
        self.index(a), self.index(b)
        return self.gamma.get((a, b), frozenset())

    def targets_from(self, a: str) -> tuple[str, ...]:
        """States b with a nonempty gamma entry (a, b), in declaration order."""
        row = self._core.rows[self._index[a]] if a in self._index else ()
        return tuple(self._core.keys[entry[0]] for entry in row)

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
        for i, s in enumerate(self.rights.states):
            if s.outcome not in alts:
                what = f"state {s.key!r} has unknown outcome {s.outcome!r}"
                raise InputError(what, where=("rights", "states", i, "outcome"))
        rights = self.rights
        check_agent_range(rights.gamma, rights.max_agent(), self.profile.n_agents, "rights")

    def outcome(self, key: str) -> str:
        return self.rights.outcome(key)


@dataclass(frozen=True)
class Edge:
    source: str
    target: str
    coalition: Coalition


class ImprovementDigraph:
    """Improvement moves of one environment, with deterministic ordering.

    The solvers read ints: `id_of` a node's id, given as a key -> id dict
    in declaration order (a rights structure's own index, shared by the
    digraphs of all its profiles), `nodes` its keys in that order, and per
    id its distinct improvement targets (`succ`) and sources (`pred`) in
    declaration order.  `edge_coalitions` maps each (source, target) pair, by source then
    target, to the winning coalitions sorted by size then members.  The
    string views `adjacency` and `predecessors` are derived from the ints
    on first read.
    """

    def __init__(
        self,
        id_of: dict[str, int],
        succ: list[list[int]],
        pred: list[list[int]],
        edge_coalitions: Mapping[tuple[str, str], tuple[Coalition, ...]],
    ):
        self.id_of, self.nodes = id_of, tuple(id_of)
        self.succ, self.pred, self.edge_coalitions = succ, pred, edge_coalitions

    @cached_property
    def adjacency(self) -> Mapping[str, tuple[str, ...]]:
        return self._view(self.succ)

    @cached_property
    def predecessors(self) -> Mapping[str, tuple[str, ...]]:
        return self._view(self.pred)

    def _view(self, lists: list[list[int]]) -> dict[str, tuple[str, ...]]:
        keys = self.nodes
        return {k: tuple(keys[j] for j in out) for k, out in zip(keys, lists)}

    @property
    def edges(self) -> tuple[Edge, ...]:
        """Every move (s, t, K), flattened from `edge_coalitions` in its order."""
        return tuple(
            Edge(a, b, k) for (a, b), winners in self.edge_coalitions.items() for k in winners
        )

    def has_edge(self, a: str, b: str) -> bool:
        i = self.id_of.get(a)
        return i is not None and self.id_of.get(b) in self.succ[i]

    def targets(self, a: str) -> tuple[str, ...]:
        return self.adjacency.get(a, ())

    def __eq__(self, other) -> bool:
        views = ("nodes", "succ", "pred", "edge_coalitions")
        return isinstance(other, ImprovementDigraph) and all(
            getattr(self, v) == getattr(other, v) for v in views
        )

    __hash__ = None  # type: ignore[assignment]


class _EdgeTable(Mapping):
    """`edge_coalitions` of a built digraph: its length is the edge count, and
    the table is built from the compiled rows on first lookup."""

    def __init__(self, core: CompiledRights, gain: list[int], size: int):
        self._core, self._gain, self._size = core, gain, size

    def __len__(self) -> int:
        return self._size

    def __getitem__(self, pair: tuple[str, str]) -> tuple[Coalition, ...]:
        return self._table[pair]

    def __iter__(self):
        return iter(self._table)

    @cached_property
    def _table(self) -> dict[tuple[str, str], tuple[Coalition, ...]]:
        keys, gain, table = self._core.keys, self._gain, {}
        for a, row in enumerate(self._core.rows):
            for b, p, _, _, family, masks in row:
                g = gain[p]
                winners = tuple(k for k, m in zip(family, masks) if m & g == m)
                if winners:
                    table[(keys[a], keys[b])] = winners
        return table


def build_improvement_digraph(env: SocialEnvironment) -> ImprovementDigraph:
    """All edges (s, t, K) with K entitled and h(t) strictly preferred by every member.

    One bitmask of strict gainers per outcome pair that gamma uses; then,
    per gamma entry, K wins when its mask lies inside the gainers of the
    entry's pair.  The cost is linear in the gamma entries and outcome
    pairs, not in the number of state pairs.
    """
    rights = env.rights
    core = rights._core
    gain = [0] * len(core.pair_a)
    for i, pref in enumerate(env.profile.prefs[: rights.max_agent() + 1]):
        bit, rank = 1 << i, [pref.rank(h) for h in core.outcomes]
        gain = [
            g | bit if rank[b] < rank[a] else g for g, a, b in zip(gain, core.pair_a, core.pair_b)
        ]
    succ: list[list[int]] = [[] for _ in core.keys]
    pred: list[list[int]] = [[] for _ in core.keys]
    for a, row in enumerate(core.rows):
        out = succ[a]
        for b, p, single, multi, _, _ in row:
            g = gain[p]
            if not g:
                continue
            if not g & single:
                for m in multi:
                    if m & g == m:
                        break
                else:
                    continue
            out.append(b)
            pred[b].append(a)
    return ImprovementDigraph(rights._index, succ, pred, _EdgeTable(core, gain, sum(map(len, succ))))


def search(
    neighbours: Sequence[Sequence[int]],
    starts: Iterable[int],
    within: Collection[int] | None = None,
) -> set[int]:
    """Ids reachable from `starts` along `neighbours` (starts included),
    without leaving `within` when it is given."""
    seen = set(starts)
    stack = list(seen)
    while stack:
        for b in neighbours[stack.pop()]:
            if b not in seen and (within is None or b in within):
                seen.add(b)
                stack.append(b)
    return seen


def hops_into(
    dg: ImprovementDigraph, goals: Iterable[int]
) -> tuple[list[int], list[int], list[int]]:
    """One reverse BFS from `goals` along `pred`: the visit order (goals
    first), each id's improvement distance into the goals (-1 when it has
    none) and its next hop, the first successor in `succ` order one step
    closer (-1 on goals and unreached ids, and where `succ` has no such
    step).  Following next hops gives every state the lexicographically
    smallest shortest path, the one a forward BFS with declaration-order
    tie-breaks finds."""
    succ, dist, hop = dg.succ, [-1] * len(dg.nodes), [-1] * len(dg.nodes)
    order = []
    for g in goals:
        if dist[g] < 0:
            dist[g] = 0
            order.append(g)
    for b in order:  # grows while it is read: a FIFO queue
        closer = dist[b]
        for a in dg.pred[b]:
            if dist[a] < 0:
                dist[a] = closer + 1
                order.append(a)
                hop[a] = next((t for t in succ[a] if dist[t] == closer), -1)
    return order, dist, hop


def can_reach(dg: ImprovementDigraph, targets: Iterable[str]) -> frozenset[str]:
    """States with some improvement path into `targets` (targets included)."""
    return frozenset(dg.nodes[i] for i in search(dg.pred, map(dg.id_of.__getitem__, targets)))


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
    witnessing coalition in deterministic order.  The path follows the
    next hops of one reverse search from the targets (`hops_into`).
    """
    rights = env.rights
    rights.index(start)
    target_set = set(targets)
    for t in target_set:
        rights.index(t)
    dg = digraph if digraph is not None else build_improvement_digraph(env)
    _, dist, hop = hops_into(dg, map(dg.id_of.__getitem__, target_set))
    chain = [dg.id_of[start]]
    while hop[chain[-1]] >= 0:
        chain.append(hop[chain[-1]])
    if dist[chain[-1]]:  # unreached, or `succ` lacks a step `pred` implies
        return None
    keys = dg.nodes
    pairs = [(keys[a], keys[b]) for a, b in zip(chain, chain[1:])]
    return ImprovementPath(start, tuple(PathStep(dg.edge_coalitions[p][0], p[1]) for p in pairs))
