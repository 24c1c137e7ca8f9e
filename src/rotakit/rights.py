"""Rights structures, social environments, and the improvement digraph.

A rights structure is a finite state set, an outcome map h, and a sparse
code of rights gamma: (state, state) -> family of nonempty coalitions.
An absent gamma entry means nobody is entitled to that move.  Pairing a
rights structure with a preference profile gives a social environment,
whose improvement digraph has an edge (s, t, K) exactly when K is
entitled to move from s to t and every member of K strictly prefers
h(t) to h(s).  A rights structure is compiled once, when built, to rows of
ints and bitmasks, its only store; each digraph is built and solved on ints.
"""

from __future__ import annotations

import marshal
from functools import cached_property, reduce
from itertools import groupby
from operator import itemgetter
from typing import Collection, Iterable, Iterator, Mapping, NamedTuple, NoReturn, Sequence

from .model import InputError, Profile, Record, _agents, _error, _list, _need

Coalition = frozenset[int]
_target = itemgetter(0)  # of a compiled gamma entry
_OUTSIDE = "gamma mentions an agent index outside the profile"

BASE = "base"
GRAPH = "graph"
OPAQUE = "opaque"
_KINDS = (BASE, GRAPH, OPAQUE)


def coalition(members: Iterable[int], where: tuple = ()) -> Coalition:
    """The members as a coalition; a refusal names `where` as its location."""
    k = frozenset(members := tuple(members))
    if not all(type(m) is int for m in members):  # a bool or a float passes as the int it equals
        raise InputError("agent indices must be integers", where=where)
    if not k:
        raise InputError("coalitions must be nonempty", where=where)
    if any(m < 0 for m in k):
        raise InputError("agent indices must be nonnegative", where=where)
    return k


def coalition_key(k: Coalition) -> tuple[int, tuple[int, ...]]:
    """Deterministic sort key: by size, then by sorted members."""
    return (len(k), tuple(sorted(k)))


def _read_state(sdoc, path: str) -> tuple:
    """(key, outcome, kind, profile) of the state at `path`, checked in the order id, kind,
    profile (on a graph state, or wherever one is given), outcome."""
    key = _need(sdoc, "id", path, str)
    kind = sdoc.get("kind", BASE)
    if kind not in _KINDS:
        raise _error(f"{path}.kind", f"unknown kind {kind!r}")
    profile = _need(sdoc, "profile", path, str) if kind == GRAPH or "profile" in sdoc else None
    return key, _need(sdoc, "outcome", path, str), kind, profile


class State(NamedTuple):
    """A state with its outcome label.  Graph states remember their profile tag; a rights
    structure refuses an unknown kind, or a graph state with no profile, when it is built."""

    key: str
    outcome: str
    kind: str = BASE
    profile_id: str | None = None


class CompiledRights(NamedTuple):
    """A rights structure on ints, the only store of its states and gamma.  `states` holds
    the (key, outcome, kind, profile) rows it was given; `rows[a]` holds, in strictly
    increasing target id, one `(b, p, family, rule)` per gamma entry (a, b): `p` numbers the
    outcome pair (h(a), h(b)), whose outcome ids are `pair_a[p]` and `pair_b[p]`.  Entries
    with equal coalitions share `family`: the frozenset, the coalitions sorted by
    `coalition_key`, their agent bitmasks, the union of the one-agent masks, and the minimal
    other masks, which meet no one-agent mask: a gain mask holds some coalition's mask
    exactly when it meets the union or holds a minimal mask."""

    states: tuple[tuple, ...]
    keys: tuple[str, ...]
    outcomes: tuple[str, ...]
    pair_a: tuple[int, ...]
    pair_b: tuple[int, ...]
    rows: tuple[tuple[tuple, ...], ...]

    def entries(self) -> Iterator[tuple[str, str, frozenset[Coalition], str | None]]:
        keys = self.keys
        for a, row in zip(keys, self.rows):
            for b, _, family, rule in row:
                yield a, keys[b], family[0], rule

    def winners(self, gain: list[int]) -> Iterator[tuple]:
        keys = self.keys
        for a, row in zip(keys, self.rows):
            for b, p, (_, ordered, masks, _, _), _ in row:
                if won := tuple(k for k, m in zip(ordered, masks) if m & gain[p] == m):
                    yield (a, keys[b]), won


class _View(Mapping):
    """A read-only mapping of `size` items (counted when None) built from `items` on first
    lookup; `items` reads a compiled core, never its owner, so a view closes no cycle."""

    def __init__(self, items: Iterator[tuple], size: int | None = None):
        self._items, self._size = items, size

    def __len__(self) -> int:
        return len(self._table) if self._size is None else self._size

    def __getitem__(self, key):
        return self._table[key]

    def __iter__(self):
        return iter(self._table)

    def items(self):
        return self._table.items()

    def values(self):
        return self._table.values()

    def __reduce__(self):  # a pickle or a deep copy holds the mapping, not its iterator
        return dict, (self._table,)

    def __repr__(self) -> str:
        return repr(self._table)

    @cached_property
    def _table(self) -> dict:
        return dict(self._items)


class RightsStructure:
    """States and gamma, stored once as a compiled core that `states`, `gamma` and
    `provenance` are built from on first read; equal structures write the same document."""

    def __init__(self, states: Iterable[State], gamma: Mapping, provenance: Mapping | None = None):
        rule = (provenance or {}).get
        self._compile(states, ((a, b, k, rule((a, b))) for (a, b), k in gamma.items()))

    @classmethod
    def _build(cls, states: Iterable, groups: Iterable, doc=None) -> RightsStructure:
        (structure := cls.__new__(cls))._compile(states, groups, doc)
        return structure

    def _compile(self, states: Iterable, groups: Iterable, doc: tuple | None = None) -> None:
        """Check and store (key, outcome, kind, profile) `states`, then (from, to, coalitions,
        rule) `groups`, each checked in full before the next one is drawn: `to` is a list of
        keys, one entry each, or one key.  With `doc`, an (agent count or None, JSON paths) pair,
        `states` and `groups` are the document's lists at the paths' "states" and "gamma":
        every state's fields are checked (`_read_state`) before a repeated key is named, and
        each entry in full as it is read (fields, endpoints, coalitions, agents below the
        count), each distinct coalition list once.
        A stable sort by target puts the entries on a repeated pair side by side, in the order
        given: their coalitions join, and the last nonempty rule stands."""
        agents, at = doc or (None, None)
        if not (states := _list(states, at["states"]) if doc else tuple(states)):
            raise InputError("rights structure needs at least one state", where=("states",))
        index, outcomes, outcome_of = {}, {}, []  # key -> id, outcome -> id, id -> outcome id
        read = []  # the states read from a document
        for i, state in enumerate(states):
            if doc:
                try:  # every field present and well typed, else read again in order to refuse
                    key, outcome, kind = state["id"], state["outcome"], state.get("kind", BASE)
                    need = kind == GRAPH or "profile" in state
                    profile = state["profile"] if need else None
                    if str is not type(key) or str is not type(outcome) or kind not in _KINDS:
                        raise TypeError
                    if need and str is not type(profile):
                        raise TypeError
                except (KeyError, TypeError):
                    key, outcome, kind, profile = _read_state(state, f"{at['states']}[{i}]")
                read.append((key, outcome, kind, profile))
            else:  # a document's state is checked as it is read
                key, outcome, kind, profile = state
                if kind not in _KINDS:
                    raise InputError(f"unknown state kind {kind!r}", where=("states", i, "kind"))
                if kind == GRAPH and profile is None:
                    what = f"graph state {key!r} needs a profile id"
                    raise InputError(what, where=("states", i, "profile"))
            index.setdefault(key, i)
            outcome_of.append(outcomes.setdefault(outcome, len(outcomes)))
        states = tuple(read) if doc else states
        if len(index) < len(states):  # named once every state's fields are checked
            twin = next(i for i, s in enumerate(states) if index[s[0]] != i)
            raise InputError("duplicate state keys", where=("states", twin, "key"))
        n_out = len(outcomes)
        shared: dict[frozenset, tuple] = {}
        checked: dict[int, tuple] = {}  # by id: each family object, kept alive, is checked once
        pairs: dict[int, int] = {}

        def family(valid: frozenset[Coalition]) -> tuple:
            if valid not in shared:
                ordered = tuple(sorted(valid, key=coalition_key))
                masks = tuple(sum(1 << i for i in k) for k in ordered)
                one = sum(m for m in masks if not m & (m - 1))
                other = [m for m in masks if m & (m - 1) and not m & one]  # two or more agents
                minimal = tuple(m for m in other if not any(k & m == k != m for k in other))
                shared[valid] = valid, ordered, masks, one, minimal
            return shared[valid]

        def record(fam, where: tuple) -> tuple:
            valid = frozenset(coalition(k, where) for k in fam)  # before a bitmask is built
            if agents is not None and (top := max(map(max, valid), default=-1)) >= agents:
                raise InputError(_OUTSIDE, where=where, value=top)
            return family(valid)

        def refuse(a: str, b: str, ia: int | None, entry: tuple) -> NoReturn:
            """Refuse gamma `entry` (a, b): an unknown state (`a` when `ia` is None), or a == b."""
            if ia is not None and a == b:
                what = f"gamma is defined on distinct pairs only, got ({a!r}, {a!r})"
                raise InputError(what, where=(*entry, "to"))
            what = f"gamma entry on unknown state pair ({a!r}, {b!r})"
            raise InputError(what, where=(*entry, "from" if ia is None else "to"))

        def check(a: str, ia: int | None, targets: Sequence[str], ids: Sequence, fam) -> None:
            for b, ib in zip(targets, ids):  # one entry at a time, for the first refusal
                if ia is None or ib is None or ia == ib:
                    refuse(a, b, ia, ("gamma", (a, b)))
                if id(fam) not in checked:
                    checked[id(fam)] = fam, record(fam, ("gamma", (a, b), "coalitions"))

        def join(old: tuple, new: tuple) -> tuple:
            return new[0], new[1], family(old[2][0] | new[2][0]), new[3] or old[3]

        get, number = index.get, pairs.setdefault
        rows: list[list[tuple]] = [[] for _ in states]  # per source: entries in the order given
        if doc is None:
            for a, to, fam, rule in groups:
                ia, to = get(a), to if type(to) is list else [to]
                ids = [*map(get, to)]
                if ia is None or None in ids or ia in ids or ids and id(fam) not in checked:
                    check(a, ia, to, ids, fam)
                if ids:
                    base, rec, rule = outcome_of[ia] * n_out, checked[id(fam)][1], rule or None
                    rows[ia] += [
                        (b, number(base + outcome_of[b], len(pairs)), rec, rule) for b in ids
                    ]
        else:
            memo: dict[bytes, tuple] = {}  # 1, 1.0 and True marshal apart: only ints reach it
            for i, g in enumerate(_list(groups, at := at["gamma"])):
                try:
                    a, b, cs = g["from"], g["to"], g["coalitions"]
                    if str is not type(a) or str is not type(b):
                        raise TypeError
                except (KeyError, TypeError):  # a field missing or mistyped, named in order
                    path = f"{at}[{i}]"
                    a, b = _need(g, "from", path, str), _need(g, "to", path, str)
                    cs = _need(g, "coalitions", path)
                try:
                    rec = memo.get(key := marshal.dumps(cs, 2))
                except ValueError:  # no JSON value, such as an int subclass, or nested too deep
                    rec = key = None
                if rec is None:
                    try:
                        cs = [*map(_agents, cs)]
                    except (TypeError, ValueError) as exc:
                        what = f"expected lists of agent indices: {exc}"
                        raise _error(f"{at}[{i}].coalitions", what) from None
                if type(rule := g.get("rule", "")) is not str:
                    rule = _need(g, "rule", f"{at}[{i}]", str)
                ia, ib = get(a), get(b)
                if ia is None or ib is None or ia == ib:
                    refuse(a, b, ia, ("gamma", i))
                if rec is None:
                    rec = record(cs, ("gamma", i, "coalitions"))
                    if key is not None:
                        memo[key] = rec
                p = number(outcome_of[ia] * n_out + outcome_of[ib], len(pairs))
                rows[ia].append((ib, p, rec, rule or None))
        for row in rows:
            row.sort(key=_target)
            if len(set(map(_target, row))) < len(row):  # a pair given twice
                row[:] = [reduce(join, same) for _, same in groupby(row, _target)]
        if frozenset() in shared:  # an entry granting nobody is not stored
            rows = [[e for e in row if e[2][0]] for row in rows]
        self._index, self._max_agent = index, max((max(k) for f in shared for k in f), default=-1)
        self._core = core = CompiledRights(
            states,
            tuple(index),
            tuple(outcomes),
            tuple(code // n_out for code in pairs),
            tuple(code % n_out for code in pairs),
            tuple(map(tuple, rows)),
        )
        gamma = (((a, b), k) for a, b, k, _ in core.entries())
        self.gamma = _View(gamma, sum(map(len, rows)))
        self.provenance = _View(((a, b), rule) for a, b, _, rule in core.entries() if rule)

    @cached_property
    def states(self) -> tuple[State, ...]:
        return tuple(map(State._make, self._core.states))

    def __eq__(self, other) -> bool:
        same = isinstance(other, RightsStructure) and self._core.states == other._core.states
        return same and list(self.entries()) == list(other.entries())

    def __repr__(self) -> str:  # each family as written: a frozenset's print order can vary
        gamma = {(a, b): sorted(sorted(k) for k in fam) for a, b, fam, _ in self.entries()}
        return f"RightsStructure({self.states!r}, {gamma!r}, {self.provenance!r})"

    def index(self, key: str) -> int:
        try:
            return self._index[key]
        except KeyError:
            raise InputError(f"unknown state {key!r}") from None

    def state(self, key: str) -> State:
        return State._make(self._core.states[self.index(key)])

    def outcome(self, key: str) -> str:
        return self._core.states[self.index(key)][1]

    def keys(self) -> tuple[str, ...]:
        return self._core.keys

    def entitled(self, a: str, b: str) -> frozenset[Coalition]:
        self.index(a), self.index(b)
        return self.gamma.get((a, b), frozenset())

    def entries(self) -> Iterator[tuple[str, str, frozenset[Coalition], str | None]]:
        """(from, to, coalitions, rule) per gamma entry, in the order of `gamma`."""
        return self._core.entries()

    def max_agent(self) -> int:
        """Largest agent index mentioned anywhere in gamma (-1 if gamma is empty)."""
        return self._max_agent


class SocialEnvironment(Record):
    """A rights structure evaluated at one preference profile."""

    rights: RightsStructure
    profile: Profile

    def __post_init__(self):
        rights, alts = self.rights, frozenset(self.profile.alternatives)
        if not alts.issuperset(rights._core.outcomes):
            i, (key, h, *_) = next(s for s in enumerate(rights._core.states) if s[1][1] not in alts)
            what = f"state {key!r} has unknown outcome {h!r}"
            raise InputError(what, where=("rights", "states", i, "outcome"))
        if (top := rights.max_agent()) >= self.profile.n_agents:  # named at its first entry
            pair = next((a, b) for a, b, fam, _ in rights.entries() if any(top in k for k in fam))
            raise InputError(_OUTSIDE, where=("rights", "gamma", pair, "coalitions"), value=top)

    def outcome(self, key: str) -> str:
        return self.rights.outcome(key)


class Edge(Record):
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


def build_improvement_digraph(env: SocialEnvironment) -> ImprovementDigraph:
    """All edges (s, t, K) with K entitled and h(t) strictly preferred by every member.

    One bitmask of strict gainers per outcome pair that gamma uses, from one subtraction of
    packed ranks: agent i's rank sits in bits [w*i, w*i + w), w = b + 1 for b the largest
    rank's bit length, and adding 2^b - 1 to each field of packed[h(s)] - packed[h(t)] sets
    its bit b, with no borrow across fields, exactly when agent i ranks h(t) above h(s).
    Then, per gamma entry in the rows' order, the target wins when the gainers meet the
    family's one-agent union or hold a minimal mask: linear in entries and outcome pairs.
    """
    rights = env.rights
    core = rights._core
    ranks = [[*map(p.rank, core.outcomes)] for p in env.profile.prefs[: rights.max_agent() + 1]]
    bits = max(map(max, ranks), default=0).bit_length()
    shifts = [(bits + 1) * i for i in range(len(ranks))]  # agent i's field starts at shifts[i]
    packed = [0] * len(core.outcomes)
    for shift, row in zip(shifts, ranks):
        packed = [p | r << shift for p, r in zip(packed, row)]
    fill, top = sum(((1 << bits) - 1) << s for s in shifts), sum(1 << s + bits for s in shifts)
    spread = [(packed[a] - packed[t] + fill) & top for a, t in zip(core.pair_a, core.pair_b)]
    agents = {v: sum(1 << i for i, s in enumerate(shifts) if v >> s + bits & 1) for v in {*spread}}
    gain = [*map(agents.__getitem__, spread)]
    del packed, spread  # only `gain` is read from here on
    succ: list[list[int]] = [[] for _ in core.keys]
    pred: list[list[int]] = [[] for _ in core.keys]
    for a, row in enumerate(core.rows):
        out = succ[a]
        for b, p, fam, _ in row:
            g = gain[p]
            if not g & fam[3]:  # no one-agent coalition gains
                for m in fam[4]:  # two or more agents may win where no one alone does
                    if m & g == m:
                        break
                else:
                    continue
            out.append(b)
            pred[b].append(a)
    edges = _View(core.winners(gain), sum(map(len, succ)))
    return ImprovementDigraph(rights._index, succ, pred, edges)


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
    tie-breaks finds.  It stops once every id is reached."""
    succ, pred, n = dg.succ, dg.pred, len(dg.nodes)
    dist, hop, order = [-1] * n, [-1] * n, []
    for g in goals:
        if dist[g] < 0:
            dist[g] = 0
            order.append(g)
    for b in order:  # grows while it is read: a FIFO queue
        if len(order) == n:
            break
        closer = dist[b]
        for a in pred[b]:
            if dist[a] < 0:
                dist[a] = closer + 1
                order.append(a)
                for t in succ[a]:
                    if dist[t] == closer:
                        hop[a] = t
                        break
    return order, dist, hop


def can_reach(dg: ImprovementDigraph, targets: Iterable[str]) -> frozenset[str]:
    """States with some improvement path into `targets` (targets included)."""
    return frozenset(dg.nodes[i] for i in search(dg.pred, map(dg.id_of.__getitem__, targets)))


class PathStep(Record):
    coalition: Coalition
    state: str


class ImprovementPath(Record):
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
    target_set = dict.fromkeys(targets)  # in the caller's order: the first unknown is named
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
