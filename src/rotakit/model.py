"""Preferences, profiles, and social choice rules on finite alternative sets.

Alternatives are opaque string identifiers.  A preference is a weak order
stored as a rank vector (rank 0 = best, equal rank = indifference),
normalised so the ranks an agent uses form a contiguous block 0..k.
A profile bundles one preference per agent under a stable string id.
A social choice rule is an explicit finite table: profile id -> nonempty
set of chosen alternatives.

Everything in this module is immutable and pure.
"""

from __future__ import annotations

from functools import cached_property, reduce
from itertools import compress
from operator import and_, or_
from typing import Any, Iterable, Iterator, Mapping, Sequence

_FLAGS = bytes.maketrans(b"01", b"\0\1")  # a bitset's binary digits as 0/1 flags


class InputError(ValueError):
    """Malformed input (unknown ids, bad shapes, broken preconditions) at JSON `path`, if known.

    `where` locates the value a library check refuses in the object being built
    (field names, indices, mapping keys, a gamma entry's `(from, to)` pair or index), and
    `value`, where given, is that value."""

    def __init__(self, message: str, path: str | None = None, where: tuple = (), value=None):
        super().__init__(message)
        self.path, self.where, self.value = path, where, value


def _error(path: str, detail: str) -> InputError:
    return InputError(f"{path}: {detail}", path)


def _need(doc: Mapping, key: str, path: str, kind: type = object) -> Any:
    """`doc[key]`, which must have type `kind` (int or str) when one is given."""
    try:
        value = doc[key]
    except KeyError:
        raise InputError(f"missing field {path}.{key}", f"{path}.{key}") from None
    except TypeError:
        raise _error(path, "expected an object") from None
    if kind is not object and type(value) is not kind:
        what = "an integer" if kind is int else "a string"
        raise _error(f"{path}.{key}", f"expected {what}, got {value!r}")
    return value


def _list(value: Any, path: str, kind: type = object) -> tuple:
    """A JSON list whose entries all have type `kind`, as a tuple.

    A string is not read as a list of characters, and an entry of another
    type (a bool where an integer belongs, say) is reported at its own path.
    """
    if not isinstance(value, (list, tuple)):
        raise _error(path, f"expected a list, got {value!r}")
    if kind is not object:
        for i, v in enumerate(value):
            if type(v) is not kind:
                raise _error(f"{path}[{i}]", f"expected {kind.__name__}, got {v!r}")
    return tuple(value)


def _agents(members: Any) -> frozenset[int]:
    """A coalition's agent indices, each a JSON integer (not a bool, float or string)."""
    for a in members:
        if type(a) is not int:
            raise TypeError(f"agent index {a!r} is not an integer")
    return frozenset(members)


class CapExceeded(RuntimeError):
    """A brute-force cap was hit.  Searches refuse through `check` before any work,
    reporting the compared `cap` and `needed`, and never truncate silently."""

    def __init__(self, message: str, cap: int | None = None, needed: int | None = None):
        super().__init__(message)
        self.cap = cap
        self.needed = needed

    @staticmethod
    def check(needed: int, cap: int, message: str) -> None:
        if needed > cap:
            raise CapExceeded(message, cap=cap, needed=needed)


class Record:
    """Base of rotakit's immutable records: a subclass's fields are the names its own body
    annotates, a class attribute of the same name is a field's default.  A record is built
    field-wise, then checked by `__post_init__`, which stores what it normalises in
    `vars(self)`; it equals only a record of its own class with an equal field tuple, hashes
    as that tuple, prints as `QualName(field=value, ...)` and refuses writes."""

    def __init_subclass__(cls):
        cls._fields = names = tuple(cls.__dict__.get("__annotations__", ()))
        cls._defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}

    def __init__(self, *args, **kwargs):
        names = self._fields
        given = dict(zip(names, args))
        values = {**self._defaults, **given, **kwargs}
        if len(given) < len(args) or given.keys() & kwargs or values.keys() != set(names):
            raise TypeError(f"{type(self).__qualname__} takes the fields {names}, each once")
        self.__dict__.update(values)
        self.__post_init__()

    def __post_init__(self):
        pass

    def _astuple(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self):
        return hash(self._astuple())

    def __repr__(self):
        body = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._astuple()))
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Verdict(Record):
    """Base of the verdict records: a verdict is truthy exactly when its `ok` field is."""

    def __bool__(self) -> bool:
        return self.ok


class Preference(Record):
    """A weak order over a fixed tuple of alternatives, as a rank vector."""

    alternatives: tuple[str, ...]
    ranks: tuple[int, ...]

    def __post_init__(self):
        alts = tuple(self.alternatives)
        if len(set(alts)) != len(alts):
            raise InputError("duplicate alternative ids", where=("alternatives",))
        if len(self.ranks) != len(alts):
            what = f"rank vector has {len(self.ranks)} entries for {len(alts)} alternatives"
            raise InputError(what, where=("ranks",))
        block = {r: i for i, r in enumerate(sorted(set(self.ranks)))}  # ranks onto 0..k, in order
        index = {a: i for i, a in enumerate(alts)}  # not a field: out of eq, hash and repr
        vars(self).update(alternatives=alts, ranks=tuple(map(block.get, self.ranks)), _index=index)

    @classmethod
    def from_order(cls, alternatives: Sequence[str], order: Sequence[str]) -> "Preference":
        """Linear order given best-to-worst; `order` must enumerate every alternative."""
        if sorted(order) != sorted(alternatives):
            raise InputError(f"order {order!r} is not a permutation of the alternatives")
        pos = {a: i for i, a in enumerate(order)}
        return cls(tuple(alternatives), tuple(pos[a] for a in alternatives))

    def rank(self, x: str) -> int:
        try:
            return self.ranks[self._index[x]]
        except KeyError:
            raise InputError(f"unknown alternative {x!r}") from None

    def strictly_prefers(self, x: str, y: str) -> bool:
        return self.rank(x) < self.rank(y)

    def weakly_prefers(self, x: str, y: str) -> bool:
        return self.rank(x) <= self.rank(y)

    def indifferent(self, x: str, y: str) -> bool:
        return self.rank(x) == self.rank(y)

    def lower_contour(self, x: str) -> frozenset[str]:
        """All alternatives weakly below x (always contains x)."""
        rx = self.rank(x)
        return frozenset(a for a, r in zip(self.alternatives, self.ranks) if r >= rx)

    def is_linear(self) -> bool:
        return len(set(self.ranks)) == len(self.ranks)


class Profile(Record):
    """One preference per agent over a shared alternative set, under a stable id."""

    id: str
    prefs: tuple[Preference, ...]

    def __post_init__(self):
        vars(self)["prefs"] = tuple(self.prefs)
        if not self.prefs:
            raise InputError("profile needs at least one agent", where=("prefs",))
        alts = self.prefs[0].alternatives
        for p in self.prefs[1:]:
            if p.alternatives != alts:
                raise InputError(f"profile {self.id!r}: agents rank different alternative sets")

    @classmethod
    def from_ranks(
        cls, pid: str, alternatives: Sequence[str], rank_rows: Sequence[Sequence[int]]
    ) -> "Profile":
        alts = tuple(alternatives)
        return cls(pid, tuple(Preference(alts, tuple(row)) for row in rank_rows))

    @classmethod
    def from_orders(
        cls, pid: str, alternatives: Sequence[str], orders: Sequence[Sequence[str]]
    ) -> "Profile":
        """Linear profile; each agent's order lists every alternative best-to-worst."""
        alts = tuple(alternatives)
        return cls(pid, tuple(Preference.from_order(alts, o) for o in orders))

    @classmethod
    def from_shares(
        cls,
        pid: str,
        alternatives: Sequence[str],
        assignments: Sequence[Sequence[str]],
        orders: Sequence[Sequence[str]],
    ) -> "Profile":
        """Own-share extension: agent i ranks alternative k by the position of
        its own share `assignments[k][i]` in its order `orders[i]`."""
        rows = []
        for i, order in enumerate(orders):
            pos = {share: r for r, share in enumerate(order)}
            rows.append(tuple(pos[a[i]] for a in assignments))
        return cls.from_ranks(pid, alternatives, rows)

    @property
    def alternatives(self) -> tuple[str, ...]:
        return self.prefs[0].alternatives

    @property
    def n_agents(self) -> int:
        return len(self.prefs)

    def pref(self, agent: int) -> Preference:
        if not 0 <= agent < len(self.prefs):
            raise InputError(f"unknown agent index {agent}")
        return self.prefs[agent]

    def rank(self, agent: int, x: str) -> int:
        return self.pref(agent).rank(x)

    def strictly_prefers(self, agent: int, x: str, y: str) -> bool:
        return self.pref(agent).strictly_prefers(x, y)

    def weakly_prefers(self, agent: int, x: str, y: str) -> bool:
        return self.pref(agent).weakly_prefers(x, y)

    def is_linear(self) -> bool:
        return all(p.is_linear() for p in self.prefs)

    @cached_property
    def contour_masks(self) -> tuple[tuple[int, ...], ...]:
        """Per agent, per alternative in sorted-id order, L_i(x) as a bitmask.

        Bit j stands for the j-th alternative in sorted-id order, so the
        lowest set bit of a mask is its smallest id.  Built on first read:
        the condition checks need it, most other profiles never do.
        """
        alts = self.alternatives
        order = sorted(range(len(alts)), key=alts.__getitem__)
        table = []
        for p in self.prefs:
            ranks = [p.ranks[k] for k in order]
            at_least = [0] * (max(ranks) + 2)  # at_least[r]: alternatives ranked r or worse
            for j, r in enumerate(ranks):
                at_least[r] |= 1 << j
            for r in range(len(at_least) - 2, -1, -1):
                at_least[r] |= at_least[r + 1]
            table.append(tuple(at_least[r] for r in ranks))
        return tuple(table)


def split_bits(found: int, masks: Iterable[int]) -> dict[int, int]:
    """Parts of the bitset `found`, each keyed by the indices i of the `masks` it lies in."""
    parts, bit = {0: found}, 1
    for mask in masks:
        split = {}
        for key, part in parts.items():
            if hit := part & mask:
                split[key | bit] = hit
            if rest := part & ~mask:
                split[key] = rest
        parts, bit = split, bit << 1
    return parts


def bit_keys(found: int, keys: Sequence) -> list:
    """The `keys` at the set bits of `found`, lowest bit first."""
    return [*compress(keys, bin(found)[:1:-1].encode().translate(_FLAGS))]


def lower_contour_set(profile: Profile, agent: int, x: str) -> frozenset[str]:
    """L_i(x, R): alternatives agent i weakly disprefers to x at this profile."""
    return profile.pref(agent).lower_contour(x)


class DomainRestrictionVerdict(Verdict):
    ok: bool
    pair: tuple[str, str] | None = None


def validate_domain_restriction(profile: Profile) -> DomainRestrictionVerdict:
    """Check that no two distinct alternatives are unanimously indifferent, that is,
    share a rank column across the agents; `pair` is the first two that do."""
    alike: dict[tuple[int, ...], list[str]] = {}
    for x, column in zip(profile.alternatives, zip(*(p.ranks for p in profile.prefs))):
        alike.setdefault(column, []).append(x)
    pair = next((tuple(xs[:2]) for xs in alike.values() if len(xs) > 1), None)
    return DomainRestrictionVerdict(pair is None, pair)


def dominates(profile: Profile, x: str, z: str) -> bool:
    """Weak Pareto dominance with at least one strict preference."""
    strict = False
    for p in profile.prefs:
        rx, rz = p.rank(x), p.rank(z)
        if rx > rz:
            return False
        if rx < rz:
            strict = True
    return strict


def pareto_frontier(profile: Profile) -> frozenset[str]:
    """Alternatives not weakly dominated (with one strict) by any other: x dominates what lies
    in every agent's lower contour of x, but for those with the same unanimous contour."""
    below = [reduce(and_, masks) for masks in zip(*profile.contour_masks)]
    alike: dict[int, int] = {}  # a unanimous lower contour -> the alternatives that have it
    for j, mask in enumerate(below):
        alike[mask] = alike.get(mask, 0) | 1 << j
    beaten = reduce(or_, (mask & ~same for mask, same in alike.items()), 0)
    return frozenset(z for j, z in enumerate(sorted(profile.alternatives)) if not beaten >> j & 1)


class SocialChoiceRule(Record):
    """Explicit finite SCR: a profile domain plus a choice table over it."""

    profiles: tuple[Profile, ...]
    choices: Mapping[str, frozenset[str]]

    def __post_init__(self):
        choices = {pid: frozenset(ch) for pid, ch in dict(self.choices).items()}
        vars(self).update(profiles=tuple(self.profiles), choices=choices)
        if not self.profiles:
            raise InputError("SCR needs a nonempty profile domain", where=("profiles",))
        ids = [p.id for p in self.profiles]
        if len(set(ids)) != len(ids):
            raise InputError("duplicate profile ids in SCR domain")
        alts = self.profiles[0].alternatives
        n = self.profiles[0].n_agents
        for p in self.profiles:
            if p.alternatives != alts:
                raise InputError("SCR domain profiles disagree on the alternative set")
            if p.n_agents != n:
                raise InputError("SCR domain profiles disagree on the number of agents")
        if set(self.choices) != set(ids):
            what = "choice table must cover exactly the domain profiles"
            raise InputError(what, where=("choices",))
        for pid, chosen in self.choices.items():
            if not chosen:
                raise InputError(f"empty choice set at profile {pid!r}", where=("choices", pid))
            unknown = chosen - set(alts)
            if unknown:
                what = f"choice at {pid!r} outside Z: {sorted(unknown)}"
                raise InputError(what, where=("choices", pid))

    @property
    def alternatives(self) -> tuple[str, ...]:
        return self.profiles[0].alternatives

    @property
    def n_agents(self) -> int:
        return self.profiles[0].n_agents

    def profile(self, pid: str) -> Profile:
        for p in self.profiles:
            if p.id == pid:
                return p
        raise InputError(f"unknown profile id {pid!r}")

    def choice(self, pid: str) -> frozenset[str]:
        try:
            return self.choices[pid]
        except KeyError:
            raise InputError(f"unknown profile id {pid!r}") from None

    def graph(self) -> Iterator[tuple[str, Profile]]:
        """Pairs (x, R) with x chosen at R, in domain/alternative order."""
        for p in self.profiles:
            chosen = self.choices[p.id]
            for a in self.alternatives:
                if a in chosen:
                    yield a, p


class EfficiencyVerdict(Verdict):
    ok: bool
    profile_id: str | None = None
    outcome: str | None = None
    dominator: str | None = None


def check_efficiency(scr: SocialChoiceRule) -> EfficiencyVerdict:
    """Every chosen outcome must be Pareto-undominated at its profile; a failure
    names the first chosen outcome off the frontier and its first dominator."""
    for p in scr.profiles:
        z = min(scr.choices[p.id] - pareto_frontier(p), default=None)
        if z is not None:
            x = next(x for x in p.alternatives if x != z and dominates(p, x, z))
            return EfficiencyVerdict(False, p.id, z, x)
    return EfficiencyVerdict(True)


def is_monotonic_transformation(r: Profile, rp: Profile, z: str) -> bool:
    """True iff z falls for nobody from r to rp: L_i(z,r) subset of L_i(z,rp) for all i."""
    if r.alternatives != rp.alternatives:
        raise InputError("profiles range over different alternative sets")
    if r.n_agents != rp.n_agents:
        raise InputError("profiles have different agent counts")
    for i in range(r.n_agents):
        if not r.pref(i).lower_contour(z) <= rp.pref(i).lower_contour(z):
            return False
    return True
