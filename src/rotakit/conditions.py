"""Monotonicity-style conditions on social choice rules.

Implements the four characterising conditions: Maskin monotonicity,
indirect monotonicity, rotation monotonicity, and Property M, plus the
search for per-profile circular orderings satisfying the last two
simultaneously (the precondition of the consecutive-rights construction).

Rotation monotonicity is checked in certificate form.  For a circular
ordering x(1),...,x(m) of F(R) and a triggering profile R', the
certificate of x(i) is a forward walk of 0..m-1 steps along the circle,
each step strictly improving for some agent at R', ending at an outcome
where some agent's preference reversed between R and R' (a z weakly
below it at R but strictly above it at R').  The zero-step case, a
reversal at x(i) itself, is admitted, and the reversal agent may differ
from the walk agents: a reversal pairs an exit right at the ordering's
own profile with a strict gain at the triggering one, which needs no
preceding walk and no particular walker.  The consecutive-rights
construction turns exactly these certificates into improvement paths.

Every check reads tables built from `Profile.contour_masks`: per (R, R'),
which outcomes of F(R) have a preference reversal, and per R', which
outcomes some agent strictly prefers to each outcome.  The Maskin and
indirect triggers are the dropped outcomes without a reversal.  An
ordering passes R' exactly when some outcome has a reversal and every
outcome without one steps to its successor, so a candidate costs O(m)
per trigger.  Candidates are still tried in lexicographic order, all of
them when none passes.
"""

from __future__ import annotations

import itertools
from functools import reduce
from operator import and_
from typing import Callable, Iterable, Mapping, Sequence

from .model import CapExceeded, InputError, Profile, Record, SocialChoiceRule, Verdict

ORDER_SEARCH_CAP = 8


class MaskinVerdict(Verdict):
    ok: bool
    counterexample: tuple[str, str, str] | None = None  # (R, R', z)


def check_maskin_monotonicity(scr: SocialChoiceRule) -> MaskinVerdict:
    """z chosen at R and falling for nobody from R to R' must stay chosen at R'."""
    tables = _Tables(scr)
    for r, rp, z in tables.monotonic_triggers():
        return MaskinVerdict(False, (r.id, rp.id, tables.alts[z]))
    return MaskinVerdict(True)


class IndirectWitness(Record):
    profile_id: str
    other_id: str
    outcome: str
    path: tuple[str, ...]  # outcomes z_1..z_h inside F(R), each step improving at R'
    step_agents: tuple[int, ...]
    reversal_agent: int


class IndirectVerdict(Verdict):
    ok: bool
    witnesses: tuple[IndirectWitness, ...] = ()
    failing: tuple[str, str, str] | None = None  # (R, R', z)


def check_indirect_monotonicity(scr: SocialChoiceRule) -> IndirectVerdict:
    """Triggered triples must reach a preference reversal inside F(R).

    A trigger is (R, R', z) with z chosen at R, dropped at R', and falling
    for nobody.  The conclusion asks for a walk z = z_1, ..., z_h inside
    F(R), each step strictly improving for some agent at R', ending at a
    z_h != z whose lower contour shrank for someone from R to R'.
    """
    tables = _Tables(scr)
    witnesses = []
    for r, rp, z in tables.monotonic_triggers():
        witness = _indirect_walk(tables, r, rp, z)
        if witness is None:
            return IndirectVerdict(False, tuple(witnesses), (r.id, rp.id, tables.alts[z]))
        witnesses.append(witness)
    return IndirectVerdict(True, tuple(witnesses))


# Outcomes below are ints: index j is the j-th alternative in sorted-id
# order, which is also its bit in `Profile.contour_masks`.


def _step(rp: Profile, a: int, b: int) -> int | None:
    """First agent strictly preferring b to a at rp: b lies outside L_i(a, rp)."""
    bit = 1 << b
    for i, low in enumerate(rp.contour_masks):
        if not low[a] & bit:
            return i
    return None


def _reversal(r: Profile, rp: Profile, x: int) -> tuple[int, int] | None:
    """First (agent, z) with x weakly above z at r but z strictly above x at rp.

    z is the smallest id in L_i(x, r) minus L_i(x, rp): its lowest set bit.
    """
    for i, (low, low_p) in enumerate(zip(r.contour_masks, rp.contour_masks)):
        shrank = low[x] & ~low_p[x]
        if shrank:
            return i, (shrank & -shrank).bit_length() - 1
    return None


def _indirect_walk(tables: _Tables, r: Profile, rp: Profile, z: int) -> IndirectWitness | None:
    """BFS over F(R) with edges a -> b iff some agent has b P' a."""
    nodes, better, rev = tables.outcomes[r.id], tables.better(rp), tables.reversals(r, rp)
    parent: dict[int, int] = {}
    unseen = tables.chosen[r.id] & ~(1 << z)
    frontier = [z]
    while frontier:
        nxt = []
        for a in frontier:
            hits = better[a] & unseen
            unseen &= ~hits
            for b in nodes:
                if not hits >> b & 1:
                    continue
                parent[b] = a
                if rev >> b & 1:
                    path = [b]
                    while path[-1] != z:
                        path.append(parent[path[-1]])
                    path.reverse()
                    agents = tuple(_step(rp, x, y) for x, y in zip(path, path[1:]))
                    agent = _reversal(r, rp, b)[0]
                    names = tables.names(path)
                    return IndirectWitness(r.id, rp.id, tables.alts[z], names, agents, agent)
                nxt.append(b)
        frontier = nxt
    return None


def _reach_back(better: list[int], ordering: Sequence[int], reach: list[bool]) -> list[bool]:
    """Close the seeded positions `reach` backward around the circle: x(k) is
    reached when x(k+1) is and some agent prefers x(k+1) to x(k) (`better`
    is one profile's `_Tables.better`).  One pass from the last seeded
    position settles every position."""
    if True in reach:
        m = len(ordering)
        last = m - 1 - reach[::-1].index(True)
        for k in range(last - 1, last - m, -1):  # negative k wraps around
            if not reach[k]:
                reach[k] = reach[k + 1] and better[ordering[k]] >> ordering[k + 1] & 1 == 1
    return reach


class _Tables:
    """Reversal and improvement tables of one SCR, each filled when first read.

    Reversals are kept per (R, R') for every outcome of F(R); they do not
    depend on the ordering.  Improvements are kept per R', shared by all R:
    `better(rp)[a]` holds the outcomes some agent strictly prefers to a.
    Checking one ordering against one R' then reads one reversal bit and
    at most one improvement bit per outcome.
    """

    def __init__(self, scr: SocialChoiceRule, cap: int | None = None):
        """With a `cap`, tables for the ordering searches: the first chosen set over it, in
        profile order, raises CapExceeded before any ordering of any profile is tried."""
        self.scr = scr
        self.alts = tuple(sorted(scr.alternatives))
        self.index = {a: j for j, a in enumerate(self.alts)}
        self.outcomes = {p.id: self.ids(sorted(scr.choice(p.id))) for p in scr.profiles}
        if cap is not None:
            for pid, xs in self.outcomes.items():
                m = len(xs)
                message = f"ordering search over {m} outcomes at {pid!r} exceeds the cap of {cap}"
                CapExceeded.check(m, cap, message)
        self.chosen = {pid: sum(1 << x for x in xs) for pid, xs in self.outcomes.items()}
        self._better: dict[str, list[int]] = {}
        self._reversals: dict[tuple[str, str], int] = {}
        self._triggers: dict[str, tuple[list[Profile], list[tuple[Profile, int]]]] = {}

    def ids(self, names: Sequence[str]) -> tuple[int, ...]:
        return tuple(map(self.index.__getitem__, names))

    def names(self, ids: Iterable[int]) -> tuple[str, ...]:
        return tuple(map(self.alts.__getitem__, ids))

    def better(self, rp: Profile) -> list[int]:
        """Per outcome a, the outcomes outside some L_i(a, rp), as a bitmask."""
        better = self._better.get(rp.id)
        if better is None:
            full = (1 << len(self.alts)) - 1
            better = [full ^ reduce(and_, lows) for lows in zip(*rp.contour_masks)]
            self._better[rp.id] = better
        return better

    def reversals(self, r: Profile, rp: Profile) -> int:
        """The outcomes of F(R) with a preference reversal from R to R', as a bitmask."""
        key = (r.id, rp.id)
        mask = self._reversals.get(key)
        if mask is None:
            pairs = tuple(zip(r.contour_masks, rp.contour_masks))
            mask = 0
            for x in self.outcomes[r.id]:
                for low, low_p in pairs:  # _reversal(r, rp, x) is not None, inlined
                    if low[x] & ~low_p[x]:
                        mask |= 1 << x
                        break
            self._reversals[key] = mask
        return mask

    def monotonic_triggers(self) -> Iterable[tuple[Profile, Profile, int]]:
        """(R, R', z) with z chosen at R, dropped at R' and falling for nobody.

        z falls for nobody exactly when it has no reversal from R to R'.
        Yielded by R, then R', then z in sorted-id order.
        """
        for r in self.scr.profiles:
            for rp in self.scr.profiles:
                triggers = self.chosen[r.id] & ~self.chosen[rp.id]
                if triggers:
                    triggers &= ~self.reversals(r, rp)
                yield from ((r, rp, z) for z in self.outcomes[r.id] if triggers >> z & 1)

    def certified(self, r: Profile, rp: Profile, ordering: Sequence[int]) -> list[bool]:
        """Per position of `ordering`, does its outcome have a certificate against rp?

        An outcome has one exactly when walking forward from it, through
        outcomes without a reversal that each step to their successor,
        reaches a reversal.
        """
        rev = self.reversals(r, rp)
        return _reach_back(self.better(rp), ordering, [rev >> x & 1 == 1 for x in ordering])

    def triggers(self, r: Profile) -> tuple[list[Profile], list[tuple[Profile, int]]]:
        """Profiles R' with F(R') != F(R), split once: Property M takes (R', t) when F(R') = {t}
        lies in F(R); rotation the rest, less those where all of F(R) has a reversal."""
        split = self._triggers.get(r.id)
        if split is None:
            mine, rotation, singletons = self.chosen[r.id], [], []
            for rp in self.scr.profiles:
                c = self.chosen[rp.id]
                if c == mine:
                    continue
                if c & (c - 1) or not c & mine:  # several outcomes, or one outside F(R)
                    if self.reversals(r, rp) != mine:
                        rotation.append(rp)
                else:
                    singletons.append((rp, c.bit_length() - 1))
            split = self._triggers[r.id] = (rotation, singletons)
        return split

    def rotation_failure(self, r: Profile, ordering: Sequence[int]) -> tuple[str, int] | None:
        """(R' id, stuck outcome) for the first trigger the ordering fails, or None."""
        for rp in self.triggers(r)[0]:
            reach = self.certified(r, rp, ordering)
            if False in reach:
                return rp.id, ordering[reach.index(False)]
        return None

    def property_m_failure(self, r: Profile, ordering: Sequence[int]) -> PropertyMFailure | None:
        """Property M for one profile and ordering; None when satisfied.

        Triggers are profiles R' with F(R) != F(R') whose unique choice is
        some x(k) of this ordering.  An outcome x(j) without a rotation
        certificate must instead chain forward to x(k) through R'-improving
        steps, and the lower contour of x(k) at R, together with x(k+1),
        must sit inside its lower contour at R' for every agent: x(k) has
        no reversal and nobody strictly prefers x(k+1) to it at R'.
        """
        m = len(ordering)
        for rp, t in self.triggers(r)[1]:
            k = ordering.index(t)
            reach = self.certified(r, rp, ordering)
            reach[k] = True  # x(k) itself needs neither
            if all(reach):
                continue
            better = self.better(rp)
            contour_ok = not (self.reversals(r, rp) >> t | better[t] >> ordering[(k + 1) % m]) & 1
            # chain[j]: R'-improving steps lead from x(j) to x(k)
            chain = _reach_back(better, ordering, [j == k for j in range(m)])
            for j in range(m):
                if not reach[j] and not (chain[j] and contour_ok):
                    reason = "no chain to the singleton" if not chain[j] else (
                        "lower-contour condition fails at the singleton"
                    )
                    return PropertyMFailure(r.id, rp.id, self.alts[ordering[j]], reason)
        return None

    def searched_orderings(self, r: Profile) -> Iterable[tuple[int, ...]]:
        """All circular orderings of F(r), first element fixed, lexicographic tail order."""
        outcomes = self.outcomes[r.id]
        head = outcomes[:1]
        return (head + tail for tail in itertools.permutations(outcomes[1:]))

    def shared_ordering(self, r: Profile) -> tuple[tuple[int, ...] | None, PropertyMFailure | None]:
        """(The first searched ordering passing rotation monotonicity and Property M, None),
        else (the first rotation-monotone ordering, its Property-M failure), else (None, None)."""
        first = None, None
        for ordering in self.searched_orderings(r):
            if self.rotation_failure(r, ordering) is None:
                failure = self.property_m_failure(r, ordering)
                if failure is None:
                    return ordering, None
                if first[0] is None:
                    first = ordering, failure
        return first

    def rotation_verdict(self, candidates: Callable[[Profile], Iterable]) -> RotationVerdict:
        """Per profile, the first of its `candidates` passing every rotation trigger; a profile
        where none passes is reported with the failure point of each candidate."""
        orderings: dict[str, tuple[str, ...]] = {}
        obstructions: list[RotationObstruction] = []
        for r in self.scr.profiles:
            failures = []
            for ordering in candidates(r):
                failure = self.rotation_failure(r, ordering)
                if failure is None:
                    orderings[r.id] = self.names(ordering)
                    break
                failures.append((self.names(ordering), failure[0], self.alts[failure[1]]))
            else:
                obstructions.append(RotationObstruction(r.id, tuple(failures)))
        if obstructions:
            return RotationVerdict(False, None, tuple(obstructions))
        return RotationVerdict(True, OrderingWitness(orderings))


class RotationCertificate(Record):
    """Why one ordered outcome passes against one triggering profile."""

    start: str
    chain: tuple[tuple[str, int], ...]  # (next outcome, improving agent at R') per step
    reversal_outcome: str
    reversal_agent: int
    reversal_alt: str


def rotation_certificates(
    scr: SocialChoiceRule, r: Profile, ordering: Sequence[str], rp: Profile
) -> list[RotationCertificate | None]:
    """Per ordered outcome, the shortest certificate against rp, or None."""
    tables = _Tables(scr)
    ids = tables.ids(ordering)
    m = len(ids)
    steps = [_step(rp, ids[k], ids[(k + 1) % m]) for k in range(m)]
    reversals = [_reversal(r, rp, x) for x in ids]
    certs: list[RotationCertificate | None] = []
    for i in range(m):
        cert = None
        chain: list[tuple[str, int]] = []
        for h in range(m):
            pos = (i + h) % m
            if reversals[pos] is not None:
                agent, alt = reversals[pos]
                cert = RotationCertificate(
                    ordering[i], tuple(chain), ordering[pos], agent, tables.alts[alt]
                )
                break
            if steps[pos] is None:
                break
            chain.append((ordering[(pos + 1) % m], steps[pos]))
        certs.append(cert)
    return certs


class OrderingWitness(Record):
    """Per-profile circular orderings of the chosen sets."""

    orderings: Mapping[str, tuple[str, ...]]

    def __post_init__(self):
        vars(self)["orderings"] = {pid: tuple(o) for pid, o in dict(self.orderings).items()}


def coerce_orderings(
    scr: SocialChoiceRule, orderings: "OrderingWitness | Mapping[str, Sequence[str]]"
) -> dict[str, tuple[str, ...]]:
    table = orderings.orderings if isinstance(orderings, OrderingWitness) else orderings
    out = {}
    for p in scr.profiles:
        if p.id not in table:
            raise InputError(f"missing ordering for profile {p.id!r}")
        ordering = tuple(table[p.id])
        if sorted(ordering) != sorted(scr.choice(p.id)):
            raise InputError(
                f"ordering for {p.id!r} is not a permutation of the chosen set"
            )
        out[p.id] = ordering
    return out


class RotationObstruction(Record):
    profile_id: str
    failures: tuple[tuple[tuple[str, ...], str, str], ...]  # (ordering, rp, stuck outcome)


class RotationVerdict(Verdict):
    ok: bool
    witness: OrderingWitness | None = None
    obstructions: tuple[RotationObstruction, ...] = ()


def check_rotation_monotonicity(
    scr: SocialChoiceRule, cap: int = ORDER_SEARCH_CAP
) -> RotationVerdict:
    """Search, per profile, for a circular ordering certifying every trigger.

    The search is exhaustive over the (m-1)! circular orderings of each
    chosen set; if any chosen set is larger than `cap`, the search is refused
    with CapExceeded rather than truncated.  The first passing ordering in
    lexicographic order is recorded; a profile with no passing ordering is
    reported with the failure point of every candidate.
    """
    tables = _Tables(scr, cap)
    return tables.rotation_verdict(tables.searched_orderings)


def verify_rotation_monotonicity_with(
    scr: SocialChoiceRule, orderings: "OrderingWitness | Mapping[str, Sequence[str]]"
) -> RotationVerdict:
    """Check rotation monotonicity against orderings the caller supplies, no search.

    The orderings may come from a domain's own construction (the circular
    arrangement of common-best-job problems, the alternating order of the
    partially-informed-planner rule), where the chosen sets may exceed
    any sensible search cap.
    """
    table = coerce_orderings(scr, orderings)
    tables = _Tables(scr)
    return tables.rotation_verdict(lambda r: [tables.ids(table[r.id])])


class PropertyMFailure(Record):
    profile_id: str
    other_id: str
    outcome: str
    reason: str


class PropertyMVerdict(Verdict):
    ok: bool
    failure: PropertyMFailure | None = None


def check_property_m(
    scr: SocialChoiceRule, orderings: "OrderingWitness | Mapping[str, Sequence[str]]"
) -> PropertyMVerdict:
    """Property M against supplied per-profile orderings."""
    table = coerce_orderings(scr, orderings)
    tables = _Tables(scr)
    for r in scr.profiles:
        failure = tables.property_m_failure(r, tables.ids(table[r.id]))
        if failure is not None:
            return PropertyMVerdict(False, failure)
    return PropertyMVerdict(True)


def find_shared_ordering(
    scr: SocialChoiceRule, cap: int = ORDER_SEARCH_CAP
) -> OrderingWitness | None:
    """Per-profile orderings satisfying rotation monotonicity and Property M at once.

    Both conditions constrain only the ordering of F(R) profile by
    profile, so the search decomposes; the first ordering passing both is
    kept.  Returns None when some profile admits no such ordering.
    """
    tables = _Tables(scr, cap)
    orderings: dict[str, tuple[str, ...]] = {}
    for r in scr.profiles:
        ordering, failure = tables.shared_ordering(r)
        if ordering is None or failure is not None:
            return None
        orderings[r.id] = tables.names(ordering)
    return OrderingWitness(orderings)


def _property_m_at_shared_orderings(scr: SocialChoiceRule, cap: int) -> PropertyMVerdict | None:
    """Property M at `find_shared_ordering`'s orderings, failing where that search stops, at
    the first rotation-monotone ordering there; None if some profile has none (all searched)."""
    tables = _Tables(scr, cap)
    found = [tables.shared_ordering(r) for r in scr.profiles]
    if any(ordering is None for ordering, _ in found):
        return None
    failure = next((failure for _, failure in found if failure is not None), None)
    return PropertyMVerdict(failure is None, failure)
