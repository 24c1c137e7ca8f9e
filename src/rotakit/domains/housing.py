"""Housing exchange economies with coalitional endowment systems.

Each house carries a minimal controlling coalition; a coalition's
endowment is every house whose controllers it contains.  That
representation makes agency, monotonicity, and non-contestability hold
by construction, leaving only exhaustivity to validate.  A coalition
may move the economy between two allocations whenever every outsider
strictly harmed by the move currently occupies a house the coalition
owns; adding the requirement that every member strictly gains yields
direct exclusion blocking, whose unblocked allocations form the direct
exclusion core.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Mapping, Sequence

from ..model import CapExceeded, InputError, Profile, Record, SocialChoiceRule, bit_keys, split_bits
from ..rights import BASE, Coalition, RightsStructure, SocialEnvironment, State, coalition
from .jobs import alloc_id

ECONOMY_CAP = 4  # agents and houses; the allocation space is enumerated

Assignment = tuple[str, ...]  # per agent: a house or the outside option


class Economy(Record):
    id: str
    n_agents: int
    houses: tuple[str, ...]
    outside: str
    owners: Mapping[str, Coalition]
    orders: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        houses = tuple(self.houses)
        orders = tuple(tuple(o) for o in self.orders)
        owners = {h: coalition(k, ("owners", h)) for h, k in dict(self.owners).items()}
        vars(self).update(houses=houses, orders=orders, owners=owners)
        if len(set(houses)) != len(houses):
            raise InputError("duplicate house ids", where=("houses",))
        if self.outside in houses:
            raise InputError("the outside option must not be a house", where=("outside",))
        if any("," in h for h in houses + (self.outside,)):
            where = ("outside",) if "," in self.outside else ("houses",)
            raise InputError("house ids may not contain commas", where=where)
        if set(self.owners) != set(houses):
            raise InputError("every house needs a minimal controlling coalition", where=("owners",))
        for h, k in self.owners.items():
            if max(k) >= self.n_agents:
                what = f"owner coalition of {h!r} mentions an unknown agent"
                raise InputError(what, where=("owners", h))
        if len(orders) != self.n_agents:
            raise InputError("need one preference order per agent", where=("orders",))
        menu = sorted(houses + (self.outside,))
        for i, order in enumerate(orders):
            if sorted(order) != menu:
                what = f"agent {i} order is not a permutation of houses+outside"
                raise InputError(what, where=("orders", i))

    def house_rank(self, agent: int, h: str) -> int:
        try:
            return self.orders[agent].index(h)
        except ValueError:
            raise InputError(f"unknown house {h!r}") from None

    def prefers(self, agent: int, a: str, b: str) -> bool:
        return self.house_rank(agent, a) < self.house_rank(agent, b)


def endowment(economy: Economy, members: Iterable[int]) -> frozenset[str]:
    """Houses whose minimal controlling coalition lies inside `members`."""
    ms = frozenset(members)
    return frozenset(h for h, k in economy.owners.items() if k <= ms)


def house_allocations(economy: Economy) -> tuple[Assignment, ...]:
    """All assignments of agents to houses or the outside option, houses unique."""
    message = f"economies beyond {ECONOMY_CAP} agents/houses are refused"
    CapExceeded.check(max(economy.n_agents, len(economy.houses)), ECONOMY_CAP, message)
    menu = economy.houses + (economy.outside,)
    return tuple(
        a
        for a in itertools.product(menu, repeat=economy.n_agents)
        if all(a.count(h) < 2 for h in economy.houses)
    )


def allocation_profile(economy: Economy) -> Profile:
    """Extended weak order over allocations, determined by the own assignment."""
    allocations = house_allocations(economy)
    alts = tuple(alloc_id(a) for a in allocations)
    return Profile.from_shares(economy.id, alts, allocations, economy.orders)


def _entitled(economy: Economy, mu: Assignment, sigma: Assignment, members: Coalition) -> bool:
    """Clause (b): every outsider strictly harmed by mu -> sigma loses a house
    the coalition owns."""
    owned = endowment(economy, members)
    for j in range(economy.n_agents):
        if j in members:
            continue
        if economy.prefers(j, mu[j], sigma[j]) and mu[j] not in owned:
            return False
    return True


def can_exclusion_block(
    economy: Economy, mu: Assignment, members: Iterable[int], sigma: Assignment
) -> bool:
    """Direct exclusion blocking of mu with sigma: every member strictly gains
    and every harmed outsider can be excluded."""
    k = coalition(members)
    if not all(economy.prefers(i, sigma[i], mu[i]) for i in k):
        return False
    return _entitled(economy, mu, sigma, k)


class _Kernel:
    """An economy compiled for the definition scans.

    Allocations become rows of per-agent house ranks and coalitions become
    bitmasks (bit i is agent i).  `covered[m][mask]` holds the agents whose
    house in allocation m is owned by the coalition `mask`, so clause (b)
    for a move harming the agents `harmed` reads
    `harmed & ~(mask | covered[m][mask]) == 0`.  `worse[i][r]` and
    `better[i][r]` are the bitsets of the allocations that give agent i a
    house ranked below, and above, rank r.
    """

    def __init__(self, economy: Economy):
        n = economy.n_agents
        allocations = house_allocations(economy)
        self.ids = tuple(alloc_id(a) for a in allocations)
        rank = [{h: r for r, h in enumerate(order)} for order in economy.orders]
        self.rows = rows = tuple(tuple(rank[i][a[i]] for i in range(n)) for a in allocations)
        self.bits = tuple(1 << i for i in range(n))
        self.coalitions = tuple(
            (frozenset(c), sum(1 << i for i in c))
            for size in range(1, n + 1)
            for c in itertools.combinations(range(n), size)
        )
        owner_mask = {h: sum(1 << i for i in k) for h, k in economy.owners.items()}
        covered = []
        for a in allocations:
            held = [(1 << j, owner_mask[h]) for j, h in enumerate(a) if h in owner_mask]
            covered.append(
                tuple(
                    sum(bit for bit, owners in held if owners & ~mask == 0)
                    for mask in range(1 << n)
                )
            )
        self.covered = tuple(covered)
        ranks = range(len(economy.houses) + 1)
        self.worse, self.better = (
            [
                [sum(1 << s for s, x in enumerate(rows) if cmp(x[i], r)) for r in ranks]
                for i in range(n)
            ]
            for cmp in (int.__gt__, int.__lt__)
        )

    def split(self, m: int, sets: list[list[int]]) -> dict[int, int]:
        """The allocations other than m split by `sets[i]` at each agent i's rank in m."""
        others = (1 << len(self.ids)) - 1 & ~(1 << m)
        return split_bits(others, [by_rank[r] for by_rank, r in zip(sets, self.rows[m])])


def direct_exclusion_core(economy: Economy) -> tuple[str, ...]:
    """Allocations no coalition can directly exclusion block.

    Clause (b) only gets easier as a coalition grows (fewer outsiders, a
    larger endowment), so some coalition of gainers blocks mu with sigma
    exactly when the set of all gainers does: when sigma harms no agent
    outside the gainers and the agents whose houses they own.
    """
    kernel = _Kernel(economy)
    core = []
    for m, (covered, row) in enumerate(zip(kernel.covered, kernel.rows)):
        for gains, found in kernel.split(m, kernel.better).items():
            excluded = gains | covered[gains]
            for bit, by_rank, r in zip(kernel.bits, kernel.worse, row):
                if not excluded & bit:
                    found &= ~by_rank[r]
            if gains and found:
                break
        else:
            core.append(kernel.ids[m])
    return tuple(core)


def exclusion_rights_structure(economy: Economy) -> RightsStructure:
    """States are all allocations; gamma grants a coalition a move exactly
    when clause (b) holds, so the improvement digraph's strict-gain
    requirement completes direct exclusion blocking."""
    kernel = _Kernel(economy)
    ids = kernel.ids
    families: dict[frozenset[Coalition], frozenset[Coalition]] = {}  # checked once per object

    def groups() -> Iterator[tuple]:
        for m, covered in enumerate(kernel.covered):
            # a family depends on mu only through the harmed agents: one group per family
            merged: dict[frozenset, int] = {}
            for harmed, found in kernel.split(m, kernel.worse).items():
                fam = frozenset(
                    k for k, mask in kernel.coalitions if harmed & ~(mask | covered[mask]) == 0
                )
                fam = families.setdefault(fam, fam)
                merged[fam] = merged.get(fam, 0) | found
            for fam, found in merged.items():
                yield ids[m], bit_keys(found, ids), fam, None

    return RightsStructure._build((State(a, a, BASE) for a in ids), groups())


def exclusion_environment(economy: Economy) -> SocialEnvironment:
    return SocialEnvironment(exclusion_rights_structure(economy), allocation_profile(economy))


def exclusion_core_scr(economies: Sequence[Economy]) -> SocialChoiceRule:
    """The direct-exclusion-core rule over a finite domain of economies.

    The SCR refuses repeated ids and differing allocations but cannot see
    owners; its empty-domain refusal is repeated here for this message."""
    if not economies:
        raise InputError("need at least one economy", where=("profiles",))
    if any(e.owners != economies[0].owners for e in economies[1:]):
        raise InputError("domain economies disagree on ownership")
    profiles = tuple(allocation_profile(e) for e in economies)
    choices = {e.id: frozenset(direct_exclusion_core(e)) for e in economies}
    return SocialChoiceRule(profiles, choices)
