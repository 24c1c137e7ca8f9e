"""Job rotation problems and their extended preference machinery.

A job rotation problem assigns n jobs to n agents, each agent holding a
linear order over jobs.  Own-job preferences extend to weak orders over
the n! full allocations; the efficient rule picks the Pareto frontier of
that extension.  Two restricted families matter here: the common-best
domain, where every agent top-ranks the same job and the frontier admits
a circular arrangement never handing that job to the same agent twice in
a row, and the hat domain, where agents 1 and 2 share a top job and the
alternating serial-dictatorship rule phi is defined.
"""

from __future__ import annotations

import itertools
from typing import Sequence

from ..conditions import OrderingWitness
from ..model import CapExceeded, InputError, Profile, Record, SocialChoiceRule, pareto_frontier

EXTENSION_CAP = 6  # allocation space is n!
PHI_CAP = 5

Allocation = tuple[str, ...]


class JobRotationProblem(Record):
    """n agents, n jobs, one linear order over jobs per agent."""

    id: str
    jobs: tuple[str, ...]
    orders: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        jobs = tuple(self.jobs)
        orders = tuple(tuple(o) for o in self.orders)
        vars(self).update(jobs=jobs, orders=orders)
        if len(set(jobs)) != len(jobs):
            raise InputError("duplicate job ids", where=("jobs",))
        if any("," in j for j in jobs):
            raise InputError("job ids may not contain commas", where=("jobs",))
        if len(orders) != len(jobs):
            raise InputError("need exactly one agent per job", where=("orders",))
        if len(jobs) < 2:
            raise InputError("a job rotation problem needs at least two jobs", where=("jobs",))
        for i, order in enumerate(orders):
            if sorted(order) != sorted(jobs):
                what = f"agent {i} order is not a permutation of the jobs"
                raise InputError(what, where=("orders", i))

    @property
    def n(self) -> int:
        return len(self.jobs)

    def top(self, agent: int) -> str:
        return self.orders[agent][0]


def alloc_id(alloc: Sequence[str]) -> str:
    return ",".join(alloc)


def parse_alloc(aid: str) -> Allocation:
    return tuple(aid.split(","))


def all_allocations(jobs: Sequence[str]) -> tuple[Allocation, ...]:
    return tuple(itertools.permutations(jobs))


def extend_job_preferences(problem: JobRotationProblem) -> Profile:
    """Weak order over all allocations per agent, determined by the own job."""
    message = f"extension over {problem.n}! allocations exceeds the cap of {EXTENSION_CAP}!"
    CapExceeded.check(problem.n, EXTENSION_CAP, message)
    allocations = all_allocations(problem.jobs)
    alts = tuple(alloc_id(a) for a in allocations)
    return Profile.from_shares(problem.id, alts, allocations, problem.orders)


def pareto_efficient_allocations(extended: Profile) -> frozenset[str]:
    """The Pareto frontier of an extended job profile, as allocation ids."""
    return pareto_frontier(extended)


def efficient_scr(problems: Sequence[JobRotationProblem]) -> SocialChoiceRule:
    """The efficient rule over a finite domain of job rotation problems."""
    _check_nonempty(problems)
    profiles = tuple(extend_job_preferences(p) for p in problems)
    choices = {prof.id: pareto_frontier(prof) for prof in profiles}
    return SocialChoiceRule(profiles, choices)


def _check_nonempty(problems: Sequence[JobRotationProblem]) -> None:
    """Repeats the SCR's empty-domain refusal for its own message; the SCR checks the rest."""
    if not problems:
        raise InputError("need at least one job rotation problem", where=("profiles",))


def common_best_job(problem: JobRotationProblem) -> str | None:
    tops = {problem.top(i) for i in range(problem.n)}
    return next(iter(tops)) if len(tops) == 1 else None


def reverse_preferences(problem: JobRotationProblem) -> JobRotationProblem:
    """Flip every agent's order: preprocesses a common-worst-job problem into
    a common-best-job one, which the arrangement machinery handles."""
    return JobRotationProblem(
        problem.id, problem.jobs, tuple(tuple(reversed(o)) for o in problem.orders)
    )


def top_job_groups(problem: JobRotationProblem) -> dict[int, tuple[str, ...]]:
    """Efficient allocations grouped by who receives the common best job."""
    return _frontier_groups(problem)[2]


def _frontier_groups(
    problem: JobRotationProblem,
) -> tuple[str, frozenset[str], dict[int, tuple[str, ...]]]:
    """The common best job, the Pareto frontier, and `top_job_groups`."""
    j_star = common_best_job(problem)
    if j_star is None:
        raise InputError("agents do not share a best job")
    frontier = pareto_frontier(extend_job_preferences(problem))
    groups: dict[int, list[str]] = {i: [] for i in range(problem.n)}
    for alloc in all_allocations(problem.jobs):
        aid = alloc_id(alloc)
        if aid in frontier:
            groups[alloc.index(j_star)].append(aid)
    return j_star, frontier, {i: tuple(g) for i, g in groups.items()}


def second_best_swap(problem: JobRotationProblem, alloc: Allocation) -> Allocation:
    """Swap the common-best job from its holder to whoever holds the holder's
    second-best job; everyone else keeps their job."""
    j_star = common_best_job(problem)
    if j_star is None:
        raise InputError("agents do not share a best job")
    holder = alloc.index(j_star)
    second = problem.orders[holder][1]
    out = list(alloc)
    out[holder] = second
    out[alloc.index(second)] = j_star
    return tuple(out)


def circular_arrangement(problem: JobRotationProblem) -> tuple[str, ...]:
    """Order the Pareto frontier so cyclically consecutive allocations hand
    the common best job to different agents.

    Follows the greedy multi-step listing: with holder groups sorted by
    size, a first pass interleaves the dominant group's surplus with the
    tail groups, then repeated passes append one allocation from each
    still-active group until everything is placed.
    """
    j_star, frontier, groups = _frontier_groups(problem)
    entries = sorted(
        ((agent, list(g)) for agent, g in groups.items() if g),
        key=lambda e: (-len(e[1]), e[0]),
    )
    if not entries:
        raise InputError("empty Pareto frontier")
    pools = [items for _, items in entries]

    arrangement: list[str] = []
    active = len(pools)
    surplus = len(pools[0]) - (len(pools[1]) if len(pools) > 1 else 0)
    if surplus > 0:
        suffix = [0] * (len(pools) + 1)
        for i in range(len(pools) - 1, -1, -1):
            suffix[i] = suffix[i + 1] + len(pools[i])
        h = next(
            (i for i in range(len(pools) - 1, 1, -1) if suffix[i] >= surplus), None
        )
        if h is None:
            raise InputError("dominant holder too large for a circular arrangement")
        lead = [pools[0].pop(0) for _ in range(surplus)]
        fillers = [pools[h].pop(0) for _ in range(surplus - suffix[h + 1])]
        for idx in range(h + 1, len(pools)):
            fillers.extend(pools[idx])
            pools[idx] = []
        arrangement.extend(x for pair in zip(lead, fillers) for x in pair)
        active = h + 1

    while pools[0]:
        if active < 2:
            raise InputError("no circular arrangement exists for these holder counts")
        rounds = len(pools[active - 1])
        for _ in range(rounds):
            for idx in range(active):
                arrangement.append(pools[idx].pop(0))
        active -= 1

    _validate_arrangement(arrangement, j_star, frontier)
    return tuple(arrangement)


def _validate_arrangement(arrangement: Sequence[str], j_star: str, frontier: frozenset) -> None:
    if sorted(arrangement) != sorted(frontier):
        raise RuntimeError("arrangement is not a permutation of the Pareto frontier")
    if len(arrangement) < 2:
        raise InputError("the common-best frontier always has at least two allocations")
    holders = [parse_alloc(a).index(j_star) for a in arrangement]
    for k in range(len(holders)):
        if holders[k] == holders[(k + 1) % len(holders)]:
            raise RuntimeError("consecutive allocations hand the best job to one agent")


def arrangement_orderings(problems: Sequence[JobRotationProblem]) -> OrderingWitness:
    return OrderingWitness({p.id: circular_arrangement(p) for p in problems})


def build_phi(problem: JobRotationProblem) -> tuple[str, ...]:
    """The ordered outcome set of the partially-informed-planner rule.

    Agents 1 and 2 (indices 0 and 1) must share their top job.  Each
    Pareto-efficient assignment of the remaining jobs to the remaining
    agents contributes a pair: the top job to agent 1 with the leftover
    to agent 2, immediately followed by the 1<->2 swap.  Odd positions
    hand the shared top to agent 1, even positions to agent 2.
    """
    message = f"phi over {problem.n} agents exceeds the cap of {PHI_CAP}"
    CapExceeded.check(problem.n, PHI_CAP, message)
    tau = problem.top(0)
    if tau != problem.top(1):
        raise InputError("agents 1 and 2 do not share a top job")
    rest = [j for j in problem.jobs if j != tau]
    efficient = list(itertools.permutations(rest, problem.n - 2))
    if problem.n > 2:  # the Pareto frontier of agents 3..n over their own jobs
        ids = [alloc_id(sigma) for sigma in efficient]
        own = Profile.from_shares(problem.id, ids, efficient, problem.orders[2:])
        frontier = pareto_frontier(own)
        efficient = [sigma for sigma, sid in zip(efficient, ids) if sid in frontier]
    ordered: list[str] = []
    for sigma in efficient:
        leftover = next(j for j in rest if j not in sigma)
        first = (tau, leftover) + sigma
        ordered.append(alloc_id(first))
        ordered.append(alloc_id((leftover, tau) + sigma))
    if len(set(ordered)) != len(ordered):
        raise RuntimeError("phi produced colliding allocations")
    return tuple(ordered)


def phi_scr(problems: Sequence[JobRotationProblem]) -> SocialChoiceRule:
    _check_nonempty(problems)
    profiles = tuple(extend_job_preferences(p) for p in problems)
    choices = {p.id: frozenset(build_phi(p)) for p in problems}
    return SocialChoiceRule(profiles, choices)


def phi_orderings(problems: Sequence[JobRotationProblem]) -> OrderingWitness:
    return OrderingWitness({p.id: build_phi(p) for p in problems})
