"""Seeded random domain problems: the `--sample` domains and the property suites.

All functions take an explicit random.Random so that runs are
reproducible from a single seed.
"""

from __future__ import annotations

import math
import random
from operator import attrgetter
from typing import Callable, Iterable

from .domains.housing import Economy
from .domains.jobs import JobRotationProblem
from .domains.marriage import MarriageProblem


def random_job_problem(
    rng: random.Random, pid: str, n: int, common_best: str | None = None
) -> JobRotationProblem:
    jobs = tuple(f"j{i + 1}" for i in range(n))
    orders = []
    for _ in range(n):
        rest = [j for j in jobs if j != common_best]
        rng.shuffle(rest)
        order = ([common_best] if common_best else []) + rest
        orders.append(tuple(order))
    return JobRotationProblem(pid, jobs, tuple(orders))


def _distinct(request: int, factors: Iterable[int], draw: Callable, key=attrgetter("orders")):
    """Draws `draw(k)`, k the number kept so far, with distinct `key`s (by default the
    preference orders): `request` of them, or all the product of `factors` that a domain
    has, a product multiplied only while below the request."""
    count = 1
    for f in factors:
        if count >= request:
            break
        count *= f
    kept, seen = [], set()
    while len(kept) < min(request, count):
        if (k := key(new := draw(len(kept)))) not in seen:
            seen.add(k)
            kept.append(new)
    return kept


def random_common_best_domain(
    rng: random.Random, n: int, n_profiles: int = 2
) -> list[JobRotationProblem]:
    """Distinct job profiles all top-ranking j1.

    Only ((n-1)!)^n distinct profiles exist on this domain (one for n=2);
    the request is clamped to that.
    """
    return _distinct(
        n_profiles, [math.factorial(n - 1)] * n, lambda k: random_job_problem(rng, f"P{k}", n, "j1")
    )


def random_hat_domain(
    rng: random.Random, n: int, n_profiles: int = 2
) -> list[JobRotationProblem]:
    """Distinct job profiles where agents 1 and 2 share a (varying) top job.

    Only n * ((n-1)!)^2 * (n!)^(n-2) distinct profiles exist on this domain
    (two for n=2); the request is clamped to that.
    """
    tops = math.factorial(n - 1)
    jobs = tuple(f"j{i + 1}" for i in range(n))

    def draw(k: int) -> JobRotationProblem:
        tau = rng.choice(jobs)
        orders = []
        for agent in range(n):
            if agent < 2:
                rest = [j for j in jobs if j != tau]
                rng.shuffle(rest)
                orders.append(tuple([tau] + rest))
            else:
                order = list(jobs)
                rng.shuffle(order)
                orders.append(tuple(order))
        return JobRotationProblem(f"P{k}", jobs, tuple(orders))

    return _distinct(n_profiles, [n, tops, tops] + [math.factorial(n)] * (n - 2), draw)


def random_marriage_problem(
    rng: random.Random, pid: str, n_men: int, n_women: int, pure: bool = False
) -> MarriageProblem:
    men = tuple(f"m{i + 1}" for i in range(n_men))
    women = tuple(f"w{i + 1}" for i in range(n_women))
    men_prefs = {}
    for m in men:
        lst = list(women) if pure else list(women) + [m]
        rng.shuffle(lst)
        men_prefs[m] = tuple(lst)
    women_prefs = {}
    for w in women:
        lst = list(men) if pure else list(men) + [w]
        rng.shuffle(lst)
        women_prefs[w] = tuple(lst)
    return MarriageProblem(pid, men, women, men_prefs, women_prefs, pure)


def random_marriage_domain(rng: random.Random, n: int, n_profiles: int = 2) -> list:
    """Distinct n x n marriage profiles, in which everyone may also stay single; only
    ((n+1)!)^(2n) exist, and the request is clamped to that."""
    return _distinct(
        n_profiles,
        [math.factorial(n + 1)] * (2 * n),
        lambda k: random_marriage_problem(rng, f"R{k}", n, n),
        lambda m: (*sorted(m.men_prefs.items()), *sorted(m.women_prefs.items())),
    )


def random_economy(rng: random.Random, eid: str, n: int = 3) -> Economy:
    """Random endowment economy; the outside option is everyone's last choice."""
    houses = tuple(f"h{i + 1}" for i in range(n))
    owners = {}
    for h in houses:
        size = rng.randint(1, min(2, n))
        owners[h] = frozenset(rng.sample(range(n), size))
    orders = []
    for _ in range(n):
        order = list(houses)
        rng.shuffle(order)
        orders.append(tuple(order + ["h0"]))
    return Economy(eid, n, houses, "h0", owners, tuple(orders))


def random_economy_domain(rng: random.Random, n: int, n_profiles: int = 2) -> list[Economy]:
    """Economies on the first draw's market with distinct preference orders; only (n!)^n
    exist (the outside option is always last), and the request is clamped to that."""
    first = random_economy(rng, "R0", n)

    def draw(k: int) -> Economy:
        e = random_economy(rng, f"R{k}", n) if k else first
        return Economy(e.id, n, first.houses, first.outside, first.owners, e.orders)

    return _distinct(n_profiles, [math.factorial(n)] * n, draw)
