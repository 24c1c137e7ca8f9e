"""Seeded random profiles, SCRs and environments for the property suites.

Each takes an explicit random.Random so that test runs are reproducible
from a single seed.  Generated SCRs always choose inside the Pareto
frontier of linear profiles, so efficiency holds by construction;
stronger conditions are obtained by rejection against the checkers at
the call site.
"""

from __future__ import annotations

import itertools
import random
from typing import Sequence

from rotakit.model import InputError, Profile, SocialChoiceRule, pareto_frontier
from rotakit.rights import BASE, Coalition, RightsStructure, SocialEnvironment, State


def random_linear_profile(
    rng: random.Random, pid: str, alternatives: Sequence[str], n_agents: int
) -> Profile:
    orders = []
    for _ in range(n_agents):
        order = list(alternatives)
        rng.shuffle(order)
        orders.append(order)
    return Profile.from_orders(pid, tuple(alternatives), orders)


def random_weak_profile(
    rng: random.Random, pid: str, alternatives: Sequence[str], n_agents: int
) -> Profile:
    """Random weak orders; ties allowed, no domain restriction enforced."""
    rows = []
    for _ in range(n_agents):
        rows.append(tuple(rng.randrange(len(alternatives)) for _ in alternatives))
    return Profile.from_ranks(pid, tuple(alternatives), rows)


def random_scr(
    rng: random.Random,
    n_alternatives: int = 3,
    n_agents: int = 3,
    n_profiles: int = 2,
    multi_valued: bool = False,
) -> SocialChoiceRule:
    """Random efficient SCR: nonempty subsets of each profile's Pareto frontier.

    With `multi_valued`, every chosen set has at least two outcomes
    (profiles whose frontier is a singleton are redrawn).  That needs two
    agents and two alternatives: with fewer, every linear profile has a
    one-outcome frontier, so such a request raises InputError up front.
    """
    if multi_valued and (n_agents < 2 or n_alternatives < 2):
        raise InputError(
            f"a multi-valued SCR needs at least 2 agents and 2 alternatives, "
            f"got {n_agents} and {n_alternatives}"
        )
    alternatives = tuple(f"a{i}" for i in range(n_alternatives))
    profiles = []
    choices = {}
    for k in range(n_profiles):
        while True:
            prof = random_linear_profile(rng, f"R{k}", alternatives, n_agents)
            frontier = sorted(pareto_frontier(prof))
            low = 2 if multi_valued else 1
            if len(frontier) < low:
                continue
            size = rng.randint(low, len(frontier))
            chosen = frozenset(rng.sample(frontier, size))
            profiles.append(prof)
            choices[prof.id] = chosen
            break
    return SocialChoiceRule(tuple(profiles), choices)


def random_environment(
    rng: random.Random,
    n_states: int = 6,
    n_agents: int = 3,
    n_alternatives: int | None = None,
    density: float = 0.35,
    weak: bool = False,
) -> SocialEnvironment:
    """Random finite environment: arbitrary outcome labels, sparse gamma."""
    n_alts = n_alternatives if n_alternatives is not None else max(2, n_states - 1)
    alternatives = tuple(f"z{i}" for i in range(n_alts))
    states = tuple(
        State(f"s{i}", rng.choice(alternatives), BASE) for i in range(n_states)
    )
    coalitions = [
        frozenset(c)
        for size in range(1, n_agents + 1)
        for c in itertools.combinations(range(n_agents), size)
    ]
    gamma: dict[tuple[str, str], frozenset[Coalition]] = {}
    for a in states:
        for b in states:
            if a.key == b.key or rng.random() > density:
                continue
            fam = frozenset(rng.sample(coalitions, rng.randint(1, min(2, len(coalitions)))))
            gamma[(a.key, b.key)] = fam
    rights = RightsStructure(states, gamma)
    maker = random_weak_profile if weak else random_linear_profile
    profile = maker(rng, "R", alternatives, n_agents)
    return SocialEnvironment(rights, profile)
