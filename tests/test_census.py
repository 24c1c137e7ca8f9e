"""An exhaustive census of the paper's characterization on the smallest domain
where it bites: every efficient SCR over 3 alternatives, 2 agents and 2
distinct strict profiles, one per class of relabellings of the agents,
the alternatives and the profiles.

For each class it asserts the three relations between the conditions and
the constructions:
- on multi-valued SCRs, rotation monotonicity holds exactly when the
  Theorem-4 construct verifies in rotation programs;
- when a shared ordering exists, the Theorem-4 structure built on it
  verifies in rotation programs;
- indirect monotonicity holds exactly when the Theorem-1 structure
  implements the SCR in the MSS.
"""

import itertools
import time

from rotakit.conditions import (
    check_indirect_monotonicity,
    check_rotation_monotonicity,
    find_shared_ordering,
)
from rotakit.constructors import (
    build_thm1_structure,
    build_thm4_structure,
    verify_implementation_in_mss,
    verify_implementation_in_rotation_programs,
)
from rotakit.model import Profile, SocialChoiceRule, pareto_frontier

ALTS = ("a", "b", "c")
BUDGET_S = 10.0  # the census takes about 1.2 s on a 2-vCPU guest


def _profiles():
    """Every strict 2-agent profile, each with its nonempty efficient choice sets."""
    for orders in itertools.product(itertools.permutations(ALTS), repeat=2):
        frontier = sorted(pareto_frontier(Profile.from_orders("R", ALTS, orders)))
        for size in range(1, len(frontier) + 1):
            for chosen in itertools.combinations(frontier, size):
                yield orders, chosen


def _canonical(items) -> tuple:
    """Least relabelling of an SCR given as two (orders, chosen) items."""
    best = None
    for perm in itertools.permutations(ALTS):
        rename = dict(zip(ALTS, perm))
        for agents in ((0, 1), (1, 0)):
            key = tuple(
                sorted(
                    (
                        tuple(tuple(rename[a] for a in orders[i]) for i in agents),
                        tuple(sorted(rename[a] for a in chosen)),
                    )
                    for orders, chosen in items
                )
            )
            best = key if best is None or key < best else best
    return best


def _census() -> dict[tuple, int]:
    """Class representative -> number of SCRs in the class."""
    items = list(_profiles())
    classes: dict[tuple, int] = {}
    for first, second in itertools.combinations(items, 2):
        if first[0] != second[0]:  # two distinct profiles
            key = _canonical((first, second))
            classes[key] = classes.get(key, 0) + 1
    return classes


def _scr(key) -> SocialChoiceRule:
    profiles = tuple(Profile.from_orders(f"R{k}", ALTS, o) for k, (o, _) in enumerate(key))
    return SocialChoiceRule(profiles, {f"R{k}": set(c) for k, (_, c) in enumerate(key)})


def test_census_of_efficient_rules_on_three_alternatives_two_agents_two_profiles():
    start = time.perf_counter()
    classes = _census()
    tally = dict.fromkeys(("scrs", "multi-valued", "shared", "indirect"), 0)
    mismatches = []
    for key, weight in classes.items():
        scr = _scr(key)
        multi = all(len(scr.choice(p.id)) > 1 for p in scr.profiles)
        shared = find_shared_ordering(scr)
        thm4 = shared is not None and (
            verify_implementation_in_rotation_programs(build_thm4_structure(scr, shared), scr).ok
        )
        indirect = check_indirect_monotonicity(scr).ok
        thm1 = verify_implementation_in_mss(build_thm1_structure(scr), scr).ok
        if multi and check_rotation_monotonicity(scr).ok != thm4:
            mismatches.append(("rotation monotone <=> Theorem-4 verifies", key))
        if shared is not None and not thm4:
            mismatches.append(("shared ordering => Theorem-4 verifies", key))
        if indirect != thm1:
            mismatches.append(("indirect monotone <=> Theorem-1 verifies", key))
        tally["scrs"] += weight
        tally["multi-valued"] += weight * multi
        tally["shared"] += weight * (shared is not None)
        tally["indirect"] += weight * indirect
    elapsed = time.perf_counter() - start
    assert mismatches == []
    # every SCR of the domain is counted once, in exactly one class
    assert tally == {"scrs": 5598, "multi-valued": 825, "shared": 4806, "indirect": 5136}
    assert len(classes) == 506, len(classes)
    assert elapsed < BUDGET_S, f"census took {elapsed:.1f} s"
