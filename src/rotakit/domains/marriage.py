"""Marriage markets: deferred acceptance, stability, and matching rules.

Supports the standard model, where anyone may stay single and preference
lists run over the opposite side plus oneself, and the pure model, where
sides have equal size, singles are forbidden, and lists cover exactly
the opposite side.  Matchings extend to weak orders over the matching
space through each agent's own partner, giving the optimal-stable-pair
rule F(R) = {man-optimal, woman-optimal} and the all-stable-matchings
rule as social choice rules.
"""

from __future__ import annotations

import itertools
from typing import Mapping, Sequence

from ..conditions import OrderingWitness
from ..model import CapExceeded, InputError, Profile, Record, SocialChoiceRule, Verdict

MATCHING_CAP = 5  # per side; matching spaces are enumerated brute force


class MarriageProblem(Record):
    id: str
    men: tuple[str, ...]
    women: tuple[str, ...]
    men_prefs: Mapping[str, tuple[str, ...]]
    women_prefs: Mapping[str, tuple[str, ...]]
    pure: bool = False

    def __post_init__(self):
        men = tuple(self.men)
        women = tuple(self.women)
        men_prefs = {m: tuple(v) for m, v in dict(self.men_prefs).items()}
        women_prefs = {w: tuple(v) for w, v in dict(self.women_prefs).items()}
        vars(self).update(men=men, women=women, men_prefs=men_prefs, women_prefs=women_prefs)
        if not men or not women:
            raise InputError("both sides must be nonempty", where=("women",) if men else ("men",))
        names = men + women
        if len(set(names)) != len(names):
            where = ("women",) if len(set(men)) == len(men) else ("men",)
            raise InputError("agent names must be unique across sides", where=where)
        if any(":" in a or "," in a for a in names):
            where = ("women",) if any(":" in a or "," in a for a in women) else ("men",)
            raise InputError("agent names may not contain ':' or ','", where=where)
        if self.pure and len(men) != len(women):
            raise InputError("the pure model needs equally sized sides", where=("pure",))
        for m in men:
            expected = sorted(women) if self.pure else sorted(women + (m,))
            if sorted(self.men_prefs.get(m, ())) != expected:
                raise InputError(f"bad preference list for {m!r}", where=("men_prefs", m))
        for w in women:
            expected = sorted(men) if self.pure else sorted(men + (w,))
            if sorted(self.women_prefs.get(w, ())) != expected:
                raise InputError(f"bad preference list for {w!r}", where=("women_prefs", w))

    @property
    def agents(self) -> tuple[str, ...]:
        return self.men + self.women

    def pref_list(self, agent: str) -> tuple[str, ...]:
        if agent in self.men_prefs:
            return self.men_prefs[agent]
        if agent in self.women_prefs:
            return self.women_prefs[agent]
        raise InputError(f"unknown agent {agent!r}")

    def prefers(self, agent: str, a: str, b: str) -> bool:
        lst = self.pref_list(agent)
        return lst.index(a) < lst.index(b)


class Matching(Record):
    """An involutive pairing of every agent; singles are matched to themselves."""

    pairing: tuple[tuple[str, str], ...]

    def __post_init__(self):
        pairing = tuple(sorted((a, b) for a, b in self.pairing))
        vars(self)["pairing"] = pairing
        table = dict(pairing)
        if len(table) != len(pairing):
            raise InputError("an agent appears twice in the pairing")
        for a, b in table.items():
            if table.get(b) != a:
                raise InputError(f"pairing is not involutive at {a!r}")
        vars(self)["_map"] = table  # not a field: out of eq, hash and repr

    @classmethod
    def from_man_map(
        cls, problem: MarriageProblem, man_to_partner: Mapping[str, str]
    ) -> "Matching":
        pairs: dict[str, str] = {}
        for m in problem.men:
            partner = man_to_partner.get(m, m)
            pairs[m] = partner
            if partner != m:
                pairs[partner] = m
        for w in problem.women:
            pairs.setdefault(w, w)
        return cls(tuple(pairs.items()))

    def partner(self, agent: str) -> str:
        try:
            return self._map[agent]
        except KeyError:
            raise InputError(f"unknown agent {agent!r}") from None


def matching_id(matching: Matching, problem: MarriageProblem) -> str:
    return ",".join(f"{m}:{matching.partner(m)}" for m in problem.men)


def all_matchings(problem: MarriageProblem) -> tuple[Matching, ...]:
    """Every matching of the problem, deterministically ordered by id."""
    message = f"matching enumeration beyond {MATCHING_CAP} per side is refused"
    CapExceeded.check(max(len(problem.men), len(problem.women)), MATCHING_CAP, message)
    found = []
    if problem.pure:
        for perm in itertools.permutations(problem.women):
            found.append(Matching.from_man_map(problem, dict(zip(problem.men, perm))))
    else:
        men, women = problem.men, problem.women
        for k in range(min(len(men), len(women)) + 1):
            for ms in itertools.combinations(men, k):
                for ws in itertools.permutations(women, k):
                    found.append(Matching.from_man_map(problem, dict(zip(ms, ws))))
    found.sort(key=lambda mu: matching_id(mu, problem))
    return tuple(found)


def deferred_acceptance(problem: MarriageProblem, proposing: str = "men") -> Matching:
    """Gale-Shapley; returns the proposing side's optimal stable matching."""
    if proposing == "men":
        proposers, receivers = problem.men, problem.women
    elif proposing == "women":
        proposers, receivers = problem.women, problem.men
    else:
        raise InputError("proposing side must be 'men' or 'women'")

    def acceptable(agent: str, candidate: str) -> bool:
        if problem.pure:
            return True
        lst = problem.pref_list(agent)
        return lst.index(candidate) < lst.index(agent)

    next_choice = {p: 0 for p in proposers}
    engaged_to: dict[str, str] = {}
    free = list(proposers)
    while free:
        p = free.pop(0)
        lst = [c for c in problem.pref_list(p) if c != p]
        while next_choice[p] < len(lst):
            r = lst[next_choice[p]]
            next_choice[p] += 1
            if not acceptable(p, r):
                break  # everyone below self is unacceptable too
            current = engaged_to.get(r)
            if not acceptable(r, p):
                continue
            if current is None:
                engaged_to[r] = p
                break
            if problem.prefers(r, p, current):
                engaged_to[r] = p
                free.append(current)
                break
        # exhausted list: p stays single
    if proposing == "men":
        return Matching.from_man_map(problem, {m: r for r, m in engaged_to.items()})
    return Matching.from_man_map(problem, engaged_to)


class StabilityVerdict(Verdict):
    ok: bool
    blocking_pair: tuple[str, str] | None = None
    ir_violator: str | None = None


def is_stable(matching: Matching, problem: MarriageProblem) -> StabilityVerdict:
    """Individually rational and free of blocking pairs."""
    if not problem.pure:
        for a in problem.agents:
            partner = matching.partner(a)
            if partner != a and problem.prefers(a, a, partner):
                return StabilityVerdict(False, ir_violator=a)
    for m in problem.men:
        for w in problem.women:
            if matching.partner(m) == w:
                continue
            if problem.prefers(m, w, matching.partner(m)) and problem.prefers(
                w, m, matching.partner(w)
            ):
                return StabilityVerdict(False, blocking_pair=(m, w))
    return StabilityVerdict(True)


def enumerate_stable_matchings(problem: MarriageProblem) -> tuple[Matching, ...]:
    return tuple(mu for mu in all_matchings(problem) if is_stable(mu, problem))


def matching_profile(problem: MarriageProblem) -> Profile:
    """Extended weak order over all matchings; agents are men then women."""
    matchings = all_matchings(problem)
    alts = tuple(matching_id(mu, problem) for mu in matchings)
    agents = problem.agents
    partners = tuple(tuple(mu.partner(a) for a in agents) for mu in matchings)
    orders = tuple(problem.pref_list(a) for a in agents)
    return Profile.from_shares(problem.id, alts, partners, orders)


def _check_nonempty(problems: Sequence[MarriageProblem]) -> None:
    """Repeats the SCR's empty-domain refusal for its own message; the SCR checks the rest."""
    if not problems:
        raise InputError("need at least one marriage problem", where=("profiles",))


def marriage_optimal_scr(problems: Sequence[MarriageProblem]) -> SocialChoiceRule:
    """F(R) = {man-optimal, woman-optimal} stable matchings per profile."""
    _check_nonempty(problems)
    profiles = tuple(matching_profile(p) for p in problems)
    choices = {}
    for p in problems:
        mu_m = deferred_acceptance(p, "men")
        mu_w = deferred_acceptance(p, "women")
        choices[p.id] = frozenset({matching_id(mu_m, p), matching_id(mu_w, p)})
    return SocialChoiceRule(profiles, choices)


def optimal_orderings(problems: Sequence[MarriageProblem]) -> OrderingWitness:
    """Per profile, the circular order (woman-optimal, man-optimal)."""
    table = {}
    for p in problems:
        mu_m = matching_id(deferred_acceptance(p, "men"), p)
        mu_w = matching_id(deferred_acceptance(p, "women"), p)
        table[p.id] = (mu_w,) if mu_w == mu_m else (mu_w, mu_m)
    return OrderingWitness(table)


def stable_set_scr(problems: Sequence[MarriageProblem]) -> SocialChoiceRule:
    """F(R) = all stable matchings per profile (the Knuth-model rule when pure)."""
    _check_nonempty(problems)
    profiles = tuple(matching_profile(p) for p in problems)
    choices = {
        p.id: frozenset(
            matching_id(mu, p) for mu in enumerate_stable_matchings(p)
        )
        for p in problems
    }
    return SocialChoiceRule(profiles, choices)
