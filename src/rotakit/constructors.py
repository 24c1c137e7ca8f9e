"""Canonical implementing rights structures and end-to-end verifiers.

`build_thm1_structure` realises the five-rule code of rights on the
state space Gr(F) together with the bare alternatives: every agent may
move between same-profile chosen states (Rule 1), exit a chosen state
to any alternative in their lower contour at that state's profile
(Rule 2), enter any chosen state from an alternative (Rule 3), and move
freely between alternatives (Rule 4); everything else is empty (Rule 5).
`build_thm4_structure` differs only in Rule 1, which follows a supplied
circular ordering of each chosen set and grants moves between
consecutive states only, wrapping around.

The diagnostic sets M, U, Q decompose the MSS of these structures; the
verifiers recompute solution sets from scratch and compare against the
rule, reporting failures instead of assuming theorem preconditions.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .model import Profile, Record, SocialChoiceRule, Verdict
from .conditions import OrderingWitness, coerce_orderings
from .rights import (
    GRAPH,
    BASE,
    RightsStructure,
    SocialEnvironment,
    State,
    build_improvement_digraph,
    can_reach,
)
from .solvers import PartitionResult, partition_into_rotation_programs, verified_mss_states

RULE1 = "rule1"
RULE2 = "rule2"
RULE3 = "rule3"
RULE4 = "rule4"


def graph_state_key(alt: str, profile_id: str) -> str:
    return f"{alt}@{profile_id}"


def _five_rule_structure(
    scr: SocialChoiceRule, rule1: Mapping[str, Mapping[str, Sequence[str]]]
) -> RightsStructure:
    """States Gr(F) plus the bare alternatives, with gamma from the five rules.

    `rule1[profile id][z]` lists the chosen alternatives that everyone may
    move the state (z, R) to.  Each chosen state gets that Rule-1 group and
    one Rule-2 group per set of agents whose lower contour holds the target;
    each alternative then gets one Rule-3 and one Rule-4 group.
    """
    singletons = [frozenset([i]) for i in range(scr.n_agents)]
    everyone = frozenset(singletons)
    alts = scr.alternatives
    states: list[State] = []
    groups: list[tuple] = []
    rule2: dict[frozenset, frozenset] = {}  # one object per family, checked once by the builder
    for z, p in scr.graph():
        key = graph_state_key(z, p.id)
        states.append(State(key, z, GRAPH, p.id))
        chosen = [graph_state_key(x, p.id) for x in rule1[p.id].get(z, ())]
        groups.append((key, chosen, everyone, RULE1))
        # x lies in L_i(z, R) exactly when agent i ranks it no better than z
        floors = [(q.ranks, q.rank(z)) for q in p.prefs]
        by_family: dict[frozenset, list[str]] = {}
        for j, x in enumerate(alts):
            fam = frozenset(singletons[i] for i, (ranks, rz) in enumerate(floors) if ranks[j] >= rz)
            by_family.setdefault(rule2.setdefault(fam, fam), []).append(x)
        groups += ((key, targets, fam, RULE2) for fam, targets in by_family.items())
    graph = [s.key for s in states]
    for x in alts:
        states.append(State(x, x, BASE))
        groups += ((x, graph, everyone, RULE3), (x, [y for y in alts if y != x], everyone, RULE4))
    return RightsStructure._build(states, groups)


def build_thm1_structure(scr: SocialChoiceRule) -> RightsStructure:
    """Five-rule structure with Rule 1 joining every same-profile chosen pair."""
    rule1 = {}
    for p in scr.profiles:
        chosen = sorted(scr.choice(p.id))
        rule1[p.id] = {z: [x for x in chosen if x != z] for z in chosen}
    return _five_rule_structure(scr, rule1)


def build_thm4_structure(
    scr: SocialChoiceRule, orderings: OrderingWitness | Mapping[str, Sequence[str]]
) -> RightsStructure:
    """Like the five-rule structure, but Rule 1 follows the circular orderings.

    Unit coalitions are granted only between consecutive ordered states
    (x(k,R),R) -> (x(k+1,R),R), indices wrapping; a singleton chosen set
    contributes no Rule 1 entries.
    """
    rule1 = {}
    for pid, ordering in coerce_orderings(scr, orderings).items():
        m = len(ordering)
        rule1[pid] = {ordering[k - 1]: [ordering[k]] for k in range(m)} if m > 1 else {}
    return _five_rule_structure(scr, rule1)


class DiagnosticSets(Record):
    """The M / U / Q decomposition of the MSS at one profile."""

    profile_id: str
    m_states: tuple[str, ...]
    u_states: tuple[str, ...]
    q_by_profile: Mapping[str, tuple[str, ...]]
    q_states: tuple[str, ...]

    @property
    def union(self) -> frozenset[str]:
        return frozenset(self.m_states) | frozenset(self.u_states) | frozenset(self.q_states)


def compute_diagnostic_sets(
    structure: RightsStructure, scr: SocialChoiceRule, profile: Profile
) -> DiagnosticSets:
    """M(R): chosen graph states of R; U(R): unanimously-top alternatives;
    Q(R,R'): chosen graph states of R' with no improvement path into
    M(R) or U(R) at R; Q(R) their union over the domain."""
    env = SocialEnvironment(structure, profile)
    dg = build_improvement_digraph(env)
    m_states = tuple(
        s.key for s in structure.states if s.kind == GRAPH and s.profile_id == profile.id
    )
    u_states = tuple(
        s.key
        for s in structure.states
        if s.kind == BASE
        and all(profile.rank(i, s.outcome) == 0 for i in range(profile.n_agents))
    )
    escapers = can_reach(dg, m_states + u_states)
    q_by_profile = {}
    q_states = []
    for rp in scr.profiles:
        stuck = tuple(
            s.key
            for s in structure.states
            if s.kind == GRAPH and s.profile_id == rp.id and s.key not in escapers
        )
        q_by_profile[rp.id] = stuck
        q_states.extend(k for k in stuck if k not in q_states)
    return DiagnosticSets(profile.id, m_states, u_states, q_by_profile, tuple(q_states))


class ProfileVerdict(Verdict):
    profile_id: str
    ok: bool
    expected: frozenset[str]
    actual: frozenset[str]

    @property
    def missing(self) -> frozenset[str]:
        return self.expected - self.actual

    @property
    def extra(self) -> frozenset[str]:
        return self.actual - self.expected


class ImplementationReport(Verdict):
    kind: str  # "mss" | "rotation-programs"
    ok: bool
    per_profile: tuple[ProfileVerdict, ...]
    partitions: Mapping[str, PartitionResult] | None = None


def verify_implementation_in_mss(
    structure: RightsStructure, scr: SocialChoiceRule
) -> ImplementationReport:
    """Per profile, does h(MSS) equal the chosen set exactly?"""
    return _verify(structure, scr, "mss")


def verify_implementation_in_rotation_programs(
    structure: RightsStructure, scr: SocialChoiceRule
) -> ImplementationReport:
    """MSS equality plus a rotation-program partition with blocks onto F(R)."""
    return _verify(structure, scr, "rotation-programs")


def _verify(structure: RightsStructure, scr: SocialChoiceRule, kind: str) -> ImplementationReport:
    """The one per-profile loop of both verifiers: each profile's verified MSS
    against its chosen set, and for "rotation-programs" its partition too."""
    partitions = {} if kind == "rotation-programs" else None
    verdicts = []
    for p in scr.profiles:
        env = SocialEnvironment(structure, p)
        dg = build_improvement_digraph(env)
        mss = verified_mss_states(env, dg)
        actual = frozenset(map(env.outcome, mss))
        expected = scr.choice(p.id)
        ok = actual == expected
        if partitions is not None:
            # a partition's blocks cover the MSS onto one outcome set: each block's is `actual`
            partitions[p.id] = part = partition_into_rotation_programs(env, mss, dg)
            ok = ok and part.ok
        verdicts.append(ProfileVerdict(p.id, ok, expected, actual))
    return ImplementationReport(kind, all(v.ok for v in verdicts), tuple(verdicts), partitions)
