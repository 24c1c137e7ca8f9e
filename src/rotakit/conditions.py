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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .model import (
    CapExceeded,
    InputError,
    Profile,
    SocialChoiceRule,
    Verdict,
    is_monotonic_transformation,
    lower_contour_set,
)

ORDER_SEARCH_CAP = 8


@dataclass(frozen=True)
class MaskinVerdict(Verdict):
    ok: bool
    counterexample: tuple[str, str, str] | None = None  # (R, R', z)


def check_maskin_monotonicity(scr: SocialChoiceRule) -> MaskinVerdict:
    """z chosen at R and falling for nobody from R to R' must stay chosen at R'."""
    for r in scr.profiles:
        for rp in scr.profiles:
            for z in sorted(scr.choice(r.id)):
                if z in scr.choice(rp.id):
                    continue
                if is_monotonic_transformation(r, rp, z):
                    return MaskinVerdict(False, (r.id, rp.id, z))
    return MaskinVerdict(True)


@dataclass(frozen=True)
class IndirectWitness:
    profile_id: str
    other_id: str
    outcome: str
    path: tuple[str, ...]  # outcomes z_1..z_h inside F(R), each step improving at R'
    step_agents: tuple[int, ...]
    reversal_agent: int


@dataclass(frozen=True)
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
    witnesses = []
    for r in scr.profiles:
        chosen = scr.choice(r.id)
        for rp in scr.profiles:
            dropped = chosen - scr.choice(rp.id)
            for z in sorted(dropped):
                if not is_monotonic_transformation(r, rp, z):
                    continue
                witness = _indirect_walk(scr, r, rp, z)
                if witness is None:
                    return IndirectVerdict(False, tuple(witnesses), (r.id, rp.id, z))
                witnesses.append(witness)
    return IndirectVerdict(True, tuple(witnesses))


def _indirect_walk(
    scr: SocialChoiceRule, r: Profile, rp: Profile, z: str
) -> IndirectWitness | None:
    """BFS over F(R) with edges a -> b iff some agent has b P' a."""
    nodes = sorted(scr.choice(r.id))
    parent: dict[str, tuple[str, int]] = {}
    seen = {z}
    frontier = [z]
    while frontier:
        nxt = []
        for a in frontier:
            for b in nodes:
                if b in seen:
                    continue
                agent = _step_improver(rp, a, b)
                if agent is None:
                    continue
                seen.add(b)
                parent[b] = (a, agent)
                rev = _preference_reversal(r, rp, b)
                if rev is not None:
                    path = [b]
                    agents = []
                    while path[-1] != z:
                        prev, ag = parent[path[-1]]
                        agents.append(ag)
                        path.append(prev)
                    path.reverse()
                    agents.reverse()
                    return IndirectWitness(
                        r.id, rp.id, z, tuple(path), tuple(agents), rev[0]
                    )
                nxt.append(b)
        frontier = nxt
    return None


def _step_improver(rp: Profile, a: str, b: str) -> int | None:
    """First agent strictly preferring b to a at rp, if any."""
    for i in range(rp.n_agents):
        if rp.strictly_prefers(i, b, a):
            return i
    return None


def _preference_reversal(r: Profile, rp: Profile, x: str) -> tuple[int, str] | None:
    """First (agent, z) with x weakly above z at r but z strictly above x at rp."""
    for i in range(r.n_agents):
        shrank = lower_contour_set(r, i, x) - lower_contour_set(rp, i, x)
        if shrank:
            return i, min(shrank)
    return None


@dataclass(frozen=True)
class RotationCertificate:
    """Why one ordered outcome passes against one triggering profile."""

    start: str
    chain: tuple[tuple[str, int], ...]  # (next outcome, improving agent at R') per step
    reversal_outcome: str
    reversal_agent: int
    reversal_alt: str


def _rotation_trigger(scr: SocialChoiceRule, r_id: str, rp_id: str) -> bool:
    fr, frp = scr.choice(r_id), scr.choice(rp_id)
    if fr == frp:
        return False
    if len(frp) > 1:
        return True
    return not (frp <= fr)  # singleton not chosen at R


def rotation_certificates(
    scr: SocialChoiceRule, r: Profile, ordering: Sequence[str], rp: Profile
) -> list[RotationCertificate | None]:
    """Per ordered outcome, the shortest certificate against rp, or None."""
    ordering = tuple(ordering)
    m = len(ordering)
    steps = [
        _step_improver(rp, ordering[k], ordering[(k + 1) % m]) for k in range(m)
    ]
    reversals = [_preference_reversal(r, rp, x) for x in ordering]
    certs: list[RotationCertificate | None] = []
    for i in range(m):
        cert = None
        chain: list[tuple[str, int]] = []
        for h in range(m):
            pos = (i + h) % m
            if reversals[pos] is not None:
                agent, alt = reversals[pos]
                cert = RotationCertificate(
                    ordering[i], tuple(chain), ordering[pos], agent, alt
                )
                break
            if steps[pos] is None:
                break
            chain.append((ordering[(pos + 1) % m], steps[pos]))
        certs.append(cert)
    return certs


def _ordering_rotation_ok(
    scr: SocialChoiceRule, r: Profile, ordering: Sequence[str]
) -> tuple[bool, tuple[str, str] | None]:
    """Check one ordering of F(r) against every triggering profile.

    Returns (ok, (rp_id, stuck outcome)) with the first failure if any.
    """
    for rp in scr.profiles:
        if not _rotation_trigger(scr, r.id, rp.id):
            continue
        certs = rotation_certificates(scr, r, ordering, rp)
        for x, cert in zip(ordering, certs):
            if cert is None:
                return False, (rp.id, x)
    return True, None


def _searched_orderings(
    scr: SocialChoiceRule, r: Profile, cap: int
) -> Iterable[tuple[str, ...]]:
    """All circular orderings of F(r), first element fixed, lexicographic tail order.

    Raises CapExceeded, before any ordering is tried, if F(r) exceeds `cap`.
    """
    outcomes = sorted(scr.choice(r.id))
    if len(outcomes) > cap:
        raise CapExceeded(
            f"ordering search over {len(outcomes)} outcomes at {r.id!r} "
            f"exceeds the cap of {cap}",
            cap=cap,
            needed=len(outcomes),
        )
    if len(outcomes) <= 1:
        return [tuple(outcomes)]
    head = outcomes[0]
    return ((head,) + tail for tail in itertools.permutations(outcomes[1:]))


@dataclass(frozen=True)
class OrderingWitness:
    """Per-profile circular orderings of the chosen sets."""

    orderings: Mapping[str, tuple[str, ...]]

    def __post_init__(self):
        object.__setattr__(
            self, "orderings", {pid: tuple(o) for pid, o in dict(self.orderings).items()}
        )

    def for_profile(self, pid: str) -> tuple[str, ...]:
        try:
            return self.orderings[pid]
        except KeyError:
            raise InputError(f"no ordering recorded for profile {pid!r}") from None


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


@dataclass(frozen=True)
class RotationObstruction:
    profile_id: str
    failures: tuple[tuple[tuple[str, ...], str, str], ...]  # (ordering, rp, stuck outcome)


@dataclass(frozen=True)
class RotationVerdict(Verdict):
    ok: bool
    witness: OrderingWitness | None = None
    obstructions: tuple[RotationObstruction, ...] = ()


def check_rotation_monotonicity(
    scr: SocialChoiceRule, cap: int = ORDER_SEARCH_CAP
) -> RotationVerdict:
    """Search, per profile, for a circular ordering certifying every trigger.

    The search is exhaustive over the (m-1)! circular orderings of each
    chosen set; chosen sets larger than `cap` raise CapExceeded rather
    than truncating.  The first passing ordering in lexicographic order
    is recorded; a profile with no passing ordering is reported with the
    failure point of every candidate.
    """
    orderings: dict[str, tuple[str, ...]] = {}
    obstructions: list[RotationObstruction] = []
    for r in scr.profiles:
        failures = []
        found = None
        for ordering in _searched_orderings(scr, r, cap):
            ok, failure = _ordering_rotation_ok(scr, r, ordering)
            if ok:
                found = ordering
                break
            failures.append((ordering, failure[0], failure[1]))
        if found is None:
            obstructions.append(RotationObstruction(r.id, tuple(failures)))
        else:
            orderings[r.id] = found
    if obstructions:
        return RotationVerdict(False, None, tuple(obstructions))
    return RotationVerdict(True, OrderingWitness(orderings))


def verify_rotation_monotonicity_with(
    scr: SocialChoiceRule, orderings: "OrderingWitness | Mapping[str, Sequence[str]]"
) -> RotationVerdict:
    """Check rotation monotonicity against supplied orderings, no search.

    Used by pipelines that construct orderings directly (the circular
    arrangement of common-best-job problems, the alternating order of the
    partially-informed-planner rule), where the chosen sets may exceed
    any sensible search cap.
    """
    table = coerce_orderings(scr, orderings)
    obstructions = []
    for r in scr.profiles:
        ok, failure = _ordering_rotation_ok(scr, r, table[r.id])
        if not ok:
            obstructions.append(
                RotationObstruction(r.id, ((table[r.id], failure[0], failure[1]),))
            )
    if obstructions:
        return RotationVerdict(False, None, tuple(obstructions))
    return RotationVerdict(True, OrderingWitness(table))


@dataclass(frozen=True)
class PropertyMFailure:
    profile_id: str
    other_id: str
    outcome: str
    reason: str


@dataclass(frozen=True)
class PropertyMVerdict(Verdict):
    ok: bool
    failure: PropertyMFailure | None = None


def _ordering_property_m_ok(
    scr: SocialChoiceRule, r: Profile, ordering: tuple[str, ...]
) -> PropertyMFailure | None:
    """Property M for one profile and ordering; None when satisfied.

    Triggers are profiles R' with F(R) != F(R') whose unique choice is
    some x(k) of this ordering.  An outcome x(j) without a rotation
    certificate must instead chain forward to x(k) through R'-improving
    steps, and the lower contour of x(k) at R, together with x(k+1), must
    sit inside its lower contour at R'.
    """
    m = len(ordering)
    for rp in scr.profiles:
        frp = scr.choice(rp.id)
        if frp == scr.choice(r.id) or len(frp) != 1:
            continue
        (target,) = frp
        if target not in ordering:
            continue
        k = ordering.index(target)
        certs = rotation_certificates(scr, r, ordering, rp)
        steps = [
            _step_improver(rp, ordering[t], ordering[(t + 1) % m]) for t in range(m)
        ]
        xk1 = ordering[(k + 1) % m]
        contour_ok = all(
            lower_contour_set(r, i, target) | {xk1} <= lower_contour_set(rp, i, target)
            for i in range(r.n_agents)
        )
        for j in range(m):
            if j == k or certs[j] is not None:
                continue
            span = (k - j) % m
            chain_ok = all(steps[(j + t) % m] is not None for t in range(span))
            if not (chain_ok and contour_ok):
                reason = "no chain to the singleton" if not chain_ok else (
                    "lower-contour condition fails at the singleton"
                )
                return PropertyMFailure(r.id, rp.id, ordering[j], reason)
    return None


def check_property_m(
    scr: SocialChoiceRule, orderings: "OrderingWitness | Mapping[str, Sequence[str]]"
) -> PropertyMVerdict:
    """Property M against supplied per-profile orderings."""
    table = coerce_orderings(scr, orderings)
    for r in scr.profiles:
        failure = _ordering_property_m_ok(scr, r, table[r.id])
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
    orderings: dict[str, tuple[str, ...]] = {}
    for r in scr.profiles:
        found = None
        for ordering in _searched_orderings(scr, r, cap):
            ok, _ = _ordering_rotation_ok(scr, r, ordering)
            if ok and _ordering_property_m_ok(scr, r, ordering) is None:
                found = ordering
                break
        if found is None:
            return None
        orderings[r.id] = found
    return OrderingWitness(orderings)
