"""JSON schemas shared by the library and the CLI, plus DOT export.

Environment documents carry `alternatives`, `agents`, `profiles` (rank
matrices aligned with the alternatives list), an optional `scr` table,
and an optional `rights` block.  Domain documents are tagged with a
`kind` of jobs, marriage, or economy and are compiled here into the
same SCR / environment shapes every other module consumes.
"""

from __future__ import annotations

import json
from typing import Any, Mapping, Sequence

from .domains import housing, jobs, marriage
from .conditions import OrderingWitness
from .model import InputError, Profile, SocialChoiceRule
from .rights import (
    BASE,
    GRAPH,
    OPAQUE,
    ImprovementDigraph,
    RightsStructure,
    SocialEnvironment,
    State,
)

DOMAIN_KINDS = ("jobs", "marriage", "economy")


def load_document(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(
            f"{path}: malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict):
        raise InputError(f"{path}: top-level JSON value must be an object")
    return doc


def _need(doc: Mapping, key: str, path: str) -> Any:
    try:
        return doc[key]
    except KeyError:
        raise InputError(f"missing field {path}.{key}") from None
    except TypeError:
        raise InputError(f"{path}: expected an object") from None


def _read(convert, value: Any, path: str) -> Any:
    """`convert(value)`, with a value of the wrong shape reported at `path`."""
    try:
        return convert(value)
    except (TypeError, ValueError, AttributeError) as exc:
        raise InputError(f"{path}: malformed value: {exc}") from None


def _need_int(doc: Mapping, key: str, path: str) -> int:
    value = _need(doc, key, path)
    if type(value) is not int:
        raise InputError(f"{path}.{key}: expected an integer, got {value!r}")
    return value


def _list(value: Any, path: str, kind: type = object) -> tuple:
    """A JSON list whose entries all have type `kind`, as a tuple.

    A string is not read as a list of characters, and an entry of another
    type (a bool where an integer belongs, say) is reported at its own path.
    """
    if not isinstance(value, (list, tuple)):
        raise InputError(f"{path}: expected a list, got {value!r}")
    if kind is not object:
        for i, v in enumerate(value):
            if type(v) is not kind:
                raise InputError(f"{path}[{i}]: expected {kind.__name__}, got {v!r}")
    return tuple(value)


def _ids(value: Any, path: str) -> tuple[str, ...]:
    return _list(value, path, str)


def _rows(value: Any, path: str, kind: type) -> tuple[tuple, ...]:
    """A list of lists of `kind`: rank rows of ints, or preference orders of ids."""
    return tuple(_list(row, f"{path}[{a}]", kind) for a, row in enumerate(_list(value, path)))


def _agents(members: Any) -> frozenset[int]:
    """A coalition's agent indices, each a JSON integer (not a bool, float or string)."""
    for a in members:
        if type(a) is not int:
            raise TypeError(f"agent index {a!r} is not an integer")
    return frozenset(members)


def profiles_from_doc(doc: Mapping) -> tuple[Profile, ...]:
    alternatives = _ids(_need(doc, "alternatives", "$"), "$.alternatives")
    agents = _need_int(doc, "agents", "$")
    out = []
    for i, pdoc in _read(enumerate, _need(doc, "profiles", "$"), "$.profiles"):
        path = f"$.profiles[{i}]"
        pid = str(_need(pdoc, "id", path))
        ranks = _rows(_need(pdoc, "ranks", path), f"{path}.ranks", int)
        if len(ranks) != agents:
            raise InputError(f"{path}.ranks: expected {agents} agent rows")
        try:
            out.append(Profile.from_ranks(pid, alternatives, ranks))
        except InputError as exc:
            raise InputError(f"{path}: {exc}") from exc
    return tuple(out)


def scr_from_doc(doc: Mapping) -> SocialChoiceRule:
    profiles = profiles_from_doc(doc)
    table = _need(doc, "scr", "$")
    if not isinstance(table, Mapping):
        raise InputError("$.scr: expected an object mapping profile ids to outcome lists")
    choices = {pid: frozenset(_ids(vals, f"$.scr.{pid}")) for pid, vals in table.items()}
    return SocialChoiceRule(profiles, choices)


def scr_to_doc(scr: SocialChoiceRule) -> dict:
    return {
        "alternatives": list(scr.alternatives),
        "agents": scr.n_agents,
        "profiles": [
            {"id": p.id, "ranks": [list(pref.ranks) for pref in p.prefs]}
            for p in scr.profiles
        ],
        "scr": {pid: sorted(vals) for pid, vals in scr.choices.items()},
    }


def rights_from_doc(doc: Mapping) -> RightsStructure:
    rdoc = _need(doc, "rights", "$")
    states = []
    for i, sdoc in _read(enumerate, _need(rdoc, "states", "$.rights"), "$.rights.states"):
        path = f"$.rights.states[{i}]"
        key = str(_need(sdoc, "id", path))
        kind = sdoc.get("kind", BASE)
        if kind not in (BASE, GRAPH, OPAQUE):
            raise InputError(f"{path}.kind: unknown kind {kind!r}")
        states.append(State(key, str(_need(sdoc, "outcome", path)), kind, sdoc.get("profile")))
    gamma: dict[tuple[str, str], frozenset] = {}
    provenance: dict[tuple[str, str], str] = {}
    entries = _read(enumerate, rdoc.get("gamma", []), "$.rights.gamma")
    try:  # one handler for the whole loop: nothing is added per entry
        for i, gdoc in entries:
            path = f"$.rights.gamma[{i}]"
            pair = (str(_need(gdoc, "from", path)), str(_need(gdoc, "to", path)))
            fam = frozenset(map(_agents, _need(gdoc, "coalitions", path)))
            if pair in gamma:
                fam = fam | gamma[pair]
            gamma[pair] = fam
            if gdoc.get("rule"):
                provenance[pair] = str(gdoc["rule"])
    except InputError:
        raise
    except (TypeError, ValueError) as exc:
        raise InputError(f"{path}.coalitions: expected lists of agent indices: {exc}") from None
    return RightsStructure(tuple(states), gamma, provenance)


def rights_to_doc(structure: RightsStructure) -> dict:
    states = []
    for s in structure.states:
        sdoc = {"id": s.key, "kind": s.kind, "outcome": s.outcome}
        if s.profile_id is not None:
            sdoc["profile"] = s.profile_id
        states.append(sdoc)
    gamma = []
    for a in structure.keys():
        for b in structure.targets_from(a):
            entry = {
                "from": a,
                "to": b,
                "coalitions": sorted(sorted(k) for k in structure.gamma[(a, b)]),
            }
            rule = structure.provenance.get((a, b))
            if rule:
                entry["rule"] = rule
            gamma.append(entry)
    return {"states": states, "gamma": gamma}


def environment_from_doc(doc: Mapping, profile_id: str) -> SocialEnvironment:
    if "rights" not in doc:
        raise InputError("document has no rights block; cannot build an environment")
    profiles = {p.id: p for p in profiles_from_doc(doc)}
    if profile_id not in profiles:
        raise InputError(f"unknown profile id {profile_id!r}")
    return SocialEnvironment(rights_from_doc(doc), profiles[profile_id])


def environment_to_doc(
    scr: SocialChoiceRule | None,
    profiles: Sequence[Profile],
    structure: RightsStructure,
) -> dict:
    base: dict[str, Any] = {
        "alternatives": list(profiles[0].alternatives),
        "agents": profiles[0].n_agents,
        "profiles": [
            {"id": p.id, "ranks": [list(pref.ranks) for pref in p.prefs]}
            for p in profiles
        ],
    }
    if scr is not None:
        base["scr"] = {pid: sorted(vals) for pid, vals in scr.choices.items()}
    base["rights"] = rights_to_doc(structure)
    return base


# ---------------------------------------------------------------------------
# domain documents


def is_domain_doc(doc: Mapping) -> bool:
    return doc.get("kind") in DOMAIN_KINDS


def jobs_problems_from_doc(doc: Mapping) -> list[jobs.JobRotationProblem]:
    job_ids = _ids(_need(doc, "jobs", "$"), "$.jobs")
    out = []
    for i, pdoc in _read(enumerate, _need(doc, "profiles", "$"), "$.profiles"):
        path = f"$.profiles[{i}]"
        out.append(
            jobs.JobRotationProblem(
                str(_need(pdoc, "id", path)),
                job_ids,
                _rows(_need(pdoc, "orders", path), f"{path}.orders", str),
            )
        )
    return out


def _prefs(value: Any, path: str) -> dict:
    if not isinstance(value, Mapping):
        raise InputError(f"{path}: expected an object, got {value!r}")
    return {person: _ids(order, f"{path}.{person}") for person, order in value.items()}


def marriage_problems_from_doc(doc: Mapping) -> list[marriage.MarriageProblem]:
    men = _ids(_need(doc, "men", "$"), "$.men")
    women = _ids(_need(doc, "women", "$"), "$.women")
    pure = doc.get("pure", False)
    if type(pure) is not bool:
        raise InputError(f"$.pure: expected true or false, got {pure!r}")
    out = []
    for i, pdoc in _read(enumerate, _need(doc, "profiles", "$"), "$.profiles"):
        path = f"$.profiles[{i}]"
        out.append(
            marriage.MarriageProblem(
                str(_need(pdoc, "id", path)),
                men,
                women,
                _prefs(_need(pdoc, "men", path), f"{path}.men"),
                _prefs(_need(pdoc, "women", path), f"{path}.women"),
                pure,
            )
        )
    return out


def economies_from_doc(doc: Mapping) -> list[housing.Economy]:
    agents = _need_int(doc, "agents", "$")
    houses = _ids(_need(doc, "houses", "$"), "$.houses")
    outside = str(_need(doc, "outside", "$"))
    owners = {
        h: _read(_agents, members, f"$.owners.{h}")
        for h, members in _read(lambda o: o.items(), _need(doc, "owners", "$"), "$.owners")
    }
    out = []
    for i, pdoc in _read(enumerate, _need(doc, "profiles", "$"), "$.profiles"):
        path = f"$.profiles[{i}]"
        out.append(
            housing.Economy(
                str(_need(pdoc, "id", path)),
                agents,
                houses,
                outside,
                owners,
                _rows(_need(pdoc, "orders", path), f"{path}.orders", str),
            )
        )
    return out


DOMAIN_RULES = {
    "jobs": ("efficient", "phi"),
    "marriage": ("optimal-stable", "all-stable"),
    "economy": ("exclusion-core",),
}


def domain_scr(
    doc: Mapping, rule: str | None = None
) -> tuple[SocialChoiceRule, OrderingWitness | None]:
    """Compile a domain document into an SCR, plus canonical orderings if the
    rule defines them."""
    kind = doc.get("kind")
    if kind == "jobs":
        problems = jobs_problems_from_doc(doc)
        rule = rule or "efficient"
        if rule == "efficient":
            scr = jobs.efficient_scr(problems)
            witness = None
            tops = {jobs.common_best_job(p) for p in problems}
            if len(tops) == 1 and None not in tops:
                witness = jobs.arrangement_orderings(problems)
            return scr, witness
        if rule == "phi":
            return jobs.phi_scr(problems), jobs.phi_orderings(problems)
    elif kind == "marriage":
        problems = marriage_problems_from_doc(doc)
        rule = rule or "optimal-stable"
        if rule == "optimal-stable":
            return marriage.marriage_optimal_scr(problems), marriage.optimal_orderings(problems)
        if rule == "all-stable":
            return marriage.stable_set_scr(problems), None
    elif kind == "economy":
        economies = economies_from_doc(doc)
        rule = rule or "exclusion-core"
        if rule == "exclusion-core":
            return housing.exclusion_core_scr(economies), None
    else:
        raise InputError(f"not a domain document (kind={kind!r})")
    raise InputError(f"rule {rule!r} does not apply to kind {kind!r}")


def domain_environment(doc: Mapping, profile_id: str) -> SocialEnvironment:
    """The canonical environment of a domain document, if the domain has one.

    Only economies carry a canonical rights structure (free exchange under
    exclusion rights); other domains must go through a construction.
    """
    if doc.get("kind") != "economy":
        raise InputError("only economy documents induce a canonical environment")
    for e in economies_from_doc(doc):
        if e.id == profile_id:
            return housing.exclusion_environment(e)
    raise InputError(f"unknown profile id {profile_id!r}")


def jobs_to_doc(problems: Sequence[jobs.JobRotationProblem]) -> dict:
    return {
        "kind": "jobs",
        "jobs": list(problems[0].jobs),
        "profiles": [
            {"id": p.id, "orders": [list(o) for o in p.orders]} for p in problems
        ],
    }


def marriage_to_doc(problems: Sequence[marriage.MarriageProblem]) -> dict:
    first = problems[0]
    return {
        "kind": "marriage",
        "men": list(first.men),
        "women": list(first.women),
        "pure": first.pure,
        "profiles": [
            {
                "id": p.id,
                "men": {m: list(v) for m, v in p.men_prefs.items()},
                "women": {w: list(v) for w, v in p.women_prefs.items()},
            }
            for p in problems
        ],
    }


def economy_to_doc(economies: Sequence[housing.Economy]) -> dict:
    first = economies[0]
    return {
        "kind": "economy",
        "agents": first.n_agents,
        "houses": list(first.houses),
        "outside": first.outside,
        "owners": {h: sorted(k) for h, k in first.owners.items()},
        "profiles": [
            {"id": e.id, "orders": [list(o) for o in e.orders]} for e in economies
        ],
    }


# ---------------------------------------------------------------------------
# DOT export


def _dot_quote(s: str) -> str:
    return '"' + s.replace('"', '\\"') + '"'


def digraph_to_dot(
    dg: ImprovementDigraph,
    env: SocialEnvironment | None = None,
    highlight: Sequence[str] = (),
    blocks: Sequence[Sequence[str]] | None = None,
) -> str:
    """Graphviz rendering; highlighted states are filled, blocks are clustered."""
    lines = ["digraph improvement {", "  rankdir=LR;"]
    marked = set(highlight)
    block_of: dict[str, int] = {}
    for bi, block in enumerate(blocks or ()):
        for s in block:
            block_of[s] = bi
    clusters: dict[int, list[str]] = {}
    loose: list[str] = []
    for node in dg.nodes:
        label = node
        if env is not None and env.outcome(node) != node:
            label = f"{node}\\nh={env.outcome(node)}"
        style = ' style=filled fillcolor="lightblue"' if node in marked else ""
        line = f"  {_dot_quote(node)} [label={_dot_quote(label)}{style}];"
        if node in block_of:
            clusters.setdefault(block_of[node], []).append(line)
        else:
            loose.append(line)
    for bi in sorted(clusters):
        lines.append(f"  subgraph cluster_{bi} {{")
        lines.append(f'    label="rotation program {bi + 1}";')
        lines.extend("  " + ln for ln in clusters[bi])
        lines.append("  }")
    lines.extend(loose)
    for (a, b), fams in dg.edge_coalitions.items():
        label = "; ".join("{" + ",".join(str(i) for i in sorted(k)) + "}" for k in fams)
        lines.append(
            f"  {_dot_quote(a)} -> {_dot_quote(b)} [label={_dot_quote(label)}];"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
