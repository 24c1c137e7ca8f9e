"""JSON schemas shared by the library and the CLI, their writer, and DOT export.

Environment documents carry `alternatives`, `agents`, `profiles` (rank
matrices aligned with the alternatives list), an optional `scr` table,
and an optional `rights` block.  Domain documents are tagged with a
`kind` of jobs, marriage, or economy and are compiled here into the
same SCR / environment shapes every other module consumes.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from json.encoder import encode_basestring_ascii as _quote
from typing import Any, Iterator, Mapping, Sequence

from .conditions import OrderingWitness
from .model import InputError, Profile, SocialChoiceRule, _agents, _error, _list, _need
from .rights import (
    ImprovementDigraph,
    RightsStructure,
    SocialEnvironment,
    State,
)

# how `dumps` writes a list of one scalar type, in one join
_SCALAR_LISTS = {frozenset([str]): _quote, frozenset([int]): int.__repr__}


def load_document(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, UnicodeDecodeError, RecursionError) as exc:  # no file, not UTF-8, too deep
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(
            f"{path}: malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError as exc:  # an integer literal beyond the int-string conversion limit
        raise InputError(f"cannot read {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError(f"{path}: top-level JSON value must be an object", "$")
    return doc


def _read(convert, value: Any, path: str) -> Any:
    """`convert(value)`, with a value of the wrong shape reported at `path`."""
    try:
        return convert(value)
    except (TypeError, ValueError, AttributeError) as exc:
        raise _error(path, f"malformed value: {exc}") from None


def _ids(value: Any, path: str) -> tuple[str, ...]:
    return _list(value, path, str)


def _rows(value: Any, path: str, kind: type) -> tuple[tuple, ...]:
    """A list of lists of `kind`: rank rows of ints, or preference orders of ids."""
    return tuple(_list(row, f"{path}[{a}]", kind) for a, row in enumerate(_list(value, path)))


@contextmanager
def _at(fields: Mapping[str, str]) -> Iterator[None]:
    """Re-raise a library check's `InputError` at the JSON path of its `where`: `fields`
    maps a field of the object being built to its path, and an element's field (a name
    after an index) to its document key where the two differ.  Indices and mapping keys
    extend the path."""
    try:
        yield
    except InputError as exc:
        where = exc.where
        if not where or where[0] not in fields:
            raise
        path = fields[where[0]]
        for prev, step in zip(where, where[1:]):
            if type(step) is int:
                path += f"[{step}]"
            else:  # after a name: a mapping key or a nested field, written as it is
                path += "." + (step if type(prev) is str else fields.get(step, step))
        raise InputError(str(exc), path) from exc


def _profile_entries(doc: Mapping) -> Iterator[tuple[str, str, Mapping]]:
    """(path, id, entry) per entry of `$.profiles`; a repeated id is refused at its path."""
    seen = set()
    for i, pdoc in enumerate(_list(_need(doc, "profiles", "$"), "$.profiles")):
        path = f"$.profiles[{i}]"
        pid = _need(pdoc, "id", path, str)
        if pid in seen:
            raise _error(f"{path}.id", f"duplicate profile id {pid!r}")
        seen.add(pid)
        yield path, pid, pdoc


def profiles_from_doc(doc: Mapping) -> tuple[Profile, ...]:
    alternatives = _ids(_need(doc, "alternatives", "$"), "$.alternatives")
    agents = _need(doc, "agents", "$", int)
    out = []
    for path, pid, pdoc in _profile_entries(doc):
        ranks = _rows(_need(pdoc, "ranks", path), f"{path}.ranks", int)
        if len(ranks) != agents:
            raise _error(f"{path}.ranks", f"expected {agents} agent rows")
        with _at({"alternatives": "$.alternatives", "ranks": f"{path}.ranks", "prefs": "$.agents"}):
            out.append(Profile.from_ranks(pid, alternatives, ranks))
    return tuple(out)


def scr_from_doc(doc: Mapping) -> SocialChoiceRule:
    profiles = profiles_from_doc(doc)
    table = _need(doc, "scr", "$")
    if not isinstance(table, Mapping):
        raise _error("$.scr", "expected an object mapping profile ids to outcome lists")
    choices = {pid: frozenset(_ids(vals, f"$.scr.{pid}")) for pid, vals in table.items()}
    with _at({"profiles": "$.profiles", "choices": "$.scr"}):
        return SocialChoiceRule(profiles, choices)


def _profiles_doc(profiles: Sequence[Profile]) -> dict:
    return {
        "alternatives": list(profiles[0].alternatives),
        "agents": profiles[0].n_agents,
        "profiles": [{"id": p.id, "ranks": [list(r.ranks) for r in p.prefs]} for p in profiles],
    }


def _choices_doc(scr: SocialChoiceRule) -> dict:
    return {pid: sorted(vals) for pid, vals in scr.choices.items()}


def scr_to_doc(scr: SocialChoiceRule) -> dict:
    return {**_profiles_doc(scr.profiles), "scr": _choices_doc(scr)}


def rights_from_doc(doc: Mapping) -> RightsStructure:
    rdoc = _need(doc, "rights", "$")
    states = _need(rdoc, "states", "$.rights")
    agents = doc.get("agents") if type(doc.get("agents")) is int else None
    fields = {"states": "$.rights.states", "gamma": "$.rights.gamma", "key": "id"}
    with _at(fields):  # the builder reads and checks the states, then each entry as it reads it
        return RightsStructure._build(states, rdoc.get("gamma", []), (agents, fields))


def _state_doc(s: State) -> dict:
    doc = {"id": s.key, "kind": s.kind, "outcome": s.outcome}
    return doc if s.profile_id is None else {**doc, "profile": s.profile_id}


def rights_to_doc(structure: RightsStructure) -> dict:
    """The `rights` block of a document; `dumps` writes the same JSON from the structure."""
    gamma = []
    for a, b, fam, rule in structure.entries():
        entry = {"from": a, "to": b, "coalitions": sorted(sorted(k) for k in fam)}
        gamma.append({**entry, "rule": rule} if rule else entry)
    return {"states": [_state_doc(s) for s in structure.states], "gamma": gamma}


def environment_from_doc(doc: Mapping, profile_id: str) -> SocialEnvironment:
    if "rights" not in doc:
        raise InputError("document has no rights block; cannot build an environment", "$.rights")
    profiles = {p.id: p for p in profiles_from_doc(doc)}
    if profile_id not in profiles:
        raise InputError(f"unknown profile id {profile_id!r}")
    rights = rights_from_doc(doc)
    with _at({"rights": "$.rights"}):
        return SocialEnvironment(rights, profiles[profile_id])


def environment_to_doc(
    scr: SocialChoiceRule | None,
    profiles: Sequence[Profile],
    structure: RightsStructure,
) -> dict:
    scr_doc = {} if scr is None else {"scr": _choices_doc(scr)}
    return {**_profiles_doc(profiles), **scr_doc, "rights": rights_to_doc(structure)}


def dumps(payload: Any, end: str = "") -> str:
    """`json.dumps(payload, indent=2, sort_keys=True) + end`, byte for byte, in one join, for
    dicts with string keys, lists, tuples, strings, ints, bools, None and rights structures
    (written as `rights_to_doc` would); anything else raises TypeError."""
    out: list[str] = []
    _encode(payload, "\n", out)
    out.append(end)
    return "".join(out)


def _encode(value: Any, nl: str, out: list[str]) -> None:
    """Append `value` as JSON to `out`; `nl` is the newline and indent of its line."""
    if value is None or isinstance(value, (str, int)):
        return out.append(json.dumps(value))
    inner = nl + "  "
    if isinstance(value, (list, tuple)):
        scalar = _SCALAR_LISTS.get(frozenset(map(type, value)))
        if scalar:
            return out.extend(("[" + inner, ("," + inner).join(map(scalar, value)), nl + "]"))
        items, brackets = [("", v) for v in value], "[]"
    elif isinstance(value, dict):
        items, brackets = [(_quote(k) + ": ", v) for k, v in sorted(value.items())], "{}"
    elif isinstance(value, RightsStructure):
        return _encode_rights(value, nl, out)
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    sep = brackets[0] + inner
    for k, v in items:
        out.append(sep + k)
        _encode(v, inner, out)
        sep = "," + inner
    out.append(nl + brackets[1] if items else brackets)


def _encode_rights(structure: RightsStructure, nl: str, out: list[str]) -> None:
    """`rights_to_doc(structure)` as JSON in five shared pieces per gamma entry: the
    separator, its family's coalitions block, its source's head, its rule and its target."""
    n1, n2, n3 = nl + "  ", nl + "    ", nl + "      "
    blocks, rules, sep, comma = {}, {}, n2, "," + n2
    tails = [f'{n3}"to": {_quote(b)}{n2}}}' for b in structure.keys()]
    out.append(f'{{{n1}"gamma": [')
    for a, row in zip(structure.keys(), structure._core.rows):
        head = f'{n3}"from": {_quote(a)},'
        for b, _, family, rule in row:
            if (fam := family[0]) not in blocks:
                block = [f'{{{n3}"coalitions": ']
                _encode(sorted(sorted(k) for k in fam), n3, block)
                blocks[fam] = "".join(block) + ","
            if rule not in rules:
                rules[rule] = f'{n3}"rule": {_quote(rule)},' if rule else ""
            out += (sep, blocks[fam], head, rules[rule], tails[b])
            sep = comma
    out.append(f'{n1 if sep is comma else ""}],{n1}"states": ')
    _encode([_state_doc(s) for s in structure.states], n1, out)
    out.append(nl + "}")


# ---------------------------------------------------------------------------
# domain documents


def is_domain_doc(doc: Mapping) -> bool:
    return isinstance(doc.get("kind"), str) and doc["kind"] in DOMAIN_RULES


def _load_domains() -> None:
    """Bind the domain modules here on the first domain document read: none load before."""
    global housing, jobs, marriage
    from .domains import housing, jobs, marriage


def jobs_problems_from_doc(doc: Mapping) -> list[jobs.JobRotationProblem]:
    _load_domains()
    job_ids = _ids(_need(doc, "jobs", "$"), "$.jobs")
    problems = []
    for path, pid, pdoc in _profile_entries(doc):
        orders = _rows(_need(pdoc, "orders", path), f"{path}.orders", str)
        with _at({"jobs": "$.jobs", "orders": f"{path}.orders"}):
            problems.append(jobs.JobRotationProblem(pid, job_ids, orders))
    return problems


def _prefs(value: Any, path: str) -> dict:
    if not isinstance(value, Mapping):
        raise _error(path, f"expected an object, got {value!r}")
    return {person: _ids(order, f"{path}.{person}") for person, order in value.items()}


def marriage_problems_from_doc(doc: Mapping) -> list[marriage.MarriageProblem]:
    _load_domains()
    men = _ids(_need(doc, "men", "$"), "$.men")
    women = _ids(_need(doc, "women", "$"), "$.women")
    pure = doc.get("pure", False)
    if type(pure) is not bool:
        raise _error("$.pure", f"expected true or false, got {pure!r}")
    problems = []
    for path, pid, pdoc in _profile_entries(doc):
        men_prefs = _prefs(_need(pdoc, "men", path), f"{path}.men")
        women_prefs = _prefs(_need(pdoc, "women", path), f"{path}.women")
        fields = {"men": "$.men", "women": "$.women", "pure": "$.pure",
                  "men_prefs": f"{path}.men", "women_prefs": f"{path}.women"}
        with _at(fields):
            problems.append(marriage.MarriageProblem(pid, men, women, men_prefs, women_prefs, pure))
    return problems


def economies_from_doc(doc: Mapping) -> list[housing.Economy]:
    _load_domains()
    agents = _need(doc, "agents", "$", int)
    houses = _ids(_need(doc, "houses", "$"), "$.houses")
    outside = _need(doc, "outside", "$", str)
    owners = {
        h: _read(_agents, members, f"$.owners.{h}")
        for h, members in _read(lambda o: o.items(), _need(doc, "owners", "$"), "$.owners")
    }
    economies = []
    for path, pid, pdoc in _profile_entries(doc):
        orders = _rows(_need(pdoc, "orders", path), f"{path}.orders", str)
        fields = {"houses": "$.houses", "outside": "$.outside", "owners": "$.owners",
                  "orders": f"{path}.orders"}
        with _at(fields):
            economies.append(housing.Economy(pid, agents, houses, outside, owners, orders))
    return economies


def _jobs_efficient(problems):
    scr, witness = jobs.efficient_scr(problems), None
    tops = {jobs.common_best_job(p) for p in problems}
    if len(tops) == 1 and None not in tops:
        witness = jobs.arrangement_orderings(problems)
    return scr, witness


# kind -> (document reader, {rule: (SCR, canonical orderings or None) builder});
# a kind's first rule is its default
DOMAIN_RULES = {
    "jobs": (
        jobs_problems_from_doc,
        {
            "efficient": _jobs_efficient,
            "phi": lambda ps: (jobs.phi_scr(ps), jobs.phi_orderings(ps)),
        },
    ),
    "marriage": (
        marriage_problems_from_doc,
        {
            "optimal-stable": lambda ps: (
                marriage.marriage_optimal_scr(ps),
                marriage.optimal_orderings(ps),
            ),
            "all-stable": lambda ps: (marriage.stable_set_scr(ps), None),
        },
    ),
    "economy": (
        economies_from_doc,
        {"exclusion-core": lambda es: (housing.exclusion_core_scr(es), None)},
    ),
}


def domain_scr(
    doc: Mapping, rule: str | None = None
) -> tuple[SocialChoiceRule, OrderingWitness | None]:
    """Compile a domain document into an SCR, plus canonical orderings if the
    rule defines them."""
    kind = doc.get("kind")
    if not is_domain_doc(doc):
        raise InputError(f"not a domain document (kind={kind!r})")
    read, rules = DOMAIN_RULES[kind]
    problems = read(doc)
    rule = rule or next(iter(rules))
    if not isinstance(rule, str) or rule not in rules:
        raise InputError(f"rule {rule!r} does not apply to kind {kind!r}")
    with _at({"profiles": "$.profiles"}):
        return rules[rule](problems)


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


def _dot_quote(*lines: str) -> str:
    """One DOT string: each line escaped, joined by DOT's `\\n` line break."""
    escaped = (s.replace("\\", "\\\\").replace('"', '\\"') for s in lines)
    return '"' + "\\n".join(escaped) + '"'


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
        name = label = _dot_quote(node)
        if env is not None and env.outcome(node) != node:
            label = _dot_quote(node, f"h={env.outcome(node)}")
        style = ' style=filled fillcolor="lightblue"' if node in marked else ""
        line = f"  {name} [label={label}{style}];"
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
