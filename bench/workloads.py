"""Seeded input documents and command sequences of the benchmark workloads.

Every document is drawn here from the workload seed with the standard
library only, so the program under test receives nothing but JSON files
and CLI arguments, and a change to the program cannot change its inputs.

Each command states the exit code its input guarantees; see `Command`.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Callable

# Every scr-pareto profile has exactly this many Pareto-optimal outcomes, so
# the ordering searches try up to 4! orderings per profile on every seed.
# Mixed frontier sizes up to rotakit's ordering cap (8; `check` exits 3
# above it) made their cost swing tenfold from seed to seed, and a frontier
# of 6 still twofold.
PARETO_FRONTIER = 5


@dataclass(frozen=True)
class Command:
    """One CLI invocation on one generated document.

    `kind` is the subcommand (solve, check or construct). `expect_exit` is
    the exit code fixed by how the input was built: 0 everywhere, because
    every workload avoids the caps and builds only rules the paper's
    theorems implement. `check`, given the document and the parsed JSON
    output, returns what is wrong with the output, or None; it uses only
    this file's own code.
    """

    kind: str
    doc: str
    args: tuple[str, ...]
    expect_exit: int = 0
    check: Callable[[dict, dict], str | None] | None = field(default=None, compare=False)

    @property
    def label(self) -> str:
        return " ".join((self.kind, self.doc) + self.args)

    def argv(self, path: str) -> list[str]:
        return [self.kind, path, *self.args, "--format", "json"]


@dataclass
class Workload:
    docs: dict[str, dict]
    commands: list[Command]


def _ranks(order: list[int]) -> list[int]:
    row = [0] * len(order)
    for pos, alt in enumerate(order):
        row[alt] = pos
    return row


def _random_ranks(rng: random.Random, n_agents: int, n_alts: int) -> list[list[int]]:
    rows = []
    for _ in range(n_agents):
        order = list(range(n_alts))
        rng.shuffle(order)
        rows.append(_ranks(order))
    return rows


# ---------------------------------------------------------------------------
# sparse-solve


def _sparse_doc(
    rng: random.Random,
    n_states: int,
    n_agents: int,
    n_outcomes: int,
    out_degree: int,
    family: Callable[[random.Random], list[list[int]]],
    own_outcomes: bool = False,
) -> dict:
    """One profile over a random sparse rights structure.

    Each state gets `out_degree` distinct random targets; `family` draws
    the coalitions of each gamma entry. With `own_outcomes` state i has
    outcome z_i, and the first target of each state is one that a random
    agent ranks above it, so no state is a sink when that agent may move.
    """
    ranks = _random_ranks(rng, n_agents, n_outcomes)
    alternatives = [f"z{i}" for i in range(n_outcomes)]
    if own_outcomes:
        outcomes = list(range(n_states))
        by_rank = [sorted(range(n_outcomes), key=row.__getitem__) for row in ranks]
    else:
        outcomes = [rng.randrange(n_outcomes) for _ in range(n_states)]
    states = [
        {"id": f"s{i}", "kind": "base", "outcome": alternatives[z]}
        for i, z in enumerate(outcomes)
    ]
    gamma = []
    for i in range(n_states):
        targets: list[int] = []
        if own_outcomes:
            agent = rng.randrange(n_agents)
            if ranks[agent][i] == 0:
                agent = (agent + 1) % n_agents
            targets.append(by_rank[agent][rng.randrange(ranks[agent][i])])
        while len(targets) < out_degree:
            t = rng.randrange(n_states)
            if t != i and t not in targets:
                targets.append(t)
        for t in targets:
            gamma.append({"from": f"s{i}", "to": f"s{t}", "coalitions": family(rng)})
    return {
        "alternatives": alternatives,
        "agents": n_agents,
        "profiles": [{"id": "R", "ranks": ranks}],
        "rights": {"states": states, "gamma": gamma},
    }


def absorbing_sets(doc: dict) -> list[list[str]]:
    """Terminal SCCs of a sparse document's improvement digraph, in
    declaration order, computed independently of rotakit (Kosaraju)."""
    alt = {a: i for i, a in enumerate(doc["alternatives"])}
    ranks = doc["profiles"][0]["ranks"]
    ids = [s["id"] for s in doc["rights"]["states"]]
    index = {s: i for i, s in enumerate(ids)}
    outcome = [alt[s["outcome"]] for s in doc["rights"]["states"]]
    n = len(ids)
    succ: list[list[int]] = [[] for _ in range(n)]
    pred: list[list[int]] = [[] for _ in range(n)]
    for g in doc["rights"]["gamma"]:
        a, b = index[g["from"]], index[g["to"]]
        za, zb = outcome[a], outcome[b]
        if any(all(ranks[i][zb] < ranks[i][za] for i in k) for k in g["coalitions"]):
            succ[a].append(b)
            pred[b].append(a)
    finished, seen = [], [False] * n
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        stack = [(root, iter(succ[root]))]
        while stack:
            v, it = stack[-1]
            for w in it:
                if not seen[w]:
                    seen[w] = True
                    stack.append((w, iter(succ[w])))
                    break
            else:
                stack.pop()
                finished.append(v)
    comp = [-1] * n
    comps: list[list[int]] = []
    for root in reversed(finished):
        if comp[root] >= 0:
            continue
        members = [root]
        comp[root] = len(comps)
        for v in members:
            for w in pred[v]:
                if comp[w] < 0:
                    comp[w] = len(comps)
                    members.append(w)
        comps.append(members)
    terminal = sorted(
        sorted(m) for m in comps if all(comp[w] == comp[m[0]] for v in m for w in succ[v])
    )
    return [[ids[i] for i in m] for m in terminal]


def _check_solve(concept: str) -> Callable[[dict, dict], str | None]:
    def check(doc: dict, payload: dict) -> str | None:
        blocks = absorbing_sets(doc)
        if concept == "absorbing":
            expected = blocks
        elif concept == "mss":
            members = {s for b in blocks for s in b}
            expected = [[s["id"] for s in doc["rights"]["states"] if s["id"] in members]]
        else:  # every pick of one state per absorbing set is a generalized stable set
            expected = [list(pick) for pick in itertools.product(*blocks)]
        if payload.get("sets") != expected:
            return f"{concept} sets differ from the terminal SCCs"
        return None

    return check


def _check_verified(doc: dict, payload: dict) -> str | None:
    return None if payload.get("verification", {}).get("ok") is True else "verification failed"


def sparse_solve(seed: int, scale: float = 1.0) -> Workload:
    rng = random.Random(f"sparse-solve/{seed}")
    every_coalition = [
        list(c) for size in (1, 2, 3) for c in itertools.combinations(range(3), size)
    ]
    many = max(40, int(3200 * scale))
    giant = max(40, int(1600 * scale))
    singletons = [[i] for i in range(5)]
    docs = {
        # hundreds of small absorbing sets, thousands of outside states
        "many-cores.json": _sparse_doc(
            rng, many, 3, 40, 4, lambda r: r.sample(every_coalition, r.randint(1, 2))
        ),
        # every agent may move alone along every entry, so almost every state
        # improves somewhere and one terminal SCC holds nearly all of them
        "giant-scc.json": _sparse_doc(
            rng, giant, 5, giant, 4, lambda r: singletons, own_outcomes=True
        ),
    }
    commands = [
        Command(
            "solve", doc, ("--profile", "R", "--concept", concept), check=_check_solve(concept)
        )
        for doc, concepts in (
            ("many-cores.json", ("mss", "absorbing")),
            ("giant-scc.json", ("mss", "generalized")),
        )
        for concept in concepts
    ]
    return Workload(docs, commands)


# ---------------------------------------------------------------------------
# scr-pareto


def _pareto_frontier(ranks: list[list[int]]) -> list[int]:
    n = len(ranks[0])
    return [
        z
        for z in range(n)
        if not any(all(row[x] < row[z] for row in ranks) for x in range(n) if x != z)
    ]


def _pareto_doc(rng: random.Random, n_profiles: int) -> dict:
    n_alts, n_agents = 10, 3
    alternatives = [f"a{i}" for i in range(n_alts)]
    profiles, scr = [], {}
    while len(profiles) < n_profiles:
        ranks = _random_ranks(rng, n_agents, n_alts)
        frontier = _pareto_frontier(ranks)
        if len(frontier) != PARETO_FRONTIER:
            continue
        pid = f"R{len(profiles)}"
        profiles.append({"id": pid, "ranks": ranks})
        scr[pid] = [alternatives[z] for z in frontier]
    return {"alternatives": alternatives, "agents": n_agents, "profiles": profiles, "scr": scr}


def scr_pareto(seed: int, scale: float = 1.0) -> Workload:
    """The full-Pareto-frontier rule of random linear profiles, two documents.

    The rule is efficient and Maskin monotone, so the Theorem-1 structure
    implements it in the MSS and `construct --verify mss` exits 0.
    Profiles whose frontier is not PARETO_FRONTIER outcomes are redrawn,
    which also keeps every chosen set under the ordering cap. A pass runs
    two independent documents because the Theorem-1 verify's cost still
    differs by up to 20% from one document to the next.
    """
    rng = random.Random(f"scr-pareto/{seed}")
    n_profiles = max(2, int(36 * scale))
    docs = {name: _pareto_doc(rng, n_profiles) for name in ("pareto-a.json", "pareto-b.json")}
    commands = []
    for name in docs:
        commands += [
            Command(
                "construct", name, ("--theorem", "1", "--verify", "mss"), check=_check_verified
            ),
            Command("check", name, ("--condition", "rotation")),
            Command("check", name, ("--condition", "shared-ordering")),
        ]
    return Workload(docs, commands)


# ---------------------------------------------------------------------------
# domain-pipelines


def _economy_doc(rng: random.Random, n: int, n_profiles: int) -> dict:
    houses = [f"h{i + 1}" for i in range(n)]
    owners = {h: sorted(rng.sample(range(n), rng.randint(1, min(2, n)))) for h in houses}
    profiles = []
    for k in range(n_profiles):
        orders = []
        for _ in range(n):
            order = list(houses)
            rng.shuffle(order)
            orders.append(order + ["h0"])
        profiles.append({"id": f"R{k}", "orders": orders})
    return {
        "kind": "economy",
        "agents": n,
        "houses": houses,
        "outside": "h0",
        "owners": owners,
        "profiles": profiles,
    }


def _marriage_doc(rng: random.Random, n: int, n_profiles: int) -> dict:
    men = [f"m{i + 1}" for i in range(n)]
    women = [f"w{i + 1}" for i in range(n)]
    profiles = []
    for k in range(n_profiles):
        side = {}
        for group, others in ((men, women), (women, men)):
            for a in group:
                lst = others + [a]
                rng.shuffle(lst)
                side[a] = lst
        profiles.append(
            {
                "id": f"R{k}",
                "men": {m: side[m] for m in men},
                "women": {w: side[w] for w in women},
            }
        )
    return {"kind": "marriage", "men": men, "women": women, "pure": False, "profiles": profiles}


def _jobs_common_best_doc(rng: random.Random, n: int, n_profiles: int) -> dict:
    """Distinct profiles in which every agent ranks j1 first."""
    jobs = [f"j{i + 1}" for i in range(n)]
    profiles: list[list[list[str]]] = []
    while len(profiles) < n_profiles:
        orders = []
        for _ in range(n):
            rest = jobs[1:]
            rng.shuffle(rest)
            orders.append(["j1"] + rest)
        if orders not in profiles:
            profiles.append(orders)
    return {
        "kind": "jobs",
        "jobs": jobs,
        "profiles": [{"id": f"P{k}", "orders": o} for k, o in enumerate(profiles)],
    }


def domain_pipelines(seed: int, scale: float = 1.0) -> Workload:
    """The paper's application pipelines.

    The marriage-optimal rule and the efficient rule on common-best job
    domains are implemented in rotation programs by the Theorem-4
    structure over their canonical orderings, so both constructs exit 0.
    """
    rng = random.Random(f"domain-pipelines/{seed}")
    small = scale < 1.0
    docs = {
        "economy.json": _economy_doc(rng, 3 if small else 4, 2),
        "marriage.json": _marriage_doc(rng, 3, 2),
        "jobs.json": _jobs_common_best_doc(rng, 4 if small else 5, 2),
    }
    theorem4 = ("--theorem", "4", "--verify", "rotation")
    commands = [
        Command("solve", "economy.json", ("--profile", "R0", "--concept", "mss")),
        Command("check", "economy.json", ("--condition", "efficiency")),
        Command("construct", "marriage.json", theorem4, check=_check_verified),
        Command("construct", "jobs.json", theorem4, check=_check_verified),
    ]
    return Workload(docs, commands)


WORKLOADS = {
    "sparse-solve": sparse_solve,
    "scr-pareto": scr_pareto,
    "domain-pipelines": domain_pipelines,
}
