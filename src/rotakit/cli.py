"""Command-line front end.

    rotakit solve FILE --profile ID --concept CONCEPT
    rotakit check FILE --condition CONDITION
    rotakit construct FILE --theorem {1,4} [--verify {mss,rotation}]
    rotakit domain FILE [--rule RULE]
    rotakit export-dot FILE --profile ID

Exit codes: 0 success, 1 input error, 2 solve/verification failure,
3 cap exceeded (search refused, never truncated), 4 construction
obstruction (no shared ordering exists).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from typing import Any, Mapping

from . import conditions, constructors, serialize, solvers
from .model import CapExceeded, InputError, SocialChoiceRule
from .rights import SocialEnvironment, build_improvement_digraph

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_SOLVE = 2
EXIT_CAPPED = 3
EXIT_OBSTRUCTION = 4

DEFAULT_CAPS = {"ordering": conditions.ORDER_SEARCH_CAP, "product": solvers.GENERALIZED_PRODUCT_CAP}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        raise InputError(message)


@dataclasses.dataclass
class RunConfig:
    command: str
    path: str
    out: str | None
    fmt: str
    caps: dict[str, int]
    forward_iii: bool
    jobs: int
    options: dict[str, Any]


def _caps_from_env() -> dict[str, int]:
    caps = dict(DEFAULT_CAPS)
    raw = os.environ.get("ROTAKIT_CAPS", "")
    for chunk in raw.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise InputError(f"ROTAKIT_CAPS: expected name=value, got {chunk!r}")
        name, value = chunk.split("=", 1)
        name = name.strip()
        if name not in DEFAULT_CAPS:
            raise InputError(
                f"ROTAKIT_CAPS: unknown cap {name!r}; known caps: {', '.join(DEFAULT_CAPS)}"
            )
        try:
            caps[name] = int(value)
        except ValueError:
            raise InputError(f"ROTAKIT_CAPS: bad integer {value!r}") from None
    if any(v <= 0 for v in caps.values()):
        raise InputError("caps must be positive")
    return caps


def _build_parser() -> _Parser:
    parser = _Parser(prog="rotakit")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("file")
        sp.add_argument("--out", default=None)
        sp.add_argument("--format", dest="fmt", choices=("json", "text"), default="text")
        sp.add_argument("--cap", type=int, default=None, help="ordering search cap")
        sp.add_argument("--jobs", type=int, default=1)
        sp.add_argument(
            "--backward-iii",
            action="store_true",
            help="read rotation clause (iii) in the backward direction",
        )

    sp = sub.add_parser("solve", help="run a solution concept on an environment")
    common(sp)
    sp.add_argument("--profile", required=True)
    sp.add_argument(
        "--concept",
        required=True,
        choices=("core", "mss", "absorbing", "generalized", "partition", "rotation"),
    )
    sp.add_argument(
        "--order",
        default=None,
        help="states for --concept rotation, comma-separated; use ';' as the "
        "separator when state ids themselves contain commas",
    )

    sp = sub.add_parser("check", help="check a condition on an SCR")
    common(sp)
    sp.add_argument(
        "--condition",
        required=True,
        choices=(
            "domain",
            "efficiency",
            "maskin",
            "indirect",
            "rotation",
            "property-m",
            "shared-ordering",
        ),
    )
    sp.add_argument("--rule", default=None, help="rule for domain documents")

    sp = sub.add_parser("construct", help="build a canonical implementing structure")
    common(sp)
    sp.add_argument("--theorem", required=True, choices=("1", "4"))
    sp.add_argument("--verify", choices=("mss", "rotation"), default=None)
    sp.add_argument("--rule", default=None)

    sp = sub.add_parser("domain", help="compile a domain document to SCR JSON")
    sp.add_argument("file", nargs="?", default=None)
    sp.add_argument("--out", default=None)
    sp.add_argument("--format", dest="fmt", choices=("json", "text"), default="text")
    sp.add_argument("--cap", type=int, default=None)
    sp.add_argument("--jobs", type=int, default=1)
    sp.add_argument("--backward-iii", action="store_true")
    sp.add_argument("--rule", default=None)
    sp.add_argument(
        "--sample",
        choices=("jobs-common-best", "jobs-hat", "marriage", "economy"),
        default=None,
        help="emit a seeded random domain document instead of compiling a file",
    )
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--agents", type=int, default=3)
    sp.add_argument("--profiles", type=int, default=2)

    sp = sub.add_parser("export-dot", help="emit the improvement digraph as DOT")
    common(sp)
    sp.add_argument("--profile", required=True)
    sp.add_argument("--highlight", choices=("mss", "core"), default=None)
    sp.add_argument(
        "--partition",
        action="store_true",
        help="cluster the MSS into rotation-program blocks when a partition exists",
    )
    return parser


def _emit(config: RunConfig, payload: Mapping[str, Any], text: str | None = None) -> None:
    if config.fmt == "json" or text is None:
        body = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        body = text if text.endswith("\n") else text + "\n"
    if config.out:
        with open(config.out, "w", encoding="utf-8") as fh:
            fh.write(body)
    else:
        sys.stdout.write(body)


def _load_scr(config: RunConfig) -> SocialChoiceRule:
    doc = serialize.load_document(config.path)
    if serialize.is_domain_doc(doc):
        scr, _ = serialize.domain_scr(doc, config.options.get("rule"))
        return scr
    return serialize.scr_from_doc(doc)


def _load_environment(config: RunConfig, profile_id: str) -> SocialEnvironment:
    doc = serialize.load_document(config.path)
    if serialize.is_domain_doc(doc):
        return serialize.domain_environment(doc, profile_id)
    return serialize.environment_from_doc(doc, profile_id)


def _cmd_solve(config: RunConfig) -> int:
    env = _load_environment(config, config.options["profile"])
    dg = build_improvement_digraph(env)
    concept = config.options["concept"]
    if concept == "core":
        report = solvers.compute_core(env, dg)
        payload = report.as_dict()
        text = f"core states: {list(report.sets[0])}\noutcomes: {list(report.outcomes[0])}"
    elif concept == "mss":
        report = solvers.compute_mss(env, dg)
        payload = report.as_dict()
        text = f"MSS states: {list(report.sets[0])}\noutcomes: {list(report.outcomes[0])}"
    elif concept == "absorbing":
        blocks = solvers.compute_absorbing_sets(env, dg)
        payload = {"concept": "absorbing", "sets": [list(b) for b in blocks]}
        text = "\n".join(f"absorbing set {i + 1}: {list(b)}" for i, b in enumerate(blocks))
    elif concept == "generalized":
        sets = solvers.compute_generalized_stable_sets(env, dg, cap=config.caps["product"])
        payload = {"concept": "generalized", "sets": [list(v) for v in sets]}
        text = "\n".join(f"generalized stable set {i + 1}: {list(v)}" for i, v in enumerate(sets))
    elif concept == "rotation":
        raw = config.options.get("order")
        if not raw:
            raise InputError("--concept rotation needs --order s1,s2,...")
        sep = ";" if ";" in raw else ","
        verdict = solvers.is_rotation_program(
            env, [s.strip() for s in raw.split(sep)], forward=config.forward_iii, digraph=dg
        )
        payload = {
            "concept": "rotation-program",
            "ok": verdict.ok,
            "clause": verdict.clause,
            "detail": verdict.detail,
        }
        text = "rotation program" if verdict.ok else (
            f"not a rotation program (clause {verdict.clause}): {verdict.detail}"
        )
    else:  # partition
        mss = solvers.compute_mss(env, dg)
        result = solvers.partition_into_rotation_programs(env, mss.states, dg)
        payload = {
            "concept": "partition",
            "ok": result.ok,
            "blocks": [list(b) for b in result.blocks],
            "witness": result.witness_state,
            "reason": result.reason,
        }
        if result.ok:
            text = "\n".join(
                f"rotation program {i + 1}: {list(b)}" for i, b in enumerate(result.blocks)
            )
        else:
            text = f"no partition: {result.reason} (witness {result.witness_state})"
        _emit(config, payload, text)
        return EXIT_OK if result.ok else EXIT_SOLVE
    _emit(config, payload, text)
    return EXIT_OK


def _cmd_check(config: RunConfig) -> int:
    condition = config.options["condition"]
    scr = _load_scr(config)
    cap = config.options.get("cap") or config.caps["ordering"]
    if condition == "domain":
        from .model import validate_domain_restriction

        bad = [
            (p.id, v.pair)
            for p in scr.profiles
            for v in [validate_domain_restriction(p)]
            if not v.ok
        ]
        payload = {"condition": "domain-restriction", "ok": not bad, "violations": bad}
        text = "ok" if not bad else f"violated: {bad}"
    elif condition == "efficiency":
        from .model import check_efficiency

        v = check_efficiency(scr)
        payload = {
            "condition": "efficiency",
            "ok": v.ok,
            "counterexample": None
            if v.ok
            else {"profile": v.profile_id, "outcome": v.outcome, "dominator": v.dominator},
        }
        text = "ok" if v.ok else (
            f"violated: {v.dominator} dominates chosen {v.outcome} at {v.profile_id}"
        )
    elif condition == "maskin":
        v = conditions.check_maskin_monotonicity(scr)
        payload = {"condition": "maskin-monotonicity", "ok": v.ok, "counterexample": v.counterexample}
        text = "ok" if v.ok else f"violated at (R, R', z) = {v.counterexample}"
    elif condition == "indirect":
        v = conditions.check_indirect_monotonicity(scr)
        payload = {
            "condition": "indirect-monotonicity",
            "ok": v.ok,
            "failing": v.failing,
            "witnesses": [dataclasses.asdict(w) for w in v.witnesses],
        }
        text = "ok" if v.ok else f"violated at (R, R', z) = {v.failing}"
    elif condition == "rotation":
        v = conditions.check_rotation_monotonicity(scr, cap=cap)
        payload = {
            "condition": "rotation-monotonicity",
            "ok": v.ok,
            "orderings": {pid: list(o) for pid, o in v.witness.orderings.items()}
            if v.witness
            else None,
            "obstructions": [
                {
                    "profile": o.profile_id,
                    "failures": [
                        {"ordering": list(ordering), "other": rp, "outcome": x}
                        for ordering, rp, x in o.failures
                    ],
                }
                for o in v.obstructions
            ],
        }
        text = (
            f"satisfied; orderings {dict(v.witness.orderings)}"
            if v.ok
            else "violated for every circular ordering at "
            + ", ".join(o.profile_id for o in v.obstructions)
        )
    elif condition == "property-m":
        rot = conditions.check_rotation_monotonicity(scr, cap=cap)
        if rot.witness is None:
            payload = {"condition": "property-m", "ok": False, "note": "no rotation-monotone ordering"}
            text = "cannot evaluate: rotation monotonicity already fails"
            _emit(config, payload, text)
            return EXIT_OK
        v = conditions.check_property_m(scr, rot.witness)
        payload = {
            "condition": "property-m",
            "ok": v.ok,
            "failure": dataclasses.asdict(v.failure) if v.failure else None,
        }
        text = "ok" if v.ok else f"violated: {v.failure}"
    else:  # shared-ordering
        witness = conditions.find_shared_ordering(scr, cap=cap)
        payload = {
            "condition": "shared-ordering",
            "ok": witness is not None,
            "orderings": dict(witness.orderings) if witness else None,
        }
        text = f"found {dict(witness.orderings)}" if witness else "no shared ordering exists"
    _emit(config, payload, text)
    return EXIT_OK


def _cmd_construct(config: RunConfig) -> int:
    scr = _load_scr(config)
    cap = config.options.get("cap") or config.caps["ordering"]
    theorem = config.options["theorem"]
    if theorem == "1":
        structure = constructors.build_thm1_structure(scr)
    else:
        doc = serialize.load_document(config.path)
        witness = None
        if serialize.is_domain_doc(doc):
            _, witness = serialize.domain_scr(doc, config.options.get("rule"))
        if witness is None:
            witness = conditions.find_shared_ordering(scr, cap=cap)
        if witness is None:
            _emit(
                config,
                {"ok": False, "obstruction": "no ordering satisfies rotation monotonicity and Property M"},
                "no shared ordering exists",
            )
            return EXIT_OBSTRUCTION
        structure = constructors.build_thm4_structure(scr, witness)
    payload: dict[str, Any] = serialize.environment_to_doc(scr, scr.profiles, structure)
    verify = config.options.get("verify")
    code = EXIT_OK
    lines = [f"built theorem-{theorem} structure with {len(structure.states)} states"]
    if verify:
        if verify == "mss":
            report = constructors.verify_implementation_in_mss(structure, scr, jobs=config.jobs)
        else:
            report = constructors.verify_implementation_in_rotation_programs(
                structure, scr, jobs=config.jobs
            )
        payload["verification"] = {
            "kind": report.kind,
            "ok": report.ok,
            "profiles": [
                {
                    "profile": v.profile_id,
                    "ok": v.ok,
                    "expected": sorted(v.expected),
                    "actual": sorted(v.actual),
                }
                for v in report.per_profile
            ],
        }
        for v in report.per_profile:
            lines.append(
                f"  {v.profile_id}: {'pass' if v.ok else 'FAIL'}"
                + ("" if v.ok else f" expected {sorted(v.expected)} got {sorted(v.actual)}")
            )
        if not report.ok:
            code = EXIT_SOLVE
    _emit(config, payload, "\n".join(lines))
    return code


def _cmd_domain(config: RunConfig) -> int:
    sample = config.options.get("sample")
    if sample:
        payload = _sample_domain(config, sample)
        _emit(config, payload, None)
        return EXIT_OK
    if config.path is None:
        raise InputError("domain needs a file or --sample")
    doc = serialize.load_document(config.path)
    if not serialize.is_domain_doc(doc):
        raise InputError("not a domain document")
    scr, witness = serialize.domain_scr(doc, config.options.get("rule"))
    payload = serialize.scr_to_doc(scr)
    if witness is not None:
        payload["orderings"] = {pid: list(o) for pid, o in witness.orderings.items()}
    _emit(config, payload, None)
    return EXIT_OK


def _sample_domain(config: RunConfig, sample: str) -> dict:
    import random

    from . import generators
    from .domains.housing import Economy

    rng = random.Random(config.options.get("seed", 0))
    n = config.options.get("agents", 3)
    k = config.options.get("profiles", 2)
    if sample == "jobs-common-best":
        return serialize.jobs_to_doc(generators.random_common_best_domain(rng, n, k))
    if sample == "jobs-hat":
        return serialize.jobs_to_doc(generators.random_hat_domain(rng, n, k))
    if sample == "marriage":
        problems = [
            generators.random_marriage_problem(rng, f"R{i}", n, n) for i in range(k)
        ]
        return serialize.marriage_to_doc(problems)
    first = generators.random_economy(rng, "R0", n)
    economies = [first]
    for i in range(1, k):
        other = generators.random_economy(rng, f"R{i}", n)
        economies.append(
            Economy(f"R{i}", n, first.houses, first.outside, first.owners, other.orders)
        )
    return serialize.economy_to_doc(economies)


def _cmd_export_dot(config: RunConfig) -> int:
    env = _load_environment(config, config.options["profile"])
    dg = build_improvement_digraph(env)
    highlight: tuple[str, ...] = ()
    blocks = None
    if config.options.get("highlight") == "mss":
        highlight = tuple(solvers.compute_mss(env, dg).states)
    elif config.options.get("highlight") == "core":
        highlight = solvers.compute_core(env, dg).sets[0]
    if config.options.get("partition"):
        mss = solvers.compute_mss(env, dg)
        result = solvers.partition_into_rotation_programs(env, mss.states, dg)
        if result.ok:
            blocks = result.blocks
    dot = serialize.digraph_to_dot(dg, env, highlight, blocks)
    if config.out:
        with open(config.out, "w", encoding="utf-8") as fh:
            fh.write(dot)
    else:
        sys.stdout.write(dot)
    return EXIT_OK


_COMMANDS = {
    "solve": _cmd_solve,
    "check": _cmd_check,
    "construct": _cmd_construct,
    "domain": _cmd_domain,
    "export-dot": _cmd_export_dot,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
        caps = _caps_from_env()
        if getattr(ns, "jobs", 1) < 1:
            raise InputError("--jobs must be positive")
        if getattr(ns, "cap", None) is not None and ns.cap < 1:
            raise InputError("--cap must be positive")
        options = {
            k: v
            for k, v in vars(ns).items()
            if k not in ("command", "file", "out", "fmt", "jobs", "backward_iii")
        }
        config = RunConfig(
            command=ns.command,
            path=ns.file,
            out=ns.out,
            fmt=ns.fmt,
            caps=caps,
            forward_iii=not ns.backward_iii,
            jobs=ns.jobs,
            options=options,
        )
        return _COMMANDS[ns.command](config)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except CapExceeded as exc:
        print(f"search truncated: {exc}", file=sys.stderr)
        return EXIT_CAPPED


if __name__ == "__main__":
    sys.exit(main())
