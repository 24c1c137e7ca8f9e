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
import gc
import json
import sys
from typing import Any, Mapping

from . import conditions, constructors, model, serialize, solvers
from .model import CapExceeded, InputError, SocialChoiceRule
from .rights import SocialEnvironment, build_improvement_digraph

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_SOLVE = 2
EXIT_CAPPED = 3
EXIT_OBSTRUCTION = 4

# bench/tracer.py reads both entries when it installs
DEFAULT_CAPS = {"ordering": conditions.ORDER_SEARCH_CAP, "product": solvers.GENERALIZED_PRODUCT_CAP}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        raise InputError(message)


def _positive_int(text: str) -> int:
    value = int(text)  # argparse reports a ValueError as an invalid value
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _build_parser() -> _Parser:
    parser = _Parser(prog="rotakit")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, file_nargs=None):
        sp.add_argument("file", nargs=file_nargs, default=None)
        sp.add_argument("--out", default=None)
        sp.add_argument("--format", dest="fmt", choices=("json", "text"), default="text")

    def cap(sp):
        sp.add_argument("--cap", type=_positive_int, default=DEFAULT_CAPS["ordering"],
                        help="ordering search cap")

    sp = sub.add_parser("solve", help="run a solution concept on an environment")
    common(sp)
    sp.add_argument(
        "--backward-iii",
        action="store_true",
        help="read rotation clause (iii) in the backward direction",
    )
    sp.add_argument("--profile", required=True)
    sp.add_argument("--concept", required=True, choices=tuple(_SOLVERS))
    sp.add_argument(
        "--order",
        default=None,
        help="states for --concept rotation, comma-separated; use ';' as the "
        "separator when state ids themselves contain commas",
    )

    sp = sub.add_parser("check", help="check a condition on an SCR")
    common(sp)
    cap(sp)
    sp.add_argument("--condition", required=True, choices=tuple(_CHECKS))
    sp.add_argument("--rule", default=None, help="rule for domain documents")

    sp = sub.add_parser("construct", help="build a canonical implementing structure")
    common(sp)
    cap(sp)
    sp.add_argument("--theorem", required=True, choices=("1", "4"))
    sp.add_argument("--verify", choices=("mss", "rotation"), default=None)
    sp.add_argument("--rule", default=None)

    sp = sub.add_parser("domain", help="compile a domain document to SCR JSON")
    common(sp, file_nargs="?")
    sp.add_argument("--rule", default=None)
    sp.add_argument(
        "--sample",
        choices=("jobs-common-best", "jobs-hat", "marriage", "economy"),
        default=None,
        help="emit a seeded random domain document instead of compiling a file",
    )
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--agents", type=_positive_int, default=3)
    sp.add_argument("--profiles", type=_positive_int, default=2)

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


def _write(out: str | None, body: str) -> None:
    """Write UTF-8 to `out`, or else the same bytes to stdout, whatever its encoding."""
    if not out:
        buffer = getattr(sys.stdout, "buffer", None)
        if buffer is None:  # a text-only stream, such as io.StringIO
            sys.stdout.write(body)
        else:
            sys.stdout.flush()
            buffer.write(body.encode("utf-8"))
        return
    try:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(body)
    except OSError as exc:  # a missing directory, a directory, no permission, a full disk
        raise InputError(f"cannot write {out}: {exc.strerror or exc}") from None


def _emit(ns: argparse.Namespace, payload: Mapping[str, Any], text: str | None = None) -> None:
    if ns.fmt == "json" or text is None:
        body = serialize.dumps(payload, "\n")
    else:
        body = text if text.endswith("\n") else text + "\n"
    _write(ns.out, body)


def _load_scr(ns: argparse.Namespace) -> tuple[SocialChoiceRule, conditions.OrderingWitness | None]:
    """The document's SCR, plus the canonical orderings a domain rule defines."""
    doc = serialize.load_document(ns.file)
    if serialize.is_domain_doc(doc):
        return serialize.domain_scr(doc, ns.rule)
    if ns.rule is not None:
        raise InputError(f"--rule {ns.rule!r} applies only to domain documents")
    return serialize.scr_from_doc(doc), None


def _load_environment(ns: argparse.Namespace) -> SocialEnvironment:
    doc = serialize.load_document(ns.file)
    if serialize.is_domain_doc(doc):
        return serialize.domain_environment(doc, ns.profile)
    return serialize.environment_from_doc(doc, ns.profile)


# solve: concept -> fn(ns, env, digraph) -> (payload, text, exit code)


def _report(label: str, report: solvers.SolutionReport):
    text = f"{label} states: {list(report.sets[0])}\noutcomes: {list(report.outcomes[0])}"
    return report.as_dict(), text, EXIT_OK


def _numbered(label: str, sets) -> str:
    return "\n".join(f"{label} {i + 1}: {list(v)}" for i, v in enumerate(sets))


def _solve_core(ns, env, dg):
    return _report("core", solvers.compute_core(env, dg))


def _solve_mss(ns, env, dg):
    return _report("MSS", solvers.compute_mss(env, dg))


def _solve_absorbing(ns, env, dg):
    blocks = solvers.compute_absorbing_sets(env, dg)
    payload = {"concept": "absorbing", "sets": [list(b) for b in blocks]}
    return payload, _numbered("absorbing set", blocks), EXIT_OK


def _solve_generalized(ns, env, dg):
    sets = solvers.compute_generalized_stable_sets(env, dg)  # refused past GENERALIZED_PRODUCT_CAP
    payload = {"concept": "generalized", "sets": [list(v) for v in sets]}
    return payload, _numbered("generalized stable set", sets), EXIT_OK


def _solve_partition(ns, env, dg):
    mss = solvers.verified_mss_states(env, dg)
    result = solvers.partition_into_rotation_programs(env, mss, dg)
    payload = {
        "concept": "partition",
        "ok": result.ok,
        "blocks": [list(b) for b in result.blocks],
        "witness": result.witness_state,
        "reason": result.reason,
    }
    if not result.ok:
        return payload, f"no partition: {result.reason} (witness {result.witness_state})", EXIT_SOLVE
    return payload, _numbered("rotation program", result.blocks), EXIT_OK


def _solve_rotation(ns, env, dg):
    if not ns.order:
        raise InputError("--concept rotation needs --order s1,s2,...")
    sep = ";" if ";" in ns.order else ","
    verdict = solvers.is_rotation_program(
        env, [s.strip() for s in ns.order.split(sep)], forward=not ns.backward_iii, digraph=dg
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
    return payload, text, EXIT_OK


_SOLVERS = {
    "core": _solve_core,
    "mss": _solve_mss,
    "absorbing": _solve_absorbing,
    "generalized": _solve_generalized,
    "partition": _solve_partition,
    "rotation": _solve_rotation,
}


# check: condition -> fn(scr, ordering cap) -> (payload, text, exit code)


def _check_domain(scr, cap):
    verdicts = {p.id: model.validate_domain_restriction(p) for p in scr.profiles}
    bad = [(pid, v.pair) for pid, v in verdicts.items() if not v]
    payload = {"condition": "domain-restriction", "ok": not bad, "violations": bad}
    return payload, "ok" if not bad else f"violated: {bad}", EXIT_OK


def _check_efficiency(scr, cap):
    v = model.check_efficiency(scr)
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
    return payload, text, EXIT_OK


def _check_maskin(scr, cap):
    v = conditions.check_maskin_monotonicity(scr)
    payload = {"condition": "maskin-monotonicity", "ok": v.ok, "counterexample": v.counterexample}
    return payload, "ok" if v.ok else f"violated at (R, R', z) = {v.counterexample}", EXIT_OK


def _check_indirect(scr, cap):
    v = conditions.check_indirect_monotonicity(scr)
    payload = {
        "condition": "indirect-monotonicity",
        "ok": v.ok,
        "failing": v.failing,
        "witnesses": [
            {"profile_id": w.profile_id, "other_id": w.other_id, "outcome": w.outcome,
             "path": w.path, "step_agents": w.step_agents, "reversal_agent": w.reversal_agent}
            for w in v.witnesses
        ],
    }
    return payload, "ok" if v.ok else f"violated at (R, R', z) = {v.failing}", EXIT_OK


def _check_rotation(scr, cap):
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
    return payload, text, EXIT_OK


def _check_property_m(scr, cap):
    v = conditions._property_m_at_shared_orderings(scr, cap=cap)
    if v is None:
        payload = {"condition": "property-m", "ok": False, "note": "no rotation-monotone ordering"}
        return payload, "cannot evaluate: rotation monotonicity already fails", EXIT_OK
    f = v.failure
    failure = None if f is None else {
        "profile_id": f.profile_id, "other_id": f.other_id, "outcome": f.outcome, "reason": f.reason
    }
    payload = {"condition": "property-m", "ok": v.ok, "failure": failure}
    return payload, "ok" if v.ok else f"violated: {v.failure}", EXIT_OK


def _check_shared_ordering(scr, cap):
    witness = conditions.find_shared_ordering(scr, cap=cap)
    payload = {
        "condition": "shared-ordering",
        "ok": witness is not None,
        "orderings": dict(witness.orderings) if witness else None,
    }
    text = f"found {dict(witness.orderings)}" if witness else "no shared ordering exists"
    return payload, text, EXIT_OK


_CHECKS = {
    "domain": _check_domain,
    "efficiency": _check_efficiency,
    "maskin": _check_maskin,
    "indirect": _check_indirect,
    "rotation": _check_rotation,
    "property-m": _check_property_m,
    "shared-ordering": _check_shared_ordering,
}


# subcommands: fn(ns) -> exit code


def _cmd_solve(ns: argparse.Namespace) -> int:
    env = _load_environment(ns)
    dg = build_improvement_digraph(env)
    payload, text, code = _SOLVERS[ns.concept](ns, env, dg)
    _emit(ns, payload, text)
    return code


def _cmd_check(ns: argparse.Namespace) -> int:
    scr, _ = _load_scr(ns)
    payload, text, code = _CHECKS[ns.condition](scr, ns.cap)
    _emit(ns, payload, text)
    return code


def _cmd_construct(ns: argparse.Namespace) -> int:
    scr, witness = _load_scr(ns)
    if ns.theorem == "1":
        structure = constructors.build_thm1_structure(scr)
    else:
        if witness is None:
            witness = conditions.find_shared_ordering(scr, cap=ns.cap)
        if witness is None:
            _emit(
                ns,
                {"ok": False, "obstruction": "no ordering satisfies rotation monotonicity and Property M"},
                "no shared ordering exists",
            )
            return EXIT_OBSTRUCTION
        structure = constructors.build_thm4_structure(scr, witness)
    # the structure itself, which `serialize.dumps` writes as `rights_to_doc` would
    payload: dict[str, Any] = {**serialize.scr_to_doc(scr), "rights": structure}
    code = EXIT_OK
    lines = [f"built theorem-{ns.theorem} structure with {len(structure.keys())} states"]
    if ns.verify:
        if ns.verify == "mss":
            report = constructors.verify_implementation_in_mss(structure, scr)
        else:
            report = constructors.verify_implementation_in_rotation_programs(structure, scr)
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
    _emit(ns, payload, "\n".join(lines))
    return code


def _cmd_domain(ns: argparse.Namespace) -> int:
    if ns.sample:
        payload = _sample_domain(ns)
    else:
        if ns.file is None:
            raise InputError("domain needs a file or --sample")
        scr, witness = serialize.domain_scr(serialize.load_document(ns.file), ns.rule)
        payload = serialize.scr_to_doc(scr)
        if witness is not None:
            payload["orderings"] = {pid: list(o) for pid, o in witness.orderings.items()}
    _emit(ns, payload)
    return EXIT_OK


def _sample_domain(ns: argparse.Namespace) -> dict:
    import random

    from . import generators
    from .domains import housing, jobs, marriage

    n, k = ns.agents, ns.profiles
    caps = {"marriage": marriage.MATCHING_CAP, "economy": housing.ECONOMY_CAP}
    cap = caps.get(ns.sample, jobs.EXTENSION_CAP)  # beyond it no command compiles the sample
    CapExceeded.check(n, cap, f"--sample {ns.sample} beyond {cap} agents is refused")
    rng = random.Random(ns.seed)
    if ns.sample == "jobs-common-best":
        return serialize.jobs_to_doc(generators.random_common_best_domain(rng, n, k))
    if ns.sample == "jobs-hat":
        return serialize.jobs_to_doc(generators.random_hat_domain(rng, n, k))
    if ns.sample == "marriage":
        return serialize.marriage_to_doc(generators.random_marriage_domain(rng, n, k))
    return serialize.economy_to_doc(generators.random_economy_domain(rng, n, k))


def _cmd_export_dot(ns: argparse.Namespace) -> int:
    env = _load_environment(ns)
    dg = build_improvement_digraph(env)
    mss: tuple[str, ...] = ()
    if ns.highlight == "mss" or ns.partition:
        mss = solvers.verified_mss_states(env, dg)
    highlight = mss if ns.highlight == "mss" else ()
    if ns.highlight == "core":
        highlight = solvers.compute_core(env, dg).sets[0]
    blocks = None
    if ns.partition:
        result = solvers.partition_into_rotation_programs(env, mss, dg)
        if result.ok:
            blocks = result.blocks
    _write(ns.out, serialize.digraph_to_dot(dg, env, highlight, blocks))
    return EXIT_OK


_COMMANDS = {
    "solve": _cmd_solve,
    "check": _cmd_check,
    "construct": _cmd_construct,
    "domain": _cmd_domain,
    "export-dot": _cmd_export_dot,
}


def main(argv: list[str] | None = None) -> int:
    collecting = gc.isenabled()
    gc.disable()  # a command's data holds no cycles: refcounting frees it, so GC scans are waste
    ns = None  # arguments that fail to parse have no --format yet
    try:
        ns = _PARSER.parse_args(argv)
        return _COMMANDS[ns.command](ns)
    except (InputError, CapExceeded) as exc:
        code = EXIT_INPUT if isinstance(exc, InputError) else EXIT_CAPPED
        label = "error" if code == EXIT_INPUT else "search refused"
        report = {"error": str(exc), "path": getattr(exc, "path", None), "exit": code}
        json_out = getattr(ns, "fmt", None) == "json"  # one object that scripts can parse
        print(json.dumps(report) if json_out else f"{label}: {exc}", file=sys.stderr)
        return code
    finally:
        if collecting:
            gc.enable()


_PARSER = _build_parser()  # after the tables its choices name; built once per process

if __name__ == "__main__":
    sys.exit(main())
