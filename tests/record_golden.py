"""Record the CLI's stdout and exit code for every shipped fixture and command.

    python3 tests/record_golden.py

Run it from any directory; it imports rotakit from the `src` directory next
to this file. It writes `tests/golden/index.json` (argv, exit code and
stdout sha256 per case, argv paths relative to the repository root) and,
for each stdout of at most 32 KiB, `tests/golden/<case>.out` with its bytes
so that a mismatch shows as a diff. `tests/test_golden.py` replays every
case and compares stdout byte for byte, so re-record only after a
deliberate output change. Stderr is not recorded: argparse wording differs between Python
versions.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
MAX_KEPT = 32 * 1024

# fixture -> {profile id: a --order for --concept rotation}; only these
# fixtures induce an environment
ENVIRONMENTS = {
    "example-environment": {"R": "x,y,z", "Rp": "x,y"},
    "economy-domain": {"R": "h2,h3,h1;h2,h1,h3"},
}
FIXTURES = ("example-environment", "economy-domain", "jobs-domain", "marriage-domain")
DOMAIN_RULES = {
    "economy-domain": ("exclusion-core",),
    "jobs-domain": ("efficient", "phi"),
    "marriage-domain": ("optimal-stable", "all-stable"),
}
CONCEPTS = ("core", "mss", "absorbing", "generalized", "partition", "rotation")
CONDITIONS = (
    "domain",
    "efficiency",
    "maskin",
    "indirect",
    "rotation",
    "property-m",
    "shared-ordering",
)
FORMATS = ("json", "text")


def _path(fixture: str) -> str:
    return f"fixtures/{fixture}.json"


def cases() -> list[list[str]]:
    out: list[list[str]] = []
    for fixture, orders in ENVIRONMENTS.items():
        for pid, order in orders.items():
            for concept in CONCEPTS:
                argv = ["solve", _path(fixture), "--profile", pid, "--concept", concept]
                if concept == "rotation":
                    argv += ["--order", order]
                    out.append(argv + ["--backward-iii"])
                out += [argv + ["--format", fmt] for fmt in FORMATS]
            out.append(["solve", _path(fixture), "--profile", pid, "--concept", "rotation"])
            for extra in ([], ["--highlight", "mss"], ["--highlight", "core"], ["--partition"],
                          ["--highlight", "mss", "--partition"]):
                out.append(["export-dot", _path(fixture), "--profile", pid, *extra])
        out.append(["solve", _path(fixture), "--profile", "nobody", "--concept", "mss"])
    out += [["solve", _path(f), "--profile", "R", "--concept", "mss"]
            for f in FIXTURES if f not in ENVIRONMENTS]
    for fixture in FIXTURES:
        for condition in CONDITIONS:
            out += [["check", _path(fixture), "--condition", condition, "--format", fmt]
                    for fmt in FORMATS]
        out.append(["check", _path(fixture), "--condition", "rotation", "--cap", "1"])
        for theorem in ("1", "4"):
            for verify in ([], ["--verify", "mss"], ["--verify", "rotation"]):
                out += [["construct", _path(fixture), "--theorem", theorem, *verify,
                         "--format", fmt] for fmt in FORMATS]
    for fixture, rules in DOMAIN_RULES.items():
        for rule in rules:
            out += [["domain", _path(fixture), "--rule", rule, "--format", fmt]
                    for fmt in FORMATS]
            out += [[cmd, _path(fixture), "--rule", rule, *args] for cmd, args in (
                ("check", ["--condition", "rotation"]),
                ("check", ["--condition", "shared-ordering"]),
                ("construct", ["--theorem", "4", "--verify", "rotation"]),
            )]
        out.append(["domain", _path(fixture)])
    out.append(["domain", _path("example-environment")])
    out.append(["domain"])
    for sample in ("jobs-common-best", "jobs-hat", "marriage", "economy"):
        out.append(["domain", "--sample", sample, "--seed", "3"])
        out.append(["domain", "--sample", sample, "--seed", "5", "--agents", "4",
                    "--profiles", "3", "--format", "json"])
    return out


def case_name(argv: list[str]) -> str:
    parts = [a.removeprefix("fixtures/").removesuffix(".json").lstrip("-") for a in argv]
    return "_".join("".join(c if c.isalnum() or c in "-." else "+" for c in p) for p in parts)


def run_case(main, argv: list[str]) -> tuple[int, str]:
    resolved = [str(ROOT / a) if a.startswith("fixtures/") else a for a in argv]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = main(resolved)
    return code, stdout.getvalue()


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from rotakit.cli import main as cli_main

    GOLDEN.mkdir(exist_ok=True)
    for old in GOLDEN.glob("*.out"):
        old.unlink()
    index = {}
    for argv in cases():
        name = case_name(argv)
        if name in index:
            raise SystemExit(f"duplicate case name {name}")
        code, stdout = run_case(cli_main, argv)
        body = stdout.encode("utf-8")
        if len(body) <= MAX_KEPT:
            (GOLDEN / f"{name}.out").write_bytes(body)
        index[name] = {"argv": argv, "exit": code, "sha256": hashlib.sha256(body).hexdigest()}
    (GOLDEN / "index.json").write_text(json.dumps(index, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(index)} cases in {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
