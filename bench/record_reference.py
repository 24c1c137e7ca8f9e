"""Record the reference stdout digests of the benchmark's commands.

    python3 bench/record_reference.py --seeds 0-31 [--workload NAME ...]

Run it from the repository root on the code whose outputs are the
reference. A seed's digests are written to bench/reference.json only when
every command of one pass exits with its expected code and passes its
independent check; otherwise the script stops with exit code 1. The file
maps workload -> seed -> sha256 of each command's stdout, in command order.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

import run
import workloads


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def record(cli, name: str, seed: int) -> list[str]:
    wl = workloads.WORKLOADS[name](seed)
    os.makedirs(run.OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"reference-{name}-{seed}-", dir=run.OUT)
    try:
        checker = run.Checker(wl, None, workdir)
        checker.check(run.run_pass(cli, wl, run.write_docs(wl, workdir)))
        checker.finish()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if checker.failed:
        raise SystemExit(f"{name} seed {seed}: " + "; ".join(checker.problems))
    return checker.reference


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, required=True, help="LO-HI, inclusive")
    parser.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    args = parser.parse_args()
    os.environ.pop("ROTAKIT_CAPS", None)
    sys.path.insert(0, run.SRC)
    from rotakit import cli

    table: dict[str, dict[str, list[str]]] = {}
    if os.path.exists(run.REFERENCE):
        with open(run.REFERENCE, encoding="utf-8") as fh:
            table = json.load(fh)
    for name in args.workload or sorted(workloads.WORKLOADS):
        for seed in args.seeds:
            table.setdefault(name, {})[str(seed)] = record(cli, name, seed)
            print(f"{name} seed {seed}: {len(table[name][str(seed)])} digests", flush=True)
        table[name] = dict(sorted(table[name].items(), key=lambda kv: int(kv[0])))
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(dict(sorted(table.items())), fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
