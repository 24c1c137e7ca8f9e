"""Smoke test of the benchmark at a tiny size.

    python3 -m pytest -q bench/test_smoke.py     (or: python3 bench/test_smoke.py)

Each workload runs twice traced and once untraced on one seed. The test
asserts that every metric named in BENCHMARK.json is reported, that no
command failed, and that every count repeats exactly between the two
traced runs.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7
SCALE = "0.05"


def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--scale", SCALE],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_workload(workload: str) -> None:
    names = spec()
    untraced, first, second = bench(workload, 0), bench(workload, 1), bench(workload, 1)
    for result in (untraced, first, second):
        assert result["correct"] and result["failed"] == 0, result
        assert result["attempted"] >= 1
    assert set(untraced["metrics"]) == {m["name"] for m in names["end_to_end"]}
    assert set(first["metrics"]) == {m["name"] for m in names["per_layer"]}
    assert all(m["value"] > 0 for m in untraced["metrics"].values())
    counts = [n for n, m in first["metrics"].items() if m["unit"] in ("count", "bytes", "ratio")]
    assert counts
    for name in counts:
        assert first["metrics"][name] == second["metrics"][name], name


def test_sparse_solve():
    check_workload("sparse-solve")


def test_scr_pareto():
    check_workload("scr-pareto")


def test_domain_pipelines():
    check_workload("domain-pipelines")


if __name__ == "__main__":
    for name in ("sparse-solve", "scr-pareto", "domain-pipelines"):
        check_workload(name)
        print(f"{name}: ok")
