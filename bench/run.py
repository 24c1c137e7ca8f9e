"""rotakit benchmark: seeded CLI workloads, timed end to end or traced by layer.

Run from the repository root:

    python3 bench/run.py --workload sparse-solve --seed 1 --seconds 36 --trace 0

The workload's documents are drawn from --seed and written before timing
starts. Load is a closed loop: one client in this process runs the
workload's command sequence (a pass), one command at a time, each an
in-process call to `rotakit.cli.main(argv)` with `--format json` and
stdout captured in memory, until --seconds are used. Reported values are
medians over passes.

On the 2-vCPU KVM guest it was tuned on (bench/BASELINE.md), speed
changes by up to 2x from one minute to the next, in CPU time as well as
in wall time. So a fixed pure-Python reference loop runs before and
after every command and every timed import, and the end-to-end times are
scaled to reference speed: a measured time is multiplied by REF_SECONDS
over the mean of the two reference-loop times around it. They read as
seconds on a machine where the reference loop takes REF_SECONDS; the
unscaled pass time is reported as the per-layer raw_wall_s.

--trace 0 reports the end-to-end metrics: wall_s (one pass), peak_rss_mb
and setup_s (a fresh interpreter importing rotakit.cli, sampled before
the first pass and after every pass). --trace 1 spends half the time on
untraced passes and half on passes traced by bench/tracer.py, and
reports the per-layer metrics, the per-subcommand times and the tracing
overhead.

Every command's exit code and stdout sha256 are checked against
bench/reference.json (recorded by bench/record_reference.py), or, for a
seed without recorded digests, against the first pass; commands with an
independent check in bench/workloads.py get it on their first output.
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
REFERENCE = os.path.join(HERE, "reference.json")
SETUP_FIRST = 5  # fresh-interpreter imports before the first pass; one more after each pass
REF_SECONDS = 0.06  # the reference loop's median time on the guest of bench/BASELINE.md
KINDS = ("solve", "check", "construct")
HOT = ("conditions.rotation_certificates", "rights.find_myopic_improvement_path")

sys.path.insert(0, HERE)
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

_rng = random.Random(0)
REF_GRAPH = [[_rng.randrange(2000) for _ in range(4)] for _ in range(2000)]


def reference_seconds() -> float:
    """Time of a fixed pure-Python loop, 40 to 80 ms: depth-first walks of a
    fixed graph and tuple-keyed dict updates, the operations rotakit's
    inner loops are made of."""
    start = time.perf_counter()
    for _ in range(8):
        seen: set[int] = set()
        for root in range(len(REF_GRAPH)):
            if root in seen:
                continue
            seen.add(root)
            stack = [root]
            while stack:
                for nxt in REF_GRAPH[stack.pop()]:
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append(nxt)
        tally: dict[tuple[int, int], int] = {}
        for i in range(20000):
            key = (i % 97, i % 89)
            tally[key] = tally.get(key, 0) + 1
    return time.perf_counter() - start


def import_seconds() -> float:
    """Time for a fresh interpreter to import rotakit.cli, at reference speed."""
    code = (
        "import time; t = time.perf_counter(); import rotakit.cli; "
        "print(time.perf_counter() - t)"
    )
    before = reference_seconds()
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=SRC),
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return float(proc.stdout) * 2 * REF_SECONDS / (before + reference_seconds())


@dataclass
class Result:
    exit: int | None
    digest: str
    seconds: float
    nbytes: int
    text: str
    ref: float = 0.0  # mean reference-loop time just before and just after


@dataclass
class Pass:
    seconds: list[float] = field(default_factory=list)
    refs: list[float] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(self.seconds)

    @property
    def scaled(self) -> float:
        """The pass's wall time at reference speed."""
        return sum(s * REF_SECONDS / r for s, r in zip(self.seconds, self.refs))

    def kind(self, wl, kind: str) -> float:
        return sum(s for cmd, s in zip(wl.commands, self.seconds) if cmd.kind == kind)


def run_command(cli, argv: list[str], keep_text: bool) -> Result:
    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    except Exception as exc:  # a traceback is a failed command, not a failed run
        code = None
        print(f"command raised {exc!r}: {' '.join(argv)}", file=sys.stderr)
    seconds = time.perf_counter() - start
    text = out.getvalue()
    digest = hashlib.sha256(text.encode()).hexdigest()
    return Result(code, digest, seconds, len(text), text if keep_text else "")


def run_pass(cli, wl, paths, tracer=None, pass_id: int = 0, keep_text=True) -> list[Result]:
    results = []
    before = reference_seconds()
    for i, cmd in enumerate(wl.commands):
        if tracer is not None:
            tracer.command_id = pass_id * len(wl.commands) + i
        result = run_command(cli, cmd.argv(paths[cmd.doc]), keep_text)
        after = reference_seconds()
        result.ref = (before + after) / 2
        before = after
        results.append(result)
    return results


def measure(cli, wl, paths, seconds, checker, tracer=None, first_pass=0, setup=None) -> list[Pass]:
    """Whole passes until the next one would overrun `seconds` (at least one).

    Outputs go to the checker; with a `setup` list, one import time is
    appended to it after every pass.
    """
    passes: list[Pass] = []
    begin = time.perf_counter()
    while True:
        gc.collect()
        # only the first pass's outputs are kept, for the checker's independent checks
        results = run_pass(
            cli, wl, paths, tracer, first_pass + len(passes), keep_text=not checker.attempted
        )
        passes.append(Pass([r.seconds for r in results], [r.ref for r in results]))
        if tracer is not None:
            tracer.end_pass()
        checker.check(results)
        if setup is not None:
            setup.append(import_seconds())
        spent = time.perf_counter() - begin
        if spent + spent / len(passes) > seconds:
            return passes


class Checker:
    """Counts commands whose exit code or output is not the expected one.

    Outputs are compared with the recorded digests when there are any, else
    with the first pass. The first pass's outputs are kept on disk and get
    the independent checks of bench/workloads.py in `finish`, after the
    memory high-water mark has been read, so that parsing them does not
    count as the program's memory.
    """

    def __init__(self, wl, reference: list[str] | None, workdir: str):
        self.wl = wl
        self.reference = reference
        self.workdir = workdir
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.output_bytes = 0
        self._saved: list[tuple[workloads.Command, str]] = []

    def check(self, results: list[Result]) -> None:
        first = not self.attempted
        if first:
            self.output_bytes = sum(r.nbytes for r in results)
            if self.reference is None:
                self.reference = [r.digest for r in results]
        rows = zip(self.wl.commands, results, self.reference, strict=True)
        for i, (cmd, r, ref) in enumerate(rows):
            self.attempted += 1
            if r.exit != cmd.expect_exit:
                self.fail(f"{cmd.label}: exit {r.exit}, expected {cmd.expect_exit}")
            elif r.digest != ref:
                self.fail(f"{cmd.label}: stdout sha256 {r.digest[:12]} is not {ref[:12]}")
            elif first and cmd.check is not None:
                path = os.path.join(self.workdir, f"output-{i}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(r.text)
                self._saved.append((cmd, path))

    def finish(self) -> None:
        for cmd, path in self._saved:
            with open(path, encoding="utf-8") as fh:
                try:
                    payload = json.load(fh)
                except ValueError:
                    payload = None
            problem = "stdout is not JSON" if payload is None else cmd.check(
                self.wl.docs[cmd.doc], payload
            )
            if problem:
                self.fail(f"{cmd.label}: {problem}")

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)


def summary(values: list[float]) -> str:
    """Median, and the highest percentile with at least ten values beyond it."""
    n = len(values)
    text = f"median {statistics.median(values):.4f} (n={n})"
    if n >= 20:
        p = int(100 * (1 - 10 / n))
        text += f", p{p} {statistics.quantiles(values, n=100, method='inclusive')[p - 1]:.4f}"
    return text


def end_to_end(cli, wl, paths, seconds, checker) -> dict[str, tuple[float, str]]:
    import_seconds()  # fills the bytecode cache, as any install does
    setup = [import_seconds() for _ in range(SETUP_FIRST)]
    passes = measure(cli, wl, paths, seconds, checker, setup=setup)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    checker.finish()
    for kind in KINDS:
        per = [p.kind(wl, kind) for p in passes]
        if any(per):
            print(f"  {kind}_s: {summary(per)}")
    print(f"  raw_wall_s: {summary([p.wall for p in passes])}")
    print(f"  wall_s at reference speed: {summary([p.scaled for p in passes])}")
    print(f"  setup_s at reference speed: {summary(setup)}")
    print(f"  output: {checker.output_bytes} bytes per pass")
    return {
        "wall_s": (statistics.median(p.scaled for p in passes), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }


def per_layer(cli, wl, paths, seconds, checker, spans_path) -> dict[str, tuple[float, str]]:
    plain = measure(cli, wl, paths, seconds / 2, checker)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = measure(cli, wl, paths, seconds / 2, checker, tracer, first_pass=len(plain))
    finally:
        tracer.restore()
    checker.finish()

    n_cmd = len(wl.commands)
    first = len(plain) * n_cmd
    self_by_pass = [dict.fromkeys(tracing.SPAN_NAMES, 0.0) for _ in traced]
    calls_by_pass = [dict.fromkeys(tracing.SPAN_NAMES, 0) for _ in traced]
    for span, own in zip(tracer.spans, tracing.span_self_times(tracer.spans)):
        k = (span[4] - first) // n_cmd
        self_by_pass[k][span[0]] += own
        calls_by_pass[k][span[0]] += 1
    counts = tracer.pass_counts
    if any(c != calls_by_pass[0] for c in calls_by_pass) or any(c != counts[0] for c in counts):
        checker.fail("per-layer counts differ between traced passes")

    metrics: dict[str, tuple[float, str]] = {}
    for name in tracing.SPAN_NAMES:
        metrics[f"{name}.self_s"] = (statistics.median(p[name] for p in self_by_pass), "s")
        metrics[f"{name}.calls"] = (calls_by_pass[0][name], "count")
    for name, value in counts[0].items():
        metrics[name] = (value, "count")
    gamma = counts[0]["rights.gamma_entries"]
    metrics["rights.edge_yield"] = (counts[0]["rights.edges"] / gamma if gamma else 0.0, "ratio")
    metrics["cli.output_bytes"] = (checker.output_bytes, "bytes")
    for kind in KINDS:
        metrics[f"{kind}_s"] = (statistics.median(p.kind(wl, kind) for p in plain), "s")

    plain_wall = statistics.median(p.wall for p in plain)
    traced_wall = statistics.median(p.wall for p in traced)
    cost = tracing.wrapper_cost()
    metrics["raw_wall_s"] = (plain_wall, "s")
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (
        statistics.median(p.scaled for p in traced) - statistics.median(p.scaled for p in plain),
        "s",
    )
    metrics["trace.unattributed_s"] = (
        statistics.median(p.wall - sum(s.values()) for p, s in zip(traced, self_by_pass)),
        "s",
    )
    metrics["trace.call_cost_us"] = (cost * 1e6, "us")
    for name in HOT:
        metrics[f"trace.overhead.{name}_s"] = (cost * calls_by_pass[0][name], "s")

    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "fields": ["name", "start", "end", "parent", "command"],
                "commands": [c.label for c in wl.commands],
                "first_traced_command": first,
                "spans": tracer.spans,
            },
            fh,
        )
    total = sum(metrics[f"{n}.self_s"][0] for n in tracing.SPAN_NAMES) or 1.0
    print(f"  wall_s untraced {plain_wall:.4f} (n={len(plain)}), traced {traced_wall:.4f} "
          f"(n={len(traced)}); spans in {os.path.relpath(spans_path, ROOT)}")
    print("  largest self-time shares of the traced pass:")
    for name in sorted(tracing.SPAN_NAMES, key=lambda n: -metrics[f"{n}.self_s"][0])[:6]:
        own = metrics[f"{name}.self_s"][0]
        print(f"    {name:52s} {own:8.4f} s {100 * own / total:5.1f}%")
    return metrics


def load_reference(workload: str, seed: int) -> list[str] | None:
    if not os.path.exists(REFERENCE):
        return None
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


def write_docs(wl, directory: str) -> dict[str, str]:
    paths = {}
    for name, doc in wl.docs.items():
        paths[name] = os.path.join(directory, name)
        with open(paths[name], "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    return paths


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "rotakit", "cli.py")):
        print(f"error: no rotakit sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("ROTAKIT_CAPS", None)
    sys.path.insert(0, SRC)
    from rotakit import cli

    wl = workloads.WORKLOADS[args.workload](args.seed, args.scale)
    reference = load_reference(args.workload, args.seed) if args.scale == 1.0 else None
    print(
        f"{args.workload} seed {args.seed}: {len(wl.commands)} commands per pass, "
        f"digests {'recorded' if reference else 'from the first pass'}"
    )
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=OUT)
    try:
        paths = write_docs(wl, workdir)
        checker = Checker(wl, reference, workdir)
        if args.trace:
            spans = os.path.join(OUT, f"spans-{args.workload}-{args.seed}.json")
            metrics = per_layer(cli, wl, paths, args.seconds, checker, spans)
        else:
            metrics = end_to_end(cli, wl, paths, args.seconds, checker)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in checker.problems[:10]:
        print(f"  FAILED {problem}")
    print(
        json.dumps(
            {
                "correct": checker.failed == 0,
                "attempted": checker.attempted,
                "failed": checker.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
