"""Outside-in tracing of rotakit's public functions.

The tracer rebinds, in every loaded `rotakit` module, each attribute that
refers to a listed function, so calls through aliases made by
`from .solvers import compute_mss` are caught as well. Each call records
a span (name, start, end, parent, command id) in memory; `restore()`
puts the original functions back. Counts are taken from the arguments
and return values of the same calls, after the span's clock stops.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from typing import Any, Callable

# Layer module (relative to the rotakit package) -> wrapped public functions.
TRACED: dict[str, tuple[str, ...]] = {
    "cli": ("main",),
    "serialize": (
        "load_document",
        "environment_from_doc",
        "scr_from_doc",
        "domain_scr",
        "domain_environment",
        "environment_to_doc",
    ),
    "domains.housing": (
        "exclusion_rights_structure",
        "allocation_profile",
        "direct_exclusion_core",
    ),
    "domains.marriage": ("matching_profile", "enumerate_stable_matchings"),
    "domains.jobs": (
        "extend_job_preferences",
        "pareto_efficient_allocations",
        "arrangement_orderings",
    ),
    "constructors": (
        "build_thm1_structure",
        "build_thm4_structure",
        "verify_implementation_in_mss",
        "verify_implementation_in_rotation_programs",
    ),
    "rights": ("build_improvement_digraph", "find_myopic_improvement_path"),
    "solvers": (
        "compute_core",
        "compute_absorbing_sets",
        "compute_mss",
        "compute_generalized_stable_sets",
        "partition_into_rotation_programs",
    ),
    "conditions": (
        "check_rotation_monotonicity",
        "find_shared_ordering",
        "check_property_m",
        "rotation_certificates",
    ),
    "model": ("check_efficiency", "pareto_frontier"),
}

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)

# Counts summed over the calls of one pass, except the two cap headrooms
# (smallest over the calls; the cap itself when nothing was searched) and
# the largest absorbing set (largest over the calls).
COUNT_NAMES = (
    "rights.states",
    "rights.gamma_entries",
    "rights.state_pairs",
    "rights.edges",
    "solvers.absorbing_sets",
    "solvers.largest_absorbing_set",
    "solvers.mss_states",
    "solvers.outside_states",
    "solvers.generalized_cap_headroom",
    "conditions.ordering_cap_headroom",
    "domains.housing.allocations",
    "domains.marriage.matchings",
    "constructors.gamma_entries",
)


class Tracer:
    """Spans and counts of the calls made while installed."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counts: dict[str, int] = {}
        self.pass_counts: list[dict[str, int]] = []
        self.command_id = -1
        self._stack: list[int] = []
        self._undo: list[tuple[Any, str, Any]] = []
        self._caps: dict[str, int] = {}
        self._last_blocks: tuple = ()
        self._hooks = {
            "rights.build_improvement_digraph": self._count_digraph,
            "solvers.compute_absorbing_sets": self._count_absorbing,
            "solvers.compute_mss": self._count_mss,
            "solvers.compute_generalized_stable_sets": self._count_generalized,
            "conditions.check_rotation_monotonicity": self._count_ordering,
            "conditions.find_shared_ordering": self._count_ordering,
            "domains.housing.exclusion_rights_structure": self._count_allocations,
            "domains.marriage.matching_profile": self._count_matchings,
            "constructors.build_thm1_structure": self._count_structure,
            "constructors.build_thm4_structure": self._count_structure,
        }
        self.reset_counts()

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every listed function wherever a rotakit module binds it."""
        caps = importlib.import_module("rotakit.cli").DEFAULT_CAPS
        self._caps = {"generalized": caps["product"], "ordering": caps["ordering"]}
        self.reset_counts()
        originals = {}
        for mod, fns in TRACED.items():
            module = importlib.import_module(f"rotakit.{mod}")
            for fn in fns:
                originals[id(getattr(module, fn))] = self.wrap(
                    f"{mod}.{fn}", getattr(module, fn)
                )
        for modname, module in list(sys.modules.items()):
            if module is None or modname.split(".")[0] != "rotakit":
                continue
            for attr, value in list(vars(module).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    setattr(module, attr, wrapper)
                    self._undo.append((module, attr, value))

    def restore(self) -> None:
        for module, attr, value in reversed(self._undo):
            setattr(module, attr, value)
        self._undo.clear()

    def wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        hook = self._hooks.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.command_id)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    # -- counts ------------------------------------------------------------

    def reset_counts(self) -> None:
        self.counts = dict.fromkeys(COUNT_NAMES, 0)
        self.counts["solvers.generalized_cap_headroom"] = self._caps.get("generalized", 0)
        self.counts["conditions.ordering_cap_headroom"] = self._caps.get("ordering", 0)

    def end_pass(self) -> None:
        """Keep the finished pass's counts and start the next pass from zero."""
        self.pass_counts.append(self.counts)
        self.reset_counts()

    def _add(self, name: str, value: int) -> None:
        self.counts[name] += value

    def _count_digraph(self, args, kwargs, dg) -> None:
        env = args[0] if args else kwargs["env"]
        n = len(env.rights.states)
        self._add("rights.states", n)
        self._add("rights.gamma_entries", len(env.rights.gamma))
        self._add("rights.state_pairs", n * n)
        self._add("rights.edges", len(dg.edge_coalitions))

    def _count_absorbing(self, args, kwargs, blocks) -> None:
        self._last_blocks = blocks
        self._add("solvers.absorbing_sets", len(blocks))
        largest = max((len(b) for b in blocks), default=0)
        name = "solvers.largest_absorbing_set"
        self.counts[name] = max(self.counts[name], largest)

    def _count_mss(self, args, kwargs, report) -> None:
        env = args[0] if args else kwargs["env"]
        inside = sum(len(b) for b in report.sets)
        self._add("solvers.mss_states", inside)
        self._add("solvers.outside_states", len(env.rights.states) - inside)

    def _count_generalized(self, args, kwargs, sets) -> None:
        cap = kwargs.get("cap", args[2] if len(args) > 2 else self._caps["generalized"])
        needed = math.prod(len(b) for b in self._last_blocks)
        name = "solvers.generalized_cap_headroom"
        self.counts[name] = min(self.counts[name], cap - needed)

    def _count_ordering(self, args, kwargs, verdict) -> None:
        scr = args[0] if args else kwargs["scr"]
        cap = kwargs.get("cap", args[1] if len(args) > 1 else self._caps["ordering"])
        needed = max(len(scr.choice(p.id)) for p in scr.profiles)
        name = "conditions.ordering_cap_headroom"
        self.counts[name] = min(self.counts[name], cap - needed)

    def _count_allocations(self, args, kwargs, structure) -> None:
        self._add("domains.housing.allocations", len(structure.states))

    def _count_matchings(self, args, kwargs, profile) -> None:
        self._add("domains.marriage.matchings", len(profile.alternatives))

    def _count_structure(self, args, kwargs, structure) -> None:
        self._add("constructors.gamma_entries", len(structure.gamma))


def span_self_times(spans) -> list[float]:
    """Each span's duration minus the time of its child spans."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - c for (_, start, end, _, _), c in zip(spans, child)]


def wrapper_cost(n: int = 20000) -> float:
    """Seconds one traced call adds, from a no-op function called n times."""

    def noop(x):
        return x

    tracer = Tracer()
    traced = tracer.wrap("noop", noop)
    best = math.inf
    for _ in range(5):
        tracer.spans.clear()
        t0 = time.perf_counter()
        for i in range(n):
            noop(i)
        t1 = time.perf_counter()
        for i in range(n):
            traced(i)
        t2 = time.perf_counter()
        best = min(best, ((t2 - t1) - (t1 - t0)) / n)
    return max(best, 0.0)
