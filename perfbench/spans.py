"""Spans and counters recorded at the boundaries between credaltrees' layers.

Every wrapper is installed from the benchmark, by replacing a name where its
caller looks it up (``solver.enumerate_strategies``, the ``ratlp.feasible``
module attribute, ``ChoiceFunction.choose`` ...), so the package itself is
not edited.  A span is ``(name, start, end, parent, request)``; spans stay in
memory until the run ends, and self time is derived from them afterwards.
Counters are read from the arguments and results of the wrapped calls, so
two traced runs over the same requests give identical counts.

cProfile is deliberately not used: it prices every ``Fraction`` operation
and distorts the layers it is meant to compare.
"""

from __future__ import annotations

import time
from collections import Counter

# Span names, in report order.  Each becomes <name>.{calls,ms,self_ms}.
LAYERS = (
    "cli.run",
    "formats.load_json",
    "formats.parse_problem",
    "formats.parse_model",
    "formats.dumps_structured",
    "solver.check_subtree_perfect",
    "solver.normal_form_solution",
    "trees.enumerate_strategies",
    "trees.gamble_of",
    "choice.choose",
    "ratlp.feasible",
    "canonical.check_canonical",
    "uncertainty.precise_gamble_value",
    "fuzz.fuzz_equivalence",
    "fuzz.gen_random_tree",
    "fuzz.harvest",
)

# Rules reported separately under choice.choose.<rule>: those the workloads run.
RULES = (
    "eu",
    "maximin",
    "gamma_maximin",
    "maximality",
    "e_admissible",
    "e_admissible_hull",
    "interval_dominance",
    "pointwise_dominance",
    "imprecise_utility",
)

COUNTERS = (
    ("choice.options", "count"),
    ("choice.kept", "count"),
    ("solver.strategies", "count"),
    ("solver.distinct_ratio", "ratio"),
    ("ratlp.rows", "count"),
    ("ratlp.feasible_ratio", "ratio"),
    ("canonical.instances_examined", "count"),
    ("canonical.instances_verified", "count"),
    ("fuzz.failing_trees", "count"),
)

OVERHEAD = (
    ("trace.requests", "count"),
    ("trace.spans", "count"),
    ("trace.untraced_ms", "ms"),
    ("trace.traced_ms", "ms"),
    ("trace.overhead_pct", "%"),
)


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units: dict[str, str] = {}
    names = list(LAYERS) + [f"choice.choose.{rule}" for rule in RULES]
    for name in names:
        units[f"{name}.calls"] = "count"
        units[f"{name}.ms"] = "ms"
        units[f"{name}.self_ms"] = "ms"
    units.update(COUNTERS)
    units.update(OVERHEAD)
    return units


def _count_choose(counts, args, kwargs, result):
    counts["choice.options"] += len(args[1] if len(args) > 1 else kwargs["xs"])
    counts["choice.kept"] += len(result)


def _count_strategies(counts, args, kwargs, result):
    counts["solver.strategies"] += len(result)


def _count_feasible(counts, args, kwargs, result):
    counts["ratlp.rows"] += len(kwargs.get("eqs", ())) + len(kwargs.get("ges", ()))
    counts["ratlp.feasible"] += bool(result)  # over calls: ratlp.feasible_ratio


def _count_canonical(counts, args, kwargs, result):
    counts["canonical.instances_examined"] += result.instances_examined
    counts["canonical.instances_verified"] += result.instances_verified


def _count_fuzz(counts, args, kwargs, result):
    counts["fuzz.failing_trees"] += len(result.failing)


class Tracer:
    """Installs boundary wrappers on the loaded package and records spans."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counts: Counter = Counter()
        self.request: int = -1
        self._stack: list[int] = []
        self._undo: list = []

    def _wrap(self, name, fn, count):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            label = name(args) if callable(name) else name
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (label, start, end, parent, self.request)
            if count is not None:
                count(counts, args, kwargs, result)
            return result

        return traced

    def patch(self, owner, attr: str, name, count=None) -> None:
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original, count))

    def install(self, pkg) -> None:
        """Wrap every boundary of the package namespace *pkg* (see run.load)."""
        cli, solver, fuzz, canonical = pkg.cli, pkg.solver, pkg.fuzz, pkg.canonical
        self.patch(cli, "run", "cli.run")
        for attr in ("load_json", "parse_problem", "parse_model", "dumps_structured"):
            self.patch(cli, attr, f"formats.{attr}")
        for owner in (solver, cli, fuzz, canonical):
            self.patch(owner, "check_subtree_perfect", "solver.check_subtree_perfect")
        for owner in (solver, cli):
            self.patch(owner, "normal_form_solution", "solver.normal_form_solution")
        self.patch(solver, "enumerate_strategies", "trees.enumerate_strategies",
                   _count_strategies)
        self.patch(cli, "enumerate_strategies", "trees.enumerate_strategies")
        for owner in (solver, cli):
            self.patch(owner, "gamble_of", "trees.gamble_of")
        self.patch(pkg.choice.ChoiceFunction, "choose",
                   lambda args: f"choice.choose.{args[0].kind}", _count_choose)
        self.patch(pkg.ratlp, "feasible", "ratlp.feasible", _count_feasible)
        self.patch(fuzz, "check_canonical", "canonical.check_canonical",
                   _count_canonical)
        self.patch(pkg.choice, "precise_gamble_value",
                   "uncertainty.precise_gamble_value")
        self.patch(fuzz, "fuzz_equivalence", "fuzz.fuzz_equivalence", _count_fuzz)
        self.patch(fuzz, "gen_random_tree", "fuzz.gen_random_tree")
        self.patch(fuzz, "harvest", "fuzz.harvest")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def layer_metrics(self) -> dict[str, float]:
        """Calls, total and self milliseconds per span name, plus the counters."""
        child = [0.0] * len(self.spans)
        for label, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        values = {name: 0.0 for name in metric_units()}
        for (label, start, end, _, _), inner in zip(self.spans, child):
            names = [label]
            if label.startswith("choice.choose."):
                names.append("choice.choose")
            for name in names:
                if f"{name}.calls" not in values:  # a rule no workload runs
                    continue
                values[f"{name}.calls"] += 1
                values[f"{name}.ms"] += (end - start) * 1e3
                values[f"{name}.self_ms"] += (end - start - inner) * 1e3
        c = self.counts
        for name, _ in COUNTERS:
            if name in c:
                values[name] = c[name]
        if c["solver.strategies"]:
            values["solver.distinct_ratio"] = c["choice.options"] / c["solver.strategies"]
        calls = values["ratlp.feasible.calls"]
        if calls:
            values["ratlp.feasible_ratio"] = c["ratlp.feasible"] / calls
        values["trace.spans"] = len(self.spans)
        return values

    def write(self, path) -> None:
        """One tab-separated line per span: index, name, start, end, parent, request."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart\tend\tparent\trequest\n")
            for i, (label, start, end, parent, request) in enumerate(self.spans):
                fh.write(f"{i}\t{label}\t{start:.9f}\t{end:.9f}\t{parent}\t{request}\n")
