"""Command line front end.

Commands: ``strategies``, ``solve``, ``check``, ``check-node``, ``canonical``,
``fuzz`` and ``export-dot``.  Exit codes: 0 on success (or when every node
holds), 1 when a subtree perfectness failure is found (check, check-node,
canonical, fuzz), 2 on usage or validation errors, which are reported as a
single diagnostic line on stderr, and 3 on an unexpected exception, a bug,
reported as one ``internal error:`` line.

Text mode renders each strategy against its tree: decision nodes as
``id[arc: subtree, other∥]`` with a ``∥`` suffix marking deleted arcs, chance
nodes as ``id({atoms}: subtree, ...)``, leaves as their reward.  Structured
mode emits key-sorted JSON with rationals as ``"p/q"`` strings.
"""

from __future__ import annotations

import argparse
import os
import sys
import traceback
from typing import Optional, Sequence

from .canonical import CanonicalLimits, check_canonical
from .choice import KINDS, RULES, ChoiceFunction
from .dot import export_dot
from .errors import CredalTreeError
from .formats import (
    ParsedProblem,
    dumps_structured,
    load_json,
    parse_model,
    parse_problem,
    render_reward,
)
from .fuzz import FuzzConfig, fuzz_equivalence, harvest
from .solver import (
    Outcome,
    PerfectnessVerdict,
    all_hold,
    backward_solution,
    check_subtree_perfect,
    check_subtree_perfect_at,
    normal_form_solution,
)
from .trees import (
    ChanceNode,
    DecisionNode,
    DecisionTree,
    Event,
    GambleLeaf,
    Leaf,
    Node,
    Strategy,
    bounded_strategy_count,
    count_strategies,
    # Unused here, but perfbench/spans.py wraps these module attributes.
    enumerate_strategies,
    gamble_of,
    kept_arcs,
    strategy_at,
    strategy_table,
    subtree_at,
    validate_tree,
)

_CLI_KINDS = tuple(k for k in KINDS if k != "by_preorder")
_FUZZABLE = tuple(RULES)
_DEFAULT_SAMPLER = {
    "eu": "joint",
    "maximin": "joint",
    "pointwise_dominance": "joint",
    "gamma_maximin": "hierarchical:2",
    "gamma_maximax": "hierarchical:2",
}


class _UsageError(Exception):
    pass


def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="credaltrees",
        description="Solve decision trees under imprecise probability and "
        "check subtree perfectness, in exact rational arithmetic.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, tree=True, model=False, choice=False, condition=False, bound=False):
        if tree:
            p.add_argument("--tree", required=True, help="problem file (JSON)")
            p.add_argument(
                "--prune",
                action="store_true",
                help="drop chance arcs whose event misses the scope instead of rejecting",
            )
        if model:
            p.add_argument("--model", required=True, help="model file (JSON)")
        if choice:
            p.add_argument(
                "--choice",
                required=True,
                choices=[k.replace("_", "-") for k in _CLI_KINDS],
                help="choice function",
            )
        if condition:
            p.add_argument(
                "--condition",
                help="conditioning event: a name from the problem file or a comma-separated atom list",
            )
        if bound:
            p.add_argument(
                "--max-strategies",
                type=_positive,
                metavar="N",
                help="refuse (exit 2) a tree with more than N strategies",
            )
        p.add_argument(
            "--format", choices=["text", "structured"], default="text"
        )
        p.add_argument("--out", help="write output here instead of stdout")

    p = sub.add_parser("strategies", help="enumerate the strategies of a tree")
    common(p, bound=True)

    p = sub.add_parser("solve", help="normal form solution of a tree")
    common(p, model=True, choice=True, condition=True, bound=True)
    p.add_argument(
        "--method",
        choices=["normal", "backward"],
        default="normal",
        help="solve every strategy in normal form (default), or by normal form "
        "backward induction on the root scope",
    )

    p = sub.add_parser("check", help="decide subtree perfectness at every node")
    common(p, model=True, choice=True, bound=True)

    p = sub.add_parser("check-node", help="decide subtree perfectness at one node")
    common(p, model=True, choice=True)
    p.add_argument("--node", required=True, help="node id to check")

    p = sub.add_parser(
        "canonical",
        help="scan the two canonical tree shapes over gambles harvested from a tree",
    )
    common(p, model=True, choice=True)
    p.add_argument("--node", help="harvest around this node (default: the root)")
    p.add_argument(
        "--max-options", type=int, default=4, help="widest option set per decision node"
    )
    p.add_argument(
        "--max-instances",
        type=int,
        default=200000,
        help="stop after this many canonical instances",
    )
    p.add_argument(
        "--marginal-extension",
        action="store_true",
        help="only scan shape-(a) instances whose model decomposes in stages"
        " across the first chance split",
    )

    p = sub.add_parser("fuzz", help="fuzz subtree perfectness on random trees")
    p.add_argument(
        "--choice",
        required=True,
        choices=[k.replace("_", "-") for k in _FUZZABLE],
    )
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trees", type=int, default=100)
    p.add_argument("--max-depth", type=int, default=3)
    p.add_argument("--omega", type=int, default=4, help="number of atoms")
    p.add_argument(
        "--model-sampler",
        help="joint, factored, credal:k or hierarchical:k (default depends on the choice)",
    )
    p.add_argument("--format", choices=["text", "structured"], default="text")
    p.add_argument("--out")

    p = sub.add_parser("export-dot", help="render a tree (or one strategy) as DOT")
    common(p)
    p.add_argument(
        "--strategy",
        type=int,
        help="render this strategy (0-based enumeration index) against the tree",
    )

    return top


def _positive(text: str) -> int:
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


# --- shared loading ------------------------------------------------------------


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc.strerror}") from None


def _load_problem(args) -> tuple[ParsedProblem, dict[str, tuple[int, ...]]]:
    """The validated problem, and by chance node id the positions in the
    file of the arcs ``--prune`` dropped.  With ``--max-strategies``, a tree
    with more strategies is refused before anything enumerates them."""
    problem = parse_problem(load_json(_read(args.tree)))
    mode = "auto_prune" if getattr(args, "prune", False) else "reject"
    tree = validate_tree(problem.tree, mode=mode)
    pruned = {}
    if mode == "auto_prune":
        for node, scope in tree.nodes():
            if not isinstance(node, ChanceNode):
                continue
            arcs = problem.tree.find(node.node_id).arcs
            if len(arcs) != len(node.arcs):
                pruned[node.node_id] = tuple(
                    i for i, arc in enumerate(arcs) if not (scope & arc.event)
                )
    if getattr(args, "max_strategies", None) is not None:
        bounded_strategy_count(tree, args.max_strategies)
    return ParsedProblem(tree, problem.events), pruned


def _load_model(args, problem: ParsedProblem, pruned: dict[str, tuple[int, ...]]):
    doc = load_json(_read(args.model))
    return parse_model(doc, problem.space, problem.tree, pruned)


def _choice_of(args) -> ChoiceFunction:
    return ChoiceFunction(args.choice.replace("-", "_"))


def _condition_of(args, problem: ParsedProblem) -> Optional[Event]:
    raw = getattr(args, "condition", None)
    if raw is None:
        return None
    if raw in problem.events:
        return problem.events[raw]
    atoms = [a.strip() for a in raw.split(",") if a.strip()]
    bad = [a for a in atoms if a not in problem.space]
    if bad or not atoms:
        raise _UsageError(
            f"--condition {raw!r}: not a named event, and {bad or 'it'} "
            "names no atoms of the space"
        )
    return problem.space.event(atoms)


def _emit(args, text: str) -> None:
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise _UsageError(f"cannot write {args.out}: {exc.strerror}") from None
    else:
        sys.stdout.write(text)


# --- rendering -----------------------------------------------------------------


def render_strategy(tree: DecisionTree, strategy: Strategy) -> str:
    """One-line rendering of a strategy against its tree; deleted arcs keep
    their label with a ∥ suffix and their subtree is not expanded."""
    kept = kept_arcs(strategy)

    def walk(node: Node) -> str:
        if isinstance(node, Leaf):
            return str(node.reward)
        if isinstance(node, GambleLeaf):
            cells = ", ".join(f"{a}: {v}" for a, v in node.gamble.items())
            return "{" + cells + "}"
        if isinstance(node, DecisionNode):
            parts = []
            for arc in node.arcs:
                if arc.label == kept.get(node.node_id):
                    parts.append(f"{arc.label}: {walk(arc.child)}")
                else:
                    parts.append(arc.label + "∥")
            return node.node_id + "[" + ", ".join(parts) + "]"
        parts = [
            "{" + ",".join(arc.event.ordered) + "}: " + walk(arc.child)
            for arc in node.arcs
        ]
        return node.node_id + "(" + ", ".join(parts) + ")"

    return walk(tree.root)


def _emit_strategies(args, tree: DecisionTree, doc: dict, header: str, listed) -> None:
    """Emit *listed* strategies, each given as (enumeration index, strategy,
    values on the root scope), under *doc* or *header*."""
    if args.format == "structured":
        atoms = tree.root_scope.ordered
        doc["count"] = len(listed)
        doc["strategies"] = [
            {
                "index": i,
                "kept": kept_arcs(s),
                "gamble": {a: render_reward(v) for a, v in zip(atoms, values)},
            }
            for i, s, values in listed
        ]
        _emit(args, dumps_structured(doc))
    else:
        lines = [header] + [f"{i}: {render_strategy(tree, s)}" for i, s, _ in listed]
        _emit(args, "\n".join(lines) + "\n")


def _verdict_json(v: PerfectnessVerdict, tree: DecisionTree) -> dict:
    out: dict = {"node": v.node_id, "outcome": str(v.outcome)}
    if v.outcome is Outcome.FAIL:
        sub = subtree_at(tree, v.node_id)
        out["restricted"] = [kept_arcs(s) for s in v.restricted_solution]
        out["local"] = [kept_arcs(s) for s in v.local_solution]
        out["local_rendered"] = [render_strategy(sub, s) for s in v.local_solution]
    if v.detail:
        out["detail"] = v.detail
    return out


def _verdict_lines(verdicts, tree) -> list[str]:
    lines = []
    for v in verdicts:
        line = f"{v.node_id}: {v.outcome}"
        if v.outcome is Outcome.FAIL:
            r = len(v.restricted_solution)
            l = len(v.local_solution)
            line += f"  (restriction keeps {r}, local solution keeps {l})"
        if v.detail:
            line += f"  [{v.detail}]"
        lines.append(line)
    return lines


def _exit_of(verdicts) -> int:
    if any(v.outcome is Outcome.FAIL for v in verdicts):
        return 1
    if any(v.outcome is Outcome.ERROR for v in verdicts):
        return 2
    return 0


# --- commands ------------------------------------------------------------------


def _cmd_strategies(args) -> int:
    problem, _ = _load_problem(args)
    tree = problem.tree
    table = strategy_table(tree)
    rows = table[tree.root.node_id]
    listed = [
        (i, Strategy(tree.space, table.variant(tree.root, i), tree.root_scope),
         table.rewards(values))
        for i, values in enumerate(rows)
    ]
    doc = {"command": "strategies"}
    _emit_strategies(args, tree, doc, f"{len(rows)} strategies", listed)
    return 0


def _cmd_solve(args) -> int:
    problem, pruned = _load_problem(args)
    tree = problem.tree
    model = _load_model(args, problem, pruned)
    choice = _choice_of(args)
    b = _condition_of(args, problem)
    if args.method == "backward":
        if b is not None and b != tree.root_scope:
            raise _UsageError(
                "--method backward solves on the root scope only; "
                f"--condition {args.condition!r} is a different event"
            )
        solution = backward_solution(tree, choice, model)
    else:
        solution = normal_form_solution(tree, choice, model, b)
    total = count_strategies(tree)
    listed = list(zip(solution.indices, solution.strategies, solution.values))
    doc = {
        "command": "solve",
        "choice": choice.kind,
        "condition": list(solution.conditioning.ordered),
        "total_strategies": total,
    }
    header = f"chosen {len(listed)} of {total} strategies ({choice.kind})"
    _emit_strategies(args, tree, doc, header, listed)
    return 0


def _cmd_check(args) -> int:
    problem, pruned = _load_problem(args)
    model = _load_model(args, problem, pruned)
    choice = _choice_of(args)
    verdicts = check_subtree_perfect(problem.tree, choice, model)
    perfect = all_hold(verdicts)
    if args.format == "structured":
        doc = {
            "command": "check",
            "choice": choice.kind,
            "subtree_perfect": perfect,
            "verdicts": [_verdict_json(v, problem.tree) for v in verdicts],
        }
        _emit(args, dumps_structured(doc))
    else:
        lines = _verdict_lines(verdicts, problem.tree)
        lines.append(f"subtree perfect: {'yes' if perfect else 'no'}")
        _emit(args, "\n".join(lines) + "\n")
    return _exit_of(verdicts)


def _cmd_check_node(args) -> int:
    problem, pruned = _load_problem(args)
    model = _load_model(args, problem, pruned)
    choice = _choice_of(args)
    verdict = check_subtree_perfect_at(problem.tree, choice, model, args.node)
    if args.format == "structured":
        doc = {
            "command": "check-node",
            "choice": choice.kind,
            "verdict": _verdict_json(verdict, problem.tree),
        }
        _emit(args, dumps_structured(doc))
    else:
        _emit(args, "\n".join(_verdict_lines([verdict], problem.tree)) + "\n")
    return _exit_of([verdict])


def _cmd_canonical(args) -> int:
    problem, pruned = _load_problem(args)
    tree = problem.tree
    model = _load_model(args, problem, pruned)
    choice = _choice_of(args)
    center = args.node if args.node is not None else tree.root.node_id
    pool, events, _ = harvest(tree, center)
    if not pool:
        raise _UsageError("the tree yields no gambles to scan")
    limits = CanonicalLimits(
        max_xs=args.max_options,
        max_ys=args.max_options,
        events_a=events,
        events_b=events,
        max_instances=args.max_instances,
        require_marginal_extension=args.marginal_extension,
    )
    report = check_canonical(choice, model, tree.space, pool, limits)
    if args.format == "structured":
        doc = {"command": "canonical", **report.to_json_dict()}
        _emit(args, dumps_structured(doc))
    else:
        lines = [
            f"canonical scan ({choice.kind}): {'pass' if report.passed else 'FAIL'}",
            f"instances: {report.instances_examined} examined, "
            f"{report.instances_skipped} skipped, "
            f"{report.instances_verified} verified against the tree pipeline",
            report.note,
        ]
        if not report.passed:
            inst = report.instance
            lines.append(f"shape ({report.shape}) fails at {', '.join(report.failing_nodes)}")
            lines.append(f"instance: {inst}")
        _emit(args, "\n".join(lines) + "\n")
    return 0 if report.passed else 1


def _cmd_fuzz(args) -> int:
    kind = args.choice.replace("-", "_")
    choice = ChoiceFunction(kind)
    sampler = args.model_sampler or _DEFAULT_SAMPLER.get(kind, "credal:2")
    cfg = FuzzConfig(
        seed=args.seed,
        tree_count=args.trees,
        max_depth=args.max_depth,
        omega_size=args.omega,
        model_sampler=sampler,
    )
    report = fuzz_equivalence(choice, None, cfg)
    failing = report.failing
    if args.format == "structured":
        doc = {"command": "fuzz", **report.to_json_dict()}
        _emit(args, dumps_structured(doc))
    else:
        lines = [
            f"fuzzed {len(report.records)} trees ({kind}, sampler {sampler}, "
            f"seed {cfg.seed})",
            f"failing trees: {len(failing)}",
        ]
        if failing:
            lines.append(
                f"reduced to canonical shape (b): {report.reduced_shape_b}, "
                f"shape (a): {report.reduced_shape_a}, missed: {report.missed}"
            )
            for r in failing:
                red = r.reduction
                found = "-" if red is None else (
                    f"shape ({red.shape})" if not red.passed else "miss"
                )
                lines.append(
                    f"  tree {r.index}: fails at {', '.join(r.failing_nodes)}"
                    f"; reduction: {found}"
                )
        if report.theorem_inconsistency:
            lines.append(
                "THEOREM_INCONSISTENCY at trees "
                + ", ".join(str(i) for i in report.theorem_inconsistency)
            )
        _emit(args, "\n".join(lines) + "\n")
    return 1 if failing else 0


def _cmd_export_dot(args) -> int:
    problem, _ = _load_problem(args)
    tree = problem.tree
    strategy = None
    if args.strategy is not None:
        count = count_strategies(tree)
        if not 0 <= args.strategy < count:
            raise _UsageError(
                f"--strategy {args.strategy} out of range; the tree has "
                f"{count} strategies"
            )
        strategy = strategy_at(tree, args.strategy)
    _emit(args, export_dot(tree, strategy))
    return 0


_COMMANDS = {
    "strategies": _cmd_strategies,
    "solve": _cmd_solve,
    "check": _cmd_check,
    "check-node": _cmd_check_node,
    "canonical": _cmd_canonical,
    "fuzz": _cmd_fuzz,
    "export-dot": _cmd_export_dot,
}


def run(argv: Optional[Sequence[str]] = None) -> int:
    """Dispatch one command line; returns the exit code."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        return _COMMANDS[args.command](args)
    except (_UsageError, CredalTreeError, ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError as exc:
        # The JSON decoder, formats._node_from, validate_tree,
        # strategy decoding (trees._variant) and the DOT and text renderers
        # recurse, so a deep enough input ends here rather than in exit 1,
        # which means "not subtree perfect".
        print(f"error: input nested too deeply ({exc})", file=sys.stderr)
        return 2
    except Exception as exc:
        # A bug, not a verdict: scripts read exit 1 as "not subtree perfect".
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        where = f"{os.path.basename(frame.filename)}:{frame.lineno}"
        print(f"internal error: {type(exc).__name__}: {exc} (at {where})", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run())
