"""Bounded-exhaustive differential check: every tree of a small scope, under
every rule, through every path that should agree.

The scope (the small-scope hypothesis: Jackson, *Software Abstractions*,
2006) is every validated tree over Ω = {w1, w2} with one to *max_inner*
inner nodes: binary decision nodes (arcs a, b), chance nodes split as
{w1} | {w2}, and leaf rewards in {-1, 0, 1}.  A chance node below another
sits on a one-atom scope, so its second arc is empty and the tree is
refused; 180 trees remain at two inner nodes and 1881 at three.  With
P(w1) from {0, 1/3, 1/2, 1}, `eu` takes each such joint, the other
member rules every two-member credal set of that grid, and maximin and
pointwise dominance no model: 42 runs per tree.  The grid's zero masses
give scopes of probability zero, and its small rewards many ties: the
corners the filters' and the shortcut's exactness arguments turn on.

Each run compares:

- the verdicts of `check_subtree_perfect`, which reads the table
  `_picked_table` picks, with those read off the full strategy table,
  whole (outcome, both solutions by kept arcs, error detail);
- the same verdicts with `conftest.reference_verdicts`, which enumerates
  and solves each node on its own (it gives no error detail);
- where every verdict holds, `backward_solution` with
  `normal_form_solution`: equal, unless some decision or chance node's
  scope, reached or not, has probability zero under a member the rule
  reads, where backward induction raises `ZeroProbabilityCondition`.

`differential_check` is the checker; CI runs it at three inner nodes.
"""

import functools
import itertools
from fractions import Fraction

from credaltrees import (
    ChanceNode,
    ChoiceFunction,
    CredalModel,
    CredalSet,
    CredalTreeError,
    DecisionNode,
    DecisionTree,
    EmptyScope,
    JointModel,
    MassFunction,
    Outcome,
    PossibilitySpace,
    backward_solution,
    chance,
    check_subtree_perfect,
    decision,
    kept_arcs,
    leaf,
    normal_form_solution,
    strategy_table,
    validate_tree,
)
from credaltrees import solver
from credaltrees.choice import MODEL_FREE, RULES

from conftest import reference_verdicts, verdict_tuples

SPACE = PossibilitySpace(("w1", "w2"))
W1, W2 = SPACE.event(["w1"]), SPACE.event(["w2"])
REWARDS = (-1, 0, 1)
HOLDS = (Outcome.HOLD, Outcome.VACUOUS_HOLD)
MASSES = tuple(MassFunction(SPACE, (p, 1 - p)) for p in map(Fraction, ("0", "1/3", "1/2", "1")))


@functools.lru_cache(maxsize=None)
def shapes(inner: int) -> tuple:
    """Every tree with exactly *inner* inner nodes, as nested tuples:
    ("leaf", reward) or (kind, left, right)."""
    if inner == 0:
        return tuple(("leaf", r) for r in REWARDS)
    return tuple(
        (kind, left, right)
        for kind in ("decision", "chance")
        for k in range(inner)
        for left in shapes(k)
        for right in shapes(inner - 1 - k)
    )


def build(shape, ids):
    """The node of *shape*, with ids n0, n1, ... in preorder."""
    nid = f"n{next(ids)}"
    if shape[0] == "leaf":
        return leaf(nid, shape[1])
    left, right = build(shape[1], ids), build(shape[2], ids)
    if shape[0] == "decision":
        return decision(nid, [("a", left), ("b", right)])
    return chance(nid, [(W1, left), (W2, right)])


def small_trees(max_inner: int):
    """(shape, tree) for every validated tree of one to *max_inner* inner nodes."""
    for inner in range(1, max_inner + 1):
        for shape in shapes(inner):
            try:
                tree = validate_tree(DecisionTree(SPACE, build(shape, itertools.count())))
            except EmptyScope:
                continue
            yield shape, tree


def small_runs():
    """(choice, model) for every run of a tree: `eu` under each joint of the
    grid, the other member rules under each two-member credal set, and the
    model-free rules under none."""
    runs = [(ChoiceFunction("eu"), JointModel(p)) for p in MASSES]
    credal_sets = [CredalModel(CredalSet(pair)) for pair in itertools.combinations(MASSES, 2)]
    for kind in RULES:
        if kind in MODEL_FREE:
            runs.append((ChoiceFunction(kind), None))
        elif kind != "eu":
            runs += [(ChoiceFunction(kind), m) for m in credal_sets]
    return runs


def _has_null_inner_scope(tree, members) -> bool:
    """Does some member give a decision or chance node's scope mass zero?"""
    scopes = [s for node, s in tree.nodes() if isinstance(node, (DecisionNode, ChanceNode))]
    return any(p.prob(scope) == 0 for p in members for scope in scopes)


def _outcome(compute):
    """What *compute* returns, or the package error it raises, as one line."""
    try:
        return compute()
    except CredalTreeError as exc:
        return f"{type(exc).__name__}: {exc}"


def differential_check(max_inner: int):
    """(trees, runs, mismatches) over the scope of *max_inner* inner nodes;
    each mismatch names its comparison, tree, rule and model members.  A
    package error a path raises is its outcome, compared like a result; any
    other exception is a mismatch of its own."""
    runs = small_runs()
    trees = 0
    mismatches = []
    for shape, tree in small_trees(max_inner):
        trees += 1
        for choice, model in runs:
            members = choice.row_members(model)
            try:
                failed = _compare(tree, choice, model, members)
            except Exception as exc:  # a crash is a finding, not an outcome
                failed = [f"raised {type(exc).__name__}"]
            mismatches += [(what, shape, choice.kind, [p.masses for p in members])
                           for what in failed]
    return trees, trees * len(runs), mismatches


def _compare(tree, choice, model, members) -> list[str]:
    """The comparisons one run fails."""
    failed = []
    got = _outcome(lambda: verdict_tuples(check_subtree_perfect(tree, choice, model)))
    full = _outcome(lambda: verdict_tuples(solver._read_verdicts(
        tree, choice, model, tree.node_ids(), strategy_table(tree, None, members)
    )))
    if got != full:
        failed.append("full table")
    want = _outcome(lambda: tuple(
        (nid, outcome, tuple(map(kept_arcs, restricted)), tuple(map(kept_arcs, local)))
        for nid, outcome, restricted, local in reference_verdicts(tree, choice, model)
    ))
    if (got if isinstance(got, str) else tuple(v[:4] for v in got)) != want:
        failed.append("reference")
    if isinstance(got, str) or any(v[1] not in HOLDS for v in got):
        return failed
    backward = _outcome(lambda: backward_solution(tree, choice, model).indices)
    if _has_null_inner_scope(tree, members):
        same = str(backward).startswith("ZeroProbabilityCondition:")
    else:
        same = backward == _outcome(lambda: normal_form_solution(tree, choice, model).indices)
    if not same:
        failed.append("backward")
    return failed


def test_every_small_tree_checks_alike_on_every_path():
    trees, runs, mismatches = differential_check(2)
    assert (trees, runs) == (180, 7560)
    assert not mismatches, (len(mismatches), mismatches[:5])
