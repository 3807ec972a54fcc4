"""Normal form solutions of decision trees and the subtree perfectness check.

A tree is solved by listing its strategies, deduplicating the gambles they
induce on the conditioning event (integer rows of the strategy table),
applying a choice function to the distinct ones and keeping every strategy
whose gamble was chosen.  Subtree
perfectness at a node compares the restriction of the full solution with the
solution computed locally in the subtree.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass
from typing import Optional

from .choice import ChoiceFunction, OptionRows
from .errors import (
    MissingArcProbability,
    ModeUnsupported,
    ScopeMismatch,
    UnknownNode,
    ZeroProbabilityCondition,
)
from .trees import (
    ChanceArc,
    ChanceNode,
    DecisionArc,
    DecisionNode,
    DecisionTree,
    Event,
    Gamble,
    GambleLeaf,
    Leaf,
    Node,
    Strategy,
    StrategyTable,
    enumerate_strategies,
    # Unused here, but perfbench/spans.py wraps this module attribute.
    gamble_of,
    kept_children,
    strategy_table,
    subtree_at,
)
from .uncertainty import (
    FactoredModel,
    JointModel,
    UncertaintyModel,
    expectation,
)


@dataclass(frozen=True, eq=False)
class NormalFormSolution:
    """The strategies a choice function keeps, with the data that produced them.

    ``indices[k]`` is the position of ``strategies[k]`` in
    `enumerate_strategies` order of the solved tree.
    """

    tree_ref: DecisionTree
    strategies: tuple[Strategy, ...]
    conditioning: Event
    choice: ChoiceFunction
    indices: tuple[int, ...]


def normal_form_solution(
    tree: DecisionTree,
    choice: ChoiceFunction,
    model: Optional[UncertaintyModel],
    b: Optional[Event] = None,
    *,
    table: Optional[StrategyTable] = None,
) -> NormalFormSolution:
    """Solve *tree* in normal form, conditional on *b* (root scope by default).

    *table* may be the `strategy_table` of a tree that contains this tree's
    root at this tree's root scope, as every subtree of a checked tree
    does; it saves enumerating the strategies again and never changes the
    result.
    """
    scope = tree.root_scope
    if b is None:
        b = scope
    if table is None:
        table = strategy_table(tree)
    rows = table[tree.root.node_id]
    if rows and b != scope:
        if not b <= scope:
            raise ScopeMismatch("event is not contained in the gamble's scope")
        at = {a: i for i, a in enumerate(scope.ordered)}
        pick = operator.itemgetter(*(at[a] for a in b.ordered))
        keys = [pick(values) for _, values in rows]
        if len(b) == 1:
            keys = [(k,) for k in keys]
    else:
        keys = [values for _, values in rows]

    # One class per distinct row on b, numbered in order of first appearance;
    # the rows' integers hash cheaply.
    classes: dict[tuple, int] = {}
    class_of = [classes.setdefault(k, len(classes)) for k in keys]

    if table.numeric and choice.takes_rows(model):
        chosen = {classes[row] for row in choice.choose(OptionRows(classes), model, b)}
    else:
        # Gambles on the whole scope, for the rules that value whole gambles.
        first: dict[int, int] = {}
        for i, c in enumerate(class_of):
            first.setdefault(c, i)
        distinct = [Gamble(scope, table.rewards(rows[i][1])) for i in first.values()]
        on_b = {g.values_on(b) for g in choice.choose(distinct, model, b)}
        chosen = {c for c, g in enumerate(distinct) if g.values_on(b) in on_b}
    indices = tuple(i for i, c in enumerate(class_of) if c in chosen)
    kept = tuple(Strategy(tree.space, rows[i][0], scope) for i in indices)
    return NormalFormSolution(tree, kept, b, choice, indices)


def restrict_solution(
    sol: NormalFormSolution, node_id: str
) -> tuple[Strategy, ...]:
    """The distinct subtrees at *node_id* of the solution's strategies.

    Strategies that do not reach the node contribute nothing; restrictions
    that keep the same arcs are reported once, in order of first appearance.
    """
    return tuple(_restrictions(sol, node_id).values())


def _restrictions(
    sol: NormalFormSolution, node_id: str
) -> dict[tuple[str, ...], Strategy]:
    """`restrict_solution`, keyed by `kept_children`."""
    if not sol.tree_ref.contains(node_id):
        raise UnknownNode(f"no node with id {node_id!r}")
    seen: dict[tuple[str, ...], Strategy] = {}
    for s in sol.strategies:
        if s.contains(node_id):
            key = kept_children(s.find(node_id))
            if key not in seen:
                seen[key] = subtree_at(s, node_id)
    return seen


class Outcome(str, enum.Enum):
    VACUOUS_HOLD = "vacuous_hold"
    HOLD = "hold"
    FAIL = "fail"
    ERROR = "error"

    def __str__(self) -> str:  # keep report rendering compact
        return self.value


@dataclass(frozen=True, eq=False)
class PerfectnessVerdict:
    """What happened at one node of the subtree perfectness scan.

    ``vacuous_hold`` means no solution strategy reaches the node, in which
    case the local problem is not even posed.  ``error`` means the local
    problem could not be solved because its conditioning event has
    probability zero under the model; that is reported rather than folded
    into hold or fail.
    """

    node_id: str
    outcome: Outcome
    restricted_solution: tuple[Strategy, ...]
    local_solution: tuple[Strategy, ...]
    detail: str = ""


def _verdict_at(
    tree: DecisionTree,
    choice: ChoiceFunction,
    model: Optional[UncertaintyModel],
    full: NormalFormSolution,
    node_id: str,
    table: StrategyTable,
) -> PerfectnessVerdict:
    keyed = _restrictions(full, node_id)
    restricted = tuple(keyed.values())
    if not restricted:
        return PerfectnessVerdict(node_id, Outcome.VACUOUS_HOLD, (), ())
    if node_id == tree.root.node_id:
        # The root's local problem is the full problem.
        local = full.strategies
    else:
        try:
            local = normal_form_solution(
                subtree_at(tree, node_id), choice, model, table=table
            ).strategies
        except ZeroProbabilityCondition as exc:
            return PerfectnessVerdict(
                node_id, Outcome.ERROR, restricted, (), str(exc)
            )
    same = keyed.keys() == {kept_children(s.root) for s in local}
    outcome = Outcome.HOLD if same else Outcome.FAIL
    return PerfectnessVerdict(node_id, outcome, restricted, local)


def check_subtree_perfect_at(
    tree: DecisionTree,
    choice: ChoiceFunction,
    model: Optional[UncertaintyModel],
    node_id: str,
) -> PerfectnessVerdict:
    """Compare the full solution restricted to *node_id* with the local solution."""
    if not tree.contains(node_id):
        raise UnknownNode(f"no node with id {node_id!r}")
    table = strategy_table(tree)
    full = normal_form_solution(tree, choice, model, table=table)
    return _verdict_at(tree, choice, model, full, node_id, table)


def check_subtree_perfect(
    tree: DecisionTree,
    choice: ChoiceFunction,
    model: Optional[UncertaintyModel],
) -> tuple[PerfectnessVerdict, ...]:
    """One verdict per node, in preorder.

    The strategy table is built once and shared by every local solve, and
    the full solution is computed once.
    """
    table = strategy_table(tree)
    full = normal_form_solution(tree, choice, model, table=table)
    return tuple(
        _verdict_at(tree, choice, model, full, nid, table)
        for nid in tree.node_ids()
    )


def all_hold(verdicts: tuple[PerfectnessVerdict, ...]) -> bool:
    """Did subtree perfectness hold everywhere it could be posed?

    Error verdicts are neither holds nor failures, so any error makes the
    summary False.
    """
    return all(
        v.outcome in (Outcome.HOLD, Outcome.VACUOUS_HOLD) for v in verdicts
    )


def backward_induct_eu(
    tree: DecisionTree, model: UncertaintyModel
) -> tuple[Strategy, ...]:
    """All expected-utility optimal strategies, found by backward induction.

    At chance nodes values are averaged with the model's conditional arc
    probabilities, and at decision nodes every value-maximising arc is kept;
    the strategies of the tree pruned that way are returned, in
    `enumerate_strategies` order.  For expected utility this agrees with the
    normal form solution.
    """
    if isinstance(model, JointModel):
        def arc_weights(node: ChanceNode, scope: Event) -> list:
            pb = model.p.prob(scope)
            if pb == 0:
                raise ZeroProbabilityCondition(
                    f"scope {scope!r} has probability zero"
                )
            return [model.p.prob(scope & arc.event) / pb for arc in node.arcs]

        def leaf_value(g: Gamble, scope: Event):
            return expectation(model.p, g, scope)

    elif isinstance(model, FactoredModel):
        def arc_weights(node: ChanceNode, scope: Event) -> list:
            probs = model.assessment.arc_probs.get(node.node_id)
            if probs is None or len(probs) != len(node.arcs):
                raise MissingArcProbability(
                    f"no usable arc probabilities for {node.node_id!r}"
                )
            return list(probs)

        def leaf_value(g: Gamble, scope: Event):
            return g.constant_value_on(scope)

    else:
        raise ModeUnsupported("backward induction needs a joint or factored model")

    def prune(node: Node, scope: Event) -> tuple[object, Node]:
        """The node's value, and the node keeping only maximising decision arcs."""
        if isinstance(node, Leaf):
            return node.reward, node
        if isinstance(node, GambleLeaf):
            return leaf_value(node.gamble, scope), node
        if isinstance(node, ChanceNode):
            weights = arc_weights(node, scope)
            total = 0
            arcs = []
            for w, arc in zip(weights, node.arcs):
                child_scope = scope & arc.event
                if child_scope.is_empty:
                    raise ZeroProbabilityCondition(
                        f"arc of {node.node_id!r} has empty scope"
                    )
                v, child = prune(arc.child, child_scope)
                total += w * v
                arcs.append(ChanceArc(arc.event, child))
            return total, ChanceNode(node.node_id, tuple(arcs))
        if isinstance(node, DecisionNode):
            pruned = [(*prune(arc.child, scope), arc.label) for arc in node.arcs]
            top = max(v for v, _, _ in pruned)
            arcs = tuple(DecisionArc(l, c) for v, c, l in pruned if v == top)
            return top, DecisionNode(node.node_id, arcs)
        raise TypeError(f"unknown node type {type(node).__name__}")

    _, root = prune(tree.root, tree.root_scope)
    return enumerate_strategies(DecisionTree(tree.space, root, tree.root_scope))
