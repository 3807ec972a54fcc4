"""Normal form solutions of decision trees and the subtree perfectness check.

A tree is solved by listing its strategies, deduplicating the gambles they
induce on the conditioning event, applying a choice function to the distinct
gambles and keeping every strategy whose gamble was chosen.  Subtree
perfectness at a node compares the restriction of the full solution with the
solution computed locally in the subtree.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from .choice import ChoiceFunction
from .errors import ScopeMismatch, UnknownNode, ZeroProbabilityCondition
from .trees import (
    ChanceNode,
    DecisionArc,
    DecisionNode,
    DecisionTree,
    Event,
    Gamble,
    GambleLeaf,
    Leaf,
    Node,
    Row,
    Strategy,
    # Unused here, but perfbench/spans.py wraps these two module attributes.
    enumerate_strategies,
    gamble_of,
    strategy_table,
    subtree_at,
)
from .uncertainty import (
    FactoredModel,
    JointModel,
    UncertaintyModel,
    expectation,
    factored_expectation,
)


@dataclass(frozen=True, eq=False)
class NormalFormSolution:
    """The strategies a choice function keeps, with the data that produced them."""

    tree_ref: DecisionTree
    strategies: tuple[Strategy, ...]
    conditioning: Event
    choice: ChoiceFunction


def normal_form_solution(
    tree: DecisionTree,
    choice: ChoiceFunction,
    model: Optional[UncertaintyModel],
    b: Optional[Event] = None,
    *,
    table: Optional[dict[str, list[Row]]] = None,
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
        positions = [at[a] for a in b.ordered]
    else:
        positions = None

    # One gamble per distinct value tuple on b, each on the whole scope.
    # Hashing a key hashes every Fraction in it, so each key is hashed once.
    classes: dict[tuple, int] = {}
    distinct: list[Gamble] = []
    class_of: list[int] = []
    for _, values in rows:
        key = values if positions is None else tuple(values[i] for i in positions)
        c = classes.setdefault(key, len(distinct))
        if c == len(distinct):
            distinct.append(Gamble(scope, values))
        class_of.append(c)

    chosen = choice.choose(distinct, model, b)
    chosen_classes = {classes.get(g.values_on(b)) for g in chosen}
    kept = tuple(
        Strategy(tree.space, v, scope)
        for (v, _), c in zip(rows, class_of)
        if c in chosen_classes
    )
    return NormalFormSolution(tree, kept, b, choice)


def restrict_solution(
    sol: NormalFormSolution, node_id: str
) -> tuple[Strategy, ...]:
    """The distinct subtrees at *node_id* of the solution's strategies.

    Strategies that do not reach the node contribute nothing; structurally
    equal restrictions are reported once, in order of first appearance.
    """
    if not sol.tree_ref.contains(node_id):
        raise UnknownNode(f"no node with id {node_id!r}")
    seen: dict[Strategy, None] = {}
    for s in sol.strategies:
        if s.contains(node_id):
            seen.setdefault(subtree_at(s, node_id), None)
    return tuple(seen)


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
    table: dict[str, list[Row]],
) -> PerfectnessVerdict:
    restricted = restrict_solution(full, node_id)
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
    outcome = Outcome.HOLD if set(restricted) == set(local) else Outcome.FAIL
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
    probabilities, at decision nodes every value-maximising arc is kept, and
    the kept arcs are recombined into strategies.  For expected utility this
    agrees with the normal form solution.
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
                from .errors import MissingArcProbability

                raise MissingArcProbability(
                    f"no usable arc probabilities for {node.node_id!r}"
                )
            return list(probs)

        def leaf_value(g: Gamble, scope: Event):
            return g.constant_value_on(scope)

    else:
        from .errors import ModeUnsupported

        raise ModeUnsupported("backward induction needs a joint or factored model")

    kept_arcs: dict[str, tuple[int, ...]] = {}

    def value(node: Node, scope: Event):
        if isinstance(node, Leaf):
            return node.reward
        if isinstance(node, GambleLeaf):
            return leaf_value(node.gamble, scope)
        if isinstance(node, ChanceNode):
            weights = arc_weights(node, scope)
            total = 0
            for w, arc in zip(weights, node.arcs):
                child_scope = scope & arc.event
                if child_scope.is_empty:
                    raise ZeroProbabilityCondition(
                        f"arc of {node.node_id!r} has empty scope"
                    )
                total += w * value(arc.child, child_scope)
            return total
        if isinstance(node, DecisionNode):
            vals = [value(arc.child, scope) for arc in node.arcs]
            top = max(vals)
            kept_arcs[node.node_id] = tuple(
                i for i, v in enumerate(vals) if v == top
            )
            return top
        raise TypeError(f"unknown node type {type(node).__name__}")

    value(tree.root, tree.root_scope)

    def variants(node: Node) -> list[Node]:
        if isinstance(node, (Leaf, GambleLeaf)):
            return [node]
        if isinstance(node, DecisionNode):
            out: list[Node] = []
            for i in kept_arcs[node.node_id]:
                arc = node.arcs[i]
                for child in variants(arc.child):
                    out.append(
                        DecisionNode(node.node_id, (DecisionArc(arc.label, child),))
                    )
            return out
        if isinstance(node, ChanceNode):
            import itertools

            choices = [variants(arc.child) for arc in node.arcs]
            out = []
            for combo in itertools.product(*choices):
                out.append(
                    ChanceNode(
                        node.node_id,
                        tuple(
                            arc.__class__(arc.event, child)
                            for arc, child in zip(node.arcs, combo)
                        ),
                    )
                )
            return out
        raise TypeError(f"unknown node type {type(node).__name__}")

    return tuple(
        Strategy(tree.space, v, tree.root_scope) for v in variants(tree.root)
    )
