"""Normal form solutions of decision trees and the subtree perfectness check.

A tree is solved by reading its strategies' rows from the strategy table
(the gambles they induce on the conditioning event, as integer rows),
deduplicating them, applying a choice function to the distinct ones and
keeping every strategy whose gamble was chosen.  Strategies are handled by
their positions in the table; only the ones a solution or a verdict returns
are decoded into nodes.  Subtree perfectness at a node compares the
restriction of the full solution with the solution computed locally in the
subtree, as sets of positions among the node's variants.  For the separable
rules both are read off the one table that backward induction filters.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Optional, Sequence

from .choice import ChoiceFunction, OptionRows
from .errors import (
    ModeUnsupported,
    ScopeMismatch,
    UnknownNode,
    ZeroProbabilityCondition,
)
from .trees import (
    DecisionTree,
    Event,
    Gamble,
    GambleLeaf,
    Leaf,
    Node,
    Reward,
    Strategy,
    StrategyTable,
    strategy_table,
    # Unused here, but perfbench/spans.py wraps these module attributes.
    enumerate_strategies,
    gamble_of,
)
from .uncertainty import UncertaintyModel


@dataclass(frozen=True, eq=False)
class NormalFormSolution:
    """The strategies a choice function keeps, with the data that produced them.

    ``indices[k]`` is the position of ``strategies[k]`` in
    `enumerate_strategies` order of the solved tree, and ``values[k]`` the
    values of its gamble on the tree's root scope, read from its row of
    ``table``: the tree's `strategy_table`, or the table `backward_solution`
    filtered.
    """

    tree_ref: DecisionTree
    strategies: tuple[Strategy, ...]
    conditioning: Event
    choice: ChoiceFunction
    indices: tuple[int, ...]
    values: tuple[tuple[Reward, ...], ...]
    table: StrategyTable


def normal_form_solution(
    tree: DecisionTree,
    choice: ChoiceFunction,
    model: Optional[UncertaintyModel],
    b: Optional[Event] = None,
) -> NormalFormSolution:
    """Solve *tree* in normal form, conditional on *b* (root scope by default)."""
    scope = tree.root_scope
    b = scope if b is None else b
    table = strategy_table(tree)
    kept = _chosen(choice, model, table, scope, table[tree.root.node_id], b)
    return _solution(tree, choice, table, kept, b)


def backward_solution(
    tree: DecisionTree, choice: ChoiceFunction, model: Optional[UncertaintyModel]
) -> NormalFormSolution:
    """Solve *tree* by normal form backward induction (Huntley & Troffaes,
    Ann. Oper. Res. 195, 2012): the strategy table is built keeping, after
    each decision and chance node, only the rows *choice* chooses on the
    node's scope.  Equals `normal_form_solution` wherever *choice* is
    subtree perfect on *tree*.  Under a model that conditions on each
    node's scope (joint, credal), a node whose scope has probability zero
    raises `ZeroProbabilityCondition`, where `check` gives an error verdict;
    a factored model never divides an arc value, so it raises nothing there.
    """
    table = strategy_table(tree, partial(_chosen, choice, model))
    kept = range(len(table[tree.root.node_id]))
    return _solution(tree, choice, table, kept, tree.root_scope)


def _solution(
    tree: DecisionTree, choice: ChoiceFunction, table: StrategyTable, kept: Sequence[int], b: Event
) -> NormalFormSolution:
    """The solution that keeps the root's rows *kept* of *table*."""
    root = tree.root.node_id
    at = table.positions.get(root)
    indices = tuple(kept if at is None else (at[j] for j in kept))
    values = tuple(table.rewards(table[root][j]) for j in kept)
    strategies = _variants(tree, table, root, indices, {})
    return NormalFormSolution(tree, strategies, b, choice, indices, values, table)


def _chosen(
    choice: ChoiceFunction,
    model: Optional[UncertaintyModel],
    table: StrategyTable,
    scope: Event,
    rows: list,
    b: Optional[Event] = None,
) -> list[int]:
    """The indices, in order, of the *rows* (one node's rows of *table*, on
    *scope*) whose gambles *choice* chooses on *b* (*scope* by default);
    rows equal on b are one option."""
    b = scope if b is None else b
    if rows and b != scope:
        if not b <= scope:
            raise ScopeMismatch("event is not contained in the gamble's scope")
        at = {a: i for i, a in enumerate(scope.ordered)}
        pick = operator.itemgetter(*(at[a] for a in b.ordered))
        keys = [pick(values) for values in rows]
        if len(b) == 1:
            keys = [(k,) for k in keys]
    else:
        keys = rows

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
        distinct = [Gamble(scope, table.rewards(rows[i])) for i in first.values()]
        on_b = {g.values_on(b) for g in choice.choose(distinct, model, b)}
        chosen = {c for c, g in enumerate(distinct) if g.values_on(b) in on_b}
    return [i for i, c in enumerate(class_of) if c in chosen]


def restrict_solution(
    sol: NormalFormSolution, node_id: str
) -> tuple[Strategy, ...]:
    """The distinct subtrees at *node_id* of the solution's strategies.

    Strategies that do not reach the node contribute nothing; restrictions
    that keep the same arcs are reported once, in order of first appearance.
    They are decoded from the solution's own table, so restricting a
    `backward_solution` enumerates no strategy.
    """
    tree = sol.tree_ref
    reached = _reached_positions(sol.table, tree.root, sol.indices).get(node_id, {})
    return _variants(tree, sol.table, node_id, reached, {})


def _reached_positions(
    table: StrategyTable, root: Node, indices: Iterable[int]
) -> dict[str, dict[int, None]]:
    """Per node id, the positions among the node's variants that the
    variants *indices* of *root* reach, in order of first appearance."""
    at: dict[str, dict[int, None]] = {}
    for i in indices:
        for nid, k in table.reached(root, i).items():
            at.setdefault(nid, {})[k] = None
    return at


def _variants(
    tree: DecisionTree,
    table: StrategyTable,
    node_id: str,
    positions: Iterable[int],
    built: dict[int, Strategy],
) -> tuple[Strategy, ...]:
    """The strategies of the subtree at *node_id* at *positions*, taken from
    *built* where it has them and decoded otherwise."""
    node = tree.find(node_id)
    scope = tree.scope_of(node_id)
    return tuple(
        built[k] if k in built else Strategy(tree.space, table.variant(node, k), scope)
        for k in positions
    )


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
    table: StrategyTable,
    reached: dict[str, dict[int, None]],
    node_id: str,
    local: Callable[[str], Sequence[int]],
) -> PerfectnessVerdict:
    """The verdict at *node_id*, where *reached* is `_reached_positions` of
    the full solution and ``local(node_id)`` gives the positions of the
    node's local solution among its variants."""
    positions = reached.get(node_id)
    if not positions:
        return PerfectnessVerdict(node_id, Outcome.VACUOUS_HOLD, (), ())
    try:
        indices = local(node_id)
    except ZeroProbabilityCondition as exc:
        restricted = _variants(tree, table, node_id, positions, {})
        return PerfectnessVerdict(node_id, Outcome.ERROR, restricted, (), str(exc))
    strategies = _variants(tree, table, node_id, indices, {})
    built = dict(zip(indices, strategies))
    restricted = _variants(tree, table, node_id, positions, built)
    outcome = Outcome.HOLD if positions.keys() == built.keys() else Outcome.FAIL
    return PerfectnessVerdict(node_id, outcome, restricted, strategies)


def _filtered_table(
    tree: DecisionTree, choice: ChoiceFunction, model: Optional[UncertaintyModel]
) -> Optional[StrategyTable]:
    """`backward_solution`'s filtered table, or None where it may not hold
    every node's local normal form solution.

    For a separable rule (`ChoiceFunction.is_separable`) whose members all
    give every node's scope positive probability, the rows the filter keeps
    at a node N are N's local normal form solution (Huntley & Troffaes,
    Ann. Oper. Res. 195, 2012).  By induction from the leaves, which have
    one row, N's choice lies among the rows formed from its children's
    choices:

    - At a chance node, whose arcs all have positive mass, a product row
      with a component its arc's child did not choose is not chosen: the
      child's better component, put in its place, gives a row that beats it
      on the arc's event by a positive multiple and ties it elsewhere.
    - At a decision node, whose arcs keep its scope, a row its child did not
      choose is beaten within the child's rows, so among N's rows as well.

    These rules are path independent: dropping rows they do not choose
    leaves their choice unchanged.  So the filter, choosing among the rows
    formed from the children's choices, makes N's choice.

    The filter raises `ZeroProbabilityCondition` at a decision or chance
    node whose scope a member gives probability zero, and the leaves are
    checked here, since the filter never runs at them; either way, and for
    `eu` under a factored model (which values whole gambles) and trees with
    label rewards, the normal form decides, with its `error` verdicts.
    """
    if not (choice.is_separable and choice.takes_rows(model)):
        return None
    try:
        members = choice.members(model)
    except ModeUnsupported:
        return None
    positive = all(p.is_strictly_positive for p in members)
    for node, scope in tree.nodes():
        if isinstance(node, Leaf):
            rewards: Iterable = (node.reward,)
        elif isinstance(node, GambleLeaf):
            rewards = node.gamble.values
        else:
            continue
        if (
            scope.is_empty
            or not positive and any(p.prob(scope) == 0 for p in members)
            or any(isinstance(v, str) for v in rewards)
        ):
            return None
    try:
        return strategy_table(tree, partial(_chosen, choice, model))
    except ZeroProbabilityCondition:
        return None


def _read_verdicts(
    tree: DecisionTree,
    choice: ChoiceFunction,
    model: Optional[UncertaintyModel],
    node_ids: Iterable[str],
    table: StrategyTable,
) -> tuple[PerfectnessVerdict, ...]:
    """The verdicts at *node_ids*, read off *table*: either `_filtered_table`,
    whose kept positions at each node are its local solution, or the full
    `strategy_table`, where each posed node's rows are solved in normal form
    once, the root's giving the full solution as well."""
    if table.counts is not None:
        local = table.positions.__getitem__
    else:
        solved: dict[str, list[int]] = {}

        def local(node_id: str) -> list[int]:
            if node_id not in solved:
                scope = tree.scope_of(node_id)
                solved[node_id] = _chosen(choice, model, table, scope, table[node_id])
            return solved[node_id]

    reached = _reached_positions(table, tree.root, local(tree.root.node_id))
    return tuple(_verdict_at(tree, table, reached, nid, local) for nid in node_ids)


def _verdicts(
    tree: DecisionTree,
    choice: ChoiceFunction,
    model: Optional[UncertaintyModel],
    node_ids: tuple[str, ...],
) -> tuple[PerfectnessVerdict, ...]:
    table = _filtered_table(tree, choice, model)
    if table is None:
        table = strategy_table(tree)
    return _read_verdicts(tree, choice, model, node_ids, table)


def check_subtree_perfect_at(
    tree: DecisionTree,
    choice: ChoiceFunction,
    model: Optional[UncertaintyModel],
    node_id: str,
) -> PerfectnessVerdict:
    """Compare the full solution restricted to *node_id* with the local solution."""
    if not tree.contains(node_id):
        raise UnknownNode(f"no node with id {node_id!r}")
    return _verdicts(tree, choice, model, (node_id,))[0]


def check_subtree_perfect(
    tree: DecisionTree,
    choice: ChoiceFunction,
    model: Optional[UncertaintyModel],
) -> tuple[PerfectnessVerdict, ...]:
    """One verdict per node, in preorder.

    Restricted and local solutions are compared by their positions among
    each node's variants, and every verdict is read off one strategy table.
    For the separable rules, on trees where every node's scope has positive
    probability, that is the table `backward_solution` filters (see
    `_filtered_table`).  Otherwise it is the full table, and each posed
    node's rows are solved in normal form once.
    """
    return _verdicts(tree, choice, model, tree.node_ids())


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
    """The strategies `backward_solution` keeps under expected utility."""
    return backward_solution(tree, ChoiceFunction("eu"), model).strategies
