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
from typing import Callable, Iterable, Optional

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
    Strategy,
    StrategyTable,
    # Unused here, but perfbench/spans.py wraps these module attributes.
    enumerate_strategies,
    gamble_of,
    strategy_table,
    subtree_at,
)
from .uncertainty import UncertaintyModel


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
    indices = tuple(_chosen(choice, model, table, scope, rows, table.numeric, b))
    kept = tuple(Strategy(tree.space, table.variant(tree.root, i), scope) for i in indices)
    return NormalFormSolution(tree, kept, b, choice, indices)


def backward_solution(
    tree: DecisionTree, choice: ChoiceFunction, model: Optional[UncertaintyModel]
) -> NormalFormSolution:
    """Solve *tree* by normal form backward induction (Huntley & Troffaes,
    Ann. Oper. Res. 195, 2012): the strategy table is built keeping, after
    each decision and chance node, only the rows *choice* chooses on the
    node's scope.  Equals `normal_form_solution` wherever *choice* is
    subtree perfect on *tree*.  A node whose scope has probability zero
    raises `ZeroProbabilityCondition`, where `check` gives an error verdict.
    """
    scope = tree.root_scope
    table = strategy_table(tree, partial(_chosen, choice, model))
    indices = tuple(table.positions[tree.root.node_id])
    kept = tuple(Strategy(tree.space, table.variant(tree.root, i), scope) for i in indices)
    return NormalFormSolution(tree, kept, scope, choice, indices)


def _chosen(
    choice: ChoiceFunction,
    model: Optional[UncertaintyModel],
    table: StrategyTable,
    scope: Event,
    rows: list,
    numeric: bool,
    b: Optional[Event] = None,
) -> list[int]:
    """The indices, in order, of the *rows* (one node's rows of *table*, on
    *scope*) whose gambles *choice* chooses on *b* (*scope* by default);
    rows equal on b are one option.  *numeric*: no row holds a label."""
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

    if numeric and choice.takes_rows(model):
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
    """
    tree = sol.tree_ref
    if not tree.contains(node_id):
        raise UnknownNode(f"no node with id {node_id!r}")
    table = strategy_table(tree)
    reached = _reached_positions(table, tree.root, sol.indices).get(node_id, {})
    return _variants(tree, table, node_id, reached, {})


def _reached_positions(
    table: StrategyTable, root: Node, indices: tuple[int, ...]
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
    local: Callable[[str], tuple[tuple[int, ...], tuple[Strategy, ...]]],
) -> PerfectnessVerdict:
    """The verdict at *node_id*, where *reached* is `_reached_positions` of
    the full solution and ``local(node_id)`` gives the indices and
    strategies of the node's local solution."""
    positions = reached.get(node_id)
    if not positions:
        return PerfectnessVerdict(node_id, Outcome.VACUOUS_HOLD, (), ())
    try:
        indices, strategies = local(node_id)
    except ZeroProbabilityCondition as exc:
        restricted = _variants(tree, table, node_id, positions, {})
        return PerfectnessVerdict(node_id, Outcome.ERROR, restricted, (), str(exc))
    built = dict(zip(indices, strategies))
    restricted = _variants(tree, table, node_id, positions, built)
    outcome = Outcome.HOLD if positions.keys() == built.keys() else Outcome.FAIL
    return PerfectnessVerdict(node_id, outcome, restricted, strategies)


def _one_pass_verdicts(
    tree: DecisionTree,
    choice: ChoiceFunction,
    model: Optional[UncertaintyModel],
    node_ids: Iterable[str],
) -> Optional[tuple[PerfectnessVerdict, ...]]:
    """The verdicts at *node_ids*, all read off `backward_solution`'s
    filtered table, or None where that table may not hold every node's
    local normal form solution.

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
        table = strategy_table(tree, partial(_chosen, choice, model))
    except ZeroProbabilityCondition:
        return None
    positions = table.positions
    reached = _reached_positions(table, tree.root, positions[tree.root.node_id])

    def local(node_id: str) -> tuple[tuple[int, ...], tuple[Strategy, ...]]:
        indices = tuple(positions[node_id])
        return indices, _variants(tree, table, node_id, indices, {})

    return tuple(_verdict_at(tree, table, reached, nid, local) for nid in node_ids)


def _normal_form_verdicts(
    tree: DecisionTree,
    choice: ChoiceFunction,
    model: Optional[UncertaintyModel],
    node_ids: Iterable[str],
) -> tuple[PerfectnessVerdict, ...]:
    """The verdicts at *node_ids*, each node's local problem solved in normal
    form from one unfiltered strategy table shared by every solve."""
    table = strategy_table(tree)
    full = normal_form_solution(tree, choice, model, table=table)
    root_id = tree.root.node_id
    reached = _reached_positions(table, tree.root, full.indices)

    def local(node_id: str) -> tuple[tuple[int, ...], tuple[Strategy, ...]]:
        # The root's local problem is the full problem.
        sol = full
        if node_id != root_id:
            sol = normal_form_solution(subtree_at(tree, node_id), choice, model, table=table)
        return sol.indices, sol.strategies

    return tuple(_verdict_at(tree, table, reached, nid, local) for nid in node_ids)


def _verdicts(
    tree: DecisionTree,
    choice: ChoiceFunction,
    model: Optional[UncertaintyModel],
    node_ids: tuple[str, ...],
) -> tuple[PerfectnessVerdict, ...]:
    one_pass = _one_pass_verdicts(tree, choice, model, node_ids)
    if one_pass is not None:
        return one_pass
    return _normal_form_verdicts(tree, choice, model, node_ids)


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
    each node's variants.  For the separable rules, on trees where every
    node's scope has positive probability, every verdict is read off one
    filtered pass, `backward_solution`'s (see `_one_pass_verdicts`).
    Otherwise the strategy table is built once and shared by every local
    normal form solve, and the full solution is computed once.
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
