"""Normal form solutions of decision trees and the subtree perfectness check.

Every command reads a node's local solution, the positions among its
variants that a choice function keeps, off one strategy table: the one
`_picked_table` picks (full, or filtered by backward induction or by
per-node thresholds), read by `_local_solutions`.  A tree is solved by
reading its root's local solution off the table of the tree re-rooted on
the conditioning event.  Strategies are handled by their positions in the
table; only the ones a solution returns, or a verdict's reader reads, are
decoded into nodes.  Subtree perfectness at a node compares the
restriction of the full solution with the node's local solution, as sets
of positions.  A rule reads the same form of option in every command:
member-sum vectors, value rows or gambles (`_chosen`).
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable, Iterable, Optional, Sequence

from .choice import ChoiceFunction, OptionTable, _require_positive_mass
from .errors import ScopeMismatch, UnknownNode, ZeroProbabilityCondition
from .trees import (
    ChanceNode,
    DecisionNode,
    Decoder,
    DecisionTree,
    Event,
    Gamble,
    Leaf,
    Node,
    Reward,
    Strategy,
    StrategyTable,
    _step,
    gamble_of,
    strategy_table,
    # Unused here, but perfbench/spans.py wraps this module attribute.
    enumerate_strategies,
)
from .uncertainty import UncertaintyModel


@dataclass(frozen=True, eq=False)
class NormalFormSolution:
    """The strategies a choice function keeps.

    ``indices[k]`` is the position of ``strategies[k]`` in
    `enumerate_strategies` order of the solved tree.  The solution keeps no
    strategy table: the one a solve reads is freed when it returns.
    """

    tree_ref: DecisionTree
    strategies: tuple[Strategy, ...]
    conditioning: Event
    choice: ChoiceFunction
    indices: tuple[int, ...]

    @cached_property
    def values(self) -> tuple[tuple[Reward, ...], ...]:
        """``values[k]``: the values of ``strategies[k]``'s gamble on the
        tree's root scope (`gamble_of`), computed on first read."""
        return tuple(gamble_of(s).values for s in self.strategies)


def normal_form_solution(
    tree: DecisionTree,
    choice: ChoiceFunction,
    model: Optional[UncertaintyModel],
    b: Optional[Event] = None,
) -> NormalFormSolution:
    """Solve *tree* in normal form, conditional on *b* (root scope by default).

    A condition b re-roots the tree on b: the re-rooted tree has the same
    variants at the same positions, every node's scope is intersected with
    b, and its root's rows are the strategies' gambles on b.  The root's
    local solution is read off the re-rooted tree's table as `check` reads
    it (`_picked_table`).
    """
    scope = tree.root_scope
    b = scope if b is None else b
    if not b <= scope:
        raise ScopeMismatch(f"conditioning event {b!r} is not inside the root scope {scope!r}")
    on_b = tree if b == scope else DecisionTree(tree.space, tree.root, b)
    local = _local_solutions(on_b, choice, model, _picked_table(on_b, choice, model))
    return _solution(tree, choice, local(tree.root.node_id), b)


def backward_solution(
    tree: DecisionTree, choice: ChoiceFunction, model: Optional[UncertaintyModel]
) -> NormalFormSolution:
    """Solve *tree* by normal form backward induction (Huntley & Troffaes,
    Ann. Oper. Res. 195, 2012): the strategy table is built keeping, after
    each decision and chance node, only the rows *choice* chooses on the
    node's scope.  Equals `normal_form_solution` wherever *choice* is
    subtree perfect on *tree* and this raises nothing.  Under a model that
    conditions on each node's scope (joint, credal), a decision or chance
    node whose scope has probability zero raises `ZeroProbabilityCondition`,
    reached or not: `check` gives it an error verdict only where a solution
    strategy reaches it.  A factored model never divides an arc value, so it
    raises nothing there.
    """
    table = _backward_table(tree, choice, model)
    return _solution(tree, choice, table.positions[tree.root.node_id], tree.root_scope)


def _solution(
    tree: DecisionTree, choice: ChoiceFunction, indices: Iterable[int], b: Event
) -> NormalFormSolution:
    """The solution on *b* that keeps the root's variants at *indices*."""
    indices = tuple(indices)
    strategies = Decoder(tree).strategies(tree.root.node_id, indices)
    return NormalFormSolution(tree, strategies, b, choice, indices)


def _chosen(
    choice: ChoiceFunction,
    model: Optional[UncertaintyModel],
    table: StrategyTable,
    scope: Event,
    rows: list,
) -> list[int]:
    """The indices, in order, of the *rows* (one node's rows of *table*)
    whose options *choice* chooses on the node's *scope*; equal rows are
    one option.  A conditioned solve reads the table of the tree re-rooted
    on its event, so *scope* is always the event the options are compared
    on.  The rule reads the options in one of three forms:

    - In a table built with members (`strategy_table`; it has ``masses``),
      the rows are member-sum vectors, and entries with equal vectors are
      one option, passed on as the table's ``vectors``.  A scope to which a
      member gives mass zero raises as `OptionTable.on` does, from the
      table's scope masses.  Merging equal vectors is exact for every rule
      that reads options through their member sums alone
      (`ChoiceFunction.row_members` with members: `eu` under a joint model,
      Γ-maximin, Γ-maximax, maximality, both E-admissibilities and interval
      dominance): such a rule keeps or drops options with equal vectors
      together, and a second copy of a vector changes none of its
      comparisons (a tie, a dominance, a best lower expectation, a hull
      constraint satisfied by zero), so merging them changes no kept
      position.
    - Under a model-free rule on a numeric tree, the value rows.
    - Otherwise, gambles on *scope*, for the rules that value whole
      gambles, and for every rule on a tree with labels.

    In the first two forms, rows that hold one distinct option are all
    kept without a call to the rule, which keeps a nonempty subset of its
    options: after the empty-scope and member-mass checks, so a scope of
    probability zero raises here whatever its number of options.  The
    rules that value whole gambles are always asked, so their own guards
    raise.
    """
    if scope.is_empty:
        raise ZeroProbabilityCondition("conditioning event is empty")
    distinct = list(dict.fromkeys(rows))
    if table.masses:
        totals = table.masses[scope.members]
        _require_positive_mass(scope, totals)
        options = OptionTable((), distinct, totals)
    elif table.numeric and choice.row_members(model) == ():
        options = OptionTable(distinct)
    else:
        gambles = {Gamble(scope, table.rewards(row)): row for row in distinct}
        kept = {gambles[g] for g in choice.choose(list(gambles), model, scope)}
        return [i for i, row in enumerate(rows) if row in kept]
    if len(distinct) == 1:
        return list(range(len(rows)))
    kept = set(choice.choose(options, model, scope))
    return [i for i, row in enumerate(rows) if row in kept]


def _choice_filter(
    choice: ChoiceFunction, model: Optional[UncertaintyModel]
) -> Callable[..., list[int]]:
    """Backward induction's row filter: at each node, the rows *choice*
    chooses on the node's scope.

    For a separable rule (`ChoiceFunction.is_separable`), where
    `_filters_apply`, the rows the filter keeps at a node N are N's local
    normal form solution (Huntley & Troffaes, Ann. Oper. Res. 195, 2012).
    By induction from the leaves, which have one row, N's choice lies among
    the rows formed from its children's choices:

    - At a chance node, whose arcs all have positive mass, a product row
      with a component its arc's child did not choose is not chosen: the
      child's better component, put in its place, gives a row that beats it
      on the arc's event by a positive multiple and ties it elsewhere.
    - At a decision node, whose arcs keep its scope, a row its child did not
      choose is beaten within the child's rows, so among N's rows as well.

    These rules are path independent: dropping rows they do not choose
    leaves their choice unchanged.  So the filter, choosing among the rows
    formed from the children's choices, makes N's choice.

    In a table built with the rule's members (`_backward_table`), the rows
    are member-sum vectors, so the filter keeps positions without any value
    row, and a node whose rows hold one distinct option keeps them unasked
    (`_chosen`).
    """
    return lambda table, node_id, scope, rows: _chosen(choice, model, table, scope, rows)


def _backward_table(
    tree: DecisionTree, choice: ChoiceFunction, model: Optional[UncertaintyModel]
) -> StrategyTable:
    """Backward induction's table: *tree*'s, built with the rule's members
    and filtered by `_choice_filter`."""
    return strategy_table(tree, _choice_filter(choice, model), choice.row_members(model) or ())


def restrict_solution(
    sol: NormalFormSolution, node_id: str
) -> tuple[Strategy, ...]:
    """The distinct subtrees at *node_id* of the solution's strategies.

    Strategies that do not reach the node contribute nothing; restrictions
    that keep the same arcs are reported once, in order of first appearance.
    They are decoded from the solution's positions with the tree's variant
    counts, so restricting a solution enumerates no strategy and reads no
    table.
    """
    tree = sol.tree_ref
    reached = _reached_positions(tree, tree.root, sol.indices).get(node_id, {})
    return Decoder(tree).strategies(node_id, reached)


def _reached_positions(
    tree: DecisionTree, root: Node, indices: Iterable[int]
) -> dict[str, dict[int, None]]:
    """Per node id at and below *root*, a node of *tree*, the positions
    among the node's variants that the variants *indices* of *root* reach,
    in order of first appearance; nodes that no such variant keeps are
    absent.

    One top-down walk steps each reached (node, position) pair once
    (`trees._step`, with the tree's variant counts, `Plan.counts`), so
    variants that share a subtree do not step it again.
    A child's position is a function of its parent's, so the child's
    positions, met in the order of its parent's, are in their order of
    first appearance over *indices*."""
    count = tree._plan.counts.__getitem__
    at = {root.node_id: dict.fromkeys(indices)}
    stack = [root]
    while stack:
        node = stack.pop()
        for k in at[node.node_id]:
            for arc, j in _step(node, k, count):
                at.setdefault(arc.child.node_id, {})[j] = None
        if isinstance(node, (DecisionNode, ChanceNode)):
            stack.extend(arc.child for arc in node.arcs if arc.child.node_id in at)
    return at


class Outcome(str, enum.Enum):
    VACUOUS_HOLD = "vacuous_hold"
    HOLD = "hold"
    FAIL = "fail"
    ERROR = "error"

    def __str__(self) -> str:  # keep report rendering compact
        return self.value


class PerfectnessVerdict:
    """What happened at one node of the subtree perfectness scan.

    ``vacuous_hold`` means no solution strategy reaches the node, in which
    case the local problem is not even posed.  ``error`` means the local
    problem could not be solved because its conditioning event has
    probability zero under the model; that is reported rather than folded
    into hold or fail.  A check builds one record per node, so the record
    is a plain slotted one: it is not frozen, and compares by identity.

    Each solution is a tuple of strategies, or a callable that decodes it:
    a check passes callables (`_read_verdicts`), so a verdict whose
    solutions nobody reads decodes nothing, and a solution is decoded at
    its first read and kept.
    """

    __slots__ = ("node_id", "outcome", "_restricted", "_local", "detail")

    def __init__(
        self,
        node_id: str,
        outcome: Outcome,
        restricted_solution: tuple[Strategy, ...] | Callable[[], tuple[Strategy, ...]],
        local_solution: tuple[Strategy, ...] | Callable[[], tuple[Strategy, ...]],
        detail: str = "",
    ):
        self.node_id = node_id
        self.outcome = outcome
        self._restricted = restricted_solution
        self._local = local_solution
        self.detail = detail

    @property
    def restricted_solution(self) -> tuple[Strategy, ...]:
        """The distinct subtrees at the node of the full solution's strategies."""
        if callable(self._restricted):
            self._restricted = self._restricted()
        return self._restricted

    @property
    def local_solution(self) -> tuple[Strategy, ...]:
        """The solution of the subtree at the node, on the node's scope."""
        if callable(self._local):
            self._local = self._local()
        return self._local


def _filters_apply(tree: DecisionTree, members: Sequence) -> bool:
    """The premise under which both filtered tables, backward induction's
    (`_choice_filter`) and the threshold filter's (`_threshold_table`),
    hold every local solution they are read for: the tree holds no label
    reward, the mass functions *members* live on the tree's space, and no
    node's scope is empty or has mass zero under a member.
    """
    plan = tree._plan
    if "label" in plan.kinds or any(p.space != tree.space for p in members):
        return False
    scopes = plan.scopes
    # a scope has mass zero under a member when it lies in the member's null atoms
    null = [frozenset(a for a, m in zip(tree.space.atoms, p.masses) if not m) for p in members]
    return frozenset() not in scopes and not any(s <= z for z in null if z for s in scopes)


#: The rules `_threshold_table` filters, each with the test a row's values
#: (maximin) or member sums (the others) must pass against the node's
#: thresholds: reach every one, or some one.
_THRESHOLD_TESTS = {
    "maximin": all,
    "gamma_maximin": all,
    "gamma_maximax": any,
    "interval_dominance": any,
}


def _threshold_table(
    tree: DecisionTree, choice: ChoiceFunction, members: Sequence
) -> StrategyTable:
    """A filtered table whose kept rows at every node that the full solution
    reaches include that node's local normal form solution, under maximin,
    Γ-maximin, Γ-maximax or interval dominance, where
    `_filters_apply(tree, members)`; *members* are the rule's
    (`ChoiceFunction.row_members`).

    The filter keeps a row when its values (maximin) or its member sums
    (the others, whose table holds member-sum vectors as rows) reach the
    node's thresholds, all of them or some of them (`_THRESHOLD_TESTS`).
    Both threshold walks read the tree's node plan; the member thresholds
    are set at the filter's first call from the table's scope masses
    (`StrategyTable.masses`), which the pass totals before it begins, so a
    check totals them once.  This is exact because the thresholds are set
    so that:

    - Each node keeps exactly its rows that pass its thresholds.  Each
      component of a row of A that passes A's thresholds passes the ones
      A's child inherits, and the child's own are at most those.
    - Each row the rule keeps at a reached node N passes N's thresholds.

    So the rule applied to a reached node's kept rows is its local
    solution, and applied to the root's, the full solution.

    - Maximin: every node's threshold is ``top(root)``, where ``top(N)`` is
      N's best worst case (a leaf's least value, the max over a decision
      node's children, the min over a chance node's).  A chance row's least
      value is its components' least.  A reached node N has ``top(N) >=
      top(root)``, through the component of a chosen root row.
    - Γ-maximin, Γ-maximax, interval dominance: `_member_thresholds` gives,
      per node N and member m, θ_m(N) = min(⌈λ_N·P_m(N)⌉, inherited), where
      P_m(N) is member m's integer mass of N's scope and λ_N is at most N's
      Γ-maximin value (Troffaes, IJAR 45, 2007: a Γ-maximin choice's lower
      expectation is at least any one row's), or under Γ-maximax equals
      N's Γ-maximax value.  A row the rule keeps at N has a member m whose
      sum reaches λ_N·P_m(N) (every m, for Γ-maximin).  A decision child
      inherits its parent's θ.  A chance child c of A inherits θ_m(A) −
      (best_m(A) − best_m(c)), where best_m is a node's largest member-m
      sum: the other components' sums add up to at most the rest of
      best_m(A).  The Γ-maximin-best rows pass every member's threshold, so
      interval dominance recovers N's exact Γ-maximin value from the kept
      rows.  Building a node's local solution from its children's rows is
      normal form backward induction's step (Huntley & Troffaes, Ann. Oper.
      Res. 195, 2012).
    """
    if choice.kind == "maximin":
        t = _best_worst_case(tree)
        return strategy_table(
            tree, lambda table, node_id, scope, rows: [
                j for j, row in enumerate(rows) if min(row) >= t
            ]
        )
    test = _THRESHOLD_TESTS[choice.kind]
    weights = [p._integers[1] for p in members]
    thresholds: dict[str, list[int]] = {}

    def keep(table: StrategyTable, node_id: str, scope: Event, rows: list) -> list[int]:
        if not thresholds:
            # the first call: the table's scope masses are all in
            thresholds.update(
                _member_thresholds(tree, table.masses, weights, choice.kind == "gamma_maximax")
            )
        # a table built with members: each row is a member-sum vector
        theta = thresholds[node_id]
        return [j for j, col in enumerate(rows) if test(map(operator.ge, col, theta))]

    return strategy_table(tree, keep, members)


def _best_worst_case(tree: DecisionTree) -> int:
    """The root's best worst case, scaled as in `StrategyTable`: a leaf's
    least value, the max over a decision node's children, the min over a
    chance node's."""
    top: dict[str, int] = {}
    for nid, kind, _, children, data in tree._plan.nodes:
        if kind is DecisionNode:
            top[nid] = max(map(top.__getitem__, children))
        elif kind is ChanceNode:
            top[nid] = min(map(top.__getitem__, children))
        else:
            top[nid] = data if kind is Leaf else min(data)
    return top[tree.root.node_id]


def _member_thresholds(
    tree: DecisionTree,
    masses: dict[frozenset, list[int]],
    weights: Sequence[Sequence[int]],
    upper: bool,
) -> dict[str, list[int]]:
    """θ_m(N) of `_threshold_table`, by decision and chance node id, for
    integer member weights *weights* (one per atom of the space, each
    giving every leaf's scope positive mass), *masses* their totals over
    each node's scope (the table's `StrategyTable.masses`) and leaf values
    scaled as in `StrategyTable`, with λ_N the Γ-maximax value where
    *upper* and a lower bound on the Γ-maximin value otherwise.

    A bottom-up walk of the tree's plan gives per node N and member m:
    best_m(N), N's largest member-m sum (max over a decision node's
    children, sum over a chance node's); and vec_m(N), the member sums of
    one row whose member-m sum is best_m(N) (the best child's at a decision
    node, the children's added at a chance node).  With P_m(N), N's scope's
    mass, that row's lower expectation, min over k of vec_m(N)[k]/P_k(N),
    is at most N's Γ-maximin value, and λ_N is the largest over m; under
    Γ-maximax, λ_N is the largest best_m(N)/P_m(N).  A top-down walk of the
    plan then sets the thresholds.  Ratios are compared as integer cross
    products.
    """
    plan = tree._plan
    members = range(len(weights))
    best: dict[str, list[int]] = {}
    vec: dict[str, list[list[int]]] = {}
    for nid, kind, scope, children, data in plan.nodes:
        if kind is DecisionNode:
            first = children[0]
            b, v = best[first][:], vec[first][:]
            for c in children[1:]:
                for m, x in enumerate(best[c]):
                    if x > b[m]:
                        b[m], v[m] = x, vec[c][m]
            best[nid], vec[nid] = b, v
        elif kind is ChanceNode:
            best[nid] = list(map(sum, zip(*[best[c] for c in children])))
            vec[nid] = [list(map(sum, zip(*[vec[c][m] for c in children]))) for m in members]
        else:
            sums = list(plan.leaf_sums(kind, scope, data, weights, masses))
            best[nid], vec[nid] = sums, [sums] * len(weights)

    thresholds: dict[str, list[int]] = {}
    inherited: dict[str, list[int]] = {}
    for nid, kind, scope, children, _ in reversed(plan.nodes):  # parents first
        if kind is not DecisionNode and kind is not ChanceNode:
            continue
        p, b = masses[scope.members], best[nid]
        # λ_N as num/den: the largest of the candidate ratios
        if upper:
            candidates: Iterable[tuple[int, int]] = zip(b, p)
        else:
            candidates = []
            for v in vec[nid]:
                lo, lo_mass = v[0], p[0]
                for x, q in zip(v, p):
                    if x * lo_mass < lo * q:
                        lo, lo_mass = x, q
                candidates.append((lo, lo_mass))
        num, den = None, 1
        for x, q in candidates:
            if num is None or x * den > num * q:
                num, den = x, q
        theta = [-(-num * q // den) for q in p]
        if nid in inherited:
            theta = list(map(min, theta, inherited[nid]))
        thresholds[nid] = theta
        for c in children:
            if kind is DecisionNode:
                inherited[c] = theta
            else:
                inherited[c] = [t - (x - y) for t, x, y in zip(theta, b, best[c])]
    return thresholds


def _picked_table(
    tree: DecisionTree, choice: ChoiceFunction, model: Optional[UncertaintyModel]
) -> StrategyTable:
    """The one strategy table of *tree* that every command reads its local
    solutions off (`_local_solutions`): `check`, `check-node` and `solve`,
    which picks for the tree re-rooted on its condition.  It is one of
    three, with the same local solutions at every node the full solution
    reaches:

    - backward induction's (`_backward_table`), for a separable rule: its
      kept positions at each node are the node's local solution, and the
      root's the full one (`_choice_filter`);
    - the threshold filter's (`_threshold_table`), for maximin, Γ-maximin,
      Γ-maximax and interval dominance: the rule's choice among a reached
      node's kept rows is its local solution;
    - the full `strategy_table` otherwise: the rules that read whole
      gambles, trees with label rewards or a scope of probability zero
      (whose `error` verdicts only the full table gives), and members on
      another space (which `strategy_table` refuses).

    The filtered tables are taken on a tree of any size, wherever
    `_filters_apply` to the members the rule reads.  Every table is built
    with those members, so on a numeric tree its rows are member-sum
    vectors under a rule that reads them.  Every table solves a node
    through `_chosen`, so all make the same rule calls: none where a node's
    rows hold one distinct option, after the checks that raise on a scope
    of probability zero.
    """
    members = choice.row_members(model)
    if members is None or not _filters_apply(tree, members):
        return strategy_table(tree, None, members or ())
    if choice.is_separable:
        return _backward_table(tree, choice, model)
    return _threshold_table(tree, choice, members)


def _local_solutions(
    tree: DecisionTree,
    choice: ChoiceFunction,
    model: Optional[UncertaintyModel],
    table: StrategyTable,
) -> Callable[[str], Sequence[int]]:
    """Per node id, the node's local solution as positions among its
    variants, read off *table* (`_picked_table`): a separable rule's kept
    positions in backward induction's table, or else the rule's choice
    among the node's rows (`_chosen`), made once per node and, in the
    threshold filter's table, mapped to variants through ``positions``,
    which only the filtered tables have."""
    if table.positions and choice.is_separable:
        return table.positions.__getitem__
    solved: dict[str, list[int]] = {}

    def local(node_id: str) -> list[int]:
        if node_id not in solved:
            at = table.positions.get(node_id)
            kept = _chosen(choice, model, table, tree.scope_of(node_id), table[node_id])
            solved[node_id] = kept if at is None else [at[j] for j in kept]
        return solved[node_id]

    return local


def _read_verdicts(
    tree: DecisionTree,
    choice: ChoiceFunction,
    model: Optional[UncertaintyModel],
    node_ids: Iterable[str],
    table: StrategyTable,
) -> tuple[PerfectnessVerdict, ...]:
    """The verdicts at *node_ids*, read off *table*, one of the three that
    `_picked_table` explains, through `_local_solutions`.

    The restriction at every node comes from one top-down walk from the
    root's local solution (`_reached_positions`).  A node that no solution
    strategy reaches gets a vacuous verdict at once, unsolved and
    undecoded.  The verdicts compare positions, and decode a solution only
    when it is read (`PerfectnessVerdict`): a posed node's restriction
    once; on a hold, the local solution is those same strategies in local
    order, and only a fail decodes its local solution as well.  All
    decoding goes through one decoder, so the verdicts' strategies share
    their nodes."""
    local = _local_solutions(tree, choice, model, table)
    reached = _reached_positions(tree, tree.root, local(tree.root.node_id))
    decode = Decoder(tree)
    verdicts = []
    for nid in node_ids:
        positions = reached.get(nid)
        if not positions:
            verdicts.append(PerfectnessVerdict(nid, Outcome.VACUOUS_HOLD, (), ()))
            continue
        restricted = _once(partial(decode.strategies, nid, positions))
        try:
            indices = local(nid)
        except ZeroProbabilityCondition as exc:
            verdicts.append(PerfectnessVerdict(nid, Outcome.ERROR, restricted, (), str(exc)))
            continue
        if positions.keys() == set(indices):
            outcome = Outcome.HOLD
            solution = partial(_in_local_order, restricted, positions, indices)
        else:
            outcome, solution = Outcome.FAIL, partial(decode.strategies, nid, indices)
        verdicts.append(PerfectnessVerdict(nid, outcome, restricted, solution))
    return tuple(verdicts)


def _once(f: Callable[[], tuple[Strategy, ...]]) -> Callable[[], tuple[Strategy, ...]]:
    """*f*, called at the first call only: every call returns that value."""
    kept = []

    def once() -> tuple[Strategy, ...]:
        if not kept:
            kept.append(f())
        return kept[0]

    return once


def _in_local_order(
    restricted: Callable[[], tuple[Strategy, ...]],
    positions: Iterable[int],
    indices: Sequence[int],
) -> tuple[Strategy, ...]:
    """A hold's local solution: the strategies *restricted* decodes at
    *positions*, taken at *indices*, the same positions in local order."""
    return tuple(map(dict(zip(positions, restricted())).__getitem__, indices))


def check_subtree_perfect_at(
    tree: DecisionTree,
    choice: ChoiceFunction,
    model: Optional[UncertaintyModel],
    node_id: str,
) -> PerfectnessVerdict:
    """Compare the full solution restricted to *node_id* with the local solution."""
    if not tree.contains(node_id):
        raise UnknownNode(f"no node with id {node_id!r}")
    return _read_verdicts(tree, choice, model, (node_id,), _picked_table(tree, choice, model))[0]


def check_subtree_perfect(
    tree: DecisionTree,
    choice: ChoiceFunction,
    model: Optional[UncertaintyModel],
) -> tuple[PerfectnessVerdict, ...]:
    """One verdict per node, in preorder.

    Restricted and local solutions are compared by their positions among
    each node's variants, and every verdict is read off the one strategy
    table `_picked_table` picks (the full table, or one filtered by backward
    induction or by per-node thresholds).
    """
    return _read_verdicts(tree, choice, model, tree.node_ids(), _picked_table(tree, choice, model))


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
