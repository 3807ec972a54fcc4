"""Finite possibility spaces, events, gambles and sequential decision trees.

Everything is exact: numeric rewards are `fractions.Fraction`, events are
subsets of a finite possibility space, and all structures are frozen.
Strategies are listed by `strategy_table` and told apart by the arcs they
keep (`kept_children`); the table's rows hold numeric rewards as integers
over one denominator per tree.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Union

from .errors import (
    DuplicateArcLabel,
    DuplicateNodeId,
    EmptyScope,
    IncompletePartition,
    MixedRewardKinds,
    OverlappingEvents,
    ScopeMismatch,
    TooManyStrategies,
    UnknownNode,
)

#: a reward is either an exact rational or an opaque label resolved later
#: by a utility function.
Reward = Union[Fraction, str]


def as_rational(value: "int | str | Fraction") -> Fraction:
    """Coerce *value* to an exact Fraction.

    Accepts ints, Fractions and strings ("3", "2/5", "0.6"); the decimal
    string form is exact, so "0.6" becomes 3/5.  Floats are rejected to keep
    binary rounding out of the pipeline.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a reward value")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"cannot parse rational from {value!r}") from exc
    raise TypeError(
        f"expected int, str or Fraction, got {type(value).__name__};"
        " floats are not accepted because they are inexact"
    )


@dataclass(frozen=True)
class PossibilitySpace:
    """A finite set of atoms, ordered for deterministic output."""

    atoms: tuple[str, ...]

    def __init__(self, atoms: Iterable[str]):
        object.__setattr__(self, "atoms", tuple(atoms))
        if not self.atoms:
            raise ValueError("possibility space needs at least one atom")
        if len(set(self.atoms)) != len(self.atoms):
            raise ValueError("atoms must be unique")
        for a in self.atoms:
            if not isinstance(a, str):
                raise TypeError("atoms must be strings")

    @cached_property
    def _positions(self) -> dict[str, int]:
        return {a: i for i, a in enumerate(self.atoms)}

    def __len__(self) -> int:
        return len(self.atoms)

    def __contains__(self, atom: str) -> bool:
        return atom in self._positions

    def position(self, atom: str) -> int:
        try:
            return self._positions[atom]
        except KeyError:
            raise ValueError(f"unknown atom {atom!r}") from None

    def event(self, members: Iterable[str]) -> "Event":
        return Event(self, frozenset(members))

    def omega(self) -> "Event":
        return Event(self, frozenset(self.atoms))

    def empty(self) -> "Event":
        return Event(self, frozenset())


@dataclass(frozen=True)
class Event:
    """A subset of a possibility space's atoms."""

    space: PossibilitySpace
    members: frozenset[str]

    def __init__(self, space: PossibilitySpace, members: Iterable[str]):
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "members", frozenset(members))
        for a in self.members:
            if a not in space:
                raise ValueError(f"atom {a!r} is not in the possibility space")

    @cached_property
    def ordered(self) -> tuple[str, ...]:
        """Members in the space's atom order."""
        return tuple(a for a in self.space.atoms if a in self.members)

    @property
    def is_empty(self) -> bool:
        return not self.members

    def __bool__(self) -> bool:
        return bool(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, atom: str) -> bool:
        return atom in self.members

    def __iter__(self) -> Iterator[str]:
        return iter(self.ordered)

    def _check_space(self, other: "Event") -> None:
        if self.space != other.space:
            raise ValueError("events live in different possibility spaces")

    def __and__(self, other: "Event") -> "Event":
        self._check_space(other)
        return Event(self.space, self.members & other.members)

    def __or__(self, other: "Event") -> "Event":
        self._check_space(other)
        return Event(self.space, self.members | other.members)

    def __le__(self, other: "Event") -> bool:
        self._check_space(other)
        return self.members <= other.members

    def complement(self) -> "Event":
        return Event(self.space, frozenset(self.space.atoms) - self.members)

    def __repr__(self) -> str:
        return "Event({%s})" % ", ".join(self.ordered)


@dataclass(frozen=True)
class Gamble:
    """A mapping from the atoms of an event to rewards.

    Values are stored in the scope's atom order, so two gambles are equal
    exactly when they have the same scope and agree pointwise.  A single
    gamble holds either numeric rewards or reward labels, never both.
    """

    scope: Event
    values: tuple[Reward, ...]

    def __post_init__(self) -> None:
        if len(self.values) != len(self.scope):
            raise ValueError("one value per atom of the scope is required")
        kinds = {_reward_kind(v) for v in self.values}
        if len(kinds) > 1:
            raise MixedRewardKinds("a gamble cannot mix numbers and labels")

    @classmethod
    def from_mapping(cls, scope: Event, table: Mapping[str, "int | str | Fraction"]) -> "Gamble":
        missing = [a for a in scope.ordered if a not in table]
        if missing:
            raise ScopeMismatch(f"gamble table misses atoms {missing} of its scope")
        return cls(scope, tuple(_as_reward(table[a]) for a in scope.ordered))

    @classmethod
    def constant(cls, scope: Event, value: "int | str | Fraction") -> "Gamble":
        v = _as_reward(value)
        return cls(scope, tuple(v for _ in scope.ordered))

    @cached_property
    def _positions(self) -> dict[str, int]:
        return {a: i for i, a in enumerate(self.scope.ordered)}

    def __getitem__(self, atom: str) -> Reward:
        try:
            return self.values[self._positions[atom]]
        except KeyError:
            raise ScopeMismatch(f"atom {atom!r} is outside the gamble's scope") from None

    def items(self) -> Iterator[tuple[str, Reward]]:
        return zip(self.scope.ordered, self.values)

    def as_mapping(self) -> dict[str, Reward]:
        return dict(self.items())

    @property
    def is_numeric(self) -> bool:
        return not any(isinstance(v, str) for v in self.values)

    def values_on(self, event: Event) -> tuple[Reward, ...]:
        if not event <= self.scope:
            raise ScopeMismatch("event is not contained in the gamble's scope")
        return tuple(self[a] for a in event.ordered)

    def restricted(self, event: Event) -> "Gamble":
        return Gamble(event, self.values_on(event))

    def constant_value_on(self, event: Event) -> Reward:
        """The single value taken on *event*, or raise if non-constant."""
        vals = set(self.values_on(event))
        if len(vals) != 1:
            raise ValueError("gamble is not constant on the event")
        return vals.pop()

    def map_values(self, fn) -> "Gamble":
        return Gamble(self.scope, tuple(fn(v) for v in self.values))


def _reward_kind(value: Reward) -> str:
    if isinstance(value, str):
        return "label"
    # ints are the scaled rewards of strategy_table's rows
    if isinstance(value, (Fraction, int)) and not isinstance(value, bool):
        return "numeric"
    raise TypeError(f"reward must be Fraction or str, got {type(value).__name__}")


def scaled(value: Reward, d: int) -> "int | str":
    """A numeric reward times *d* as an int, which *d* must allow; a label
    as it is."""
    if isinstance(value, str):
        return value
    return value.numerator * (d // value.denominator)


def _as_reward(value: "int | str | Fraction") -> Reward:
    if isinstance(value, str):
        return value
    return as_rational(value)


def difference_on(x: Gamble, y: Gamble, event: Event) -> Gamble:
    """The numeric gamble x - y on *event*."""
    xs = x.values_on(event)
    ys = y.values_on(event)
    return Gamble(event, tuple(a - b for a, b in zip(xs, ys)))


# --- tree structure ---------------------------------------------------------


@dataclass(frozen=True)
class Leaf:
    node_id: str
    reward: Reward


@dataclass(frozen=True)
class GambleLeaf:
    node_id: str
    gamble: Gamble


@dataclass(frozen=True)
class DecisionArc:
    label: str
    child: "Node"


@dataclass(frozen=True)
class ChanceArc:
    event: Event
    child: "Node"


@dataclass(frozen=True)
class DecisionNode:
    node_id: str
    arcs: tuple[DecisionArc, ...]


@dataclass(frozen=True)
class ChanceNode:
    node_id: str
    arcs: tuple[ChanceArc, ...]


Node = Union[Leaf, GambleLeaf, DecisionNode, ChanceNode]


def leaf(node_id: str, reward: "int | str | Fraction") -> Leaf:
    return Leaf(node_id, _as_reward(reward))


def decision(node_id: str, arcs: Iterable[tuple[str, Node]]) -> DecisionNode:
    return DecisionNode(node_id, tuple(DecisionArc(l, c) for l, c in arcs))


def chance(node_id: str, arcs: Iterable[tuple[Event, Node]]) -> ChanceNode:
    return ChanceNode(node_id, tuple(ChanceArc(e, c) for e, c in arcs))


@dataclass(frozen=True)
class DecisionTree:
    """A rooted tree over a possibility space, conditioned on *root_scope*.

    The scope of a node is the root scope intersected with the chance arc
    events on the path to it; decision arcs leave the scope untouched.
    """

    space: PossibilitySpace
    root: Node
    root_scope: Event = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.root_scope is None:
            object.__setattr__(self, "root_scope", self.space.omega())
        if self.root_scope.space != self.space:
            raise ValueError("root scope lives in a different possibility space")

    @cached_property
    def _index(self) -> dict[str, tuple[Node, Event]]:
        index: dict[str, tuple[Node, Event]] = {}
        for node, scope in _walk(self.root, self.root_scope):
            if node.node_id in index:
                raise DuplicateNodeId(f"node id {node.node_id!r} occurs twice")
            index[node.node_id] = (node, scope)
        return index

    def node_ids(self) -> tuple[str, ...]:
        """All node ids in preorder (root first, arcs left to right)."""
        return tuple(node.node_id for node, _ in _walk(self.root, self.root_scope))

    def nodes(self) -> Iterator[tuple[Node, Event]]:
        return _walk(self.root, self.root_scope)

    def contains(self, node_id: str) -> bool:
        return node_id in self._index

    def find(self, node_id: str) -> Node:
        try:
            return self._index[node_id][0]
        except KeyError:
            raise UnknownNode(f"no node with id {node_id!r}") from None

    def scope_of(self, node_id: str) -> Event:
        try:
            return self._index[node_id][1]
        except KeyError:
            raise UnknownNode(f"no node with id {node_id!r}") from None


@dataclass(frozen=True)
class Strategy(DecisionTree):
    """A decision tree in which every decision node keeps exactly one arc."""

    def __post_init__(self) -> None:
        super().__post_init__()
        for node, _ in _walk(self.root, self.root_scope):
            if isinstance(node, DecisionNode) and len(node.arcs) != 1:
                raise ValueError(
                    f"decision node {node.node_id!r} keeps {len(node.arcs)} arcs;"
                    " a strategy keeps exactly one"
                )


def _walk(node: Node, scope: Event) -> Iterator[tuple[Node, Event]]:
    yield node, scope
    if isinstance(node, DecisionNode):
        for arc in node.arcs:
            yield from _walk(arc.child, scope)
    elif isinstance(node, ChanceNode):
        for arc in node.arcs:
            yield from _walk(arc.child, scope & arc.event)


# --- operations -------------------------------------------------------------


def validate_tree(tree: DecisionTree, mode: str = "reject") -> DecisionTree:
    """Check structural invariants, returning a validated tree.

    In ``reject`` mode any chance arc whose event misses the node's scope is
    an error (`EmptyScope`); in ``auto_prune`` mode such arcs are deleted and
    the partition invariant is re-checked on what remains.  Either way the
    arcs kept at a chance node must partition the node's scope, node ids must
    be unique, the arc labels of a decision node must be distinct (they name
    the kept arc in `kept_arcs`), gamble leaves must carry their node's
    scope, and the whole tree must stick to a single reward kind.
    """
    if mode not in ("reject", "auto_prune"):
        raise ValueError(f"unknown validation mode {mode!r}")

    seen: set[str] = set()
    kinds: set[str] = set()

    def visit(node: Node, scope: Event) -> Node:
        if node.node_id in seen:
            raise DuplicateNodeId(f"node id {node.node_id!r} occurs twice")
        seen.add(node.node_id)
        if scope.is_empty:
            raise EmptyScope(f"node {node.node_id!r} has empty scope")
        if isinstance(node, Leaf):
            kinds.add(_reward_kind(node.reward))
            return node
        if isinstance(node, GambleLeaf):
            if node.gamble.scope != scope:
                raise ScopeMismatch(
                    f"gamble leaf {node.node_id!r} carries scope"
                    f" {node.gamble.scope!r} but sits at scope {scope!r}"
                )
            kinds.update(_reward_kind(v) for v in node.gamble.values)
            return node
        if isinstance(node, DecisionNode):
            if not node.arcs:
                raise IncompletePartition(
                    f"decision node {node.node_id!r} has no arcs"
                )
            labels = [a.label for a in node.arcs]
            if len(set(labels)) != len(labels):
                twice = next(l for l in labels if labels.count(l) > 1)
                raise DuplicateArcLabel(
                    f"decision node {node.node_id!r} has two arcs labelled {twice!r}"
                )
            return DecisionNode(
                node.node_id,
                tuple(DecisionArc(a.label, visit(a.child, scope)) for a in node.arcs),
            )
        if isinstance(node, ChanceNode):
            kept: list[tuple[ChanceArc, Event]] = []
            for i, arc in enumerate(node.arcs):
                effective = arc.event & scope
                if effective.is_empty:
                    if mode == "reject":
                        raise EmptyScope(
                            f"arc {i} of chance node {node.node_id!r} has empty"
                            f" scope inside {scope!r}"
                        )
                    continue
                kept.append((arc, effective))
            covered = scope.space.empty()
            for arc, effective in kept:
                overlap = covered & effective
                if overlap:
                    raise OverlappingEvents(
                        f"chance node {node.node_id!r}: atom"
                        f" {overlap.ordered[0]!r} is covered by two arcs"
                    )
                covered = covered | effective
            if covered != scope:
                missing = [a for a in scope.ordered if a not in covered]
                raise IncompletePartition(
                    f"chance node {node.node_id!r} leaves atoms {missing} uncovered"
                )
            return ChanceNode(
                node.node_id,
                tuple(
                    ChanceArc(arc.event, visit(arc.child, effective))
                    for arc, effective in kept
                ),
            )
        raise TypeError(f"unknown node type {type(node).__name__}")

    new_root = visit(tree.root, tree.root_scope)
    if len(kinds) > 1:
        raise MixedRewardKinds("tree mixes numeric rewards with reward labels")
    return type(tree)(tree.space, new_root, tree.root_scope)


def path_event(tree: DecisionTree, node_id: str) -> Event:
    """The event known to obtain when *node_id* is reached."""
    return tree.scope_of(node_id)


def subtree_at(tree: DecisionTree, node_id: str) -> DecisionTree:
    """The tree rooted at *node_id*, conditioned on its path event.

    Node ids are preserved, so the operation is idempotent; applied to a
    strategy it yields a strategy.
    """
    return type(tree)(tree.space, tree.find(node_id), tree.scope_of(node_id))


#: one strategy variant of a node's subtree with the rewards it induces on
#: the node's scope, in the scope's atom order; in a `StrategyTable` numeric
#: rewards are scaled to ints
Row = tuple[Node, tuple["Reward | int", ...]]


class StrategyTable(dict):
    """`strategy_table`'s rows, by node id.

    Each numeric reward in a row is an int: the reward times ``denominator``,
    the least common multiple of the denominators of the tree's numeric
    rewards, so rows hash and compare as exact integers.  Labels are kept as
    they are; ``numeric`` says whether no row holds one.
    """

    def __init__(self, denominator: int):
        super().__init__()
        self.denominator = denominator
        self.numeric = True

    def rewards(self, values: Iterable["Reward | int"]) -> tuple[Reward, ...]:
        """A row's values as rewards: each int over the denominator as a
        Fraction, labels as they are."""
        d = self.denominator
        return tuple(v if isinstance(v, str) else Fraction(v, d) for v in values)


def strategy_table(tree: DecisionTree) -> StrategyTable:
    """Every node's strategy variants with the values they induce, in one pass.

    ``table[node_id]`` lists the variants of the subtree at *node_id* in
    `enumerate_strategies` order, each paired with the values of `gamble_of`
    on the matching strategy of ``subtree_at(tree, node_id)``, scaled as
    `StrategyTable` says (``table.rewards`` turns them back).  The pass is
    bottom-up: a leaf gives one row, a decision node concatenates its
    children's rows, and a chance node takes the product of its children's
    rows and merges their value tuples; the keys are in post-order, every
    child before its parent.  Raises what `gamble_of` raises on some
    strategy of the tree.
    """
    table = StrategyTable(_reward_denominator(tree.root))
    _, kinds = _build_rows(tree.root, tree.root_scope, table)
    table.numeric = "label" not in kinds
    return table


def _reward_denominator(root: Node) -> int:
    """The least common multiple of the denominators of the numeric rewards
    at and below *root*."""
    denominators = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if isinstance(node, (DecisionNode, ChanceNode)):
            stack.extend(arc.child for arc in node.arcs)
            continue
        if isinstance(node, Leaf):
            rewards: Iterable[Reward] = (node.reward,)
        elif isinstance(node, GambleLeaf):
            rewards = node.gamble.values
        else:
            continue  # _build_rows reports it
        denominators.update(
            v.denominator for v in rewards if _reward_kind(v) == "numeric"
        )
    return math.lcm(*denominators)


def _build_rows(
    node: Node, scope: Event, table: StrategyTable
) -> tuple[list[Row], frozenset]:
    """Fill in the rows of *node* and below; return them and the reward kinds
    occurring in them.  (A module function: a recursive closure would tie
    the table into a reference cycle and keep it alive until a full
    garbage collection.)"""
    if isinstance(node, (Leaf, GambleLeaf)):
        d = table.denominator
        if isinstance(node, Leaf):
            values = (scaled(node.reward, d),) * len(scope)
        else:
            values = tuple(scaled(node.gamble[a], d) for a in scope.ordered)
        rows = [(node, values)]
        kinds = frozenset(map(_reward_kind, set(values)))
    elif isinstance(node, DecisionNode):
        rows, kinds = [], frozenset()
        for arc in node.arcs:
            child_rows, child_kinds = _build_rows(arc.child, scope, table)
            kinds |= child_kinds
            rows.extend(
                (DecisionNode(node.node_id, (DecisionArc(arc.label, v),)), values)
                for v, values in child_rows
            )
    elif isinstance(node, ChanceNode):
        scopes = [scope & arc.event for arc in node.arcs]
        children, kinds = [], frozenset()
        for arc, child_scope in zip(node.arcs, scopes):
            child_rows, child_kinds = _build_rows(arc.child, child_scope, table)
            kinds |= child_kinds
            # one arc object per child row, shared by every combination
            children.append([(ChanceArc(arc.event, v), vs) for v, vs in child_rows])
        rows = []
        if all(children):
            merge = _merge_plan(scope, scopes)
            for combo in itertools.product(*children):
                values = tuple(itertools.chain.from_iterable(c[1] for c in combo))
                if merge is not None:
                    values = merge(values)
                # only a product can put both kinds into one row
                if len(kinds) > 1 and len(set(map(_reward_kind, values))) > 1:
                    raise MixedRewardKinds("a gamble cannot mix numbers and labels")
                rows.append(
                    (ChanceNode(node.node_id, tuple(c[0] for c in combo)), values)
                )
    else:
        raise TypeError(f"unknown node type {type(node).__name__}")
    table[node.node_id] = rows
    return rows, kinds


def _merge_plan(scope: Event, scopes: list[Event]):
    """How a chance node's values come from its children's concatenated ones.

    Each atom of *scope* is read from the last arc whose scope holds it, as
    `gamble_of` assigns them; None means the concatenation is already in
    the scope's atom order.
    """
    position: dict[str, int] = {}
    start = 0
    for child_scope in scopes:
        for p, a in enumerate(child_scope.ordered):
            position[a] = start + p
        start += len(child_scope)
    missing = [a for a in scope.ordered if a not in position]
    if missing:
        raise ScopeMismatch(
            f"strategy leaves atoms {missing} without a reward; was the tree validated?"
        )
    plan = [position[a] for a in scope.ordered]
    if plan == list(range(start)):
        return None
    if len(plan) == 1:
        return lambda values, p=plan[0]: (values[p],)
    return operator.itemgetter(*plan)


def enumerate_strategies(tree: DecisionTree) -> tuple[Strategy, ...]:
    """All strategies of *tree*, in canonical order.

    The order is lexicographic in the indices of the kept decision arcs,
    walking the tree depth first.  Decision nodes sitting below an arc that
    a strategy does not keep are simply absent from it, which is what makes
    the enumeration free of duplicates.  Raises what `gamble_of` raises on
    some strategy, because the strategies come from `strategy_table`.
    """
    rows = strategy_table(tree)[tree.root.node_id]
    return tuple(Strategy(tree.space, v, tree.root_scope) for v, _ in rows)


def count_strategies(tree: DecisionTree) -> int:
    """``len(enumerate_strategies(tree))``, without enumerating."""
    return _count(tree.root)


def bounded_strategy_count(tree: DecisionTree, limit: int) -> int:
    """`count_strategies`, or raise `TooManyStrategies` if it exceeds *limit*;
    call it before building the strategy table."""
    count = count_strategies(tree)
    if count > limit:
        raise TooManyStrategies(
            f"the tree has {count} strategies, more than the limit of {limit}"
        )
    return count


def _count(node: Node) -> int:
    if isinstance(node, DecisionNode):
        return sum(_count(a.child) for a in node.arcs)
    if isinstance(node, ChanceNode):
        return math.prod(_count(a.child) for a in node.arcs)
    return 1


def _kept_decisions(node: Node) -> Iterator[DecisionNode]:
    """The decision nodes of a strategy at and below *node*, in preorder."""
    stack = [node]
    while stack:
        node = stack.pop()
        if isinstance(node, DecisionNode):
            yield node
        if isinstance(node, (DecisionNode, ChanceNode)):
            stack.extend(arc.child for arc in reversed(node.arcs))


def kept_arcs(strategy: DecisionTree) -> dict[str, str]:
    """Kept arc label per decision node, in preorder: the portable form of a
    strategy."""
    return {n.node_id: n.arcs[0].label for n in _kept_decisions(strategy.root)}


def kept_children(node: Node) -> tuple[str, ...]:
    """The ids of the children kept by the decision nodes of a strategy at
    and below *node*, in preorder.

    Among the strategies of one tree, or of one of its subtrees, equal keys
    mean equal strategies, because node ids are unique in a tree; unlike the
    structural equality of the nodes, the key is cheap to hash and compare.
    """
    return tuple(n.arcs[0].child.node_id for n in _kept_decisions(node))


def gamble_of(strategy: DecisionTree) -> Gamble:
    """The gamble a strategy induces on its root scope.

    Every atom of the root scope is assigned the reward of the unique leaf
    reached under it; chance arcs split the scope, the kept decision arc is
    followed, and gamble leaves contribute their own tables.
    """
    table: dict[str, Reward] = {}

    def assign(node: Node, scope: Event) -> None:
        if isinstance(node, Leaf):
            for a in scope.ordered:
                table[a] = node.reward
        elif isinstance(node, GambleLeaf):
            for a in scope.ordered:
                table[a] = node.gamble[a]
        elif isinstance(node, DecisionNode):
            if len(node.arcs) != 1:
                raise ValueError(
                    f"decision node {node.node_id!r} keeps {len(node.arcs)} arcs;"
                    " gamble_of needs a strategy"
                )
            assign(node.arcs[0].child, scope)
        elif isinstance(node, ChanceNode):
            for arc in node.arcs:
                assign(arc.child, scope & arc.event)
        else:
            raise TypeError(f"unknown node type {type(node).__name__}")

    assign(strategy.root, strategy.root_scope)
    missing = [a for a in strategy.root_scope.ordered if a not in table]
    if missing:
        raise ScopeMismatch(
            f"strategy leaves atoms {missing} without a reward; was the tree validated?"
        )
    return Gamble(
        strategy.root_scope,
        tuple(table[a] for a in strategy.root_scope.ordered),
    )
