"""Finite possibility spaces, events, gambles and sequential decision trees.

Everything is exact: numeric rewards are `fractions.Fraction`, events are
subsets of a finite possibility space, and all structures are frozen.
`strategy_table` lists every node's strategy variants as rows of values,
with numeric rewards as integers over one denominator per tree; a variant
is addressed by its position in its node's rows and decoded into nodes only
when a strategy is returned.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Optional

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
Reward = Fraction | str


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


# Module-level aliases are written with `|`: typing caches `Union[...]`, and
# the cache would keep every class, and so every module, of a package that
# is imported afresh alive with it.
Node = Leaf | GambleLeaf | DecisionNode | ChanceNode


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
        return tuple(self._index)

    def nodes(self) -> Iterator[tuple[Node, Event]]:
        """Every node with its scope, in preorder."""
        return iter(self._index.values())

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
    """*node* and every node below it with its scope, in preorder."""
    stack = [(node, scope)]
    while stack:
        node, scope = stack.pop()
        yield node, scope
        # pushed last arc first, so that the first arc is visited first
        if isinstance(node, DecisionNode):
            stack.extend((arc.child, scope) for arc in reversed(node.arcs))
        elif isinstance(node, ChanceNode):
            stack.extend((arc.child, scope & arc.event) for arc in reversed(node.arcs))


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


class StrategyTable(dict):
    """`strategy_table`'s rows, by node id.

    ``table[node_id][k]`` is the row of variant k of the subtree at
    *node_id*: a tuple of values, nothing else.  The variant is told by its
    position alone, and `reached` and `variant` decode it from there only
    when it is needed.

    A table built with a row filter holds only the kept rows, and
    ``positions[node_id][j]`` is the position of row j among all
    ``counts[node_id]`` variants of the node, which `reached` and `variant`
    decode.

    Each numeric reward in a row is an int: the reward times ``denominator``,
    the least common multiple of the denominators of the tree's numeric
    rewards, so rows hash and compare as exact integers.  Labels are kept as
    they are; ``numeric`` says whether the tree holds no label.
    """

    def __init__(self, denominator: int, numeric: bool):
        super().__init__()
        self.denominator = denominator
        self.numeric = numeric
        self.counts: Optional[dict[str, int]] = None
        self.positions: dict[str, list[int]] = {}

    def rewards(self, values: Iterable["Reward | int"]) -> tuple[Reward, ...]:
        """A row's values as rewards: each int over the denominator as a
        Fraction, labels as they are."""
        d = self.denominator
        return tuple(v if isinstance(v, str) else Fraction(v, d) for v in values)

    def _size(self, node_id: str) -> int:
        return len(self[node_id]) if self.counts is None else self.counts[node_id]

    def reached(self, node: Node, k: int) -> dict[str, int]:
        """The position, in this table, of the variant that variant *k* of
        *node* reaches at each node at and below *node*, in preorder; nodes
        below an arc that the variant does not keep are absent."""
        return _reached(node, k, self._size)

    def variant(self, node: Node, k: int) -> Node:
        """Variant *k* of *node*: the root node of the matching strategy."""
        return _variant(node, self.reached(node, k), self._size)


def strategy_table(
    tree: DecisionTree, keep: Optional[Callable[..., Sequence[int]]] = None
) -> StrategyTable:
    """Every node's strategy variants as rows of values, in one pass.

    ``table[node_id]`` holds one row per variant of the subtree at
    *node_id*, in `enumerate_strategies` order: the values of `gamble_of`
    on the matching strategy of ``subtree_at(tree, node_id)``, scaled as
    `StrategyTable` says (``table.rewards`` turns them back).  The pass
    runs over the tree's nodes in reverse preorder, which puts every child
    before its parent, and so are the keys: a leaf gives one row, a
    decision node concatenates its children's rows, arc by arc, and a
    chance node takes the product of its children's rows, the last arc
    varying fastest as in `itertools.product`, and merges their value
    tuples.  No node is built: ``table.variant`` decodes one from its
    position.  Raises what `gamble_of` raises on some strategy of the tree.

    With *keep*, the pass also filters: after each decision and chance node
    only the rows at the indices ``keep(table, scope, rows)`` returns, in
    order, stay, so a parent's rows come from its children's kept rows
    alone.
    """
    denominator, kinds = _reward_denominator(tree)
    table = StrategyTable(denominator, "label" not in kinds)
    if keep is not None:
        table.counts = _count(tree)
    index = tree._index
    mixed = len(kinds) > 1
    for node, scope in reversed(index.values()):
        if isinstance(node, Leaf):
            rows = [(scaled(node.reward, denominator),) * len(scope)]
        elif isinstance(node, GambleLeaf):
            rows = [tuple(scaled(node.gamble[a], denominator) for a in scope.ordered)]
        elif isinstance(node, DecisionNode):
            rows = [row for arc in node.arcs for row in table[arc.child.node_id]]
        elif isinstance(node, ChanceNode):
            children = [table[arc.child.node_id] for arc in node.arcs]
            rows = []
            if all(children):
                merge = _merge_plan(scope, [index[a.child.node_id][1] for a in node.arcs])
                rows = [()]
                for child_rows in children:
                    rows = [r + c for r in rows for c in child_rows]
                if merge is not None:
                    rows = list(map(merge, rows))
                # only a product can put both kinds into one row
                if mixed:
                    for values in rows:
                        if len(set(map(_reward_kind, values))) > 1:
                            raise MixedRewardKinds("a gamble cannot mix numbers and labels")
        else:
            raise TypeError(f"unknown node type {type(node).__name__}")
        if keep is not None:
            positions = _positions(node, table)
            if not isinstance(node, (Leaf, GambleLeaf)):
                kept = keep(table, scope, rows)
                rows = [rows[i] for i in kept]
                positions = [positions[i] for i in kept]
            table.positions[node.node_id] = positions
        table[node.node_id] = rows
    return table


def _reward_denominator(tree: DecisionTree) -> tuple[int, set[str]]:
    """The least common multiple of the denominators of the tree's numeric
    rewards, and the reward kinds the tree holds."""
    denominators, kinds = set(), set()
    for node, _ in tree.nodes():
        if isinstance(node, Leaf):
            rewards: Iterable[Reward] = (node.reward,)
        elif isinstance(node, GambleLeaf):
            rewards = node.gamble.values
        else:
            continue
        for v in rewards:
            kind = _reward_kind(v)
            kinds.add(kind)
            if kind == "numeric":
                denominators.add(v.denominator)
    return math.lcm(*denominators), kinds


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
    some strategy, because the strategies are decoded from the positions of
    `strategy_table`.
    """
    table = strategy_table(tree)
    return tuple(
        Strategy(tree.space, table.variant(tree.root, k), tree.root_scope)
        for k in range(len(table[tree.root.node_id]))
    )


def strategy_at(tree: DecisionTree, k: int) -> Strategy:
    """``enumerate_strategies(tree)[k]`` for ``0 <= k < count_strategies(tree)``,
    decoded from *k* without enumerating or valuing any strategy."""
    count = _count(tree).__getitem__
    if not 0 <= k < count(tree.root.node_id):
        raise IndexError(f"strategy {k} out of range")
    root = _variant(tree.root, _reached(tree.root, k, count), count)
    return Strategy(tree.space, root, tree.root_scope)


def count_strategies(tree: DecisionTree) -> int:
    """``len(enumerate_strategies(tree))``, without enumerating."""
    return _count(tree)[tree.root.node_id]


def bounded_strategy_count(tree: DecisionTree, limit: int) -> int:
    """`count_strategies`, or raise `TooManyStrategies` if it exceeds *limit*;
    call it before building the strategy table."""
    count = count_strategies(tree)
    if count > limit:
        raise TooManyStrategies(
            f"the tree has {count} strategies, more than the limit of {limit}"
        )
    return count


def _count(tree: DecisionTree) -> dict[str, int]:
    """The number of strategy variants of each node, the length of its
    `strategy_table` rows, children before parents."""
    counts: dict[str, int] = {}
    for node, _ in reversed(tree._index.values()):
        if isinstance(node, DecisionNode):
            n = sum(counts[a.child.node_id] for a in node.arcs)
        elif isinstance(node, ChanceNode):
            n = math.prod(counts[a.child.node_id] for a in node.arcs)
        else:
            n = 1
        counts[node.node_id] = n
    return counts


def _reached(node: Node, k: int, count: Callable[[str], int]) -> dict[str, int]:
    """The decoder of strategy positions.

    Variant *k* of *node*, where ``count(node_id)`` is the number of
    variants of a node (its `strategy_table` rows), is found from k alone:
    at a decision node, k falls into the range of one arc, after the
    variants of the earlier arcs; at a chance node, k is a mixed-radix
    number over the children's counts, the last arc's digit varying fastest.
    Returns the position reached at every node at and below *node* that the
    variant keeps, in preorder.
    """
    reached: dict[str, int] = {}
    stack = [(node, k)]
    while stack:
        node, k = stack.pop()
        reached[node.node_id] = k
        if isinstance(node, DecisionNode):
            for arc in node.arcs:
                n = count(arc.child.node_id)
                if k < n:
                    stack.append((arc.child, k))
                    break
                k -= n
        elif isinstance(node, ChanceNode):
            # pushed last arc first, so that the first arc is visited first
            for arc in reversed(node.arcs):
                k, digit = divmod(k, count(arc.child.node_id))
                stack.append((arc.child, digit))
    return reached


def _positions(node: Node, table: StrategyTable) -> list[int]:
    """The positions among *node*'s variants of the rows `strategy_table`
    forms from its children's kept rows in a filtered *table*: the encoding
    that `_reached` decodes."""
    counts, kept = table.counts, table.positions
    out = [0]
    if isinstance(node, DecisionNode):
        out, offset = [], 0
        for arc in node.arcs:
            out += [offset + p for p in kept[arc.child.node_id]]
            offset += counts[arc.child.node_id]
    elif isinstance(node, ChanceNode):
        for arc in node.arcs:
            n = counts[arc.child.node_id]
            out = [p * n + q for p in out for q in kept[arc.child.node_id]]
    return out


def _variant(
    node: Node, reached: Mapping[str, int], count: Callable[[str], int]
) -> Node:
    """The variant of *node* that `_reached` returned *reached* for: each
    decision node keeps the arc to its reached child.  A node with a single
    variant is that variant, so it is returned as it is."""
    if count(node.node_id) == 1:
        return node
    if isinstance(node, DecisionNode):
        arc = next(a for a in node.arcs if a.child.node_id in reached)
        return DecisionNode(
            node.node_id, (DecisionArc(arc.label, _variant(arc.child, reached, count)),)
        )
    return ChanceNode(
        node.node_id,
        tuple(ChanceArc(a.event, _variant(a.child, reached, count)) for a in node.arcs),
    )


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
    for node, scope in _walk(strategy.root, strategy.root_scope):
        if isinstance(node, Leaf):
            table.update(dict.fromkeys(scope.ordered, node.reward))
        elif isinstance(node, GambleLeaf):
            table.update((a, node.gamble[a]) for a in scope.ordered)
        elif isinstance(node, DecisionNode):
            if len(node.arcs) != 1:
                raise ValueError(
                    f"decision node {node.node_id!r} keeps {len(node.arcs)} arcs;"
                    " gamble_of needs a strategy"
                )
        elif not isinstance(node, ChanceNode):
            raise TypeError(f"unknown node type {type(node).__name__}")
    missing = [a for a in strategy.root_scope.ordered if a not in table]
    if missing:
        raise ScopeMismatch(
            f"strategy leaves atoms {missing} without a reward; was the tree validated?"
        )
    return Gamble(
        strategy.root_scope,
        tuple(table[a] for a in strategy.root_scope.ordered),
    )
