"""Finite possibility spaces, events, gambles and sequential decision trees.

Everything is exact: numeric rewards are `fractions.Fraction`, events are
subsets of a finite possibility space, and all structures are frozen.
`strategy_table` lists every node's strategy variants as rows of values,
with numeric rewards as integers over one denominator per tree; a variant
is addressed by its position in its node's rows and decoded into nodes only
when a strategy is returned.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
import sys
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence, ValuesView
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import TYPE_CHECKING, NamedTuple, Optional

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

if TYPE_CHECKING:
    from .uncertainty import _FactoredColumn

#: a reward is either an exact rational or an opaque label resolved later
#: by a utility function.
Reward = Fraction | str


def as_rational(value: "int | str | Fraction") -> Fraction:
    """Coerce *value* to an exact Fraction.

    Accepts ints, Fractions and strings ("3", "2/5", "0.6"; `_parse_rational`);
    the decimal string form is exact, so "0.6" becomes 3/5.  Floats are
    rejected to keep binary rounding out of the pipeline.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a reward value")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return _parse_rational(value)
    raise TypeError(
        f"expected int, str or Fraction, got {type(value).__name__};"
        " floats are not accepted because they are inexact"
    )


#: a sign, then ASCII digits as p/q, or as a decimal with an exponent of
#: at most nine digits; the groups are the decimal's digits and exponent
_RATIONAL = re.compile(r"[-+]?(?:\d+/\d+|(\d+\.?\d*|\.\d+)(?:[eE]([-+]?\d{1,9}))?)", re.ASCII)


def _digit_limit() -> int:
    """The limit on integer strings: `sys.get_int_max_str_digits`, or 4300
    where Python has none or it is off."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300


def _parse_rational(text: str) -> Fraction:
    """The exact rational *text* spells in `_RATIONAL`'s grammar ("3",
    "-2/5", "0.6", "1e-3"), the same on every Python, where `Fraction` takes
    spaces, underscores or non-ASCII digits on some only.  A decimal whose
    digits and exponent pass the limit on integer strings (`_digit_limit`)
    is refused before `Fraction` expands it, which takes seconds at
    1e10000000.  Raises `ValueError`."""
    match = _RATIONAL.fullmatch(text)
    if match is None:
        raise ValueError(f"{text!r} is not a rational")
    digits, exponent = match.groups()
    limit = _digit_limit()
    if digits and len(digits) - ("." in digits) + abs(int(exponent or 0)) > limit:
        raise ValueError(f"{text!r} is not a rational within the {limit}-digit limit")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{text!r} is not a rational") from None


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
        if self.space is not other.space and self.space != other.space:
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


def _same_tree(node: "DecisionNode | ChanceNode", other: object) -> bool:
    """Structural equality of two nodes and everything below them, as the
    dataclasses compare it: equal `_tree_key`s."""
    if other.__class__ is not node.__class__:
        return NotImplemented
    return node is other or _tree_key(node) == _tree_key(other)


def _tree_hash(node: "DecisionNode | ChanceNode") -> int:
    return hash(_tree_key(node))


def _tree_key(node: "Node") -> tuple:
    """*node* and everything below it in preorder (`_walk`, so deep trees
    need no recursion): an inner node as its class, id and arc labels or
    events, whose count fixes its arity, and a leaf as itself."""
    return tuple(
        (at.__class__, at.node_id, tuple(map(_arc_tag, at.arcs)))
        if isinstance(at, (DecisionNode, ChanceNode))
        else at
        for at, _ in _walk(node)
    )


def _arc_tag(arc: "DecisionArc | ChanceArc") -> "str | Event":
    return arc.label if isinstance(arc, DecisionArc) else arc.event


@dataclass(frozen=True)
class DecisionNode:
    node_id: str
    arcs: tuple[DecisionArc, ...]

    __eq__ = _same_tree
    __hash__ = _tree_hash


@dataclass(frozen=True)
class ChanceNode:
    node_id: str
    arcs: tuple[ChanceArc, ...]

    __eq__ = _same_tree
    __hash__ = _tree_hash


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
        try:
            for node, scope in _walk(self.root, self.root_scope):
                if node.node_id in index:
                    raise DuplicateNodeId(f"node id {node.node_id!r} occurs twice")
                index[node.node_id] = (node, scope)
        except ValueError:
            # the walk intersects scopes only below a chance node, the last
            # one it gave: an arc event there lives in another space
            i = next(i for i, arc in enumerate(node.arcs) if arc.event.space != self.space)
            raise ScopeMismatch(
                f"arc {i} of chance node {node.node_id!r} has an event in a"
                " different possibility space"
            ) from None
        return index

    @cached_property
    def _plan(self) -> "Plan":
        """The tree's structure as `strategy_table`, the decoder and the
        threshold walks read it, built in one walk of the node index (`Plan`).

        Raises `ScopeMismatch` at once where a gamble leaf or a chance node
        leaves an atom of its scope without a reward, as `gamble_of` does on
        a strategy through it: no pass over such a tree begins."""
        index, position = self._index, self.space.position
        nodes: list[tuple] = []
        scopes: dict[frozenset, tuple[int, ...]] = {}
        counts: dict[str, int] = {}
        denominators, kinds = set(), set()
        for node, scope in reversed(index.values()):
            if scope.members not in scopes:
                scopes[scope.members] = tuple(map(position, scope.ordered))
            children, data, count, rewards = (), None, 1, ()
            if isinstance(node, Leaf):
                rewards = data = (node.reward,)
            elif isinstance(node, GambleLeaf):
                rewards = node.gamble.values
                data = tuple(map(node.gamble.__getitem__, scope.ordered))
            elif isinstance(node, DecisionNode):
                children = tuple([arc.child.node_id for arc in node.arcs])
                sizes = [counts[c] for c in children]
                data = tuple(itertools.accumulate(sizes[:-1], initial=0))
                count = sum(sizes)
            elif isinstance(node, ChanceNode):
                children = tuple([arc.child.node_id for arc in node.arcs])
                count = math.prod(counts[c] for c in children)
                data = _merge_plan(scope, [index[c][1] for c in children])
            for v in rewards:
                kind = _reward_kind(v)
                kinds.add(kind)
                if kind == "numeric":
                    denominators.add(v.denominator)
            counts[node.node_id] = count
            nodes.append((node.node_id, type(node), scope, children, data))
        denominator = math.lcm(*denominators)
        # a leaf's values are scaled once the denominator is known
        for i, (nid, kind, scope, _, values) in enumerate(nodes):
            if kind is Leaf or kind is GambleLeaf:
                values = [scaled(v, denominator) for v in values]
                nodes[i] = (nid, kind, scope, (), values[0] if kind is Leaf else tuple(values))
        return Plan(tuple(nodes), scopes, counts, denominator, frozenset(kinds))

    def node_ids(self) -> tuple[str, ...]:
        """All node ids in preorder (root first, arcs left to right)."""
        return tuple(self._index)

    def nodes(self) -> ValuesView[tuple[Node, Event]]:
        """Every node with its scope, in preorder; reversed, children first."""
        return self._index.values()

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


class Plan(NamedTuple):
    """A tree's structure as the passes over it read it, built once per
    tree (`DecisionTree._plan`).

    ``counts[node_id]`` is the number of strategy variants of a node, the
    length of its `strategy_table` rows; ``denominator`` is the least common
    multiple of the denominators of the tree's numeric rewards, and
    ``kinds`` the reward kinds ("numeric", "label") the tree holds.
    ``nodes`` lists the tree's nodes children first (reverse preorder),
    each as a tuple ``(node_id, kind, scope, children, data)``: *kind* is
    the node's class and *children* the ids of its arcs' children, in arc
    order; *data* is a leaf's reward (Leaf) or values on its scope
    (GambleLeaf), scaled as in `StrategyTable`, a decision node's arc
    offsets (each arc's first position among the node's variants) or a
    chance node's `_merge_plan`.  A plan exists only for a tree whose every
    scope atom has a reward: building it raises otherwise.  ``scopes``
    gives, by a node scope's members, the positions of its atoms in the
    space.
    """

    nodes: tuple[tuple, ...]
    scopes: dict[frozenset, tuple[int, ...]]
    counts: dict[str, int]
    denominator: int
    kinds: frozenset[str]

    def masses(self, weights: Sequence[Sequence[int]]) -> dict[frozenset, list[int]]:
        """Each node scope's total of each of *weights* (one integer per
        atom of the space), by the scope's members."""
        return {s: [sum(map(w.__getitem__, at)) for w in weights] for s, at in self.scopes.items()}

    def leaf_sums(self, kind: type, scope: Event, data, weights: Sequence, masses: dict) -> tuple:
        """A leaf's member-sum vector (*kind*, *scope*, *data* as in ``nodes``):
        Σ W_m(a)·v(a) over its scope for each W_m of *weights*, totalled in *masses*."""
        if kind is Leaf:
            return tuple(map(data.__mul__, masses[scope.members]))
        at = self.scopes[scope.members]
        return tuple(sum(map(operator.mul, map(w.__getitem__, at), data)) for w in weights)


@dataclass(frozen=True)
class Strategy(DecisionTree):
    """A decision tree in which every decision node keeps exactly one arc."""

    def __post_init__(self) -> None:
        super().__post_init__()
        for node in _decisions(self.root):
            if len(node.arcs) != 1:
                raise ValueError(
                    f"decision node {node.node_id!r} keeps {len(node.arcs)} arcs;"
                    " a strategy keeps exactly one"
                )


def _walk(node: Node, scope: Optional[Event] = None) -> Iterator[tuple[Node, Optional[Event]]]:
    """*node* and every node below it with its scope, in preorder, from a
    stack; without a *scope*, every scope is None and no event is intersected."""
    stack = [(node, scope)]
    while stack:
        node, scope = stack.pop()
        yield node, scope
        # pushed last arc first, so that the first arc is visited first
        if isinstance(node, DecisionNode):
            stack.extend((arc.child, scope) for arc in reversed(node.arcs))
        elif isinstance(node, ChanceNode):
            for arc in reversed(node.arcs):
                stack.append((arc.child, None if scope is None else scope & arc.event))


# --- operations -------------------------------------------------------------


def validate_tree(tree: DecisionTree, mode: str = "reject") -> DecisionTree:
    """Check structural invariants, returning *tree* itself, or a rebuilt
    tree where ``auto_prune`` drops an arc.

    In ``reject`` mode any chance arc whose event misses the node's scope is
    an error (`EmptyScope`); in ``auto_prune`` mode such arcs are deleted and
    the partition invariant is re-checked on what remains.  Either way the
    arcs kept at a chance node must partition the node's scope, node ids must
    be unique (below a deleted arc as well), the arc labels of a decision
    node must be distinct (they name the kept arc in `kept_arcs`), gamble
    leaves must carry their node's scope, and the whole tree must stick to a
    single reward kind.  The nodes are read from the tree's node index, which
    refuses a repeated node id before any other fault is looked for.
    """
    if mode not in ("reject", "auto_prune"):
        raise ValueError(f"unknown validation mode {mode!r}")

    kinds: set[str] = set()
    # the arcs a chance node keeps, where auto_prune deletes some
    pruned: dict[str, list[ChanceArc]] = {}
    for node, scope in tree._index.values():
        if scope.is_empty:
            if node is not tree.root:
                continue  # below an arc that auto_prune deletes
            raise EmptyScope(f"node {node.node_id!r} has empty scope")
        if isinstance(node, Leaf):
            kinds.add(_reward_kind(node.reward))
        elif isinstance(node, GambleLeaf):
            if node.gamble.scope != scope:
                raise ScopeMismatch(
                    f"gamble leaf {node.node_id!r} carries scope"
                    f" {node.gamble.scope!r} but sits at scope {scope!r}"
                )
            kinds.update(_reward_kind(v) for v in node.gamble.values)
        elif isinstance(node, DecisionNode):
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
        elif isinstance(node, ChanceNode):
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
            if len(kept) < len(node.arcs):
                pruned[node.node_id] = [arc for arc, _ in kept]
        else:
            raise TypeError(f"unknown node type {type(node).__name__}")

    if len(kinds) > 1:
        raise MixedRewardKinds("tree mixes numeric rewards with reward labels")
    if not pruned:
        return tree
    # rebuild in reverse preorder, skipping the nodes below deleted arcs: a
    # node's rebuilt children are then on top of the stack, its first arc's
    # child topmost
    built: list[Node] = []
    for node, scope in reversed(tree._index.values()):
        if scope.is_empty:
            continue
        if isinstance(node, DecisionNode):
            node = DecisionNode(
                node.node_id, tuple(DecisionArc(a.label, built.pop()) for a in node.arcs)
            )
        elif isinstance(node, ChanceNode):
            arcs = pruned.get(node.node_id, node.arcs)
            node = ChanceNode(node.node_id, tuple(ChanceArc(a.event, built.pop()) for a in arcs))
        built.append(node)
    return type(tree)(tree.space, built.pop(), tree.root_scope)


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
    position alone, and `_step` and `Decoder` decode it from there only
    when it is needed.

    A node's variants number the tree's ``Plan.counts[node_id]``, which
    `_step` and `Decoder` decode positions with.  A table built with a row
    filter holds only the kept rows, and
    ``positions[node_id][j]`` is the position of row j among the node's
    variants; a table built without one has no ``positions``.

    Each numeric reward in a row is an int: the reward times ``denominator``,
    the least common multiple of the denominators of the tree's numeric
    rewards, so rows hash and compare as exact integers.  Labels are kept as
    they are; ``numeric`` says whether the tree holds no label.

    A table built for mass functions (the *members* of `strategy_table`) on
    a numeric tree forms no value rows: ``table[node_id][j]`` is variant j's
    member-sum vector, one Σ W_m(a)·v(a) over the node's scope per member,
    with W_m member m's masses times their least common denominator
    (`MassFunction._integers`), one integer weight per atom of the space.
    Only such a table has ``masses``: ``masses[scope.members][m]`` is
    Σ W_m(a) over a node's scope, for every node, set before the pass
    begins, so that a row filter may read any node's.  A table built for a
    factored column holds each variant's factored values, as Fractions.
    """

    def __init__(self, denominator: int, numeric: bool):
        super().__init__()
        self.denominator = denominator
        self.numeric = numeric
        self.positions: dict[str, list[int]] = {}
        self.masses: dict[frozenset, list[int]] = {}

    def rewards(self, values: Iterable["Reward | int"]) -> tuple[Reward, ...]:
        """A row's values as rewards: each int over the denominator as a
        Fraction, labels as they are."""
        d = self.denominator
        return tuple(v if isinstance(v, str) else Fraction(v, d) for v in values)


def strategy_table(
    tree: DecisionTree,
    keep: Optional[Callable[..., Sequence[int]]] = None,
    members: Sequence | _FactoredColumn = (),
) -> StrategyTable:
    """Every node's strategy variants as rows of values, in one pass.

    ``table[node_id]`` holds one row per variant of the subtree at
    *node_id*, in `enumerate_strategies` order: the values of `gamble_of`
    on the matching strategy of ``subtree_at(tree, node_id)``, scaled as
    `StrategyTable` says (``table.rewards`` turns them back).  The pass
    reads the tree's node plan (`DecisionTree._plan`), children first, and
    so are the keys: a leaf gives one row, a decision node concatenates its
    children's rows, arc by arc, and a chance node takes the product of its
    children's rows, the last arc varying fastest as in
    `itertools.product`, and merges their value tuples.  No node is built:
    `Decoder` decodes one from its position.  Raises what `gamble_of`
    raises on some strategy of the tree: a scope atom without a reward as
    the plan is built, before the pass begins, and a product that mixes
    numbers and labels where the pass forms it.

    With *keep*, the pass also filters: after each decision and chance node
    only the rows at the indices ``keep(table, node_id, scope, rows)``
    returns, in order, stay, so a parent's rows come from its children's
    kept rows alone, and their positions from the children's kept
    positions (the encoding `_step` decodes).

    With *members*, mass functions on the tree's space, a numeric tree's
    pass first totals their weights over every node scope
    (``table.masses``) and then forms no value rows at all: each node's
    rows, those *keep* is given and those the table keeps, are its
    variants' member-sum vectors, from the same recursion (a leaf sums its
    values, a chance node adds its children's vectors).  That is all a
    rule that reads options only through their member sums needs.  Raises
    `ValueError` for a member on another space.

    With a factored column (`_FactoredColumn`) in place of *members*, the
    rows are the variants' factored values: a leaf gives ``column.leaf(node)``
    and a chance node scales each child's rows by its arc's probability in
    ``column.arc_probs``, then adds them in product order, never dividing.
    """
    column = None if isinstance(members, Sequence) else members
    if column is None and any(p.space != tree.space for p in members):
        raise ValueError("event lives in a different possibility space")
    plan = tree._plan
    numeric = "label" not in plan.kinds
    weights = [p._integers[1] for p in members] if numeric and column is None else []
    table = StrategyTable(plan.denominator, numeric)
    counts = plan.counts
    if weights:
        table.masses = masses = plan.masses(weights)
    kept_at = table.positions
    mixed = len(plan.kinds) > 1
    for nid, kind, scope, children, data in plan.nodes:
        if column is not None and (kind is Leaf or kind is GambleLeaf):
            rows = [column.leaf(tree.find(nid))]
        elif weights and (kind is Leaf or kind is GambleLeaf):
            rows = [plan.leaf_sums(kind, scope, data, weights, masses)]
        elif kind is Leaf:
            rows = [(data,) * len(scope)]
        elif kind is GambleLeaf:
            rows = [data]
        elif kind is DecisionNode:
            # value rows, member-sum vectors or factored values
            rows = [row for c in children for row in table[c]]
        elif kind is ChanceNode:
            rows = []
            if all(table[c] for c in children):
                parts = [table[c] for c in children]
                if column is not None:
                    probs = column.arc_probs[nid]
                    parts = [[tuple(p * v for v in r) for r in rs] for p, rs in zip(probs, parts)]
                rows, *rest = parts or [[()]]
                if weights or column is not None:
                    add = operator.add
                    for child_rows in rest:
                        rows = [tuple(map(add, r, c)) for r in rows for c in child_rows]
                else:
                    for child_rows in rest:
                        rows = [r + c for r in rows for c in child_rows]
                    if data is not None:
                        rows = list(map(data, rows))
                # only a product can put both kinds into one row
                if mixed:
                    for values in rows:
                        if len(set(map(_reward_kind, values))) > 1:
                            raise MixedRewardKinds("a gamble cannot mix numbers and labels")
        else:
            raise TypeError(f"unknown node type {kind.__name__}")
        if keep is not None and (kind is Leaf or kind is GambleLeaf):
            kept_at[nid] = [0]
        elif keep is not None:
            kept = keep(table, nid, scope, rows)
            rows = [rows[i] for i in kept]
            # the positions among the node's variants of the rows formed
            # from its children's kept rows: the encoding `_step` decodes
            if kind is DecisionNode:
                formed = [o + p for o, c in zip(data, children) for p in kept_at[c]]
            else:
                formed = [0]
                for c in children:
                    n = counts[c]
                    formed = [p * n + q for p in formed for q in kept_at[c]]
            kept_at[nid] = [formed[i] for i in kept]
        table[nid] = rows
    return table


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
        return operator.itemgetter(slice(plan[0], plan[0] + 1))
    return operator.itemgetter(*plan)


def enumerate_strategies(tree: DecisionTree) -> tuple[Strategy, ...]:
    """All strategies of *tree*, in canonical order.

    The order is lexicographic in the indices of the kept decision arcs,
    walking the tree depth first.  Decision nodes sitting below an arc that
    a strategy does not keep are simply absent from it, which is what makes
    the enumeration free of duplicates.  Raises what `gamble_of` raises on
    some strategy, because the strategies are decoded from the positions of
    `strategy_table`; strategies share the nodes of their common variants.
    """
    table = strategy_table(tree)
    root = tree.root.node_id
    return Decoder(tree).strategies(root, range(len(table[root])))


def strategy_at(tree: DecisionTree, k: int) -> Strategy:
    """``enumerate_strategies(tree)[k]`` for ``0 <= k < count_strategies(tree)``,
    decoded from *k* without enumerating or valuing any strategy."""
    if not 0 <= k < count_strategies(tree):
        raise IndexError(f"strategy {k} out of range")
    return Decoder(tree).strategy(tree.root.node_id, k)


def count_strategies(tree: DecisionTree) -> int:
    """``len(enumerate_strategies(tree))``, without enumerating."""
    return tree._plan.counts[tree.root.node_id]


def bounded_strategy_count(tree: DecisionTree, limit: int) -> int:
    """`count_strategies`, or raise `TooManyStrategies` if it exceeds *limit*;
    call it before building the strategy table."""
    count = count_strategies(tree)
    if count > limit:
        raise TooManyStrategies(
            f"the tree has {count} strategies, more than the limit of {limit}"
        )
    return count


def _step(
    node: Node, k: int, count: Callable[[str], int]
) -> list[tuple[DecisionArc | ChanceArc, int]]:
    """The decoder of strategy positions: the arcs variant *k* of *node*
    keeps, in order, each with the position of its child's variant.

    ``count(node_id)`` is the number of variants of a node (its
    `strategy_table` rows).  At a decision node, k falls into the range of
    one arc, after the variants of the earlier arcs; at a chance node, k is
    a mixed-radix number over the children's counts, the last arc's digit
    varying fastest.  A leaf keeps no arc.  A filtered `strategy_table`
    encodes positions.
    """
    kept: list[tuple[DecisionArc | ChanceArc, int]] = []
    if isinstance(node, DecisionNode):
        for arc in node.arcs:
            n = count(arc.child.node_id)
            if k < n:
                return [(arc, k)]
            k -= n
    elif isinstance(node, ChanceNode):
        for arc in reversed(node.arcs):
            k, digit = divmod(k, count(arc.child.node_id))
            kept.append((arc, digit))
        kept.reverse()
    return kept


class Decoder:
    """Strategy positions of one tree decoded into nodes, each once.

    Positions are decoded by `_step` with the tree's variant counts
    (`Plan.counts`).  Variant k of a node is kept in a memo under
    (node id, k) and built from its children's memoised variants, so the
    variants of a parent and of its children share their nodes.  A node
    with a single variant is that variant, so it is returned as it is.
    Decoding walks down with a stack and builds bottom-up, so deep chains
    need no recursion.
    """

    def __init__(self, tree: DecisionTree):
        self.tree = tree
        self._count = tree._plan.counts.__getitem__
        self._nodes: dict[tuple[str, int], Node] = {}

    def node(self, node: Node, k: int) -> Node:
        """Variant *k* of *node*: the root node of the matching strategy."""
        count, memo = self._count, self._nodes
        if count(node.node_id) == 1:
            return node
        got = memo.get((node.node_id, k))
        if got is not None:
            return got
        # the variants still to build, each before the variants it keeps,
        # with the arcs it keeps and each child's position (`_step`)
        todo: list[tuple] = []
        stack = [(node, k)]
        while stack:
            at, i = stack.pop()
            kept = _step(at, i, count)
            todo.append((at, i, kept))
            for arc, j in kept:
                if count(arc.child.node_id) != 1 and (arc.child.node_id, j) not in memo:
                    stack.append((arc.child, j))
        for at, i, kept in reversed(todo):
            arcs = []
            for arc, j in kept:
                child = arc.child
                if count(child.node_id) != 1:
                    child = memo[child.node_id, j]
                if isinstance(at, DecisionNode):
                    arcs.append(DecisionArc(arc.label, child))
                else:
                    arcs.append(ChanceArc(arc.event, child))
            memo[at.node_id, i] = got = type(at)(at.node_id, tuple(arcs))
        return got  # built last: variant k of node

    def strategies(self, node_id: str, positions: Iterable[int]) -> tuple[Strategy, ...]:
        """The variants at *positions* of the subtree at *node_id*, as
        strategies, valid as built (`_step` keeps one arc per decision node),
        so `Strategy`'s check is skipped; raises `UnknownNode` for a node not
        in the tree."""
        tree = self.tree
        node, scope = tree.find(node_id), tree.scope_of(node_id)
        out = []
        for k in positions:
            strategy = object.__new__(Strategy)
            strategy.__dict__.update(space=tree.space, root=self.node(node, k), root_scope=scope)
            out.append(strategy)
        return tuple(out)

    def strategy(self, node_id: str, k: int) -> Strategy:
        """Variant *k* of the subtree at *node_id*, as a strategy."""
        return self.strategies(node_id, (k,))[0]


def _decisions(node: Node) -> Iterator[DecisionNode]:
    """The decision nodes at and below *node*, in preorder."""
    return (at for at, _ in _walk(node) if isinstance(at, DecisionNode))


def kept_arcs(strategy: DecisionTree) -> dict[str, str]:
    """Kept arc label per decision node, in preorder: the portable form of a
    strategy."""
    return {n.node_id: n.arcs[0].label for n in _decisions(strategy.root)}


def kept_children(node: Node) -> tuple[str, ...]:
    """The ids of the children kept by the decision nodes of a strategy at
    and below *node*, in preorder.

    Among the strategies of one tree, or of one of its subtrees, equal keys
    mean equal strategies, because node ids are unique in a tree; unlike the
    structural equality of the nodes, the key is cheap to hash and compare.
    """
    return tuple(n.arcs[0].child.node_id for n in _decisions(node))


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
