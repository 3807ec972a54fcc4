"""Uncertainty models: mass functions, credal sets, tree-factored
assessments and sets of utility functions, with exact conditional
expectation operators for each.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Optional, Sequence, Union

from .errors import (
    InconsistentAssessment,
    MissingArcProbability,
    ModeUnsupported,
    PartitionInvalid,
    ScopeMismatch,
    UnknownLabel,
    UnknownNode,
    UnrepresentableGamble,
    ZeroProbabilityCondition,
)
from .trees import (
    ChanceNode,
    DecisionNode,
    DecisionTree,
    Event,
    Gamble,
    GambleLeaf,
    Leaf,
    Node,
    PossibilitySpace,
    Row,
    Strategy,
    as_rational,
    gamble_of,
    strategy_table,
)


@dataclass(frozen=True)
class MassFunction:
    """An exact probability mass function on a possibility space."""

    space: PossibilitySpace
    masses: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.masses) != len(self.space):
            raise ValueError("one mass per atom is required")
        for m in self.masses:
            if not isinstance(m, Fraction):
                raise TypeError("masses must be Fractions; use from_mapping to parse")
            if m < 0:
                raise ValueError("masses must be nonnegative")
        if sum(self.masses) != 1:
            raise ValueError("masses must sum to exactly 1")

    @classmethod
    def from_mapping(
        cls, space: PossibilitySpace, table: Mapping[str, "int | str | Fraction"]
    ) -> "MassFunction":
        missing = [a for a in space.atoms if a not in table]
        if missing:
            raise ValueError(f"mass table misses atoms {missing}")
        return cls(space, tuple(as_rational(table[a]) for a in space.atoms))

    def mass(self, atom: str) -> Fraction:
        return self.masses[self.space.position(atom)]

    def prob(self, event: Event) -> Fraction:
        if event.space != self.space:
            raise ValueError("event lives in a different possibility space")
        return sum((self.mass(a) for a in event.ordered), Fraction(0))

    @property
    def is_strictly_positive(self) -> bool:
        return all(m > 0 for m in self.masses)


def expectation(p: MassFunction, x: Gamble, b: Event) -> Fraction:
    """The conditional expectation of *x* given *b* under *p*.

    Computed as the ratio of the expectation of x restricted to b and the
    probability of b; requires p(b) > 0 and b inside the gamble's scope.
    """
    if not b <= x.scope:
        raise ScopeMismatch("conditioning event is not inside the gamble's scope")
    if not x.is_numeric:
        raise ValueError("expectation needs a numeric gamble")
    pb = p.prob(b)
    if pb == 0:
        raise ZeroProbabilityCondition(
            f"conditioning event {b!r} has probability zero"
        )
    total = sum((p.mass(a) * x[a] for a in b.ordered), Fraction(0))
    return total / pb


@dataclass(frozen=True)
class CredalSet:
    """A finite list of mass functions over a common possibility space.

    ``positivity_checked`` records, at construction time, whether every
    member gives every atom strictly positive mass.
    """

    members: tuple[MassFunction, ...]
    positivity_checked: bool = field(init=False, compare=False)

    def __post_init__(self) -> None:
        if not self.members:
            raise ValueError("a credal set needs at least one member")
        sp = self.members[0].space
        for m in self.members:
            if m.space != sp:
                raise ValueError("members live in different possibility spaces")
        object.__setattr__(
            self,
            "positivity_checked",
            all(m.is_strictly_positive for m in self.members),
        )

    @property
    def space(self) -> PossibilitySpace:
        return self.members[0].space


def lower_expectation(m: CredalSet, x: Gamble, b: Event) -> Fraction:
    """min over the members of the conditional expectation of x given b."""
    return min(expectation(p, x, b) for p in m.members)


def upper_expectation(m: CredalSet, x: Gamble, b: Event) -> Fraction:
    return max(expectation(p, x, b) for p in m.members)


def product_credal(
    space: PossibilitySpace,
    partition: Sequence[Event],
    marginals: Sequence[Sequence["int | str | Fraction"]],
    conditionals: Sequence[Sequence[Mapping[str, "int | str | Fraction"]]],
) -> CredalSet:
    """Build a credal set with independent marginal and conditional parts.

    *partition* must partition the space; each entry of *marginals* gives one
    candidate weight per cell; ``conditionals[i]`` lists candidate mass
    functions over the atoms of cell i.  The result contains one joint for
    every combination of a marginal with one conditional per cell, which is
    the exact chain-rule closure of the assessment.
    """
    covered = space.empty()
    for cell in partition:
        if cell.is_empty:
            raise PartitionInvalid("partition cells must be nonempty")
        if covered & cell:
            raise PartitionInvalid("partition cells overlap")
        covered = covered | cell
    if covered != space.omega():
        raise PartitionInvalid("partition does not cover the space")
    if not marginals:
        raise ValueError("at least one marginal is required")

    weights: list[tuple[Fraction, ...]] = []
    for marg in marginals:
        if len(marg) != len(partition):
            raise PartitionInvalid("one marginal weight per cell is required")
        w = tuple(as_rational(v) for v in marg)
        if any(v < 0 for v in w) or sum(w) != 1:
            raise ValueError("marginal weights must be nonnegative and sum to 1")
        weights.append(w)

    if len(conditionals) != len(partition):
        raise PartitionInvalid("one conditional family per cell is required")
    cell_tables: list[list[dict[str, Fraction]]] = []
    for cell, family in zip(partition, conditionals):
        if not family:
            raise ValueError("each cell needs at least one conditional")
        tables = []
        for cond in family:
            if set(cond) != set(cell.members):
                raise PartitionInvalid(
                    "conditional table does not match its cell's atoms"
                )
            t = {a: as_rational(v) for a, v in cond.items()}
            if any(v < 0 for v in t.values()) or sum(t.values()) != 1:
                raise ValueError("conditional masses must be nonnegative and sum to 1")
            tables.append(t)
        cell_tables.append(tables)

    members = []
    for w in weights:
        for combo in itertools.product(*cell_tables):
            table = {}
            for weight, cell, cond in zip(w, partition, combo):
                for a in cell.ordered:
                    table[a] = weight * cond[a]
            members.append(MassFunction.from_mapping(space, table))
    return CredalSet(tuple(members))


# --- tree-factored assessments ----------------------------------------------


@dataclass(frozen=True, eq=False)
class TreeFactoredAssessment:
    """Per-arc conditional probabilities attached to one tree's chance nodes.

    ``arc_probs`` maps each chance node id to a tuple of probabilities, one
    per arc in arc order, summing to 1.  Zeros are allowed, which is what
    lets this mode condition on events a joint would give probability zero.
    """

    tree: DecisionTree
    arc_probs: Mapping[str, tuple[Fraction, ...]]
    _gamble_cache: dict = field(default_factory=dict, repr=False)

    @cached_property
    def _strategy_table(self) -> dict[str, list[Row]]:
        return strategy_table(self.tree)

    def __post_init__(self) -> None:
        for node, _ in self.tree.nodes():
            if isinstance(node, ChanceNode):
                if node.node_id not in self.arc_probs:
                    raise MissingArcProbability(
                        f"no arc probabilities for chance node {node.node_id!r}"
                    )
                probs = self.arc_probs[node.node_id]
                if len(probs) != len(node.arcs):
                    raise MissingArcProbability(
                        f"chance node {node.node_id!r} has {len(node.arcs)} arcs"
                        f" but {len(probs)} probabilities"
                    )
                for p in probs:
                    if not isinstance(p, Fraction) or p < 0 or p > 1:
                        raise ValueError(
                            f"arc probabilities at {node.node_id!r} must be"
                            " Fractions in [0, 1]"
                        )
                if sum(probs) != 1:
                    raise ValueError(
                        f"arc probabilities at {node.node_id!r} must sum to 1"
                    )
        unknown = set(self.arc_probs) - {
            n.node_id for n, _ in self.tree.nodes() if isinstance(n, ChanceNode)
        }
        if unknown:
            raise UnknownNode(
                f"arc probabilities given for unknown chance nodes {sorted(unknown)}"
            )

    @classmethod
    def from_mapping(
        cls,
        tree: DecisionTree,
        table: Mapping[str, Sequence["int | str | Fraction"]],
    ) -> "TreeFactoredAssessment":
        return cls(
            tree,
            {nid: tuple(as_rational(v) for v in row) for nid, row in table.items()},
        )


def factored_expectation(
    a: TreeFactoredAssessment, s: DecisionTree, node_id: Optional[str] = None
) -> Fraction:
    """The expected reward of strategy *s* rooted at *node_id*.

    Works by backward recursion over the strategy using the assessment's
    arc probabilities, so it never divides and is immune to conditioning
    events of probability zero.
    """
    node = s.root if node_id is None else s.find(node_id)

    def value(node: Node) -> Fraction:
        if isinstance(node, Leaf):
            if not isinstance(node.reward, Fraction):
                raise ValueError("factored expectation needs numeric rewards")
            return node.reward
        if isinstance(node, GambleLeaf):
            v = node.gamble.constant_value_on(node.gamble.scope)
            if not isinstance(v, Fraction):
                raise ValueError("factored expectation needs numeric rewards")
            return v
        if isinstance(node, DecisionNode):
            if len(node.arcs) != 1:
                raise ValueError(
                    f"decision node {node.node_id!r} keeps {len(node.arcs)} arcs;"
                    " factored expectation needs a strategy"
                )
            return value(node.arcs[0].child)
        if isinstance(node, ChanceNode):
            probs = a.arc_probs.get(node.node_id)
            if probs is None:
                raise MissingArcProbability(
                    f"no arc probabilities for chance node {node.node_id!r}"
                )
            if len(probs) != len(node.arcs):
                raise MissingArcProbability(
                    f"arc probabilities at {node.node_id!r} do not match its arcs"
                )
            return sum(
                (p * value(arc.child) for p, arc in zip(probs, node.arcs)),
                Fraction(0),
            )
        raise TypeError(f"unknown node type {type(node).__name__}")

    return value(node)


def _factored_gamble_value(
    a: TreeFactoredAssessment, x: Gamble, b: Event
) -> Fraction:
    """Value a gamble under a tree-factored assessment by strategy matching.

    The assessment only assigns probabilities along its own tree, so a bare
    gamble is valued by finding the strategies of the subtrees rooted at
    nodes whose path event is *b* that induce the same gamble on *b*; their
    factored expectations must agree, and that common value is returned.
    The candidates are the rows of the assessment's strategy table, built
    once per assessment.
    """
    key = (x.scope, x.values, b)
    if key in a._gamble_cache:
        return a._gamble_cache[key]
    if not b <= x.scope:
        raise ScopeMismatch("conditioning event is not inside the gamble's scope")
    target = x.values_on(b)
    found: list[tuple[str, Fraction]] = []
    for node, scope in a.tree.nodes():
        if scope != b:
            continue
        for v, values in a._strategy_table[node.node_id]:
            if values == target:
                s = Strategy(a.tree.space, v, scope)
                found.append((node.node_id, factored_expectation(a, s)))
    if not found:
        raise UnrepresentableGamble(
            f"no strategy of the assessed tree induces this gamble on {b!r}"
        )
    values = {v for _, v in found}
    if len(values) > 1:
        where = sorted({nid for nid, _ in found})
        raise InconsistentAssessment(
            f"the assessment values the same gamble on {b!r} differently"
            f" at nodes {where}"
        )
    value = values.pop()
    a._gamble_cache[key] = value
    return value


# --- utility function sets ---------------------------------------------------


@dataclass(frozen=True, eq=False)
class UtilityFunctionSet:
    """Finitely many candidate utility functions over reward labels."""

    functions: tuple[Mapping[str, Fraction], ...]

    def __post_init__(self) -> None:
        if not self.functions:
            raise ValueError("at least one utility function is required")

    @classmethod
    def from_tables(
        cls, tables: Sequence[Mapping[str, "int | str | Fraction"]]
    ) -> "UtilityFunctionSet":
        return cls(
            tuple(
                {label: as_rational(v) for label, v in t.items()} for t in tables
            )
        )

    def apply(self, index: int, gamble: Gamble) -> Gamble:
        """Relabel a label gamble into the numeric gamble under function *index*."""
        table = self.functions[index]

        def resolve(label):
            if not isinstance(label, str):
                raise ValueError("utility functions apply to label gambles")
            try:
                return table[label]
            except KeyError:
                raise UnknownLabel(
                    f"utility function {index} has no value for label {label!r}"
                ) from None

        return gamble.map_values(resolve)


# --- model wrappers -----------------------------------------------------------


@dataclass(frozen=True, eq=False)
class JointModel:
    p: MassFunction
    mode: str = field(default="joint", init=False)


@dataclass(frozen=True, eq=False)
class FactoredModel:
    assessment: TreeFactoredAssessment
    mode: str = field(default="factored", init=False)


@dataclass(frozen=True, eq=False)
class CredalModel:
    credal: CredalSet
    mode: str = field(default="credal", init=False)


@dataclass(frozen=True, eq=False)
class UtilityModel:
    utilities: UtilityFunctionSet
    chance: Optional[Union[JointModel, FactoredModel]] = None
    mode: str = field(default="utilities", init=False)


UncertaintyModel = Union[JointModel, FactoredModel, CredalModel, UtilityModel]


def precise_gamble_value(
    model: Union[JointModel, FactoredModel], x: Gamble, b: Event
) -> Fraction:
    """Conditional expectation of a numeric gamble under a precise model."""
    if isinstance(model, JointModel):
        return expectation(model.p, x, b)
    if isinstance(model, FactoredModel):
        return _factored_gamble_value(model.assessment, x, b)
    raise ModeUnsupported(f"expected a joint or factored model, got {model!r}")


def utility_expectations(
    u: UtilityFunctionSet,
    chance: Optional[Union[JointModel, FactoredModel]],
    s: Strategy,
) -> tuple[Fraction, ...]:
    """The strategy's expected utility under each candidate utility function.

    With no chance component the strategy must be constant, in which case
    the utilities of its single reward label are returned.
    """
    g = gamble_of(s)
    out = []
    for i in range(len(u.functions)):
        numeric = u.apply(i, g)
        if chance is None:
            v = numeric.constant_value_on(numeric.scope)
            if not isinstance(v, Fraction):
                raise ValueError("utility application should yield numbers")
            out.append(v)
        elif isinstance(chance, JointModel):
            out.append(expectation(chance.p, numeric, s.root_scope))
        elif isinstance(chance, FactoredModel):
            relabeled = _relabel_strategy(s, u, i)
            out.append(factored_expectation(chance.assessment, relabeled))
        else:
            raise ModeUnsupported(
                "the chance part of a utility model must be joint or factored"
            )
    return tuple(out)


def _relabel_strategy(s: Strategy, u: UtilityFunctionSet, index: int) -> Strategy:
    table = u.functions[index]

    def resolve(label):
        if isinstance(label, Fraction):
            raise ValueError("utility functions apply to label rewards")
        try:
            return table[label]
        except KeyError:
            raise UnknownLabel(
                f"utility function {index} has no value for label {label!r}"
            ) from None

    def rebuild(node: Node) -> Node:
        if isinstance(node, Leaf):
            return Leaf(node.node_id, resolve(node.reward))
        if isinstance(node, GambleLeaf):
            return GambleLeaf(node.node_id, node.gamble.map_values(resolve))
        if isinstance(node, DecisionNode):
            return DecisionNode(
                node.node_id,
                tuple(
                    node.arcs[i].__class__(node.arcs[i].label, rebuild(node.arcs[i].child))
                    for i in range(len(node.arcs))
                ),
            )
        if isinstance(node, ChanceNode):
            return ChanceNode(
                node.node_id,
                tuple(
                    arc.__class__(arc.event, rebuild(arc.child)) for arc in node.arcs
                ),
            )
        raise TypeError(f"unknown node type {type(node).__name__}")

    return Strategy(s.space, rebuild(s.root), s.root_scope)
