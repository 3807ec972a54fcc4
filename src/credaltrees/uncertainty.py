"""Uncertainty models: mass functions, credal sets, tree-factored
assessments and sets of utility functions, with exact conditional
expectation operators for each.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Mapping, Optional, Sequence, Union

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
    DecisionTree,
    Event,
    Gamble,
    GambleLeaf,
    Leaf,
    PossibilitySpace,
    Reward,
    as_rational,
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

    @cached_property
    def _integers(self) -> tuple[int, tuple[int, ...]]:
        """The least common denominator d of the masses, and each mass times d."""
        d = math.lcm(*(m.denominator for m in self.masses))
        return d, tuple(m.numerator * (d // m.denominator) for m in self.masses)

    def prob(self, event: Event) -> Fraction:
        if event.space != self.space:
            raise ValueError("event lives in a different possibility space")
        d, masses = self._integers
        position = self.space.position
        return Fraction(sum(masses[position(a)] for a in event.ordered), d)

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
    """A finite list of mass functions over a common possibility space."""

    members: tuple[MassFunction, ...]

    def __post_init__(self) -> None:
        if not self.members:
            raise ValueError("a credal set needs at least one member")
        sp = self.members[0].space
        for m in self.members:
            if m.space != sp:
                raise ValueError("members live in different possibility spaces")


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

    def __post_init__(self) -> None:
        chance_ids = set()
        for node, _ in self.tree.nodes():
            if isinstance(node, ChanceNode):
                chance_ids.add(node.node_id)
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
        unknown = set(self.arc_probs) - chance_ids
        if unknown:
            raise UnknownNode(
                f"arc probabilities given for unknown chance nodes {sorted(unknown)}"
            )

    @cached_property
    def _index(self) -> RowIndex:
        return _row_index(self, _numeric)


#: a reward's value in each column of the rows
RewardMap = Callable[[Reward], tuple[Fraction, ...]]

#: (node scope, row values) -> {row value: ids of the nodes with such a row}
RowIndex = dict[tuple[Event, tuple[Reward, ...]], dict[tuple[Fraction, ...], set[str]]]


def _numeric(reward: Reward) -> tuple[Fraction, ...]:
    """The reward map of expected utility: a number is its own value."""
    if not isinstance(reward, Fraction):
        raise ValueError("factored expectation needs numeric rewards")
    return (reward,)


@dataclass(frozen=True)
class _FactoredColumn:
    """The third argument of `strategy_table` that makes its rows factored
    values: a chance node weighs its arcs by ``arc_probs`` and a leaf gives
    its reward through *reward_map*."""

    arc_probs: Mapping[str, tuple[Fraction, ...]]
    reward_map: RewardMap

    def leaf(self, node: Leaf | GambleLeaf) -> tuple[Fraction, ...]:
        """A leaf's values; a gamble leaf must be constant on its scope, or
        this raises `ModeUnsupported`."""
        rewards = {node.reward} if isinstance(node, Leaf) else set(node.gamble.values)
        if len(rewards) != 1:
            raise ModeUnsupported(
                f"gamble leaf {node.node_id!r} is not constant on its scope: a factored"
                " assessment values constant leaves only"
            )
        return self.reward_map(rewards.pop())


def _row_index(a: TreeFactoredAssessment, reward_map: RewardMap) -> RowIndex:
    table = strategy_table(a.tree)
    column = strategy_table(a.tree, None, _FactoredColumn(a.arc_probs, reward_map))
    index: RowIndex = {}
    for nid, rows in table.items():
        scope = a.tree.scope_of(nid)
        for row, value in zip(rows, column[nid]):
            key = (scope, table.rewards(row))
            index.setdefault(key, {}).setdefault(value, set()).add(nid)
    return index


def _factored_gamble_value(index: RowIndex, x: Gamble, b: Event) -> tuple[Fraction, ...]:
    """The common value of the rows that induce *x* on *b*, at the nodes of
    scope *b*: an assessment only assigns probabilities along its own tree,
    so that is how it values a gamble.
    """
    found = index.get((b, x.values if x.scope == b else x.values_on(b)), {})
    if not found:
        raise UnrepresentableGamble(
            f"no strategy of the assessed tree induces this gamble on {b!r}"
        )
    if len(found) > 1:
        where = sorted(set().union(*found.values()))
        raise InconsistentAssessment(
            f"the assessment values the same gamble on {b!r} differently"
            f" at nodes {where}"
        )
    return next(iter(found))


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

    def values_of(self, label: Reward) -> tuple[Fraction, ...]:
        """*label*'s utility under each function, in order."""
        if not isinstance(label, str):
            raise ValueError("utility functions apply to label rewards")
        for i, table in enumerate(self.functions):
            if label not in table:
                raise UnknownLabel(
                    f"utility function {i} has no value for label {label!r}"
                )
        return tuple(table[label] for table in self.functions)


# --- model wrappers -----------------------------------------------------------


@dataclass(frozen=True, eq=False)
class JointModel:
    p: MassFunction


@dataclass(frozen=True, eq=False)
class FactoredModel:
    assessment: TreeFactoredAssessment


@dataclass(frozen=True, eq=False)
class CredalModel:
    credal: CredalSet


@dataclass(frozen=True, eq=False)
class UtilityModel:
    utilities: UtilityFunctionSet
    chance: Optional[Union[JointModel, FactoredModel]] = None

    @cached_property
    def _index(self) -> RowIndex:
        # the factored chance part's rows, one column per utility function
        return _row_index(self.chance.assessment, self.utilities.values_of)


UncertaintyModel = JointModel | FactoredModel | CredalModel | UtilityModel


def precise_gamble_value(
    model: Union[JointModel, FactoredModel], x: Gamble, b: Event
) -> Fraction:
    """Conditional expectation of a numeric gamble under a precise model."""
    if isinstance(model, JointModel):
        return expectation(model.p, x, b)
    if isinstance(model, FactoredModel):
        return _factored_gamble_value(model.assessment._index, x, b)[0]
    raise ModeUnsupported(f"expected a joint or factored model, got {model!r}")


def utility_values(model: UtilityModel, x: Gamble, b: Event) -> tuple[Fraction, ...]:
    """The expected utility of label gamble *x* given *b* under each function.

    Without a chance part each relabelled gamble must be constant on *b*; a
    joint part gives conditional expectations; a factored part reads them
    from the rows of nodes whose scope is *b*, as `precise_gamble_value`
    does.
    """
    chance = model.chance
    if isinstance(chance, FactoredModel):
        return _factored_gamble_value(model._index, x, b)
    # the values on b under each function, one tuple per function
    relabelled = list(zip(*map(model.utilities.values_of, x.values_on(b))))
    if chance is None:
        if any(len(set(values)) > 1 for values in relabelled):
            raise ModeUnsupported(
                "a utility model without a chance part can only compare"
                " options that are constant on the conditioning event"
            )
        return tuple(values[0] for values in relabelled)
    if isinstance(chance, JointModel):
        return tuple(expectation(chance.p, Gamble(b, v), b) for v in relabelled)
    raise ModeUnsupported("the chance part of a utility model must be joint or factored")
