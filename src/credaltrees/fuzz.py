"""Seeded random decision problems and the theorem fuzzing harness.

``fuzz_equivalence`` generates random trees and models deterministically
from a seed, scans each for subtree perfectness failures, and for every
failing tree re-runs the canonical checker over a pool of gambles harvested
from the tree itself, to confirm that the failure is explained by one of
the two canonical shapes.  A miss despite an exhaustive reduction would
signal an implementation bug and is reported as a theorem inconsistency;
a miss under truncated limits is only flagged for inspection.

Reports are plain data and render identically for identical configs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .canonical import CanonicalLimits, CanonicalReport, check_canonical
from .choice import ChoiceFunction
from .errors import TooManyStrategies, UnknownNode
from .solver import Outcome, check_subtree_perfect
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
    chance,
    count_strategies,
    decision,
    strategy_table,
    validate_tree,
)
from .uncertainty import (
    CredalModel,
    CredalSet,
    FactoredModel,
    JointModel,
    MassFunction,
    TreeFactoredAssessment,
    UncertaintyModel,
)

_SAMPLERS = ("joint", "credal", "factored", "hierarchical")
#: How many harvested gambles and events a reduction scans at most.
_POOL_CAP, _EVENT_CAP = 24, 10
#: The instance budget of each reduction.
_REDUCTION_BUDGET = 40000
#: The most arcs a generated node has, and the range of its integer rewards.
_MAX_BRANCHING, _REWARD_RANGE = 3, (-10, 20)


@dataclass(frozen=True)
class FuzzConfig:
    """Deterministic generation parameters.

    ``model_sampler`` is one of "joint", "factored", "credal:k" or
    "hierarchical:k".  The hierarchical sampler fixes a laminar refinement
    of the space, makes every chance node split along it, and builds the
    credal set as all chain-rule combinations of k candidate weight vectors
    per split, so the marginal extension property holds at every chance
    node by construction, which needs ``max_depth >= 2``.  Atom masses are
    multiples of 1/100 and at least 1/100, so every generated model is
    strictly positive.  A tree has at most ``max_strategies`` strategies,
    at least 2, since it holds a decision node.
    """

    seed: int
    tree_count: int
    max_depth: int = 3
    omega_size: int = 4
    model_sampler: str = "credal:2"
    max_strategies: int = 48

    def __post_init__(self) -> None:
        if not 2 <= self.omega_size <= 6:
            raise ValueError("omega_size must be between 2 and 6")
        if self.tree_count < 1:
            raise ValueError("tree_count must be positive")
        if self.max_depth < 1:
            raise ValueError("need max_depth >= 1")
        if self.max_strategies < 2:
            raise ValueError("max_strategies must be at least 2, a decision node's least count")
        if self.sampler_parts()[0] == "hierarchical" and self.max_depth < 2:
            raise ValueError(
                "the hierarchical sampler needs max_depth >= 2, for both a decision"
                " and a chance node"
            )

    def sampler_parts(self) -> tuple[str, int]:
        name, colon, arg = self.model_sampler.partition(":")
        if name not in _SAMPLERS:
            raise ValueError(f"unknown model sampler {self.model_sampler!r}")
        counted = name in ("credal", "hierarchical")
        if colon and not (counted and arg.isascii() and arg.isdigit()):
            raise ValueError(
                f"model sampler {self.model_sampler!r}: only credal and"
                " hierarchical take a member count, written in digits"
            )
        k = int(arg) if arg else (2 if counted else 1)
        if k < 1:
            raise ValueError("sampler member count must be positive")
        return name, k


def _rng_for(seed: int, index: int, attempt: int) -> random.Random:
    digest = hashlib.sha256(f"{seed}:{index}:{attempt}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _composition(rng: random.Random, n: int, total: int = 100) -> tuple[Fraction, ...]:
    """n strictly positive fractions with denominator *total*, summing to 1.

    Drawn uniformly over all such compositions (stars and bars), so the
    masses spread over the whole simplex instead of clustering near the
    uniform distribution the way per-unit allocation would.
    """
    if n == 1:
        return (Fraction(1),)
    cuts = sorted(rng.sample(range(1, total), n - 1))
    bounds = [0, *cuts, total]
    return tuple(
        Fraction(bounds[i + 1] - bounds[i], total) for i in range(n)
    )


def _split_atoms(rng: random.Random, atoms: list[str], cells: int) -> list[list[str]]:
    """Partition *atoms* into *cells* nonempty parts, deterministically."""
    shuffled = rng.sample(atoms, len(atoms))
    parts: list[list[str]] = [[shuffled[i]] for i in range(cells)]
    for a in shuffled[cells:]:
        parts[rng.randrange(cells)].append(a)
    order = {a: i for i, a in enumerate(atoms)}
    for p in parts:
        p.sort(key=order.__getitem__)
    parts.sort(key=lambda p: order[p[0]])
    return parts


class _TreeSampler:
    #: weight of a chance node against 1 for a leaf and 3 for a decision
    chance_weight = 3

    def __init__(
        self,
        cfg: FuzzConfig,
        rng: random.Random,
        space: PossibilitySpace,
        gamble_leaves: bool = True,
    ):
        self.cfg = cfg
        self.rng = rng
        self.space = space
        self.gamble_leaves = gamble_leaves
        self.counter = 0

    def next_id(self) -> str:
        self.counter += 1
        return f"n{self.counter - 1}"

    def reward(self) -> Fraction:
        return Fraction(self.rng.randint(*_REWARD_RANGE))

    def make_leaf(self, atoms: list[str]) -> Node:
        nid = self.next_id()
        if self.gamble_leaves and len(atoms) >= 2 and self.rng.random() < 1 / 2:
            scope = self.space.event(atoms)
            return GambleLeaf(
                nid, Gamble(scope, tuple(self.reward() for _ in atoms))
            )
        return Leaf(nid, self.reward())

    def splitter(self, atoms: list[str]) -> Optional[Callable[[], list[list[str]]]]:
        """How a chance node over *atoms* splits them: a function that draws
        the parts, or None if a chance node cannot sit here."""
        if len(atoms) < 2:
            return None

        def split() -> list[list[str]]:
            cells = self.rng.randint(2, min(len(atoms), _MAX_BRANCHING))
            return _split_atoms(self.rng, atoms, cells)

        return split

    def build(self, atoms: list[str], depth: int) -> tuple[Node, int]:
        """A random subtree over *atoms* and its number of strategies.  Raises
        `TooManyStrategies` at the first count past ``max_strategies``: the
        tree's count is at least any subtree's (a decision node's count is
        the sum of its children's, a chance node's their product)."""
        rng = self.rng
        kinds = ["leaf"]
        weights = [1]
        split = None
        if depth < self.cfg.max_depth:
            kinds.append("decision")
            weights.append(3)
            split = self.splitter(atoms)
            if split is not None:
                kinds.append("chance")
                weights.append(self.chance_weight)
        kind = rng.choices(kinds, weights)[0]
        if kind == "leaf":
            return self.make_leaf(atoms), 1
        nid = self.next_id()
        if kind == "decision":
            arity = rng.randint(2, _MAX_BRANCHING)
            arcs = [(f"d{i + 1}", atoms) for i in range(arity)]
            make, combine = decision, sum
        else:
            arcs = [(self.space.event(part), part) for part in split()]
            make, combine = chance, math.prod
        children, counts = [], []
        for tag, part in arcs:
            child, count = self.build(part, depth + 1)
            children.append((tag, child))
            counts.append(count)
            if combine(counts) > self.cfg.max_strategies:
                raise TooManyStrategies(f"more than {self.cfg.max_strategies} strategies")
        return make(nid, children), combine(counts)


class _HierarchicalSampler(_TreeSampler):
    """Chance nodes follow a fixed laminar refinement of the space."""

    chance_weight = 4

    def __init__(self, *args):
        super().__init__(*args)
        self.children: dict[frozenset, list[list[str]]] = {}
        self._laminate(list(self.space.atoms))

    def _laminate(self, atoms: list[str]) -> None:
        if len(atoms) == 1:
            return
        cells = self.rng.randint(2, min(len(atoms), 3))
        parts = _split_atoms(self.rng, atoms, cells)
        self.children[frozenset(atoms)] = parts
        for p in parts:
            self._laminate(p)

    def splitter(self, atoms: list[str]) -> Optional[Callable[[], list[list[str]]]]:
        parts = self.children.get(frozenset(atoms))
        return None if parts is None else lambda: parts

    def credal_model(self, k: int) -> CredalModel:
        """All chain-rule combinations of k weight vectors per laminar split."""
        cells = sorted(self.children, key=lambda c: (-len(c), sorted(c)))
        vectors = {
            cell: [_composition(self.rng, len(self.children[cell])) for _ in range(k)]
            for cell in cells
        }
        members = []
        for combo in itertools.product(*(range(k) for _ in cells)):
            pick = {cell: vectors[cell][i] for cell, i in zip(cells, combo)}

            def mass_of(atom: str) -> Fraction:
                m = Fraction(1)
                cell = frozenset(self.space.atoms)
                while cell in self.children:
                    parts = self.children[cell]
                    w = pick[cell]
                    at = next(i for i, p in enumerate(parts) if atom in p)
                    m *= w[at]
                    cell = frozenset(parts[at])
                return m

            members.append(
                MassFunction(
                    self.space,
                    tuple(mass_of(a) for a in self.space.atoms),
                )
            )
        return CredalModel(CredalSet(tuple(members)))


def gen_random_tree(
    cfg: FuzzConfig, index: int
) -> tuple[DecisionTree, UncertaintyModel]:
    """The index-th random problem of the config; deterministic in (seed, index)."""
    name, k = cfg.sampler_parts()
    space = PossibilitySpace(tuple(f"w{i + 1}" for i in range(cfg.omega_size)))
    gamble_leaves = name != "factored"  # factored expectations need constant leaves
    for attempt in range(200):
        rng = _rng_for(cfg.seed, index, attempt)
        if name == "hierarchical":
            sampler: _TreeSampler = _HierarchicalSampler(cfg, rng, space, gamble_leaves)
        else:
            sampler = _TreeSampler(cfg, rng, space, gamble_leaves)
        try:
            raw = DecisionTree(space, sampler.build(list(space.atoms), 0)[0])
        except TooManyStrategies:
            continue  # abandoned at the first subtree past the cap
        kinds = {type(node) for node, _ in raw.nodes()}
        if DecisionNode not in kinds:
            continue
        if name == "hierarchical" and ChanceNode not in kinds:
            continue
        tree = validate_tree(raw)
        if name == "joint":
            model: UncertaintyModel = JointModel(
                MassFunction(space, _composition(rng, len(space)))
            )
        elif name == "credal":
            model = CredalModel(
                CredalSet(
                    tuple(
                        MassFunction(space, _composition(rng, len(space)))
                        for _ in range(k)
                    )
                )
            )
        elif name == "factored":
            table = {}
            for node, _ in tree.nodes():
                if isinstance(node, ChanceNode):
                    table[node.node_id] = _composition(rng, len(node.arcs))
            model = FactoredModel(TreeFactoredAssessment(tree, table))
        else:
            model = sampler.credal_model(k)  # type: ignore[union-attr]
        return tree, model
    raise ValueError(
        f"no acceptable random tree for seed {cfg.seed} index {index} in {attempt + 1} attempts"
        f" (max_depth {cfg.max_depth}, max_strategies {cfg.max_strategies})"
    )


# --- harvesting and reduction --------------------------------------------------


def _parents(tree: DecisionTree) -> dict[str, Optional[str]]:
    out: dict[str, Optional[str]] = {tree.root.node_id: None}
    for node, _ in tree.nodes():
        for arc in getattr(node, "arcs", ()):
            out[arc.child.node_id] = node.node_id
    return out


def harvest(
    tree: DecisionTree, failing_node: str
) -> tuple[tuple[Gamble, ...], tuple[Event, ...], bool]:
    """Gather reduction material from a failing tree.

    The pool holds the gambles of all sub-strategies, ordered by relevance:
    the failing node's own options first, then the options at siblings of
    its ancestors (the competitors the theorem's construction uses), then
    everything else.  Events are the path events and their pairwise
    intersections, the failing node's own path event first.  Returns the
    pool, the events and whether either cap (`_POOL_CAP`, `_EVENT_CAP`)
    truncated the material.
    Raises ``UnknownNode`` when *failing_node* is not a node of *tree*.
    """
    parents = _parents(tree)
    if failing_node not in parents:
        raise UnknownNode(f"no node with id {failing_node!r}")
    on_path = set()
    cur: Optional[str] = failing_node
    while cur is not None:
        on_path.add(cur)
        cur = parents[cur]

    table = strategy_table(tree)
    ordered: list[Gamble] = []
    seen: set[tuple] = set()

    def add(node_id: str) -> None:
        """Add the gambles of the strategies of the subtree at *node_id*."""
        scope = tree.scope_of(node_id)
        for values in table[node_id]:
            key = (scope, values)
            if key not in seen:
                seen.add(key)
                ordered.append(Gamble(scope, table.rewards(values)))

    add(failing_node)
    cur = parents[failing_node]
    while cur is not None:
        node = tree.find(cur)
        if isinstance(node, DecisionNode):
            for arc in node.arcs:
                if arc.child.node_id not in on_path:
                    add(arc.child.node_id)
        cur = parents[cur]
    for nid in tree.node_ids():
        add(nid)

    truncated = len(ordered) > _POOL_CAP
    pool = tuple(ordered[:_POOL_CAP])

    path_events: list[Event] = []
    ev_seen: set[frozenset] = set()

    def add_event(e: Event) -> None:
        if e.members and e.members not in ev_seen:
            ev_seen.add(e.members)
            path_events.append(e)

    add_event(tree.scope_of(failing_node))
    for nid in tree.node_ids():
        add_event(tree.scope_of(nid))
    base = list(path_events)
    for e1, e2 in itertools.combinations(base, 2):
        add_event(e1 & e2)

    truncated = truncated or len(path_events) > _EVENT_CAP
    events = tuple(path_events[:_EVENT_CAP])
    return pool, events, truncated


@dataclass(frozen=True, eq=False)
class TreeRecord:
    """Per-tree outcome of one fuzz run."""

    index: int
    node_count: int
    strategy_count: int
    failing_nodes: tuple[str, ...]
    error_nodes: tuple[str, ...]
    nested_decision: Optional[bool] = None
    reduction: Optional[CanonicalReport] = None
    reduction_exhaustive: Optional[bool] = None

    def to_json_dict(self) -> dict:
        out = {
            "index": self.index,
            "nodes": self.node_count,
            "strategies": self.strategy_count,
            "failing_nodes": list(self.failing_nodes),
            "error_nodes": list(self.error_nodes),
        }
        if self.failing_nodes:
            out["nested_decision"] = self.nested_decision
            red = self.reduction
            out["reduction"] = {
                "found": not red.passed,
                "shape": red.shape,
                "failing_nodes": list(red.failing_nodes),
                "instances_examined": red.instances_examined,
                "exhaustive": self.reduction_exhaustive,
            }
        return out


@dataclass(frozen=True, eq=False)
class FuzzReport:
    """Aggregate outcome of a fuzz run; identical configs render identically."""

    choice_kind: str
    config: FuzzConfig
    records: tuple[TreeRecord, ...]
    theorem_inconsistency: tuple[int, ...]

    @property
    def failing(self) -> tuple[TreeRecord, ...]:
        return tuple(r for r in self.records if r.failing_nodes)

    def _reduced_to(self, shape: str) -> int:
        """How many failing trees reduced to a canonical instance of *shape*."""
        return sum(
            1 for r in self.failing
            if r.reduction is not None and not r.reduction.passed and r.reduction.shape == shape
        )

    @property
    def reduced_shape_b(self) -> int:
        return self._reduced_to("b")

    @property
    def reduced_shape_a(self) -> int:
        return self._reduced_to("a")

    @property
    def missed(self) -> int:
        return sum(
            1 for r in self.failing if r.reduction is None or r.reduction.passed
        )

    def to_json_dict(self) -> dict:
        return {
            "choice": self.choice_kind,
            "config": {
                **dataclasses.asdict(self.config),
                "max_branching": _MAX_BRANCHING,
                "reward_range": list(_REWARD_RANGE),
            },
            "trees_run": len(self.records),
            "failing_trees": len(self.failing),
            "error_trees": sum(1 for r in self.records if r.error_nodes),
            "reduced_shape_b": self.reduced_shape_b,
            "reduced_shape_a": self.reduced_shape_a,
            "missed": self.missed,
            "theorem_inconsistency": list(self.theorem_inconsistency),
            "records": [r.to_json_dict() for r in self.records],
        }


def _nested_decision(tree: DecisionTree) -> bool:
    """Is some decision node strictly below another decision node's arc?"""
    parents = _parents(tree)
    decisions = {n.node_id for n, _ in tree.nodes() if isinstance(n, DecisionNode)}
    for nid in decisions:
        up = parents[nid]
        while up is not None and up not in decisions:
            up = parents[up]
        if up is not None:
            return True
    return False


def fuzz_equivalence(
    choice: ChoiceFunction,
    model_sampler: Optional[str],
    cfg: FuzzConfig,
) -> FuzzReport:
    """Scan random trees for perfectness failures and reduce each failure.

    Direction 1 (soundness): a failing tree whose exhaustive reduction finds
    no canonical failure is listed under ``theorem_inconsistency``, because
    the canonical construction is supposed to cover every failure; misses
    under truncated limits are only flagged as misses.
    Direction 2 (witness reduction): for each failing tree the canonical
    checker runs over the tree's own harvested gambles and events, shape (b)
    first, reporting the instance it finds.
    """
    if model_sampler is not None:
        cfg = dataclasses.replace(cfg, model_sampler=model_sampler)
    records = []
    inconsistent = []
    for index in range(cfg.tree_count):
        tree, model = gen_random_tree(cfg, index)
        verdicts = check_subtree_perfect(tree, choice, model)
        fails = tuple(v.node_id for v in verdicts if v.outcome is Outcome.FAIL)
        errors = tuple(v.node_id for v in verdicts if v.outcome is Outcome.ERROR)
        strategies = count_strategies(tree)
        if not fails:
            records.append(
                TreeRecord(index, len(tree.node_ids()), strategies, fails, errors)
            )
            continue
        pool, events, truncated = harvest(tree, fails[0])
        limits = CanonicalLimits(
            shapes=("b", "a"),
            events_a=events,
            events_b=events,
            max_instances=_REDUCTION_BUDGET,
            verify_sample=4,
        )
        report = check_canonical(choice, model, tree.space, pool, limits)
        exhaustive = not truncated and report.instances_total <= _REDUCTION_BUDGET
        if report.passed and exhaustive:
            inconsistent.append(index)
        records.append(
            TreeRecord(
                index,
                len(tree.node_ids()),
                strategies,
                fails,
                errors,
                _nested_decision(tree),
                report,
                exhaustive,
            )
        )
    return FuzzReport(choice.kind, cfg, tuple(records), tuple(inconsistent))
