"""JSON problem and model files, parsed to exact rationals.

Decimal literals in the files never pass through binary floating point:
``loads`` hands the raw literal text to `rational_from`, so ``0.6`` means
exactly 3/5.  Rationals may also be written as strings like ``"3/4"``.
On output, integral values render as JSON numbers and everything else as
a ``"p/q"`` string.

A problem file looks like::

    {
      "atoms": ["w1", "w2", "w3"],
      "events": {"A": ["w1", "w2"]},
      "root_scope": ["w1", "w2", "w3"],
      "tree": {
        "id": "N", "kind": "decision",
        "arcs": [
          {"label": "go", "child": {"id": "C", "kind": "chance", "arcs": [
            {"event": "A", "child": {"id": "L1", "kind": "leaf", "reward": 1}},
            {"event": ["w3"], "child": {"id": "L2", "kind": "leaf", "reward": "1/2"}}
          ]}},
          {"label": "stop", "child": {"id": "G", "kind": "gamble",
                                      "gamble": {"w1": 0, "w2": 0, "w3": 2}}}
        ]
      }
    }

Rewards are numbers, rational strings, or ``{"label": "name"}`` for trees
judged under utility function sets.  ``events`` and ``root_scope`` are
optional.  A model file carries a ``mode`` key; see ``parse_model``.
"""

from __future__ import annotations

import itertools
import json
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence, Union

from .errors import CredalTreeError, FileFormatError
from .trees import (
    ChanceArc,
    ChanceNode,
    DecisionArc,
    DecisionNode,
    DecisionTree,
    Event,
    Gamble,
    GambleLeaf,
    Leaf,
    Node,
    PossibilitySpace,
    Reward,
    _digit_limit,
    _parse_rational,
)
from .uncertainty import (
    CredalModel,
    CredalSet,
    FactoredModel,
    JointModel,
    MassFunction,
    TreeFactoredAssessment,
    UncertaintyModel,
    UtilityFunctionSet,
    UtilityModel,
)


#: the deepest JSON nesting `load_json` decodes (a 319-deep chain): the decoder
#: recurses once per level, and 3.10 and 3.11 bound that a little deeper
_MAX_DEPTH = 960
#: a string (one left open runs to the end, so the scan is linear) or a bracket
_STRING_OR_BRACKET = re.compile(r'"[^"\\]*(?:\\.[^"\\]*)*(?:"|\\?\Z)|[][{}]', re.S)
_DEPTH_STEP = {"[": 1, "{": 1, "]": -1, "}": -1}


def load_json(text: str):
    """Parse JSON with decimal literals kept exact.  Refuses a document
    nested deeper than `_MAX_DEPTH`, counted outside strings, one the decoder
    runs out of stack on, an integer past the digit limit and a repeated key."""
    if text.count("[") + text.count("{") > _MAX_DEPTH:
        steps = (_DEPTH_STEP.get(token, 0) for token in _STRING_OR_BRACKET.findall(text))
        if max(itertools.accumulate(steps)) > _MAX_DEPTH:
            raise FileFormatError(f"input nested too deeply: more than {_MAX_DEPTH} levels")
    try:
        return json.loads(
            text,
            parse_float=lambda literal: rational_from(literal, "JSON number"),
            parse_int=_parse_int,
            parse_constant=_reject_constant,
            object_pairs_hook=_unique_keys,
        )
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"not valid JSON: {exc}") from None
    except RecursionError:
        # 3.10 and 3.11 decode on the caller's stack: called from deep in it,
        # a document below `_MAX_DEPTH` can still run out of frames
        raise FileFormatError("input nested too deeply for the stack it is read on") from None


def _parse_int(literal: str) -> int:
    """A JSON integer, refused past `_digit_limit` as `_parse_rational` refuses a decimal."""
    digits, limit = len(literal.lstrip("-")), _digit_limit()
    if digits > limit:
        raise FileFormatError(f"JSON number: {digits} digits, past the {limit}-digit limit")
    return int(literal)


def _unique_keys(pairs: list) -> dict:
    doc = dict(pairs)
    if len(doc) < len(pairs):
        seen = set()
        twice = next(k for k, _ in pairs if k in seen or seen.add(k))
        raise FileFormatError(f"JSON object names {twice!r} twice")
    return doc


def _reject_constant(name: str):
    raise FileFormatError(f"{name} is not a usable value")


def rational_from(value, where: str) -> Fraction:
    if isinstance(value, bool):
        raise FileFormatError(f"{where}: booleans are not numbers")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return _parse_rational(value)
        except ValueError as exc:
            raise FileFormatError(f"{where}: {exc}; write 3, \"3/4\" or 0.75") from None
    raise FileFormatError(f"{where}: expected a rational, got {type(value).__name__}")


def render_rational(value: Fraction) -> Union[int, str]:
    if value.denominator == 1:
        return int(value)
    return str(value)


def _reward_from(value, where: str) -> Reward:
    if isinstance(value, dict):
        if set(value) != {"label"} or not isinstance(value["label"], str):
            raise FileFormatError(f'{where}: label rewards look like {{"label": "r1"}}')
        return value["label"]
    return rational_from(value, where)


def render_reward(reward: Reward):
    if isinstance(reward, str):
        return {"label": reward}
    return render_rational(reward)


@dataclass(frozen=True)
class ParsedProblem:
    """A tree plus the named events its file declared."""

    tree: DecisionTree
    events: Mapping[str, Event]

    @property
    def space(self) -> PossibilitySpace:
        return self.tree.space


def _require(doc: dict, key: str, where: str):
    if not isinstance(doc, dict) or key not in doc:
        raise FileFormatError(f"{where}: missing {key!r}")
    return doc[key]


def _refuse_unknown(doc: dict, known: Sequence[str], where: str) -> None:
    """Fail closed: a key the format does not define, misspelt or not, is an error."""
    extra = doc.keys() - known
    if extra:
        raise FileFormatError(f"{where}: unknown keys {sorted(extra)}")


#: besides "id" and "kind", the key of each node kind; and a model's keys by mode
_NODE_BODY = {"leaf": "reward", "gamble": "gamble", "decision": "arcs", "chance": "arcs"}
_MODEL_KEYS = {"joint": ("mass",), "credal": ("members",), "factored": ("arcs",),
               "utilities": ("functions", "chance")}


def event_from(value, space: PossibilitySpace, named: Mapping[str, Event], where: str) -> Event:
    if isinstance(value, str):
        if value not in named:
            raise FileFormatError(f"{where}: no event named {value!r}")
        return named[value]
    if isinstance(value, list):
        for a in value:
            if not isinstance(a, str) or a not in space:
                raise FileFormatError(f"{where}: {a!r} is not an atom of the space")
        return space.event(value)
    raise FileFormatError(f"{where}: events are atom lists or names")


def _node_from(doc, space: PossibilitySpace, named: Mapping[str, Event]) -> Node:
    # The document is read in preorder from a stack, as `trees._walk` walks a
    # tree, so deep chains need no recursion and the first error in document
    # order is the one raised: each arc's label or event is read just before
    # its child.  The nodes are then built children first.
    read: list = []  # in preorder: each leaf, and each inner node's (kind, id, arc heads)
    stack: list = [(doc, None, 0)]
    while stack:
        doc, inner, i = stack.pop()
        if inner is not None:
            # arc i of an inner node: its label or event, then its child
            kind, nid, heads = inner
            where = f"node {nid!r} arc {i}"
            _refuse_unknown(doc, ("label" if kind == "decision" else "event", "child"), where)
            if kind == "decision":
                label = _require(doc, "label", where)
                if not isinstance(label, str):
                    raise FileFormatError(f"{where}: labels are strings")
                heads.append(label)
            else:
                heads.append(event_from(_require(doc, "event", where), space, named, where))
            stack.append((_require(doc, "child", where), None, 0))
            continue
        if not isinstance(doc, dict):
            raise FileFormatError("tree nodes must be JSON objects")
        nid = _require(doc, "id", "tree node")
        if not isinstance(nid, str):
            raise FileFormatError("node ids must be strings")
        kind = _require(doc, "kind", f"node {nid!r}")
        where = f"node {nid!r}"
        if isinstance(kind, str) and kind in _NODE_BODY:
            _refuse_unknown(doc, ("id", "kind", _NODE_BODY[kind]), where)
        if kind == "leaf":
            read.append(Leaf(nid, _reward_from(_require(doc, "reward", where), where)))
        elif kind == "gamble":
            table = _require(doc, "gamble", where)
            if not isinstance(table, dict) or not table:
                raise FileFormatError(f"{where}: gamble must map atoms to rewards")
            scope = event_from(sorted(table, key=_atom_key(space, where)), space, named, where)
            values = tuple(_reward_from(table[a], f"{where} atom {a!r}") for a in scope.ordered)
            read.append(GambleLeaf(nid, Gamble(scope, values)))
        elif kind in ("decision", "chance"):
            arcs = _arcs_of(doc, where)
            inner = (kind, nid, [])
            read.append(inner)
            stack += [(arc, inner, i) for i, arc in enumerate(arcs)][::-1]
        else:
            raise FileFormatError(f"{where}: unknown kind {kind!r}")
    built: list[Node] = []
    for item in reversed(read):
        if isinstance(item, tuple):
            kind, nid, heads = item
            children = [built.pop() for _ in heads]  # the first arc's is on top
            if kind == "decision":
                item = DecisionNode(nid, tuple(map(DecisionArc, heads, children)))
            else:
                item = ChanceNode(nid, tuple(map(ChanceArc, heads, children)))
        built.append(item)
    return built[0]


def _atom_key(space: PossibilitySpace, where: str):
    def key(atom: str) -> int:
        if atom not in space:
            raise FileFormatError(f"{where}: {atom!r} is not an atom of the space")
        return space.position(atom)

    return key


def _arcs_of(doc: dict, where: str) -> list:
    arcs = _require(doc, "arcs", where)
    if not isinstance(arcs, list) or not arcs:
        raise FileFormatError(f"{where}: arcs must be a nonempty list")
    for arc in arcs:
        if not isinstance(arc, dict):
            raise FileFormatError(f"{where}: each arc is a JSON object")
    return arcs


def parse_problem(doc) -> ParsedProblem:
    """Build the tree a problem document describes.  Structural validation
    (partitions, scopes, reward kinds) is left to ``validate_tree`` so the
    caller controls the empty-scope policy."""
    atoms = _require(doc, "atoms", "problem")
    if (
        not isinstance(atoms, list)
        or not atoms
        or not all(isinstance(a, str) for a in atoms)
    ):
        raise FileFormatError("problem: atoms must be a nonempty list of strings")
    if len(set(atoms)) != len(atoms):
        raise FileFormatError("problem: atoms must be distinct")
    space = PossibilitySpace(atoms)
    events = doc.get("events", {})
    if not isinstance(events, dict):
        raise FileFormatError("problem: events must map names to atom lists")
    named: dict[str, Event] = {}
    for name, value in events.items():
        if not isinstance(value, list):
            raise FileFormatError(f"event {name!r}: named events are atom lists")
        named[name] = event_from(value, space, {}, f"event {name!r}")
    root = _node_from(_require(doc, "tree", "problem"), space, named)
    scope = None
    if "root_scope" in doc:
        scope = event_from(doc["root_scope"], space, named, "root_scope")
    _refuse_unknown(doc, ("atoms", "events", "root_scope", "tree"), "problem")
    return ParsedProblem(DecisionTree(space, root, scope), named)


def serialize_problem(problem: ParsedProblem) -> dict:
    tree = problem.tree

    # each node's document, built children first from the tree's node index
    # (which refuses a repeated node id), so deep chains need no recursion
    docs: dict[str, dict] = {}
    for node, _ in reversed(tree.nodes()):
        out = docs[node.node_id] = {"id": node.node_id}
        if isinstance(node, Leaf):
            out.update(kind="leaf", reward=render_reward(node.reward))
        elif isinstance(node, GambleLeaf):
            gamble = {a: render_reward(v) for a, v in node.gamble.items()}
            out.update(kind="gamble", gamble=gamble)
        elif isinstance(node, DecisionNode):
            arcs = [{"label": a.label, "child": docs[a.child.node_id]} for a in node.arcs]
            out.update(kind="decision", arcs=arcs)
        else:
            arcs = [
                {"event": list(a.event.ordered), "child": docs[a.child.node_id]}
                for a in node.arcs
            ]
            out.update(kind="chance", arcs=arcs)

    doc = {"atoms": list(tree.space.atoms), "tree": docs[tree.root.node_id]}
    if problem.events:
        doc["events"] = {
            name: list(ev.ordered) for name, ev in sorted(problem.events.items())
        }
    if tree.root_scope.members != tree.space.omega().members:
        doc["root_scope"] = list(tree.root_scope.ordered)
    return doc


def _mass_table(doc, space: PossibilitySpace, where: str) -> MassFunction:
    if not isinstance(doc, dict):
        raise FileFormatError(f"{where}: expected an atom-to-mass object")
    extra = set(doc) - set(space.atoms)
    if extra:
        raise FileFormatError(f"{where}: unknown atoms {sorted(extra)}")
    missing = [a for a in space.atoms if a not in doc]
    if missing:
        raise FileFormatError(f"{where}: missing atoms {missing}")
    try:
        return MassFunction(
            space, tuple(rational_from(doc[a], f"{where} atom {a!r}") for a in space.atoms)
        )
    except ValueError as exc:
        raise FileFormatError(f"{where}: {exc}") from None


def parse_model(
    doc,
    space: PossibilitySpace,
    tree: Optional[DecisionTree] = None,
    pruned: Optional[Mapping[str, Sequence[int]]] = None,
) -> UncertaintyModel:
    """Build the uncertainty model a model document describes.

    Modes: ``joint`` with ``mass``; ``credal`` with ``members`` (a list of
    mass tables); ``factored`` with ``arcs`` mapping chance node ids to
    per-arc probability lists, which needs *tree*; ``utilities`` with
    ``functions`` (label tables) and an optional nested ``chance`` model.

    *pruned* gives, by chance node id, the positions in the problem file of
    the arcs that validation pruned from *tree*.  A factored list may cover
    every arc of the file or only the arcs kept; in the first form the
    pruned arcs' entries must be 0, since their events miss the node's
    scope, and are dropped.
    """
    mode = _require(doc, "mode", "model")
    if isinstance(mode, str) and mode in _MODEL_KEYS:
        _refuse_unknown(doc, ("mode", *_MODEL_KEYS[mode]), "model")
    if mode == "joint":
        return JointModel(_mass_table(_require(doc, "mass", "model"), space, "mass"))
    if mode == "credal":
        members = _require(doc, "members", "model")
        if not isinstance(members, list) or not members:
            raise FileFormatError("model: members must be a nonempty list")
        return CredalModel(
            CredalSet(
                tuple(
                    _mass_table(m, space, f"member {i}") for i, m in enumerate(members)
                )
            )
        )
    if mode == "factored":
        if tree is None:
            raise FileFormatError("model: factored models need the tree")
        arcs = _require(doc, "arcs", "model")
        if not isinstance(arcs, dict):
            raise FileFormatError("model: arcs maps chance node ids to lists")
        table = {}
        for nid, row in arcs.items():
            if not isinstance(row, list):
                raise FileFormatError(f"model: arcs[{nid!r}] must be a list")
            probs = tuple(
                rational_from(v, f"arcs[{nid!r}][{i}]") for i, v in enumerate(row)
            )
            gone = pruned.get(nid, ()) if pruned else ()
            if gone and len(probs) == len(tree.find(nid).arcs) + len(gone):
                for i in gone:
                    if probs[i] != 0:
                        raise FileFormatError(
                            f"model: arcs[{nid!r}][{i}] is {probs[i]}, but arc {i} of"
                            f" chance node {nid!r} was pruned because its event"
                            " misses the node's scope; its probability must be 0"
                        )
                probs = tuple(p for i, p in enumerate(probs) if i not in gone)
            table[nid] = probs
        try:
            return FactoredModel(TreeFactoredAssessment(tree, table))
        except (ValueError, CredalTreeError) as exc:
            raise FileFormatError(f"model: {exc}") from None
    if mode == "utilities":
        functions = _require(doc, "functions", "model")
        if not isinstance(functions, list) or not functions:
            raise FileFormatError("model: functions must be a nonempty list")
        tables = []
        for i, table in enumerate(functions):
            if not isinstance(table, dict) or not table:
                raise FileFormatError(f"model: function {i} must map labels to values")
            tables.append(
                {
                    label: rational_from(v, f"function {i} label {label!r}")
                    for label, v in table.items()
                }
            )
        chance_model = None
        if doc.get("chance") is not None:
            inner = parse_model(doc["chance"], space, tree, pruned)
            if not isinstance(inner, (JointModel, FactoredModel)):
                raise FileFormatError(
                    "model: the chance part of a utilities model is joint or factored"
                )
            chance_model = inner
        return UtilityModel(UtilityFunctionSet.from_tables(tables), chance_model)
    raise FileFormatError(f"model: unknown mode {mode!r}")


def serialize_model(model: UncertaintyModel) -> dict:
    def table(p: MassFunction) -> dict:
        return {a: render_rational(p.mass(a)) for a in p.space.atoms}

    if isinstance(model, JointModel):
        return {"mode": "joint", "mass": table(model.p)}
    if isinstance(model, CredalModel):
        return {
            "mode": "credal",
            "members": [table(p) for p in model.credal.members],
        }
    if isinstance(model, FactoredModel):
        return {
            "mode": "factored",
            "arcs": {
                nid: [render_rational(v) for v in row]
                for nid, row in sorted(model.assessment.arc_probs.items())
            },
        }
    if isinstance(model, UtilityModel):
        doc = {
            "mode": "utilities",
            "functions": [
                {label: render_rational(v) for label, v in sorted(t.items())}
                for t in model.utilities.functions
            ],
        }
        if model.chance is not None:
            doc["chance"] = serialize_model(model.chance)
        return doc
    raise TypeError(f"cannot serialize {type(model).__name__}")


def dumps_structured(obj) -> str:
    """Canonical JSON rendering used by the command line's structured mode."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"
