"""Graphviz rendering of trees and strategies."""

from __future__ import annotations

from typing import Optional

from .trees import (
    ChanceNode,
    DecisionNode,
    DecisionTree,
    GambleLeaf,
    Leaf,
    Node,
    Strategy,
    kept_arcs,
)


def _quote(text: str) -> str:
    """*text* as a DOT string: backslashes and quotes escaped, and each line
    break written as DOT's ``\\n``."""
    escaped = text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    return '"' + escaped + '"'


def _node_label(node: Node) -> str:
    if isinstance(node, Leaf):
        return f"{node.node_id}\n{node.reward}"
    if isinstance(node, GambleLeaf):
        cells = ", ".join(f"{a}: {v}" for a, v in node.gamble.items())
        return f"{node.node_id}\n{cells}"
    return node.node_id


def _shape(node: Node) -> str:
    if isinstance(node, DecisionNode):
        return "box"
    if isinstance(node, ChanceNode):
        return "ellipse"
    return "plaintext"


def export_dot(tree: DecisionTree, strategy: Optional[Strategy] = None) -> str:
    """A deterministic dot document for the tree.

    With a strategy, each decision arc the strategy discards is drawn
    dashed, so the kept plan stands out against the full tree.  The
    strategy must use the same node ids as the tree.  A repeated node id
    raises `DuplicateNodeId`, as the tree's node index refuses it.
    """
    kept = {} if strategy is None else kept_arcs(strategy)

    lines = ["digraph decision_tree {", "  rankdir=LR;"]
    into: dict[str, tuple] = {}  # a child's id -> (its parent, the arc into it)
    for node, _ in tree.nodes():
        if node is not tree.root:
            parent, arc = into.pop(node.node_id)
            if isinstance(parent, ChanceNode):
                label, style = "{" + ",".join(arc.event.ordered) + "}", ""
            elif kept.get(parent.node_id, arc.label) == arc.label:
                label, style = arc.label, ""
            else:
                label, style = arc.label + "∥", ", style=dashed"
            lines.append(
                f"  {_quote(parent.node_id)} -> {_quote(node.node_id)}"
                f" [label={_quote(label)}{style}];"
            )
        lines.append(
            f"  {_quote(node.node_id)} [shape={_shape(node)},"
            f" label={_quote(_node_label(node))}];"
        )
        if isinstance(node, (DecisionNode, ChanceNode)):
            into.update((arc.child.node_id, (node, arc)) for arc in node.arcs)

    lines.append("}")
    return "\n".join(lines) + "\n"
