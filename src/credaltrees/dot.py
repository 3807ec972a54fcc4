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
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _node_label(node: Node) -> str:
    if isinstance(node, Leaf):
        return f"{node.node_id}\\n{node.reward}"
    if isinstance(node, GambleLeaf):
        cells = ", ".join(f"{a}: {v}" for a, v in node.gamble.items())
        return f"{node.node_id}\\n{cells}"
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
    strategy must use the same node ids as the tree.
    """
    kept = {} if strategy is None else kept_arcs(strategy)

    lines = ["digraph decision_tree {", "  rankdir=LR;"]

    def emit(node: Node) -> None:
        lines.append(
            f"  {_quote(node.node_id)} [shape={_shape(node)},"
            f" label={_quote(_node_label(node))}];"
        )
        if isinstance(node, DecisionNode):
            for arc in node.arcs:
                style = ""
                label = arc.label
                if node.node_id in kept and arc.label != kept[node.node_id]:
                    style = ", style=dashed"
                    label += "∥"
                lines.append(
                    f"  {_quote(node.node_id)} -> {_quote(arc.child.node_id)}"
                    f" [label={_quote(label)}{style}];"
                )
                emit(arc.child)
        elif isinstance(node, ChanceNode):
            for arc in node.arcs:
                label = "{" + ",".join(arc.event.ordered) + "}"
                lines.append(
                    f"  {_quote(node.node_id)} -> {_quote(arc.child.node_id)}"
                    f" [label={_quote(label)}];"
                )
                emit(arc.child)

    emit(tree.root)
    lines.append("}")
    return "\n".join(lines) + "\n"
