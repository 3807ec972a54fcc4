import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from credaltrees import (
    DecisionNode,
    DecisionTree,
    DuplicateArcLabel,
    DuplicateNodeId,
    EmptyScope,
    Gamble,
    IncompletePartition,
    Leaf,
    OverlappingEvents,
    PossibilitySpace,
    ScopeMismatch,
    Strategy,
    TooManyStrategies,
    UnknownNode,
    bounded_strategy_count,
    chance,
    count_strategies,
    decision,
    difference_on,
    enumerate_strategies,
    gamble_of,
    kept_arcs,
    kept_children,
    leaf,
    path_event,
    strategy_at,
    strategy_table,
    subtree_at,
    validate_tree,
)
from credaltrees.fuzz import FuzzConfig, gen_random_tree

from conftest import build_eu1, build_lake, example_problems, reference_strategies


def test_space_event_algebra():
    sp = PossibilitySpace(("a", "b", "c"))
    A = sp.event(["a", "b"])
    B = sp.event(["b", "c"])
    assert (A & B).ordered == ("b",)
    assert (A | B).ordered == ("a", "b", "c")
    assert A.complement().ordered == ("c",)
    assert "a" in A and "c" not in A
    assert A <= sp.omega()
    assert sp.empty().is_empty
    assert len(A) == 2


def test_event_order_follows_the_space():
    sp = PossibilitySpace(("a", "b", "c"))
    assert sp.event(["c", "a"]).ordered == ("a", "c")
    assert sp.position("c") == 2


def test_event_rejects_unknown_atoms():
    sp = PossibilitySpace(("a", "b"))
    with pytest.raises(Exception):
        sp.event(["a", "zzz"])


def test_gamble_mapping_and_restriction():
    sp = PossibilitySpace(("a", "b", "c"))
    A = sp.event(["a", "b"])
    g = Gamble.from_mapping(A, {"a": Fraction(1, 2), "b": 2})
    assert dict(g.items()) == {"a": Fraction(1, 2), "b": Fraction(2)}
    assert g.values_on(sp.event(["b"])) == (Fraction(2),)
    r = g.restricted(sp.event(["b"]))
    assert dict(r.items()) == {"b": Fraction(2)}
    assert g.is_numeric


def test_gamble_string_values_are_labels_not_rationals():
    sp = PossibilitySpace(("a",))
    g = Gamble.from_mapping(sp.omega(), {"a": "3/4"})
    assert dict(g.items()) == {"a": "3/4"}
    assert not g.is_numeric


def test_constant_gamble():
    sp = PossibilitySpace(("a", "b"))
    g = Gamble.constant(sp.omega(), Fraction(5))
    assert g.constant_value_on(sp.omega()) == Fraction(5)


def test_difference_on():
    sp = PossibilitySpace(("a", "b"))
    x = Gamble.from_mapping(sp.omega(), {"a": 3, "b": 1})
    y = Gamble.from_mapping(sp.omega(), {"a": 1, "b": 1})
    d = difference_on(x, y, sp.event(["a"]))
    assert dict(d.items()) == {"a": Fraction(2)}


def test_validate_rejects_duplicate_node_ids():
    sp = PossibilitySpace(("a",))
    root = decision("N", [("x", leaf("L", 1)), ("y", leaf("L", 2))])
    with pytest.raises(DuplicateNodeId):
        validate_tree(DecisionTree(sp, root))


def test_validate_rejects_duplicate_decision_arc_labels():
    sp = PossibilitySpace(("a", "b"))
    inner = decision("D", [("two", leaf("L1", 1)), ("two", leaf("L2", 2))])
    root = chance("N", [(sp.event(["a"]), inner), (sp.event(["b"]), leaf("L3", 3))])
    with pytest.raises(DuplicateArcLabel, match="'D'.*'two'"):
        validate_tree(DecisionTree(sp, root))
    # The kept children still tell the two strategies apart.
    first, second = enumerate_strategies(DecisionTree(sp, root))
    assert kept_arcs(first) == kept_arcs(second) == {"D": "two"}
    assert kept_children(first.root) == ("L1",)
    assert kept_children(second.root) == ("L2",)


def test_validate_rejects_incomplete_chance_partition():
    sp = PossibilitySpace(("a", "b"))
    root = chance("N", [(sp.event(["a"]), leaf("L", 1))])
    with pytest.raises(IncompletePartition):
        validate_tree(DecisionTree(sp, root))


def test_validate_rejects_overlapping_chance_events():
    sp = PossibilitySpace(("a", "b"))
    root = chance(
        "N",
        [(sp.event(["a", "b"]), leaf("L1", 1)), (sp.event(["b"]), leaf("L2", 2))],
    )
    with pytest.raises(OverlappingEvents):
        validate_tree(DecisionTree(sp, root))


def test_validate_rejects_empty_scope_and_prunes_on_request():
    sp = PossibilitySpace(("a", "b"))
    # the second arc's event never meets the root scope {a}
    root = chance(
        "N",
        [(sp.event(["a"]), leaf("L1", 1)), (sp.event(["b"]), leaf("L2", 2))],
    )
    tree = DecisionTree(sp, root, sp.event(["a"]))
    with pytest.raises(EmptyScope):
        validate_tree(tree, mode="reject")
    pruned = validate_tree(tree, mode="auto_prune")
    assert [a.child.node_id for a in pruned.root.arcs] == ["L1"]


def test_enumerate_counts_and_order():
    tree, _ = build_eu1()
    strats = enumerate_strategies(tree)
    assert len(strats) == 4
    # lexicographic over kept arc indices: to_N1/d1, to_N1/d2, to_N2/d1, to_N2/d2
    first = strats[0]
    assert isinstance(first, Strategy)
    assert kept_arcs(first) == {"N": "to_N1", "N1": "d1"}
    assert enumerate_strategies(tree) == strats


def test_strategies_keep_exactly_one_arc_per_reachable_decision():
    tree = build_lake()
    strats = enumerate_strategies(tree)
    assert len(strats) == 6
    for s in strats:
        for node, _ in s.nodes():
            if isinstance(node, DecisionNode):
                assert len(node.arcs) == 1


def test_strategy_gambles_cover_the_root_scope():
    tree = build_lake()
    for s in enumerate_strategies(tree):
        g = gamble_of(s)
        assert g.scope.members == tree.root_scope.members


def test_lake_option_strategy_gamble():
    tree = build_lake()
    want = {"s1e1": Fraction(9), "s1e2": Fraction(14), "s2e1": Fraction(4), "s2e2": Fraction(19)}
    gambles = [dict(gamble_of(s).items()) for s in enumerate_strategies(tree)]
    assert want in gambles


def test_path_event_conjunction():
    tree = build_lake()
    assert path_event(tree, "NS1").ordered == ("s1e1", "s1e2")
    assert path_event(tree, "NS1c1a").ordered == ("s1e1",)
    assert path_event(tree, "N1").ordered == tuple(tree.space.atoms)


def test_subtree_extraction_sets_scope():
    tree = build_lake()
    sub = subtree_at(tree, "NS1")
    assert sub.root.node_id == "NS1"
    assert sub.root_scope.ordered == ("s1e1", "s1e2")
    assert len(enumerate_strategies(sub)) == 2


def test_subtree_at_unknown_node():
    tree = build_lake()
    with pytest.raises(UnknownNode):
        subtree_at(tree, "nope")


# --- randomized structural invariants -------------------------------------------


@st.composite
def small_trees(draw):
    atoms = tuple(f"w{i}" for i in range(draw(st.integers(2, 4))))
    sp = PossibilitySpace(atoms)
    counter = [0]

    def fresh() -> str:
        counter[0] += 1
        return f"n{counter[0]}"

    def node(scope, depth):
        kind = draw(st.sampled_from(["leaf", "decision", "chance"])) if depth else "leaf"
        if kind == "leaf" or len(scope) == 1 and kind == "chance":
            return leaf(fresh(), draw(st.integers(-5, 5)))
        if kind == "decision":
            n = draw(st.integers(2, 3))
            return decision(fresh(), [(f"d{i}", node(scope, depth - 1)) for i in range(n)])
        members = list(scope.ordered)
        cut = draw(st.integers(1, len(members) - 1))
        parts = [sp.event(members[:cut]), sp.event(members[cut:])]
        return chance(fresh(), [(ev, node(ev, depth - 1)) for ev in parts])

    return validate_tree(DecisionTree(sp, node(sp.omega(), 3)))


@given(small_trees())
@settings(max_examples=60, deadline=None)
def test_every_strategy_gamble_is_total(tree):
    strats = enumerate_strategies(tree)
    assert strats
    for s in strats:
        g = gamble_of(s)
        assert g.scope.members == tree.root_scope.members


@given(small_trees())
@settings(max_examples=60, deadline=None)
def test_strategy_count_multiplies_over_arcs(tree):
    assert count_strategies(tree) == len(enumerate_strategies(tree))


# --- the strategy table against the recursive enumerator ------------------------


def assert_table_matches_the_reference(tree):
    """Row k of every node holds the gamble of strategy k of the reference
    enumeration of its subtree, and position k decodes to that strategy: to
    its root, and to the reference position of its restriction at every
    node it keeps, in preorder."""
    table = strategy_table(tree)
    assert set(table) == set(tree.node_ids())
    references = {nid: reference_strategies(subtree_at(tree, nid)) for nid in table}
    position = {
        nid: {kept_children(s.root): k for k, s in enumerate(reference)}
        for nid, reference in references.items()
    }
    for nid, reference in references.items():
        node = tree.find(nid)
        assert [table.rewards(row) for row in table[nid]] == [
            gamble_of(s).values for s in reference
        ]
        for k, s in enumerate(reference):
            assert table.variant(node, k) == s.root
            reached = table.reached(node, k)
            assert list(reached.items()) == [
                (n.node_id, position[n.node_id][kept_children(n)]) for n, _ in s.nodes()
            ]
    assert enumerate_strategies(tree) == tuple(references[tree.root.node_id])
    assert [strategy_at(tree, k) for k in range(count_strategies(tree))] == references[
        tree.root.node_id
    ]


@given(
    st.integers(0, 10**6),
    st.sampled_from(("joint", "credal:2", "factored", "hierarchical:2")),
    st.integers(2, 4),
)
@settings(max_examples=60, deadline=None)
def test_strategy_table_matches_the_reference_on_random_trees(seed, sampler, depth):
    cfg = FuzzConfig(seed=seed, tree_count=1, max_depth=depth, model_sampler=sampler)
    tree, _ = gen_random_tree(cfg, 0)
    assert_table_matches_the_reference(tree)


@given(small_trees())
@settings(max_examples=40, deadline=None)
def test_strategy_table_matches_the_reference_on_small_trees(tree):
    assert_table_matches_the_reference(tree)


@pytest.mark.parametrize(
    "tree", [p[1] for p in example_problems()], ids=[p[0] for p in example_problems()]
)
def test_strategy_table_matches_the_reference_on_the_examples(tree):
    assert_table_matches_the_reference(tree)


def test_strategy_table_reads_overlapping_arcs_like_gamble_of():
    # Unvalidated: both arcs cover "b"; gamble_of keeps the later arc's reward.
    sp = PossibilitySpace(("a", "b", "c"))
    root = chance(
        "N",
        [
            (sp.event(["b", "c"]), decision("D", [("x", leaf("L1", 1)), ("y", leaf("L2", 2))])),
            (sp.event(["a", "b"]), leaf("L3", 3)),
        ],
    )
    tree = DecisionTree(sp, root)
    rows = strategy_table(tree)["N"]
    assert rows == [gamble_of(s).values for s in reference_strategies(tree)]
    assert rows == [(Fraction(3), Fraction(3), Fraction(1)), (Fraction(3), Fraction(3), Fraction(2))]


def test_bounded_strategy_count_refuses_without_enumerating():
    # 20 independent three-way choices: 3**20 strategies, far too many to list
    sp = PossibilitySpace(tuple(f"w{i}" for i in range(20)))
    root = chance(
        "N",
        [
            (sp.event([a]), decision(f"D{a}", [(x, leaf(f"L{a}{x}", i)) for i, x in enumerate("xyz")]))
            for a in sp.atoms
        ],
    )
    tree = validate_tree(DecisionTree(sp, root))
    assert bounded_strategy_count(tree, 3**20) == 3**20
    with pytest.raises(TooManyStrategies, match=f"{3**20} strategies, more than the limit of 1000"):
        bounded_strategy_count(tree, 1000)


def go_stop_chain(depth):
    """An unvalidated chain of *depth* decision nodes D0, D1, ...: each
    stops at a leaf or goes on to the next, and the last goes on to a leaf."""
    sp = PossibilitySpace(("w",))
    node = leaf("end", 0)
    for i in reversed(range(depth)):
        node = decision(f"D{i}", [("stop", leaf(f"S{i}", i)), ("go", node)])
    return DecisionTree(sp, node)


def test_a_2000_deep_chain_built_through_the_api_is_walked_without_recursion():
    tree = go_stop_chain(2000)
    ids = tree.node_ids()
    assert len(ids) == 4001 and ids[:3] == ("D0", "S0", "D1")
    assert count_strategies(tree) == 2001
    table = strategy_table(tree)
    assert len(table["D0"]) == 2001
    assert table["D0"][:3] == [(0,), (1,), (2,)]
    arcs = kept_arcs(strategy_at(tree, 5))
    assert arcs == {**{f"D{i}": "go" for i in range(5)}, "D5": "stop"}


def test_gamble_of_walks_a_2000_deep_strategy_without_recursion():
    sp = PossibilitySpace(("w",))
    node = leaf("end", 1)
    for i in reversed(range(2000)):
        node = decision(f"D{i}", [("go", node)])
    assert gamble_of(Strategy(sp, node)).values == (1,)


def test_gamble_of_reports_the_first_fault_in_preorder():
    sp = PossibilitySpace(("a", "b"))
    a, b = sp.event(["a"]), sp.event(["b"])
    two = decision("D", [("x", leaf("X", 0)), ("y", leaf("Y", 1))])
    cases = [
        (chance("R", [(a, two), (b, object())]), ValueError),
        (chance("R", [(a, object()), (b, two)]), TypeError),
        (chance("R", [(a, leaf("L", 1))]), ScopeMismatch),
    ]
    for root, error in cases:
        with pytest.raises(Exception) as raised:
            gamble_of(DecisionTree(sp, root))
        assert raised.type is error


def test_duplicate_node_ids_raise_without_validation():
    sp = PossibilitySpace(("w",))
    tree = DecisionTree(sp, decision("D", [("a", leaf("L", 0)), ("b", leaf("L", 1))]))
    for walk in (DecisionTree.node_ids, count_strategies, strategy_table, enumerate_strategies):
        with pytest.raises(DuplicateNodeId, match="'L' occurs twice"):
            walk(tree)


FRESH_IMPORT = """
import gc, importlib, sys, weakref
import credaltrees, credaltrees.cli
old = [weakref.ref(c) for c in (
    credaltrees.DecisionNode, credaltrees.CredalModel, credaltrees.ChoiceFunction
)]
for name in [m for m in sys.modules if m.split(".")[0] == "credaltrees"]:
    del sys.modules[name]
del credaltrees
importlib.import_module("credaltrees.cli")
gc.collect()
sys.exit(sum(ref() is not None for ref in old))
"""


def test_a_fresh_import_lets_the_previous_one_go():
    # Importing the package again must not keep the old copy alive, as a
    # cached typing alias over its classes would.
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-B", "-c", FRESH_IMPORT], env=env, timeout=60)
    assert done.returncode == 0
