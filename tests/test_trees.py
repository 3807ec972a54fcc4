import operator
import os
import pickle
from collections import Counter
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from credaltrees import (
    ChanceNode,
    ChoiceFunction,
    DecisionNode,
    DecisionTree,
    DuplicateArcLabel,
    DuplicateNodeId,
    EmptyScope,
    Gamble,
    GambleLeaf,
    IncompletePartition,
    JointModel,
    Leaf,
    MassFunction,
    OverlappingEvents,
    PossibilitySpace,
    ScopeMismatch,
    Strategy,
    TooManyStrategies,
    UnknownNode,
    all_hold,
    bounded_strategy_count,
    chance,
    check_subtree_perfect,
    count_strategies,
    decision,
    enumerate_strategies,
    gamble_of,
    kept_arcs,
    kept_children,
    leaf,
    strategy_at,
    strategy_table,
    subtree_at,
    validate_tree,
)
from credaltrees.cli import render_strategy
from credaltrees.dot import export_dot
from credaltrees import solver, trees
from credaltrees.formats import ParsedProblem, parse_problem, serialize_problem
from credaltrees.fuzz import FuzzConfig, gen_random_tree
from credaltrees.trees import Decoder

from conftest import (
    build_alternating,
    build_eu1,
    build_lake,
    example_problems,
    reference_strategies,
)


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


def test_events_combine_over_equal_spaces_only():
    # one space object, an equal copy of it, and a different space
    sp = PossibilitySpace(("a", "b"))
    A, B = sp.event(["a"]), PossibilitySpace(("a", "b")).event(["b"])
    assert (A | B).ordered == ("a", "b") and (A & B).is_empty and A <= A | B
    other = PossibilitySpace(("a", "c")).event(["a"])
    for combine in (operator.and_, operator.or_, operator.le):
        with pytest.raises(ValueError, match="different possibility spaces"):
            combine(A, other)


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


def _spy_on_inner_nodes(monkeypatch):
    """The ids of the decision and chance nodes built from now on."""
    built = []
    for cls in (DecisionNode, ChanceNode):

        def spy(self, node_id, arcs, real=cls.__init__):
            built.append(node_id)
            real(self, node_id, arcs)

        monkeypatch.setattr(cls, "__init__", spy)
    return built


@pytest.mark.parametrize("mode", ["reject", "auto_prune"])
def test_validate_tree_returns_its_argument_when_it_prunes_nothing(monkeypatch, mode):
    # Nothing is rebuilt: the tree given is the tree returned, with the node
    # index it was validated on.
    trees_given = [t for _, t, _ in example_problems()] + [go_stop_chain(2000)]
    sp = PossibilitySpace(("a", "b"))
    a, b = sp.event(["a"]), sp.event(["b"])
    tree = DecisionTree(sp, chance("N", [(a, leaf("L1", 1)), (b, leaf("L2", 2))]), a)
    built = _spy_on_inner_nodes(monkeypatch)
    for given_tree in trees_given:
        assert validate_tree(given_tree, mode) is given_tree
    assert built == []
    # the spy sees the rebuild of a tree that auto_prune deletes an arc of
    pruned = validate_tree(tree, "auto_prune")
    assert pruned is not tree and built == ["N"]
    assert validate_tree(pruned, "auto_prune") is pruned


def test_auto_prune_refuses_a_repeated_id_below_a_deleted_arc():
    # The node index holds every node, those below a deleted arc as well.
    sp = PossibilitySpace(("a", "b"))
    a, b = sp.event(["a"]), sp.event(["b"])
    below = decision("D", [("x", leaf("L1", 1)), ("y", leaf("L3", 3))])
    tree = DecisionTree(sp, chance("N", [(a, leaf("L1", 1)), (b, below)]), a)
    for mode in ("reject", "auto_prune"):
        with pytest.raises(DuplicateNodeId, match="node id 'L1' occurs twice"):
            validate_tree(tree, mode)


def test_enumerate_counts_and_order():
    tree, _ = build_eu1()
    strats = enumerate_strategies(tree)
    assert len(strats) == 4
    # lexicographic over kept arc indices: to_N1/d1, to_N1/d2, to_N2/d1, to_N2/d2
    first = strats[0]
    assert isinstance(first, Strategy)
    assert kept_arcs(first) == {"N": "to_N1", "N1": "d1"}
    assert enumerate_strategies(tree) == strats


def test_enumerated_strategies_share_the_nodes_of_each_variant():
    # The decoder builds each variant of each node once, from its
    # children's variants, and every variant appears in some strategy.
    tree, _ = build_alternating(seed=23)
    table = strategy_table(tree)
    objects: dict = {}
    for s in enumerate_strategies(tree):
        for node, _ in s.nodes():
            objects.setdefault((node.node_id, kept_children(node)), set()).add(id(node))
    assert all(len(ids) == 1 for ids in objects.values())
    assert len(objects) == sum(map(len, table.values()))


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
    # a node's scope is the event known to obtain when it is reached
    assert tree.scope_of("NS1").ordered == ("s1e1", "s1e2")
    assert tree.scope_of("NS1c1a").ordered == ("s1e1",)
    assert tree.scope_of("N1").ordered == tuple(tree.space.atoms)


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
    its root, and, through the verdict reader's reach walk, to the
    reference position of its restriction at every node it keeps, and at
    no other node."""
    table = strategy_table(tree)
    decode = Decoder(tree)
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
            assert decode.node(node, k) == s.root
            reached = solver._reached_positions(tree, node, [k])
            kept = {n.node_id: position[n.node_id][kept_children(n)] for n, _ in s.nodes()}
            assert reached.keys() == kept.keys()
            for nid, at in kept.items():
                assert list(reached[nid]) == [at], nid
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


def test_a_tree_pickles_with_its_node_plan():
    # The node plan is cached on the tree, so it must pickle with it: here
    # with the merge plan of a one-atom chance node whose arcs overlap.
    sp = PossibilitySpace(("a", "b"))
    a = sp.event(["a"])
    tree = DecisionTree(sp, chance("C", [(a, leaf("L1", 1)), (a, leaf("L2", 2))]), a)
    assert strategy_table(tree)["C"] == [(Fraction(2),)]
    back = pickle.loads(pickle.dumps(tree))
    assert back == tree
    assert strategy_table(back)["C"] == [(Fraction(2),)]


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


def test_a_2000_deep_chain_is_decoded_and_checked_without_recursion():
    # Going on at every level decodes 2000 nested decision nodes, and the
    # one eu and maximin solution goes on to D1999 and stops there.
    tree = validate_tree(go_stop_chain(2000))
    assert kept_arcs(strategy_at(tree, 2000)) == {f"D{i}": "go" for i in range(2000)}
    best = {**{f"D{i}": "go" for i in range(1999)}, "D1999": "stop"}
    model = JointModel(MassFunction(tree.space, (Fraction(1),)))
    for kind in ("eu", "maximin"):
        verdicts = check_subtree_perfect(tree, ChoiceFunction(kind), model)
        assert all_hold(verdicts), kind
        root = verdicts[0]
        assert [kept_arcs(s) for s in root.local_solution] == [best], kind
        assert root.restricted_solution == root.local_solution, kind


def test_checking_a_go_stop_chain_takes_work_linear_in_its_depth(monkeypatch):
    # Counted, not timed.  Every verdict returns a strategy as deep as the
    # rest of the chain, so walking each one again (`trees._decisions`, which
    # `Strategy`'s check runs) made the check quadratic in the depth; the
    # decode steps (`trees._step`) of the reach walk and the decoder stay
    # linear.
    calls = Counter()
    decisions, step = trees._decisions, trees._step

    def visiting(node):
        for n in decisions(node):
            calls["_decisions"] += 1
            yield n

    def stepping(*args):
        calls["_step"] += 1
        return step(*args)

    monkeypatch.setattr(trees, "_decisions", visiting)
    monkeypatch.setattr(trees, "_step", stepping)
    monkeypatch.setattr(solver, "_step", stepping)
    for kind in ("eu", "maximin"):
        steps = {}
        for depth in (2000, 8000):
            tree = validate_tree(go_stop_chain(depth))
            model = JointModel(MassFunction(tree.space, (Fraction(1),)))
            calls.clear()
            verdicts = check_subtree_perfect(tree, ChoiceFunction(kind), model)
            assert calls["_decisions"] == 0, kind
            assert all_hold(verdicts) and len(verdicts) == 2 * depth + 1, kind
            steps[depth] = calls["_step"]
        assert steps[8000] <= 4 * steps[2000], (kind, steps)

    tree = validate_tree(go_stop_chain(20_000))
    model = JointModel(MassFunction(tree.space, (Fraction(1),)))
    best = {**{f"D{i}": "go" for i in range(19_999)}, "D19999": "stop"}
    for kind in ("eu", "maximin"):
        verdicts = check_subtree_perfect(tree, ChoiceFunction(kind), model)
        assert all_hold(verdicts), kind
        assert [kept_arcs(s) for s in verdicts[0].local_solution] == [best], kind


@pytest.mark.parametrize("mode", ["reject", "auto_prune"])
def test_validate_tree_walks_a_2000_deep_chain_without_recursion(mode):
    # Under auto_prune the chain hangs below a chance node whose second arc
    # misses the root scope: that arc goes, and the chain is rebuilt whole.
    sp = PossibilitySpace(("w", "v"))
    w, v = sp.event(["w"]), sp.event(["v"])
    chain = go_stop_chain(2000)
    root = chain.root
    if mode == "auto_prune":
        root = chance("C", [(w, root), (v, leaf("V", 0))])
    valid = validate_tree(DecisionTree(sp, root, w), mode)
    assert count_strategies(valid) == 2001
    above = ("C",) if mode == "auto_prune" else ()
    assert valid.node_ids() == above + chain.node_ids()



def test_a_2000_deep_chain_is_rendered_without_recursion():
    tree = validate_tree(go_stop_chain(2000))
    every_go = strategy_at(tree, 2000)
    text = render_strategy(tree, every_go)
    assert text == "".join(f"D{i}[stop∥, go: " for i in range(2000)) + "0" + "]" * 2000

    lines = export_dot(tree, every_go).splitlines()
    assert len(lines) == 3 + 4001 + 4000
    assert lines[2:6] == [
        '  "D0" [shape=box, label="D0"];',
        '  "D0" -> "S0" [label="stop∥", style=dashed];',
        '  "S0" [shape=plaintext, label="S0\\n0"];',
        '  "D0" -> "D1" [label="go"];',
    ]
    assert lines[-2:] == ['  "end" [shape=plaintext, label="end\\n0"];', "}"]

    doc = serialize_problem(ParsedProblem(tree, {}))["tree"]
    for i in range(2000):
        assert doc["id"] == f"D{i}" and doc["arcs"][0]["child"]["id"] == f"S{i}"
        doc = doc["arcs"][1]["child"]
    assert doc == {"id": "end", "kind": "leaf", "reward": 0}


def test_a_2000_deep_chain_round_trips_through_the_document_reader():
    # Nodes compare and hash with a stack, so deep trees need no recursion.
    tree = validate_tree(go_stop_chain(2000))
    back = parse_problem(serialize_problem(ParsedProblem(tree, {}))).tree
    assert back == tree
    assert tree == validate_tree(go_stop_chain(2000))
    assert back != validate_tree(go_stop_chain(1999))
    assert hash(back) == hash(tree)
    assert hash(strategy_at(back, 2000)) == hash(strategy_at(tree, 2000))
    assert back.node_ids() == tree.node_ids()
    assert back.root_scope == tree.root_scope
    every_go = render_strategy(tree, strategy_at(tree, 2000))
    assert render_strategy(back, strategy_at(back, 2000)) == every_go


def test_nodes_compare_and_hash_as_their_fields():
    sp = PossibilitySpace(("a", "b"))
    ea, eb = sp.event(["a"]), sp.event(["b"])

    def build(reward=1, label="x", event=ea, nid="C"):
        c = chance(nid, [(event, leaf("L1", reward)), (sp.event(["b"]), leaf("L2", 2))])
        return decision("D", [(label, c), ("y", leaf("L3", 0))])

    same = build()
    assert same == build() and hash(same) == hash(build())
    assert same.arcs[0] == build().arcs[0] and hash(same.arcs[0]) == hash(build().arcs[0])
    for other in (build(reward=3), build(label="z"), build(event=eb), build(nid="E")):
        assert same != other
    # the same fields under another node class are another node
    assert chance("D", []) != decision("D", []) and decision("D", []) == decision("D", [])
    assert same != "D" and same.__eq__("D") is NotImplemented


def test_a_gamble_leaf_is_rendered_and_round_trips():
    sp = PossibilitySpace(("a", "b"))
    gamble = GambleLeaf("G", Gamble.from_mapping(sp.event(["b"]), {"b": Fraction(1, 2)}))
    inner = chance("C", [(sp.event(["a"]), leaf("L", 3)), (sp.event(["b"]), gamble)])
    tree = validate_tree(DecisionTree(sp, decision("D", [("x", inner), ("y", leaf("Y", 0))])))
    assert render_strategy(tree, strategy_at(tree, 0)) == "D[x: C({a}: 3, {b}: {b: 1/2}), y∥]"
    doc = serialize_problem(ParsedProblem(tree, {}))
    assert doc["tree"]["arcs"][0]["child"]["arcs"][1]["child"] == {
        "id": "G",
        "kind": "gamble",
        "gamble": {"b": "1/2"},
    }
    assert parse_problem(doc).tree == tree


def test_dot_labels_break_lines_with_one_backslash():
    # A label's line break is DOT's two-character escape \n; a backslash in
    # a node id is still doubled, so it stays a literal backslash.
    sp = PossibilitySpace(("a", "b"))
    gamble = GambleLeaf("G", Gamble.from_mapping(sp.event(["b"]), {"b": Fraction(1, 2)}))
    root = chance("C", [(sp.event(["a"]), leaf("x\\y", 3)), (sp.event(["b"]), gamble)])
    lines = export_dot(validate_tree(DecisionTree(sp, root))).splitlines()
    assert '  "x\\\\y" [shape=plaintext, label="x\\\\y\\n3"];' in lines
    assert '  "G" [shape=plaintext, label="G\\nb: 1/2"];' in lines


def _two_faults():
    """(tree, error, message) for unvalidated trees holding two faults;
    validation reports the first in preorder."""
    sp = PossibilitySpace(("a", "b"))
    a, b = sp.event(["a"]), sp.event(["b"])
    twice = decision("T", [("x", leaf("X1", 0)), ("x", leaf("X2", 1))])
    bare = DecisionNode("E", ())
    return [
        # a chance node's partition error comes before its children's
        (chance("R", [(a, twice)]), IncompletePartition, "leaves atoms \\['b'\\]"),
        # the first child's subtree before the second's
        (decision("R", [("p", twice), ("q", bare)]), DuplicateArcLabel, "'T'"),
        (decision("R", [("p", bare), ("q", twice)]), IncompletePartition, "'E' has no arcs"),
        # a node id met again before the faults below its second use
        (
            decision("R", [("p", leaf("L", 0)), ("q", chance("L", [(a, twice)]))]),
            DuplicateNodeId,
            "'L' occurs twice",
        ),
        # mixed rewards are reported only once the walk has found nothing else
        (decision("R", [("p", leaf("L", "win")), ("q", twice)]), DuplicateArcLabel, "'T'"),
        (
            chance("R", [(b, GambleLeaf("G", Gamble.from_mapping(a, {"a": 1}))), (a, twice)]),
            ScopeMismatch,
            "'G'",
        ),
    ]


@pytest.mark.parametrize("mode", ["reject", "auto_prune"])
def test_validate_tree_reports_the_first_fault_in_preorder(mode):
    sp = PossibilitySpace(("a", "b"))
    for root, error, message in _two_faults():
        with pytest.raises(error, match=message):
            validate_tree(DecisionTree(sp, root), mode)


def test_a_strategy_refuses_a_decision_node_that_keeps_two_arcs():
    # The decoder skips this check for the strategies it builds; a direct
    # call keeps it, below the root as well.
    sp = PossibilitySpace(("w",))
    two = decision("D", [("x", leaf("X", 0)), ("y", leaf("Y", 1))])
    with pytest.raises(ValueError, match="decision node 'D' keeps 2 arcs; a strategy keeps exactly one"):
        Strategy(sp, chance("C", [(sp.omega(), two)]))


@pytest.mark.parametrize("sampler", ["joint", "credal:2", "factored", "hierarchical:2"])
def test_decoded_strategies_pass_the_strategy_check(sampler):
    # The decoder builds its strategies without `Strategy`'s check, because
    # `_step` keeps one arc per decision node.  Each one rebuilt through the
    # check passes it and equals the decoded one, at every node of the tree.
    for seed in range(8):
        cfg = FuzzConfig(seed=seed, tree_count=1, max_depth=4, model_sampler=sampler)
        tree, _ = gen_random_tree(cfg, 0)
        decode = Decoder(tree)
        for nid, count in tree._plan.counts.items():
            for s in decode.strategies(nid, range(count)):
                rebuilt = Strategy(s.space, s.root, s.root_scope)
                assert type(s) is Strategy
                assert rebuilt == s and hash(rebuilt) == hash(s)
                assert s.root_scope == tree.scope_of(nid)


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
