import functools
import gc
import random
import re
import weakref
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import credaltrees.choice as choice_module
import credaltrees.solver as solver_module
import credaltrees.trees as trees_module
from credaltrees import (
    KINDS,
    ChoiceFunction,
    ChanceNode,
    CredalModel,
    CredalSet,
    CredalTreeError,
    DecisionNode,
    DecisionTree,
    Gamble,
    GambleLeaf,
    InconsistentAssessment,
    JointModel,
    MassFunction,
    MixedRewardKinds,
    ModeUnsupported,
    FactoredModel,
    NormalFormSolution,
    Outcome,
    PossibilitySpace,
    ScopeMismatch,
    Strategy,
    TreeFactoredAssessment,
    UnknownNode,
    ZeroProbabilityCondition,
    all_hold,
    backward_induct_eu,
    backward_solution,
    chance,
    check_subtree_perfect,
    check_subtree_perfect_at,
    count_strategies,
    decision,
    enumerate_strategies,
    expectation,
    gamble_of,
    kept_arcs,
    kept_children,
    leaf,
    lower_expectation,
    normal_form_solution,
    restrict_solution,
    strategy_at,
    strategy_table,
    subtree_at,
    validate_tree,
)
from credaltrees.fuzz import FuzzConfig, gen_random_tree
from credaltrees.trees import Decoder

from conftest import (
    build_alternating,
    build_eadm_failure,
    build_eadm_success,
    build_eu1,
    build_eu2,
    build_eu2_tree,
    build_eu3,
    build_gamma_failure,
    build_imprecise_utility,
    build_maximin_failure,
    example_problems,
    reference_restriction,
    reference_solution,
    reference_strategies,
    reference_verdict,
    reference_verdicts,
    relabel,
)


EU = ChoiceFunction("eu")


# --- two-stage root choice under a precise model ---------------------------------


def test_precise_root_choice_values_and_solution(eu1):
    tree, model = eu1
    strats = enumerate_strategies(tree)
    values = sorted(expectation(model.p, gamble_of(s), tree.root_scope) for s in strats)
    assert values == [Fraction(1), Fraction(6, 5), Fraction(9, 5), Fraction(2)]
    sol = normal_form_solution(tree, EU, model)
    assert [kept_arcs(s) for s in sol.strategies] == [{"N": "to_N2", "N2": "d2"}]


def test_precise_root_choice_is_subtree_perfect(eu1):
    tree, model = eu1
    verdicts = check_subtree_perfect(tree, EU, model)
    assert all_hold(verdicts)
    by_node = {v.node_id: v.outcome for v in verdicts}
    # the branch not taken is checked vacuously: its restriction is empty
    assert by_node["N1"] is Outcome.VACUOUS_HOLD
    assert by_node["N"] is Outcome.HOLD
    assert by_node["N2"] is Outcome.HOLD


def test_chance_root_example_holds_with_matching_local_values(eu2):
    tree, model = eu2
    strats = enumerate_strategies(tree)
    values = sorted(expectation(model.p, gamble_of(s), tree.root_scope) for s in strats)
    assert values == [Fraction(11, 10), Fraction(6, 5)]
    assert all_hold(check_subtree_perfect(tree, EU, model))
    # at the decision the local expectations are 6/5 and 1
    sub = subtree_at(tree, "N1")
    b = sub.root_scope
    local = sorted(expectation(model.p, gamble_of(s), b) for s in enumerate_strategies(sub))
    assert local == [Fraction(1), Fraction(6, 5)]


def test_zero_probability_branch_breaks_perfectness(eu3):
    tree, model = eu3
    sol = normal_form_solution(tree, EU, model)
    assert [kept_arcs(s) for s in sol.strategies] == [{"N1": "d1"}, {"N1": "d2"}]
    verdicts = {v.node_id: v for v in check_subtree_perfect(tree, EU, model)}
    v = verdicts["N1"]
    assert v.outcome is Outcome.FAIL
    # the witness: the restriction keeps the d2 path, the local solution does not
    assert [kept_arcs(s) for s in v.restricted_solution] == [{"N1": "d1"}, {"N1": "d2"}]
    assert [kept_arcs(s) for s in v.local_solution] == [{"N1": "d1"}]
    assert not all_hold(verdicts.values())


# --- imprecise utilities and partial preferences ----------------------------------


def test_imprecise_utility_nested_choice_fails(imprecise_utility_problem):
    tree, model = imprecise_utility_problem
    cf = ChoiceFunction("imprecise_utility")
    sol = normal_form_solution(tree, cf, model)
    assert [kept_arcs(s) for s in sol.strategies] == [
        {"N1": "down", "N2": "r1"},
        {"N1": "r3"},
    ]
    verdicts = {v.node_id: v for v in check_subtree_perfect(tree, cf, model)}
    assert verdicts["N2"].outcome is Outcome.FAIL
    assert [kept_arcs(s) for s in verdicts["N2"].local_solution] == [
        {"N2": "r1"},
        {"N2": "r2"},
    ]
    assert verdicts["N1"].outcome is Outcome.HOLD


def test_undominated_choice_under_a_partial_order_fails_nested():
    # same two-level shape, ranked by a bare partial order: only x3 beats x2
    sp = PossibilitySpace(("w",))
    root = decision(
        "N1",
        [
            ("down", decision("N2", [("x1", leaf("L1", 1)), ("x2", leaf("L2", 2))])),
            ("x3", leaf("L3", 3)),
        ],
    )
    tree = validate_tree(DecisionTree(sp, root))

    def beats(a, b):
        return a == Fraction(3) and b == Fraction(2)

    def undominated(x, y, model, event):
        return not beats(y.values_on(event)[0], x.values_on(event)[0])

    cf = ChoiceFunction("by_preorder", preorder=undominated)
    sol = normal_form_solution(tree, cf, None)
    assert [kept_arcs(s) for s in sol.strategies] == [
        {"N1": "down", "N2": "x1"},
        {"N1": "x3"},
    ]
    verdicts = {v.node_id: v for v in check_subtree_perfect(tree, cf, None)}
    assert verdicts["N2"].outcome is Outcome.FAIL
    assert [kept_arcs(s) for s in verdicts["N2"].local_solution] == [
        {"N2": "x1"},
        {"N2": "x2"},
    ]


# --- e-admissibility: one success, one failure ------------------------------------


def test_e_admissible_mirrored_tree_is_subtree_perfect(eadm_success):
    tree, model = eadm_success
    cf = ChoiceFunction("e_admissible")
    sol = normal_form_solution(tree, cf, model)
    assert len(enumerate_strategies(tree)) == 4
    assert [kept_arcs(s) for s in sol.strategies] == [
        {"N1": "gamble", "N2": "safe"},
        {"N1": "safe", "N2": "gamble"},
    ]
    verdicts = check_subtree_perfect(tree, cf, model)
    assert all_hold(verdicts)
    # locally both arms stay admissible at each decision: 2 of 2, against 2 of 4 globally
    for nid in ("N1", "N2"):
        local = normal_form_solution(subtree_at(tree, nid), cf, model)
        assert len(local.strategies) == 2


def test_e_admissible_nested_decision_fails(eadm_failure):
    tree, model = eadm_failure
    cf = ChoiceFunction("e_admissible")
    risky = next(
        gamble_of(s)
        for s in enumerate_strategies(tree)
        if kept_arcs(s).get("N2") == "risky"
    )
    members = model.credal.members
    values = sorted(expectation(p, risky, tree.root_scope) for p in members)
    assert values == [Fraction(-3), Fraction(3)]
    sol = normal_form_solution(tree, cf, model)
    assert [kept_arcs(s) for s in sol.strategies] == [
        {"N1": "down", "N2": "risky"},
        {"N1": "two"},
    ]
    verdicts = {v.node_id: v for v in check_subtree_perfect(tree, cf, model)}
    v = verdicts["N2"]
    assert v.outcome is Outcome.FAIL
    assert [kept_arcs(s) for s in v.restricted_solution] == [{"N2": "risky"}]
    assert [kept_arcs(s) for s in v.local_solution] == [{"N2": "risky"}, {"N2": "one"}]


# --- worst-case and lower-envelope rules break below chance nodes ------------------


def test_maximin_fails_below_a_chance_node(maximin_failure):
    tree, _ = maximin_failure
    cf = ChoiceFunction("maximin")
    sol = normal_form_solution(tree, cf, None)
    assert len(sol.strategies) == 2  # both strategies bottom out at 0
    verdicts = {v.node_id: v for v in check_subtree_perfect(tree, cf, None)}
    v = verdicts["N2"]
    assert v.outcome is Outcome.FAIL
    assert [kept_arcs(s) for s in v.local_solution] == [{"N2": "two"}]
    assert [kept_arcs(s) for s in v.restricted_solution] == [
        {"N2": "two"},
        {"N2": "one"},
    ]


def test_lower_envelope_preference_reverses_in_the_subtree(gamma_failure):
    tree, model = gamma_failure
    cf = ChoiceFunction("gamma_maximin")
    m = model.credal
    b = tree.root_scope
    lowers = sorted(
        lower_expectation(m, gamble_of(s), b) for s in enumerate_strategies(tree)
    )
    assert lowers == [Fraction(-1, 5), Fraction(1, 2)]
    sol = normal_form_solution(tree, cf, model)
    assert [kept_arcs(s) for s in sol.strategies] == [{"N1": "gamble"}]

    sub = subtree_at(tree, "N1")
    sub_lowers = sorted(
        lower_expectation(m, gamble_of(s), sub.root_scope)
        for s in enumerate_strategies(sub)
    )
    assert sub_lowers == [Fraction(-2, 5), Fraction(0)]
    local = normal_form_solution(sub, cf, model)
    assert [kept_arcs(s) for s in local.strategies] == [{"N1": "safe"}]

    verdicts = {v.node_id: v for v in check_subtree_perfect(tree, cf, model)}
    assert verdicts["N1"].outcome is Outcome.FAIL


# --- checker mechanics -------------------------------------------------------------


def test_single_node_check_matches_the_full_scan(eu3):
    tree, model = eu3
    full = {v.node_id: v.outcome for v in check_subtree_perfect(tree, EU, model)}
    for nid, want in full.items():
        assert check_subtree_perfect_at(tree, EU, model, nid).outcome is want


def test_restriction_drops_strategies_that_avoid_the_node(eu1):
    tree, model = eu1
    sol = normal_form_solution(tree, EU, model)
    assert [kept_arcs(s) for s in restrict_solution(sol, "N2")] == [{"N2": "d2"}]
    assert restrict_solution(sol, "N1") == ()
    with pytest.raises(UnknownNode, match="'nowhere'"):
        restrict_solution(sol, "nowhere")


def test_zero_mass_branch_under_a_joint_model_reports_error():
    tree = build_eu2_tree()
    sp = tree.space
    model = JointModel(
        MassFunction.from_mapping(
            sp, {"a1e1": 0, "a1e2": 0, "a2e1": Fraction(1, 2), "a2e2": Fraction(1, 2)}
        )
    )
    verdicts = {v.node_id: v for v in check_subtree_perfect(tree, EU, model)}
    assert verdicts["N1"].outcome is Outcome.ERROR
    assert "probability zero" in verdicts["N1"].detail
    assert verdicts["N"].outcome is Outcome.HOLD
    assert not all_hold(verdicts.values())


@pytest.mark.parametrize("shape", ["decision", "chance"])
@pytest.mark.parametrize("kind", ["eu", "maximality"])
def test_a_single_variant_node_of_probability_zero_is_still_posed(shape, kind):
    # N has one variant and a scope of mass zero.  check's filtered passes
    # keep a single row without asking the rule only under their premise,
    # which this tree breaks: backward induction still poses the choice at
    # N and raises, and check gives N its error verdict.
    sp = PossibilitySpace(("w1", "w2", "w3"))
    if shape == "decision":
        inner = decision("N", [("only", leaf("L1", 1))])
    else:
        inner = chance("N", [(sp.event(["w2"]), leaf("L1", 1)), (sp.event(["w3"]), leaf("L2", 2))])
    root = decision(
        "D",
        [
            ("stay", leaf("L0", 0)),
            ("go", chance("C", [(sp.event(["w1"]), leaf("L3", 3)), (sp.event(["w2", "w3"]), inner)])),
        ],
    )
    tree = validate_tree(DecisionTree(sp, root))
    assert count_strategies(subtree_at(tree, "N")) == 1
    p = MassFunction(sp, (Fraction(1), Fraction(0), Fraction(0)))
    model = JointModel(p) if kind == "eu" else CredalModel(CredalSet((p,)))
    choice = ChoiceFunction(kind)
    verdicts = {v.node_id: v for v in check_subtree_perfect(tree, choice, model)}
    assert verdicts["N"].outcome is Outcome.ERROR
    assert "probability zero" in verdicts["N"].detail
    assert verdicts["C"].outcome is Outcome.HOLD
    with pytest.raises(ZeroProbabilityCondition) as raised:
        backward_solution(tree, choice, model)
    assert str(raised.value) == verdicts["N"].detail


def test_backward_induction_agrees_with_the_normal_form(eu1, eu2):
    for tree, model in (eu1, eu2):
        nf = normal_form_solution(tree, EU, model)
        assert backward_induct_eu(tree, model) == nf.strategies


def test_backward_induction_raises_at_a_decision_of_probability_zero():
    # The normal form keeps both plans at D, whose scope {w2} has probability
    # zero; backward induction must pose the choice at D and cannot.
    sp = PossibilitySpace(("w1", "w2"))
    inner = decision("D", [("lo", leaf("L1", 1)), ("hi", leaf("L2", 2))])
    root = chance("C", [(sp.event(["w1"]), leaf("L0", 0)), (sp.event(["w2"]), inner)])
    tree = validate_tree(DecisionTree(sp, root))
    model = JointModel(MassFunction(sp, (Fraction(1), Fraction(0))))
    nf = normal_form_solution(tree, EU, model)
    assert [kept_arcs(s) for s in nf.strategies] == [{"D": "lo"}, {"D": "hi"}]
    verdicts = {v.node_id: v for v in check_subtree_perfect(tree, EU, model)}
    assert verdicts["D"].outcome is Outcome.ERROR
    for solve in (backward_solution, lambda t, _, m: backward_induct_eu(t, m)):
        with pytest.raises(ZeroProbabilityCondition) as raised:
            solve(tree, EU, model)
        assert str(raised.value) == verdicts["D"].detail


@pytest.mark.parametrize("sampler", ["joint", "credal:2", "factored", "hierarchical:2"])
def test_backward_induction_equals_the_normal_form_where_the_rule_is_perfect(sampler):
    cfg = FuzzConfig(seed=5, tree_count=30, max_depth=4, model_sampler=sampler)
    compared = 0
    for index in range(cfg.tree_count):
        tree, model = gen_random_tree(cfg, index)
        for kind in RULES:
            choice = ChoiceFunction(kind)
            verdicts = solved(lambda: check_subtree_perfect(tree, choice, model))
            always = kind == "eu" and sampler in ("joint", "factored")
            if always or (isinstance(verdicts, tuple) and all_hold(verdicts)):
                backward = backward_solution(tree, choice, model)
                normal = normal_form_solution(tree, choice, model)
                assert backward.indices == normal.indices, (index, kind)
                assert backward.strategies == normal.strategies, (index, kind)
                compared += 1
    assert compared >= cfg.tree_count


def test_backward_induction_solves_the_seven_level_tree_with_few_options(monkeypatch):
    tree, model = build_alternating(seed=23, levels=7, atoms=16)
    assert len(tree.node_ids()) == 1036
    assert count_strategies(tree) == 14_348_907
    real = ChoiceFunction.choose
    options = []

    def counting(self, xs, *args):
        options.append(len(xs))
        return real(self, xs, *args)

    monkeypatch.setattr(ChoiceFunction, "choose", counting)
    joint = JointModel(model.credal.members[0])
    for kind in ("eu", "maximality", "pointwise_dominance"):
        sol = backward_solution(tree, ChoiceFunction(kind), joint if kind == "eu" else model)
        assert sol.indices == tuple(sorted(set(sol.indices)))
        assert sol.strategies == tuple(strategy_at(tree, i) for i in sol.indices)
    # one choice per decision and chance node and rule
    assert len(options) == 3 * 388
    assert sum(options) < 10**4


def test_restricting_the_seven_level_backward_solution_builds_no_table(monkeypatch):
    tree, model = build_alternating(seed=23, levels=7, atoms=16)
    sol = backward_solution(tree, ChoiceFunction("maximality"), model)

    def spy(*args, **kwargs):
        raise AssertionError("strategy_table called")

    monkeypatch.setattr(solver_module, "strategy_table", spy)
    for nid in tree.node_ids():
        assert restrict_solution(sol, nid) == reference_restriction(sol.strategies, nid), nid


SEPARABLE = ("eu", "maximality", "e_admissible", "e_admissible_hull", "pointwise_dominance")


def verdict_tuples(verdicts):
    """Verdicts in full: node, outcome, both solutions by kept arcs, detail."""
    return tuple(
        (
            v.node_id,
            v.outcome,
            tuple(map(kept_arcs, v.restricted_solution)),
            tuple(map(kept_arcs, v.local_solution)),
            v.detail,
        )
        for v in verdicts
    )


@pytest.mark.parametrize("seed", [5, 9])
def test_one_pass_verdicts_equal_the_normal_form_verdicts(seed):
    one_pass = failing = 0
    for sampler in ("joint", "credal:2", "factored", "hierarchical:2"):
        cfg = FuzzConfig(seed=seed, tree_count=60, max_depth=4, model_sampler=sampler)
        for index in range(cfg.tree_count):
            tree, model = gen_random_tree(cfg, index)
            node_ids = tree.node_ids()
            for kind in SEPARABLE:
                choice = ChoiceFunction(kind)
                try:
                    normal = solver_module._read_verdicts(
                        tree, choice, model, node_ids, strategy_table(tree)
                    )
                except ModeUnsupported:
                    continue  # the model does not suit the rule
                checked = check_subtree_perfect(tree, choice, model)
                assert verdict_tuples(checked) == verdict_tuples(normal), (sampler, index, kind)
                members = choice.row_members(model)
                if kind == "eu" and sampler == "factored":
                    assert members is None  # whole gambles: the full table
                    continue
                assert solver_module._filters_apply(tree, members)
                filtered = strategy_table(tree, solver_module._choice_filter(choice, model))
                read = solver_module._read_verdicts(tree, choice, model, node_ids, filtered)
                assert verdict_tuples(read) == verdict_tuples(normal), (sampler, index, kind)
                one_pass += 1
                failing += not all_hold(read)
    assert one_pass == 660
    assert failing >= 80


def zero_mass_leaf_tree():
    """D chooses between 0 and a chance node C whose arc to L2 has mass zero
    under the member q = (1, 0, 0); C pays 1 everywhere, so D goes to C."""
    sp = PossibilitySpace(("w1", "w2", "w3"))
    c = chance("C", [(sp.event(["w1"]), leaf("L1", 1)), (sp.event(["w2", "w3"]), leaf("L2", 1))])
    tree = validate_tree(DecisionTree(sp, decision("D", [("stay", leaf("L0", 0)), ("go", c)])))
    q = MassFunction(sp, (Fraction(1), Fraction(0), Fraction(0)))
    return tree, q


@pytest.mark.parametrize(
    "kind, model",
    [("eu", JointModel), ("maximality", lambda q: CredalModel(CredalSet((q,))))],
)
def test_a_leaf_of_probability_zero_takes_the_normal_form_and_errs(kind, model):
    # The filter never runs at a leaf, so the one-pass path would call L2
    # hold; the normal form cannot pose L2's problem and says error.
    tree, q = zero_mass_leaf_tree()
    choice, model = ChoiceFunction(kind), model(q)
    assert not solver_module._filters_apply(tree, choice.row_members(model))
    verdicts = {v.node_id: v for v in check_subtree_perfect(tree, choice, model)}
    assert verdicts["L2"].outcome is Outcome.ERROR
    assert "probability zero" in verdicts["L2"].detail
    assert verdicts["D"].outcome is Outcome.HOLD
    assert check_subtree_perfect_at(tree, choice, model, "L2").outcome is Outcome.ERROR


def test_a_leaf_of_probability_zero_holds_under_pointwise_dominance():
    # pointwise dominance reads no member, so no scope is out of its reach
    tree, q = zero_mass_leaf_tree()
    choice, model = ChoiceFunction("pointwise_dominance"), JointModel(q)
    assert solver_module._filters_apply(tree, choice.row_members(model))
    filtered = strategy_table(tree, solver_module._choice_filter(choice, model))
    read = solver_module._read_verdicts(tree, choice, model, tree.node_ids(), filtered)
    verdicts = check_subtree_perfect(tree, choice, model)
    assert verdict_tuples(read) == verdict_tuples(verdicts)
    assert {v.node_id: v.outcome for v in verdicts}["L2"] is Outcome.HOLD
    assert all_hold(verdicts)


MEMBER_RULES = SEPARABLE[:-1] + ("gamma_maximin", "gamma_maximax", "interval_dominance")


@pytest.mark.parametrize("kind", MEMBER_RULES)
def test_members_on_a_smaller_space_are_refused_as_a_value_error(kind):
    # The member-sum column would index a two-atom member's weights by the
    # positions of a three-atom tree's atoms.
    sp, small = PossibilitySpace(("w1", "w2", "w3")), PossibilitySpace(("w1", "w2"))
    c = chance("C", [(sp.event(["w1"]), leaf("L1", 1)), (sp.event(["w2", "w3"]), leaf("L2", 2))])
    tree = validate_tree(DecisionTree(sp, decision("D", [("stay", leaf("L0", 0)), ("go", c)])))
    p = MassFunction(small, (Fraction(1, 2),) * 2)
    q = MassFunction(small, (Fraction(1, 3), Fraction(2, 3)))
    model = JointModel(p) if kind == "eu" else CredalModel(CredalSet((p, q)))
    choice = ChoiceFunction(kind)
    for solve in (
        functools.partial(check_subtree_perfect, tree, choice, model),
        functools.partial(check_subtree_perfect_at, tree, choice, model, "C"),
        functools.partial(normal_form_solution, tree, choice, model),
        functools.partial(backward_solution, tree, choice, model),
    ):
        with pytest.raises(ValueError, match="different possibility space"):
            solve()


def inconsistent_assessment_problem():
    """D chooses between C1 and C2, which send A = {a1, a2} to M and N and
    c to 5 and 7.  M and N induce the same gamble on A, (1, 0), but the
    factored model values it 1/2 at M and 1/3 at N; D's rows differ on c."""
    sp = PossibilitySpace(("a1", "a2", "c"))
    a, c = sp.event(["a1", "a2"]), sp.event(["c"])

    def branch(nid, inner, value):
        split = [(sp.event([x]), leaf(inner + x, r)) for x, r in (("a1", 1), ("a2", 0))]
        return chance(nid, [(a, chance(inner, split)), (c, leaf(nid + "c", value))])

    root = decision("D", [("d1", branch("C1", "M", 5)), ("d2", branch("C2", "N", 7))])
    tree = validate_tree(DecisionTree(sp, root))
    half = (Fraction(1, 2),) * 2
    rows = {"C1": half, "C2": half, "M": half, "N": (Fraction(1, 3), Fraction(2, 3))}
    return tree, FactoredModel(TreeFactoredAssessment(tree, rows))


def test_a_gamble_two_nodes_value_differently_is_refused_where_it_is_valued():
    # The full solution takes d2 and so reaches N, whose local problem
    # values (1, 0) on A, as does backward induction below D.  The normal
    # form values D's rows only, and those differ on c.
    tree, model = inconsistent_assessment_problem()
    eu = ChoiceFunction("eu")
    for solve in (
        functools.partial(check_subtree_perfect, tree, eu, model),
        functools.partial(check_subtree_perfect_at, tree, eu, model, "N"),
        functools.partial(backward_solution, tree, eu, model),
    ):
        with pytest.raises(InconsistentAssessment, match=r"differently at nodes \['M', 'N'\]"):
            solve()
    assert check_subtree_perfect_at(tree, eu, model, "D").outcome is Outcome.HOLD
    assert check_subtree_perfect_at(tree, eu, model, "M").outcome is Outcome.VACUOUS_HOLD
    assert [kept_arcs(s) for s in normal_form_solution(tree, eu, model).strategies] == [
        {"D": "d2"}
    ]


def test_check_decides_the_seven_level_tree_with_few_options(monkeypatch):
    tree, model = build_alternating(seed=23, levels=7, atoms=16)
    assert count_strategies(tree) == 14_348_907
    real = ChoiceFunction.choose
    options = []

    def counting(self, xs, *args):
        options.append(len(xs))
        return real(self, xs, *args)

    real_table = solver_module.strategy_table
    formed = []  # the number of rows the filtered pass forms at each node it filters

    def table_spy(t, keep=None, members=()):
        def counted(table, node_id, scope, rows):
            formed.append(len(rows))
            return keep(table, node_id, scope, rows)

        return real_table(t, counted, members)

    monkeypatch.setattr(ChoiceFunction, "choose", counting)
    monkeypatch.setattr(solver_module, "strategy_table", table_spy)
    joint = JointModel(model.credal.members[0])
    for kind in SEPARABLE:
        choice = ChoiceFunction(kind)
        m = joint if kind == "eu" else model
        options.clear()
        formed.clear()
        verdicts = check_subtree_perfect(tree, choice, m)
        assert len(verdicts) == 1036
        assert verdicts[0].outcome is Outcome.HOLD
        # one choice per decision and chance node that forms more than one
        # row; the rule keeps the one row of every other
        assert len(formed) == 388, kind
        assert len(options) == sum(n > 1 for n in formed) < 388, kind
        assert sum(options) < 2000, kind
        for v in verdicts:
            if v.outcome is Outcome.FAIL:
                alone = check_subtree_perfect_at(tree, choice, m, v.node_id)
                assert verdict_tuples([alone]) == verdict_tuples([v])


def test_conditioned_solving_restricts_the_comparison(eu1):
    tree, model = eu1
    e1 = tree.space.event(["e1"])
    sol = normal_form_solution(tree, EU, model, e1)
    assert sol.conditioning.ordered == ("e1",)
    # given e1 the best gamble pays 4
    assert [kept_arcs(s) for s in sol.strategies] == [{"N": "to_N2", "N2": "d2"}]
    e2 = tree.space.event(["e2"])
    sol2 = normal_form_solution(tree, EU, model, e2)
    assert [kept_arcs(s) for s in sol2.strategies] == [{"N": "to_N1", "N1": "d2"}]


@pytest.mark.parametrize(
    "build, choice",
    [
        (build_gamma_failure, ChoiceFunction("gamma_maximin")),
        (build_imprecise_utility, ChoiceFunction("imprecise_utility")),
        (build_maximin_failure, ChoiceFunction("maximin")),
    ],
)
def test_check_solves_the_full_tree_once_and_each_reached_node_once(
    monkeypatch, build, choice
):
    # One local solve per posed node of the one table check reads: the full
    # table under imprecise utility, the threshold-filtered table under the
    # threshold rules, whatever the tree's size; a filtered node with a
    # single kept row keeps it unsolved.
    tree, model = build()
    real, real_table = solver_module._chosen, solver_module.strategy_table
    solved, tables = [], []

    def counting(choice, model, table, scope, rows, *args):
        solved.append(rows)
        return real(choice, model, table, scope, rows, *args)

    def table_spy(*args):
        tables.append(real_table(*args))
        return tables[-1]

    def solves(table, node_ids):
        return [table[nid] for nid in node_ids if not table.positions or len(table[nid]) > 1]

    monkeypatch.setattr(solver_module, "_chosen", counting)
    monkeypatch.setattr(solver_module, "strategy_table", table_spy)
    verdicts = check_subtree_perfect(tree, choice, model)
    [table] = tables
    assert bool(table.positions) == (choice.kind in solver_module._THRESHOLD_TESTS)
    root_id = tree.root.node_id
    posed = [
        v.node_id
        for v in verdicts
        if v.outcome is not Outcome.VACUOUS_HOLD and v.node_id != root_id
    ]
    assert solved == solves(table, [root_id] + posed)
    assert solved

    root = verdicts[0]
    assert root.node_id == root_id
    assert root.outcome is Outcome.HOLD
    full = normal_form_solution(tree, choice, model)
    assert root.restricted_solution == root.local_solution == full.strategies

    solved.clear()
    tables.clear()
    alone = check_subtree_perfect_at(tree, choice, model, root_id)
    assert solved == solves(tables[0], [root_id])
    assert alone.outcome is root.outcome
    assert alone.restricted_solution == root.restricted_solution
    assert alone.local_solution == root.local_solution


#: The seven rules of the benchmark's check-synth workload.
CHECK_SYNTH_RULES = (
    "eu",
    "maximin",
    "gamma_maximin",
    "maximality",
    "e_admissible",
    "interval_dominance",
    "pointwise_dominance",
)


def test_check_decodes_each_posed_node_once_and_a_failing_one_twice(monkeypatch):
    # A vacuous verdict decodes nothing.  A hold or an error decodes its
    # restriction alone, and a hold's local solution is the same strategies
    # in local order; only a fail decodes its local solution as well.  A
    # joint model null on half the atoms gives error verdicts.
    tree, model = build_alternating(seed=23)
    joint = JointModel(model.credal.members[0])
    half = tuple(Fraction(1, 4) if i < 4 else Fraction(0) for i in range(8))
    runs = [(kind, joint if kind == "eu" else model) for kind in CHECK_SYNTH_RULES]
    runs.append(("eu", JointModel(MassFunction(tree.space, half))))
    real = trees_module.Decoder.strategies
    decoded = []

    def spy(self, node_id, positions):
        decoded.append(node_id)
        return real(self, node_id, positions)

    monkeypatch.setattr(trees_module.Decoder, "strategies", spy)
    calls = {Outcome.VACUOUS_HOLD: 0, Outcome.HOLD: 1, Outcome.ERROR: 1, Outcome.FAIL: 2}
    seen = set()
    for kind, m in runs:
        decoded.clear()
        verdicts = check_subtree_perfect(tree, ChoiceFunction(kind), m)
        per_node = Counter(decoded)
        for v in verdicts:
            assert per_node[v.node_id] == calls[v.outcome], (kind, v.node_id)
            if v.outcome is Outcome.HOLD:
                assert {id(s) for s in v.local_solution} == {id(s) for s in v.restricted_solution}
        assert len(decoded) == sum(calls[v.outcome] for v in verdicts)
        seen.update(v.outcome for v in verdicts)
    assert seen == set(Outcome)


@pytest.mark.parametrize(
    "build, choice",
    [
        (build_eu1, EU),
        (build_eu2, EU),
        (build_eadm_failure, ChoiceFunction("e_admissible")),
        (build_eadm_success, ChoiceFunction("e_admissible_hull")),
        (build_gamma_failure, ChoiceFunction("maximality")),
        (build_maximin_failure, ChoiceFunction("pointwise_dominance")),
    ],
)
def test_check_reads_every_verdict_off_one_filtered_pass(monkeypatch, build, choice):
    # The separable rules build one filtered table and solve nothing in
    # normal form, for check and for check-node alike.
    tree, model = build()
    full = normal_form_solution(tree, choice, model)
    real_table = solver_module.strategy_table
    builds, solves = [], []

    def table_spy(t, keep=None, members=()):
        builds.append("filtered" if keep is not None else "unfiltered")
        return real_table(t, keep, members)

    def solve_spy(*args, **kwargs):
        solves.append(args[0].root.node_id)
        raise AssertionError("normal_form_solution called")

    monkeypatch.setattr(solver_module, "strategy_table", table_spy)
    monkeypatch.setattr(solver_module, "normal_form_solution", solve_spy)
    verdicts = check_subtree_perfect(tree, choice, model)
    assert builds == ["filtered"] and solves == []

    root = verdicts[0]
    assert root.node_id == tree.root.node_id
    assert root.outcome is Outcome.HOLD
    assert root.restricted_solution == root.local_solution == full.strategies

    for v in verdicts:
        builds.clear()
        alone = check_subtree_perfect_at(tree, choice, model, v.node_id)
        assert builds == ["filtered"] and solves == []
        assert alone.outcome is v.outcome
        assert alone.restricted_solution == v.restricted_solution
        assert alone.local_solution == v.local_solution


THRESHOLD = ("maximin", "gamma_maximin", "gamma_maximax", "interval_dominance")


def full_table_verdicts(tree, choice, model):
    """The verdicts read off the tree's table of value rows: a reference
    that forms no member-sum vector of the strategy table's own."""
    table = strategy_table(tree)
    return solver_module._read_verdicts(tree, choice, model, tree.node_ids(), table)


@pytest.mark.parametrize("sampler", ["joint", "credal:2", "factored", "hierarchical:2", None])
def test_threshold_verdicts_equal_the_full_table_verdicts(sampler):
    # The threshold pass is called directly, so trees below the row count
    # at which check takes it are covered too.
    if sampler is None:
        problems = [build_alternating(seed=s) for s in (21, 22, 23)]
    else:
        cfg = FuzzConfig(seed=9, tree_count=40, max_depth=4, model_sampler=sampler)
        problems = [gen_random_tree(cfg, i) for i in range(cfg.tree_count)]
    compared = failing = 0
    for tree, model in problems:
        for kind in THRESHOLD:
            choice = ChoiceFunction(kind)
            members = choice.row_members(model)
            try:
                full = full_table_verdicts(tree, choice, model)
            except ModeUnsupported:
                assert members is None, kind  # the model does not suit the rule
                continue
            assert solver_module._filters_apply(tree, members)
            table = solver_module._threshold_table(tree, choice, members)
            read = solver_module._read_verdicts(tree, choice, model, tree.node_ids(), table)
            assert verdict_tuples(read) == verdict_tuples(full), (sampler, kind)
            compared += 1
            failing += not all_hold(read)
    credal = sampler in (None, "credal:2", "hierarchical:2")
    assert compared == len(problems) * (4 if credal else 1)
    assert failing >= (5 if sampler else 2)


@pytest.mark.parametrize("kind", THRESHOLD)
def test_check_reads_the_threshold_verdicts_off_one_filtered_pass(monkeypatch, kind):
    # The five-level tree takes the threshold pass, for check and for
    # check-node alike, and builds no unfiltered table.
    tree, model = build_alternating(seed=23)
    choice = ChoiceFunction(kind)
    full = full_table_verdicts(tree, choice, model)
    real_table = solver_module.strategy_table
    builds = []

    def table_spy(t, keep=None, members=()):
        builds.append("filtered" if keep is not None else "unfiltered")
        return real_table(t, keep, members)

    monkeypatch.setattr(solver_module, "strategy_table", table_spy)
    verdicts = check_subtree_perfect(tree, choice, model)
    assert builds == ["filtered"]
    assert verdict_tuples(verdicts) == verdict_tuples(full)
    for v in verdicts:
        builds.clear()
        alone = check_subtree_perfect_at(tree, choice, model, v.node_id)
        assert builds == ["filtered"]
        assert verdict_tuples([alone]) == verdict_tuples([v])


def test_check_walks_the_tree_once_for_its_counts_and_reward_kinds(monkeypatch):
    # The node plan, with the variant counts, the reward denominator and
    # the reward kinds, is cached on the tree, so every pass of every rule
    # shares its one walk, and each chance node's merge plan is made once
    # in all.  Each check totals the scope masses once, and the threshold
    # walk reads the table's.
    tree, model = build_alternating(seed=23)
    joint = JointModel(model.credal.members[0])
    walks = []
    for name in ("_plan",):
        prop = DecisionTree.__dict__[name]

        def counted(t, name=name, walk=prop.func):
            walks.append(name)
            return walk(t)

        monkeypatch.setattr(prop, "func", counted)
    merges, masses, thresholds, tables = [], [], [], []
    real_merge, real_masses = trees_module._merge_plan, trees_module.Plan.masses
    real_thresholds, real_table = solver_module._member_thresholds, solver_module.strategy_table

    def merge_spy(*args):
        merges.append(args)
        return real_merge(*args)

    def masses_spy(plan, weights):
        masses.append(real_masses(plan, weights))
        return masses[-1]

    def thresholds_spy(t, scope_masses, *args):
        thresholds.append(scope_masses)
        return real_thresholds(t, scope_masses, *args)

    def table_spy(*args):
        tables.append(real_table(*args))
        return tables[-1]

    monkeypatch.setattr(trees_module, "_merge_plan", merge_spy)
    monkeypatch.setattr(trees_module.Plan, "masses", masses_spy)
    monkeypatch.setattr(solver_module, "_member_thresholds", thresholds_spy)
    monkeypatch.setattr(solver_module, "strategy_table", table_spy)
    for kind in CHECK_SYNTH_RULES:
        masses.clear()
        thresholds.clear()
        tables.clear()
        choice, m = ChoiceFunction(kind), joint if kind == "eu" else model
        check_subtree_perfect(tree, choice, m)
        [table] = tables
        assert masses == ([table.masses] if choice.row_members(m) else []), kind
        if kind in ("gamma_maximin", "interval_dominance"):
            assert len(thresholds) == 1 and thresholds[0] is table.masses, kind
    backward_solution(tree, ChoiceFunction("maximality"), model)
    assert walks == ["_plan"]
    assert not hasattr(tree, "_counts") and not hasattr(tree, "_reward_denominator")
    chance_nodes = [n for n, _ in tree.nodes() if isinstance(n, ChanceNode)]
    assert len(merges) == len(chance_nodes) == 21


def test_check_decides_the_seven_level_tree_under_the_threshold_rules(monkeypatch):
    tree, model = build_alternating(seed=23, levels=7, atoms=16)
    assert count_strategies(tree) == 14_348_907
    real_table = solver_module.strategy_table
    real_choose = ChoiceFunction.choose
    kept, options = [], []

    def table_spy(t, keep=None, members=()):
        assert keep is not None, "unfiltered table"
        table = real_table(t, keep, members)
        kept.append(sum(map(len, table.values())))
        return table

    def counting(self, xs, *args):
        options.append(len(xs))
        return real_choose(self, xs, *args)

    monkeypatch.setattr(solver_module, "strategy_table", table_spy)
    monkeypatch.setattr(ChoiceFunction, "choose", counting)
    for kind in THRESHOLD:
        kept.clear()
        options.clear()
        verdicts = check_subtree_perfect(tree, ChoiceFunction(kind), model)
        assert len(verdicts) == 1036
        assert verdicts[0].outcome is Outcome.HOLD
        posed = sum(v.outcome is not Outcome.VACUOUS_HOLD for v in verdicts)
        # rows kept over all nodes, and one choice per posed non-leaf node
        assert len(kept) == 1 and kept[0] < 6000, kind
        assert len(options) <= posed and sum(options) < 2000, kind


#: The rules that read an option only through its member sums: under the
#: filters' premise, check takes their filtered pass as a table of member
#: sums alone.
SUM_RULES = (
    "eu",
    "gamma_maximin",
    "gamma_maximax",
    "maximality",
    "e_admissible",
    "e_admissible_hull",
    "interval_dominance",
)


def column_pass(tree, choice, model):
    """The filtered table check takes for a sum-reading rule, whatever the
    tree's size: backward induction's, or the threshold filter's."""
    members = choice.row_members(model)
    if choice.is_separable:
        return strategy_table(tree, solver_module._choice_filter(choice, model), members)
    return solver_module._threshold_table(tree, choice, members)


@pytest.mark.parametrize("sampler", ["joint", "credal:2", "credal:3", "hierarchical:2", None])
def test_column_pass_verdicts_equal_the_full_table_verdicts(sampler):
    # credal:3 draws three members, for the hull rule
    if sampler is None:
        problems = [build_alternating(seed=s) for s in (21, 22)]
    else:
        count = 12 if sampler == "credal:3" else 40
        cfg = FuzzConfig(seed=9, tree_count=count, max_depth=4, model_sampler=sampler)
        problems = [gen_random_tree(cfg, i) for i in range(cfg.tree_count)]
    rules = SUM_RULES if sampler != "credal:3" else ("e_admissible_hull",)
    compared = failing = 0
    for tree, model in problems:
        for kind in rules:
            choice = ChoiceFunction(kind)
            m = JointModel(model.credal.members[0]) if sampler is None and kind == "eu" else model
            members = choice.row_members(m)
            if members is None:
                with pytest.raises(ModeUnsupported):
                    full_table_verdicts(tree, choice, m)
                continue
            full = full_table_verdicts(tree, choice, m)
            assert solver_module._filters_apply(tree, members)
            table = column_pass(tree, choice, m)
            assert table.masses, (sampler, kind)  # member-sum vectors
            read = solver_module._read_verdicts(tree, choice, m, tree.node_ids(), table)
            assert verdict_tuples(read) == verdict_tuples(full), (sampler, kind)
            compared += 1
            failing += not all_hold(read)
    # under joint only eu applies, and under the credal samplers every rule but eu
    per_tree = {"joint": 1, "credal:3": 1, None: len(SUM_RULES)}.get(sampler, len(SUM_RULES) - 1)
    assert compared == len(problems) * per_tree
    if sampler == "joint":
        assert failing == 0  # eu is subtree perfect where every scope has positive mass
    else:
        assert failing >= {"credal:3": 1, None: 5}.get(sampler, 20)


def test_strategies_with_equal_member_sums_are_one_option():
    # At D, X and Y pay (1, 2, 3) and (3, 2, 1): different rows with the
    # same sums under both members, so the column passes merge them into
    # one option, and keep both strategies as the full table does.
    sp = PossibilitySpace(("a", "b", "c"))
    ev = [sp.event([x]) for x in sp.atoms]
    x = chance("X", [(e, leaf(f"X{k}", k + 1)) for k, e in enumerate(ev)])
    y = chance("Y", [(e, leaf(f"Y{k}", 3 - k)) for k, e in enumerate(ev)])
    d = decision("D", [("x", x), ("w", leaf("W", 1)), ("y", y)])
    tree = validate_tree(DecisionTree(sp, decision("R", [("d", d), ("e", leaf("E", 0))])))
    p = MassFunction(sp, (Fraction(1, 3),) * 3)
    q = MassFunction(sp, (Fraction(1, 4), Fraction(1, 2), Fraction(1, 4)))
    assert strategy_table(tree)["D"] == [(1, 2, 3), (1, 1, 1), (3, 2, 1)]
    best = [{"R": "d", "D": "x"}, {"R": "d", "D": "y"}]
    for kind in SUM_RULES:
        choice = ChoiceFunction(kind)
        model = JointModel(p) if kind == "eu" else CredalModel(CredalSet((p, q)))
        table = column_pass(tree, choice, model)
        k = len(choice.row_members(model))
        assert len(set(table["D"])) == 1 and len(table["D"]) == 2, kind
        assert len(table["D"][0]) == k, kind
        assert table.positions["D"] == [0, 2], kind
        read = solver_module._read_verdicts(tree, choice, model, tree.node_ids(), table)
        assert verdict_tuples(read) == verdict_tuples(full_table_verdicts(tree, choice, model))
        verdicts = check_subtree_perfect(tree, choice, model)
        assert verdict_tuples(verdicts) == verdict_tuples(read), kind
        assert [kept_arcs(s) for s in verdicts[0].local_solution] == best, kind
        assert [kept_arcs(s) for s in normal_form_solution(tree, choice, model).strategies] == best


def member_sums(strategy, members, denominator):
    """The member-sum vector of a strategy's gamble, as the column holds it."""
    g = gamble_of(strategy)
    position = strategy.space.position
    return tuple(
        sum(p._integers[1][position(a)] * v * denominator for a, v in g.items())
        for p in members
    )


def test_check_forms_no_value_row_under_the_sum_reading_rules(monkeypatch):
    tree, model = build_alternating(seed=23, levels=7, atoms=16)
    joint = JointModel(model.credal.members[0])
    real_table = solver_module.strategy_table
    tables = []

    def table_spy(t, keep=None, members=()):
        tables.append(real_table(t, keep, members))
        return tables[-1]

    monkeypatch.setattr(solver_module, "strategy_table", table_spy)
    decode = Decoder(tree)
    for kind in SUM_RULES:
        m = joint if kind == "eu" else model
        members = ChoiceFunction(kind).row_members(m)
        tables.clear()
        check_subtree_perfect(tree, ChoiceFunction(kind), m)
        [table] = tables
        assert table.masses, kind  # member-sum vectors
        for nid in tree.node_ids():
            entries = table[nid]
            assert entries, (kind, nid)
            for vector, k in zip(entries, table.positions[nid]):
                sums = member_sums(decode.strategy(nid, k), members, table.denominator)
                assert vector == sums, (kind, nid)


def zero_mass_problem():
    """An alternating tree with a member that gives every scope without w0
    probability zero: the point mass, and a credal set that holds it."""
    tree, model = build_alternating(seed=23)
    sp = tree.space
    point = MassFunction(sp, (Fraction(1),) + (Fraction(0),) * (len(sp) - 1))
    return tree, model, point, CredalModel(CredalSet(model.credal.members[:2] + (point,)))


def test_zero_probability_and_label_trees_take_the_full_table(monkeypatch):
    tree, model, point, zero = zero_mass_problem()
    labelled = relabel(tree, lambda v: f"r{v}")
    real_table = solver_module.strategy_table
    builds = []

    def table_spy(t, keep=None, members=()):
        builds.append("filtered" if keep is not None else "unfiltered")
        return real_table(t, keep, members)

    monkeypatch.setattr(solver_module, "strategy_table", table_spy)
    # the full table of member-sum vectors raises, from its scope masses,
    # what the value-row reference's OptionTable.on raises
    for kind in SUM_RULES:
        choice = ChoiceFunction(kind)
        m = JointModel(point) if kind == "eu" else zero
        assert not solver_module._filters_apply(tree, choice.row_members(m))
        builds.clear()
        verdicts = check_subtree_perfect(tree, choice, m)
        assert builds == ["unfiltered"], kind
        errors = [v for v in verdicts if v.outcome is Outcome.ERROR]
        message = "has probability zero" if kind == "eu" else "a credal member gives"
        assert errors and all(message in v.detail for v in errors), kind
        assert verdict_tuples(verdicts) == verdict_tuples(
            full_table_verdicts(tree, choice, m)
        )
    for kind in THRESHOLD:
        choice = ChoiceFunction(kind)
        assert not solver_module._filters_apply(labelled, choice.row_members(model))
        builds.clear()
        with pytest.raises(ValueError, match="numeric"):
            check_subtree_perfect(labelled, choice, model)
        assert builds == ["unfiltered"], kind


def test_hull_e_admissibility_solves_and_checks_the_five_level_tree():
    # Seed 23 separates the three rules, and its solve and check both need
    # hull LPs, feasible and infeasible ones.
    tree, model = build_alternating(seed=23)
    assert len(enumerate_strategies(tree)) == 2187
    solutions = {
        kind: set(normal_form_solution(tree, ChoiceFunction(kind), model).strategies)
        for kind in ("e_admissible", "e_admissible_hull", "maximality")
    }
    assert (
        solutions["e_admissible"]
        < solutions["e_admissible_hull"]
        < solutions["maximality"]
    )
    verdicts = check_subtree_perfect(tree, ChoiceFunction("e_admissible_hull"), model)
    assert [v.node_id for v in verdicts] == list(tree.node_ids())
    assert verdicts[0].outcome is Outcome.HOLD


# --- the table-driven solver against the enumerating reference -------------------

RULES = tuple(kind for kind in KINDS if kind != "by_preorder")


def solved(solve):
    """What a solve returns, or the type of the error it raises."""
    try:
        return solve()
    except (CredalTreeError, ValueError) as exc:
        return type(exc)


def assert_solves_match(tree, model, b, kinds=RULES):
    """Every rule solves *tree* as the reference does, or fails with the same
    error type; returns how many solved."""
    supported = 0
    for kind in kinds:
        choice = ChoiceFunction(kind)
        expected = solved(lambda: reference_solution(tree, choice, model, b))
        actual = solved(lambda: normal_form_solution(tree, choice, model, b).strategies)
        assert actual == expected, kind
        supported += isinstance(expected, tuple)
    return supported


def inner_event(tree, draw):
    """An event strictly inside the root scope: a node's scope or any subset."""
    scopes = [s for _, s in tree.nodes() if s != tree.root_scope]
    atoms = tree.root_scope.ordered
    subset = tree.space.event(
        draw(st.sets(st.sampled_from(atoms), min_size=1, max_size=len(atoms) - 1))
    )
    return draw(st.sampled_from(scopes + [subset]))


@given(
    st.integers(0, 10**6),
    st.sampled_from(("joint", "credal:2", "factored", "hierarchical:2")),
    st.data(),
)
@settings(max_examples=40, deadline=None)
def test_normal_form_solution_matches_the_reference_on_random_trees(seed, sampler, data):
    cfg = FuzzConfig(seed=seed, tree_count=1, model_sampler=sampler, max_strategies=24)
    tree, model = gen_random_tree(cfg, 0)
    assert assert_solves_match(tree, model, None) > 0
    assert_solves_match(tree, model, inner_event(tree, data.draw))
    kind = data.draw(st.sampled_from(RULES))
    for nid in tree.node_ids():
        assert_solves_match(subtree_at(tree, nid), model, None, (kind,))


@pytest.mark.parametrize("sampler", ["joint", "credal:2", "factored", "hierarchical:2"])
def test_solution_values_and_restrictions_match_its_strategies(sampler):
    cfg = FuzzConfig(seed=11, tree_count=12, max_depth=4, model_sampler=sampler)
    solves = {"normal": 0, "inner": 0, "backward": 0}
    for index in range(cfg.tree_count):
        tree, model = gen_random_tree(cfg, index)
        inner = [s for _, s in tree.nodes() if s != tree.root_scope][-1]
        for kind in RULES:
            choice = ChoiceFunction(kind)
            for method, solve in (
                ("normal", lambda: normal_form_solution(tree, choice, model)),
                ("inner", lambda: normal_form_solution(tree, choice, model, inner)),
                ("backward", lambda: backward_solution(tree, choice, model)),
            ):
                sol = solved(solve)
                if not isinstance(sol, NormalFormSolution):
                    continue
                assert sol.values == tuple(gamble_of(s).values for s in sol.strategies)
                for nid in tree.node_ids():
                    assert restrict_solution(sol, nid) == reference_restriction(sol.strategies, nid)
                solves[method] += 1
    assert min(solves.values()) >= 2 * cfg.tree_count, solves


SMALL_EXAMPLES = [p for p in example_problems() if p[0] != "alternating"]


@pytest.mark.parametrize(
    "tree, model", [p[1:] for p in SMALL_EXAMPLES], ids=[p[0] for p in SMALL_EXAMPLES]
)
def test_normal_form_solution_matches_the_reference_on_the_examples(tree, model):
    assert assert_solves_match(tree, model, None) > 0
    inner = [s for _, s in tree.nodes() if s != tree.root_scope]
    if inner:
        assert_solves_match(tree, model, inner[-1])
    for nid in tree.node_ids():
        assert_solves_match(subtree_at(tree, nid), model, None)


def unvalidated_tree(case):
    sp = PossibilitySpace(("a", "b"))
    a, b = sp.event(["a"]), sp.event(["b"])
    if case == "uncovered atom":
        root = decision("N", [("x", leaf("L1", 1)), ("y", chance("C", [(a, leaf("L2", 2))]))])
    elif case == "gamble leaf misses an atom":
        root = decision("N", [("x", leaf("L1", 1)), ("y", GambleLeaf("G", Gamble.constant(a, 2)))])
    elif case == "strategy mixes kinds":
        inner = decision("D", [("x", leaf("L1", "low")), ("y", leaf("L2", 1))])
        root = chance("N", [(a, inner), (b, leaf("L3", 2))])
    else:  # kinds differ between strategies, none mixes them
        root = decision("N", [("x", leaf("L1", "low")), ("y", leaf("L2", 1))])
    return DecisionTree(sp, root)


@pytest.mark.parametrize(
    "case, error",
    [
        ("uncovered atom", ScopeMismatch),
        ("gamble leaf misses an atom", ScopeMismatch),
        ("strategy mixes kinds", MixedRewardKinds),
        ("kinds differ between strategies", ValueError),
    ],
)
def test_unvalidated_trees_fail_as_gamble_of_does(case, error):
    tree = unvalidated_tree(case)
    gambles = solved(lambda: [gamble_of(s) for s in reference_strategies(tree)])
    if error is ValueError:
        # Every strategy has a gamble; maximin then refuses the labels.
        assert isinstance(gambles, list)
    else:
        assert gambles is error
        assert solved(lambda: strategy_table(tree)) is error
    maximin = ChoiceFunction("maximin")
    assert solved(lambda: reference_solution(tree, maximin, None)) is error
    assert solved(lambda: normal_form_solution(tree, maximin, None)) is error


# --- strategies compared by their kept arcs ---------------------------------------


def portable(strategies):
    return [list(kept_arcs(s).items()) for s in strategies]


@given(
    st.integers(0, 10**6),
    st.sampled_from(("joint", "credal:2", "factored", "hierarchical:2")),
    st.sampled_from(
        (
            "eu",
            "maximin",
            "gamma_maximin",
            "gamma_maximax",
            "maximality",
            "e_admissible",
            "e_admissible_hull",
            "interval_dominance",
            "pointwise_dominance",
        )
    ),
)
@settings(max_examples=40, deadline=None)
def test_verdicts_match_a_structural_reference_on_random_trees(seed, sampler, kind):
    cfg = FuzzConfig(seed=seed, tree_count=1, model_sampler=sampler, max_strategies=24)
    tree, model = gen_random_tree(cfg, 0)
    choice = ChoiceFunction(kind)
    full = solved(lambda: reference_solution(tree, choice, model))
    verdicts = solved(lambda: check_subtree_perfect(tree, choice, model))
    if not isinstance(full, tuple):
        assert verdicts is full
        return
    assert [v.node_id for v in verdicts] == list(tree.node_ids())
    for v in verdicts:
        outcome, restricted, local = reference_verdict(
            tree, choice, model, full, v.node_id
        )
        assert v.outcome is outcome, v.node_id
        assert portable(v.restricted_solution) == portable(restricted), v.node_id
        assert portable(v.local_solution) == portable(local), v.node_id


def test_check_neither_hashes_nor_compares_nodes(monkeypatch):
    problems = [p[1:] for p in SMALL_EXAMPLES if p[2] is not None]
    for sampler in ("credal:2", "hierarchical:2"):
        cfg = FuzzConfig(seed=5, tree_count=6, model_sampler=sampler)
        problems += [gen_random_tree(cfg, i) for i in range(cfg.tree_count)]
    runs = [
        (tree, ChoiceFunction(kind), model)
        for tree, model in problems
        for kind in ("maximin", "eu", "maximality", "imprecise_utility")
    ]
    expected = [solved(lambda: check_subtree_perfect(*run)) for run in runs]
    calls = []

    def refuse(self, *_):
        calls.append(type(self).__name__)
        raise AssertionError("strategies are compared by their kept arcs")

    for cls in (Strategy, DecisionNode, ChanceNode):
        monkeypatch.setattr(cls, "__hash__", refuse)
        monkeypatch.setattr(cls, "__eq__", refuse)
    verdicts = [solved(lambda: check_subtree_perfect(*run)) for run in runs]
    monkeypatch.undo()
    assert calls == []
    checked = 0
    for got, want in zip(verdicts, expected):
        if isinstance(want, type):
            assert got is want
            continue
        assert [(v.node_id, v.outcome) for v in got] == [
            (v.node_id, v.outcome) for v in want
        ]
        checked += 1
    assert checked >= len(problems)


def test_check_builds_nodes_only_for_the_strategies_it_returns(monkeypatch):
    # The table's rows are values; nodes are decoded for returned strategies only.
    cfg = FuzzConfig(seed=3, tree_count=1, max_depth=4, model_sampler="credal:2")
    tree, model = gen_random_tree(cfg, 0)
    built = []
    for cls in (DecisionNode, ChanceNode):

        def counting(self, *args, _init=cls.__init__, **kwargs):
            built.append(type(self).__name__)
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    runs = [
        check_subtree_perfect(tree, ChoiceFunction(kind), model)
        for kind in ("maximin", "maximality", "interval_dominance")
    ]
    monkeypatch.undo()
    returned = {
        id(s): s
        for verdicts in runs
        for v in verdicts
        for s in v.restricted_solution + v.local_solution
    }
    inner = sum(
        isinstance(n, (DecisionNode, ChanceNode))
        for s in returned.values()
        for n, _ in s.nodes()
    )
    assert len(built) <= inner


@pytest.mark.parametrize(
    "tree, model", [p[1:] for p in SMALL_EXAMPLES], ids=[p[0] for p in SMALL_EXAMPLES]
)
def test_solution_indices_are_enumeration_positions(tree, model):
    everything = enumerate_strategies(tree)
    events = [None] + [s for _, s in tree.nodes() if s != tree.root_scope]
    solutions = 0
    for b in events:
        for kind in RULES:
            sol = solved(lambda: normal_form_solution(tree, ChoiceFunction(kind), model, b))
            if isinstance(sol, type):
                continue
            assert sol.indices == tuple(everything.index(s) for s in sol.strategies)
            solutions += 1
    assert solutions


# --- rewards with mixed denominators ------------------------------------------------

#: offsets with pairwise different denominators, so a tree's common one exceeds 1
OFFSETS = (Fraction(1, 3), Fraction(-5, 6), Fraction(2, 7), Fraction(3, 4), Fraction(-1, 5))


def fractional_problem(seed, sampler):
    """A fuzz tree whose every reward is moved by one of OFFSETS, and its model."""
    cfg = FuzzConfig(seed=seed, tree_count=1, model_sampler=sampler, max_strategies=24)
    tree, model = gen_random_tree(cfg, 0)
    rng = random.Random(seed)
    tree = relabel(tree, lambda r: r + rng.choice(OFFSETS))
    if isinstance(model, FactoredModel):
        model = FactoredModel(TreeFactoredAssessment(tree, model.assessment.arc_probs))
    return tree, model


@given(
    st.integers(0, 10**6),
    st.sampled_from(("joint", "credal:2", "factored", "hierarchical:2")),
    st.data(),
)
@settings(max_examples=40, deadline=None)
def test_fractional_rewards_solve_and_check_as_the_reference(seed, sampler, data):
    tree, model = fractional_problem(seed, sampler)
    table = strategy_table(tree)
    decode = Decoder(tree)
    assert table.denominator > 1
    for nid in tree.node_ids():
        assert all(type(v) is int for values in table[nid] for v in values)
        reference = reference_strategies(subtree_at(tree, nid))
        node = tree.find(nid)
        assert [
            (decode.node(node, k), table.rewards(values))
            for k, values in enumerate(table[nid])
        ] == [(s.root, gamble_of(s).values) for s in reference]

    assert assert_solves_match(tree, model, None) > 0
    assert_solves_match(tree, model, inner_event(tree, data.draw))

    choice = ChoiceFunction(data.draw(st.sampled_from(RULES)))
    full = solved(lambda: reference_solution(tree, choice, model))
    verdicts = solved(lambda: check_subtree_perfect(tree, choice, model))
    if not isinstance(full, tuple):
        assert verdicts is full
        return
    for v in verdicts:
        outcome, restricted, local = reference_verdict(
            tree, choice, model, full, v.node_id
        )
        assert v.outcome is outcome, v.node_id
        assert portable(v.restricted_solution) == portable(restricted), v.node_id
        assert portable(v.local_solution) == portable(local), v.node_id


# --- the member-sum column and the shared decoder ----------------------------------

#: the rules that read the model's members, each from its sums
MEMBER_RULES = tuple(k for k in choice_module.RULES if k not in choice_module.MODEL_FREE)


def column_problems():
    problems = [p for p in SMALL_EXAMPLES if p[2] is not None]
    for sampler in ("joint", "credal:2", "factored", "hierarchical:2"):
        cfg = FuzzConfig(seed=7, tree_count=6, max_depth=4, model_sampler=sampler)
        problems += [(f"{sampler}-{i}", *gen_random_tree(cfg, i)) for i in range(cfg.tree_count)]
    return problems + [("alternating-23", *build_alternating(seed=23))]


COLUMN_PROBLEMS = column_problems()
column_cases = pytest.mark.parametrize(
    "tree, model", [p[1:] for p in COLUMN_PROBLEMS], ids=[p[0] for p in COLUMN_PROBLEMS]
)


@column_cases
def test_the_member_sum_column_gives_each_node_the_table_of_its_rows(tree, model):
    # At every node, a table built with members holds the member-sum vectors
    # OptionTable.on computes from the value rows; the vectors give the
    # conditional envelopes of exact Fraction arithmetic and the same choice
    # under every rule, or raise the same zero-probability error.  The
    # credal rules share their members, so their table.
    kinds_of: dict = {}
    for kind in MEMBER_RULES:
        members = ChoiceFunction(kind).row_members(model) or ()
        kinds_of.setdefault(members, []).append(kind)
    values = strategy_table(tree)
    for members, kinds in kinds_of.items():
        table = strategy_table(tree, None, members)
        if not (members and table.numeric):
            assert not table.masses and table == values
            continue
        assert list(table) == list(values)
        for node, scope in tree.nodes():
            nid = node.node_id
            rows = values[nid]
            totals = table.masses[scope.members]
            try:
                plain = choice_module.OptionTable.on(scope, rows, members)
            except ZeroProbabilityCondition as exc:
                for kind in kinds:
                    choice = ChoiceFunction(kind)
                    with pytest.raises(ZeroProbabilityCondition, match=re.escape(str(exc))):
                        solver_module._chosen(choice, model, table, scope, table[nid])
                continue
            assert table[nid] == plain.columns, nid
            vectors = choice_module.OptionTable((), list(zip(*table[nid])), totals)
            exact = [[expectation(p, Gamble(scope, values.rewards(row)), scope) for p in members]
                     for row in rows]
            for t in (vectors, plain):
                unit = t.scale * table.denominator
                assert [Fraction(v, unit) for v in t.lower] == list(map(min, exact))
                assert [Fraction(v, unit) for v in t.upper] == list(map(max, exact))
            for kind in kinds:
                choice = ChoiceFunction(kind)
                assert solver_module._chosen(choice, model, table, scope, table[nid]) == (
                    solver_module._chosen(choice, model, values, scope, rows)
                ), (kind, nid)


@column_cases
def test_verdicts_read_off_the_column_equal_the_per_node_reference(tree, model):
    for kind in MEMBER_RULES:
        choice = ChoiceFunction(kind)
        expected = solved(lambda: reference_verdicts(tree, choice, model))
        verdicts = solved(lambda: check_subtree_perfect(tree, choice, model))
        if not isinstance(expected, tuple):
            assert verdicts is expected, kind
            continue
        assert [
            (v.node_id, v.outcome, v.restricted_solution, v.local_solution)
            for v in verdicts
        ] == list(expected), kind


def test_gamma_maximin_computes_no_sum_from_rows_on_a_node_scope(monkeypatch):
    # OptionTable.on is the one place member sums are formed from rows; a
    # check, a conditioned solve and backward induction all read member-sum
    # vectors instead.
    tree, model = build_alternating(seed=23)
    choice = ChoiceFunction("gamma_maximin")
    real = choice_module.OptionTable.on.__func__
    computed = []

    def counting(cls, b, rows, members=()):
        computed.append(len(rows))
        return real(cls, b, rows, members)

    monkeypatch.setattr(choice_module.OptionTable, "on", classmethod(counting))
    verdicts = check_subtree_perfect(tree, choice, model)
    assert computed == []
    assert sum(v.outcome is Outcome.FAIL for v in verdicts) > 0
    # conditioning on a smaller event re-roots the tree on it: its vectors
    # are sums on that event
    _, inner = next((n, s) for n, s in tree.nodes() if s != tree.root_scope)
    assert normal_form_solution(tree, choice, model, inner).strategies
    assert backward_solution(tree, choice, model).strategies
    assert computed == []


def test_a_solution_keeps_no_strategy_table(monkeypatch):
    # The table a solve reads is freed when it returns; the solution's
    # values come from its strategies.
    tree, model = build_alternating(seed=23, levels=4)
    inner = [s for _, s in tree.nodes() if s != tree.root_scope][0]
    choice = ChoiceFunction("maximality")
    real = solver_module.strategy_table
    tables = []

    def spy(*args, **kwargs):
        table = real(*args, **kwargs)
        tables.append(weakref.ref(table))
        return table

    monkeypatch.setattr(solver_module, "strategy_table", spy)
    for solve in (
        lambda: normal_form_solution(tree, choice, model),
        lambda: normal_form_solution(tree, choice, model, inner),
        lambda: backward_solution(tree, choice, model),
    ):
        tables.clear()
        sol = solve()
        gc.collect()
        assert len(tables) == 1 and tables[0]() is None
        assert sol.values == tuple(gamble_of(s).values for s in sol.strategies)


def test_a_preorder_compares_gambles_on_the_conditioning_event():
    tree, model = build_alternating(seed=23, levels=4)
    scopes = []

    def geq(x, y, model, b):
        scopes.extend((x.scope, y.scope))
        return lower_expectation(model.credal, x, b) >= lower_expectation(model.credal, y, b)

    choice = ChoiceFunction("by_preorder", preorder=geq)
    inner = dict.fromkeys(s for _, s in tree.nodes() if s != tree.root_scope)
    for b in inner:
        expected = reference_solution(tree, choice, model, b)
        scopes.clear()
        sol = normal_form_solution(tree, choice, model, b)
        assert scopes and set(scopes) == {b}
        assert sol.strategies == expected


def test_check_builds_each_strategy_it_returns_once(monkeypatch):
    tree, model = build_alternating(seed=23)
    real = Strategy.__post_init__
    built = []

    def counting(self):
        built.append(self)
        real(self)

    monkeypatch.setattr(Strategy, "__post_init__", counting)
    for kind in ("gamma_maximin", "interval_dominance", "maximality", "maximin"):
        built.clear()
        verdicts = check_subtree_perfect(tree, ChoiceFunction(kind), model)
        returned = {
            (v.node_id, kept_children(s.root))
            for v in verdicts
            for s in v.restricted_solution + v.local_solution
        }
        assert returned
        assert len(built) <= len(returned), kind


def test_a_condition_outside_the_root_scope_names_both_events():
    sp = PossibilitySpace(("a", "b", "c"))
    root = decision("D", [("x", leaf("X", 1)), ("y", leaf("Y", 2))])
    tree = DecisionTree(sp, root, sp.event(["a", "b"]))
    model = JointModel(MassFunction.from_mapping(sp, {"a": "1/3", "b": "1/3", "c": "1/3"}))
    for atoms in (["c"], ["b", "c"]):
        b = sp.event(atoms)
        message = f"conditioning event {b!r} is not inside the root scope Event({{a, b}})"
        with pytest.raises(ScopeMismatch, match=f"^{re.escape(message)}$"):
            normal_form_solution(tree, ChoiceFunction("eu"), model, b)
    inside = normal_form_solution(tree, ChoiceFunction("eu"), model, sp.event(["a"]))
    assert len(inside.strategies) == 1
