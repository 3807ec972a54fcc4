from fractions import Fraction

import pytest

import credaltrees.solver as solver_module
from credaltrees import (
    ChoiceFunction,
    DecisionNode,
    DecisionTree,
    JointModel,
    MassFunction,
    Outcome,
    PossibilitySpace,
    all_hold,
    backward_induct_eu,
    check_subtree_perfect,
    check_subtree_perfect_at,
    decision,
    enumerate_strategies,
    expectation,
    gamble_of,
    leaf,
    lower_expectation,
    normal_form_solution,
    restrict_solution,
    subtree_at,
    validate_tree,
)

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
)


def kept(strategy):
    return {
        n.node_id: n.arcs[0].label
        for n, _ in strategy.nodes()
        if isinstance(n, DecisionNode)
    }


EU = ChoiceFunction("eu")


# --- two-stage root choice under a precise model ---------------------------------


def test_precise_root_choice_values_and_solution(eu1):
    tree, model = eu1
    strats = enumerate_strategies(tree)
    values = sorted(expectation(model.p, gamble_of(s), tree.root_scope) for s in strats)
    assert values == [Fraction(1), Fraction(6, 5), Fraction(9, 5), Fraction(2)]
    sol = normal_form_solution(tree, EU, model)
    assert [kept(s) for s in sol.strategies] == [{"N": "to_N2", "N2": "d2"}]


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
    assert [kept(s) for s in sol.strategies] == [{"N1": "d1"}, {"N1": "d2"}]
    verdicts = {v.node_id: v for v in check_subtree_perfect(tree, EU, model)}
    v = verdicts["N1"]
    assert v.outcome is Outcome.FAIL
    # the witness: the restriction keeps the d2 path, the local solution does not
    assert [kept(s) for s in v.restricted_solution] == [{"N1": "d1"}, {"N1": "d2"}]
    assert [kept(s) for s in v.local_solution] == [{"N1": "d1"}]
    assert not all_hold(verdicts.values())


# --- imprecise utilities and partial preferences ----------------------------------


def test_imprecise_utility_nested_choice_fails(imprecise_utility_problem):
    tree, model = imprecise_utility_problem
    cf = ChoiceFunction("imprecise_utility")
    sol = normal_form_solution(tree, cf, model)
    assert [kept(s) for s in sol.strategies] == [
        {"N1": "down", "N2": "r1"},
        {"N1": "r3"},
    ]
    verdicts = {v.node_id: v for v in check_subtree_perfect(tree, cf, model)}
    assert verdicts["N2"].outcome is Outcome.FAIL
    assert [kept(s) for s in verdicts["N2"].local_solution] == [
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
    assert [kept(s) for s in sol.strategies] == [
        {"N1": "down", "N2": "x1"},
        {"N1": "x3"},
    ]
    verdicts = {v.node_id: v for v in check_subtree_perfect(tree, cf, None)}
    assert verdicts["N2"].outcome is Outcome.FAIL
    assert [kept(s) for s in verdicts["N2"].local_solution] == [
        {"N2": "x1"},
        {"N2": "x2"},
    ]


# --- e-admissibility: one success, one failure ------------------------------------


def test_e_admissible_mirrored_tree_is_subtree_perfect(eadm_success):
    tree, model = eadm_success
    cf = ChoiceFunction("e_admissible")
    sol = normal_form_solution(tree, cf, model)
    assert len(enumerate_strategies(tree)) == 4
    assert [kept(s) for s in sol.strategies] == [
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
        if kept(s).get("N2") == "risky"
    )
    members = model.credal.members
    values = sorted(expectation(p, risky, tree.root_scope) for p in members)
    assert values == [Fraction(-3), Fraction(3)]
    sol = normal_form_solution(tree, cf, model)
    assert [kept(s) for s in sol.strategies] == [
        {"N1": "down", "N2": "risky"},
        {"N1": "two"},
    ]
    verdicts = {v.node_id: v for v in check_subtree_perfect(tree, cf, model)}
    v = verdicts["N2"]
    assert v.outcome is Outcome.FAIL
    assert [kept(s) for s in v.restricted_solution] == [{"N2": "risky"}]
    assert [kept(s) for s in v.local_solution] == [{"N2": "risky"}, {"N2": "one"}]


# --- worst-case and lower-envelope rules break below chance nodes ------------------


def test_maximin_fails_below_a_chance_node(maximin_failure):
    tree, _ = maximin_failure
    cf = ChoiceFunction("maximin")
    sol = normal_form_solution(tree, cf, None)
    assert len(sol.strategies) == 2  # both strategies bottom out at 0
    verdicts = {v.node_id: v for v in check_subtree_perfect(tree, cf, None)}
    v = verdicts["N2"]
    assert v.outcome is Outcome.FAIL
    assert [kept(s) for s in v.local_solution] == [{"N2": "two"}]
    assert [kept(s) for s in v.restricted_solution] == [
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
    assert [kept(s) for s in sol.strategies] == [{"N1": "gamble"}]

    sub = subtree_at(tree, "N1")
    sub_lowers = sorted(
        lower_expectation(m, gamble_of(s), sub.root_scope)
        for s in enumerate_strategies(sub)
    )
    assert sub_lowers == [Fraction(-2, 5), Fraction(0)]
    local = normal_form_solution(sub, cf, model)
    assert [kept(s) for s in local.strategies] == [{"N1": "safe"}]

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
    assert [kept(s) for s in restrict_solution(sol, "N2")] == [{"N2": "d2"}]
    assert restrict_solution(sol, "N1") == ()


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


def test_backward_induction_agrees_with_the_normal_form(eu1, eu2):
    for tree, model in (eu1, eu2):
        nf = normal_form_solution(tree, EU, model)
        assert set(backward_induct_eu(tree, model)) == set(nf.strategies)


def test_conditioned_solving_restricts_the_comparison(eu1):
    tree, model = eu1
    e1 = tree.space.event(["e1"])
    sol = normal_form_solution(tree, EU, model, e1)
    assert sol.conditioning.ordered == ("e1",)
    # given e1 the best gamble pays 4
    assert [kept(s) for s in sol.strategies] == [{"N": "to_N2", "N2": "d2"}]
    e2 = tree.space.event(["e2"])
    sol2 = normal_form_solution(tree, EU, model, e2)
    assert [kept(s) for s in sol2.strategies] == [{"N": "to_N1", "N1": "d2"}]


@pytest.mark.parametrize(
    "build, choice",
    [
        (build_eu1, EU),
        (build_eu2, EU),
        (build_eadm_failure, ChoiceFunction("e_admissible")),
        (build_gamma_failure, ChoiceFunction("gamma_maximin")),
        (build_imprecise_utility, ChoiceFunction("imprecise_utility")),
    ],
)
def test_check_solves_the_full_tree_once_and_each_reached_node_once(
    monkeypatch, build, choice
):
    tree, model = build()
    real = solver_module.normal_form_solution
    solved = []

    def counting(t, *args, **kwargs):
        solved.append(t.root.node_id)
        return real(t, *args, **kwargs)

    monkeypatch.setattr(solver_module, "normal_form_solution", counting)
    verdicts = check_subtree_perfect(tree, choice, model)
    root_id = tree.root.node_id
    posed = [
        v.node_id
        for v in verdicts
        if v.outcome is not Outcome.VACUOUS_HOLD and v.node_id != root_id
    ]
    assert solved == [root_id] + posed

    root = verdicts[0]
    assert root.node_id == root_id
    assert root.outcome is Outcome.HOLD
    full = real(tree, choice, model)
    assert root.restricted_solution == root.local_solution == full.strategies

    solved.clear()
    alone = check_subtree_perfect_at(tree, choice, model, root_id)
    assert solved == [root_id]
    assert alone.outcome is root.outcome
    assert alone.restricted_solution == root.restricted_solution
    assert alone.local_solution == root.local_solution


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
