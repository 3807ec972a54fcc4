"""End-to-end acceptance checks.

One test per shipped behaviour guarantee, every numeric comparison exact
(rationals, set equality, zero tolerance).  Run with ``pytest -v`` to get
one pass/fail line per guarantee.  The property suites at the end are
seeded and deterministic.
"""

import math
import random
import time
from fractions import Fraction

from credaltrees.canonical import (
    CanonicalLimits,
    all_events,
    check_canonical,
)
from credaltrees.choice import ChoiceFunction
from credaltrees.fuzz import FuzzConfig, fuzz_equivalence, gen_random_tree, _composition
from credaltrees.solver import (
    Outcome,
    all_hold,
    backward_induct_eu,
    check_subtree_perfect,
    check_subtree_perfect_at,
    normal_form_solution,
)
from credaltrees.trees import (
    Gamble,
    PossibilitySpace,
    enumerate_strategies,
    gamble_of,
    kept_arcs,
    subtree_at,
)
from credaltrees.uncertainty import (
    CredalModel,
    CredalSet,
    JointModel,
    MassFunction,
    expectation,
    factored_expectation,
    lower_expectation,
    product_credal,
)


def F(n, d=1):
    return Fraction(n, d)


def verdict_map(tree, choice, model):
    return {v.node_id: v for v in check_subtree_perfect(tree, choice, model)}


def test_01_single_stage_eu_solution_and_verdicts(eu1):
    tree, model = eu1
    eu = ChoiceFunction("eu")
    strategies = enumerate_strategies(tree)
    values = tuple(
        expectation(model.p, gamble_of(s), tree.root_scope) for s in strategies
    )
    assert values == (F(6, 5), F(1), F(9, 5), F(2))
    solution = normal_form_solution(tree, eu, model)
    assert [kept_arcs(s) for s in solution.strategies] == [{"N": "to_N2", "N2": "d2"}]
    verdicts = verdict_map(tree, eu, model)
    assert all_hold(tuple(verdicts.values()))
    assert verdicts["N1"].outcome is Outcome.VACUOUS_HOLD
    assert all(
        v.outcome in (Outcome.HOLD, Outcome.VACUOUS_HOLD) for v in verdicts.values()
    )


def test_02_chance_root_eu_holds_with_exact_local_values(eu2):
    tree, model = eu2
    eu = ChoiceFunction("eu")
    values = tuple(
        expectation(model.p, gamble_of(s), tree.root_scope)
        for s in enumerate_strategies(tree)
    )
    assert values == (F(6, 5), F(11, 10))
    verdicts = verdict_map(tree, eu, model)
    assert all_hold(tuple(verdicts.values()))
    assert verdicts["N1"].outcome is Outcome.HOLD
    sub = subtree_at(tree, "N1")
    local_values = tuple(
        expectation(model.p, gamble_of(s), sub.root_scope)
        for s in enumerate_strategies(sub)
    )
    assert local_values == (F(6, 5), F(1))


def test_03_zero_probability_arc_breaks_eu_perfectness(eu3):
    tree, model = eu3
    strategies = enumerate_strategies(tree)
    values = {factored_expectation(model.assessment, s) for s in strategies}
    assert values == {F(6, 5)}
    verdict = check_subtree_perfect_at(tree, ChoiceFunction("eu"), model, "N1")
    assert verdict.outcome is Outcome.FAIL
    assert [kept_arcs(s) for s in verdict.restricted_solution] == [
        {"N1": "d1"},
        {"N1": "d2"},
    ]
    assert [kept_arcs(s) for s in verdict.local_solution] == [{"N1": "d1"}]


def test_04_sequential_tree_strategy_count_and_plan_gamble(lake):
    tree = lake
    strategies = enumerate_strategies(tree)
    assert len(strategies) == 6
    plan = strategies[1]
    assert kept_arcs(plan) == {"N1": "dS", "NS1": "d1", "NS2": "d2"}
    g = gamble_of(plan)
    assert g.as_mapping() == {
        "s1e1": F(9),
        "s1e2": F(14),
        "s2e1": F(4),
        "s2e2": F(19),
    }


def test_05_imprecise_utility_fails_below_the_root(imprecise_utility_problem):
    tree, model = imprecise_utility_problem
    choice = ChoiceFunction("imprecise_utility")
    solution = normal_form_solution(tree, choice, model)
    root_plans = [kept_arcs(s) for s in solution.strategies]
    assert root_plans == [{"N1": "down", "N2": "r1"}, {"N1": "r3"}]
    verdict = check_subtree_perfect_at(tree, choice, model, "N2")
    assert verdict.outcome is Outcome.FAIL
    assert {kept_arcs(s)["N2"] for s in verdict.local_solution} == {"r1", "r2"}
    assert {kept_arcs(s)["N2"] for s in verdict.restricted_solution} == {"r1"}


def test_06_e_admissibility_success_reproduces_global_vs_local_counts(eadm_success):
    tree, model = eadm_success
    choice = ChoiceFunction("e_admissible")
    solution = normal_form_solution(tree, choice, model)
    assert len(enumerate_strategies(tree)) == 4
    assert [kept_arcs(s) for s in solution.strategies] == [
        {"N1": "gamble", "N2": "safe"},
        {"N1": "safe", "N2": "gamble"},
    ]
    verdicts = verdict_map(tree, choice, model)
    assert all_hold(tuple(verdicts.values()))
    for node in ("N1", "N2"):
        v = verdicts[node]
        assert v.outcome is Outcome.HOLD
        sub = subtree_at(tree, node)
        assert len(enumerate_strategies(sub)) == 2
        assert len(v.local_solution) == 2
        assert set(v.restricted_solution) == set(v.local_solution)


def test_07_e_admissibility_failure_with_member_expectations(eadm_failure):
    tree, model = eadm_failure
    choice = ChoiceFunction("e_admissible")
    risky = next(
        s
        for s in enumerate_strategies(tree)
        if kept_arcs(s).get("N2") == "risky"
    )
    member_values = tuple(
        expectation(p, gamble_of(risky), tree.root_scope)
        for p in model.credal.members
    )
    assert member_values == (F(3), F(-3))
    solution = normal_form_solution(tree, choice, model)
    assert [kept_arcs(s) for s in solution.strategies] == [
        {"N1": "down", "N2": "risky"},
        {"N1": "two"},
    ]
    verdict = check_subtree_perfect_at(tree, choice, model, "N2")
    assert verdict.outcome is Outcome.FAIL
    assert {kept_arcs(s)["N2"] for s in verdict.local_solution} == {"risky", "one"}
    assert {kept_arcs(s)["N2"] for s in verdict.restricted_solution} == {"risky"}


def test_08_maximin_keeps_both_plans_globally_but_not_locally(maximin_failure):
    tree, _ = maximin_failure
    choice = ChoiceFunction("maximin")
    solution = normal_form_solution(tree, choice, None)
    assert [kept_arcs(s) for s in solution.strategies] == [
        {"N2": "two"},
        {"N2": "one"},
    ]
    for s in solution.strategies:
        assert min(gamble_of(s).values) == F(0)
    verdict = check_subtree_perfect_at(tree, choice, None, "N2")
    assert verdict.outcome is Outcome.FAIL
    assert [kept_arcs(s) for s in verdict.local_solution] == [{"N2": "two"}]


def test_09_gamma_maximin_preference_reversal(gamma_failure):
    tree, model = gamma_failure
    choice = ChoiceFunction("gamma_maximin")
    lowers = {
        kept_arcs(s)["N1"]: lower_expectation(
            model.credal, gamble_of(s), tree.root_scope
        )
        for s in enumerate_strategies(tree)
    }
    assert lowers == {"gamble": F(1, 2), "safe": F(-1, 5)}
    sub = subtree_at(tree, "N1")
    local_lowers = {
        kept_arcs(s)["N1"]: lower_expectation(
            model.credal, gamble_of(s), sub.root_scope
        )
        for s in enumerate_strategies(sub)
    }
    assert local_lowers == {"gamble": F(-2, 5), "safe": F(0)}
    verdict = check_subtree_perfect_at(tree, choice, model, "N1")
    assert verdict.outcome is Outcome.FAIL
    assert [kept_arcs(s)["N1"] for s in verdict.restricted_solution] == ["gamble"]
    assert [kept_arcs(s)["N1"] for s in verdict.local_solution] == ["safe"]


def test_10_eu_is_subtree_perfect_on_300_random_trees():
    start = time.monotonic()
    eu = ChoiceFunction("eu")
    checked = 0
    for omega_size in (2, 3, 4, 5, 6):
        cfg = FuzzConfig(
            seed=500 + omega_size,
            tree_count=60,
            max_depth=4,
            omega_size=omega_size,
            model_sampler="joint",
        )
        for index in range(cfg.tree_count):
            tree, model = gen_random_tree(cfg, index)
            verdicts = check_subtree_perfect(tree, eu, model)
            assert all_hold(verdicts), f"seed {cfg.seed} index {index}"
            induced = backward_induct_eu(tree, model)
            normal = normal_form_solution(tree, eu, model).strategies
            assert induced == normal, f"seed {cfg.seed} index {index}"
            checked += 1
    assert checked == 300
    assert time.monotonic() - start < 60


def test_11_value_based_rules_distribute_over_500_pool_splits():
    rng = random.Random(4242)
    space = PossibilitySpace(("w1", "w2", "w3", "w4"))
    omega = space.omega()
    members = tuple(MassFunction(space, _composition(rng, 4)) for _ in range(3))
    joint = JointModel(members[0])
    credal = CredalModel(CredalSet(members))
    rules = (
        (ChoiceFunction("eu"), joint),
        (ChoiceFunction("maximin"), None),
        (ChoiceFunction("gamma_maximin"), credal),
        (ChoiceFunction("gamma_maximax"), credal),
    )

    def draw_pool(count):
        return [
            Gamble.from_mapping(
                omega, {a: Fraction(rng.randint(-10, 20)) for a in space.atoms}
            )
            for _ in range(count)
        ]

    for _ in range(500):
        left = draw_pool(rng.randint(1, 5))
        right = draw_pool(rng.randint(1, 5))
        for rule, model in rules:
            direct = frozenset(rule.choose(left + right, model, omega))
            staged = frozenset(
                rule.choose(
                    list(rule.choose(left, model, omega))
                    + list(rule.choose(right, model, omega)),
                    model,
                    omega,
                )
            )
            assert direct == staged, rule.kind


def test_12_canonical_scan_finds_no_counterexamples_where_none_exist():
    start = time.monotonic()
    space = PossibilitySpace(("w1", "w2", "w3", "w4"))
    omega = space.omega()
    rng = random.Random(2026)
    pool = tuple(
        Gamble.from_mapping(
            omega, {a: Fraction(rng.randint(-10, 20)) for a in space.atoms}
        )
        for _ in range(12)
    )
    rng_members = random.Random(7)
    members = tuple(
        MassFunction(space, _composition(rng_members, 4)) for _ in range(2)
    )
    credal = CredalModel(CredalSet(members))
    joint = JointModel(members[0])

    two_decision = CanonicalLimits(max_xs=3, max_ys=3, shapes=("b",))
    for kind, model in (
        ("eu", joint),
        ("maximin", None),
        ("gamma_maximin", credal),
        ("gamma_maximax", credal),
    ):
        report = check_canonical(ChoiceFunction(kind), model, space, pool, two_decision)
        assert report.passed, f"{kind}: failure at {report.failing_nodes}"

    chance_root = CanonicalLimits(max_xs=3, max_ys=3, shapes=("a",))
    for kind in ("maximality", "e_admissible"):
        report = check_canonical(ChoiceFunction(kind), credal, space, pool, chance_root)
        assert report.passed, f"{kind}: failure at {report.failing_nodes}"

    rng_models = random.Random(99)
    for split in all_events(space):
        if split == omega:
            continue
        cells = [split, split.complement()]
        marginals = [_composition(rng_models, 2) for _ in range(2)]
        conditionals = [
            [
                dict(zip(cell.ordered, _composition(rng_models, len(cell))))
                for _ in range(2)
            ]
            for cell in cells
        ]
        model = CredalModel(product_credal(space, cells, marginals, conditionals))
        limits = CanonicalLimits(
            max_xs=3,
            max_ys=3,
            shapes=("a",),
            events_a=(split,),
            require_marginal_extension=True,
            verify_sample=4,
        )
        report = check_canonical(
            ChoiceFunction("gamma_maximin"), model, space, pool, limits
        )
        assert report.passed, f"gamma_maximin on split {split!r}"
    assert time.monotonic() - start < 10


def test_13_fuzz_failures_reduce_to_two_decision_counterexamples():
    start = time.monotonic()
    for kind in ("maximality", "e_admissible"):
        report = fuzz_equivalence(
            ChoiceFunction(kind), "credal:2", FuzzConfig(seed=11, tree_count=200)
        )
        failing = report.failing
        assert len(failing) >= 1, kind
        assert all(record.nested_decision for record in failing), kind
        assert report.theorem_inconsistency == (), kind
        assert (
            report.reduced_shape_b >= math.ceil(F(9, 10) * len(failing))
        ), f"{kind}: {report.reduced_shape_b} of {len(failing)}"
        assert (
            report.reduced_shape_b + report.reduced_shape_a + report.missed
            == len(failing)
        ), kind
    assert time.monotonic() - start < 300
