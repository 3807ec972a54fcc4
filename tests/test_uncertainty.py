from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from credaltrees import (
    ChoiceFunction,
    CredalSet,
    CredalTreeError,
    DecisionTree,
    FactoredModel,
    FuzzConfig,
    Gamble,
    GambleLeaf,
    InconsistentAssessment,
    JointModel,
    Leaf,
    MassFunction,
    PossibilitySpace,
    Strategy,
    TreeFactoredAssessment,
    UnknownLabel,
    UnrepresentableGamble,
    UtilityFunctionSet,
    UtilityModel,
    ZeroProbabilityCondition,
    chance,
    check_subtree_perfect,
    decision,
    expectation,
    factored_expectation,
    gamble_of,
    enumerate_strategies,
    gen_random_tree,
    kept_arcs,
    leaf,
    lower_expectation,
    normal_form_solution,
    precise_gamble_value,
    product_credal,
    strategy_table,
    upper_expectation,
    utility_expectations,
    validate_tree,
)
from credaltrees.uncertainty import _numeric, _row_values

from conftest import (
    build_eu2,
    build_eu3,
    build_imprecise_utility,
    reference_factored_expectation,
    reference_utility_expectations,
    relabel,
)


@pytest.fixture
def abc():
    return PossibilitySpace(("a", "b", "c"))


def test_mass_function_validation(abc):
    with pytest.raises(ValueError):
        MassFunction.from_mapping(abc, {"a": Fraction(1, 2), "b": Fraction(1, 2), "c": 1})
    with pytest.raises(ValueError):
        MassFunction.from_mapping(abc, {"a": Fraction(-1, 2), "b": 1, "c": Fraction(1, 2)})


def test_mass_and_event_probability(abc):
    p = MassFunction.from_mapping(abc, {"a": Fraction(1, 2), "b": Fraction(1, 3), "c": Fraction(1, 6)})
    assert p.mass("b") == Fraction(1, 3)
    assert p.prob(abc.event(["a", "b"])) == Fraction(5, 6)
    assert p.is_strictly_positive
    q = MassFunction.from_mapping(abc, {"a": Fraction(1, 2), "b": Fraction(1, 2), "c": 0})
    assert not q.is_strictly_positive


def test_conditional_expectation_is_the_ratio(abc):
    p = MassFunction.from_mapping(abc, {"a": Fraction(1, 2), "b": Fraction(1, 4), "c": Fraction(1, 4)})
    x = Gamble.from_mapping(abc.omega(), {"a": 4, "b": 0, "c": 8})
    ab = abc.event(["a", "b"])
    assert expectation(p, x, ab) == Fraction(8, 3)
    assert expectation(p, x, abc.omega()) == Fraction(4)


def test_zero_probability_conditioning_is_an_error(abc):
    p = MassFunction.from_mapping(abc, {"a": Fraction(1, 2), "b": Fraction(1, 2), "c": 0})
    x = Gamble.constant(abc.omega(), Fraction(1))
    with pytest.raises(ZeroProbabilityCondition):
        expectation(p, x, abc.event(["c"]))


def test_credal_envelopes(abc):
    p1 = MassFunction.from_mapping(abc, {"a": Fraction(1, 2), "b": Fraction(1, 4), "c": Fraction(1, 4)})
    p2 = MassFunction.from_mapping(abc, {"a": Fraction(1, 4), "b": Fraction(1, 2), "c": Fraction(1, 4)})
    m = CredalSet((p1, p2))
    x = Gamble.from_mapping(abc.omega(), {"a": 4, "b": 0, "c": 2})
    assert lower_expectation(m, x, abc.omega()) == Fraction(3, 2)
    assert upper_expectation(m, x, abc.omega()) == Fraction(5, 2)
    # conditioning narrows to the event before enveloping
    ab = abc.event(["a", "b"])
    assert lower_expectation(m, x, ab) == Fraction(4, 3)
    assert upper_expectation(m, x, ab) == Fraction(8, 3)


def test_singleton_credal_set_matches_the_joint(abc):
    p = MassFunction.from_mapping(abc, {"a": Fraction(1, 3), "b": Fraction(1, 3), "c": Fraction(1, 3)})
    m = CredalSet((p,))
    x = Gamble.from_mapping(abc.omega(), {"a": 1, "b": 5, "c": 0})
    assert lower_expectation(m, x, abc.omega()) == expectation(p, x, abc.omega())
    assert upper_expectation(m, x, abc.omega()) == expectation(p, x, abc.omega())


def test_factored_assessment_needs_every_chance_node():
    tree, _ = build_eu2()
    with pytest.raises(Exception):
        TreeFactoredAssessment(tree, {"N": (Fraction(1, 2), Fraction(1, 2))})


def test_factored_rows_must_be_distributions():
    tree, _ = build_eu2()
    rows = {
        "N": (Fraction(1, 2), Fraction(1, 2)),
        "N1c1": (Fraction(3, 5), Fraction(2, 5)),
        "N1c2": (Fraction(3, 5), Fraction(2, 5)),
        "N2": (Fraction(2, 5), Fraction(2, 5)),
    }
    with pytest.raises(ValueError):
        TreeFactoredAssessment(tree, rows)


def _two_roads_to_one_gamble():
    """Two chance nodes realise the same gamble under different arc rows."""
    sp = PossibilitySpace(("e1", "e2"))
    E1, E2 = sp.event(["e1"]), sp.event(["e2"])
    root = decision(
        "N",
        [
            ("d1", chance("C1", [(E1, leaf("L1", 1)), (E2, leaf("L2", 0))])),
            ("d2", chance("C2", [(E1, leaf("L3", 1)), (E2, leaf("L4", 0))])),
        ],
    )
    tree = validate_tree(DecisionTree(sp, root))
    a = TreeFactoredAssessment(
        tree, {"C1": (Fraction(1, 2), Fraction(1, 2)), "C2": (Fraction(1, 3), Fraction(2, 3))}
    )
    return sp, FactoredModel(a)


def test_conflicting_assessments_of_one_gamble_are_rejected():
    sp, model = _two_roads_to_one_gamble()
    x = Gamble.from_mapping(sp.omega(), {"e1": 1, "e2": 0})
    with pytest.raises(InconsistentAssessment):
        precise_gamble_value(model, x, sp.omega())


def test_gambles_no_strategy_induces_are_rejected():
    sp, model = _two_roads_to_one_gamble()
    x = Gamble.from_mapping(sp.omega(), {"e1": 0, "e2": 1})
    with pytest.raises(UnrepresentableGamble):
        precise_gamble_value(model, x, sp.omega())


def test_factored_expectation_multiplies_along_paths():
    tree, _ = build_eu2()
    a = TreeFactoredAssessment(
        tree,
        {
            "N": (Fraction(1, 2), Fraction(1, 2)),
            "N1c1": (Fraction(3, 5), Fraction(2, 5)),
            "N1c2": (Fraction(3, 5), Fraction(2, 5)),
            "N2": (Fraction(2, 5), Fraction(3, 5)),
        },
    )
    strats = enumerate_strategies(tree)
    # both strategies agree with the joint-model expectations 6/5 and 11/10
    vals = sorted(factored_expectation(a, s) for s in strats)
    assert vals == [Fraction(11, 10), Fraction(6, 5)]


def test_factored_expectation_survives_zero_probability_arcs():
    tree, model = build_eu3()
    strats = enumerate_strategies(tree)
    vals = {factored_expectation(model.assessment, s) for s in strats}
    assert vals == {Fraction(6, 5)}
    # under the zero-mass branch, the local value is still defined per node
    sub_vals = sorted(
        factored_expectation(model.assessment, s, node_id="N1") for s in strats
    )
    assert sub_vals == [Fraction(1), Fraction(6, 5)]


def test_precise_gamble_value_agrees_across_model_kinds():
    tree, joint = build_eu2()
    _, factored = build_eu3()
    strats = enumerate_strategies(tree)
    x = gamble_of(strats[0])
    b = tree.root_scope
    assert precise_gamble_value(joint, x, b) == expectation(joint.p, x, b)
    assert isinstance(precise_gamble_value(factored, x, b), Fraction)


def test_utility_function_sets_score_labelled_gambles():
    tree, model = build_imprecise_utility()
    strats = enumerate_strategies(tree)
    by_label = {gamble_of(s).values_on(tree.root_scope)[0]: s for s in strats}
    r1 = utility_expectations(model.utilities, model.chance, by_label["r1"])
    r3 = utility_expectations(model.utilities, model.chance, by_label["r3"])
    assert r1 == (Fraction(3), Fraction(-3))
    assert r3 == (Fraction(2), Fraction(2))


def test_unknown_reward_label_is_an_error():
    tree, model = build_imprecise_utility()
    strats = enumerate_strategies(tree)
    bad = UtilityFunctionSet.from_tables([{"r1": Fraction(1), "r2": Fraction(1)}])
    victim = next(
        s for s in strats if gamble_of(s).values_on(tree.root_scope)[0] == "r3"
    )
    with pytest.raises(UnknownLabel):
        utility_expectations(bad, None, victim)


# --- the row values against the per-strategy walkers ----------------------------


def label_utilities(tree):
    """For the tree relabelled by `str`: u1 maps the label str(r) back to r,
    and u2 maps it to r cubed."""
    rewards = set()
    for node, _ in tree.nodes():
        if isinstance(node, Leaf):
            rewards.add(node.reward)
        elif isinstance(node, GambleLeaf):
            rewards.update(node.gamble.values)
    return UtilityFunctionSet(
        ({str(r): r for r in rewards}, {str(r): r**3 for r in rewards})
    )


def assert_rows_match_the_walkers(tree, a):
    table = strategy_table(tree)
    numeric = _row_values(a, table, _numeric)
    labelled = relabel(tree, str)
    la = TreeFactoredAssessment(labelled, a.arc_probs)
    u = label_utilities(tree)
    columns = _row_values(la, strategy_table(labelled), u.values_of)
    for node, scope in tree.nodes():
        nid = node.node_id
        assert len(numeric[nid]) == len(columns[nid]) == len(table[nid])
        for k in range(len(table[nid])):
            s = Strategy(tree.space, table.variant(node, k), scope)
            assert numeric[nid][k] == (reference_factored_expectation(a, s),)
            assert columns[nid][k] == reference_utility_expectations(
                u, la, relabel(s, str)
            )


@given(st.integers(0, 10**6), st.integers(2, 4))
@settings(max_examples=40, deadline=None)
def test_row_values_match_the_walkers_on_factored_fuzz_trees(seed, depth):
    cfg = FuzzConfig(seed=seed, tree_count=1, max_depth=depth, model_sampler="factored")
    tree, model = gen_random_tree(cfg, 0)
    assert_rows_match_the_walkers(tree, model.assessment)


def test_row_values_match_the_walkers_across_a_zero_probability_arc():
    tree, model = build_eu3()
    assert_rows_match_the_walkers(tree, model.assessment)


def _outcome(compute):
    """What *compute* returns, or the type of the package error it raises."""
    try:
        return compute()
    except CredalTreeError as exc:
        return type(exc)


@given(
    st.integers(0, 10**6),
    st.sampled_from(("joint", "factored")),
    st.integers(2, 4),
)
@settings(max_examples=30, deadline=None)
def test_imprecise_utility_keeps_what_eu_keeps_under_some_function(seed, sampler, depth):
    cfg = FuzzConfig(seed=seed, tree_count=1, max_depth=depth, model_sampler=sampler)
    tree, model = gen_random_tree(cfg, 0)
    u = label_utilities(tree)
    labelled = relabel(tree, str)

    def chance_on(t):
        """The model's chance part on a relabelling of the tree (same ids)."""
        if isinstance(model, JointModel):
            return model
        return FactoredModel(TreeFactoredAssessment(t, model.assessment.arc_probs))

    eu, iu = ChoiceFunction("eu"), ChoiceFunction("imprecise_utility")
    eu_kept = []
    for table in u.functions:
        t = relabel(labelled, table.__getitem__)
        eu_kept.append(_outcome(lambda: normal_form_solution(t, eu, chance_on(t)).indices))
    both = UtilityModel(u, chance_on(labelled))
    iu_kept = _outcome(lambda: normal_form_solution(labelled, iu, both).indices)
    errors = {e for e in eu_kept if not isinstance(e, tuple)}
    if errors:
        assert iu_kept in errors
    else:
        assert iu_kept == tuple(sorted(set().union(*eu_kept)))

    def verdicts(t, choice, m):
        return _outcome(
            lambda: [
                (v.node_id, v.outcome, [kept_arcs(s) for s in v.local_solution])
                for v in check_subtree_perfect(t, choice, m)
            ]
        )

    only_u1 = UtilityModel(UtilityFunctionSet(u.functions[:1]), chance_on(labelled))
    assert verdicts(labelled, iu, only_u1) == verdicts(tree, eu, chance_on(tree))


def test_utility_expectations_take_a_factored_chance_part():
    sp = PossibilitySpace(("e1", "e2"))
    root = decision(
        "D",
        [
            ("risky", chance("C", [(sp.event(["e1"]), leaf("L1", "r1")),
                                   (sp.event(["e2"]), leaf("L2", "r2"))])),
            ("safe", leaf("L3", "r3")),
        ],
    )
    tree = validate_tree(DecisionTree(sp, root))
    chance_part = FactoredModel(
        TreeFactoredAssessment(tree, {"C": (Fraction(1, 2), Fraction(1, 2))})
    )
    u = UtilityFunctionSet.from_tables(
        [{"r1": 4, "r2": 0, "r3": 1}, {"r1": 0, "r2": 0, "r3": 1}]
    )
    risky, safe = enumerate_strategies(tree)
    assert utility_expectations(u, chance_part, risky) == (Fraction(2), Fraction(0))
    assert utility_expectations(u, chance_part, safe) == (Fraction(1), Fraction(1))
    partial_u = UtilityFunctionSet.from_tables([{"r1": 4, "r2": 0}])
    with pytest.raises(UnknownLabel):
        utility_expectations(partial_u, chance_part, safe)


def test_product_credal_combines_families():
    sp = PossibilitySpace(("a1b1", "a1b2", "a2b1", "a2b2"))
    A1 = sp.event(["a1b1", "a1b2"])
    A2 = sp.event(["a2b1", "a2b2"])
    cs = product_credal(
        sp,
        [A1, A2],
        [[Fraction(1, 2), Fraction(1, 2)], [Fraction(1, 4), Fraction(3, 4)]],
        [
            [
                {"a1b1": Fraction(3, 5), "a1b2": Fraction(2, 5)},
                {"a1b1": Fraction(1, 2), "a1b2": Fraction(1, 2)},
            ],
            [
                {"a2b1": Fraction(1, 5), "a2b2": Fraction(4, 5)},
                {"a2b1": Fraction(1, 2), "a2b2": Fraction(1, 2)},
            ],
        ],
    )
    assert len(cs.members) == 8
    tables = {tuple(m.mass(a) for a in sp.atoms) for m in cs.members}
    assert (Fraction(3, 10), Fraction(1, 5), Fraction(1, 10), Fraction(2, 5)) in tables


def test_product_credal_lower_expectation_decomposes_in_stages():
    sp = PossibilitySpace(("a1b1", "a1b2", "a2b1", "a2b2"))
    A1 = sp.event(["a1b1", "a1b2"])
    A2 = sp.event(["a2b1", "a2b2"])
    margs = [[Fraction(1, 2), Fraction(1, 2)], [Fraction(1, 3), Fraction(2, 3)]]
    conds = [
        [
            {"a1b1": Fraction(3, 5), "a1b2": Fraction(2, 5)},
            {"a1b1": Fraction(1, 4), "a1b2": Fraction(3, 4)},
        ],
        [
            {"a2b1": Fraction(1, 5), "a2b2": Fraction(4, 5)},
            {"a2b1": Fraction(2, 3), "a2b2": Fraction(1, 3)},
        ],
    ]
    cs = product_credal(sp, [A1, A2], margs, conds)
    x = Gamble.from_mapping(
        sp.omega(), {"a1b1": 7, "a1b2": -2, "a2b1": 0, "a2b2": 5}
    )
    # stage one: the lower value within each cell
    inner = [lower_expectation(cs, x, A1), lower_expectation(cs, x, A2)]
    # stage two: the lower expectation of the cell-wise values over the marginals
    staged = min(
        sum(w * v for w, v in zip(row, inner)) for row in margs
    )
    assert lower_expectation(cs, x, sp.omega()) == staged


# --- randomized envelope sanity --------------------------------------------------


@st.composite
def credal_and_gamble(draw):
    atoms = tuple(f"w{i}" for i in range(draw(st.integers(2, 4))))
    sp = PossibilitySpace(atoms)

    def member():
        weights = [draw(st.integers(1, 9)) for _ in atoms]
        total = sum(weights)
        return MassFunction.from_mapping(
            sp, {a: Fraction(w, total) for a, w in zip(atoms, weights)}
        )

    m = CredalSet(tuple(member() for _ in range(draw(st.integers(1, 3)))))
    x = Gamble.from_mapping(
        sp.omega(), {a: draw(st.integers(-10, 10)) for a in atoms}
    )
    return sp, m, x


@given(credal_and_gamble())
@settings(max_examples=80, deadline=None)
def test_lower_never_exceeds_upper(data):
    sp, m, x = data
    lo = lower_expectation(m, x, sp.omega())
    hi = upper_expectation(m, x, sp.omega())
    assert lo <= hi
    values = [v for _, v in x.items()]
    assert min(values) <= lo and hi <= max(values)


@given(credal_and_gamble(), st.integers(-5, 5))
@settings(max_examples=80, deadline=None)
def test_envelopes_are_affine_in_constants(data, c):
    sp, m, x = data
    shifted = x.map_values(lambda v: v + c)
    assert lower_expectation(m, shifted, sp.omega()) == lower_expectation(m, x, sp.omega()) + c
    assert upper_expectation(m, shifted, sp.omega()) == upper_expectation(m, x, sp.omega()) + c
