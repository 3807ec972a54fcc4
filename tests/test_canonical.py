from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from credaltrees import (
    CanonicalInstanceA,
    CanonicalInstanceB,
    CanonicalLimits,
    ChoiceFunction,
    CredalModel,
    CredalSet,
    Gamble,
    InstanceInvalid,
    JointModel,
    MassFunction,
    Outcome,
    PossibilitySpace,
    check_canonical,
    check_subtree_perfect,
    make_canonical_a,
    make_canonical_b,
    product_credal,
)

from credaltrees import canonical
from credaltrees.canonical import _Checker, _chosen_classes, _pair_at, _pairs
from credaltrees.choice import RULES

from conftest import build_maximin_failure, dominance_pools


def g(sp, *values):
    return Gamble.from_mapping(
        sp.omega(), {a: Fraction(v) for a, v in zip(sp.atoms, values)}
    )


@pytest.fixture
def w2():
    sp = PossibilitySpace(("w1", "w2"))
    p1 = MassFunction.from_mapping(sp, {"w1": Fraction(1, 4), "w2": Fraction(3, 4)})
    p2 = MassFunction.from_mapping(sp, {"w1": Fraction(3, 4), "w2": Fraction(1, 4)})
    return sp, CredalModel(CredalSet((p1, p2)))


# --- the two generated shapes ------------------------------------------------------


def test_shape_a_reproduces_the_chance_above_decision_failure(maximin_failure):
    """The hand-built worst-case failure tree is exactly a shape-(a) instance:
    a chance split, two options on one side, a single gamble on the other."""
    handmade, _ = maximin_failure
    sp = handmade.space
    A = sp.event(["a1"])
    inst = CanonicalInstanceA(
        a=A,
        xs=(
            Gamble.from_mapping(A, {"a1": Fraction(2)}),
            Gamble.from_mapping(A, {"a1": Fraction(1)}),
        ),
        z=Gamble.from_mapping(A.complement(), {"a2": Fraction(0)}),
        b=sp.omega(),
    )
    tree = make_canonical_a(inst)
    assert tree.root.node_id == "N"
    cf = ChoiceFunction("maximin")
    mine = {v.node_id: v.outcome for v in check_subtree_perfect(tree, cf, None)}
    assert mine["N1"] is Outcome.FAIL
    theirs = {v.node_id: v.outcome for v in check_subtree_perfect(handmade, cf, None)}
    assert theirs["N2"] is Outcome.FAIL


def test_shape_b_reproduces_the_two_decision_failure():
    """The imprecise-utility failure is a shape-(b) instance, with the single
    alternative spelled as a one-option decision instead of a bare leaf."""
    sp = PossibilitySpace(("w1", "w2"))
    p1 = MassFunction.from_mapping(sp, {"w1": Fraction(1, 4), "w2": Fraction(3, 4)})
    p2 = MassFunction.from_mapping(sp, {"w1": Fraction(3, 4), "w2": Fraction(1, 4)})
    model = CredalModel(CredalSet((p1, p2)))
    inst = CanonicalInstanceB(
        xs=(g(sp, 1, 0), g(sp, 0, 1)),
        ys=(g(sp, Fraction(1, 10), Fraction(11, 10)),),
        b=sp.omega(),
    )
    tree = make_canonical_b(inst)
    assert tree.root.node_id == "N"
    kinds = {n.node_id for n, _ in tree.nodes()}
    assert {"N", "N1", "N2"} <= kinds
    # the singleton y dominates x2 pointwise-in-expectation, so the global
    # solution thins N1's options while the local solve keeps both
    verdicts = {
        v.node_id: v.outcome
        for v in check_subtree_perfect(tree, ChoiceFunction("maximality"), model)
    }
    assert verdicts["N1"] is Outcome.FAIL
    assert verdicts["N2"] is Outcome.HOLD


def test_instance_validation():
    sp = PossibilitySpace(("w1", "w2"))
    A = sp.event(["w1"])
    with pytest.raises(InstanceInvalid):
        CanonicalInstanceA(a=sp.omega(), xs=(g(sp, 1, 1),), z=g(sp, 0, 0), b=sp.omega())
    with pytest.raises(InstanceInvalid):
        CanonicalInstanceB(xs=(), ys=(g(sp, 1, 1),), b=sp.omega())
    with pytest.raises(InstanceInvalid):
        CanonicalInstanceB(xs=(g(sp, 1, 1),), ys=(g(sp, 1, 1),), b=sp.empty())


# --- scanning: negatives are found and cross-checked -------------------------------


def test_scan_finds_the_maximality_counterexample(w2):
    sp, model = w2
    pool = [g(sp, 1, 0), g(sp, 0, 1), g(sp, Fraction(1, 10), Fraction(11, 10))]
    report = check_canonical(
        ChoiceFunction("maximality"), model, sp, pool, CanonicalLimits(shapes=("b",))
    )
    assert not report.passed
    assert report.shape == "b"
    assert report.failing_nodes and report.failing_nodes[0].startswith("N")
    assert report.instances_verified >= 1
    assert "confirmed" in report.note


def test_scan_finds_the_worst_case_shape_a_counterexample():
    sp = PossibilitySpace(("a1", "a2"))
    pool = [g(sp, 2, 0), g(sp, 1, 0), g(sp, 0, 0)]
    report = check_canonical(
        ChoiceFunction("maximin"), None, sp, pool, CanonicalLimits(shapes=("a",))
    )
    assert not report.passed
    assert report.shape == "a"
    assert report.failing_nodes == ("N1",)


def test_scan_passes_expected_utility_everywhere(w2):
    sp, _ = w2
    model = JointModel(MassFunction.from_mapping(sp, {"w1": Fraction(2, 5), "w2": Fraction(3, 5)}))
    pool = [g(sp, 1, 0), g(sp, 0, 1), g(sp, 2, -1), g(sp, 1, 1)]
    report = check_canonical(ChoiceFunction("eu"), model, sp, pool)
    assert report.passed
    assert report.instance is None
    assert report.instances_examined + report.instances_skipped == report.instances_total


def test_gamma_needs_marginal_extension_on_shape_a():
    sp = PossibilitySpace(("w1", "w2", "w3"))

    def mk(*t):
        return MassFunction.from_mapping(sp, dict(zip(sp.atoms, t)))

    model = CredalModel(
        CredalSet(
            (
                mk(Fraction(1, 4), Fraction(3, 10), Fraction(9, 20)),
                mk(Fraction(1, 13), Fraction(8, 13), Fraction(4, 13)),
                mk(Fraction(1, 6), Fraction(1, 2), Fraction(1, 3)),
            )
        )
    )
    pool = [g(sp, 0, 2, 8), g(sp, -2, 1, 3), g(sp, -4, 4, -2), g(sp, -5, 6, -2)]
    free = check_canonical(
        ChoiceFunction("gamma_maximin"), model, sp, pool, CanonicalLimits(shapes=("a",))
    )
    assert not free.passed  # a general credal set breaks the lower envelope in stages
    assert free.failing_nodes == ("N1",)
    filtered = check_canonical(
        ChoiceFunction("gamma_maximin"),
        model,
        sp,
        pool,
        CanonicalLimits(shapes=("a",), require_marginal_extension=True),
    )
    assert filtered.passed
    assert filtered.instances_skipped > 0


def test_gamma_passes_shape_a_under_a_product_model():
    sp = PossibilitySpace(("a1b1", "a1b2", "a2b1", "a2b2"))
    A1 = sp.event(["a1b1", "a1b2"])
    A2 = sp.event(["a2b1", "a2b2"])
    cs = product_credal(
        sp,
        [A1, A2],
        [[Fraction(1, 2), Fraction(1, 2)], [Fraction(1, 5), Fraction(4, 5)]],
        [
            [
                {"a1b1": Fraction(3, 5), "a1b2": Fraction(2, 5)},
                {"a1b1": Fraction(1, 4), "a1b2": Fraction(3, 4)},
            ],
            [
                {"a2b1": Fraction(1, 5), "a2b2": Fraction(4, 5)},
                {"a2b1": Fraction(1, 2), "a2b2": Fraction(1, 2)},
            ],
        ],
    )
    pool = [
        g(sp, 4, 0, 1, 3),
        g(sp, 0, 4, 2, 2),
        g(sp, 1, 1, 0, 5),
    ]
    report = check_canonical(
        ChoiceFunction("gamma_maximin"),
        CredalModel(cs),
        sp,
        pool,
        CanonicalLimits(
            shapes=("a",), events_a=(A1,), require_marginal_extension=True
        ),
    )
    assert report.passed
    assert report.instances_examined > 0


# --- scanning mechanics -------------------------------------------------------------


def test_reports_are_deterministic(w2):
    sp, model = w2
    pool = [g(sp, 1, 0), g(sp, 0, 1), g(sp, 2, -1)]
    limits = CanonicalLimits(max_instances=50)
    one = check_canonical(ChoiceFunction("maximality"), model, sp, pool, limits)
    two = check_canonical(ChoiceFunction("maximality"), model, sp, pool, limits)
    assert one.to_json_dict() == two.to_json_dict()


def test_budget_caps_the_examined_instances(w2):
    sp, model = w2
    pool = [g(sp, i, 7 - i) for i in range(8)]
    limits = CanonicalLimits(max_instances=40, shapes=("b",))
    report = check_canonical(ChoiceFunction("e_admissible"), model, sp, pool, limits)
    assert report.instances_examined <= 40
    assert report.instances_total > 40


@pytest.mark.parametrize("budget", [0, -3])
def test_budget_must_be_positive(budget):
    with pytest.raises(ValueError, match="budget"):
        CanonicalLimits(max_instances=budget)


def test_report_serialization_round_trip(w2):
    sp, model = w2
    pool = [g(sp, 1, 0), g(sp, 0, 1)]
    report = check_canonical(ChoiceFunction("maximality"), model, sp, pool)
    doc = report.to_json_dict()
    assert doc["passed"] is report.passed
    assert doc["kind"] == "maximality"
    counts = doc["instances"]
    assert counts["examined"] == report.instances_examined
    assert counts["verified_against_pipeline"] == report.instances_verified


def test_scan_skips_zero_mass_splits():
    sp = PossibilitySpace(("w1", "w2", "w3"))
    p = MassFunction.from_mapping(
        sp, {"w1": Fraction(1, 2), "w2": Fraction(1, 2), "w3": 0}
    )
    model = CredalModel(CredalSet((p,)))
    pool = [g(sp, 1, 0, 2), g(sp, 0, 1, 1)]
    report = check_canonical(
        ChoiceFunction("maximality"), model, sp, pool, CanonicalLimits(shapes=("a",))
    )
    # splits that give either side zero mass cannot be conditioned on and are skipped
    assert report.instances_skipped > 0
    assert report.passed


def test_model_free_rules_ignore_zero_mass_members():
    # Maximin never reads the model, so a member giving a2 mass zero must not
    # make the scan skip the splits that expose the worst-case failure.
    sp = PossibilitySpace(("a1", "a2"))
    pool = [g(sp, 2, 0), g(sp, 1, 0), g(sp, 0, 0)]
    half = MassFunction.from_mapping(sp, {"a1": Fraction(1, 2), "a2": Fraction(1, 2)})
    only_a1 = MassFunction.from_mapping(sp, {"a1": 1, "a2": 0})
    limits = CanonicalLimits(shapes=("a",))
    free = check_canonical(ChoiceFunction("maximin"), None, sp, pool, limits)
    for model in (CredalModel(CredalSet((half, only_a1))), JointModel(only_a1)):
        report = check_canonical(ChoiceFunction("maximin"), model, sp, pool, limits)
        assert not report.passed
        assert report.failing_nodes == ("N1",)
        assert report.instances_skipped == 0
        assert report.to_json_dict() == free.to_json_dict()


@st.composite
def scan_problems(draw):
    """A 2- or 3-atom space, a credal set of two or three members that
    leave some atoms without mass in a third of the draws, and three or
    four small integer gambles."""
    atoms = tuple(f"w{i}" for i in range(draw(st.sampled_from((2, 3, 3)))))
    sp = PossibilitySpace(atoms)
    least = draw(st.sampled_from((0, 1, 1)))

    def member():
        weights = draw(
            st.lists(st.integers(least, 9), min_size=len(atoms), max_size=len(atoms))
            .filter(any)
        )
        total = sum(weights)
        return MassFunction.from_mapping(
            sp, {a: Fraction(w, total) for a, w in zip(atoms, weights)}
        )

    credal = CredalSet(tuple(member() for _ in range(draw(st.integers(2, 3)))))
    rows = draw(
        st.lists(
            st.tuples(*[st.integers(-4, 8) for _ in atoms]), min_size=3, max_size=4
        )
    )
    return sp, credal, [g(sp, *row) for row in rows]


def test_bulk_verification_indexes_the_pairs_in_plan_order():
    # A block settled in bulk verifies its k-th instance by index alone.
    for nx in range(1, 6):
        for ny in range(1, 7):
            for unordered in (False, True) if nx == ny else (False,):
                pairs = list(_pairs(nx, ny, unordered))
                assert pairs == [_pair_at(k, ny, unordered) for k in range(len(pairs))]


def test_bulk_passes_verify_each_instance_once(monkeypatch, w2):
    # Under eu both shapes are settled in bulk; with a verification sample
    # above the instance count, every instance is verified exactly once.
    sp, _ = w2
    p = MassFunction.from_mapping(sp, {"w1": Fraction(2, 5), "w2": Fraction(3, 5)})
    pool = [g(sp, 1, 0), g(sp, 0, 1), g(sp, 2, -1)]
    verified = []
    pipeline = canonical._pipeline_verdict

    def spy(choice, model, inst):
        verified.append(repr(inst))
        return pipeline(choice, model, inst)

    monkeypatch.setattr(canonical, "_pipeline_verdict", spy)
    limits = CanonicalLimits(max_xs=2, max_ys=2, verify_sample=10**9)
    report = check_canonical(ChoiceFunction("eu"), JointModel(p), sp, pool, limits)
    assert report.passed
    assert report.instances_verified == report.instances_total == len(verified)
    assert len(set(verified)) == len(verified)


@pytest.mark.parametrize("kind", RULES)
@given(
    problem=scan_problems(),
    shape=st.sampled_from(("a", "b")),
    marginal_extension=st.booleans(),
)
@settings(max_examples=10, deadline=None)
def test_scan_agrees_with_the_pipeline_on_every_instance(
    kind, problem, shape, marginal_extension
):
    # With a verification sample at least as large as the instance count,
    # every instance the scan examines, whether judged one by one or passed
    # with its whole block, is also run through check_subtree_perfect, and
    # the scan raises on the first disagreement.
    sp, credal, pool = problem
    model = JointModel(credal.members[0]) if kind == "eu" else CredalModel(credal)
    limits = CanonicalLimits(
        max_xs=2,
        max_ys=2,
        shapes=(shape,),
        require_marginal_extension=marginal_extension,
        verify_sample=10**9,
    )
    report = check_canonical(ChoiceFunction(kind), model, sp, pool, limits)
    assert report.instances_verified == report.instances_examined
    assert report.instances_examined + report.instances_skipped <= report.instances_total


_SET_KINDS = (
    "maximality",
    "pointwise_dominance",
    "interval_dominance",
    "e_admissible",
    "e_admissible_hull",
)


@pytest.mark.parametrize("kind", _SET_KINDS)
@given(pools=dominance_pools(), data=st.data())
@settings(max_examples=100, deadline=None)
def test_scan_class_choices_match_the_choice_rules(kind, pools, data):
    # The scan applies the rules to its own per-event tables of distinct
    # classes; on any subset of the classes it must keep what the rule keeps.
    credal, pool, b = pools
    cf = ChoiceFunction(kind)
    model = CredalModel(credal)
    ev = _Checker(cf, model, b.space, pool, CanonicalLimits()).event_data(b)
    every = range(len(ev.reps))
    classes = tuple(
        data.draw(
            st.one_of(
                st.just(every),
                st.sets(st.sampled_from(every), min_size=1).map(sorted),
            )
        )
    )
    kept = {ev.rows[c] for c in _chosen_classes(ev, kind, classes)}
    options = [pool[ev.reps[c]] for c in classes]
    assert kept == {x.values_on(b) for x in cf.choose(options, model, b)}


def test_scan_hull_constraints_include_undominated_non_winners(w2):
    # The configuration of the matching test in test_choice.py: z is
    # maximal and beats both member winners under some mixtures, but y
    # beats it under each of those.
    sp, credal = w2
    pool = [g(sp, 41, 73), g(sp, -50, 150), g(sp, 60, 60), g(sp, 150, -50)]
    cf = ChoiceFunction("e_admissible_hull")
    ev = _Checker(cf, credal, sp, pool, CanonicalLimits()).event_data(sp.omega())
    assert _chosen_classes(ev, cf.kind, (0, 1, 2, 3)) == {1, 2, 3}
