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

from credaltrees.canonical import _Checker, _chosen_classes

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
    limits = CanonicalLimits(max_instances=50, sample_mode="stride")
    one = check_canonical(ChoiceFunction("maximality"), model, sp, pool, limits)
    two = check_canonical(ChoiceFunction("maximality"), model, sp, pool, limits)
    assert one.to_json_dict() == two.to_json_dict()


def test_budget_caps_the_examined_instances(w2):
    sp, model = w2
    pool = [g(sp, i, 7 - i) for i in range(8)]
    limits = CanonicalLimits(max_instances=40, sample_mode="prefix", shapes=("b",))
    report = check_canonical(ChoiceFunction("e_admissible"), model, sp, pool, limits)
    assert report.instances_examined <= 40
    assert report.instances_total > 40


def test_stride_and_prefix_sample_the_same_population(w2):
    sp, model = w2
    pool = [g(sp, i, 5 - i) for i in range(6)]
    totals = []
    for mode in ("prefix", "stride"):
        limits = CanonicalLimits(max_instances=30, sample_mode=mode, shapes=("b",))
        report = check_canonical(ChoiceFunction("interval_dominance"), model, sp, pool, limits)
        totals.append(report.instances_total)
        assert report.instances_examined <= 30
    assert totals[0] == totals[1]


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
    # The scan keeps its own copy of the set-valued rules over distinct
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
