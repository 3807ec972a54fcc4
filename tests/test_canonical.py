import collections
import dataclasses
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from credaltrees import (
    CanonicalInstanceA,
    CanonicalInstanceB,
    CanonicalLimits,
    ChoiceFunction,
    CredalModel,
    CredalSet,
    CredalTreeError,
    DecisionNode,
    Gamble,
    InstanceInvalid,
    JointModel,
    MassFunction,
    Outcome,
    PossibilitySpace,
    check_canonical,
    check_subtree_perfect,
    lower_expectation,
    make_canonical_a,
    make_canonical_b,
    product_credal,
    upper_expectation,
)

from credaltrees import canonical
from credaltrees import trees as trees_module
from credaltrees.canonical import (
    _Checker,
    _chosen_classes,
    _Combos,
    _composite,
    _pair_at,
    all_events,
)
from credaltrees.choice import RULES, OptionTable
from credaltrees.fuzz import (
    _REDUCTION_BUDGET,
    FuzzConfig,
    fuzz_equivalence,
    gen_random_tree,
    harvest,
)

from conftest import (
    build_maximin_failure,
    dominance_pools,
    pairs_in_plan_order,
    reference_scan,
)


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


@pytest.mark.parametrize("kind", ["maximality", "interval_dominance"])
def test_a_shape_b_scan_fails_at_n2_where_ys_are_wider_than_xs(w2, kind):
    # Y = {(1, 0), (2, -1)} keeps both options alone, but beside X = {(1, 1)}
    # only (2, -1): the restriction at N2 loses an option of N2's own choice.
    # Plan order puts the one-option set first, so it is X.
    sp, model = w2
    pool = [g(sp, 1, 0), g(sp, 2, -1), g(sp, 1, 1)]
    limits = CanonicalLimits(shapes=("b",), max_options=2)
    report = check_canonical(ChoiceFunction(kind), model, sp, pool, limits)
    assert not report.passed and report.shape == "b"
    assert report.failing_nodes == ("N2",)
    assert report.instance.xs == (pool[2],) and report.instance.ys == (pool[0], pool[1])
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


@pytest.mark.parametrize("shapes", [("b", "a"), ("a", "b")])
@pytest.mark.parametrize("kind", ["interval_dominance", "e_admissible"])
def test_a_budget_bounds_the_rule_calls(monkeypatch, kind, shapes):
    # 24 gambles, distinct on every atom, offered up to six at a time make
    # 190,050 option sets of distinct classes per event, and trillions of
    # instances; a budget of 200 must bound the rule calls, the pipeline
    # verifications' included, by the instances examined rather than by
    # the option sets in the plan.
    sp = PossibilitySpace(("w1", "w2", "w3", "w4"))
    pool = [g(sp, i, 5 * i % 24, 7 * i % 24, 11 * i % 24) for i in range(24)]

    def member(*weights):
        return MassFunction.from_mapping(
            sp, {a: Fraction(w, 10) for a, w in zip(sp.atoms, weights)}
        )

    model = CredalModel(CredalSet((member(1, 2, 3, 4), member(4, 3, 2, 1))))
    rule = canonical.RULES[kind]
    calls = []

    def spy(table, idx):
        calls.append(len(idx))
        return rule(table, idx)

    monkeypatch.setitem(canonical.RULES, kind, spy)
    limits = CanonicalLimits(max_options=6, shapes=shapes, max_instances=200)
    report = check_canonical(ChoiceFunction(kind), model, sp, pool, limits)
    assert report.instances_total > 10**11
    assert 0 < report.instances_examined <= 200
    assert len(calls) <= 3 * report.instances_examined


def test_option_sets_unrank_in_plan_order():
    # Every entry of a block's option sets, read in order or alone, is the
    # combination the eager enumeration by size would have put there.
    for n in range(8):
        elig = list(range(10, 10 + n))
        for bound in range(1, 9):
            eager = [
                c
                for size in range(1, min(bound, n) + 1)
                for c in itertools.combinations(elig, size)
            ]
            combos = _Combos(elig, bound)
            assert len(combos) == len(eager)
            assert [combos[k] for k in range(len(combos))] == eager
            with pytest.raises(IndexError):
                combos[len(eager)]


def _class_layouts(n):
    """Every numbering of n eligible indices into classes, each class
    numbered in order of its first index, as `_EventData` numbers them."""
    if n == 0:
        yield ()
        return
    for head in _class_layouts(n - 1):
        for c in range(max(head, default=-1) + 2):
            yield (*head, c)


def test_ranked_keys_are_the_first_occurrences_of_the_masks():
    # A block's ranked column keys, each with its first position, are its
    # distinct class masks in the order the option sets first give them.
    for n in range(8):
        elig = list(range(10, 10 + n))
        for layout in _class_layouts(n):
            ev = object.__new__(canonical._EventData)
            ev.cls_of = dict(zip(elig, layout))
            for bound in range(1, n + 2):
                combos = _Combos(elig, bound)
                first = {}
                for p, mask in enumerate(ev.masks(combos)):
                    first.setdefault(mask, p)
                assert list(ev.ranked(combos)) == [(p, m) for m, p in first.items()]


def _enumerated_total(sp, pool, limits) -> int:
    """The plan's instance count, with every option set built as a list."""

    def combos(event, bound):
        elig = [i for i, x in enumerate(pool) if event <= x.scope]
        return [
            c
            for size in range(1, min(bound, len(elig)) + 1)
            for c in itertools.combinations(elig, size)
        ]

    events = all_events(sp)
    total = 0
    for shape in limits.shapes:
        if shape == "b":
            for b in events:
                xs = combos(b, limits.max_options)
                total += len(xs) * (len(xs) + 1) // 2
        else:
            for a in events:
                if a == sp.omega():
                    continue
                for b in events:
                    e1, e2 = a & b, a.complement() & b
                    if not e1.is_empty and not e2.is_empty:
                        total += len(combos(e1, limits.max_options)) * len(combos(e2, 1))
    return total


@st.composite
def scoped_pools(draw):
    """A 2- to 4-atom space and one to eight gambles, some of them on
    events smaller than the whole space."""
    sp = PossibilitySpace(tuple(f"w{i}" for i in range(draw(st.integers(2, 4)))))
    events = all_events(sp)
    pool = []
    for _ in range(draw(st.integers(1, 8))):
        scope = draw(st.sampled_from((sp.omega(),) * len(events) + events))
        values = draw(
            st.lists(st.integers(-3, 3), min_size=len(scope), max_size=len(scope))
        )
        pool.append(Gamble.from_mapping(scope, dict(zip(scope.ordered, values))))
    return sp, pool


def _one_sided():
    sp = PossibilitySpace(("w1", "w2"))
    return sp, [Gamble.from_mapping(sp.event(["w1"]), {"w1": 1})]


_ONE_SIDED = _one_sided()


@pytest.mark.parametrize("shapes", [("a",), ("b",), ("b", "a")])
@given(problem=scoped_pools(), bound=st.integers(1, 4))
@example(problem=_ONE_SIDED, bound=2)
@example(problem=_ONE_SIDED, bound=1)
@settings(max_examples=25, deadline=None)
def test_the_counted_total_equals_the_enumerated_one(shapes, problem, bound):
    # The one-sided pool leaves the events beyond w1 without an eligible
    # gamble, so their blocks are empty.
    sp, pool = problem
    limits = CanonicalLimits(max_options=bound, shapes=shapes, max_instances=1)
    report = check_canonical(ChoiceFunction("maximin"), None, sp, pool, limits)
    assert report.instances_total == _enumerated_total(sp, pool, limits)


def _maximin_case():
    sp = PossibilitySpace(("a1", "a2"))
    return "maximin", None, sp, [g(sp, 2, 0), g(sp, 1, 0), g(sp, 0, 0)]


def _maximality_case():
    sp = PossibilitySpace(("w1", "w2"))
    p1 = MassFunction.from_mapping(sp, {"w1": Fraction(1, 4), "w2": Fraction(3, 4)})
    p2 = MassFunction.from_mapping(sp, {"w1": Fraction(3, 4), "w2": Fraction(1, 4)})
    pool = [g(sp, 1, 0), g(sp, 0, 1), g(sp, Fraction(1, 10), Fraction(11, 10))]
    return "maximality", CredalModel(CredalSet((p1, p2))), sp, pool


@pytest.mark.parametrize("case", [_maximin_case, _maximality_case])
def test_every_budget_stops_where_the_exhaustive_scan_fails(case):
    # Maximin settles its shape (b) blocks in bulk and judges shape (a)
    # instance by instance; maximality judges shape (b) one by one.  Every
    # budget below the failing position passes after exactly that many
    # instances, and every budget from it on reports the same failure.
    kind, model, sp, pool = case()
    choice = ChoiceFunction(kind)
    full = check_canonical(
        choice, model, sp, pool, CanonicalLimits(shapes=("b", "a"))
    )
    assert not full.passed
    failing = full.instances_examined + full.instances_skipped
    assert failing > 1
    for k in range(1, failing + 3):
        limits = CanonicalLimits(shapes=("b", "a"), max_instances=k)
        report = check_canonical(choice, model, sp, pool, limits)
        assert report.instances_total == full.instances_total
        if k < failing:
            assert report.passed
            assert report.instances_examined + report.instances_skipped == k
        else:
            assert (report.shape, report.instance, report.failing_nodes) == (
                full.shape,
                full.instance,
                full.failing_nodes,
            )
            assert report.instances_examined == full.instances_examined
            assert report.instances_skipped == full.instances_skipped


@pytest.mark.parametrize("budget", [0, -3])
def test_budget_must_be_positive(budget):
    with pytest.raises(ValueError, match="budget"):
        CanonicalLimits(max_instances=budget)


@pytest.mark.parametrize("shape, listed", [("b", "b"), ("a", "a"), ("a", "b")])
def test_events_of_another_space_are_refused_beyond_the_budget(w2, shape, listed):
    # The first listed event holds more instances than the budget of one,
    # so the foreign event after it would never be reached; it is refused
    # all the same, before any instance runs.
    sp, model = w2
    foreign = PossibilitySpace(("w1", "w2", "w3")).event(["w2"])
    events = {"a": (sp.event(["w1"]),), "b": (sp.omega(),)}
    events[listed] += (foreign,)
    limits = CanonicalLimits(shapes=(shape,), events_a=events["a"], events_b=events["b"],
                             max_instances=1)
    pool = [g(sp, 1, 0), g(sp, 0, 1)]
    with pytest.raises(ValueError, match="events live in different possibility spaces"):
        check_canonical(ChoiceFunction("maximality"), model, sp, pool, limits)


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
                pairs = list(pairs_in_plan_order(nx, ny, unordered))
                assert pairs == [_pair_at(k, ny, unordered) for k in range(len(pairs))]


_SWAP = {"N1": "N2", "N2": "N1"}


def _swapped(verdict):
    """A verdict with its failing nodes N1 and N2 exchanged."""
    return verdict[0], tuple(sorted(_SWAP[n] for n in verdict[1]))


def _synthetic_block(rng, kind):
    """(row keys, column keys, verdict table, unordered) of a random block of
    one of the three kinds a scan judges by key: "ordered" (shape (a)), with
    any verdicts, skips included; "symmetric" (shape (b)), unordered with
    repeated keys and verdicts that fail for (X, Y) exactly when they fail
    for (Y, X), N1 and N2 swapped, and never skip; "positions" (the
    pipeline's), unordered with each instance keyed by its positions, with
    any verdicts."""
    ny = rng.randint(1, 40)
    if kind == "positions":
        rows = cols = range(ny)
    else:
        keys = range(rng.randint(1, 5))
        rows = [rng.choice(keys) for _ in range(ny if kind == "symmetric" else rng.randint(1, 6))]
        cols = rows if kind == "symmetric" else [rng.choice(keys) for _ in range(ny)]
    keys = sorted({*rows, *cols})
    fail = 0 if rng.random() < 0.3 else rng.randint(1, 2)
    skip = 0 if kind == "symmetric" else rng.randint(0, 3)
    fails = (canonical._FAIL_N1, ("fail", ("N2",)), ("fail", ("N1", "N2")))
    table = {}
    for x, y in itertools.product(keys, keys):
        outcome = rng.choices(("pass", "fail", "skip"), (40, fail, skip))[0]
        table[x, y] = {"pass": canonical._PASS, "skip": canonical._SKIP}.get(outcome) or rng.choice(fails)
    if kind == "symmetric":
        for x, y in itertools.combinations_with_replacement(keys, 2):
            if x == y and table[x, x][0] == "fail":
                table[x, x] = ("fail", ("N1", "N2"))
            table[y, x] = _swapped(table[x, y])
    return rows, cols, table, kind != "ordered"


def test_rows_judge_as_the_instances_do_one_by_one():
    # _rows on synthetic blocks of each kind, against judging each instance
    # in plan order, and each key pair judged at most once.  An unordered
    # block with repeated keys and asymmetric verdicts is left out: a scan
    # never meets one, and a row that starts judging at its own start can
    # miss a key of such a block that fails against a key seen before.
    rng = random.Random(0)
    for trial in range(3000):
        rows, cols, table, unordered = _synthetic_block(
            rng, ("ordered", "symmetric", "positions")[trial % 3]
        )
        pairs = list(pairs_in_plan_order(len(rows), len(cols), unordered))
        count = rng.randint(1, len(pairs))
        want_passed, want_skipped, want_fail = [], 0, None
        for ci, cj in pairs[:count]:
            v = table[rows[ci], cols[cj]]
            if v[0] == "fail":
                want_fail = (ci, cj, v)
                break
            if v[0] == "skip":
                want_skipped += 1
            else:
                want_passed.append((ci, cj))
        judged = collections.Counter()

        def verdict(rk, ck):
            judged[rk, ck] += 1
            return table[rk, ck]

        got_passed, got_skipped, got_fail = [], 0, None
        for ci, passed, nskip, fail in _Checker._rows(
            canonical._Prefix(rows), canonical._Prefix(cols), verdict,
            canonical._Prefix(canonical._first_occurrences(cols)), len(cols), unordered, count,
        ):
            got_passed += [(ci, cj) for cj in passed]
            got_skipped += nskip
            if fail:
                got_fail = (ci, *fail)
        assert (got_passed, got_skipped, got_fail) == (want_passed, want_skipped, want_fail)
        assert max(judged.values()) == 1


def _synthetic_pools(count):
    """(space, credal model, pool, events) of *count* seeded problems: a 2- or
    3-atom space, two or three members, four or five small integer gambles."""
    rng = random.Random(1)
    out = []
    for _ in range(count):
        sp = PossibilitySpace(tuple(f"w{i}" for i in range(rng.randint(2, 3))))

        def member():
            weights = [rng.randint(1, 9) for _ in sp.atoms]
            return MassFunction.from_mapping(
                sp, {a: Fraction(w, sum(weights)) for a, w in zip(sp.atoms, weights)}
            )

        credal = CredalSet(tuple(member() for _ in range(rng.randint(2, 3))))
        pool = [g(sp, *(rng.randint(-4, 8) for _ in sp.atoms)) for _ in range(rng.randint(4, 5))]
        out.append((sp, CredalModel(credal), pool, all_events(sp)))
    return out


def test_shape_b_verdicts_are_symmetric_and_never_skip():
    # The argument by which a row of a shape (b) block skips the keys first
    # seen before its start (`canonical._by_rank`): for every rule that is
    # not value-based, the verdict of (X, Y) is that of (Y, X) with N1 and
    # N2 swapped, and never a skip.  Checked on every key pair of every
    # shape (b) block of seeded pools (up to three options) and of the fuzz
    # harvests (up to two, which bounds their keys to a few hundred).  A
    # `_judge_b` that drops its N2 test fails this.
    problems = [(3, p) for p in _synthetic_pools(12)]
    problems += [(2, h) for sampler in _SAMPLERS for h in _harvested(sampler, seed=5, count=2)]
    seen = collections.Counter()
    for bound, (sp, model, pool, events) in problems:
        limits = CanonicalLimits(max_options=bound, shapes=("b",), events_b=events)
        for kind in RULES:
            checker = _Checker(ChoiceFunction(kind), model, sp, pool, limits)
            if checker.choice.is_value_based or not checker.fast:
                continue
            for _, _, b, rows, _, _, _ in checker._plan()[0]:
                judge = checker._judge_b(b, rows)
                if judge == "skip":
                    continue
                verdict = judge[2]
                keys = [key for _, key in judge[3].upto(len(rows))]
                for x, y in itertools.combinations_with_replacement(keys, 2):
                    xy = verdict(x, y)
                    assert xy[0] != "skip" and xy == _swapped(verdict(y, x)), (kind, x, y)
                    seen[kind, xy] += 1
    for kind in RULES:
        if not ChoiceFunction(kind).is_value_based:
            assert seen[kind, canonical._PASS], kind
    assert {v for _, v in seen} >= {("fail", ("N1",)), ("fail", ("N2",))}


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
    limits = CanonicalLimits(max_options=2, verify_sample=10**9)
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
        max_options=2,
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


@st.composite
def composite_splits(draw):
    """A pool of two to five integer gambles on a 2- to 4-atom space, a
    credal set whose members leave atoms without mass in some draws, and
    events A and B that split B on both sides of A."""
    atoms = tuple(f"w{i}" for i in range(draw(st.integers(2, 4))))
    sp = PossibilitySpace(atoms)
    least = draw(st.sampled_from((0, 1, 1)))

    def member():
        weights = draw(
            st.lists(st.integers(least, 9), min_size=len(atoms), max_size=len(atoms))
            .filter(any)
        )
        return MassFunction.from_mapping(
            sp, {a: Fraction(w, sum(weights)) for a, w in zip(atoms, weights)}
        )

    credal = CredalSet(tuple(member() for _ in range(draw(st.integers(1, 3)))))
    rows = draw(
        st.lists(st.tuples(*[st.integers(-4, 8) for _ in atoms]), min_size=2, max_size=5)
    )
    a = draw(st.sets(st.sampled_from(atoms), min_size=1, max_size=len(atoms) - 1))
    inside = draw(st.sampled_from(sorted(a)))
    outside = draw(st.sampled_from(sorted(set(atoms) - a)))
    b = {inside, outside} | draw(st.sets(st.sampled_from(atoms)))
    return sp, credal, [g(sp, *row) for row in rows], sp.event(a), sp.event(b)


@given(composite_splits())
@settings(max_examples=150, deadline=None)
def test_the_composite_table_is_the_table_of_the_composite_gambles(problem):
    # Shape (a) adds each member's sums and totals on A & B and ~A & B; the
    # rules must keep on it what they keep on a table built from the
    # composite gambles' values, and the two-stage decomposition test must
    # be the one recomputed in Fractions from the conditional envelopes.
    sp, credal, pool, a, b = problem
    e1, e2 = a & b, a.complement() & b
    for kind, rule in RULES.items():
        model = JointModel(credal.members[0]) if kind == "eu" else CredalModel(credal)
        checker = _Checker(ChoiceFunction(kind), model, sp, pool, CanonicalLimits())
        ev1, ev2 = checker.event_data(e1), checker.event_data(e2)
        if ev1.table is None or ev2.table is None:
            continue
        members = checker.members or credal.members
        if kind == "gamma_maximax":
            side, pick = upper_expectation, max
        else:
            side, pick = lower_expectation, min
        for zc, z in enumerate(ev2.reps):
            composite = _composite(ev1, ev2, zc)
            gambles = [
                Gamble.from_mapping(
                    e1 | e2,
                    {**dict(zip(e1.ordered, pool[i].values_on(e1))),
                     **dict(zip(e2.ordered, pool[z].values_on(e2)))},
                )
                for i in ev1.reps
            ]
            reference = OptionTable.of(gambles, e1 | e2, checker.members)
            every = range(len(gambles))
            for size in every:
                for c in itertools.combinations(every, size + 1):
                    assert rule(composite, c) == rule(reference, c), (kind, c)
            if kind not in ("gamma_maximin", "gamma_maximax"):
                continue
            c2 = side(CredalSet(members), pool[z], e2)
            expected = [
                side(CredalSet(members), h, e1 | e2)
                == pick(
                    (c1 * p.prob(e1) + c2 * p.prob(e2)) / (p.prob(e1) + p.prob(e2))
                    for p in members
                )
                for h, c1 in zip(
                    gambles, (side(CredalSet(members), pool[i], e1) for i in ev1.reps)
                )
            ]
            assert checker._me_row(ev1, ev2, composite, zc) == expected, kind


# --- the grouped scan against the per-instance reference ---------------------------


def _fields(scan, *args):
    """Every field of a scan's report, or the error it raised."""
    try:
        r = scan(*args)
    except CredalTreeError as exc:
        return type(exc).__name__, str(exc)
    return (
        r.passed,
        r.kind,
        r.instances_total,
        r.instances_examined,
        r.instances_skipped,
        r.instances_verified,
        r.shape,
        r.instance,
        r.failing_nodes,
        r.note,
    )


def _harvested(sampler, seed, count):
    """(space, model, pool, events) of fuzz trees, harvested at their first
    decision node in preorder."""
    cfg = FuzzConfig(seed=seed, tree_count=count, model_sampler=sampler)
    out = []
    for index in range(count):
        tree, model = gen_random_tree(cfg, index)
        center = next(n.node_id for n, _ in tree.nodes() if isinstance(n, DecisionNode))
        pool, events, _ = harvest(tree, center)
        out.append((tree.space, model, pool, events))
    return out


_SAMPLERS = ("joint", "credal:2", "factored", "hierarchical:2")


def _limit_sets(events):
    """The fuzz reduction's limits and variants: smaller option bounds,
    shape (a) first, the marginal extension filter, and budgets that stop
    inside a block's first and later rows."""
    return (
        CanonicalLimits(shapes=("b", "a"), events_a=events, events_b=events,
                        max_instances=3000, verify_sample=4),
        CanonicalLimits(max_options=3, shapes=("a", "b"), events_a=events,
                        events_b=events, max_instances=1500, verify_sample=16),
        CanonicalLimits(max_options=2, shapes=("a",), events_a=events, events_b=events,
                        max_instances=1200, verify_sample=40,
                        require_marginal_extension=True),
        CanonicalLimits(shapes=("b",), events_b=events, max_instances=41,
                        verify_sample=7),
        CanonicalLimits(max_options=2, shapes=("b", "a"), events_a=events,
                        events_b=events, max_instances=109, verify_sample=12),
    )


@pytest.mark.parametrize("sampler", _SAMPLERS)
def test_grouped_scan_matches_the_per_instance_reference(sampler):
    # Every report field, on harvested pools under every rule.  The
    # pipeline path (eu under a factored model) and rules whose model does
    # not suit stay on small budgets: each of their instances builds trees.
    seen = set()
    for sp, model, pool, events in _harvested(sampler, seed=5, count=2):
        for kind in RULES:
            choice = ChoiceFunction(kind)
            fast = _Checker(choice, model, sp, pool, CanonicalLimits()).fast
            for limits in _limit_sets(events):
                if not fast:
                    limits = dataclasses.replace(
                        limits, max_instances=min(limits.max_instances, 30)
                    )
                want = _fields(reference_scan, choice, model, sp, pool, limits)
                got = _fields(check_canonical, choice, model, sp, pool, limits)
                assert got == want, (kind, limits)
                if len(want) > 2:
                    seen.add(("fail" if not want[0] else "pass", fast))
                    if want[4] and limits.require_marginal_extension and want[5] > 1:
                        seen.add("skips between verifications")
                else:
                    seen.add("error")
    if sampler != "factored":
        assert {("fail", True), ("pass", True)} <= seen
    else:
        assert {("fail", False), ("pass", False)} & seen
    if sampler == "credal:2":
        assert "skips between verifications" in seen, seen


def reduction_scan_check(seeds, samplers=("credal:2", "hierarchical:2")):
    """(scans, differences) of `check_canonical` against `reference_scan`
    on fuzz reductions: every failing tree of ``FuzzConfig(seed,
    tree_count=4)`` for each of *seeds* and *samplers*, under every rule but
    ``eu``, harvested at its first failing node and limited as
    `fuzz_equivalence` reduces it, with the marginal extension filter off
    and on.  A difference is (sampler, seed, rule, filter, got, want)."""
    scans, differences = 0, []
    for sampler in samplers:
        for seed in seeds:
            cfg = FuzzConfig(seed=seed, tree_count=4, model_sampler=sampler)
            trees = [gen_random_tree(cfg, index) for index in range(cfg.tree_count)]
            for kind in RULES:
                if kind == "eu":
                    continue
                choice = ChoiceFunction(kind)
                for tree, model in trees:
                    verdicts = check_subtree_perfect(tree, choice, model)
                    fails = [v.node_id for v in verdicts if v.outcome is Outcome.FAIL]
                    if not fails:
                        continue
                    pool, events, _ = harvest(tree, fails[0])
                    for filtered in (False, True):
                        limits = CanonicalLimits(
                            shapes=("b", "a"), events_a=events, events_b=events,
                            max_instances=_REDUCTION_BUDGET, verify_sample=4,
                            require_marginal_extension=filtered,
                        )
                        args = (choice, model, tree.space, pool, limits)
                        want = _fields(reference_scan, *args)
                        got = _fields(check_canonical, *args)
                        scans += 1
                        if got != want:
                            differences.append((sampler, seed, kind, filtered, got, want))
    return scans, differences


def test_fuzz_reductions_match_the_per_instance_reference():
    # Two seeds here; the CI workflow runs seeds 0 to 9.
    scans, differences = reduction_scan_check(range(2))
    assert scans and not differences


@pytest.mark.parametrize(
    "seed, kind, shapes, marginal_extension",
    [
        (3, "interval_dominance", ("b", "a"), False),  # fails at instance 31
        (3, "maximality", ("b", "a"), False),  # fails at instance 32
        (5, "interval_dominance", ("b", "a"), False),  # passes
        (3, "interval_dominance", ("a", "b"), True),  # fails at instance 200
        (3, "gamma_maximin", ("a", "b"), True),  # passes, skipping 3 in 4
        # fails at instance 55, in a row where a higher class mask fails
        # first
        (7, "pointwise_dominance", ("b", "a"), False),
    ],
)
def test_grouped_scan_matches_the_reference_at_every_budget(
    seed, kind, shapes, marginal_extension
):
    # Budgets from 1 up cut the first row at every column, and then later
    # rows and blocks, inside and at their edges.
    (sp, model, pool, events), = _harvested("credal:2", seed=seed, count=1)
    choice = ChoiceFunction(kind)
    budgets = [*range(1, 36), 47, 48, 49, 111, 112, 113, 199, 200, 201, 241, 1009]
    for budget in budgets:
        limits = CanonicalLimits(
            shapes=shapes, events_a=events, events_b=events,
            max_instances=budget, verify_sample=5,
            require_marginal_extension=marginal_extension,
        )
        want = _fields(reference_scan, choice, model, sp, pool, limits)
        assert _fields(check_canonical, choice, model, sp, pool, limits) == want


def test_a_row_key_that_skips_is_judged_once_per_block(monkeypatch):
    # In this harvest a shape (a) block of 19 columns opens with a row that
    # skips some of its columns, and later rows have the same key.  Each
    # (block, row key) reaches `_by_rank` once; the later rows are settled
    # by the column keys that skipped there, and count the same skips.
    (sp, model, pool, events), = _harvested("hierarchical:2", seed=68, count=1)
    limits = CanonicalLimits(max_options=1, shapes=("a",), events_a=events, events_b=events,
                             verify_sample=4, require_marginal_extension=True)
    judged = collections.Counter()
    blocks = {}  # id -> ranked keys of a block, held so that no id is reused
    by_rank, rows = canonical._by_rank, _Checker._rows
    skipping = {"judged": 0, "rows": 0}

    def spy(ranked, verdict, rk, k, end):
        blocks[id(ranked)] = ranked
        judged[id(ranked), rk] += 1
        out = by_rank(ranked, verdict, rk, k, end)
        skipping["judged"] += bool(out[0])
        return out

    def counted_rows(*args):
        for row in rows(*args):
            skipping["rows"] += row[2] > 0
            yield row

    monkeypatch.setattr(canonical, "_by_rank", spy)
    monkeypatch.setattr(_Checker, "_rows", staticmethod(counted_rows))
    skipped = 0
    for kind in RULES:
        choice = ChoiceFunction(kind)
        want = _fields(reference_scan, choice, model, sp, pool, limits)
        assert _fields(check_canonical, choice, model, sp, pool, limits) == want, kind
        skipped += len(want) > 2 and want[4]
    assert skipped
    assert judged and max(judged.values()) == 1
    assert skipping["rows"] > skipping["judged"] > 0


@pytest.mark.parametrize("case", [_maximin_case, _maximality_case])
def test_a_failure_on_a_verification_position_is_verified_once(case):
    # With the stride chosen so that the failing instance's examined
    # ordinal is also a verification position, it is verified as the
    # counterexample only: once, after the positions before it.
    kind, model, sp, pool = case()
    choice = ChoiceFunction(kind)
    full = check_canonical(choice, model, sp, pool, CanonicalLimits(shapes=("b", "a")))
    ordinal = full.instances_examined
    budget = full.instances_total
    hits = [
        v for v in range(1, budget + 1)
        if 1 < budget // v < ordinal and (ordinal - 1) % (budget // v) == 0
    ]
    assert hits
    for sample in hits[:3]:
        limits = CanonicalLimits(shapes=("b", "a"), verify_sample=sample)
        got = _fields(check_canonical, choice, model, sp, pool, limits)
        assert got == _fields(reference_scan, choice, model, sp, pool, limits)
        verified = got[5]
        assert verified == len(range(1, ordinal, budget // sample)) + 1


def _count_key_pairs(monkeypatch) -> collections.Counter:
    """Counts of each block's verdict calls per (block, row key, column key)."""
    calls = collections.Counter()

    def spying(judge):
        def wrapped(self, *args):
            out = judge(self, *args)
            if not isinstance(out, tuple):
                return out
            rows, cols, verdict, ranked = out
            block = object()

            def counted(rk, ck):
                calls[block, rk, ck] += 1
                return verdict(rk, ck)

            return rows, cols, counted, ranked

        return wrapped

    monkeypatch.setattr(_Checker, "_judge_a", spying(_Checker._judge_a))
    monkeypatch.setattr(_Checker, "_judge_b", spying(_Checker._judge_b))
    return calls


def test_a_passing_scan_judges_each_key_pair_once(monkeypatch):
    # The fuzz reduction of seed 4's interval dominance tree passes its whole
    # 40,000-instance budget; the grouped loop asks each block's verdict
    # about each distinct (row key, column key) pair at most once.
    calls = _count_key_pairs(monkeypatch)
    cfg = FuzzConfig(seed=4, tree_count=1, model_sampler="credal:2")
    report = fuzz_equivalence(ChoiceFunction("interval_dominance"), None, cfg)
    reduction = report.records[0].reduction
    assert reduction.passed
    assert reduction.instances_examined == 40000
    assert calls and max(calls.values()) == 1
    assert len(calls) < reduction.instances_examined // 10


def test_a_passing_filtered_scan_judges_each_key_pair_once(monkeypatch):
    # Under the marginal extension filter, seed 3's Γ-maximin harvest passes
    # the reduction's 40,000-instance budget in shape (a) blocks, skipping
    # some of it; each key pair is still judged at most once per block.
    calls = _count_key_pairs(monkeypatch)
    (sp, model, pool, events), = _harvested("credal:2", seed=3, count=1)
    limits = CanonicalLimits(shapes=("a", "b"), events_a=events, events_b=events,
                             max_instances=_REDUCTION_BUDGET, verify_sample=4,
                             require_marginal_extension=True)
    report = check_canonical(ChoiceFunction("gamma_maximin"), model, sp, pool, limits)
    assert report.passed and report.instances_skipped
    assert report.instances_examined + report.instances_skipped == 40000
    assert calls and max(calls.values()) == 1
    assert len(calls) < 40000 // 7


def test_a_passing_scan_reads_columns_once_per_row_key(monkeypatch):
    # The same reduction examines its 40,000 instances in the first 28 rows
    # of one block of 1,470 columns, and those rows hold 14 distinct keys.
    # A new row key is judged against the block's ranked column keys and
    # passes whole, and a row whose key has passed a whole row already
    # passes unjudged, so no column key is read: the only class masks built
    # are the keys of the rows read.
    read = []
    row_keys = set()
    built = []
    masks = canonical._EventData.masks

    def counting_masks(self, combos):
        for mask in masks(self, combos):
            built.append(mask)
            yield mask

    class Counting(canonical._Prefix):
        def __getitem__(self, k):
            out = super().__getitem__(k)
            if isinstance(k, slice):
                read.append(len(out))
            elif isinstance(out, int):  # not a ranked (position, key) pair
                row_keys.add(out)
            return out

    monkeypatch.setattr(canonical._EventData, "masks", counting_masks)
    monkeypatch.setattr(canonical, "_Prefix", Counting)
    cfg = FuzzConfig(seed=4, tree_count=1, model_sampler="credal:2")
    report = fuzz_equivalence(ChoiceFunction("interval_dominance"), None, cfg)
    reduction = report.records[0].reduction
    assert reduction.passed and reduction.instances_examined == 40000
    assert len(row_keys) == 14
    assert not read
    assert len(built) <= 28


def test_a_failing_fuzz_run_decodes_no_strategy(monkeypatch):
    # fuzz_equivalence and the pipeline verifications of its reduction read
    # only each verdict's node id and outcome, so no strategy is decoded.
    decoded = []
    real = trees_module.Decoder.strategies

    def spy(self, node_id, positions):
        decoded.append(node_id)
        return real(self, node_id, positions)

    monkeypatch.setattr(trees_module.Decoder, "strategies", spy)
    cfg = FuzzConfig(seed=3, tree_count=1, model_sampler="credal:2")
    report = fuzz_equivalence(ChoiceFunction("interval_dominance"), None, cfg)
    reduction = report.records[0].reduction
    assert not reduction.passed and reduction.instances_verified
    assert decoded == []
