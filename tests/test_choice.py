import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from credaltrees import (
    KINDS,
    ChoiceFunction,
    CredalModel,
    CredalSet,
    Gamble,
    JointModel,
    MassFunction,
    ModeUnsupported,
    PossibilitySpace,
    UtilityModel,
    UtilityFunctionSet,
    ZeroProbabilityCondition,
    choose_by_preorder,
    choose_e_admissible,
    choose_maximality,
    choose_pointwise_dominance,
    ratlp,
)
from credaltrees.choice import RULES, OptionRows, OptionTable, choose_eu
from credaltrees.trees import scaled

from conftest import dominance_pools


@pytest.fixture
def w2():
    sp = PossibilitySpace(("w1", "w2"))
    p1 = MassFunction.from_mapping(sp, {"w1": Fraction(1, 4), "w2": Fraction(3, 4)})
    p2 = MassFunction.from_mapping(sp, {"w1": Fraction(3, 4), "w2": Fraction(1, 4)})
    return sp, p1, p2


def g(sp, *values):
    return Gamble.from_mapping(
        sp.omega(), {a: Fraction(v) for a, v in zip(sp.atoms, values)}
    )


def test_kind_catalogue_is_closed():
    assert set(KINDS) == {
        "eu",
        "maximin",
        "gamma_maximin",
        "gamma_maximax",
        "maximality",
        "e_admissible",
        "e_admissible_hull",
        "interval_dominance",
        "pointwise_dominance",
        "imprecise_utility",
        "by_preorder",
    }
    with pytest.raises(ValueError):
        ChoiceFunction("nonsense")


def test_value_based_flags():
    value_based = {"eu", "maximin", "gamma_maximin", "gamma_maximax", "by_preorder"}
    for kind in KINDS:
        cf = ChoiceFunction(kind, preorder=(lambda x, y: True) if kind == "by_preorder" else None)
        assert cf.is_value_based == (kind in value_based)


def test_separable_flags():
    separable = {"eu", "maximality", "e_admissible", "e_admissible_hull", "pointwise_dominance"}
    for kind in KINDS:
        cf = ChoiceFunction(kind, preorder=(lambda x, y: True) if kind == "by_preorder" else None)
        assert cf.is_separable == (kind in separable)


def test_eu_argmax_and_ties(w2):
    sp, p1, _ = w2
    model = JointModel(p1)
    x = g(sp, 1, 0)
    y = g(sp, 0, 1)
    tie = g(sp, Fraction(3, 4), Fraction(3, 4))
    assert ChoiceFunction("eu").choose([x, y], model, sp.omega()) == (y,)
    assert set(ChoiceFunction("eu").choose([x, y, tie], model, sp.omega())) == {y, tie}


def test_eu_needs_a_precise_model(w2):
    sp, p1, p2 = w2
    credal = CredalModel(CredalSet((p1, p2)))
    with pytest.raises(ModeUnsupported):
        ChoiceFunction("eu").choose([g(sp, 1, 0)], credal, sp.omega())


def test_maximin_is_model_free(w2):
    sp, _, _ = w2
    x = g(sp, 1, 0)
    safe = g(sp, Fraction(1, 2), Fraction(1, 2))
    assert ChoiceFunction("maximin").choose([x, safe], None, sp.omega()) == (safe,)
    # conditioning restricts which outcomes count as worst
    assert ChoiceFunction("maximin").choose([x, safe], None, sp.event(["w1"])) == (x,)


def test_gamma_envelopes(w2):
    sp, p1, p2 = w2
    credal = CredalModel(CredalSet((p1, p2)))
    x = g(sp, 1, 0)
    y = g(sp, 0, 1)
    safe = g(sp, Fraction(1, 2), Fraction(1, 2))
    assert ChoiceFunction("gamma_maximin").choose([x, y, safe], credal, sp.omega()) == (safe,)
    assert set(ChoiceFunction("gamma_maximax").choose([x, y, safe], credal, sp.omega())) == {x, y}


def test_vertex_hull_maximality_chain(w2):
    sp, p1, p2 = w2
    credal = CredalModel(CredalSet((p1, p2)))
    x = g(sp, 1, 0)
    y = g(sp, 0, 1)
    mid = g(sp, Fraction(1, 2), Fraction(1, 2))
    pool = [x, y, mid]
    vertex = set(ChoiceFunction("e_admissible").choose(pool, credal, sp.omega()))
    hull = set(ChoiceFunction("e_admissible_hull").choose(pool, credal, sp.omega()))
    maximal = set(ChoiceFunction("maximality").choose(pool, credal, sp.omega()))
    assert vertex == {x, y}
    assert hull == {x, y, mid}
    assert maximal == {x, y, mid}
    assert vertex <= hull <= maximal


def test_maximality_drops_lower_dominated(w2):
    sp, p1, p2 = w2
    credal = CredalModel(CredalSet((p1, p2)))
    x = g(sp, 1, 0)
    worse = g(sp, Fraction(1, 2), Fraction(-1, 2))
    assert ChoiceFunction("maximality").choose([x, worse], credal, sp.omega()) == (x,)


def test_interval_dominance_uses_the_bounds(w2):
    sp, p1, p2 = w2
    credal = CredalModel(CredalSet((p1, p2)))
    x = g(sp, 1, 0)
    y = g(sp, 0, 1)
    hopeless = g(sp, -5, -5)
    kept = set(ChoiceFunction("interval_dominance").choose([x, y, hopeless], credal, sp.omega()))
    assert kept == {x, y}


def test_maximality_refines_interval_dominance(w2):
    sp, p1, p2 = w2
    credal = CredalModel(CredalSet((p1, p2)))
    pool = [g(sp, 1, 0), g(sp, 0, 1), g(sp, Fraction(1, 2), Fraction(1, 2)), g(sp, Fraction(1, 4), 0)]
    maximal = set(ChoiceFunction("maximality").choose(pool, credal, sp.omega()))
    interval = set(ChoiceFunction("interval_dominance").choose(pool, credal, sp.omega()))
    assert maximal <= interval


def test_pointwise_dominance_is_strict(w2):
    sp, _, _ = w2
    x = g(sp, 1, 1)
    below = g(sp, 0, 1)
    incomparable = g(sp, 2, 0)
    kept = set(
        ChoiceFunction("pointwise_dominance").choose([x, below, incomparable], None, sp.omega())
    )
    assert kept == {x, incomparable}


def test_by_preorder_requires_and_uses_a_comparator(w2):
    sp, _, _ = w2
    x1 = g(sp, 1, 0)
    x2 = g(sp, 0, 1)
    x3 = g(sp, 1, 1)
    with pytest.raises(ValueError):
        ChoiceFunction("by_preorder")

    ranked = {x1: 0, x2: 1, x3: 2}

    def geq(a, b, model, event):
        return ranked[a] >= ranked[b]

    cf = ChoiceFunction("by_preorder", preorder=geq)
    assert cf.choose([x1, x2, x3], None, sp.omega()) == (x3,)


def test_by_preorder_validation_catches_incomplete_comparators(w2):
    sp, _, _ = w2
    x1 = g(sp, 1, 0)
    x2 = g(sp, 0, 1)

    def incomparable(a, b, model, event):
        return a is b

    with pytest.raises(ValueError):
        choose_by_preorder([x1, x2], incomparable, None, sp.omega(), validate=True)


def test_imprecise_utility_keeps_unanimity_undominated():
    sp = PossibilitySpace(("w",))
    r1 = Gamble.from_mapping(sp.omega(), {"w": "r1"})
    r2 = Gamble.from_mapping(sp.omega(), {"w": "r2"})
    r3 = Gamble.from_mapping(sp.omega(), {"w": "r3"})
    model = UtilityModel(
        UtilityFunctionSet.from_tables(
            [
                {"r1": Fraction(3), "r2": Fraction(1), "r3": Fraction(2)},
                {"r1": Fraction(-3), "r2": Fraction(1), "r3": Fraction(2)},
            ]
        ),
        None,
    )
    cf = ChoiceFunction("imprecise_utility")
    kept = set(cf.choose([r1, r2, r3], model, sp.omega()))
    assert kept == {r1, r3}
    assert set(cf.choose([r1, r2], model, sp.omega())) == {r1, r2}


def test_duplicate_gambles_do_not_change_the_choice(w2):
    sp, p1, p2 = w2
    credal = CredalModel(CredalSet((p1, p2)))
    x = g(sp, 1, 0)
    y = g(sp, 0, 1)
    once = set(ChoiceFunction("maximality").choose([x, y], credal, sp.omega()))
    repeated = set(ChoiceFunction("maximality").choose([x, y, x, y, x], credal, sp.omega()))
    assert once == repeated


def test_singleton_credal_collapses_to_expected_utility(w2):
    sp, p1, _ = w2
    sing = CredalModel(CredalSet((p1,)))
    joint = JointModel(p1)
    pool = [g(sp, 1, 0), g(sp, 0, 1), g(sp, Fraction(1, 2), Fraction(1, 2))]
    want = set(ChoiceFunction("eu").choose(pool, joint, sp.omega()))
    for kind in ("e_admissible", "e_admissible_hull", "maximality", "gamma_maximin", "gamma_maximax"):
        assert set(ChoiceFunction(kind).choose(pool, sing, sp.omega())) == want


# --- randomized invariants -------------------------------------------------------


@st.composite
def pools(draw):
    atoms = tuple(f"w{i}" for i in range(draw(st.integers(2, 4))))
    sp = PossibilitySpace(atoms)

    def member():
        weights = [draw(st.integers(1, 9)) for _ in atoms]
        total = sum(weights)
        return MassFunction.from_mapping(
            sp, {a: Fraction(w, total) for a, w in zip(atoms, weights)}
        )

    credal = CredalSet(tuple(member() for _ in range(draw(st.integers(1, 3)))))
    pool = [
        Gamble.from_mapping(sp.omega(), {a: draw(st.integers(-8, 8)) for a in atoms})
        for _ in range(draw(st.integers(1, 5)))
    ]
    return sp, credal, pool


_CREDAL_KINDS = (
    "maximin",
    "gamma_maximin",
    "gamma_maximax",
    "maximality",
    "e_admissible",
    "e_admissible_hull",
    "interval_dominance",
    "pointwise_dominance",
)


@given(pools(), st.sampled_from(_CREDAL_KINDS))
@settings(max_examples=120, deadline=None)
def test_choices_are_nonempty_subsets(data, kind):
    sp, credal, pool = data
    kept = ChoiceFunction(kind).choose(pool, CredalModel(credal), sp.omega())
    assert kept
    assert set(kept) <= set(pool)


@given(pools())
@settings(max_examples=120, deadline=None)
def test_inclusion_chain_random(data):
    sp, credal, pool = data
    model = CredalModel(credal)
    om = sp.omega()
    vertex = set(choose_e_admissible(pool, model, om))
    hull = set(choose_e_admissible(pool, model, om, hull=True))
    maximal = set(choose_maximality(pool, model, om))
    interval = set(ChoiceFunction("interval_dominance").choose(pool, model, om))
    assert vertex <= hull <= maximal <= interval


@given(pools(), st.sampled_from(("maximin", "gamma_maximin", "gamma_maximax")))
@settings(max_examples=100, deadline=None)
def test_value_kinds_distribute_over_unions(data, kind):
    sp, credal, pool = data
    model = CredalModel(credal)
    om = sp.omega()
    cf = ChoiceFunction(kind)
    mid = max(1, len(pool) // 2)
    s, t = pool[:mid], pool[mid:]
    if not t:
        return
    whole = set(cf.choose(pool, model, om))
    merged = set(cf.choose(list(cf.choose(s, model, om)) + list(cf.choose(t, model, om)), model, om))
    assert whole == merged


# --- differential tests against all-pairs references ----------------------------


def _sums(credal, xs, b):
    return [
        [sum((p.mass(a) * x[a] for a in b.ordered), Fraction(0)) for x in xs]
        for p in credal.members
    ]


def reference_maximality(credal, xs, b):
    s = _sums(credal, xs, b)
    return tuple(
        x
        for j, x in enumerate(xs)
        if not any(all(r[jj] > r[j] for r in s) for jj in range(len(xs)))
    )


def reference_pointwise(xs, b):
    rows = [x.values_on(b) for x in xs]
    return tuple(
        x
        for j, x in enumerate(xs)
        if not any(
            rows[jj] != rows[j] and all(u >= v for u, v in zip(rows[jj], rows[j]))
            for jj in range(len(xs))
        )
    )


def reference_hull(credal, xs, b):
    """Member winners, then one LP per other option with a row per option."""
    s = _sums(credal, xs, b)
    k = len(s)
    out = []
    for j, x in enumerate(xs):
        if any(r[j] == max(r) for r in s) or ratlp.feasible(
            k,
            eqs=[([1] * k, 1)],
            ges=[([r[j] - r[jj] for r in s], 0) for jj in range(len(xs))],
        ):
            out.append(x)
    return tuple(out)


@given(dominance_pools())
@settings(max_examples=200, deadline=None)
def test_maximality_matches_the_all_pairs_reference(data):
    credal, pool, b = data
    got = choose_maximality(pool, CredalModel(credal), b)
    assert got == reference_maximality(credal, pool, b)


@given(dominance_pools())
@settings(max_examples=200, deadline=None)
def test_pointwise_dominance_matches_the_all_pairs_reference(data):
    credal, pool, b = data
    got = choose_pointwise_dominance(pool, None, b)
    assert got == reference_pointwise(pool, b)


@given(dominance_pools())
@settings(max_examples=150, deadline=None)
def test_hull_e_admissibility_matches_the_unpruned_lp(data):
    credal, pool, b = data
    got = choose_e_admissible(pool, CredalModel(credal), b, hull=True)
    assert got == reference_hull(credal, pool, b)


positive_scales = st.fractions(min_value=Fraction(1, 30), max_value=30, max_denominator=30)


@given(dominance_pools(), st.integers(1, 60), st.data())
@settings(max_examples=150, deadline=None)
def test_rules_are_invariant_under_positive_row_and_member_scaling(data, k, draw):
    # What lets the solver hand every rule integer rows over a tree-wide
    # denominator, and the table scale each member's weights on its own.
    credal, pool, b = data
    rows = OptionRows.of(pool, b)
    table = OptionTable.on(b, rows, credal.members)
    factors = [draw.draw(positive_scales, label="member factor") for _ in table.weights]
    scaled_table = OptionTable(
        [tuple(k * v for v in row) for row in rows],
        [[c * w for w in ws] for c, ws in zip(factors, table.weights)],
        [c * m for c, m in zip(factors, table.mass)],
    )
    every = range(len(rows))
    some = sorted(draw.draw(st.sets(st.sampled_from(every), min_size=1), label="subset"))
    for kind, rule in RULES.items():
        for idx in (every, some):
            assert rule(scaled_table, idx) == rule(table, idx), kind


def test_hull_constraints_include_undominated_non_winners(w2):
    # Member sums (p1, p2): w1 (100, 0) and w0 (0, 100) are the member
    # winners; y (60, 60) wins under the even mixture.  z (65, 49) beats both
    # winners for mixtures near the middle, but y beats it wherever it does,
    # so z is maximal without being hull E-admissible.
    sp, p1, p2 = w2
    credal = CredalModel(CredalSet((p1, p2)))
    w1, w0, y, z = g(sp, -50, 150), g(sp, 150, -50), g(sp, 60, 60), g(sp, 41, 73)
    pool = [z, w1, y, w0]
    assert choose_maximality(pool, credal, sp.omega()) == (z, w1, y, w0)
    assert choose_e_admissible(pool, credal, sp.omega(), hull=True) == (w1, y, w0)


# --- the exact integer kernel -----------------------------------------------------

values = st.fractions(min_value=-30, max_value=30, max_denominator=12)
masses = st.one_of(st.just(Fraction(0)), st.fractions(0, 1, max_denominator=40))


@st.composite
def weights_and_rows(draw):
    # One atom is a one-atom event; masses may be zero and need not sum to 1.
    n = draw(st.integers(1, 5))
    weights = draw(st.lists(st.lists(masses, min_size=n, max_size=n), min_size=1, max_size=4))
    rows = draw(st.lists(st.lists(values, min_size=n, max_size=n), max_size=6))
    return weights, rows


@given(weights_and_rows())
@settings(max_examples=150, deadline=None)
def test_integer_sums_match_fraction_sums(data):
    weights, rows = data
    d = math.lcm(*{v.denominator for row in rows for v in row})
    int_rows = [tuple(scaled(v, d) for v in row) for row in rows]
    exact = [
        [sum((w * v for w, v in zip(ws, row)), Fraction(0)) for row in rows]
        for ws in weights
    ]
    sums = OptionTable(int_rows, weights).sums
    assert all(type(x) is int for s in sums for x in s)
    # each member's sums carry d and the lcm of that member's denominators
    assert sums == [
        [d * math.lcm(*{w.denominator for w in ws}) * e for e in member]
        for ws, member in zip(weights, exact)
    ]
    positive = [ws for ws in weights if sum(ws)]
    t = OptionTable(int_rows, positive)
    conditional = list(
        zip(*([e / sum(ws) for e in member] for ws, member in zip(weights, exact) if sum(ws)))
    )
    assert [Fraction(x, d * t.scale) for x in t.lower] == [min(c) for c in conditional]
    assert [Fraction(x, d * t.scale) for x in t.upper] == [max(c) for c in conditional]


def test_eu_under_a_joint_model_keeps_its_zero_probability_message():
    sp = PossibilitySpace(("w1", "w2"))
    p = MassFunction.from_mapping(sp, {"w1": 1, "w2": 0})
    with pytest.raises(
        ZeroProbabilityCondition, match=r"conditioning event .* has probability zero"
    ):
        choose_eu([g(sp, 1, 2)], JointModel(p), sp.event(["w2"]))


# --- partial zero mass --------------------------------------------------------------

_CREDAL_KINDS = (
    "gamma_maximin",
    "gamma_maximax",
    "maximality",
    "e_admissible",
    "e_admissible_hull",
    "interval_dominance",
)


@pytest.mark.parametrize("kind", _CREDAL_KINDS)
def test_credal_rules_raise_when_some_member_gives_the_event_zero_mass(w2, kind):
    # One member gives {w2} mass 3/4, the other 0: the event cannot be
    # conditioned on under the whole set, so the rule is undefined there.
    sp, p1, _ = w2
    p0 = MassFunction.from_mapping(sp, {"w1": 1, "w2": 0})
    model = CredalModel(CredalSet((p1, p0)))
    with pytest.raises(
        ZeroProbabilityCondition, match="a credal member gives the conditioning event"
    ):
        ChoiceFunction(kind).choose([g(sp, 1, 2), g(sp, 0, 3)], model, sp.event(["w2"]))
    # when no member gives the event mass, the message says so for the set
    with pytest.raises(ZeroProbabilityCondition, match="has probability zero"):
        ChoiceFunction(kind).choose(
            [g(sp, 1, 2)], CredalModel(CredalSet((p0,))), sp.event(["w2"])
        )


@pytest.mark.parametrize("kind", ("maximin", "pointwise_dominance"))
def test_model_free_rules_ignore_zero_mass_members(w2, kind):
    sp, p1, _ = w2
    p0 = MassFunction.from_mapping(sp, {"w1": 1, "w2": 0})
    model = CredalModel(CredalSet((p1, p0)))
    x, y = g(sp, 1, 2), g(sp, 0, 3)
    assert ChoiceFunction(kind).choose([x, y], model, sp.event(["w2"])) == (y,)
