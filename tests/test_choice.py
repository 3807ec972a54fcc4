import math
import operator
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from credaltrees import (
    KINDS,
    ChoiceFunction,
    CredalModel,
    CredalSet,
    DecisionTree,
    EmptyInput,
    FactoredModel,
    Gamble,
    JointModel,
    MassFunction,
    ModeUnsupported,
    PossibilitySpace,
    ScopeMismatch,
    TreeFactoredAssessment,
    UtilityModel,
    UtilityFunctionSet,
    ZeroProbabilityCondition,
    chance,
    choose_by_preorder,
    leaf,
    ratlp,
)
from credaltrees.choice import MODEL_FREE, RULES, OptionTable
from credaltrees.trees import scaled

from conftest import (
    REFERENCE_RULES,
    dominance_pools,
    label_pools,
    mixture_feasible_by_vertices,
    reference_e_admissible,
    reference_eu,
    reference_imprecise_utility,
)


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
    # the CLI lists the kinds in this order
    assert KINDS == (
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
    )
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


@pytest.mark.parametrize("chance_part", (None, "joint", "factored"))
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_imprecise_utility_keeps_the_union_of_per_function_argmaxes(chance_part, data):
    model, pool, b = data.draw(label_pools(chance_part))
    kept = ChoiceFunction("imprecise_utility").choose(pool, model, b)
    want = reference_imprecise_utility(pool, model, b)
    assert list(map(id, kept)) == list(map(id, want))


def test_imprecise_utility_guards_keep_their_errors():
    sp = PossibilitySpace(("w",))
    label = Gamble.from_mapping(sp.omega(), {"w": "r"})
    number = Gamble.from_mapping(sp.omega(), {"w": 1})
    utility = UtilityModel(UtilityFunctionSet.from_tables([{"r": 1}]), None)
    joint = JointModel(MassFunction.from_mapping(sp, {"w": 1}))
    cf = ChoiceFunction("imprecise_utility")
    with pytest.raises(ValueError, match="^imprecise_utility expects label gambles$"):
        cf.choose([label, number], utility, sp.omega())
    with pytest.raises(ModeUnsupported, match="^imprecise_utility needs a utility model$"):
        cf.choose([label], joint, sp.omega())


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
    vertex = set(ChoiceFunction("e_admissible").choose(pool, model, om))
    hull = set(ChoiceFunction("e_admissible_hull").choose(pool, model, om))
    maximal = set(ChoiceFunction("maximality").choose(pool, model, om))
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
            k, ges=[[r[j] - r[jj] for r in s] for jj in range(len(xs))]
        ):
            out.append(x)
    return tuple(out)


def mixture_system(seed):
    """The mixture system of *seed*: 1 to 4 weights and 0 to 8 integer rows
    with coefficients in -3..3, some of them repeated and some all zero."""
    rng = random.Random(seed)
    k, rows = rng.randint(1, 4), []
    for _ in range(rng.randint(0, 8)):
        draw = rng.random()
        if rows and draw < 0.15:
            rows.append(list(rng.choice(rows)))
        elif draw < 0.25:
            rows.append([0] * k)
        else:
            rows.append([rng.randint(-3, 3) for _ in range(k)])
    return k, rows


def lp_vertex_check(seeds):
    """(systems, feasible, disagreements) of `ratlp.feasible` against
    `mixture_feasible_by_vertices` on the `mixture_system` of each seed; a
    disagreement is (seed, k, rows, lp, vertices)."""
    feasible, disagreements = 0, []
    for seed in seeds:
        k, rows = mixture_system(seed)
        lp = ratlp.feasible(k, ges=rows)
        vertices = mixture_feasible_by_vertices(k, rows)
        feasible += lp
        if lp != vertices:
            disagreements.append((seed, k, rows, lp, vertices))
    return len(seeds), feasible, disagreements


def test_mixture_lp_matches_vertex_enumeration():
    # 400 systems here, 197 of them feasible; the CI workflow runs 10,000.
    assert lp_vertex_check(range(400)) == (400, 197, [])


def random_choices(seed):
    """(options, b, members) drawn from *seed*: 2 to 4 atoms, values in -2..2
    so that ties are common, some options repeated, and 2 or 3 members with
    positive masses."""
    rng = random.Random(seed)
    sp = PossibilitySpace(tuple(f"w{i}" for i in range(rng.randint(2, 4))))
    b = sp.event(a for a in sp.atoms if rng.random() < 0.7)
    if b.is_empty:
        b = sp.omega()
    xs = []
    for _ in range(rng.randint(1, 6)):
        if xs and rng.random() < 0.25:
            xs.append(rng.choice(xs))
        else:
            xs.append(g(sp, *(rng.randint(-2, 2) for _ in sp.atoms)))

    def member():
        weights = [rng.randint(1, 3) for _ in sp.atoms]
        return MassFunction(sp, tuple(Fraction(w, sum(weights)) for w in weights))

    return xs, b, [member() for _ in range(rng.randint(2, 3))]


def test_rules_match_their_references_from_expectations():
    # Each rule against its definition over the options' conditional
    # expectations (conftest's REFERENCE_RULES), ties and equal options
    # included: under a credal model of the drawn members, and under the
    # joint model of the first for the rules that accept one, where
    # expected utility is E-admissibility under that one member.
    for seed in range(400):
        xs, b, members = random_choices(seed)
        credal = CredalModel(CredalSet(tuple(members)))
        for kind, reference in REFERENCE_RULES.items():
            got = ChoiceFunction(kind).choose(xs, credal, b)
            assert got == reference(xs, members, b), (seed, kind)
        joint = JointModel(members[0])
        for kind in MODEL_FREE:
            got = ChoiceFunction(kind).choose(xs, joint, b)
            assert got == REFERENCE_RULES[kind](xs, (), b), (seed, kind)
        got = ChoiceFunction("eu").choose(xs, joint, b)
        assert got == reference_e_admissible(xs, members[:1], b), (seed, "eu")


@given(dominance_pools())
@settings(max_examples=200, deadline=None)
def test_maximality_matches_the_all_pairs_reference(data):
    credal, pool, b = data
    got = ChoiceFunction("maximality").choose(pool, CredalModel(credal), b)
    assert got == reference_maximality(credal, pool, b)


@given(dominance_pools())
@settings(max_examples=200, deadline=None)
def test_pointwise_dominance_matches_the_all_pairs_reference(data):
    credal, pool, b = data
    got = ChoiceFunction("pointwise_dominance").choose(pool, None, b)
    assert got == reference_pointwise(pool, b)


@given(dominance_pools())
@settings(max_examples=150, deadline=None)
def test_hull_e_admissibility_matches_the_unpruned_lp(data):
    credal, pool, b = data
    got = ChoiceFunction("e_admissible_hull").choose(pool, CredalModel(credal), b)
    assert got == reference_hull(credal, pool, b)


@given(dominance_pools(), st.integers(1, 60), st.data())
@settings(max_examples=150, deadline=None)
def test_rules_are_invariant_under_positive_row_and_member_scaling(data, k, draw):
    # What lets the solver hand every rule integer rows over a tree-wide
    # denominator, and each member's sums and total carry a factor of the
    # member's own.
    credal, pool, b = data
    table = OptionTable.of(pool, b, credal.members)
    factors = [draw.draw(st.integers(1, 60), label="member factor") for _ in table.totals]
    scaled_table = OptionTable(
        [tuple(k * v for v in row) for row in table.rows],
        [tuple(k * c * x for c, x in zip(factors, v)) for v in table.vectors],
        [c * t for c, t in zip(factors, table.totals)],
    )
    every = range(len(table))
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
    assert ChoiceFunction("maximality").choose(pool, credal, sp.omega()) == (z, w1, y, w0)
    assert ChoiceFunction("e_admissible_hull").choose(pool, credal, sp.omega()) == (w1, y, w0)


# --- what the one-option shortcut and the backward filter rest on ----------------


@st.composite
def option_tables(draw):
    """A random event b, 1-8 integer rows on it, and the members of a joint
    model (one), a credal one (two or three) or none (model-free), each
    giving b positive mass."""
    atoms = tuple(f"w{i}" for i in range(draw(st.integers(1, 4))))
    sp = PossibilitySpace(atoms)
    b = sp.event(draw(st.sets(st.sampled_from(atoms), min_size=1)))
    members = []
    for _ in range(draw(st.integers(0, 3))):
        ws = draw(st.lists(st.integers(0, 4), min_size=len(atoms), max_size=len(atoms)))
        ws[sp.position(b.ordered[0])] += 1
        members.append(MassFunction(sp, tuple(Fraction(w, sum(ws)) for w in ws)))
    n = draw(st.integers(1, 8))
    rows = draw(st.lists(st.tuples(*[st.integers(-4, 4)] * len(b)), min_size=n, max_size=n))
    return b, rows, tuple(members)


def rules_for(members):
    """The kinds of `RULES` that apply to a table under *members*."""
    return [
        kind for kind in RULES
        if kind in MODEL_FREE or len(members) == 1 or (members and kind != "eu")
    ]


@given(option_tables(), st.data())
@settings(max_examples=200, deadline=None)
def test_every_rule_keeps_a_nonempty_subset_in_order(data, draw):
    # `_chosen` keeps the rows of a node that holds one distinct option
    # without asking the rule: every rule would keep that option.
    b, rows, members = data
    table = OptionTable.on(b, rows, members)
    every = range(len(table))
    some = sorted(draw.draw(st.sets(st.sampled_from(every), min_size=1), label="subset"))
    one = OptionTable.on(b, rows[:1], members)
    for kind in rules_for(members):
        rule = RULES[kind]
        for idx in (every, some):
            kept = rule(table, idx)
            assert kept and kept == [j for j in idx if j in set(kept)], kind
        assert rule(one, range(1)) == [0], kind
        assert all(rule(table, [j]) == [j] for j in every), kind


@given(option_tables(), st.data())
@settings(max_examples=200, deadline=None)
def test_separable_rules_are_path_independent(data, draw):
    # Dropping options a separable rule does not choose changes none of its
    # choice (Plott, Econometrica 41, 1973): what lets backward induction
    # choose among the rows formed from its children's choices.
    b, rows, members = data
    table = OptionTable.on(b, rows, members)
    every = range(len(table))
    for kind in rules_for(members):
        if not ChoiceFunction(kind).is_separable:
            continue
        chosen = RULES[kind](table, every)
        rest = [j for j in every if j not in chosen]
        dropped = draw.draw(st.sets(st.sampled_from(rest)), label=kind) if rest else set()
        assert RULES[kind](table, [j for j in every if j not in dropped]) == chosen, kind


def breaks_arrows_axiom(rule, table, y, x):
    """Does *rule* break Arrow's choice axiom (Arrow, Economica 26, 1959)
    on the options *x* ⊆ *y* of *table*, both in order: is opt(Y) ∩ X
    nonempty and unequal to opt(X)?"""
    meet = [j for j in rule(table, y) if j in x]
    return bool(meet) and meet != rule(table, x)


@given(option_tables(), st.data())
@settings(max_examples=200, deadline=None)
def test_value_based_rules_hold_arrows_choice_axiom(data, draw):
    # What lets the canonical scan settle a value-based rule's shape (b)
    # blocks, a decision node below another decision node's arc, in bulk.
    b, rows, members = data
    table = OptionTable.on(b, rows, members)
    y = sorted(draw.draw(st.sets(st.sampled_from(range(len(table))), min_size=1), label="Y"))
    x = sorted(draw.draw(st.sets(st.sampled_from(y), min_size=1), label="X"))
    for kind in rules_for(members):
        if ChoiceFunction(kind).is_value_based:
            assert not breaks_arrows_axiom(RULES[kind], table, y, x), kind


#: Rows on a two-atom space, each its own member-sum vector under the two
#: point masses, on which Y = every option and X = options 1 and 2 break
#: Arrow's choice axiom under some rule: the counterexample each unflagged
#: kind must have, which the random test, checking flagged kinds alone,
#: never looks for.
ARROW_POOL = (
    # (10, 0) beats (9, -1) under both members and (0, 10) beats neither:
    # maximality, both E-admissibilities and pointwise dominance drop
    # (9, -1) from Y but keep it in X
    ((10, 0), (0, 10), (9, -1)),
    # (5, 5)'s lower expectation is above (4, 4)'s upper one: interval
    # dominance drops (4, 4) from Y but keeps it in X
    ((5, 5), (4, 4), (0, 10)),
)


def arrow_flag_mismatches():
    """The kinds of `RULES` whose `is_value_based` flag `ARROW_POOL`
    contradicts: flagged yet broken on some table of the pool, or unflagged
    and broken on none, under both point masses or the first alone."""
    sp = PossibilitySpace(("w0", "w1"))
    points = tuple(MassFunction(sp, tuple(map(Fraction, w))) for w in ((1, 0), (0, 1)))
    broken = set()
    for rows in ARROW_POOL:
        for members in (points, points[:1]):
            table = OptionTable.on(sp.event(sp.atoms), rows, members)
            for kind in rules_for(members):
                if breaks_arrows_axiom(RULES[kind], table, range(len(rows)), [1, 2]):
                    broken.add(kind)
    return {kind for kind in RULES if ChoiceFunction(kind).is_value_based == (kind in broken)}


def test_the_pool_breaks_arrows_choice_axiom_exactly_where_no_flag_is_set():
    assert arrow_flag_mismatches() == set()


@pytest.mark.parametrize("kind", RULES)
def test_a_wrong_value_based_flag_contradicts_the_pool(monkeypatch, kind):
    # The mutation check: flipping one rule's flag is caught by the pool.
    real = ChoiceFunction.is_value_based.fget
    flipped = property(lambda self: real(self) != (self.kind == kind))
    monkeypatch.setattr(ChoiceFunction, "is_value_based", flipped)
    assert arrow_flag_mismatches() == {kind}


# --- shape (a): a rule that splits over events ------------------------------------


def composite(t1, t2, z):
    """The table, on e1 | e2, of each option of *t1* (on e1) followed by
    option *z* of *t2* (on e2), made as `canonical._composite` makes it:
    both tables weigh a member by the same integers, so the sums add."""
    return OptionTable(
        [row + t2.rows[z] for row in t1.rows],
        [tuple(map(operator.add, v, t2.vectors[z])) for v in t1.vectors],
        list(map(operator.add, t1.totals, t2.totals)),
    )


def breaks_conditioning(rule, t1, t2, idx):
    """Does *rule* choose differently among the options *idx* of *t1* on e1
    alone and among them each followed by *t2*'s first option on e2?  The
    paper's shape (a): a gamble z off e1 = A ∩ B, shared by every option,
    must not change the choice made on e1."""
    return rule(composite(t1, t2, 0), idx) != rule(t1, idx)


@st.composite
def split_tables(draw):
    """Disjoint nonempty events e1 and e2, 1-6 integer rows on e1, one row on
    e2, and the members of a joint model (one), a credal one (two or three)
    or none (model-free), each giving both events positive mass."""
    atoms = tuple(f"w{i}" for i in range(draw(st.integers(2, 5))))
    sp = PossibilitySpace(atoms)
    one = draw(st.sets(st.sampled_from(atoms), min_size=1, max_size=len(atoms) - 1))
    e1 = sp.event(one)
    e2 = sp.event(draw(st.sets(st.sampled_from([a for a in atoms if a not in one]), min_size=1)))
    members = []
    for _ in range(draw(st.integers(0, 3))):
        ws = draw(st.lists(st.integers(0, 4), min_size=len(atoms), max_size=len(atoms)))
        ws[sp.position(e1.ordered[0])] += 1
        ws[sp.position(e2.ordered[0])] += 1
        members.append(MassFunction(sp, tuple(Fraction(w, sum(ws)) for w in ws)))
    n = draw(st.integers(1, 6))
    rows = draw(st.lists(st.tuples(*[st.integers(-4, 4)] * len(e1)), min_size=n, max_size=n))
    z = draw(st.tuples(*[st.integers(-4, 4)] * len(e2)))
    members = tuple(members)
    return OptionTable.on(e1, rows, members), OptionTable.on(e2, [z], members), members


@given(split_tables(), st.data())
@settings(max_examples=300, deadline=None)
def test_separable_rules_choose_on_e1_alone(data, draw):
    # What lets backward induction solve a separable rule, and the canonical
    # scan pass its shape (a) blocks without judging them.
    t1, t2, members = data
    idx = sorted(draw.draw(st.sets(st.sampled_from(range(len(t1))), min_size=1), label="idx"))
    for kind in rules_for(members):
        if ChoiceFunction(kind).is_separable:
            assert not breaks_conditioning(RULES[kind], t1, t2, idx), kind


#: Cases on the space w0..wk, with e1 = w0..w(k-1) and e2 = wk: the rows
#: of the options on e1, z's value on e2, and the members as integer
#: weights on the atoms.  Each unflagged kind breaks shape (a) on some case,
#: which the random test, checking flagged kinds alone, never looks for.
SPLIT_POOL = (
    # maximin: (0) and (3) followed by z = 0 both have worst value 0, but
    # on e1 alone (3) is better
    (((0,), (3,)), 0, ()),
    # interval dominance: followed by z = -3 the upper expectations all
    # reach (3)'s lower one, -1, but on e1 alone (3) is best for certain
    (((3,), (1,), (2,)), -3, ((1, 2), (3, 1))),
    # Γ-maximin: on e1 both options have lower expectation 0, but followed
    # by z = 1 (0, 1)'s is 2/3 and (0, 0)'s 1/2
    (((0, 0), (0, 1)), 1, ((0, 1, 1), (1, 0, 2))),
    # Γ-maximax: on e1 both options have upper expectation 1, but followed
    # by z = 0 (0, 1)'s is 1/2 and (1, 0)'s 1/3
    (((0, 1), (1, 0)), 0, ((0, 1, 1), (1, 0, 2))),
)


def split_flag_mismatches():
    """The kinds of `RULES` whose `is_separable` flag `SPLIT_POOL`
    contradicts: flagged yet broken on some case, or unflagged and broken
    on none."""
    broken = set()
    for rows, z, weights in SPLIT_POOL:
        k = len(rows[0])
        sp = PossibilitySpace(tuple(f"w{i}" for i in range(k + 1)))
        members = tuple(MassFunction(sp, tuple(Fraction(w, sum(ws)) for w in ws)) for ws in weights)
        t1 = OptionTable.on(sp.event(sp.atoms[:k]), rows, members)
        t2 = OptionTable.on(sp.event(sp.atoms[k:]), [(z,)], members)
        for kind in rules_for(members):
            if breaks_conditioning(RULES[kind], t1, t2, range(len(rows))):
                broken.add(kind)
    return {kind for kind in RULES if ChoiceFunction(kind).is_separable == (kind in broken)}


def test_the_pool_breaks_shape_a_exactly_where_no_flag_is_set():
    assert split_flag_mismatches() == set()


@pytest.mark.parametrize("kind", RULES)
def test_a_wrong_separable_flag_contradicts_the_pool(monkeypatch, kind):
    # The mutation check: flipping one rule's flag is caught by the pool.
    real = ChoiceFunction.is_separable.fget
    flipped = property(lambda self: real(self) != (self.kind == kind))
    monkeypatch.setattr(ChoiceFunction, "is_separable", flipped)
    assert split_flag_mismatches() == {kind}


@given(
    option_tables(),
    st.lists(st.fractions(-9, 9, max_denominator=6), min_size=1, max_size=8),
    st.data(),
)
@settings(max_examples=200, deadline=None)
def test_eu_keeps_the_argmax_of_its_one_member_s_sums(data, factored, draw):
    # Expected utility is E-admissibility under one member, on a table of
    # one member's sums and on a factored model's table of one value per
    # option alike.
    b, rows, members = data
    tables = [OptionTable((), [(v,) for v in factored])]
    if members:
        tables.append(OptionTable.on(b, rows, members[:1]))
    for table in tables:
        idx = sorted(draw.draw(st.sets(st.sampled_from(range(len(table))), min_size=1)))
        assert RULES["eu"](table, idx) == reference_eu(table, idx)


# --- the exact integer kernel -----------------------------------------------------

values = st.fractions(min_value=-30, max_value=30, max_denominator=12)
masses = st.one_of(st.just(Fraction(0)), st.fractions(0, 1, max_denominator=40))


@st.composite
def members_event_and_rows(draw):
    # Masses may be zero, so a member may give the event probability zero.
    atoms = tuple(f"w{i}" for i in range(draw(st.integers(1, 5))))
    sp = PossibilitySpace(atoms)
    members = []
    for _ in range(draw(st.integers(1, 4))):
        ws = draw(st.lists(masses, min_size=len(atoms), max_size=len(atoms)))
        if not sum(ws):
            ws[draw(st.sampled_from(range(len(atoms))))] = Fraction(1)
        members.append(MassFunction(sp, tuple(w / sum(ws) for w in ws)))
    b = sp.event(draw(st.sets(st.sampled_from(atoms), min_size=1)))
    rows = draw(st.lists(st.lists(values, min_size=len(b), max_size=len(b)), max_size=6))
    return members, b, rows


@given(members_event_and_rows())
@settings(max_examples=200, deadline=None)
def test_integer_sums_match_fraction_sums(data):
    members, b, rows = data
    d = math.lcm(*{v.denominator for row in rows for v in row})
    int_rows = [tuple(scaled(v, d) for v in row) for row in rows]
    probs = [p.prob(b) for p in members]
    if 0 in probs:
        message = "a credal member gives" if any(probs) else "has probability zero"
        with pytest.raises(ZeroProbabilityCondition, match=message):
            OptionTable.on(b, int_rows, members)
        return
    t = OptionTable.on(b, int_rows, members)
    assert all(type(x) is int for x in (*t.totals, *(x for v in t.vectors for x in v)))
    exact = [
        [sum((p.mass(a) * v for a, v in zip(b.ordered, row)), Fraction(0)) for row in rows]
        for p in members
    ]
    # each member's sums and total carry d and one positive integer factor
    # of that member's own
    factors = [total / pb for total, pb in zip(t.totals, probs)]
    assert all(f.denominator == 1 and f > 0 for f in factors)
    assert t.vectors == [
        tuple(d * f * member[j] for f, member in zip(factors, exact)) for j in range(len(rows))
    ]
    conditional = list(zip(*([e / pb for e in member] for pb, member in zip(probs, exact))))
    assert [Fraction(x, d * t.scale) for x in t.lower] == [min(c) for c in conditional]
    assert [Fraction(x, d * t.scale) for x in t.upper] == [max(c) for c in conditional]


def test_eu_under_a_joint_model_keeps_its_zero_probability_message():
    sp = PossibilitySpace(("w1", "w2"))
    p = MassFunction.from_mapping(sp, {"w1": 1, "w2": 0})
    with pytest.raises(
        ZeroProbabilityCondition, match=r"conditioning event .* has probability zero"
    ):
        ChoiceFunction("eu").choose([g(sp, 1, 2)], JointModel(p), sp.event(["w2"]))


def test_choose_refuses_no_options_an_empty_event_and_a_scope_that_misses_it(w2):
    sp, p1, p2 = w2
    model = CredalModel(CredalSet((p1, p2)))
    w1 = sp.event(["w1"])
    for kind in ("maximality", "maximin"):
        choice = ChoiceFunction(kind)
        with pytest.raises(EmptyInput, match="no options to choose from"):
            choice.choose([], model, sp.omega())
        with pytest.raises(ZeroProbabilityCondition, match="conditioning event is empty"):
            choice.choose([g(sp, 1, 0)], model, sp.event([]))
        with pytest.raises(ScopeMismatch, match="a gamble's scope does not cover"):
            choice.choose([g(sp, 1, 0), Gamble.from_mapping(w1, {"w1": 1})], model, sp.omega())
        table = OptionTable.on(sp.omega(), [(1,)], choice.row_members(model))
        with pytest.raises(ScopeMismatch, match="an option row does not cover"):
            choice.choose(table, model, sp.omega())


def test_choose_returns_a_table_s_kept_rows(w2):
    sp, p1, p2 = w2
    model = CredalModel(CredalSet((p1, p2)))
    pool = [g(sp, 1, 0), g(sp, 0, 1), g(sp, 0, 0)]
    table = OptionTable.of(pool, sp.omega(), model.credal.members)
    assert len(table) == 3
    assert ChoiceFunction("maximality").choose(table, model, sp.omega()) == ((1, 0), (0, 1))


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


# --- which members a rule reads -----------------------------------------------

_CREDAL = ("p1", "p2")
_EVERY_MODEL = ("none", "joint", "factored", "credal", "utilities")
# kind -> model -> the members `row_members` returns; an absent model is None
_ROW_MEMBERS = {
    "eu": {"joint": ("p1",)},
    "maximin": dict.fromkeys(_EVERY_MODEL, ()),
    "gamma_maximin": {"credal": _CREDAL},
    "gamma_maximax": {"credal": _CREDAL},
    "maximality": {"credal": _CREDAL},
    "e_admissible": {"credal": _CREDAL},
    "e_admissible_hull": {"credal": _CREDAL},
    "interval_dominance": {"credal": _CREDAL},
    "pointwise_dominance": dict.fromkeys(_EVERY_MODEL, ()),
    "imprecise_utility": {},
    "by_preorder": {},
}


@pytest.mark.parametrize("name", _EVERY_MODEL)
@pytest.mark.parametrize("kind", KINDS)
def test_row_members_names_what_each_rule_reads(w2, kind, name):
    sp, p1, p2 = w2
    tree = DecisionTree(
        sp, chance("C", [(sp.event(["w1"]), leaf("L1", 1)), (sp.event(["w2"]), leaf("L2", 0))])
    )
    model = {
        "none": None,
        "joint": JointModel(p1),
        "factored": FactoredModel(
            TreeFactoredAssessment(tree, {"C": (Fraction(1, 4), Fraction(3, 4))})
        ),
        "credal": CredalModel(CredalSet((p1, p2))),
        "utilities": UtilityModel(UtilityFunctionSet.from_tables([{"r": 1}]), None),
    }[name]
    cf = ChoiceFunction(kind, preorder=(lambda *_: True) if kind == "by_preorder" else None)
    expected = _ROW_MEMBERS[kind].get(name)
    members = {"p1": p1, "p2": p2}
    got = cf.row_members(model)
    assert got == (None if expected is None else tuple(members[m] for m in expected))
    if got is None and kind in RULES and not (kind == "eu" and name == "factored"):
        # a model that does not suit the rule
        message = (
            "expected utility needs a joint or factored model"
            if kind == "eu"
            else f"{kind} needs a credal model"
        )
        with pytest.raises(ModeUnsupported, match=f"^{re.escape(message)}$"):
            cf.choose([g(sp, 1, 0), g(sp, 0, 1)], model, sp.omega())
