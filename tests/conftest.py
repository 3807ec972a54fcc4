"""Shared builders for the worked-example problems used across the tests.

Each builder returns freshly constructed objects so tests can mutate or
re-model without cross-talk.  Node ids and arc labels match the shipped
problem files (N1, N2, d1, A1, ...) so failures read naturally.
"""

import itertools
import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from credaltrees import (
    ChanceArc,
    ChanceNode,
    CredalModel,
    CredalSet,
    DecisionArc,
    DecisionNode,
    DecisionTree,
    FactoredModel,
    Gamble,
    GambleLeaf,
    JointModel,
    Leaf,
    MassFunction,
    Outcome,
    PossibilitySpace,
    Strategy,
    TreeFactoredAssessment,
    UtilityFunctionSet,
    UtilityModel,
    ZeroProbabilityCondition,
    chance,
    decision,
    enumerate_strategies,
    gamble_of,
    kept_arcs,
    leaf,
    strategy_table,
    subtree_at,
    validate_tree,
)
from credaltrees import canonical, solver
from credaltrees.uncertainty import expectation, utility_values


def F(n, d=1):
    return Fraction(n, d)


# --- first expected-utility example: decision root, two decision children ----


def build_eu1():
    sp = PossibilitySpace(("e1", "e2"))
    E1 = sp.event(["e1"])
    E2 = sp.event(["e2"])
    root = decision(
        "N",
        [
            (
                "to_N1",
                decision(
                    "N1",
                    [
                        ("d1", chance("N1c1", [(E1, leaf("N1c1a", 2)), (E2, leaf("N1c1b", 0))])),
                        ("d2", chance("N1c2", [(E1, leaf("N1c2a", 1)), (E2, leaf("N1c2b", 1))])),
                    ],
                ),
            ),
            (
                "to_N2",
                decision(
                    "N2",
                    [
                        ("d1", chance("N2c1", [(E1, leaf("N2c1a", 3)), (E2, leaf("N2c1b", 0))])),
                        ("d2", chance("N2c2", [(E1, leaf("N2c2a", 4)), (E2, leaf("N2c2b", -1))])),
                    ],
                ),
            ),
        ],
    )
    tree = validate_tree(DecisionTree(sp, root))
    model = JointModel(MassFunction.from_mapping(sp, {"e1": F(3, 5), "e2": F(2, 5)}))
    return tree, model


# --- second and third examples: chance root, one decision branch --------------


def build_eu2_tree():
    sp = PossibilitySpace(("a1e1", "a1e2", "a2e1", "a2e2"))
    A1 = sp.event(["a1e1", "a1e2"])
    A2 = sp.event(["a2e1", "a2e2"])
    root = chance(
        "N",
        [
            (
                A1,
                decision(
                    "N1",
                    [
                        (
                            "d1",
                            chance(
                                "N1c1",
                                [
                                    (sp.event(["a1e1"]), leaf("N1c1a", 2)),
                                    (sp.event(["a1e2"]), leaf("N1c1b", 0)),
                                ],
                            ),
                        ),
                        (
                            "d2",
                            chance(
                                "N1c2",
                                [
                                    (sp.event(["a1e1"]), leaf("N1c2a", 1)),
                                    (sp.event(["a1e2"]), leaf("N1c2b", 1)),
                                ],
                            ),
                        ),
                    ],
                ),
            ),
            (
                A2,
                chance(
                    "N2",
                    [
                        (sp.event(["a2e1"]), leaf("N2a", 3)),
                        (sp.event(["a2e2"]), leaf("N2b", 0)),
                    ],
                ),
            ),
        ],
    )
    return validate_tree(DecisionTree(sp, root))


def build_eu2():
    tree = build_eu2_tree()
    sp = tree.space
    model = JointModel(
        MassFunction.from_mapping(
            sp,
            {"a1e1": F(3, 10), "a1e2": F(1, 5), "a2e1": F(1, 5), "a2e2": F(3, 10)},
        )
    )
    return tree, model


def build_eu3():
    """Same tree, factored chances, and the first split gets probability zero."""
    tree = build_eu2_tree()
    assessment = TreeFactoredAssessment(
        tree,
        {
            "N": (F(0), F(1)),
            "N1c1": (F(3, 5), F(2, 5)),
            "N1c2": (F(3, 5), F(2, 5)),
            "N2": (F(2, 5), F(3, 5)),
        },
    )
    return tree, FactoredModel(assessment)


# --- the six-strategy sequential example --------------------------------------


def build_lake():
    sp = PossibilitySpace(("s1e1", "s1e2", "s2e1", "s2e2"))
    S1E1 = sp.event(["s1e1"])
    S1E2 = sp.event(["s1e2"])
    S2E1 = sp.event(["s2e1"])
    S2E2 = sp.event(["s2e2"])
    S1 = sp.event(["s1e1", "s1e2"])
    S2 = sp.event(["s2e1", "s2e2"])
    E1 = sp.event(["s1e1", "s2e1"])
    E2 = sp.event(["s1e2", "s2e2"])

    def pair(prefix, ev_hi, ev_lo, hi, lo):
        return chance(
            prefix,
            [(ev_hi, leaf(prefix + "a", hi)), (ev_lo, leaf(prefix + "b", lo))],
        )

    root = decision(
        "N1",
        [
            (
                "dS",
                chance(
                    "N1S",
                    [
                        (
                            S1,
                            decision(
                                "NS1",
                                [
                                    ("d1", pair("NS1c1", S1E1, S1E2, 9, 14)),
                                    ("d2", pair("NS1c2", S1E1, S1E2, 4, 19)),
                                ],
                            ),
                        ),
                        (
                            S2,
                            decision(
                                "NS2",
                                [
                                    ("d1", pair("NS2c1", S2E1, S2E2, 9, 14)),
                                    ("d2", pair("NS2c2", S2E1, S2E2, 4, 19)),
                                ],
                            ),
                        ),
                    ],
                ),
            ),
            (
                "dnoS",
                decision(
                    "N2",
                    [
                        ("d1", pair("N2c1", E1, E2, 10, 15)),
                        ("d2", pair("N2c2", E1, E2, 5, 20)),
                    ],
                ),
            ),
        ],
    )
    return validate_tree(DecisionTree(sp, root))


# --- imprecise utility over reward labels -------------------------------------


def build_imprecise_utility():
    sp = PossibilitySpace(("w",))
    root = decision(
        "N1",
        [
            ("down", decision("N2", [("r1", leaf("L1", "r1")), ("r2", leaf("L2", "r2"))])),
            ("r3", leaf("L3", "r3")),
        ],
    )
    tree = validate_tree(DecisionTree(sp, root))
    utilities = UtilityFunctionSet.from_tables(
        [
            {"r1": F(3), "r2": F(1), "r3": F(2)},
            {"r1": F(-3), "r2": F(1), "r3": F(2)},
        ]
    )
    return tree, UtilityModel(utilities, None)


# --- e-admissibility: the success tree with two mirrored branches -------------


def build_eadm_success():
    sp = PossibilitySpace(("a1b1", "a1b2", "a2b1", "a2b2"))
    A1 = sp.event(["a1b1", "a1b2"])
    A2 = sp.event(["a2b1", "a2b2"])
    root = chance(
        "N",
        [
            (
                A1,
                decision(
                    "N1",
                    [
                        (
                            "gamble",
                            chance(
                                "N11",
                                [
                                    (sp.event(["a1b1"]), leaf("N11a", 1)),
                                    (sp.event(["a1b2"]), leaf("N11b", -1)),
                                ],
                            ),
                        ),
                        ("safe", leaf("N1z", 0)),
                    ],
                ),
            ),
            (
                A2,
                decision(
                    "N2",
                    [
                        (
                            "gamble",
                            chance(
                                "N21",
                                [
                                    (sp.event(["a2b1"]), leaf("N21a", -1)),
                                    (sp.event(["a2b2"]), leaf("N21b", 1)),
                                ],
                            ),
                        ),
                        ("safe", leaf("N2z", 0)),
                    ],
                ),
            ),
        ],
    )
    tree = validate_tree(DecisionTree(sp, root))
    p1 = MassFunction.from_mapping(
        sp, {"a1b1": F(3, 10), "a1b2": F(1, 5), "a2b1": F(3, 10), "a2b2": F(1, 5)}
    )
    p2 = MassFunction.from_mapping(
        sp, {"a1b1": F(1, 5), "a1b2": F(3, 10), "a2b1": F(1, 5), "a2b2": F(3, 10)}
    )
    return tree, CredalModel(CredalSet((p1, p2)))


# --- e-admissibility: the nested-decision failure tree ------------------------


def build_eadm_failure():
    sp = PossibilitySpace(("a1", "a2"))
    A1 = sp.event(["a1"])
    A2 = sp.event(["a2"])
    root = decision(
        "N1",
        [
            (
                "down",
                decision(
                    "N2",
                    [
                        ("risky", chance("N3", [(A1, leaf("N3a", 5)), (A2, leaf("N3b", -5))])),
                        ("one", leaf("L1", 1)),
                    ],
                ),
            ),
            ("two", leaf("L2", 2)),
        ],
    )
    tree = validate_tree(DecisionTree(sp, root))
    p1 = MassFunction.from_mapping(sp, {"a1": F(4, 5), "a2": F(1, 5)})
    p2 = MassFunction.from_mapping(sp, {"a1": F(1, 5), "a2": F(4, 5)})
    return tree, CredalModel(CredalSet((p1, p2)))


# --- maximin: chance node above the only decision ------------------------------


def build_maximin_failure():
    sp = PossibilitySpace(("a1", "a2"))
    A1 = sp.event(["a1"])
    A2 = sp.event(["a2"])
    root = chance(
        "N1",
        [
            (A1, decision("N2", [("two", leaf("L2", 2)), ("one", leaf("L1", 1))])),
            (A2, leaf("L0", 0)),
        ],
    )
    return validate_tree(DecisionTree(sp, root)), None


# --- gamma-maximin: preference reversal between tree and subtree ---------------


def build_gamma_failure():
    sp = PossibilitySpace(("a1b1", "a1b2", "a2b1", "a2b2"))
    A1 = sp.event(["a1b1", "a1b2"])
    A2 = sp.event(["a2b1", "a2b2"])
    root = chance(
        "N",
        [
            (
                A1,
                decision(
                    "N1",
                    [
                        (
                            "gamble",
                            chance(
                                "N11",
                                [
                                    (sp.event(["a1b1"]), leaf("N11a", 2)),
                                    (sp.event(["a1b2"]), leaf("N11b", -1)),
                                ],
                            ),
                        ),
                        ("safe", leaf("N1z", 0)),
                    ],
                ),
            ),
            (
                A2,
                chance(
                    "N2",
                    [
                        (sp.event(["a2b1"]), leaf("N2a", -1)),
                        (sp.event(["a2b2"]), leaf("N2b", 2)),
                    ],
                ),
            ),
        ],
    )
    tree = validate_tree(DecisionTree(sp, root))
    p1 = MassFunction.from_mapping(
        sp, {"a1b1": F(1, 10), "a1b2": F(2, 5), "a2b1": F(1, 10), "a2b2": F(2, 5)}
    )
    p2 = MassFunction.from_mapping(
        sp, {"a1b1": F(2, 5), "a1b2": F(1, 10), "a2b1": F(2, 5), "a2b2": F(1, 10)}
    )
    return tree, CredalModel(CredalSet((p1, p2)))


# --- alternating decision(3)/chance(2) trees ------------------------------------


def build_alternating(seed, levels=5, atoms=8):
    """Decision nodes with three arcs alternate with chance nodes that halve
    the event, over *levels* levels and *atoms* atoms; integer leaf rewards
    in [-10, 20].

    By default the tree has 172 nodes and 2187 strategies; with seven levels
    and sixteen atoms it has 1036 nodes and 14,348,907 strategies.  Returns
    the tree and a credal model of three random positive mass functions;
    cubed weights spread them apart, so that the set-valued rules disagree.
    """
    rng = random.Random(seed)
    sp = PossibilitySpace(tuple(f"w{i}" for i in range(atoms)))
    ids = iter(range(10**6))

    def build(atoms, level):
        node_id = f"n{next(ids)}"
        if level == levels:
            return leaf(node_id, rng.randint(-10, 20))
        if level % 2 == 0:
            return decision(
                node_id, [(f"a{k}", build(atoms, level + 1)) for k in range(3)]
            )
        half = sorted(rng.sample(atoms, len(atoms) // 2))
        rest = [a for a in atoms if a not in half]
        return chance(
            node_id,
            [(sp.event(part), build(part, level + 1)) for part in (half, rest)],
        )

    tree = validate_tree(DecisionTree(sp, build(list(sp.atoms), 0)))

    def member():
        weights = [rng.randint(1, 10) ** 3 for _ in sp.atoms]
        total = sum(weights)
        return MassFunction.from_mapping(
            sp, {a: F(w, total) for a, w in zip(sp.atoms, weights)}
        )

    return tree, CredalModel(CredalSet(tuple(member() for _ in range(3))))


# --- option pools for the dominance rules ---------------------------------------


@st.composite
def dominance_pools(draw):
    """Small option sets full of duplicates and ties, with a conditioning event.

    The distinct gambles come either from a narrow grid, where equal row
    sums and equal member sums (the sort keys of the dominance kernel) are
    common, or from near a concave front over the first two atoms, where
    many options are undominated and hull E-admissibility needs its LP.
    Reversed copies tie with their originals in row sum on the whole space;
    every distinct gamble appears at least once, some of them repeatedly.
    """
    atoms = tuple(f"w{i}" for i in range(draw(st.integers(2, 4))))
    sp = PossibilitySpace(atoms)
    front = draw(st.booleans())
    spread = 9 if front else 3

    def member():
        weights = [draw(st.integers(1, spread)) for _ in atoms]
        total = sum(weights)
        return MassFunction.from_mapping(
            sp, {a: F(w, total) for a, w in zip(atoms, weights)}
        )

    n_members = draw(st.integers(2 if front else 1, 3))
    credal = CredalSet(tuple(member() for _ in range(n_members)))
    if front:
        r = draw(st.integers(4, 9))
        rest = st.tuples(*[st.integers(-1, 1) for _ in atoms[2:]])
        rows = [
            (x, math.isqrt(r * r - x * x) - draw(st.integers(0, 1)), *draw(rest))
            for x in draw(st.sets(st.integers(0, r), min_size=3, max_size=7))
        ]
    else:
        rows = draw(
            st.lists(
                st.tuples(*[st.integers(-2, 2) for _ in atoms]),
                min_size=2,
                max_size=6,
            )
        )
    rows += [row[::-1] for row in rows[: draw(st.integers(0, len(rows)))]]
    rows += draw(st.lists(st.sampled_from(rows), max_size=4))
    pool = [
        Gamble.from_mapping(sp.omega(), dict(zip(atoms, map(F, row))))
        for row in draw(st.permutations(rows))
    ]
    # The front lies over the first two atoms, so conditioning keeps them.
    keep = set(atoms[:2]) if front else set()
    b = sp.event(keep | draw(st.sets(st.sampled_from(atoms), min_size=1)))
    return credal, pool, b


@st.composite
def label_pools(draw, chance_part):
    """A utility model, label options with repeats and ties, and a
    conditioning event, under *chance_part*: None, "joint" or "factored".

    The options are the gambles of the strategies of a decision root over
    label leaves and, given a chance part, chance nodes that split the space
    in two.  Utilities are small integers, so functions tie often.  Without
    a chance part every option is constant.  A factored part values options
    on the root scope, where its tree induces them, and gives every chance
    node the same arc probabilities (0 among them), so that it values a
    gamble the same wherever the tree induces it.
    """
    atoms = ("w1", "w2", "w3")
    sp = PossibilitySpace(atoms)
    labels = [f"r{i}" for i in range(draw(st.integers(1, 4)))]
    utilities = UtilityFunctionSet(
        tuple(
            {r: F(draw(st.integers(-2, 2))) for r in labels}
            for _ in range(draw(st.integers(1, 3)))
        )
    )
    halves = (sp.event(atoms[:1]), sp.event(atoms[1:]))
    label = st.sampled_from(labels)
    arcs = []
    for i in range(draw(st.integers(1, 5))):
        if chance_part and draw(st.booleans()):
            child = chance(
                f"C{i}", [(e, leaf(f"C{i}{k}", draw(label))) for k, e in enumerate(halves)]
            )
        else:
            child = leaf(f"L{i}", draw(label))
        arcs.append((f"a{i}", child))
    tree = DecisionTree(sp, decision("D", arcs))
    b = sp.event(draw(st.sets(st.sampled_from(atoms), min_size=1)))
    if chance_part == "joint":
        weights = [draw(st.integers(1, 3)) for _ in atoms]
        chance_model = JointModel(
            MassFunction.from_mapping(sp, {a: F(w, sum(weights)) for a, w in zip(atoms, weights)})
        )
    elif chance_part == "factored":
        p = draw(st.sampled_from((F(0), F(1, 3), F(1, 2), F(1))))
        probs = {n.node_id: (p, 1 - p) for n, _ in tree.nodes() if isinstance(n, ChanceNode)}
        chance_model = FactoredModel(TreeFactoredAssessment(tree, probs))
        b = tree.root_scope
    else:
        chance_model = None
    pool = [gamble_of(s) for s in enumerate_strategies(tree)]
    pool += draw(st.lists(st.sampled_from(pool), max_size=3))
    return UtilityModel(utilities, chance_model), draw(st.permutations(pool)), b


def reference_eu(table, idx):
    """Expected utility's choice among the options *idx* of an `OptionTable`
    of one member's sums, or of one value per option: the argmax of each
    option's first entry, computed without E-admissibility's member loop."""
    vals = [table.vectors[j][0] for j in idx]
    top = max(vals)
    return [j for j, v in zip(idx, vals) if v == top]


# --- references for the rules, from the gambles' expectations ---------------------


def _expectations(xs, members, b):
    """``out[j][m]``: option j's conditional expectation given b under member m."""
    return [[expectation(p, x, b) for p in members] for x in xs]


def _argmax_of(xs, values):
    """The options whose value is the largest, in order, ties all kept."""
    top = max(values)
    return tuple(x for x, v in zip(xs, values) if v == top)


def reference_maximin(xs, members, b):
    """The options whose worst value on b is largest."""
    return _argmax_of(xs, [min(x.values_on(b)) for x in xs])


def reference_gamma_maximin(xs, members, b):
    """The options whose lower expectation given b is largest."""
    return _argmax_of(xs, [min(e) for e in _expectations(xs, members, b)])


def reference_gamma_maximax(xs, members, b):
    """The options whose upper expectation given b is largest."""
    return _argmax_of(xs, [max(e) for e in _expectations(xs, members, b)])


def reference_interval_dominance(xs, members, b):
    """The options whose upper expectation reaches the largest lower one."""
    e = _expectations(xs, members, b)
    best = max(min(r) for r in e)
    return tuple(x for x, r in zip(xs, e) if max(r) >= best)


def reference_maximality(xs, members, b):
    """The options that no option beats in expectation under every member."""
    e = _expectations(xs, members, b)
    return tuple(
        x for x, r in zip(xs, e) if not any(all(map(operator.gt, s, r)) for s in e)
    )


def reference_pointwise_dominance(xs, members, b):
    """The options that no option weakly beats everywhere on b, and strictly
    somewhere."""
    rows = [x.values_on(b) for x in xs]
    return tuple(
        x
        for x, r in zip(xs, rows)
        if not any(s != r and all(map(operator.ge, s, r)) for s in rows)
    )


def reference_e_admissible(xs, members, b):
    """The options of largest expectation under some one member."""
    e = _expectations(xs, members, b)
    tops = [max(col) for col in zip(*e)]
    return tuple(x for x, r in zip(xs, e) if any(map(operator.eq, r, tops)))


def _solve(rows, rhs):
    """The one x with ``rows x = rhs`` for a square system, exactly; None
    when the rows are singular."""
    n = len(rows)
    m = [[Fraction(c) for c in row] + [Fraction(r)] for row, r in zip(rows, rhs)]
    for col in range(n):
        pivot = next((i for i in range(col, n) if m[i][col] != 0), None)
        if pivot is None:
            return None
        m[col], m[pivot] = m[pivot], m[col]
        for i in range(n):
            if i != col and m[i][col] != 0:
                f = m[i][col] / m[col][col]
                m[i] = [u - f * v for u, v in zip(m[i], m[col])]
    return [m[i][n] / m[i][i] for i in range(n)]


def mixture_feasible_by_vertices(k, rows):
    """Is there w >= 0 with sum(w) = 1 and a . w >= 0 for every row a, decided
    without an LP?  That set lies in the simplex, so it is empty or has a
    vertex: a point where k - 1 of the inequalities w_m >= 0 and a . w >= 0
    hold with equality beside sum(w) = 1.  Solve each choice of k - 1 and
    test its solution against every inequality."""
    constraints = [[int(i == m) for i in range(k)] for m in range(k)]
    constraints += [list(a) for a in rows]
    for active in itertools.combinations(constraints, k - 1):
        w = _solve([[1] * k, *active], [1] + [0] * (k - 1))
        if w is not None and all(
            sum(map(operator.mul, a, w)) >= 0 for a in constraints
        ):
            return True
    return False


def reference_e_admissible_hull(xs, members, b):
    """The options of largest expectation under some mixture of the members:
    x_j is kept when some w in the simplex gives sum_m w_m (E_m[x_j|b] -
    E_m[x|b]) >= 0 for every option x.  The rule also weights member m by
    P_m(b), which keeps the same options while every P_m(b) > 0."""
    e = _expectations(xs, members, b)
    return tuple(
        x
        for x, r in zip(xs, e)
        if mixture_feasible_by_vertices(
            len(members), [list(map(operator.sub, r, s)) for s in e]
        )
    )


#: rule kind -> its reference, (options, members, b) -> kept options
REFERENCE_RULES = {
    "maximin": reference_maximin,
    "gamma_maximin": reference_gamma_maximin,
    "gamma_maximax": reference_gamma_maximax,
    "interval_dominance": reference_interval_dominance,
    "maximality": reference_maximality,
    "pointwise_dominance": reference_pointwise_dominance,
    "e_admissible": reference_e_admissible,
    "e_admissible_hull": reference_e_admissible_hull,
}


def reference_imprecise_utility(xs, model, b):
    """The options of maximal expected utility under some utility function:
    the union over the functions of the argmax of `utility_values`, in the
    options' order."""
    values = [utility_values(model, x, b) for x in xs]
    kept = set()
    for i in range(len(model.utilities.functions)):
        top = max(v[i] for v in values)
        kept.update(j for j, v in enumerate(values) if v[i] == top)
    return [x for j, x in enumerate(xs) if j in kept]


# --- references for the strategy table ------------------------------------------


def reference_strategies(tree):
    """The strategies of *tree* from the recursive enumerator that
    `strategy_table` replaced: depth first, last chance arc varying fastest."""

    def variants(node):
        if isinstance(node, (Leaf, GambleLeaf)):
            return [node]
        if isinstance(node, DecisionNode):
            return [
                DecisionNode(node.node_id, (DecisionArc(arc.label, child),))
                for arc in node.arcs
                for child in variants(arc.child)
            ]
        return [
            ChanceNode(
                node.node_id,
                tuple(ChanceArc(arc.event, c) for arc, c in zip(node.arcs, combo)),
            )
            for combo in itertools.product(*(variants(a.child) for a in node.arcs))
        ]

    return [Strategy(tree.space, v, tree.root_scope) for v in variants(tree.root)]


def reference_same_tree(x, y):
    """Structural equality of two nodes by a plain recursive comparison of
    their fields: the same class and id; for a leaf the same reward or
    gamble, and for an inner node arcs of the same classes, labels or
    events, whose children are equal in turn."""
    if type(x) is not type(y) or x.node_id != y.node_id:
        return False
    if isinstance(x, Leaf):
        return x.reward == y.reward
    if isinstance(x, GambleLeaf):
        return x.gamble == y.gamble
    return len(x.arcs) == len(y.arcs) and all(
        type(a) is type(c)
        and (a.label == c.label if isinstance(a, DecisionArc) else a.event == c.event)
        and reference_same_tree(a.child, c.child)
        for a, c in zip(x.arcs, y.arcs)
    )


def reference_solution(tree, choice, model, b=None):
    """The normal form solution by enumeration, `gamble_of` and dedup on b."""
    b = tree.root_scope if b is None else b
    strategies = reference_strategies(tree)
    gambles = [gamble_of(s) for s in strategies]
    distinct = {}
    for g in gambles:
        distinct.setdefault(g.values_on(b), g)
    chosen = {g.values_on(b) for g in choice.choose(list(distinct.values()), model, b)}
    return tuple(s for s, g in zip(strategies, gambles) if g.values_on(b) in chosen)


def reference_restriction(strategies, node_id):
    """The distinct subtrees at *node_id* of *strategies*, deduplicated by
    structural equality of the nodes, in order of first appearance."""
    seen = {}
    for s in strategies:
        if s.contains(node_id):
            seen.setdefault(subtree_at(s, node_id), None)
    return tuple(seen)


def reference_verdict(tree, choice, model, full, node_id):
    """(outcome, restriction, local solution) with strategies compared by
    structural equality of their nodes, the way the check compared them
    before kept arcs, each node's strategies decoded on their own."""
    restricted = reference_restriction(full, node_id)
    if not restricted:
        return Outcome.VACUOUS_HOLD, (), ()
    if node_id == tree.root.node_id:
        local = full
    else:
        try:
            local = reference_solution(subtree_at(tree, node_id), choice, model)
        except ZeroProbabilityCondition:
            return Outcome.ERROR, restricted, ()
    same = set(restricted) == set(local)
    return (Outcome.HOLD if same else Outcome.FAIL), restricted, local


def reference_verdicts(tree, choice, model):
    """(node id, outcome, restriction, local solution) at every node, in
    preorder, from `reference_verdict`; raises what `reference_solution`
    raises on the whole tree."""
    full = reference_solution(tree, choice, model)
    return tuple(
        (nid, *reference_verdict(tree, choice, model, full, nid)) for nid in tree.node_ids()
    )


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


def full_table_solution(tree, choice, model, b):
    """The positions a solve conditioned on *b* keeps, chosen among the
    root's entries of the full strategy table of *tree* re-rooted on *b*: a
    reference for the filtered tables `normal_form_solution` may read."""
    on_b = tree if b == tree.root_scope else DecisionTree(tree.space, tree.root, b)
    table = strategy_table(on_b, None, choice.row_members(model) or ())
    return tuple(solver._chosen(choice, model, table, b, table[tree.root.node_id]))


# --- references for the factored row values -------------------------------------


def reference_factored_expectation(a, s, node_id=None):
    """The expected reward of strategy *s* rooted at *node_id*, by backward
    recursion over the strategy: the recursive walker that the row values
    of the strategy table replaced."""
    node = s.root if node_id is None else s.find(node_id)

    def value(node):
        if isinstance(node, Leaf):
            if not isinstance(node.reward, Fraction):
                raise ValueError("factored expectation needs numeric rewards")
            return node.reward
        if isinstance(node, GambleLeaf):
            v = node.gamble.constant_value_on(node.gamble.scope)
            if not isinstance(v, Fraction):
                raise ValueError("factored expectation needs numeric rewards")
            return v
        if isinstance(node, DecisionNode):
            assert len(node.arcs) == 1, "a strategy keeps one arc per decision"
            return value(node.arcs[0].child)
        probs = a.arc_probs[node.node_id]
        return sum(
            (p * value(arc.child) for p, arc in zip(probs, node.arcs)), Fraction(0)
        )

    return value(node)


def relabel(tree, fn):
    """*tree* (or strategy) with every reward r replaced by fn(r); node ids,
    arcs and scopes are kept."""

    def rebuild(node):
        if isinstance(node, Leaf):
            return Leaf(node.node_id, fn(node.reward))
        if isinstance(node, GambleLeaf):
            g = node.gamble
            return GambleLeaf(node.node_id, Gamble(g.scope, tuple(map(fn, g.values))))
        if isinstance(node, DecisionNode):
            return DecisionNode(
                node.node_id,
                tuple(DecisionArc(a.label, rebuild(a.child)) for a in node.arcs),
            )
        return ChanceNode(
            node.node_id,
            tuple(ChanceArc(a.event, rebuild(a.child)) for a in node.arcs),
        )

    return type(tree)(tree.space, rebuild(tree.root), tree.root_scope)


def reference_utility_expectations(u, a, s):
    """Relabel-then-walk: the strategy's factored expected utility under each
    function of *u*, relabelling its leaves before the recursive walk."""
    return tuple(
        reference_factored_expectation(a, relabel(s, table.__getitem__))
        for table in u.functions
    )


# --- reference for the canonical scan -------------------------------------------


def pairs_in_plan_order(nx, ny, unordered):
    """A canonical block's (row, column) pairs in plan order."""
    for ci in range(nx):
        for cj in range(ci if unordered else 0, ny):
            yield ci, cj


def reference_scan(choice, model, space, pool, limits=None):
    """`check_canonical` judging instance by instance, as it did before it
    grouped a block's instances by key.

    The plan, the bulk-settled blocks and the verdict of a key pair are the
    scan's own; each instance's keys are computed here from its option sets
    (class masks built one combination at a time), or are its positions on
    the pipeline path, and every instance is judged in plan order.
    """
    checker = canonical._Checker(
        choice, model, space, pool, limits or canonical.CanonicalLimits()
    )
    lim = checker.limits
    blocks, total = checker._plan()
    budget = total if lim.max_instances is None else min(total, lim.max_instances)
    vstride = max(1, budget // lim.verify_sample)

    def key_of(ev, combo):
        return canonical._mask(ev.cls_of[i] for i in combo)

    def keys(shape, a, b, rows, cols):
        """Row and column key functions of a block judged one pair at a time."""
        if not checker.fast:
            return (lambda ci: ci), (lambda cj: cj)
        if shape == "b":
            ev = checker.event_data(b)
            xs = canonical._Prefix(key_of(ev, c) for c in rows)
            ys = canonical._Prefix(key_of(ev, c) for c in cols)
            return (lambda ci: xs.upto(ci + 1)[ci]), (lambda cj: ys.upto(cj + 1)[cj])
        ev1 = checker.event_data(a & b)
        ev2 = checker.event_data(a.complement() & b)
        xs = canonical._Prefix(key_of(ev1, c) for c in rows)
        return (lambda ci: xs.upto(ci + 1)[ci]), (lambda zj: ev2.cls_of[cols[zj]])

    examined = skipped = verified = 0
    next_verify = 1
    failure = None
    base = 0
    for shape, a, b, rows, cols, unordered, n in blocks:
        if base >= budget:
            break
        count = min(n, budget - base)
        base += n
        judge, build = checker._block(shape, a, b, rows, cols)
        if judge == "skip":
            skipped += count
        elif judge == "pass":
            start = examined
            examined += count
            while next_verify <= examined:
                ci, cj = canonical._pair_at(next_verify - start - 1, len(cols), unordered)
                checker._verify(build(ci, cj), canonical._PASS)
                verified += 1
                next_verify += vstride
        else:
            verdict = judge[2]
            row_key, col_key = keys(shape, a, b, rows, cols)
            for ci, cj in itertools.islice(
                pairs_in_plan_order(len(rows), len(cols), unordered), count
            ):
                v = verdict(row_key(ci), col_key(cj))
                if v[0] == "skip":
                    skipped += 1
                    continue
                examined += 1
                if v[0] == "fail":
                    failure = (shape, build(ci, cj), v[1])
                    if checker.fast:
                        checker._verify(failure[1], v)
                        verified += 1
                    break
                if checker.fast and examined == next_verify:
                    next_verify += vstride
                    checker._verify(build(ci, cj), v)
                    verified += 1
            if failure:
                break

    counts = dict(
        kind=choice.kind,
        instances_total=total,
        instances_examined=examined,
        instances_skipped=skipped,
        instances_verified=verified,
    )
    if failure:
        shape, inst, nodes = failure
        return canonical.CanonicalReport(
            passed=False,
            shape=shape,
            instance=inst,
            failing_nodes=nodes,
            note="counterexample confirmed by the tree pipeline",
            **counts,
        )
    return canonical.CanonicalReport(
        passed=True,
        note="no counterexample found in the given pool within the limits",
        **counts,
    )


def example_problems():
    """(name, tree, model) for every worked example; model None if it has none."""
    out = []
    for build in (build_eu1, build_eu2, build_eu3, build_imprecise_utility,
                  build_eadm_success, build_eadm_failure, build_maximin_failure,
                  build_gamma_failure):
        tree, model = build()
        out.append((build.__name__[6:], tree, model))
    out.append(("lake", build_lake(), None))
    out.append(("alternating", *build_alternating(seed=23)))
    return out


# --- fixtures ------------------------------------------------------------------


@pytest.fixture
def eu1():
    return build_eu1()


@pytest.fixture
def eu2():
    return build_eu2()


@pytest.fixture
def eu3():
    return build_eu3()


@pytest.fixture
def lake():
    return build_lake()


@pytest.fixture
def imprecise_utility_problem():
    return build_imprecise_utility()


@pytest.fixture
def eadm_success():
    return build_eadm_success()


@pytest.fixture
def eadm_failure():
    return build_eadm_failure()


@pytest.fixture
def maximin_failure():
    return build_maximin_failure()


@pytest.fixture
def gamma_failure():
    return build_gamma_failure()
