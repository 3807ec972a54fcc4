"""Shared builders for the worked-example problems used across the tests.

Each builder returns freshly constructed objects so tests can mutate or
re-model without cross-talk.  Node ids and arc labels match the shipped
problem files (N1, N2, d1, A1, ...) so failures read naturally.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from credaltrees import (
    CredalModel,
    CredalSet,
    DecisionTree,
    FactoredModel,
    Gamble,
    JointModel,
    MassFunction,
    PossibilitySpace,
    TreeFactoredAssessment,
    UtilityFunctionSet,
    UtilityModel,
    chance,
    decision,
    leaf,
    validate_tree,
)


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


def build_alternating(seed):
    """Decision nodes with three arcs alternate with chance nodes that halve
    the event, over five levels and eight atoms; integer leaf rewards in
    [-10, 20].

    The tree has 172 nodes and 2187 strategies.  Returns the tree and a
    credal model of three random positive mass functions; cubed weights
    spread them apart, so that the set-valued rules disagree.
    """
    rng = random.Random(seed)
    sp = PossibilitySpace(tuple(f"w{i}" for i in range(8)))
    ids = iter(range(10**6))

    def build(atoms, level):
        node_id = f"n{next(ids)}"
        if level == 5:
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
