"""Every deliberate refusal of bad input: its exception type and message,
and, where a problem or model file can carry the fault, the CLI's exit 2
with one ``error:`` line.  Internal backstops (the LP's and the scan's
`RuntimeError`s, the unknown-node-type `TypeError`s) are not inputs a
caller can give, and are left out."""

import json
from fractions import Fraction

import pytest

from credaltrees import (
    CanonicalInstanceA,
    CanonicalInstanceB,
    CanonicalLimits,
    ChoiceFunction,
    CredalModel,
    CredalSet,
    DecisionTree,
    EmptyScope,
    FactoredModel,
    FuzzConfig,
    Gamble,
    InstanceInvalid,
    MassFunction,
    MissingArcProbability,
    MixedRewardKinds,
    ModeUnsupported,
    PartitionInvalid,
    PossibilitySpace,
    ScopeMismatch,
    TreeFactoredAssessment,
    UnknownNode,
    UtilityFunctionSet,
    UtilityModel,
    as_rational,
    chance,
    check_canonical,
    choose_by_preorder,
    count_strategies,
    decision,
    expectation,
    leaf,
    precise_gamble_value,
    product_credal,
    strategy_at,
    validate_tree,
)
from credaltrees.choice import OptionTable
from credaltrees.cli import run
from credaltrees.formats import serialize_model
from credaltrees.ratlp import feasible
from credaltrees.uncertainty import utility_values

SP = PossibilitySpace(("w1", "w2"))
OTHER = PossibilitySpace(("v1", "v2"))
OMEGA, W1, W2 = SP.omega(), SP.event(["w1"]), SP.event(["w2"])
X = Gamble.from_mapping(OMEGA, {"w1": 1, "w2": 0})
Y = Gamble.from_mapping(OMEGA, {"w1": 0, "w2": 1})
Z = Gamble.from_mapping(OMEGA, {"w1": 1, "w2": 1})
LABELS = Gamble.from_mapping(OMEGA, {"w1": "r1", "w2": "r2"})
P = MassFunction.from_mapping(SP, {"w1": "1/2", "w2": "1/2"})
CREDAL = CredalModel(CredalSet((P,)))
U = UtilityFunctionSet.from_tables([{"r1": 1, "r2": 0}])
HALF = (Fraction(1, 2), Fraction(1, 2))
TWO_LEAVES = validate_tree(DecisionTree(SP, decision("D", [("a", leaf("L1", 0)), ("b", leaf("L2", 1))])))


def split(reward1, reward2):
    """A chance node C on {w1} | {w2} with two leaves."""
    return validate_tree(DecisionTree(SP, chance("C", [(W1, leaf("L1", reward1)),
                                                      (W2, leaf("L2", reward2))])))


def foreign_chance():
    """A chance node C over {a, b} whose arc events live on {a, b, c}."""
    other = PossibilitySpace(("a", "b", "c"))
    arcs = [(other.event(["a"]), leaf("A", 1)), (other.event(["b"]), leaf("B", 2))]
    return DecisionTree(PossibilitySpace(("a", "b")), chance("C", arcs))


FOREIGN_ARC = "arc 0 of chance node 'C' has an event in a different possibility space"


def cyclic(x, y, model, b):
    """A complete, reflexive comparator with X >= Y >= Z >= X."""
    return x is y or (x, y) in ((X, Y), (Y, Z), (Z, X))


#: name -> (call, exception type, message)
REFUSALS = {
    "instance-mixed-kinds": (
        lambda: CanonicalInstanceB((X,), (LABELS,), OMEGA),
        InstanceInvalid, "instance mixes numeric and label gambles",
    ),
    "instance-a-empty-b": (
        lambda: CanonicalInstanceA(W1, (X,), X, SP.empty()),
        InstanceInvalid, "conditioning event must be nonempty",
    ),
    "instance-a-no-options": (
        lambda: CanonicalInstanceA(W1, (), X, OMEGA),
        InstanceInvalid, "at least one option is required",
    ),
    "instance-a-short-option": (
        lambda: CanonicalInstanceA(W1, (X.restricted(W2),), X, OMEGA),
        InstanceInvalid, "an option does not cover A intersected with B",
    ),
    "instance-a-short-z": (
        lambda: CanonicalInstanceA(W1, (X,), X.restricted(W1), OMEGA),
        InstanceInvalid, "z does not cover the complement side of B",
    ),
    "instance-b-short-option": (
        lambda: CanonicalInstanceB((X.restricted(W1),), (Y,), OMEGA),
        InstanceInvalid, "an option does not cover the conditioning event",
    ),
    "limits-shape": (
        lambda: CanonicalLimits(shapes=("c",)), ValueError, "unknown shape 'c'",
    ),
    "limits-no-shapes": (
        lambda: CanonicalLimits(shapes=()),
        ValueError, "the shapes must be one or both of 'a' and 'b', each once",
    ),
    "limits-repeated-shape": (
        lambda: CanonicalLimits(shapes=("b", "a", "b")),
        ValueError, "the shapes must be one or both of 'a' and 'b', each once",
    ),
    "limits-options": (
        lambda: CanonicalLimits(max_options=0),
        ValueError, "the option count bound must be at least 1",
    ),
    "limits-no-verification": (
        lambda: CanonicalLimits(verify_sample=0),
        ValueError, "the verification sample must be at least 1",
    ),
    "limits-negative-verification": (
        lambda: CanonicalLimits(verify_sample=-1),
        ValueError, "the verification sample must be at least 1",
    ),
    "scan-empty-pool": (
        lambda: check_canonical(ChoiceFunction("maximin"), None, SP, []),
        ValueError, "the gamble pool is empty",
    ),
    "scan-foreign-pool": (
        lambda: check_canonical(
            ChoiceFunction("maximin"), None, SP, [Gamble.from_mapping(OTHER.omega(), {"v1": 0, "v2": 1})]
        ),
        ValueError, "pool gambles live in a different space",
    ),
    "fuzz-omega-size": (
        lambda: FuzzConfig(seed=1, tree_count=1, omega_size=7),
        ValueError, "omega_size must be between 2 and 6",
    ),
    "fuzz-tree-count": (
        lambda: FuzzConfig(seed=1, tree_count=0), ValueError, "tree_count must be positive",
    ),
    "fuzz-max-depth": (
        lambda: FuzzConfig(seed=1, tree_count=1, max_depth=0), ValueError, "need max_depth >= 1",
    ),
    "option-table-space": (
        lambda: OptionTable.on(OTHER.omega(), [(0, 1)], (P,)),
        ValueError, "event lives in a different possibility space",
    ),
    "preorder-not-reflexive": (
        lambda: choose_by_preorder([X, Y], lambda x, y, m, b: x is not y, None, OMEGA, validate=True),
        ValueError, "comparator is not reflexive",
    ),
    "preorder-not-transitive": (
        lambda: choose_by_preorder([X, Y, Z], cyclic, None, OMEGA, validate=True),
        ValueError, "comparator is not transitive",
    ),
    "serialize-unknown-model": (
        lambda: serialize_model(CredalSet((P,))), TypeError, "cannot serialize CredalSet",
    ),
    "lp-inequality-row-length": (
        lambda: feasible(2, ges=[(1, 1, 1)]),
        ValueError, "coefficient row length does not match n_vars",
    ),
    "rational-bool": (lambda: as_rational(True), TypeError, "bool is not a reward value"),
    "rational-float": (
        lambda: as_rational(0.5),
        TypeError,
        "expected int, str or Fraction, got float; floats are not accepted because they are inexact",
    ),
    "reward-float": (
        lambda: Gamble(W1, (0.5,)), TypeError, "reward must be Fraction or str, got float",
    ),
    "validation-mode": (
        lambda: validate_tree(TWO_LEAVES, "strict"), ValueError, "unknown validation mode 'strict'",
    ),
    "strategy-index": (
        lambda: strategy_at(TWO_LEAVES, 2), IndexError, "strategy 2 out of range",
    ),
    "space-empty": (
        lambda: PossibilitySpace(()), ValueError, "possibility space needs at least one atom",
    ),
    "space-repeated-atom": (
        lambda: PossibilitySpace(("a", "a")), ValueError, "atoms must be unique",
    ),
    "space-atom-type": (lambda: PossibilitySpace((1,)), TypeError, "atoms must be strings"),
    "space-unknown-atom": (lambda: SP.position("w3"), ValueError, "unknown atom 'w3'"),
    "gamble-value-count": (
        lambda: Gamble(OMEGA, (Fraction(1),)), ValueError, "one value per atom of the scope is required",
    ),
    "gamble-missing-atom": (
        lambda: Gamble.from_mapping(OMEGA, {"w1": 1}),
        ScopeMismatch, "gamble table misses atoms ['w2'] of its scope",
    ),
    "gamble-values-outside-scope": (
        lambda: X.restricted(W1).values_on(OMEGA),
        ScopeMismatch, "event is not contained in the gamble's scope",
    ),
    "gamble-not-constant": (
        lambda: X.constant_value_on(OMEGA), ValueError, "gamble is not constant on the event",
    ),
    "tree-foreign-root-scope": (
        lambda: DecisionTree(SP, leaf("L", 0), OTHER.omega()),
        ValueError, "root scope lives in a different possibility space",
    ),
    "tree-foreign-chance-event-validate": (
        lambda: validate_tree(foreign_chance()), ScopeMismatch, FOREIGN_ARC,
    ),
    "tree-foreign-chance-event-nodes": (
        lambda: foreign_chance().nodes(), ScopeMismatch, FOREIGN_ARC,
    ),
    "tree-foreign-chance-event-count": (
        lambda: count_strategies(foreign_chance()), ScopeMismatch, FOREIGN_ARC,
    ),
    "tree-mixed-rewards": (
        lambda: split(1, "r"), MixedRewardKinds, "tree mixes numeric rewards with reward labels",
    ),
    "tree-empty-root-scope": (
        lambda: validate_tree(DecisionTree(SP, leaf("L", 0), SP.empty())),
        EmptyScope, "node 'L' has empty scope",
    ),
    "tree-unknown-node": (
        lambda: TWO_LEAVES.scope_of("N"), UnknownNode, "no node with id 'N'",
    ),
    "mass-count": (
        lambda: MassFunction(SP, (Fraction(1),)), ValueError, "one mass per atom is required",
    ),
    "mass-type": (
        lambda: MassFunction(SP, (1, 0)),
        TypeError, "masses must be Fractions; use from_mapping to parse",
    ),
    "mass-missing-atom": (
        lambda: MassFunction.from_mapping(SP, {"w1": 1}), ValueError, "mass table misses atoms ['w2']",
    ),
    "mass-foreign-event": (
        lambda: P.prob(OTHER.omega()), ValueError, "event lives in a different possibility space",
    ),
    "credal-empty": (lambda: CredalSet(()), ValueError, "a credal set needs at least one member"),
    "credal-spaces": (
        lambda: CredalSet((P, MassFunction.from_mapping(OTHER, {"v1": 1, "v2": 0}))),
        ValueError, "members live in different possibility spaces",
    ),
    "product-empty-cell": (
        lambda: product_credal(SP, [SP.empty(), OMEGA], [HALF], [[], []]),
        PartitionInvalid, "partition cells must be nonempty",
    ),
    "product-overlap": (
        lambda: product_credal(SP, [W1, OMEGA], [HALF], [[], []]),
        PartitionInvalid, "partition cells overlap",
    ),
    "product-cover": (
        lambda: product_credal(SP, [W1], [(1,)], [[{"w1": 1}]]),
        PartitionInvalid, "partition does not cover the space",
    ),
    "product-no-marginal": (
        lambda: product_credal(SP, [W1, W2], [], [[{"w1": 1}], [{"w2": 1}]]),
        ValueError, "at least one marginal is required",
    ),
    "product-marginal-length": (
        lambda: product_credal(SP, [W1, W2], [(1,)], [[{"w1": 1}], [{"w2": 1}]]),
        PartitionInvalid, "one marginal weight per cell is required",
    ),
    "product-marginal-sum": (
        lambda: product_credal(SP, [W1, W2], [(1, 1)], [[{"w1": 1}], [{"w2": 1}]]),
        ValueError, "marginal weights must be nonnegative and sum to 1",
    ),
    "product-conditional-families": (
        lambda: product_credal(SP, [W1, W2], [HALF], [[{"w1": 1}]]),
        PartitionInvalid, "one conditional family per cell is required",
    ),
    "product-empty-family": (
        lambda: product_credal(SP, [W1, W2], [HALF], [[{"w1": 1}], []]),
        ValueError, "each cell needs at least one conditional",
    ),
    "product-conditional-atoms": (
        lambda: product_credal(SP, [W1, W2], [HALF], [[{"w2": 1}], [{"w2": 1}]]),
        PartitionInvalid, "conditional table does not match its cell's atoms",
    ),
    "product-conditional-sum": (
        lambda: product_credal(SP, [W1, W2], [HALF], [[{"w1": 2}], [{"w2": 1}]]),
        ValueError, "conditional masses must be nonnegative and sum to 1",
    ),
    "factored-arc-count": (
        lambda: TreeFactoredAssessment(split(0, 1), {"C": (Fraction(1),)}),
        MissingArcProbability, "chance node 'C' has 2 arcs but 1 probabilities",
    ),
    "factored-arc-range": (
        lambda: TreeFactoredAssessment(split(0, 1), {"C": (Fraction(2), Fraction(-1))}),
        ValueError, "arc probabilities at 'C' must be Fractions in [0, 1]",
    ),
    "factored-unknown-node": (
        lambda: TreeFactoredAssessment(split(0, 1), {"C": HALF, "D": HALF}),
        UnknownNode, "arc probabilities given for unknown chance nodes ['D']",
    ),
    "factored-labels": (
        lambda: precise_gamble_value(
            FactoredModel(TreeFactoredAssessment(split("r1", "r2"), {"C": HALF})), LABELS, OMEGA
        ),
        ValueError, "factored expectation needs numeric rewards",
    ),
    "utilities-empty": (
        lambda: UtilityFunctionSet(()), ValueError, "at least one utility function is required",
    ),
    "utilities-number": (
        lambda: U.values_of(Fraction(1)), ValueError, "utility functions apply to label rewards",
    ),
    "utilities-no-chance-part": (
        lambda: utility_values(UtilityModel(U), LABELS, OMEGA),
        ModeUnsupported,
        "a utility model without a chance part can only compare options that are constant"
        " on the conditioning event",
    ),
    "utilities-credal-chance-part": (
        lambda: utility_values(UtilityModel(U, CREDAL), LABELS, OMEGA),
        ModeUnsupported, "the chance part of a utility model must be joint or factored",
    ),
    "precise-credal": (
        lambda: precise_gamble_value(CREDAL, X, OMEGA),
        ModeUnsupported, f"expected a joint or factored model, got {CREDAL!r}",
    ),
    "expectation-outside-scope": (
        lambda: expectation(P, X.restricted(W1), OMEGA),
        ScopeMismatch, "conditioning event is not inside the gamble's scope",
    ),
    "expectation-labels": (
        lambda: expectation(P, LABELS, OMEGA), ValueError, "expectation needs a numeric gamble",
    ),
}


@pytest.mark.parametrize("name", REFUSALS)
def test_each_refusal_raises_its_type_and_message(name):
    call, exc_type, message = REFUSALS[name]
    with pytest.raises(exc_type) as info:
        call()
    assert type(info.value) is exc_type
    assert str(info.value) == message


def chance_doc(w1, w2, first=None):
    """A problem document: chance node C on {w1} | {w2} (or *first* | {w2})
    with two leaves."""
    return {"atoms": ["w1", "w2"], "tree": {"id": "C", "kind": "chance", "arcs": [
        {"event": ["w1"] if first is None else first, "child": {"id": "L1", "kind": "leaf", "reward": w1}},
        {"event": ["w2"], "child": {"id": "L2", "kind": "leaf", "reward": w2}},
    ]}}


def gamble_doc(table):
    """A problem document: a choice between a gamble leaf and 0."""
    return {"atoms": ["w1", "w2"], "tree": {"id": "D", "kind": "decision", "arcs": [
        {"label": "a", "child": {"id": "G", "kind": "gamble", "gamble": table}},
        {"label": "b", "child": {"id": "L", "kind": "leaf", "reward": 0}},
    ]}}


def factored(arcs):
    """A factored model document."""
    return {"mode": "factored", "arcs": arcs}


#: name -> (problem, model or None, rule, the one stderr line); a problem
#: without a model runs `strategies`, one with a model `check`
FILE_REFUSALS = {
    "unnamed-event": (chance_doc(0, 1, "E"), None, None, "error: node 'C' arc 0: no event named 'E'"),
    "gamble-not-a-map": (
        gamble_doc([1, 0]), None, None, "error: node 'G': gamble must map atoms to rewards",
    ),
    "gamble-atom-outside": (
        gamble_doc({"w1": 1, "w3": 0}), None, None, "error: node 'G': 'w3' is not an atom of the space",
    ),
    "mixed-rewards": (
        chance_doc(1, {"label": "r"}), None, None,
        "error: tree mixes numeric rewards with reward labels",
    ),
    "empty-root-scope": (
        {**chance_doc(0, 1), "root_scope": []}, None, None, "error: node 'C' has empty scope",
    ),
    "factored-arcs-not-a-map": (
        chance_doc(0, 1), factored([]), "eu", "error: model: arcs maps chance node ids to lists",
    ),
    "factored-arc-count": (
        chance_doc(0, 1), factored({"C": ["1"]}), "eu",
        "error: model: chance node 'C' has 2 arcs but 1 probabilities",
    ),
    "factored-arc-range": (
        chance_doc(0, 1), factored({"C": ["2", "-1"]}), "eu",
        "error: model: arc probabilities at 'C' must be Fractions in [0, 1]",
    ),
    "factored-unknown-node": (
        chance_doc(0, 1), factored({"C": ["1/2", "1/2"], "D": ["1"]}), "eu",
        "error: model: arc probabilities given for unknown chance nodes ['D']",
    ),
    "factored-non-constant-gamble": (
        gamble_doc({"w1": 1, "w2": 0}), factored({}), "eu",
        "error: gamble leaf 'G' is not constant on its scope: a factored assessment"
        " values constant leaves only",
    ),
    "utilities-without-chance-part": (
        chance_doc({"label": "r1"}, {"label": "r2"}),
        {"mode": "utilities", "functions": [{"r1": 1, "r2": 0}]},
        "imprecise-utility",
        "error: a utility model without a chance part can only compare options that are"
        " constant on the conditioning event",
    ),
}


@pytest.mark.parametrize("name", FILE_REFUSALS)
def test_each_file_borne_refusal_exits_two_with_one_error_line(tmp_path, capsys, name):
    problem, model, rule, line = FILE_REFUSALS[name]
    (tmp_path / "tree.json").write_text(json.dumps(problem))
    argv = ["strategies", "--tree", str(tmp_path / "tree.json")]
    if model is not None:
        (tmp_path / "model.json").write_text(json.dumps(model))
        argv = ["check", "--tree", argv[-1], "--model", str(tmp_path / "model.json"),
                "--choice", rule]
    code = run(argv)
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.splitlines() == [line]


def test_an_unwritable_out_path_exits_two_with_one_error_line(tmp_path, capsys):
    (tmp_path / "tree.json").write_text(json.dumps(chance_doc(0, 1)))
    out = tmp_path / "missing" / "out.txt"
    code = run(["strategies", "--tree", str(tmp_path / "tree.json"), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.splitlines() == [f"error: cannot write {out}: No such file or directory"]
