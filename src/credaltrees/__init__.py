"""Exact-arithmetic decision trees under imprecise probability.

The package solves finite sequential decision trees in normal form under a
configurable choice function (expected utility, maximin, the Gamma rules,
maximality, E-admissibility, interval or pointwise dominance, imprecise
utility, or any user preorder), decides subtree perfectness node by node,
and fuzz-tests the equivalence between tree-level perfectness and the two
canonical tree shapes that characterize it.  All arithmetic is over
``fractions.Fraction``; nothing is floated.
"""

from .canonical import (
    CanonicalInstanceA,
    CanonicalInstanceB,
    CanonicalLimits,
    CanonicalReport,
    all_events,
    check_canonical,
    make_canonical_a,
    make_canonical_b,
)
from .choice import (
    KINDS,
    ChoiceFunction,
    choose_by_preorder,
)
from .dot import export_dot
from .errors import (
    CredalTreeError,
    DuplicateArcLabel,
    DuplicateNodeId,
    EmptyInput,
    EmptyScope,
    FileFormatError,
    IncompletePartition,
    InconsistentAssessment,
    InstanceInvalid,
    MissingArcProbability,
    MixedRewardKinds,
    ModeUnsupported,
    OverlappingEvents,
    PartitionInvalid,
    ScopeMismatch,
    TooManyStrategies,
    UnknownLabel,
    UnknownNode,
    UnrepresentableGamble,
    ZeroProbabilityCondition,
)
from .formats import (
    ParsedProblem,
    dumps_structured,
    load_json,
    parse_model,
    parse_problem,
    serialize_model,
    serialize_problem,
)
from .fuzz import FuzzConfig, FuzzReport, fuzz_equivalence, gen_random_tree, harvest
from .solver import (
    NormalFormSolution,
    Outcome,
    PerfectnessVerdict,
    all_hold,
    backward_induct_eu,
    backward_solution,
    check_subtree_perfect,
    check_subtree_perfect_at,
    normal_form_solution,
    restrict_solution,
)
from .trees import (
    ChanceArc,
    ChanceNode,
    DecisionArc,
    DecisionNode,
    DecisionTree,
    Event,
    Gamble,
    GambleLeaf,
    Leaf,
    PossibilitySpace,
    Strategy,
    as_rational,
    bounded_strategy_count,
    chance,
    count_strategies,
    decision,
    enumerate_strategies,
    gamble_of,
    kept_arcs,
    kept_children,
    leaf,
    strategy_at,
    strategy_table,
    subtree_at,
    validate_tree,
)
from .uncertainty import (
    CredalModel,
    CredalSet,
    FactoredModel,
    JointModel,
    MassFunction,
    TreeFactoredAssessment,
    UncertaintyModel,
    UtilityFunctionSet,
    UtilityModel,
    expectation,
    lower_expectation,
    precise_gamble_value,
    product_credal,
    upper_expectation,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
