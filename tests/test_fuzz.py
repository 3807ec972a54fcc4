import re
from fractions import Fraction

import pytest

from credaltrees import ChoiceFunction, count_strategies, validate_tree
from credaltrees import fuzz
from credaltrees.fuzz import FuzzConfig, FuzzReport, fuzz_equivalence, gen_random_tree, harvest

from conftest import build_lake


MAXIMALITY = ChoiceFunction("maximality")


def cfg(**kw):
    args = {"seed": 11, "tree_count": 40}
    args.update(kw)
    return FuzzConfig(**args)


def test_generated_trees_validate_and_models_match():
    c = cfg(tree_count=25)
    for i in range(c.tree_count):
        tree, model = gen_random_tree(c, i)
        validate_tree(tree)  # raises on malformed structure
        assert tree.space.atoms == tuple(f"w{k + 1}" for k in range(c.omega_size))


def test_an_attempt_is_abandoned_at_the_strategy_cap(monkeypatch):
    # Counts only grow upward, so an attempt stops at the first subtree
    # past max_strategies, and the nodes drawn stay bounded however deep
    # max_depth is: 10,246 for seed 1's three trees at depth 30, where a
    # draw of every attempt's whole tree takes minutes.
    drawn = []
    real = fuzz._TreeSampler.next_id

    def counted(sampler):
        drawn.append(None)
        assert len(drawn) <= 20_000, "the sampler drew past its bound"
        return real(sampler)

    monkeypatch.setattr(fuzz._TreeSampler, "next_id", counted)
    c = cfg(seed=1, tree_count=3, max_depth=30, model_sampler="joint")
    for i in range(c.tree_count):
        tree, _ = gen_random_tree(c, i)
        assert 2 <= count_strategies(tree) <= c.max_strategies


@pytest.mark.parametrize(
    "args, message",
    [
        ({"model_sampler": "hierarchical:2", "max_depth": 1}, "needs max_depth >= 2"),
        ({"max_strategies": 1}, "max_strategies must be at least 2"),
        ({"max_strategies": 0}, "max_strategies must be at least 2"),
    ],
)
def test_config_refuses_what_no_tree_can_satisfy(args, message):
    # a hierarchical tree needs a decision and a chance node, so two levels,
    # and a decision node has two strategies at least
    with pytest.raises(ValueError, match=message):
        cfg(**args)


def test_the_least_depth_and_cap_the_config_takes_give_trees():
    tree, _ = gen_random_tree(cfg(model_sampler="hierarchical:2", max_depth=2), 0)
    assert {"DecisionNode", "ChanceNode"} <= {type(n).__name__ for n, _ in tree.nodes()}
    tree, _ = gen_random_tree(cfg(max_strategies=2), 0)
    assert count_strategies(tree) == 2


def test_exhausted_attempts_end_in_a_value_error(monkeypatch):
    # every attempt draws a single leaf, which holds no decision node
    def leaf_only(sampler, atoms, depth):
        return sampler.make_leaf(atoms), 1

    monkeypatch.setattr(fuzz._TreeSampler, "build", leaf_only)
    message = "no acceptable random tree for seed 11 index 0 in 200 attempts"
    with pytest.raises(ValueError, match=message):
        gen_random_tree(cfg(), 0)


def test_credal_members_stay_strictly_positive():
    c = cfg(tree_count=25, model_sampler="credal:3")
    for i in range(c.tree_count):
        _, model = gen_random_tree(c, i)
        for p in model.credal.members:
            assert p.is_strictly_positive


def test_runs_are_deterministic():
    one = fuzz_equivalence(MAXIMALITY, "credal:2", cfg())
    two = fuzz_equivalence(MAXIMALITY, "credal:2", cfg())
    assert one.to_json_dict() == two.to_json_dict()


def test_seed_changes_the_population():
    one = fuzz_equivalence(MAXIMALITY, "credal:2", cfg())
    two = fuzz_equivalence(MAXIMALITY, "credal:2", cfg(seed=12))
    assert one.to_json_dict() != two.to_json_dict()


def test_failures_are_found_and_reduced():
    report = fuzz_equivalence(MAXIMALITY, "credal:2", cfg(tree_count=60))
    failing = report.failing
    assert failing  # set-valued rules do break on random credal trees
    for r in failing:
        assert r.failing_nodes
        # a perfectness failure needs one decision below another decision arc
        assert r.nested_decision
        if r.reduction is not None and not r.reduction.passed:
            assert r.reduction.shape in ("a", "b")
    assert report.reduced_shape_b + report.reduced_shape_a + report.missed == len(failing)
    assert report.theorem_inconsistency == ()


def test_expected_utility_never_fails():
    report = fuzz_equivalence(ChoiceFunction("eu"), "joint", cfg(tree_count=40))
    assert not report.failing
    assert report.theorem_inconsistency == ()


def test_report_serialization_shape():
    report = fuzz_equivalence(MAXIMALITY, "credal:2", cfg(tree_count=10))
    doc = report.to_json_dict()
    assert doc["choice"] == "maximality"
    assert doc["trees_run"] == 10
    assert len(doc["records"]) == 10
    assert doc["failing_trees"] == len(report.failing)
    assert {"reduced_shape_b", "reduced_shape_a", "missed"} <= set(doc)


def test_harvest_collects_local_gambles_and_events():
    tree = build_lake()
    pool, events, complete = harvest(tree, "NS1")
    assert pool
    assert all(x.is_numeric for x in pool)
    assert events
    assert isinstance(complete, bool)


def test_invalid_sampler_is_rejected():
    with pytest.raises(ValueError):
        fuzz_equivalence(MAXIMALITY, "bogus:sampler", cfg(tree_count=1))


@pytest.mark.parametrize(
    "sampler",
    ["factored:3", "joint:3", "joint:", "credal:abc", "credal:", "credal: 2", "hierarchical:-1"],
)
def test_a_member_count_follows_only_credal_or_hierarchical_in_digits(sampler):
    with pytest.raises(ValueError, match=f"^model sampler {re.escape(repr(sampler))}: "):
        cfg(model_sampler=sampler)


def test_the_benchmark_samplers_keep_their_parts():
    for sampler, parts in (
        ("factored", ("factored", 1)),
        ("joint", ("joint", 1)),
        ("credal", ("credal", 2)),
        ("credal:2", ("credal", 2)),
        ("credal:3", ("credal", 3)),
        ("hierarchical:2", ("hierarchical", 2)),
    ):
        assert cfg(model_sampler=sampler).sampler_parts() == parts
    with pytest.raises(ValueError, match="^sampler member count must be positive$"):
        cfg(model_sampler="credal:0")
