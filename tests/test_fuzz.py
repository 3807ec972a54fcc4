import re
from fractions import Fraction

import pytest

from credaltrees import ChoiceFunction, validate_tree
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
