import json
from pathlib import Path

import pytest

from credaltrees.cli import run

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"
MANIFEST = json.loads((PROBLEMS / "manifest.json").read_text())["problems"]


def manifest_args(entry):
    argv = [entry["command"], "--tree", str(PROBLEMS / entry["tree"])]
    if entry["model"]:
        argv += ["--model", str(PROBLEMS / entry["model"])]
    argv += entry["args"]
    return argv


@pytest.mark.parametrize("entry", MANIFEST, ids=[e["name"] for e in MANIFEST])
def test_corpus_pinned_structured_outputs(entry, capsys):
    code = run(manifest_args(entry) + ["--format", "structured"])
    out = capsys.readouterr().out
    golden = (PROBLEMS / entry["golden"]).read_text()
    assert out == golden
    assert code == entry["exit_code"]


def test_exit_zero_when_every_node_holds(capsys):
    code = run(
        [
            "check",
            "--tree", str(PROBLEMS / "eadmissible-success.tree.json"),
            "--model", str(PROBLEMS / "eadmissible-success.model.json"),
            "--choice", "e-admissible",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "subtree perfect: yes" in out


def test_exit_one_flags_a_perfectness_failure(capsys):
    code = run(
        [
            "check",
            "--tree", str(PROBLEMS / "eadmissible-failure.tree.json"),
            "--model", str(PROBLEMS / "eadmissible-failure.model.json"),
            "--choice", "e-admissible",
        ]
    )
    out = capsys.readouterr().out
    assert code == 1
    assert "N2: fail" in out
    assert "subtree perfect: no" in out


def test_exit_two_on_missing_file(capsys):
    code = run(["strategies", "--tree", str(PROBLEMS / "not-there.json")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:")


def test_exit_two_on_malformed_problem(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"atoms": ["w"], "tree": {"id": "L", "kind": "leaf"}}')
    code = run(["strategies", "--tree", str(bad)])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_exit_two_on_unknown_node(capsys):
    code = run(
        [
            "check-node",
            "--tree", str(PROBLEMS / "eu-example-1.tree.json"),
            "--model", str(PROBLEMS / "eu-example-1.model.json"),
            "--choice", "eu",
            "--node", "missing",
        ]
    )
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_exit_two_on_bad_condition(capsys):
    code = run(
        [
            "solve",
            "--tree", str(PROBLEMS / "eu-example-1.tree.json"),
            "--model", str(PROBLEMS / "eu-example-1.model.json"),
            "--choice", "eu",
            "--condition", "no_such_event",
        ]
    )
    assert code == 2


def test_usage_errors_exit_two(capsys):
    assert run(["solve", "--tree", "x.json"]) == 2  # missing required flags
    assert run(["not-a-command"]) == 2
    capsys.readouterr()


def test_check_node_singles_out_one_verdict(capsys):
    code = run(
        [
            "check-node",
            "--tree", str(PROBLEMS / "eadmissible-failure.tree.json"),
            "--model", str(PROBLEMS / "eadmissible-failure.model.json"),
            "--choice", "e-admissible",
            "--node", "N2",
            "--format", "structured",
        ]
    )
    doc = json.loads(capsys.readouterr().out)
    assert code == 1
    assert doc["verdict"]["node"] == "N2"
    assert doc["verdict"]["outcome"] == "fail"


def test_condition_accepts_named_events_and_atom_lists(capsys):
    base = [
        "solve",
        "--tree", str(PROBLEMS / "eu-example-1.tree.json"),
        "--model", str(PROBLEMS / "eu-example-1.model.json"),
        "--choice", "eu",
        "--format", "structured",
    ]
    assert run(base + ["--condition", "E2"]) == 0
    by_name = json.loads(capsys.readouterr().out)
    assert run(base + ["--condition", "e2"]) == 0
    by_atoms = json.loads(capsys.readouterr().out)
    assert by_name == by_atoms
    assert by_name["condition"] == ["e2"]
    # conditioned on the second outcome the constant-1 plan wins
    assert by_name["strategies"][0]["kept"] == {"N": "to_N1", "N1": "d2"}


def test_prune_rescues_an_impossible_chance_arc(tmp_path, capsys):
    problem = tmp_path / "prunable.json"
    problem.write_text(
        json.dumps(
            {
                "atoms": ["a", "b"],
                "root_scope": ["a"],
                "tree": {
                    "id": "R",
                    "kind": "chance",
                    "arcs": [
                        {"event": ["a"], "child": {"id": "La", "kind": "leaf", "reward": 1}},
                        {"event": ["b"], "child": {"id": "Lb", "kind": "leaf", "reward": 2}},
                    ],
                },
            }
        )
    )
    assert run(["strategies", "--tree", str(problem)]) == 2
    assert "empty scope" in capsys.readouterr().err
    assert run(["strategies", "--tree", str(problem), "--prune"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "1 strategies"
    assert "Lb" not in out


def test_condition_accepts_comma_separated_atoms(capsys):
    code = run(
        [
            "solve",
            "--tree", str(PROBLEMS / "eu-example-1.tree.json"),
            "--model", str(PROBLEMS / "eu-example-1.model.json"),
            "--choice", "eu",
            "--condition", "e1,e2",
            "--format", "structured",
        ]
    )
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["condition"] == ["e1", "e2"]
    assert doc["strategies"][0]["kept"] == {"N": "to_N2", "N2": "d2"}


def test_text_mode_marks_deleted_arcs(capsys):
    run(
        [
            "solve",
            "--tree", str(PROBLEMS / "eu-example-1.tree.json"),
            "--model", str(PROBLEMS / "eu-example-1.model.json"),
            "--choice", "eu",
        ]
    )
    out = capsys.readouterr().out
    assert "chosen 1 of 4 strategies (eu)" in out
    assert "to_N1∥" in out
    assert "d1∥" in out


def test_strategies_text_lists_every_plan(capsys):
    run(["strategies", "--tree", str(PROBLEMS / "lake-sequential.tree.json")])
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "6 strategies"
    assert len(out) == 7


def test_out_writes_the_file_instead_of_stdout(tmp_path, capsys):
    target = tmp_path / "result.json"
    code = run(
        [
            "strategies",
            "--tree", str(PROBLEMS / "lake-strategy-subtree.tree.json"),
            "--format", "structured",
            "--out", str(target),
        ]
    )
    assert code == 0
    assert capsys.readouterr().out == ""
    assert json.loads(target.read_text())["count"] == 2


def test_export_dot_dashes_the_deleted_arcs(capsys):
    code = run(
        [
            "export-dot",
            "--tree", str(PROBLEMS / "lake-sequential.tree.json"),
            "--strategy", "1",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("digraph")
    dashed = [line for line in out.splitlines() if "style=dashed" in line]
    assert len(dashed) == 3
    for line in dashed:
        assert "∥" in line
    assert '"N1" -> "N2" [label="dnoS∥", style=dashed];' in out


def test_export_dot_without_strategy_has_no_dashes(capsys):
    run(["export-dot", "--tree", str(PROBLEMS / "lake-sequential.tree.json")])
    out = capsys.readouterr().out
    assert "style=dashed" not in out
    assert "∥" not in out


def test_export_dot_strategy_out_of_range(capsys):
    code = run(
        [
            "export-dot",
            "--tree", str(PROBLEMS / "lake-sequential.tree.json"),
            "--strategy", "6",
        ]
    )
    assert code == 2
    assert "out of range" in capsys.readouterr().err


def test_canonical_finds_the_worst_case_failure(capsys):
    code = run(
        [
            "canonical",
            "--tree", str(PROBLEMS / "maximin-failure.tree.json"),
            "--model", str(PROBLEMS / "maximin-failure.model.json"),
            "--choice", "maximin",
            "--format", "structured",
        ]
    )
    doc = json.loads(capsys.readouterr().out)
    assert code == 1
    assert doc["passed"] is False
    assert doc["command"] == "canonical"


@pytest.mark.parametrize("budget", ["0", "-3"])
def test_canonical_rejects_an_empty_instance_budget(capsys, budget):
    code = run(
        [
            "canonical",
            "--tree", str(PROBLEMS / "maximin-failure.tree.json"),
            "--model", str(PROBLEMS / "maximin-failure.model.json"),
            "--choice", "maximin",
            "--max-instances", budget,
        ]
    )
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and "budget" in err


def test_canonical_passes_for_expected_utility(capsys):
    code = run(
        [
            "canonical",
            "--tree", str(PROBLEMS / "eu-example-2.tree.json"),
            "--model", str(PROBLEMS / "eu-example-2.model.json"),
            "--choice", "eu",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "pass" in out


def test_fuzz_structured_round_trip(capsys):
    code = run(
        [
            "fuzz",
            "--choice", "maximality",
            "--seed", "11",
            "--trees", "30",
            "--format", "structured",
        ]
    )
    doc = json.loads(capsys.readouterr().out)
    assert code in (0, 1)
    assert doc["trees_run"] == 30
    assert code == (1 if doc["failing_trees"] else 0)


def test_fuzz_expected_utility_is_quiet(capsys):
    code = run(["fuzz", "--choice", "eu", "--seed", "3", "--trees", "20"])
    out = capsys.readouterr().out
    assert code == 0
    assert "failing trees: 0" in out


@pytest.mark.parametrize("depth", [300, 600])
def test_exit_two_on_deeply_nested_input(tmp_path, capsys, depth):
    # 300 levels overflow the recursive traversals, 600 the JSON decoder.
    node = '{"id": "L", "kind": "leaf", "reward": 1}'
    for i in range(depth):
        stop = '{"id": "S%d", "kind": "leaf", "reward": 0}' % i
        node = (
            '{"id": "D%d", "kind": "decision", "arcs": [{"label": "go", "child": %s},'
            ' {"label": "stop", "child": %s}]}' % (i, node, stop)
        )
    tree = tmp_path / "chain.tree.json"
    tree.write_text('{"atoms": ["a"], "tree": %s}' % node)
    model = tmp_path / "chain.model.json"
    model.write_text('{"mode": "joint", "mass": {"a": "1"}}')
    code = run(
        ["check", "--tree", str(tree), "--model", str(model), "--choice", "maximin"]
    )
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "Traceback" not in err
