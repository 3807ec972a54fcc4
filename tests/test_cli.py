import argparse
import contextlib
import copy
import gc
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from credaltrees import (
    ChoiceFunction,
    count_strategies,
    enumerate_strategies,
    gamble_of,
    kept_arcs,
    normal_form_solution,
    validate_tree,
)
import credaltrees.cli as cli_module
from credaltrees.cli import run
from credaltrees.formats import load_json, parse_model, parse_problem, render_reward

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"
EXPECTED = Path(__file__).resolve().parent / "expected"
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


# --- every solve of the corpus, pinned -----------------------------------------


def solve_variants():
    """Every solve of a manifest problem that has a model, by name: under
    each rule the command line takes, by default, with ``--method
    backward``, and conditioned on each distinct node scope other than the
    root's, given as an atom list.  ``tests/expected/solve-variants.json`` holds
    each one's `solve_record`; CI runs the same table through the installed
    script."""
    variants = {}
    for entry in MANIFEST:
        if not entry["model"]:
            continue
        tree = parse_problem(load_json((PROBLEMS / entry["tree"]).read_text("utf-8"))).tree
        scopes = (s for _, s in tree.nodes() if s != tree.root_scope)
        atoms = dict.fromkeys(",".join(s.ordered) for s in scopes)
        base = ["solve", "--tree", str(PROBLEMS / entry["tree"])]
        base += ["--model", str(PROBLEMS / entry["model"]), "--format", "structured"]
        for kind in cli_module._CLI_KINDS:
            rule = kind.replace("_", "-")
            name, argv = f"{entry['name']}/{rule}", base + ["--choice", rule]
            variants[f"{name}/normal"] = argv
            variants[f"{name}/backward"] = argv + ["--method", "backward"]
            for b in atoms:
                variants[f"{name}/condition={b}"] = argv + ["--condition", b]
    return variants


SOLVE_VARIANTS = solve_variants()


def solve_record(code, out, err):
    """What the solve-variant table pins of one run: its exit code, the
    sha256 of its stdout and its stderr, as text."""
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    return {"exit": code, "stdout_sha256": digest, "stderr": err}


def test_every_solve_variant_keeps_its_pinned_answer():
    pinned = json.loads((EXPECTED / "solve-variants.json").read_text())
    assert list(pinned) == list(SOLVE_VARIANTS)
    wrong = [
        name for name, argv in SOLVE_VARIANTS.items()
        if solve_record(*run_captured(argv)) != pinned[name]
    ]
    assert wrong == []


# --- malformed documents -------------------------------------------------------

#: values no slot of a problem or model document accepts
BAD_VALUES = (None, True, False, {}, {"x": 1}, [[1]], [[]])


def value_paths(doc, path=()):
    """The paths to every value below the top of a JSON document."""
    if path:
        yield path
    if isinstance(doc, (dict, list)):
        keys = doc.keys() if isinstance(doc, dict) else range(len(doc))
        for key in keys:
            yield from value_paths(doc[key], path + (key,))


@st.composite
def corrupted_commands(draw):
    """A manifest command whose tree or model has one value replaced by a
    null, a bool, an object or a nested list."""
    entry = draw(st.sampled_from(MANIFEST))
    which = draw(st.sampled_from([w for w in ("tree", "model") if entry[w]]))
    doc = json.loads((PROBLEMS / entry[which]).read_text())
    path = draw(st.sampled_from(list(value_paths(doc))))
    bad = copy.deepcopy(doc)
    slot = bad
    for key in path[:-1]:
        slot = slot[key]
    slot[path[-1]] = draw(st.sampled_from(BAD_VALUES))
    return entry, which, bad


@given(corrupted_commands())
@settings(max_examples=300, deadline=None)
def test_corrupted_documents_exit_two_with_one_error_line(case):
    entry, which, bad = case
    with tempfile.TemporaryDirectory() as tmp:
        corrupted = Path(tmp) / "corrupted.json"
        corrupted.write_text(json.dumps(bad))
        argv = manifest_args(entry)
        argv[argv.index(str(PROBLEMS / entry[which]))] = str(corrupted)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv + ["--format", "structured"])
    lines = err.getvalue().splitlines()
    assert code == 2, err.getvalue()
    assert len(lines) == 1 and lines[0].startswith("error:"), lines
    assert "Traceback" not in err.getvalue()


def two_leaves(reward):
    """A problem document: a choice between *reward* and 0."""
    return {"atoms": ["a"], "tree": {"id": "D", "kind": "decision", "arcs": [
        {"label": "x", "child": {"id": "L1", "kind": "leaf", "reward": reward}},
        {"label": "y", "child": {"id": "L2", "kind": "leaf", "reward": 0}},
    ]}}


def with_arc_event(doc):
    doc["tree"]["arcs"][0]["event"] = ["a"]
    return doc


#: documents that every supported Python must refuse at once: an exponent
#: past the digit limit (a string, or a JSON number, which Fraction would
#: expand for minutes), an integer past it, deep nesting before a string left
#: open (about 1 MB, which a depth scan that retried every quote would take
#: quadratic time on), Fraction's version-dependent spellings, and keys no
#: reader defines
HOSTILE = {
    "exponent-string": (json.dumps(two_leaves("1e100000000")), None, "digit limit"),
    "exponent-number": (
        json.dumps(two_leaves("X")).replace('"X"', "1e100000000"), None, "digit limit"
    ),
    "integer-digits": (
        json.dumps(two_leaves("X")).replace('"X"', "1" * 5000), None, "JSON number: 5000 digits"
    ),
    "open-string": ("{" * 1001 + '"' + '\\"' * 500_000, None, "nested too deeply"),
    "underscore": (json.dumps(two_leaves("1_000")), None, "'1_000' is not a rational"),
    "spaced-slash": (json.dumps(two_leaves("1 / 2")), None, "'1 / 2' is not a rational"),
    "arabic-digits": (json.dumps(two_leaves("\u0661/\u0662")), None, "is not a rational"),
    "leaf-key": (
        json.dumps(two_leaves(1)).replace('"reward": 1', '"rewrd": 1'), None, "['rewrd']"
    ),
    "decision-arc-event": (json.dumps(with_arc_event(two_leaves(1))), None, "['event']"),
    "joint-with-members": (
        json.dumps(two_leaves(1)),
        json.dumps({"mode": "joint", "mass": {"a": 1}, "members": [{"a": 1}]}),
        "model: unknown keys ['members']",
    ),
}


def hostile_argv(tmp_path, name):
    """argv of the command that reads ``HOSTILE[name]``, written to
    *tmp_path*; CI runs the same commands through the installed script."""
    tree, model, _ = HOSTILE[name]
    (tmp_path / f"{name}.tree.json").write_text(tree)
    argv = ["strategies", "--tree", str(tmp_path / f"{name}.tree.json")]
    if model is not None:
        (tmp_path / f"{name}.model.json").write_text(model)
        argv = ["check", "--tree", argv[-1], "--model", str(tmp_path / f"{name}.model.json")]
        argv += ["--choice", "eu"]
    return argv


@pytest.mark.parametrize("name", HOSTILE)
def test_hostile_documents_exit_two_with_one_error_line(tmp_path, capsys, name):
    code = run(hostile_argv(tmp_path, name))
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.startswith("error:") and len(err.splitlines()) == 1, err
    assert HOSTILE[name][2] in err, err


#: fuzz command lines that every supported Python must end at once, each
#: with its exit code and the start of its one stderr line, or None for an
#: empty stderr: a deep --max-depth (each attempt is abandoned at the
#: strategy cap), a depth the hierarchical sampler cannot fill, and a seed
#: whose second tree no attempt draws under the cap.  CI runs them through
#: the installed script under `timeout 20`.
HOSTILE_FUZZ = {
    "depth-30": (
        ["fuzz", "--choice", "eu", "--seed", "1", "--trees", "3", "--max-depth", "30"], 0, None
    ),
    "hierarchical-depth-1": (
        ["fuzz", "--choice", "gamma-maximin", "--seed", "1", "--trees", "1", "--max-depth", "1"],
        2,
        "error: the hierarchical sampler needs max_depth >= 2",
    ),
    "attempts-exhausted": (
        ["fuzz", "--choice", "eu", "--seed", "2", "--trees", "2", "--max-depth", "30"],
        2,
        "error: no acceptable random tree for seed 2 index 1 in 200 attempts",
    ),
}


@pytest.mark.parametrize("name", HOSTILE_FUZZ)
def test_hostile_fuzz_arguments_end_with_their_exit_code(name):
    argv, exit_code, start = HOSTILE_FUZZ[name]
    code, _, err = run_captured(argv)
    lines = err.splitlines()
    assert code == exit_code, err
    assert lines == [] if start is None else len(lines) == 1 and lines[0].startswith(start), err


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


def test_exit_two_on_events_that_are_not_an_object(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(
        '{"atoms": ["w"], "events": [1], "tree": {"id": "L", "kind": "leaf", "reward": 0}}'
    )
    code = run(["strategies", "--tree", str(bad)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and "events" in err


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


def test_canonical_exits_two_on_unknown_node(capsys):
    code = run(
        [
            "canonical",
            "--tree", str(PROBLEMS / "eu-example-1.tree.json"),
            "--model", str(PROBLEMS / "eu-example-1.model.json"),
            "--choice", "eu",
            "--node", "NOPE",
        ]
    )
    assert code == 2
    assert capsys.readouterr().err == "error: no node with id 'NOPE'\n"


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


def test_solve_condition_outside_the_root_scope_exits_two(tmp_path):
    tree = {
        "atoms": ["a", "b", "c"],
        "root_scope": ["a", "b"],
        "tree": {"id": "D", "kind": "decision", "arcs": [
            {"label": "x", "child": {"id": "X", "kind": "leaf", "reward": 1}},
            {"label": "y", "child": {"id": "Y", "kind": "leaf", "reward": 2}},
        ]},
    }
    model = {"mode": "joint", "mass": {"a": "1/3", "b": "1/3", "c": "1/3"}}
    (tmp_path / "t.json").write_text(json.dumps(tree))
    (tmp_path / "m.json").write_text(json.dumps(model))
    code, out, err = run_captured(
        ["solve", "--tree", str(tmp_path / "t.json"), "--model", str(tmp_path / "m.json"),
         "--choice", "eu", "--condition", "c"]
    )
    assert (code, out) == (2, "")
    assert err == (
        "error: conditioning event Event({c}) is not inside the root scope Event({a, b})\n"
    )


@pytest.mark.parametrize(
    "choice, model",
    [
        ("eu", {"mode": "joint", "mass": {"a": "1/3", "b": "2/3"}}),
        ("maximin", {"mode": "joint", "mass": {"a": "1/3", "b": "2/3"}}),
        ("maximality", {"mode": "credal", "members": [
            {"a": "1/3", "b": "2/3"}, {"a": "1/2", "b": "1/2"}]}),
    ],
)
def test_solve_conditioned_on_an_empty_event_exits_two(tmp_path, choice, model):
    tree = {
        "atoms": ["a", "b"],
        "events": {"none": []},
        "tree": {"id": "D", "kind": "decision", "arcs": [
            {"label": "x", "child": {"id": "X", "kind": "leaf", "reward": 1}},
            {"label": "y", "child": {"id": "Y", "kind": "leaf", "reward": 2}},
        ]},
    }
    (tmp_path / "t.json").write_text(json.dumps(tree))
    (tmp_path / "m.json").write_text(json.dumps(model))
    code, out, err = run_captured(
        ["solve", "--tree", str(tmp_path / "t.json"), "--model", str(tmp_path / "m.json"),
         "--choice", choice, "--condition", "none"]
    )
    assert (code, out, err) == (2, "", "error: conditioning event is empty\n")


@pytest.mark.parametrize("sampler", ["factored:3", "joint:3", "credal:abc"])
def test_fuzz_rejects_a_member_count_where_none_applies(sampler):
    code, out, err = run_captured(
        ["fuzz", "--choice", "eu", "--seed", "1", "--trees", "1", "--model-sampler", sampler]
    )
    assert (code, out) == (2, "")
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), lines
    assert f"model sampler {sampler!r}" in lines[0]


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


@pytest.mark.parametrize(
    "choice, condition",
    [("e-admissible", None), ("maximin", "A1"), ("maximin", "A2")],
)
def test_solve_lists_each_strategy_at_its_enumeration_index(capsys, choice, condition):
    tree_file = PROBLEMS / "eadmissible-success.tree.json"
    model_file = PROBLEMS / "eadmissible-success.model.json"
    problem = parse_problem(load_json(tree_file.read_text()))
    tree = validate_tree(problem.tree)
    model = parse_model(load_json(model_file.read_text()), tree.space, tree)
    b = None if condition is None else problem.events[condition]
    everything = enumerate_strategies(tree)
    solution = normal_form_solution(tree, ChoiceFunction(choice.replace("-", "_")), model, b)
    assert solution.indices == tuple(everything.index(s) for s in solution.strategies)

    argv = ["solve", "--tree", str(tree_file), "--model", str(model_file),
            "--choice", choice, "--format", "structured"]
    assert run(argv + ([] if condition is None else ["--condition", condition])) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["total_strategies"] == len(everything)
    assert [e["index"] for e in doc["strategies"]] == list(solution.indices)
    assert len(solution.indices) > 1
    for entry in doc["strategies"]:
        strategy = everything[entry["index"]]
        assert entry["kept"] == kept_arcs(strategy)
        assert entry["gamble"] == {
            a: render_reward(v) for a, v in gamble_of(strategy).items()
        }


def problem_argv(name, command="solve"):
    """The manifest entry *name* as a command line, run as *command*."""
    entry = next(e for e in MANIFEST if e["name"] == name)
    return manifest_args({**entry, "command": command})


@pytest.mark.parametrize(
    "name", ["eu-example-1", "eu-example-2", "eadmissible-success", "eadm-success-subtree"]
)
def test_solve_method_backward_agrees_with_the_default_on_perfect_problems(capsys, name):
    outputs = []
    for method in ([], ["--method", "normal"], ["--method", "backward"]):
        for fmt in ("text", "structured"):
            assert run(problem_argv(name) + method + ["--format", fmt]) == 0
            outputs.append(capsys.readouterr().out)
    assert outputs[0::2] == [outputs[0]] * 3
    assert outputs[1::2] == [outputs[1]] * 3


def test_solve_method_backward_solves_on_the_root_scope_only(capsys):
    argv = problem_argv("eu-example-1") + ["--method", "backward", "--format", "structured"]
    assert run(argv) == 0
    whole = capsys.readouterr().out
    assert run(argv + ["--condition", "e1,e2"]) == 0
    assert capsys.readouterr().out == whole
    assert run(argv + ["--condition", "e1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --method backward")
    assert len(captured.err.splitlines()) == 1


def test_solve_method_backward_exits_two_at_a_zero_probability_node(tmp_path, capsys):
    # D's scope {w2} has probability zero: the normal form answers, backward
    # induction cannot pose the choice at D.
    tree = tmp_path / "zero.tree.json"
    tree.write_text(json.dumps({"atoms": ["w1", "w2"], "tree": {
        "id": "C", "kind": "chance", "arcs": [
            {"event": ["w1"], "child": {"id": "L0", "kind": "leaf", "reward": 0}},
            {"event": ["w2"], "child": {"id": "D", "kind": "decision", "arcs": [
                {"label": "lo", "child": {"id": "L1", "kind": "leaf", "reward": 1}},
                {"label": "hi", "child": {"id": "L2", "kind": "leaf", "reward": 2}},
            ]}},
        ]}}))
    model = tmp_path / "joint.model.json"
    model.write_text(json.dumps({"mode": "joint", "mass": {"w1": 1, "w2": 0}}))
    argv = ["solve", "--tree", str(tree), "--model", str(model), "--choice", "eu"]
    assert run(argv) == 0
    assert "chosen 2 of 2 strategies" in capsys.readouterr().out
    assert run(argv + ["--method", "backward"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "probability zero" in captured.err
    assert len(captured.err.splitlines()) == 1 and "Traceback" not in captured.err


def test_solve_method_backward_divides_nothing_under_a_factored_model(capsys):
    # eu-example-3's arc weights give N1's scope probability zero, but a
    # factored model never divides an arc value, so backward induction
    # chooses at N1 from the values below it and exits 0.  The normal form
    # keeps both plans, and check finds N1 not subtree perfect.
    argv = problem_argv("eu-example-3") + ["--format", "structured"]
    kept = {}
    for method in ("normal", "backward"):
        assert run(argv + ["--method", method]) == 0
        doc = json.loads(capsys.readouterr().out)
        kept[method] = [s["kept"] for s in doc["strategies"]]
    assert kept == {"normal": [{"N1": "d1"}, {"N1": "d2"}], "backward": [{"N1": "d1"}]}
    assert run(problem_argv("eu-example-3", "check-node") + ["--node", "N1"]) == 1
    assert "N1: fail" in capsys.readouterr().out


def test_solve_method_backward_counts_strategies_it_never_lists(tmp_path, capsys):
    # 20 independent three-way choices: 3**20 strategies; the last pays most
    atoms = [f"w{i}" for i in range(20)]
    doc = {"atoms": atoms, "tree": {"id": "N", "kind": "chance", "arcs": [
        {"event": [a], "child": {"id": f"D{a}", "kind": "decision", "arcs": [
            {"label": x, "child": {"id": f"L{a}{x}", "kind": "leaf", "reward": i}}
            for i, x in enumerate("xyz")
        ]}}
        for a in atoms
    ]}}
    tree = tmp_path / "wide.tree.json"
    tree.write_text(json.dumps(doc))
    model = tmp_path / "uniform.model.json"
    model.write_text(json.dumps({"mode": "joint", "mass": {a: "1/20" for a in atoms}}))
    argv = ["solve", "--tree", str(tree), "--model", str(model), "--choice", "eu",
            "--method", "backward", "--format", "structured"]
    assert run(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["total_strategies"] == 3**20
    assert [e["index"] for e in doc["strategies"]] == [3**20 - 1]
    assert doc["strategies"][0]["gamble"] == {a: 2 for a in atoms}


ZERO_MASS_LEAF = {"atoms": ["w1", "w2", "w3"], "tree": {
    "id": "D", "kind": "decision", "arcs": [
        {"label": "stay", "child": {"id": "L0", "kind": "leaf", "reward": 0}},
        {"label": "go", "child": {"id": "C", "kind": "chance", "arcs": [
            {"event": ["w1"], "child": {"id": "L1", "kind": "leaf", "reward": 1}},
            {"event": ["w2", "w3"], "child": {"id": "L2", "kind": "leaf", "reward": 1}},
        ]}},
    ]}}


@pytest.mark.parametrize(
    "choice, code", [("eu", 2), ("maximality", 2), ("pointwise-dominance", 0)]
)
def test_check_reports_a_leaf_of_probability_zero(tmp_path, capsys, choice, code):
    tree = tmp_path / "leaf.tree.json"
    tree.write_text(json.dumps(ZERO_MASS_LEAF))
    q = {"w1": 1, "w2": 0, "w3": 0}
    model = tmp_path / "q.model.json"
    doc = {"mode": "credal", "members": [q]} if choice == "maximality" else {"mode": "joint", "mass": q}
    model.write_text(json.dumps(doc))
    argv = ["check", "--tree", str(tree), "--model", str(model), "--choice", choice]
    assert run(argv) == code
    out = capsys.readouterr().out
    assert ("L2: error" in out) == (code == 2)
    assert ("L2: hold" in out) == (code == 0)


def test_structured_check_carries_an_error_verdict_s_detail(tmp_path, capsys):
    # One member gives C's {w2, w3} mass zero, the other positive mass: C's
    # local problem cannot be posed, and the reason reaches the document.
    tree = tmp_path / "leaf.tree.json"
    tree.write_text(json.dumps(ZERO_MASS_LEAF))
    model = tmp_path / "q.model.json"
    model.write_text(json.dumps({"mode": "credal", "members": [
        {"w1": "1/2", "w2": "1/4", "w3": "1/4"}, {"w1": 1, "w2": 0, "w3": 0}]}))
    argv = ["check", "--tree", str(tree), "--model", str(model), "--choice", "maximality"]
    assert run(argv + ["--format", "structured"]) == 2
    verdicts = {v["node"]: v for v in json.loads(capsys.readouterr().out)["verdicts"]}
    assert verdicts["L2"] == {
        "node": "L2",
        "outcome": "error",
        "detail": "a credal member gives the conditioning event Event({w2, w3}) probability zero",
    }
    assert verdicts["D"] == {"node": "D", "outcome": "hold"}


def split_on_a(nid):
    """A chance node paying 1 on a1 and 0 on a2."""
    return {"id": nid, "kind": "chance", "arcs": [
        {"event": [x], "child": {"id": nid + x, "kind": "leaf", "reward": r}}
        for x, r in (("a1", 1), ("a2", 0))
    ]}


def test_check_exits_two_where_the_assessment_values_one_gamble_twice(tmp_path, capsys):
    # M and N induce the same gamble on {a1, a2}, valued 1/2 and 1/3: the
    # rows of the strategy table that induce it disagree.
    branches = [
        {"label": label, "child": {"id": nid, "kind": "chance", "arcs": [
            {"event": ["a1", "a2"], "child": split_on_a(inner)},
            {"event": ["c"], "child": {"id": nid + "c", "kind": "leaf", "reward": value}},
        ]}}
        for label, nid, inner, value in (("d1", "C1", "M", 5), ("d2", "C2", "N", 7))
    ]
    tree = tmp_path / "twice.tree.json"
    tree.write_text(json.dumps({"atoms": ["a1", "a2", "c"], "tree": {
        "id": "D", "kind": "decision", "arcs": branches}}))
    model = tmp_path / "twice.model.json"
    model.write_text(json.dumps({"mode": "factored", "arcs": {
        "C1": ["1/2", "1/2"], "C2": ["1/2", "1/2"], "M": ["1/2", "1/2"], "N": ["1/3", "2/3"]}}))
    files = ["--tree", str(tree), "--model", str(model), "--choice", "eu"]
    for argv in (["check"], ["check-node", "--node", "N"], ["solve", "--method", "backward"]):
        assert run(argv + files) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: the assessment values the same gamble on Event({a1, a2})"
            " differently at nodes ['M', 'N']\n"
        )
    assert run(["solve"] + files) == 0  # D's rows differ on c
    assert "chosen 1 of 2 strategies" in capsys.readouterr().out


def test_exit_two_on_duplicate_decision_arc_labels(tmp_path, capsys):
    doc = json.loads((PROBLEMS / "maximin-failure.tree.json").read_text())
    for arc in doc["tree"]["arcs"][0]["child"]["arcs"]:
        arc["label"] = "two"
    tree = tmp_path / "twins.tree.json"
    tree.write_text(json.dumps(doc))
    for command in ("strategies", "export-dot"):
        code = run([command, "--tree", str(tree), "--format", "structured"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error:") and len(captured.err.splitlines()) == 1
        assert "'N2'" in captured.err and "'two'" in captured.err


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


PRUNABLE_FACTORED = {
    "atoms": ["a", "b", "c"],
    "root_scope": ["a", "c"],
    "tree": {
        "id": "D",
        "kind": "decision",
        "arcs": [
            {"label": "bet", "child": {"id": "R", "kind": "chance", "arcs": [
                {"event": ["a"], "child": {"id": "La", "kind": "leaf", "reward": 4}},
                {"event": ["b"], "child": {"id": "Lb", "kind": "leaf", "reward": 9}},
                {"event": ["c"], "child": {"id": "Lc", "kind": "leaf", "reward": 0}},
            ]}},
            {"label": "keep", "child": {"id": "K", "kind": "leaf", "reward": 1}},
        ],
    },
}


@pytest.mark.parametrize(
    "probs", [["1/4", "0", "3/4"], ["1/4", "3/4"]], ids=["file arcs", "kept arcs"]
)
def test_prune_takes_factored_lists_of_either_length(tmp_path, capsys, probs):
    # Under root scope {a, c} the "b" arc of R is pruned; a list for all three
    # arcs of the file must give it 0, a list for the two kept arcs omits it.
    problem = tmp_path / "prunable.json"
    problem.write_text(json.dumps(PRUNABLE_FACTORED))
    model = tmp_path / "factored.json"
    model.write_text(json.dumps({"mode": "factored", "arcs": {"R": probs}}))
    argv = ["--tree", str(problem), "--model", str(model), "--choice", "eu", "--prune"]
    assert run(["solve", *argv, "--format", "structured"]) == 0
    doc = json.loads(capsys.readouterr().out)
    # bet is worth 4 * 1/4 = 1, as much as keep
    assert [entry["kept"] for entry in doc["strategies"]] == [{"D": "bet"}, {"D": "keep"}]
    assert run(["check", *argv]) == 0
    capsys.readouterr()


def test_prune_refuses_a_pruned_arc_with_positive_probability(tmp_path, capsys):
    problem = tmp_path / "prunable.json"
    problem.write_text(json.dumps(PRUNABLE_FACTORED))
    model = tmp_path / "factored.json"
    model.write_text(json.dumps({"mode": "factored", "arcs": {"R": ["1/4", "1/4", "1/2"]}}))
    code = run(["solve", "--tree", str(problem), "--model", str(model),
                "--choice", "eu", "--prune"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "arc 1 of chance node 'R'" in err and "must be 0" in err


def test_max_strategies_refuses_larger_trees(capsys):
    tree = PROBLEMS / "eu-example-1.tree.json"
    count = count_strategies(parse_problem(load_json(tree.read_text())).tree)
    tree = str(tree)
    assert run(["strategies", "--tree", tree, "--max-strategies", str(count)]) == 0
    capsys.readouterr()
    model = str(PROBLEMS / "eu-example-1.model.json")
    for command in ("strategies", "solve", "check"):
        argv = [command, "--tree", tree, "--max-strategies", str(count - 1)]
        if command != "strategies":
            argv += ["--model", model, "--choice", "maximin"]
        assert run(argv) == 2, command
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: the tree has {count} strategies, more than the limit of {count - 1}\n"
        )
    assert run(["strategies", "--tree", tree, "--max-strategies", "0"]) == 2
    capsys.readouterr()


def test_unexpected_exceptions_exit_three(monkeypatch, capsys):
    def broken(args):
        raise KeyError("lost")

    monkeypatch.setitem(cli_module._COMMANDS, "strategies", broken)
    code = run(["strategies", "--tree", str(PROBLEMS / "eu-example-1.tree.json")])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("internal error: KeyError: 'lost'")
    assert len(err.splitlines()) == 1 and "Traceback" not in err


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


def test_export_dot_decodes_one_strategy_of_billions(tmp_path, capsys):
    # 20 independent three-way choices: 3**20 strategies, far too many to list
    atoms = [f"w{i}" for i in range(20)]
    decisions = [
        {"id": f"D{a}", "kind": "decision", "arcs": [
            {"label": x, "child": {"id": f"L{a}{x}", "kind": "leaf", "reward": i}}
            for i, x in enumerate("xyz")
        ]}
        for a in atoms
    ]
    doc = {"atoms": atoms, "tree": {"id": "N", "kind": "chance", "arcs": [
        {"event": [a], "child": d} for a, d in zip(atoms, decisions)
    ]}}
    path = tmp_path / "wide.tree.json"
    path.write_text(json.dumps(doc))
    argv = ["export-dot", "--tree", str(path), "--strategy"]

    def kept(k):
        assert run(argv + [str(k)]) == 0
        out = capsys.readouterr().out
        dashed = [line for line in out.splitlines() if "style=dashed" in line]
        assert len(dashed) == 40
        return [x for a in atoms for x in "xyz" if f'"L{a}{x}" [label="{x}"]' in out]

    # The last chance arc's choice varies fastest.
    assert kept(3**20 - 1) == ["z"] * 20
    assert kept(1) == ["x"] * 19 + ["y"]
    assert kept(3**19) == ["y"] + ["x"] * 19
    assert run(argv + [str(3**20)]) == 2
    assert capsys.readouterr().err == (
        f"error: --strategy {3**20} out of range; the tree has {3**20} strategies\n"
    )


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


def _readme_example(command):
    """The output the README shows for the example that runs *command*."""
    readme = (PROBLEMS.parent / "README.md").read_text()
    block = readme.split(f"$ credaltrees {command} ", 1)[1].split("```", 1)[0]
    return block.split("\n", 2)[2]


def test_canonical_text_shows_the_readme_example(capsys):
    code = run(
        [
            "canonical",
            "--tree", str(PROBLEMS / "maximin-failure.tree.json"),
            "--model", str(PROBLEMS / "maximin-failure.model.json"),
            "--choice", "maximin",
        ]
    )
    assert code == 1
    assert capsys.readouterr().out == _readme_example("canonical")


def test_canonical_text_prints_the_instance_in_exact_rationals(tmp_path, capsys):
    # The README example's tree with the rewards 5/2 and 1/3 under A1.
    doc = json.loads((PROBLEMS / "maximin-failure.tree.json").read_text())
    arcs = doc["tree"]["arcs"][0]["child"]["arcs"]
    arcs[0]["child"]["reward"] = "5/2"
    arcs[1]["child"]["reward"] = "1/3"
    tree = tmp_path / "tree.json"
    tree.write_text(json.dumps(doc))
    model = str(PROBLEMS / "maximin-failure.model.json")
    code = run(["canonical", "--tree", str(tree), "--model", model, "--choice", "maximin"])
    out = capsys.readouterr().out
    assert code == 1
    assert out.splitlines()[-1] == (
        'instance: {"a": ["a1"], "b": ["a1", "a2"], "xs": [{"a1": "5/2", "a2": "0"},'
        ' {"a1": "1/3", "a2": "0"}], "z": {"a1": "5/2", "a2": "0"}}'
    )


def canonical_argv(problem, rule, model):
    return [
        "canonical",
        "--tree", str(PROBLEMS / f"{problem}.tree.json"),
        "--model", str(PROBLEMS / model),
        "--choice", rule,
        "--format", "structured",
    ]


FUZZ_ARGV = ["fuzz", "--choice", "maximality", "--seed", "11", "--trees", "60"]


@pytest.mark.parametrize(
    "name, argv, exit_code",
    [
        (
            f"canonical-maximin-failure-{rule}.json",
            canonical_argv("maximin-failure", rule, model),
            exit_code,
        )
        for rule, model, exit_code in [
            ("maximin", "maximin-failure.model.json", 1),
            ("interval-dominance", "eadmissible-failure.model.json", 1),
            ("maximality", "eadmissible-failure.model.json", 0),
        ]
    ]
    + [
        ("fuzz-maximality-seed11-trees60.json", FUZZ_ARGV + ["--format", "structured"], 1),
        # a scan whose first failure has shape (b)
        (
            "canonical-eadmissible-failure-e-admissible.json",
            canonical_argv("eadmissible-failure", "e-admissible", "eadmissible-failure.model.json"),
            1,
        ),
        # the text report lists the failing trees
        ("fuzz-maximality-seed11-trees60.txt", FUZZ_ARGV, 1),
    ],
)
def test_canonical_and_fuzz_outputs_are_pinned(capsys, name, argv, exit_code):
    # Recorded before the scan grouped its instances by key; the grouped
    # scan must reproduce every field, byte for byte.
    code = run(argv)
    assert capsys.readouterr().out == (EXPECTED / name).read_text()
    assert code == exit_code


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


def test_canonical_exits_two_on_a_model_that_does_not_suit_the_rule(capsys):
    code = run(
        [
            "canonical",
            "--tree", str(PROBLEMS / "eu-example-2.tree.json"),
            "--model", str(PROBLEMS / "eu-example-2.model.json"),
            "--choice", "maximality",
        ]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: maximality needs a credal model\n"


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


def chain_check(tmp_path, depth):
    """argv of `check` on a *depth*-long chain of go/stop decisions."""
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
    return ["check", "--tree", str(tree), "--model", str(model), "--choice", "maximin"]


def test_a_300_deep_chain_is_checked(tmp_path, capsys):
    # Strategies are compared by their kept arcs, so no comparison recurses
    # through the chain; going all the way is the one maximin strategy.
    code = run(chain_check(tmp_path, 300))
    out = capsys.readouterr().out
    assert code == 0
    assert out.endswith("subtree perfect: yes\n")
    assert "D299: hold" in out and "D0: hold" in out


@pytest.mark.parametrize("depth", [600])
def test_exit_two_on_deeply_nested_input(tmp_path, capsys, depth):
    # A 600-deep chain nests about 1800 JSON levels, past load_json's limit.
    code = run(chain_check(tmp_path, depth))
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: input nested too deeply") and len(err.splitlines()) == 1
    assert "Traceback" not in err


def test_deep_input_is_refused_under_a_raised_recursion_limit(tmp_path, capsys):
    # A raised recursion limit lets the decoder of 3.10 and 3.11 recurse as
    # far as the C guard of 3.12 and later does: the 600-deep chain, which
    # would then decode and be checked, is refused before decoding.
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(20000)
    try:
        test_exit_two_on_deeply_nested_input(tmp_path, capsys, 600)
    finally:
        sys.setrecursionlimit(saved)


def test_imprecise_utility_with_a_factored_chance_part(tmp_path, capsys):
    def labelled(nid, label):
        return {"id": nid, "kind": "leaf", "reward": {"label": label}}

    tree = tmp_path / "risky.tree.json"
    tree.write_text(json.dumps({
        "atoms": ["e1", "e2"],
        "tree": {"id": "D", "kind": "decision", "arcs": [
            {"label": "risky", "child": {"id": "C", "kind": "chance", "arcs": [
                {"event": ["e1"], "child": labelled("L1", "r1")},
                {"event": ["e2"], "child": labelled("L2", "r2")},
            ]}},
            {"label": "safe", "child": labelled("L3", "r3")},
        ]},
    }))
    chance_part = {"mode": "factored", "arcs": {"C": ["1/2", "1/2"]}}
    # u1 values the risky arc at 2 against 1, u2 at 0 against 1
    functions = [{"r1": 4, "r2": 0, "r3": 1}, {"r1": 0, "r2": 0, "r3": 1}]
    for used, kept in ((functions, [{"D": "risky"}, {"D": "safe"}]),
                       (functions[:1], [{"D": "risky"}])):
        model = tmp_path / "risky.model.json"
        model.write_text(json.dumps(
            {"mode": "utilities", "functions": used, "chance": chance_part}
        ))
        argv = ["--tree", str(tree), "--model", str(model),
                "--choice", "imprecise-utility", "--format", "structured"]
        assert run(["solve", *argv]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [entry["kept"] for entry in doc["strategies"]] == kept
        assert run(["check", *argv]) == 0
        capsys.readouterr()


# --- the parser, built once per process -------------------------------------------


def run_captured(argv):
    """(exit code, stdout, stderr) of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def corpus_argv(entry):
    return manifest_args(entry) + ["--format", "structured"]


def test_python_m_runs_the_command_line_in_a_fresh_interpreter():
    # A fresh interpreter builds the parser cold, which in-process runs
    # stop seeing after their first call.
    entry = next(e for e in MANIFEST if e["name"] == "gamma-maximin-failure")
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONIOENCODING": "utf-8"}
    done = subprocess.run(
        [sys.executable, "-m", "credaltrees", *corpus_argv(entry)],
        env=env,
        capture_output=True,
        timeout=60,
    )
    assert done.stderr == b""
    assert done.stdout.decode("utf-8") == (PROBLEMS / entry["golden"]).read_text("utf-8")
    assert done.returncode == entry["exit_code"] == 1


def test_the_shared_parser_carries_nothing_between_runs(monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def spy(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)

    def corpus_pass(entries):
        for entry in entries:
            golden = (PROBLEMS / entry["golden"]).read_text("utf-8")
            code, out, _ = run_captured(corpus_argv(entry))
            assert (code, out) == (entry["exit_code"], golden), entry["name"]

    cli_module._parser.cache_clear()
    corpus_pass(MANIFEST)
    # the top-level parser and one per command, each built once
    assert len(built) == 1 + len(cli_module._COMMANDS)

    built.clear()
    assert run_captured(["solve", "--tree", "x.json"])[0] == 2
    assert run_captured(["not-a-command"])[0] == 2
    code, out, _ = run_captured(["--help"])
    assert code == 0 and out.startswith("usage: credaltrees")
    # --condition on one run is unset on the next: the plain solve that
    # follows keeps its golden, unconditioned output
    eu1 = next(e for e in MANIFEST if e["name"] == "eu-example-1")
    code, out, _ = run_captured(corpus_argv(eu1) + ["--condition", "e1"])
    assert code == 0 and json.loads(out)["condition"] == ["e1"]
    corpus_pass([eu1] + MANIFEST[::-1])
    assert built == []


@pytest.mark.parametrize("command", [None, *cli_module._COMMANDS])
def test_help_is_that_of_a_freshly_built_parser(command):
    fresh = cli_module._parser.__wrapped__()
    argv = ["--help"]
    if command is not None:
        sub = next(a for a in fresh._actions if isinstance(a, argparse._SubParsersAction))
        fresh = sub.choices[command]
        argv = [command, "--help"]
    # the second run reads the parser the first one built
    for _ in range(2):
        assert run_captured(argv) == (0, fresh.format_help(), "")


def test_repeated_runs_hold_no_growing_memory():
    traced = {}
    tracemalloc.start()
    try:
        for n in range(1, 26):
            for entry in MANIFEST:
                run_captured(corpus_argv(entry))
            if n in (5, 25):
                gc.collect()
                traced[n] = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert traced[25] - traced[5] < 256 * 1024, traced
