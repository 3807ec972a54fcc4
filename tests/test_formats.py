import json
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from credaltrees import (
    CredalModel,
    FactoredModel,
    FileFormatError,
    GambleLeaf,
    JointModel,
    MassFunction,
    UtilityFunctionSet,
    UtilityModel,
    as_rational,
    dumps_structured,
    load_json,
    parse_model,
    parse_problem,
    serialize_model,
    serialize_problem,
)
from credaltrees import formats
from credaltrees.formats import rational_from, render_rational

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


def test_decimal_literals_parse_exactly():
    doc = load_json('{"x": 0.6, "y": 0.1}')
    assert doc["x"] == Fraction(3, 5)
    assert doc["y"] == Fraction(1, 10)


def test_json_constants_are_rejected():
    with pytest.raises(FileFormatError):
        load_json('{"x": NaN}')
    with pytest.raises(FileFormatError):
        load_json('{"x": Infinity}')


def test_malformed_json_is_a_format_error():
    with pytest.raises(FileFormatError):
        load_json("{nope")


def test_rational_parsing_and_rendering():
    assert rational_from("3/4", "t") == Fraction(3, 4)
    assert rational_from(2, "t") == Fraction(2)
    assert render_rational(Fraction(3, 4)) == "3/4"
    assert render_rational(Fraction(8, 4)) == 2
    for bad in (True, None):
        with pytest.raises(FileFormatError):
            rational_from(bad, "t")
    # One grammar on every Python: Fraction takes "1_000" from 3.11, "1 / 2"
    # from 3.12 and non-ASCII digits on all of them.
    good = {"3": 3, "-2/5": Fraction(-2, 5), "+0.6": Fraction(3, 5), ".5": Fraction(1, 2),
            "3.": 3, "1e-3": Fraction(1, 1000), "2.5E2": 250, "007": 7}
    for text, value in good.items():
        assert rational_from(text, "t") == value == as_rational(text), text
    for bad in ("abc", "1/0", "1_000", "1 / 2", " 3", "3 ", "١/٢", "٣", "1.5/2", "1e3/2",
                "1/-2", "e3", ".", "", "0x10", "inf", "nan", "1e", "½"):
        with pytest.raises(FileFormatError, match="is not a rational"):
            rational_from(bad, "t")
        with pytest.raises(ValueError, match="is not a rational"):
            as_rational(bad)


def test_an_exponent_past_the_digit_limit_is_refused_at_once():
    # Fraction("1e10000000") alone takes seconds, and the time grows with
    # the exponent; one digit and an exponent of the limit still parse.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
    assert rational_from(f"1e{limit - 1}", "t") == 10 ** (limit - 1)
    assert rational_from(f"1e-{limit - 1}", "t") == Fraction(1, 10 ** (limit - 1))
    for bad in (f"1e{limit}", f"1.5e{limit - 1}", "1e100000000", "-1e-100000000",
                "0." + "0" * limit + "1"):
        with pytest.raises(FileFormatError, match=f"within the {limit}-digit limit"):
            rational_from(bad, "t")
        with pytest.raises(ValueError, match=f"within the {limit}-digit limit"):
            as_rational(bad)
    # an exponent of ten digits or more is outside the grammar
    with pytest.raises(FileFormatError, match="'1e9{5000}' is not a rational;"):
        rational_from("1e" + "9" * 5000, "t")
    with pytest.raises(FileFormatError, match="JSON number: '1e100000000'"):
        load_json('{"x": 1e100000000}')


def test_an_integer_past_the_digit_limit_is_refused_with_its_digit_count():
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
    assert load_json(f'{{"x": -{"9" * limit}}}')["x"] == -(10**limit - 1)
    for literal in ("1" * (limit + 1), "-" + "1" * (limit + 1)):
        message = f"JSON number: {limit + 1} digits, past the {limit}-digit limit"
        with pytest.raises(FileFormatError, match=f"^{message}$"):
            load_json(f'{{"x": {literal}}}')


def test_load_json_counts_nesting_outside_strings():
    limit = formats._MAX_DEPTH
    with pytest.raises(FileFormatError, match=f"more than {limit} levels"):
        load_json("[" * (limit + 1) + "]" * (limit + 1))
    with pytest.raises(FileFormatError, match=f"more than {limit} levels"):
        load_json('{"a": ' * (limit + 1) + "1" + "}" * (limit + 1))
    # many brackets, in strings or side by side, nest no deeper
    shallow = {"s": "[{" * limit, "t": ['\\"[', "]\\"], "u": [[]] * limit, "v": {}}
    assert load_json(json.dumps(shallow)) == shallow
    # a string left open runs to the end: its brackets do not count
    with pytest.raises(FileFormatError, match="not valid JSON"):
        load_json('["' + "[" * (limit + 1))


def _frames():
    """The number of frames on the stack below the caller."""
    frame, n = sys._getframe(1), 0
    while frame is not None:
        frame, n = frame.f_back, n + 1
    return n


@pytest.mark.parametrize("spare", [30, 100, 300, 600, 900])
def test_load_json_read_deep_in_the_stack_decodes_or_refuses(spare):
    # A 900-level document read with *spare* frames left below the recursion
    # limit: decoded, or refused as a format error where the decoder runs on
    # the caller's stack (3.10, 3.11), never a bare RecursionError.
    text = "[" * 900 + "1" + "]" * 900

    def read(n):
        if n > 0:
            return read(n - 1)
        try:
            doc = load_json(text)
        except FileFormatError as exc:
            return str(exc)
        for _ in range(900):
            (doc,) = doc
        return doc

    got = read(sys.getrecursionlimit() - _frames() - spare)
    assert got == 1 or got == "input nested too deeply for the stack it is read on"


def test_parse_problem_named_events_and_scope():
    doc = load_json(
        """
        {
          "atoms": ["w1", "w2", "w3"],
          "events": {"A": ["w1", "w2"]},
          "root_scope": ["w1", "w2"],
          "tree": {
            "id": "C", "kind": "chance", "arcs": [
              {"event": "A", "child": {"id": "L1", "kind": "leaf", "reward": "1/2"}}
            ]
          }
        }
        """
    )
    problem = parse_problem(doc)
    assert problem.events["A"].ordered == ("w1", "w2")
    assert problem.tree.root_scope.ordered == ("w1", "w2")
    leaf = problem.tree.root.arcs[0].child
    assert leaf.reward == Fraction(1, 2)


def test_parse_problem_rejects_unknown_keys_and_duplicate_atoms():
    leaf = {"id": "L", "kind": "leaf", "reward": 0}
    base = {"atoms": ["w1"], "tree": leaf}
    # an unknown key at the top, in a node of each kind or in an arc of each kind
    for doc, key in [
        ({**base, "extra": 1}, "extra"),
        ({**base, "tree": {**leaf, "rewrd": 1}}, "rewrd"),
        ({**base, "tree": {"id": "G", "kind": "gamble", "gamble": {"w1": 0}, "reward": 1}},
         "reward"),
        ({**base, "tree": {"id": "D", "kind": "decision", "arcs": [
            {"label": "x", "event": ["w1"], "child": leaf}]}}, "event"),
        ({**base, "tree": {"id": "C", "kind": "chance", "arcs": [
            {"event": ["w1"], "label": "x", "child": leaf}]}}, "label"),
        ({**base, "tree": {"id": "C", "kind": "chance", "note": "", "arcs": [
            {"event": ["w1"], "child": leaf}]}}, "note"),
    ]:
        with pytest.raises(FileFormatError, match=re.escape(f"unknown keys [{key!r}]")):
            parse_problem(doc)
    with pytest.raises(FileFormatError):
        parse_problem({"atoms": ["w1", "w1"], "tree": base["tree"]})


def test_parse_problem_rejects_events_that_are_not_an_object():
    doc = {"atoms": ["w1"], "events": [1], "tree": {"id": "L", "kind": "leaf", "reward": 0}}
    with pytest.raises(FileFormatError, match="events"):
        parse_problem(doc)


def test_parse_problem_gamble_leaves():
    doc = load_json(
        """
        {
          "atoms": ["w1", "w2"],
          "tree": {
            "id": "G", "kind": "gamble",
            "gamble": {"w2": "1/3", "w1": 2}
          }
        }
        """
    )
    node = parse_problem(doc).tree.root
    assert isinstance(node, GambleLeaf)
    assert dict(node.gamble.items()) == {"w1": Fraction(2), "w2": Fraction(1, 3)}


def test_label_rewards_round_trip():
    doc = load_json(
        """
        {
          "atoms": ["w"],
          "tree": {"id": "L", "kind": "leaf", "reward": {"label": "r1"}}
        }
        """
    )
    problem = parse_problem(doc)
    assert problem.tree.root.reward == "r1"
    assert serialize_problem(problem)["tree"]["reward"] == {"label": "r1"}


def test_model_modes_parse():
    doc = load_json('{"atoms": ["w1", "w2"], "tree": {"id": "L", "kind": "leaf", "reward": 0}}')
    problem = parse_problem(doc)
    sp = problem.space
    joint = parse_model({"mode": "joint", "mass": {"w1": "1/2", "w2": "1/2"}}, sp)
    assert isinstance(joint, JointModel)
    credal = parse_model(
        {"mode": "credal", "members": [{"w1": 1, "w2": 0}, {"w1": 0, "w2": 1}]}, sp
    )
    assert isinstance(credal, CredalModel)
    assert len(credal.credal.members) == 2
    utils = parse_model(
        {
            "mode": "utilities",
            "functions": [{"r1": 1}],
            "chance": {"mode": "joint", "mass": {"w1": "1/2", "w2": "1/2"}},
        },
        sp,
    )
    assert isinstance(utils, UtilityModel)
    assert isinstance(utils.chance, JointModel)


def test_model_errors():
    doc = load_json('{"atoms": ["w1", "w2"], "tree": {"id": "L", "kind": "leaf", "reward": 0}}')
    sp = parse_problem(doc).space
    with pytest.raises(FileFormatError):
        parse_model({"mode": "martian"}, sp)
    with pytest.raises(FileFormatError):
        parse_model({"mode": "joint", "mass": {"w1": "1/2"}}, sp)  # missing atom
    with pytest.raises(FileFormatError):
        parse_model({"mode": "joint", "mass": {"w1": "1/2", "w2": "1/3"}}, sp)  # sums short
    with pytest.raises(FileFormatError):
        parse_model({"mode": "factored", "arcs": {}}, sp)  # needs the tree
    mass = {"w1": "1/2", "w2": "1/2"}
    # a key another mode reads, or none reads, is refused rather than dropped
    for doc, key in [
        ({"mode": "joint", "mass": mass, "members": [mass]}, "members"),
        ({"mode": "credal", "members": [mass], "mass": mass}, "mass"),
        ({"mode": "factored", "arcs": {}, "chance": None}, "chance"),
        ({"mode": "utilities", "functions": [{"r1": 1}], "mass": mass}, "mass"),
        ({"mode": "utilities", "functions": [{"r1": 1}],
          "chance": {"mode": "joint", "mass": mass, "x": 0}}, "x"),
    ]:
        with pytest.raises(FileFormatError, match=re.escape(f"unknown keys [{key!r}]")):
            parse_model(doc, sp)
    with pytest.raises(FileFormatError):
        parse_model(
            {
                "mode": "utilities",
                "functions": [{"r1": 1}],
                "chance": {"mode": "credal", "members": [{"w1": 1, "w2": 0}]},
            },
            sp,
        )


def test_structured_dump_is_sorted_and_newline_terminated():
    text = dumps_structured({"b": 1, "a": {"d": 2, "c": 3}})
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')
    assert text.index('"c"') < text.index('"d"')


# --- the shipped corpus -----------------------------------------------------------


def corpus_documents():
    manifest = json.loads((PROBLEMS / "manifest.json").read_text())
    for entry in manifest["problems"]:
        yield entry["name"], PROBLEMS / entry["tree"], (
            PROBLEMS / entry["model"] if entry["model"] else None
        )


@pytest.mark.parametrize(
    "name,tree_path,model_path",
    list(corpus_documents()),
    ids=[n for n, _, _ in corpus_documents()],
)
def test_corpus_round_trip_is_identity(name, tree_path, model_path):
    problem = parse_problem(load_json(tree_path.read_text()))
    doc = serialize_problem(problem)
    again = parse_problem(load_json(dumps_structured(doc)))
    assert again.tree == problem.tree
    assert again.events == problem.events
    assert serialize_problem(again) == doc
    if model_path is not None:
        model = parse_model(
            load_json(model_path.read_text()), problem.space, problem.tree
        )
        mdoc = serialize_model(model)
        again_m = parse_model(
            load_json(dumps_structured(mdoc)), problem.space, problem.tree
        )
        assert serialize_model(again_m) == mdoc


@pytest.mark.parametrize("chance_mode", ["joint", "factored"])
def test_utility_model_with_a_chance_part_round_trips(chance_mode):
    problem = parse_problem(load_json((PROBLEMS / "eu-example-3.tree.json").read_text()))
    sp, tree = problem.space, problem.tree
    if chance_mode == "joint":
        masses = {"a1e1": "1/4", "a1e2": "1/4", "a2e1": "1/6", "a2e2": "1/3"}
        chance = JointModel(MassFunction.from_mapping(sp, masses))
    else:
        doc = load_json((PROBLEMS / "eu-example-3.model.json").read_text())
        chance = parse_model(doc, sp, tree)
        assert isinstance(chance, FactoredModel)
    u = UtilityFunctionSet.from_tables([{"r1": 3, "r2": "1/2"}, {"r1": -1, "r2": 0}])
    doc = serialize_model(UtilityModel(u, chance))
    assert doc["chance"] == serialize_model(chance)
    assert doc["chance"]["mode"] == chance_mode
    again = parse_model(load_json(dumps_structured(doc)), sp, tree)
    assert isinstance(again, UtilityModel)
    assert again.utilities.functions == u.functions
    if chance_mode == "joint":
        assert again.chance.p == chance.p
    else:
        assert again.chance.assessment.arc_probs == chance.assessment.arc_probs
    assert serialize_model(again) == doc
