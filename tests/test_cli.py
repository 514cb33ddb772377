"""Command-line interface: exit codes, schemas, manifests, rendering."""

import hashlib
import itertools
import json
from importlib import resources

import jsonschema
import pytest

from hl_lab import cli
from hl_lab.cli import build_parser, dispatch, render_table


def schema(name):
    path = resources.files("hl_lab").joinpath("schemas", f"{name}.schema.json")
    return json.loads(path.read_text(encoding="utf-8"))


def run_cli(argv, capsys):
    code = dispatch(argv)
    captured = capsys.readouterr()
    manifest = json.loads(captured.err.strip().splitlines()[-1])
    jsonschema.validate(manifest, schema("manifest"))
    return code, captured.out, manifest


def run_json(argv, capsys):
    code, out, manifest = run_cli(argv, capsys)
    return code, json.loads(out), manifest


def write_doc(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


SPACE4 = {"branching": 2, "height": 4}


# ---------------------------------------------------------------------------
# exit codes


def test_lex_sort_success(tmp_path, capsys):
    path = write_doc(tmp_path, "in.json", {
        "space": {"branching": 2, "height": 3},
        "nodes": ["0", "", "1", "00", "01"],
    })
    code, doc, manifest = run_json(["lex-sort", path], capsys)
    assert code == 0
    assert doc == {"sorted": ["00", "0", "01", "", "1"]}
    jsonschema.validate(doc, schema("lex-sort"))
    assert manifest["subcommand"] == "lex-sort"
    assert manifest["outcome"] == 0


def test_invalid_subtree_exits_one(tmp_path, capsys):
    path = write_doc(tmp_path, "in.json", {
        "space": {"branching": 2, "height": 3},
        "nodes": ["", "00", "01"],
        "level_set": [0, 2],
    })
    code, doc, _ = run_json(["validate-subtree", path], capsys)
    assert code == 1
    assert doc["valid"] is False and doc["violations"]
    jsonschema.validate(doc, schema("validation"))


@pytest.mark.parametrize("nodes, level_set, violation", [
    (["0", "00", "01", "100"], [1, 2, 3], "node '100' does not extend the root '0'"),
    (["", "0", "100"], [0, 1, 3],
     "node '100' lacks its predecessor at witnessing level 1"),
])
def test_subtree_off_the_root_or_its_chain_exits_one(tmp_path, capsys, nodes,
                                                     level_set, violation):
    path = write_doc(tmp_path, "in.json", {
        "space": SPACE4, "nodes": nodes, "level_set": level_set})
    code, doc, _ = run_json(["validate-subtree", path], capsys)
    assert code == 1
    assert violation in doc["violations"]
    jsonschema.validate(doc, schema("validation"))


def test_explicit_space_that_is_not_well_pruned_exits_two(tmp_path, capsys):
    code, error = _exit_and_error(tmp_path, capsys, ["validate-subtree"], {
        "space": {"nodes": ["", "0", "1", "00"]}, "nodes": [""], "level_set": [0]})
    assert (code, error) == (2, "explicit node set is not well pruned: "
                                "'1' has no successor")


def test_unknown_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as info:
        dispatch(["frobnicate"])
    assert info.value.code == 2
    assert "usage" in capsys.readouterr().err


def test_missing_file_exits_two(tmp_path, capsys):
    code, doc, manifest = run_json(
        ["sdhl-search", str(tmp_path / "nope.json")], capsys)
    assert code == 2
    assert "error" in doc
    jsonschema.validate(doc, schema("error"))
    assert manifest["outcome"] == 2


def test_malformed_json_exits_two(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    code, doc, _ = run_json(["sdhl-search", str(path)], capsys)
    assert code == 2 and "error" in doc


def test_cap_exceeded_exits_three(tmp_path, capsys):
    path = write_doc(tmp_path, "in.json", {
        "spaces": [SPACE4, SPACE4],
        "coloring": {"kind": "named", "name": "seeded-random",
                     "params": {"colors": 3, "seed": 1}},
    })
    code, doc, manifest = run_json(
        ["sdhl-search", path, "--max-steps", "3"], capsys)
    assert code == 3
    assert doc["cap"] == 3
    jsonschema.validate(doc, schema("error"))
    assert manifest["caps"]["max_steps"] == 3


def test_fhl_size_refusal_exits_three_with_the_partial_report(capsys):
    code, doc, _ = run_json(["fhl", "--d", "2001", "--b", "10", "--r", "2"],
                            capsys)
    assert code == 3
    assert doc["error"] == "tree of height 2 outside size budget"
    assert doc["cap"] == 200_000  # the tree-size bound, not --budget
    jsonschema.validate(doc, schema("error"))
    jsonschema.validate(doc["partial"], schema("fhl"))
    assert doc["partial"]["lower_bound"] == 1
    assert doc["partial"]["note"] == "exhaustive scan stopped before height 2"


def test_fhl_randomized_samples_spend_from_the_budget(capsys):
    code, doc, _ = run_json(["fhl", "--d", "17", "--b", "2", "--r", "2",
                             "--mode", "randomized", "--samples", "50",
                             "--budget", "0"], capsys)
    assert code == 3
    assert doc["error"] == "50 colorings at height 2 exceed the budget"
    assert doc["cap"] == 0
    jsonschema.validate(doc, schema("error"))
    jsonschema.validate(doc["partial"], schema("fhl"))
    assert doc["partial"]["colorings_checked"] == 0
    assert doc["partial"]["counterexample"] is None
    assert doc["partial"]["note"] == "randomized scan stopped before height 2"


def test_capped_fusion_outcome_exits_three(tmp_path, capsys):
    path = write_doc(tmp_path, "in.json", {
        "spaces": [{"branching": 2, "height": 6}] * 2,
        "colorings": [{"kind": "named", "name": "seeded-random",
                       "params": {"colors": 2, "seed": 5}}] * 2,
        "h": 3,
    })
    code, doc, _ = run_json(["fusion", "run", path, "--max-steps", "1"], capsys)
    assert code == 3
    assert doc["capped"] is True and doc["success"] is False


@pytest.mark.parametrize("source", [
    "1//0", "nodes[9]", "undefined", "1 +",
    "().__class__.__base__.__subclasses__()",
    "len(().__class__.__base__.__subclasses__())", "9**9**9",
    # repetition and %-formatting ran before; at full size they build gigabytes
    "len(nodes[0] * 3) % 2", "len('%05d' % 1)",
    "len(nodes[0] * 999999999)", "len('%0999999999d' % 1)"])
def test_broken_expr_coloring_exits_two(tmp_path, source, capsys):
    path = write_doc(tmp_path, "in.json", {
        "spaces": [SPACE4, SPACE4],
        "coloring": {"kind": "named", "name": "expr",
                     "params": {"colors": 2, "source": source}},
    })
    code, doc, manifest = run_json(["sdhl-search", path], capsys)
    assert code == 2
    assert "expr coloring" in doc["error"]
    jsonschema.validate(doc, schema("error"))
    assert manifest["outcome"] == 2


@pytest.mark.parametrize("flags", [
    ["--mode", "randomized", "--samples", "-5"],
    ["--mode", "randomized", "--samples", "0"],
    ["--max-height", "1"],
    ["--mode", "randomized", "--max-height", "1"],
    ["--budget", "-1"],
])
def test_fhl_bad_samples_or_max_height_exits_two(flags, capsys):
    code, doc, manifest = run_json(
        ["fhl", "--d", "1", "--b", "2", "--r", "2"] + flags, capsys)
    assert code == 2
    assert set(doc) == {"error"}
    jsonschema.validate(doc, schema("error"))
    assert manifest["outcome"] == 2


@pytest.mark.parametrize("steps", ["0", "-3"])
def test_max_steps_below_one_exits_two(tmp_path, steps, capsys):
    path = write_doc(tmp_path, "in.json", {
        "spaces": [SPACE4, SPACE4],
        "coloring": {"kind": "named", "name": "seeded-random",
                     "params": {"colors": 3, "seed": 1}},
    })
    for argv in (["sdhl-search", path], ["dim-induct", path]):
        code, doc, manifest = run_json(argv + ["--max-steps", steps], capsys)
        assert code == 2
        assert doc == {"error": f"need max_steps >= 1, got {steps}"}
        jsonschema.validate(doc, schema("error"))
        assert manifest["caps"] == {"max_steps": int(steps)}
        assert manifest["outcome"] == 2


def _exit_and_error(tmp_path, capsys, argv, doc):
    code, out, _ = run_json([*argv, write_doc(tmp_path, "in.json", doc)], capsys)
    jsonschema.validate(out, schema("error"))
    return code, out["error"]


TWO_SPACES = [SPACE4, SPACE4]


@pytest.mark.parametrize("spaces, coloring, declared", [
    # ignored at first: antichain-split with arity 2 on one space answered 0
    ([SPACE4], {"name": "antichain-split", "params": {"arity": 2}}, 2),
    (TWO_SPACES, {"name": "height-permutation", "params": {"arity": 3}}, 3),
    # these two once said "must be positive" instead
    ([SPACE4], {"name": "constant", "params": {"arity": 0}}, 0),
    (TWO_SPACES, {"name": "height-permutation", "params": {"dimension": 0}}, 1),
    ([SPACE4], {"kind": "table", "arity": -1, "colors": 1, "entries": []}, -1),
    # once "table is not total", as the entries matched the declared arity
    ([SPACE4], {"kind": "table", "arity": 2, "colors": 1,
                "entries": [{"tuple": ["", ""], "color": 0}]}, 2),
])
def test_a_declared_arity_must_match_the_spaces(tmp_path, capsys, spaces,
                                                coloring, declared):
    code, error = _exit_and_error(tmp_path, capsys, ["sdhl-search"], {
        "spaces": spaces, "coloring": {"kind": "named", **coloring}})
    assert code == 2
    assert error == (f"need one factor space per coordinate: arity {declared}, "
                     f"got {len(spaces)} spaces")


def test_a_matching_declared_arity_is_accepted(tmp_path, capsys):
    code, doc, _ = run_json(["polarized", "search", write_doc(tmp_path, "in.json", {
        "spaces": [{"branching": 2, "height": 8}] * 2, "depth": 1,
        "coloring": {"kind": "named", "name": "height-permutation",
                     "params": {"arity": 2, "dimension": 1}}})], capsys)
    assert code == 0 and doc["success"] is True


# field -> a coloring document with the field set to a value
INTEGER_FIELDS = [
    ("arity", lambda v: {"name": "level-parity", "params": {"arity": v}}),
    ("modulus", lambda v: {"name": "level-parity", "params": {"modulus": v}}),
    ("colors", lambda v: {"name": "constant", "params": {"colors": v}}),
    ("value", lambda v: {"name": "constant", "params": {"colors": 2, "value": v}}),
    ("dimension", lambda v: {"name": "height-permutation",
                             "params": {"dimension": v}}),
    ("colors", lambda v: {"name": "seeded-random", "params": {"colors": v}}),
    ("seed", lambda v: {"name": "seeded-random", "params": {"colors": 2, "seed": v}}),
    ("colors", lambda v: {"name": "expr", "params": {"colors": v, "source": "0"}}),
    ("arity", lambda v: {"kind": "table", "arity": v, "colors": 2, "entries": []}),
    ("colors", lambda v: {"kind": "table", "arity": 1, "colors": v, "entries": []}),
    ("color", lambda v: {"kind": "table", "arity": 1, "colors": 2,
                         "entries": [{"tuple": [""], "color": v}]}),
]


@pytest.mark.parametrize("bad", [True, 1.5, "1"])
@pytest.mark.parametrize("field, coloring", INTEGER_FIELDS)
def test_integer_fields_of_a_coloring_must_be_json_integers(tmp_path, capsys, bad,
                                                            field, coloring):
    # once truncated by int(): 1.5 read as 1, true as 1, "1" as 1
    spaces = TWO_SPACES if field == "dimension" else [SPACE4]
    code, error = _exit_and_error(tmp_path, capsys, ["sdhl-search"], {
        "spaces": spaces, "coloring": {"kind": "named", **coloring(bad)}})
    assert (code, error) == (2, f"coloring field {field!r} must be an integer, "
                                f"got {bad!r}")


@pytest.mark.parametrize("seed, code", [
    ([], 2), ("x", 2), (None, 2), ({}, 2), (1.5, 2), (-1, 0), (0, 0)])
def test_a_seeded_random_seed_is_an_integer_of_any_sign(tmp_path, capsys, seed, code):
    # every one of these once ran the search, the seed formatted into the hash
    got, out, _ = run_json(["sdhl-search", write_doc(tmp_path, "in.json", {
        "spaces": TWO_SPACES, "coloring": {
            "kind": "named", "name": "seeded-random",
            "params": {"colors": 2, "seed": seed}}})], capsys)
    assert got == code
    if code == 2:
        assert out["error"] == f"coloring field 'seed' must be an integer, got {seed!r}"


@pytest.mark.parametrize("params, field, bad", [
    ({"arity": 1.5, "modulus": 2.9}, "arity", 1.5),
    ({"arity": True}, "arity", True),
    ({"modulus": 2.9}, "modulus", 2.9),
])
def test_truncated_level_parity_documents_exit_two(tmp_path, capsys, params,
                                                   field, bad):
    # the first two exited 0 as if arity 1 and modulus 2 had been given
    code, error = _exit_and_error(tmp_path, capsys, ["sdhl-search"], {
        "spaces": [SPACE4],
        "coloring": {"kind": "named", "name": "level-parity", "params": params}})
    assert (code, error) == (2, f"coloring field {field!r} must be an integer, "
                                f"got {bad!r}")


LEVEL_PARITY = {"kind": "named", "name": "level-parity", "params": {}}
SUBTREE = {"nodes": ["", "0", "1"], "level_set": [0, 1]}
RAW = [{"u": [], "W": []}] + [{"u": [i], "W": [i]} for i in range(4)]
WMAP = {"E": [0, 1], "d": 1,
        "entries": [{"u": [], "W": []}, {"u": [0], "W": [0]}, {"u": [1], "W": [1]}]}
CONDITION = {"support": [0], "assign": {"0": ["0"]}}


def _wmap_entry(field, v):
    entries = [dict(e) for e in WMAP["entries"]]
    entries[2][field] = [v]
    return {"wmap": {**WMAP, "entries": entries}}


# (field, argv, the document with the field set to a value, what the error names)
DOCUMENT_INTEGERS = [
    ("branching", ["sdhl-search"], lambda v: {
        "spaces": [{"branching": v, "height": 4}], "coloring": LEVEL_PARITY},
     "tree field 'branching'"),
    ("height", ["sdhl-search"], lambda v: {
        "spaces": [{"branching": 2, "height": v}], "coloring": LEVEL_PARITY},
     "tree field 'height'"),
    ("level_set", ["validate-subtree"], lambda v: {
        "space": SPACE4, "nodes": ["", "0", "1"], "level_set": [0, v]},
     "each entry of subtree field 'level_set'"),
    ("fusion h", ["fusion", "run"], lambda v: {
        "spaces": TWO_SPACES, "colorings": [LEVEL_PARITY], "h": v}, "field 'h'"),
    ("dim-induct h", ["dim-induct"], lambda v: {
        "spaces": TWO_SPACES, "coloring": {
            "kind": "named", "name": "seeded-random", "params": {"colors": 2}},
        "h": v}, "field 'h'"),
    ("almost-all h", ["polarized", "almost-all"], lambda v: {
        "spaces": TWO_SPACES, "coloring": {
            "kind": "named", "name": "seeded-random", "params": {"colors": 2}},
        "h": v}, "field 'h'"),
    ("depth", ["polarized", "search"], lambda v: {
        "spaces": TWO_SPACES, "coloring": {"kind": "named",
                                           "name": "height-permutation"},
        "depth": v}, "field 'depth'"),
    ("verify-lb d", ["polarized", "verify-lb"], lambda v: {
        "spaces": [{"branching": 2, "height": 3}] * 2,
        "reports": [SUBTREE] * 2, "d": v}, "field 'd'"),
    ("wmap build d", ["wmap", "build"], lambda v: {
        "E": [0, 1, 2, 3], "d": v, "raw": RAW}, "field 'd'"),
    ("stride", ["wmap", "build"], lambda v: {
        "E": [0, 1, 2, 3], "d": 1, "raw": RAW, "stride": v}, "field 'stride'"),
    ("wmap build E", ["wmap", "build"], lambda v: {
        "E": [0, 1, 2, v], "d": 1, "raw": RAW}, "each entry of field 'E'"),
    ("wmap build u", ["wmap", "build"], lambda v: {
        "E": [0, 1, 2, 3], "d": 1, "raw": RAW + [{"u": [v], "W": [1]}]},
     "each entry of field 'u'"),
    ("wmap build W", ["wmap", "build"], lambda v: {
        "E": [0, 1, 2, 3], "d": 1, "raw": RAW + [{"u": [1], "W": [v]}]},
     "each entry of field 'W'"),
    ("wmap verify d", ["wmap", "verify"], lambda v: {"wmap": {**WMAP, "d": v}},
     "wmap field 'd'"),
    ("wmap verify E", ["wmap", "verify"], lambda v: {"wmap": {**WMAP, "E": [0, v]}},
     "each entry of wmap field 'E'"),
    ("wmap verify u", ["wmap", "verify"], lambda v: _wmap_entry("u", v),
     "each entry of wmap field 'u'"),
    ("wmap verify W", ["wmap", "verify"], lambda v: _wmap_entry("W", v),
     "each entry of wmap field 'W'"),
    ("target", ["delta-system"], lambda v: {
        "family": [[1, 2], [1, 3], [1, 4]], "target": v}, "field 'target'"),
    ("family", ["delta-system"], lambda v: {
        "family": [[1, 2], [v, 2], [1, 4]], "target": 2},
     "each entry of a 'family' member"),
    ("support", ["cond", "glb"], lambda v: {
        "conditions": [{"support": [v], "assign": {"1": ["0"]}}]},
     "each entry of condition field 'support'"),
    ("w0", ["cond", "copy"], lambda v: {
        "condition": CONDITION, "w0": [0, v], "w1": [1, 3]},
     "each entry of field 'w0'"),
    ("w1", ["cond", "copy"], lambda v: {
        "condition": CONDITION, "w0": [0, 2], "w1": [v, 3]},
     "each entry of field 'w1'"),
    ("indices", ["cond", "restrict"], lambda v: {
        "condition": CONDITION, "indices": [v]}, "each entry of field 'indices'"),
    ("table color", ["fusion", "check"], lambda v: {
        "spaces": [SPACE4], "colorings": [LEVEL_PARITY],
        "certificate": {"reports": [SUBTREE], "tables": [{"0": v}]}},
     "each color of a certificate table"),
]


@pytest.mark.parametrize("bad", [True, 1.5, "1"])
@pytest.mark.parametrize("argv, doc, what", [case[1:] for case in DOCUMENT_INTEGERS],
                         ids=[case[0] for case in DOCUMENT_INTEGERS])
def test_integers_of_every_document_must_be_json_integers(tmp_path, capsys, bad,
                                                          argv, doc, what):
    # once truncated by int() (2.9 read as 2, true as 1) or refused later
    # by whatever the truncated or mistyped value broke
    code, error = _exit_and_error(tmp_path, capsys, argv, doc(bad))
    assert (code, error) == (2, f"{what} must be an integer, got {bad!r}")


@pytest.mark.parametrize("name", ["constant", "level-parity", "antichain-split",
                                  "height-permutation", "seeded-random", "expr"])
def test_non_object_coloring_params_exit_two(tmp_path, capsys, name):
    code, error = _exit_and_error(tmp_path, capsys, ["sdhl-search"], {
        "spaces": TWO_SPACES,
        "coloring": {"kind": "named", "name": name, "params": [2]}})
    assert (code, error) == (2, "coloring params must be an object")


@pytest.mark.parametrize("argv, doc", [
    (["cond", "glb"], {"conditions": [[]]}),
    (["cond", "glb"], {"conditions": [{"assign": []}]}),
    (["cond", "copy"], {"condition": "x", "w0": [0], "w1": [1]}),
    (["cond", "restrict"], {"condition": {"assign": 1}, "indices": [0]}),
])
def test_non_object_conditions_exit_two(tmp_path, capsys, argv, doc):
    code, error = _exit_and_error(tmp_path, capsys, argv, doc)
    assert (code, error) == (
        2, "a condition must be an object whose 'assign' is an object")


def test_non_object_certificate_table_exits_two(tmp_path, capsys):
    code, error = _exit_and_error(tmp_path, capsys, ["fusion", "check"], {
        "spaces": [SPACE4],
        "colorings": [{"kind": "named", "name": "level-parity", "params": {}}],
        "certificate": {"reports": [{"level_set": [0], "nodes": [""]}],
                        "tables": [[1]]}})
    assert (code, error) == (2, "certificate tables must be objects")


def test_non_string_subtree_node_exits_two(tmp_path, capsys):
    code, error = _exit_and_error(tmp_path, capsys, ["validate-subtree"], {
        "space": SPACE4, "nodes": ["", ["0"]], "level_set": [0, 1]})
    assert (code, error) == (2, "subtree nodes must be strings")


def test_lex_sort_checks_a_lone_node_alphabet(tmp_path, capsys):
    # a one-node sort makes no comparison, but its node is still checked
    code, error = _exit_and_error(tmp_path, capsys, ["lex-sort"], {"nodes": ["2"]})
    assert code == 2
    assert error == ("lexicographic order is defined for binary nodes only, "
                     "got digit '2'")


@pytest.mark.parametrize("nodes", [[1, 10, 0], ["0", 1], "0110", {"0": "1"}])
def test_lex_sort_nodes_must_be_a_list_of_strings(tmp_path, capsys, nodes):
    # once stringified: [1, 10, 0] sorted as ["0", "10", "1"], and the
    # string "0110" as its characters
    code, error = _exit_and_error(tmp_path, capsys, ["lex-sort"], {"nodes": nodes})
    assert (code, error) == (2, "field 'nodes' must be a list of node strings")


@pytest.mark.parametrize("key", ["1_0", " 01 ", "01", "+1", "-1", "", "١"])
def test_condition_keys_are_canonical_decimals(tmp_path, capsys, key):
    # int() once read "1_0" as index 10 and " 01 " as index 1
    code, error = _exit_and_error(tmp_path, capsys, ["cond", "glb"], {
        "conditions": [{"assign": {key: ["0"]}}]})
    assert (code, error) == (
        2, f"condition key {key!r} must be a canonical decimal index")


@pytest.mark.parametrize("nodes", ["01", [0, 1], ["0", None], {"0": "1"}, 0])
def test_condition_entries_are_lists_of_node_strings(tmp_path, capsys, nodes):
    # tuple() once split the string "01" into the nodes "0" and "1"
    code, error = _exit_and_error(tmp_path, capsys, ["cond", "restrict"], {
        "condition": {"assign": {"1": nodes}}, "indices": [1]})
    assert (code, error) == (
        2, f"condition entry '1' must be a list of node strings, got {nodes!r}")


def test_condition_keys_zero_and_multidigit_are_read(tmp_path, capsys):
    path = write_doc(tmp_path, "in.json", {"conditions": [
        {"assign": {"0": ["0"], "10": ["1"]}}, {"assign": {"10": ["10"]}}]})
    code, doc, _ = run_json(["cond", "glb", path], capsys)
    assert (code, doc) == (0, {"support": [0, 10],
                               "assign": {"0": ["0"], "10": ["10"]}})


ALMOST_ALL = {"spaces": [{"branching": 2, "height": 6}] * 2,
              "coloring": {"kind": "named", "name": "height-permutation"}}


@pytest.mark.parametrize("epsilon", [True, 0.1, None, [1], -1, "-1/2", "1/0", "x"])
def test_epsilon_is_a_fraction_string_or_an_integer(tmp_path, capsys, epsilon):
    # true once ran as "1", 0.1 as its binary expansion, -1 exited 1, "1/0"
    # escaped dispatch and "x" answered with a bare ValueError
    code, error = _exit_and_error(tmp_path, capsys, ["polarized", "almost-all"],
                                  {**ALMOST_ALL, "epsilon": epsilon})
    assert (code, error) == (2, f"field 'epsilon' must be a non-negative integer "
                                f"or fraction string, got {epsilon!r}")


@pytest.mark.parametrize("epsilon, read", [(0, "0"), (1, "1"), ("1/20", "1/20"),
                                           ("0.25", "1/4")])
def test_epsilon_reads_integers_and_fraction_strings(tmp_path, capsys, epsilon,
                                                     read):
    path = write_doc(tmp_path, "in.json", {**ALMOST_ALL, "epsilon": epsilon})
    code, doc, _ = run_json(["polarized", "almost-all", path], capsys)
    assert code == 0 and doc["epsilon"] == read


# ---------------------------------------------------------------------------
# subcommand documents against their schemas


def test_sdhl_search_found_document(tmp_path, capsys):
    path = write_doc(tmp_path, "in.json", {
        "space": SPACE4,
        "coloring": {"kind": "named", "name": "level-parity",
                     "params": {"arity": 1}},
    })
    code, doc, _ = run_json(["sdhl-search", path], capsys)
    assert code == 0
    assert doc["found"] is True
    assert doc["witness"]["base"] == [""]
    jsonschema.validate(doc, schema("sdhl-search"))


def test_sdhl_search_not_found_document(tmp_path, capsys):
    # the root's two successors differ in color, so no matrix is monochromatic
    path = write_doc(tmp_path, "in.json", {
        "space": {"branching": 2, "height": 2},
        "coloring": {"kind": "table", "arity": 1, "colors": 2, "entries": [
            {"tuple": [""], "color": 0}, {"tuple": ["0"], "color": 0},
            {"tuple": ["1"], "color": 1}]},
    })
    code, doc, manifest = run_json(["sdhl-search", path], capsys)
    assert (code, manifest["outcome"]) == (1, 1)
    assert doc == {"found": False, "witness": None}
    jsonschema.validate(doc, schema("sdhl-search"))


def test_fhl_document(capsys):
    code, doc, manifest = run_json(["fhl", "--d", "1", "--b", "2", "--r", "2"],
                                   capsys)
    assert code == 0
    assert doc["n"] == 3
    assert doc["counterexample_at"] == 2
    jsonschema.validate(doc, schema("fhl"))
    assert manifest["seed"] == 0  # default recorded even when not passed


def test_randomized_fhl_without_seed_uses_the_recorded_default(capsys):
    argv = ["fhl", "--d", "2", "--b", "2", "--r", "2", "--mode", "randomized",
            "--samples", "3"]
    runs = [run_cli(argv, capsys) for _ in range(2)]
    assert runs[0] == runs[1]
    code, out, manifest = runs[0]
    assert json.loads(out)["seed"] == 0
    assert manifest["seed"] == 0


def test_fusion_run_and_check_round_trip(tmp_path, capsys):
    base = {
        "spaces": [SPACE4, SPACE4],
        "colorings": [
            {"kind": "named", "name": "level-parity",
             "params": {"arity": 2, "modulus": 2}},
            {"kind": "named", "name": "level-parity",
             "params": {"arity": 2, "modulus": 3}},
        ],
        "h": 3,
    }
    path = write_doc(tmp_path, "run.json", base)
    code, doc, _ = run_json(["fusion", "run", path], capsys)
    assert code == 0 and doc["success"] is True
    jsonschema.validate(doc, schema("fusion-run"))

    check_in = dict(base)
    check_in["certificate"] = doc["certificate"]
    path = write_doc(tmp_path, "check.json", check_in)
    code, doc, manifest = run_json(["fusion", "check", path], capsys)
    assert code == 0 and doc["valid"] is True
    assert manifest["subcommand"] == "fusion check"


def test_dim_induct_document(tmp_path, capsys):
    path = write_doc(tmp_path, "in.json", {
        "spaces": [{"branching": 2, "height": 11}] * 2,
        "coloring": {"kind": "named", "name": "seeded-random",
                     "params": {"colors": 2, "seed": 11}},
        "h": 4,
    })
    code, doc, _ = run_json(["dim-induct", path, "--max-steps", "400000"],
                            capsys)
    assert code == 0
    assert doc["success"] is True and doc["witness"] is not None
    jsonschema.validate(doc, schema("dim-induct"))


def test_dim_induct_refuses_a_height_goal_above_the_trees(tmp_path, capsys):
    # once exit 1, "tail-cone step failed: partial: truncation exhausted
    # before stage 1"; fusion run refused the same h with this exit 2
    doc = {"spaces": [{"branching": 2, "height": 4}] * 2,
           "coloring": {"kind": "named", "name": "seeded-random",
                        "params": {"colors": 2, "seed": 11}},
           "h": 9}
    for argv in (["dim-induct"], ["fusion", "run"]):
        code, error = _exit_and_error(tmp_path, capsys, argv, doc)
        assert (code, error) == (2, "height goal 9 exceeds tree height 4")


def test_polarized_search_document(tmp_path, capsys):
    path = write_doc(tmp_path, "in.json", {
        "spaces": [{"branching": 2, "height": 8}] * 2,
        "coloring": {"kind": "named", "name": "height-permutation",
                     "params": {"dimension": 1}},
        "depth": 3,
    })
    code, doc, _ = run_json(["polarized", "search", path], capsys)
    assert code == 0
    assert doc["realized"] == [0, 1]
    jsonschema.validate(doc, schema("polarized-search"))


def test_polarized_verify_lb_document(tmp_path, capsys):
    space = {"branching": 2, "height": 3}
    nodes = ["", "0", "1", "00", "01", "10", "11"]
    path = write_doc(tmp_path, "in.json", {
        "spaces": [space, space],
        "reports": [{"nodes": nodes, "level_set": [0, 1, 2]}] * 2,
        "d": 1,
    })
    code, doc, _ = run_json(["polarized", "verify-lb", path], capsys)
    assert code == 0 and doc["realizes_all"] is True
    jsonschema.validate(doc, schema("verify-lb"))


@pytest.mark.parametrize("doc", [
    {"spaces": [], "reports": [], "d": -1},
    {"spaces": [{"branching": 2, "height": 3}],
     "reports": [{"nodes": ["", "0", "1"], "level_set": [0, 1]}], "d": 0}])
def test_verify_lb_refuses_a_dimension_below_one(tmp_path, doc, capsys):
    # both once exited 0: an empty product "realized all" 0! types, and
    # d = 0 reported its one type
    path = write_doc(tmp_path, "in.json", doc)
    code, out, manifest = run_json(["polarized", "verify-lb", path], capsys)
    assert code == 2
    assert "dimension must be positive" in out["error"]
    jsonschema.validate(out, schema("error"))
    assert manifest["outcome"] == 2


@pytest.mark.parametrize("d, factors", [(2, 2), (1, 3)])
def test_verify_lb_checks_its_dimension_against_the_reports(tmp_path, capsys, d,
                                                            factors):
    # the library reads the dimension off the reports; the document's d
    # must agree with them
    space = {"branching": 2, "height": 3}
    report = {"nodes": ["", "0", "1", "00", "01", "10", "11"], "level_set": [0, 1, 2]}
    code, error = _exit_and_error(tmp_path, capsys, ["polarized", "verify-lb"], {
        "spaces": [space] * factors, "reports": [report] * factors, "d": d})
    assert (code, error) == (2, f"need {d + 1} factor subtrees, got {factors}")


def test_expr_comprehension_reads_the_coloring_names(tmp_path, capsys):
    # once a NameError for ``d`` inside the generator (exit 2)
    path = write_doc(tmp_path, "in.json", {
        "spaces": [SPACE4, SPACE4],
        "coloring": {"kind": "named", "name": "expr",
                     "params": {"colors": 2, "source": "sum(h * d for h in heights)"}},
    })
    code, doc, _ = run_json(["sdhl-search", path], capsys)
    assert code == 0 and doc["found"] is True


def test_almost_all_document(tmp_path, capsys):
    path = write_doc(tmp_path, "in.json", {
        "spaces": [{"branching": 2, "height": 6}] * 2,
        "coloring": {"kind": "named", "name": "height-permutation",
                     "params": {"dimension": 1}},
    })
    code, doc, _ = run_json(["polarized", "almost-all", path], capsys)
    assert code == 0 and doc["success"] is True
    assert doc["max_fraction"] == "0"
    jsonschema.validate(doc, schema("almost-all"))


def test_degrees_documents(capsys):
    code, doc, _ = run_json(["degrees", "tangent", "4"], capsys)
    assert code == 0 and doc == {"n": 4, "value": 272}
    jsonschema.validate(doc, schema("degrees"))
    code, doc, _ = run_json(["degrees", "devlin", "3"], capsys)
    assert code == 0 and doc == {"d": 3, "value": 20}
    jsonschema.validate(doc, schema("degrees"))
    code, doc, _ = run_json(["degrees", "table", "4"], capsys)
    assert code == 0 and len(doc["rows"]) == 4
    jsonschema.validate(doc, schema("degrees-table"))


def test_cond_documents(tmp_path, capsys):
    path = write_doc(tmp_path, "glb.json", {
        "conditions": [
            {"support": [0], "assign": {"0": ["0"]}},
            {"support": [0, 1], "assign": {"0": ["01"], "1": ["1"]}},
        ],
    })
    code, doc, _ = run_json(["cond", "glb", path], capsys)
    assert code == 0
    assert doc == {"support": [0, 1], "assign": {"0": ["01"], "1": ["1"]}}
    jsonschema.validate(doc, schema("condition"))

    path = write_doc(tmp_path, "copy.json", {
        "condition": {"support": [0, 2], "assign": {"0": ["0"], "2": ["11"]}},
        "w0": [0, 2, 5], "w1": [1, 3, 7],
    })
    code, doc, _ = run_json(["cond", "copy", path], capsys)
    assert code == 0
    assert doc["support"] == [1, 3]

    path = write_doc(tmp_path, "restrict.json", {
        "condition": {"support": [0, 2], "assign": {"0": ["0"], "2": ["11"]}},
        "indices": [2],
    })
    code, doc, _ = run_json(["cond", "restrict", path], capsys)
    assert code == 0 and doc["support"] == [2]


def test_incompatible_conditions_exit_one(tmp_path, capsys):
    path = write_doc(tmp_path, "glb.json", {
        "conditions": [
            {"support": [2], "assign": {"2": ["0", "00"]}},
            {"support": [2], "assign": {"2": ["0", "11"]}},
        ],
    })
    code, doc, manifest = run_json(["cond", "glb", path], capsys)
    assert code == 1
    assert (doc["index"], doc["coordinate"]) == (2, 1)
    jsonschema.validate(doc, schema("error"))
    assert manifest["outcome"] == 1


def test_wmap_build_and_verify(tmp_path, capsys):
    raw = [{"u": [], "W": []}] + [{"u": [i], "W": [i]} for i in range(4)]
    path = write_doc(tmp_path, "build.json", {
        "E": [0, 1, 2, 3], "d": 1, "raw": raw, "stride": 1,
    })
    code, doc, _ = run_json(["wmap", "build", path], capsys)
    assert code == 0
    assert doc["E"] == [0, 1, 2, 3]
    jsonschema.validate(doc, schema("wmap"))

    path = write_doc(tmp_path, "verify.json", {"wmap": doc})
    code, doc, _ = run_json(["wmap", "verify", path], capsys)
    assert code == 0 and doc["valid"] is True
    jsonschema.validate(doc, schema("wmap-verify"))

    broken = {"E": [0, 1], "d": 1,
              "entries": [{"u": [], "W": []}, {"u": [0], "W": [0, 9]},
                          {"u": [1], "W": [1]}]}
    path = write_doc(tmp_path, "broken.json", {"wmap": broken})
    code, doc, _ = run_json(["wmap", "verify", path], capsys)
    assert code == 1 and doc["valid"] is False


def test_wmap_build_size_refusal_exits_three(tmp_path, capsys):
    # C(C(14, 3), <= 4) families; the raw map is never read
    path = write_doc(tmp_path, "build.json", {"E": list(range(14)), "d": 3,
                                              "raw": []})
    code, doc, _ = run_json(["wmap", "build", path], capsys)
    assert code == 3
    assert doc["cap"] == 1 << 20
    assert doc["error"] == ("more than 1048576 families of 3-subsets of "
                            "14 elements to scan")
    jsonschema.validate(doc, schema("error"))


def test_wmap_verify_size_refusal_exits_three(tmp_path, capsys):
    # E=700, d=1 needs 1,225,351 pair and transport checks
    entries = [{"u": [], "W": []}] + [{"u": [i], "W": [i]} for i in range(700)]
    path = write_doc(tmp_path, "verify.json", {
        "wmap": {"E": list(range(700)), "d": 1, "entries": entries}})
    code, doc, manifest = run_json(["wmap", "verify", path], capsys)
    assert code == 3 and manifest["outcome"] == 3
    assert doc["cap"] == 1 << 20
    assert doc["error"] == ("1225351 law checks over 700 elements at degree 1 "
                            "exceed 1048576")
    jsonschema.validate(doc, schema("error"))


def test_delta_system_exit_codes(tmp_path, capsys):
    path = write_doc(tmp_path, "found.json", {
        "family": [[1, 2], [1, 3], [1, 4]], "target": 3})
    code, doc, _ = run_json(["delta-system", path], capsys)
    assert code == 0 and doc["root"] == [1]
    jsonschema.validate(doc, schema("delta-system"))
    path = write_doc(tmp_path, "missing.json", {
        "family": [[1, 2], [2, 3], [1, 3]], "target": 3})
    code, doc, _ = run_json(["delta-system", path], capsys)
    assert code == 1 and doc["success"] is False


def test_delta_system_spends_from_max_steps(tmp_path, capsys):
    # no 13 of the 3-subsets of range(14) form a sunflower; the search
    # needs 24,839,980 steps (about 8 s), over the default cap
    family = [list(c) for c in itertools.combinations(range(14), 3)]
    path = write_doc(tmp_path, "in.json", {"family": family, "target": 13})
    code, doc, manifest = run_json(["delta-system", path, "--max-steps", "1000"],
                                   capsys)
    assert code == 3
    assert doc == {"error": "delta-system search exceeded its budget",
                   "cap": 1000, "partial": None}
    jsonschema.validate(doc, schema("error"))
    assert manifest["caps"] == {"max_steps": 1000}


def test_hl_check_document(tmp_path, capsys):
    space = {"branching": 2, "height": 3}
    nodes = ["", "0", "1", "00", "01", "10", "11"]
    path = write_doc(tmp_path, "in.json", {
        "spaces": [space, space],
        "coloring": {"kind": "named", "name": "constant",
                     "params": {"arity": 2, "colors": 2}},
        "reports": [{"nodes": nodes, "level_set": [0, 1, 2]}] * 2,
    })
    code, doc, _ = run_json(["hl-check", path], capsys)
    assert code == 0 and doc["valid"] is True


def test_hl_check_rejects_chains(tmp_path, capsys):
    # monochromatic, but a chain does not split as the ambient tree does
    space = {"branching": 2, "height": 4}
    path = write_doc(tmp_path, "in.json", {
        "spaces": [space, space],
        "coloring": {"kind": "named", "name": "constant",
                     "params": {"arity": 2, "colors": 2}},
        "reports": [{"nodes": ["", "0", "00", "000"], "level_set": [0, 1, 2, 3]},
                    {"nodes": ["", "1", "11", "111"], "level_set": [0, 1, 2, 3]}],
    })
    code, doc, _ = run_json(["hl-check", path], capsys)
    assert code == 1 and doc["valid"] is False
    assert doc["violations"][0] == ("subtree 0: successor '1' of '' has 0 "
                                    "extensions at witnessing level 1; "
                                    "expected exactly one")
    assert all(v.startswith(("subtree 0: ", "subtree 1: "))
               for v in doc["violations"])


@pytest.mark.parametrize("argv", [["hl-check"], ["polarized", "verify-lb"]])
def test_more_reports_than_spaces_exits_two(tmp_path, argv, capsys):
    # once an uncaught IndexError traceback
    report = {"nodes": ["", "0", "1"], "level_set": [0, 1]}
    path = write_doc(tmp_path, "in.json", {
        "spaces": [{"branching": 2, "height": 3}],
        "coloring": {"kind": "named", "name": "constant",
                     "params": {"arity": 1, "colors": 2}},
        "reports": [report, report], "d": 1,
    })
    code, out, manifest = run_json(argv + [path], capsys)
    assert code == 2 and manifest["outcome"] == 2
    assert out == {"error": "document has 2 reports but 1 spaces"}


def test_fusion_check_refuses_a_report_per_space_mismatch(tmp_path, capsys):
    # three reports over two spaces were zipped down to two and accepted
    report = {"nodes": ["", "0", "1"], "level_set": [0, 1]}
    path = write_doc(tmp_path, "in.json", {
        "spaces": [{"branching": 2, "height": 3}] * 2,
        "colorings": [{"kind": "named", "name": "constant",
                       "params": {"arity": 2, "colors": 2}}],
        "certificate": {"reports": [report] * 3, "tables": [{"0,0": 0}]},
    })
    code, out, manifest = run_json(["fusion", "check", path], capsys)
    assert code == 2 and manifest["outcome"] == 2
    assert out == {"error": "certificate has 3 reports but 2 spaces"}


@pytest.mark.parametrize("coloring", [
    {"kind": "named", "name": "height-permutation", "params": {"dimension": 1}},
    {"kind": "named", "name": "seeded-random",
     "params": {"arity": 2, "colors": 2, "seed": 0, "domain": "full"}},
], ids=["height-factored", "staged"])
@pytest.mark.parametrize("h", [1, 0, -3])
def test_almost_all_refuses_fewer_than_two_levels(tmp_path, capsys, coloring, h):
    # once exit 1, "no root tuple and color vector admits the construction"
    path = write_doc(tmp_path, "in.json", {
        "spaces": [{"branching": 2, "height": 4}] * 2, "coloring": coloring, "h": h})
    code, out, _ = run_json(["polarized", "almost-all", path], capsys)
    assert code == 2
    assert out == {"error": f"need at least two subtree levels, got {h}"}


@pytest.mark.parametrize("heights,h", [((1, 1), None), ((5, 1), 3)])
def test_almost_all_refuses_a_factor_below_two_levels(tmp_path, capsys, heights, h):
    # once exit 1, "no root tuple and color vector admits the construction":
    # the staged route's h is cut to the lowest factor height
    doc = {"spaces": [{"branching": 2, "height": t} for t in heights],
           "coloring": {"kind": "named", "name": "seeded-random",
                        "params": {"colors": 2, "seed": 0}}}
    if h is not None:
        doc["h"] = h
    code, out, _ = run_json(["polarized", "almost-all",
                             write_doc(tmp_path, "in.json", doc)], capsys)
    assert code == 2
    assert out == {"error": "need at least two subtree levels, the lowest factor has 1"}
    # the height-factored route measures the trees as they are: no
    # strictly ordered tuple, so no violation
    doc["coloring"] = {"kind": "named", "name": "height-permutation",
                       "params": {"dimension": 1}}
    code, out, _ = run_json(["polarized", "almost-all",
                             write_doc(tmp_path, "in.json", doc)], capsys)
    assert code == 0 and out["success"] and out["route"] == "height-factored"


def test_almost_all_at_k3_admits_no_vacuous_two_level_construction(tmp_path, capsys):
    # once exit 0 with level set [0, 1]: on two levels no 3-tuple is
    # strictly ordered, so every pattern's total was 0
    path = write_doc(tmp_path, "in.json", {
        "spaces": [{"branching": 2, "height": 5}] * 3, "h": 3,
        "coloring": {"kind": "named", "name": "seeded-random",
                     "params": {"colors": 2, "seed": 1}}})
    code, out, _ = run_json(["polarized", "almost-all", path], capsys)
    assert code == 1 and not out["success"] and out["patterns"] == []
    assert out["failure"] == "no root tuple and color vector admits the construction"


@pytest.mark.parametrize("coloring", [
    {"kind": "named", "name": "height-permutation", "params": {"dimension": 2}},
    {"kind": "named", "name": "seeded-random",
     "params": {"arity": 3, "colors": 2, "seed": 0, "domain": "full"}},
], ids=["height-factored", "staged"])
def test_almost_all_refuses_fewer_levels_than_the_arity(tmp_path, capsys, coloring):
    path = write_doc(tmp_path, "in.json", {
        "spaces": [{"branching": 2, "height": 4}] * 3, "coloring": coloring, "h": 2})
    code, out, _ = run_json(["polarized", "almost-all", path], capsys)
    assert code == 2
    assert out == {"error": "need at least 3 subtree levels, got 2"}


def test_almost_all_refuses_a_factor_below_the_arity(tmp_path, capsys):
    doc = {"spaces": [{"branching": 2, "height": t} for t in (5, 2, 5)],
           "coloring": {"kind": "named", "name": "seeded-random",
                        "params": {"colors": 2, "seed": 0}}}
    code, out, _ = run_json(["polarized", "almost-all",
                             write_doc(tmp_path, "in.json", doc)], capsys)
    assert code == 2
    assert out == {"error": "need at least 3 subtree levels, the lowest factor has 2"}


# ---------------------------------------------------------------------------
# manifests


def test_manifest_records_input_digest(tmp_path, capsys):
    doc = {"space": {"branching": 2, "height": 3}, "nodes": ["0", "1"]}
    path = write_doc(tmp_path, "in.json", doc)
    raw = (tmp_path / "in.json").read_bytes()
    _, _, manifest = run_json(["lex-sort", path], capsys)
    assert manifest["input_sha256"] == hashlib.sha256(raw).hexdigest()
    _, _, again = run_json(["lex-sort", path], capsys)
    assert again["input_sha256"] == manifest["input_sha256"]


def test_manifest_records_caps_only_when_given(tmp_path, capsys):
    path = write_doc(tmp_path, "in.json", {
        "space": {"branching": 2, "height": 3},
        "coloring": {"kind": "named", "name": "constant",
                     "params": {"arity": 1, "colors": 2}}})
    _, _, manifest = run_json(["sdhl-search", path], capsys)
    assert manifest["caps"] is None
    _, _, manifest = run_json(["sdhl-search", path, "--max-steps", "999"], capsys)
    assert manifest["caps"]["max_steps"] == 999


def test_manifest_schema_rejects_stray_keys():
    manifest = {"subcommand": "lex-sort", "input_sha256": None, "seed": None,
                "caps": {"max_steps": 5}, "version": "0.1.0", "outcome": 0}
    jsonschema.validate(manifest, schema("manifest"))
    for stray in ({"workers": 1}, {"caps": {"max_steps": 5, "stage_candidates": 9}}):
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate({**manifest, **stray}, schema("manifest"))


def test_removed_flags_are_rejected(capsys):
    # --seed stays only on fhl; --max-steps only on the searches
    for argv in (["degrees", "tangent", "3", "--workers", "2"],
                 ["degrees", "tangent", "3", "--stage-candidates", "2"],
                 ["lex-sort", "-", "--max-steps", "2"],
                 ["degrees", "tangent", "3", "--seed", "2"],
                 ["fhl", "--d", "1", "--b", "2", "--r", "2", "--max-steps", "2"],
                 ["wmap", "verify", "-", "--seed", "2"],
                 ["fusion", "check", "-", "--max-steps", "2"],
                 ["polarized", "search", "-", "--seed", "2"]):
        with pytest.raises(SystemExit) as info:
            dispatch(argv)
        assert info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def _parse(parser, argv, capsys):
    try:
        code, fields = None, vars(parser.parse_args(argv))
    except SystemExit as stop:
        code, fields = stop.code, None
    out, err = capsys.readouterr()
    return code, out, err, fields


GROUPS = {name: spec[1] for name, spec in cli._COMMANDS.items()
          if isinstance(spec[1], dict)}
PARSER_CASES = (
    [[name, "-h"] for name in cli._COMMANDS]
    + [[group, sub, "-h"] for group, subs in GROUPS.items() for sub in subs]
    + [[], ["-h"], ["frobnicate"], ["fusion", "frobnicate"], ["fusion"],
       ["fhl", "--b", "2", "--r", "2"],
       ["fhl", "--d", "x", "--b", "2", "--r", "2"],
       ["degrees", "tangent", "x"], ["sdhl-search", "-", "--max-steps", "q"],
       ["lex-sort", "-", "--bogus"], ["hl-check", "a.json", "b.json"],
       ["fhl", "--d", "1", "--b", "2", "--r", "2", "--mode", "randomized"],
       ["fusion", "run", "in.json", "--max-steps", "5", "--transcript", "t"],
       ["degrees", "table", "4", "--table"], ["polarized", "almost-all"]])


@pytest.mark.parametrize("argv", PARSER_CASES,
                         ids=lambda argv: " ".join(argv) or "(empty)")
def test_a_one_command_parser_parses_like_the_full_one(argv, capsys):
    # help, usage errors and parsed fields: the other commands are only
    # listed, so nothing a run can see depends on them
    full = _parse(build_parser(), argv, capsys)
    assert _parse(build_parser(argv[0] if argv else None), argv, capsys) == full
    assert full[1] or full[2] or full[3]


def test_seed_flag_recorded(tmp_path, capsys):
    _, doc, manifest = run_json(["fhl", "--d", "1", "--b", "2", "--r", "2",
                                 "--mode", "randomized", "--samples", "3",
                                 "--seed", "42"], capsys)
    assert manifest["seed"] == 42 and doc["seed"] == 42
    path = write_doc(tmp_path, "in.json", {
        "space": {"branching": 2, "height": 3}, "nodes": ["0"]})
    _, _, manifest = run_json(["lex-sort", path], capsys)
    assert manifest["seed"] is None


# ---------------------------------------------------------------------------
# rendering and transcripts


def test_render_table_rows_align():
    text = render_table({"limit": 2, "rows": [
        {"d": 1, "tangent": 1, "devlin_lower_bound": None},
        {"d": 2, "tangent": 2, "devlin_lower_bound": 2},
    ]})
    lines = text.splitlines()
    assert lines[0] == "limit: 2"
    header = lines[2]
    assert header.index("tangent") == lines[3].index("1", 3)
    assert "-" in lines[3]  # None renders as a dash


def test_render_table_scalars_and_empties():
    assert render_table([]) == "(none)"
    assert render_table({"hits": [], "ok": True}) == "hits: (none)\nok: yes"
    assert render_table({"xs": [1, 2, 3]}) == "xs: 1,2,3"
    assert render_table("word") == "word"


def test_table_flag_renders_text(capsys):
    code, out, _ = run_cli(["degrees", "table", "4", "--table"], capsys)
    assert code == 0
    assert "polarized_degree" in out
    assert "272" in out
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)


def test_transcript_file_is_jsonl(tmp_path, capsys):
    path = write_doc(tmp_path, "in.json", {
        "spaces": [{"branching": 2, "height": 8}] * 2,
        "coloring": {"kind": "named", "name": "height-permutation",
                     "params": {"dimension": 1}},
        "depth": 1,
    })
    log = tmp_path / "events.jsonl"
    code, _, _ = run_json(
        ["polarized", "search", path, "--transcript", str(log)], capsys)
    assert code == 0
    lines = log.read_text(encoding="utf-8").strip().splitlines()
    assert lines
    for line in lines:
        event = json.loads(line)
        assert "event" in event


SEEDED_11 = {"kind": "named", "name": "seeded-random",
             "params": {"colors": 2, "seed": 11}}
HEIGHT_PERMUTATION = {"kind": "named", "name": "height-permutation",
                      "params": {"dimension": 1}}
FUSION_RUN = {"spaces": [SPACE4] * 2, "h": 3, "colorings": [
    {"kind": "named", "name": "level-parity", "params": {"modulus": m}}
    for m in (2, 3)]}
CAPPED_FUSION_RUN = {"spaces": [{"branching": 2, "height": 6}] * 2, "h": 3,
                     "colorings": [{"kind": "named", "name": "seeded-random",
                                    "params": {"colors": 2, "seed": 5}}] * 2}
DIM_INDUCT = {"spaces": [{"branching": 2, "height": 11}] * 2,
              "coloring": SEEDED_11, "h": 4}
# (depth + 1) * k = 14 bands of one level each, on trees of 12 levels
POLARIZED_TOO_DEEP = {"spaces": [{"branching": 2, "height": 12}] * 2,
                      "coloring": {**HEIGHT_PERMUTATION, "params": {}}, "depth": 6}


@pytest.mark.parametrize("argv, doc, code, sha256", [
    (["fusion", "run"], FUSION_RUN, 0,
     "87124048fe5a6834c33cb3f696132a739f57195c498fc87091933bd7d5fa4891"),
    (["fusion", "run", "--max-steps", "40"], CAPPED_FUSION_RUN, 3,
     "d60ca75c72e95c307986d3212018ae7a8ac59fbc7f2f028a74641b4b3f2b07a8"),
    (["dim-induct", "--max-steps", "400000"], DIM_INDUCT, 0,
     "ccbbda96a14554d7c409e45d9b2c6fa72019af3386a95b77e380b2f2460201b5"),
    # the run takes 473 steps, 424 of them in the tail-cone step; a cap of
    # 450 ends it in the branch searches, after the stage events of the
    # frozen transcript
    (["dim-induct", "--max-steps", "450"], DIM_INDUCT, 3,
     "02f7bda448ad2ac8800692842e1bb31a479e121ec843feabe529eabc38ab57e5"),
    (["polarized", "search"], {"spaces": [{"branching": 2, "height": 8}] * 2,
                               "coloring": HEIGHT_PERMUTATION, "depth": 1}, 0,
     "3b0732e0157ebdf19972338c94174fb1316d8de3034e280f4407e441e1c93b79"),
    # the run takes 54 steps; a cap of 45 ends it in round 2's second tree,
    # after the band events of the frozen transcript
    (["polarized", "search", "--max-steps", "45"], {
        "spaces": [{"branching": 2, "height": 8}] * 2,
        "coloring": HEIGHT_PERMUTATION, "depth": 2}, 3,
     "d6606e477719c0ed6270b574f9cfcedb89410ebdb3d5b7c591dee083118db1f0"),
])
def test_a_run_that_returns_writes_its_transcript(tmp_path, capsys, argv, doc,
                                                  code, sha256):
    # dispatch writes the file once the handler returns, a capped run's too;
    # the digests are those of the files each handler once wrote itself
    log = tmp_path / "events.jsonl"
    got, _, _ = run_json([*argv, write_doc(tmp_path, "in.json", doc),
                          "--transcript", str(log)], capsys)
    assert got == code
    assert hashlib.sha256(log.read_bytes()).hexdigest() == sha256


@pytest.mark.parametrize("argv, doc", [
    (["fusion", "run"], {**FUSION_RUN, "h": 1.5}),
    (["dim-induct"], {"spaces": DIM_INDUCT["spaces"]}),
    (["polarized", "search"], {"spaces": [SPACE4] * 2,
                               "coloring": HEIGHT_PERMUTATION, "depth": 0}),
    (["polarized", "search"], POLARIZED_TOO_DEEP),
])
def test_a_run_refused_before_its_search_writes_no_transcript(tmp_path, capsys,
                                                              argv, doc):
    log = tmp_path / "events.jsonl"
    code, _, _ = run_json([*argv, write_doc(tmp_path, "in.json", doc),
                           "--transcript", str(log)], capsys)
    assert code == 2
    assert not log.exists()


# ---------------------------------------------------------------------------
# answers each command gives on one document


SPACE3 = {"branching": 2, "height": 3}
CONSTANT = {"kind": "named", "name": "constant", "params": {"colors": 2}}


@pytest.mark.parametrize("argv, doc, error", [
    (["lex-sort"], {"space": SPACE3, "nodes": ["2"]}, "node '2' outside the space"),
    (["sdhl-search"], {"spaces": TWO_SPACES,
                       "coloring": {"kind": "named", "name": "antichain-split"}},
     "antichain-split is a unary coloring"),
    (["sdhl-search"], {"spaces": [SPACE4], "coloring": {
        "kind": "named", "name": "level-parity", "params": {"modulus": 0}}},
     "modulus must be positive, got 0"),
    (["polarized", "search"], {"spaces": TWO_SPACES, "coloring": LEVEL_PARITY,
                               "depth": 1},
     "cross-tree tuples mix heights; a full-domain coloring is required"),
    (["polarized", "search"], {"spaces": [SPACE4], "coloring": CONSTANT, "depth": 1},
     "the construction needs at least two factors"),
    # once exit 1, "no viable band for round 6, tree 0", as if the search
    # had failed on trees tall enough
    (["polarized", "search"], POLARIZED_TOO_DEEP,
     "depth 6 needs 14 levels across 2 trees, the lowest has 12"),
    (["wmap", "verify"], {"wmap": {**WMAP, "entries": [
        {"u": [], "W": []}, {"u": [0], "W": [1]}, {"u": [1], "W": [1]}]}},
     "containment fails: {0} not within its image {1}"),
    (["fusion", "check"], {"spaces": TWO_SPACES, "colorings": [LEVEL_PARITY],
                           "certificate": {"reports": [SUBTREE, {
                               "nodes": ["", "00", "10"], "level_set": [0, 2]}],
                               "tables": [{"0,0": 0}]}},
     "certificate subtrees must share one level set"),
], ids=["lex-sort", "antichain-split", "modulus", "polarized level domain",
        "polarized one factor", "polarized depth", "wmap containment",
        "fusion level sets"])
def test_a_refused_document_exits_two_naming_its_fault(tmp_path, capsys, argv,
                                                       doc, error):
    assert _exit_and_error(tmp_path, capsys, argv, doc) == (2, error)


def test_antichain_split_finds_its_witness_below_the_root(tmp_path, capsys):
    # the root's two cones take colors 0 and 1, so no base is the root
    code, doc, _ = run_json(["sdhl-search", write_doc(tmp_path, "in.json", {
        "spaces": [SPACE3],
        "coloring": {"kind": "named", "name": "antichain-split"}})], capsys)
    assert code == 0
    assert doc["witness"]["base"] == ["0"]
    assert doc["witness"]["matrix"] == [["00", "01"]]


def test_fusion_check_needs_a_subtree_level_per_coloring(tmp_path, capsys):
    code, doc, _ = run_json(["fusion", "check", write_doc(tmp_path, "in.json", {
        "spaces": TWO_SPACES, "colorings": [LEVEL_PARITY] * 2,
        "certificate": {"reports": [SUBTREE] * 2,
                        "tables": [{"0,0": 0}] * 2}})], capsys)
    assert code == 1
    assert doc == {"valid": False,
                   "violations": ["2 colorings need subtree height 3, got 2"]}


@pytest.mark.parametrize("steps", [462, 472])
def test_dim_induct_capped_while_reassembling_its_cones(tmp_path, capsys, steps):
    # the run takes 473 steps; its last eleven go to the cone reassembly
    code, doc, _ = run_json(["dim-induct", write_doc(tmp_path, "in.json", DIM_INDUCT),
                             "--max-steps", str(steps)], capsys)
    assert code == 3
    assert doc["capped"] is True
    assert doc["failure"] == "budget exhausted during cone reassembly"
