"""Command-line interface: exit codes, schemas, manifests, rendering."""

import hashlib
import json
from importlib import resources

import jsonschema
import pytest

from hl_lab.cli import dispatch, render_table


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
    "len(().__class__.__base__.__subclasses__())", "9**9**9"])
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
    # --seed stays only on fhl; --max-steps only on the staged searches
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
