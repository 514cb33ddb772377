"""Replay every fixture manifest twice and demand byte-identical output.

Each manifest also freezes its answer under ``"expected"``: the exit code
and the sha256 of stdout. A changed answer fails here, not only a
run-to-run difference.
"""

import hashlib
import json
import pathlib

from hl_lab.cli import dispatch

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def replay(manifest, tmp_path, capsys):
    argv = list(manifest["argv"])
    if manifest["input"] is not None:
        path = tmp_path / "input.json"
        path.write_text(json.dumps(manifest["input"]), encoding="utf-8")
        argv = [a.replace("{input}", str(path)) for a in argv]
    code = dispatch(argv)
    captured = capsys.readouterr()
    return code, captured.out.encode(), captured.err.encode()


def test_fixture_corpus_is_nonempty():
    assert len(list(FIXTURES.glob("*.json"))) >= 9


def test_every_fixture_reproduces_byte_identical_output(tmp_path, capsys):
    for path in sorted(FIXTURES.glob("*.json")):
        manifest = json.loads(path.read_text(encoding="utf-8"))
        first = replay(manifest, tmp_path, capsys)
        second = replay(manifest, tmp_path, capsys)
        assert first == second, path.name
        code, out, err = first
        assert out.endswith(b"\n") and err.endswith(b"\n"), path.name
        json.loads(out)  # stdout stays a single JSON document
        expected = manifest["expected"]
        assert code == expected["exit"], path.name
        assert hashlib.sha256(out).hexdigest() == expected["stdout_sha256"], path.name


# documents for the readers no fixture reaches: conditions, a fusion
# certificate, and a lex-sort node list
UNFIXTURED = [
    (["cond", "glb", "{input}"],
     {"conditions": [{"support": [0], "assign": {"0": ["0"]}},
                     {"support": [0, 1], "assign": {"0": ["01"], "1": ["1"]}}]}),
    (["cond", "copy", "{input}"],
     {"condition": {"support": [0, 2], "assign": {"0": ["0"], "2": ["11"]}},
      "w0": [0, 2, 5], "w1": [1, 3, 7]}),
    (["cond", "restrict", "{input}"],
     {"condition": {"support": [0, 2], "assign": {"0": ["0"], "2": ["11"]}},
      "indices": [2]}),
    (["fusion", "check", "{input}"],
     {"spaces": [{"branching": 2, "height": 3}],
      "colorings": [{"kind": "named", "name": "level-parity", "params": {}}],
      "certificate": {"reports": [{"level_set": [0, 1], "nodes": ["", "0", "1"]}],
                      "tables": [{"0": 1, "1": 1}]}}),
    (["lex-sort", "{input}"], {"nodes": ["0", "", "1"]}),
]
MUTANTS = ([], "x", None, {}, 1.5, -1)


def _value_paths(value, path=()):
    """The path of every value inside ``value``, the root's included."""
    yield path
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, inner in items:
        yield from _value_paths(inner, path + (key,))


def _replaced(value, path, new):
    if not path:
        return new
    value = json.loads(json.dumps(value))
    parent = value
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = new
    return value


def test_every_mutated_input_gets_one_document_and_a_manifest(tmp_path, capsys):
    # no shape of input lets an exception escape ``dispatch``
    cases = [(m["argv"], m["input"])
             for m in (json.loads(p.read_text(encoding="utf-8"))
                       for p in sorted(FIXTURES.glob("*.json")))
             if m["input"] is not None] + UNFIXTURED
    runs = 0
    for argv, doc in cases:
        for path in _value_paths(doc):
            for new in MUTANTS:
                mutant = {"argv": argv, "input": _replaced(doc, path, new)}
                code, out, err = replay(mutant, tmp_path, capsys)
                json.loads(out)
                manifest = json.loads(err.splitlines()[-1])
                assert manifest["outcome"] == code, (argv, path, new)
                runs += 1
    assert runs > 1000
