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
