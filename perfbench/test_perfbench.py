"""The benchmark's own checks, at tiny sizes.

Run with ``python3 -m pytest -q perfbench/test_perfbench.py``.
"""

import json
import sys

import run
import verify
import workloads
from workloads import Doc

sys.path.insert(0, str(run.SRC))

PARITY = {"space": {"branching": 2, "height": 4},
          "coloring": {"kind": "named", "name": "level-parity",
                       "params": {"arity": 1}}}
SDHL = Doc("tiny-sdhl#0", "sdhl", ("sdhl-search", "-", "--max-steps", "1000"),
           PARITY, "tiny found witness")
FUSE = Doc("tiny-fuse#0", "fuse", ("fusion", "run", "-", "--max-steps", "100000"),
           {"spaces": [{"branching": 2, "height": 5}] * 2,
            "colorings": [{"kind": "named", "name": "seeded-random",
                           "params": {"colors": 2, "seed": 3}}], "h": 2},
           "tiny tail cone")


def frozen(doc, result):
    out = json.loads(result["stdout"])
    return {"exit": result["code"],
            "answer": verify.answer_of(doc.kind, result["code"], out),
            "sha256": verify.sha256(result["stdout"])}


def test_seed_answer_passes():
    result = run.run_doc(SDHL)
    settled, problems = verify.judge(SDHL, result["code"], result["raised"],
                                     result["stdout"], frozen(SDHL, result))
    assert result["code"] == 0
    assert settled and problems == []


def test_corrupted_certificate_fails():
    result = run.run_doc(SDHL)
    expected = frozen(SDHL, result)
    out = json.loads(result["stdout"])
    out["witness"]["color"] = 1 - out["witness"]["color"]
    settled, problems = verify.judge(SDHL, 0, None, json.dumps(out), expected)
    assert not settled
    assert any("check_sdhl_witness" in p for p in problems)


def test_corrupted_tail_cone_fails():
    result = run.run_doc(FUSE)
    assert result["code"] == 0
    expected = frozen(FUSE, result)
    out = json.loads(result["stdout"])
    table = out["certificate"]["tables"][0]
    key = sorted(table)[0]
    table[key] = 1 - table[key]
    settled, problems = verify.judge(FUSE, 0, None, json.dumps(out), expected)
    assert any("check_tail_cone" in p for p in problems)


def test_flipped_answer_fails():
    result = run.run_doc(SDHL)
    expected = frozen(SDHL, result)
    expected["answer"] = not expected["answer"]
    settled, problems = verify.judge(SDHL, result["code"], None, result["stdout"],
                                     expected)
    assert not settled
    assert any("contradicts" in p for p in problems)


def test_cap_rules():
    capped = {"exit": 3, "answer": None, "sha256": ""}
    settled_at_seed = {"exit": 0, "answer": True, "sha256": ""}
    assert verify.judge(SDHL, 3, None, "{}", capped) == (False, [])
    assert verify.judge(SDHL, 3, None, "{}", settled_at_seed)[1]
    assert verify.judge(SDHL, 2, None, "{}", settled_at_seed)[1]
    assert verify.judge(SDHL, None, "Traceback\nValueError: x\n", "", capped)[1]


def test_tracing_does_not_change_outputs():
    for doc in (SDHL, FUSE):
        plain = run.run_doc(doc)
        traced = run.run_doc(doc, trace=True)
        assert traced["stdout"] == plain["stdout"]
        assert traced["code"] == plain["code"]
        layers = run.layer_metrics([traced["trace"]])
        assert layers["cli.self_s"] > 0
        assert layers["search.calls"] > 0 and layers["coloring.evals"] > 0
        assert set(layers) | {"trace.overhead_s"} == set(run.PER_LAYER)


def test_same_seed_same_documents():
    for workload in workloads.WORKLOADS:
        first = workloads.generate(workload, 7)
        again = workloads.generate(workload, 7)
        assert [d.stdin_bytes() for d in first] == [d.stdin_bytes() for d in again]
        assert [d.argv for d in first] == [d.argv for d in again]


def test_every_variant_has_a_frozen_answer():
    expected = run.load_expected()
    for workload in workloads.WORKLOADS:
        for doc in workloads.all_docs(workload):
            assert doc.id in expected, doc.id
            if doc.kind in ("sdhl", "fuse", "polarized", "almost_all", "dim_induct"):
                assert "--max-steps" in doc.argv, doc.id
