"""Correctness of one answered document.

A document fails when ``dispatch`` raises or exits 2; when it exits 3
although the seed code settled it; when it contradicts the complete
answer frozen at the seed (found or not, valid or not, an FHL value);
or when an independent checker rejects its certificate.  Exit 3 on a
document the seed also capped is not a failure, and neither is settling
such a document, as long as its certificate checks.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from fractions import Fraction


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def answer_of(kind, code, out):
    """The complete answer a document gives, in a form frozen at the seed."""
    if code == 3:
        return None
    if kind == "sdhl":
        return out["found"]
    if kind in ("fuse", "polarized", "almost_all", "dim_induct"):
        return out["success"]
    if kind == "fhl":
        return [out["n"], out["lower_bound"]]
    return code == 0


def judge(doc, code, raised, stdout, expected):
    """``(settled, problems)`` for one run; ``problems`` empty means it passed."""
    if raised is not None:
        return False, [f"dispatch raised: {raised.strip().splitlines()[-1]}"]
    if code not in (0, 1, 3):
        return False, [f"exit {code}"]
    if expected is None:
        return False, ["no answer frozen for this document"]
    if code == 3:
        if expected["exit"] != 3:
            return False, [f"exit 3 where the seed settled it (exit {expected['exit']})"]
        return False, []
    try:
        out = json.loads(stdout)
    except json.JSONDecodeError as bad:
        return False, [f"stdout is not JSON: {bad}"]
    answer = answer_of(doc.kind, code, out)
    if expected["exit"] != 3 and answer != expected["answer"]:
        return False, [f"answer {answer!r} contradicts the seed's {expected['answer']!r}"]
    problems = CHECKERS.get(doc.kind, _no_certificate)(doc.input, doc.argv, out)
    return not problems, problems


# ---------------------------------------------------------------------------
# independent checkers, one per document kind


def _spaces(doc):
    from hl_lab.trees import TreeSpace

    if "spaces" in doc:
        return tuple(TreeSpace.from_json(s) for s in doc["spaces"])
    return (TreeSpace.from_json(doc["space"]),)


def _coloring(doc, spaces):
    from hl_lab.witness import coloring_from_json

    return coloring_from_json(doc["coloring"], spaces)


def _invalid(result, what):
    if result.valid:
        return []
    return [f"{what} rejected: {result.violations[0]}"]


def _no_certificate(doc, argv, out):
    return []


def _sdhl(doc, argv, out):
    from hl_lab.witness import SDHLWitness, check_sdhl_witness

    if not out["found"]:
        return []
    spaces = _spaces(doc)
    witness = SDHLWitness.from_json(out["witness"])
    return _invalid(check_sdhl_witness(witness, _coloring(doc, spaces)),
                    "check_sdhl_witness")


def _fuse(doc, argv, out):
    from hl_lab.tailcone import ColoringFamily, TailConeCertificate, check_tail_cone
    from hl_lab.witness import coloring_from_json

    if not out["success"]:
        return []
    spaces = _spaces(doc)
    family = ColoringFamily([coloring_from_json(c, spaces) for c in doc["colorings"]],
                            spaces=spaces)
    certificate = TailConeCertificate.from_json(out["certificate"], spaces)
    return _invalid(check_tail_cone(certificate, family), "check_tail_cone")


def _reports(out, spaces):
    from hl_lab.subtrees import SubtreeReport

    return [SubtreeReport.from_json(r, s) for r, s in zip(out["reports"], spaces)]


def _polarized(doc, argv, out):
    from hl_lab.polarized import validate_splitting_tree

    if not out["success"]:
        return []
    spaces = _spaces(doc)
    coloring = _coloring(doc, spaces)
    problems = []
    for report in _reports(out, spaces):
        problems += _invalid(validate_splitting_tree(report, int(doc["depth"])),
                             "validate_splitting_tree")
    realized = sorted({coloring.evaluate(t) for t in
                       itertools.product(*(r["nodes"] for r in out["reports"]))})
    if realized != out["realized"]:
        problems.append(f"realized colors {out['realized']} but the trees give {realized}")
    if len(realized) > math.factorial(coloring.arity):
        problems.append(f"{len(realized)} colors realized, more than {coloring.arity}!")
    return problems


def _almost_all(doc, argv, out):
    """Re-measure every pattern's exception fraction over the output subtrees."""
    from hl_lab.subtrees import validate_strong_subtree

    if not out["success"]:
        return []
    spaces = _spaces(doc)
    coloring = _coloring(doc, spaces)
    reports = _reports(out, spaces)
    problems = []
    for report in reports:
        problems += _invalid(validate_strong_subtree(report), "validate_strong_subtree")
    epsilon = Fraction(out["epsilon"])
    colors = {tuple(p["pattern"]): p["color"] for p in out["patterns"]}
    for pattern in itertools.permutations(range(coloring.arity)):
        total = bad = 0
        for tup in itertools.product(*(r.nodes for r in reports)):
            heights = [len(tup[k]) for k in pattern]
            if all(a < b for a, b in zip(heights, heights[1:])):
                total += 1
                bad += coloring.evaluate(tup) != colors.get(pattern)
        if total and Fraction(bad, total) > epsilon:
            problems.append(f"pattern {pattern}: {bad}/{total} exceptions exceed {epsilon}")
    return problems


def _dim_induct(doc, argv, out):
    from hl_lab.witness import SomewhereDenseWitness, check_somewhere_dense_witness

    if not out["success"]:
        return []
    spaces = _spaces(doc)
    witness = SomewhereDenseWitness.from_json(out["witness"])
    return _invalid(check_somewhere_dense_witness(witness, _coloring(doc, spaces),
                                                  _reports(out, spaces)),
                    "check_somewhere_dense_witness")


def _fhl(doc, argv, out):
    """A counterexample coloring must admit no witness, by ``sdhl_search``."""
    from hl_lab.trees import TreeSpace
    from hl_lab.witness import coloring_from_json, sdhl_search

    if out["counterexample"] is None:
        return []
    flags = dict(zip(argv[1::2], argv[2::2]))
    d, b, r = int(flags["--d"]), int(flags["--b"]), int(flags["--r"])
    spaces = [TreeSpace.uniform(b, out["counterexample_at"])] * d
    coloring = coloring_from_json(out["counterexample"], spaces)
    if coloring.colors > r:
        return [f"counterexample uses {coloring.colors} colors, more than {r}"]
    if sdhl_search(coloring) is not None:
        return ["counterexample admits a witness"]
    return []


def _glb(doc, argv, out):
    merged: dict = {}
    for condition in doc["conditions"]:
        for index, nodes in condition["assign"].items():
            mine = merged.setdefault(int(index), list(nodes))
            for k, node in enumerate(nodes):
                if len(node) > len(mine[k]):
                    mine[k] = node
    want = {"support": sorted(merged),
            "assign": {str(i): merged[i] for i in sorted(merged)}}
    return [] if out == want else ["glb differs from the coordinatewise longest nodes"]


def _delta(doc, argv, out):
    family, target = doc["family"], doc["target"]
    if not out["success"]:
        return []
    indices = out["indices"]
    members = [set(family[i]) for i in indices]
    root = set(out["root"])
    problems = []
    if len(set(indices)) != target:
        problems.append(f"{len(set(indices))} members, target {target}")
    if [sorted(m) for m in members] != out["members"]:
        problems.append("members are not the family's sets at the given indices")
    if any(a & b != root for a, b in itertools.combinations(members, 2)):
        problems.append("pairwise intersections differ from the root")
    return problems


CHECKERS = {"sdhl": _sdhl, "fuse": _fuse, "polarized": _polarized,
            "almost_all": _almost_all, "dim_induct": _dim_induct, "fhl": _fhl,
            "glb": _glb, "delta": _delta}
