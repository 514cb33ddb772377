"""Freeze the seed code's answers for every document variant.

``python3 perfbench/freeze.py`` answers each variant of every template
once, checks that it has the outcome its template intends (accepted
inputs exit 0, rejected ones exit 1, certificates pass their checkers),
and writes exit code, complete answer and stdout digest to
``expected.json``.  Run it only on the commit that defines the baseline.

``python3 perfbench/freeze.py --vet TEMPLATE --first 1 --candidates 24``
instead prints outcome and work (search steps plus coloring evaluations)
for a range of coloring seeds of one seeded template, to choose its pool.
"""

from __future__ import annotations

import argparse
import json
import sys

import run
import verify
import workloads

INTENDED_EXIT = {"accept": 0, "reject": 1, "glb": 0, "delta": 0}


def freeze() -> int:
    expected, bad = {}, []
    for workload in workloads.WORKLOADS:
        for doc in workloads.all_docs(workload):
            result = run.run_doc(doc)
            code, stdout = result["code"], result["stdout"]
            if result["raised"] is not None or code not in (0, 1, 3):
                bad.append(f"{doc.id}: exit {code} {result['raised'] or ''}")
                continue
            out = json.loads(stdout)
            entry = {"exit": code, "answer": verify.answer_of(doc.kind, code, out),
                     "sha256": verify.sha256(stdout)}
            intended = INTENDED_EXIT.get(doc.kind)
            if intended is not None and code != intended:
                bad.append(f"{doc.id}: exit {code}, intended {intended}")
            settled, problems = verify.judge(doc, code, None, stdout, entry)
            bad += [f"{doc.id}: {p}" for p in problems]
            expected[doc.id] = entry
            print(f"{doc.id:24s} exit {code} answer {entry['answer']!r} "
                  f"{result['wall_s']:.3f} s", flush=True)
    for line in bad:
        print(f"BAD {line}", file=sys.stderr)
    if bad:
        return 1
    with open(run.HERE / "expected.json", "w", encoding="utf-8") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


def vet(template, first, candidates) -> int:
    workload = next(w for w, templates in workloads.WORKLOADS.items()
                    if any(t[0] == template for t in templates))
    workloads.POOLS[template] = list(range(first, first + candidates))
    for v in range(candidates):
        doc = workloads.build_doc(workload, template, v)
        result = run.run_doc(doc, trace=True)
        layers = run.layer_metrics([result["trace"]])
        work = layers["search.steps"] + layers["coloring.evals"]
        answer = None
        if result["code"] in (0, 1, 3):
            answer = verify.answer_of(doc.kind, result["code"], json.loads(result["stdout"]))
        print(f"seed {first + v:3d} exit {result['code']} answer {answer!r} "
              f"work {work} wall {result['wall_s']:.3f} s", flush=True)
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--vet", metavar="TEMPLATE")
    parser.add_argument("--first", type=int, default=1)
    parser.add_argument("--candidates", type=int, default=24)
    args = parser.parse_args()
    sys.path.insert(0, str(run.SRC))
    if args.vet:
        return vet(args.vet, args.first, args.candidates)
    return freeze()


if __name__ == "__main__":
    sys.exit(main())
