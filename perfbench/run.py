"""hl-lab benchmark: answer generated documents through ``hl_lab.cli.dispatch``.

Usage::

    python3 perfbench/run.py --workload staged --seed 1 --seconds 40 --trace 0

Each document runs in a fresh interpreter, as every ``hl-lab`` call does,
so cold caches are paid each time.  Load is a closed loop from this one
process: one document at a time, the next only after the previous one
answered.  Whole passes over the workload's documents repeat while the
next pass still fits in ``--seconds``; at least one pass always runs.

With ``--trace 0`` the last stdout line carries the end-to-end metrics:

- ``wall_s``: seconds to answer every document once at the reference
  host speed: the sum over documents of the median of each ``dispatch``
  time (JSON decode, handler, JSON encode and manifest; import excluded)
  scaled by ``REFERENCE_S`` over the mean time the same interpreter took
  for ``child.reference_s`` right before and right after that call;
- ``setup_s``: median seconds from spawning an interpreter to
  ``hl_lab.cli`` imported and ready, each scaled the same way by the
  ``child.reference_s`` timing that follows it;
- ``peak_rss_mb``: the largest resident set of any document's interpreter;
- ``docs_settled``: documents answered with exit 0 or 1 that pass the
  correctness check (``verify.py``).

The shared host's speed drifts by a third within seconds.  Scaling takes
that drift out of both timings and leaves the program's own cost in them,
since the reference loop runs no hl-lab code.  The unscaled figures are
printed as ``wall_unscaled_s`` and ``setup_unscaled_s``.

With ``--trace 1`` every pass runs each document untraced and then traced
(``tracer.py``), asserts that both stdouts are byte-identical, and reports
the per-layer metrics plus the tracing overhead (traced minus untraced
``wall_s``).  Spans and leaf aggregates go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
OUT = HERE / "out"
DOC_TIMEOUT_S = 60
# Median of child.reference_s on the reference box (2-vCPU Xeon at 2.1 GHz,
# Python 3.11.7); wall_s and setup_s read seconds at that speed.
REFERENCE_S = 0.020

sys.path.insert(0, str(HERE))

import verify  # noqa: E402
import workloads  # noqa: E402


class HarnessError(Exception):
    """The benchmark itself cannot run here; no result is printed."""


def run_doc(doc, trace=False):
    """Answer ``doc`` in a fresh interpreter; returns the child's result dict."""
    request = {"argv": list(doc.argv), "stdin": doc.stdin_bytes().decode(),
               "trace": trace}
    start = time.perf_counter()
    child = subprocess.Popen([sys.executable, "-I", str(CHILD), str(SRC)],
                             stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, cwd=ROOT)
    try:
        ready = child.stdout.readline()
        setup = time.perf_counter() - start
        if ready != b"ready\n":
            _, err = child.communicate(timeout=DOC_TIMEOUT_S)
            raise HarnessError(f"interpreter never became ready: {err.decode()[-2000:]}")
        out, err = child.communicate(json.dumps(request).encode() + b"\n",
                                     timeout=DOC_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.communicate()
        return {"code": None, "raised": f"no answer within {DOC_TIMEOUT_S} s\n",
                "wall_s": float(DOC_TIMEOUT_S), "reference_s": [REFERENCE_S] * 2,
                "stdout": "", "rss_kb": 0,
                "trace": None, "setup_s": setup}
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
    if child.returncode != 0 or not out:
        raise HarnessError(f"document runner failed: {err.decode()[-2000:]}")
    result = json.loads(out)
    result["setup_s"] = setup
    return result


def tail_percentile(values):
    """Highest percentile with at least ten samples beyond it, or None."""
    if len(values) <= 10:
        return None
    ordered = sorted(values)
    index = len(ordered) - 11
    return 100.0 * (index + 1) / len(ordered), ordered[index]


def scaled_wall(result):
    """A document's ``dispatch`` time at the reference host speed."""
    return result["wall_s"] * REFERENCE_S / statistics.mean(result["reference_s"])


def scaled_setup(result):
    """A document's set-up time at the reference host speed."""
    return result["setup_s"] * REFERENCE_S / result["reference_s"][0]


class Run:
    """Samples and verdicts of one benchmark run."""

    def __init__(self, docs, expected):
        self.docs = docs
        self.expected = expected
        self.samples = {d.id: [] for d in docs}
        self.traced = {d.id: [] for d in docs}
        self.rss_kb = 0
        self.attempted = 0
        self.failed = 0
        self.verdicts: dict = {}
        self.unsettled: set = set()
        self.problems: list[str] = []
        self.outputs_changed: set = set()
        self.first_stdout: dict = {}

    def record(self, doc, result, traced):
        self.attempted += 1
        stdout = result["stdout"]
        digest = verify.sha256(stdout)
        key = (doc.id, digest, result["code"], result["raised"])
        if key not in self.verdicts:
            self.verdicts[key] = verify.judge(doc, result["code"], result["raised"],
                                              stdout, self.expected.get(doc.id))
        settled, problems = self.verdicts[key]
        first = self.first_stdout.setdefault(doc.id, digest)
        if first != digest:
            problems = problems + ["stdout differs between runs" +
                                   (" (traced vs untraced)" if traced else "")]
        if problems:
            self.failed += 1
            self.problems += [f"{doc.id}: {p}" for p in problems]
        if problems or not settled:
            self.unsettled.add(doc.id)
        expected = self.expected.get(doc.id)
        if expected is not None and expected["sha256"] != digest:
            self.outputs_changed.add(doc.id)
        if traced:
            self.traced[doc.id].append(result)
        else:
            self.samples[doc.id].append(result)
            self.rss_kb = max(self.rss_kb, result["rss_kb"])

    def setups(self, scaled=True):
        return [scaled_setup(r) if scaled else r["setup_s"]
                for d in self.docs for r in self.samples[d.id]]

    def wall(self, samples, scaled=True):
        return sum(statistics.median(scaled_wall(r) if scaled else r["wall_s"]
                                     for r in samples[d.id])
                   for d in self.docs)

    def end_to_end(self):
        return {"wall_s": (self.wall(self.samples), "s"),
                "setup_s": (statistics.median(self.setups()), "s"),
                "peak_rss_mb": (self.rss_kb / 1024.0, "MB"),
                "docs_settled": (sum(d.id not in self.unsettled for d in self.docs),
                                 "count")}


# ---------------------------------------------------------------------------
# per-layer metrics from traced runs

SELF_SPANS = ["cli.dispatch", "search", "witness.search", "witness.check",
              "witness.fhl", "tailcone.fuse", "tailcone.induct", "tailcone.grow",
              "tailcone.check", "polarized.search", "polarized.almost_all",
              "polarized.verify_lb", "subtrees.validate", "subtrees.trim",
              "conditions.glb", "conditions.wmap", "conditions.delta"]
PER_LAYER = (
    ["cli.self_s", "search.calls", "search.steps", "search.self_s",
     "search.steps_per_s", "search.found_ratio", "predicate.calls",
     "predicate.self_s", "predicate.accept_ratio", "coloring.evals",
     "coloring.self_s", "coloring.distinct_ratio", "trees.calls", "trees.self_s",
     "views.calls", "views.self_s", "conditions.wmap_image.calls",
     "witness.fhl.colorings_checked"]
    + [f"{name}.self_s" for name in SELF_SPANS[2:]]
    + ["trace.overhead_s"])


def layer_metrics(traces):
    """Per-layer metrics summed over the traces of one pass."""
    span_self: dict = {}
    span_total: dict = {}
    span_calls: dict = {}
    leaf_calls: dict = {}
    leaf_self: dict = {}
    counts: dict = {}
    for trace in traces:
        for span in trace["spans"]:
            name = span["name"]
            span_self[name] = span_self.get(name, 0.0) + span["self"]
            span_total[name] = span_total.get(name, 0.0) + span["duration"]
            span_calls[name] = span_calls.get(name, 0) + 1
        for layer, _parent, calls, _total, self_s in trace["leaves"]:
            leaf_calls[layer] = leaf_calls.get(layer, 0) + calls
            leaf_self[layer] = leaf_self.get(layer, 0.0) + self_s
        for name, value in trace["counts"].items():
            counts[name] = counts.get(name, 0) + value

    def ratio(num, den):
        return num / den if den else 0.0

    m = {"cli.self_s": span_self.get("cli.dispatch", 0.0),
         "search.calls": span_calls.get("search", 0),
         "search.steps": counts.get("search.steps", 0),
         "search.self_s": span_self.get("search", 0.0),
         "search.steps_per_s": ratio(counts.get("search.steps", 0),
                                     span_total.get("search", 0.0)),
         "search.found_ratio": ratio(counts.get("search.found", 0),
                                     span_calls.get("search", 0)),
         "predicate.calls": leaf_calls.get("predicate", 0),
         "predicate.self_s": leaf_self.get("predicate", 0.0),
         "predicate.accept_ratio": ratio(counts.get("predicate.accepts", 0),
                                         leaf_calls.get("predicate", 0)),
         "coloring.evals": leaf_calls.get("coloring", 0),
         "coloring.self_s": leaf_self.get("coloring", 0.0),
         "coloring.distinct_ratio": ratio(counts.get("coloring.distinct", 0),
                                          leaf_calls.get("coloring", 0)),
         "trees.calls": leaf_calls.get("trees", 0),
         "trees.self_s": leaf_self.get("trees", 0.0),
         "views.calls": leaf_calls.get("views", 0),
         "views.self_s": leaf_self.get("views", 0.0),
         "conditions.wmap_image.calls": leaf_calls.get("conditions.wmap_image", 0),
         "witness.fhl.colorings_checked": counts.get("witness.fhl.colorings_checked", 0)}
    for name in SELF_SPANS[2:]:
        m[f"{name}.self_s"] = span_self.get(name, 0.0)
    return m


# ---------------------------------------------------------------------------
# reporting


def unit_of(name):
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def load_expected():
    path = HERE / "expected.json"
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="hl-lab CLI benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hl_lab" / "cli.py").is_file():
        print(f"no hl-lab sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    expected = load_expected()
    docs = workloads.generate(args.workload, args.seed)
    run = Run(docs, expected)
    trace = bool(args.trace)
    traces = []  # one list of traces per pass

    start = time.perf_counter()
    passes = 0
    try:
        while True:
            pass_start = time.perf_counter()
            pass_traces = []
            for doc in docs:
                run.record(doc, run_doc(doc), traced=False)
                if trace:
                    result = run_doc(doc, trace=True)
                    run.record(doc, result, traced=True)
                    pass_traces.append(result["trace"])
            passes += 1
            if trace:
                traces.append(pass_traces)
            took = time.perf_counter() - pass_start
            if time.perf_counter() - start + took > args.seconds:
                break
    except HarnessError as bad:
        print(f"benchmark harness failed: {bad}", file=sys.stderr)
        return 1
    elapsed = time.perf_counter() - start

    print(f"workload {args.workload} seed {args.seed}: {len(docs)} documents, "
          f"{passes} passes in {elapsed:.1f} s; closed loop, one client, "
          f"one fresh interpreter per document{', traced' if trace else ''}")
    for doc in docs:
        times = [r["wall_s"] for r in run.samples[doc.id]]
        scaled = [scaled_wall(r) for r in run.samples[doc.id]]
        verdict = "settled" if doc.id not in run.unsettled else "not settled"
        print(f"  {doc.id:24s} exit {run.samples[doc.id][0]['code']}  {verdict:11s} "
              f"median {statistics.median(times):.4f} s, {statistics.median(scaled):.4f} s "
              f"scaled (n={len(times)})  # {doc.why}")
    for problem in run.problems[:20]:
        print(f"  FAILED {problem}")

    e2e = run.end_to_end()
    def pass_sums(value):
        return [sum(value(run.samples[d.id][i]) for d in docs) for i in range(passes)]

    reference = [t for d in docs for r in run.samples[d.id] for t in r["reference_s"]]
    print(f"{'reference_s':16s} {statistics.median(reference):.5f} s  median of "
          f"child.reference_s; timings below are scaled to {REFERENCE_S} s")
    for name, value, unit, samples in (
            ("wall_s", *e2e["wall_s"], pass_sums(scaled_wall)),
            ("wall_unscaled_s", run.wall(run.samples, scaled=False), "s",
             pass_sums(lambda r: r["wall_s"])),
            ("setup_s", *e2e["setup_s"], run.setups()),
            ("setup_unscaled_s", statistics.median(run.setups(scaled=False)), "s",
             run.setups(scaled=False))):
        tail = tail_percentile(samples)
        tail_text = (f"p{tail[0]:.0f} {tail[1]:.4f} {unit}" if tail
                     else "no percentile has ten samples beyond it")
        print(f"{name:16s} {value:.4f} {unit}  median; {tail_text}; n={len(samples)}")
    print(f"{'peak_rss_mb':16s} {e2e['peak_rss_mb'][0]:.1f} MB")
    print(f"{'docs_settled':16s} {e2e['docs_settled'][0]} of {len(docs)} count")
    print(f"{'failed_ratio':16s} {run.failed / run.attempted:.4f} ratio "
          f"({run.failed} failed of {run.attempted} runs)")
    print(f"{'outputs_changed':16s} {len(run.outputs_changed)} count "
          f"(stdout differs from the seed digest; informational)")

    if trace:
        per_pass = [layer_metrics(t) for t in traces]
        layers = {name: statistics.median(p[name] for p in per_pass)
                  for name in PER_LAYER if name != "trace.overhead_s"}
        layers["trace.overhead_s"] = run.wall(run.traced) - e2e["wall_s"][0]
        for name in PER_LAYER:
            print(f"  {name:32s} {layers[name]:.6g} {unit_of(name)}")
        OUT.mkdir(exist_ok=True)
        dump = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        with open(dump, "w", encoding="utf-8") as handle:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "documents": [d.id for d in docs], "passes": traces}, handle)
        print(f"trace written to {dump.relative_to(ROOT)}")
        metrics = {name: {"value": layers[name], "unit": unit_of(name)}
                   for name in PER_LAYER}
    else:
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in e2e.items()}

    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
