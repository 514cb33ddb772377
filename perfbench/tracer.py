"""Per-layer tracing of one CLI run, installed from outside the library.

``install`` rebinds library functions and methods to timing wrappers.
Coarse calls (``dispatch``, entry points, each search) become spans kept
in memory with their parent ids.  Hot leaves (``Coloring.evaluate``, the
consistency predicates, ``TreeSpace`` and view queries, ``WMap.image``)
are aggregated as a count plus total and self time per (layer, parent
span), so that millions of calls stay bounded.  Self time is a call's
duration minus the time its traced children cover.  Names that a later
version of the library no longer has are skipped, and their metrics
read zero.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

# span name -> [(module, function name)]; each function is rebound in every
# library module that imported it, so internal calls are traced too.
SPANS = {
    "cli.dispatch": [("cli", "dispatch")],
    "witness.search": [("witness", "sdhl_search"), ("witness", "dshl_search")],
    "witness.check": [("witness", "check_sdhl_witness"),
                      ("witness", "check_dshl_witness"),
                      ("witness", "check_hl_strong_subtree"),
                      ("witness", "check_somewhere_dense_witness")],
    "witness.fhl": [("witness", "finite_hl_number")],
    "tailcone.fuse": [("tailcone", "fuse")],
    "tailcone.induct": [("tailcone", "dimension_induction"),
                        ("tailcone", "apply_tailcone_partial")],
    "tailcone.grow": [("tailcone", "grow_shared_subtrees")],
    "tailcone.check": [("tailcone", "check_tail_cone"),
                       ("tailcone", "check_partial_tailcone")],
    "polarized.search": [("polarized", "polarized_search")],
    "polarized.almost_all": [("polarized", "almost_all_homogenize")],
    "polarized.verify_lb": [("polarized", "verify_lower_bound")],
    "subtrees.validate": [("subtrees", "validate_strong_subtree")],
    "subtrees.trim": [("subtrees", "trim")],
    "conditions.glb": [("conditions", "glb")],
    "conditions.wmap": [("conditions", "build_w_map"),
                        ("conditions", "verify_wmap_laws")],
    "conditions.delta": [("conditions", "delta_system")],
}

# leaf layer -> [(module, class, method)]
LEAVES = {
    "coloring": [("witness", "Coloring", "evaluate"),
                 ("witness", "Coloring", "__call__")],
    "trees": [("trees", "TreeSpace", m)
              for m in ("level", "extensions", "successors", "contains")],
    "views": [("views", cls, m) for cls in ("SpaceView", "ReportView")
              for m in ("above", "level", "restrict", "level_of")],
    "conditions.wmap_image": [("conditions", "WMap", "image")],
}

# the staged searches import this name; each import site is rebound
SEARCH = ("search", "prefiltered_assignment", ("witness", "tailcone", "polarized"))

MODULES = ("cli", "search", "trees", "views", "subtrees", "witness", "tailcone",
           "polarized", "conditions")


class Tracer:
    """Span and leaf records of one process; see the module docstring."""

    def __init__(self):
        self.clock = time.perf_counter
        self.origin = self.clock()
        self.spans: list[dict] = []
        self.open: list[dict] = [{"id": None, "name": "root"}]
        self.covered: list[float] = [0.0]
        self.leaves: dict = {}
        self.counts = {"search.steps": 0, "search.found": 0,
                       "predicate.accepts": 0, "witness.fhl.colorings_checked": 0}
        self.distinct: set = set()

    # -- wrappers -----------------------------------------------------

    def span(self, name, fn, on_exit=None):
        tracer = self

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            record = {"id": len(tracer.spans), "parent": tracer.open[-1]["id"],
                      "name": name}
            tracer.spans.append(record)
            tracer.open.append(record)
            tracer.covered.append(0.0)
            start = tracer.clock()
            outcome = None
            try:
                outcome = fn(*args, **kwargs)
                return outcome
            except BaseException as exc:
                outcome = exc
                raise
            finally:
                duration = tracer.clock() - start
                child = tracer.covered.pop()
                tracer.open.pop()
                tracer.covered[-1] += duration
                record["start"] = start - tracer.origin
                record["duration"] = duration
                record["self"] = duration - child
                if on_exit is not None:
                    on_exit(outcome)

        return wrapped

    def leaf(self, layer, fn, note=None):
        tracer = self

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            tracer.covered.append(0.0)
            start = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = tracer.clock() - start
                child = tracer.covered.pop()
                tracer.covered[-1] += duration
                key = (layer, tracer.open[-1]["name"])
                agg = tracer.leaves.get(key)
                if agg is None:
                    agg = tracer.leaves[key] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += duration
                agg[2] += duration - child
            if note is not None:
                note(args, result)
            return result

        return wrapped

    # -- output -------------------------------------------------------

    def dump(self) -> dict:
        return {"spans": self.spans,
                "leaves": [[layer, parent, *agg]
                           for (layer, parent), agg in sorted(self.leaves.items())],
                "counts": dict(self.counts, **{"coloring.distinct": len(self.distinct)})}


def _rebind(lib, original, wrapped):
    for module_name in MODULES:
        module = getattr(lib, module_name, None)
        if module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapped)


def _arg(fn, name):
    """Position of parameter ``name`` in ``fn``'s signature, or None."""
    try:
        params = list(inspect.signature(fn).parameters)
    except (TypeError, ValueError):
        return None
    return params.index(name) if name in params else None


def _pick(args, kwargs, name, index):
    if name in kwargs:
        return kwargs[name]
    if index is not None and index < len(args):
        return args[index]
    return None


def install(tracer: Tracer):
    """Rebind the library's functions to ``tracer``'s wrappers."""

    lib = importlib.import_module("hl_lab")
    for module_name in MODULES:
        importlib.import_module(f"hl_lab.{module_name}")

    for name, targets in SPANS.items():
        for module_name, fn_name in targets:
            original = getattr(getattr(lib, module_name), fn_name, None)
            if original is None:
                continue
            on_exit = None
            if name == "witness.fhl":
                on_exit = _fhl_exit(tracer)
            _rebind(lib, original, tracer.span(name, original, on_exit))

    for layer, targets in LEAVES.items():
        for module_name, cls_name, method in targets:
            cls = getattr(getattr(lib, module_name), cls_name, None)
            original = getattr(cls, method, None) if cls is not None else None
            if original is None:
                continue
            note = _distinct_note(tracer) if layer == "coloring" else None
            setattr(cls, method, tracer.leaf(layer, original, note))

    module_name, fn_name, sites = SEARCH
    original = getattr(getattr(lib, module_name), fn_name, None)
    if original is not None:
        wrapped = _search_wrapper(tracer, original)
        for site in sites:
            module = getattr(lib, site)
            if getattr(module, fn_name, None) is original:
                setattr(module, fn_name, wrapped)


def _distinct_note(tracer):
    def note(args, result):
        coloring, tup = args[0], args[1]
        tracer.distinct.add(hash((id(coloring), *tup)))
    return note


def _fhl_exit(tracer):
    def on_exit(outcome):
        # a capped scan carries its counts on the error's partial report
        report = getattr(outcome, "partial", outcome)
        checked = getattr(report, "colorings_checked", None)
        if checked is not None:
            tracer.counts["witness.fhl.colorings_checked"] += checked
    return on_exit


def _search_wrapper(tracer, original):
    budget_at = _arg(original, "budget")
    consistent_at = _arg(original, "consistent")
    counts = tracer.counts
    inner = tracer.span("search", original)

    def accept_note(args, result):
        if result:
            counts["predicate.accepts"] += 1

    @functools.wraps(original)
    def wrapped(*args, **kwargs):
        budget = _pick(args, kwargs, "budget", budget_at)
        consistent = _pick(args, kwargs, "consistent", consistent_at)
        if consistent is not None:
            traced = tracer.leaf("predicate", consistent, accept_note)
            if "consistent" in kwargs:
                kwargs["consistent"] = traced
            else:
                args = args[:consistent_at] + (traced,) + args[consistent_at + 1:]
        before = getattr(budget, "used", None)
        try:
            result = inner(*args, **kwargs)
        finally:
            if before is not None:
                counts["search.steps"] += budget.used - before
        if result is not None:
            counts["search.found"] += 1
        return result

    return wrapped
