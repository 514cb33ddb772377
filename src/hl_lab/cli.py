"""Command line entry point.

One binary with subcommand routing.  Every invocation writes a single
JSON document to standard output and a run manifest (subcommand, input
digest, seed, caps, version, outcome code) to standard error, so any
run can be replayed byte for byte from its manifest.  Exit codes:
0 found/valid, 1 not-found/invalid, 2 input error, 3 cap exceeded.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from fractions import Fraction

from . import __version__
from .conditions import (
    Condition,
    WMap,
    build_w_map,
    copying_action,
    delta_system,
    glb,
    restrict_condition,
    verify_wmap_laws,
)
from .errors import (
    CapExceededError,
    HLError,
    IncompatibleConditionsError,
    InvalidInputError,
)
from .polarized import (
    almost_all_homogenize,
    build_degree_table,
    devlin_lower_bound,
    polarized_search,
    tangent,
    verify_lower_bound,
)
from .search import Caps
from .subtrees import SubtreeReport, validate_strong_subtree
from .tailcone import (
    ColoringFamily,
    TailConeCertificate,
    check_tail_cone,
    dimension_induction,
    fuse,
)
from .trees import TreeSpace, lex_sorted
from .witness import (
    check_hl_strong_subtree,
    coloring_from_json,
    finite_hl_number,
    sdhl_search,
)

# ---------------------------------------------------------------------------
# rendering


def _format_cell(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, (int, str)):
        return str(value)
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, list) and all(
            isinstance(v, (int, str, bool)) or v is None for v in value):
        return ",".join(_format_cell(v) for v in value) if value else "(none)"
    return json.dumps(value, sort_keys=True)


def _rows_table(rows) -> str:
    columns: list[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    cells = [[_format_cell(row.get(c)) for c in columns] for row in rows]
    widths = [max(len(c), *(len(r[i]) for r in cells))
              for i, c in enumerate(columns)]
    lines = ["  ".join(c.ljust(w) for c, w in zip(columns, widths)).rstrip()]
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines)


def render_table(document) -> str:
    """Deterministic column-aligned text for any subcommand output.

    Lists of objects become aligned rows, empty lists render as
    ``(none)``, and numbers are printed exactly (everything here is an
    integer or an exact fraction).
    """
    if isinstance(document, list):
        if not document:
            return "(none)"
        if all(isinstance(r, dict) for r in document):
            return _rows_table(document)
        return "\n".join(_format_cell(v) for v in document)
    if not isinstance(document, dict):
        return _format_cell(document)
    lines = []
    tables = []
    for key in document:
        value = document[key]
        if isinstance(value, list) and value and all(
                isinstance(r, dict) for r in value):
            tables.append((key, _rows_table(value)))
        elif isinstance(value, list) and not value:
            lines.append(f"{key}: (none)")
        else:
            lines.append(f"{key}: {_format_cell(value)}")
    out = "\n".join(lines)
    for key, table in tables:
        out += f"\n{key}:\n" + "\n".join("  " + ln for ln in table.split("\n"))
    return out.lstrip("\n")


# ---------------------------------------------------------------------------
# plumbing


def _read_input(path: str | None):
    if path is None:
        return None, b""
    if path == "-":
        raw = sys.stdin.buffer.read()
    else:
        with open(path, "rb") as handle:
            raw = handle.read()
    try:
        return json.loads(raw.decode("utf-8")), raw
    except (UnicodeDecodeError, json.JSONDecodeError) as bad:
        raise InvalidInputError(f"input is not valid JSON: {bad}") from None


def _spaces_from(doc) -> tuple[TreeSpace, ...]:
    if "spaces" in doc:
        return tuple(TreeSpace.from_json(s) for s in doc["spaces"])
    if "space" in doc:
        return (TreeSpace.from_json(doc["space"]),)
    raise InvalidInputError("document must carry 'space' or 'spaces'")


def _reports_from(doc, spaces) -> tuple[SubtreeReport, ...]:
    """One subtree report per entry of ``doc["reports"]``, in factor order."""
    entries = doc["reports"]
    if len(entries) > len(spaces):
        raise InvalidInputError(
            f"document has {len(entries)} reports but {len(spaces)} spaces")
    return tuple(SubtreeReport.from_json(r, spaces[j])
                 for j, r in enumerate(entries))


def _search_code(outcome) -> int:
    """0 when the search succeeded, 3 when its cap stopped it, 1 otherwise."""
    return 0 if outcome.success else (3 if outcome.capped else 1)


def _write_transcript(path, events) -> None:
    if path is None or events is None:
        return
    with open(path, "w", encoding="utf-8") as handle:
        for event in events:
            handle.write(json.dumps(event, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# handlers: each returns (document, exit_code)


def _cmd_lex_sort(args, doc):
    nodes = tuple(str(n) for n in doc["nodes"])
    if "space" in doc:
        space = TreeSpace.from_json(doc["space"])
        for node in nodes:
            if not space.contains(node):
                raise InvalidInputError(f"node {node!r} outside the space")
    return {"sorted": list(lex_sorted(nodes))}, 0


def _cmd_validate_subtree(args, doc):
    space = TreeSpace.from_json(doc["space"])
    report = SubtreeReport.from_json(doc, space)
    result = validate_strong_subtree(report)
    return result.to_json(), 0 if result.valid else 1


def _cmd_sdhl_search(args, doc):
    spaces = _spaces_from(doc)
    coloring = coloring_from_json(doc["coloring"], spaces)
    witness = sdhl_search(coloring, caps=args.caps)
    if witness is None:
        return {"found": False, "witness": None}, 1
    return {"found": True, "witness": witness.to_json()}, 0


def _cmd_fhl(args, doc):
    report = finite_hl_number(args.d, args.b, args.r, mode=args.mode,
                              samples=args.samples, seed=args.seed,
                              max_height=args.max_height,
                              budget=args.budget)
    return report.to_json(), 0


def _cmd_hl_check(args, doc):
    spaces = _spaces_from(doc)
    coloring = coloring_from_json(doc["coloring"], spaces)
    reports = _reports_from(doc, spaces)
    result = check_hl_strong_subtree(reports, coloring)
    return result.to_json(), 0 if result.valid else 1


def _cmd_fusion_run(args, doc):
    spaces = _spaces_from(doc)
    members = [coloring_from_json(c, spaces) for c in doc.get("colorings", [])]
    family = ColoringFamily(members, spaces=spaces)
    events = [] if args.transcript else None
    outcome = fuse(family, h=doc.get("h"), caps=args.caps,
                   transcript=events)
    _write_transcript(args.transcript, events)
    return outcome.to_json(), _search_code(outcome)


def _cmd_fusion_check(args, doc):
    spaces = _spaces_from(doc)
    members = [coloring_from_json(c, spaces) for c in doc.get("colorings", [])]
    family = ColoringFamily(members, spaces=spaces)
    certificate = TailConeCertificate.from_json(doc["certificate"], spaces)
    result = check_tail_cone(certificate, family)
    return result.to_json(), 0 if result.valid else 1


def _cmd_dim_induct(args, doc):
    spaces = _spaces_from(doc)
    coloring = coloring_from_json(doc["coloring"], spaces)
    events = [] if args.transcript else None
    outcome = dimension_induction(coloring, h=doc.get("h"),
                                  caps=args.caps, transcript=events)
    _write_transcript(args.transcript, events)
    return outcome.to_json(), _search_code(outcome)


def _cmd_polarized_search(args, doc):
    spaces = _spaces_from(doc)
    coloring = coloring_from_json(doc["coloring"], spaces)
    events = [] if args.transcript else None
    outcome = polarized_search(coloring, int(doc.get("depth", 3)),
                               caps=args.caps, transcript=events)
    _write_transcript(args.transcript, events)
    return outcome.to_json(), _search_code(outcome)


def _cmd_polarized_verify_lb(args, doc):
    spaces = _spaces_from(doc)
    reports = _reports_from(doc, spaces)
    result = verify_lower_bound(reports, int(doc["d"]))
    return result.to_json(), 0 if result.realizes_all else 1


def _cmd_almost_all(args, doc):
    spaces = _spaces_from(doc)
    coloring = coloring_from_json(doc["coloring"], spaces)
    epsilon = Fraction(doc.get("epsilon", "1/10"))
    report = almost_all_homogenize(coloring, epsilon=epsilon,
                                   h=doc.get("h"), caps=args.caps)
    return report.to_json(), _search_code(report)


def _cmd_degrees_tangent(args, doc):
    return {"n": args.n, "value": tangent(args.n)}, 0


def _cmd_degrees_devlin(args, doc):
    return {"d": args.n, "value": devlin_lower_bound(args.n)}, 0


def _cmd_degrees_table(args, doc):
    return build_degree_table(args.n).to_json(), 0


def _cmd_cond_glb(args, doc):
    conditions = [Condition.from_json(c) for c in doc["conditions"]]
    return glb(conditions).to_json(), 0


def _cmd_cond_copy(args, doc):
    condition = Condition.from_json(doc["condition"])
    moved = copying_action(condition, doc["w0"], doc["w1"])
    return moved.to_json(), 0


def _cmd_cond_restrict(args, doc):
    condition = Condition.from_json(doc["condition"])
    return restrict_condition(condition, doc["indices"]).to_json(), 0


def _cmd_wmap_build(args, doc):
    raw = {tuple(entry["u"]): tuple(entry["W"]) for entry in doc["raw"]}
    wmap = build_w_map(doc["E"], raw, int(doc["d"]), stride=doc.get("stride"))
    return wmap.to_json(), 0


def _cmd_wmap_verify(args, doc):
    wmap = WMap.from_json(doc["wmap"])
    report = verify_wmap_laws(wmap)
    return report.to_json(), 0 if report.valid else 1


def _cmd_delta_system(args, doc):
    outcome = delta_system([set(m) for m in doc["family"]], int(doc["target"]))
    return outcome.to_json(), 0 if outcome.success else 1


# ---------------------------------------------------------------------------
# parser


def _add_common(parser, *, takes_input=True, search=False, transcript=False):
    if takes_input:
        parser.add_argument("input", nargs="?", default="-",
                            help="JSON document path, or - for stdin")
    if search:
        parser.add_argument("--max-steps", type=int, default=None,
                            help="total candidate-inspection budget (at least 1)")
    parser.add_argument("--table", action="store_true",
                        help="render the output as aligned text instead of JSON")
    if transcript:
        parser.add_argument("--transcript", default=None,
                            help="write stage events to this JSONL file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hl-lab",
        description="Finitary Halpern-Lauchli laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lex-sort", help="sort nodes in tree order")
    _add_common(p)
    p.set_defaults(handler=_cmd_lex_sort)

    p = sub.add_parser("validate-subtree", help="check the strong-subtree clauses")
    _add_common(p)
    p.set_defaults(handler=_cmd_validate_subtree)

    p = sub.add_parser("sdhl-search", help="search for a dense witness")
    _add_common(p, search=True)
    p.set_defaults(handler=_cmd_sdhl_search)

    p = sub.add_parser("fhl", help="least height forcing a dense witness")
    _add_common(p, takes_input=False)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the randomized mode")
    p.add_argument("--mode", choices=("exhaustive", "randomized"),
                   default="exhaustive")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--max-height", type=int, default=8)
    p.add_argument("--budget", type=int, default=2_000_000,
                   help="most colorings enumerated per height (at least 0)")
    p.set_defaults(handler=_cmd_fhl)

    p = sub.add_parser("hl-check", help="check one color across subtree levels")
    _add_common(p)
    p.set_defaults(handler=_cmd_hl_check)

    p = sub.add_parser("fusion", help="tail-cone fusion")
    fsub = p.add_subparsers(dest="subcommand", required=True)
    q = fsub.add_parser("run", help="grow subtrees and record the tables")
    _add_common(q, search=True, transcript=True)
    q.set_defaults(handler=_cmd_fusion_run)
    q = fsub.add_parser("check", help="verify a recorded certificate")
    _add_common(q)
    q.set_defaults(handler=_cmd_fusion_check)

    p = sub.add_parser("dim-induct", help="raise witness arity by one")
    _add_common(p, search=True, transcript=True)
    p.set_defaults(handler=_cmd_dim_induct)

    p = sub.add_parser("polarized", help="polarized constructions")
    psub = p.add_subparsers(dest="subcommand", required=True)
    q = psub.add_parser("search", help="round-robin splitting-tree growth")
    _add_common(q, search=True, transcript=True)
    q.set_defaults(handler=_cmd_polarized_search)
    q = psub.add_parser("verify-lb", help="check all height-order types occur")
    _add_common(q)
    q.set_defaults(handler=_cmd_polarized_verify_lb)
    q = psub.add_parser("almost-all", help="near-constant color per height order")
    _add_common(q, search=True)
    q.set_defaults(handler=_cmd_almost_all)

    p = sub.add_parser("degrees", help="degree numerics")
    dsub = p.add_subparsers(dest="subcommand", required=True)
    q = dsub.add_parser("tangent", help="tangent number")
    q.add_argument("n", type=int)
    _add_common(q, takes_input=False)
    q.set_defaults(handler=_cmd_degrees_tangent)
    q = dsub.add_parser("devlin", help="unpolarized lower bound")
    q.add_argument("n", type=int)
    _add_common(q, takes_input=False)
    q.set_defaults(handler=_cmd_degrees_devlin)
    q = dsub.add_parser("table", help="degrees up to a dimension")
    q.add_argument("n", type=int)
    _add_common(q, takes_input=False)
    q.set_defaults(handler=_cmd_degrees_table)

    p = sub.add_parser("cond", help="condition algebra")
    csub = p.add_subparsers(dest="subcommand", required=True)
    q = csub.add_parser("glb", help="greatest lower bound")
    _add_common(q)
    q.set_defaults(handler=_cmd_cond_glb)
    q = csub.add_parser("copy", help="transport along an order isomorphism")
    _add_common(q)
    q.set_defaults(handler=_cmd_cond_copy)
    q = csub.add_parser("restrict", help="restrict the support")
    _add_common(q)
    q.set_defaults(handler=_cmd_cond_restrict)

    p = sub.add_parser("wmap", help="index-set map closure")
    wsub = p.add_subparsers(dest="subcommand", required=True)
    q = wsub.add_parser("build", help="close a raw map under intersections")
    _add_common(q)
    q.set_defaults(handler=_cmd_wmap_build)
    q = wsub.add_parser("verify", help="check the closure laws")
    _add_common(q)
    q.set_defaults(handler=_cmd_wmap_verify)

    p = sub.add_parser("delta-system", help="find a common-root subfamily")
    _add_common(p)
    p.set_defaults(handler=_cmd_delta_system)

    return parser


# ---------------------------------------------------------------------------
# dispatch


def _manifest(args, raw: bytes, code: int) -> dict:
    steps = getattr(args, "max_steps", None)
    caps = None if steps is None else {"max_steps": steps}
    subcommand = args.command
    if getattr(args, "subcommand", None):
        subcommand += " " + args.subcommand
    return {"subcommand": subcommand,
            "input_sha256": hashlib.sha256(raw).hexdigest() if raw else None,
            "seed": getattr(args, "seed", None),
            "caps": caps,
            "version": __version__,
            "outcome": code}


def dispatch(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    raw = b""
    try:
        doc_in, raw = _read_input(getattr(args, "input", None)) \
            if hasattr(args, "input") else (None, b"")
        steps = getattr(args, "max_steps", None)
        args.caps = Caps() if steps is None else Caps(steps)
        document, code = args.handler(args, doc_in)
    except IncompatibleConditionsError as bad:
        document = {"error": str(bad), "index": bad.index,
                    "coordinate": bad.coordinate}
        code = 1
    except CapExceededError as bad:
        partial = bad.partial
        if partial is not None and hasattr(partial, "to_json"):
            partial = partial.to_json()
        document = {"error": str(bad), "cap": bad.cap, "partial": partial}
        code = 3
    except InvalidInputError as bad:
        document = {"error": str(bad)}
        code = 2
    except (KeyError, TypeError, ValueError, OSError) as bad:
        document = {"error": f"{type(bad).__name__}: {bad}"}
        code = 2
    except HLError as bad:
        document = {"error": str(bad)}
        code = 1
    if getattr(args, "table", False):
        sys.stdout.write(render_table(document) + "\n")
    else:
        sys.stdout.write(json.dumps(document, indent=2, sort_keys=True) + "\n")
    sys.stderr.write(json.dumps(_manifest(args, raw, code), sort_keys=True)
                     + "\n")
    return code


def main() -> None:
    raise SystemExit(dispatch())


if __name__ == "__main__":
    main()
