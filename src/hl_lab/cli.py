"""Command line entry point.

One binary with subcommand routing.  Every invocation writes a single
JSON document to standard output and a run manifest (subcommand, input
digest, seed, caps, version, outcome code) to standard error, so any
run can be replayed byte for byte from its manifest.  Exit codes:
0 found/valid, 1 not-found/invalid, 2 input error, 3 cap exceeded.
"""

from __future__ import annotations

import argparse
import functools
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
    json_integer,
)
from .polarized import (
    almost_all_homogenize,
    build_degree_table,
    devlin_lower_bound,
    polarized_search,
    tangent,
    verify_lower_bound,
)
from .search import StepBudget
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


def _integer(doc, field, default=None):
    """``doc[field]``, or ``default`` when given and the field is absent."""
    value = doc[field] if default is None else doc.get(field, default)
    return json_integer(value, f"field {field!r}")


def _optional_integer(doc, field):
    """``doc[field]``, or ``None`` when the field is absent or null."""
    return None if doc.get(field) is None else _integer(doc, field)


def _integers(doc, field):
    """``doc[field]``, a list of integers."""
    return [json_integer(i, f"each entry of field {field!r}") for i in doc[field]]


def _epsilon(value) -> Fraction:
    """An exception budget: a JSON integer or a string ``Fraction`` reads
    exactly; not a bool, a float, a negative value or a string that
    ``Fraction`` refuses (``"x"``, ``"1/0"``)."""
    epsilon = None
    if type(value) is int or isinstance(value, str):
        try:
            epsilon = Fraction(value)
        except (ValueError, ZeroDivisionError):
            pass
    if epsilon is None or epsilon < 0:
        raise InvalidInputError(f"field 'epsilon' must be a non-negative integer "
                                f"or fraction string, got {value!r}")
    return epsilon


def _search_code(outcome) -> int:
    """0 when the search succeeded, 3 when its cap stopped it, 1 otherwise."""
    return 0 if outcome.success else (3 if outcome.capped else 1)


def _write_transcript(path, events) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for event in events:
            handle.write(json.dumps(event, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# handlers: each returns (document, exit_code)


def _cmd_lex_sort(args, doc):
    nodes = doc["nodes"]
    if not isinstance(nodes, list) or not all(isinstance(n, str) for n in nodes):
        raise InvalidInputError("field 'nodes' must be a list of node strings")
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
    witness = sdhl_search(coloring, budget=args.steps)
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
    outcome = fuse(family, h=_optional_integer(doc, "h"), budget=args.steps,
                   transcript=args.events)
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
    outcome = dimension_induction(coloring, h=_optional_integer(doc, "h"),
                                  budget=args.steps, transcript=args.events)
    return outcome.to_json(), _search_code(outcome)


def _cmd_polarized_search(args, doc):
    spaces = _spaces_from(doc)
    coloring = coloring_from_json(doc["coloring"], spaces)
    outcome = polarized_search(coloring, _integer(doc, "depth", 3),
                               budget=args.steps, transcript=args.events)
    return outcome.to_json(), _search_code(outcome)


def _cmd_polarized_verify_lb(args, doc):
    spaces = _spaces_from(doc)
    reports = _reports_from(doc, spaces)
    d = _integer(doc, "d")
    if d < 1:
        raise InvalidInputError(f"dimension must be positive, got {d}")
    if len(reports) != d + 1:
        raise InvalidInputError(f"need {d + 1} factor subtrees, got {len(reports)}")
    result = verify_lower_bound(reports)
    return result.to_json(), 0 if result.realizes_all else 1


def _cmd_almost_all(args, doc):
    spaces = _spaces_from(doc)
    coloring = coloring_from_json(doc["coloring"], spaces)
    epsilon = _epsilon(doc.get("epsilon", "1/10"))
    report = almost_all_homogenize(coloring, epsilon=epsilon,
                                   h=_optional_integer(doc, "h"), budget=args.steps)
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
    moved = copying_action(condition, _integers(doc, "w0"), _integers(doc, "w1"))
    return moved.to_json(), 0


def _cmd_cond_restrict(args, doc):
    condition = Condition.from_json(doc["condition"])
    return restrict_condition(condition, _integers(doc, "indices")).to_json(), 0


def _cmd_wmap_build(args, doc):
    raw = {tuple(_integers(entry, "u")): tuple(_integers(entry, "W"))
           for entry in doc["raw"]}
    wmap = build_w_map(_integers(doc, "E"), raw, _integer(doc, "d"),
                       stride=_optional_integer(doc, "stride"))
    return wmap.to_json(), 0


def _cmd_wmap_verify(args, doc):
    wmap = WMap.from_json(doc["wmap"])
    report = verify_wmap_laws(wmap)
    return report.to_json(), 0 if report.valid else 1


def _cmd_delta_system(args, doc):
    family = [{json_integer(i, "each entry of a 'family' member") for i in m}
              for m in doc["family"]]
    outcome = delta_system(family, _integer(doc, "target"), budget=args.steps)
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


_search = functools.partial(_add_common, search=True)
_staged = functools.partial(_add_common, search=True, transcript=True)


def _number(parser):
    parser.add_argument("n", type=int)
    _add_common(parser, takes_input=False)


def _fhl_arguments(parser):
    _add_common(parser, takes_input=False)
    parser.add_argument("--d", type=int, required=True)
    parser.add_argument("--b", type=int, required=True)
    parser.add_argument("--r", type=int, required=True)
    parser.add_argument("--seed", type=int, default=0,
                        help="seed of the randomized mode")
    parser.add_argument("--mode", choices=("exhaustive", "randomized"),
                        default="exhaustive")
    parser.add_argument("--samples", type=int, default=1000)
    parser.add_argument("--max-height", type=int, default=8)
    parser.add_argument("--budget", type=int, default=2_000_000,
                        help="most colorings enumerated or sampled per height "
                             "(at least 0)")


# command -> (help, handler, arguments), or (help, {subcommand: ...}) for a group
_COMMANDS = {
    "lex-sort": ("sort nodes in tree order", _cmd_lex_sort, _add_common),
    "validate-subtree": ("check the strong-subtree clauses",
                         _cmd_validate_subtree, _add_common),
    "sdhl-search": ("search for a dense witness", _cmd_sdhl_search, _search),
    "fhl": ("least height forcing a dense witness", _cmd_fhl, _fhl_arguments),
    "hl-check": ("check one color across subtree levels", _cmd_hl_check,
                 _add_common),
    "fusion": ("tail-cone fusion", {
        "run": ("grow subtrees and record the tables", _cmd_fusion_run, _staged),
        "check": ("verify a recorded certificate", _cmd_fusion_check,
                  _add_common)}),
    "dim-induct": ("raise witness arity by one", _cmd_dim_induct, _staged),
    "polarized": ("polarized constructions", {
        "search": ("round-robin splitting-tree growth", _cmd_polarized_search,
                   _staged),
        "verify-lb": ("check all height-order types occur",
                      _cmd_polarized_verify_lb, _add_common),
        "almost-all": ("near-constant color per height order", _cmd_almost_all,
                       _search)}),
    "degrees": ("degree numerics", {
        "tangent": ("tangent number", _cmd_degrees_tangent, _number),
        "devlin": ("unpolarized lower bound", _cmd_degrees_devlin, _number),
        "table": ("degrees up to a dimension", _cmd_degrees_table, _number)}),
    "cond": ("condition algebra", {
        "glb": ("greatest lower bound", _cmd_cond_glb, _add_common),
        "copy": ("transport along an order isomorphism", _cmd_cond_copy,
                 _add_common),
        "restrict": ("restrict the support", _cmd_cond_restrict, _add_common)}),
    "wmap": ("index-set map closure", {
        "build": ("close a raw map under intersections", _cmd_wmap_build,
                  _add_common),
        "verify": ("check the closure laws", _cmd_wmap_verify, _add_common)}),
    "delta-system": ("find a common-root subfamily", _cmd_delta_system, _search),
}


def _fill(parser, handler, arguments=None):
    """Give ``parser`` a command's handler and arguments, or, when
    ``handler`` is a group's table, each of the group's subcommands."""
    if isinstance(handler, dict):
        sub = parser.add_subparsers(dest="subcommand", required=True)
        for name, (text, *spec) in handler.items():
            _fill(sub.add_parser(name, help=text), *spec)
        return
    arguments(parser)
    parser.set_defaults(handler=handler)


def build_parser(command=None) -> argparse.ArgumentParser:
    """The CLI parser; with ``command``, only that command is filled in.

    Every command is listed with its help either way, so the top-level
    help and every usage error read the same.  A run parses one command,
    and the others' parsers are most of the cost of building them all.
    """
    parser = argparse.ArgumentParser(
        prog="hl-lab",
        description="Finitary Halpern-Lauchli laboratory")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, *spec) in _COMMANDS.items():
        if command in (None, name):
            _fill(sub.add_parser(name, help=text), *spec)
        else:
            sub.add_parser(name, help=text, add_help=False)
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
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args = build_parser(command).parse_args(argv)
    raw = b""
    try:
        doc_in, raw = _read_input(getattr(args, "input", None)) \
            if hasattr(args, "input") else (None, b"")
        steps = getattr(args, "max_steps", None)
        # one budget per run; ``args.budget`` is fhl's own --budget flag
        args.steps = StepBudget() if steps is None else StepBudget(steps)
        # one transcript per run, written once the handler returns
        transcript = getattr(args, "transcript", None)
        args.events = [] if transcript else None
        document, code = args.handler(args, doc_in)
        if transcript:
            _write_transcript(transcript, args.events)
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
