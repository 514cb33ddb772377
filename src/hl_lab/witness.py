"""Colorings of tree products and dense-witness machinery.

The objects here finitize the combinatorics of coloring products of
trees.  A :class:`Coloring` maps ``d``-tuples of nodes to colors, either
on level sequences only (all coordinates at one height) or on the full
product.  The checkers and searches cover:

* somewhere-dense witnesses (base ``t``, a monochromatic matrix
  dominating every node at a density level above the base); the search
  finds one at the successor level, on one matrix level, and
  ``dim-induct`` builds one at a free level;
* the dense-set variant (a monochromatic dominating matrix at every
  level above the base);
* monochromatic strong subtrees;
* least truncation heights at which every coloring admits a witness.

Search scan orders are fixed (base height, then base, then matrix level,
then matrix, all canonically) so a given input always yields the same
witness, byte for byte.
"""

from __future__ import annotations

import ast
import hashlib
import itertools
import random
from dataclasses import dataclass

from .errors import CapExceededError, InvalidInputError, json_integer
from .search import (
    BudgetExhausted,
    StepBudget,
    cross_consistent,
    prefiltered_assignment,
)
from .subtrees import ValidationResult, validate_strong_subtree
from .trees import TreeSpace, sort_nodes

# ---------------------------------------------------------------------------
# colorings


class Coloring:
    """A total map from node tuples to ``range(colors)``.

    A tuple takes one node per factor space: ``arity`` is ``len(spaces)``.
    ``domain`` is ``"level"`` (defined on level sequences only) or
    ``"full"`` (defined on arbitrary tuples).  ``height_fn``, when given,
    computes the color from the coordinate heights alone, which lets some
    consumers count over height patterns instead of node tuples.
    """

    def __init__(self, colors, spaces, fn, *, domain="level", height_fn=None):
        if not spaces:
            raise InvalidInputError("arity must be positive, got 0")
        if colors < 1:
            raise InvalidInputError(f"color count must be positive, got {colors}")
        if domain not in ("level", "full"):
            raise InvalidInputError(f"domain must be 'level' or 'full', got {domain!r}")
        self.arity = len(spaces)
        self.colors = colors
        self.spaces = tuple(spaces)
        self.domain = domain
        self.height_fn = height_fn
        self._fn = fn

    def evaluate(self, tup) -> int:
        if len(tup) != self.arity:
            raise InvalidInputError(
                f"tuple has {len(tup)} coordinates, coloring has arity {self.arity}"
            )
        if self.domain == "level":
            first = len(tup[0])
            for node in tup:
                if len(node) != first:
                    raise InvalidInputError(
                        f"coloring is defined on level sequences only; "
                        f"got mixed heights in {tup}"
                    )
        value = self._fn(tup)
        return value

    __call__ = evaluate

    def on_product(self, levels):
        """A function equal to ``evaluate`` on ``itertools.product(*levels)``.

        When ``levels`` has one list per factor and, on a level domain,
        all of their nodes share one height, every tuple of the product
        passes ``evaluate``'s checks, so the rule itself is returned; the
        height scan costs one pass over the lists.  Otherwise ``evaluate``
        is returned, which raises at the first bad tuple.
        """
        if len(levels) != self.arity:
            return self.evaluate
        if self.domain == "level" and len(
                {len(node) for level in levels for node in level}) > 1:
            return self.evaluate
        return self._fn


def _level_domain(spaces):
    """All level sequences of the factor product, canonically ordered."""
    top = min(s.height for s in spaces)
    for xi in range(top):
        yield from itertools.product(*(s.level(xi) for s in spaces))


def _full_domain(spaces):
    per = [tuple(n for xi in range(s.height) for n in s.level(xi)) for s in spaces]
    yield from itertools.product(*per)


def table_coloring(spaces, colors, entries, *, domain="level") -> Coloring:
    """Build a coloring from an explicit tuple-to-color table."""
    table = {}
    for tup, color in (entries.items() if isinstance(entries, dict) else entries):
        tup = tuple(tup)
        if len(tup) != len(spaces):
            raise InvalidInputError(
                f"table entry {tup} does not have arity {len(spaces)}")
        if not 0 <= color < colors:
            raise InvalidInputError(
                f"table entry {tup} has color {color} outside range({colors})"
            )
        table[tup] = int(color)
    wanted = _level_domain(spaces) if domain == "level" else _full_domain(spaces)
    for tup in wanted:
        if tup not in table:
            raise InvalidInputError(f"table is not total: missing {tup}")
    return _table_coloring(spaces, colors, table, domain)


def _table_coloring(spaces, colors, table, domain):
    """A table coloring over an already-checked ``table``."""

    def fn(tup):
        try:
            return table[tuple(tup)]
        except KeyError:
            raise InvalidInputError(f"tuple {tup} outside the table domain") from None

    return Coloring(colors, spaces, fn, domain=domain)


def constant_coloring(spaces, colors, value=0) -> Coloring:
    if not 0 <= value < colors:
        raise InvalidInputError(f"constant {value} outside range({colors})")
    return Coloring(colors, spaces, lambda tup: value, domain="full",
                    height_fn=lambda hts: value)


def level_parity_coloring(spaces, modulus=2) -> Coloring:
    """Color of a level sequence is its height modulo ``modulus``."""
    if modulus < 1:
        raise InvalidInputError(f"modulus must be positive, got {modulus}")
    return Coloring(modulus, spaces, lambda tup: len(tup[0]) % modulus)


def antichain_split_coloring(space) -> Coloring:
    """Unary coloring splitting the tree by first digit (root gets 0)."""
    b = space.branching

    def fn(tup):
        node = tup[0]
        return int(node[0]) if node else 0

    return Coloring(b, (space,), fn, domain="full")


def seeded_hash_coloring(spaces, colors, seed, *, domain="full") -> Coloring:
    """Deterministic pseudo-random coloring keyed by a seed.

    Stable across runs and platforms; used for large fixtures where an
    explicit table would be unwieldy.
    """

    prefix = f"{seed}|".encode()

    def fn(tup):
        digest = hashlib.blake2b(prefix + "|".join(tup).encode(), digest_size=8)
        return int.from_bytes(digest.digest(), "big") % colors

    return Coloring(colors, spaces, fn, domain=domain)


# syntax an ``expr`` coloring may use; there is no attribute access at all
_EXPR_NODES = (ast.Expression, ast.BoolOp, ast.BinOp, ast.UnaryOp, ast.Compare,
               ast.IfExp, ast.Name, ast.Constant, ast.Subscript, ast.Slice,
               ast.Tuple, ast.List, ast.GeneratorExp, ast.ListComp,
               ast.comprehension, ast.Call, ast.boolop, ast.operator,
               ast.unaryop, ast.cmpop, ast.expr_context)


def _forbidden_syntax(tree):
    """What in ``tree`` an ``expr`` coloring may not use, or ``None``.

    Node types outside ``_EXPR_NODES``, calls of anything but a bare name,
    and names starting with ``_`` are refused, so no expression can reach
    an object's dunder attributes.  ``**`` and ``<<`` are refused too:
    ``9**9**9`` builds an integer no step cap interrupts.
    """
    for node in ast.walk(tree):
        if not isinstance(node, _EXPR_NODES) or isinstance(node, (ast.Pow, ast.LShift)):
            return type(node).__name__
        if isinstance(node, ast.Call) and not isinstance(node.func, ast.Name):
            return "a call of a computed target"
        if isinstance(node, ast.Name) and node.id.startswith("_"):
            return f"the name {node.id!r}"
    return None


def _scalar(value):
    """``value``, unless ``*`` would repeat it or ``%`` format it."""
    if isinstance(value, (str, tuple, list)):
        raise InvalidInputError(f"an expr coloring may not repeat or %-format a "
                                f"{type(value).__name__}")
    return value


def _guard_sequences(tree):
    """Route each ``*`` operand and ``%`` left operand through ``_scalar``.

    Repetition (``nodes[0] * 999999999``) and formatting
    (``"%0999999999d" % 1``) build values no step cap interrupts.  An
    operand that is a number by its syntax, such as ``int(...)`` in
    ``int(...) * a``, stays bare, so integer arithmetic costs nothing.
    """
    rebound = {n.id for n in ast.walk(tree)
               if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}

    def numeric(node):
        # a number or an error; once guarded, only ``+`` can join sequences
        if isinstance(node, ast.BinOp):
            return (not isinstance(node.op, ast.Add)
                    or numeric(node.left) or numeric(node.right))
        if isinstance(node, ast.Call):
            return node.func.id in {"len", "int", "abs"} - rebound
        return isinstance(node, (ast.UnaryOp, ast.Compare)) or (
            isinstance(node, ast.Constant) and type(node.value) in (int, float, bool))

    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Mult, ast.Mod)):
            for side in ("left", "right")[:1 + isinstance(node.op, ast.Mult)]:
                operand = getattr(node, side)
                if not numeric(operand):
                    setattr(node, side, ast.Call(ast.Name("_scalar", ast.Load()),
                                                 [operand], []))


def expr_coloring(spaces, colors, source, *, domain="level") -> Coloring:
    """Coloring given by a Python expression over ``nodes``/``heights``/``d``.

    The expression comes from the input document, so any error raised
    while compiling or evaluating it is an :class:`InvalidInputError`, as
    is any syntax outside the small whitelist ``_forbidden_syntax`` checks.
    The checked expression becomes the body of a lambda over
    ``nodes, heights, d, colors``, compiled once; comprehensions inside it
    see those names like any closure.
    """
    try:
        tree = ast.parse(source, "<coloring>", "eval")
    except (SyntaxError, ValueError) as bad:
        raise InvalidInputError(f"expr coloring {source!r} does not compile: "
                                f"{bad}") from None
    forbidden = _forbidden_syntax(tree)
    if forbidden is not None:
        raise InvalidInputError(f"expr coloring {source!r} uses {forbidden}, "
                                f"which is not allowed")
    _guard_sequences(tree)
    names = ("nodes", "heights", "d", "colors")  # the order ``fn`` passes them
    params = ast.arguments(posonlyargs=[], args=[ast.arg(a) for a in names],
                           kwonlyargs=[], kw_defaults=[], defaults=[])
    tree.body = ast.Lambda(params, tree.body)
    safe = {"__builtins__": {}, "len": len, "sum": sum, "min": min, "max": max,
            "abs": abs, "int": int, "_scalar": _scalar}
    rule = eval(compile(ast.fix_missing_locations(tree), "<coloring>", "eval"), safe)
    arity = len(spaces)

    def fn(tup):
        try:
            value = rule(tup, tuple(map(len, tup)), arity, colors)
            return int(value) % colors
        except Exception as bad:
            raise InvalidInputError(
                f"expr coloring {source!r} failed on {tup}: "
                f"{type(bad).__name__}: {bad}") from None

    return Coloring(colors, spaces, fn, domain=domain)


def random_table_coloring(spaces, colors, seed, *, domain="level") -> Coloring:
    """Explicit random table drawn with a seeded generator (for small boxes).

    The colors are those of one ``rng.randrange(colors)`` per tuple in
    domain order, drawn in bulk by ``_color_sampler``.
    """
    if colors < 1:
        raise InvalidInputError(f"color count must be positive, got {colors}")
    wanted = list(_level_domain(spaces) if domain == "level" else _full_domain(spaces))
    draw = _color_sampler(random.Random(seed), colors)
    return _table_coloring(spaces, colors,
                           dict(zip(wanted, draw(len(wanted)))), domain)


def _integer(doc, field, default=None):
    """``doc[field]``, or ``default`` when given and the field is absent.

    The value must be a JSON integer: not a bool, a float or a string.
    """
    value = doc[field] if default is None else doc.get(field, default)
    return json_integer(value, f"coloring field {field!r}")


def coloring_from_json(doc, spaces) -> Coloring:
    """Read a coloring over ``spaces``; a declared ``arity`` (or
    height-permutation's ``dimension`` plus one) must be ``len(spaces)``.

    ``arity``, ``colors``, ``value``, ``modulus``, ``dimension`` and a
    table entry's ``color`` must be JSON integers."""
    if not isinstance(doc, dict) or "kind" not in doc:
        raise InvalidInputError("coloring document must be an object with 'kind'")
    kind, name, params = doc["kind"], doc.get("name"), doc.get("params", {})
    if kind == "table":
        try:
            declared = [_integer(doc, "arity")]
            colors = _integer(doc, "colors")
            entries = [(tuple(e["tuple"]), _integer(e, "color"))
                       for e in doc["entries"]]
        except (KeyError, TypeError) as bad:
            raise InvalidInputError(f"malformed table coloring: {bad}") from None
    elif kind != "named":
        raise InvalidInputError(f"unknown coloring kind {kind!r}")
    elif not isinstance(params, dict):
        raise InvalidInputError("coloring params must be an object")
    else:
        declared = [_integer(params, "arity")] if "arity" in params else []
        if name == "height-permutation" and "dimension" in params:
            declared.append(_integer(params, "dimension") + 1)
    for arity in declared:
        if arity != len(spaces):
            raise InvalidInputError(f"need one factor space per coordinate: "
                                    f"arity {arity}, got {len(spaces)} spaces")
    if kind == "table":
        return table_coloring(spaces, colors, entries,
                              domain=doc.get("domain", "level"))
    if name == "constant":
        return constant_coloring(spaces, _integer(params, "colors", 1),
                                 _integer(params, "value", 0))
    if name == "level-parity":
        return level_parity_coloring(spaces, _integer(params, "modulus", 2))
    if name == "antichain-split":
        if len(spaces) != 1:
            raise InvalidInputError("antichain-split is a unary coloring")
        return antichain_split_coloring(spaces[0])
    if name == "height-permutation":
        from .polarized import height_permutation_coloring

        return height_permutation_coloring(spaces)
    if name == "seeded-random":
        return seeded_hash_coloring(spaces, _integer(params, "colors"),
                                    params.get("seed", 0),
                                    domain=params.get("domain", "full"))
    if name == "expr":
        return expr_coloring(spaces, _integer(params, "colors"), params["source"],
                             domain=params.get("domain", "level"))
    raise InvalidInputError(f"unknown named coloring {name!r}")


# ---------------------------------------------------------------------------
# successor-level witnesses


def _undominated(views, base, matrix, level):
    """Violations: tuples at ``level`` above ``base`` no matrix member extends."""
    cones = [views[j].extensions(base[j], level) for j in range(len(base))]
    return [f"tuple {cone_tuple} at level {level} is not dominated"
            for cone_tuple in itertools.product(*cones)
            if not any(all(m.startswith(u) for m, u in zip(member, cone_tuple))
                       for member in itertools.product(*matrix))]


def check_sdhl_witness(witness: SomewhereDenseWitness,
                       coloring: Coloring) -> ValidationResult:
    """Verify a successor-level witness literally, by quantifier scan.

    The base is a level sequence at some view level ``ht``, the density
    level is ``ht + 1`` and the matrix sits on one level; density and color
    are then the free-level clauses.
    """
    views = coloring.spaces
    base, matrix, color = witness.base, witness.matrix, witness.color
    violations: list[str] = []
    if len(base) != coloring.arity or len(matrix) != coloring.arity:
        raise InvalidInputError("witness arity does not match coloring arity")
    if not 0 <= color < coloring.colors:
        violations.append(f"color {color} outside range({coloring.colors})")

    base_levels = {views[j].level_of(base[j]) for j in range(len(base))}
    if len(base_levels) != 1:
        violations.append(f"base {base} is not a level sequence")
        return ValidationResult(False, tuple(violations))
    ht = base_levels.pop()
    if ht + 1 >= views[0].height:
        violations.append(
            f"base height {ht} leaves no successor level inside the truncation"
        )
        return ValidationResult(False, tuple(violations))
    if witness.density_level != ht + 1:
        violations.append(f"density level {witness.density_level} is not the "
                          f"successor level {ht + 1} of the base")
        return ValidationResult(False, tuple(violations))

    member_levels = {views[j].level_of(m) for j, col in enumerate(matrix) for m in col}
    if len(member_levels) > 1:
        violations.append(
            f"matrix members sit on several levels {sorted(member_levels)}; "
            f"a level matrix has a single one"
        )
    elif member_levels and min(member_levels) < ht + 1:
        violations.append(
            f"matrix level {min(member_levels)} is below the density level {ht + 1}"
        )
    violations.extend(check_somewhere_dense_witness(witness, coloring).violations)
    return ValidationResult(not violations, tuple(violations))


# The stage step sits here rather than in search.py because the benchmark
# tracer (perfbench/tracer.py) times prefiltered_assignment where search
# modules import it, and a call from inside search.py would go untraced.
def first_level(slots, levels, candidates_at, consistent_at, budget):
    """The stage step of every staged search: the first level admitting a stage.

    ``levels`` are tried in order.  A level where some slot has no
    candidate in ``candidates_at(level)`` is skipped; otherwise one
    predicate ``consistent_at(level)`` is built and
    ``prefiltered_assignment`` looks for the stage's assignment.  Returns
    ``(level, assignment)`` for the first level that has one, or ``None``.
    ``BudgetExhausted`` passes through to the caller.
    """
    for level in levels:
        candidates = candidates_at(level)
        if any(not candidates[s] for s in slots):
            continue
        found = prefiltered_assignment(slots, candidates, consistent_at(level), budget)
        if found is not None:
            return level, found
    return None


def _dense_matrix(views, base, xi, value, reference, budget):
    """Columns of the first monochromatic level matrix dominating level ``xi``.

    The matrix has one member above each cone node (each node at level
    ``xi`` above ``base``), all on one level at or above ``xi``, the first
    that admits one.  Every matrix tuple's value must equal ``reference``,
    or one common value when ``reference`` is ``None``.  Returns the
    sorted columns, or ``None`` when no level admits a matrix.
    """
    cones = [views[j].extensions(base[j], xi) for j in range(len(base))]
    slots = [(j, u) for j in range(len(base)) for u in cones[j]]
    found = first_level(
        slots, range(xi, min(v.height for v in views)),
        lambda chi: {(j, u): views[j].extensions(u, chi) for (j, u) in slots},
        lambda chi: cross_consistent(len(base), value, reference), budget)
    if found is None:
        return None
    return tuple(sort_nodes(found[1][(j, u)] for u in cones[j])
                 for j in range(len(base)))


def sdhl_search(coloring: Coloring, budget: StepBudget | None = None):
    """First somewhere-dense successor-level witness in canonical scan order.

    Scan order: base height, base (coordinatewise canonical), matrix
    level, matrix (one member per successor cone, product order).  A
    monochromatic dense matrix exists iff one with exactly one member per
    cone does, so the scan is complete.  Returns ``None`` when the whole
    truncation admits no witness.
    """
    budget = budget or StepBudget()
    views = coloring.spaces
    height = min(v.height for v in views)
    try:
        for ht in range(height - 1):
            for base in itertools.product(*(v.level(ht) for v in views)):
                matrix = _dense_matrix(views, base, ht + 1, coloring.evaluate,
                                       None, budget)
                if matrix is not None:
                    # the matrix is monochromatic: any member tuple gives its color
                    color = coloring.evaluate(tuple(col[0] for col in matrix))
                    return SomewhereDenseWitness(base, matrix, ht + 1, color)
    except BudgetExhausted:
        raise CapExceededError(budget.cap,
                               "successor-level witness scan exceeded its budget")
    return None


# ---------------------------------------------------------------------------
# dense-set variant


@dataclass(frozen=True)
class DenseSetCheck:
    valid: bool
    asym_ok: bool
    violations: tuple[str, ...]

    def to_json(self) -> dict:
        return {"valid": self.valid, "asym_ok": self.asym_ok,
                "violations": list(self.violations)}


def _undense_levels(views, base, color, value, budget):
    """Levels above ``base`` with no dominating matrix of ``color``, lazily."""
    height = min(v.height for v in views)
    for eta in range(views[0].level_of(base[0]) + 1, height):
        if _dense_matrix(views, base, eta, value, color, budget) is None:
            yield eta


def check_dshl_witness(base, color, coloring: Coloring,
                       budget: StepBudget | None = None) -> DenseSetCheck:
    """Dense-set check: a monochromatic dominating level matrix at every level.

    For each level ``eta`` above the base there must be a level matrix of
    the given color whose members dominate every tuple at level ``eta``
    above the base.  ``asym_ok`` reports the root-base refinement: color 0
    witnesses are expected to sit at the roots.
    """
    budget = budget or StepBudget()
    views = coloring.spaces
    base = tuple(base)
    if len({views[j].level_of(base[j]) for j in range(len(base))}) != 1:
        raise InvalidInputError(f"base {base} is not a level sequence")
    try:
        violations = [f"no dominating matrix of color {color} at level {eta}"
                      for eta in _undense_levels(views, base, color,
                                                 coloring.evaluate, budget)]
    except BudgetExhausted:
        raise CapExceededError(budget.cap, "dense-set check exceeded its budget")
    roots = tuple(v.level(0)[0] for v in views)
    asym_ok = (color != 0) or (base == roots)
    return DenseSetCheck(not violations, asym_ok, tuple(violations))


def dshl_search(coloring: Coloring, budget: StepBudget | None = None):
    """First (base, color) passing the dense-set check, canonical order.

    One step budget covers the whole scan.  A (base, color) pair is
    dropped at its first level without a dominating matrix.
    """
    budget = budget or StepBudget()
    views = coloring.spaces
    height = min(v.height for v in views)
    try:
        for ht in range(height - 1):
            for base in itertools.product(*(v.level(ht) for v in views)):
                for color in range(coloring.colors):
                    undense = _undense_levels(views, base, color,
                                              coloring.evaluate, budget)
                    if next(undense, None) is None:
                        return base, color
    except BudgetExhausted:
        raise CapExceededError(budget.cap, "dense-set search exceeded its budget")
    return None


# ---------------------------------------------------------------------------
# monochromatic strong subtrees


def check_hl_strong_subtree(reports, coloring: Coloring) -> ValidationResult:
    """Check that the reports are strong subtrees with monochromatic level products.

    All reports must share one witnessing level set; the union over
    subtree levels of the coordinatewise products must get a single color.
    """
    if len(reports) != coloring.arity:
        raise InvalidInputError(
            f"need {coloring.arity} subtree reports, got {len(reports)}"
        )
    level_sets = {r.level_set for r in reports}
    if len(level_sets) != 1:
        raise InvalidInputError(
            f"subtrees must share one witnessing level set, got {sorted(level_sets)}"
        )
    violations: list[str] = []
    for idx, report in enumerate(reports):
        violations.extend(f"subtree {idx}: {v}"
                          for v in validate_strong_subtree(report).violations)
    reference = None
    for xi in range(reports[0].height):
        levels = [r.level(xi) for r in reports]
        evaluate = coloring.on_product(levels)
        colors = set(map(evaluate, itertools.product(*levels)))
        if reference is None and len(colors) == 1:
            reference = colors.pop()
        elif colors and colors != {reference}:
            # walk the level again to name each violation in product order
            for tup in itertools.product(*levels):
                got = evaluate(tup)
                if reference is None:
                    reference = got
                elif got != reference:
                    violations.append(
                        f"tuple {tup} at subtree level {xi} has color {got}, "
                        f"expected {reference}"
                    )
    return ValidationResult(not violations, tuple(violations))


# ---------------------------------------------------------------------------
# free-level (somewhere dense) witnesses


@dataclass(frozen=True)
class SomewhereDenseWitness:
    """Base tuple, dominating matrix, free density level, color.

    The matrix members may sit at mixed levels at or above the density
    level; ``sdhl_search``'s witnesses put them on one level and the
    density level one above the base's view level.
    """

    base: tuple[str, ...]
    matrix: tuple[tuple[str, ...], ...]
    density_level: int
    color: int

    def __post_init__(self):
        object.__setattr__(self, "base", tuple(self.base))
        object.__setattr__(self, "matrix",
                          tuple(sort_nodes(col) for col in self.matrix))

    def to_json(self) -> dict:
        return {"base": list(self.base),
                "matrix": [list(col) for col in self.matrix],
                "density_level": self.density_level,
                "color": self.color}

    @classmethod
    def from_json(cls, doc) -> "SomewhereDenseWitness":
        return cls(base=tuple(doc["base"]),
                   matrix=tuple(tuple(col) for col in doc["matrix"]),
                   density_level=json_integer(doc["density_level"],
                                              "witness field 'density_level'"),
                   color=json_integer(doc["color"], "witness field 'color'"))


# ``sdhl_search``'s witnesses are free-level ones; the benchmark's verifier
# (perfbench/verify.py) still imports the class by its former name.
SDHLWitness = SomewhereDenseWitness


def check_somewhere_dense_witness(witness: SomewhereDenseWitness,
                                  coloring: Coloring, trees=None) -> ValidationResult:
    """Literal check of the free-level dense clause plus monochromaticity.

    ``trees`` defaults to the coloring's factor spaces; pass the subtrees
    a witness was built in to check it there.
    """
    views = coloring.spaces if trees is None else list(trees)
    if len(views) != coloring.arity:
        raise InvalidInputError(
            f"coloring arity {coloring.arity} but {len(views)} factor trees supplied"
        )
    base, matrix = witness.base, witness.matrix
    xi, color = witness.density_level, witness.color
    if len(base) != coloring.arity or len(matrix) != coloring.arity:
        raise InvalidInputError("witness arity does not match coloring arity")
    violations: list[str] = []
    base_top = max(views[j].level_of(base[j]) for j in range(len(base)))
    if xi <= base_top:
        violations.append(
            f"density level {xi} must exceed every base height (max {base_top})"
        )
        return ValidationResult(False, tuple(violations))
    if xi >= views[0].height:
        violations.append(f"density level {xi} outside the truncation")
        return ValidationResult(False, tuple(violations))
    if any(not col for col in matrix):
        violations.append("matrix has an empty coordinate")
        return ValidationResult(False, tuple(violations))

    violations.extend(_undominated(views, base, matrix, xi))
    try:
        for member in itertools.product(*matrix):
            got = coloring.evaluate(member)
            if got != color:
                violations.append(
                    f"matrix tuple {member} has color {got}, expected {color}"
                )
    except InvalidInputError as bad:
        violations.append(str(bad))
    return ValidationResult(not violations, tuple(violations))


# ---------------------------------------------------------------------------
# least truncation heights


@dataclass(frozen=True)
class FiniteHLReport:
    """Outcome of the least-height computation.

    ``value`` is the least height at which every coloring admits a
    witness (exhaustive mode only); ``lower_bound`` is the largest height
    known to fail.  Counterexamples are emitted as table colorings.
    """

    d: int
    b: int
    r: int
    mode: str
    value: int | None
    lower_bound: int
    counterexample_height: int | None
    counterexample: dict | None
    colorings_checked: int
    samples: int | None = None
    seed: int | None = None
    note: str = ""

    def to_json(self) -> dict:
        return {"d": self.d, "b": self.b, "r": self.r, "mode": self.mode,
                "n": self.value, "lower_bound": self.lower_bound,
                "counterexample_at": self.counterexample_height,
                "counterexample": self.counterexample,
                "colorings_checked": self.colorings_checked,
                "samples": self.samples, "seed": self.seed, "note": self.note}


# A bit-sliced batch holds at most this many cells (colorings times
# domain size; a larger coloring is a batch of one), which bounds its
# planes and the bytes drawn for it.
_BATCH_CELLS = 1 << 16
# Heights whose trees (``d * b**n`` nodes) or witness groups would be
# larger are refused.
_MAX_TREE_NODES = 200_000
_MAX_GROUP_MEMBERS = 1 << 20


def _witness_groups(d, b, n):
    """Minimal witness candidates as index groups over the level domain.

    The level domain excludes height-0 tuples: no witness ever evaluates
    them, so their colors are irrelevant to witness existence.
    """
    views = [TreeSpace.uniform(b, n)] * d
    domain = [tup for xi in range(1, n)
              for tup in itertools.product(*(v.level(xi) for v in views))]
    index = {tup: i for i, tup in enumerate(domain)}
    groups = []
    for ht in range(n - 1):
        for base in itertools.product(*(v.level(ht) for v in views)):
            cones = [views[j].extensions(base[j], ht + 1) for j in range(len(base))]
            for eta in range(ht + 1, n):
                per_cone = [[views[j].extensions(u, eta) for u in cones[j]]
                            for j in range(d)]
                coord_selections = [
                    list(itertools.product(*percoord)) for percoord in per_cone
                ]
                for pick in itertools.product(*coord_selections):
                    cols = [sort_nodes(chosen) for chosen in pick]
                    members = list(itertools.product(*cols))
                    groups.append(tuple(index[m] for m in members))
    return domain, groups


def _witness_group_count(d, b, n):
    """``len(_witness_groups(d, b, n)[1])``, computed without the groups.

    A group picks a base at height ``ht`` (``(b**ht)**d`` ways) and, at a
    matrix height ``eta``, one height-``eta`` extension of each of the
    ``b`` children of every base coordinate (``(b**(eta-ht-1))**(b*d)``
    ways).
    """
    return sum(b ** (ht * d) * b ** ((eta - ht - 1) * b * d)
               for ht in range(n - 1) for eta in range(ht + 1, n))


def _first_without_witness(groups):
    """``first(planes, count)``: the least ``s < count`` whose coloring has
    no monochromatic witness group, or ``None`` when every one has one.

    The batch is bit-sliced: ``planes[j][i]`` is an int whose bit ``s`` is
    bit ``j`` of cell ``i``'s color in coloring ``s``.  A group's ``diff``
    ORs ``plane[m] ^ plane[head]`` over its members and planes, so its bit
    ``s`` is set exactly when the group is not monochromatic in coloring
    ``s``; ANDing the diffs leaves the colorings that have no witness.
    """
    split = [(g[0], g[1:]) for g in groups]

    def first(planes, count):
        free = (1 << count) - 1
        for head, rest in split:
            diff = 0
            for plane in planes:
                color = plane[head]
                for m in rest:
                    diff |= plane[m] ^ color
            free &= diff
            if not free:
                return None
        return (free & -free).bit_length() - 1

    return first


# _BIT_CHARS[j] maps a byte to the digit "1" when its bit j is set, else "0"
_BIT_CHARS = [bytes(48 + (c >> j & 1) for c in range(256)) for j in range(8)]


def _column_planes(column, k):
    """The ``k`` bit planes of one cell over a batch of colorings.

    ``column[s]`` is the cell's color in coloring ``s``; bit ``s`` of
    plane ``j`` is its bit ``j``.  A bytes column becomes one base-2
    literal per plane (reversed, so coloring 0 is the low bit); a tuple
    column, whose colors may exceed 255, is split into bytes of eight
    bits each.
    """
    if not isinstance(column, bytes):
        return [plane for q in range(0, k, 8)
                for plane in _column_planes(bytes(c >> q & 255 for c in column),
                                            min(8, k - q))]
    column = column[::-1]
    return [int(column.translate(_BIT_CHARS[j]), 2) for j in range(k)]


def _batch_planes(batch, size, k):
    """Planes of consecutive ``size``-cell colorings concatenated in ``batch``."""
    return tuple(zip(*(_column_planes(batch[i::size], k) for i in range(size))))


def _plane_count(r):
    return max(1, (r - 1).bit_length())


def _exhaustive_scan(first, size, r):
    """``(checked, counterexample)`` over ``itertools.product(range(r), repeat=size)``.

    The scan takes blocks of ``r**m`` consecutive colorings.  Inside a
    block the last ``m`` cells run through every color pattern in the
    same order each time, so their planes are built once; every other
    cell keeps one color over the block, so each of its planes is all
    ones or zero.
    """
    k = _plane_count(r)
    m = 0
    while m < size and r ** (m + 1) * size <= _BATCH_CELLS:
        m += 1
    count = r ** m
    full = (1 << count) - 1
    column = bytes if r <= 256 else tuple
    low = [_column_planes(column(s // r ** p % r for s in range(count)), k)
           for p in reversed(range(m))]
    constant = [[full if c >> j & 1 else 0 for j in range(k)] for c in range(r)]
    checked = 0
    for high in itertools.product(range(r), repeat=size - m):
        s = first(tuple(zip(*[constant[c] for c in high], *low)), count)
        if s is not None:
            return (checked + s + 1,
                    high + tuple(s // r ** p % r for p in reversed(range(m))))
        checked += count
    return checked, None


def _randomized_scan(first, rng, size, samples, r):
    """``(checked, counterexample)`` over ``samples`` draws of ``size`` colors.

    A batch is one ``draw`` of many colorings: concatenated draws take the
    same generator words as separate ones.  On a hit the generator is
    rewound to the batch start and redraws up to the hit, so it is left
    where a per-sample loop would have left it.
    """
    draw = _color_sampler(rng, r)
    k = _plane_count(r)
    count = max(1, _BATCH_CELLS // size)
    checked = 0
    while checked < samples:
        batch = min(count, samples - checked)
        state = rng.getstate()
        s = first(_batch_planes(draw(size * batch), size, k), batch)
        if s is not None:
            rng.setstate(state)
            return checked + s + 1, draw(size * (s + 1))[-size:]
        checked += batch
    return checked, None


def _color_sampler(rng, r):
    """``draw(size)`` equal to ``tuple(rng.randrange(r) for _ in range(size))``.

    ``randrange(r)`` takes one 32-bit Mersenne Twister word per try and
    keeps its top ``k = r.bit_length()`` bits, retrying while they are
    ``>= r``.  ``rng.getrandbits(32 * need)`` returns the next ``need``
    words with the first-generated word least significant, so the top
    byte of each word is every fourth byte of the little-endian encoding;
    one ``bytes.translate`` maps the accepted bytes to colors and drops the
    rejects.  A round draws one word per color still missing, so the
    generator never runs ahead of ``randrange`` and its state after each
    sample is the same.  The top byte holds ``k`` bits only for
    ``r <= 255``; above that ``randrange`` itself draws.
    """
    if r > 255:
        return lambda size: tuple(rng.randrange(r) for _ in range(size))
    shift = 8 - r.bit_length()
    table = bytes(top >> shift for top in range(256))
    rejects = bytes(top for top in range(256) if top >> shift >= r)

    def draw(size):
        colors = b""
        while len(colors) < size:
            need = size - len(colors)
            words = rng.getrandbits(32 * need).to_bytes(4 * need, "little")
            colors += words[3::4].translate(table, rejects)
        return colors

    return draw


def _counterexample_table(d, domain, assignment):
    """The table coloring document of a counterexample.

    ``assignment`` colors the level domain cell by cell; the root tuple,
    which sorts before every other tuple, gets color 0.
    """
    entries = [{"tuple": [""] * d, "color": 0}]
    entries += [{"tuple": list(tup), "color": c}
                for tup, c in sorted(zip(domain, assignment))]
    return {"kind": "table", "arity": d,
            "colors": max(2, max(assignment, default=0) + 1),
            "domain": "level", "entries": entries}


def finite_hl_number(d, b, r, *, mode="exhaustive", samples=1000, seed=0,
                     max_height=8, budget=2_000_000) -> FiniteHLReport:
    """Least truncation height at which every coloring has a witness.

    Exhaustive mode walks heights upward, enumerating every coloring of
    the level domain (height-0 tuples excluded; no witness evaluates
    them) and checking witness existence against the precomputed minimal
    candidates.  A height with no counterexample is the answer.  Randomized
    mode samples colorings at each height instead and reports a lower
    bound.  Both test bit-sliced batches of colorings in scan order.  A
    height whose tree (over ``_MAX_TREE_NODES`` nodes), colorings to test
    (every one, or ``samples``, over ``budget``) or witness groups (over
    ``_MAX_GROUP_MEMBERS`` members) is too large stops the scan, before
    its groups are built, with a cap-exceeded error carrying the bounds
    found so far.
    """
    if d < 1 or r < 1 or b < 2:
        raise InvalidInputError(f"need d >= 1, b >= 2, r >= 1; got {(d, b, r)}")
    if mode not in ("exhaustive", "randomized"):
        raise InvalidInputError(f"mode must be exhaustive or randomized, got {mode!r}")
    if mode == "randomized" and samples < 1:
        raise InvalidInputError(f"need samples >= 1, got {samples}")
    if max_height < 2:
        raise InvalidInputError(f"need max_height >= 2, got {max_height}")
    if budget < 0:
        raise InvalidInputError(f"need budget >= 0, got {budget}")

    rng = random.Random(seed)
    checked_total = 0
    lower = 1  # height 1 has no successor level: automatic failure
    counter_doc = None
    counter_at = None
    sampling = {"samples": samples, "seed": seed} if mode == "randomized" else {}

    def report(value=None, note=""):
        return FiniteHLReport(
            d=d, b=b, r=r, mode=mode, value=value, lower_bound=lower,
            counterexample_height=counter_at, counterexample=counter_doc,
            colorings_checked=checked_total, note=note, **sampling)

    for n in range(2, max_height + 1):
        stopped = f"{mode} scan stopped before height {n}"
        if d * (b ** n) > _MAX_TREE_NODES:
            raise CapExceededError(_MAX_TREE_NODES,
                                   f"tree of height {n} outside size budget",
                                   partial=report(note=stopped))
        members = _witness_group_count(d, b, n) * b ** d
        if members > _MAX_GROUP_MEMBERS:
            raise CapExceededError(
                _MAX_GROUP_MEMBERS,
                f"{members} witness group members at height {n} exceed "
                f"{_MAX_GROUP_MEMBERS}", partial=report(note=stopped))
        # every cell lies in some group: ``size <= members`` bounds ``r ** size``
        size = sum(b ** (xi * d) for xi in range(1, n))
        # the colorings this height would test
        if (total := r ** size if mode == "exhaustive" else samples) > budget:
            # by default int -> str refuses more than 4300 decimal digits
            shown = f"{r}**{size}" if total.bit_length() > 10_000 else total
            raise CapExceededError(
                budget, f"{shown} colorings at height {n} exceed the budget",
                partial=report(note=stopped))
        domain, groups = _witness_groups(d, b, n)
        first = _first_without_witness(groups)
        if mode == "exhaustive":
            checked, counterexample = _exhaustive_scan(first, size, r)
        else:
            checked, counterexample = _randomized_scan(first, rng, size, samples, r)
        checked_total += checked
        if counterexample is None:
            # every height below ``n`` had a counterexample, so ``lower == n - 1``
            if mode == "exhaustive":
                return report(value=n)
            return report(note=f"no counterexample among {samples} samples at height {n}")
        counter_doc = _counterexample_table(d, domain, counterexample)
        counter_at = n
        lower = n
    return report(note=f"every height up to {max_height} admits a counterexample")
