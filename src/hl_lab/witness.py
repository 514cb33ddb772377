"""Colorings of tree products and dense-witness machinery.

The objects here finitize the combinatorics of coloring products of
trees.  A :class:`Coloring` maps ``d``-tuples of nodes to colors, either
on level sequences only (all coordinates at one height) or on the full
product.  The checkers and searches cover:

* somewhere-dense witnesses at the successor level (base ``t``, a
  monochromatic level matrix dominating every node one level above the
  base) and their free-level variant;
* the dense-set variant (a monochromatic dominating matrix at every
  level above the base);
* monochromatic strong subtrees;
* least truncation heights at which every coloring admits a witness;
* a stage-by-stage monochromatic strong subtree construction driven by
  a pluggable largeness oracle.

Search scan orders are fixed (base height, then base, then matrix level,
then matrix, all canonically) so a given input always yields the same
witness, byte for byte.
"""

from __future__ import annotations

import hashlib
import itertools
import operator
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import (
    CapExceededError,
    InvalidInputError,
    OracleContradictionError,
    OutOfRangeError,
)
from .search import (
    BudgetExhausted,
    Caps,
    StepBudget,
    cross_consistent,
    prefiltered_assignment,
)
from .subtrees import SubtreeReport, ValidationResult
from .trees import TreeSpace, node_key, sort_nodes
from .views import as_view

# ---------------------------------------------------------------------------
# colorings


class Coloring:
    """A total map from node tuples to ``range(colors)``.

    ``domain`` is ``"level"`` (defined on level sequences only) or
    ``"full"`` (defined on arbitrary tuples).  ``height_factored`` marks
    colorings whose value depends on coordinate heights alone, which lets
    some consumers count over height patterns instead of node tuples.
    """

    def __init__(self, arity, colors, spaces, fn, *, domain="level", kind="table",
                 body=None, height_factored=False, height_fn=None):
        if arity < 1:
            raise InvalidInputError(f"arity must be positive, got {arity}")
        if colors < 1:
            raise InvalidInputError(f"color count must be positive, got {colors}")
        if len(spaces) != arity:
            raise InvalidInputError(
                f"need one factor space per coordinate: arity {arity}, "
                f"got {len(spaces)} spaces"
            )
        if domain not in ("level", "full"):
            raise InvalidInputError(f"domain must be 'level' or 'full', got {domain!r}")
        self.arity = arity
        self.colors = colors
        self.spaces = tuple(spaces)
        self.domain = domain
        self.kind = kind
        self.body = body if body is not None else {}
        self.height_factored = height_factored
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

    def to_json(self) -> dict:
        if self.kind == "table":
            entries = [{"tuple": list(t), "color": c}
                       for t, c in sorted(self.body.items())]
            return {"kind": "table", "arity": self.arity, "colors": self.colors,
                    "domain": self.domain, "entries": entries}
        return {"kind": "named", "name": self.kind, "params": dict(self.body)}


def _level_domain(spaces):
    """All level sequences of the factor product, canonically ordered."""
    views = [as_view(s) for s in spaces]
    top = min(v.height for v in views)
    for xi in range(top):
        yield from itertools.product(*(v.level(xi) for v in views))


def _full_domain(spaces):
    views = [as_view(s) for s in spaces]
    per = [tuple(n for xi in range(v.height) for n in v.level(xi)) for v in views]
    yield from itertools.product(*per)


def table_coloring(spaces, arity, colors, entries, *, domain="level",
                   check_total=True) -> Coloring:
    """Build a coloring from an explicit tuple-to-color table."""
    table = {}
    for tup, color in (entries.items() if isinstance(entries, dict) else entries):
        tup = tuple(tup)
        if len(tup) != arity:
            raise InvalidInputError(f"table entry {tup} does not have arity {arity}")
        if not 0 <= color < colors:
            raise InvalidInputError(
                f"table entry {tup} has color {color} outside range({colors})"
            )
        table[tup] = int(color)
    if check_total:
        wanted = _level_domain(spaces) if domain == "level" else _full_domain(spaces)
        for tup in wanted:
            if tup not in table:
                raise InvalidInputError(f"table is not total: missing {tup}")

    def fn(tup):
        try:
            return table[tuple(tup)]
        except KeyError:
            raise InvalidInputError(f"tuple {tup} outside the table domain") from None

    return Coloring(arity, colors, spaces, fn, domain=domain, kind="table", body=table)


def constant_coloring(spaces, arity, colors, value=0) -> Coloring:
    if not 0 <= value < colors:
        raise InvalidInputError(f"constant {value} outside range({colors})")
    return Coloring(arity, colors, spaces, lambda tup: value, domain="full",
                    kind="constant", body={"arity": arity, "colors": colors,
                                           "value": value},
                    height_factored=True, height_fn=lambda hts: value)


def level_parity_coloring(spaces, arity, modulus=2) -> Coloring:
    """Color of a level sequence is its height modulo ``modulus``."""
    if modulus < 1:
        raise InvalidInputError(f"modulus must be positive, got {modulus}")
    return Coloring(arity, modulus, spaces, lambda tup: len(tup[0]) % modulus,
                    domain="level", kind="level-parity",
                    body={"arity": arity, "modulus": modulus},
                    height_factored=True, height_fn=lambda hts: hts[0] % modulus)


def antichain_split_coloring(space) -> Coloring:
    """Unary coloring splitting the tree by first digit (root gets 0)."""
    b = space.branching

    def fn(tup):
        node = tup[0]
        return int(node[0]) if node else 0

    return Coloring(1, b, (space,), fn, domain="full", kind="antichain-split",
                    body={})


def seeded_hash_coloring(spaces, arity, colors, seed, *, domain="full") -> Coloring:
    """Deterministic pseudo-random coloring keyed by a seed.

    Stable across runs and platforms; used for large fixtures where an
    explicit table would be unwieldy.
    """

    prefix = f"{seed}|".encode()

    def fn(tup):
        digest = hashlib.blake2b(prefix + "|".join(tup).encode(), digest_size=8)
        return int.from_bytes(digest.digest(), "big") % colors

    return Coloring(arity, colors, spaces, fn, domain=domain, kind="seeded-random",
                    body={"arity": arity, "colors": colors, "seed": seed,
                          "domain": domain})


def expr_coloring(spaces, arity, colors, source, *, domain="level") -> Coloring:
    """Coloring given by a Python expression over ``nodes``/``heights``/``d``.

    The expression comes from the input document, so any error raised
    while compiling or evaluating it is an :class:`InvalidInputError`.
    """
    try:
        code = compile(source, "<coloring>", "eval")
    except (SyntaxError, ValueError) as bad:
        raise InvalidInputError(f"expr coloring {source!r} does not compile: "
                                f"{bad}") from None
    safe = {"__builtins__": {}, "len": len, "sum": sum, "min": min, "max": max,
            "abs": abs, "int": int}

    def fn(tup):
        try:
            value = eval(code, dict(safe), {
                "nodes": tup, "heights": tuple(len(t) for t in tup),
                "d": arity, "colors": colors,
            })
            return int(value) % colors
        except Exception as bad:
            raise InvalidInputError(
                f"expr coloring {source!r} failed on {tup}: "
                f"{type(bad).__name__}: {bad}") from None

    return Coloring(arity, colors, spaces, fn, domain=domain, kind="expr",
                    body={"arity": arity, "colors": colors, "source": source,
                          "domain": domain})


def random_table_coloring(spaces, arity, colors, seed, *, domain="level") -> Coloring:
    """Explicit random table drawn with a seeded generator (for small boxes)."""
    rng = random.Random(seed)
    wanted = _level_domain(spaces) if domain == "level" else _full_domain(spaces)
    table = {tup: rng.randrange(colors) for tup in wanted}
    return table_coloring(spaces, arity, colors, table, domain=domain,
                          check_total=False)


def coloring_from_json(doc, spaces) -> Coloring:
    if not isinstance(doc, dict) or "kind" not in doc:
        raise InvalidInputError("coloring document must be an object with 'kind'")
    kind = doc["kind"]
    if kind == "table":
        try:
            arity = int(doc["arity"])
            colors = int(doc["colors"])
            entries = [(tuple(e["tuple"]), int(e["color"])) for e in doc["entries"]]
        except (KeyError, TypeError) as bad:
            raise InvalidInputError(f"malformed table coloring: {bad}") from None
        return table_coloring(spaces, arity, colors, entries,
                              domain=doc.get("domain", "level"))
    if kind != "named":
        raise InvalidInputError(f"unknown coloring kind {kind!r}")
    name = doc.get("name")
    params = doc.get("params", {})
    if name == "constant":
        return constant_coloring(spaces, int(params.get("arity", len(spaces))),
                                 int(params.get("colors", 1)),
                                 int(params.get("value", 0)))
    if name == "level-parity":
        return level_parity_coloring(spaces, int(params.get("arity", len(spaces))),
                                     int(params.get("modulus", 2)))
    if name == "antichain-split":
        if len(spaces) != 1:
            raise InvalidInputError("antichain-split is a unary coloring")
        return antichain_split_coloring(spaces[0])
    if name == "height-permutation":
        from .polarized import height_permutation_coloring

        dim = int(params.get("dimension", len(spaces) - 1))
        return height_permutation_coloring(dim, spaces)
    if name == "seeded-random":
        return seeded_hash_coloring(spaces, int(params.get("arity", len(spaces))),
                                    int(params["colors"]), params.get("seed", 0),
                                    domain=params.get("domain", "full"))
    if name == "expr":
        return expr_coloring(spaces, int(params.get("arity", len(spaces))),
                             int(params["colors"]), params["source"],
                             domain=params.get("domain", "level"))
    raise InvalidInputError(f"unknown named coloring {name!r}")


# ---------------------------------------------------------------------------
# successor-level witnesses


@dataclass(frozen=True)
class SDHLWitness:
    """Base level sequence, monochromatic level matrix, color.

    The matrix dominates every tuple one level above the base: for each
    coordinate ``j`` and each node ``u`` directly above ``base[j]``, some
    matrix member extends ``u``.
    """

    base: tuple[str, ...]
    matrix: tuple[tuple[str, ...], ...]
    color: int

    def __post_init__(self):
        object.__setattr__(self, "base", tuple(self.base))
        object.__setattr__(self, "matrix",
                          tuple(sort_nodes(col) for col in self.matrix))

    @property
    def density_level(self) -> int:
        return len(self.base[0]) + 1

    def to_json(self) -> dict:
        return {"base": list(self.base),
                "matrix": [list(col) for col in self.matrix],
                "color": self.color,
                "density_level": self.density_level}

    @classmethod
    def from_json(cls, doc) -> "SDHLWitness":
        return cls(base=tuple(doc["base"]),
                   matrix=tuple(tuple(col) for col in doc["matrix"]),
                   color=int(doc["color"]))


def _views(trees, arity):
    views = [as_view(t) for t in trees]
    if len(views) != arity:
        raise InvalidInputError(
            f"coloring arity {arity} but {len(views)} factor trees supplied"
        )
    return views


def _undominated(views, base, matrix, level):
    """Violations: tuples at ``level`` above ``base`` no matrix member extends."""
    cones = [views[j].above(base[j], level) for j in range(len(base))]
    return [f"tuple {cone_tuple} at level {level} is not dominated"
            for cone_tuple in itertools.product(*cones)
            if not any(all(m.startswith(u) for m, u in zip(member, cone_tuple))
                       for member in itertools.product(*matrix))]


def check_sdhl_witness(witness: SDHLWitness, coloring: Coloring,
                       trees=None) -> ValidationResult:
    """Verify density and monochromaticity literally, by quantifier scan."""
    trees = trees if trees is not None else coloring.spaces
    views = _views(trees, coloring.arity)
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
    if any(not col for col in matrix):
        violations.append("matrix has an empty coordinate")
        return ValidationResult(False, tuple(violations))

    # density: every tuple one level above the base is dominated by a member
    violations.extend(_undominated(views, base, matrix, ht + 1))
    for member in itertools.product(*matrix):
        got = coloring.evaluate(member)
        if got != color:
            violations.append(f"matrix tuple {member} has color {got}, expected {color}")
    return ValidationResult(not violations, tuple(violations))


def _dense_matrix(views, base, xi, pools, value, reference, budget):
    """Columns of the first monochromatic matrix dominating level ``xi``.

    The matrix has one member above each cone node (each node at level
    ``xi`` above ``base``), drawn from the levels of a pool; pools are
    tried in order, skipping any that leaves some cone node without a
    candidate.  Every matrix tuple's value must equal ``reference``, or
    one common value when ``reference`` is ``None``.  Returns the sorted
    columns, or ``None`` when no pool admits a matrix.
    """
    cones = [views[j].above(base[j], xi) for j in range(len(base))]
    slots = [(j, u) for j in range(len(base)) for u in cones[j]]
    for pool in pools:
        candidates = {(j, u): tuple(m for chi in pool for m in views[j].above(u, chi))
                      for (j, u) in slots}
        if any(not candidates[s] for s in slots):
            continue
        found = prefiltered_assignment(
            slots, candidates, cross_consistent(len(base), value, reference), budget)
        if found is not None:
            return tuple(sort_nodes(found[(j, u)] for u in cones[j])
                         for j in range(len(base)))
    return None


def sdhl_search(coloring: Coloring, trees=None, caps: Caps | None = None):
    """First somewhere-dense successor-level witness in canonical scan order.

    Scan order: base height, base (coordinatewise canonical), matrix
    level, matrix (one member per successor cone, product order).  A
    monochromatic dense matrix exists iff one with exactly one member per
    cone does, so the scan is complete.  Returns ``None`` when the whole
    truncation admits no witness.
    """
    caps = caps or Caps()
    trees = trees if trees is not None else coloring.spaces
    views = _views(trees, coloring.arity)
    height = min(v.height for v in views)
    budget = StepBudget(caps.max_steps)
    try:
        for ht in range(height - 1):
            levels = [(eta,) for eta in range(ht + 1, height)]
            for base in itertools.product(*(v.level(ht) for v in views)):
                matrix = _dense_matrix(views, base, ht + 1, levels,
                                       coloring.evaluate, None, budget)
                if matrix is not None:
                    # the matrix is monochromatic: any member tuple gives its color
                    color = coloring.evaluate(tuple(col[0] for col in matrix))
                    return SDHLWitness(base=base, matrix=matrix, color=color)
    except BudgetExhausted:
        raise CapExceededError(caps.max_steps,
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
        levels = [(chi,) for chi in range(eta, height)]
        if _dense_matrix(views, base, eta, levels, value, color, budget) is None:
            yield eta


def check_dshl_witness(base, color, coloring: Coloring, trees=None,
                       caps: Caps | None = None) -> DenseSetCheck:
    """Dense-set check: a monochromatic dominating level matrix at every level.

    For each level ``eta`` above the base there must be a level matrix of
    the given color whose members dominate every tuple at level ``eta``
    above the base.  ``asym_ok`` reports the root-base refinement: color 0
    witnesses are expected to sit at the roots.
    """
    caps = caps or Caps()
    trees = trees if trees is not None else coloring.spaces
    views = _views(trees, coloring.arity)
    base = tuple(base)
    if len({views[j].level_of(base[j]) for j in range(len(base))}) != 1:
        raise InvalidInputError(f"base {base} is not a level sequence")
    budget = StepBudget(caps.max_steps)
    try:
        violations = [f"no dominating matrix of color {color} at level {eta}"
                      for eta in _undense_levels(views, base, color,
                                                 coloring.evaluate, budget)]
    except BudgetExhausted:
        raise CapExceededError(caps.max_steps, "dense-set check exceeded its budget")
    roots = tuple(v.level(0)[0] for v in views)
    asym_ok = (color != 0) or (base == roots)
    return DenseSetCheck(not violations, asym_ok, tuple(violations))


def dshl_search(coloring: Coloring, trees=None, caps: Caps | None = None):
    """First (base, color) passing the dense-set check, canonical order.

    One step budget covers the whole scan.  A (base, color) pair is
    dropped at its first level without a dominating matrix.
    """
    caps = caps or Caps()
    trees = trees if trees is not None else coloring.spaces
    views = _views(trees, coloring.arity)
    height = min(v.height for v in views)
    budget = StepBudget(caps.max_steps)
    try:
        for ht in range(height - 1):
            for base in itertools.product(*(v.level(ht) for v in views)):
                for color in range(coloring.colors):
                    undense = _undense_levels(views, base, color,
                                              coloring.evaluate, budget)
                    if next(undense, None) is None:
                        return base, color
    except BudgetExhausted:
        raise CapExceededError(caps.max_steps, "dense-set search exceeded its budget")
    return None


# ---------------------------------------------------------------------------
# monochromatic strong subtrees


def check_hl_strong_subtree(reports, coloring: Coloring) -> ValidationResult:
    """Check that the level products of the subtrees are monochromatic.

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
    views = [as_view(r) for r in reports]
    violations: list[str] = []
    reference = None
    for xi in range(views[0].height):
        for tup in itertools.product(*(v.level(xi) for v in views)):
            got = coloring.evaluate(tup)
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

    Unlike the successor-level witness the matrix members may sit at
    mixed levels at or above the density level.
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
                   density_level=int(doc["density_level"]),
                   color=int(doc["color"]))


def check_somewhere_dense_witness(witness: SomewhereDenseWitness,
                                  coloring: Coloring, trees=None) -> ValidationResult:
    """Literal check of the free-level dense clause plus monochromaticity."""
    trees = trees if trees is not None else coloring.spaces
    views = _views(trees, coloring.arity)
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


def sdhl_prime_search(coloring: Coloring, trees=None, caps: Caps | None = None):
    """First free-level witness in canonical scan order.

    Bases scan over level sequences; the density level is free; matrix
    members come one per cone, drawn from any level at or above the
    density level (restricted to a single level for colorings defined on
    level sequences only).
    """
    caps = caps or Caps()
    trees = trees if trees is not None else coloring.spaces
    views = _views(trees, coloring.arity)
    height = min(v.height for v in views)
    budget = StepBudget(caps.max_steps)
    try:
        for ht in range(height - 1):
            for base in itertools.product(*(v.level(ht) for v in views)):
                for xi in range(ht + 1, height):
                    pools = ([(chi,) for chi in range(xi, height)]
                             if coloring.domain == "level" else [range(xi, height)])
                    matrix = _dense_matrix(views, base, xi, pools,
                                           coloring.evaluate, None, budget)
                    if matrix is not None:
                        color = coloring.evaluate(tuple(col[0] for col in matrix))
                        return SomewhereDenseWitness(
                            base=base, matrix=matrix, density_level=xi, color=color)
    except BudgetExhausted:
        raise CapExceededError(caps.max_steps,
                               "free-level witness scan exceeded its budget")
    return None


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


def _witness_groups(d, b, n):
    """Minimal witness candidates as index groups over the level domain.

    The level domain excludes height-0 tuples: no witness ever evaluates
    them, so their colors are irrelevant to witness existence.
    """
    spaces = [TreeSpace.uniform(b, n)] * d
    views = [as_view(s) for s in spaces]
    domain = [tup for xi in range(1, n)
              for tup in itertools.product(*(v.level(xi) for v in views))]
    index = {tup: i for i, tup in enumerate(domain)}
    groups = []
    for ht in range(n - 1):
        for base in itertools.product(*(v.level(ht) for v in views)):
            cones = [views[j].above(base[j], ht + 1) for j in range(len(base))]
            for eta in range(ht + 1, n):
                per_cone = [[views[j].above(u, eta) for u in cones[j]]
                            for j in range(d)]
                coord_selections = [
                    list(itertools.product(*percoord)) for percoord in per_cone
                ]
                for pick in itertools.product(*coord_selections):
                    cols = [sort_nodes(chosen) for chosen in pick]
                    members = list(itertools.product(*cols))
                    groups.append(tuple(index[m] for m in members))
    return domain, groups


def _witness_test(groups):
    """Predicate: some witness group is monochromatic under ``colors``.

    ``colors`` is any sequence of color values indexed like the level
    domain: the exhaustive scan's tuples and the sampler's bytes alike.
    Each group has at least ``b ** d >= 2`` members, so its itemgetter
    returns a tuple.
    """
    getters = [operator.itemgetter(*g) for g in groups]

    def has_witness(colors):
        for get in getters:
            vals = get(colors)
            if vals.count(vals[0]) == len(vals):
                return True
        return False

    return has_witness


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


def _coloring_from_assignment(d, b, n, domain, assignment):
    spaces = [TreeSpace.uniform(b, n)] * d
    views = [as_view(s) for s in spaces]
    table = {tup: 0 for tup in itertools.product(*(v.level(0) for v in views))}
    table.update({tup: int(c) for tup, c in zip(domain, assignment)})
    r = max(2, max(assignment, default=0) + 1)
    return table_coloring(spaces, d, r, table, domain="level", check_total=False)


def finite_hl_number(d, b, r, *, mode="exhaustive", samples=1000, seed=0,
                     max_height=8, budget=2_000_000) -> FiniteHLReport:
    """Least truncation height at which every coloring has a witness.

    Exhaustive mode walks heights upward, enumerating every coloring of
    the level domain (height-0 tuples excluded; no witness evaluates
    them) and checking witness existence against the precomputed minimal
    candidates.  A height with no counterexample is the answer.  When the
    enumeration would exceed ``budget`` colorings the scan stops with a
    cap-exceeded error carrying the bounds found so far.  Randomized mode
    samples colorings at each height instead and reports a lower bound.
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

    draw = _color_sampler(random.Random(seed), r)
    checked_total = 0
    lower = 1  # height 1 has no successor level: automatic failure
    counter_doc = None
    counter_at = None

    for n in range(2, max_height + 1):
        if d * (b ** n) > 200_000:
            raise CapExceededError(budget, f"tree of height {n} outside size budget")
        domain, groups = _witness_groups(d, b, n)
        size = len(domain)
        has_witness = _witness_test(groups)

        if mode == "exhaustive":
            total = r ** size
            if total > budget:
                raise CapExceededError(
                    budget,
                    f"{total} colorings at height {n} exceed the budget",
                    partial=FiniteHLReport(
                        d=d, b=b, r=r, mode=mode, value=None, lower_bound=lower,
                        counterexample_height=counter_at,
                        counterexample=counter_doc,
                        colorings_checked=checked_total,
                        note=f"exhaustive scan stopped before height {n}"),
                )
            counterexample = None
            for colors in itertools.product(range(r), repeat=size):
                checked_total += 1
                if not has_witness(colors):
                    counterexample = colors
                    break
            if counterexample is None:
                return FiniteHLReport(
                    d=d, b=b, r=r, mode=mode, value=n, lower_bound=n - 1,
                    counterexample_height=counter_at, counterexample=counter_doc,
                    colorings_checked=checked_total)
            counter_doc = _coloring_from_assignment(d, b, n, domain,
                                                    counterexample).to_json()
            counter_at = n
            lower = n
        else:
            counterexample = None
            for _ in range(samples):
                colors = draw(size)
                checked_total += 1
                if not has_witness(colors):
                    counterexample = colors
                    break
            if counterexample is None:
                return FiniteHLReport(
                    d=d, b=b, r=r, mode=mode, value=None, lower_bound=lower,
                    counterexample_height=counter_at, counterexample=counter_doc,
                    colorings_checked=checked_total, samples=samples, seed=seed,
                    note=f"no counterexample among {samples} samples at height {n}")
            counter_doc = _coloring_from_assignment(d, b, n, domain,
                                                    counterexample).to_json()
            counter_at = n
            lower = n
    return FiniteHLReport(
        d=d, b=b, r=r, mode=mode, value=None, lower_bound=lower,
        counterexample_height=counter_at, counterexample=counter_doc,
        colorings_checked=checked_total,
        samples=samples if mode == "randomized" else None,
        seed=seed if mode == "randomized" else None,
        note=f"every height up to {max_height} admits a counterexample")


# ---------------------------------------------------------------------------
# oracle-driven monochromatic subtree construction


class DefaultLargenessOracle:
    """Finite stand-in for a largeness notion on level sets.

    A color is "large above a node" when, for at least half of the levels
    in the top half of the truncation (restricted to levels at or above
    the node), the node has an extension of that color.  This keeps the
    two properties the construction relies on: a color that appears
    cofinally often is large, and a color that dies out is not.
    """

    def __init__(self, threshold: Fraction = Fraction(1, 2)):
        self.threshold = threshold

    def is_large(self, space: TreeSpace, coloring: Coloring, node: str,
                 color: int) -> bool:
        n = space.height
        start = max((n + 1) // 2, len(node))
        window = range(start, n)
        if not window:
            return True
        hits = 0
        for alpha in window:
            if any(coloring.evaluate((ext,)) == color
                   for ext in space.extensions(node, alpha)):
                hits += 1
        return Fraction(hits, len(window)) >= self.threshold

    def select_level(self, space: TreeSpace, coloring: Coloring, nodes, color: int,
                     min_level: int):
        """First level at which every node has an extension of the color."""
        for eta in range(min_level, space.height):
            if all(any(coloring.evaluate((ext,)) == color
                       for ext in space.extensions(node, eta))
                   for node in nodes):
                return eta
        return None


@dataclass(frozen=True)
class BuildOutcome:
    success: bool
    report: SubtreeReport | None
    color: int | None
    failure: str = ""

    def to_json(self) -> dict:
        return {"success": self.success,
                "report": self.report.to_json() if self.report else None,
                "color": self.color,
                "failure": self.failure}


def build_monochromatic_subtree(coloring: Coloring, space: TreeSpace | None = None,
                                oracle=None) -> BuildOutcome:
    """Grow a monochromatic strong subtree guided by a largeness oracle.

    Root selection: if color 0 is large above every node, the root region
    is the ambient root with color 0 (the asymmetric refinement);
    otherwise scan above the first node where color 0 dies for a region
    above which some other color is large everywhere.  The root is the
    first node of the chosen color in the region, and each stage extends
    every ambient successor to a common level where the color persists,
    taking canonically least extensions.
    """
    if coloring.arity != 1:
        raise InvalidInputError("the subtree builder works on unary colorings")
    space = space if space is not None else coloring.spaces[0]
    oracle = oracle or DefaultLargenessOracle()
    every = space.all_nodes()

    region, color = None, None
    if all(oracle.is_large(space, coloring, q, 0) for q in every):
        region, color = space.root, 0
    else:
        bad = next(q for q in every
                   if not oracle.is_large(space, coloring, q, 0))
        for q in (x for x in every if x.startswith(bad)):
            for gamma in range(coloring.colors):
                above = [x for x in every if x.startswith(q)]
                if all(oracle.is_large(space, coloring, x, gamma) for x in above):
                    region, color = q, gamma
                    break
            if region is not None:
                break
        if region is None:
            return BuildOutcome(False, None, None,
                                "no region with a uniformly large color")

    root = next((x for x in every
                 if x.startswith(region) and coloring.evaluate((x,)) == color), None)
    if root is None:
        raise OracleContradictionError(region, color, space.height - 1)

    levels = [len(root)]
    layers = [[root]]
    while levels[-1] + 1 < space.height:
        successors = []
        for node in layers[-1]:
            successors.extend(space.successors(node))
        for t in successors:
            if not oracle.is_large(space, coloring, t, color):
                return BuildOutcome(
                    False, None, None,
                    f"stage {len(levels)}: successor {t!r} lost largeness")
        eta = oracle.select_level(space, coloring, successors, color, levels[-1] + 1)
        if eta is None:
            raise OracleContradictionError(successors[0], color, space.height - 1)
        picked = []
        for t in successors:
            choice = next(ext for ext in space.extensions(t, eta)
                          if coloring.evaluate((ext,)) == color)
            picked.append(choice)
        levels.append(eta)
        layers.append(sorted(picked, key=node_key))
    nodes = tuple(n for layer in layers for n in layer)
    report = SubtreeReport(space=space, nodes=nodes, level_set=tuple(levels))
    return BuildOutcome(True, report, color)
