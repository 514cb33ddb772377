"""Polarized partition machinery and its degree calculators.

The type of a tuple drawn from a product of trees is the permutation
sorting its coordinate heights.  Coloring each tuple by its type uses
``(d+1)!`` colors and no product of sufficiently spread subtrees can do
better, which makes ``(d+1)!`` the exact polarized degree; the tangent
numbers and the Devlin-style lower bound quantify the unpolarized
analogue.  The constructive half is a round-robin growth: trees take
turns picking nodes at strictly increasing heights, two incomparable
extensions per terminal, rejecting candidates that would mix colors
within any one type.  On success every realized color is pinned to a
type, so at most ``(d+1)!`` colors survive on the product.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidInputError, PreconditionError
from .search import (
    BudgetExhausted,
    StepBudget,
    typed_consistent,
)
from .subtrees import SubtreeReport, ValidationResult
from .tailcone import _view_report, grow_shared_subtrees
from .trees import ConeMemo, node_key
from .witness import Coloring, _level_domain, first_level

# ---------------------------------------------------------------------------
# degree numerics


def tangent(n: int) -> int:
    """Degree count by the binomial convolution recursion, exactly."""
    if n < 1:
        raise InvalidInputError(f"tangent index must be positive, got {n}")
    values = [0, 1]
    for m in range(2, n + 1):
        total = 0
        for i in range(1, m):
            total += math.comb(2 * m - 2, 2 * i - 1) * values[i] * values[m - i]
        values.append(total)
    return values[n]


def devlin_lower_bound(d: int) -> int:
    """Unpolarized degree lower bound: t_d + 2^(d-1) * (-1 + prod i!)."""
    if d < 2:
        raise InvalidInputError(f"the bound is defined for d >= 2, got {d}")
    prod = 1
    for i in range(d):
        prod *= math.factorial(i)
    return tangent(d) + (2 ** (d - 1)) * (prod - 1)


@dataclass(frozen=True)
class DegreeTable:
    """Tangent numbers, Devlin lower bounds, and factorial polarized degrees."""

    limit: int
    tangents: tuple[int, ...]
    devlin: tuple[int, ...]
    factorials: tuple[int, ...]

    def to_json(self) -> dict:
        return {"limit": self.limit,
                "rows": [{"d": d,
                          "tangent": self.tangents[d - 1],
                          "devlin_lower_bound": (self.devlin[d - 2]
                                                 if d >= 2 else None),
                          "polarized_degree": self.factorials[d - 1]}
                         for d in range(1, self.limit + 1)]}


def build_degree_table(limit: int) -> DegreeTable:
    if limit < 1:
        raise InvalidInputError(f"table limit must be positive, got {limit}")
    return DegreeTable(
        limit=limit,
        tangents=tuple(tangent(d) for d in range(1, limit + 1)),
        devlin=tuple(devlin_lower_bound(d) for d in range(2, limit + 1)),
        factorials=tuple(math.factorial(d + 1) for d in range(1, limit + 1)),
    )


# ---------------------------------------------------------------------------
# height-order types


def permutation_rank(perm) -> int:
    """Lexicographic rank of a permutation of range(len(perm))."""
    perm = tuple(perm)
    k = len(perm)
    rank = 0
    for i, p in enumerate(perm):
        smaller = sum(1 for q in perm[i + 1:] if q < p)
        rank += smaller * math.factorial(k - 1 - i)
    return rank


def height_permutation_coloring(spaces) -> Coloring:
    """Color a tuple by the rank of its height-sorting permutation.

    Equal heights are broken stably by coordinate index, so the coloring
    is total; on distinct-height tuples it is the pure type coloring.
    """
    arity = len(spaces)
    if arity < 2:
        raise InvalidInputError(f"dimension must be positive, got {arity - 1}")
    colors = math.factorial(arity)

    @functools.cache  # at most one entry per tuple of factor heights
    def height_value(heights):
        return permutation_rank(sorted(range(arity), key=heights.__getitem__))

    def fn(tup):
        return height_value(tuple(len(x) for x in tup))

    return Coloring(colors, spaces, fn, domain="full", height_fn=height_value)


@dataclass(frozen=True)
class LowerBoundReport:
    realizes_all: bool
    total_types: int
    missing: tuple[int, ...]
    combos_per_type: dict

    def to_json(self) -> dict:
        return {"realizes_all": self.realizes_all,
                "total_types": self.total_types,
                "missing": list(self.missing),
                "combos_per_type": {str(k): v
                                    for k, v in sorted(self.combos_per_type.items())}}


def verify_lower_bound(reports) -> LowerBoundReport:
    """Check that distinct-height tuples of the product realize every type.

    The product of ``d + 1`` reports has dimension ``d``.  Works on
    height combinations: a type is realized as soon as some strictly
    ordered choice of one occupied level per factor sorts by that
    permutation, which is what forces the full ``(d+1)!`` colors under
    the height-permutation coloring.  The picks of each type are
    counted, not listed: walking the occupied heights upward, ``ways[v]``
    counts the increasing picks for the permutation's first coordinates
    that end at height ``v``.
    """
    d = len(reports) - 1
    if d < 1:
        raise InvalidInputError(f"dimension must be positive, got {d}")
    for idx, report in enumerate(reports):
        if report.height < d + 1:
            raise PreconditionError(
                f"insufficient spread: factor {idx} has {report.height} levels, "
                f"need at least {d + 1}"
            )
    counts = [Counter(report.ambient_level(xi) for xi in range(report.height))
              for report in reports]
    occupied = sorted(set().union(*counts))
    combos = {}
    # permutations come in lexicographic order, so their index is their rank
    for rank, perm in enumerate(itertools.permutations(range(d + 1))):
        ways = [counts[perm[0]][v] for v in occupied]
        for coord in perm[1:]:
            factor, below, ways_up = counts[coord], 0, []
            for v, w in zip(occupied, ways):
                ways_up.append(below * factor[v])
                below += w
            ways = ways_up
        picks = sum(ways)
        if picks:
            combos[rank] = picks
    total = math.factorial(d + 1)
    missing = tuple(r for r in range(total) if r not in combos)
    return LowerBoundReport(realizes_all=not missing, total_types=total,
                            missing=missing, combos_per_type=combos)


# ---------------------------------------------------------------------------
# almost-all homogenization


@dataclass(frozen=True)
class PatternReport:
    pattern: tuple[int, ...]
    color: int | None
    violations: int
    total: int

    @property
    def fraction(self) -> Fraction:
        return Fraction(self.violations, self.total) if self.total else Fraction(0)

    def to_json(self) -> dict:
        return {"pattern": list(self.pattern), "color": self.color,
                "violations": self.violations, "total": self.total,
                "fraction": str(self.fraction)}


@dataclass(frozen=True)
class AlmostAllReport:
    """Subtrees plus one color per height-order pattern.

    For each pattern the report counts, exactly, the strictly ordered
    tuples of the output product whose color differs from the pattern's
    color; success means every fraction is at most the requested budget.
    """

    success: bool
    reports: tuple[SubtreeReport, ...] | None
    patterns: tuple[PatternReport, ...]
    epsilon: Fraction
    route: str
    failure: str = ""
    capped: bool = False

    @property
    def max_fraction(self) -> Fraction:
        return max((p.fraction for p in self.patterns), default=Fraction(0))

    def to_json(self) -> dict:
        return {"success": self.success,
                "reports": ([r.to_json() for r in self.reports]
                            if self.reports else None),
                "patterns": [p.to_json() for p in self.patterns],
                "epsilon": str(self.epsilon),
                "max_fraction": str(self.max_fraction),
                "route": self.route,
                "failure": self.failure,
                "capped": self.capped}


def _full_report(view) -> SubtreeReport:
    levels = range(view.height)
    return _view_report(view, (n for xi in levels for n in view.level(xi)), levels)


def _tally_types(pools, color):
    """Color weights per height-order type, from one walk of the product.

    ``pools[k]`` lists factor ``k``'s ``(item, height, weight)`` entries.
    A pick of one entry per factor counts when its heights are distinct:
    its type is the permutation sorting them, and it adds the product of
    its weights to the color of its items.
    """
    arity = len(pools)
    tally: dict = {}
    for combo in itertools.product(*pools):
        heights = [entry[1] for entry in combo]
        if len(set(heights)) < arity:
            continue
        counts = tally.setdefault(
            tuple(sorted(range(arity), key=heights.__getitem__)), Counter())
        counts[color(tuple(entry[0] for entry in combo))] += \
            math.prod(entry[2] for entry in combo)
    return tally


def _measure_patterns(f, views, gamma):
    """Exact per-pattern violation counts over strictly ordered tuples."""
    tally = _tally_types([[(node, v.ambient_level(xi), 1)
                           for xi in range(v.height) for node in v.level(xi)]
                          for v in views], f.evaluate)
    out = []
    for pattern in itertools.permutations(range(f.arity)):
        counts = tally.get(pattern, Counter())
        want = gamma.get(pattern)
        total = sum(counts.values())
        # no color is None, so an unpinned pattern counts every pick
        out.append(PatternReport(pattern=pattern, color=want,
                                 violations=total - counts[want], total=total))
    return tuple(out)


def _measure_height_factored(f, views):
    """Quick route: tally height combinations instead of tuples."""
    tally = _tally_types([[(v.ambient_level(xi), v.ambient_level(xi),
                            len(v.level(xi))) for xi in range(v.height)]
                          for v in views], f.height_fn)
    out = []
    for pattern in itertools.permutations(range(f.arity)):
        counts = tally.get(pattern, Counter())
        # majority color per pattern, ties broken toward the smaller color
        best = min(counts, key=lambda c: (-counts[c], c), default=None)
        total = sum(counts.values())
        out.append(PatternReport(pattern=pattern, color=best,
                                 violations=total - counts[best], total=total))
    return tuple(out)


class _ReadPins(dict):
    """A color vector that records, in ``read``, each pin ``get`` hands out."""

    def __init__(self, items):
        super().__init__(items)
        self.read = {}

    def get(self, pattern, default=None):
        got = self.read[pattern] = super().get(pattern, default)
        return got


def _unrefuted(n, colors, nogoods):
    """The vectors of ``range(colors)`` ** ``n`` in product order that no
    nogood refutes, tested against the nogoods recorded when reached.

    A nogood lists ``(position, color)`` pairs and refutes the vectors
    that agree with it there.  So a refuted vector's whole block, the
    vectors sharing its entries up to the nogood's last position, is
    skipped at once.
    """
    vec = [0] * n
    while True:
        hit = next((nogood for nogood in nogoods
                    if all(vec[i] == color for i, color in nogood)), None)
        if hit is None:
            yield tuple(vec)
            last = n - 1
        else:
            last = max((i for i, _ in hit), default=-1)
        # the next vector past the block that shares vec[:last + 1]
        while last >= 0 and vec[last] == colors - 1:
            last -= 1
        if last < 0:
            return
        vec[last] += 1
        vec[last + 1:] = [0] * (n - last - 1)


def almost_all_homogenize(f: Coloring, epsilon=Fraction(1, 10),
                          h=None, budget: StepBudget | None = None) -> AlmostAllReport:
    """Shrink to subtrees on which each height-order pattern is near-constant.

    Height-determined colorings are measured directly over height
    combinations.  Otherwise a staged construction scans target heights
    (deepest first, down to the arity: below it no tuple is strictly
    ordered), root tuples, and color vectors canonically, growing
    shared-level subtrees in which every strictly ordered tuple whose top
    node is new gets the pattern's color; a completed construction has
    zero violating tuples by construction and is re-measured exactly.
    A vector is skipped, at no step, when a failed attempt on the same
    target height and roots read only pins on which the vector agrees
    (a nogood): its attempt would fail alike.
    """
    budget = budget or StepBudget()
    if f.arity < 2:
        raise InvalidInputError("homogenization needs arity at least 2")
    if f.domain != "full":
        raise InvalidInputError("strictly ordered tuples mix heights; a "
                                "full-domain coloring is required")
    views = f.spaces
    arity = f.arity
    # a strictly ordered tuple has its nodes on ``arity`` distinct levels
    least = "two" if arity == 2 else arity
    if h is not None and h < arity:
        raise InvalidInputError(f"need at least {least} subtree levels, got {h}")
    epsilon = Fraction(epsilon)

    if f.height_fn is not None:
        patterns = _measure_height_factored(f, views)
        ok = all(p.fraction <= epsilon for p in patterns)
        return AlmostAllReport(
            success=ok,
            reports=tuple(_full_report(v) for v in views),
            patterns=patterns, epsilon=epsilon, route="height-factored",
            failure="" if ok else "height tallies exceed the exception budget")

    perms = list(itertools.permutations(range(arity)))
    position = {pattern: i for i, pattern in enumerate(perms)}
    height = min(v.height for v in views)
    h_max = min(h if h is not None else height, height)
    if h_max < arity:
        raise InvalidInputError(f"need at least {least} subtree levels, the lowest "
                                f"factor has {height}")
    # the attempts share their cones and their coloring values
    cones = [ConeMemo(v) for v in views]
    value = functools.cache(f.evaluate)

    def attempt(h_goal, roots, gamma):
        def stage_factory(stage, level_set, layers):
            # every pattern is pinned, so a choice's verdict is its own row's,
            # taken against the empty assignment
            return typed_consistent(
                value, [tuple((node, lvl) for lvl in range(stage)
                              for node in layers[lvl][k]) for k in range(arity)],
                gamma)

        return grow_shared_subtrees(cones, roots, h_goal, stage_factory,
                                    budget, label="almost-all")

    def capped(failure):
        return AlmostAllReport(success=False, reports=None, patterns=(),
                               epsilon=epsilon, route="staged",
                               failure=failure, capped=True)

    for h_goal in range(h_max, arity - 1, -1):
        for roots in _level_domain(views, h_goal):
            # an attempt reads its vector only through the filter's
            # pinned.get, so each failure leaves the pins it read
            nogoods: list = []
            for gamma_vec in _unrefuted(len(perms), f.colors, nogoods):
                gamma = _ReadPins(zip(perms, gamma_vec))
                outcome = attempt(h_goal, roots, gamma)
                if outcome.capped:
                    return capped("budget exhausted during the staged scan")
                if outcome.success:
                    # one step per tuple of the product the measurement walks
                    try:
                        budget.spend(math.prod(len(r.nodes)
                                               for r in outcome.reports))
                    except BudgetExhausted:
                        return capped("budget exhausted while measuring "
                                      "the construction")
                    patterns = _measure_patterns(f, outcome.reports, gamma)
                    ok = all(p.fraction <= epsilon for p in patterns)
                    return AlmostAllReport(
                        success=ok, reports=outcome.reports,
                        patterns=patterns, epsilon=epsilon,
                        route="staged",
                        failure="" if ok else
                        "construction exceeds the exception budget")
                nogoods.append([(position[pattern], color)
                                for pattern, color in gamma.read.items()])
    return AlmostAllReport(
        success=False, reports=None, patterns=(), epsilon=epsilon,
        route="staged",
        failure="no root tuple and color vector admits the construction")


# ---------------------------------------------------------------------------
# splitting trees and the round-robin construction


def validate_splitting_tree(report: SubtreeReport,
                            min_depth: int) -> ValidationResult:
    """Relaxed shape check for picked trees: rooted, parent-linked, splitting.

    Unlike a strong subtree, no clause about ambient successors is
    imposed: the tree only needs a unique root, a picked proper ancestor
    for every non-root node, at least two children under every internal
    node, and every leaf at least ``min_depth`` split levels deep.
    """
    nodes = sorted(report.nodes, key=node_key)
    violations: list[str] = []
    if not nodes:
        return ValidationResult(False, ("empty node set",))
    root = nodes[0]
    others = nodes[1:]
    for node in others:
        if not node.startswith(root):
            violations.append(f"node {node!r} does not extend the root {root!r}")
    parent = {}
    node_set = set(nodes)
    for node in others:
        anc = [p for p in node_set if p != node and node.startswith(p)]
        if not anc:
            violations.append(f"node {node!r} has no picked ancestor")
            continue
        parent[node] = max(anc, key=len)
    children: dict[str, list[str]] = {n: [] for n in nodes}
    for node, par in parent.items():
        children[par].append(node)
    depth = {root: 0}
    for node in others:
        if node in parent:
            depth[node] = depth.get(parent[node], 0) + 1
    for node in nodes:
        kids = children[node]
        if kids:
            if len(kids) < 2:
                violations.append(f"internal node {node!r} has a single child")
        else:
            if depth.get(node, 0) < min_depth:
                violations.append(
                    f"leaf {node!r} sits at depth {depth.get(node, 0)}, "
                    f"need {min_depth}"
                )
    return ValidationResult(not violations, tuple(violations))


@dataclass(frozen=True)
class PolarizedOutcome:
    """Picked trees, the per-type color table, and the realized colors."""

    success: bool
    reports: tuple[SubtreeReport, ...] | None
    gamma: dict | None
    realized: tuple[int, ...]
    failure: str = ""
    capped: bool = False

    def to_json(self) -> dict:
        return {"success": self.success,
                "reports": ([r.to_json() for r in self.reports]
                            if self.reports else None),
                "gamma": ({",".join(map(str, k)): v
                           for k, v in sorted(self.gamma.items())}
                          if self.gamma is not None else None),
                "realized": list(self.realized),
                "failure": self.failure,
                "capped": self.capped}


def _twin_rule(agree):
    """The filter ``agree`` with a terminal's two children kept apart.

    Slots are ``(tree, terminal, child)``, a terminal's children next to
    each other.  After a terminal's first child is picked, its node leaves
    the second child's live candidates at no step, and ``agree`` narrows
    what is left.
    """

    def consistent(partial, later, spend):
        if partial:
            (tree, terminal, _), twin = next(reversed(partial.items()))
            slot, live = later[0]
            if slot == (tree, terminal, 1) and twin in live:
                live = [choice for choice in live if choice != twin]
                if not live:
                    return [(slot, live)]
                found = agree(partial, [(slot, live)] + later[1:], spend)
                if not found or found[0][0] != slot:
                    found.insert(0, (slot, live))
                return found
        return agree(partial, later, spend)

    return consistent


def polarized_search(f: Coloring, depth: int, budget: StepBudget | None = None,
                     transcript=None) -> PolarizedOutcome:
    """Round-robin growth of one splitting tree per factor, colors by type.

    Trees take turns picking: first a root each, then per round two
    incomparable extensions of every terminal, always at a height band
    strictly above everything picked so far (one band per tree per
    round).  A candidate is rejected when some cross-tree tuple through
    it would give its height-order type a second color.  Every tuple of
    the finished product therefore wears its type's pinned color, so at
    most ``(arity)!`` colors are realized.
    """
    budget = budget or StepBudget()
    if f.arity < 2:
        raise InvalidInputError("the construction needs at least two factors")
    if f.domain != "full":
        raise InvalidInputError("cross-tree tuples mix heights; a full-domain "
                                "coloring is required")
    if depth < 1:
        raise InvalidInputError(f"splitting depth must be positive, got {depth}")
    views = f.spaces
    k = f.arity
    height = min(v.height for v in views)
    # every band takes a level of its own, one band per tree per round
    if (depth + 1) * k > height:
        raise InvalidInputError(f"depth {depth} needs {(depth + 1) * k} levels "
                                f"across {k} trees, the lowest has {height}")

    picked: list[dict] = [dict() for _ in range(k)]  # node -> band
    tree_levels: list[list[int]] = [[] for _ in range(k)]
    terminals: list[list[str]] = [[v.root] for v in views]
    gamma: dict = {}
    next_level = 0

    band = 0
    for round_idx in range(depth + 1):
        # round 0 picks one node above each root, later rounds two per terminal
        children = (0,) if round_idx == 0 else (0, 1)
        for tree in range(k):
            slots = [(tree, p, c) for p in terminals[tree] for c in children]
            agree = typed_consistent(f.evaluate,
                                     [sorted(picked[i].items()) for i in range(k)], gamma)
            consistent = _twin_rule(agree)

            try:
                found = first_level(
                    slots, range(next_level, height),
                    lambda lam: {slot: views[tree].extensions(slot[1], lam)
                                 for slot in slots},
                    consistent, budget)
            except BudgetExhausted:
                return PolarizedOutcome(
                    False, None, None, (),
                    failure=f"budget exhausted at round {round_idx}, "
                            f"tree {tree}", capped=True)
            if found is None:
                return PolarizedOutcome(
                    False, None, None, (),
                    failure=f"no viable band for round {round_idx}, tree {tree}")
            lam, assignment = found
            new_nodes = sorted(set(assignment.values()), key=node_key)
            for node in new_nodes:
                picked[tree][node] = band
            # Pin the new tuples' types.  Bands never tie across trees, and the
            # filter gave every new node one value on each type, so the first
            # new node's row holds every type of the band with its value.
            gamma.update(agree.row(tree, new_nodes[0]))
            tree_levels[tree].append(lam)
            terminals[tree] = new_nodes
            next_level = lam + 1
            if transcript is not None:
                transcript.append({"event": "polarized-band",
                                   "round": round_idx, "tree": tree,
                                   "view_level": lam,
                                   "nodes": list(new_nodes)})
            band += 1

    reports = tuple(_view_report(views[tree], picked[tree], tree_levels[tree])
                    for tree in range(k))
    # Every tuple of the product was checked against its type's pinned
    # color when its highest-band node was picked.
    realized = sorted(set(gamma.values()))
    return PolarizedOutcome(True, reports, gamma, tuple(realized))
