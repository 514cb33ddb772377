"""Independent reference implementations used to freeze expected values.

Every function here rederives a quantity by a route deliberately
different from the library's: no shared helpers, different algorithmic
shape (naive enumeration instead of staged search), so that agreement
between the two is evidence and disagreement is a bug in one of them.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction


# ---------------------------------------------------------------------------
# tree order


def lex_key(node: str) -> Fraction:
    """Exact numeric embedding of the node order.

    A node maps to the dyadic value of its digits plus half the next
    step; comparing the embedded values reproduces the order in which a
    node sits above its left subtree and below its right subtree.
    """
    total = Fraction(0)
    for i, digit in enumerate(node):
        total += Fraction(int(digit), 2 ** (i + 1))
    return total + Fraction(1, 2 ** (len(node) + 1))


def lex_sorted_by_key(nodes):
    return tuple(sorted(nodes, key=lex_key))


# ---------------------------------------------------------------------------
# binary tree scaffolding (strings only, no library types)


def all_nodes(n: int):
    out = []
    for length in range(n):
        for bits in itertools.product("01", repeat=length):
            out.append("".join(bits))
    out.sort(key=lambda s: (len(s), s))
    return out


def level_nodes(length: int):
    return ["".join(bits) for bits in itertools.product("01", repeat=length)]


def random_strong_subtree(rng, level_set):
    """Nodes of a random binary strong subtree on ``level_set``."""
    def fill(length):
        return "".join(rng.choice("01") for _ in range(length))

    layers = [[fill(level_set[0])]]
    for lo, hi in zip(level_set, level_set[1:]):
        layers.append([node + digit + fill(hi - lo - 1)
                       for node in layers[-1] for digit in "01"])
    return [n for layer in layers for n in layer]


# ---------------------------------------------------------------------------
# strong subtrees by subset scan


def _is_strong_subtree(members, level_set) -> bool:
    by_level = {}
    for node in members:
        by_level.setdefault(len(node), []).append(node)
    if sorted(by_level) != list(level_set):
        return False
    if len(by_level[level_set[0]]) != 1:
        return False
    root = by_level[level_set[0]][0]
    if not all(node.startswith(root) for node in members):
        return False
    for lower, upper in zip(level_set, level_set[1:]):
        upper_set = by_level[upper]
        for node in upper_set:
            if node[:lower] not in by_level[lower]:
                return False
        for parent in by_level[lower]:
            for digit in "01":
                hits = [t for t in upper_set if t.startswith(parent + digit)]
                if len(hits) != 1:
                    return False
        if len(upper_set) != 2 * len(by_level[lower]):
            return False
    return True


def strong_subtrees_by_scan(n: int, level_set):
    """Every strong subtree of the height-``n`` binary truncation, by
    scanning all node subsets and checking the clauses literally."""
    level_set = tuple(level_set)
    nodes = all_nodes(n)
    found = []
    for bits in range(1, 1 << len(nodes)):
        members = [nodes[i] for i in range(len(nodes)) if bits >> i & 1]
        if _is_strong_subtree(members, level_set):
            found.append(tuple(members))
    return found


# ---------------------------------------------------------------------------
# dense-witness existence by naive product scan


def sdhl_exists_by_scan(evaluate, arity: int, n: int, colors: int) -> bool:
    """Existence of a successor-level dense witness, checked naively.

    Uses the one-node-per-cone reduction: a dominating monochromatic
    matrix exists at some level exactly when one choice per successor
    cone can be made monochromatic (a dominating matrix contains such a
    choice; such a choice dominates).  The scan is a full cartesian
    product per (base, level, color) with a complete recheck per combo.
    """
    for ht in range(n - 1):
        layer = level_nodes(ht)
        for base in itertools.product(layer, repeat=arity):
            cones = [(j, base[j] + digit) for j in range(arity)
                     for digit in "01"]
            for eta in range(ht + 1, n):
                tails = ["".join(t) for t in
                         itertools.product("01", repeat=eta - ht - 1)]
                pools = [[stem + tail for tail in tails] for (_, stem) in cones]
                for gamma in range(colors):
                    for combo in itertools.product(*pools):
                        chosen = [[] for _ in range(arity)]
                        for (j, _), node in zip(cones, combo):
                            chosen[j].append(node)
                        if all(evaluate(tup) == gamma
                               for tup in itertools.product(*chosen)):
                            return True
    return False


# ---------------------------------------------------------------------------
# degree numerics


def alternating_count(n: int) -> int:
    """Number of up-down permutations of length 2n-1, by brute force."""
    length = 2 * n - 1
    count = 0
    for perm in itertools.permutations(range(length)):
        ok = True
        for i in range(length - 1):
            if i % 2 == 0:
                ok = perm[i] < perm[i + 1]
            else:
                ok = perm[i] > perm[i + 1]
            if not ok:
                break
        if ok:
            count += 1
    return count


# ---------------------------------------------------------------------------
# index-set map closure without the size bound


def wmap_image_unbounded(ground, raw, d: int, u):
    """Image of ``u`` using families of d-subsets of every size.

    Incremental bitmask scan over all nonempty families; the library
    bounds the family size instead, and the two must agree.
    """
    dsubs = [frozenset(c) for c in itertools.combinations(sorted(ground), d)]
    images = [frozenset(raw[tuple(sorted(v))]) for v in dsubs]
    uset = set(u)
    acc: set = set()
    inter_v: dict = {}
    inter_w: dict = {}
    for mask in range(1, 1 << len(dsubs)):
        low = mask & -mask
        i = low.bit_length() - 1
        rest = mask ^ low
        if rest:
            iv = inter_v[rest] & dsubs[i]
            iw = inter_w[rest] & images[i]
        else:
            iv, iw = dsubs[i], images[i]
        inter_v[mask] = iv
        inter_w[mask] = iw
        if iv <= uset:
            acc |= iw
    return tuple(sorted(acc))


def wmap_image_table(ground, raw, d: int):
    """``image(u)`` equal to ``wmap_image_unbounded(ground, raw, d, u)``.

    Runs the same bitmask scan once per raw map and folds each family's
    image into the family's core (the intersection of its d-subsets), so
    every ``u`` is then answered from one table: the union of the images
    of the cores inside ``u``.
    """
    dsubs = [frozenset(c) for c in itertools.combinations(sorted(ground), d)]
    images = [frozenset(raw[tuple(sorted(v))]) for v in dsubs]
    table: dict = {}
    inter_v: dict = {}
    inter_w: dict = {}
    for mask in range(1, 1 << len(dsubs)):
        low = mask & -mask
        i = low.bit_length() - 1
        rest = mask ^ low
        if rest:
            iv = inter_v[rest] & dsubs[i]
            iw = inter_w[rest] & images[i]
        else:
            iv, iw = dsubs[i], images[i]
        inter_v[mask] = iv
        inter_w[mask] = iw
        table.setdefault(iv, set()).update(iw)

    def image(u):
        uset = set(u)
        acc: set = set()
        for core, iw in table.items():
            if core <= uset:
                acc |= iw
        return tuple(sorted(acc))

    return image


def make_raw_map(seed: int, size: int, d: int):
    """Seeded raw map with nested blocks below and above the ground set.

    The blocks grow with the subset size, which keeps the raw map
    monotone; the closure of such a map satisfies both closure laws,
    giving a family of positive test instances.
    """
    rng = random.Random(seed)
    ground = sorted(rng.sample(range(20, 40), size))
    bots = sorted(rng.sample(range(0, 10), rng.randrange(0, 4)))
    tops = sorted(rng.sample(range(50, 60), rng.randrange(0, 4)))
    bot_cut = sorted(rng.randrange(0, len(bots) + 1) for _ in range(d + 1))
    top_cut = sorted(rng.randrange(0, len(tops) + 1) for _ in range(d + 1))
    raw = {}
    for r in range(d + 1):
        for u in itertools.combinations(ground, r):
            raw[u] = (set(u) | set(bots[:bot_cut[r]])
                      | set(tops[:top_cut[r]]))
    return ground, raw


# ---------------------------------------------------------------------------
# the per-search consistency predicates the shared kernel replaced
#
# Kept verbatim as references: each rebuilds the per-coordinate pools from
# every slot (and, for the partial law and almost-all, every committed
# layer) on every call and evaluates the coloring on every tuple.  The
# polarized, partial-law and almost-all predicates were closures over their
# search's state; their free variables are parameters here.


def mono_selection_consistent(coloring, arity, slots, color_cell):
    """Consistency predicate: all completed cross-coordinate tuples share a color.

    ``color_cell`` is a single-element list carrying a fixed color, or
    ``[None]`` to let the color emerge from the first completed tuple.
    """

    def consistent(partial, slot, choice):
        j = slot[0]
        per_coord: list[list[str]] = [[] for _ in range(arity)]
        for s in slots:
            if s in partial:
                per_coord[s[0]].append(partial[s])
        others_have_nodes = all(per_coord[k] or k == j for k in range(arity))
        if not others_have_nodes:
            return True
        reference = color_cell[0]
        if reference is None and per_coord[j]:
            probe = tuple(per_coord[k][0] for k in range(arity))
            reference = coloring.evaluate(probe)
        parts = [per_coord[k] if k != j else [choice] for k in range(arity)]
        for tup in itertools.product(*parts):
            got = coloring.evaluate(tup)
            if reference is None:
                reference = got
            elif got != reference:
                return False
        return True

    return consistent


def cross_consistent(d, slots, accept):
    """Incremental cross-coordinate product check for staged DFS.

    ``accept(tup) -> bool`` is evaluated on every complete one-node-per-
    coordinate tuple involving the newest choice; earlier tuples were
    checked when their own newest member was assigned.
    """

    def consistent(partial, slot, choice):
        j = slot[0]
        per_coord: list[list[str]] = [[] for _ in range(d)]
        for s in slots:
            if s in partial:
                per_coord[s[0]].append(partial[s])
        if any(not per_coord[k] for k in range(d) if k != j):
            return True
        parts = [per_coord[k] if k != j else [choice] for k in range(d)]
        return all(accept(tup) for tup in itertools.product(*parts))

    return consistent


def pick_consistent(f, k, picked, gamma, slots, tree):
    others = [sorted(picked[i].items()) for i in range(k)]

    def consistent(partial, slot, choice):
        if slot[1] == 1 and (slot[0], 0) in partial \
                and choice == partial[(slot[0], 0)]:
            return False
        tentative = dict(gamma)
        probes = [partial[s] for s in slots if s in partial and s != slot]
        probes.append(choice)
        for node in probes:
            for combo in itertools.product(*(others[i] for i in range(k)
                                             if i != tree)):
                tup = [None] * k
                bands = [None] * k
                pos = 0
                for i in range(k):
                    if i == tree:
                        tup[i] = node
                        bands[i] = 10 ** 6  # the candidate is picked last
                    else:
                        tup[i], bands[i] = combo[pos]
                        pos += 1
                pattern = tuple(sorted(range(k), key=lambda i: bands[i]))
                value = f.evaluate(tuple(tup))
                if pattern in tentative:
                    if tentative[pattern] != value:
                        return False
                else:
                    tentative[pattern] = value
        return True

    return consistent


def partial_consistent(coloring, views, d, base_set, base_list, comp_list,
                       table, stage, level_set, layers, slots):
    """The partial tail-cone law's stage predicate, before the kernel."""

    def consistent(partial, slot, choice):
        j = slot[0]
        if j in base_set:
            return True
        pools = []
        for k in range(d):
            if k == j:
                pools.append(((choice, stage),))
            else:
                entries = [(node, lvl) for lvl in range(stage)
                           for node in layers[lvl][k]]
                entries.extend((partial[s], stage) for s in slots
                               if s[0] == k and s in partial)
                pools.append(tuple(entries))
        for combo in itertools.product(*pools):
            xi = max(combo[k][1] for k in base_list)
            if xi + 1 >= stage:
                continue
            if any(combo[k][1] < xi + 1 for k in comp_list):
                continue
            t_key = tuple(combo[k][0] for k in base_list)
            v_key = tuple(
                views[k].restrict(combo[k][0], level_set[xi + 1])
                for k in comp_list)
            want = table.get((t_key, v_key))
            if want is None:
                continue
            if coloring.evaluate(tuple(combo[k][0] for k in range(d))) != want:
                return False
        return True

    return consistent


def almost_all_consistent(f, arity, perms, gamma, stage, layers):
    """The almost-all homogenization's stage predicate, before the kernel."""

    def consistent(partial, slot, choice):
        t = slot[0]
        for pattern in perms:
            if pattern[-1] != t:
                continue
            want = gamma[pattern]
            pools = []
            for pos in range(arity - 1):
                k = pattern[pos]
                pools.append(tuple(
                    (node, lvl) for lvl in range(stage)
                    for node in layers[lvl][k]))
            for combo in itertools.product(*pools):
                levels = [lvl for (_, lvl) in combo]
                if any(levels[i] >= levels[i + 1]
                       for i in range(len(levels) - 1)):
                    continue
                tup = [None] * arity
                for pos in range(arity - 1):
                    tup[pattern[pos]] = combo[pos][0]
                tup[t] = choice
                if f.evaluate(tuple(tup)) != want:
                    return False
        return True

    return consistent


# ---------------------------------------------------------------------------
# the finite-HL inner loop the bulk sampler and the bit-sliced batch test
# replaced
#
# Kept verbatim as references.  ``has_witness`` was a closure over the
# height's witness groups; they are a parameter here.


def has_witness(groups, colors):
    for g in groups:
        first = colors[g[0]]
        if all(colors[i] == first for i in g[1:]):
            return True
    return False


def sample_colors(rng, r, size):
    return tuple(rng.randrange(r) for _ in range(size))


# ---------------------------------------------------------------------------
# the dense-matrix searches before they shared one matrix routine
#
# Kept verbatim as references: ``sdhl_search`` and ``check_dshl_witness``
# each built their cones, slots and candidate pools themselves, and the
# first read the color off the assignment with ``_selection_color``.  They
# call the library's kernel and the pointer-based assignment search below,
# so they are compared on results and steps, not re-derived.  The one edit: the kernel is imported
# as ``kernel_cross_consistent``, since ``cross_consistent`` here names the
# older fusion predicate above.  ``sdhl_prime_search``, the free-level
# search the library no longer has, stays as the reference producer of
# free-level witnesses for ``check_somewhere_dense_witness``.  ``_views``,
# whose arity check the library's ``check_somewhere_dense_witness`` now
# makes itself, is kept beside them, and so is ``Caps``, the budget
# configuration the three searches take (the library's searches now take
# the ``StepBudget`` itself).

from dataclasses import dataclass  # noqa: E402

from hl_lab.errors import CapExceededError, InvalidInputError  # noqa: E402
from hl_lab.search import (  # noqa: E402
    BudgetExhausted,
    StepBudget,
    cross_consistent as kernel_cross_consistent,
)


# Kept verbatim as the reference for the library's assignment search, which
# now keeps its place in one iterator per open slot: this one keeps it in
# ``pointers``, ``depth`` and ``advanced``.  Both must return the same
# assignment and spend the same steps on every call.
def prefiltered_assignment(slots, candidates, consistent, budget: StepBudget):
    """Depth-first search for the first full slot assignment, product order.

    ``slots`` is an ordered list of slot ids, ``candidates[slot]`` an
    ordered sequence of choices, and ``consistent(partial, slot, choice)``
    a predicate over the partial assignment built so far.  The first
    assignment found is the minimum in lexicographic product order (slots
    major to minor), which is what makes emitted witnesses canonical.
    Returns ``None`` when the space is exhausted without a solution.

    Requires a monotone predicate: a choice rejected against the empty
    partial assignment stays rejected against every larger one.  Each
    slot's candidate list is filtered against the empty assignment first;
    an empty filtered list fails the whole call immediately, which keeps
    independent-slot instances from backtracking exponentially.
    """
    filtered = {}
    for slot in slots:
        keep = []
        for choice in candidates[slot]:
            budget.spend()
            if consistent({}, slot, choice):
                keep.append(choice)
        if not keep:
            return None
        filtered[slot] = tuple(keep)
    if not slots:
        return {}
    assignment: dict = {}
    pointers = [0] * len(slots)
    depth = 0
    while True:
        slot = slots[depth]
        options = filtered[slot]
        idx = pointers[depth]
        advanced = False
        while idx < len(options):
            choice = options[idx]
            budget.spend()
            if consistent(assignment, slot, choice):
                assignment[slot] = choice
                pointers[depth] = idx + 1
                advanced = True
                break
            idx += 1
        if advanced:
            if depth + 1 == len(slots):
                return dict(assignment)
            depth += 1
            pointers[depth] = 0
            continue
        # exhausted this slot: backtrack
        pointers[depth] = 0
        depth -= 1
        if depth < 0:
            return None
        del assignment[slots[depth]]


@dataclass(frozen=True)
class Caps:
    """Budget for the staged searches.

    ``max_steps`` bounds the total number of candidate inspections an
    operation may perform; it must be at least 1.  Hitting the cap is a
    reported outcome, not a bug: constructions return a failure record
    naming the stage that starved.
    """

    max_steps: int = 500_000

    def __post_init__(self):
        if self.max_steps < 1:
            raise InvalidInputError(f"need max_steps >= 1, got {self.max_steps}")

from hl_lab.trees import sort_nodes  # noqa: E402
from hl_lab.witness import (  # noqa: E402
    DenseSetCheck,
    SomewhereDenseWitness,
)


def _views(trees, arity):
    views = list(trees)
    if len(views) != arity:
        raise InvalidInputError(
            f"coloring arity {arity} but {len(views)} factor trees supplied"
        )
    return views


def _selection_color(coloring, assignment, slots, arity):
    per_coord: list[list[str]] = [[] for _ in range(arity)]
    for s in slots:
        per_coord[s[0]].append(assignment[s])
    probe = tuple(per_coord[k][0] for k in range(arity))
    return coloring.evaluate(probe)


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
            for base in itertools.product(*(v.level(ht) for v in views)):
                cones = [views[j].extensions(base[j], ht + 1) for j in range(len(base))]
                slots = [(j, u) for j in range(len(base)) for u in cones[j]]
                for eta in range(ht + 1, height):
                    candidates = {(j, u): views[j].extensions(u, eta) for (j, u) in slots}
                    if any(not candidates[s] for s in slots):
                        continue
                    found = prefiltered_assignment(
                        slots, candidates,
                        kernel_cross_consistent(len(base), coloring.evaluate), budget)
                    if found is not None:
                        matrix = tuple(
                            sort_nodes(found[(j, u)] for u in cones[j])
                            for j in range(len(base)))
                        color = _selection_color(coloring, found, slots, len(base))
                        return SomewhereDenseWitness(base, matrix, ht + 1, color)
    except BudgetExhausted:
        raise CapExceededError(caps.max_steps,
                               "successor-level witness scan exceeded its budget")
    return None


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
    height = min(v.height for v in views)
    levels = {views[j].level_of(base[j]) for j in range(len(base))}
    if len(levels) != 1:
        raise InvalidInputError(f"base {base} is not a level sequence")
    ht = levels.pop()
    budget = StepBudget(caps.max_steps)
    violations: list[str] = []
    try:
        for eta in range(ht + 1, height):
            cones = [views[j].extensions(base[j], eta) for j in range(len(base))]
            slots = [(j, u) for j in range(len(base)) for u in cones[j]]
            ok = False
            for chi in range(eta, height):
                candidates = {(j, u): views[j].extensions(u, chi) for (j, u) in slots}
                if any(not candidates[s] for s in slots):
                    continue
                found = prefiltered_assignment(
                    slots, candidates,
                    kernel_cross_consistent(len(base), coloring.evaluate, color), budget)
                if found is not None:
                    ok = True
                    break
            if not ok:
                violations.append(
                    f"no dominating matrix of color {color} at level {eta}"
                )
    except BudgetExhausted:
        raise CapExceededError(caps.max_steps, "dense-set check exceeded its budget")
    roots = tuple(v.level(0)[0] for v in views)
    asym_ok = (color != 0) or (base == roots)
    return DenseSetCheck(not violations, asym_ok, tuple(violations))


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
                    cones = [views[j].extensions(base[j], xi) for j in range(len(base))]
                    slots = [(j, u) for j in range(len(base)) for u in cones[j]]
                    if coloring.domain == "level":
                        candidate_sets = [
                            {(j, u): views[j].extensions(u, chi) for (j, u) in slots}
                            for chi in range(xi, height)
                        ]
                    else:
                        pooled = {
                            (j, u): tuple(m for chi in range(xi, height)
                                          for m in views[j].extensions(u, chi))
                            for (j, u) in slots
                        }
                        candidate_sets = [pooled]
                    for candidates in candidate_sets:
                        if any(not candidates[s] for s in slots):
                            continue
                        found = prefiltered_assignment(
                            slots, candidates,
                            kernel_cross_consistent(len(base), coloring.evaluate), budget)
                        if found is not None:
                            matrix = tuple(
                                sort_nodes(found[(j, u)] for u in cones[j])
                                for j in range(len(base)))
                            color = _selection_color(coloring, found, slots, len(base))
                            return SomewhereDenseWitness(
                                base=base, matrix=matrix,
                                density_level=xi, color=color)
    except BudgetExhausted:
        raise CapExceededError(caps.max_steps,
                               "free-level witness scan exceeded its budget")
    return None


# ---------------------------------------------------------------------------
# the condition algebra before it stopped redoing work
#
# Kept verbatim as references: ``glb`` built a ``Condition`` after every
# merge, ``delta_system`` recomputed every pairwise intersection of every
# combination, ``build_w_map`` rescanned every family of d-subsets for
# each thinned subset, and ``verify_wmap_laws`` re-read the two big images
# for every small subset.  ``_merge_pair``, which ``glb`` called, is kept
# beside it: the library's merge now works in place on one dict.
# ``_check_raw_map``, which ``build_w_map`` calls, compared every pair of
# subsets for monotonicity; the library's compares each subset with the
# meet of its supersets' images.

from hl_lab.conditions import (  # noqa: E402
    Condition,
    DeltaSystemOutcome,
    WMap,
    WMapLawReport,
    _comparable,
)
from hl_lab.errors import IncompatibleConditionsError, PreconditionError  # noqa: E402


def _check_raw_map(ground, raw, degree):
    subsets = [tuple(sorted(c)) for r in range(degree + 1)
               for c in itertools.combinations(ground, r)]
    table = {}
    for u in subsets:
        if u not in raw:
            raise PreconditionError(f"raw map misses the subset {set(u) or '{}'}")
        table[u] = frozenset(int(i) for i in raw[u])
        if not set(u) <= table[u]:
            raise PreconditionError(
                f"raw map containment fails at {set(u) or '{}'}")
    for u in subsets:
        for v in subsets:
            if set(u) <= set(v) and not table[u] <= table[v]:
                raise PreconditionError(
                    f"raw map monotonicity fails: {set(u) or '{}'} within "
                    f"{set(v)} but images are not nested")
    return table


def _merge_pair(p: Condition, q: Condition) -> dict:
    merged = dict(p.entries)
    for index, nodes in q.entries:
        mine = merged.get(index)
        if mine is None:
            merged[index] = nodes
            continue
        if len(mine) != len(nodes):
            raise IncompatibleConditionsError(
                index, -1, f"index {index} carries tuples of different arity")
        best = []
        for coord, (a, b) in enumerate(zip(mine, nodes)):
            if not _comparable(a, b):
                raise IncompatibleConditionsError(index, coord)
            best.append(a if len(a) >= len(b) else b)
        merged[index] = tuple(best)
    return merged


def glb(conditions) -> Condition:
    """Greatest lower bound of pairwise-compatible conditions.

    The support is the union of supports and every coordinate is the
    longest of the recorded nodes; incomparable nodes at a shared
    coordinate raise with the offending index and coordinate.
    """
    conditions = list(conditions)
    if not conditions:
        raise InvalidInputError("need at least one condition")
    merged = conditions[0]
    for q in conditions[1:]:
        merged = Condition(_merge_pair(merged, q))
    return merged


def delta_system(family, target: int) -> DeltaSystemOutcome:
    """First subfamily (in combination order) with one common intersection.

    Every pairwise intersection of the chosen members must literally
    equal the root.  With fewer than two members the root is empty.
    """
    family = [frozenset(int(i) for i in member) for member in family]
    if target < 1:
        raise InvalidInputError(f"target size must be positive, got {target}")
    if target > len(family):
        raise InvalidInputError(
            f"target {target} exceeds the family size {len(family)}")
    scanned = 0
    for combo in itertools.combinations(range(len(family)), target):
        scanned += 1
        members = [family[i] for i in combo]
        if len(members) < 2:
            chosen_root: frozenset = frozenset()
            ok = True
        else:
            chosen_root = members[0] & members[1]
            ok = all(members[i] & members[j] == chosen_root
                     for i in range(len(members))
                     for j in range(i + 1, len(members)))
        if ok:
            return DeltaSystemOutcome(
                True, tuple(combo),
                tuple(tuple(sorted(m)) for m in members),
                tuple(sorted(chosen_root)), scanned)
    return DeltaSystemOutcome(False, (), (), None, scanned)


def build_w_map(ground, raw, degree: int, stride: int | None = None) -> WMap:
    """Close a raw index-set map under bounded intersections.

    The output ground set keeps every ``stride``-th element of the input
    (default ``degree + 2``), and the image of ``u`` is the union of
    intersections of raw images over families of at most ``degree + 1``
    many ``degree``-subsets whose own intersection sits inside ``u``.
    The raw map must contain each subset in its image and be monotone.
    """
    if degree < 1:
        raise InvalidInputError(f"degree must be positive, got {degree}")
    ground = tuple(sorted(set(int(i) for i in ground)))
    raw = {tuple(sorted(set(u))): w for u, w in
           (raw.items() if hasattr(raw, "items") else raw)}
    table = _check_raw_map(ground, raw, degree)
    if stride is None:
        stride = degree + 2
    if stride < 1:
        raise InvalidInputError(f"stride must be positive, got {stride}")
    thinned = ground[::stride]
    dsubsets = [tuple(sorted(c)) for c in itertools.combinations(ground, degree)]
    mapping = {}
    for r in range(degree + 1):
        for u in itertools.combinations(thinned, r):
            uset = set(u)
            acc: set = set()
            for size in range(1, degree + 2):
                for fam in itertools.combinations(dsubsets, size):
                    core = set(fam[0])
                    for v in fam[1:]:
                        core &= set(v)
                    if not core <= uset:
                        continue
                    image = set(table[fam[0]])
                    for v in fam[1:]:
                        image &= table[v]
                    acc |= image
            mapping[u] = tuple(sorted(acc))
    return WMap(thinned, degree, mapping)


def verify_wmap_laws(wmap: WMap) -> WMapLawReport:
    """Check the two closure laws over the whole domain.

    Intersection law: images of two ``degree``-subsets meet exactly in
    the image of their intersection.  Transport law: for nested pairs
    ``u1`` within ``u2`` and their order-isomorphic copies, the order
    isomorphism between the two big images carries the small image onto
    its copy's image.
    """
    d = wmap.degree
    ground = wmap.ground
    inter_bad = []
    pairs = 0
    for u, v in itertools.combinations_with_replacement(
            itertools.combinations(ground, d), 2):
        pairs += 1
        left = set(wmap.image(u)) & set(wmap.image(v))
        right = set(wmap.image(set(u) & set(v)))
        if left != right:
            inter_bad.append((tuple(u), tuple(v)))
    transport_bad = []
    transports = 0
    subsets = [tuple(sorted(c)) for r in range(d + 1)
               for c in itertools.combinations(ground, r)]
    for u2 in subsets:
        for v2 in subsets:
            if len(u2) != len(v2):
                continue
            iso = dict(zip(u2, v2))
            for r in range(len(u2) + 1):
                for u1 in itertools.combinations(u2, r):
                    v1 = tuple(sorted(iso[i] for i in u1))
                    transports += 1
                    wu2, wv2 = wmap.image(u2), wmap.image(v2)
                    if len(wu2) != len(wv2):
                        transport_bad.append((u1, u2, v1, v2))
                        continue
                    carry = dict(zip(wu2, wv2))
                    moved = set()
                    ok = True
                    for i in wmap.image(u1):
                        if i not in carry:
                            ok = False
                            break
                        moved.add(carry[i])
                    if not ok or moved != set(wmap.image(v1)):
                        transport_bad.append((u1, u2, v1, v2))
    return WMapLawReport(
        valid=not inter_bad and not transport_bad,
        intersection_violations=tuple(inter_bad),
        transport_violations=tuple(transport_bad),
        pairs_checked=pairs,
        transports_checked=transports)


# ---------------------------------------------------------------------------
# the checkers before they counted by structure
#
# Kept verbatim as references: ``verify_lower_bound`` typed every pick of
# one occupied height per factor, ``delta_system_memoized`` (the library's
# ``delta_system`` once pairwise meets were memoized, renamed here beside
# the older ``delta_system`` above) scanned every combination in order,
# ``check_tail_cone`` restricted every coordinate of every tuple through
# its view, and ``expr_coloring`` ran ``eval`` with fresh globals and
# locals per tuple, so a comprehension could not see ``nodes``,
# ``heights``, ``d`` or ``colors``.  Two edits: ``expr_coloring`` no
# longer passes ``kind``, ``body`` or its ``arity`` to ``Coloring``, which
# takes none of them (its arity is its number of spaces), and
# ``verify_lower_bound`` ranks a pick's sorting permutation by its place
# in ``itertools.permutations``, since the library's ``tuple_type`` is
# gone.

import ast  # noqa: E402
import math  # noqa: E402
from collections import Counter  # noqa: E402

from hl_lab.polarized import LowerBoundReport  # noqa: E402
from hl_lab.subtrees import ValidationResult, validate_strong_subtree  # noqa: E402
from hl_lab.tailcone import ColoringFamily, TailConeCertificate  # noqa: E402
from hl_lab.witness import Coloring, _forbidden_syntax  # noqa: E402


def verify_lower_bound(reports, d: int) -> LowerBoundReport:
    """Check that distinct-height tuples of the product realize every type.

    Works on height combinations: a type is realized as soon as some
    strictly ordered choice of one occupied level per factor sorts by
    that permutation, which is what forces the full ``(d+1)!`` colors
    under the height-permutation coloring.
    """
    views = list(reports)
    if len(views) != d + 1:
        raise InvalidInputError(f"need {d + 1} factor subtrees, got {len(views)}")
    for idx, view in enumerate(views):
        if view.height < d + 1:
            raise PreconditionError(
                f"insufficient spread: factor {idx} has {view.height} levels, "
                f"need at least {d + 1}"
            )
    heights = [tuple(view.ambient_level(xi) for xi in range(view.height))
               for view in views]
    rank = {perm: i for i, perm in enumerate(itertools.permutations(range(d + 1)))}
    combos: Counter = Counter()
    for pick in itertools.product(*heights):
        if len(set(pick)) != len(pick):
            continue
        combos[rank[tuple(sorted(range(d + 1), key=pick.__getitem__))]] += 1
    total = math.factorial(d + 1)
    missing = tuple(r for r in range(total) if r not in combos)
    return LowerBoundReport(realizes_all=not missing, total_types=total,
                            missing=missing, combos_per_type=dict(combos))


def delta_system_memoized(family, target: int) -> DeltaSystemOutcome:
    """First subfamily (in combination order) with one common intersection.

    Every pairwise intersection of the chosen members must literally
    equal the root.  With fewer than two members the root is empty.
    """
    family = [frozenset(int(i) for i in member) for member in family]
    if target < 1:
        raise InvalidInputError(f"target size must be positive, got {target}")
    if target > len(family):
        raise InvalidInputError(
            f"target {target} exceeds the family size {len(family)}")
    # meets[i][j] = family[i] & family[j] for i < j, built on first use
    meets: list = [{} for _ in family]

    def meet(i, j):
        row = meets[i]
        both = row.get(j)
        if both is None:
            both = row[j] = family[i] & family[j]
        return both

    scanned = 0
    for combo in itertools.combinations(range(len(family)), target):
        scanned += 1
        if target < 2:
            chosen_root: frozenset = frozenset()
            ok = True
        else:
            chosen_root = meet(combo[0], combo[1])
            ok = all(meet(combo[i], combo[j]) == chosen_root
                     for i in range(target)
                     for j in range(i + 1, target))
        if ok:
            return DeltaSystemOutcome(
                True, tuple(combo),
                tuple(tuple(sorted(family[i])) for i in combo),
                tuple(sorted(chosen_root)), scanned)
    return DeltaSystemOutcome(False, (), (), None, scanned)


def check_tail_cone(certificate: TailConeCertificate,
                    family: ColoringFamily) -> ValidationResult:
    """Verify the determining law of every table, quantifier by quantifier."""
    reports = certificate.reports
    if len(reports) != family.arity:
        raise InvalidInputError(
            f"certificate has {len(reports)} subtrees, family arity {family.arity}"
        )
    if len(certificate.tables) != len(family):
        raise InvalidInputError(
            f"certificate has {len(certificate.tables)} tables for "
            f"{len(family)} colorings"
        )
    level_sets = {r.level_set for r in reports}
    if len(level_sets) != 1:
        raise InvalidInputError("certificate subtrees must share one level set")
    violations: list[str] = []
    for idx, report in enumerate(reports):
        structural = validate_strong_subtree(report)
        if not structural.valid:
            violations.extend(f"subtree {idx}: {v}" for v in structural.violations)
    views = list(reports)
    h = views[0].height
    if len(family) > h - 1:
        violations.append(
            f"{len(family)} colorings need subtree height {len(family) + 1}, got {h}"
        )
        return ValidationResult(False, tuple(violations))
    d = family.arity
    for i in range(len(family)):
        table = certificate.tables[i]
        for tup in itertools.product(*(v.level(i + 1) for v in views)):
            if tup not in table:
                violations.append(f"table {i} is missing entry {tup}")
        for xi in range(i + 1, h):
            for tup in itertools.product(*(v.level(xi) for v in views)):
                key = tuple(views[j].restrict(tup[j], i + 1) for j in range(d))
                if key not in table:
                    continue
                got = family[i].evaluate(tup)
                if got != table[key]:
                    violations.append(
                        f"coloring {i} at {tup}: color {got}, table says {table[key]}"
                    )
    return ValidationResult(not violations, tuple(violations))


def expr_coloring(spaces, arity, colors, source, *, domain="level") -> Coloring:
    """Coloring given by a Python expression over ``nodes``/``heights``/``d``.

    The expression comes from the input document, so any error raised
    while compiling or evaluating it is an :class:`InvalidInputError`, as
    is any syntax outside the small whitelist ``_forbidden_syntax`` checks.
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
    code = compile(tree, "<coloring>", "eval")
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

    return Coloring(colors, spaces, fn, domain=domain)


# ---------------------------------------------------------------------------
# the successor-level checker before it shared the free-level clauses, and
# the cone reassembly before it shared the stage step
#
# Kept verbatim as references: ``check_sdhl_witness`` evaluated the matrix
# colors itself, so a matrix on several levels raised the coloring's
# level-domain error instead of reporting it; ``_induction_tail`` scanned
# chain levels, then every ``s'`` above the cone at or below each, with its
# own loops.  The one edit: the kernel is called as
# ``kernel_cross_consistent``, as in the section above.

from hl_lab.trees import node_key  # noqa: E402
from hl_lab.witness import _undominated  # noqa: E402


def check_sdhl_witness(witness: SomewhereDenseWitness,
                       coloring: Coloring) -> ValidationResult:
    """Verify density and monochromaticity literally, by quantifier scan."""
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


def _induction_tail(coloring, tview, uviews, s, tbar, beta, gamma, budget):
    """Per-cone staged extension producing the final witness matrices.

    Cones above ``s`` are handled one at a time: each gets a node above
    it together with a fresh layer of the per-cone chains over the other
    coordinates, every cross product colored ``gamma``.  Chains are
    nested, so the last layer restricts into every earlier one; that
    makes the last layer a single matrix working for all chosen nodes.
    """
    d = len(uviews)
    cones0 = tview.extensions(s, beta + 2)
    cone_reps = [uviews[k].extensions(tbar[k], beta + 1) for k in range(d)]
    if any(not reps for reps in cone_reps):
        return None
    slots = [(k, v) for k in range(d) for v in cone_reps[k]]
    current = {(k, v): v for (k, v) in slots}
    cursor = beta + 2
    s_primes = []
    u_height = min(v.height for v in uviews)
    for u in cones0:
        found = None
        for xi in range(cursor, u_height):
            s_cands = [sp for lam in range(beta + 2, xi + 1)
                       for sp in tview.extensions(u, lam)]
            if not s_cands:
                continue
            candidates = {(k, v): uviews[k].extensions(current[(k, v)], xi)
                          for (k, v) in slots}
            if any(not candidates[slot] for slot in slots):
                continue
            for sp in s_cands:
                consistent = kernel_cross_consistent(
                    d, lambda tup, sp=sp: coloring.evaluate((sp,) + tup), gamma)
                assignment = prefiltered_assignment(slots, candidates, consistent,
                                                    budget)
                if assignment is not None:
                    found = (xi, sp, assignment)
                    break
            if found is not None:
                break
        if found is None:
            return None
        xi, sp, assignment = found
        s_primes.append(sp)
        current = dict(assignment)
        cursor = xi
    matrix0 = tuple(sorted(s_primes, key=node_key))
    rest = tuple(
        tuple(sorted({current[(k, v)] for v in cone_reps[k]}, key=node_key))
        for k in range(d))
    return matrix0, rest


# ---------------------------------------------------------------------------
# the finite-HL counterexample document before ``finite_hl_number`` wrote it
#
# Kept verbatim as references: ``_coloring_from_assignment`` built ``d``
# uniform spaces and a table coloring with the totality check off, and the
# coloring's ``to_json`` sorted and serialized the table.  The one edit:
# ``Coloring`` no longer keeps a table or a ``to_json``, so
# ``_TableColoring`` holds what ``to_json`` read, and
# ``unchecked_table_coloring`` is ``table_coloring`` on the
# ``check_total=False`` path that was its only caller's.

from hl_lab.trees import TreeSpace  # noqa: E402


class _TableColoring:
    def __init__(self, arity, colors, domain, kind, body):
        self.arity = arity
        self.colors = colors
        self.domain = domain
        self.kind = kind
        self.body = body

    def to_json(self) -> dict:
        if self.kind == "table":
            entries = [{"tuple": list(t), "color": c}
                       for t, c in sorted(self.body.items())]
            return {"kind": "table", "arity": self.arity, "colors": self.colors,
                    "domain": self.domain, "entries": entries}
        return {"kind": "named", "name": self.kind, "params": dict(self.body)}


def unchecked_table_coloring(spaces, arity, colors, entries, *, domain="level"):
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
    return _TableColoring(arity, colors, domain, "table", table)


def _coloring_from_assignment(d, b, n, domain, assignment):
    spaces = [TreeSpace.uniform(b, n)] * d
    table = {tup: 0 for tup in itertools.product(*(s.level(0) for s in spaces))}
    table.update({tup: int(c) for tup, c in zip(domain, assignment)})
    r = max(2, max(assignment, default=0) + 1)
    return unchecked_table_coloring(spaces, d, r, table, domain="level")


# ---------------------------------------------------------------------------
# the almost-all measurements before they tallied each pick once
#
# Kept verbatim as references: ``_measure_patterns`` and
# ``_measure_height_factored`` walked the whole product once per
# height-order pattern, keeping the picks strictly increasing along it.

from hl_lab.polarized import PatternReport  # noqa: E402


def _measure_patterns(f, views, gamma):
    """Exact per-pattern violation counts over strictly ordered tuples."""
    arity = f.arity
    pools = [tuple((node, views[k].ambient_level(xi))
                   for xi in range(views[k].height)
                   for node in views[k].level(xi))
             for k in range(arity)]
    out = []
    for pattern in itertools.permutations(range(arity)):
        want = gamma.get(pattern)
        violations = total = 0
        for combo in itertools.product(*pools):
            hts = [combo[pattern[i]][1] for i in range(arity)]
            if any(hts[i] >= hts[i + 1] for i in range(arity - 1)):
                continue
            total += 1
            if want is None or f.evaluate(tuple(c[0] for c in combo)) != want:
                violations += 1
        out.append(PatternReport(pattern=pattern, color=want,
                                 violations=violations, total=total))
    return tuple(out)


def _measure_height_factored(f, views):
    """Quick route: tally height combinations instead of tuples."""
    arity = f.arity
    out = []
    per_level = [tuple((views[k].ambient_level(xi), len(views[k].level(xi)))
                       for xi in range(views[k].height))
                 for k in range(arity)]
    for pattern in itertools.permutations(range(arity)):
        tally: Counter = Counter()
        for combo in itertools.product(*per_level):
            hts = [combo[pattern[i]][0] for i in range(arity)]
            if any(hts[i] >= hts[i + 1] for i in range(arity - 1)):
                continue
            weight = 1
            for _, count in combo:
                weight *= count
            tally[f.height_fn(tuple(c[0] for c in combo))] += weight
        # majority color per pattern, ties broken toward the smaller color
        if tally:
            best = min(tally, key=lambda c: (-tally[c], c))
            total = sum(tally.values())
            out.append(PatternReport(pattern=pattern, color=best,
                                     violations=total - tally[best],
                                     total=total))
        else:
            out.append(PatternReport(pattern=pattern, color=None,
                                     violations=0, total=0))
    return out


# ---------------------------------------------------------------------------
# the level-product checkers before they took ``Coloring.on_product``
#
# Kept verbatim as references: both called ``Coloring.evaluate`` on every
# tuple of every level product, so each tuple's arity and heights were
# checked again, and ``check_tail_cone`` built each tuple's key from one
# restriction dict per factor.  The one edit: that checker is named
# ``check_tail_cone_dict_cuts`` here, since ``check_tail_cone`` above
# names an older one.


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
        for tup in itertools.product(*(r.level(xi) for r in reports)):
            got = coloring.evaluate(tup)
            if reference is None:
                reference = got
            elif got != reference:
                violations.append(
                    f"tuple {tup} at subtree level {xi} has color {got}, "
                    f"expected {reference}"
                )
    return ValidationResult(not violations, tuple(violations))


def check_tail_cone_dict_cuts(certificate: TailConeCertificate,
                              family: ColoringFamily) -> ValidationResult:
    """Verify the determining law of every table, quantifier by quantifier."""
    reports = certificate.reports
    if len(reports) != family.arity:
        raise InvalidInputError(
            f"certificate has {len(reports)} subtrees, family arity {family.arity}"
        )
    if len(certificate.tables) != len(family):
        raise InvalidInputError(
            f"certificate has {len(certificate.tables)} tables for "
            f"{len(family)} colorings"
        )
    level_sets = {r.level_set for r in reports}
    if len(level_sets) != 1:
        raise InvalidInputError("certificate subtrees must share one level set")
    violations: list[str] = []
    for idx, report in enumerate(reports):
        structural = validate_strong_subtree(report)
        if not structural.valid:
            violations.extend(f"subtree {idx}: {v}" for v in structural.violations)
    h = reports[0].height
    if len(family) > h - 1:
        violations.append(
            f"{len(family)} colorings need subtree height {len(family) + 1}, got {h}"
        )
        return ValidationResult(False, tuple(violations))
    for i in range(len(family)):
        table = certificate.tables[i]
        for tup in itertools.product(*(r.level(i + 1) for r in reports)):
            if tup not in table:
                violations.append(f"table {i} is missing entry {tup}")
        evaluate = family[i].evaluate
        for xi in range(i + 1, h):
            levels = [r.level(xi) for r in reports]
            # cuts[j][node]: node's restriction to subtree level i + 1 in factor j
            cuts = [{node: r.restrict(node, i + 1) for node in level}
                    for r, level in zip(reports, levels)]
            for tup in itertools.product(*levels):
                key = tuple(map(dict.__getitem__, cuts, tup))
                if key not in table:
                    continue
                got = evaluate(tup)
                if got != table[key]:
                    violations.append(
                        f"coloring {i} at {tup}: color {got}, table says {table[key]}"
                    )
    return ValidationResult(not violations, tuple(violations))
