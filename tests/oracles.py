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
# call the per-choice kernel and the pointer-based assignment search below,
# so they are compared on results and steps, not re-derived.  The one edit: the kernel is called
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
from hl_lab.search import BudgetExhausted, StepBudget  # noqa: E402


def as_filter(consistent):
    """A per-choice predicate as a filter over the later slots' candidates.

    The library's assignment search asks ``consistent(partial, later,
    spend)`` once per choice to narrow the live candidates of every later
    slot; this asks the predicate once per live candidate, right after
    spending its step, and stops at the first slot it empties.
    """

    def filtered(partial, later, spend):
        narrowed = []
        for slot, live in later:
            kept = []
            for choice in live:
                spend()
                if consistent(partial, slot, choice):
                    kept.append(choice)
            if len(kept) < len(live):
                narrowed.append((slot, kept))
                if not kept:
                    break
        return narrowed

    return filtered


# The library search does forward checking, so it takes other steps than the
# pointer search below: after each choice it narrows every later slot's
# live candidates, and it never tries a choice that a later slot's filter
# rules out.  The two are compared call by call on their results and on
# this relation: the choices the library search tries are a subsequence of
# the candidates the pointer search asks its predicate about once its
# prefilter is done.  A choice is written as the partial assignment it
# makes, ``tuple(partial.items())`` with the choice as its last item.


def watch_tries(search, calls):
    """The assignment search ``search``, logging ``(result, tried)`` per call.

    Like the library search, it takes a function building each slot's
    candidates.  The library search calls its filter once after each
    choice, with the choice newest in ``partial``, except after a choice
    at the last slot, which is the result.  A call that runs out of
    budget logs ``"exhausted"`` as its result.
    """

    def watched(slots, candidates, consistent, budget):
        tried = []

        def logged(partial, later, spend):
            if partial:
                tried.append(tuple(partial.items()))
            return consistent(partial, later, spend)

        try:
            found = search(slots, candidates, logged, budget)
        except BudgetExhausted:
            calls.append(("exhausted", tried))
            raise
        if found:
            tried.append(tuple(found.items()))
        calls.append((found, tried))
        return found

    return watched


def watch_asks(search, calls):
    """The pointer search ``search``, logging ``(result, asked)`` per call.

    Like the pointer search, it takes each slot's candidates as a mapping.
    ``asked`` holds the questions put to the per-choice predicate after
    the prefilter, which asks about every candidate of every slot first.
    """

    def watched(slots, candidates, consistent, budget):
        asked = []

        def logged(partial, slot, choice):
            asked.append(tuple(partial.items()) + ((slot, choice),))
            return consistent(partial, slot, choice)

        try:
            found = search(slots, candidates, logged, budget)
        except BudgetExhausted:
            calls.append(("exhausted", asked))
            raise
        del asked[:sum(len(candidates[slot]) for slot in slots)]
        calls.append((found, asked))
        return found

    return watched


def is_subsequence(short, long):
    rest = iter(long)
    return all(any(item == other for other in rest) for item in short)


def assert_same_calls(tries, asks):
    """Call by call: the same result, and every tried choice was asked about.

    A call that ran out of budget on either side ends the comparison.
    """
    for (found, tried), (want, asked) in zip(tries, asks):
        if "exhausted" in (found, want):
            return
        assert found == want
        assert is_subsequence(tried, asked)


# Kept verbatim as the reference for the library's consistency kernel, which
# now filters a slot's candidate stream once per slot opening: these
# predicates answered one choice per call and rebuilt every coordinate's
# pool from ``partial`` each time.  The one edit: they are named
# ``kernel_cross_consistent`` and ``kernel_typed_consistent``, since
# ``cross_consistent`` here names the older fusion predicate above.

_UNSEEN = object()


def kernel_cross_consistent(arity, value, reference=None, fixed=None):
    """Predicate: every completed tuple through the newest choice has one value.

    Slots are ``(coordinate, key)`` pairs.  A tuple takes one node per
    coordinate from its pool, with the newest choice in its own
    coordinate.  A coordinate's pool holds ``fixed[i]`` (when given: the
    nodes of earlier, committed stages) followed by its assigned nodes;
    until every other pool holds a node no tuple exists and every choice
    is consistent.  Tuples among earlier choices were checked when their
    newest member was assigned.  Each tuple's ``value(tup)`` must equal
    ``reference``; when ``reference`` is ``None`` it is the value of the
    tuple of each pool's first node, the choice standing in for its own
    coordinate when that pool is still empty.
    """
    memo: dict = {}
    heads = fixed if fixed is not None else [()] * arity

    def consistent(partial, slot, choice):
        pools = [list(head) for head in heads]
        for s, node in partial.items():
            pools[s[0]].append(node)
        j = slot[0]
        own = pools[j]
        pools[j] = (choice,)
        if not all(pools):
            return True
        target = reference
        if target is None:
            anchor = [pool[0] for pool in pools]
            if own:
                anchor[j] = own[0]
            anchor = tuple(anchor)
            target = memo.get(anchor, _UNSEEN)
            if target is _UNSEEN:
                target = memo[anchor] = value(anchor)
        for tup in itertools.product(*pools):
            got = memo.get(tup, _UNSEEN)
            if got is _UNSEEN:
                got = memo[tup] = value(tup)
            if got != target:
                return False
        return True

    return consistent


def kernel_typed_consistent(value, at, fixed, pinned):
    """Predicate: each tuple type keeps one value across all picked nodes.

    The nodes of the partial assignment and the choice sit at coordinate
    ``at``; every other coordinate ``i`` ranges over the ``(node, band)``
    pairs of ``fixed[i]``.  A tuple's type is its coordinates ordered by
    band, the picked node counting as the highest band; tuples whose fixed
    coordinates tie on a band have no type and are skipped.  The choice is
    consistent when, over every tuple through an assigned node or the
    choice, each type takes a single value, equal to ``pinned[type]``
    where that is given.  Types are computed once per predicate, and each
    node's row of (type, value) pairs once per node.
    """
    pinned = dict(pinned)
    combos = []
    for combo in itertools.product(*(fixed[i] for i in range(len(fixed)) if i != at)):
        bands = [band for _, band in combo]
        if len(set(bands)) < len(bands):
            continue
        bands.insert(at, float("inf"))
        pattern = tuple(sorted(range(len(fixed)), key=bands.__getitem__))
        nodes = tuple(node for node, _ in combo)
        combos.append((nodes[:at], nodes[at:], pattern))
    rows: dict = {}

    def row(node):
        """The value of each type on the node's tuples, or None on a clash."""
        table: dict = {}
        for before, after, pattern in combos:
            got = value(before + (node,) + after)
            if got != pinned.get(pattern, table.get(pattern, got)):
                return None
            table[pattern] = got
        return table

    def consistent(partial, slot, choice):
        merged: dict = {}
        for node in [*partial.values(), choice]:
            table = rows.get(node, _UNSEEN)
            if table is _UNSEEN:
                table = rows[node] = row(node)
            if table is None:
                return False
            for pattern, got in table.items():
                if merged.setdefault(pattern, got) != got:
                    return False
        return True

    return consistent


# Kept verbatim as the reference for the library's assignment search and
# consistency kernel, whose filter is now called once per choice and
# narrows every later slot in that one call: this search called a stage's
# filter once per later slot after every choice, and each filter answered
# with a lazy iterator over the slot's charged candidate stream.  The two
# must return the same assignment and spend the same steps, in the same
# order among the coloring evaluations, on every call.  The edits: they
# are named ``per_slot_assignment``, ``per_slot_cross_consistent`` and
# ``per_slot_typed_consistent``, and polarized search's twin rule, which
# wrapped the typed filter inline, is ``per_slot_twin_rule``.


def per_slot_assignment(slots, candidates, consistent, budget: StepBudget):
    """Depth-first search for the first full slot assignment, product order.

    ``slots`` is an ordered list of slot ids and ``candidates[slot]`` an
    ordered sequence of choices.  ``consistent(partial, slot, choices)``
    is a filter over the partial assignment built so far: it returns an
    iterator over the members of the iterator ``choices`` that are
    consistent with ``partial``, in order, or ``choices`` itself when no
    verdict can have changed.  The first assignment found is the minimum
    in lexicographic product order (slots major to minor), which is what
    makes emitted witnesses canonical.  Returns ``None`` when the space
    is exhausted without a solution.

    Requires a monotone filter: a choice rejected against a partial
    assignment stays rejected against every larger one.  Each slot's
    live candidates start as its candidates filtered against the empty
    assignment; an empty list fails the whole call at once, which keeps
    independent-slot instances from backtracking exponentially.

    The search does forward checking (Haralick & Elliott 1980): after
    each choice, every later slot's live candidates go through that
    slot's filter again, and a slot left with none withdraws the choice
    at once.  A trail keeps the lists that a choice's narrowing replaced,
    and withdrawing the choice puts them back.  So ``partial`` holds a
    prefix of the slots before ``slot``, in slot order, and every member
    of ``choices`` was consistent with ``partial`` less its newest entry
    (its last, in insertion order): a filter need only check what that
    entry adds.

    A step is one candidate pulled from ``choices``, spent before the
    filter sees it.  A filter that hands back ``choices`` itself pulls
    none, so it takes no step and its slot keeps its list.  Trying a live
    choice takes no step: every withdrawn choice was paid for by the
    steps of the narrowing that emptied a later slot.
    """

    def charged(choices):
        for choice in choices:
            budget.spend()
            yield choice

    def narrowed(partial, index, live):
        """The members of ``live`` that the filter of ``slots[index]`` keeps."""
        choices = charged(live)
        kept = consistent(partial, slots[index], choices)
        return live if kept is choices else list(kept)

    live = []
    for index, slot in enumerate(slots):
        keep = narrowed({}, index, list(candidates[slot]))
        if not keep:
            return None
        live.append(keep)
    if not slots:
        return {}
    assignment: dict = {}
    trail = []  # (slot index, the live list a narrowing replaced)
    marks = []  # the trail's length before each assigned slot's narrowing
    open_slots = [iter(live[0])]
    while open_slots:
        depth = len(open_slots) - 1
        if len(assignment) > depth:
            # back at this slot: withdraw its choice and what that narrowed
            assignment.popitem()
            mark = marks.pop()
            while len(trail) > mark:
                index, kept = trail.pop()
                live[index] = kept
        choice = next(open_slots[-1], _UNSEEN)
        if choice is _UNSEEN:
            open_slots.pop()
            continue
        assignment[slots[depth]] = choice
        if depth + 1 == len(slots):
            return dict(assignment)
        marks.append(len(trail))
        for index in range(depth + 1, len(slots)):
            kept = narrowed(assignment, index, live[index])
            if len(kept) < len(live[index]):
                trail.append((index, live[index]))
                live[index] = kept
                if not kept:
                    break
        else:
            open_slots.append(iter(live[depth + 1]))
    return None


def per_slot_cross_consistent(arity, value, reference=None, fixed=None):
    """Filter: every completed tuple through the choice has one value.

    Slots are ``(coordinate, key)`` pairs.  A tuple takes one node per
    coordinate from its pool, with the choice in its own coordinate.  A
    coordinate's pool holds ``fixed[i]`` (when given: the nodes of
    earlier, committed stages) followed by its assigned nodes; until
    every other pool holds a node no tuple exists and every choice is
    consistent.  Each tuple's ``value(tup)`` must equal ``reference``;
    when ``reference`` is ``None`` it is the value of the anchor, the
    tuple of each pool's first node, the choice standing in for its own
    coordinate while that pool is empty.

    Against the empty assignment the filter checks every tuple through
    the choice; otherwise only the tuples through the newest node and
    the choice.  No tuple holds both when the newest node sits in the
    choice's own pool, but when it is the first there it becomes the
    anchor's node: the choice's own anchor must then have its value.
    """
    memo: dict = {}
    heads = fixed if fixed is not None else [()] * arity
    # the forward-checking search asks about every later slot after each
    # choice: one plan per coordinate serves them all
    last = [None, {}]  # the partial assignment last read, as items; its plans

    def val(tup):
        got = memo.get(tup, _UNSEEN)
        if got is _UNSEEN:
            got = memo[tup] = value(tup)
        return got

    def plan(items, j):
        """What a choice at coordinate ``j`` is checked on, or ``None``."""
        pools = [list(head) for head in heads]
        for (i, _), node in items:
            pools[i].append(node)
        own = pools[j]
        if not all(pools[:j] + pools[j + 1:]):
            return None
        firsts = [pool[0] if pool else None for pool in pools]
        before, after = tuple(firsts[:j]), tuple(firsts[j + 1:])
        if items:
            (k, _), newest = items[-1]
            if k == j:
                if reference is not None or len(own) > 1:
                    return None  # no tuple holds both, and the target stays
                # the newest node is the first in the choice's pool
                return before, after, own, [(before, after)]
            pools[k] = (newest,)
        rest = [(b, a) for b in itertools.product(*pools[:j])
                for a in itertools.product(*pools[j + 1:])]
        return before, after, own, rest

    def agreeing(choices, before, after, own, rest):
        target = reference
        if target is None and own:
            target = val(before + (own[0],) + after)
        for choice in choices:
            want = target
            if want is None:
                want = val(before + (choice,) + after)
            for b, a in rest:
                if val(b + (choice,) + a) != want:
                    break
            else:
                yield choice

    def consistent(partial, slot, choices):
        items = tuple(partial.items())
        if items != last[0]:
            last[:] = items, {}
        plans = last[1]
        j = slot[0]
        checks = plans.get(j, _UNSEEN)
        if checks is _UNSEEN:
            checks = plans[j] = plan(items, j)
        if checks is None:
            return choices
        return agreeing(choices, *checks)

    return consistent


def per_slot_typed_consistent(value, fixed, pinned):
    """Filter: each tuple type keeps one value across all picked nodes.

    Slots begin with their coordinate: a slot's node sits at coordinate
    ``slot[0]``, and every other coordinate ``i`` ranges over the
    ``(node, band)`` pairs of ``fixed[i]``.  A tuple's type is its
    coordinates ordered by band, the picked node counting as the highest
    band; tuples whose fixed coordinates tie on a band have no type and
    are skipped.  The choice is consistent when, over every tuple through
    an assigned node or the choice, each type takes a single value, equal
    to ``pinned[type]`` where that is given.  A coordinate's types are
    computed when it is first asked about, and a node's row of (type,
    value) pairs once per coordinate; the filter's ``row(coordinate,
    node)`` hands it back (``None`` on a clash).  Against the empty
    assignment the filter checks the choice's own row; otherwise it
    compares that row with the newest node's on the types not pinned.
    """
    pinned = dict(pinned)
    combos: dict = {}  # coordinate -> its (nodes before, nodes after, type)
    rows: dict = {}

    def typed(at):
        found = []
        for combo in itertools.product(*(fixed[i] for i in range(len(fixed)) if i != at)):
            bands = [band for _, band in combo]
            if len(set(bands)) < len(bands):
                continue
            bands.insert(at, float("inf"))
            pattern = tuple(sorted(range(len(fixed)), key=bands.__getitem__))
            nodes = tuple(node for node, _ in combo)
            found.append((nodes[:at], nodes[at:], pattern))
        return found

    def row(at, node):
        """The value of each type on the node's tuples, or None on a clash."""
        table = rows.get((at, node), _UNSEEN)
        if table is not _UNSEEN:
            return table
        if at not in combos:
            combos[at] = typed(at)
        table = {}
        for before, after, pattern in combos[at]:
            got = value(before + (node,) + after)
            if got != pinned.get(pattern, table.get(pattern, got)):
                table = None
                break
            table[pattern] = got
        rows[at, node] = table
        return table

    def consistent(partial, slot, choices):
        at = slot[0]
        if not partial:
            return (choice for choice in choices if row(at, choice) is not None)
        # every live choice's row already agrees with the pinned types
        last, node = next(reversed(partial.items()))
        newest = [(pattern, got) for pattern, got in row(last[0], node).items()
                  if pattern not in pinned]
        if not newest:
            return choices
        return (choice for choice in choices
                if all(row(at, choice).get(pattern, got) == got for pattern, got in newest))

    consistent.row = row
    return consistent


def per_slot_twin_rule(agree, tree):
    """Polarized search's filter for the slots of ``tree``: ``agree`` with
    a terminal's second child kept apart from its first."""

    def consistent(partial, slot, choices):
        if slot[2] == 1 and partial and \
                next(reversed(partial)) == (tree, slot[1], 0):
            # a terminal's second child differs from its first, the
            # newest pick
            twin = partial[tree, slot[1], 0]
            choices = (choice for choice in choices if choice != twin)
        return agree(partial, slot, choices)

    return consistent


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
# ``heights``, ``d`` or ``colors``.  Three edits: ``expr_coloring`` no
# longer passes ``kind``, ``body`` or its ``arity`` to ``Coloring``, which
# takes none of them (its arity is its number of spaces);
# ``verify_lower_bound`` ranks a pick's sorting permutation by its place
# in ``itertools.permutations``, since the library's ``tuple_type`` is
# gone; and it reads a factor's occupied heights off its nodes, each
# once, where it read the levels a report claims, so a report without
# nodes realized types.

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
    heights = [tuple(sorted(set(map(len, view.nodes)))) for view in views]
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
# random tables
#
# ``random_table_coloring`` left the library: no command reads it, and its
# table of every tuple is drawn up front, outside any step budget.  Its
# colors are those it drew there, so every digest pinned on it holds.

from hl_lab.witness import _color_sampler, _full_domain, _level_domain  # noqa: E402


def random_table_coloring(spaces, colors, seed, *, domain="level") -> Coloring:
    """Explicit random table drawn with a seeded generator (for small boxes).

    The colors are those of one ``rng.randrange(colors)`` per tuple in
    domain order, drawn in bulk by ``_color_sampler``.
    """
    if colors < 1:
        raise InvalidInputError(f"color count must be positive, got {colors}")
    wanted = list(_level_domain(spaces) if domain == "level" else _full_domain(spaces))
    draw = _color_sampler(random.Random(seed), colors)
    return lookup_coloring(spaces, colors, dict(zip(wanted, draw(len(wanted)))),
                           domain)


def lookup_coloring(spaces, colors, table, domain="level") -> Coloring:
    """The coloring ``table_coloring`` builds, minus its totality check."""

    def fn(tup):
        try:
            return table[tuple(tup)]
        except KeyError:
            raise InvalidInputError(f"tuple {tup} outside the table domain") from None

    return Coloring(colors, spaces, fn, domain=domain)


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


# ---------------------------------------------------------------------------
# the shared-level engine before its level scan was bounded

from hl_lab.subtrees import SubtreeReport  # noqa: E402
from hl_lab.tailcone import GrowOutcome, first_level  # noqa: E402


def grow_shared_subtrees_to_height(views, roots, height_goal, stage_factory, budget,
                                   *, label, transcript=None):
    """``tailcone.grow_shared_subtrees`` as it was when every stage scanned
    every level up to the lowest view height, however many stages were
    still to come: a stage could commit a level that left too few above
    it, and the run then failed at a later stage."""
    d = len(views)
    if len(roots) != d:
        raise InvalidInputError(f"need one root per tree: {d} trees, "
                                f"{len(roots)} roots")
    root_levels = {views[j].level_of(roots[j]) for j in range(d)}
    if len(root_levels) != 1:
        raise InvalidInputError("roots must sit at one common view level")
    height = min(v.height for v in views)
    if height_goal < 1:
        raise InvalidInputError(f"height goal must be positive, got {height_goal}")
    level_set = [root_levels.pop()]
    layers = [[(roots[j],) for j in range(d)]]
    while len(level_set) < height_goal:
        alpha = len(level_set) - 1
        if level_set[alpha] + 1 >= height:
            return GrowOutcome(False, None,
                               f"{label}: truncation exhausted before stage "
                               f"{alpha + 1}")
        successors = []
        for j in range(d):
            per = []
            for node in layers[alpha][j]:
                per.extend(views[j].extensions(node, level_set[alpha] + 1))
            successors.append(tuple(per))
        if any(not per for per in successors):
            return GrowOutcome(False, None,
                               f"{label}: a stage-{alpha} node does not split")
        slots = [(j, u) for j in range(d) for u in successors[j]]
        consistent = stage_factory(alpha + 1, tuple(level_set), layers)
        try:
            picked = first_level(
                slots, range(level_set[alpha] + 1, height),
                lambda slot, chi: views[slot[0]].extensions(slot[1], chi),
                consistent, budget)
        except BudgetExhausted:
            return GrowOutcome(False, None,
                               f"{label}: budget exhausted during stage {alpha + 1}",
                               capped=True)
        if picked is None:
            return GrowOutcome(False, None,
                               f"{label}: no admissible level for stage {alpha + 1}")
        chi, assignment = picked
        layer = [tuple(sorted((assignment[(j, u)] for u in successors[j]),
                              key=node_key))
                 for j in range(d)]
        level_set.append(chi)
        layers.append(layer)
        if transcript is not None:
            transcript.append({"event": f"{label}-stage", "stage": alpha + 1,
                               "view_level": chi,
                               "nodes": [list(layer[j]) for j in range(d)]})
    return GrowOutcome(True, tuple(
        SubtreeReport(space=views[j].ambient_space,
                      nodes=tuple(n for layer in layers for n in layer[j]),
                      level_set=tuple(views[j].ambient_level(xi) for xi in level_set))
        for j in range(d)))


# ---------------------------------------------------------------------------
# the tail-cone constructions when they recorded their tables stage by stage
#
# Kept verbatim as references: the stage engine ran an ``on_stage`` hook
# after every committed stage, ``fuse`` recorded table ``i`` there at stage
# ``i + 1``, and ``apply_tailcone_partial`` recorded each row one stage
# after its base tuple's deepest node; both stage filters read those
# tables.  The edits: the library's kernel is called as
# ``library_cross_consistent``, since ``cross_consistent`` here names the
# older fusion predicate above, and the two filters written here (fuse's
# root stage and the partial law's wrapper) take the library's filter
# protocol, one call per choice.  ``prefix_coloring``, beside them, is the
# coloring on which the partial law's tests reach a constrained stage.

import zlib  # noqa: E402

from hl_lab.search import cross_consistent as library_cross_consistent  # noqa: E402
from hl_lab.tailcone import (  # noqa: E402
    FuseOutcome,
    PartialOutcome,
    _view_report,
    check_partial_tailcone,
)


def prefix_coloring(spaces, seed, noise):
    """Mostly a function of the base node and the other nodes cut one level
    above it, so the partial law can hold, flipped on about 1/noise tuples."""

    def fn(tup):
        cut = len(tup[0]) + 1
        key = ",".join((tup[0],) + tuple(x[:cut] for x in tup[1:]))
        flip = zlib.crc32(f"{seed}:{','.join(tup)}".encode()) % noise == 0
        return (zlib.crc32(f"{seed}|{key}".encode()) + flip) % 2

    return Coloring(2, spaces, fn, domain="full")


def grow_shared_subtrees(views, roots, height_goal, stage_factory, budget,
                         *, label, on_stage=None, transcript=None):
    """Grow strong subtrees of the given trees over one shared level set.

    ``views`` holds one leveled tree per coordinate: a ``TreeSpace``, or a
    ``SubtreeReport`` whose levels are its witnessing levels.  Each stage
    extends every successor of the previous layer to a common higher
    level: ``first_level`` scans candidate levels upward, and the first
    canonically least choice vector accepted by the filter
    ``stage_factory(stage, level_set, layers)`` wins.  A stage scans only
    the levels that leave one level below the view height for each later
    stage: a higher level could only be committed for a later stage to
    fail.  The factory is called once per stage.  ``label`` names the
    search in failure messages and transcript events.  ``on_stage`` runs
    after every committed stage above the root (stage 1 on; the root stage
    commits nothing to record) so callers can record tables the later
    stages constrain.
    """
    d = len(views)
    if len(roots) != d:
        raise InvalidInputError(f"need one root per tree: {d} trees, "
                                f"{len(roots)} roots")
    root_levels = {views[j].level_of(roots[j]) for j in range(d)}
    if len(root_levels) != 1:
        raise InvalidInputError("roots must sit at one common view level")
    height = min(v.height for v in views)
    if height_goal < 1:
        raise InvalidInputError(f"height goal must be positive, got {height_goal}")
    level_set = [root_levels.pop()]
    layers = [[(roots[j],) for j in range(d)]]
    while len(level_set) < height_goal:
        alpha = len(level_set) - 1
        # stage alpha + 1 leaves a level for each later stage
        top = height - (height_goal - len(level_set) - 1)
        if level_set[alpha] + 1 >= top:
            return GrowOutcome(False, None,
                               f"{label}: truncation exhausted before stage "
                               f"{alpha + 1}")
        successors = []
        for j in range(d):
            per = []
            for node in layers[alpha][j]:
                per.extend(views[j].extensions(node, level_set[alpha] + 1))
            successors.append(tuple(per))
        if any(not per for per in successors):
            return GrowOutcome(False, None,
                               f"{label}: a stage-{alpha} node does not split")
        slots = [(j, u) for j in range(d) for u in successors[j]]
        consistent = stage_factory(alpha + 1, tuple(level_set), layers)
        try:
            picked = first_level(
                slots, range(level_set[alpha] + 1, top),
                lambda slot, chi: views[slot[0]].extensions(slot[1], chi),
                consistent, budget)
        except BudgetExhausted:
            return GrowOutcome(False, None,
                               f"{label}: budget exhausted during stage {alpha + 1}",
                               capped=True)
        if picked is None:
            return GrowOutcome(False, None,
                               f"{label}: no admissible level for stage {alpha + 1}")
        chi, assignment = picked
        layer = [tuple(sorted((assignment[(j, u)] for u in successors[j]),
                              key=node_key))
                 for j in range(d)]
        level_set.append(chi)
        layers.append(layer)
        if transcript is not None:
            transcript.append({"event": f"{label}-stage", "stage": alpha + 1,
                               "view_level": chi,
                               "nodes": [list(layer[j]) for j in range(d)]})
        if on_stage is not None:
            on_stage(alpha + 1, level_set, layers)
    return GrowOutcome(True, tuple(
        _view_report(views[j], [n for layer in layers for n in layer[j]], level_set)
        for j in range(d)))


def fuse(family: ColoringFamily, h=None, budget: StepBudget | None = None,
         transcript=None) -> FuseOutcome:
    """Build shared subtrees making every family member tail-cone determined.

    Stage ``i + 1`` fixes table ``i`` freely on the new level products;
    later stages must extend so that every already-recorded table keeps
    its law.  Candidate levels are scanned upward, so the level set is
    the canonically least one the construction can realize.
    """
    budget = budget or StepBudget()
    views = family.spaces
    m = len(family)
    height = min(v.height for v in views)
    if h is None:
        h = m + 1
    if h < m + 1:
        raise InvalidInputError(
            f"{m} colorings need at least {m + 1} subtree levels, got {h}"
        )
    if h > height:
        raise InvalidInputError(f"height goal {h} exceeds tree height {height}")
    d = family.arity
    tables: list[dict] = [dict() for _ in range(m)]

    def stage_factory(stage, level_set, layers):
        bind = min(stage - 1, m)
        if bind == 0:
            return lambda partial, later, spend: []

        def accept(tup):
            for beta in range(bind):
                key = tuple(views[k].restrict(tup[k], level_set[beta + 1])
                            for k in range(d))
                if family[beta].evaluate(tup) != tables[beta][key]:
                    return False
            return True

        return library_cross_consistent(d, accept, True)

    def on_stage(stage, level_set, layers):
        idx = stage - 1
        if idx < m:
            for tup in itertools.product(*(layers[stage][j] for j in range(d))):
                tables[idx][tup] = family[idx].evaluate(tup)

    outcome = grow_shared_subtrees(views, tuple(v.root for v in views), h,
                                   stage_factory, budget, on_stage=on_stage,
                                   transcript=transcript, label="fuse")
    if not outcome.success:
        return FuseOutcome(False, None, failure=outcome.failure,
                           capped=outcome.capped)
    certificate = TailConeCertificate(reports=outcome.reports,
                                      tables=tuple(tables))
    return FuseOutcome(True, certificate)


def apply_tailcone_partial(coloring: Coloring, base_coords,
                           h=None, budget: StepBudget | None = None,
                           transcript=None) -> PartialOutcome:
    """Shared subtrees on which the coloring obeys the partial tail-cone law.

    Base-coordinate extensions are never constrained at their own stage
    (their tuples' table rows are recorded one stage later), so those
    slots go canonically least.  Complement extensions must respect every
    row already recorded.  The construction ends with a full direct check
    of the law on the output.
    """
    budget = budget or StepBudget()
    views = coloring.spaces
    d = coloring.arity
    if coloring.domain != "full":
        raise InvalidInputError("the partial law quantifies over mixed-height "
                                "tuples; a full-domain coloring is required")
    base_set = set(base_coords)
    if not base_set or base_set >= set(range(d)) or not base_set <= set(range(d)):
        raise InvalidInputError(
            f"base coordinates must be a nonempty proper subset of range({d}), "
            f"got {sorted(base_set)}"
        )
    base_list = sorted(base_set)
    comp_list = [k for k in range(d) if k not in base_set]
    height = min(v.height for v in views)
    if h is None:
        h = height
    if h < 2:
        raise InvalidInputError(f"need at least two subtree levels, got {h}")
    table: dict = {}

    def stage_factory(stage, level_set, layers):
        fixed = [[node for lvl in range(stage) for node in layers[lvl][k]]
                 for k in range(d)]
        level_of = [{node: lvl for lvl in range(stage) for node in layers[lvl][k]}
                    for k in range(d)]

        def accept(tup):
            # nodes outside the committed layers sit at this stage's level
            lvls = [level_of[k].get(tup[k], stage) for k in range(d)]
            xi = max(lvls[k] for k in base_list)
            if xi + 1 >= stage or any(lvls[k] < xi + 1 for k in comp_list):
                return True
            t_key = tuple(tup[k] for k in base_list)
            v_key = tuple(views[k].restrict(tup[k], level_set[xi + 1])
                          for k in comp_list)
            want = table.get((t_key, v_key))
            return want is None or coloring.evaluate(tup) == want

        agree = library_cross_consistent(d, accept, True, fixed)

        def consistent(partial, later, spend):
            # a tuple through a base node new at this stage holds the law
            # vacuously: only complement choices after complement nodes
            # are checked
            if partial and next(reversed(partial))[0] in base_set:
                return []
            return agree(partial, [(slot, live) for slot, live in later
                                   if slot[0] not in base_set], spend)

        return consistent

    def on_stage(stage, level_set, layers):
        base_pools = [
            tuple((node, lvl) for lvl in range(stage) for node in layers[lvl][k])
            for k in base_list
        ]
        comp_pools = [layers[stage][k] for k in comp_list]
        for bcombo in itertools.product(*base_pools):
            if max(lvl for (_, lvl) in bcombo) != stage - 1:
                continue
            t_key = tuple(node for (node, _) in bcombo)
            for vcombo in itertools.product(*comp_pools):
                tup = [None] * d
                for pos, k in enumerate(base_list):
                    tup[k] = t_key[pos]
                for pos, k in enumerate(comp_list):
                    tup[k] = vcombo[pos]
                table[(t_key, tuple(vcombo))] = coloring.evaluate(tuple(tup))

    outcome = grow_shared_subtrees(views, tuple(v.root for v in views), h,
                                   stage_factory, budget, on_stage=on_stage,
                                   transcript=transcript, label="partial")
    if not outcome.success:
        return PartialOutcome(False, None, tuple(base_list), None, None,
                              failure=outcome.failure, capped=outcome.capped)
    check = check_partial_tailcone(outcome.reports, coloring, base_list, table)
    if not check.valid:
        return PartialOutcome(False, outcome.reports, tuple(base_list), table,
                              check, failure="constructed subtrees fail the "
                              "partial determining law")
    return PartialOutcome(True, outcome.reports, tuple(base_list), table, check)


# ---------------------------------------------------------------------------
# the monochromatic-product search before its root scan was bounded
#
# Kept verbatim as the reference: ``hl_search`` tried root tuples on every
# level, though a root above level ``height - h`` leaves too few levels and
# its grow fails before stage 1.  The edits: it is named
# ``hl_search_every_level``, calls the engine above, and calls the
# library's kernel as ``library_cross_consistent``.

from hl_lab.tailcone import HLOutcome  # noqa: E402


def hl_search_every_level(coloring: Coloring, h=None,
                          budget: StepBudget | None = None,
                          transcript=None) -> HLOutcome:
    """Strong subtrees whose level products all get one color.

    Root tuples are scanned canonically (root level, then product
    order); the root tuple's own color is the target, so homogeneity
    holds at every subtree level including the roots.
    """
    budget = budget or StepBudget()
    views = coloring.spaces
    d = coloring.arity
    height = min(v.height for v in views)
    if h is None:
        h = height
    for rho in range(height):
        for roots in itertools.product(*(v.level(rho) for v in views)):
            gamma = coloring.evaluate(roots)

            def stage_factory(stage, level_set, layers):
                return library_cross_consistent(d, coloring.evaluate, gamma)

            outcome = grow_shared_subtrees(views, roots, h, stage_factory,
                                           budget, transcript=transcript,
                                           label="hl")
            if outcome.success:
                return HLOutcome(True, outcome.reports, gamma)
            if outcome.capped:
                return HLOutcome(False, None, None,
                                 failure=outcome.failure, capped=True)
    return HLOutcome(False, None, None,
                     failure="no root tuple grows a monochromatic product "
                             f"of height {h}")


# ---------------------------------------------------------------------------
# finite-HL witness groups, one base and one per-cone product at a time
#
# Kept verbatim as the reference for ``witness._witness_groups``, which
# reads each coordinate's choices off the strong subtrees of
# ``subtrees._strong_node_sets`` instead.  The two list the same groups
# in different orders.


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


# ---------------------------------------------------------------------------
# strong subtrees as a list of layers, wrapped in reports
#
# Kept verbatim as the reference for ``subtrees.enumerate_strong_subtrees``
# and ``witness._witness_groups``, which now read one layer generator
# that yields node tuples.  Both must keep this order.  The groups
# function is renamed here, as ``_witness_groups`` above is the per-cone
# reference.

from hl_lab.subtrees import _check_level_set  # noqa: E402


def enumerate_strong_subtrees(space: TreeSpace, level_set):
    """Yield every strong subtree with the given witnessing level set.

    Deterministic order: roots scan canonically, then extension choices
    scan in canonical node order, successor by successor.
    """
    levels = tuple(int(a) for a in level_set)
    _check_level_set(levels, space)

    def grow(stage_nodes, xi):
        # stage_nodes: chosen nodes at subtree level xi, canonically sorted
        if xi + 1 == len(levels):
            yield [list(stage_nodes)]
            return
        target = levels[xi + 1]
        # one choice of extension per ambient successor of each chosen node
        slots = []
        for node in stage_nodes:
            for succ in space.extensions(node, len(node) + 1):
                choices = space.extensions(succ, target)
                if not choices:
                    return
                slots.append(choices)
        for pick in itertools.product(*slots):
            next_nodes = sort_nodes(pick)
            for rest in grow(next_nodes, xi + 1):
                yield [list(stage_nodes)] + rest

    for root in space.level(levels[0]):
        for layers in grow((root,), 0):
            nodes = [n for layer in layers for n in layer]
            yield SubtreeReport(space=space, nodes=tuple(nodes), level_set=levels)


def _witness_groups_from_reports(d, b, n):
    """Minimal witness candidates as index groups over the level domain.

    A candidate's base and matrix form, in each coordinate, a strong
    subtree on levels ``(ht, eta)``; a group is the product of one such
    subtree's top level per coordinate.  The level domain excludes
    height-0 tuples: no witness ever evaluates them, so their colors are
    irrelevant to witness existence.
    """
    space = TreeSpace.uniform(b, n)
    domain = [tup for xi in range(1, n)
              for tup in itertools.product(space.level(xi), repeat=d)]
    index = {tup: i for i, tup in enumerate(domain)}
    groups = []
    for ht in range(n - 1):
        for eta in range(ht + 1, n):
            tops = [r.level(1) for r in enumerate_strong_subtrees(space, (ht, eta))]
            for cols in itertools.product(tops, repeat=d):
                groups.append(tuple(index[m] for m in itertools.product(*cols)))
    return domain, groups


# ---------------------------------------------------------------------------
# almost-all homogenization before it skipped refuted color vectors
#
# Kept as the reference for the nogood skip: the staged scan tried every
# color vector of every root tuple, regrowing the construction from scratch
# for each.  Only the staged route is kept; the edits: the checks of the
# arguments and the height-factored route are left out, and the attempt is
# a function of its own.

from hl_lab.polarized import (  # noqa: E402
    AlmostAllReport,
    _measure_patterns as library_measure_patterns,
)
from hl_lab.search import typed_consistent  # noqa: E402
from hl_lab.tailcone import grow_shared_subtrees as library_grow  # noqa: E402


def almost_all_attempt(f, h_goal, roots, gamma, budget):
    """One attempt of the staged scan: the construction on ``roots`` to
    ``h_goal`` levels with the color vector ``gamma`` (pattern -> color)."""

    def stage_factory(stage, level_set, layers):
        return typed_consistent(
            f.evaluate, [tuple((node, lvl) for lvl in range(stage)
                               for node in layers[lvl][k]) for k in range(f.arity)],
            gamma)

    return library_grow(f.spaces, roots, h_goal, stage_factory, budget,
                        label="almost-all")


def almost_all_every_vector(f, epsilon=Fraction(1, 10), h=None, budget=None):
    """``almost_all_homogenize``'s staged route, every color vector tried."""
    budget = budget or StepBudget()
    views = f.spaces
    arity = f.arity
    epsilon = Fraction(epsilon)
    perms = list(itertools.permutations(range(arity)))
    height = min(v.height for v in views)
    h_max = min(h if h is not None else height, height)

    def capped(failure):
        return AlmostAllReport(success=False, reports=None, patterns=(),
                               epsilon=epsilon, route="staged",
                               failure=failure, capped=True)

    for h_goal in range(h_max, arity - 1, -1):
        for roots in _level_domain(views, h_goal):
            for gamma_vec in itertools.product(range(f.colors),
                                               repeat=len(perms)):
                gamma = dict(zip(perms, gamma_vec))
                outcome = almost_all_attempt(f, h_goal, roots, gamma, budget)
                if outcome.capped:
                    return capped("budget exhausted during the staged scan")
                if outcome.success:
                    try:
                        budget.spend(math.prod(len(r.nodes)
                                               for r in outcome.reports))
                    except BudgetExhausted:
                        return capped("budget exhausted while measuring "
                                      "the construction")
                    patterns = library_measure_patterns(f, outcome.reports, gamma)
                    ok = all(p.fraction <= epsilon for p in patterns)
                    return AlmostAllReport(
                        success=ok, reports=outcome.reports,
                        patterns=patterns, epsilon=epsilon,
                        route="staged",
                        failure="" if ok else
                        "construction exceeds the exception budget")
    return AlmostAllReport(
        success=False, reports=None, patterns=(), epsilon=epsilon,
        route="staged",
        failure="no root tuple and color vector admits the construction")


# ---------------------------------------------------------------------------
# the dimension-raising votes before they were read per node
#
# Kept verbatim as the reference: ``dimension_induction`` listed every
# root-to-top branch of coordinate 0 and ran one dense-set search per
# branch, its coloring reading the branch's node at the trimmed level of
# the tuple's first coordinate.  The one edit: the loop is lifted out of
# ``dimension_induction`` with the lines that build ``tview`` and
# ``uviews`` from the reports, and a capped search raises.

from hl_lab.subtrees import trim  # noqa: E402
from hl_lab.witness import dshl_search  # noqa: E402


def _branches(view):
    chains = [(view.root,)]
    for xi in range(1, view.height):
        chains = [chain + (ext,) for chain in chains
                  for ext in view.extensions(chain[-1], xi)]
    return chains


def branch_votes(coloring, reports, budget):
    """The (beta, base, color) votes of one dense-set search per branch."""
    level_set = reports[0].level_set
    tview = reports[0]
    uviews = [trim(r, level_set[1:]) for r in reports[1:]]

    votes: Counter = Counter()
    for chain in _branches(tview):

        def branch_fn(tup, chain=chain):
            zeta = uviews[0].level_of(tup[0])
            return coloring.evaluate((chain[zeta],) + tuple(tup))

        branch_coloring = Coloring(coloring.colors, uviews, branch_fn,
                                   domain="level")
        found = dshl_search(branch_coloring, budget)
        if found is not None:
            base, color = found
            beta = uviews[0].level_of(base[0])
            # the reassembly needs chain room: matrices live at trimmed
            # levels in [beta + 2, height - 2]
            if beta + 4 <= tview.height:
                votes[(beta, base, color)] += 1
    return votes


def pruned_tree(rng, height, keep=0.6):
    """A random explicit binary tree whose every branch reaches the top;
    each child is kept with probability ``keep``, one kept at least."""
    nodes, layer = [""], [""]
    for _ in range(height - 1):
        layer = [kid for node in layer
                 for kid in ([node + digit for digit in "01" if rng.random() < keep]
                             or [node + rng.choice("01")])]
        nodes += layer
    return TreeSpace.explicit(nodes)
