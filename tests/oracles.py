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
# the finite-HL inner loop the bulk sampler and itemgetter test replaced
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
