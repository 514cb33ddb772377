"""Small deterministic backtracking helpers shared by the search modules."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .errors import InvalidInputError


class BudgetExhausted(Exception):
    """Internal signal: a step budget ran out mid-scan."""


_UNSEEN = object()


@dataclass
class StepBudget:
    """Counts work units; raises once the cap is crossed.

    ``cap`` bounds the total number of steps (candidates a consistency
    filter checks, in the staged searches) that the searches handed
    this budget may take; it must be at least 1.  One budget can serve
    several searches in turn, and ``used`` tells the caller how much of
    it they spent.  The
    exception is internal; public entry points convert it into either a
    cap-exceeded error or a first-class failure report naming the stage
    that starved.
    """

    cap: int = 500_000
    used: int = field(default=0, init=False)

    def __post_init__(self):
        if self.cap < 1:
            raise InvalidInputError(f"need max_steps >= 1, got {self.cap}")

    def spend(self, amount: int = 1) -> None:
        self.used += amount
        if self.used > self.cap:
            raise BudgetExhausted(f"budget of {self.cap} steps exhausted")


def prefiltered_assignment(slots, candidates, consistent, budget: StepBudget):
    """Depth-first search for the first full slot assignment, product order.

    ``slots`` is an ordered list of slot ids and ``candidates(slot)`` an
    ordered sequence of choices.  ``consistent(partial, later, spend)``
    is the stage's filter, called once against the empty assignment and
    once after each choice.  ``later`` holds ``(slot, live)`` pairs, the
    slots after the newest entry of the partial assignment ``partial``
    with their live candidates.  Against the empty assignment it holds
    every slot, and is an iterator that calls ``candidates(slot)`` only
    when the filter reaches the slot: no slot after the first one the
    filter empties is built.  The filter returns ``(slot, kept)`` pairs,
    in slot order, for the slots whose live candidates it narrowed:
    ``kept`` are the members of ``live`` that are consistent with
    ``partial``, in order.  It stops at the first slot it empties.  The
    first assignment found is the minimum in lexicographic product order
    (slots major to minor), which is what makes emitted witnesses
    canonical.  Returns ``None`` when the space is exhausted without a
    solution.

    Requires a monotone filter: a choice rejected against a partial
    assignment stays rejected against every larger one.  Each slot's
    live candidates start as its candidates filtered against the empty
    assignment; a slot left with none fails the whole call at once, which
    keeps independent-slot instances from backtracking exponentially.
    Slots the filter did not reach are built after it returns; each
    slot's candidates are built at most once.

    The search does forward checking (Haralick & Elliott 1980): after
    each choice the filter narrows every later slot's live candidates,
    and a slot left with none withdraws the choice at once.  A trail
    keeps the lists that a choice's narrowing replaced, and withdrawing
    the choice puts them back.  So ``partial`` holds a prefix of the
    slots, in slot order, and every member of a ``live`` list was
    consistent with ``partial`` less its newest entry (its last, in
    insertion order): a filter need only check what that entry adds.

    A step is one live candidate that a filter re-checks: the filter
    calls ``spend()`` before it reads the candidate.  A slot whose
    verdicts the newest entry cannot change takes no step and keeps its
    list, and trying a live choice takes no step: every withdrawn choice
    was paid for by the steps of the narrowing that emptied a later slot.
    """
    live = {}

    def opened():
        # a slot without candidates ends the search once the slots before
        # it are narrowed
        for slot in slots:
            got = candidates(slot)
            if not got:
                return
            live[slot] = got
            yield slot, got

    later = opened()
    for slot, kept in consistent({}, later, budget.spend):
        if not kept:
            return None
        live[slot] = kept
    for _ in later:
        pass  # open the slots the prefilter did not reach
    if len(live) < len(slots):
        return None
    if not slots:
        return {}
    assignment: dict = {}
    trail = []  # (slot, the live list a narrowing replaced)
    marks = []  # the trail's length before each assigned slot's narrowing
    open_slots = [iter(live[slots[0]])]
    while open_slots:
        depth = len(open_slots) - 1
        if len(assignment) > depth:
            # back at this slot: withdraw its choice and what that narrowed
            assignment.popitem()
            mark = marks.pop()
            while len(trail) > mark:
                slot, kept = trail.pop()
                live[slot] = kept
        choice = next(open_slots[-1], _UNSEEN)
        if choice is _UNSEEN:
            open_slots.pop()
            continue
        assignment[slots[depth]] = choice
        if depth + 1 == len(slots):
            return dict(assignment)
        marks.append(len(trail))
        later = [(slot, live[slot]) for slot in slots[depth + 1:]]
        narrowed = consistent(assignment, later, budget.spend)
        for slot, kept in narrowed:
            trail.append((slot, live[slot]))
            live[slot] = kept
        if not narrowed or narrowed[-1][1]:
            open_slots.append(iter(live[slots[depth + 1]]))
    return None


# ---------------------------------------------------------------------------
# consistency kernel
#
# The staged searches hand ``prefiltered_assignment`` one filter per stage.
# Every live candidate a filter is handed was consistent with the partial
# assignment less its newest entry, so each filter checks only what that
# entry adds, and skips a slot whose verdicts the entry cannot change.  The
# filters build each coordinate's assigned nodes from the partial
# assignment alone (after any nodes committed at earlier stages), read in
# insertion order (which the assignment search keeps equal to slot order),
# and memoize every tuple's value for the life of the filter: a tuple met
# again after backtracking costs one dict lookup.


def cross_consistent(arity, value, reference=None, fixed=None):
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
    Each call builds the pools once and one plan per coordinate.
    """
    memo: dict = {}
    heads = fixed if fixed is not None else [()] * arity

    def val(tup):
        got = memo.get(tup, _UNSEEN)
        if got is _UNSEEN:
            got = memo[tup] = value(tup)
        return got

    def plan(pools, newest, j):
        """What a choice at coordinate ``j`` is checked on, or ``None``."""
        own = pools[j]
        if not all(pools[:j] + pools[j + 1:]):
            return None
        firsts = [pool[0] if pool else None for pool in pools]
        before, after = tuple(firsts[:j]), tuple(firsts[j + 1:])
        rest = None
        if newest is not None:
            (k, _), node = newest
            if k == j:
                if reference is not None or len(own) > 1:
                    return None  # no tuple holds both, and the target stays
                # the newest node is the first in the choice's pool
                rest = [(before, after)]
            else:
                pools = pools[:k] + [(node,)] + pools[k + 1:]
        if rest is None:
            rest = [(b, a) for b in itertools.product(*pools[:j])
                    for a in itertools.product(*pools[j + 1:])]
        target = reference
        if target is None and own:
            target = val(before + (own[0],) + after)
        return before, after, target, rest

    def consistent(partial, later, spend):
        pools = [list(head) for head in heads]
        for (i, _), node in partial.items():
            pools[i].append(node)
        if pools.count([]) > 1:
            return []  # no tuple through any choice is complete yet
        newest = next(reversed(partial.items()), None)
        plans: dict = {}
        narrowed = []
        for slot, live in later:
            j = slot[0]
            if j not in plans:
                plans[j] = plan(pools, newest, j)
            if plans[j] is None:
                continue
            before, after, target, rest = plans[j]
            kept = []
            for choice in live:
                spend()
                want = target
                if want is None:
                    want = val(before + (choice,) + after)
                for b, a in rest:
                    if val(b + (choice,) + a) != want:
                        break
                else:
                    kept.append(choice)
            if len(kept) < len(live):
                narrowed.append((slot, kept))
                if not kept:
                    break
        return narrowed

    return consistent


def typed_consistent(value, fixed, pinned):
    """Filter: each tuple type keeps one value across all picked nodes.

    Slots begin with their coordinate: a slot's node sits at coordinate
    ``slot[0]``, and every other coordinate ``i`` ranges over the
    ``(node, band)`` pairs of ``fixed[i]``.  A tuple's type is its
    coordinates ordered by band, the picked node counting as the highest
    band; tuples whose fixed coordinates tie on a band have no type and
    are skipped.  The choice is consistent when, over every tuple through
    an assigned node or the choice, each type takes a single value, equal
    to ``pinned[type]`` where that is given.  The filter keeps ``pinned``
    as given, so it must not change while the filter is in use, and reads
    a pinned value only through ``pinned.get``.  A coordinate's types are
    computed when it is first asked about, and a node's row of (type,
    value) pairs once per coordinate; the filter's ``row(coordinate,
    node)`` hands it back (``None`` on a clash).  Against the empty
    assignment the filter checks each choice's own row; otherwise it
    compares that row with the newest node's on the types not pinned,
    and changes nothing when there are none.
    """
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

    def consistent(partial, later, spend):
        newest = []
        if partial:
            # every live choice's row already agrees with the pinned types
            last, node = next(reversed(partial.items()))
            newest = [(pattern, got) for pattern, got in row(last[0], node).items()
                      if pattern not in pinned]
            if not newest:
                return []

        narrowed = []
        for slot, live in later:
            kept = []
            for choice in live:
                spend()
                table = row(slot[0], choice)
                if table is not None and (not newest or all(
                        table.get(pattern, got) == got for pattern, got in newest)):
                    kept.append(choice)
            if len(kept) < len(live):
                narrowed.append((slot, kept))
                if not kept:
                    break
        return narrowed

    consistent.row = row
    return consistent
