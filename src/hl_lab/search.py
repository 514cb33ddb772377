"""Small deterministic backtracking helpers shared by the search modules."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .errors import InvalidInputError


class BudgetExhausted(Exception):
    """Internal signal: a step budget ran out mid-scan."""


@dataclass
class StepBudget:
    """Counts work units; raises once the cap is crossed.

    ``cap`` bounds the total number of steps (candidate inspections, in
    the staged searches) that the searches handed this budget may take;
    it must be at least 1.  One budget can serve several searches in
    turn, and ``used`` tells the caller how much of it they spent.  The
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

    ``slots`` is an ordered list of slot ids and ``candidates[slot]`` an
    ordered sequence of choices.  ``consistent(partial, slot, choices)``
    is a filter over the partial assignment built so far: it returns a
    lazy iterator over the members of the iterator ``choices`` that are
    consistent with ``partial``, in order.  The first assignment found is
    the minimum in lexicographic product order (slots major to minor),
    which is what makes emitted witnesses canonical.  Returns ``None``
    when the space is exhausted without a solution.

    Requires a monotone filter: a choice rejected against the empty
    partial assignment stays rejected against every larger one.  Each
    slot's candidate list is filtered against the empty assignment first;
    an empty filtered list fails the whole call immediately, which keeps
    independent-slot instances from backtracking exponentially.

    The search position is one filter per open slot over its filtered
    candidates: advancing pulls the top filter's next choice, and
    backtracking drops it and unassigns the slot below, whose filter
    resumes past its choice.  So ``partial`` holds the earlier slots in
    slot order, never ``slot`` itself, and is the same whenever that
    slot's filter runs: a filter may read it once.  Each candidate pulled
    from ``choices``, in the prefilter and in the search, spends one step
    before the filter sees it.
    """

    def charged(choices):
        for choice in choices:
            budget.spend()
            yield choice

    filtered = []
    for slot in slots:
        keep = list(consistent({}, slot, charged(candidates[slot])))
        if not keep:
            return None
        filtered.append(keep)
    if not slots:
        return {}
    assignment: dict = {}
    open_slots = [consistent(assignment, slots[0], charged(filtered[0]))]
    while open_slots:
        depth = len(open_slots)
        for choice in open_slots[-1]:
            assignment[slots[depth - 1]] = choice
            if depth == len(slots):
                return dict(assignment)
            open_slots.append(consistent(assignment, slots[depth],
                                         charged(filtered[depth])))
            break
        else:
            # this slot is exhausted: back to the one below, past its choice
            open_slots.pop()
            if assignment:
                assignment.popitem()
    return None


# ---------------------------------------------------------------------------
# consistency kernel
#
# The staged searches hand ``prefiltered_assignment`` one filter per stage.
# The filters below build each coordinate's assigned nodes from the partial
# assignment alone (after any nodes committed at earlier stages), read in
# insertion order (which the assignment search keeps equal to slot order),
# once per call, and memoize every tuple's value for the life of the
# filter: a tuple met again after backtracking costs one dict lookup.
# Verdicts are exactly those of evaluating every tuple afresh, and each
# choice's tuples are evaluated after its step is spent, in the order a
# per-choice check would take, so step counts, evaluations and witnesses
# do not depend on the memo or on the per-call set-up.

_UNSEEN = object()


def cross_consistent(arity, value, reference=None, fixed=None):
    """Filter: every completed tuple through the choice has one value.

    Slots are ``(coordinate, key)`` pairs.  A tuple takes one node per
    coordinate from its pool, with the choice in its own coordinate.  A
    coordinate's pool holds ``fixed[i]`` (when given: the nodes of
    earlier, committed stages) followed by its assigned nodes; until
    every other pool holds a node no tuple exists and every choice is
    consistent.  Tuples among earlier choices were checked when their
    newest member was assigned.  Each tuple's ``value(tup)`` must equal
    ``reference``; when ``reference`` is ``None`` it is the value of the
    tuple of each pool's first node, the choice standing in for its own
    coordinate when that pool is still empty.
    """
    memo: dict = {}
    heads = fixed if fixed is not None else [()] * arity

    def consistent(partial, slot, choices):
        pools = [list(head) for head in heads]
        for s, node in partial.items():
            pools[s[0]].append(node)
        j = slot[0]
        own = pools[j]
        if not all(pools[:j] + pools[j + 1:]):
            yield from choices
            return
        rest = [(before, after)
                for before in itertools.product(*pools[:j])
                for after in itertools.product(*pools[j + 1:])]
        target = reference
        for choice in choices:
            if reference is None:
                before, after = rest[0]
                anchor = before + (own[0] if own else choice,) + after
                target = memo.get(anchor, _UNSEEN)
                if target is _UNSEEN:
                    target = memo[anchor] = value(anchor)
            for before, after in rest:
                tup = before + (choice,) + after
                got = memo.get(tup, _UNSEEN)
                if got is _UNSEEN:
                    got = memo[tup] = value(tup)
                if got != target:
                    break
            else:
                yield choice

    return consistent


def typed_consistent(value, at, fixed, pinned):
    """Filter: each tuple type keeps one value across all picked nodes.

    The nodes of the partial assignment and the choice sit at coordinate
    ``at``; every other coordinate ``i`` ranges over the ``(node, band)``
    pairs of ``fixed[i]``.  A tuple's type is its coordinates ordered by
    band, the picked node counting as the highest band; tuples whose fixed
    coordinates tie on a band have no type and are skipped.  The choice is
    consistent when, over every tuple through an assigned node or the
    choice, each type takes a single value, equal to ``pinned[type]``
    where that is given.  Types are computed once per filter, each node's
    row of (type, value) pairs once per node, and the partial
    assignment's rows are merged once per call, after the first pull.
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

    def row_of(node):
        table = rows.get(node, _UNSEEN)
        if table is _UNSEEN:
            table = rows[node] = row(node)
        return table

    def merge(nodes):
        """The types' values over the nodes' rows, or None on a clash."""
        merged: dict = {}
        for node in nodes:
            table = row_of(node)
            if table is None:
                return None
            for pattern, got in table.items():
                if merged.setdefault(pattern, got) != got:
                    return None
        return merged

    def consistent(partial, slot, choices):
        merged = _UNSEEN
        for choice in choices:
            if merged is _UNSEEN:
                merged = merge(partial.values())
            if merged is None:
                continue
            table = row_of(choice)
            if table is None:
                continue
            for pattern, got in table.items():
                if merged.get(pattern, got) != got:
                    break
            else:
                yield choice

    return consistent
