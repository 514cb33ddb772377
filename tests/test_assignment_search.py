"""The assignment search against its pointer-based predecessor and brute force.

Random instances with a monotone predicate: a banned (slot, choice) pair
is rejected against every partial assignment, and a banned pair of choices
is rejected once both are assigned.  The search must return what the
reference in ``tests/oracles.py`` returns, spend the same steps, raise the
same exception under a cap, and ask the predicate the same questions in
the same order (the library search asks it through ``oracles.as_filter``,
one question per pulled candidate); uncapped, its answer is the first
assignment in product order that the predicate accepts slot by slot.
"""

import itertools
import random

from hl_lab.search import BudgetExhausted, StepBudget, prefiltered_assignment

import oracles

LARGE = 100_000  # above the steps any instance here can take


def _instance(rng):
    slots = [f"s{i}" for i in range(rng.randrange(8))]
    # an empty slot ends the search in its prefilter, so keep them rare
    candidates = {slot: rng.sample(range(6), rng.choice([0] + [1, 2, 3, 4] * 5))
                  for slot in slots}
    pairs = [(slot, choice) for slot in slots for choice in candidates[slot]]
    banned = {pair for pair in pairs if rng.random() < 0.15}
    clashes = {frozenset(two) for two in itertools.combinations(pairs, 2)
               if two[0][0] != two[1][0] and rng.random() < 0.3}
    return slots, candidates, banned, clashes


def _predicate(slots, banned, clashes, asked):
    def consistent(partial, slot, choice):
        # empty in the prefilter, else exactly the earlier slots in slot
        # order: never the slot being tried
        assert list(partial) in ([], slots[:slots.index(slot)])
        asked.append((tuple(partial.items()), slot, choice))
        if (slot, choice) in banned:
            return False
        return not any(frozenset({(s, c), (slot, choice)}) in clashes
                       for s, c in partial.items())

    return consistent


def _run(search, instance, cap):
    slots, candidates, banned, clashes = instance
    asked = []
    budget = StepBudget(cap)
    try:
        got = search(slots, candidates, _predicate(slots, banned, clashes, asked),
                     budget)
    except BudgetExhausted as exhausted:
        got = ("exhausted", str(exhausted))
    return got, budget.used, asked


def _brute_force(instance):
    """The first assignment in product order accepted slot by slot, or None."""
    slots, candidates, banned, clashes = instance
    consistent = _predicate(slots, banned, clashes, [])
    for picks in itertools.product(*(candidates[slot] for slot in slots)):
        partial = {}
        for slot, choice in zip(slots, picks):
            if not consistent(partial, slot, choice):
                break
            partial[slot] = choice
        else:
            return partial
    return None


def _filtered(slots, candidates, consistent, budget):
    """The library search, asking the per-choice predicate through a filter."""
    return prefiltered_assignment(slots, candidates, oracles.as_filter(consistent),
                                  budget)


def test_search_matches_the_pointer_search_and_brute_force():
    rng = random.Random("prefiltered-assignment")
    outcomes = set()
    for _ in range(500):
        instance = _instance(rng)
        want = _run(oracles.prefiltered_assignment, instance, LARGE)
        assert _run(_filtered, instance, LARGE) == want
        assert want[0] == _brute_force(instance)
        # a cap at or above the steps taken never runs out; below, it must
        cap = rng.randint(1, want[1] + 1)
        capped = _run(_filtered, instance, cap)
        assert capped == _run(oracles.prefiltered_assignment, instance, cap)
        assert (capped[0] == want[0]) == (cap >= want[1])
        outcomes.add((want[0] is not None, cap >= want[1]))
    # found and not found, each both within and beyond its cap
    assert outcomes == set(itertools.product((True, False), repeat=2))
