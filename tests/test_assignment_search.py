"""The assignment search against its pointer-based predecessor and brute force.

Random instances with a monotone predicate: a banned (slot, choice) pair
is rejected against every partial assignment, and a banned pair of choices
is rejected once both are assigned.  The library search asks the predicate
through ``oracles.as_filter``, one question per live candidate it re-checks;
it does forward checking, so it takes other steps than the pointer search
kept in ``tests/oracles.py``.  It must return what that search returns, and the
choices it tries must be a subsequence of the candidates the pointer
search asks about; uncapped, its answer is the first assignment in product
order that the predicate accepts slot by slot.  Under a cap it must run
out exactly when the cap is below the steps it takes uncapped, at the
step that crosses the cap.
"""

import itertools
import random

from hl_lab.search import (
    BudgetExhausted,
    Candidates,
    StepBudget,
    cross_consistent,
    prefiltered_assignment,
)

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
        # a prefix of the earlier slots, in slot order: never the slot
        # being tried
        assert list(partial) == slots[:len(partial)]
        assert len(partial) <= slots.index(slot)
        asked.append((tuple(partial.items()), slot, choice))
        if (slot, choice) in banned:
            return False
        return not any(frozenset({(s, c), (slot, choice)}) in clashes
                       for s, c in partial.items())

    return consistent


def _run(search, instance, cap):
    """``(result, steps used, per-call log)`` of one search over ``instance``."""
    slots, candidates, banned, clashes = instance
    calls = []
    budget = StepBudget(cap)
    try:
        got = search(calls)(slots, candidates, _predicate(slots, banned, clashes, []),
                            budget)
    except BudgetExhausted as exhausted:
        got = ("exhausted", str(exhausted))
    return got, budget.used, calls


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


def _library(calls):
    """The library search, asking the per-choice predicate through a filter."""
    search = oracles.watch_tries(prefiltered_assignment, calls)
    return lambda slots, candidates, consistent, budget: search(
        slots, candidates, oracles.as_filter(consistent), budget)


def _pointer(calls):
    return oracles.watch_asks(oracles.prefiltered_assignment, calls)


def test_search_matches_the_pointer_search_and_brute_force():
    rng = random.Random("prefiltered-assignment")
    outcomes = set()
    for _ in range(500):
        instance = _instance(rng)
        got, used, tries = _run(_library, instance, LARGE)
        want, _, asks = _run(_pointer, instance, LARGE)
        assert got == want == _brute_force(instance)
        oracles.assert_same_calls(tries, asks)
        # a cap at or above the steps taken never runs out; below, it must,
        # and the step that crossed the cap is the last one spent
        cap = rng.randint(1, used + 1)
        capped, capped_used, _ = _run(_library, instance, cap)
        assert (capped == got) == (cap >= used)
        if cap < used:
            assert capped[0] == "exhausted" and capped_used == cap + 1
        outcomes.add((got is not None, cap >= used))
    # found and not found, each both within and beyond its cap
    assert outcomes == set(itertools.product((True, False), repeat=2))


def test_a_slot_left_without_candidates_withdraws_the_choice_at_once():
    # a=x rules out c's one candidate: no choice for b is tried under it
    slots = ["a", "b", "c"]
    candidates = {"a": ["x", "y"], "b": [1, 2, 3], "c": ["p"]}
    clashes = {frozenset({("a", "x"), ("c", "p")})}
    calls = []
    found = _library(calls)(slots, candidates, _predicate(slots, set(), clashes, []),
                            StepBudget(LARGE))
    assert found == {"a": "y", "b": 1, "c": "p"}
    assert calls == [(found, [(("a", "x"),), (("a", "y"),), (("a", "y"), ("b", 1)),
                              (("a", "y"), ("b", 1), ("c", "p"))])]


def _counting(pools, built):
    """Lazy candidates over ``pools``, logging each slot as it is built."""

    def build(slot):
        built.append(slot)
        return pools[slot]

    return Candidates(build)


def test_no_slot_after_the_first_emptied_one_is_built():
    pools = {"a": (1, 2), "b": (3, 4), "c": (5,), "d": (6,)}
    built = []
    found = prefiltered_assignment(
        list(pools), _counting(pools, built),
        oracles.as_filter(lambda partial, slot, choice: slot != "b"),
        StepBudget(LARGE))
    assert found is None
    assert built == ["a", "b"]


def test_a_prefilter_that_reads_no_slot_leaves_every_slot_open():
    # with three coordinates and no node assigned, no tuple is complete:
    # the kernel filter returns without reading ``later``
    filtered = cross_consistent(3, lambda tup: 0)
    assert filtered({}, iter(()), StepBudget(LARGE).spend) == []
    pools = {(0, "x"): ("0",), (1, "x"): ("1",), (2, "x"): ("00", "01")}
    built = []
    found = prefiltered_assignment(list(pools), _counting(pools, built), filtered,
                                   StepBudget(LARGE))
    assert found == {(0, "x"): "0", (1, "x"): "1", (2, "x"): "00"}
    assert built == list(pools)
    # and a slot without candidates still ends the search
    pools[(2, "x")] = ()
    assert prefiltered_assignment(list(pools), _counting(pools, []), filtered,
                                  StepBudget(LARGE)) is None
