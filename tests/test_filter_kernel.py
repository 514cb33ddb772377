"""The filter kernel and the forward-checking search against brute force.

The library's consistency kernel is asked, after each choice, about the
live candidates of every later slot, and checks only what the newest
choice adds; the per-choice ``cross_consistent`` and ``typed_consistent``
it replaced are kept verbatim in ``oracles`` (as
``kernel_cross_consistent`` and ``kernel_typed_consistent``), together
with the pointer-based assignment search that asked them.  On random
small boxes the library search must return the first assignment in
product order that the per-choice kernel accepts slot by slot (found by
brute force where the product is small), and, call by call, what the
pointer search returns; the choices it tries must be a subsequence of the
candidates the pointer search asks about.  Under a cap below the steps it
takes it must run out at the step that crosses the cap, without
evaluating the candidate that step pulled, and a ``value`` error must
pass through it.
"""

import itertools
import math
import random
import zlib

import pytest

import oracles
from hl_lab.search import (
    BudgetExhausted,
    StepBudget,
    cross_consistent,
    prefiltered_assignment,
    typed_consistent,
)

LARGE = 1_000_000  # above the steps any box here can take


class _LoggedBudget(StepBudget):
    """A step budget that logs each step it is asked for."""

    def __init__(self, cap, events):
        super().__init__(cap)
        self.events = events

    def spend(self, amount=1):
        self.events.append("step")
        super().spend(amount)


class _Fault(Exception):
    """Raised by a coloring on its one poisoned tuple."""


def _value(events, seed, colors, poisoned=None):
    def value(tup):
        events.append(tup)
        if tup == poisoned:
            raise _Fault(tup)
        return zlib.crc32(repr((seed, tup)).encode()) % colors
    return value


def _run(box, new, cap=LARGE, poisoned=None):
    """``(outcome, events, used, calls)`` of one kernel's search over ``box``."""
    events: list = []
    calls: list = []
    budget = _LoggedBudget(cap, events)
    value = _value(events, box["seed"], box["colors"], poisoned)
    if new:
        search = oracles.watch_tries(prefiltered_assignment, calls)
        kernel = box["kernel"]
    else:
        search = oracles.watch_asks(oracles.prefiltered_assignment, calls)
        kernel = box["old_kernel"]
    try:
        outcome = search(box["slots"], box["candidates"], kernel(value), budget)
    except (BudgetExhausted, _Fault) as stopped:
        outcome = (type(stopped).__name__, str(stopped))
    return outcome, events, budget.used, calls


def _brute_force(box):
    """The first assignment in product order that the per-choice kernel
    accepts slot by slot, or ``None``; ``False`` when the product is large."""
    slots = box["slots"]
    if math.prod(len(box["candidates"][slot]) for slot in slots) > 2000:
        return False
    consistent = box["old_kernel"](_value([], box["seed"], box["colors"]))
    for picks in itertools.product(*(box["candidates"][slot] for slot in slots)):
        partial = {}
        for slot, choice in zip(slots, picks):
            if not consistent(partial, slot, choice):
                break
            partial[slot] = choice
        else:
            return partial
    return None


def _cross_box(rng):
    d = rng.randint(1, 3)
    nodes = [[f"{j}{i}" for i in range(5)] for j in range(d)]
    slots = [(j, key) for j in range(d) for key in range(rng.randint(1, 3))]
    rng.shuffle(slots)
    candidates = {slot: rng.sample(nodes[slot[0]], rng.randint(1, 4)) for slot in slots}
    colors = rng.choice([1, 2, 2, 3])
    reference = rng.choice([None, None, 0])
    fixed = None
    if rng.random() < 0.5:
        fixed = [tuple(rng.sample(nodes[j], rng.choice([0, 1, 1, 2]))) for j in range(d)]
    return {"slots": slots, "candidates": candidates, "colors": colors,
            "seed": rng.random(), "reference": reference, "fixed": fixed,
            "kernel": lambda value: cross_consistent(d, value, reference, fixed),
            "old_kernel": lambda value: oracles.kernel_cross_consistent(
                d, value, reference, fixed)}


def _typed_box(rng):
    k = rng.randint(2, 3)
    at = rng.randrange(k)
    fixed = [() if i == at else tuple((f"{i}{n}", rng.randrange(3))
                                      for n in range(rng.randint(1, 3)))
             for i in range(k)]
    colors = rng.choice([1, 2, 2, 3])
    pinned = {}
    if rng.random() < 0.5:
        pinned = {pattern: rng.randrange(colors)
                  for pattern in itertools.permutations(range(k))
                  if rng.random() < 0.5}
    slots = [(at, p, c) for p in range(rng.randint(1, 3)) for c in (0, 1)]
    candidates = {slot: rng.sample([f"x{n}" for n in range(6)], rng.randint(1, 4))
                  for slot in slots}
    return {"slots": slots, "candidates": candidates, "colors": colors,
            "seed": rng.random(), "pinned": pinned,
            "kernel": lambda value: typed_consistent(value, fixed, pinned),
            "old_kernel": lambda value: oracles.kernel_typed_consistent(
                value, at, fixed, pinned)}


def _same_everywhere(rng, box):
    """Both searches agree with brute force, under a cap and on a raising coloring."""
    outcome, events, used, tries = _run(box, new=True)
    want, _, _, asks = _run(box, new=False)
    assert outcome == want
    oracles.assert_same_calls(tries, asks)
    brute = _brute_force(box)
    if brute is not False:
        assert outcome == brute
    cap = rng.randint(1, max(used, 1))
    if cap < used:
        capped, capped_events, capped_used, _ = _run(box, new=True, cap=cap)
        # the step that crossed the cap was charged and nothing was evaluated
        assert capped[0] == "BudgetExhausted"
        assert capped_used == cap + 1 and capped_events[-1] == "step"
    evaluated = [event for event in events if event != "step"]
    if evaluated:
        poisoned = rng.choice(evaluated)
        raised = _run(box, new=True, poisoned=poisoned)
        assert raised[0] == ("_Fault", str(poisoned))
    return outcome is not None, cap < used, brute is not False


def test_cross_consistent_answers_as_the_per_choice_kernel():
    rng = random.Random("cross-filter")
    seen = set()
    runs = set()
    for _ in range(600):
        box = _cross_box(rng)
        found, capped, brute = _same_everywhere(rng, box)
        if brute:
            seen.add((len({s[0] for s in box["slots"]}), box["reference"] is None,
                      box["fixed"] is not None, found))
            runs.add(capped)
    # every arity, free and fixed reference, with and without fixed heads,
    # found and not found, capped and not, each checked by brute force
    assert len(seen) == 24
    assert runs == {True, False}


def test_typed_consistent_answers_as_the_per_choice_kernel():
    rng = random.Random("typed-filter")
    seen = set()
    for _ in range(600):
        box = _typed_box(rng)
        found, capped, brute = _same_everywhere(rng, box)
        seen.add((bool(box["pinned"]), found, capped, brute))
    # pinned and unpinned types, found and not found, capped and not, each
    # checked by brute force
    assert {key for key in seen if key[3]} == set(
        itertools.product((True, False), (True, False), (True, False), (True,)))


def test_a_filter_runs_only_as_its_candidates_are_pulled():
    events: list = []
    consistent = cross_consistent(2, _value(events, 0, 1), fixed=[("a",), ("b",)])
    budget = _LoggedBudget(LARGE, events)

    def charged(choices):
        for choice in choices:
            budget.spend()
            yield choice

    partial = {(0, "k"): "a1"}
    admitted = consistent(partial, (1, "k"), charged(["b1", "b2"]))
    assert events == []  # building the filter evaluates nothing
    assert next(admitted) == "b1"
    # the anchor is read first, then, after each step, the one tuple through
    # the newest node and the choice: ("a", "b1") was checked before "a1"
    assert events == [("a", "b"), "step", ("a1", "b1")]
    assert list(admitted) == ["b2"]
    assert events[3:] == ["step", ("a1", "b2")]


def test_a_filter_hands_back_what_the_newest_node_cannot_change():
    events: list = []
    stream = iter(["b1", "b2"])
    # no tuple holds two nodes of one coordinate, and the anchor stays
    cross = cross_consistent(2, _value(events, 0, 2), fixed=[("a",), ("b",)])
    assert cross({(1, "j"): "b0"}, (1, "k"), stream) is stream
    # the newest node becomes the anchor's: the choice's own anchor must agree
    cross = cross_consistent(2, _value(events, 0, 2))
    kept = cross({(0, "k"): "a1", (1, "j"): "b0"}, (1, "k"), stream)
    assert kept is not stream
    # a typed filter's newest node without typed tuples changes nothing
    typed = typed_consistent(_value(events, 0, 2), [(), ()], {})
    assert typed({(0, "k"): "x"}, (1, "k"), stream) is stream
    assert events == []
