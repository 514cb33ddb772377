"""The filter kernel against the per-choice kernel it replaced.

The library's consistency kernel is asked once per slot opening for a
lazy filter over a step-charging candidate stream; the per-choice
``cross_consistent`` and ``typed_consistent`` it replaced are kept
verbatim in ``oracles`` (as ``kernel_cross_consistent`` and
``kernel_typed_consistent``), together with the pointer-based assignment
search that asked them.  On random boxes both kernels, each under its
own search, must log the same events: every step spent and every
``value`` call, interleaved in one sequence.  They must give the same
result and the same ``StepBudget.used``, run out of budget at the same
step without evaluating the candidate whose step crossed the cap, and
raise a ``value`` error at the same step.
"""

import itertools
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
    """``(outcome, events, used)`` of one kernel's search over ``box``."""
    events: list = []
    budget = _LoggedBudget(cap, events)
    value = _value(events, box["seed"], box["colors"], poisoned)
    if new:
        search, kernel = prefiltered_assignment, box["kernel"]
    else:
        search, kernel = oracles.prefiltered_assignment, box["old_kernel"]
    try:
        outcome = search(box["slots"], box["candidates"], kernel(value), budget)
    except (BudgetExhausted, _Fault) as stopped:
        outcome = (type(stopped).__name__, str(stopped))
    return outcome, events, budget.used


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
    slots = [(p, c) for p in range(rng.randint(1, 3)) for c in (0, 1)]
    candidates = {slot: rng.sample([f"x{n}" for n in range(6)], rng.randint(1, 4))
                  for slot in slots}
    return {"slots": slots, "candidates": candidates, "colors": colors,
            "seed": rng.random(), "pinned": pinned,
            "kernel": lambda value: typed_consistent(value, at, fixed, pinned),
            "old_kernel": lambda value: oracles.kernel_typed_consistent(
                value, at, fixed, pinned)}


def _same_everywhere(rng, box):
    """Both kernels agree uncapped, under a cap and on a raising coloring."""
    want = _run(box, new=False)
    assert _run(box, new=True) == want
    outcome, events, used = want
    cap = rng.randint(1, used)
    if cap < used:
        capped = _run(box, new=False, cap=cap)
        assert _run(box, new=True, cap=cap) == capped
        # the step that crossed the cap was charged and nothing was evaluated
        assert capped[0][0] == "BudgetExhausted"
        assert capped[2] == cap + 1 and capped[1][-1] == "step"
    evaluated = [event for event in events if event != "step"]
    if evaluated:
        poisoned = rng.choice(evaluated)
        raised = _run(box, new=False, poisoned=poisoned)
        assert raised[0] == ("_Fault", str(poisoned))
        assert _run(box, new=True, poisoned=poisoned) == raised
    return outcome is not None, cap < used, bool(evaluated)


def test_cross_consistent_evaluates_as_the_per_choice_kernel():
    rng = random.Random("cross-filter")
    seen = set()
    runs = set()
    for _ in range(600):
        box = _cross_box(rng)
        found, capped, raised = _same_everywhere(rng, box)
        seen.add((len({s[0] for s in box["slots"]}), box["reference"] is None,
                  box["fixed"] is not None, found))
        runs.add((capped, raised))
    # every arity, free and fixed reference, with and without fixed heads,
    # found and not found; capped and raising runs of each
    assert len(seen) == 24
    assert {(True, True), (False, True)} <= runs


def test_typed_consistent_evaluates_as_the_per_choice_kernel():
    rng = random.Random("typed-filter")
    seen = set()
    for _ in range(600):
        box = _typed_box(rng)
        found, capped, raised = _same_everywhere(rng, box)
        seen.add((bool(box["pinned"]), found, capped))
    # pinned and unpinned types, found and not found, capped and not
    assert len(seen) == 8


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
    # the anchor is read after the first step, then the choice's tuples
    assert events == ["step", ("a", "b"), ("a", "b1"), ("a1", "b1")]
    assert list(admitted) == ["b2"]
    assert events[4:] == ["step", ("a", "b2"), ("a1", "b2")]
