"""The filter kernel and the forward-checking search against their references.

The library's assignment search calls a stage's filter once against the
empty assignment and once after each choice, and that call narrows the
live candidates of every later slot, checking only what the newest choice
adds.  Three references are kept in ``oracles``: the per-slot search and
filters it replaced (``per_slot_assignment``,
``per_slot_cross_consistent``, ``per_slot_typed_consistent`` and
``per_slot_twin_rule``), which called a filter once per later slot; the
per-choice predicates before them (``kernel_cross_consistent`` and
``kernel_typed_consistent``); and the pointer-based search that asked
those.  On random small boxes the library search must return what the
per-slot search returns, spending the same steps in the same order among
the same coloring evaluations, so that every cap runs both out at one
point; polarized search's twin rule, which now drops a terminal's first
child at no step, takes no more.  It must also return the first
assignment in product order that the per-choice kernel accepts slot by
slot (found by brute force where the product is small), and, call by
call, what the pointer search returns; the choices it tries must be a
subsequence of the candidates the pointer search asks about.  Under a cap
below the steps it takes it must run out at the step that crosses the
cap, without evaluating the candidate that step paid for, and a ``value``
error must pass through it.
"""

import functools
import inspect
import itertools
import math
import random
import zlib

import pytest

import oracles
from hl_lab.polarized import _twin_rule
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


def _run(box, kind, cap=LARGE, poisoned=None):
    """``(outcome, events, used, calls)`` of one search over ``box``.

    ``kind`` is ``"library"`` (the library search and filter), ``"per_slot"``
    (the per-slot search and filter it replaced) or ``"pointer"`` (the
    pointer search and the per-choice predicate).
    """
    events: list = []
    calls: list = []
    budget = _LoggedBudget(cap, events)
    value = _value(events, box["seed"], box["colors"], poisoned)
    search = {"library": oracles.watch_tries(prefiltered_assignment, calls),
              "per_slot": oracles.per_slot_assignment,
              "pointer": oracles.watch_asks(oracles.prefiltered_assignment, calls)}[kind]
    try:
        outcome = search(box["slots"], box["candidates"], box[kind](value), budget)
    except (BudgetExhausted, _Fault) as stopped:
        outcome = (type(stopped).__name__, str(stopped))
    return outcome, events, budget.used, calls


def _brute_force(box):
    """The first assignment in product order that the per-choice kernel
    accepts slot by slot, or ``None``; ``False`` when the product is large."""
    slots = box["slots"]
    if math.prod(len(box["candidates"][slot]) for slot in slots) > 2000:
        return False
    consistent = box["pointer"](_value([], box["seed"], box["colors"]))
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
            "library": lambda value: cross_consistent(d, value, reference, fixed),
            "per_slot": lambda value: oracles.per_slot_cross_consistent(
                d, value, reference, fixed),
            "pointer": lambda value: oracles.kernel_cross_consistent(
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
            "library": lambda value: typed_consistent(value, fixed, pinned),
            "per_slot": lambda value: oracles.per_slot_typed_consistent(
                value, fixed, pinned),
            "pointer": lambda value: oracles.kernel_typed_consistent(
                value, at, fixed, pinned)}


def _twin_box(rng):
    """A typed box whose filters keep each terminal's two children apart."""
    box = _typed_box(rng)
    library, per_slot, pointer = box["library"], box["per_slot"], box["pointer"]
    tree = box["slots"][0][0]

    def apart(typed):
        def consistent(partial, slot, choice):
            twin = partial.get((tree, slot[1], 0)) if slot[2] == 1 else None
            return choice != twin and typed(partial, slot, choice)
        return consistent

    return dict(box, library=lambda value: _twin_rule(library(value)),
                per_slot=lambda value: oracles.per_slot_twin_rule(per_slot(value), tree),
                pointer=lambda value: apart(pointer(value)))


def _same_everywhere(rng, box, same_steps=True):
    """The library search agrees with its references, under a cap and on a
    raising coloring.  With ``same_steps`` it spends the per-slot search's
    steps among the same evaluations, so every cap runs both out at the
    same point; otherwise it spends no more."""
    outcome, events, used, tries = _run(box, "library")
    reference, per_slot_events, per_slot_used, _ = _run(box, "per_slot")
    want, _, _, asks = _run(box, "pointer")
    assert outcome == reference == want
    if same_steps:
        assert events == per_slot_events
    else:
        assert used <= per_slot_used
    oracles.assert_same_calls(tries, asks)
    brute = _brute_force(box)
    if brute is not False:
        assert outcome == brute
    cap = rng.randint(1, max(used, 1))
    if cap < used:
        capped, capped_events, capped_used, _ = _run(box, "library", cap=cap)
        # the step that crossed the cap was charged and nothing was evaluated
        assert capped[0] == "BudgetExhausted"
        assert capped_used == cap + 1 and capped_events[-1] == "step"
        assert capped_events == events[:len(capped_events)]
        if same_steps:
            assert _run(box, "per_slot", cap=cap)[1] == capped_events
    evaluated = [event for event in events if event != "step"]
    if evaluated:
        poisoned = rng.choice(evaluated)
        raised = _run(box, "library", poisoned=poisoned)
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


def test_the_twin_rule_answers_as_the_per_slot_rule_in_fewer_steps():
    rng = random.Random("twin-filter")
    seen = set()
    saved = 0
    for _ in range(400):
        box = _twin_box(rng)
        found, capped, brute = _same_everywhere(rng, box, same_steps=False)
        saved += _run(box, "per_slot")[2] - _run(box, "library")[2]
        seen.add((bool(box["pinned"]), found, capped, brute))
    assert {key for key in seen if key[3]} == set(
        itertools.product((True, False), (True, False), (True, False), (True,)))
    assert saved > 0


def test_a_traced_filter_sees_one_call_per_choice():
    # the benchmark's tracer finds these parameters by name and hands the
    # search the filter wrapped with functools.wraps, timing each call
    assert {"consistent", "budget"} <= set(inspect.signature(prefiltered_assignment).parameters)
    rng = random.Random("traced-filter")
    for _ in range(300):
        box = rng.choice([_cross_box, _typed_box, _twin_box])(rng)
        calls, inside, outside = [], [], []

        def traced(consistent):
            @functools.wraps(consistent)
            def wrapped(*args, **kwargs):
                calls.append(tuple(args[0].items()))
                inside.append(True)
                try:
                    return consistent(*args, **kwargs)
                finally:
                    inside.pop()
            return wrapped

        def value(tup):
            if not inside:
                outside.append(tup)
            return zlib.crc32(repr((box["seed"], tup)).encode()) % box["colors"]

        want, _, used, _ = _run(box, "library")
        budget = StepBudget(LARGE)
        got = prefiltered_assignment(box["slots"], box["candidates"],
                                     budget=budget, consistent=traced(box["library"](value)))
        assert (got, budget.used) == (want, used)
        # the filters' work runs inside their calls
        assert outside == []
        # the per-slot search asked the slot after a choice first
        choices = []

        def first_asks(consistent):
            def asked(partial, slot, stream):
                if partial and slot == box["slots"][len(partial)]:
                    choices.append(tuple(partial.items()))
                return consistent(partial, slot, stream)
            return asked

        oracles.per_slot_assignment(box["slots"], box["candidates"],
                                    first_asks(box["per_slot"](value)), StepBudget(LARGE))
        # one call against the empty assignment, then one per choice
        assert calls == [()] + choices


def test_a_filter_spends_each_step_before_it_reads_the_candidate():
    events: list = []
    later = [((1, "k"), ["b1", "b2"])]
    consistent = cross_consistent(2, _value(events, 0, 1), fixed=[("a",), ("b",)])
    assert events == []  # building the filter evaluates nothing
    budget = _LoggedBudget(LARGE, events)
    assert consistent({(0, "k"): "a1"}, later, budget.spend) == []
    # the anchor is read first, then, after each step, the one tuple through
    # the newest node and the choice: ("a", "b") was checked before "a1"
    assert events == [("a", "b"), "step", ("a1", "b1"), "step", ("a1", "b2")]
    # the step that crosses the cap stops the filter before it reads "b2"
    events.clear()
    consistent = cross_consistent(2, _value(events, 0, 1), fixed=[("a",), ("b",)])
    with pytest.raises(BudgetExhausted):
        consistent({(0, "k"): "a1"}, later, _LoggedBudget(1, events).spend)
    assert events == [("a", "b"), "step", ("a1", "b1"), "step"]


def test_a_filter_skips_what_the_newest_node_cannot_change():
    events: list = []
    budget = _LoggedBudget(LARGE, events)
    later = [((1, "k"), ["b1", "b2"])]
    # no tuple holds two nodes of one coordinate, and the anchor stays
    cross = cross_consistent(2, _value(events, 0, 2), fixed=[("a",), ("b",)])
    assert cross({(1, "j"): "b0"}, later, budget.spend) == []
    # a typed filter's newest node without typed tuples changes nothing, and
    # the twin rule drops a terminal's first child at no step
    typed = typed_consistent(_value(events, 0, 2), [(), ()], {})
    assert typed({(0, "k"): "x"}, later, budget.spend) == []
    assert _twin_rule(typed)({(0, "t", 0): "b1"}, [((0, "t", 1), ["b1", "b2"])],
                             budget.spend) == [((0, "t", 1), ["b2"])]
    assert events == []
    # the newest node becomes the anchor's: the choice's own anchor must agree
    cross = cross_consistent(2, _value(events, 0, 2))
    cross({(0, "k"): "a1", (1, "j"): "b0"}, later, budget.spend)
    assert events.count("step") == 2


def test_narrowing_stops_at_the_first_slot_it_empties():
    events: list = []

    def value(tup):
        events.append(tup)
        return int(tup[1].startswith("x"))

    cross = cross_consistent(2, value, 0, fixed=[("a",), ()])
    later = [((1, "j"), ["b1"]), ((1, "k"), ["x1"]), ((1, "m"), ["x2"])]
    assert cross({}, later, _LoggedBudget(LARGE, events).spend) == [((1, "k"), [])]
    assert events == ["step", ("a", "b1"), "step", ("a", "x1")]
