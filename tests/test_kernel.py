"""The shared consistency kernel against the per-search predicates it replaced.

Every staged search is run twice on the same box: once as it stands, and
once with each kernel predicate swapped for the old predicate kept in
``oracles``, built from the same arguments.  The partial tail-cone law and
almost-all homogenization are swapped one level up, at their stage
factories: the old predicates read the stage's layers and the search's
state (the recorded table, the color vector), which the factory's closure
holds.  Both runs must give the same outcome and, call by call, the same
``prefiltered_assignment`` result and the same ``StepBudget.used``: the
kernel may only make a step cheaper.
"""

import inspect
import itertools
import types
import zlib

import pytest

import oracles
from hl_lab import polarized, search, tailcone, witness
from hl_lab.errors import CapExceededError
from hl_lab.polarized import (
    almost_all_homogenize,
    height_permutation_coloring,
    polarized_search,
)
from hl_lab.search import Caps, StepBudget, cross_consistent, prefiltered_assignment
from hl_lab.tailcone import (
    ColoringFamily,
    apply_tailcone_partial,
    dimension_induction,
    fuse,
    hl_search,
)
from hl_lab.trees import TreeSpace
from hl_lab.witness import (
    Coloring,
    dshl_search,
    random_table_coloring,
    sdhl_search,
    seeded_hash_coloring,
)


def _old_mono(slots, arity, value, reference=None):
    shim = types.SimpleNamespace(evaluate=value)
    return oracles.mono_selection_consistent(shim, arity, slots, [reference])


def _old_cross(slots, arity, value, reference):
    return oracles.cross_consistent(arity, slots,
                                    lambda tup: value(tup) == reference)


def _old_pick(slots, value, at, fixed, pinned):
    shim = types.SimpleNamespace(evaluate=value)
    return oracles.pick_consistent(shim, len(fixed), [dict(f) for f in fixed],
                                   pinned, slots, at)


# module -> (kernel name it calls, old predicate built from the same arguments)
OLD = {witness: ("cross_consistent", _old_mono),
       tailcone: ("cross_consistent", _old_cross),
       polarized: ("typed_consistent", _old_pick)}


def _old_partial(env):
    return lambda stage, level_set, layers, chi, slots: oracles.partial_consistent(
        env["coloring"], env["views"], env["d"], env["base_set"], env["base_list"],
        env["comp_list"], env["table"], stage, level_set, layers, slots)


def _old_almost_all(env):
    perms = list(itertools.permutations(range(env["arity"])))
    return lambda stage, level_set, layers, chi, slots: oracles.almost_all_consistent(
        env["f"], env["arity"], perms, env["gamma"], stage, layers)


# grow_shared_subtrees label -> old stage factory built from the new one's state
OLD_STAGES = {"partial": _old_partial, "almost-all": _old_almost_all}


def _run(monkeypatch, run, old):
    """Outcome of ``run()`` plus (result, steps used) of every staged call."""
    calls = []
    with monkeypatch.context() as patch:
        if old:
            grow = tailcone.grow_shared_subtrees

            def old_grow(views, roots, height_goal, stage_factory, budget, **kw):
                make_old = OLD_STAGES.get(kw.get("label"))
                if make_old is not None:
                    env = inspect.getclosurevars(stage_factory).nonlocals
                    stage_factory = make_old(env)
                return grow(views, roots, height_goal, stage_factory, budget, **kw)

            # polarized imports the engine by name; patch both bindings
            for module in (tailcone, polarized):
                patch.setattr(module, "grow_shared_subtrees", old_grow)
        for module, (kernel, make_old) in OLD.items():
            pending: list = []
            if old:
                def deferred(*args, pending=pending):
                    pending.append(args)
                    return pending  # stand-in; the old predicate replaces it
                patch.setattr(module, kernel, deferred)

            def staged(slots, candidates, consistent, budget,
                       pending=pending, make_old=make_old):
                if pending:
                    consistent = make_old(slots, *pending.pop())
                try:
                    found = prefiltered_assignment(slots, candidates, consistent,
                                                   budget)
                except search.BudgetExhausted:
                    calls.append(("exhausted", budget.used))
                    raise
                calls.append((found, budget.used))
                return found

            patch.setattr(module, "prefiltered_assignment", staged)
        try:
            outcome = run()
        except CapExceededError as capped:
            outcome = ("capped", str(capped))
    if hasattr(outcome, "to_json"):
        outcome = outcome.to_json()
    return outcome, calls


def _same(monkeypatch, run):
    new = _run(monkeypatch, run, old=False)
    assert new == _run(monkeypatch, run, old=True)
    assert new[1], "the box never reached a staged search"
    return new


def _spaces(b, h, d):
    return (TreeSpace(b, h),) * d


@pytest.mark.parametrize("d,h,colors,seed", [
    (1, 5, 2, 3), (2, 4, 2, 1), (2, 5, 3, 7), (3, 4, 8, 2), (3, 5, 8, 1),
    (3, 5, 3, 5)])
def test_sdhl_search_matches_old_predicate(monkeypatch, d, h, colors, seed):
    col = seeded_hash_coloring(_spaces(2, h, d), d, colors, seed, domain="level")
    _same(monkeypatch, lambda: sdhl_search(col))


def test_dshl_search_matches_old_predicate(monkeypatch):
    col = seeded_hash_coloring(_spaces(2, 5, 2), 2, 2, 4, domain="level")
    _same(monkeypatch, lambda: dshl_search(col))


@pytest.mark.parametrize("h,m,goal,seed", [(6, 1, 3, 2), (7, 1, 4, 9), (7, 2, 3, 5),
                                           (7, 2, 4, 1)])
def test_fuse_matches_old_predicate(monkeypatch, h, m, goal, seed):
    spaces = _spaces(2, h, 2)
    family = ColoringFamily([seeded_hash_coloring(spaces, 2, 2, 10 * seed + i)
                             for i in range(m)])
    _same(monkeypatch, lambda: fuse(family, h=goal))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_hl_search_matches_old_predicate(monkeypatch, seed):
    col = seeded_hash_coloring(_spaces(2, 6, 2), 2, 2, seed)
    _same(monkeypatch, lambda: hl_search(col, h=3))


@pytest.mark.parametrize("h,seed", [(10, 19), (11, 11), (11, 6)])
def test_dimension_induction_matches_old_predicates(monkeypatch, h, seed):
    col = seeded_hash_coloring(_spaces(2, h, 2), 2, 2, seed)
    _same(monkeypatch, lambda: dimension_induction(col, h=4))


def _prefix_coloring(spaces, seed, noise):
    """Mostly a function of the base node and the other nodes cut one level
    above it, so the partial law can hold, flipped on about 1/noise tuples."""

    def fn(tup):
        cut = len(tup[0]) + 1
        key = ",".join((tup[0],) + tuple(x[:cut] for x in tup[1:]))
        flip = zlib.crc32(f"{seed}:{','.join(tup)}".encode()) % noise == 0
        return (zlib.crc32(f"{seed}|{key}".encode()) + flip) % 2

    return Coloring(len(spaces), 2, spaces, fn, domain="full", kind="derived")


@pytest.mark.parametrize("d,base,h,goal,seed", [(2, (0,), 6, 4, 2), (2, (1,), 6, 4, 0),
                                                (2, (1,), 6, 4, 3), (3, (0, 2), 5, 3, 1)])
def test_partial_law_matches_old_predicate(monkeypatch, d, base, h, goal, seed):
    col = seeded_hash_coloring(_spaces(2, h, d), d, 2, seed)
    _same(monkeypatch, lambda: apply_tailcone_partial(col, base, h=goal))


@pytest.mark.parametrize("h,goal,noise,seed", [(5, 3, 9, 1), (5, 3, 9, 2), (6, 3, 7, 0),
                                               (6, 4, 9, 1)])
def test_partial_law_two_complement_coordinates(monkeypatch, h, goal, noise, seed):
    col = _prefix_coloring(_spaces(2, h, 3), seed, noise)
    outcome, calls = _same(monkeypatch,
                           lambda: apply_tailcone_partial(col, (0,), h=goal))
    assert sum(found is not None for found, _ in calls) >= 2  # a constrained stage


@pytest.mark.parametrize("k,height,goal,seed", [(2, 6, 3, 0), (2, 6, 3, 3), (2, 7, 3, 1),
                                                (3, 4, 3, 0), (3, 5, 3, 1)])
def test_almost_all_matches_old_predicate(monkeypatch, k, height, goal, seed):
    col = seeded_hash_coloring(_spaces(2, height, k), k, 2, seed)
    outcome, _ = _same(monkeypatch, lambda: almost_all_homogenize(col, h=goal))
    assert outcome["route"] == "staged"


@pytest.mark.parametrize("dim,depth,height", [(1, 3, 8), (1, 4, 10), (2, 2, 10)])
def test_polarized_type_coloring_matches_old_predicate(monkeypatch, dim, depth,
                                                       height):
    col = height_permutation_coloring(dim, _spaces(2, height, dim + 1))
    _same(monkeypatch, lambda: polarized_search(col, depth=depth))


@pytest.mark.parametrize("k,height,depth,seed", [(2, 7, 1, 0), (2, 7, 2, 4),
                                                 (3, 5, 1, 2)])
def test_polarized_random_coloring_matches_old_predicate(monkeypatch, k, height,
                                                         depth, seed):
    col = random_table_coloring(_spaces(2, height, k), k, 3, seed, domain="full")
    _same(monkeypatch, lambda: polarized_search(col, depth=depth))


@pytest.mark.parametrize("run", [
    lambda caps: sdhl_search(seeded_hash_coloring(_spaces(2, 5, 3), 3, 8, 1,
                                                  domain="level"), caps=caps),
    lambda caps: fuse(ColoringFamily([seeded_hash_coloring(_spaces(2, 7, 2), 2, 2, s)
                                      for s in (3, 4)]), h=4, caps=caps),
    lambda caps: hl_search(seeded_hash_coloring(_spaces(2, 6, 2), 2, 2, 5), h=4,
                           caps=caps),
    lambda caps: polarized_search(
        height_permutation_coloring(2, _spaces(2, 10, 3)), depth=2, caps=caps),
    lambda caps: apply_tailcone_partial(_prefix_coloring(_spaces(2, 6, 3), 1, 5), (0,),
                                        h=3, caps=caps),
    lambda caps: almost_all_homogenize(seeded_hash_coloring(_spaces(2, 6, 2), 2, 2, 0),
                                       h=3, caps=caps),
    lambda caps: dimension_induction(seeded_hash_coloring(_spaces(2, 10, 2), 2, 2, 19),
                                     h=4, caps=caps),
], ids=["sdhl", "fuse", "hl", "polarized", "partial", "almost-all", "dim-induct"])
def test_capped_outcome_matches_old_predicate(monkeypatch, run):
    outcome, calls = _same(monkeypatch, lambda: run(Caps(max_steps=150)))
    assert calls[-1][0] == "exhausted"


def test_memo_is_scoped_to_one_predicate():
    seen = []

    def value(tup):
        seen.append(tup)
        return 0

    slots = [(0, "0"), (1, "0")]
    candidates = {(0, "0"): ("00", "01"), (1, "0"): ("00", "01")}
    for _ in range(2):
        found = prefiltered_assignment(slots, candidates,
                                       cross_consistent(2, value), StepBudget(100))
        assert found == {(0, "0"): "00", (1, "0"): "00"}
    assert seen == [("00", "00")] * 2
