"""The shared consistency kernel against the per-search predicates it replaced.

Every staged search reaches ``prefiltered_assignment`` through one stage
step, ``witness.first_level``, so the harness watches that one binding.
Each box is run twice: once as it stands, and once with each kernel
predicate swapped for the old predicate kept in ``oracles``, built from
the same arguments and the slots the stage step hands the search.  The
partial tail-cone law and almost-all homogenization are swapped one level
up, at their stage factories: the old predicates read the stage's layers
and the search's state (the recorded table, the color vector), which the
factory's closure holds.  Both runs must give the same outcome and, call
by call, the same ``prefiltered_assignment`` result and the same
``StepBudget.used``: the kernel may only make a step cheaper.
"""

import hashlib
import inspect
import itertools
import json
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
    first_level,
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


def _old_partial(env, pending):
    def stage_factory(stage, level_set, layers):
        pending.append(lambda slots: oracles.partial_consistent(
            env["coloring"], env["views"], env["d"], env["base_set"],
            env["base_list"], env["comp_list"], env["table"], stage, level_set,
            layers, slots))
        return pending  # stand-in; the old predicate replaces it at the seam

    return stage_factory


def _old_almost_all(env, pending):
    perms = list(itertools.permutations(range(env["arity"])))
    return lambda stage, level_set, layers: oracles.almost_all_consistent(
        env["f"], env["arity"], perms, env["gamma"], stage, layers)


# grow_shared_subtrees label -> old stage factory built from the new one's state
OLD_STAGES = {"partial": _old_partial, "almost-all": _old_almost_all}

# Per box, as recorded before the staged searches shared the stage step:
# a digest of the outcome, StepBudget.used after the last staged call, and
# the number of staged calls.
PINNED = {
    "test_sdhl_search_matches_old_predicate[1-5-2-3]": ("5e6869a61c67dd3c", 4, 1),
    "test_sdhl_search_matches_old_predicate[2-4-2-1]": ("24d0996803ffeceb", 59, 3),
    "test_sdhl_search_matches_old_predicate[2-5-3-7]": ("6bc74f6f4f222c81", 24, 2),
    "test_sdhl_search_matches_old_predicate[3-4-8-2]": ("74234e98afe7498f", 2879, 83),
    "test_sdhl_search_matches_old_predicate[3-5-8-1]": ("74234e98afe7498f", 62419, 668),
    "test_sdhl_search_matches_old_predicate[3-5-3-5]": ("0329c42b96ed8b2e", 87, 2),
    "test_dshl_search_matches_old_predicate": ("1e2f85a562aa528e", 7002, 135),
    "test_fuse_matches_old_predicate[6-1-3-2]": ("b989df079fefde87", 1600, 4),
    "test_fuse_matches_old_predicate[7-1-4-9]": ("885894d94c46aa94", 1966, 6),
    "test_fuse_matches_old_predicate[7-2-3-5]": ("56981ba0369cbca1", 510, 4),
    "test_fuse_matches_old_predicate[7-2-4-1]": ("885894d94c46aa94", 8200, 6),
    "test_hl_search_matches_old_predicate[1]": ("f72098947bc7bbe8", 5130, 453),
    "test_hl_search_matches_old_predicate[2]": ("d118336ecd63da17", 363, 5),
    "test_hl_search_matches_old_predicate[3]": ("f72098947bc7bbe8", 5240, 453),
    "test_dimension_induction_matches_old_predicates[10-19]": ("2d169bebd828928c", 656, 71),
    "test_dimension_induction_matches_old_predicates[11-11]": ("abc616fb9fb277a7", 1139, 58),
    "test_dimension_induction_matches_old_predicates[11-6]": ("052fc7b1ca9c32af", 1084, 59),
    "test_partial_law_matches_old_predicate[2-base0-6-4-2]": ("438e14f50ef04377", 68, 5),
    "test_partial_law_matches_old_predicate[2-base1-6-4-0]": ("514bfdbb47a959bb", 56, 5),
    "test_partial_law_matches_old_predicate[2-base2-6-4-3]": ("f6593eb9f208d73d", 97, 5),
    "test_partial_law_matches_old_predicate[3-base3-5-3-1]": ("a0cfe1f7cc52e5c5", 87, 4),
    "test_partial_law_two_complement_coordinates[5-3-9-1]": ("6ec42572b8e273c3", 56, 3),
    "test_partial_law_two_complement_coordinates[5-3-9-2]": ("635e876e4ec4a067", 110, 4),
    "test_partial_law_two_complement_coordinates[6-3-7-0]": ("18bc940f2ab70f9d", 53, 3),
    "test_partial_law_two_complement_coordinates[6-4-9-1]": ("438e14f50ef04377", 83, 5),
    "test_almost_all_matches_old_predicate[2-6-3-0]": ("a56bb92c55df5409", 4013, 791),
    "test_almost_all_matches_old_predicate[2-6-3-3]": ("68abf7a48dd55f75", 3954, 791),
    "test_almost_all_matches_old_predicate[2-7-3-1]": ("82a73b371f057e5a", 15874, 3178),
    "test_almost_all_matches_old_predicate[3-4-3-0]": ("9ac2d74abc270150", 7660, 1217),
    "test_almost_all_matches_old_predicate[3-5-3-1]": ("9ac2d74abc270150", 62748, 9985),
    "test_polarized_type_coloring_matches_old_predicate[1-3-8]": ("8c4c59d762e9c86d", 159, 8),
    "test_polarized_type_coloring_matches_old_predicate[1-4-10]": ("d8b5dd713a147a6a", 335, 10),
    "test_polarized_type_coloring_matches_old_predicate[2-2-10]": ("6090419adb2f2072", 181, 9),
    "test_polarized_random_coloring_matches_old_predicate[2-7-1-0]":
        ("8d054a53ef0d8581", 111, 7),
    "test_polarized_random_coloring_matches_old_predicate[2-7-2-4]":
        ("334f1b72244193c0", 135, 7),
    "test_polarized_random_coloring_matches_old_predicate[3-5-1-2]":
        ("334f1b72244193c0", 58, 5),
    "test_capped_outcome_matches_old_predicate[sdhl]": ("8da9bbfd0a7b224a", 151, 3),
    "test_capped_outcome_matches_old_predicate[fuse]": ("db722498f4b0e969", 151, 4),
    "test_capped_outcome_matches_old_predicate[hl]": ("52e5a32c0551e80f", 151, 6),
    "test_capped_outcome_matches_old_predicate[polarized]": ("77e8ecce56730a4a", 151, 9),
    "test_capped_outcome_matches_old_predicate[partial]": ("3af2644814fdb5f9", 151, 5),
    "test_capped_outcome_matches_old_predicate[almost-all]": ("fd042dcab7348dae", 151, 27),
    "test_capped_outcome_matches_old_predicate[dim-induct]": ("78286aa970da3690", 151, 8),
}


def _digest(outcome):
    return hashlib.sha256(json.dumps(outcome, sort_keys=True).encode()).hexdigest()[:16]


def _run(monkeypatch, run, old):
    """Outcome of ``run()`` plus (result, steps used) of every staged call."""
    calls = []
    pending: list = []  # builders of old predicates, awaiting the seam's slots
    with monkeypatch.context() as patch:
        if old:
            grow = tailcone.grow_shared_subtrees

            def old_grow(views, roots, height_goal, stage_factory, budget, **kw):
                make_old = OLD_STAGES.get(kw.get("label"))
                if make_old is not None:
                    env = inspect.getclosurevars(stage_factory).nonlocals
                    stage_factory = make_old(env, pending)
                return grow(views, roots, height_goal, stage_factory, budget, **kw)

            # polarized imports the engine by name; patch both bindings
            for module in (tailcone, polarized):
                patch.setattr(module, "grow_shared_subtrees", old_grow)
            for module, (kernel, make_old) in OLD.items():
                def deferred(*args, make_old=make_old):
                    pending.append(lambda slots: make_old(slots, *args))
                    return pending  # stand-in; the old predicate replaces it
                patch.setattr(module, kernel, deferred)

        def staged(slots, candidates, consistent, budget):
            assert len(pending) <= 1, "a predicate was built but never searched"
            if pending:
                consistent = pending.pop()(slots)
            try:
                found = prefiltered_assignment(slots, candidates, consistent, budget)
            except search.BudgetExhausted:
                calls.append(("exhausted", budget.used))
                raise
            calls.append((found, budget.used))
            return found

        patch.setattr(witness, "prefiltered_assignment", staged)
        try:
            outcome = run()
        except CapExceededError as capped:
            outcome = ("capped", str(capped))
    if hasattr(outcome, "to_json"):
        outcome = outcome.to_json()
    return outcome, calls


@pytest.fixture
def same(monkeypatch, request):
    """Run a box both ways; both must match each other and the pinned record."""

    def check(run):
        new = _run(monkeypatch, run, old=False)
        assert new == _run(monkeypatch, run, old=True)
        outcome, calls = new
        assert calls, "the box never reached a staged search"
        assert (_digest(outcome), calls[-1][1], len(calls)) == PINNED[request.node.name]
        return new

    return check


def _spaces(b, h, d):
    return (TreeSpace(b, h),) * d


@pytest.mark.parametrize("d,h,colors,seed", [
    (1, 5, 2, 3), (2, 4, 2, 1), (2, 5, 3, 7), (3, 4, 8, 2), (3, 5, 8, 1),
    (3, 5, 3, 5)])
def test_sdhl_search_matches_old_predicate(same, d, h, colors, seed):
    col = seeded_hash_coloring(_spaces(2, h, d), d, colors, seed, domain="level")
    same(lambda: sdhl_search(col))


def test_dshl_search_matches_old_predicate(same):
    col = seeded_hash_coloring(_spaces(2, 5, 2), 2, 2, 4, domain="level")
    same(lambda: dshl_search(col))


@pytest.mark.parametrize("h,m,goal,seed", [(6, 1, 3, 2), (7, 1, 4, 9), (7, 2, 3, 5),
                                           (7, 2, 4, 1)])
def test_fuse_matches_old_predicate(same, h, m, goal, seed):
    spaces = _spaces(2, h, 2)
    family = ColoringFamily([seeded_hash_coloring(spaces, 2, 2, 10 * seed + i)
                             for i in range(m)])
    same(lambda: fuse(family, h=goal))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_hl_search_matches_old_predicate(same, seed):
    col = seeded_hash_coloring(_spaces(2, 6, 2), 2, 2, seed)
    same(lambda: hl_search(col, h=3))


@pytest.mark.parametrize("h,seed", [(10, 19), (11, 11), (11, 6)])
def test_dimension_induction_matches_old_predicates(same, h, seed):
    col = seeded_hash_coloring(_spaces(2, h, 2), 2, 2, seed)
    same(lambda: dimension_induction(col, h=4))


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
def test_partial_law_matches_old_predicate(same, d, base, h, goal, seed):
    col = seeded_hash_coloring(_spaces(2, h, d), d, 2, seed)
    same(lambda: apply_tailcone_partial(col, base, h=goal))


@pytest.mark.parametrize("h,goal,noise,seed", [(5, 3, 9, 1), (5, 3, 9, 2), (6, 3, 7, 0),
                                               (6, 4, 9, 1)])
def test_partial_law_two_complement_coordinates(same, h, goal, noise, seed):
    col = _prefix_coloring(_spaces(2, h, 3), seed, noise)
    outcome, calls = same(lambda: apply_tailcone_partial(col, (0,), h=goal))
    assert sum(found is not None for found, _ in calls) >= 2  # a constrained stage


@pytest.mark.parametrize("k,height,goal,seed", [(2, 6, 3, 0), (2, 6, 3, 3), (2, 7, 3, 1),
                                                (3, 4, 3, 0), (3, 5, 3, 1)])
def test_almost_all_matches_old_predicate(same, k, height, goal, seed):
    col = seeded_hash_coloring(_spaces(2, height, k), k, 2, seed)
    outcome, _ = same(lambda: almost_all_homogenize(col, h=goal))
    assert outcome["route"] == "staged"


@pytest.mark.parametrize("dim,depth,height", [(1, 3, 8), (1, 4, 10), (2, 2, 10)])
def test_polarized_type_coloring_matches_old_predicate(same, dim, depth, height):
    col = height_permutation_coloring(dim, _spaces(2, height, dim + 1))
    same(lambda: polarized_search(col, depth=depth))


@pytest.mark.parametrize("k,height,depth,seed", [(2, 7, 1, 0), (2, 7, 2, 4),
                                                 (3, 5, 1, 2)])
def test_polarized_random_coloring_matches_old_predicate(same, k, height, depth,
                                                         seed):
    col = random_table_coloring(_spaces(2, height, k), k, 3, seed, domain="full")
    same(lambda: polarized_search(col, depth=depth))


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
def test_capped_outcome_matches_old_predicate(same, run):
    outcome, calls = same(lambda: run(Caps(max_steps=150)))
    assert calls[-1][0] == "exhausted"


def test_memo_is_scoped_to_one_predicate():
    seen = []

    def value(tup):
        seen.append(tup)
        return 0

    slots = [(0, "0"), (1, "0")]
    candidates = {(0, "0"): ("00", "01"), (1, "0"): ("00", "01")}
    for _ in range(2):
        found = first_level(slots, [0], lambda level: candidates,
                            lambda level: cross_consistent(2, value), StepBudget(100))
        assert found == (0, {(0, "0"): "00", (1, "0"): "00"})
    assert seen == [("00", "00")] * 2
