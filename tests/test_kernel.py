"""The shared consistency kernel against the per-search predicates it replaced.

Every staged search reaches ``prefiltered_assignment`` through one stage
step, ``tailcone.first_level``, so the harness watches that one binding.
The dense-set search is not among them: it reads each base's top-level
cone, so in dimension induction only the tail-cone step and the cone
reassembly make staged calls.
Each box is run twice: once as it stands, and once with each kernel
filter swapped for a stand-in.  A stage hands its one filter to every
search the stage step makes, so the stand-in builds the old per-choice
predicate kept in ``oracles`` afresh for each search, from the kernel's
arguments and the slots the stage step hands the search; the pointer-based
search kept there asks it, on a budget of its own that never runs out.
Polarized search wraps its kernel filter, and the stand-in is found in
the wrapper's closure; it also carries the real filter's ``row``, from
which polarized search pins each band's types.  The partial tail-cone law and almost-all
homogenization are swapped one level up, at their stage factories: the
old predicates read the stage's layers and the search's state (the
coloring and its base coordinates, the color vector), which the
factory's closure holds.  The old partial predicate read a table the
search recorded stage by stage; ``_LawTable`` answers its lookups from the
coloring, which is what every recorded row held.
Almost-all skips a color vector that an earlier failure refutes, keyed by
the pins the kernel filter read; the old predicate reads other pins, so
the old run replays the vectors the library run tried.  The skip itself
is checked against the exhaustive scan in ``test_polarized``.
Both runs must give the same outcome and, call by call, the same
``prefiltered_assignment`` result, and the choices the library search
tries must be a subsequence of the candidates the pointer search asks
about.  Under a cap the library run's calls up to the one that ran out
must match the old run's first calls.
"""

import hashlib
import inspect
import itertools
import json
import types

import pytest

import oracles
from hl_lab import polarized, search, tailcone, witness
from hl_lab.errors import CapExceededError, InvalidInputError
from hl_lab.polarized import (
    almost_all_homogenize,
    height_permutation_coloring,
    polarized_search,
)
from hl_lab.search import StepBudget, cross_consistent, prefiltered_assignment
from hl_lab.tailcone import (
    ColoringFamily,
    apply_tailcone_partial,
    dimension_induction,
    first_level,
    fuse,
    hl_search,
)
from hl_lab.trees import TreeSpace
from hl_lab.witness import sdhl_search, seeded_hash_coloring


def _old_mono(slots, arity, value, reference=None):
    shim = types.SimpleNamespace(evaluate=value)
    return oracles.mono_selection_consistent(shim, arity, slots, [reference])


def _old_cross(slots, arity, value, reference):
    return oracles.cross_consistent(arity, slots,
                                    lambda tup: value(tup) == reference)


def _old_pick(slots, value, fixed, pinned):
    """The old predicate, which keyed slots ``(p, c)`` and took the tree apart."""
    shim = types.SimpleNamespace(evaluate=value)
    old = oracles.pick_consistent(shim, len(fixed), [dict(f) for f in fixed], pinned,
                                  [slot[1:] for slot in slots], slots[0][0])

    def consistent(partial, slot, choice):
        return old({key[1:]: node for key, node in partial.items()}, slot[1:], choice)

    return consistent


# module -> (kernel name it calls, old predicate built from the same arguments)
OLD = {witness: ("cross_consistent", _old_mono),
       tailcone: ("cross_consistent", _old_cross),
       polarized: ("typed_consistent", _old_pick)}


class _StandIn:
    """A kernel filter in the old run: ``build(slots)`` makes the old
    predicate for one search over ``slots``.  It is not callable, so a
    search handed one that the harness missed fails.  ``row`` is the real
    filter's, where it has one: polarized search pins its types from it."""

    def __init__(self, build, row=None):
        self.build = build
        self.row = row


def _stand_in(consistent):
    """The stand-in ``consistent`` is or wraps, or ``None``."""
    if isinstance(consistent, _StandIn):
        return consistent
    held = [value for value in inspect.getclosurevars(consistent).nonlocals.values()
            if isinstance(value, _StandIn)]
    assert len(held) <= 1
    return held[0] if held else None


class _LawTable:
    """The partial law's table as the old predicate read it: the row at
    ``(t_key, v_key)`` is the coloring's value at the merged tuple."""

    def __init__(self, env):
        self.env = env

    def get(self, key):
        env = self.env
        at = dict(zip(env["base_list"], key[0])) | dict(zip(env["comp_list"], key[1]))
        return env["coloring"].evaluate(tuple(at[k] for k in range(env["d"])))


def _old_partial(env):
    def stage_factory(stage, level_set, layers):
        return _StandIn(lambda slots: oracles.partial_consistent(
            env["coloring"], env["views"], env["d"], env["base_set"],
            env["base_list"], env["comp_list"], _LawTable(env), stage, level_set,
            layers, slots))

    return stage_factory


def _old_almost_all(env):
    perms = list(itertools.permutations(range(env["arity"])))
    # the factory reads the run's memo of the coloring's values
    f = types.SimpleNamespace(evaluate=env["value"])

    def stage_factory(stage, level_set, layers):
        return _StandIn(lambda slots: oracles.almost_all_consistent(
            f, env["arity"], perms, env["gamma"], stage, layers))

    return stage_factory


# grow_shared_subtrees label -> old stage factory built from the new one's state
OLD_STAGES = {"partial": _old_partial, "almost-all": _old_almost_all}

# Per box: a digest of the outcome, StepBudget.used after the last staged
# call, and the number of staged calls.  The steps are the forward-checking
# search's; digests and call counts are as recorded before the staged
# searches shared the stage step, except in four capped boxes (hl,
# polarized, almost-all, dim-induct), whose 150 steps now run out elsewhere.
# The capped hl box is on height 7 because on height 6 it settles in 117
# steps, a stage scanning only levels that leave room for the later ones.
# The two k = 3 almost-all boxes admit no construction on three levels:
# they once ended in a vacuous two-level success, and now fail.  The five
# uncapped almost-all boxes keep their digests with fewer steps and calls
# since almost-all skips the color vectors a failed attempt refutes; the
# capped box runs out before its first skip.
# The three uncapped dim-induct boxes keep their digests with fewer steps
# and calls: their branch votes read top-level cones and make no staged
# call, where each once searched a matrix per level.  Two of them take
# fewer steps again since one dense-set scan serves every branch through
# a node one below the top.
# The six uncapped polarized boxes keep their digests and calls with fewer
# steps: the twin rule drops a terminal's first child from its second
# child's candidates without a step.  The k = 3 random box stands on
# height 6: on height 5 its depth needs more levels than the trees have,
# which polarized search refuses before its first band.
PINNED = {
    "test_sdhl_search_matches_old_predicate[1-5-2-3]": ("5e6869a61c67dd3c", 3, 1),
    "test_sdhl_search_matches_old_predicate[2-4-2-1]": ("24d0996803ffeceb", 48, 3),
    "test_sdhl_search_matches_old_predicate[2-5-3-7]": ("6bc74f6f4f222c81", 14, 2),
    "test_sdhl_search_matches_old_predicate[3-4-8-2]": ("74234e98afe7498f", 713, 83),
    "test_sdhl_search_matches_old_predicate[3-5-8-1]": ("74234e98afe7498f", 15311, 668),
    "test_sdhl_search_matches_old_predicate[3-5-3-5]": ("0329c42b96ed8b2e", 28, 2),
    "test_fuse_matches_old_predicate[6-1-3-2]": ("b989df079fefde87", 191, 4),
    "test_fuse_matches_old_predicate[7-1-4-9]": ("885894d94c46aa94", 266, 6),
    "test_fuse_matches_old_predicate[7-2-3-5]": ("56981ba0369cbca1", 73, 4),
    "test_fuse_matches_old_predicate[7-2-4-1]": ("885894d94c46aa94", 468, 6),
    "test_hl_search_matches_old_predicate[1]": ("f72098947bc7bbe8", 538, 130),
    "test_hl_search_matches_old_predicate[2]": ("d118336ecd63da17", 70, 5),
    "test_hl_search_matches_old_predicate[3]": ("f72098947bc7bbe8", 508, 127),
    "test_dimension_induction_matches_old_predicates[10-19]": ("2d169bebd828928c", 208, 11),
    "test_dimension_induction_matches_old_predicates[11-11]": ("abc616fb9fb277a7", 454, 14),
    "test_dimension_induction_matches_old_predicates[11-6]": ("052fc7b1ca9c32af", 394, 9),
    "test_partial_law_matches_old_predicate[2-base0-6-4-2]": ("438e14f50ef04377", 18, 5),
    "test_partial_law_matches_old_predicate[2-base1-6-4-0]": ("514bfdbb47a959bb", 26, 5),
    "test_partial_law_matches_old_predicate[2-base2-6-4-3]": ("bcaf9e58d711b6c3", 19, 4),
    "test_partial_law_matches_old_predicate[3-base3-5-3-1]": ("a0cfe1f7cc52e5c5", 21, 4),
    "test_partial_law_two_complement_coordinates[5-3-9-1]": ("6ec42572b8e273c3", 56, 3),
    "test_partial_law_two_complement_coordinates[5-3-9-2]": ("635e876e4ec4a067", 105, 4),
    "test_partial_law_two_complement_coordinates[6-3-7-0]": ("18bc940f2ab70f9d", 53, 3),
    "test_partial_law_two_complement_coordinates[6-4-9-1]": ("438e14f50ef04377", 59, 5),
    "test_almost_all_matches_old_predicate[2-6-3-0]": ("a56bb92c55df5409", 1230, 391),
    "test_almost_all_matches_old_predicate[2-6-3-3]": ("68abf7a48dd55f75", 1266, 403),
    "test_almost_all_matches_old_predicate[2-7-3-1]": ("82a73b371f057e5a", 5100, 1590),
    "test_almost_all_matches_old_predicate[3-4-3-0]": ("35458fec5da9e846", 176, 51),
    "test_almost_all_matches_old_predicate[3-5-3-1]": ("35458fec5da9e846", 1448, 415),
    "test_polarized_type_coloring_matches_old_predicate[1-3-8]": ("8c4c59d762e9c86d", 118, 8),
    "test_polarized_type_coloring_matches_old_predicate[1-4-10]": ("d8b5dd713a147a6a", 246, 10),
    "test_polarized_type_coloring_matches_old_predicate[2-2-10]": ("6090419adb2f2072", 218, 9),
    "test_polarized_random_coloring_matches_old_predicate[2-7-1-0]":
        ("8d054a53ef0d8581", 106, 7),
    "test_polarized_random_coloring_matches_old_predicate[2-7-2-4]":
        ("334f1b72244193c0", 125, 7),
    "test_polarized_random_coloring_matches_old_predicate[3-6-1-2]":
        ("520e16bf445b2e72", 60, 6),
    "test_capped_outcome_matches_old_predicate[sdhl]": ("8da9bbfd0a7b224a", 151, 3),
    "test_capped_outcome_matches_old_predicate[fuse]": ("db722498f4b0e969", 151, 4),
    "test_capped_outcome_matches_old_predicate[hl]": ("309bc4f6647ae26a", 151, 21),
    "test_capped_outcome_matches_old_predicate[polarized]": ("3461e84db03e825b", 151, 7),
    "test_capped_outcome_matches_old_predicate[partial]": ("3af2644814fdb5f9", 151, 5),
    "test_capped_outcome_matches_old_predicate[almost-all]": ("fd042dcab7348dae", 151, 30),
    "test_capped_outcome_matches_old_predicate[dim-induct]": ("78286aa970da3690", 151, 9),
}


UNCAPPED = 10 ** 9  # the old run's budget for each staged call


def _digest(outcome):
    return hashlib.sha256(json.dumps(outcome, sort_keys=True).encode()).hexdigest()[:16]


class _Enough(Exception):
    """Raised by the old run at the staged call it need not make."""


def _logged_walk(walks):
    """``polarized._unrefuted``, logging each walk's vectors in ``walks``."""
    walk = polarized._unrefuted

    def logged(*args):
        walks.append([])
        for vec in walk(*args):
            walks[-1].append(vec)
            yield vec

    return logged


def _run(monkeypatch, run, old, walks, limit=None):
    """Outcome of ``run()``, the log of every staged call, and steps used.

    Each staged call logs ``(result, tried)`` in the library search
    (``oracles.watch_tries``) and ``(result, asked)`` in the pointer search
    (``oracles.watch_asks``).  A call with no old predicate, the root stage
    of ``fuse``, runs the library search in both runs.  The library run
    logs almost-all's vector walks in ``walks``, and the old run replays
    them.  The old run stops before staged call ``limit + 1``, with
    outcome ``"stopped"``.
    """
    calls = []
    used = []
    library = oracles.watch_tries(prefiltered_assignment, calls)
    pointer = oracles.watch_asks(oracles.prefiltered_assignment, calls)
    with monkeypatch.context() as patch:
        if not old:
            patch.setattr(polarized, "_unrefuted", _logged_walk(walks))
        else:
            replay = iter(walks)
            patch.setattr(polarized, "_unrefuted", lambda *_: iter(next(replay)))
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
                def stand_in(*args, make_old=make_old, real=getattr(search, kernel)):
                    return _StandIn(lambda slots: make_old(slots, *args),
                                    getattr(real(*args), "row", None))
                patch.setattr(module, kernel, stand_in)

        def staged(slots, candidates, consistent, budget):
            # both kernel filters read a slot's coordinate from its head
            assert all(isinstance(slot[0], int) for slot in slots)
            if old:
                if len(calls) == limit:
                    raise _Enough
                budget = StepBudget(UNCAPPED)
                held = _stand_in(consistent)
                if held is not None:
                    return pointer(slots, {slot: candidates(slot) for slot in slots},
                                   held.build(slots), budget)
            try:
                return library(slots, candidates, consistent, budget)
            finally:
                used.append(budget.used)

        patch.setattr(tailcone, "prefiltered_assignment", staged)
        try:
            outcome = run()
        except CapExceededError as capped:
            outcome = ("capped", str(capped))
        except _Enough:
            outcome = "stopped"
    if hasattr(outcome, "to_json"):
        outcome = outcome.to_json()
    return outcome, calls, used


@pytest.fixture
def same(monkeypatch, request):
    """Run a box both ways; both must match each other and the pinned record."""

    def check(run):
        walks = []
        outcome, calls, used = _run(monkeypatch, run, False, walks)
        assert calls, "the box never reached a staged search"
        capped = calls[-1][0] == "exhausted"
        # the call that ran out of budget may take the old run far longer
        want, old_calls, _ = _run(monkeypatch, run, True, walks,
                                  limit=len(calls) - capped)
        oracles.assert_same_calls(calls, old_calls)
        if not capped:
            assert (outcome, len(calls)) == (want, len(old_calls))
        assert (_digest(outcome), used[-1], len(calls)) == PINNED[request.node.name]
        return outcome, calls

    return check


def _spaces(b, h, d):
    return (TreeSpace(b, h),) * d


@pytest.mark.parametrize("d,h,colors,seed", [
    (1, 5, 2, 3), (2, 4, 2, 1), (2, 5, 3, 7), (3, 4, 8, 2), (3, 5, 8, 1),
    (3, 5, 3, 5)])
def test_sdhl_search_matches_old_predicate(same, d, h, colors, seed):
    col = seeded_hash_coloring(_spaces(2, h, d), colors, seed, domain="level")
    same(lambda: sdhl_search(col))


@pytest.mark.parametrize("h,m,goal,seed", [(6, 1, 3, 2), (7, 1, 4, 9), (7, 2, 3, 5),
                                           (7, 2, 4, 1)])
def test_fuse_matches_old_predicate(same, h, m, goal, seed):
    spaces = _spaces(2, h, 2)
    family = ColoringFamily([seeded_hash_coloring(spaces, 2, 10 * seed + i)
                             for i in range(m)])
    same(lambda: fuse(family, h=goal))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_hl_search_matches_old_predicate(same, seed):
    col = seeded_hash_coloring(_spaces(2, 6, 2), 2, seed)
    same(lambda: hl_search(col, h=3))


@pytest.mark.parametrize("h,seed", [(10, 19), (11, 11), (11, 6)])
def test_dimension_induction_matches_old_predicates(same, h, seed):
    col = seeded_hash_coloring(_spaces(2, h, 2), 2, seed)
    same(lambda: dimension_induction(col, h=4))


@pytest.mark.parametrize("d,base,h,goal,seed", [(2, (0,), 6, 4, 2), (2, (1,), 6, 4, 0),
                                                (2, (1,), 6, 4, 3), (3, (0, 2), 5, 3, 1)])
def test_partial_law_matches_old_predicate(same, d, base, h, goal, seed):
    col = seeded_hash_coloring(_spaces(2, h, d), 2, seed)
    same(lambda: apply_tailcone_partial(col, base, h=goal))


@pytest.mark.parametrize("h,goal,noise,seed", [(5, 3, 9, 1), (5, 3, 9, 2), (6, 3, 7, 0),
                                               (6, 4, 9, 1)])
def test_partial_law_two_complement_coordinates(same, h, goal, noise, seed):
    col = oracles.prefix_coloring(_spaces(2, h, 3), seed, noise)
    outcome, calls = same(lambda: apply_tailcone_partial(col, (0,), h=goal))
    assert sum(found is not None for found, _ in calls) >= 2  # a constrained stage


@pytest.mark.parametrize("k,height,goal,seed", [(2, 6, 3, 0), (2, 6, 3, 3), (2, 7, 3, 1),
                                                (3, 4, 3, 0), (3, 5, 3, 1)])
def test_almost_all_matches_old_predicate(same, k, height, goal, seed):
    col = seeded_hash_coloring(_spaces(2, height, k), 2, seed)
    outcome, _ = same(lambda: almost_all_homogenize(col, h=goal))
    assert outcome["route"] == "staged"


@pytest.mark.parametrize("dim,depth,height", [(1, 3, 8), (1, 4, 10), (2, 2, 10)])
def test_polarized_type_coloring_matches_old_predicate(same, dim, depth, height):
    col = height_permutation_coloring(_spaces(2, height, dim + 1))
    same(lambda: polarized_search(col, depth=depth))


@pytest.mark.parametrize("k,height,depth,seed", [(2, 7, 1, 0), (2, 7, 2, 4),
                                                 (3, 6, 1, 2)])
def test_polarized_random_coloring_matches_old_predicate(same, k, height, depth,
                                                         seed):
    col = oracles.random_table_coloring(_spaces(2, height, k), 3, seed, domain="full")
    same(lambda: polarized_search(col, depth=depth))


def test_polarized_refuses_the_box_its_depth_outgrows():
    # depth 1 needs 6 levels across 3 trees; this box once ran to "no
    # viable band for round 1, tree 2"
    col = oracles.random_table_coloring(_spaces(2, 5, 3), 3, 2, domain="full")
    with pytest.raises(InvalidInputError, match="^depth 1 needs 6 levels across "
                                                "3 trees, the lowest has 5$"):
        polarized_search(col, depth=1)


@pytest.mark.parametrize("run", [
    lambda budget: sdhl_search(seeded_hash_coloring(_spaces(2, 5, 3), 8, 1,
                                                    domain="level"), budget=budget),
    lambda budget: fuse(ColoringFamily([seeded_hash_coloring(_spaces(2, 7, 2), 2, s)
                                        for s in (3, 4)]), h=4, budget=budget),
    lambda budget: hl_search(seeded_hash_coloring(_spaces(2, 7, 2), 2, 5), h=4,
                             budget=budget),
    lambda budget: polarized_search(
        height_permutation_coloring(_spaces(2, 10, 3)), depth=2, budget=budget),
    lambda budget: apply_tailcone_partial(
        oracles.prefix_coloring(_spaces(2, 6, 3), 1, 5), (0,), h=3, budget=budget),
    lambda budget: almost_all_homogenize(seeded_hash_coloring(_spaces(2, 6, 2), 2, 0),
                                         h=3, budget=budget),
    lambda budget: dimension_induction(seeded_hash_coloring(_spaces(2, 10, 2), 2, 19),
                                       h=4, budget=budget),
], ids=["sdhl", "fuse", "hl", "polarized", "partial", "almost-all", "dim-induct"])
def test_capped_outcome_matches_old_predicate(same, run):
    # a fresh budget per run: the harness runs the box twice
    outcome, calls = same(lambda: run(StepBudget(150)))
    assert calls[-1][0] == "exhausted"


def test_memo_is_scoped_to_one_predicate():
    seen = []

    def value(tup):
        seen.append(tup)
        return 0

    slots = [(0, "0"), (1, "0")]
    candidates = {(0, "0"): ("00", "01"), (1, "0"): ("00", "01")}
    for _ in range(2):
        found = first_level(slots, [0], lambda slot, level: candidates[slot],
                            cross_consistent(2, value), StepBudget(100))
        assert found == (0, {(0, "0"): "00", (1, "0"): "00"})
    # the choice for (0, "0") narrows the live candidates of (1, "0")
    assert seen == [("00", "00"), ("00", "01")] * 2
