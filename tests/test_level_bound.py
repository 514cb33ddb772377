"""The bounded level scan of ``grow_shared_subtrees``.

A stage of a construction of ``height_goal`` levels scans only levels
that leave one level for each later stage.  The greedy step keeps the
lowest admissible level, so the bound changes no construction: it only
stops runs sooner that would have failed at a later stage.  The oracle
is the engine as it was, scanning every level up to the view height
(``oracles.grow_shared_subtrees_to_height``).
"""

import itertools

import pytest

import oracles
from hl_lab import polarized, tailcone
from hl_lab.polarized import almost_all_homogenize
from hl_lab.search import StepBudget, cross_consistent
from hl_lab.subtrees import SubtreeReport
from hl_lab.tailcone import (
    ColoringFamily,
    apply_tailcone_partial,
    fuse,
    grow_shared_subtrees,
    hl_search,
)
from hl_lab.trees import TreeSpace
from hl_lab.witness import seeded_hash_coloring

BOXES = [(h, goal, seed) for h in (5, 6, 7) for goal in (3, 4) for seed in range(4)]


def _spaces(h, d=2):
    return (TreeSpace(2, h),) * d


RUNS = {
    "fuse": lambda h, goal, seed, budget: fuse(
        ColoringFamily([seeded_hash_coloring(_spaces(h), 2, 10 * seed + i)
                        for i in range(goal - 2)]), h=goal, budget=budget),
    "hl": lambda h, goal, seed, budget: hl_search(
        seeded_hash_coloring(_spaces(h), 2, seed), h=goal, budget=budget),
    "partial": lambda h, goal, seed, budget: apply_tailcone_partial(
        seeded_hash_coloring(_spaces(h), 2, seed), (seed % 2,), h=goal,
        budget=budget),
    "partial-d3": lambda h, goal, seed, budget: apply_tailcone_partial(
        seeded_hash_coloring(_spaces(h, 3), 2, seed), (0, 2), h=goal,
        budget=budget),
    "almost-all": lambda h, goal, seed, budget: almost_all_homogenize(
        seeded_hash_coloring(_spaces(h), 2, seed), h=goal, budget=budget),
}


@pytest.mark.parametrize("name,h,goal,seed", [
    (name, h, goal, seed) for name in RUNS for (h, goal, seed) in BOXES
    # almost-all tries every root tuple and color vector; keep its trees small
    if name != "almost-all" or h <= 6])
def test_bounded_scan_matches_the_unbounded_engine(monkeypatch, name, h, goal, seed):
    run = RUNS[name]
    budget = StepBudget(10 ** 7)
    new = run(h, goal, seed, budget)
    with monkeypatch.context() as patch:
        # polarized imports the engine by name; patch both bindings
        for module in (tailcone, polarized):
            patch.setattr(module, "grow_shared_subtrees",
                          oracles.grow_shared_subtrees_to_height)
        old_budget = StepBudget(10 ** 7)
        old = run(h, goal, seed, old_budget)
    assert not new.capped and not old.capped
    assert new.success == old.success
    if new.success:
        assert new.to_json() == old.to_json()
    assert budget.used <= old_budget.used


def _accepting(stage, level_set, layers):
    return lambda partial, later, spend: []


def test_roots_too_high_fail_before_stage_one_at_no_cost():
    # three levels from level 3 need levels 3, 4 and 5 of a height-5 tree
    views = _spaces(5)
    calls = []

    def stage_factory(stage, level_set, layers):
        calls.append(stage)
        return _accepting(stage, level_set, layers)

    budget = StepBudget(1000)
    outcome = grow_shared_subtrees(views, ("000", "000"), 3, stage_factory, budget,
                                   label="t")
    assert not outcome.success and not outcome.capped
    assert outcome.failure == "t: truncation exhausted before stage 1"
    assert budget.used == 0 and calls == []
    # one level lower there is room: every stage lands on the next level
    outcome = grow_shared_subtrees(views, ("00", "00"), 3, _accepting, budget,
                                   label="t")
    assert outcome.success
    assert all(r.level_set == (2, 3, 4) for r in outcome.reports)


def test_a_node_without_a_successor_in_its_view_fails_before_the_factory():
    # a report's view has no level-1 node above its root, so the root has
    # no slot and stage 1 cannot split it
    view = SubtreeReport(TreeSpace(2, 4), ("", "000"), (0, 2, 3))
    calls = []

    def stage_factory(stage, level_set, layers):
        calls.append(stage)
        return _accepting(stage, level_set, layers)

    budget = StepBudget(1000)
    outcome = grow_shared_subtrees((view,), ("",), 2, stage_factory, budget,
                                   label="t")
    assert not outcome.success and not outcome.capped
    assert outcome.failure == "t: a stage-0 node does not split"
    assert budget.used == 0 and calls == []


def test_a_stage_fails_where_its_only_level_is_above_the_bound():
    # stage 1 of three levels from the root of a height-6 tree may use
    # levels 1-4; its filter admits nodes of level 5 only
    views = _spaces(6)
    scanned = set()

    def stage_factory(stage, level_set, layers):
        def consistent(partial, slot, node):
            scanned.add(len(node))
            return len(node) == 5

        return oracles.as_filter(consistent)

    budget = StepBudget(10 ** 6)
    outcome = grow_shared_subtrees(views, ("", ""), 3, stage_factory, budget,
                                   label="t")
    assert not outcome.success and not outcome.capped
    assert outcome.failure == "t: no admissible level for stage 1"
    assert scanned == {1, 2, 3, 4}
    # the unbounded engine commits level 5 and fails a stage later, dearer
    scanned.clear()
    old_budget = StepBudget(10 ** 6)
    old = oracles.grow_shared_subtrees_to_height(views, ("", ""), 3, stage_factory,
                                                 old_budget, label="t")
    assert old.failure == "t: truncation exhausted before stage 2"
    assert scanned == {1, 2, 3, 4, 5}
    assert budget.used < old_budget.used


@pytest.mark.parametrize("h,goal,seed",
                         list(itertools.product((5, 6), (2, 3, 4), (1, 2))))
def test_a_successful_grow_spends_what_the_unbounded_engine_spends(h, goal, seed):
    col = seeded_hash_coloring(_spaces(h), 2, seed)
    for rho in range(h):
        for roots in itertools.product(*(v.level(rho) for v in col.spaces)):
            gamma = col.evaluate(roots)

            def stage_factory(stage, level_set, layers):
                return cross_consistent(2, col.evaluate, gamma)

            budget, old_budget = StepBudget(10 ** 6), StepBudget(10 ** 6)
            new = grow_shared_subtrees(col.spaces, roots, goal, stage_factory, budget,
                                       label="t")
            old = oracles.grow_shared_subtrees_to_height(
                col.spaces, roots, goal, stage_factory, old_budget, label="t")
            assert new.success == old.success
            if new.success:
                assert new.reports == old.reports
                assert budget.used == old_budget.used
            else:
                assert budget.used <= old_budget.used
