"""Strong-subtree validation, enumeration, trimming, and restriction."""

import itertools
import random

import pytest

from hl_lab.errors import InvalidInputError
from hl_lab.subtrees import (
    SubtreeReport,
    enumerate_strong_subtrees,
    subtree_restrict,
    trim,
    validate_strong_subtree,
)
from hl_lab.trees import TreeSpace

import oracles
from oracles import all_nodes, strong_subtrees_by_scan


def test_full_truncation_is_a_strong_subtree():
    space = TreeSpace(2, 3)
    report = SubtreeReport(space, all_nodes(3), (0, 1, 2))
    assert validate_strong_subtree(report).valid


def test_skip_level_subtree_validates():
    space = TreeSpace(2, 5)
    nodes = ("", "00", "11", "0000", "0010", "1100", "1110")
    report = SubtreeReport(space, nodes, (0, 2, 4))
    res = validate_strong_subtree(report)
    assert res.valid, res.violations


def test_clause_failures_are_named():
    space = TreeSpace(2, 3)
    # both level-2 nodes extend the same successor of the root
    res = validate_strong_subtree(SubtreeReport(space, ("", "00", "01"), (0, 2)))
    assert not res.valid
    assert any("successor" in v for v in res.violations)
    # two roots
    res = validate_strong_subtree(SubtreeReport(space, ("0", "1"), (1,)))
    assert not res.valid
    # a node off the root, and one whose chain skips a witnessing level
    space = TreeSpace(2, 4)
    res = validate_strong_subtree(SubtreeReport(space, ("0", "00", "01", "100"), (1, 2, 3)))
    assert "node '100' does not extend the root '0'" in res.violations
    res = validate_strong_subtree(SubtreeReport(space, ("", "0", "100"), (0, 1, 3)))
    assert "node '100' lacks its predecessor at witnessing level 1" in res.violations


def test_single_node_is_a_subtree():
    space = TreeSpace(2, 3)
    assert validate_strong_subtree(SubtreeReport(space, ("01",), (2,))).valid


def test_enumerator_agrees_with_subset_scan_everywhere():
    # every truncation height up to 4, every strictly increasing level set
    for n in range(1, 5):
        space = TreeSpace(2, n)
        level_sets = []
        for size in range(1, n + 1):
            level_sets.extend(itertools.combinations(range(n), size))
        for level_set in level_sets:
            ours = [r.nodes for r in enumerate_strong_subtrees(space, level_set)]
            oracle = strong_subtrees_by_scan(n, level_set)
            assert sorted(ours) == sorted(oracle), (n, level_set)
            # and everything emitted validates
            for nodes in ours:
                report = SubtreeReport(space, nodes, level_set)
                assert validate_strong_subtree(report).valid


# branching 3 at "10", 2 at "", "0", "00", 1 at "1", "01"
NON_UNIFORM = TreeSpace.explicit(["", "0", "1", "00", "01", "10", "000", "001",
                                  "010", "100", "101", "102"])


@pytest.mark.parametrize("space", [TreeSpace(2, 5), TreeSpace(3, 4), NON_UNIFORM],
                         ids=["b2", "b3", "explicit"])
def test_enumeration_matches_the_layer_list_reference(space):
    # the same reports in the same order, on every level set of length 1-4
    for size in range(1, 5):
        for level_set in itertools.combinations(range(space.height), size):
            ours = list(enumerate_strong_subtrees(space, level_set))
            assert ours == list(oracles.enumerate_strong_subtrees(space, level_set))
            assert ours, level_set


def test_enumeration_counts_frozen():
    space = TreeSpace(2, 3)
    # skip-level sets pin the crowded successor clause
    assert len(list(enumerate_strong_subtrees(space, (0, 2)))) == 4
    assert len(list(enumerate_strong_subtrees(space, (1, 2)))) == 2
    assert len(list(enumerate_strong_subtrees(space, (0, 1, 2)))) == 1
    assert len(list(enumerate_strong_subtrees(space, (2,)))) == 4
    space4 = TreeSpace(2, 4)
    assert len(list(enumerate_strong_subtrees(space4, (0, 2)))) == 4
    assert len(list(enumerate_strong_subtrees(space4, (1, 3)))) == 8


def test_trim_always_validates():
    rng = random.Random(7)
    space = TreeSpace(2, 5)
    all_reports = list(enumerate_strong_subtrees(space, (0, 2, 4)))
    for _ in range(50):
        report = all_reports[rng.randrange(len(all_reports))]
        levels = sorted(rng.sample(report.level_set, rng.randrange(1, 4)))
        smaller = trim(report, levels)
        assert smaller.level_set == tuple(levels)
        assert validate_strong_subtree(smaller).valid
        assert set(smaller.nodes) <= set(report.nodes)


def test_trim_to_full_level_set_is_identity():
    space = TreeSpace(2, 4)
    report = next(iter(enumerate_strong_subtrees(space, (0, 1, 3))))
    again = trim(report, report.level_set)
    assert again.nodes == report.nodes


def test_trim_rejects_foreign_levels():
    space = TreeSpace(2, 4)
    report = next(iter(enumerate_strong_subtrees(space, (0, 2))))
    with pytest.raises(InvalidInputError):
        trim(report, (0, 3))


def test_subtree_restrict_tower_exhaustive():
    # restriction is transitive: going to level i directly equals going
    # through any intermediate level j with i <= j
    space = TreeSpace(2, 4)
    reports = [next(iter(enumerate_strong_subtrees(space, (0, 1, 3)))),
               list(enumerate_strong_subtrees(space, (0, 1, 3)))[5]]
    tops = list(itertools.product(reports[0].level(2), reports[1].level(2)))
    for seq in tops:
        for i in range(3):
            direct = subtree_restrict(seq, i, reports)
            for j in range(i, 3):
                via = subtree_restrict(subtree_restrict(seq, j, reports),
                                       i, reports)
                assert via == direct, (seq, i, j)


def test_subtree_restrict_shape_example():
    space = TreeSpace(2, 4)
    nodes = ("", "00", "11", "0000", "0010", "1100", "1110")
    report = SubtreeReport(space, nodes, (0, 2, 4))
    assert subtree_restrict(("0010",), 1, (report,)) == ("00",)
    assert subtree_restrict(("0010",), 0, (report,)) == ("",)
    with pytest.raises(InvalidInputError):
        subtree_restrict(("0010", "1100"), 1, (report,))


def test_report_json_round_trip():
    space = TreeSpace(2, 4)
    report = next(iter(enumerate_strong_subtrees(space, (0, 2))))
    doc = report.to_json()
    again = SubtreeReport.from_json(doc, space)
    assert again.nodes == report.nodes
    assert again.level_set == report.level_set
