"""The leveled-tree queries of TreeSpace and SubtreeReport against brute force.

Searches and checkers read every factor through nine queries: ``level``,
``extensions``, ``level_of``, ``restrict``, ``contains``, ``root``,
``height``, ``ambient_space`` and ``ambient_level``.  A space's levels are
heights; a strong subtree's level ``xi`` is its ``xi``-th witnessing level.
Each query is compared here with a definition computed from the member
nodes and the list of ambient levels alone.
"""

import itertools

import pytest

from hl_lab.errors import OutOfRangeError, UnknownNodeError
from hl_lab.subtrees import SubtreeReport, enumerate_strong_subtrees, trim
from hl_lab.trees import TreeSpace

EXPLICIT = TreeSpace.explicit(["", "0", "1", "00", "01", "10",
                               "000", "010", "011", "100", "101"])
SPACES = [TreeSpace(2, 3), TreeSpace(2, 4), TreeSpace(3, 3), EXPLICIT,
          TreeSpace(2, 3, nodes=("", "1", "10", "11"))]


def space_id(space):
    kind = "uniform" if space.nodes is None else "explicit"
    return f"{kind}-b{space.branching}-h{space.height}"


def members_of(space):
    """Every node of a space, from its node set or by listing digit strings."""
    if space.nodes is not None:
        return list(space.nodes)
    digits = "0123456789"[:space.branching]
    return ["".join(p) for a in range(space.height)
            for p in itertools.product(digits, repeat=a)]


def reports_of(space):
    """Every strong subtree of ``space``, over every witnessing level set."""
    for size in range(1, space.height + 1):
        for level_set in itertools.combinations(range(space.height), size):
            yield from enumerate_strong_subtrees(space, level_set)


def trims_of(report):
    for size in range(1, len(report.level_set) + 1):
        for subset in itertools.combinations(report.level_set, size):
            yield trim(report, subset)


def check_queries(tree, members, ambient, space):
    """``tree`` answers like the tree with these members on these ambient levels."""
    assert tree.height == len(ambient)
    assert tree.ambient_space is space
    levels = [tuple(sorted((n for n in members if len(n) == a),
                           key=lambda n: (len(n), n)))
              for a in ambient]
    for xi, a in enumerate(ambient):
        assert tree.ambient_level(xi) == a
        assert tree.level(xi) == levels[xi]
    (root,) = levels[0]
    assert tree.root == root
    for node in members:
        assert tree.contains(node)
        xi = ambient.index(len(node))
        assert tree.level_of(node) == xi
        for chi, a in enumerate(ambient):
            assert tree.extensions(node, chi) == tuple(
                m for m in levels[chi] if m.startswith(node))
            if a <= len(node):
                assert tree.restrict(node, chi) == node[:a]
            else:
                with pytest.raises(OutOfRangeError):
                    tree.restrict(node, chi)
        for bad in (-1, len(ambient)):
            with pytest.raises(OutOfRangeError):
                tree.extensions(node, bad)
            with pytest.raises(OutOfRangeError):
                tree.restrict(node, bad)
    for bad in (-1, len(ambient)):
        with pytest.raises(OutOfRangeError):
            tree.level(bad)
        with pytest.raises(OutOfRangeError):
            tree.ambient_level(bad)
    inside = set(members)
    outside = [n for n in members_of(TreeSpace(space.branching + 1, space.height + 1))
               if n not in inside]
    assert outside
    for node in outside:
        assert not tree.contains(node)
        with pytest.raises(UnknownNodeError):
            tree.level_of(node)
        with pytest.raises(UnknownNodeError):
            tree.extensions(node, 0)


@pytest.mark.parametrize("space", SPACES, ids=space_id)
def test_space_queries_match_brute_force(space):
    check_queries(space, members_of(space), list(range(space.height)), space)


@pytest.mark.parametrize("space", SPACES, ids=space_id)
def test_subtree_queries_match_brute_force(space):
    reports = list(reports_of(space))
    assert reports
    for report in reports:
        check_queries(report, list(report.nodes), list(report.level_set), space)
        for node in members_of(space):
            if node not in report.nodes:
                with pytest.raises(UnknownNodeError):
                    report.restrict(node, 0)


@pytest.mark.parametrize("space", SPACES, ids=space_id)
def test_trimmed_subtree_queries_match_brute_force(space):
    full = range(space.height)
    for report in enumerate_strong_subtrees(space, full):
        for trimmed in trims_of(report):
            check_queries(trimmed, list(trimmed.nodes), list(trimmed.level_set),
                          space)


# a member off every level of its (malformed) report; the loops in
# check_queries cover the out-of-range levels of well-formed trees
OFF_LEVEL = SubtreeReport(TreeSpace(2, 3), ("", "0"), (0, 2))


@pytest.mark.parametrize("query,error", [
    (lambda: OFF_LEVEL.level_of("0"), UnknownNodeError),
    (lambda: OFF_LEVEL.ambient_level(5), OutOfRangeError),
    (lambda: OFF_LEVEL.restrict("", 5), OutOfRangeError),
], ids=["level-of", "ambient-level", "restrict"])
def test_malformed_report_queries_raise_library_errors(query, error):
    with pytest.raises(error):
        query()


def test_subtree_index_is_built_once():
    report = next(enumerate_strong_subtrees(TreeSpace(2, 4), (0, 2, 3)))
    assert report.level(1) is report.level(1)
    # the cached index is not a field: equality and hashing ignore it
    fresh = SubtreeReport(report.space, report.nodes, report.level_set)
    assert fresh == report and hash(fresh) == hash(report)
