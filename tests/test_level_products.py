"""Colorings read once per level product, and the checkers that read them so."""

import itertools
import random

import pytest

from hl_lab import witness
from hl_lab.errors import InvalidInputError
from hl_lab.search import StepBudget
from hl_lab.subtrees import SubtreeReport, enumerate_strong_subtrees
from hl_lab.tailcone import (
    ColoringFamily,
    TailConeCertificate,
    check_tail_cone,
    fuse,
)
from hl_lab.trees import TreeSpace
from hl_lab.witness import (
    check_hl_strong_subtree,
    constant_coloring,
    expr_coloring,
    level_parity_coloring,
    seeded_hash_coloring,
)

import oracles


def _outcome(check, *args):
    try:
        return ("ok", check(*args))
    except InvalidInputError as err:
        return ("raised", type(err), str(err))


# ---------------------------------------------------------------------------
# Coloring.on_product


def _kinds(spaces):
    return [constant_coloring(spaces, 3, 2),
            level_parity_coloring(spaces, 3),
            seeded_hash_coloring(spaces, 3, seed=5),
            seeded_hash_coloring(spaces, 2, seed=9, domain="level"),
            expr_coloring(spaces, 3, "sum(heights) + len(nodes[-1]) + d")]


def test_on_a_level_product_it_equals_evaluate_and_skips_the_checks():
    space = TreeSpace(2, 5)
    for d in (1, 2, 3):
        for col in _kinds((space,) * d):
            for height in range(5):
                levels = [space.level(height)] * d
                fast = col.on_product(levels)
                assert fast != col.evaluate
                for tup in itertools.product(*levels):
                    assert fast(tup) == col.evaluate(tup)


def test_a_mixed_height_product_falls_back_to_evaluate():
    space = TreeSpace(2, 4)
    col = level_parity_coloring((space, space))
    levels = [space.level(1), space.level(2)]
    assert col.on_product(levels) == col.evaluate
    with pytest.raises(InvalidInputError, match="level sequences only"):
        col.on_product(levels)(("0", "00"))
    # one list holding two heights is mixed as well
    assert col.on_product([("0", "00"), ("1",)]) == col.evaluate
    # a full-domain coloring is defined on mixed tuples, so it takes the rule
    full = seeded_hash_coloring((space, space), 2, seed=1)
    rule = full.on_product(levels)
    assert rule != full.evaluate
    for tup in itertools.product(*levels):
        assert rule(tup) == full.evaluate(tup)


def test_a_product_of_the_wrong_arity_falls_back_to_evaluate():
    space = TreeSpace(2, 4)
    for col in (level_parity_coloring((space, space)),
                seeded_hash_coloring((space, space), 2, seed=1)):
        for levels in ([space.level(2)], [space.level(2)] * 3):
            assert col.on_product(levels) == col.evaluate
            tup = next(itertools.product(*levels))
            with pytest.raises(InvalidInputError, match="coloring has arity 2"):
                col.on_product(levels)(tup)


# ---------------------------------------------------------------------------
# the level sequences every search scans


def _scan_by_hand(views, room):
    """Level sequences on levels 0 .. lowest height - ``room``, built
    coordinate by coordinate: by level, then in product order."""
    out = []
    for xi in range(min(v.height for v in views) - room + 1):
        tuples = [()]
        for view in views:
            tuples = [tup + (node,) for tup in tuples for node in view.level(xi)]
        out += tuples
    return out


_REPORT = list(enumerate_strong_subtrees(TreeSpace(2, 6), (1, 2, 4, 5)))[7]


@pytest.mark.parametrize("views", [
    (TreeSpace(2, 4),), (TreeSpace(2, 4), TreeSpace(3, 3)),
    (_REPORT,), (_REPORT, _REPORT),
    (TreeSpace(3, 5), _REPORT, TreeSpace(2, 4))],
    ids=["tree", "trees", "report", "reports", "mixed"])
def test_level_domain_is_the_hand_written_scan(views):
    lowest = min(v.height for v in views)
    assert list(witness._level_domain(views)) == _scan_by_hand(views, 1)
    for room in range(1, lowest + 2):
        assert list(witness._level_domain(views, room)) == _scan_by_hand(views, room)
    # a room above the lowest height leaves no level at all
    assert list(witness._level_domain(views, lowest + 1)) == []


# ---------------------------------------------------------------------------
# check_hl_strong_subtree against the per-tuple checker


def _strong_reports(rng, space, d, levels):
    return tuple(SubtreeReport(space, oracles.random_strong_subtree(rng, levels),
                               levels) for _ in range(d))


def _hl_colorings(rng, spaces, reports):
    """Colorings making the reports homogeneous, then broken in three ways."""
    colors = 3
    table = {tup: rng.randrange(colors) for tup in witness._level_domain(spaces)}
    reference = rng.randrange(colors)
    inside = [tup for xi in range(reports[0].height)
              for tup in itertools.product(*(r.level(xi) for r in reports))]
    for tup in inside:
        table[tup] = reference
    yield oracles.lookup_coloring(spaces, colors, table)
    flipped = dict(table)
    for tup in rng.sample(inside, 2):
        flipped[tup] = (reference + 1) % colors
    yield oracles.lookup_coloring(spaces, colors, flipped)
    missing = dict(flipped)
    del missing[rng.choice(inside)]
    yield oracles.lookup_coloring(spaces, colors, missing)
    yield level_parity_coloring(spaces, 2)
    yield seeded_hash_coloring(spaces, 2, seed=rng.randrange(10 ** 6))
    # raises on the tuples ending in one node
    node = rng.choice(inside)[-1]
    yield expr_coloring(spaces, 2, f"1 // (nodes[-1] != {node!r}) + len(nodes[0])")


def test_hl_check_matches_the_per_tuple_oracle():
    rng = random.Random("hl-check-oracle")
    seen = set()
    for trial in range(30):
        d = 1 + trial % 3
        space = TreeSpace(2, 6 if d < 3 else 5)
        spaces = (space,) * d
        levels = sorted(rng.sample(range(space.height), 2 + trial % 3))
        reports = _strong_reports(rng, space, d, levels)
        if trial % 5 == 4:
            # a report with a missing node breaks the splitting clause too
            broken = reports[0].nodes[:-1]
            reports = (SubtreeReport(space, broken, levels),) + reports[1:]
        for col in _hl_colorings(rng, spaces, reports):
            got = _outcome(check_hl_strong_subtree, reports, col)
            assert got == _outcome(oracles.check_hl_strong_subtree, reports, col)
            seen.add(got[0] if got[0] == "raised" else got[1].valid)
    assert seen == {True, False, "raised"}


# ---------------------------------------------------------------------------
# check_tail_cone against the checker that built its keys per tuple


def _certificates(rng):
    """Fused certificates, their families, and tables flipped or dropped."""
    for trial in range(18):
        d = 1 + trial % 3
        m = 1 + trial % 2
        space = TreeSpace(2, 6 if d < 3 else 5)
        spaces = (space,) * d
        family = ColoringFamily([
            seeded_hash_coloring(spaces, rng.randrange(1, 3),
                                 seed=rng.randrange(10 ** 6))
            for _ in range(m)])
        out = fuse(family, h=m + 1 + trial % 2, budget=StepBudget(50_000))
        if not out.success:
            continue
        cert = out.certificate
        tables = list(cert.tables)
        yield cert, family
        i = rng.randrange(len(tables))
        flipped = [dict(t) for t in tables]
        flipped[i][rng.choice(sorted(flipped[i]))] += 1
        yield TailConeCertificate(cert.reports, flipped), family
        dropped = [dict(t) for t in tables]
        del dropped[i][rng.choice(sorted(dropped[i]))]
        yield TailConeCertificate(cert.reports, dropped), family
        # a member raising on the tuples ending in one top-level node
        node = rng.choice(cert.reports[-1].level(cert.reports[0].height - 1))
        raising = expr_coloring(spaces, 2, f"1 // (nodes[-1] != {node!r})")
        yield cert, ColoringFamily(family.members[:-1] + (raising,))


def test_tail_cone_check_matches_the_dict_cut_oracle():
    rng = random.Random("tail-cone-on-product")
    seen = set()
    for cert, family in _certificates(rng):
        got = _outcome(check_tail_cone, cert, family)
        assert got == _outcome(oracles.check_tail_cone_dict_cuts, cert, family)
        seen.add(got[0] if got[0] == "raised" else got[1].valid)
    assert seen == {True, False, "raised"}
