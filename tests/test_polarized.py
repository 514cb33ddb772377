"""Degree arithmetic, height-order types, and the round-robin construction."""

from fractions import Fraction

import pytest

from hl_lab import polarized
from hl_lab.errors import InvalidInputError, PreconditionError
from hl_lab.polarized import (
    almost_all_homogenize,
    build_degree_table,
    devlin_lower_bound,
    height_permutation_coloring,
    permutation_rank,
    polarized_search,
    tangent,
    tuple_type,
    validate_splitting_tree,
    verify_lower_bound,
)
from hl_lab.search import Caps, StepBudget
from hl_lab.subtrees import SubtreeReport, enumerate_strong_subtrees, trim
from hl_lab.trees import TreeSpace
from hl_lab.witness import (
    Coloring,
    constant_coloring,
    random_table_coloring,
    seeded_hash_coloring,
)

from oracles import alternating_count


# ---------------------------------------------------------------------------
# degree arithmetic


def test_tangent_values_frozen():
    assert [tangent(n) for n in range(1, 6)] == [1, 2, 16, 272, 7936]


def test_tangent_matches_alternating_permutation_count():
    for n in range(1, 5):
        assert tangent(n) == alternating_count(n)


def test_devlin_lower_bound_values():
    assert devlin_lower_bound(2) == 2
    assert devlin_lower_bound(3) == 20
    assert devlin_lower_bound(4) == 360


def test_degree_arithmetic_guards():
    with pytest.raises(InvalidInputError):
        tangent(0)
    with pytest.raises(InvalidInputError):
        devlin_lower_bound(1)
    with pytest.raises(InvalidInputError):
        build_degree_table(0)


def test_degree_table_rows():
    doc = build_degree_table(4).to_json()
    assert doc["rows"][0] == {"d": 1, "tangent": 1, "devlin_lower_bound": None,
                              "polarized_degree": 2}
    assert doc["rows"][1] == {"d": 2, "tangent": 2, "devlin_lower_bound": 2,
                              "polarized_degree": 6}
    assert doc["rows"][2] == {"d": 3, "tangent": 16, "devlin_lower_bound": 20,
                              "polarized_degree": 24}
    assert doc["rows"][3] == {"d": 4, "tangent": 272, "devlin_lower_bound": 360,
                              "polarized_degree": 120}


# ---------------------------------------------------------------------------
# height-order types


def test_permutation_rank_lexicographic():
    assert permutation_rank((0, 1, 2)) == 0
    assert permutation_rank((1, 2, 0)) == 3
    assert permutation_rank((2, 1, 0)) == 5
    assert permutation_rank((0,)) == 0


def test_tuple_type_worked_example():
    t = tuple_type((2, 0, 1))
    assert t.permutation == (1, 2, 0)
    assert t.rank == 3
    assert t.ties == (False, False)
    assert t.distinct


def test_tuple_type_stability_on_ties():
    t = tuple_type((1, 1))
    assert t.permutation == (0, 1)  # equal heights keep coordinate order
    assert t.ties == (True,)
    assert not t.distinct
    assert tuple_type((3, 1, 3)).permutation == (1, 0, 2)


def test_height_permutation_coloring_values():
    space = TreeSpace(2, 4)
    f = height_permutation_coloring(1, (space, space))
    assert (f.arity, f.colors) == (2, 2)
    assert f(("0", "11")) == 0
    assert f(("11", "0")) == 1
    assert f(("0", "1")) == 0  # stable tie
    g = height_permutation_coloring(2, (space, space, space))
    assert g.colors == 6
    assert g(("1", "00", "")) == permutation_rank((2, 0, 1))
    with pytest.raises(InvalidInputError):
        height_permutation_coloring(0, (space,))


# ---------------------------------------------------------------------------
# lower-bound verification


def test_full_products_realize_every_type():
    space = TreeSpace(2, 5)
    full = SubtreeReport(space, space.all_nodes(), (0, 1, 2, 3, 4))
    report = verify_lower_bound((full, full), 1)
    assert report.realizes_all
    assert report.total_types == 2
    assert report.combos_per_type == {0: 10, 1: 10}


def test_disjoint_level_ranges_miss_a_type():
    space = TreeSpace(2, 4)
    low = next(iter(enumerate_strong_subtrees(space, (0, 1))))
    high = next(iter(enumerate_strong_subtrees(space, (2, 3))))
    report = verify_lower_bound((low, high), 1)
    assert not report.realizes_all
    assert report.missing == (1,)  # no pick ever has the second factor lower


def test_lower_bound_needs_spread_and_arity():
    space = TreeSpace(2, 4)
    single = SubtreeReport(space, ("",), (0,))
    full = SubtreeReport(space, space.all_nodes(), (0, 1, 2, 3))
    with pytest.raises(PreconditionError):
        verify_lower_bound((single, full), 1)
    with pytest.raises(InvalidInputError):
        verify_lower_bound((full,), 1)


# ---------------------------------------------------------------------------
# almost-all homogenization


def _first_coordinate_parity(spaces):
    return Coloring(2, 2, spaces, lambda tup: len(tup[0]) % 2,
                    domain="full", height_factored=True,
                    height_fn=lambda hts: hts[0] % 2)


def test_type_coloring_homogenizes_exactly():
    space = TreeSpace(2, 8)
    rep = almost_all_homogenize(height_permutation_coloring(1, (space, space)))
    assert rep.success and rep.route == "height-factored"
    by_pattern = {p.pattern: p for p in rep.patterns}
    assert by_pattern[(0, 1)].color == 0 and by_pattern[(0, 1)].violations == 0
    assert by_pattern[(1, 0)].color == 1 and by_pattern[(1, 0)].violations == 0


def test_first_coordinate_parity_fails_untrimmed():
    space = TreeSpace(2, 5)
    rep = almost_all_homogenize(_first_coordinate_parity((space, space)))
    assert not rep.success
    assert rep.max_fraction == Fraction(63, 155)
    assert rep.max_fraction > rep.epsilon


def test_first_coordinate_parity_succeeds_on_even_levels():
    space = TreeSpace(2, 5)
    full = SubtreeReport(space, space.all_nodes(), (0, 1, 2, 3, 4))
    even = trim(full, (0, 2, 4))
    rep = almost_all_homogenize(_first_coordinate_parity((space, space)),
                                trees=(even, even))
    assert rep.success
    assert rep.max_fraction == 0
    assert all(p.color == 0 for p in rep.patterns)


def test_staged_route_on_seeded_coloring():
    space = TreeSpace(2, 8)
    col = seeded_hash_coloring((space, space), 2, 2, seed=42)
    rep = almost_all_homogenize(col)
    assert rep.success and rep.route == "staged"
    assert rep.max_fraction == 0  # staged constructions admit no exceptions
    assert all(r.level_set == (0, 3, 7) for r in rep.reports)


@pytest.mark.parametrize("k,height", [(2, 6), (3, 5)])
def test_staged_route_stops_at_its_cap(monkeypatch, k, height):
    # Uncapped, both boxes try every root tuple and color vector without a
    # construction; before the fix a cap of 150 steps spent 1,849 (k=2)
    # and 42,256 (k=3) steps and reported capped false.
    made = []

    class Budget(StepBudget):
        def __init__(self, cap):
            super().__init__(cap)
            made.append(self)

    monkeypatch.setattr(polarized, "StepBudget", Budget)
    col = seeded_hash_coloring((TreeSpace(2, height),) * k, k, 2, seed=3)
    rep = almost_all_homogenize(col, h=3, caps=Caps(max_steps=150))
    assert rep.capped and not rep.success
    assert rep.failure == "budget exhausted during the staged scan"
    assert [b.used for b in made] == [151]


def test_homogenize_guards():
    space = TreeSpace(2, 4)
    with pytest.raises(InvalidInputError):
        almost_all_homogenize(constant_coloring((space,), 1, 2))
    from hl_lab.witness import level_parity_coloring
    with pytest.raises(InvalidInputError):
        almost_all_homogenize(level_parity_coloring((space, space), 2))


# ---------------------------------------------------------------------------
# splitting trees and the round-robin search


def test_type_coloring_realizes_two_colors_depth_three():
    space = TreeSpace(2, 8)
    out = polarized_search(height_permutation_coloring(1, (space, space)),
                           depth=3)
    assert out.success
    assert out.realized == (0, 1)
    assert [r.level_set for r in out.reports] == [(0, 2, 4, 6), (1, 3, 5, 7)]
    for report in out.reports:
        assert validate_splitting_tree(report, 3).valid


def test_type_coloring_dimension_two_realizes_six():
    space = TreeSpace(2, 13)
    out = polarized_search(height_permutation_coloring(2, (space,) * 3), depth=3)
    assert out.success
    assert out.realized == (0, 1, 2, 3, 4, 5)


def test_constant_coloring_realizes_one():
    space = TreeSpace(2, 8)
    out = polarized_search(constant_coloring((space, space), 2, 3, value=2),
                           depth=3)
    assert out.success and out.realized == (2,)


def test_random_box_stays_within_factorial_bound():
    space = TreeSpace(2, 10)
    for seed in range(10):
        col = random_table_coloring((space, space), 2, 3, seed=seed,
                                    domain="full")
        out = polarized_search(col, depth=1)
        assert out.success, seed
        assert len(out.realized) <= 2, seed
        for report in out.reports:
            assert validate_splitting_tree(report, 1).valid


def test_search_emits_band_transcript():
    space = TreeSpace(2, 8)
    transcript: list = []
    out = polarized_search(height_permutation_coloring(1, (space, space)),
                           depth=1, transcript=transcript)
    assert out.success
    bands = [e for e in transcript if e.get("event") == "polarized-band"]
    assert len(bands) == 4  # (depth + 1) bands per factor
    assert {"round", "tree", "view_level", "nodes"} <= set(bands[0])


def test_outcome_json_shape():
    space = TreeSpace(2, 8)
    out = polarized_search(height_permutation_coloring(1, (space, space)),
                           depth=1)
    doc = out.to_json()
    assert doc["success"] is True
    assert all("," in key for key in doc["gamma"])
    assert doc["realized"] == list(out.realized)


def test_splitting_tree_violations():
    space = TreeSpace(2, 4)
    forest = SubtreeReport(space, ("0", "1"), (1,))
    res = validate_splitting_tree(forest, 0)
    assert not res.valid
    chain = SubtreeReport(space, ("", "0", "00"), (0, 1, 2))
    res = validate_splitting_tree(chain, 1)
    assert not res.valid  # internal nodes must split
    shallow = SubtreeReport(space, ("", "0", "1"), (0, 1))
    assert validate_splitting_tree(shallow, 1).valid
    assert not validate_splitting_tree(shallow, 2).valid
