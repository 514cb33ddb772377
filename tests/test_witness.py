"""Colorings, somewhere-dense witness search, checkers, least heights."""

import itertools

import pytest

from hl_lab.errors import CapExceededError, InvalidInputError, OracleContradictionError
from hl_lab.search import Caps
from hl_lab.subtrees import SubtreeReport
from hl_lab.trees import TreeSpace
from hl_lab.witness import (
    SDHLWitness,
    SomewhereDenseWitness,
    antichain_split_coloring,
    build_monochromatic_subtree,
    check_dshl_witness,
    check_hl_strong_subtree,
    check_sdhl_witness,
    check_somewhere_dense_witness,
    coloring_from_json,
    constant_coloring,
    dshl_search,
    expr_coloring,
    finite_hl_number,
    level_parity_coloring,
    random_table_coloring,
    sdhl_prime_search,
    sdhl_search,
    seeded_hash_coloring,
    table_coloring,
)

from oracles import all_nodes, sdhl_exists_by_scan


# ---------------------------------------------------------------------------
# coloring constructors


def test_constant_and_parity_values():
    space = TreeSpace(2, 4)
    const = constant_coloring((space, space), 2, 3, value=1)
    assert const.evaluate(("0", "11")) == 1  # full domain: mixed heights fine
    par = level_parity_coloring((space,), 1)
    assert par(("",)) == 0 and par(("0",)) == 1 and par(("01",)) == 0


def test_level_domain_is_enforced():
    space = TreeSpace(2, 4)
    par = level_parity_coloring((space, space), 2)
    assert par(("0", "1")) == 1
    with pytest.raises(InvalidInputError):
        par(("0", "11"))
    with pytest.raises(InvalidInputError):
        par(("0",))  # arity mismatch


def test_table_coloring_totality_and_bounds():
    space = TreeSpace(2, 2)
    full = {(n,): 0 for n in ("", "0", "1")}
    col = table_coloring((space,), 1, 2, full)
    assert col(("0",)) == 0
    with pytest.raises(InvalidInputError):
        table_coloring((space,), 1, 2, {("",): 0})  # missing entries
    with pytest.raises(InvalidInputError):
        table_coloring((space,), 1, 2, {("",): 5}, check_total=False)


def test_expr_and_hash_colorings_are_deterministic():
    space = TreeSpace(2, 3)
    ex = expr_coloring((space, space), 2, 3, "sum(heights) + len(nodes[0])")
    assert ex(("0", "1")) == (2 + 1) % 3
    h1 = seeded_hash_coloring((space,), 1, 4, seed=9)
    h2 = seeded_hash_coloring((space,), 1, 4, seed=9)
    assert [h1((n,)) for n in all_nodes(3)] == [h2((n,)) for n in all_nodes(3)]
    h3 = seeded_hash_coloring((space,), 1, 4, seed=10)
    assert any(h1((n,)) != h3((n,)) for n in all_nodes(3))


@pytest.mark.parametrize("source", ["1//0", "nodes[9]", "undefined", "'a'", "1 +"])
def test_broken_expr_coloring_is_invalid_input(source):
    space = TreeSpace(2, 3)
    with pytest.raises(InvalidInputError, match="expr coloring"):
        expr_coloring((space,), 1, 2, source).evaluate(("0",))


def test_coloring_json_round_trips():
    space = TreeSpace(2, 3)
    col = random_table_coloring((space,), 1, 3, seed=5)
    again = coloring_from_json(col.to_json(), (space,))
    for n in all_nodes(3):
        assert again((n,)) == col((n,))
    named = coloring_from_json(
        {"kind": "named", "name": "level-parity",
         "params": {"arity": 2, "modulus": 2}}, (space, space))
    assert named(("0", "1")) == 1


# ---------------------------------------------------------------------------
# successor-level witnesses


def test_constant_coloring_witness_at_roots():
    space = TreeSpace(2, 3)
    col = constant_coloring((space, space), 2, 3)
    w = sdhl_search(col)
    assert w is not None and w.color == 0
    assert w.base == ("", "")
    assert check_sdhl_witness(w, col).valid


def test_parity_witness_checks_out():
    space = TreeSpace(2, 4)
    col = level_parity_coloring((space,), 1)
    w = sdhl_search(col)
    assert w == SDHLWitness(base=("",), matrix=(("0", "1"),), color=1)
    assert w.density_level == 1
    assert check_sdhl_witness(w, col).valid


def test_witness_mutations_fail_the_checker():
    space = TreeSpace(2, 4)
    col = level_parity_coloring((space,), 1)
    w = sdhl_search(col)
    wrong_color = SDHLWitness(w.base, w.matrix, (w.color + 1) % col.colors)
    res = check_sdhl_witness(wrong_color, col)
    assert not res.valid and any("color" in v for v in res.violations)
    # drop a matrix member: some successor cone loses its dominator
    starved = SDHLWitness(w.base, (w.matrix[0][:1],), w.color)
    res = check_sdhl_witness(starved, col)
    assert not res.valid and any("not dominated" in v for v in res.violations)
    crooked = SDHLWitness(("0",), w.matrix, w.color)
    assert check_sdhl_witness(crooked, col).valid is False


def test_witness_json_round_trip():
    w = SDHLWitness(base=("0", "1"), matrix=(("00", "01"), ("10", "11")), color=2)
    assert SDHLWitness.from_json(w.to_json()) == w


def test_search_agrees_with_scan_oracle_on_all_unary_colorings():
    # every 2-coloring of the seven nodes of the height-3 binary truncation
    space = TreeSpace(2, 3)
    nodes = all_nodes(3)
    for assignment in itertools.product(range(2), repeat=len(nodes)):
        table = {(n,): c for n, c in zip(nodes, assignment)}
        col = table_coloring((space,), 1, 2, table)
        w = sdhl_search(col)
        expected = sdhl_exists_by_scan(col.evaluate, 1, 3, 2)
        assert (w is not None) == expected, assignment
        if w is not None:
            assert check_sdhl_witness(w, col).valid, assignment


def test_budget_exhaustion_raises_cap_error():
    space = TreeSpace(2, 4)
    col = random_table_coloring((space, space), 2, 3, seed=1)
    with pytest.raises(CapExceededError):
        sdhl_search(col, caps=Caps(max_steps=3))


# ---------------------------------------------------------------------------
# dense sets and free-level witnesses


def test_dense_set_search_on_parity():
    space = TreeSpace(2, 4)
    col = level_parity_coloring((space,), 1)
    assert dshl_search(col) == (("",), 1)
    res = check_dshl_witness(("",), 1, col)
    assert res.valid and res.asym_ok
    # color 0 at the root dies at the odd top level
    assert not check_dshl_witness(("",), 0, col).valid


def test_dense_set_search_spends_one_budget():
    # Before, every (base, color) check made its own budget: a cap of 4219
    # spent 12,659 steps over 66 checks and still returned the answer.
    col = seeded_hash_coloring((TreeSpace(2, 5),) * 2, 2, 3, seed=0, domain="level")
    assert dshl_search(col) == (("000", "000"), 2)
    assert dshl_search(col, caps=Caps(max_steps=8325)) == (("000", "000"), 2)
    with pytest.raises(CapExceededError):
        dshl_search(col, caps=Caps(max_steps=4219))


def test_dense_set_asymmetry_flag():
    space = TreeSpace(2, 5)
    col = level_parity_coloring((space,), 1)
    assert check_dshl_witness(("",), 0, col).valid
    off_root = check_dshl_witness(("0",), 0, col)
    assert not off_root.asym_ok  # color 0 witnesses belong at the roots


def test_free_level_witness_on_parity():
    space = TreeSpace(2, 3)
    col = level_parity_coloring((space,), 1)
    w = sdhl_prime_search(col)
    assert w is not None and (w.density_level, w.color) == (1, 1)
    assert check_somewhere_dense_witness(w, col).valid


def test_free_level_witness_may_mix_levels():
    space = TreeSpace(2, 4)
    col = seeded_hash_coloring((space,), 1, 3, seed=2)
    w = sdhl_prime_search(col)
    assert w is not None
    assert check_somewhere_dense_witness(w, col).valid


def test_free_level_checker_rejects_bad_levels():
    space = TreeSpace(2, 4)
    col = constant_coloring((space,), 1, 2)
    low = SomewhereDenseWitness(("0",), (("00", "01"),), density_level=1, color=0)
    assert not check_somewhere_dense_witness(low, col).valid
    outside = SomewhereDenseWitness(("",), (("0", "1"),), density_level=9, color=0)
    assert not check_somewhere_dense_witness(outside, col).valid
    hollow = SomewhereDenseWitness(("",), ((),), density_level=1, color=0)
    assert not check_somewhere_dense_witness(hollow, col).valid


def test_hl_strong_subtree_check():
    space = TreeSpace(2, 3)
    col = constant_coloring((space, space), 2, 2)
    reports = (SubtreeReport(space, space.all_nodes(), (0, 1, 2)),) * 2
    assert check_hl_strong_subtree(reports, col).valid
    res = check_hl_strong_subtree(reports, level_parity_coloring((space, space), 2))
    assert not res.valid
    with pytest.raises(InvalidInputError):
        check_hl_strong_subtree(reports[:1], col)
    skewed = (reports[0], SubtreeReport(space, ("0", "00", "01"), (1, 2)))
    with pytest.raises(InvalidInputError):
        check_hl_strong_subtree(skewed, col)


# ---------------------------------------------------------------------------
# least truncation heights


def test_least_height_trivial_cases():
    assert finite_hl_number(1, 2, 1).value == 2
    assert finite_hl_number(2, 2, 1).value == 2


def test_least_height_one_dimension_two_colors():
    report = finite_hl_number(1, 2, 2)
    assert report.value == 3
    assert report.lower_bound == 2
    assert report.counterexample_height == 2
    assert report.counterexample is not None


def test_emitted_counterexample_is_witness_free():
    report = finite_hl_number(1, 2, 2)
    space = TreeSpace(2, report.counterexample_height)
    col = coloring_from_json(report.counterexample, (space,))
    # machine check with the independent scan, not the library search
    assert not sdhl_exists_by_scan(col.evaluate, 1, report.counterexample_height, 2)


def test_least_height_randomized_mode():
    report = finite_hl_number(1, 2, 2, mode="randomized", samples=50, seed=3,
                              max_height=3)
    assert report.value is None
    assert report.lower_bound == 2
    assert report.counterexample_height == 2
    assert (report.samples, report.seed) == (50, 3)
    assert report.note


def test_least_height_bad_parameters():
    with pytest.raises(InvalidInputError):
        finite_hl_number(0, 2, 2)
    with pytest.raises(InvalidInputError):
        finite_hl_number(1, 2, 2, mode="guess")
    for samples in (0, -5):
        with pytest.raises(InvalidInputError):
            finite_hl_number(1, 2, 2, mode="randomized", samples=samples)
    for mode in ("exhaustive", "randomized"):
        with pytest.raises(InvalidInputError):
            finite_hl_number(1, 2, 2, mode=mode, max_height=1)
        with pytest.raises(InvalidInputError):
            finite_hl_number(1, 2, 2, mode=mode, budget=-1)


def test_least_height_budget_cap_carries_partial():
    with pytest.raises(CapExceededError) as info:
        finite_hl_number(1, 2, 2, budget=10)
    assert info.value.cap == 10
    assert info.value.partial.lower_bound == 2


def test_report_json_shape():
    doc = finite_hl_number(1, 2, 1).to_json()
    assert doc["n"] == 2 and doc["counterexample_at"] is None
    assert set(doc) >= {"d", "b", "r", "mode", "lower_bound", "colorings_checked"}


# ---------------------------------------------------------------------------
# oracle-guided monochromatic subtrees


def test_build_on_even_height_parity():
    space = TreeSpace(2, 7)
    out = build_monochromatic_subtree(level_parity_coloring((space,), 1))
    assert out.success and out.color == 0
    assert out.report.level_set == (0, 2, 4, 6)
    col = level_parity_coloring((space,), 1)
    assert all(col((n,)) == 0 for n in out.report.nodes)


def test_build_flips_color_when_zero_dies():
    space = TreeSpace(2, 6)
    out = build_monochromatic_subtree(level_parity_coloring((space,), 1))
    assert out.success and out.color == 1
    assert out.report.level_set == (1, 3, 5)


def test_build_on_antichain_split():
    space = TreeSpace(2, 6)
    out = build_monochromatic_subtree(antichain_split_coloring(space))
    assert out.success and out.color == 1
    assert out.report.nodes[0] == "1"
    assert out.report.level_set == (1, 2, 3, 4, 5)


def test_build_reports_missing_region():
    space = TreeSpace(2, 4)

    class Shallow:
        def is_large(self, space, coloring, node, color):
            return len(node) <= 1

        def select_level(self, space, coloring, nodes, color, min_level):
            return min_level

    out = build_monochromatic_subtree(constant_coloring((space,), 1, 2),
                                      oracle=Shallow())
    assert not out.success and out.failure


def test_lying_oracle_is_contradicted():
    space = TreeSpace(2, 4)

    class Liar:
        def is_large(self, space, coloring, node, color):
            return color == 1  # color 1 never appears below

        def select_level(self, space, coloring, nodes, color, min_level):
            return min_level

    with pytest.raises(OracleContradictionError):
        build_monochromatic_subtree(constant_coloring((space,), 1, 2),
                                    oracle=Liar())


def test_build_rejects_higher_arity():
    space = TreeSpace(2, 3)
    with pytest.raises(InvalidInputError):
        build_monochromatic_subtree(constant_coloring((space, space), 2, 2))
