"""Degree arithmetic, height-order types, and the round-robin construction."""

import itertools
import random
from fractions import Fraction

import pytest

from hl_lab import polarized
from hl_lab.errors import InvalidInputError, PreconditionError
from hl_lab.polarized import (
    _measure_height_factored,
    _measure_patterns,
    almost_all_homogenize,
    build_degree_table,
    devlin_lower_bound,
    height_permutation_coloring,
    permutation_rank,
    polarized_search,
    tangent,
    validate_splitting_tree,
    verify_lower_bound,
)
from hl_lab.search import StepBudget
from hl_lab.subtrees import SubtreeReport, enumerate_strong_subtrees, trim
from hl_lab.trees import TreeSpace
from hl_lab.witness import (
    Coloring,
    constant_coloring,
    seeded_hash_coloring,
)

import oracles
from oracles import (
    all_nodes,
    alternating_count,
    random_strong_subtree,
    random_table_coloring,
)


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


@pytest.mark.parametrize("heights,rank", [((2, 0, 1), 3), ((1, 1), 0),
                                           ((3, 1, 3), 2)])
def test_height_permutation_colors_by_the_sorting_rank(heights, rank):
    # (2, 0, 1) sorts by (1, 2, 0); equal heights keep coordinate order,
    # so (1, 1) sorts by (0, 1) and (3, 1, 3) by (1, 0, 2)
    space = TreeSpace(2, 4)
    f = height_permutation_coloring((space,) * len(heights))
    assert f.height_fn(heights) == rank
    assert f.evaluate(tuple("0" * h for h in heights)) == rank


def test_height_permutation_coloring_values():
    space = TreeSpace(2, 4)
    f = height_permutation_coloring((space, space))
    assert (f.arity, f.colors) == (2, 2)
    assert f(("0", "11")) == 0
    assert f(("11", "0")) == 1
    assert f(("0", "1")) == 0  # stable tie
    g = height_permutation_coloring((space, space, space))
    assert g.colors == 6
    assert g(("1", "00", "")) == permutation_rank((2, 0, 1))
    with pytest.raises(InvalidInputError, match="dimension must be positive, got 0"):
        height_permutation_coloring((space,))


# ---------------------------------------------------------------------------
# lower-bound verification


def test_full_products_realize_every_type():
    space = TreeSpace(2, 5)
    full = SubtreeReport(space, all_nodes(5), (0, 1, 2, 3, 4))
    report = verify_lower_bound((full, full))
    assert report.realizes_all
    assert report.total_types == 2
    assert report.combos_per_type == {0: 10, 1: 10}


def test_disjoint_level_ranges_miss_a_type():
    space = TreeSpace(2, 4)
    low = next(iter(enumerate_strong_subtrees(space, (0, 1))))
    high = next(iter(enumerate_strong_subtrees(space, (2, 3))))
    report = verify_lower_bound((low, high))
    assert not report.realizes_all
    assert report.missing == (1,)  # no pick ever has the second factor lower


def test_lower_bound_needs_spread_and_arity():
    space = TreeSpace(2, 4)
    single = SubtreeReport(space, ("",), (0,))
    full = SubtreeReport(space, all_nodes(4), (0, 1, 2, 3))
    with pytest.raises(PreconditionError):
        verify_lower_bound((single, full))
    # one factor is dimension 0
    with pytest.raises(InvalidInputError, match="dimension must be positive, got 0"):
        verify_lower_bound((full,))


@pytest.mark.parametrize("d", [0, -1])
def test_lower_bound_needs_a_positive_dimension(d):
    space = TreeSpace(2, 4)
    full = SubtreeReport(space, all_nodes(4), (0, 1, 2, 3))
    with pytest.raises(InvalidInputError, match=f"dimension must be positive, got {d}"):
        verify_lower_bound((full,) * (d + 1))


def _factor_level_sets(rng, kind, d, count):
    """``d + 1`` level sets of ``count`` levels each, related as ``kind`` says."""
    factors = range(d + 1)
    if kind == "shared":
        one = sorted(rng.sample(range(2 * count), count))
        return [one] * (d + 1)
    if kind == "disjoint":
        blocks = rng.sample(factors, d + 1)
        return [[blocks[k] * count + i for i in range(count)] for k in factors]
    if kind == "interleaved":
        offsets = rng.sample(factors, d + 1)
        return [[offsets[k] + (d + 1) * i for i in range(count)] for k in factors]
    if kind == "repeated":  # not a strong subtree, but the product counts it
        return [sorted(rng.choices(range(count), k=count)) for _ in factors]
    return [sorted(rng.sample(range(2 * count), count)) for _ in factors]


def _lower_bound_outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except InvalidInputError as err:
        return ("raised", type(err), str(err))


def _same_lower_bound(reports):
    """The library reads the dimension off the reports; the oracle is told it."""
    got = _lower_bound_outcome(verify_lower_bound, reports)
    assert got == _lower_bound_outcome(oracles.verify_lower_bound, reports,
                                       len(reports) - 1)
    return got


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("kind", ["shared", "disjoint", "interleaved", "random",
                                  "repeated"])
def test_lower_bound_chain_count_matches_the_per_pick_oracle(d, kind):
    rng = random.Random(f"verify-lb:{kind}:{d}")
    space = TreeSpace(2, 2 * (d + 3) * (d + 1))
    outcomes = set()
    for _ in range(12 if d < 4 else 4):
        count = rng.randrange(d + 1, d + 3)
        level_sets = _factor_level_sets(rng, kind, d, count)
        if kind == "repeated":
            reports = [SubtreeReport(space, (), levels) for levels in level_sets]
        else:
            reports = [SubtreeReport(space, random_strong_subtree(rng, levels),
                                     levels) for levels in level_sets]
        outcomes.add(_same_lower_bound(reports)[1].realizes_all)
    if kind in ("shared", "disjoint"):
        assert outcomes == {kind == "shared"}
    # too few levels in one factor, in d + 1 and in d + 2 factors
    short = SubtreeReport(space, random_strong_subtree(rng, range(d)), range(d))
    for bad in (reports[:-1] + [short], reports + [short]):
        assert _same_lower_bound(bad)[0] == "raised"
    # one factor fewer is a product of dimension d - 1, which must be positive
    if d > 1:
        _same_lower_bound(reports[:-1])
    else:
        with pytest.raises(InvalidInputError, match="must be positive, got 0"):
            verify_lower_bound(reports[:-1])


# ---------------------------------------------------------------------------
# almost-all homogenization


def _first_coordinate_parity(spaces):
    return Coloring(2, spaces, lambda tup: len(tup[0]) % 2,
                    domain="full", height_fn=lambda hts: hts[0] % 2)


def test_type_coloring_homogenizes_exactly():
    space = TreeSpace(2, 8)
    rep = almost_all_homogenize(height_permutation_coloring((space, space)))
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
    full = SubtreeReport(space, all_nodes(5), (0, 1, 2, 3, 4))
    even = trim(full, (0, 2, 4))
    rep = almost_all_homogenize(_first_coordinate_parity((even, even)))
    assert rep.success
    assert rep.max_fraction == 0
    assert all(p.color == 0 for p in rep.patterns)


def test_staged_route_on_seeded_coloring():
    space = TreeSpace(2, 8)
    col = seeded_hash_coloring((space, space), 2, seed=42)
    rep = almost_all_homogenize(col)
    assert rep.success and rep.route == "staged"
    assert rep.max_fraction == 0  # staged constructions admit no exceptions
    assert all(r.level_set == (0, 3, 7) for r in rep.reports)


@pytest.mark.parametrize("k,height", [(2, 6), (3, 5)])
def test_staged_route_stops_at_its_cap(k, height):
    # Uncapped, both boxes try every root tuple and color vector without a
    # construction; before the fix a cap of 150 steps spent 1,849 (k=2)
    # and 42,256 (k=3) steps and reported capped false.
    col = seeded_hash_coloring((TreeSpace(2, height),) * k, 2, seed=3)
    budget = StepBudget(150)
    rep = almost_all_homogenize(col, h=3, budget=budget)
    assert rep.capped and not rep.success
    assert rep.failure == "budget exhausted during the staged scan"
    assert budget.used == 151


def test_staged_measurement_spends_a_step_per_product_tuple():
    # the construction ends at used 6,838 on two subtrees of 7 nodes, so
    # measuring its 49 tuples needs a cap of 6,887
    space = TreeSpace(2, 8)
    col = seeded_hash_coloring((space, space), 2, seed=42)
    budget = StepBudget(6_886)
    rep = almost_all_homogenize(col, budget=budget)
    assert rep.capped and not rep.success and rep.reports is None
    assert rep.failure == "budget exhausted while measuring the construction"
    budget = StepBudget(6_887)
    rep = almost_all_homogenize(col, budget=budget)
    assert rep.success and not rep.capped
    assert budget.used == 6_887


def _every_vector_and_skip(col, h, cap):
    """Reports and steps of the exhaustive scan and the library's, at ``cap``."""
    runs = []
    for scan in (oracles.almost_all_every_vector, almost_all_homogenize):
        budget = StepBudget(cap)
        runs.append((scan(col, h=h, budget=budget).to_json(), budget.used))
    return runs


@pytest.mark.parametrize("k,height,h,colors,seed", [
    (2, 6, 3, 2, 0), (2, 6, 3, 2, 3), (2, 6, 4, 2, 1), (2, 7, 3, 2, 1),
    (2, 6, 3, 3, 2), (2, 5, 3, 3, 4), (3, 4, 3, 2, 0), (3, 4, 3, 2, 2),
    (3, 5, 3, 2, 1), (3, 5, 3, 2, 4)])
def test_skipping_refuted_vectors_matches_the_exhaustive_scan(k, height, h, colors,
                                                              seed):
    col = seeded_hash_coloring((TreeSpace(2, height),) * k, colors, seed)
    (want, every_used), (got, used) = _every_vector_and_skip(col, h, 10 ** 7)
    assert got == want and not got["capped"]
    assert used <= every_used
    # Capped: where the exhaustive scan settles, the skip settles alike;
    # where the skip runs out, so does the exhaustive scan.
    for cap in sorted({1, used // 2, used - 1, used, (used + every_used) // 2}):
        (want_at, every_at), (got_at, used_at) = _every_vector_and_skip(
            col, h, max(cap, 1))
        assert used_at <= every_at
        if not want_at["capped"]:
            assert got_at == want_at
        if got_at["capped"]:
            assert want_at["capped"] and got_at["reports"] is None
        else:
            assert got_at == want


@pytest.mark.parametrize("k,height,h,colors,seed", [
    (2, 6, 3, 2, 0), (2, 6, 3, 3, 2), (3, 4, 3, 2, 0)])
def test_a_failure_recurs_on_every_vector_agreeing_on_the_pins_it_read(
        monkeypatch, k, height, h, colors, seed):
    # Each failed attempt, rerun with every pin it did not read changed,
    # must fail alike, at the same steps: its nogood refutes that vector.
    col = seeded_hash_coloring((TreeSpace(2, height),) * k, colors, seed)
    perms = list(itertools.permutations(range(k)))
    attempts, failed = [], []
    grow, walk = polarized.grow_shared_subtrees, polarized._unrefuted

    def logged_grow(views, roots, h_goal, *args, **kwargs):
        attempts.append((h_goal, roots))
        return grow(views, roots, h_goal, *args, **kwargs)

    def logged_walk(n, r, nogoods):
        for vec in walk(n, r, nogoods):
            yield vec
            # the attempt on vec failed: its nogood is the newest
            failed.append((attempts[-1], vec, dict(nogoods[-1])))

    monkeypatch.setattr(polarized, "grow_shared_subtrees", logged_grow)
    monkeypatch.setattr(polarized, "_unrefuted", logged_walk)
    almost_all_homogenize(col, h=h)
    assert any(len(read) < len(perms) for _, _, read in failed)
    for (h_goal, roots), vec, read in failed:
        changed = [read.get(i, (color + 1) % colors) for i, color in enumerate(vec)]
        runs = []
        for each in (vec, changed):
            budget = StepBudget(10 ** 7)
            outcome = oracles.almost_all_attempt(col, h_goal, roots,
                                                 dict(zip(perms, each)), budget)
            runs.append((outcome, budget.used))
        assert runs[0] == runs[1] and not runs[0][0].success


def test_a_four_factor_box_settles_within_a_fixed_cap():
    # 2 ** 24 color vectors per root tuple: the exhaustive scan tries them
    # all, while the nogoods settle the box in 34 attempts
    col = seeded_hash_coloring((TreeSpace(2, 5),) * 4, 2, 1)
    budget = StepBudget(1_000)
    rep = almost_all_homogenize(col, h=4, budget=budget)
    assert not rep.capped and not rep.success
    assert rep.failure == "no root tuple and color vector admits the construction"
    assert budget.used == 854


def _measured_reports(rng, space, k, kind):
    if kind == "single":  # one shared level: no pick has distinct heights
        level = rng.randrange(space.height)
        level_sets = [(level,)] * k
    elif kind == "shared":
        level_sets = [tuple(sorted(rng.sample(range(space.height), 3)))] * k
    else:
        level_sets = [tuple(sorted(rng.sample(range(space.height), 3)))
                      for _ in range(k)]
    return [SubtreeReport(space, random_strong_subtree(rng, levels), levels)
            for levels in level_sets]


def _height_hash_coloring(spaces, k, colors):
    def weigh(hts):
        return sum(h * (i + 3) for i, h in enumerate(hts)) % colors

    return Coloring(colors, spaces, lambda tup: weigh([len(x) for x in tup]),
                    domain="full", height_fn=weigh)


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("kind", ["shared", "random", "single"])
def test_measurements_match_the_per_pattern_oracle(k, kind):
    rng = random.Random(f"measure:{k}:{kind}")
    space = TreeSpace(2, 6)
    spaces = (space,) * k
    perms = list(itertools.permutations(range(k)))
    colorings = [seeded_hash_coloring(spaces, 3, seed=7),
                 height_permutation_coloring(spaces),
                 constant_coloring(spaces, 3, value=2),
                 _height_hash_coloring(spaces, k, 3)]
    for _ in range(3 if k < 4 else 1):
        reports = _measured_reports(rng, space, k, kind)
        for f in colorings:
            pinned = {p: rng.randrange(f.colors) for p in perms}
            unpinned = {p: c for p, c in pinned.items() if rng.random() < 0.5}
            for gamma in (pinned, unpinned, {}):
                got = _measure_patterns(f, reports, gamma)
                assert got == tuple(oracles._measure_patterns(f, reports, gamma))
                assert [p.pattern for p in got] == perms
                if kind == "single":
                    assert all(p.total == 0 for p in got)
            if f.height_fn is not None:
                got = _measure_height_factored(f, reports)
                assert got == tuple(oracles._measure_height_factored(f, reports))


def test_a_failing_coloring_stops_measuring_at_its_first_pick_in_product_order():
    # The picks are walked once, in product order, so ("0", "") fails
    # first.  The per-pattern walk finished type (0, 1) before it started
    # on (1, 0), and failed at ("0", "00").
    space = TreeSpace(2, 3)
    full = SubtreeReport(space, all_nodes(3), (0, 1, 2))

    def fn(tup):
        if tup[0]:
            raise ValueError(tup)
        return 0

    f = Coloring(2, (space, space), fn, domain="full")
    gamma = {(0, 1): 0, (1, 0): 0}
    with pytest.raises(ValueError) as info:
        _measure_patterns(f, (full, full), gamma)
    assert info.value.args == (("0", ""),)
    with pytest.raises(ValueError) as info:
        oracles._measure_patterns(f, (full, full), gamma)
    assert info.value.args == (("0", "00"),)


def test_homogenize_guards():
    space = TreeSpace(2, 4)
    with pytest.raises(InvalidInputError):
        almost_all_homogenize(constant_coloring((space,), 2))
    from hl_lab.witness import level_parity_coloring
    with pytest.raises(InvalidInputError):
        almost_all_homogenize(level_parity_coloring((space, space)))


# ---------------------------------------------------------------------------
# splitting trees and the round-robin search


def test_type_coloring_realizes_two_colors_depth_three():
    space = TreeSpace(2, 8)
    out = polarized_search(height_permutation_coloring((space, space)),
                           depth=3)
    assert out.success
    assert out.realized == (0, 1)
    assert [r.level_set for r in out.reports] == [(0, 2, 4, 6), (1, 3, 5, 7)]
    for report in out.reports:
        assert validate_splitting_tree(report, 3).valid


def test_type_coloring_dimension_two_realizes_six():
    space = TreeSpace(2, 13)
    out = polarized_search(height_permutation_coloring((space,) * 3), depth=3)
    assert out.success
    assert out.realized == (0, 1, 2, 3, 4, 5)


def test_constant_coloring_realizes_one():
    space = TreeSpace(2, 8)
    out = polarized_search(constant_coloring((space, space), 3, value=2),
                           depth=3)
    assert out.success and out.realized == (2,)


def test_random_box_stays_within_factorial_bound():
    space = TreeSpace(2, 10)
    for seed in range(10):
        col = random_table_coloring((space, space), 3, seed=seed,
                                    domain="full")
        out = polarized_search(col, depth=1)
        assert out.success, seed
        assert len(out.realized) <= 2, seed
        for report in out.reports:
            assert validate_splitting_tree(report, 1).valid


@pytest.mark.parametrize("make,depth", [
    (lambda: height_permutation_coloring((TreeSpace(2, 8),) * 2), 3),
    (lambda: height_permutation_coloring((TreeSpace(2, 10),) * 3), 2),
    (lambda: seeded_hash_coloring((TreeSpace(2, 7),) * 2, 3, 1, domain="full"), 1),
    (lambda: seeded_hash_coloring((TreeSpace(2, 11),) * 3, 2, 0, domain="full"), 1),
    (lambda: random_table_coloring((TreeSpace(2, 7),) * 2, 3, seed=0,
                                   domain="full"), 1),
], ids=["type-k2", "type-k3", "hash-k2", "hash-k3", "table-k2"])
def test_every_product_tuple_wears_its_types_pinned_color(make, depth):
    f = make()
    out = polarized_search(f, depth=depth)
    assert out.success
    worn = set()
    for tup in itertools.product(*(report.nodes for report in out.reports)):
        heights = [len(node) for node in tup]
        assert len(set(heights)) == f.arity  # bands never tie across trees
        pattern = tuple(sorted(range(f.arity), key=heights.__getitem__))
        assert f.evaluate(tup) == out.gamma[pattern], tup
        worn.add(pattern)
    # every pinned type is some tuple's
    assert worn == set(out.gamma)


def test_search_emits_band_transcript():
    space = TreeSpace(2, 8)
    transcript: list = []
    out = polarized_search(height_permutation_coloring((space, space)),
                           depth=1, transcript=transcript)
    assert out.success
    bands = [e for e in transcript if e.get("event") == "polarized-band"]
    assert len(bands) == 4  # (depth + 1) bands per factor
    assert {"round", "tree", "view_level", "nodes"} <= set(bands[0])


def test_outcome_json_shape():
    space = TreeSpace(2, 8)
    out = polarized_search(height_permutation_coloring((space, space)),
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
