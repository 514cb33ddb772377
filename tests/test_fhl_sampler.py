"""The finite-HL inner loop against the per-coloring loop it replaced.

``_color_sampler`` must draw exactly the colors, and leave the generator
in exactly the state, of one ``randrange`` call per cell.  The bit-sliced
``_first_without_witness`` must name the first coloring of a batch that
the old ``has_witness`` rejects, and the two scans built on it must
check, return and leave behind exactly what the old per-coloring loops
did.  Together they must leave every ``finite_hl_number`` report
unchanged, which is checked against runs with the old loop (kept in
``oracles``) swapped in.
"""

import itertools
import json
import random

import pytest

import oracles
from hl_lab import witness
from hl_lab.errors import CapExceededError, InvalidInputError
from hl_lab.trees import TreeSpace
from hl_lab.witness import (
    _batch_planes,
    _color_sampler,
    _exhaustive_scan,
    _first_without_witness,
    _randomized_scan,
    _witness_group_count,
    _witness_groups,
    coloring_from_json,
    finite_hl_number,
)


@pytest.mark.parametrize("r", [1, 2, 3, 7, 255, 256, 257])
@pytest.mark.parametrize("seed", [0, 1, 12345])
def test_sampler_draws_the_randrange_stream(r, seed):
    old, new = random.Random(seed), random.Random(seed)
    draw = _color_sampler(new, r)
    for size in (1, 2, 3, 20, 84, 1, 300, 5):
        assert tuple(draw(size)) == oracles.sample_colors(old, r, size)
        assert new.getstate() == old.getstate()
    assert new.random() == old.random()


def test_sampler_falls_back_to_randrange_above_one_byte():
    assert isinstance(_color_sampler(random.Random(0), 255)(4), bytes)
    assert isinstance(_color_sampler(random.Random(0), 256)(4), tuple)


# ---------------------------------------------------------------------------
# the bit-sliced batch test


def _encode(colorings):
    """Planes built cell by cell and bit by bit, independently of the library."""
    k = max(1, max((c for col in colorings for c in col), default=0).bit_length())
    size = len(colorings[0])
    return tuple(tuple(sum((col[i] >> j & 1) << s for s, col in enumerate(colorings))
                       for i in range(size))
                 for j in range(k))


def _old_first(groups, colorings):
    return next((s for s, colors in enumerate(colorings)
                 if not oracles.has_witness(groups, colors)), None)


def _decode(planes, count):
    """The ``count`` colorings a batch of planes holds, in batch order."""
    return [tuple(sum((plane[i] >> s & 1) << j for j, plane in enumerate(planes))
                  for i in range(len(planes[0])))
            for s in range(count)]


def _decoding_first(groups):
    """The batch test's contract served by the old per-coloring loop."""
    def first(planes, count):
        return _old_first(groups, _decode(planes, count))
    return first


def _stopping_first(hit, seen):
    """A batch test that records every coloring and rejects number ``hit``."""
    def first(planes, count):
        start = len(seen)
        seen.extend(_decode(planes, count))
        return hit - start if start <= hit < len(seen) else None
    return first


@pytest.mark.parametrize("d,b,n", [(1, 2, 3), (1, 3, 3), (2, 2, 3), (2, 2, 4)])
def test_group_test_matches_old_on_random_colorings(d, b, n):
    domain, groups = _witness_groups(d, b, n)
    first = _first_without_witness(groups)
    rng = random.Random(d * 100 + b * 10 + n)
    for r in (1, 2, 3, 256):
        draw = _color_sampler(rng, r)
        for count in (1, 1, 2, 7, 40, 300):
            batch = draw(len(domain) * count)
            colorings = [batch[s * len(domain):(s + 1) * len(domain)]
                         for s in range(count)]
            want = _old_first(groups, colorings)
            assert first(_encode(colorings), count) == want
            k = max(1, (r - 1).bit_length())
            assert first(_batch_planes(batch, len(domain), k), count) == want


@pytest.mark.parametrize("d,b,n,r", [(1, 3, 2, 2), (1, 4, 2, 3), (2, 2, 2, 3)])
def test_group_test_matches_old_on_every_coloring(d, b, n, r):
    domain, groups = _witness_groups(d, b, n)
    first = _first_without_witness(groups)
    colorings = list(itertools.product(range(r), repeat=len(domain)))
    verdicts = set()
    for colors in colorings:
        want = oracles.has_witness(groups, colors)
        assert (first(_encode([colors]), 1) is None) == want
        verdicts.add(want)
    assert verdicts == {True, False}
    for start in range(0, len(colorings), 13):
        chunk = colorings[start:start + 13]
        assert first(_encode(chunk), len(chunk)) == _old_first(groups, chunk)


def _witness_split(d, b, n, r, seed):
    """Some colorings with a witness and some without, by the old test."""
    domain, groups = _witness_groups(d, b, n)
    draw = _color_sampler(random.Random(seed), r)
    have, free = [], []
    while len(have) < 64 or len(free) < 4:
        colors = tuple(draw(len(domain)))
        (have if oracles.has_witness(groups, colors) else free).append(colors)
    return groups, have, free


@pytest.mark.parametrize("count", [1, 2, 3, 31, 64, 65])
def test_counterexample_is_found_wherever_it_sits(count):
    groups, have, free = _witness_split(2, 2, 3, 2, seed=count)
    first = _first_without_witness(groups)
    filler = (have * 2)[:count]
    assert first(_encode(filler), count) is None
    for at in sorted({0, count // 2, count - 1}):
        batch = filler[:at] + [free[0]] + filler[at + 1:]
        assert first(_encode(batch), count) == at
        # a later counterexample never hides an earlier one
        batch[count - 1:] = [free[1]]
        assert first(_encode(batch), count) == at


# ---------------------------------------------------------------------------
# the two scans


def _old_randomized_scan(groups, rng, r, size, samples):
    for checked in range(1, samples + 1):
        colors = oracles.sample_colors(rng, r, size)
        if not oracles.has_witness(groups, colors):
            return checked, colors
    return samples, None


@pytest.mark.parametrize("cells", [6, 12, 18, 60, 1 << 16])
@pytest.mark.parametrize("d,b,n,r", [(1, 2, 3, 4), (2, 2, 3, 2), (2, 2, 3, 3),
                                     (1, 3, 3, 3)])
def test_randomized_scan_matches_the_per_sample_loop(monkeypatch, cells, d, b, n, r):
    monkeypatch.setattr(witness, "_BATCH_CELLS", cells)
    domain, groups = _witness_groups(d, b, n)
    size, count = len(domain), max(1, cells // len(domain))
    first = _first_without_witness(groups)
    later = set()
    for seed in range(40):
        old, new = random.Random(seed), random.Random(seed)
        samples = 1 + seed % 25
        want = _old_randomized_scan(groups, old, r, size, samples)
        got = _randomized_scan(first, new, size, samples, r)
        assert (got[0], tuple(got[1] or ())) == (want[0], tuple(want[1] or ()))
        assert new.getstate() == old.getstate()
        if want[1] is not None:
            later.add(want[0] > count)
    # hits in the first batch and, when batches are short, in later ones
    assert False in later
    if count <= 3:
        assert True in later


@pytest.mark.parametrize("cells", [1, 7, 40, 1 << 16])
@pytest.mark.parametrize("d,b,n,r", [(1, 2, 3, 2), (1, 2, 3, 3), (2, 2, 2, 3),
                                     (1, 3, 2, 4), (1, 2, 2, 257)])
def test_exhaustive_scan_matches_the_product_loop(monkeypatch, cells, d, b, n, r):
    monkeypatch.setattr(witness, "_BATCH_CELLS", cells)
    domain, groups = _witness_groups(d, b, n)
    want = (r ** len(domain), None)
    for checked, colors in enumerate(
            itertools.product(range(r), repeat=len(domain)), 1):
        if not oracles.has_witness(groups, colors):
            want = (checked, colors)
            break
    got = _exhaustive_scan(_first_without_witness(groups), len(domain), r)
    assert got == want


# six cells: 10 colorings to a 60-cell batch; the hits sit first, in the
# middle and last in a batch, and in later batches
@pytest.mark.parametrize("hit", [0, 4, 9, 10, 11, 29])
@pytest.mark.parametrize("r", [3, 257])
def test_randomized_scan_rewinds_to_a_hit_anywhere(monkeypatch, hit, r):
    monkeypatch.setattr(witness, "_BATCH_CELLS", 60)
    seen = []
    rng, old = random.Random(hit), random.Random(hit)
    got = _randomized_scan(_stopping_first(hit, seen), rng, 6, 30, r)
    stream = [oracles.sample_colors(old, r, 6) for _ in range(hit + 1)]
    assert seen[:hit + 1] == stream
    assert (got[0], tuple(got[1])) == (hit + 1, stream[-1])
    assert rng.getstate() == old.getstate()


# a block of 9 colorings (4 cells, 3 colors) and of 257 (2 cells, 257
# colors, whose columns are tuples); hits first, in the middle and last in
# a block, and in later blocks
@pytest.mark.parametrize("r,size,cells,count", [(3, 4, 40, 9), (257, 2, 600, 257)])
def test_exhaustive_blocks_hold_the_product_order(monkeypatch, r, size, cells, count):
    monkeypatch.setattr(witness, "_BATCH_CELLS", cells)
    product = list(itertools.product(range(r), repeat=size))
    for hit in (0, count // 2, count - 1, count, 3 * count + 1, len(product) - 1):
        seen = []
        got = _exhaustive_scan(_stopping_first(hit, seen), size, r)
        assert got == (hit + 1, product[hit])
        assert seen == product[:len(seen)] and len(seen) > hit
    seen = []
    assert _exhaustive_scan(_stopping_first(-1, seen), size, r) == (len(product), None)
    assert seen == product


def _report(*args, **kwargs):
    try:
        return finite_hl_number(*args, **kwargs).to_json()
    except CapExceededError as capped:
        return ("capped", str(capped), capped.partial.to_json())


def _report_with_old_loop(monkeypatch, *args, **kwargs):
    with monkeypatch.context() as patch:
        patch.setattr(witness, "_color_sampler",
                      lambda rng, r: lambda size: oracles.sample_colors(rng, r, size))
        patch.setattr(witness, "_first_without_witness", _decoding_first)
        return _report(*args, **kwargs)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("seed", [0, 3, 8])
def test_randomized_report_matches_old_loop(monkeypatch, d, r, seed):
    kwargs = dict(mode="randomized", samples=200, seed=seed, max_height=4)
    got = finite_hl_number(d, 2, r, **kwargs).to_json()
    assert got == _report_with_old_loop(monkeypatch, d, 2, r, **kwargs)


@pytest.mark.parametrize("r", [256, 257])
@pytest.mark.parametrize("seed", [0, 5])
def test_randomized_report_matches_old_loop_above_one_byte(monkeypatch, r, seed):
    kwargs = dict(mode="randomized", samples=300, seed=seed, max_height=4)
    got = finite_hl_number(2, 2, r, **kwargs).to_json()
    assert got == _report_with_old_loop(monkeypatch, 2, 2, r, **kwargs)
    assert got["counterexample_at"] == 4


# at height 3 of the binary tree every 2-coloring has a witness, so the
# scan there runs through all samples: one short of, exactly, and one past
# whole batches of 65536 // 6 colorings
@pytest.mark.parametrize("samples", [10921, 10922, 10923, 21845])
def test_randomized_report_straddles_the_batch_cap(monkeypatch, samples):
    kwargs = dict(mode="randomized", samples=samples, seed=samples, max_height=3)
    got = finite_hl_number(1, 2, 2, **kwargs).to_json()
    assert got == _report_with_old_loop(monkeypatch, 1, 2, 2, **kwargs)
    assert got["colorings_checked"] > samples


@pytest.mark.parametrize("b,r", [(2, 1), (2, 2), (2, 3), (3, 2)])
def test_exhaustive_report_matches_old_loop(monkeypatch, b, r):
    got = finite_hl_number(1, b, r).to_json()
    assert got == _report_with_old_loop(monkeypatch, 1, b, r)
    assert got["n"] is not None


def test_exhaustive_report_matches_old_loop_at_256_colors(monkeypatch):
    # height 2 enumerates all 256**2 colorings of two cells; height 3 is refused
    got = _report(1, 2, 256, budget=70000)
    assert got == _report_with_old_loop(monkeypatch, 1, 2, 256, budget=70000)
    assert got[2]["lower_bound"] == 2 and got[2]["colorings_checked"] == 2


# ---------------------------------------------------------------------------
# size checks before the groups are built


@pytest.mark.parametrize("d,b,n", [(1, 2, 3), (1, 3, 3), (2, 2, 3), (2, 2, 4),
                                   (2, 2, 5), (1, 4, 4), (1, 2, 6), (3, 2, 3)])
def test_group_count_has_a_closed_form(d, b, n):
    assert _witness_group_count(d, b, n) == len(_witness_groups(d, b, n)[1])


def _heights_under_the_member_bound(d, b):
    n = 2
    while _witness_group_count(d, b, n) * b ** d <= witness._MAX_GROUP_MEMBERS:
        yield n
        n += 1


@pytest.mark.parametrize("d,b,n", [(d, b, n) for d in (1, 2, 3) for b in (2, 3)
                                   for n in _heights_under_the_member_bound(d, b)])
def test_groups_are_the_per_cone_groups(d, b, n):
    domain, groups = _witness_groups(d, b, n)
    old_domain, old_groups = oracles._witness_groups(d, b, n)
    assert domain == old_domain
    assert sorted(groups) == sorted(old_groups)
    assert len(groups) == _witness_group_count(d, b, n)


@pytest.mark.parametrize("d,b,n", [(d, b, n) for d in (1, 2, 3) for b in (2, 3)
                                   for n in _heights_under_the_member_bound(d, b)])
def test_groups_keep_the_order_of_the_report_reading(d, b, n):
    # the layer generator lists the groups the reports did, in their order
    assert _witness_groups(d, b, n) == oracles._witness_groups_from_reports(d, b, n)


def _refuse_building(d, b, n):
    raise AssertionError(f"groups built at height {n}")


def _refuse_drawing(rng, r):
    raise AssertionError("colorings drawn")


def test_height_over_the_member_bound_is_refused_with_the_partial(monkeypatch):
    # d=2, b=2: 84 members at height 3, 1428 at height 4
    monkeypatch.setattr(witness, "_MAX_GROUP_MEMBERS", 1000)
    with pytest.raises(CapExceededError) as info:
        finite_hl_number(2, 2, 2, mode="randomized", samples=50, seed=1)
    assert info.value.cap == 1000
    assert "1428 witness group members at height 4" in str(info.value)
    partial = info.value.partial
    assert (partial.lower_bound, partial.counterexample_height) == (3, 3)
    assert partial.note == "randomized scan stopped before height 4"
    # the refused height's groups are never built
    built = []
    monkeypatch.setattr(witness, "_witness_groups",
                        lambda d, b, n: built.append(n) or _witness_groups(d, b, n))
    with pytest.raises(CapExceededError):
        finite_hl_number(2, 2, 2, mode="randomized", samples=50, seed=1)
    assert built == [2, 3]


def test_randomized_budget_refuses_a_height_before_drawing(monkeypatch):
    monkeypatch.setattr(witness, "_witness_groups", _refuse_building)
    monkeypatch.setattr(witness, "_color_sampler", _refuse_drawing)
    with pytest.raises(CapExceededError) as info:
        finite_hl_number(17, 2, 2, mode="randomized", samples=50, budget=0)
    assert info.value.cap == 0
    assert str(info.value) == "50 colorings at height 2 exceed the budget"
    partial = info.value.partial
    assert (partial.lower_bound, partial.colorings_checked) == (1, 0)
    assert partial.counterexample is None
    assert partial.note == "randomized scan stopped before height 2"


def test_randomized_budget_admits_as_many_samples():
    capped = finite_hl_number(1, 2, 2, mode="randomized", samples=7, seed=3,
                              max_height=3, budget=7)
    assert capped == finite_hl_number(1, 2, 2, mode="randomized", samples=7,
                                      seed=3, max_height=3)


def test_member_bound_admits_every_tested_height():
    assert _witness_group_count(2, 2, 6) * 4 <= witness._MAX_GROUP_MEMBERS
    assert _witness_group_count(1, 4, 4) * 4 <= witness._MAX_GROUP_MEMBERS
    assert _witness_group_count(2, 2, 7) * 4 > witness._MAX_GROUP_MEMBERS


def test_exhaustive_budget_is_checked_before_the_groups_are_built(monkeypatch):
    monkeypatch.setattr(witness, "_witness_groups", _refuse_building)
    with pytest.raises(CapExceededError) as info:
        finite_hl_number(2, 2, 2, budget=15)
    assert str(info.value) == "16 colorings at height 2 exceed the budget"
    assert info.value.partial.note == "exhaustive scan stopped before height 2"
    # a count too long to print in decimal is shown as a power
    with pytest.raises(CapExceededError) as info:
        finite_hl_number(5, 10, 2)
    assert str(info.value) == "2**100000 colorings at height 2 exceed the budget"


@pytest.mark.parametrize("mode", ["exhaustive", "randomized"])
def test_oversized_tree_is_refused_with_the_partial(mode):
    with pytest.raises(CapExceededError) as info:
        finite_hl_number(2001, 10, 2, mode=mode, samples=5)
    assert str(info.value) == "tree of height 2 outside size budget"
    assert info.value.cap == witness._MAX_TREE_NODES == 200_000
    assert info.value.partial.lower_bound == 1
    assert info.value.partial.note == f"{mode} scan stopped before height 2"


# ---------------------------------------------------------------------------
# random tables drawn through the sampler


@pytest.mark.parametrize("r", [1, 2, 3, 256])
@pytest.mark.parametrize("domain", ["level", "full"])
def test_random_table_draws_the_randrange_stream(r, domain):
    spaces = (TreeSpace(2, 4), TreeSpace(3, 3))
    col = oracles.random_table_coloring(spaces, r, seed=r, domain=domain)
    rng = random.Random(r)
    tuples = list(witness._level_domain(spaces) if domain == "level"
                  else witness._full_domain(spaces))
    table = {tup: col.evaluate(tup) for tup in tuples}
    assert table == {tup: rng.randrange(r) for tup in tuples}
    assert all(type(c) is int for c in table.values())


# ---------------------------------------------------------------------------
# the counterexample document


@pytest.mark.parametrize("r", [1, 2, 3, 256, 257])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_counterexample_table_is_the_old_coloring_document(d, r):
    rng = random.Random(1000 * d + r)
    for b, n in ((2, 2), (2, 3), (3, 2)):
        spaces = [TreeSpace.uniform(b, n)] * d
        domain = _witness_groups(d, b, n)[0]
        for _ in range(3):
            colors = tuple(rng.randrange(r) for _ in domain)
            for assignment in (colors, bytes(colors)) if r <= 256 else (colors,):
                doc = witness._counterexample_table(d, domain, assignment)
                old = oracles._coloring_from_assignment(d, b, n, domain, assignment)
                assert json.dumps(doc) == json.dumps(old.to_json())
                again = coloring_from_json(doc, spaces)
                assert [again.evaluate(t) for t in domain] == list(colors)
                assert again.evaluate(("",) * d) == 0


@pytest.mark.parametrize("colors", [0, -2])
def test_random_table_refuses_an_empty_palette(colors):
    with pytest.raises(InvalidInputError):
        oracles.random_table_coloring((TreeSpace(2, 2),), colors, seed=0)
