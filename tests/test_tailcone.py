"""Tail-cone fusion, partial determining laws, and dimension raising."""

import itertools
import random
import sys
from collections import Counter

import pytest

from hl_lab import tailcone
from hl_lab.errors import InvalidInputError
from hl_lab.search import StepBudget, cross_consistent, prefiltered_assignment
from hl_lab.subtrees import SubtreeReport
from hl_lab.tailcone import (
    ColoringFamily,
    TailConeCertificate,
    apply_tailcone_partial,
    check_partial_tailcone,
    check_tail_cone,
    dimension_induction,
    fuse,
    grow_shared_subtrees,
    hl_search,
)
from hl_lab.trees import TreeSpace
from hl_lab.witness import (
    Coloring,
    check_hl_strong_subtree,
    check_somewhere_dense_witness,
    constant_coloring,
    expr_coloring,
    level_parity_coloring,
    seeded_hash_coloring,
    table_coloring,
)

import oracles


def _parity_family(space):
    return ColoringFamily([level_parity_coloring((space, space), 2),
                           level_parity_coloring((space, space), 3)])


# ---------------------------------------------------------------------------
# the staged growth engine


@pytest.mark.parametrize("roots, error", [
    (("",), "need one root per tree: 2 trees, 1 roots"),
    (("", "0"), "roots must sit at one common view level")])
def test_the_engine_refuses_roots_it_cannot_share_levels_from(roots, error):
    stages = []
    with pytest.raises(InvalidInputError, match=f"^{error}$"):
        grow_shared_subtrees((TreeSpace(2, 4),) * 2, roots, 2,
                             lambda *args: stages.append(args), StepBudget(10),
                             label="t")
    assert stages == []


# ---------------------------------------------------------------------------
# fusion


def test_fuse_empty_family_grows_canonically():
    space = TreeSpace(2, 4)
    out = fuse(ColoringFamily([], spaces=(space, space)), h=4)
    assert out.success
    assert out.certificate.tables == ()
    for report in out.certificate.reports:
        assert report.level_set == (0, 1, 2, 3)


def test_fuse_parity_pair_worked_example():
    # stage 2 must keep the mod-2 table at level 1, forcing an odd level
    space = TreeSpace(2, 4)
    family = _parity_family(space)
    out = fuse(family, h=3)
    assert out.success
    cert = out.certificate
    assert cert.reports[0].level_set == (0, 1, 3)
    assert all(v == 1 for v in cert.tables[0].values())
    assert all(v == 0 for v in cert.tables[1].values())  # 3 mod 3
    assert check_tail_cone(cert, family).valid


def test_fuse_parameter_guards():
    space = TreeSpace(2, 4)
    family = _parity_family(space)
    with pytest.raises(InvalidInputError):
        fuse(family, h=2)  # two colorings need three levels
    with pytest.raises(InvalidInputError):
        fuse(family, h=9)
    with pytest.raises(InvalidInputError):
        ColoringFamily(family.members, spaces=(space,))
    with pytest.raises(InvalidInputError):
        ColoringFamily([], spaces=())


def test_certificate_json_round_trip():
    space = TreeSpace(2, 4)
    family = _parity_family(space)
    cert = fuse(family, h=3).certificate
    again = TailConeCertificate.from_json(cert.to_json(), (space, space))
    assert again.tables == cert.tables
    assert [r.nodes for r in again.reports] == [r.nodes for r in cert.reports]


def test_tail_cone_check_catches_single_entry_mutations():
    space = TreeSpace(2, 4)
    family = _parity_family(space)
    cert = fuse(family, h=3).certificate

    flipped = [dict(t) for t in cert.tables]
    key = next(iter(flipped[0]))
    flipped[0][key] = (flipped[0][key] + 1) % 2
    res = check_tail_cone(TailConeCertificate(cert.reports, flipped), family)
    assert not res.valid and any("coloring 0" in v for v in res.violations)

    starved = [dict(t) for t in cert.tables]
    del starved[1][next(iter(starved[1]))]
    res = check_tail_cone(TailConeCertificate(cert.reports, starved), family)
    assert not res.valid and any("missing entry" in v for v in res.violations)


def test_tail_cone_check_shape_guards():
    space = TreeSpace(2, 4)
    family = _parity_family(space)
    cert = fuse(family, h=3).certificate
    with pytest.raises(InvalidInputError):
        check_tail_cone(TailConeCertificate(cert.reports[:1], cert.tables), family)
    with pytest.raises(InvalidInputError):
        check_tail_cone(TailConeCertificate(cert.reports, cert.tables[:1]), family)


def test_fuse_seeded_family_box():
    rng = random.Random(20240818)
    capped = 0
    successes = 0
    for trial in range(30):
        d = rng.randrange(1, 3)
        m = rng.randrange(1, 3)
        space = TreeSpace(2, 6)
        spaces = (space,) * d
        members = [seeded_hash_coloring(spaces, rng.randrange(1, 3),
                                        seed=rng.randrange(10 ** 6))
                   for _ in range(m)]
        family = ColoringFamily(members)
        out = fuse(family, h=3, budget=StepBudget(200_000))
        if out.capped:
            capped += 1
            continue
        if not out.success:
            continue
        successes += 1
        assert check_tail_cone(out.certificate, family).valid
        # a single flipped entry must break the law
        tables = [dict(t) for t in out.certificate.tables]
        key = next(iter(tables[-1]))
        tables[-1][key] = tables[-1][key] + 1
        bad = TailConeCertificate(out.certificate.reports, tables)
        assert not check_tail_cone(bad, family).valid
    assert successes > 0
    assert capped + successes <= 30


def _check_outcome(fn, cert, family):
    try:
        return ("ok", fn(cert, family))
    except InvalidInputError as err:
        return ("raised", type(err), str(err))


def _mutated_tables(rng, tables):
    """The tables as built, one entry flipped, one entry dropped, and both."""
    yield tables
    flipped = [dict(t) for t in tables]
    i = rng.randrange(len(flipped))
    key = rng.choice(sorted(flipped[i]))
    flipped[i][key] += 1
    yield flipped
    dropped = [dict(t) for t in tables]
    del dropped[i][rng.choice(sorted(dropped[i]))]
    yield dropped
    del flipped[i][rng.choice(sorted(flipped[i]))]
    yield flipped


def test_tail_cone_check_matches_the_per_tuple_oracle_on_fused_certificates():
    rng = random.Random("tail-cone-oracle")
    checked = 0
    for trial in range(24):
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
        for tables in _mutated_tables(rng, list(cert.tables)):
            mutated = TailConeCertificate(cert.reports, tables)
            got = _check_outcome(check_tail_cone, mutated, family)
            assert got == _check_outcome(oracles.check_tail_cone, mutated, family)
            checked += 1
    assert checked >= 40


def test_tail_cone_check_matches_the_oracle_on_random_tables():
    # strong subtrees on spread levels, tables drawn at random: most
    # entries break the law, so the violation order is compared at length
    rng = random.Random("tail-cone-random")
    space = TreeSpace(2, 9)
    parity = level_parity_coloring((space, space), 2)
    for _ in range(10):
        levels = sorted(rng.sample(range(9), 4))
        reports = [SubtreeReport(space, oracles.random_strong_subtree(rng, levels),
                                 levels) for _ in range(2)]
        family = ColoringFamily([parity, seeded_hash_coloring(
            (space, space), 2, seed=rng.randrange(10 ** 6))])
        tables = [{(x, y): rng.randrange(2) for x in reports[0].level(i + 1)
                   for y in reports[1].level(i + 1)} for i in range(2)]
        cert = TailConeCertificate(tuple(reports), tables)
        got = _check_outcome(check_tail_cone, cert, family)
        assert got[0] == "ok" and not got[1].valid
        assert got == _check_outcome(oracles.check_tail_cone, cert, family)


# ---------------------------------------------------------------------------
# partial determining law


def test_partial_on_constant_is_free():
    space = TreeSpace(2, 4)
    col = constant_coloring((space, space), 2)
    out = apply_tailcone_partial(col, (0,), h=4)
    assert out.success and out.check.valid
    for report in out.reports:
        assert report.level_set == (0, 1, 2, 3)
    assert set(out.table.values()) == {0}


def test_partial_on_seeded_coloring():
    space = TreeSpace(2, 8)
    col = seeded_hash_coloring((space, space), 2, seed=4)
    out = apply_tailcone_partial(col, (0,), h=3)
    assert out.success
    assert out.check.valid
    level_sets = {r.level_set for r in out.reports}
    assert len(level_sets) == 1
    assert check_partial_tailcone(out.reports, col, (0,), out.table).valid
    # single-row mutation breaks the direct scan
    table = dict(out.table)
    key = next(iter(table))
    table[key] = table[key] + 1
    assert not check_partial_tailcone(out.reports, col, (0,), table).valid


def test_partial_parameter_guards():
    space = TreeSpace(2, 5)
    col = seeded_hash_coloring((space, space), 2, seed=0)
    with pytest.raises(InvalidInputError):
        apply_tailcone_partial(col, ())
    with pytest.raises(InvalidInputError):
        apply_tailcone_partial(col, (0, 1))
    with pytest.raises(InvalidInputError):
        apply_tailcone_partial(level_parity_coloring((space, space)), (0,))


@pytest.mark.parametrize("heights,h", [((4, 4), 9), ((4, 4), 5), ((6, 4), 5)])
def test_partial_refuses_a_height_goal_above_the_lowest_tree(heights, h):
    # once an outcome "partial: truncation exhausted before stage 1", which
    # dim-induct reported as a failed construction
    col = seeded_hash_coloring(tuple(TreeSpace(2, t) for t in heights), 2, seed=0)
    with pytest.raises(InvalidInputError,
                       match=f"^height goal {h} exceeds tree height 4$"):
        apply_tailcone_partial(col, (0,), h=h)
    # the lowest height itself is tried, not refused
    assert apply_tailcone_partial(col, (0,), h=4).failure.endswith("for stage 2")


# ---------------------------------------------------------------------------
# monochromatic level products


def test_hl_search_rides_even_levels():
    space = TreeSpace(2, 5)
    col = level_parity_coloring((space,))
    out = hl_search(col, h=3)
    assert out.success and out.color == 0
    assert out.reports[0].level_set == (0, 2, 4)
    assert check_hl_strong_subtree(out.reports, col).valid


def test_hl_search_reports_impossibility():
    tiny = TreeSpace(2, 2)
    col = table_coloring((tiny,), 2, {("",): 0, ("0",): 1, ("1",): 1})
    out = hl_search(col, h=2)
    assert not out.success and "no root tuple" in out.failure


def test_hl_search_cap_is_an_outcome_not_an_error():
    space = TreeSpace(2, 6)
    col = seeded_hash_coloring((space, space), 3, seed=7)
    out = hl_search(col, h=3, budget=StepBudget(5))
    assert not out.success and out.capped


def _counting_grows(monkeypatch, module):
    roots_tried = []
    grow = module.grow_shared_subtrees

    def counting(views, roots, *args, **kw):
        roots_tried.append(roots)
        return grow(views, roots, *args, **kw)

    monkeypatch.setattr(module, "grow_shared_subtrees", counting)
    return roots_tried


def test_hl_search_grows_only_from_roots_with_room_for_h_levels(monkeypatch):
    # no root tuple of this box grows a monochromatic product of height 4
    col = seeded_hash_coloring((TreeSpace(2, 7),) * 2, 2, 1)
    tried = _counting_grows(monkeypatch, tailcone)
    old_tried = _counting_grows(monkeypatch, oracles)
    budget, old_budget = StepBudget(10 ** 6), StepBudget(10 ** 6)
    out = hl_search(col, h=4, budget=budget)
    old = oracles.hl_search_every_level(col, h=4, budget=old_budget)
    assert out.to_json() == old.to_json() and not out.success
    assert budget.used == old_budget.used
    # root levels 0-3 of the height-7 trees, against all seven levels
    assert len(tried) == 1 + 4 + 16 + 64
    assert len(old_tried) == sum(4 ** rho for rho in range(7))


@pytest.mark.parametrize("h", [0, -2])
def test_hl_search_leaves_a_height_below_one_to_the_engine(monkeypatch, h):
    tried = _counting_grows(monkeypatch, tailcone)
    with pytest.raises(InvalidInputError, match=f"height goal must be positive, got {h}"):
        hl_search(seeded_hash_coloring((TreeSpace(2, 5),) * 2, 2, 1), h=h)
    assert tried == [("", "")]


# ---------------------------------------------------------------------------
# dimension raising


def test_dimension_induction_seeded_success():
    space = TreeSpace(2, 11)
    col = seeded_hash_coloring((space, space), 2, seed=11)
    out = dimension_induction(col, h=4, budget=StepBudget(400_000))
    assert out.success
    assert out.check.valid
    assert out.witness.density_level == 2
    assert out.votes
    # the checker result must reproduce over the constructed subtrees
    again = check_somewhere_dense_witness(out.witness, col, out.reports)
    assert again.valid


def test_dimension_induction_second_box():
    space = TreeSpace(2, 12)
    col = seeded_hash_coloring((space, space), 2, seed=9)
    out = dimension_induction(col, h=4, budget=StepBudget(400_000))
    assert out.success and out.check.valid


def test_dimension_induction_honest_failure():
    space = TreeSpace(2, 5)
    col = seeded_hash_coloring((space, space), 2, seed=0)
    out = dimension_induction(col, h=4, budget=StepBudget(200_000))
    assert not out.success
    assert out.failure
    assert out.witness is None


def test_dimension_induction_cap_bounds_the_whole_run():
    # the tail-cone step, every branch search and the cone reassembly
    # spend from the caller's one budget: the run takes 454 steps, 424 of
    # them in the tail-cone step, so a cap of 440 fits every phase but not
    # the run
    space = TreeSpace(2, 11)
    col = seeded_hash_coloring((space, space), 2, seed=11)
    budget = StepBudget(400_000)
    out = dimension_induction(col, h=4, budget=budget)
    assert out.success
    needed = budget.used
    assert needed == 454
    budget = StepBudget(440)
    out = dimension_induction(col, h=4, budget=budget)
    assert not out.success and out.capped
    # the cap's 440 steps were spent; the step that crossed it was refused
    assert budget.used == 441
    budget = StepBudget(needed)
    out = dimension_induction(col, h=4, budget=budget)
    assert out.success and budget.used == needed


def _induction_votes(events):
    """The votes of a run's ``induct-votes`` event, keyed as ``branch_votes``
    keys them."""
    votes, = (event["votes"] for event in events if event["event"] == "induct-votes")
    return {(v["base_level"], tuple(v["base"]), v["color"]): v["count"] for v in votes}


@pytest.mark.parametrize("kind, seed", [("uniform", 11), ("uniform", 19),
                                        ("uniform", 27), ("explicit", 10),
                                        ("explicit", 14), ("explicit", 28),
                                        ("explicit", 38)])
def test_dimension_induction_votes_match_the_per_branch_reference(kind, seed):
    # the explicit boxes' nodes one below the top have one or two successors
    rng = random.Random(f"votes:{seed}")
    spaces = ((TreeSpace(2, 11),) * 2 if kind == "uniform"
              else tuple(oracles.pruned_tree(rng, 10, keep=0.85) for _ in range(2)))
    col = seeded_hash_coloring(spaces, 2, seed)
    events = []
    out = dimension_induction(col, h=4, budget=StepBudget(10 ** 6), transcript=events)
    want = oracles.branch_votes(col, out.reports, StepBudget(10 ** 6))
    assert want and _induction_votes(events) == want
    tview = out.reports[0]
    successors = {len(tview.extensions(node, 3)) for node in tview.level(2)}
    assert successors == ({2} if kind == "uniform" else {1, 2})


def _counting_calls(monkeypatch, module, name):
    """Patch ``module.name`` to log the name of each call's caller."""
    callers = []
    real = getattr(module, name)

    def counting(*args, **kw):
        callers.append(sys._getframe(1).f_code.co_name)
        return real(*args, **kw)

    monkeypatch.setattr(module, name, counting)
    return callers


@pytest.mark.parametrize("seed", [11, 19, 27, 6, 10, 12])
def test_dimension_induction_scans_once_per_node_below_the_top(monkeypatch, seed):
    # the benchmark's dim-induct boxes: one dense-set scan per node on
    # level 2 of coordinate 0's subtree, where each of its 8 branches once
    # had its own; and one reassembly filter per vote tried
    col = seeded_hash_coloring((TreeSpace(2, 11),) * 2, 2, seed)
    scans = _counting_calls(monkeypatch, tailcone, "dshl_search")
    filters = _counting_calls(monkeypatch, tailcone, "cross_consistent")
    out = dimension_induction(col, h=4, budget=StepBudget(10 ** 6))
    assert len(scans) == len(out.reports[0].level(2)) == 4
    tried = len(out.votes or ())
    if out.witness is not None:
        base, color = out.witness.base, out.witness.color
        tried = 1 + [key for key, _ in out.votes].index(
            (out.witness.density_level - 2, base[1:], color))
    assert filters.count("dimension_induction") == tried


def test_hl_search_builds_one_filter_per_root(monkeypatch):
    col = seeded_hash_coloring((TreeSpace(2, 7),) * 2, 2, 1)
    roots = _counting_grows(monkeypatch, tailcone)
    filters = _counting_calls(monkeypatch, tailcone, "cross_consistent")
    out = hl_search(col, h=4)
    assert not out.success
    assert filters == ["hl_search"] * len(roots) == ["hl_search"] * 85


def _shifted(items):
    """The oracle's chain slots ``(k, v)`` as the library's ``(k + 1, v)``."""
    return tuple(((k + 1, v), node) for (k, v), node in items)


def _both_tails(monkeypatch, col, beta, gamma, s, tbar, height):
    """The cone reassembly and its nested-loop oracle on one box.

    The library makes one assignment search per chain level, with the
    node s' above the cone as slot ``(0, u)``; the oracle makes one per
    chain level and s', in the order of the library's candidates for
    ``(0, u)``, on one candidate dict per chain level.  Per chain level
    the library's search must return ``{(0, u): s'}`` plus the assignment
    of the oracle's first successful search, or ``None`` when none
    succeeds; and the choices the library tries must be a subsequence of
    those the oracle's pointer searches ask about, each under its s'.
    """
    tview, uviews = TreeSpace(2, height), [TreeSpace(2, height)]
    tries, asks, cones, levels = [], [], [], []
    library = oracles.watch_tries(prefiltered_assignment, tries)
    pointer = oracles.watch_asks(oracles.prefiltered_assignment, asks)

    def library_search(slots, candidates, consistent, budget):
        cones.append((slots[0], candidates(slots[0])))
        return library(slots, candidates, consistent, budget)

    def oracle_search(slots, candidates, consistent, budget):
        levels.append(candidates)
        return pointer(slots, candidates, consistent, budget)

    with monkeypatch.context() as patch:
        patch.setattr(tailcone, "prefiltered_assignment", library_search)
        patch.setattr(oracles, "prefiltered_assignment", oracle_search)
        out = [tailcone._induction_tail(tview, uviews, s, tbar, beta,
                                        cross_consistent(2, col.evaluate, gamma),
                                        StepBudget(100_000)),
               oracles._induction_tail(col, tview, uviews, s, tbar, beta, gamma,
                                       StepBudget(100_000))]
    # the oracle's searches at one chain level share its candidate dict
    per_level = []
    for index, candidates in enumerate(levels):
        if not index or candidates is not levels[index - 1]:
            per_level.append([])
        per_level[-1].append(asks[index])
    assert len(tries) == len(per_level)
    for (found, tried), (cone, s_primes), searches in zip(tries, cones, per_level):
        assert len(searches) <= len(s_primes)
        want, asked = None, []
        for (got, questions), sp in zip(searches, s_primes):
            assert want is None  # the oracle stops at its first success
            asked.append(((cone, sp),))
            asked.extend(((cone, sp),) + _shifted(q) for q in questions)
            if got is not None:
                want = {cone: sp, **dict(_shifted(got.items()))}
        if want is None:
            assert len(searches) == len(s_primes)
        assert found == want
        assert oracles.is_subsequence(tried, asked)
    return out


def test_induction_tail_tries_each_level_s_primes_in_canonical_order(monkeypatch):
    # only s' of height 3 or more take color 1: at chain level 3 the first
    # s' (the cone node itself) fails and both s' one level up pass, so the
    # first of them must be taken
    space = TreeSpace(2, 6)
    col = expr_coloring((space, space), 2, "1 if len(nodes[0]) > 2 else 0",
                        domain="full")
    tail, want = _both_tails(monkeypatch, col, 0, 1, "0", ("",), 6)
    assert tail == want
    assert tail[0] == ("000", "010")


@pytest.mark.parametrize("seed", range(6))
def test_induction_tail_matches_the_nested_loop_oracle(monkeypatch, seed):
    space = TreeSpace(2, 7)
    col = seeded_hash_coloring((space, space), 2, seed=seed)
    found = 0
    for s in ("0", "1"):
        for gamma in (0, 1):
            tail, want = _both_tails(monkeypatch, col, 0, gamma, s, ("",), 7)
            assert tail == want, (s, gamma)
            found += tail is not None
    assert found


def test_dimension_induction_guards():
    space = TreeSpace(2, 6)
    with pytest.raises(InvalidInputError):
        dimension_induction(constant_coloring((space,), 2))
    with pytest.raises(InvalidInputError):
        dimension_induction(level_parity_coloring((space, space)))


# ---------------------------------------------------------------------------
# the constructions against the references that recorded their tables
#
# ``oracles.fuse`` and ``oracles.apply_tailcone_partial`` record each table
# row when its stage commits and filter later stages against the record.
# The library reads the same rows off the coloring, so every outcome and
# every step agrees, and it evaluates no more: a row is evaluated once,
# and only when a filter reads it or the finished subtrees need it.


def _evaluations(monkeypatch):
    seen = []
    evaluate = Coloring.evaluate

    def counted(self, tup):
        seen.append(tup)
        return evaluate(self, tup)

    monkeypatch.setattr(Coloring, "evaluate", counted)
    return seen


def _against_the_recording_reference(seen, run, reference, cap):
    budget, old_budget = StepBudget(cap), StepBudget(cap)
    seen.clear()
    new = run(budget).to_json()
    evaluations = len(seen)
    old = reference(old_budget).to_json()
    assert new == old
    assert budget.used == old_budget.used
    assert evaluations <= len(seen) - evaluations
    return "capped" if new["capped"] else "success" if new["success"] else "failure"


def _outcome_kinds(boxes, check):
    kinds = Counter(check(*box) for box in boxes)
    assert set(kinds) == {"success", "failure", "capped"}, kinds


FUSE_BOXES = [(h, m, m + 1 + extra, seed, cap)
              for h, m, extra, seed, cap in itertools.product(
                  (5, 6, 7), (1, 2, 3), (0, 1), (0, 1), (10 ** 6, 60))
              if m + 1 + extra <= h]


def test_fuse_matches_the_recording_reference(monkeypatch):
    seen = _evaluations(monkeypatch)

    def check(h, m, goal, seed, cap):
        spaces = (TreeSpace(2, h),) * 2
        family = ColoringFamily([seeded_hash_coloring(spaces, 2, 10 * seed + i)
                                 for i in range(m)])
        return _against_the_recording_reference(
            seen, lambda budget: fuse(family, h=goal, budget=budget),
            lambda budget: oracles.fuse(family, h=goal, budget=budget), cap)

    _outcome_kinds(FUSE_BOXES, check)


PARTIAL_BOXES = [(d, base, h, goal, seed, noise, cap)
                 for (d, base), noise in [((2, (0,)), None), ((2, (1,)), None),
                                          ((3, (0,)), None), ((3, (0, 2)), None),
                                          ((2, (0,)), 9), ((3, (0,)), 9)]
                 for h, goal, seed, cap in itertools.product(
                     (5, 6), (3, 4), (0, 1), (10 ** 6, 40))]


def test_partial_law_matches_the_recording_reference(monkeypatch):
    seen = _evaluations(monkeypatch)

    def check(d, base, h, goal, seed, noise, cap):
        spaces = (TreeSpace(2, h),) * d
        col = (seeded_hash_coloring(spaces, 2, seed) if noise is None
               else oracles.prefix_coloring(spaces, seed, noise))
        return _against_the_recording_reference(
            seen, lambda budget: apply_tailcone_partial(col, base, h=goal, budget=budget),
            lambda budget: oracles.apply_tailcone_partial(col, base, h=goal,
                                                          budget=budget), cap)

    _outcome_kinds(PARTIAL_BOXES, check)
