"""Conditions, copying actions, Delta systems, and W-map closure laws."""

import itertools
import random

import pytest

from hl_lab import conditions
from hl_lab.conditions import (
    Condition,
    WMap,
    _check_raw_map,
    build_w_map,
    compatible,
    condition_leq,
    copying_action,
    delta_system,
    glb,
    restrict_condition,
    verify_wmap_laws,
)
from hl_lab.errors import (
    CapExceededError,
    IncompatibleConditionsError,
    InvalidInputError,
    PreconditionError,
)
from hl_lab.search import StepBudget

import oracles
from oracles import all_nodes, make_raw_map, wmap_image_unbounded


# ---------------------------------------------------------------------------
# conditions


def test_condition_construction_and_accessors():
    p = Condition({3: ("01",), 0: ("1",)})
    assert p.support == (0, 3)
    assert p.assignment == {0: ("1",), 3: ("01",)}
    assert p.arity == 1
    assert len(p) == 2
    same = Condition([(0, ("1",)), (3, ("01",))])
    assert same == p


def test_condition_guards():
    with pytest.raises(InvalidInputError):
        Condition({-1: ("0",)})
    with pytest.raises(InvalidInputError):
        Condition({0: ("0",), 1: ("0", "1")})  # mixed arity


def test_condition_json_round_trip():
    p = Condition({0: ("0", "1"), 5: ("01", "10")})
    assert Condition.from_json(p.to_json()) == p
    with pytest.raises(InvalidInputError):
        Condition.from_json({"support": [0, 1], "assign": {"0": ["1"]}})


def test_restriction_keeps_requested_indices():
    p = Condition({0: ("0",), 1: ("1",), 4: ("00",)})
    assert restrict_condition(p, (1, 4)).support == (1, 4)
    assert restrict_condition(p, ()).support == ()
    assert restrict_condition(p, (1, 9)).support == (1,)


def test_information_order():
    q = Condition({0: ("0",)})
    p = Condition({0: ("01",), 1: ("1",)})
    assert condition_leq(p, q)  # p extends and enlarges
    assert not condition_leq(q, p)
    assert condition_leq(p, p)
    assert condition_leq(p, Condition({}))  # the empty condition is weakest


def test_glb_worked_example():
    p = Condition({0: ("0",)})
    q = Condition({0: ("01",), 1: ("1",)})
    r = glb([p, q])
    assert r.assignment == {0: ("01",), 1: ("1",)}
    assert condition_leq(r, p) and condition_leq(r, q)


def test_incompatibility_names_index_and_coordinate():
    p = Condition({2: ("0", "00")})
    q = Condition({2: ("0", "11")})
    assert not compatible(p, q)
    with pytest.raises(IncompatibleConditionsError) as info:
        glb([p, q])
    assert info.value.index == 2
    assert info.value.coordinate == 1
    clash = Condition({2: ("0",)})
    with pytest.raises(IncompatibleConditionsError) as info:
        glb([p, clash])
    assert info.value.coordinate == -1  # arity mismatch at the index
    with pytest.raises(InvalidInputError):
        glb([])


def test_glb_is_maximal_exhaustively():
    # all unary condition pairs supported inside {0, 1} with nodes from
    # the height-3 truncation; every common lower bound must sit below
    # the computed one
    nodes = all_nodes(3)
    conditions = []
    for sup in ((), (0,), (1,), (0, 1)):
        for choice in itertools.product(nodes, repeat=len(sup)):
            conditions.append(Condition(dict(zip(sup, [(c,) for c in choice]))))
    pool = [Condition({0: (a,), 1: (b,)})
            for a in nodes for b in nodes]
    for p, q in itertools.combinations_with_replacement(conditions, 2):
        if not compatible(p, q):
            continue
        bound = glb([p, q])
        assert condition_leq(bound, p) and condition_leq(bound, q)
        for r in pool:
            if condition_leq(r, p) and condition_leq(r, q):
                assert condition_leq(r, bound), (p, q, r)


def test_copying_action_example_and_laws():
    p = Condition({0: ("0",), 2: ("11",)})
    moved = copying_action(p, (0, 2, 5), (1, 3, 7))
    assert moved.assignment == {1: ("0",), 3: ("11",)}
    # identity, inverse, composition
    assert copying_action(p, (0, 2, 5), (0, 2, 5)) == p
    assert copying_action(moved, (1, 3, 7), (0, 2, 5)) == p
    two = copying_action(copying_action(p, (0, 2, 5), (1, 3, 7)),
                         (1, 3, 7), (4, 6, 8))
    assert two == copying_action(p, (0, 2, 5), (4, 6, 8))
    assert len(moved) == len(p)


def test_copying_action_guards():
    p = Condition({0: ("0",)})
    with pytest.raises(InvalidInputError):
        copying_action(p, (0, 1), (5,))
    with pytest.raises(InvalidInputError):
        copying_action(p, (1, 2), (5, 6))  # support escapes the source


# ---------------------------------------------------------------------------
# Delta systems


def test_delta_system_worked_example():
    out = delta_system([{1, 2}, {1, 3}, {1, 4}, {2, 3}], 3)
    assert out.success
    assert out.indices == (0, 1, 2)
    assert out.root == (1,)
    assert out.scanned == 1


def test_delta_system_not_found():
    out = delta_system([{1, 2}, {2, 3}, {1, 3}], 3)
    assert not out.success
    assert out.root is None
    assert out.scanned == 1


def test_delta_system_small_targets_trivial():
    family = [{1, 2}, {3, 4}, {5}]
    assert delta_system(family, 1).success
    assert delta_system(family, 1).root == ()
    assert delta_system(family, 2).success


def test_delta_system_guards():
    with pytest.raises(InvalidInputError):
        delta_system([{1}], 0)
    with pytest.raises(InvalidInputError):
        delta_system([{1}], 2)


def test_delta_system_matches_brute_force():
    rng = random.Random(20240819)
    for _ in range(60):
        family = [frozenset(rng.sample(range(8), rng.randrange(1, 5)))
                  for _ in range(rng.randrange(3, 6))]
        target = rng.randrange(2, len(family) + 1)
        out = delta_system([set(m) for m in family], target)

        def is_ds(combo):
            members = [family[i] for i in combo]
            root = members[0] & members[1]
            return all(members[i] & members[j] == root
                       for i in range(len(members))
                       for j in range(i + 1, len(members)))

        witnesses = [c for c in itertools.combinations(range(len(family)), target)
                     if is_ds(c)]
        assert out.success == bool(witnesses)
        if out.success:
            assert out.indices == witnesses[0]
            members = [family[i] for i in out.indices]
            for a, b in itertools.combinations(members, 2):
                assert tuple(sorted(a & b)) == out.root


# ---------------------------------------------------------------------------
# W-maps


def _identity_raw(ground, degree):
    return {u: set(u) for r in range(degree + 1)
            for u in itertools.combinations(ground, r)}


def test_identity_raw_map_closes_to_itself():
    ground = range(4)
    wm = build_w_map(ground, _identity_raw(ground, 1), 1, stride=1)
    assert wm.ground == (0, 1, 2, 3)
    assert wm.image((2,)) == (2,)
    assert wm.image(()) == ()
    assert verify_wmap_laws(wm).valid


def test_fresh_constant_raw_map():
    ground = range(4)
    raw = {u: set(u) | {100} for r in range(2)
           for u in itertools.combinations(ground, r)}
    wm = build_w_map(ground, raw, 1, stride=1)
    assert wm.image(()) == (100,)
    assert wm.image((1,)) == (1, 100)
    assert verify_wmap_laws(wm).valid


def test_default_stride_thins_the_ground_set():
    ground = range(10)
    wm = build_w_map(ground, _identity_raw(ground, 1), 1)
    assert wm.ground == (0, 3, 6, 9)
    wm2 = build_w_map(ground, _identity_raw(ground, 1), 1, stride=2)
    assert wm2.ground == (0, 2, 4, 6, 8)


def test_raw_map_preconditions_name_the_witness():
    ground = (0, 1, 2)
    raw = _identity_raw(ground, 1)
    del raw[(2,)]
    with pytest.raises(PreconditionError):
        build_w_map(ground, raw, 1)
    raw = _identity_raw(ground, 1)
    raw[(2,)] = {0}  # containment broken
    with pytest.raises(PreconditionError):
        build_w_map(ground, raw, 1)
    raw = _identity_raw(ground, 1)
    raw[()] = {9}  # () within (0,) but images not nested
    with pytest.raises(PreconditionError) as info:
        build_w_map(ground, raw, 1)
    assert "monotonicity" in str(info.value)


@pytest.mark.parametrize("size", [9, 14])
def test_wmap_build_refuses_too_many_families(size):
    # E=9, d=3: C(84, <= 4) = 2,028,355 families, once a 6.9 s scan
    ground = range(size)
    with pytest.raises(CapExceededError) as info:
        build_w_map(ground, _identity_raw(ground, 3), 3)
    assert info.value.cap == 1 << 20
    # refused before the raw map is read
    with pytest.raises(CapExceededError):
        build_w_map(ground, {}, 3)


def test_wmap_family_bound_is_exact():
    # d=1: E + C(E, 2) families; 1,047,628 at E=1447, 1,049,076 at E=1448
    with pytest.raises(PreconditionError):
        build_w_map(range(1447), {}, 1)
    with pytest.raises(CapExceededError):
        build_w_map(range(1448), {}, 1)
    # the benchmark's wmap-build box: C(C(11, 2), <= 3) = 27,775 families
    ground = range(11)
    assert build_w_map(ground, _identity_raw(ground, 2), 2).degree == 2


def test_wmap_totality_and_json():
    ground = (0, 1, 2)
    wm = build_w_map(ground, _identity_raw(ground, 1), 1, stride=1)
    doc = wm.to_json()
    assert doc["E"] == [0, 1, 2] and doc["d"] == 1
    again = WMap.from_json(doc)
    assert again == wm
    with pytest.raises(InvalidInputError):
        WMap((0, 1), 1, {(): ()})  # misses the singletons
    with pytest.raises(InvalidInputError):
        wm.image((9,))


def test_wmap_image_reads_every_entry():
    ground = (0, 1, 2, 3)
    raw = {u: set(u) | {100} for r in range(3)
           for u in itertools.combinations(ground, r)}
    wm = build_w_map(ground, raw, 2, stride=1)
    for u, w in wm.entries:
        assert wm.image(u) == w
        assert wm.image(reversed(u)) == w  # any order, as a set
    with pytest.raises(InvalidInputError) as info:
        wm.image((0, 9))
    assert str(info.value) == "subset {0, 9} outside the map domain"
    shuffled = WMap(ground, 2, dict(reversed(wm.entries)))
    assert shuffled == wm and hash(shuffled) == hash(wm)


def test_constructed_intersection_violation_is_detected():
    mapping = {(): (), (0,): (0, 9), (1,): (1, 9), (2,): (2,)}
    wm = WMap((0, 1, 2), 1, mapping)
    report = verify_wmap_laws(wm)
    assert not report.valid
    assert report.intersection_violations
    assert ((0,), (1,)) in report.intersection_violations


def test_constructed_transport_violation_is_detected():
    # images of the two singletons have different sizes
    mapping = {(): (), (0,): (0,), (1,): (1, 9), (2,): (2,)}
    wm = WMap((0, 1, 2), 1, mapping)
    report = verify_wmap_laws(wm)
    assert not report.valid
    assert any(v[1] == (0,) and v[3] == (1,) for v in report.transport_violations)


def test_small_ground_set_is_vacuous():
    raw = {(): set(), (0,): {0}}
    wm = build_w_map((0,), raw, 2, stride=1)
    report = verify_wmap_laws(wm)
    assert report.valid
    assert report.pairs_checked == 0


def test_seeded_closures_satisfy_both_laws():
    for seed in range(15):
        size = 4 + seed % 3
        d = 1 + seed % 2
        ground, raw = make_raw_map(seed, size, d)
        wm = build_w_map(ground, raw, d, stride=1)
        report = verify_wmap_laws(wm)
        assert report.valid, (seed, report)
        # bounded family closure equals the unbounded brute force
        for r in range(d + 1):
            for u in itertools.combinations(wm.ground, r):
                assert set(wm.image(u)) == set(wmap_image_unbounded(
                    ground, raw, d, u)), (seed, u)


def test_transport_is_positional():
    # the order isomorphism carries the small image by position, so the
    # index positions of W(u1) inside W(u2) match those of the copy
    ground, raw = make_raw_map(3, 5, 2)
    wm = build_w_map(ground, raw, 2, stride=1)
    subsets = [c for r in range(3) for c in itertools.combinations(wm.ground, r)]
    for u2, v2 in itertools.combinations(subsets, 2):
        if len(u2) != len(v2):
            continue
        iso = dict(zip(u2, v2))
        for r in range(len(u2) + 1):
            for u1 in itertools.combinations(u2, r):
                v1 = tuple(sorted(iso[i] for i in u1))
                pos_u = [wm.image(u2).index(i) for i in wm.image(u1)]
                pos_v = [wm.image(v2).index(i) for i in wm.image(v1)]
                assert pos_u == pos_v, (u1, u2, v1, v2)


# ---------------------------------------------------------------------------
# the rewritten algebra against its verbatim predecessors in ``oracles``


def _outcome(fn, *args):
    """Result, or the raised error's type, message, index and coordinate."""
    try:
        return ("ok", fn(*args))
    except (InvalidInputError, IncompatibleConditionsError) as err:
        return ("raised", type(err), str(err), getattr(err, "index", None),
                getattr(err, "coordinate", None))


def _node(rng):
    return "".join(rng.choice("01") for _ in range(rng.randrange(1, 6)))


def _compatible_conditions(rng, count, indices, arity):
    """Conditions recording prefixes of one hidden assignment, some empty."""
    truth = {i: tuple(_node(rng) for _ in range(arity)) for i in indices}
    out = []
    for _ in range(count):
        picked = rng.sample(indices, rng.randrange(0, min(4, len(indices)) + 1))
        out.append(Condition({i: tuple(n[:rng.randrange(0, len(n) + 1)]
                                       for n in truth[i]) for i in picked}))
    return out, truth


def _glb_case(rng, kind):
    arity = rng.randrange(1, 4)
    indices = rng.sample(range(12), rng.randrange(1, 7))
    conditions, truth = _compatible_conditions(rng, rng.randrange(1, 8), indices,
                                               arity)
    if kind == "clash":
        i = rng.choice(indices)
        coord = rng.randrange(arity)
        nodes = list(truth[i])
        node = nodes[coord] or "0"
        nodes[coord] = ("1" if node[0] == "0" else "0") + node[1:]
        odd = Condition({i: tuple(nodes)})
    elif kind == "shared-arity":
        odd = Condition({rng.choice(indices): tuple(
            _node(rng) for _ in range(arity + rng.choice((-1, 1)) or 2))})
    elif kind == "disjoint-arity":
        fresh = rng.sample(range(12, 24), rng.randrange(1, 3))
        other = arity + 1 if arity == 1 or rng.random() < 0.5 else arity - 1
        odd = Condition({i: tuple(_node(rng) for _ in range(other))
                         for i in fresh})
    elif kind == "empty":
        odd = Condition({})
    else:
        return conditions
    conditions.insert(rng.randrange(len(conditions) + 1), odd)
    return conditions


@pytest.mark.parametrize("kind", ["compatible", "clash", "shared-arity",
                                  "disjoint-arity", "empty"])
def test_glb_matches_the_per_merge_oracle(kind):
    rng = random.Random(f"glb:{kind}")
    raised = 0
    for _ in range(400):
        conditions = _glb_case(rng, kind)
        got = _outcome(glb, conditions)
        assert got == _outcome(oracles.glb, conditions), conditions
        raised += got[0] == "raised"
        for p, q in itertools.combinations(conditions, 2):
            merges = _outcome(oracles._merge_pair, p, q)[0] == "ok"
            assert compatible(p, q) == merges, (p, q)
    assert (raised > 0) == (kind in ("clash", "shared-arity", "disjoint-arity"))
    assert _outcome(glb, []) == _outcome(oracles.glb, [])


@pytest.mark.parametrize("d", [1, 2, 3])
def test_build_w_map_matches_the_rescanning_oracle(d):
    for stride in range(1, d + 3):
        for seed in range(6):
            size = d + seed % 3
            ground, raw = make_raw_map(100 * d + seed, size, d)
            built = build_w_map(ground, raw, d, stride)
            assert built == oracles.build_w_map(ground, raw, d, stride), (
                d, stride, seed)
            assert verify_wmap_laws(built) == oracles.verify_wmap_laws(built)


def test_build_w_map_keeps_the_oracle_errors():
    ground, raw = make_raw_map(7, 5, 2)
    bad = dict(raw)
    bad[()] = {99}  # inside no other image: monotonicity fails
    got = _outcome(build_w_map, ground, bad, 2)
    assert got[1] is PreconditionError
    assert got == _outcome(oracles.build_w_map, ground, bad, 2)
    smaller = dict(raw)
    u = max(smaller, key=len)
    smaller[u] = set(u)  # still contains u, no longer above its subsets
    assert _outcome(build_w_map, ground, smaller, 2) == _outcome(
        oracles.build_w_map, ground, smaller, 2)
    for degree, stride in ((0, None), (2, 0)):
        assert _outcome(build_w_map, ground, raw, degree, stride) == _outcome(
            oracles.build_w_map, ground, raw, degree, stride)


def test_verify_wmap_laws_matches_the_oracle_on_broken_maps():
    rng = random.Random(20261018)
    mismatched = 0
    for _ in range(40):
        d = rng.randrange(1, 3)
        ground = sorted(rng.sample(range(20), rng.randrange(2, 6)))
        mapping = {}
        for r in range(d + 1):
            for u in itertools.combinations(ground, r):
                extra = rng.sample(range(30, 36), rng.randrange(0, 3))
                mapping[u] = set(u) | set(extra)
        wm = WMap(ground, d, mapping)
        report = verify_wmap_laws(wm)
        assert report == oracles.verify_wmap_laws(wm)
        mismatched += any(len(wm.image(u2)) != len(wm.image(v2))
                          for _, u2, _, v2 in report.transport_violations)
    assert mismatched > 0


@pytest.mark.parametrize("d", [1, 2, 3])
def test_check_raw_map_names_the_oracle_violation(d):
    # monotone maps with a few entries grown or shrunk: the first violating
    # subset and its first violating superset, or the same table
    rng = random.Random(f"raw-map:{d}")
    seen = set()
    for seed in range(40):
        ground, raw = make_raw_map(1000 * d + seed, d + rng.randrange(3), d)
        for _ in range(rng.randrange(3)):
            u = rng.choice(sorted(raw))
            extra = sorted(set(raw[u]) - set(u))
            if extra and rng.random() < 0.5:
                raw[u] = set(raw[u]) - {rng.choice(extra)}
            else:
                raw[u] = set(raw[u]) | {rng.randrange(60, 64)}
        got = _outcome(_check_raw_map, ground, raw, d)
        assert got == _outcome(oracles._check_raw_map, ground, raw, d)
        seen.add(got[0] if got[0] == "ok" else got[2].split(":")[0])
    assert seen == {"ok", "raw map monotonicity fails"}


def test_verify_wmap_laws_refuses_too_many_checks(monkeypatch):
    # E=700, d=1: 245,350 pairs and 980,001 transports, once a 7.2 s check
    ground = range(700)
    wm = WMap(ground, 1, {u: u for r in range(2)
                          for u in itertools.combinations(ground, r)})

    def unread(self, u):
        raise AssertionError("an image was read")

    monkeypatch.setattr(WMap, "image", unread)
    with pytest.raises(CapExceededError) as info:
        verify_wmap_laws(wm)
    assert info.value.cap == 1 << 20
    assert str(info.value).startswith("1225351 law checks over 700 elements")


def test_verify_wmap_law_bound_is_exact(monkeypatch):
    # E=7, d=2: C(7, 2) = 21 pairs of pairs give 231 checks, the
    # transports 1 + 7**2 * 2 + 21**2 * 4 = 1,863
    ground = range(7)
    wm = build_w_map(ground, _identity_raw(ground, 2), 2, stride=1)
    monkeypatch.setattr(conditions, "_MAX_LAW_CHECKS", 2094)
    report = verify_wmap_laws(wm)
    assert report.valid
    assert (report.pairs_checked, report.transports_checked) == (231, 1863)
    monkeypatch.setattr(conditions, "_MAX_LAW_CHECKS", 2093)
    with pytest.raises(CapExceededError) as info:
        verify_wmap_laws(wm)
    assert info.value.cap == 2093


@pytest.mark.parametrize("target", [1, 2, 3, 4])
def test_delta_system_matches_the_recomputing_oracle(target):
    rng = random.Random(f"delta:{target}")
    found = 0
    for _ in range(300):
        ground = rng.randrange(3, 9)
        family = [rng.sample(range(ground), rng.randrange(0, ground))
                  for _ in range(rng.randrange(1, 11))]
        got = _outcome(delta_system, family, target)
        assert got == _outcome(oracles.delta_system, family, target), family
        found += got[0] == "ok" and got[1].success
    assert found > 0


def _sunflower_family(rng):
    """Random sets with duplicates, empty sets and, sometimes, a planted sunflower."""
    ground = rng.randrange(3, 10)
    family = [rng.sample(range(ground), rng.randrange(0, ground + 1))
              for _ in range(rng.randrange(1, 13))]
    for _ in range(rng.randrange(0, 3)):
        family.insert(rng.randrange(len(family) + 1), list(rng.choice(family)))
    if rng.random() < 0.2:
        family.insert(rng.randrange(len(family) + 1), [])
    if rng.random() < 0.4:
        core = rng.sample(range(ground), rng.randrange(0, 3))
        petals = iter(range(ground, ground + 20))
        for _ in range(rng.randrange(2, 6)):
            family.insert(rng.randrange(len(family) + 1), core + [next(petals)])
    return family


@pytest.mark.parametrize("target", [1, 2, 3, 4, 5])
def test_delta_system_matches_the_combination_scan(target):
    rng = random.Random(f"sunflower:{target}")
    found = missed = 0
    for _ in range(300):
        family = _sunflower_family(rng)
        got = _outcome(delta_system, family, target)
        assert got == _outcome(oracles.delta_system_memoized, family, target), family
        if got[0] == "ok":
            found += got[1].success
            missed += not got[1].success
    assert found > 0 and (missed > 0 or target < 3)


def test_delta_system_without_a_sunflower_counts_every_combination():
    # no five of these sets form a sunflower: the combination scan lists
    # all C(40, 5) combinations, the search must report the same count
    rng = random.Random(1)
    family = [rng.sample(range(12), 6) for _ in range(40)]
    out = delta_system(family, 5)
    assert not out.success
    assert out.scanned == 658_008
    assert out == oracles.delta_system_memoized(family, 5)


def test_delta_system_spends_from_its_budget():
    # no 9 of the 120 3-subsets of range(10) form a sunflower: the search
    # takes 146,564 steps; on range(14) it takes 24,839,980, about four
    # times more per added element
    family = [set(c) for c in itertools.combinations(range(10), 3)]
    budget = StepBudget(146_564)
    assert not delta_system(family, 9, budget=budget).success
    assert budget.used == 146_564
    budget = StepBudget(146_563)
    with pytest.raises(CapExceededError) as capped:
        delta_system(family, 9, budget=budget)
    assert capped.value.cap == 146_563
    # a found subfamily: the first member's two intersections, the pair's
    # two candidates and the one candidate the appended member reads
    budget = StepBudget(5)
    assert delta_system([{1, 2}, {1, 3}, {1, 4}], 3, budget=budget).success
    assert budget.used == 5


def test_delta_system_is_refused_before_it_intersects_past_its_cap():
    # the 54,740 3-subsets of range(70): the first member's intersections
    # with the later ones are charged before they are taken, so a small
    # cap refuses the run without building them
    family = [set(c) for c in itertools.combinations(range(70), 3)]
    budget = StepBudget(1000)
    with pytest.raises(CapExceededError) as capped:
        delta_system(family, 69, budget=budget)
    assert capped.value.cap == 1000
    assert budget.used == len(family) - 1
