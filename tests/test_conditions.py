"""Conditions, copying actions, Delta systems, and W-map closure laws."""

import itertools
import random

import pytest

from hl_lab.conditions import (
    Condition,
    WMap,
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
    IncompatibleConditionsError,
    InvalidInputError,
    PreconditionError,
)

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
