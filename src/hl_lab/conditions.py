"""Conditions with finite support and the index-set combinatorics above them.

A condition assigns a tuple of tree nodes to finitely many indices.
Conditions are ordered by information: one is below another when it
keeps every recorded node, possibly extended, and possibly records
more indices.  Compatible families have a greatest lower bound taken
coordinatewise.  Copying actions transport conditions along the unique
order isomorphism between two equal-sized index sets, Delta-system
extraction finds subfamilies with one common pairwise intersection,
and the W-map construction closes a raw index-set map under bounded
intersections so that the closure laws (intersection and transport)
can be machine-checked.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass

from .errors import (
    CapExceededError,
    IncompatibleConditionsError,
    InvalidInputError,
    PreconditionError,
    json_integer,
)
from .search import BudgetExhausted, StepBudget

# ---------------------------------------------------------------------------
# conditions


@dataclass(frozen=True)
class Condition:
    """Finite-support assignment of node tuples to indices."""

    entries: tuple  # sorted ((index, (node, ...)), ...)

    def __init__(self, assignment):
        if hasattr(assignment, "items"):
            items = assignment.items()
        else:
            items = assignment
        entries = []
        arity = None
        for index, nodes in sorted(items):
            index = int(index)
            if index < 0:
                raise InvalidInputError(f"negative index {index}")
            nodes = tuple(str(n) for n in nodes)
            if arity is None:
                arity = len(nodes)
            elif len(nodes) != arity:
                raise InvalidInputError(
                    f"index {index} carries {len(nodes)} coordinates, "
                    f"expected {arity}"
                )
            entries.append((index, nodes))
        object.__setattr__(self, "entries", tuple(entries))

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self.entries)

    @property
    def assignment(self) -> dict:
        return {i: nodes for i, nodes in self.entries}

    @property
    def arity(self) -> int | None:
        return len(self.entries[0][1]) if self.entries else None

    def __len__(self) -> int:
        return len(self.entries)

    def to_json(self) -> dict:
        return {"support": list(self.support),
                "assign": {str(i): list(nodes) for i, nodes in self.entries}}

    @classmethod
    def from_json(cls, doc) -> "Condition":
        assign = doc.get("assign", {}) if isinstance(doc, dict) else None
        if not isinstance(assign, dict):
            raise InvalidInputError("a condition must be an object whose 'assign' "
                                    "is an object")
        assign = dict(_entry(k, v) for k, v in assign.items())
        support = {json_integer(i, "each entry of condition field 'support'")
                   for i in doc.get("support", assign)}
        if support != set(assign):
            raise InvalidInputError("support does not match assignment keys")
        return cls(assign)


def _entry(key: str, nodes) -> tuple[int, tuple[str, ...]]:
    """One ``assign`` entry of a document: a canonical decimal key (``"0"``,
    or ASCII digits with no leading zero) and a list of node strings."""
    if not re.fullmatch("0|[1-9][0-9]*", key):
        raise InvalidInputError(f"condition key {key!r} must be a canonical "
                                f"decimal index")
    if not isinstance(nodes, list) or not all(isinstance(n, str) for n in nodes):
        raise InvalidInputError(f"condition entry {key!r} must be a list of "
                                f"node strings, got {nodes!r}")
    return int(key), tuple(nodes)


def restrict_condition(p: Condition, indices) -> Condition:
    keep = set(int(i) for i in indices)
    return Condition({i: nodes for i, nodes in p.entries if i in keep})


def _comparable(a: str, b: str) -> bool:
    return a.startswith(b) or b.startswith(a)


def condition_leq(p: Condition, q: Condition) -> bool:
    """True when ``p`` carries at least the information of ``q``.

    Every index of ``q`` must appear in ``p`` with each coordinate node
    extending (or equal to) the one ``q`` records.
    """
    passign = p.assignment
    for index, nodes in q.entries:
        mine = passign.get(index)
        if mine is None or len(mine) != len(nodes):
            return False
        if not all(m.startswith(n) for m, n in zip(mine, nodes)):
            return False
    return True


def compatible(p: Condition, q: Condition) -> bool:
    try:
        _merge_into(dict(p.entries), q)
    except IncompatibleConditionsError:
        return False
    return True


def _merge_into(merged: dict, q: Condition) -> None:
    """Merge ``q`` into the index -> nodes dict ``merged`` in place."""
    for index, nodes in q.entries:
        mine = merged.get(index)
        if mine is None:
            merged[index] = nodes
            continue
        if len(mine) != len(nodes):
            raise IncompatibleConditionsError(
                index, -1, f"index {index} carries tuples of different arity")
        best = []
        for coord, (a, b) in enumerate(zip(mine, nodes)):
            if not _comparable(a, b):
                raise IncompatibleConditionsError(index, coord)
            best.append(a if len(a) >= len(b) else b)
        merged[index] = tuple(best)


def glb(conditions) -> Condition:
    """Greatest lower bound of pairwise-compatible conditions.

    The support is the union of supports and every coordinate is the
    longest of the recorded nodes; incomparable nodes at a shared
    coordinate raise with the offending index and coordinate.  All
    merges fold into one dict; a condition of another arity makes the
    fold build its ``Condition`` at once, which rejects the mixed arity.
    """
    conditions = list(conditions)
    if not conditions:
        raise InvalidInputError("need at least one condition")
    merged = dict(conditions[0].entries)
    arity = conditions[0].arity
    for q in conditions[1:]:
        _merge_into(merged, q)
        if arity is None:
            arity = q.arity
        elif q.arity is not None and q.arity != arity:
            Condition(merged)
    return Condition(merged)


def copying_action(p: Condition, w0, w1) -> Condition:
    """Transport ``p`` along the unique order isomorphism ``w0 -> w1``."""
    w0 = sorted(set(int(i) for i in w0))
    w1 = sorted(set(int(i) for i in w1))
    if len(w0) != len(w1):
        raise InvalidInputError(
            f"index sets have different sizes: {len(w0)} vs {len(w1)}")
    iso = dict(zip(w0, w1))
    missing = [i for i in p.support if i not in iso]
    if missing:
        raise InvalidInputError(
            f"support escapes the source index set at {missing}")
    return Condition({iso[i]: nodes for i, nodes in p.entries})


# ---------------------------------------------------------------------------
# Delta systems


@dataclass(frozen=True)
class DeltaSystemOutcome:
    success: bool
    indices: tuple[int, ...]
    members: tuple
    root: tuple[int, ...] | None
    scanned: int

    def to_json(self) -> dict:
        return {"success": self.success,
                "indices": list(self.indices),
                "members": [sorted(m) for m in self.members],
                "root": sorted(self.root) if self.root is not None else None,
                "scanned": self.scanned}


def delta_system(family, target: int,
                 budget: StepBudget | None = None) -> DeltaSystemOutcome:
    """First subfamily (in combination order) with one common intersection.

    Every pairwise intersection of the chosen members must literally
    equal the root.  With fewer than two members the root is empty.
    The first pair fixes the root, so deeper members are drawn only from
    the later indices that meet every chosen member in it; ``scanned``
    counts the combinations up to the answer in ``itertools.combinations``
    order, or all of them when there is none.  Each intersection a
    member takes with the later ones, and each candidate index a pair or
    an appended member reads, spends one step of ``budget``; only one
    member's intersections are held at a time.
    """
    budget = budget or StepBudget()
    family = [frozenset(int(i) for i in member) for member in family]
    if target < 1:
        raise InvalidInputError(f"target size must be positive, got {target}")
    if target > len(family):
        raise InvalidInputError(
            f"target {target} exceeds the family size {len(family)}")
    n = len(family)

    def found(combo, root):
        return DeltaSystemOutcome(
            True, tuple(combo), tuple(tuple(sorted(family[i])) for i in combo),
            tuple(sorted(root)), _combination_rank(combo, n) + 1)

    if target == 1:
        return found((0,), frozenset())
    try:
        for i in range(n - target + 1):
            budget.spend(n - 1 - i)
            roots = [family[i] & family[j] for j in range(i + 1, n)]
            # row[root]: the j > i with family[i] & family[j] == root, descending
            row: dict = {}
            for j in range(n - 1, i, -1):
                row.setdefault(roots[j - i - 1], []).append(j)
            for j, root in enumerate(roots, i + 1):
                combo = [i, j]
                mates = row[root]
                budget.spend(len(mates))
                # pools[-1]: untried indices above combo[-1] meeting each member in root
                pools = [[k for k in mates if k > j and family[j] & family[k] == root]]
                while pools:
                    if len(combo) == target:
                        return found(combo, root)
                    pool = pools[-1]
                    if len(pool) < target - len(combo):
                        pools.pop()
                        combo.pop()
                        continue
                    budget.spend(len(pool))
                    k = pool.pop()
                    combo.append(k)
                    pools.append([m for m in pool if family[k] & family[m] == root])
    except BudgetExhausted:
        raise CapExceededError(budget.cap, "delta-system search exceeded its budget")
    return DeltaSystemOutcome(False, (), (), None, math.comb(n, target))


def _combination_rank(combo, n: int) -> int:
    """Position of a sorted ``combo`` in ``itertools.combinations(range(n), k)``."""
    size, rank, prev = len(combo), 0, -1
    for pos, c in enumerate(combo):
        # combinations that agree before ``pos`` and hold a smaller index there
        rank += math.comb(n - prev - 1, size - pos) - math.comb(n - c, size - pos)
        prev = c
    return rank


# ---------------------------------------------------------------------------
# W-maps


@dataclass(frozen=True)
class WMap:
    """Total map from small subsets of a ground set to index sets."""

    ground: tuple[int, ...]
    degree: int
    entries: tuple  # sorted ((u, W(u)), ...) with u, W(u) sorted tuples

    def __init__(self, ground, degree, mapping):
        ground = tuple(sorted(set(int(i) for i in ground)))
        if hasattr(mapping, "items"):
            items = mapping.items()
        else:
            items = mapping
        canon = {}
        for u, w in items:
            canon[tuple(sorted(set(u)))] = tuple(sorted(set(int(i) for i in w)))
        for r in range(degree + 1):
            for u in itertools.combinations(ground, r):
                if u not in canon:
                    raise InvalidInputError(f"map misses the subset {set(u) or '{}'}")
        for u, w in canon.items():
            if len(u) == degree and not set(u) <= set(w):
                raise InvalidInputError(
                    f"containment fails: {set(u)} not within its image {set(w)}")
        object.__setattr__(self, "ground", ground)
        object.__setattr__(self, "degree", int(degree))
        object.__setattr__(self, "entries", tuple(sorted(canon.items())))
        # lookup table, not a dataclass field: equality stays on the fields
        object.__setattr__(self, "_images", canon)

    def image(self, u) -> tuple[int, ...]:
        try:
            return self._images[tuple(sorted(set(u)))]
        except KeyError:
            raise InvalidInputError(
                f"subset {set(u) or '{}'} outside the map domain") from None

    def to_json(self) -> dict:
        return {"E": list(self.ground), "d": self.degree,
                "entries": [{"u": list(u), "W": list(w)}
                            for u, w in self.entries]}

    @classmethod
    def from_json(cls, doc) -> "WMap":
        def integers(values, field):
            return tuple(json_integer(i, f"each entry of wmap field {field!r}")
                         for i in values)

        mapping = {integers(e["u"], "u"): integers(e["W"], "W")
                   for e in doc["entries"]}
        return cls(integers(doc["E"], "E"), json_integer(doc["d"], "wmap field 'd'"),
                   mapping)


def _check_raw_map(ground, raw, degree):
    subsets = [tuple(sorted(c)) for r in range(degree + 1)
               for c in itertools.combinations(ground, r)]
    table = {}
    for u in subsets:
        if u not in raw:
            raise PreconditionError(f"raw map misses the subset {set(u) or '{}'}")
        table[u] = frozenset(int(i) for i in raw[u])
        if not set(u) <= table[u]:
            raise PreconditionError(
                f"raw map containment fails at {set(u) or '{}'}")
    # monotone: each image lies in the meet of the images of the subset's
    # strict supersets, which comes down through those one element larger
    meet: dict = {}
    for w in reversed(subsets):
        below = table[w] & meet[w] if w in meet else table[w]
        for i in range(len(w)):
            u = w[:i] + w[i + 1:]
            meet[u] = meet[u] & below if u in meet else below
    for u in subsets:
        if u in meet and not table[u] <= meet[u]:
            for v in subsets:
                if set(u) <= set(v) and not table[u] <= table[v]:
                    raise PreconditionError(
                        f"raw map monotonicity fails: {set(u) or '{}'} within "
                        f"{set(v)} but images are not nested")
    return table


# ``build_w_map`` refuses inputs with more families to scan.
_MAX_FAMILIES = 1 << 20


def build_w_map(ground, raw, degree: int, stride: int | None = None) -> WMap:
    """Close a raw index-set map under bounded intersections.

    The output ground set keeps every ``stride``-th element of the input
    (default ``degree + 2``), and the image of ``u`` is the union of
    intersections of raw images over families of at most ``degree + 1``
    many ``degree``-subsets whose own intersection sits inside ``u``.
    The raw map must contain each subset in its image and be monotone.
    More than ``_MAX_FAMILIES`` families raise ``CapExceededError``
    before anything is scanned.
    """
    if degree < 1:
        raise InvalidInputError(f"degree must be positive, got {degree}")
    ground = tuple(sorted(set(int(i) for i in ground)))
    dsubset_count = math.comb(len(ground), degree)
    families = 0
    for size in range(1, degree + 2):
        families += math.comb(dsubset_count, size)
        if families > _MAX_FAMILIES:
            raise CapExceededError(
                _MAX_FAMILIES, f"more than {_MAX_FAMILIES} families of "
                f"{degree}-subsets of {len(ground)} elements to scan")
    raw = {tuple(sorted(set(u))): w for u, w in
           (raw.items() if hasattr(raw, "items") else raw)}
    table = _check_raw_map(ground, raw, degree)
    if stride is None:
        stride = degree + 2
    if stride < 1:
        raise InvalidInputError(f"stride must be positive, got {stride}")
    thinned = ground[::stride]
    dsubsets = list(itertools.combinations(ground, degree))
    cores = [frozenset(v) for v in dsubsets]
    images = [table[v] for v in dsubsets]
    # each family's core (the meet of its subsets) -> union of family images
    by_core: dict = {}
    for size in range(1, degree + 2):
        for fam in itertools.combinations(range(len(dsubsets)), size):
            core = cores[fam[0]].intersection(*(cores[i] for i in fam[1:]))
            image = images[fam[0]].intersection(*(images[i] for i in fam[1:]))
            by_core.setdefault(core, set()).update(image)
    mapping = {}
    for r in range(degree + 1):
        for u in itertools.combinations(thinned, r):
            uset = set(u)
            acc: set = set()
            for core, image in by_core.items():
                if core <= uset:
                    acc |= image
            mapping[u] = tuple(sorted(acc))
    return WMap(thinned, degree, mapping)


@dataclass(frozen=True)
class WMapLawReport:
    """Violations of the intersection and transport closure laws."""

    valid: bool
    intersection_violations: tuple
    transport_violations: tuple
    pairs_checked: int
    transports_checked: int

    def to_json(self) -> dict:
        return {"valid": self.valid,
                "intersection_violations": [list(map(list, v))
                                            for v in self.intersection_violations],
                "transport_violations": [list(map(list, v))
                                         for v in self.transport_violations],
                "pairs_checked": self.pairs_checked,
                "transports_checked": self.transports_checked}


# ``verify_wmap_laws`` refuses maps needing more pair and transport checks.
_MAX_LAW_CHECKS = 1 << 20


def verify_wmap_laws(wmap: WMap) -> WMapLawReport:
    """Check the two closure laws over the whole domain.

    Intersection law: images of two ``degree``-subsets meet exactly in
    the image of their intersection.  Transport law: for nested pairs
    ``u1`` within ``u2`` and their order-isomorphic copies, the order
    isomorphism between the two big images carries the small image onto
    its copy's image.  A map needing more than ``_MAX_LAW_CHECKS`` pair
    and transport checks raises ``CapExceededError`` before any is made.
    """
    d = wmap.degree
    ground = wmap.ground
    n = math.comb(len(ground), d)
    checks = n * (n + 1) // 2 + sum(math.comb(len(ground), r) ** 2 * 2 ** r
                                    for r in range(d + 1))
    if checks > _MAX_LAW_CHECKS:
        raise CapExceededError(
            _MAX_LAW_CHECKS, f"{checks} law checks over {len(ground)} elements "
            f"at degree {d} exceed {_MAX_LAW_CHECKS}")
    inter_bad = []
    pairs = 0
    for u, v in itertools.combinations_with_replacement(
            itertools.combinations(ground, d), 2):
        pairs += 1
        left = set(wmap.image(u)) & set(wmap.image(v))
        right = set(wmap.image(set(u) & set(v)))
        if left != right:
            inter_bad.append((tuple(u), tuple(v)))
    transport_bad = []
    transports = 0
    subsets = [tuple(sorted(c)) for r in range(d + 1)
               for c in itertools.combinations(ground, r)]
    for u2 in subsets:
        for v2 in subsets:
            if len(u2) != len(v2):
                continue
            iso = dict(zip(u2, v2))
            wu2, wv2 = wmap.image(u2), wmap.image(v2)
            carry = dict(zip(wu2, wv2)) if len(wu2) == len(wv2) else None
            for r in range(len(u2) + 1):
                for u1 in itertools.combinations(u2, r):
                    v1 = tuple(sorted(iso[i] for i in u1))
                    transports += 1
                    if carry is None:
                        transport_bad.append((u1, u2, v1, v2))
                        continue
                    moved = set()
                    ok = True
                    for i in wmap.image(u1):
                        if i not in carry:
                            ok = False
                            break
                        moved.add(carry[i])
                    if not ok or moved != set(wmap.image(v1)):
                        transport_bad.append((u1, u2, v1, v2))
    return WMapLawReport(
        valid=not inter_bad and not transport_bad,
        intersection_violations=tuple(inter_bad),
        transport_violations=tuple(transport_bad),
        pairs_checked=pairs,
        transports_checked=transports)
