"""Tail-cone fusion and the dimension-raising pipeline.

A family of colorings is fused onto shared strong subtrees: after the
construction, the ``i``-th coloring's value on any level product of the
subtrees is already determined by the product's ancestors at subtree
level ``i + 1``.  The certificate records those determining tables and a
checker verifies the law literally.

The same staged engine drives a partial variant (only a subset of
coordinates act as the determining base) and a search for subtrees whose
level products are monochromatic.  Stacking the partial variant with the
lower-dimensional dense-set search yields the dimension-raising
pipeline: a coloring of ``(d+1)``-tuples is reduced to colorings of
``d``-tuples along branches, and the votes are reassembled into a
somewhere-dense witness over the constructed subtrees.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass

from .errors import CapExceededError, InvalidInputError, json_integer
from .search import (
    BudgetExhausted,
    StepBudget,
    cross_consistent,
)
from .subtrees import SubtreeReport, ValidationResult, trim, validate_strong_subtree
from .trees import node_key
from .witness import (
    Coloring,
    SomewhereDenseWitness,
    check_somewhere_dense_witness,
    dshl_search,
    first_level,
)

# ---------------------------------------------------------------------------
# staged growth engine


@dataclass(frozen=True)
class GrowOutcome:
    success: bool
    reports: tuple[SubtreeReport, ...] | None
    failure: str = ""
    capped: bool = False


def grow_shared_subtrees(views, roots, height_goal, stage_factory, budget,
                         on_stage=None, transcript=None, label="grow"):
    """Grow strong subtrees of the given trees over one shared level set.

    ``views`` holds one leveled tree per coordinate: a ``TreeSpace``, or a
    ``SubtreeReport`` whose levels are its witnessing levels.  Each stage
    extends every successor of the previous layer to a common higher
    level: ``first_level`` scans candidate levels upward, and the first
    canonically least choice vector accepted by the predicate
    ``stage_factory(stage, level_set, layers)`` wins.  The factory is
    called once per level tried.  ``on_stage`` runs after every committed
    stage above the root (stage 1 on; the root stage commits nothing to
    record) so callers can record tables the later stages constrain.
    """
    d = len(views)
    if len(roots) != d:
        raise InvalidInputError(f"need one root per tree: {d} trees, "
                                f"{len(roots)} roots")
    root_levels = {views[j].level_of(roots[j]) for j in range(d)}
    if len(root_levels) != 1:
        raise InvalidInputError("roots must sit at one common view level")
    height = min(v.height for v in views)
    if height_goal < 1:
        raise InvalidInputError(f"height goal must be positive, got {height_goal}")
    level_set = [root_levels.pop()]
    layers = [[(roots[j],) for j in range(d)]]
    while len(level_set) < height_goal:
        alpha = len(level_set) - 1
        if level_set[alpha] + 1 >= height:
            return GrowOutcome(False, None,
                               f"{label}: truncation exhausted before stage "
                               f"{alpha + 1}")
        successors = []
        for j in range(d):
            per = []
            for node in layers[alpha][j]:
                per.extend(views[j].extensions(node, level_set[alpha] + 1))
            successors.append(tuple(per))
        if any(not per for per in successors):
            return GrowOutcome(False, None,
                               f"{label}: a stage-{alpha} node does not split")
        slots = [(j, u) for j in range(d) for u in successors[j]]
        try:
            picked = first_level(
                slots, range(level_set[alpha] + 1, height),
                lambda chi: {(j, u): views[j].extensions(u, chi) for (j, u) in slots},
                lambda chi: stage_factory(alpha + 1, tuple(level_set), layers),
                budget)
        except BudgetExhausted:
            return GrowOutcome(False, None,
                               f"{label}: budget exhausted during stage {alpha + 1}",
                               capped=True)
        if picked is None:
            return GrowOutcome(False, None,
                               f"{label}: no admissible level for stage {alpha + 1}")
        chi, assignment = picked
        layer = [tuple(sorted((assignment[(j, u)] for u in successors[j]),
                              key=node_key))
                 for j in range(d)]
        level_set.append(chi)
        layers.append(layer)
        if transcript is not None:
            transcript.append({"event": f"{label}-stage", "stage": alpha + 1,
                               "view_level": chi,
                               "nodes": [list(layer[j]) for j in range(d)]})
        if on_stage is not None:
            on_stage(alpha + 1, level_set, layers)
    return GrowOutcome(True, tuple(
        _view_report(views[j], [n for layer in layers for n in layer[j]], level_set)
        for j in range(d)))


def _view_report(view, nodes, levels) -> SubtreeReport:
    """The subtree of ``view``'s ambient space with ``nodes`` on view ``levels``."""
    return SubtreeReport(space=view.ambient_space, nodes=tuple(nodes),
                         level_set=tuple(view.ambient_level(xi) for xi in levels))


# ---------------------------------------------------------------------------
# coloring families and tail-cone certificates


class ColoringFamily:
    """A finite sequence of colorings sharing one arity and factor product."""

    def __init__(self, members, spaces=None):
        self.members = tuple(members)
        if self.members:
            arities = {c.arity for c in self.members}
            if len(arities) != 1:
                raise InvalidInputError(
                    f"family members must share one arity, got {sorted(arities)}"
                )
            self.arity = arities.pop()
            self.spaces = (tuple(self.members[0].spaces) if spaces is None
                           else tuple(spaces))
            if len(self.spaces) != self.arity:
                raise InvalidInputError(
                    f"family arity {self.arity} but {len(self.spaces)} spaces given"
                )
        else:
            if not spaces:
                raise InvalidInputError("an empty family needs explicit factor spaces")
            self.spaces = tuple(spaces)
            self.arity = len(self.spaces)

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __getitem__(self, i) -> Coloring:
        return self.members[i]


@dataclass(frozen=True)
class TailConeCertificate:
    """Shared subtrees plus the determining tables, one per coloring.

    ``tables[i]`` maps each subtree level-``(i+1)`` product tuple to the
    color that coloring ``i`` must take on every higher level product
    restricting to it.
    """

    reports: tuple[SubtreeReport, ...]
    tables: tuple[dict, ...]

    def __post_init__(self):
        object.__setattr__(self, "reports", tuple(self.reports))
        object.__setattr__(self, "tables",
                          tuple(dict(t) for t in self.tables))

    def to_json(self) -> dict:
        return {"reports": [r.to_json() for r in self.reports],
                "tables": [{",".join(k): v for k, v in sorted(t.items())}
                           for t in self.tables]}

    @classmethod
    def from_json(cls, doc, spaces) -> "TailConeCertificate":
        reports = tuple(SubtreeReport.from_json(r, s)
                        for r, s in zip(doc["reports"], spaces))
        if not all(isinstance(t, dict) for t in doc["tables"]):
            raise InvalidInputError("certificate tables must be objects")
        what = "each color of a certificate table"
        tables = tuple({tuple(k.split(",")): json_integer(v, what)
                        for k, v in t.items()} for t in doc["tables"])
        return cls(reports=reports, tables=tables)


def check_tail_cone(certificate: TailConeCertificate,
                    family: ColoringFamily) -> ValidationResult:
    """Verify the determining law of every table, quantifier by quantifier."""
    reports = certificate.reports
    if len(reports) != family.arity:
        raise InvalidInputError(
            f"certificate has {len(reports)} subtrees, family arity {family.arity}"
        )
    if len(certificate.tables) != len(family):
        raise InvalidInputError(
            f"certificate has {len(certificate.tables)} tables for "
            f"{len(family)} colorings"
        )
    level_sets = {r.level_set for r in reports}
    if len(level_sets) != 1:
        raise InvalidInputError("certificate subtrees must share one level set")
    violations: list[str] = []
    for idx, report in enumerate(reports):
        structural = validate_strong_subtree(report)
        if not structural.valid:
            violations.extend(f"subtree {idx}: {v}" for v in structural.violations)
    h = reports[0].height
    if len(family) > h - 1:
        violations.append(
            f"{len(family)} colorings need subtree height {len(family) + 1}, got {h}"
        )
        return ValidationResult(False, tuple(violations))
    for i in range(len(family)):
        table = certificate.tables[i]
        for tup in itertools.product(*(r.level(i + 1) for r in reports)):
            if tup not in table:
                violations.append(f"table {i} is missing entry {tup}")
        for xi in range(i + 1, h):
            levels = [r.level(xi) for r in reports]
            evaluate = family[i].on_product(levels)
            # cuts[j][k]: levels[j][k]'s restriction to subtree level i + 1
            cuts = [[r.restrict(node, i + 1) for node in level]
                    for r, level in zip(reports, levels)]
            for tup, key in zip(itertools.product(*levels),
                                itertools.product(*cuts)):
                if key not in table:
                    continue
                got = evaluate(tup)
                if got != table[key]:
                    violations.append(
                        f"coloring {i} at {tup}: color {got}, table says {table[key]}"
                    )
    return ValidationResult(not violations, tuple(violations))


@dataclass(frozen=True)
class FuseOutcome:
    success: bool
    certificate: TailConeCertificate | None
    failure: str = ""
    capped: bool = False

    def to_json(self) -> dict:
        return {"success": self.success,
                "certificate": (self.certificate.to_json()
                                if self.certificate else None),
                "failure": self.failure,
                "capped": self.capped}


def fuse(family: ColoringFamily, h=None, budget: StepBudget | None = None,
         transcript=None) -> FuseOutcome:
    """Build shared subtrees making every family member tail-cone determined.

    Stage ``i + 1`` fixes table ``i`` freely on the new level products;
    later stages must extend so that every already-recorded table keeps
    its law.  Candidate levels are scanned upward, so the level set is
    the canonically least one the construction can realize.
    """
    budget = budget or StepBudget()
    views = family.spaces
    m = len(family)
    height = min(v.height for v in views)
    if h is None:
        h = m + 1
    if h < m + 1:
        raise InvalidInputError(
            f"{m} colorings need at least {m + 1} subtree levels, got {h}"
        )
    if h > height:
        raise InvalidInputError(f"height goal {h} exceeds tree height {height}")
    d = family.arity
    tables: list[dict] = [dict() for _ in range(m)]

    def stage_factory(stage, level_set, layers):
        bind = min(stage - 1, m)
        if bind == 0:
            return lambda partial, slot, choice: True

        def accept(tup):
            for beta in range(bind):
                key = tuple(views[k].restrict(tup[k], level_set[beta + 1])
                            for k in range(d))
                if family[beta].evaluate(tup) != tables[beta][key]:
                    return False
            return True

        return cross_consistent(d, accept, True)

    def on_stage(stage, level_set, layers):
        idx = stage - 1
        if idx < m:
            for tup in itertools.product(*(layers[stage][j] for j in range(d))):
                tables[idx][tup] = family[idx].evaluate(tup)

    outcome = grow_shared_subtrees(views, tuple(v.root for v in views), h,
                                   stage_factory, budget, on_stage=on_stage,
                                   transcript=transcript, label="fuse")
    if not outcome.success:
        return FuseOutcome(False, None, failure=outcome.failure,
                           capped=outcome.capped)
    certificate = TailConeCertificate(reports=outcome.reports,
                                      tables=tuple(tables))
    return FuseOutcome(True, certificate)


# ---------------------------------------------------------------------------
# partial tail-cone application


@dataclass(frozen=True)
class PartialOutcome:
    """Subtrees and table for the partial determining law.

    For a tuple splitting into base coordinates ``t`` (deepest subtree
    level ``xi``) and complement coordinates ``y`` all at subtree levels
    above ``xi``, the coloring's value equals the recorded value at
    ``(t, y restricted to level xi + 1)``.
    """

    success: bool
    reports: tuple[SubtreeReport, ...] | None
    base_coords: tuple[int, ...]
    table: dict | None
    check: ValidationResult | None
    failure: str = ""
    capped: bool = False

    def to_json(self) -> dict:
        table = None
        if self.table is not None:
            table = {"|".join([",".join(t), ",".join(v)]): c
                     for (t, v), c in sorted(self.table.items())}
        return {"success": self.success,
                "reports": ([r.to_json() for r in self.reports]
                            if self.reports else None),
                "base_coords": list(self.base_coords),
                "table": table,
                "check": self.check.to_json() if self.check else None,
                "failure": self.failure,
                "capped": self.capped}


def check_partial_tailcone(reports, coloring: Coloring, base_coords,
                           table) -> ValidationResult:
    """Direct scan of the partial determining law over all in-range tuples."""
    d = coloring.arity
    base_list = sorted(base_coords)
    comp_list = [k for k in range(d) if k not in set(base_list)]
    h = reports[0].height
    violations: list[str] = []
    pools = [tuple((node, xi) for xi in range(h) for node in reports[k].level(xi))
             for k in range(d)]
    for combo in itertools.product(*pools):
        xi = max(combo[k][1] for k in base_list)
        if xi + 1 >= h:
            continue
        if any(combo[k][1] < xi + 1 for k in comp_list):
            continue
        t_key = tuple(combo[k][0] for k in base_list)
        v_key = tuple(reports[k].restrict(combo[k][0], xi + 1) for k in comp_list)
        want = table.get((t_key, v_key))
        tup = tuple(combo[k][0] for k in range(d))
        if want is None:
            violations.append(f"missing table entry for {t_key} | {v_key}")
            continue
        got = coloring.evaluate(tup)
        if got != want:
            violations.append(
                f"tuple {tup}: color {got}, table says {want} at {t_key} | {v_key}"
            )
    return ValidationResult(not violations, tuple(violations))


def apply_tailcone_partial(coloring: Coloring, base_coords,
                           h=None, budget: StepBudget | None = None,
                           transcript=None) -> PartialOutcome:
    """Shared subtrees on which the coloring obeys the partial tail-cone law.

    Base-coordinate extensions are never constrained at their own stage
    (their tuples' table rows are recorded one stage later), so those
    slots go canonically least.  Complement extensions must respect every
    row already recorded.  The construction ends with a full direct check
    of the law on the output.
    """
    budget = budget or StepBudget()
    views = coloring.spaces
    d = coloring.arity
    if coloring.domain != "full":
        raise InvalidInputError("the partial law quantifies over mixed-height "
                                "tuples; a full-domain coloring is required")
    base_set = set(base_coords)
    if not base_set or base_set >= set(range(d)) or not base_set <= set(range(d)):
        raise InvalidInputError(
            f"base coordinates must be a nonempty proper subset of range({d}), "
            f"got {sorted(base_set)}"
        )
    base_list = sorted(base_set)
    comp_list = [k for k in range(d) if k not in base_set]
    height = min(v.height for v in views)
    if h is None:
        h = height
    if h < 2:
        raise InvalidInputError(f"need at least two subtree levels, got {h}")
    table: dict = {}

    def stage_factory(stage, level_set, layers):
        fixed = [[node for lvl in range(stage) for node in layers[lvl][k]]
                 for k in range(d)]
        level_of = [{node: lvl for lvl in range(stage) for node in layers[lvl][k]}
                    for k in range(d)]

        def accept(tup):
            # nodes outside the committed layers sit at this stage's level
            lvls = [level_of[k].get(tup[k], stage) for k in range(d)]
            xi = max(lvls[k] for k in base_list)
            if xi + 1 >= stage or any(lvls[k] < xi + 1 for k in comp_list):
                return True
            t_key = tuple(tup[k] for k in base_list)
            v_key = tuple(views[k].restrict(tup[k], level_set[xi + 1])
                          for k in comp_list)
            want = table.get((t_key, v_key))
            return want is None or coloring.evaluate(tup) == want

        agree = cross_consistent(d, accept, True, fixed)

        def consistent(partial, slot, choice):
            return slot[0] in base_set or agree(partial, slot, choice)

        return consistent

    def on_stage(stage, level_set, layers):
        base_pools = [
            tuple((node, lvl) for lvl in range(stage) for node in layers[lvl][k])
            for k in base_list
        ]
        comp_pools = [layers[stage][k] for k in comp_list]
        for bcombo in itertools.product(*base_pools):
            if max(lvl for (_, lvl) in bcombo) != stage - 1:
                continue
            t_key = tuple(node for (node, _) in bcombo)
            for vcombo in itertools.product(*comp_pools):
                tup = [None] * d
                for pos, k in enumerate(base_list):
                    tup[k] = t_key[pos]
                for pos, k in enumerate(comp_list):
                    tup[k] = vcombo[pos]
                table[(t_key, tuple(vcombo))] = coloring.evaluate(tuple(tup))

    outcome = grow_shared_subtrees(views, tuple(v.root for v in views), h,
                                   stage_factory, budget, on_stage=on_stage,
                                   transcript=transcript, label="partial")
    if not outcome.success:
        return PartialOutcome(False, None, tuple(base_list), None, None,
                              failure=outcome.failure, capped=outcome.capped)
    check = check_partial_tailcone(outcome.reports, coloring, base_list, table)
    if not check.valid:
        return PartialOutcome(False, outcome.reports, tuple(base_list), table,
                              check, failure="constructed subtrees fail the "
                              "partial determining law")
    return PartialOutcome(True, outcome.reports, tuple(base_list), table, check)


# ---------------------------------------------------------------------------
# monochromatic level products


@dataclass(frozen=True)
class HLOutcome:
    success: bool
    reports: tuple[SubtreeReport, ...] | None
    color: int | None
    failure: str = ""
    capped: bool = False

    def to_json(self) -> dict:
        return {"success": self.success,
                "reports": ([r.to_json() for r in self.reports]
                            if self.reports else None),
                "color": self.color,
                "failure": self.failure,
                "capped": self.capped}


def hl_search(coloring: Coloring, h=None, budget: StepBudget | None = None,
              transcript=None) -> HLOutcome:
    """Strong subtrees whose level products all get one color.

    Root tuples are scanned canonically (root level, then product
    order); the root tuple's own color is the target, so homogeneity
    holds at every subtree level including the roots.
    """
    budget = budget or StepBudget()
    views = coloring.spaces
    d = coloring.arity
    height = min(v.height for v in views)
    if h is None:
        h = height
    for rho in range(height):
        for roots in itertools.product(*(v.level(rho) for v in views)):
            gamma = coloring.evaluate(roots)

            def stage_factory(stage, level_set, layers):
                return cross_consistent(d, coloring.evaluate, gamma)

            outcome = grow_shared_subtrees(views, roots, h, stage_factory,
                                           budget, transcript=transcript,
                                           label="hl")
            if outcome.success:
                return HLOutcome(True, outcome.reports, gamma)
            if outcome.capped:
                return HLOutcome(False, None, None,
                                 failure=outcome.failure, capped=True)
    return HLOutcome(False, None, None,
                     failure="no root tuple grows a monochromatic product "
                             f"of height {h}")


# ---------------------------------------------------------------------------
# dimension raising


@dataclass(frozen=True)
class InductionOutcome:
    success: bool
    witness: SomewhereDenseWitness | None
    reports: tuple[SubtreeReport, ...] | None
    check: ValidationResult | None
    votes: tuple | None
    failure: str = ""
    capped: bool = False

    def to_json(self) -> dict:
        return {"success": self.success,
                "witness": self.witness.to_json() if self.witness else None,
                "reports": ([r.to_json() for r in self.reports]
                            if self.reports else None),
                "check": self.check.to_json() if self.check else None,
                "votes": ([{"base_level": b, "base": list(t), "color": g,
                            "count": c} for (b, t, g), c in self.votes]
                          if self.votes else None),
                "failure": self.failure,
                "capped": self.capped}


def _branches(view):
    chains = [(view.root,)]
    for xi in range(1, view.height):
        chains = [chain + (ext,) for chain in chains
                  for ext in view.extensions(chain[-1], xi)]
    return chains


def _induction_tail(coloring, tview, uviews, s, tbar, beta, gamma, budget):
    """Per-cone staged extension producing the final witness matrices.

    Cones above ``s`` are handled one at a time: each gets a node above
    it together with a fresh layer of the per-cone chains over the other
    coordinates, every cross product colored ``gamma``.  Chains are
    nested, so the last layer restricts into every earlier one; that
    makes the last layer a single matrix working for all chosen nodes.
    """
    d = len(uviews)
    cones0 = tview.extensions(s, beta + 2)
    cone_reps = [uviews[k].extensions(tbar[k], beta + 1) for k in range(d)]
    if any(not reps for reps in cone_reps):
        return None
    slots = [(k, v) for k in range(d) for v in cone_reps[k]]
    current = {(k, v): v for (k, v) in slots}
    cursor = beta + 2
    s_primes = []
    u_height = min(v.height for v in uviews)
    for u in cones0:
        # a level is a chain level xi with a node s' above u at or below it
        found = first_level(
            slots,
            ((xi, sp) for xi in range(cursor, u_height)
             for lam in range(beta + 2, xi + 1) for sp in tview.extensions(u, lam)),
            lambda level: {(k, v): uviews[k].extensions(current[(k, v)], level[0])
                           for (k, v) in slots},
            lambda level: cross_consistent(
                d, lambda tup: coloring.evaluate((level[1],) + tup), gamma),
            budget)
        if found is None:
            return None
        (xi, sp), assignment = found
        s_primes.append(sp)
        current = dict(assignment)
        cursor = xi
    matrix0 = tuple(sorted(s_primes, key=node_key))
    rest = tuple(
        tuple(sorted({current[(k, v)] for v in cone_reps[k]}, key=node_key))
        for k in range(d))
    return matrix0, rest


def dimension_induction(coloring: Coloring, h=None,
                        budget: StepBudget | None = None,
                        transcript=None) -> InductionOutcome:
    """Somewhere-dense witness for a higher-arity coloring, by reduction.

    Pipeline: make coordinate 0 the determining base of a partial
    tail-cone law; trim the remaining coordinates one level so the law
    aligns their levels with coordinate 0; color the trimmed product
    along each branch of coordinate 0 and run the dense-set search
    there; take the most voted base and color; then reassemble cones
    above a node one level past the base into a mixed-height matrix.
    The result is validated by the somewhere-dense checker over the
    constructed subtrees before it is returned.  One step budget covers
    the whole pipeline.
    """
    budget = budget or StepBudget()
    if coloring.arity < 2:
        raise InvalidInputError("dimension raising needs arity at least 2")
    if coloring.domain != "full":
        raise InvalidInputError("a full-domain coloring is required")
    part = apply_tailcone_partial(coloring, (0,), h, budget, transcript)
    if not part.success:
        return InductionOutcome(False, None, None, None, None,
                                failure=f"tail-cone step failed: {part.failure}",
                                capped=part.capped)
    reports = part.reports
    level_set = reports[0].level_set
    tview = reports[0]
    uviews = [trim(r, level_set[1:]) for r in reports[1:]]

    votes: Counter = Counter()
    for chain in _branches(tview):

        def branch_fn(tup, chain=chain):
            zeta = uviews[0].level_of(tup[0])
            return coloring.evaluate((chain[zeta],) + tuple(tup))

        branch_coloring = Coloring(coloring.colors, uviews, branch_fn,
                                   domain="level")
        try:
            found = dshl_search(branch_coloring, budget)
        except CapExceededError:
            return InductionOutcome(
                False, None, reports, None, None,
                failure="budget exhausted during the branch searches",
                capped=True)
        if found is not None:
            base, color = found
            beta = uviews[0].level_of(base[0])
            # the reassembly needs chain room: matrices live at trimmed
            # levels in [beta + 2, height - 2]
            if beta + 4 <= tview.height:
                votes[(beta, base, color)] += 1
    if transcript is not None:
        transcript.append({"event": "induct-votes",
                           "votes": [{"base_level": b, "base": list(t),
                                      "color": g, "count": c}
                                     for (b, t, g), c in sorted(votes.items())]})
    ordered = sorted(votes.items(), key=lambda kv: (-kv[1], kv[0]))
    if not ordered:
        return InductionOutcome(
            False, None, reports, None, None,
            failure="no branch admits a dense-set witness")

    for (beta, tbar, gamma), _count in ordered:
        for s in tview.level(beta + 1):
            try:
                tail = _induction_tail(coloring, tview, uviews, s, tbar, beta,
                                       gamma, budget)
            except BudgetExhausted:
                return InductionOutcome(
                    False, None, reports, None, tuple(ordered),
                    failure="budget exhausted during cone reassembly",
                    capped=True)
            if tail is None:
                continue
            matrix0, rest = tail
            witness = SomewhereDenseWitness(
                base=(s,) + tuple(tbar), matrix=(matrix0,) + rest,
                density_level=beta + 2, color=gamma)
            check = check_somewhere_dense_witness(witness, coloring, reports)
            if transcript is not None:
                transcript.append({"event": "induct-witness",
                                   "witness": witness.to_json(),
                                   "valid": check.valid})
            if check.valid:
                return InductionOutcome(True, witness, reports, check,
                                        tuple(ordered))
            return InductionOutcome(
                False, witness, reports, check, tuple(ordered),
                failure="reassembled witness fails the somewhere-dense check")
    return InductionOutcome(False, None, reports, None, tuple(ordered),
                            failure="no vote candidate reassembles into a witness")
