"""Strong subtrees of a truncated tree.

A strong subtree is described by a :class:`SubtreeReport`: a node set
together with the witnessing level set ``a_0 < a_1 < ... < a_{h-1}``.
Validity means:

* every node sits on one of the witnessing levels;
* there is exactly one node on level ``a_0`` (the root) and every other
  node extends it, with its whole predecessor chain through the
  witnessing levels present;
* for every subtree node ``s`` below the top subtree level and every
  immediate successor ``t`` of ``s`` in the ambient tree, exactly one
  subtree node on the next witnessing level extends ``t``.

The second clause is what makes the subtree "strong": it splits exactly
as the ambient tree does, one level-set step at a time.

A strong subtree is a leveled tree in its own right: its level ``xi`` is
its witnessing level ``a_xi``.  :class:`SubtreeReport` answers the same
queries as :class:`~hl_lab.trees.TreeSpace` over those levels, and
``ambient_level(xi)`` gives ``a_xi``.  Nodes stay ambient digit strings,
so colorings always evaluate ambient nodes.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

from .errors import (
    InvalidInputError,
    OutOfRangeError,
    UnknownNodeError,
    json_integer,
)
from .trees import TreeSpace, sort_nodes


@dataclass(frozen=True)
class SubtreeReport:
    """Node set plus witnessing level set, relative to an ambient space."""

    space: TreeSpace
    nodes: tuple[str, ...]
    level_set: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "nodes", sort_nodes(self.nodes))
        object.__setattr__(self, "level_set", tuple(int(a) for a in self.level_set))

    @classmethod
    def from_json(cls, doc, space: TreeSpace) -> "SubtreeReport":
        if not isinstance(doc, dict) or "nodes" not in doc or "level_set" not in doc:
            raise InvalidInputError(
                "subtree document must be an object with 'nodes' and 'level_set'"
            )
        nodes = tuple(doc["nodes"])
        if not all(isinstance(node, str) for node in nodes):
            raise InvalidInputError("subtree nodes must be strings")
        levels = tuple(json_integer(a, "each entry of subtree field 'level_set'")
                       for a in doc["level_set"])
        return cls(space=space, nodes=nodes, level_set=levels)

    def to_json(self) -> dict:
        return {"nodes": list(self.nodes), "level_set": list(self.level_set)}

    # -- leveled-tree queries -----------------------------------------
    # one index per report, built on first use, serves every reader

    @cached_property
    def _levels(self) -> tuple[tuple[str, ...], ...]:
        by_length: dict[int, list[str]] = {}
        for node in self.nodes:
            by_length.setdefault(len(node), []).append(node)
        return tuple(tuple(by_length.get(a, ())) for a in self.level_set)

    @cached_property
    def _members(self) -> frozenset:
        return frozenset(self.nodes)

    @property
    def height(self) -> int:
        return len(self.level_set)

    @property
    def ambient_space(self) -> TreeSpace:
        return self.space

    def ambient_level(self, xi: int) -> int:
        if xi < 0 or xi >= len(self.level_set):
            raise OutOfRangeError(f"subtree level {xi} outside level set {self.level_set}")
        return self.level_set[xi]

    def level(self, xi: int) -> tuple[str, ...]:
        """Subtree nodes at subtree level ``xi`` (ambient level ``a_xi``)."""
        if xi < 0 or xi >= len(self.level_set):
            raise OutOfRangeError(f"subtree level {xi} outside level set {self.level_set}")
        return self._levels[xi]

    def contains(self, node: str) -> bool:
        return node in self._members

    def extensions(self, node: str, xi: int) -> tuple[str, ...]:
        """Subtree nodes at subtree level ``xi`` extending the member ``node``."""
        if node not in self._members:
            raise UnknownNodeError(f"node {node!r} not in subtree")
        return tuple(m for m in self.level(xi) if m.startswith(node))

    def level_of(self, node: str) -> int:
        if node not in self._members:
            raise UnknownNodeError(f"node {node!r} not in subtree")
        try:
            return self.level_set.index(len(node))
        except ValueError:
            raise UnknownNodeError(f"node {node!r} is on no level of the subtree") from None

    def restrict(self, node: str, xi: int) -> str:
        """The member's predecessor at subtree level ``xi``."""
        if node not in self._members:
            raise UnknownNodeError(f"node {node!r} not in subtree")
        ambient = self.ambient_level(xi)
        if ambient > len(node):
            raise OutOfRangeError(f"cannot restrict {node!r} to subtree level {xi}")
        return node[:ambient]

    @property
    def root(self) -> str:
        roots = self.level(0)
        if len(roots) != 1:
            raise InvalidInputError(
                f"subtree has {len(roots)} nodes on its first level; expected one root"
            )
        return roots[0]


@dataclass(frozen=True)
class ValidationResult:
    valid: bool
    violations: tuple[str, ...]

    def to_json(self) -> dict:
        return {"valid": self.valid, "violations": list(self.violations)}


def _check_level_set(levels, space: TreeSpace) -> None:
    if not levels:
        raise InvalidInputError("level set may not be empty")
    if list(levels) != sorted(set(levels)):
        raise InvalidInputError(f"level set must be strictly increasing, got {levels}")
    if levels[-1] >= space.height:
        raise OutOfRangeError(
            f"level set {levels} reaches outside the truncation of height {space.height}"
        )


def validate_strong_subtree(report: SubtreeReport) -> ValidationResult:
    """Check the strong-subtree clauses; violations name the offenders."""
    space = report.space
    levels = report.level_set
    _check_level_set(levels, space)
    for node in report.nodes:
        if not space.contains(node):
            raise UnknownNodeError(f"node {node!r} not in ambient space")

    violations: list[str] = []
    level_pos = {a: i for i, a in enumerate(levels)}
    node_set = report._members
    for node in report.nodes:
        if len(node) not in level_pos:
            violations.append(
                f"node {node!r} sits at ambient level {len(node)}, "
                f"not on a witnessing level"
            )
    if violations:
        return ValidationResult(False, tuple(violations))

    per_level = report._levels
    if len(per_level[0]) != 1:
        violations.append(
            f"expected exactly one node at root level {levels[0]}, "
            f"found {len(per_level[0])}"
        )
        return ValidationResult(False, tuple(violations))
    root = per_level[0][0]

    for node in report.nodes:
        if not node.startswith(root):
            violations.append(f"node {node!r} does not extend the root {root!r}")
            continue
        # predecessor chain through the witnessing levels
        xi = level_pos[len(node)]
        for lower in levels[:xi]:
            if node[:lower] not in node_set:
                violations.append(
                    f"node {node!r} lacks its predecessor at witnessing level {lower}"
                )

    # splitting clause: each ambient successor extends to exactly one node;
    # successors of level-``a_xi`` nodes have length ``a_xi + 1``
    for xi in range(len(levels) - 1):
        width = levels[xi] + 1
        extensions = Counter(m[:width] for m in set(per_level[xi + 1]))
        for node in per_level[xi]:
            for succ in space.extensions(node, len(node) + 1):
                count = extensions[succ]
                if count != 1:
                    violations.append(
                        f"successor {succ!r} of {node!r} has {count} extensions "
                        f"at witnessing level {levels[xi + 1]}; expected exactly one"
                    )
    return ValidationResult(not violations, tuple(violations))


def _strong_node_sets(space: TreeSpace, levels):
    """Yield each strong subtree on ``levels`` as one canonical node tuple,
    grown layer by layer: one extension per ambient successor of each
    layer node, in product order; the sorted layers concatenate canonically.
    """
    def grow(nodes, layer, targets):
        if not targets:
            yield nodes
            return
        slots = [space.extensions(succ, targets[0])
                 for node in layer for succ in space.extensions(node, len(node) + 1)]
        for pick in itertools.product(*slots):
            nxt = sort_nodes(pick)
            yield from grow(nodes + nxt, nxt, targets[1:])

    for root in space.level(levels[0]):
        yield from grow((root,), (root,), levels[1:])


def enumerate_strong_subtrees(space: TreeSpace, level_set):
    """Yield every strong subtree with the given witnessing level set.

    Deterministic order: roots scan canonically, then extension choices
    scan in canonical node order, successor by successor.
    """
    levels = tuple(int(a) for a in level_set)
    _check_level_set(levels, space)
    for nodes in _strong_node_sets(space, levels):
        yield SubtreeReport(space=space, nodes=nodes, level_set=levels)


def trim(report: SubtreeReport, level_subset) -> SubtreeReport:
    """Shrink a strong subtree to a subset of its witnessing levels.

    When levels are skipped the construction keeps, for each ambient
    successor, the canonically least extension available inside the
    original subtree; trimming to the full level set is the identity.
    """
    target = tuple(int(a) for a in level_subset)
    if not target:
        raise InvalidInputError("level subset may not be empty")
    if not set(target) <= set(report.level_set):
        raise InvalidInputError(
            f"levels {target} are not a subset of the witnessing set {report.level_set}"
        )
    if list(target) != sorted(set(target)):
        raise InvalidInputError(f"level subset must be strictly increasing, got {target}")

    space = report.space

    def members_at(ambient_level, above):
        level = report.level(report.level_set.index(ambient_level))
        return tuple(n for n in level if n.startswith(above))

    if target[0] == report.level_set[0]:
        root = report.root
    else:
        root = members_at(target[0], "")[0]

    chosen = [root]
    current = [root]
    for nxt in target[1:]:
        stage = []
        for node in current:
            for succ in space.extensions(node, len(node) + 1):
                candidates = members_at(nxt, succ)
                if not candidates:
                    raise InvalidInputError(
                        f"subtree has no extension of {succ!r} at level {nxt}; "
                        f"is the report a valid strong subtree?"
                    )
                stage.append(candidates[0])
        stage = sort_nodes(stage)
        chosen.extend(stage)
        current = stage
    return SubtreeReport(space=space, nodes=tuple(chosen), level_set=target)


def subtree_restrict(seq, i: int, reports) -> tuple[str, ...]:
    """Restrict a level sequence to subtree level ``i``, coordinatewise.

    ``reports`` carries one :class:`SubtreeReport` per coordinate; the
    result's ``j``-th entry is the unique predecessor of ``seq[j]`` inside
    its subtree at subtree level ``i``.
    """
    if len(seq) != len(reports):
        raise InvalidInputError(
            f"sequence has {len(seq)} coordinates but {len(reports)} reports given"
        )
    out = []
    for j, (node, rep) in enumerate(zip(seq, reports)):
        if not rep.contains(node):
            raise UnknownNodeError(f"coordinate {j}: node {node!r} not in its subtree")
        try:
            xi = rep.level_set.index(len(node))
        except ValueError:
            raise UnknownNodeError(
                f"coordinate {j}: node {node!r} is not on a witnessing level"
            ) from None
        if i > xi:
            raise OutOfRangeError(
                f"coordinate {j}: cannot restrict to subtree level {i}, "
                f"node sits at subtree level {xi}"
            )
        out.append(node[: rep.level_set[i]])
    return tuple(out)
