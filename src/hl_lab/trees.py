"""Truncated rooted trees of finite sequences.

A node is a string of ASCII digits below the branching: ``""`` is the
root, ``"010"`` is the node at height 3 whose digits are 0, 1, 0.  A
:class:`TreeSpace` is a finite truncation holding every node of height
below ``height``.  Uniform mode covers the full ``branching``-ary tree;
explicit mode carries a concrete node set (closed under prefixes,
containing the root, reaching the top level ``height - 1``, and well
pruned: every node below the top level has at least one immediate
successor).

Level ``alpha`` of a :class:`TreeSpace` is plain height: the nodes of
length ``alpha``.  A strong subtree's levels are its witnessing levels
(:mod:`hl_lab.subtrees`).  Both answer the same leveled-tree queries
(``level``, ``extensions``, ``level_of``, ``restrict``, ``contains``,
``root``, ``height``, ``ambient_space``, ``ambient_level``), so searches
and checkers read either kind of factor alike.

All functions that emit node sets emit them sorted by ``(height, digits)``
so equal inputs produce byte-identical output.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cache, cached_property, lru_cache

from .errors import (
    InvalidInputError,
    OutOfRangeError,
    UnknownNodeError,
    UnsupportedAlphabetError,
    json_integer,
)

# wire format uses one character per digit: the ASCII digits below the branching
MAX_BRANCHING = 10
DIGITS = "0123456789"


def node_key(node: str) -> tuple[int, str]:
    """Canonical sort key: height first, then digits."""
    return (len(node), node)


def check_node(node: str, branching: int) -> None:
    outside = node.lstrip(DIGITS[:branching])
    if outside:
        raise InvalidInputError(
            f"node {node!r} has digit {outside[0]!r} outside alphabet of size {branching}"
        )


def _lex_key(node: str) -> str:
    """Sort key of the lexicographic order on binary nodes.

    Incomparable nodes order at their first disagreement.  When one node
    is a proper prefix of the other, the longer node sorts to the side
    named by its digit just past the shared prefix: ``x+"0" < x < x+"1"``.
    That is plain string order once every node ends in an extra 1.

    Only the binary alphabet is supported; other digits raise
    :class:`UnsupportedAlphabetError`.
    """
    outside = node.lstrip("01")
    if outside:
        raise UnsupportedAlphabetError(f"lexicographic order is defined for binary "
                                       f"nodes only, got digit {outside[0]!r}")
    return node + "1"


def lex_compare(s: str, t: str) -> int:
    """Total lexicographic order on binary nodes; returns -1, 0 or 1."""
    a, b = _lex_key(s), _lex_key(t)
    return (a > b) - (a < b)


@lru_cache(maxsize=None)
def _uniform_level(branching: int, alpha: int) -> tuple[str, ...]:
    return tuple("".join(p) for p in itertools.product(DIGITS[:branching], repeat=alpha))


@dataclass(frozen=True)
class TreeSpace:
    """A truncated tree: levels 0 .. height-1.

    ``nodes`` is None in uniform mode.  Explicit mode may branch
    non-uniformly; ``branching`` is then an upper bound on digits seen.
    """

    branching: int
    height: int
    nodes: tuple[str, ...] | None = field(default=None)

    def __post_init__(self):
        if self.branching < 2 or self.branching > MAX_BRANCHING:
            raise InvalidInputError(
                f"branching must be between 2 and {MAX_BRANCHING}, got {self.branching}"
            )
        if self.height < 1:
            raise InvalidInputError(f"height must be at least 1, got {self.height}")
        if self.nodes is not None:
            self._validate_explicit()

    def _validate_explicit(self) -> None:
        nodes, members = self.nodes, self._members
        if len(members) != len(nodes):
            raise InvalidInputError("explicit node set contains duplicates")
        if "" not in members:
            raise InvalidInputError("explicit node set must contain the root")
        for node in nodes:
            check_node(node, self.branching)
            if len(node) >= self.height:
                raise OutOfRangeError(
                    f"node {node!r} has height {len(node)} outside truncation {self.height}"
                )
            if node and node[:-1] not in members:
                raise InvalidInputError(
                    f"explicit node set is not prefix closed: {node!r} lacks its parent"
                )
        top = max(map(len, nodes))
        if top < self.height - 1:
            # an empty top level would leave empty cones above every node
            raise InvalidInputError(
                f"explicit node set stops at height {top}, below the top "
                f"level {self.height - 1} of truncation {self.height}"
            )
        for level in self._levels[:-1]:
            for node in level:
                if not any(node + ch in members for ch in DIGITS[: self.branching]):
                    raise InvalidInputError(
                        f"explicit node set is not well pruned: {node!r} has no successor"
                    )

    # -- constructors -------------------------------------------------

    @classmethod
    def uniform(cls, branching: int, height: int) -> "TreeSpace":
        return cls(branching=branching, height=height)

    @classmethod
    def explicit(cls, nodes) -> "TreeSpace":
        node_tuple = tuple(sorted(set(nodes), key=node_key))
        if not node_tuple:
            raise InvalidInputError("explicit node set may not be empty")
        branching = max(2, max(map(DIGITS.find, "".join(node_tuple)), default=0) + 1)
        h = max(len(n) for n in node_tuple) + 1
        return cls(branching=branching, height=h, nodes=node_tuple)

    @classmethod
    def from_json(cls, doc) -> "TreeSpace":
        if not isinstance(doc, dict):
            raise InvalidInputError("tree document must be an object")
        if "nodes" in doc:
            return cls.explicit(doc["nodes"])
        try:
            return cls.uniform(*(json_integer(doc[key], f"tree field {key!r}")
                                 for key in ("branching", "height")))
        except KeyError as missing:
            raise InvalidInputError(f"tree document lacks key {missing}") from None

    def to_json(self) -> dict:
        if self.nodes is None:
            return {"branching": self.branching, "height": self.height}
        return {"nodes": list(self.nodes)}

    # -- queries ------------------------------------------------------
    # an explicit space answers from one index, built on first use

    @cached_property
    def _levels(self) -> tuple[tuple[str, ...], ...]:
        by_length: list[list[str]] = [[] for _ in range(self.height)]
        for node in self.nodes:
            by_length[len(node)].append(node)
        return tuple(map(tuple, by_length))

    @cached_property
    def _members(self) -> frozenset:
        return frozenset(self.nodes)

    @property
    def root(self) -> str:
        return ""

    def contains(self, node: str) -> bool:
        if self.nodes is not None:
            return node in self._members
        return len(node) < self.height and not node.strip(DIGITS[: self.branching])

    @property
    def ambient_space(self) -> "TreeSpace":
        return self

    def ambient_level(self, alpha: int) -> int:
        """Level ``alpha`` of the space is ambient level ``alpha``."""
        if alpha < 0 or alpha >= self.height:
            raise OutOfRangeError(
                f"level {alpha} outside truncation of height {self.height}"
            )
        return alpha

    def level_of(self, node: str) -> int:
        if not self.contains(node):
            raise UnknownNodeError(f"node {node!r} not in space")
        return len(node)

    def restrict(self, node: str, alpha: int) -> str:
        """The root-path prefix of ``node`` at height ``alpha``."""
        if alpha < 0 or alpha > len(node):
            raise OutOfRangeError(f"cannot restrict {node!r} to level {alpha}")
        return node[:alpha]

    def level(self, alpha: int) -> tuple[str, ...]:
        """All nodes of height ``alpha``, canonically sorted."""
        if alpha < 0 or alpha >= self.height:
            raise OutOfRangeError(
                f"level {alpha} outside truncation of height {self.height}"
            )
        if self.nodes is None:
            return _uniform_level(self.branching, alpha)
        return self._levels[alpha]

    def extensions(self, node: str, alpha: int) -> tuple[str, ...]:
        """Nodes of height ``alpha`` extending ``node`` (``node`` itself included

        when ``alpha`` equals its height)."""
        if alpha < 0 or alpha >= self.height:
            raise OutOfRangeError(
                f"level {alpha} outside truncation of height {self.height}"
            )
        if not self.contains(node):
            raise UnknownNodeError(f"node {node!r} not in space")
        if alpha < len(node):
            return ()
        if self.nodes is None:
            return tuple(node + suffix
                         for suffix in _uniform_level(self.branching, alpha - len(node)))
        return tuple(n for n in self._levels[alpha] if n.startswith(node))


class ConeMemo:
    """A leveled tree whose ``extensions`` and ``level_of`` answers are memoized.

    Every other query is the wrapped view's.  A search that asks for the
    same cones again, across its bases or attempts, wraps its factors for
    one run.  A memo on every space would not pay: the checkers ask for
    each cone about once.
    """

    def __init__(self, view):
        self.view = view
        self.height = view.height
        self.extensions = cache(view.extensions)
        self.level_of = cache(view.level_of)

    def __getattr__(self, name):
        return getattr(self.view, name)


def restrict(seq, xi: int, space: TreeSpace) -> tuple[str, ...]:
    """Truncate every coordinate of a level sequence to height ``xi``.

    Each coordinate must belong to ``space`` and have height at least
    ``xi``; the result is the tuple of root-path prefixes of length ``xi``.
    """
    out = []
    for node in seq:
        if not space.contains(node):
            raise UnknownNodeError(f"node {node!r} not in space")
        if xi > len(node):
            raise OutOfRangeError(
                f"cannot restrict {node!r} (height {len(node)}) to height {xi}"
            )
        out.append(node[:xi])
    return tuple(out)


def sort_nodes(nodes) -> tuple[str, ...]:
    """Canonical (height, digits) sort used for every emitted node set."""
    return tuple(sorted(nodes, key=node_key))


def lex_sorted(nodes) -> tuple[str, ...]:
    """Sort binary nodes by the lexicographic order of :func:`lex_compare`."""
    return tuple(sorted(nodes, key=_lex_key))
