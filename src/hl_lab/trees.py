"""Truncated rooted trees of finite sequences.

A node is a digit string: ``""`` is the root, ``"010"`` is the node at
height 3 whose digits are 0, 1, 0.  A :class:`TreeSpace` is a finite
truncation holding every node of height below ``height``.  Uniform mode
covers the full ``branching``-ary tree; explicit mode carries a concrete
node set (closed under prefixes, containing the root, reaching the top
level ``height - 1``, and well pruned: every node below the top level has
at least one immediate successor).

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
from functools import cmp_to_key, lru_cache

from .errors import (
    InvalidInputError,
    OutOfRangeError,
    UnknownNodeError,
    UnsupportedAlphabetError,
)

LESS, EQUAL, GREATER = -1, 0, 1

# wire format uses one character per digit
MAX_BRANCHING = 10


def node_key(node: str) -> tuple[int, str]:
    """Canonical sort key: height first, then digits."""
    return (len(node), node)


def height(node: str) -> int:
    return len(node)


def is_prefix(s: str, t: str) -> bool:
    """True when ``s`` lies on the root path of ``t`` (or equals it)."""
    return t.startswith(s)


def check_node(node: str, branching: int) -> None:
    for ch in node:
        if not ch.isdigit() or int(ch) >= branching:
            raise InvalidInputError(
                f"node {node!r} has digit {ch!r} outside alphabet of size {branching}"
            )


def lex_compare(s: str, t: str) -> int:
    """Total lexicographic order on binary nodes; returns -1, 0 or 1.

    Incomparable nodes compare at their first disagreement.  When one node
    is a proper prefix of the other, the longer node sorts to the side
    named by its digit just past the shared prefix, so
    ``x+"0" < x < x+"1"`` for every node ``x``.

    Only the binary alphabet is supported; other digits raise
    :class:`UnsupportedAlphabetError`.
    """
    for ch in itertools.chain(s, t):
        if ch not in "01":
            raise UnsupportedAlphabetError(
                f"lexicographic order is defined for binary nodes only, got digit {ch!r}"
            )
    if s == t:
        return EQUAL
    if len(s) < len(t) and t.startswith(s):
        return LESS if t[len(s)] == "1" else GREATER
    if len(t) < len(s) and s.startswith(t):
        return LESS if s[len(t)] == "0" else GREATER
    for a, b in zip(s, t):
        if a != b:
            return LESS if a < b else GREATER
    raise AssertionError("unreachable")


@lru_cache(maxsize=None)
def _uniform_level(branching: int, alpha: int) -> tuple[str, ...]:
    digits = "0123456789"[:branching]
    return tuple("".join(p) for p in itertools.product(digits, repeat=alpha))


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
        nodes = self.nodes
        node_set = set(nodes)
        if len(node_set) != len(nodes):
            raise InvalidInputError("explicit node set contains duplicates")
        if "" not in node_set:
            raise InvalidInputError("explicit node set must contain the root")
        by_level: dict[int, list[str]] = {}
        for node in nodes:
            check_node(node, self.branching)
            if len(node) >= self.height:
                raise OutOfRangeError(
                    f"node {node!r} has height {len(node)} outside truncation {self.height}"
                )
            if node and node[:-1] not in node_set:
                raise InvalidInputError(
                    f"explicit node set is not prefix closed: {node!r} lacks its parent"
                )
            by_level.setdefault(len(node), []).append(node)
        top = max(by_level)
        if top < self.height - 1:
            # an empty top level would leave empty cones above every node
            raise InvalidInputError(
                f"explicit node set stops at height {top}, below the top "
                f"level {self.height - 1} of truncation {self.height}"
            )
        for alpha in range(top):
            for node in by_level.get(alpha, ()):
                if not any(ch.isdigit() and node + ch in node_set
                           for ch in "0123456789"[: self.branching]):
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
        branching = max((max((int(ch) for ch in n), default=0) for n in node_tuple),
                        default=0) + 1
        branching = max(branching, 2)
        h = max(len(n) for n in node_tuple) + 1
        return cls(branching=branching, height=h, nodes=node_tuple)

    @classmethod
    def from_json(cls, doc) -> "TreeSpace":
        if not isinstance(doc, dict):
            raise InvalidInputError("tree document must be an object")
        if "nodes" in doc:
            return cls.explicit(doc["nodes"])
        try:
            return cls.uniform(int(doc["branching"]), int(doc["height"]))
        except KeyError as missing:
            raise InvalidInputError(f"tree document lacks key {missing}") from None

    def to_json(self) -> dict:
        if self.nodes is None:
            return {"branching": self.branching, "height": self.height}
        return {"nodes": list(self.nodes)}

    # -- queries ------------------------------------------------------

    @property
    def root(self) -> str:
        return ""

    def contains(self, node: str) -> bool:
        if self.nodes is not None:
            return node in self._node_set()
        if len(node) >= self.height:
            return False
        return all(ch.isdigit() and int(ch) < self.branching for ch in node)

    def _node_set(self) -> frozenset:
        cached = getattr(self, "_cached_set", None)
        if cached is None:
            cached = frozenset(self.nodes)
            object.__setattr__(self, "_cached_set", cached)
        return cached

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
        return tuple(n for n in self.nodes if len(n) == alpha)

    def all_nodes(self) -> tuple[str, ...]:
        if self.nodes is not None:
            return self.nodes
        return tuple(
            n for alpha in range(self.height) for n in _uniform_level(self.branching, alpha)
        )

    def successors(self, node: str) -> tuple[str, ...]:
        """Immediate successors of ``node`` present in the space."""
        if not self.contains(node):
            raise UnknownNodeError(f"node {node!r} not in space")
        if len(node) + 1 >= self.height:
            raise OutOfRangeError(
                f"node {node!r} sits at the top level; no successors inside the truncation"
            )
        digits = "0123456789"[: self.branching]
        return tuple(node + ch for ch in digits if self.contains(node + ch))

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
            digits = "0123456789"[: self.branching]
            return tuple(node + "".join(p)
                         for p in itertools.product(digits, repeat=alpha - len(node)))
        return tuple(n for n in self.level(alpha) if n.startswith(node))


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
    return tuple(sorted(nodes, key=cmp_to_key(lex_compare)))
