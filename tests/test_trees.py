"""Tree order, truncated spaces, and restriction."""

import random

import pytest

from hl_lab.errors import (
    InvalidInputError,
    OutOfRangeError,
    UnsupportedAlphabetError,
)
from hl_lab.trees import (
    TreeSpace,
    lex_compare,
    lex_sorted,
    node_key,
    restrict,
    sort_nodes,
)

from oracles import all_nodes, lex_key, lex_sorted_by_key


def test_lex_compare_basic_clauses():
    # a node sits above its left child and below its right child
    assert lex_compare("0", "") == -1
    assert lex_compare("", "1") == -1
    assert lex_compare("00", "0") == -1
    assert lex_compare("0", "01") == -1
    # incomparable nodes compare at the first disagreement
    assert lex_compare("01", "10") == -1
    assert lex_compare("10", "01") == 1
    assert lex_compare("011", "011") == 0


def test_lex_compare_matches_numeric_embedding_exhaustively():
    nodes = all_nodes(5)
    for s in nodes:
        for t in nodes:
            want = (lex_key(s) > lex_key(t)) - (lex_key(s) < lex_key(t))
            assert lex_compare(s, t) == want, (s, t)


def test_lex_sorted_matches_embedding_on_seeded_subsets():
    nodes = all_nodes(7)
    rng = random.Random(20240817)
    for _ in range(200):
        sample = rng.sample(nodes, rng.randrange(1, 20))
        assert lex_sorted(sample) == lex_sorted_by_key(sample)


def test_lex_sorted_worked_example():
    assert lex_sorted(("0", "", "1", "00", "01")) == ("00", "0", "01", "", "1")


def test_lex_rejects_non_binary_alphabet():
    with pytest.raises(UnsupportedAlphabetError):
        lex_compare("2", "0")
    with pytest.raises(UnsupportedAlphabetError):
        lex_sorted(("0", "a"))


def test_node_key_orders_by_height_then_digits():
    nodes = ["1", "00", "", "0", "11"]
    assert sort_nodes(nodes) == ("", "0", "1", "00", "11")
    assert node_key("01") == (2, "01")
    assert TreeSpace(2, 4).level_of("010") == 3


def test_extensions_answer_the_prefix_relation():
    # ``s`` lies on the root path of ``t`` (or equals it) exactly when ``t``
    # is among the extensions of ``s`` at ``t``'s height
    space = TreeSpace(2, 4)
    assert "01" in space.extensions("", 2)
    assert "01" in space.extensions("01", 2)
    assert space.extensions("011", 2) == ()
    assert "01" not in space.extensions("1", 2)
    assert space.restrict("011", 2) == "01"


def test_uniform_space_levels():
    space = TreeSpace(2, 3)
    assert space.height == 3
    assert space.root == ""
    assert space.level(0) == ("",)
    assert space.level(1) == ("0", "1")
    assert space.level(2) == ("00", "01", "10", "11")
    with pytest.raises(OutOfRangeError):
        space.level(3)
    with pytest.raises(OutOfRangeError):
        space.level(-1)


def test_space_membership_and_successors():
    space = TreeSpace(2, 4)
    assert space.contains("010")
    assert not space.contains("0101")
    # immediate successors are the extensions one level up
    assert space.extensions("01", 3) == ("010", "011")
    assert space.extensions("0", 3) == ("000", "001", "010", "011")
    assert space.extensions("0", 1) == ("0",)
    with pytest.raises(OutOfRangeError):
        space.extensions("0", 4)


def test_space_rejects_bad_parameters():
    with pytest.raises(InvalidInputError):
        TreeSpace(1, 3)
    with pytest.raises(InvalidInputError):
        TreeSpace(2, 0)


def test_wider_alphabets_have_spaces_but_no_lex_order():
    space = TreeSpace(3, 2)
    assert space.level(1) == ("0", "1", "2")
    with pytest.raises(UnsupportedAlphabetError):
        lex_compare("2", "0")


def test_explicit_space_round_trip():
    space = TreeSpace.explicit(("", "0", "1", "00", "01", "10", "11"))
    assert space.height == 3
    assert space.level(2) == ("00", "01", "10", "11")
    doc = space.to_json()
    assert TreeSpace.from_json(doc) == space


@pytest.mark.parametrize("nodes, message", [
    (["0", "1"], "explicit node set must contain the root"),
    (["", "0", "11"], "explicit node set is not prefix closed: '11' lacks its parent"),
    (["", "0", "1", "00"], "explicit node set is not well pruned: '1' has no successor"),
    ([], "explicit node set may not be empty"),
])
def test_explicit_node_sets_are_refused(nodes, message):
    for build in (TreeSpace.explicit, lambda ns: TreeSpace.from_json({"nodes": ns})):
        with pytest.raises(InvalidInputError) as info:
            build(nodes)
        assert str(info.value) == message


def test_the_constructor_refuses_duplicate_and_out_of_range_nodes():
    # ``explicit`` drops duplicates and sizes the height to fit its nodes
    with pytest.raises(InvalidInputError, match="^explicit node set contains duplicates$"):
        TreeSpace(2, 2, nodes=("", "0", "0", "1"))
    with pytest.raises(OutOfRangeError) as info:
        TreeSpace(2, 2, nodes=("", "0", "1", "00"))
    assert str(info.value) == "node '00' has height 2 outside truncation 2"


def test_uniform_space_json_round_trip():
    space = TreeSpace(2, 5)
    doc = space.to_json()
    assert doc == {"branching": 2, "height": 5}
    again = TreeSpace.from_json(doc)
    assert again.level(4) == space.level(4)


def test_restrict_level_sequences():
    space = TreeSpace(2, 5)
    assert restrict(("0110", "1001"), 2, space) == ("01", "10")
    assert restrict(("01",), 2, space) == ("01",)
    # mixed heights truncate coordinatewise
    assert restrict(("01", "1"), 1, space) == ("0", "1")
    with pytest.raises(OutOfRangeError):
        restrict(("01", "1"), 2, space)
    with pytest.raises(OutOfRangeError):
        restrict(("01",), 3, space)


def test_restrict_worked_examples():
    space = TreeSpace(2, 4)
    assert restrict(("010", "111"), 1, space) == ("0", "1")
    assert restrict(("010", "111"), 0, space) == ("", "")
