"""Colorings, somewhere-dense witness search, checkers, least heights."""

import ast
import itertools
import random
import zlib

import pytest

from hl_lab import witness
from hl_lab.errors import CapExceededError, InvalidInputError
from hl_lab.search import StepBudget
from hl_lab.subtrees import (
    SubtreeReport,
    enumerate_strong_subtrees,
    validate_strong_subtree,
)
from hl_lab.trees import TreeSpace
from hl_lab.witness import (
    Coloring,
    SomewhereDenseWitness,
    antichain_split_coloring,
    check_dshl_witness,
    check_hl_strong_subtree,
    check_sdhl_witness,
    check_somewhere_dense_witness,
    coloring_from_json,
    constant_coloring,
    dshl_search,
    expr_coloring,
    finite_hl_number,
    level_parity_coloring,
    sdhl_search,
    seeded_hash_coloring,
    table_coloring,
)

import oracles
from oracles import all_nodes, random_table_coloring, sdhl_exists_by_scan


# ---------------------------------------------------------------------------
# coloring constructors


def test_constant_and_parity_values():
    space = TreeSpace(2, 4)
    const = constant_coloring((space, space), 3, value=1)
    assert const.evaluate(("0", "11")) == 1  # full domain: mixed heights fine
    par = level_parity_coloring((space,))
    assert par(("",)) == 0 and par(("0",)) == 1 and par(("01",)) == 0
    split = antichain_split_coloring(space)
    assert [split((n,)) for n in ("", "0", "011", "1", "100")] == [0, 0, 0, 1, 1]


def test_a_domain_is_level_or_full():
    # the one place a domain is checked; a document's domain reaches it
    with pytest.raises(InvalidInputError,
                       match="domain must be 'level' or 'full', got 'x'"):
        seeded_hash_coloring((TreeSpace(2, 3),), 2, 0, domain="x")


def test_level_domain_is_enforced():
    space = TreeSpace(2, 4)
    par = level_parity_coloring((space, space))
    assert par(("0", "1")) == 1
    with pytest.raises(InvalidInputError):
        par(("0", "11"))
    with pytest.raises(InvalidInputError):
        par(("0",))  # arity mismatch


def test_table_coloring_totality_and_bounds():
    space = TreeSpace(2, 2)
    full = {(n,): 0 for n in ("", "0", "1")}
    col = table_coloring((space,), 2, full)
    assert col(("0",)) == 0
    with pytest.raises(InvalidInputError):
        table_coloring((space,), 2, {("",): 0})  # missing entries
    with pytest.raises(InvalidInputError):
        table_coloring((space,), 2, {("",): 5})  # color out of range


def test_full_domain_table_lists_levels_only_as_its_walk_reaches_them(monkeypatch):
    # the walk once listed every node of every factor first: some 10^11
    # nodes on a branching-10 tree of height 12
    listed = []
    level = TreeSpace.level

    def counting(space, alpha):
        listed.append(alpha)
        return level(space, alpha)

    monkeypatch.setattr(TreeSpace, "level", counting)
    with pytest.raises(InvalidInputError, match=r"^table is not total: missing \('0',\)$"):
        table_coloring((TreeSpace(10, 6),), 2, {("",): 0}, domain="full")
    assert listed == [0, 1]


def test_expr_and_hash_colorings_are_deterministic():
    space = TreeSpace(2, 3)
    ex = expr_coloring((space, space), 3, "sum(heights) + len(nodes[0])")
    assert ex(("0", "1")) == (2 + 1) % 3
    h1 = seeded_hash_coloring((space,), 4, seed=9)
    h2 = seeded_hash_coloring((space,), 4, seed=9)
    assert [h1((n,)) for n in all_nodes(3)] == [h2((n,)) for n in all_nodes(3)]
    h3 = seeded_hash_coloring((space,), 4, seed=10)
    assert any(h1((n,)) != h3((n,)) for n in all_nodes(3))


@pytest.mark.parametrize("source", ["1//0", "nodes[9]", "undefined", "'a'", "1 +"])
def test_broken_expr_coloring_is_invalid_input(source):
    space = TreeSpace(2, 3)
    with pytest.raises(InvalidInputError, match="expr coloring"):
        expr_coloring((space,), 2, source).evaluate(("0",))


@pytest.mark.parametrize("source", [
    "().__class__.__base__.__subclasses__()",
    "len(().__class__.__base__.__subclasses__())",
    "len(().__class__.__name__)", "(lambda: 1)()", 'f"{d}"',
    "nodes[0].count('1')", "_x", "max(d, default=0)",
    "9**9**9", "d << 99999999999"])
def test_expr_coloring_refuses_syntax_outside_the_whitelist(source):
    # Before, every one of these compiled; most evaluated to an int.
    with pytest.raises(InvalidInputError, match="not allowed"):
        expr_coloring((TreeSpace(2, 3),), 2, source)


# the first two ran before; at full size the last ones would try to build
# gigabytes under any step cap
UNBOUNDED_SOURCES = [
    "len(nodes[0] * 3) % 2", "len('%05d' % 1)", "len((nodes[0],) * 3)",
    "len([len(n, 'x') * 9 for len in [max] for n in nodes])",
    "len(nodes[0] * 999999999)", "len('%0999999999d' % 1)"]


@pytest.mark.parametrize("source", UNBOUNDED_SOURCES)
def test_expr_coloring_refuses_repetition_and_formatting(source):
    ex = expr_coloring((TreeSpace(2, 3),), 2, source)
    with pytest.raises(InvalidInputError, match="may not repeat or %-format a"):
        ex(("01",))


def test_expr_integer_products_run_unguarded():
    # an operand that is a number by its syntax is not routed through the
    # guard, so the benchmark's colorings compile to the same lambda
    for source in (_prefix_color_source(3, 4, 5), "int(nodes[-1] or 0) % 7",
                   "len(nodes) * -abs(d) % (1 + (heights[0] < 2))"):
        tree = ast.parse(source, mode="eval")
        witness._guard_sequences(tree)
        assert ast.unparse(tree) == ast.unparse(ast.parse(source, mode="eval"))
    tree = ast.parse("int(nodes[0]) * d", mode="eval")
    witness._guard_sequences(tree)
    assert ast.unparse(tree) == "int(nodes[0]) * _scalar(d)"


def test_expr_coloring_accepts_the_whitelist():
    space = TreeSpace(2, 4)
    source = ("sum(int(c) for c in nodes[0][:2]) + len([h for h in heights])"
              " if not d > 1 and heights[-1] in (1, 2, 3) else -abs(1)")
    ex = expr_coloring((space,), 5, source)
    assert [ex((n,)) for n in ("", "1", "011", "11")] == [4, 2, 2, 3]


def test_expr_comprehensions_see_the_coloring_names():
    # evaluated with separate locals, a comprehension body could not see
    # ``d``: this source raised NameError (exit 2 from the CLI)
    space = TreeSpace(2, 4)
    source = "sum(h * d for h in heights)"
    ex = expr_coloring((space, space), 5, source)
    assert ex(("01", "10")) == (2 * 2 + 2 * 2) % 5
    assert ex(("", "")) == 0
    assert [ex((n, n)) for n in ("0", "011")] == [4, 2]
    with pytest.raises(InvalidInputError, match="NameError: name 'd'"):
        oracles.expr_coloring((space, space), 2, 5, source)(("01", "10"))


def _prefix_color_source(width, a, b):
    """The source the ``fusion-check`` benchmark documents color with."""
    return (f"(int(nodes[0][:{width}]) * {a} + int(nodes[1][:{width}]) * {b}"
            f" + {a + b}) % colors")


def _oracle_expr(spaces, colors, source):
    """The eval oracle, which still takes the arity as its ``d``."""
    return oracles.expr_coloring(spaces, len(spaces), colors, source)


def _expr_outcomes(build, spaces, colors, source):
    """The coloring's value, or its error message, on every level tuple."""
    try:
        ex = build(spaces, colors, source)
    except InvalidInputError as err:
        return ("raised", str(err))
    out = []
    for tup in witness._level_domain(spaces):
        try:
            out.append(ex(tup))
        except InvalidInputError as err:
            out.append(("raised", str(err)))
    return out


@pytest.mark.parametrize("width", [1, 2, 3, 4, 5])
def test_compiled_expr_matches_the_eval_oracle_on_prefix_sources(width):
    space = TreeSpace(2, 5)
    for a in range(1, 7):
        for b in range(1, 7):
            source = _prefix_color_source(width, a, b)
            got = _expr_outcomes(expr_coloring, (space, space), 3, source)
            assert got == _expr_outcomes(_oracle_expr, (space, space), 3,
                                         source), source
            assert got[0][0] == "raised"  # int("") at the root


@pytest.mark.parametrize("source", [
    "sum(heights) + len(nodes[0])", "1//0", "nodes[9]", "undefined", "'a'", "1 +",
    "().__class__.__base__.__subclasses__()", "(lambda: 1)()", "9**9**9",
    "sum(int(c) for c in nodes[0][:2]) + len([h for h in heights])"
    " if not d > 1 and heights[-1] in (1, 2, 3) else -abs(1)",
    "max(heights) - min(heights) + colors * d", "int(nodes[-1] or 0) % 7",
    "[n for n in nodes]", "heights[0] < heights[-1] < 3"])
def test_compiled_expr_matches_the_eval_oracle(source):
    for arity in (1, 2):
        spaces = (TreeSpace(2, 4),) * arity
        got = _expr_outcomes(expr_coloring, spaces, 4, source)
        assert got == _expr_outcomes(_oracle_expr, spaces, 4, source)


def test_coloring_json_round_trips():
    space = TreeSpace(2, 3)
    col = random_table_coloring((space,), 3, seed=5)
    domain = [(n,) for n in all_nodes(3) if n]
    doc = witness._counterexample_table(1, domain, [col(t) for t in domain])
    again = coloring_from_json(doc, (space,))
    for t in domain:
        assert again(t) == col(t)
    assert again(("",)) == 0
    named = coloring_from_json(
        {"kind": "named", "name": "level-parity",
         "params": {"arity": 2, "modulus": 2}}, (space, space))
    assert named(("0", "1")) == 1


# ---------------------------------------------------------------------------
# successor-level witnesses


def test_constant_coloring_witness_at_roots():
    space = TreeSpace(2, 3)
    col = constant_coloring((space, space), 3)
    w = sdhl_search(col)
    assert w is not None and w.color == 0
    assert w.base == ("", "")
    assert check_sdhl_witness(w, col).valid


def test_parity_witness_checks_out():
    space = TreeSpace(2, 4)
    col = level_parity_coloring((space,))
    w = sdhl_search(col)
    assert w == SomewhereDenseWitness(("",), (("0", "1"),), 1, 1)
    assert check_sdhl_witness(w, col).valid


def _successor(base, matrix, color):
    """The witness at ``len(base[0]) + 1``: the base's successor level in a
    ``TreeSpace``."""
    return SomewhereDenseWitness(base, matrix, len(base[0]) + 1, color)


def test_witness_mutations_fail_the_checker():
    space = TreeSpace(2, 4)
    col = level_parity_coloring((space,))
    w = sdhl_search(col)
    wrong_color = _successor(w.base, w.matrix, (w.color + 1) % col.colors)
    res = check_sdhl_witness(wrong_color, col)
    assert not res.valid and any("color" in v for v in res.violations)
    # drop a matrix member: some successor cone loses its dominator
    starved = _successor(w.base, (w.matrix[0][:1],), w.color)
    res = check_sdhl_witness(starved, col)
    assert not res.valid and any("not dominated" in v for v in res.violations)
    crooked = _successor(("0",), w.matrix, w.color)
    assert check_sdhl_witness(crooked, col).valid is False


def test_checker_requires_the_successor_density_level():
    col = level_parity_coloring((TreeSpace(2, 4),))
    w = sdhl_search(col)
    for level in (0, w.density_level + 1, 9):
        res = check_sdhl_witness(
            SomewhereDenseWitness(w.base, w.matrix, level, w.color), col)
        assert not res.valid
        assert res.violations == (f"density level {level} is not the "
                                  f"successor level 1 of the base",)


def test_search_in_a_subtree_reports_the_subtree_level():
    # the subtree's level 1 is ambient level 2; the successor density level
    # is subtree level 2, not the ambient length plus one
    report = next(enumerate_strong_subtrees(TreeSpace(2, 5), (0, 2, 4)))
    table = {"": 0, "00": 0, "10": 1, "0000": 0, "0010": 0, "1000": 1, "1010": 1}
    col = table_coloring((report,), 2, {(n,): c for n, c in table.items()},
                         domain="full")
    w = sdhl_search(col)
    assert w.base == ("00",) and w.density_level == 2
    assert check_sdhl_witness(w, col).valid
    assert check_somewhere_dense_witness(w, col).valid


def test_matrix_on_several_levels_is_reported_not_raised():
    # the color scan evaluated ("0", "00"), and the level-domain coloring
    # raised on the mixed heights before any violation came back
    w = _successor(("", ""), (("0", "1"), ("00", "01", "10", "11")), 1)
    res = check_sdhl_witness(w, level_parity_coloring([TreeSpace(2, 4)] * 2))
    assert not res.valid
    assert res.violations[0] == ("matrix members sit on several levels [1, 2]; "
                                 "a level matrix has a single one")


def test_checkers_bound_the_density_level_by_the_lowest_factor():
    # factor heights (5, 3): level 3 is inside the first factor only, and
    # both checkers once read the first factor's height and raised
    col = seeded_hash_coloring((TreeSpace(2, 5), TreeSpace(2, 3)), 2, seed=1,
                               domain="full")
    free = SomewhereDenseWitness(("", ""), (("000", "100"), ("000", "100")), 3, 0)
    assert check_somewhere_dense_witness(free, col).violations == (
        "density level 3 outside the truncation",)
    successor = SomewhereDenseWitness(("00", "00"), (("000",), ("000",)), 3, 0)
    assert check_sdhl_witness(successor, col).violations == (
        "base height 2 leaves no successor level inside the truncation",)


def _sdhl_mutations(w, space):
    """``w`` and corruptions of its color, base and matrix columns."""
    def with_col(j, col):
        return w.matrix[:j] + (tuple(col),) + w.matrix[j + 1:]

    yield w
    for color in (w.color + 1, -1):
        yield _successor(w.base, w.matrix, color)
    for j, col in enumerate(w.matrix):
        yield _successor(w.base, with_col(j, col[1:]), w.color)
        yield _successor(w.base, with_col(j, col[:-1]), w.color)
        yield _successor(w.base, with_col(j, [m + "0" for m in col]), w.color)
        yield _successor(w.base, with_col(j, [m[:-1] for m in col]), w.color)
        for other in space.level(len(w.base[j])) + space.level(len(w.base[j]) + 1):
            base = w.base[:j] + (other,) + w.base[j + 1:]
            yield _successor(base, w.matrix, w.color)
    yield _successor(w.base, tuple(col[1:] + col[:1] for col in w.matrix), w.color)


def test_checker_matches_the_raising_checker_wherever_it_answered():
    space = TreeSpace(2, 4)
    colorings = [level_parity_coloring((space,)),
                 level_parity_coloring((space, space)),
                 constant_coloring((space, space), 3)]
    colorings += [seeded_hash_coloring((space,) * arity, 2, seed,
                                       domain="level")
                  for arity in (1, 2) for seed in range(6)]
    answered = raised = 0
    for col in colorings:
        w = sdhl_search(col)
        assert w is not None
        for mutant in _sdhl_mutations(w, space):
            try:
                want = oracles.check_sdhl_witness(mutant, col)
            except InvalidInputError:
                raised += 1
                try:
                    got = check_sdhl_witness(mutant, col)
                except InvalidInputError:
                    continue
                assert not got.valid
                continue
            answered += 1
            assert check_sdhl_witness(mutant, col) == want
    assert answered > 100 and raised > 10


def test_witness_json_round_trip():
    w = _successor(("0", "1"), (("00", "01"), ("10", "11")), 2)
    assert SomewhereDenseWitness.from_json(w.to_json()) == w


@pytest.mark.parametrize("field", ["density_level", "color"])
@pytest.mark.parametrize("bad", [True, 1.5, "1"])
def test_witness_json_integers_are_strict(field, bad):
    doc = dict(_successor(("0",), (("00", "01"),), 1).to_json(), **{field: bad})
    with pytest.raises(InvalidInputError, match=f"witness field '{field}'"):
        SomewhereDenseWitness.from_json(doc)


def test_search_agrees_with_scan_oracle_on_all_unary_colorings():
    # every 2-coloring of the seven nodes of the height-3 binary truncation
    space = TreeSpace(2, 3)
    nodes = all_nodes(3)
    for assignment in itertools.product(range(2), repeat=len(nodes)):
        table = {(n,): c for n, c in zip(nodes, assignment)}
        col = table_coloring((space,), 2, table)
        w = sdhl_search(col)
        expected = sdhl_exists_by_scan(col.evaluate, 1, 3, 2)
        assert (w is not None) == expected, assignment
        if w is not None:
            assert check_sdhl_witness(w, col).valid, assignment


def test_budget_exhaustion_raises_cap_error():
    space = TreeSpace(2, 4)
    col = random_table_coloring((space, space), 3, seed=1)
    with pytest.raises(CapExceededError):
        sdhl_search(col, budget=StepBudget(3))


# ---------------------------------------------------------------------------
# dense sets and free-level witnesses


def test_dense_set_search_on_parity():
    space = TreeSpace(2, 4)
    col = level_parity_coloring((space,))
    assert dshl_search(col) == (("",), 1)
    res = check_dshl_witness(("",), 1, col)
    assert res.valid and res.asym_ok
    # color 0 at the root dies at the odd top level
    assert not check_dshl_witness(("",), 0, col).valid


def test_dense_set_search_spends_one_budget():
    # One budget covers every base's read of its top-level cone: the scan
    # reads 58 tuples over 22 bases and no base more than 4, so a cap of
    # 29 fits every base's read but not the scan.
    col = seeded_hash_coloring((TreeSpace(2, 5),) * 2, 3, seed=0, domain="level")
    assert dshl_search(col) == (("000", "000"), 2)
    assert dshl_search(col, budget=StepBudget(58)) == (("000", "000"), 2)
    with pytest.raises(CapExceededError):
        dshl_search(col, budget=StepBudget(29))


def test_one_budget_serves_several_searches():
    col = seeded_hash_coloring((TreeSpace(2, 5),) * 2, 3, seed=0, domain="level")
    alone = []
    for search in (sdhl_search, dshl_search):
        budget = StepBudget()
        search(col, budget=budget)
        alone.append(budget.used)
    shared = StepBudget()
    assert sdhl_search(col, budget=shared) is not None
    assert dshl_search(col, budget=shared) == (("000", "000"), 2)
    assert shared.used == sum(alone) and min(alone) > 0
    # once a budget is exhausted, the next search is refused at its first step
    spent = StepBudget(3)
    with pytest.raises(CapExceededError):
        sdhl_search(col, budget=spent)
    assert spent.used == 4
    with pytest.raises(CapExceededError) as capped:
        dshl_search(col, budget=spent)
    assert capped.value.cap == 3 and spent.used == 5


def test_step_budget_cap_must_be_positive():
    assert StepBudget().cap == 500_000
    with pytest.raises(InvalidInputError, match=r"need max_steps >= 1, got 0"):
        StepBudget(0)


def test_explicit_space_with_empty_top_levels_is_rejected():
    # Before, the space built; a cone above the base was empty in its factor
    # and the search died with IndexError reading an empty matrix column.
    short = tuple(all_nodes(2))
    with pytest.raises(InvalidInputError, match="below the top level"):
        sdhl_search(seeded_hash_coloring(
            (TreeSpace(2, 4), TreeSpace(2, 4, nodes=short)), 2, 7, domain="level"))
    with pytest.raises(InvalidInputError, match="below the top level"):
        TreeSpace(2, 3, nodes=short)
    assert TreeSpace(2, 2, nodes=short) == TreeSpace.explicit(short)


def _dense_set_box(rng):
    """A coloring biased toward color 1 on views of one random kind."""
    d = rng.randint(1, 3)
    kind = rng.choice(["uniform", "explicit", "subtree"])
    if kind == "uniform":
        views = [TreeSpace(2, rng.randint(2, 4)) for _ in range(d)]
    elif kind == "explicit":
        views = [oracles.pruned_tree(rng, rng.randint(2, 4)) for _ in range(d)]
    else:
        # one level set, so that level sequences are level-domain tuples
        level_set = tuple(sorted(rng.sample(range(5), rng.randint(2, 3))))
        views = [SubtreeReport(TreeSpace(2, 5),
                               oracles.random_strong_subtree(rng, level_set), level_set)
                 for _ in range(d)]
    seed, rare = rng.random(), rng.choice([3, 8, 40, 10 ** 6])

    def fn(tup):
        return int(zlib.crc32(repr((seed, tup)).encode()) % rare != 0)

    domain = rng.choice(["level", "full"])
    return Coloring(2, views, fn, domain=domain), kind


def _bases(views):
    """The level sequences below the views' top level, canonically ordered."""
    top = min(view.height for view in views) - 1
    return [base for ht in range(top)
            for base in itertools.product(*(view.level(ht) for view in views))]


def test_a_dense_set_check_reads_the_top_level():
    """A matrix dominating level eta + 1 also dominates level eta, so the
    levels the reference check fails are a top segment, and on a finite
    truncation a base passes exactly when every top-level tuple above it
    has the color.  The library reads that cone: its verdict is the
    reference's, and it names each top-level tuple of another color."""
    rng = random.Random("dense-set-top")
    seen = set()
    for _ in range(300):
        col, kind = _dense_set_box(rng)
        views = col.spaces
        top = min(view.height for view in views) - 1
        bases = _bases(views)
        for base in rng.sample(bases, min(len(bases), 8)):
            for color in range(col.colors):
                want = oracles.check_dshl_witness(base, color, col)
                failed = [int(line.rsplit(" ", 1)[1]) for line in want.violations]
                assert failed == list(range(top + 1 - len(failed), top + 1))
                res = check_dshl_witness(base, color, col)
                assert (res.valid, res.asym_ok) == (want.valid, want.asym_ok)
                cone = itertools.product(*(view.extensions(node, top)
                                           for view, node in zip(views, base)))
                assert res.violations == tuple(
                    f"top-level tuple {tup} has color {got}, expected {color}"
                    for tup in cone if (got := col.evaluate(tup)) != color)
                seen.add((kind, res.valid))
        # a base on the top level has no level above it
        top_base = tuple(view.level(top)[-1] for view in views)
        assert all(check_dshl_witness(top_base, color, col).valid
                   for color in range(col.colors))
    # each kind of view, passing and failing
    assert len(seen) == 6


def test_an_sdhl_witness_is_a_strong_subtree_in_every_factor():
    """The base with its matrix is, in each factor's ambient tree, a strong
    subtree on the base's and the matrix's ambient levels."""
    rng = random.Random("sdhl-strong-subtree")
    seen = set()
    for _ in range(80):
        col, kind = _dense_set_box(rng)
        w = sdhl_search(col)
        if w is None:
            continue
        for view, node, column in zip(col.spaces, w.base, w.matrix):
            report = SubtreeReport(view.ambient_space, (node,) + column,
                                   (len(node), len(column[0])))
            assert validate_strong_subtree(report).valid, (kind, w)
        seen.add(kind)
    assert seen == {"uniform", "explicit", "subtree"}


def test_dense_set_search_returns_the_first_pair_the_reference_passes():
    """``dshl_search`` answers with the first (base, color) in canonical
    order that the reference check passes, and a cap one step below the
    steps it spends ends it."""
    rng = random.Random("dense-set-search")
    found = 0
    for _ in range(60):
        col, _kind = _dense_set_box(rng)
        want = next(((base, color) for base in _bases(col.spaces)
                     for color in range(col.colors)
                     if oracles.check_dshl_witness(base, color, col).valid), None)
        budget = StepBudget()
        assert dshl_search(col, budget=budget) == want
        assert dshl_search(col, budget=StepBudget(budget.used)) == want
        if budget.used > 1:
            with pytest.raises(CapExceededError):
                dshl_search(col, budget=StepBudget(budget.used - 1))
        found += want is not None
    assert 0 < found < 60


def test_dense_set_asymmetry_flag():
    space = TreeSpace(2, 5)
    col = level_parity_coloring((space,))
    assert check_dshl_witness(("",), 0, col).valid
    off_root = check_dshl_witness(("0",), 0, col)
    assert not off_root.asym_ok  # color 0 witnesses belong at the roots


# The two accepted free-level witnesses below are the ones the former
# free-level search returned on these colorings.


def test_free_level_witness_on_parity():
    space = TreeSpace(2, 3)
    col = level_parity_coloring((space,))
    w = SomewhereDenseWitness(("",), (("0", "1"),), density_level=1, color=1)
    assert check_somewhere_dense_witness(w, col).valid
    wrong = SomewhereDenseWitness(("",), (("0", "1"),), density_level=1, color=0)
    assert not check_somewhere_dense_witness(wrong, col).valid


def test_free_level_witness_may_mix_levels():
    space = TreeSpace(2, 4)
    col = seeded_hash_coloring((space,), 3, seed=2)
    w = SomewhereDenseWitness(("",), (("0", "100"),), density_level=1, color=1)
    assert check_somewhere_dense_witness(w, col).valid
    # "100" alone dominates only the cone node "1"
    lopsided = SomewhereDenseWitness(("",), (("100",),), density_level=1, color=1)
    assert not check_somewhere_dense_witness(lopsided, col).valid


def test_free_level_checker_rejects_bad_levels():
    space = TreeSpace(2, 4)
    col = constant_coloring((space,), 2)
    low = SomewhereDenseWitness(("0",), (("00", "01"),), density_level=1, color=0)
    assert not check_somewhere_dense_witness(low, col).valid
    outside = SomewhereDenseWitness(("",), (("0", "1"),), density_level=9, color=0)
    assert not check_somewhere_dense_witness(outside, col).valid
    hollow = SomewhereDenseWitness(("",), ((),), density_level=1, color=0)
    assert not check_somewhere_dense_witness(hollow, col).valid


def test_hl_strong_subtree_check():
    space = TreeSpace(2, 3)
    col = constant_coloring((space, space), 2)
    reports = (SubtreeReport(space, all_nodes(3), (0, 1, 2)),) * 2
    assert check_hl_strong_subtree(reports, col).valid
    res = check_hl_strong_subtree(reports, level_parity_coloring((space, space)))
    assert not res.valid
    with pytest.raises(InvalidInputError):
        check_hl_strong_subtree(reports[:1], col)
    skewed = (reports[0], SubtreeReport(space, ("0", "00", "01"), (1, 2)))
    with pytest.raises(InvalidInputError):
        check_hl_strong_subtree(skewed, col)


# ---------------------------------------------------------------------------
# least truncation heights


def test_least_height_trivial_cases():
    assert finite_hl_number(1, 2, 1).value == 2
    assert finite_hl_number(2, 2, 1).value == 2


def test_least_height_one_dimension_two_colors():
    report = finite_hl_number(1, 2, 2)
    assert report.value == 3
    assert report.lower_bound == 2
    assert report.counterexample_height == 2
    assert report.counterexample is not None


def test_emitted_counterexample_is_witness_free():
    report = finite_hl_number(1, 2, 2)
    space = TreeSpace(2, report.counterexample_height)
    col = coloring_from_json(report.counterexample, (space,))
    # machine check with the independent scan, not the library search
    assert not sdhl_exists_by_scan(col.evaluate, 1, report.counterexample_height, 2)


def test_least_height_randomized_mode():
    report = finite_hl_number(1, 2, 2, mode="randomized", samples=50, seed=3,
                              max_height=3)
    assert report.value is None
    assert report.lower_bound == 2
    assert report.counterexample_height == 2
    assert (report.samples, report.seed) == (50, 3)
    assert report.note


def test_least_height_bad_parameters():
    with pytest.raises(InvalidInputError):
        finite_hl_number(0, 2, 2)
    with pytest.raises(InvalidInputError):
        finite_hl_number(1, 2, 2, mode="guess")
    for samples in (0, -5):
        with pytest.raises(InvalidInputError):
            finite_hl_number(1, 2, 2, mode="randomized", samples=samples)
    for mode in ("exhaustive", "randomized"):
        with pytest.raises(InvalidInputError):
            finite_hl_number(1, 2, 2, mode=mode, max_height=1)
        with pytest.raises(InvalidInputError):
            finite_hl_number(1, 2, 2, mode=mode, budget=-1)


def test_least_height_budget_cap_carries_partial():
    with pytest.raises(CapExceededError) as info:
        finite_hl_number(1, 2, 2, budget=10)
    assert info.value.cap == 10
    assert info.value.partial.lower_bound == 2


def test_report_json_shape():
    doc = finite_hl_number(1, 2, 1).to_json()
    assert doc["n"] == 2 and doc["counterexample_at"] is None
    assert set(doc) >= {"d", "b", "r", "mode", "lower_bound", "colorings_checked"}
