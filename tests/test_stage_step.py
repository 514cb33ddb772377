"""The stage step every staged search takes, its place as the only caller of
the assignment search, the checkers' distance from both, and the one place
a run's step budget is made."""

import ast
from pathlib import Path

import pytest

import hl_lab
import oracles
from hl_lab.search import BudgetExhausted, StepBudget
from hl_lab.witness import first_level

SLOTS = ["a", "b"]


def _step(pools, accept, budget):
    """``first_level`` over the levels of ``pools`` with one filter.

    A choice is a ``(level, name)`` pair, so the filter reads its level
    from the choice; returns what ``first_level`` found and the levels the
    filter was asked at, in order.
    """
    asked = []

    def consistent(partial, slot, choice):
        level, name = choice
        if level not in asked:
            asked.append(level)
        return accept(level, name)

    candidates = {level: {slot: tuple((level, name) for name in names)
                          for slot, names in pool.items()}
                  for level, pool in pools.items()}
    found = first_level(SLOTS, sorted(candidates), candidates.__getitem__,
                        oracles.as_filter(consistent), budget)
    return found, asked


def test_the_kernel_ends_a_level_where_a_slot_has_no_candidate():
    budget = StepBudget(100)
    found, asked = _step({0: {"a": ("x",), "b": ()}, 1: {"a": ("x",), "b": ("y",)}},
                         lambda level, name: True, budget)
    assert found == (1, {"a": (1, "x"), "b": (1, "y")})
    assert asked == [0, 1]
    # level 0 prefilters slot a and stops at the empty slot b; level 1
    # takes two prefilter steps, then b's narrowing after a
    assert budget.used == 4


def test_returns_the_lowest_level_with_an_assignment():
    pools = {"a": ("x", "z"), "b": ("y",)}
    found, asked = _step({0: pools, 1: pools, 2: pools},
                         lambda level, name: level > 0 and name != "x",
                         StepBudget(100))
    assert found == (1, {"a": (1, "z"), "b": (1, "y")})
    assert asked == [0, 1]


def test_returns_none_when_no_level_has_an_assignment():
    pools = {"a": ("x",), "b": ("y",)}
    found, asked = _step({0: pools, 1: {"a": (), "b": ("y",)}, 2: pools},
                         lambda level, name: name != "y", StepBudget(100))
    assert found is None
    assert asked == [0, 2]


def test_budget_exhaustion_passes_through():
    # level 0 spends two steps rejecting slot a; the budget runs out at level 1
    pools = {"a": ("x", "z"), "b": ("y",)}
    with pytest.raises(BudgetExhausted):
        _step({0: pools, 1: pools}, lambda level, name: False, StepBudget(3))


def prefiltered_callers(source):
    """Names of the functions whose bodies call ``prefiltered_assignment``."""
    callers = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(
                    func, "id", None)
                if name == "prefiltered_assignment":
                    callers.append(owner)
            visit(child, owner)

    visit(ast.parse(source), None)
    return callers


def test_callers_are_found():
    source = ("def f():\n    def g():\n        return search.prefiltered_assignment()\n"
              "    return prefiltered_assignment(g())\n")
    assert sorted(prefiltered_callers(source)) == ["f", "g"]


def test_first_level_is_the_only_caller_of_the_assignment_search():
    callers = [(path.name, owner)
               for path in sorted(Path(hl_lab.__file__).parent.glob("*.py"))
               for owner in prefiltered_callers(path.read_text(encoding="utf-8"))]
    assert callers == [("witness.py", "first_level")]


def call_graph(sources):
    """Function name -> the names its body calls, over every source.

    A call is named by its function or attribute name, and a nested
    function's calls count as its enclosing top-level function's or
    method's; functions of one name in several places share their calls.
    """
    graph = {}

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                graph.setdefault(child.name, set()).update(
                    call.func.attr if isinstance(call.func, ast.Attribute)
                    else getattr(call.func, "id", None)
                    for call in ast.walk(child) if isinstance(call, ast.Call))
            else:
                visit(child)

    for source in sources:
        visit(ast.parse(source))
    return graph


def reached(graph, name):
    """Every name a call path from ``name`` reaches, ``name`` included."""
    seen, todo = set(), [name]
    while todo:
        current = todo.pop()
        if current not in seen:
            seen.add(current)
            todo.extend(graph.get(current, ()))
    return seen


def _constructs(name):
    return name in ("first_level", "prefiltered_assignment") or (
        name or "").endswith("_search")


def test_call_paths_are_followed():
    source = ("def check_a():\n    def inner():\n        return helper()\n"
              "    return inner()\n"
              "def helper():\n    return mod.first_level()\n"
              "class C:\n    def verify_b(self):\n        return self.check_a()\n")
    graph = call_graph([source])
    assert {"helper", "first_level"} <= reached(graph, "check_a")
    assert "first_level" in reached(graph, "verify_b")
    assert not any(map(_constructs, reached(graph, "helper") - {"first_level"}))


def test_the_stage_step_serves_three_stage_loops():
    # sdhl's matrix is a two-level growth of the stage engine, so it takes
    # no stage step of its own
    callers = {name for name, calls in call_graph(
        path.read_text(encoding="utf-8")
        for path in Path(hl_lab.__file__).parent.glob("*.py")).items()
        if "first_level" in calls}
    assert callers == {"grow_shared_subtrees", "polarized_search", "_induction_tail"}


def test_no_checker_reaches_a_construction():
    # a checker that ran the search kernel could agree with a search on a
    # wrong answer, so construction and checking stay apart
    sources = [path.read_text(encoding="utf-8")
               for path in sorted(Path(hl_lab.__file__).parent.glob("*.py"))]
    graph = call_graph(sources)
    checkers = [name for name in graph
                if name.startswith(("check_", "validate_", "verify_"))]
    assert {"check_dshl_witness", "check_sdhl_witness", "check_tail_cone",
            "validate_strong_subtree", "verify_wmap_laws"} <= set(checkers)
    assert {name: sorted(filter(_constructs, reached(graph, name)))
            for name in checkers} == {name: [] for name in checkers}


def _defaults_to_none(function, name):
    args = function.args
    positional = args.posonlyargs + args.args
    pairs = list(zip(positional[len(positional) - len(args.defaults):], args.defaults))
    pairs += zip(args.kwonlyargs, args.kw_defaults)
    return any(arg.arg == name and isinstance(default, ast.Constant)
               and default.value is None for arg, default in pairs)


def budget_makers(source):
    """``(function, default)`` for every ``StepBudget(...)`` call in ``source``.

    ``default`` is true for the ``StepBudget()`` of ``budget or StepBudget()``
    in a function whose ``budget`` parameter defaults to ``None``.
    """
    makers = []

    def makes_budget(node):
        func = getattr(node, "func", None)
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        return isinstance(node, ast.Call) and name == "StepBudget"

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child)
                continue
            if (isinstance(child, ast.BoolOp) and isinstance(child.op, ast.Or)
                    and len(child.values) == 2
                    and isinstance(child.values[0], ast.Name)
                    and child.values[0].id == "budget"
                    and makes_budget(child.values[1])
                    and not child.values[1].args and not child.values[1].keywords
                    and owner is not None and _defaults_to_none(owner, "budget")):
                makers.append((owner.name, True))
                continue
            if makes_budget(child):
                makers.append((getattr(owner, "name", None), False))
            visit(child, owner)

    visit(ast.parse(source), None)
    return makers


def test_budget_makers_are_found():
    source = ("def f(x, budget=None):\n    budget = budget or StepBudget()\n"
              "def g(budget):\n    return budget or search.StepBudget()\n"
              "def h(*, budget=None):\n    budget = budget or StepBudget(9)\n"
              "B = StepBudget()\n")
    assert budget_makers(source) == [("f", True), ("g", False), ("h", False),
                                     (None, False)]


def test_only_dispatch_makes_a_budget_a_search_does_not_get():
    # a search that made a budget of its own would escape the caller's cap
    makers = [(path.name, owner, default)
              for path in sorted(Path(hl_lab.__file__).parent.glob("*.py"))
              for owner, default in budget_makers(path.read_text(encoding="utf-8"))]
    assert {m for m in makers if not m[2]} == {("cli.py", "dispatch", False)}
    assert {owner for _, owner, default in makers if default} == {
        "sdhl_search", "dshl_search", "fuse",
        "apply_tailcone_partial", "hl_search", "dimension_induction",
        "almost_all_homogenize", "polarized_search", "delta_system"}
