"""The stage step every staged search takes, and its place as the only caller
of the assignment search."""

import ast
from pathlib import Path

import pytest

import hl_lab
from hl_lab.search import BudgetExhausted, StepBudget
from hl_lab.witness import first_level

SLOTS = ["a", "b"]


def _step(candidates, accept, budget):
    """``first_level`` over the levels of ``candidates``; logs each predicate built."""
    built = []

    def consistent_at(level):
        built.append(level)
        return lambda partial, slot, choice: accept(level, choice)

    found = first_level(SLOTS, sorted(candidates), candidates.__getitem__,
                        consistent_at, budget)
    return found, built


def test_skips_a_level_where_a_slot_has_no_candidate():
    budget = StepBudget(100)
    found, built = _step({0: {"a": ("x",), "b": ()}, 1: {"a": ("x",), "b": ("y",)}},
                         lambda level, choice: True, budget)
    assert found == (1, {"a": "x", "b": "y"})
    assert built == [1]
    assert budget.used == 4  # two prefilter steps, then two search steps


def test_returns_the_lowest_level_with_an_assignment():
    pools = {"a": ("x", "z"), "b": ("y",)}
    found, built = _step({0: pools, 1: pools, 2: pools},
                         lambda level, choice: level > 0 and choice != "x",
                         StepBudget(100))
    assert found == (1, {"a": "z", "b": "y"})
    assert built == [0, 1]


def test_returns_none_when_no_level_has_an_assignment():
    pools = {"a": ("x",), "b": ("y",)}
    found, built = _step({0: pools, 1: {"a": (), "b": ("y",)}, 2: pools},
                         lambda level, choice: choice != "y", StepBudget(100))
    assert found is None
    assert built == [0, 2]


def test_budget_exhaustion_passes_through():
    # level 0 spends two steps rejecting slot a; the budget runs out at level 1
    pools = {"a": ("x", "z"), "b": ("y",)}
    with pytest.raises(BudgetExhausted):
        _step({0: pools, 1: pools}, lambda level, choice: False, StepBudget(3))


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
