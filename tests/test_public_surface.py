"""The package's public surface: export list and entry-point signatures."""

import ast
import importlib
import inspect
import math
import pathlib

import pytest

import hl_lab
import hl_lab.polarized
import hl_lab.search
import hl_lab.tailcone
import hl_lab.trees
import hl_lab.witness

SEARCHES = ("sdhl_search", "check_dshl_witness", "dshl_search", "fuse",
            "apply_tailcone_partial", "hl_search", "dimension_induction",
            "almost_all_homogenize", "polarized_search")


def test_star_import_exports_exactly_all():
    namespace = {}
    exec("from hl_lab import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == set(hl_lab.__all__)


def test_every_exported_name_resolves_once():
    assert len(hl_lab.__all__) == len(set(hl_lab.__all__))
    for name in hl_lab.__all__:
        assert getattr(hl_lab, name) is not None, name


def test_deleted_entry_points_stay_gone():
    # views: the adapter module; no library module imports it
    for name in ("sdhl_prime_search", "build_monochromatic_subtree",
                 "DefaultLargenessOracle", "BuildOutcome",
                 "OracleContradictionError", "views"):
        assert not hasattr(hl_lab, name), name


def test_one_witness_type_serves_both_dense_statements():
    # sdhl_search returns the free-level witness at the base's level plus one
    assert "SDHLWitness" not in hl_lab.__all__
    witness = hl_lab.sdhl_search(hl_lab.level_parity_coloring((hl_lab.TreeSpace(2, 3),)))
    assert type(witness) is hl_lab.SomewhereDenseWitness


def _benchmark_imports():
    """``(file, module, names)`` for every library import in the benchmark's
    scripts, function-local ones included; ``names`` is empty for a plain
    ``import hl_lab.<module>``."""
    perfbench = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
    for path in sorted(perfbench.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module \
                    and node.module.split(".")[0] == "hl_lab":
                yield path.name, node.module, [alias.name for alias in node.names]
            elif isinstance(node, ast.Import):
                yield from ((path.name, alias.name, []) for alias in node.names
                            if alias.name.split(".")[0] == "hl_lab")


def test_the_benchmark_imports_resolve():
    # the benchmark scripts stay fixed while the library changes; the
    # tracer's targets are left out, since it skips names that are gone
    imports = list(_benchmark_imports())
    assert {module for _, module, _ in imports} >= {"hl_lab.cli", "hl_lab.witness"}
    for script, module, names in imports:
        imported = importlib.import_module(module)
        for name in names:
            assert hasattr(imported, name), f"{script}: {module}.{name}"
    # perfbench/verify.py reads sdhl-search witnesses by the former name
    assert hl_lab.witness.SDHLWitness is hl_lab.witness.SomewhereDenseWitness


def test_deleted_tree_helpers_stay_gone():
    # each duplicated a question the nine leveled-tree queries answer
    for name in ("height", "is_prefix"):
        assert not hasattr(hl_lab.trees, name), name
    explicit = hl_lab.TreeSpace.explicit(["", "0", "1"])
    assert explicit.contains("0")
    for name in ("successors", "all_nodes", "_cached_set", "_node_set"):
        assert not hasattr(hl_lab.TreeSpace, name), name
        assert not hasattr(explicit, name), name


def test_searches_read_their_trees_from_the_coloring():
    for name in ("check_sdhl_witness",) + SEARCHES:
        assert "trees" not in inspect.signature(getattr(hl_lab, name)).parameters, name
    # checks a witness inside the subtrees it was built in
    assert "trees" in inspect.signature(hl_lab.check_somewhere_dense_witness).parameters


def test_colorings_only_evaluate():
    # a counterexample document is written by finite_hl_number itself
    col = hl_lab.constant_coloring((hl_lab.TreeSpace(2, 2),), 2)
    for name in ("to_json", "kind", "body"):
        assert not hasattr(hl_lab.Coloring, name), name
        assert not hasattr(col, name), name
    for name in ("kind", "body"):
        assert name not in inspect.signature(hl_lab.Coloring).parameters, name
    assert "check_total" not in inspect.signature(hl_lab.table_coloring).parameters


def test_searches_spend_from_the_callers_budget():
    # a run's one StepBudget replaces the Caps configuration each search
    # turned into a private budget, and the twins that shared one
    assert not hasattr(hl_lab, "Caps") and not hasattr(hl_lab.search, "Caps")
    assert hl_lab.StepBudget is hl_lab.search.StepBudget
    for name in hl_lab.__all__:
        entry = getattr(hl_lab, name)
        if inspect.isfunction(entry):
            assert "caps" not in inspect.signature(entry).parameters, name
    for name in SEARCHES + ("delta_system",):
        budget = inspect.signature(getattr(hl_lab, name)).parameters["budget"]
        assert budget.default is None, name
    assert not hasattr(hl_lab.witness, "_dshl_search")
    assert not hasattr(hl_lab.tailcone, "_apply_tailcone_partial")
    assert not hasattr(hl_lab.search, "first_assignment")


def test_step_budget_takes_only_its_cap():
    # ``used`` is read back after a run, never set by the caller
    assert list(inspect.signature(hl_lab.StepBudget).parameters) == ["cap"]
    assert hl_lab.StepBudget(7).used == 0


def test_tuple_types_are_ranked_not_built():
    # the height-permutation coloring ranks the sorting permutation itself
    for name in ("TupleType", "tuple_type"):
        assert not hasattr(hl_lab, name), name
        assert not hasattr(hl_lab.polarized, name), name
        assert name not in hl_lab.__all__, name


def test_a_colorings_arity_is_its_number_of_spaces():
    # one node per factor space, so no entry point asks for the arity
    for name in hl_lab.__all__:
        entry = getattr(hl_lab, name)
        if inspect.isfunction(entry) or (
                inspect.isclass(entry) and not issubclass(entry, Exception)):
            assert "arity" not in inspect.signature(entry).parameters, name
    assert list(inspect.signature(hl_lab.height_permutation_coloring).parameters) \
        == ["spaces"]
    space = hl_lab.TreeSpace(2, 3)
    for k in (1, 2, 3):
        assert hl_lab.Coloring(2, (space,) * k, lambda tup: 0).arity == k
    with pytest.raises(hl_lab.InvalidInputError, match="arity must be positive, got 0"):
        hl_lab.Coloring(2, (), lambda tup: 0)


def test_a_products_dimension_is_its_number_of_factors_less_one():
    # only the entry points whose dimension is the question itself take d;
    # verify_lower_bound reads it off its reports
    takes_d = set()
    for name in hl_lab.__all__:
        entry = getattr(hl_lab, name)
        if inspect.isfunction(entry) or (
                inspect.isclass(entry) and not issubclass(entry, Exception)):
            if "d" in inspect.signature(entry).parameters:
                takes_d.add(name)
    assert takes_d == {"finite_hl_number", "FiniteHLReport", "devlin_lower_bound"}
    assert list(inspect.signature(hl_lab.verify_lower_bound).parameters) == ["reports"]
    space = hl_lab.TreeSpace(2, 4)
    full = hl_lab.SubtreeReport(space, [n for a in range(4) for n in space.level(a)],
                                range(4))
    for factors in (2, 3, 4):
        report = hl_lab.verify_lower_bound((full,) * factors)
        assert report.realizes_all and report.total_types == math.factorial(factors)
