"""The package's public surface: export list and entry-point signatures."""

import inspect

import hl_lab


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


def test_searches_read_their_trees_from_the_coloring():
    for name in ("sdhl_search", "check_sdhl_witness", "check_dshl_witness",
                 "dshl_search", "fuse", "apply_tailcone_partial", "hl_search",
                 "dimension_induction", "almost_all_homogenize", "polarized_search"):
        assert "trees" not in inspect.signature(getattr(hl_lab, name)).parameters, name
    # checks a witness inside the subtrees it was built in
    assert "trees" in inspect.signature(hl_lab.check_somewhere_dense_witness).parameters
