"""The package's export list: star-importable, resolvable, no repeats."""

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
    for name in ("sdhl_prime_search", "build_monochromatic_subtree",
                 "DefaultLargenessOracle", "BuildOutcome",
                 "OracleContradictionError"):
        assert not hasattr(hl_lab, name), name
