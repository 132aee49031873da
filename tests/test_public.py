"""The names ``mahlerq`` exports: sorted, importable, and only library code."""

import mahlerq
import mahlerq.inversion
import mahlerq.mirror


def test_all_is_sorted_and_resolves():
    assert mahlerq.__all__ == sorted(mahlerq.__all__)
    assert all(hasattr(mahlerq, name) for name in mahlerq.__all__)


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from mahlerq import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == mahlerq.__all__


# Test and benchmark oracles that stay in their modules: MirrorData.build
# gives the periods and maps, integrality_report the columns.
MODULE_ONLY = {
    mahlerq.mirror: ("f_series", "g0_series", "h_series", "local_mirror_map", "mirror_map"),
    mahlerq.inversion: ("g0_expansions", "u_series", "v_series"),
}


def test_removed_names_are_not_exported():
    # pf_apply is a test oracle (tests/oracles.py); the report's columns
    # are fields of IntegralityReport, with no separate table record.
    for name in ("LambertTable", "pf_apply"):
        assert name not in mahlerq.__all__
        assert not hasattr(mahlerq, name)
    for module, names in MODULE_ONLY.items():
        for name in names:
            assert name not in mahlerq.__all__
            assert not hasattr(mahlerq, name)
            assert callable(getattr(module, name))
    assert len(mahlerq.__all__) == 23
