"""Exact engine for Mahler-measure variation series, mirror maps and
their integrality tables over Fermat-type weight systems."""

from .series import Series, lagrange_coeffs
from .weights import (
    KVector,
    Model,
    aut_order,
    counts,
    enumerate_solutions,
    floor_gap_check,
    floor_gaps,
)
from .mirror import (
    ConvergenceError,
    MahlerMeasure,
    MirrorData,
    PFOperator,
    alpha,
    f_series,
    g0_series,
    h_series,
    local_mirror_map,
    mahler_measure,
    mirror_map,
    pf2_applicable,
    pf_operator,
)
from .inversion import (
    ConsistencyError,
    IntegralityReport,
    g0_expansions,
    integrality_report,
    lambert_invert,
    lambert_series,
    product_check,
    u_series,
    v_series,
)

__version__ = "0.1.0"

__all__ = [
    "ConsistencyError",
    "ConvergenceError",
    "IntegralityReport",
    "KVector",
    "MahlerMeasure",
    "MirrorData",
    "Model",
    "PFOperator",
    "Series",
    "alpha",
    "aut_order",
    "counts",
    "enumerate_solutions",
    "f_series",
    "floor_gap_check",
    "floor_gaps",
    "g0_expansions",
    "g0_series",
    "h_series",
    "integrality_report",
    "lagrange_coeffs",
    "lambert_invert",
    "lambert_series",
    "local_mirror_map",
    "mahler_measure",
    "mirror_map",
    "pf2_applicable",
    "pf_operator",
    "product_check",
    "u_series",
    "v_series",
]
