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
    mahler_measure,
    pf2_applicable,
    pf_operator,
)
from .inversion import (
    ConsistencyError,
    IntegralityReport,
    integrality_report,
    lambert_invert,
    lambert_series,
    product_check,
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
    "floor_gap_check",
    "floor_gaps",
    "integrality_report",
    "lagrange_coeffs",
    "lambert_invert",
    "lambert_series",
    "mahler_measure",
    "pf2_applicable",
    "pf_operator",
    "product_check",
]
