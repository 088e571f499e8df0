"""Significance testing: MML criterion (the paper's) and classical tests."""

from repro.significance.binomial import (
    binomial_mean,
    binomial_sd,
    log_binomial_coefficients,
    log_binomial_pmf,
    log_binomial_pmf_array,
    standard_score,
)
from repro.significance.kernels import LazyScanTests, OrderScanKernel
from repro.significance.mml import (
    MMLPriors,
    evaluate_cell,
    feasible_range,
    most_significant,
    reference_scan_order,
    scan_order,
)
from repro.significance.result import CellTest

__all__ = [
    "CellTest",
    "LazyScanTests",
    "MMLPriors",
    "OrderScanKernel",
    "binomial_mean",
    "binomial_sd",
    "evaluate_cell",
    "feasible_range",
    "log_binomial_coefficients",
    "log_binomial_pmf",
    "log_binomial_pmf_array",
    "most_significant",
    "reference_scan_order",
    "scan_order",
    "standard_score",
]
