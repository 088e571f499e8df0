"""Baselines: independence, saturated, chi-square / BIC / log-linear selectors."""

from repro.baselines.bic_selector import BICResult, BICSelectorConfig, discover_bic
from repro.baselines.chi2_selector import Chi2SelectorConfig, discover_chi2
from repro.baselines.empirical import empirical_joint, empirical_model
from repro.baselines.independence import independence_model
from repro.baselines.loglinear import (
    LogLinearConfig,
    LogLinearResult,
    discover_loglinear,
)

__all__ = [
    "BICResult",
    "BICSelectorConfig",
    "Chi2SelectorConfig",
    "LogLinearConfig",
    "LogLinearResult",
    "discover_bic",
    "discover_chi2",
    "discover_loglinear",
    "empirical_joint",
    "empirical_model",
    "independence_model",
]
