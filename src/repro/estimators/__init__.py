"""Model lifecycle: the ``fit`` / ``update`` / ``refresh`` protocol.

Estimators make *learning* pluggable — one protocol
(:class:`Estimator`), a registry (:func:`register_estimator` /
:func:`create_estimator`), and implementations for the paper's discovery
engine (with warm-started rediscovery) and every baseline.

Quickstart::

    from repro.estimators import create_estimator

    est = create_estimator("discovery").fit(table)
    report = est.update(next_batch)     # warm-started; report.mode == "warm"
    est.model                           # the refined MaxEntModel
"""

from repro.estimators.base import (
    Estimator,
    UpdateReport,
    as_table,
    available_estimators,
    create_estimator,
    register_estimator,
    unregister_estimator,
)
from repro.estimators.baselines import (
    EmpiricalEstimator,
    IndependenceEstimator,
    LogLinearEstimator,
    NaiveBayesEstimator,
)
from repro.estimators.discovery import (
    DiscoveryEstimator,
    scan_for_new_significance,
)

__all__ = [
    "DiscoveryEstimator",
    "EmpiricalEstimator",
    "Estimator",
    "IndependenceEstimator",
    "LogLinearEstimator",
    "NaiveBayesEstimator",
    "UpdateReport",
    "as_table",
    "available_estimators",
    "create_estimator",
    "register_estimator",
    "scan_for_new_significance",
    "unregister_estimator",
]
