"""Discovery of significant correlations (the paper's Figure-3 procedure)."""

from repro.discovery.config import DiscoveryConfig
from repro.discovery.engine import DiscoveryEngine, discover
from repro.discovery.profile import DiscoveryProfile
from repro.discovery.trace import (
    ConstraintRecovery,
    DiscoveryResult,
    ScanRecord,
    score_constraint_keys,
)

__all__ = [
    "ConstraintRecovery",
    "DiscoveryConfig",
    "DiscoveryEngine",
    "DiscoveryProfile",
    "DiscoveryResult",
    "ScanRecord",
    "discover",
    "score_constraint_keys",
]
