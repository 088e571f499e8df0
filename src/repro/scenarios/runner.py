"""Conformance runner: discovery + baselines scored over the scenario matrix.

For each registered :class:`~repro.scenarios.registry.Scenario` the runner
materializes the workload, runs the Figure-3 discovery engine (kernel
backend, with :class:`~repro.discovery.profile.DiscoveryProfile`
instrumentation), scores the adopted constraints against the planted
ground truth (precision / recall / false alarms), measures
KL(empirical ‖ fitted) as the goodness-of-fit summary, and optionally
runs the chi-square and BIC baseline selectors on the same table so the
paper's MML criterion is always compared against something.

The per-scenario :class:`~repro.scenarios.registry.ConformanceGates` are
then checked; CI's scenario-matrix job runs this in smoke mode and fails
the build on any gate miss, and ``benchmarks/run_all.py --json`` appends
the same per-scenario metrics to the benchmark trajectory.

Beyond quality, the runner enforces the scenario tier's
:class:`~repro.scenarios.registry.LatencySLO`: per-call p99 budgets for
the scan/fit/verify stages (from the discovery profile's per-call
samples) and p50/p99 budgets for a deterministic closed-loop query
replay (:mod:`repro.scenarios.replay`) driven against the fitted model.
SLO misses are reported separately from quality-gate misses but fail the
scenario the same way.  Set ``REPRO_SLO_SCALE`` (a positive float
multiplier) to relax or tighten every budget uniformly, e.g. on slow CI
hardware.
"""

from __future__ import annotations

import os
import time
from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.baselines.bic_selector import BICSelectorConfig, discover_bic
from repro.baselines.chi2_selector import Chi2SelectorConfig, discover_chi2
from repro.discovery.config import DiscoveryConfig
from repro.discovery.engine import DiscoveryEngine
from repro.discovery.trace import ConstraintRecovery, score_constraint_keys
from repro.exceptions import DataError
from repro.maxent.entropy import kl_divergence
from repro.scenarios.registry import (
    DEFAULT_TIERS,
    ConformanceGates,
    LatencySLO,
    Scenario,
    all_scenarios,
    get_scenario,
)
from repro.scenarios.replay import replay_session, scenario_query_mix

__all__ = [
    "BaselineScore",
    "ScenarioOutcome",
    "check_gates",
    "check_slo",
    "outcome_to_dict",
    "run_matrix",
    "run_scenario",
]

#: Requests issued by the per-scenario query replay (single client).
REPLAY_REQUESTS = 60


@dataclass(frozen=True)
class BaselineScore:
    """Recovery of one baseline selector on one scenario."""

    selector: str
    precision: float
    recall: float
    found: int
    seconds: float


@dataclass
class ScenarioOutcome:
    """Everything measured for one scenario run."""

    scenario: str
    smoke: bool
    n_samples: int
    num_attributes: int
    max_order: int
    truth_size: int
    recovery: ConstraintRecovery
    kl_empirical_fitted: float
    seconds: float
    scan_seconds: float
    fit_seconds: float
    verify_seconds: float
    fit_sweeps: int
    constraints_found: int
    workers: int = 1
    tier: str = "smoke"
    stage_latency_ms: dict = field(default_factory=dict)
    query_replay: dict = field(default_factory=dict)
    baselines: list[BaselineScore] = field(default_factory=list)
    gate_failures: list[str] = field(default_factory=list)
    slo_failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        """True when every quality gate and latency SLO held."""
        return not self.gate_failures and not self.slo_failures

    @property
    def precision(self) -> float:
        """Fraction of adopted constraints that lie on planted truth."""
        return self.recovery.precision

    @property
    def recall(self) -> float:
        """Fraction of the planted truth the engine recovered."""
        return self.recovery.recall


def check_gates(
    gates: ConformanceGates,
    recovery: ConstraintRecovery,
    kl: float,
) -> list[str]:
    """Human-readable description of every gate the outcome missed."""
    failures = []
    if recovery.precision < gates.min_precision:
        failures.append(
            f"precision {recovery.precision:.3f} < {gates.min_precision:.3f}"
        )
    if recovery.recall < gates.min_recall:
        failures.append(
            f"recall {recovery.recall:.3f} < {gates.min_recall:.3f}"
        )
    if kl > gates.max_kl:
        failures.append(f"KL {kl:.4f} > {gates.max_kl:.4f}")
    if (
        gates.max_false_alarms is not None
        and len(recovery.false_alarms) > gates.max_false_alarms
    ):
        failures.append(
            f"false alarms {len(recovery.false_alarms)} > "
            f"{gates.max_false_alarms}"
        )
    return failures


def check_slo(
    slo: LatencySLO,
    stage_latency_ms: dict,
    query_replay: dict,
) -> list[str]:
    """Human-readable description of every latency budget that was missed.

    ``stage_latency_ms`` holds ``{stage}_{p50|p99}_ms`` keys for the
    scan/fit/verify stages; ``query_replay`` holds the replay driver's
    ``p50_ms`` / ``p99_ms`` (missing or empty dicts skip those budgets,
    so a discovery run with no verify calls cannot fail the verify SLO).
    """
    failures = []
    for stage, q, budget in slo.budgets():
        label = "p50" if q == 0.50 else "p99"
        if stage == "query":
            observed = query_replay.get(f"{label}_ms")
        else:
            observed = stage_latency_ms.get(f"{stage}_{label}_ms")
        if observed is None:
            continue
        if observed > budget:
            failures.append(
                f"{stage} {label} {observed:.1f}ms > {budget:.1f}ms"
            )
    return failures


def _slo_scale() -> float:
    """The global SLO multiplier from ``REPRO_SLO_SCALE`` (default 1.0).

    A value that is not a positive finite number raises :class:`DataError`
    rather than silently leaving the budgets unscaled.
    """
    raw = os.environ.get("REPRO_SLO_SCALE", "").strip()
    if not raw:
        return 1.0
    try:
        scale = float(raw)
    except ValueError:
        scale = float("nan")
    if not 0 < scale < float("inf"):
        raise DataError(f"REPRO_SLO_SCALE must be a positive number, got {raw!r}")
    return scale


def run_scenario(
    scenario: Scenario | str,
    smoke: bool = True,
    include_baselines: bool = True,
    workers: int = 1,
    include_replay: bool = True,
) -> ScenarioOutcome:
    """Run discovery (+ baselines + query replay) on one scenario.

    ``workers > 1`` runs the discovery scans sharded across a worker pool;
    adoption decisions (and therefore every conformance metric except the
    timings) are bit-identical to the serial run, which is exactly what
    CI's parallel-equivalence smoke step relies on.

    ``include_replay`` drives the scenario's deterministic query mix
    closed-loop against the fitted model and gates the latencies on the
    scenario's SLO; pass False to skip the replay (its query budgets are
    then not enforced, but the stage budgets still are).
    """
    if isinstance(scenario, str):
        scenario = get_scenario(scenario)
    instance = scenario.build(smoke)
    table = instance.table
    config = DiscoveryConfig(max_order=scenario.max_order, max_workers=workers)

    start = time.perf_counter()
    with DiscoveryEngine(config) as engine:
        result = engine.run(table)
    seconds = time.perf_counter() - start

    recovery = result.score_against(set(instance.truth))
    kl = kl_divergence(
        table.probabilities().ravel(), result.model.joint().ravel()
    )
    profile = result.profile

    stage_latency_ms = {}
    if profile is not None:
        for stage in ("scan", "fit", "verify"):
            stage_latency_ms[f"{stage}_p50_ms"] = profile.stage_percentile_ms(
                stage, 0.50
            )
            stage_latency_ms[f"{stage}_p99_ms"] = profile.stage_percentile_ms(
                stage, 0.99
            )

    query_replay: dict = {}
    if include_replay:
        queries = scenario_query_mix(table.schema, scenario.seed)
        query_replay = replay_session(
            result.model, queries, requests=REPLAY_REQUESTS
        )

    baselines: list[BaselineScore] = []
    if include_baselines:
        truth = set(instance.truth)
        baseline_start = time.perf_counter()
        chi2 = discover_chi2(
            table, Chi2SelectorConfig(max_order=scenario.max_order)
        )
        baselines.append(
            _baseline_score(
                "chi2",
                truth,
                {c.key for c in chi2.found},
                time.perf_counter() - baseline_start,
            )
        )
        baseline_start = time.perf_counter()
        bic = discover_bic(
            table, BICSelectorConfig(max_order=scenario.max_order)
        )
        baselines.append(
            _baseline_score(
                "bic",
                truth,
                {c.key for c in bic.found},
                time.perf_counter() - baseline_start,
            )
        )

    outcome = ScenarioOutcome(
        scenario=scenario.name,
        smoke=smoke,
        n_samples=table.total,
        num_attributes=len(table.schema),
        max_order=scenario.max_order,
        truth_size=len(instance.truth),
        recovery=recovery,
        kl_empirical_fitted=kl,
        seconds=seconds,
        scan_seconds=profile.scan_seconds if profile else 0.0,
        fit_seconds=profile.fit_seconds if profile else 0.0,
        verify_seconds=profile.verify_seconds if profile else 0.0,
        fit_sweeps=profile.fit_sweeps if profile else 0,
        constraints_found=len(result.found),
        workers=workers,
        tier=scenario.tier,
        stage_latency_ms=stage_latency_ms,
        query_replay=query_replay,
        baselines=baselines,
    )
    outcome.gate_failures = check_gates(
        scenario.gates_for(smoke), recovery, kl
    )
    slo = scenario.slo_for(smoke)
    scale = _slo_scale()
    if scale != 1.0:
        slo = slo.scaled(scale)
    outcome.slo_failures = check_slo(slo, stage_latency_ms, query_replay)
    return outcome


def _baseline_score(selector, truth, found_keys, seconds) -> BaselineScore:
    score = score_constraint_keys(truth, found_keys)
    return BaselineScore(
        selector=selector,
        precision=score.precision,
        recall=score.recall,
        found=len(found_keys),
        seconds=seconds,
    )


def run_matrix(
    names: Sequence[str] | None = None,
    smoke: bool = True,
    include_baselines: bool = True,
    workers: int = 1,
    tiers: str | Sequence[str] | None = None,
    include_replay: bool = True,
) -> list[ScenarioOutcome]:
    """Run the conformance runner over (a selection of) the registry.

    When ``names`` is None the selection is tier-driven: ``tiers``
    defaults to :data:`~repro.scenarios.registry.DEFAULT_TIERS` (the
    stress tier is opt-in via ``tiers="stress"`` or ``tiers="all"``).
    Explicit ``names`` ignore the tier filter.
    """
    if names is None:
        selected = tiers if tiers is not None else DEFAULT_TIERS
        scenarios = list(all_scenarios(selected))
    else:
        scenarios = [get_scenario(name) for name in names]
    return [
        run_scenario(
            scenario,
            smoke,
            include_baselines,
            workers=workers,
            include_replay=include_replay,
        )
        for scenario in scenarios
    ]


def outcome_to_dict(outcome: ScenarioOutcome) -> dict:
    """JSON-ready dict of one outcome (keys → lists for serialization)."""
    return {
        "scenario": outcome.scenario,
        "smoke": outcome.smoke,
        "n_samples": outcome.n_samples,
        "num_attributes": outcome.num_attributes,
        "max_order": outcome.max_order,
        "truth_size": outcome.truth_size,
        "constraints_found": outcome.constraints_found,
        "precision": outcome.precision,
        "recall": outcome.recall,
        "false_alarms": len(outcome.recovery.false_alarms),
        "missed": len(outcome.recovery.missed),
        "kl_empirical_fitted": outcome.kl_empirical_fitted,
        "seconds": outcome.seconds,
        "stage_scan_s": outcome.scan_seconds,
        "stage_fit_s": outcome.fit_seconds,
        "stage_verify_s": outcome.verify_seconds,
        "fit_sweeps": outcome.fit_sweeps,
        "workers": outcome.workers,
        "tier": outcome.tier,
        "stage_latency_ms": dict(outcome.stage_latency_ms),
        "query_replay": dict(outcome.query_replay),
        "baselines": [
            {
                "selector": b.selector,
                "precision": b.precision,
                "recall": b.recall,
                "found": b.found,
                "seconds": b.seconds,
            }
            for b in outcome.baselines
        ],
        "gate_failures": list(outcome.gate_failures),
        "slo_failures": list(outcome.slo_failures),
        "passed": outcome.passed,
    }
