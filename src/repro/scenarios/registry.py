"""Registry of named, seeded discovery workloads with known ground truth.

Each :class:`Scenario` is a generative workload — a seeded builder that
produces a contingency table plus the exact set of constraint keys a
perfect discovery run would adopt — along with per-scenario
:class:`ConformanceGates` that CI enforces in smoke mode
(``REPRO_BENCH_SMOKE=1``) and benchmarks track at full size.

The fleet is one literal table, a row per scenario.  Most rows build
through two shared recipes: :func:`_sampled` samples a generator's
population (optionally through dataset corruptions) and :func:`_stream`
merges phases whose margins drift.  Only ``missing-data`` has a builder
of its own; ``mixed-order`` and ``star-hub`` bring their own population
generators.  A workload outside the table is an ad-hoc :class:`Scenario`
passed to :func:`repro.scenarios.runner.run_scenario`.

Scenarios are grouped into **tiers** (:data:`TIERS`) that weight the
workload rather than the sample size: the ``smoke`` tier is the original
friendly matrix, the ``full`` tier adds adversarial structure (wide
worlds, order-4 interactions, Zipf cardinality, corruptions), and the
``stress`` tier holds the heavy workloads only the nightly stress matrix
runs.  Orthogonally, every scenario still has smoke/full *sample sizes*
selected by the ``smoke`` flag.

Besides quality gates, each tier carries a :class:`LatencySLO` — p99
budgets per discovery stage (scan/fit/verify, measured by
:class:`~repro.discovery.profile.DiscoveryProfile`) plus p50/p99 budgets
for replayed query traffic — so the fleet validates *scale* as well as
*quality*.  Budgets are generous (order-of-magnitude guards, not noise
detectors) and scale with the tier.

Scenarios are deterministic: the builder receives a generator seeded with
``Scenario.seed``, so two builds of the same scenario at the same size
produce identical tables — which is what lets the conformance gates be
exact assertions rather than statistical hopes.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, field, fields, replace
from functools import partial

import numpy as np

from repro.data.contingency import ContingencyTable
from repro.data.missing import MISSING, IncompleteDataset, complete_table
from repro.data.streaming import TableBuilder
from repro.exceptions import DataError
from repro.maxent.constraints import CellKey
from repro.synth.adversarial import (
    apply_label_noise,
    correlated_drifted_margins,
    duplicate_rows,
    heavy_tailed_population,
    high_order_population,
    near_singular_population,
    orbit_truth,
    wide_population,
)
from repro.synth.generators import (
    PlantedCell,
    PlantedPopulation,
    build_planted_population,
    chained_population,
    drifted_margins,
    independent_population,
    near_deterministic_population,
    random_margins,
    random_planted_population,
    random_schema,
    skewed_population,
)
from repro.synth.surveys import medical_survey_population, telemetry_population

__all__ = [
    "DEFAULT_TIERS",
    "TIERS",
    "ConformanceGates",
    "LatencySLO",
    "Scenario",
    "ScenarioInstance",
    "all_scenarios",
    "default_slo",
    "get_scenario",
    "scenario_names",
]

#: Recognized workload tiers, lightest first.  ``smoke`` and ``full`` run
#: in CI on every push; ``stress`` is reserved for the nightly matrix.
TIERS = ("smoke", "full", "stress")

#: Tiers included when a caller does not ask for specific ones.  The
#: stress tier is deliberately opt-in (``--tier stress`` / ``--tier all``).
DEFAULT_TIERS = ("smoke", "full")

#: Multiplier applied to a tier's smoke-mode SLO when a scenario runs at
#: full sample size.  Stage costs are dominated by table dimensions rather
#: than sample count, so a small constant headroom suffices.
FULL_SLO_SCALE = 4.0


@dataclass(frozen=True)
class LatencySLO:
    """Per-stage latency budgets, in milliseconds (``None`` = ungated).

    ``scan``/``fit``/``verify`` budgets bound the per-call p99 latency
    recorded by :class:`~repro.discovery.profile.DiscoveryProfile`;
    ``query`` budgets bound the p50 and p99 of the query-traffic replay
    (:func:`repro.scenarios.replay.replay_session`) that each scenario
    drives against a :class:`~repro.api.session.QuerySession` after
    discovery.  Budgets are order-of-magnitude guards: they catch a
    stage whose latency regressed 10x, not CI jitter.
    """

    scan_p99_ms: float | None = None
    fit_p99_ms: float | None = None
    verify_p99_ms: float | None = None
    query_p50_ms: float | None = None
    query_p99_ms: float | None = None

    def __post_init__(self) -> None:
        for name, value in self._set_budgets():
            if value <= 0:
                raise DataError(f"{name} must be positive or None, got {value}")
        p50, p99 = self.query_p50_ms, self.query_p99_ms
        if p50 is not None and p99 is not None and p50 > p99:
            raise DataError(f"query p50 budget ({p50}) exceeds p99 budget ({p99})")

    def _set_budgets(self) -> list[tuple[str, float]]:
        """``(field name, budget)`` of every set budget, in field order."""
        return [
            (spec.name, getattr(self, spec.name))
            for spec in fields(self)
            if getattr(self, spec.name) is not None
        ]

    def scaled(self, factor: float) -> LatencySLO:
        """A copy with every set budget multiplied by ``factor``."""
        if factor <= 0:
            raise DataError(f"SLO scale factor must be positive, got {factor}")
        return LatencySLO(
            **{name: value * factor for name, value in self._set_budgets()}
        )

    def budgets(self) -> list[tuple[str, float, float]]:
        """Set budgets as ``(stage, quantile, budget_ms)`` triples."""
        return [
            (name.split("_")[0], 0.50 if "_p50_" in name else 0.99, float(value))
            for name, value in self._set_budgets()
        ]

    def describe(self) -> str:
        """Compact one-line rendering, e.g. ``scan p99<=2000ms``."""
        parts = [
            f"{name.removesuffix('_ms').replace('_', ' ')}<={value:g}ms"
            for name, value in self._set_budgets()
        ]
        return " ".join(parts) if parts else "ungated"


#: Tier-adaptive default SLOs (smoke-size budgets; full-size runs scale
#: them by :data:`FULL_SLO_SCALE`).  Heavier tiers get wider budgets —
#: the gates adapt per tier instead of applying one global bar.
_TIER_SLOS = {
    "smoke": LatencySLO(
        scan_p99_ms=2500.0,
        fit_p99_ms=2500.0,
        verify_p99_ms=2500.0,
        query_p50_ms=50.0,
        query_p99_ms=250.0,
    ),
    "full": LatencySLO(
        scan_p99_ms=5000.0,
        fit_p99_ms=5000.0,
        verify_p99_ms=5000.0,
        query_p50_ms=100.0,
        query_p99_ms=500.0,
    ),
    "stress": LatencySLO(
        scan_p99_ms=20000.0,
        fit_p99_ms=20000.0,
        verify_p99_ms=20000.0,
        query_p50_ms=250.0,
        query_p99_ms=1500.0,
    ),
}


def default_slo(tier: str) -> LatencySLO:
    """The tier's default latency budgets (see :data:`TIERS`)."""
    if tier not in _TIER_SLOS:
        raise DataError(f"unknown tier {tier!r}; expected one of {TIERS}")
    return _TIER_SLOS[tier]


@dataclass(frozen=True)
class ConformanceGates:
    """Machine-checkable quality floor for one scenario.

    ``min_precision`` / ``min_recall`` bound the recovery of the planted
    ground truth; ``max_kl`` bounds KL(empirical ‖ fitted) in nats (how
    much of the sample the fitted model fails to explain);
    ``max_false_alarms`` caps adoptions outside the ground truth (the only
    meaningful gate for the null scenario).  Gates apply in both smoke and
    full modes — scenario sizes are chosen so the smoke run already meets
    them with headroom.
    """

    min_precision: float = 0.0
    min_recall: float = 0.0
    max_kl: float = float("inf")
    max_false_alarms: int | None = None

    def __post_init__(self) -> None:
        for name in ("min_precision", "min_recall"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise DataError(f"{name} must be in [0, 1], got {value}")
        if self.max_kl <= 0:
            raise DataError(f"max_kl must be positive, got {self.max_kl}")
        if self.max_false_alarms is not None and self.max_false_alarms < 0:
            raise DataError(
                f"max_false_alarms must be >= 0, got {self.max_false_alarms}"
            )

    def describe(self) -> str:
        """Compact one-line rendering, e.g. ``P>=0.50 R>=1.00 KL<=0.05``."""
        parts = []
        if self.min_precision > 0:
            parts.append(f"P>={self.min_precision:.2f}")
        if self.min_recall > 0:
            parts.append(f"R>={self.min_recall:.2f}")
        if self.max_kl != float("inf"):
            parts.append(f"KL<={self.max_kl:g}")
        if self.max_false_alarms is not None:
            parts.append(f"FA<={self.max_false_alarms}")
        return " ".join(parts) if parts else "ungated"


@dataclass
class ScenarioInstance:
    """One materialized workload: the table discovery sees plus the truth.

    ``truth`` holds the constraint keys of the planted structure;
    ``population`` is kept when the instance came from a
    :class:`~repro.synth.generators.PlantedPopulation` so callers can
    inspect the generating joint.
    """

    table: ContingencyTable
    truth: frozenset[CellKey]
    population: PlantedPopulation | None = None


#: Signature of a scenario builder: seeded generator + sample size in,
#: materialized instance out.
ScenarioBuilder = Callable[[np.random.Generator, int], ScenarioInstance]


@dataclass(frozen=True)
class Scenario:
    """A named, seeded, generative discovery workload.

    ``gates`` is the smoke-mode contract CI enforces.  ``full_gates``
    (defaulting to ``gates``) covers full-size runs, where the strict
    exact-key scoring convention legitimately reports lower precision: a
    planted cell shifts adjacent cells of the same marginal, and with
    enough samples those genuinely shifted neighbours become significant
    too, counting as "false" alarms even though the joint really moved.

    ``tier`` is the workload weight class (:data:`TIERS`) and picks the
    latency budgets (:func:`default_slo`); ``attributes`` declares the
    built schema's width (rendered in catalogs and checked against the
    built instance by the registry tests).
    """

    name: str
    description: str
    seed: int
    builder: ScenarioBuilder
    max_order: int = 2
    smoke_samples: int = 4000
    full_samples: int = 40000
    gates: ConformanceGates = field(default_factory=ConformanceGates)
    full_gates: ConformanceGates | None = None
    tags: tuple[str, ...] = ()
    tier: str = "smoke"
    attributes: int = 0

    def __post_init__(self) -> None:
        if not self.name or any(c.isspace() for c in self.name):
            raise DataError(
                f"scenario name must be non-empty without whitespace, "
                f"got {self.name!r}"
            )
        if self.max_order < 2:
            raise DataError(f"max_order must be >= 2, got {self.max_order}")
        if self.smoke_samples < 1 or self.full_samples < self.smoke_samples:
            raise DataError(
                "need 1 <= smoke_samples <= full_samples, got "
                f"{self.smoke_samples} / {self.full_samples}"
            )
        if self.tier not in TIERS:
            raise DataError(f"tier must be one of {TIERS}, got {self.tier!r}")
        if self.attributes < 0:
            raise DataError(f"attributes must be >= 0, got {self.attributes}")

    def sample_size(self, smoke: bool) -> int:
        """Sample count for the requested mode."""
        return self.smoke_samples if smoke else self.full_samples

    def gates_for(self, smoke: bool) -> ConformanceGates:
        """Quality gates for the requested mode."""
        if smoke or self.full_gates is None:
            return self.gates
        return self.full_gates

    def slo_for(self, smoke: bool) -> LatencySLO:
        """The tier's budgets, scaled by :data:`FULL_SLO_SCALE` at full size."""
        slo = default_slo(self.tier)
        return slo if smoke else slo.scaled(FULL_SLO_SCALE)

    def build(self, smoke: bool = True) -> ScenarioInstance:
        """Materialize the workload (deterministic for a given size)."""
        rng = np.random.default_rng(self.seed)
        return self.builder(rng, self.sample_size(smoke))


# -- lookup ------------------------------------------------------------------------


def _normalize_tiers(
    tiers: str | Sequence[str] | None,
) -> tuple[str, ...] | None:
    """Resolve a tier filter; ``None``/"all" mean every tier."""
    if tiers is None:
        return None
    if isinstance(tiers, str):
        tiers = (tiers,)
    resolved = tuple(tiers)
    if "all" in resolved:
        return None
    for tier in resolved:
        if tier not in TIERS:
            raise DataError(
                f"unknown tier {tier!r}; expected one of {TIERS + ('all',)}"
            )
    return resolved


def get_scenario(name: str) -> Scenario:
    """Look up one scenario by name (raises DataError when absent)."""
    if name not in _BY_NAME:
        raise DataError(f"no scenario named {name!r}; registered: {scenario_names()}")
    return _BY_NAME[name]


def scenario_names(tiers: str | Sequence[str] | None = None) -> list[str]:
    """Registered names in table order, optionally tier-filtered.

    ``tiers`` may be a single tier name, a sequence of them, ``"all"``,
    or ``None`` (no filter).
    """
    return [scenario.name for scenario in all_scenarios(tiers)]


def all_scenarios(
    tiers: str | Sequence[str] | None = None,
) -> Iterator[Scenario]:
    """Iterate registered scenarios, optionally filtered by tier."""
    wanted = _normalize_tiers(tiers)
    return (s for s in _FLEET if wanted is None or s.tier in wanted)


# -- recipes -----------------------------------------------------------------------


def _orbits_with_subsets(population: PlantedPopulation) -> set[CellKey]:
    """Planted orbits plus every sub-subset's (for order-3+ plants)."""
    return orbit_truth(population, include_subsets=True)


def _sampled(
    generator: Callable[..., PlantedPopulation],
    *,
    truth: Callable[[PlantedPopulation], set[CellKey]] = PlantedPopulation.planted_keys,
    corruptions: Sequence[Callable] = (),
    **kwargs,
) -> ScenarioBuilder:
    """Sample the population ``generator(rng, **kwargs)`` draws.

    ``corruptions`` are ``(dataset, rng) -> dataset`` steps applied in
    order to the sampled rows.  ``truth`` maps the population to the keys
    discovery is scored against: the planted cells, or their
    :func:`~repro.synth.adversarial.orbit_truth`.  Binary planted subsets
    saturate their whole interaction, so the engine may adopt any cell of
    the orbit; scenarios scored on orbits gate on precision rather than
    exact-cell recall.
    """

    def build(rng: np.random.Generator, n: int) -> ScenarioInstance:
        population = generator(rng, **kwargs)
        dataset = population.sample(n, rng)
        for corrupt in corruptions:
            dataset = corrupt(dataset, rng)
        return ScenarioInstance(
            table=dataset.to_contingency(),
            truth=frozenset(truth(population)),
            population=population,
        )

    return build


def _population_margins(
    population: PlantedPopulation,
) -> dict[str, np.ndarray]:
    """First-order margins of a population's joint, keyed by name."""
    axes = range(len(population.schema))
    return {
        name: population.joint.sum(axis=tuple(a for a in axes if a != axis))
        for axis, name in enumerate(population.schema.names)
    }


def _stream(
    phases: int,
    drift: Callable[[np.random.Generator, dict], dict],
    *,
    drift_first: bool = False,
    **kwargs,
) -> ScenarioBuilder:
    """A chained world streamed in ``phases`` chunks whose margins drift.

    The planted associations (what discovery should find) persist; only
    the margins move, by ``drift(rng, margins)`` between phases.  The
    phases split the sample evenly (the last takes the remainder) and
    accumulate through :class:`~repro.data.streaming.TableBuilder`, the
    ingestion path the lifecycle layer uses.  ``drift_first`` draws the
    next phase's margins before sampling the current phase rather than
    after it; the two orders consume the generator differently.
    """

    def build(rng: np.random.Generator, n: int) -> ScenarioInstance:
        base = chained_population(rng, **kwargs)
        builder = TableBuilder(base.schema)
        margins = _population_margins(base)
        current = base
        for _ in range(phases - 1):
            if drift_first:
                margins = drift(rng, margins)
            builder.add_table(current.sample_table(n // phases, rng))
            if not drift_first:
                margins = drift(rng, margins)
            current = build_planted_population(base.schema, margins, base.planted)
        builder.add_table(current.sample_table(n - (phases - 1) * (n // phases), rng))
        return ScenarioInstance(
            table=builder.snapshot(),
            truth=frozenset(base.planted_keys()),
            population=base,
        )

    return build


# -- scenario-specific builders ----------------------------------------------------


def _missing_data(rng: np.random.Generator, n: int) -> ScenarioInstance:
    """Telemetry samples with 15% MCAR blanks, EM-completed before discovery."""
    population = telemetry_population()
    dataset = population.sample(n, rng)
    rows = np.array(dataset.rows)
    mask = rng.random(rows.shape) < 0.15
    # Never blank out an entire sample; EM needs at least one observed field.
    all_missing = mask.all(axis=1)
    mask[all_missing, 0] = False
    rows[mask] = MISSING
    incomplete = IncompleteDataset(population.schema, rows)
    table, _em = complete_table(incomplete)
    return ScenarioInstance(
        table=table,
        truth=frozenset(population.planted_keys()),
        population=population,
    )


def _random_value(rng: np.random.Generator, schema, name: str) -> int:
    return int(rng.integers(schema.attribute(name).cardinality))


def _mixed_order_population(rng: np.random.Generator) -> PlantedPopulation:
    """An order-2 cell and an order-3 cell planted in one 5-attribute world."""
    schema = random_schema(rng, 5, min_values=2, max_values=3)
    margins = random_margins(rng, schema)
    names = schema.names
    pair = tuple(_random_value(rng, schema, name) for name in names[:2])
    triple = tuple(_random_value(rng, schema, name) for name in names[2:])
    planted = [PlantedCell(names[:2], pair, 4.0), PlantedCell(names[2:], triple, 6.0)]
    return build_planted_population(schema, margins, planted)


def _mixed_order_truth(population: PlantedPopulation) -> set[CellKey]:
    """The order-2 cell exactly; the order-3 cell's orbit with sub-subsets.

    The order-3 cell genuinely shifts its pairwise marginals too, so the
    shadows are real structure, not noise.
    """
    pair, triple = population.planted
    return {(pair.attributes, pair.values)} | _orbits_with_subsets(
        replace(population, planted=(triple,))
    )


def _star_hub_population(rng: np.random.Generator) -> PlantedPopulation:
    """One hub attribute pairwise-linked to every other attribute."""
    schema = random_schema(rng, 5, min_values=2, max_values=3)
    margins = random_margins(rng, schema)
    hub, *spokes = schema.names
    planted = [
        PlantedCell(
            (hub, spoke),
            (_random_value(rng, schema, hub), _random_value(rng, schema, spoke)),
            3.5,
        )
        for spoke in spokes
    ]
    return build_planted_population(schema, margins, planted)


# -- the fleet ---------------------------------------------------------------------

_FLEET: tuple[Scenario, ...] = (
    Scenario(
        name="independence",
        description="4 independent attributes; nothing to find (false-alarm control)",
        seed=101,
        builder=_sampled(independent_population, num_attributes=4),
        max_order=3,
        gates=ConformanceGates(
            min_precision=1.0, min_recall=1.0, max_kl=0.05, max_false_alarms=0
        ),
        tags=("null", "order2"),
        tier="smoke",
        attributes=4,
    ),
    Scenario(
        name="single-pairwise",
        description="one strong planted order-2 cell among 4 attributes",
        seed=202,
        builder=_sampled(
            random_planted_population,
            num_attributes=4,
            num_planted=1,
            strength=4.0,
            order=2,
        ),
        max_order=2,
        gates=ConformanceGates(min_precision=0.5, min_recall=1.0, max_kl=0.05),
        tags=("order2",),
        tier="smoke",
        attributes=4,
    ),
    Scenario(
        name="chained-pairwise",
        description="order-2 dependencies chained along 5 attributes "
        "(A-B, B-C, C-D, D-E)",
        seed=303,
        builder=_sampled(chained_population, num_attributes=5, strength=3.5),
        max_order=2,
        gates=ConformanceGates(min_precision=0.5, min_recall=0.75, max_kl=0.08),
        tags=("order2", "chain"),
        tier="smoke",
        attributes=5,
    ),
    Scenario(
        name="order3-interaction",
        description="medical-survey world with two order-2 links and "
        "one genuine order-3 interaction",
        seed=404,
        builder=_sampled(lambda rng: medical_survey_population()),
        max_order=3,
        gates=ConformanceGates(min_precision=0.4, min_recall=0.66, max_kl=0.05),
        full_gates=ConformanceGates(min_precision=0.1, min_recall=1.0, max_kl=0.01),
        tags=("order3",),
        tier="smoke",
        attributes=5,
    ),
    Scenario(
        name="near-deterministic",
        description="one pair boosted ~40x: an almost-deterministic IF-THEN rule",
        seed=505,
        builder=_sampled(near_deterministic_population, strength=40.0),
        max_order=2,
        # A near-saturated pair genuinely shifts its whole 2-D marginal, so
        # the strict exact-key convention counts the adjacent cells as false
        # alarms; the gate asks for the rule itself (recall 1.0) with
        # bounded collateral adoptions.
        gates=ConformanceGates(min_precision=0.25, min_recall=1.0, max_kl=0.05),
        tags=("order2", "extreme"),
        tier="smoke",
        attributes=3,
    ),
    Scenario(
        name="skewed-marginals",
        description="margins dominated by one value; planted link in the rare corner",
        seed=606,
        builder=_sampled(
            skewed_population, num_attributes=4, skew=8.0, num_planted=1, strength=5.0
        ),
        max_order=2,
        gates=ConformanceGates(min_precision=0.5, min_recall=1.0, max_kl=0.05),
        tags=("order2", "skew"),
        tier="smoke",
        attributes=4,
    ),
    Scenario(
        name="high-cardinality",
        description="3 attributes with 5-6 values each (large candidate "
        "pools per subset)",
        seed=707,
        builder=_sampled(
            random_planted_population,
            num_attributes=3,
            num_planted=2,
            strength=4.0,
            order=2,
            min_values=5,
            max_values=6,
        ),
        max_order=2,
        gates=ConformanceGates(min_precision=0.5, min_recall=1.0, max_kl=0.08),
        tags=("order2", "cardinality"),
        tier="smoke",
        attributes=3,
    ),
    Scenario(
        name="sparse-counts",
        description="5 attributes at a deliberately small sample size; "
        "tests false-alarm control when counts are thin",
        seed=808,
        builder=_sampled(
            random_planted_population,
            num_attributes=5,
            num_planted=2,
            strength=3.0,
            order=2,
        ),
        max_order=2,
        smoke_samples=500,
        full_samples=1500,
        # Thin counts keep this scenario's discovery conservative (it may
        # legitimately find nothing, scoring precision 0.0), so the gates
        # bound false alarms and fit quality, not recovery.
        gates=ConformanceGates(max_kl=0.30, max_false_alarms=2),
        full_gates=ConformanceGates(max_kl=0.15, max_false_alarms=2),
        tags=("order2", "sparse"),
        tier="smoke",
        attributes=5,
    ),
    Scenario(
        name="missing-data",
        description="telemetry world with 15% MCAR blanks, EM-completed "
        "before discovery",
        seed=909,
        builder=_missing_data,
        max_order=3,
        smoke_samples=3000,
        full_samples=20000,
        gates=ConformanceGates(min_precision=0.4, min_recall=0.5, max_kl=0.05),
        full_gates=ConformanceGates(min_precision=0.15, min_recall=1.0, max_kl=0.01),
        tags=("order3", "missing"),
        tier="smoke",
        attributes=4,
    ),
    Scenario(
        name="streaming-drift",
        description="two stream phases with drifted margins but stable "
        "planted links, merged via TableBuilder",
        seed=1010,
        builder=_stream(
            2,
            partial(drifted_margins, drift=0.5),
            drift_first=True,
            num_attributes=4,
            strength=3.5,
        ),
        max_order=2,
        gates=ConformanceGates(min_precision=0.5, min_recall=0.66, max_kl=0.08),
        tags=("order2", "streaming"),
        tier="smoke",
        attributes=4,
    ),
    # -- full tier: adversarial structure at CI-friendly sizes ------------------
    Scenario(
        name="wide-order2",
        description="12 binary attributes, 3 planted pairs: wide "
        "candidate pools, sparse signal",
        seed=1111,
        builder=_sampled(
            wide_population,
            truth=orbit_truth,
            num_attributes=12,
            num_planted=3,
            strength=4.0,
            order=2,
        ),
        max_order=2,
        gates=ConformanceGates(
            min_precision=0.75, min_recall=0.15, max_kl=0.60, max_false_alarms=1
        ),
        full_gates=ConformanceGates(
            min_precision=0.75, min_recall=0.15, max_kl=0.15, max_false_alarms=1
        ),
        tags=("order2", "wide"),
        tier="full",
        attributes=12,
    ),
    Scenario(
        name="wide-chain",
        description="order-2 chain along 8 attributes (A-B through G-H)",
        seed=1212,
        builder=_sampled(chained_population, num_attributes=8, strength=4.0),
        max_order=2,
        gates=ConformanceGates(min_precision=0.35, min_recall=0.35, max_kl=0.30),
        full_gates=ConformanceGates(min_precision=0.40, min_recall=0.70, max_kl=0.08),
        tags=("order2", "wide", "chain"),
        tier="full",
        attributes=8,
    ),
    Scenario(
        name="order4-interaction",
        description="one genuine order-4 cell over 6 binary attributes; "
        "all lower margins independent",
        seed=1313,
        builder=_sampled(
            high_order_population,
            truth=_orbits_with_subsets,
            num_attributes=6,
            order=4,
            strength=6.0,
            num_planted=1,
        ),
        max_order=4,
        gates=ConformanceGates(
            min_precision=0.75, min_recall=0.10, max_kl=0.15, max_false_alarms=2
        ),
        full_gates=ConformanceGates(
            min_precision=0.75, min_recall=0.25, max_kl=0.02, max_false_alarms=2
        ),
        tags=("order4", "deep"),
        tier="full",
        attributes=6,
    ),
    Scenario(
        name="zipf-cardinality",
        description="heavy-tailed cardinalities (Zipf 1.2, max 8) with "
        "head-tail planted pairs",
        seed=1414,
        builder=_sampled(
            heavy_tailed_population,
            num_attributes=4,
            max_cardinality=8,
            exponent=1.2,
            num_planted=2,
            strength=5.0,
        ),
        max_order=2,
        gates=ConformanceGates(min_precision=0.4, min_recall=0.5, max_kl=0.30),
        full_gates=ConformanceGates(min_precision=0.25, min_recall=0.5, max_kl=0.05),
        tags=("order2", "zipf", "cardinality"),
        tier="full",
        attributes=4,
    ),
    Scenario(
        name="zipf-head-tail",
        description="5 attributes, Zipf 1.5 value masses up to "
        "cardinality 12; planted cells pair head with tail values",
        seed=1515,
        builder=_sampled(
            heavy_tailed_population,
            num_attributes=5,
            max_cardinality=12,
            exponent=1.5,
            num_planted=3,
            strength=6.0,
        ),
        max_order=2,
        gates=ConformanceGates(max_kl=0.60, max_false_alarms=6),
        full_gates=ConformanceGates(max_kl=0.15, max_false_alarms=6),
        tags=("order2", "zipf", "skew"),
        tier="full",
        attributes=5,
    ),
    Scenario(
        name="correlated-drift",
        description="two stream phases drifting along one shared latent "
        "direction (margins move together)",
        seed=1616,
        builder=_stream(
            2,
            partial(correlated_drifted_margins, drift=0.4, correlation=0.9),
            drift_first=True,
            num_attributes=4,
            strength=3.5,
        ),
        max_order=2,
        gates=ConformanceGates(min_precision=0.30, min_recall=0.60, max_kl=0.10),
        full_gates=ConformanceGates(
            min_precision=0.10, min_recall=0.60, max_kl=0.02, max_false_alarms=14
        ),
        tags=("order2", "streaming", "drift"),
        tier="full",
        attributes=4,
    ),
    Scenario(
        name="near-singular",
        description="every margin's last value pinned to 0.4% mass: an "
        "almost-singular contingency table",
        seed=1717,
        # Margin restoration concentrates the planted pair's *relative*
        # deviation in the starved corner cells, so the engine legitimately
        # adopts other cells of the same pair: score the orbit.
        builder=_sampled(
            near_singular_population,
            truth=orbit_truth,
            num_attributes=4,
            epsilon=0.004,
            strength=6.0,
        ),
        max_order=2,
        gates=ConformanceGates(min_precision=0.75, min_recall=0.20, max_kl=0.10),
        full_gates=ConformanceGates(min_precision=0.75, min_recall=0.40, max_kl=0.02),
        tags=("order2", "singular", "sparse"),
        tier="full",
        attributes=4,
    ),
    Scenario(
        name="label-noise",
        description="one strong pair seen through 8% uniform label "
        "noise (attenuated but recoverable)",
        seed=1818,
        builder=_sampled(
            random_planted_population,
            corruptions=(partial(apply_label_noise, rate=0.08),),
            num_attributes=4,
            num_planted=1,
            strength=5.0,
            order=2,
        ),
        max_order=2,
        gates=ConformanceGates(min_precision=0.5, min_recall=1.0, max_kl=0.08),
        tags=("order2", "corruption", "noise"),
        tier="full",
        attributes=4,
    ),
    Scenario(
        name="duplicate-rows",
        description="dataset inflated by 30% duplicated rows (an iid "
        "violation that overstates evidence)",
        seed=1919,
        builder=_sampled(
            random_planted_population,
            corruptions=(partial(duplicate_rows, fraction=0.3),),
            num_attributes=4,
            num_planted=1,
            strength=4.0,
            order=2,
        ),
        max_order=2,
        gates=ConformanceGates(min_precision=0.5, min_recall=1.0, max_kl=0.08),
        tags=("order2", "corruption", "duplicates"),
        tier="full",
        attributes=4,
    ),
    Scenario(
        name="dense-pairs",
        description="4 planted pairs among 5 attributes: dense true "
        "structure, precision under load",
        seed=2020,
        builder=_sampled(
            random_planted_population,
            num_attributes=5,
            num_planted=4,
            strength=4.0,
            order=2,
        ),
        max_order=2,
        gates=ConformanceGates(min_precision=0.5, min_recall=0.5, max_kl=0.15),
        tags=("order2", "dense"),
        tier="full",
        attributes=5,
    ),
    Scenario(
        name="excess-deficit",
        description="one excess and one deficit cell planted together "
        "(multipliers above and below 1)",
        seed=2121,
        builder=_sampled(
            random_planted_population,
            num_attributes=4,
            num_planted=2,
            strength=4.5,
            order=2,
        ),
        max_order=2,
        gates=ConformanceGates(min_precision=0.5, min_recall=0.5, max_kl=0.08),
        tags=("order2", "deficit"),
        tier="full",
        attributes=4,
    ),
    Scenario(
        name="mixed-order",
        description="an order-2 cell and an order-3 cell planted in the "
        "same 5-attribute world",
        seed=2222,
        builder=_sampled(_mixed_order_population, truth=_mixed_order_truth),
        max_order=3,
        gates=ConformanceGates(min_precision=0.75, min_recall=0.15, max_kl=0.10),
        full_gates=ConformanceGates(min_precision=0.70, min_recall=0.30, max_kl=0.02),
        tags=("order2", "order3", "mixed"),
        tier="full",
        attributes=5,
    ),
    Scenario(
        name="star-hub",
        description="one hub attribute pairwise-linked to all four "
        "spokes (degree-4 dependency star)",
        seed=2323,
        builder=_sampled(_star_hub_population),
        max_order=2,
        # The hub's margin genuinely shifts under four planted pairs, so
        # collateral same-pair adoptions depress exact-key precision; the
        # gate asks for every spoke (recall) instead.
        gates=ConformanceGates(
            min_precision=0.25, min_recall=0.75, max_kl=0.10, max_false_alarms=12
        ),
        tags=("order2", "star"),
        tier="full",
        attributes=5,
    ),
    # -- stress tier: nightly-only heavy workloads ------------------------------
    Scenario(
        name="stress-wide-16",
        description="16 binary attributes (65k-cell joint), 4 planted "
        "pairs: the widest world in the fleet",
        seed=3131,
        builder=_sampled(
            wide_population,
            truth=orbit_truth,
            num_attributes=16,
            num_planted=4,
            strength=4.5,
            order=2,
        ),
        max_order=2,
        gates=ConformanceGates(min_precision=0.75, min_recall=0.15, max_kl=2.50),
        full_gates=ConformanceGates(min_precision=0.75, min_recall=0.15, max_kl=0.80),
        tags=("order2", "wide", "stress"),
        tier="stress",
        attributes=16,
    ),
    Scenario(
        name="stress-wide-order3",
        description="10 binary attributes with order-3 planted cells: "
        "deep scan over a wide world",
        seed=3232,
        builder=_sampled(
            wide_population,
            truth=_orbits_with_subsets,
            num_attributes=10,
            num_planted=2,
            strength=5.0,
            order=3,
        ),
        max_order=3,
        gates=ConformanceGates(
            min_precision=0.75, min_recall=0.10, max_kl=0.60, max_false_alarms=2
        ),
        full_gates=ConformanceGates(
            min_precision=0.75, min_recall=0.40, max_kl=0.05, max_false_alarms=2
        ),
        tags=("order3", "wide", "stress"),
        tier="stress",
        attributes=10,
    ),
    Scenario(
        name="stress-zipf-wide",
        description="6 attributes, Zipf 1.1 masses up to cardinality "
        "10: heavy tails at width",
        seed=3333,
        builder=_sampled(
            heavy_tailed_population,
            num_attributes=6,
            max_cardinality=10,
            exponent=1.1,
            num_planted=3,
            strength=6.0,
        ),
        max_order=2,
        gates=ConformanceGates(min_precision=0.20, max_kl=0.30, max_false_alarms=6),
        full_gates=ConformanceGates(
            min_precision=0.20, max_kl=0.05, max_false_alarms=8
        ),
        tags=("order2", "zipf", "stress"),
        tier="stress",
        attributes=6,
    ),
    Scenario(
        name="stress-order5",
        description="one order-5 planted cell over 7 binary attributes; "
        "the deepest scan in the fleet",
        seed=3434,
        builder=_sampled(
            high_order_population,
            truth=_orbits_with_subsets,
            num_attributes=7,
            order=5,
            strength=8.0,
            num_planted=1,
        ),
        max_order=5,
        gates=ConformanceGates(
            min_precision=0.75, min_recall=0.02, max_kl=0.10, max_false_alarms=2
        ),
        full_gates=ConformanceGates(
            min_precision=0.75, min_recall=0.10, max_kl=0.02, max_false_alarms=2
        ),
        tags=("order5", "deep", "stress"),
        tier="stress",
        attributes=7,
    ),
    Scenario(
        name="stress-near-singular",
        description="5 attributes with margins pinned to 0.2% mass: "
        "near-singular at width",
        seed=3535,
        builder=_sampled(
            near_singular_population,
            truth=orbit_truth,
            num_attributes=5,
            epsilon=0.002,
            strength=7.0,
        ),
        max_order=2,
        gates=ConformanceGates(min_precision=0.75, min_recall=0.05, max_kl=0.10),
        full_gates=ConformanceGates(min_precision=0.75, min_recall=0.05, max_kl=0.02),
        tags=("order2", "singular", "stress"),
        tier="stress",
        attributes=5,
    ),
    Scenario(
        name="stress-corrupted",
        description="5% label noise plus 40% duplicated rows stacked on "
        "a chained world",
        seed=3636,
        builder=_sampled(
            chained_population,
            corruptions=(
                partial(apply_label_noise, rate=0.05),
                partial(duplicate_rows, fraction=0.4),
            ),
            num_attributes=4,
            strength=4.0,
        ),
        max_order=2,
        # Duplicated rows overstate evidence, so collateral same-pair
        # adoptions are expected; the gate bounds them while asking for the
        # full chain (recall 0.66+).
        gates=ConformanceGates(
            min_precision=0.15, min_recall=0.66, max_kl=0.05, max_false_alarms=14
        ),
        tags=("order2", "corruption", "duplicates", "stress"),
        tier="stress",
        attributes=4,
    ),
    Scenario(
        name="stress-correlated-drift",
        description="three stream phases drifting along one shared latent direction",
        seed=3737,
        builder=_stream(
            3,
            partial(correlated_drifted_margins, drift=0.35, correlation=0.9),
            num_attributes=5,
            strength=4.0,
        ),
        max_order=2,
        gates=ConformanceGates(min_precision=0.35, min_recall=0.40, max_kl=0.10),
        full_gates=ConformanceGates(
            min_precision=0.25, min_recall=0.75, max_kl=0.02, max_false_alarms=12
        ),
        tags=("order2", "streaming", "drift", "stress"),
        tier="stress",
        attributes=5,
    ),
    Scenario(
        name="stress-churn",
        description="eight small stream phases with independently "
        "drifting margins, merged via TableBuilder",
        seed=3838,
        builder=_stream(
            8, partial(drifted_margins, drift=0.25), num_attributes=4, strength=4.0
        ),
        max_order=2,
        gates=ConformanceGates(min_precision=0.4, min_recall=0.5, max_kl=0.20),
        tags=("order2", "streaming", "churn", "stress"),
        tier="stress",
        attributes=4,
    ),
)

_BY_NAME = {scenario.name: scenario for scenario in _FLEET}
