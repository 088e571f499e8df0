"""Registry of named, seeded discovery workloads with known ground truth.

The ROADMAP's north star asks for "as many scenarios as you can imagine";
this module is where they live.  Each :class:`Scenario` is a generative
workload — a seeded builder that produces a contingency table plus the
exact set of constraint keys a perfect discovery run would adopt — along
with per-scenario :class:`ConformanceGates` that CI enforces in smoke mode
(``REPRO_BENCH_SMOKE=1``) and benchmarks track at full size.

Scenarios are grouped into **tiers** (:data:`TIERS`) that weight the
workload rather than the sample size: the ``smoke`` tier is the original
friendly matrix, the ``full`` tier adds adversarial structure (wide
worlds, order-4 interactions, Zipf cardinality, corruptions), and the
``stress`` tier holds the heavy workloads only the nightly stress matrix
runs.  Orthogonally, every scenario still has smoke/full *sample sizes*
selected by the ``smoke`` flag.

Besides quality gates, each scenario carries a :class:`LatencySLO` —
p50/p99 budgets per discovery stage (scan/fit/verify, measured by
:class:`~repro.discovery.profile.DiscoveryProfile`) plus p50/p99
budgets for replayed query traffic — so the fleet validates *scale* as
well as *quality*.  Budgets are generous (order-of-magnitude guards, not
noise detectors) and scale with the tier.

Scenarios are deterministic: the builder receives a generator seeded with
``Scenario.seed``, so two builds of the same scenario at the same size
produce identical tables — which is what lets the conformance gates be
exact assertions rather than statistical hopes.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, field, fields

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
    "register",
    "scenario_names",
    "unregister",
]

#: Recognized workload tiers, lightest first.  ``smoke`` and ``full`` run
#: in CI on every push; ``stress`` is reserved for the nightly matrix.
TIERS = ("smoke", "full", "stress")

#: Tiers included when a caller does not ask for specific ones.  The
#: stress tier is deliberately opt-in (``--tier stress`` / ``--tier all``).
DEFAULT_TIERS = ("smoke", "full")

#: Multiplier applied to a scenario's smoke-mode SLO when it runs at full
#: sample size and no explicit ``full_slo`` was registered.  Stage costs
#: are dominated by table dimensions rather than sample count, so a small
#: constant headroom suffices.
FULL_SLO_SCALE = 4.0


@dataclass(frozen=True)
class LatencySLO:
    """Per-stage latency budgets, in milliseconds (``None`` = ungated).

    ``scan``/``fit``/``verify`` budgets bound the per-call latency
    percentiles recorded by
    :class:`~repro.discovery.profile.DiscoveryProfile`; ``query``
    budgets bound the closed-loop query-traffic replay
    (:func:`repro.scenarios.replay.replay_session`) that each scenario
    drives against a :class:`~repro.api.session.QuerySession` after
    discovery.  Budgets are order-of-magnitude guards: they catch a
    stage whose latency regressed 10x, not CI jitter.
    """

    scan_p50_ms: float | None = None
    scan_p99_ms: float | None = None
    fit_p50_ms: float | None = None
    fit_p99_ms: float | None = None
    verify_p50_ms: float | None = None
    verify_p99_ms: float | None = None
    query_p50_ms: float | None = None
    query_p99_ms: float | None = None

    def __post_init__(self) -> None:
        for spec in fields(self):
            value = getattr(self, spec.name)
            if value is not None and value <= 0:
                raise DataError(
                    f"{spec.name} must be positive or None, got {value}"
                )
        for stage in ("scan", "fit", "verify", "query"):
            p50 = getattr(self, f"{stage}_p50_ms")
            p99 = getattr(self, f"{stage}_p99_ms")
            if p50 is not None and p99 is not None and p50 > p99:
                raise DataError(
                    f"{stage} p50 budget ({p50}) exceeds p99 budget ({p99})"
                )

    def scaled(self, factor: float) -> LatencySLO:
        """A copy with every set budget multiplied by ``factor``."""
        if factor <= 0:
            raise DataError(f"SLO scale factor must be positive, got {factor}")
        return LatencySLO(
            **{
                spec.name: (
                    None
                    if getattr(self, spec.name) is None
                    else getattr(self, spec.name) * factor
                )
                for spec in fields(self)
            }
        )

    def budgets(self) -> list[tuple[str, float, float]]:
        """Set budgets as ``(stage, quantile, budget_ms)`` triples."""
        out = []
        for stage in ("scan", "fit", "verify", "query"):
            for q, label in ((0.50, "p50"), (0.99, "p99")):
                value = getattr(self, f"{stage}_{label}_ms")
                if value is not None:
                    out.append((stage, q, float(value)))
        return out

    def describe(self) -> str:
        """Compact one-line rendering, e.g. ``scan p99<=2000ms``."""
        parts = []
        for stage in ("scan", "fit", "verify", "query"):
            for label in ("p50", "p99"):
                value = getattr(self, f"{stage}_{label}_ms")
                if value is not None:
                    parts.append(f"{stage} {label}<={value:g}ms")
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

    ``tier`` is the workload weight class (:data:`TIERS`); ``attributes``
    declares the built schema's width (rendered in catalogs and checked
    against the built instance by the registry tests).  ``slo`` /
    ``full_slo`` carry the latency budgets; when unset, the tier default
    (:func:`default_slo`) applies, and an unset ``full_slo`` falls back
    to the smoke SLO scaled by :data:`FULL_SLO_SCALE`.
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
    slo: LatencySLO | None = None
    full_slo: LatencySLO | None = None

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
            raise DataError(
                f"tier must be one of {TIERS}, got {self.tier!r}"
            )
        if self.attributes < 0:
            raise DataError(
                f"attributes must be >= 0, got {self.attributes}"
            )

    def sample_size(self, smoke: bool) -> int:
        """Sample count for the requested mode."""
        return self.smoke_samples if smoke else self.full_samples

    def gates_for(self, smoke: bool) -> ConformanceGates:
        """Quality gates for the requested mode."""
        if smoke or self.full_gates is None:
            return self.gates
        return self.full_gates

    def slo_for(self, smoke: bool) -> LatencySLO:
        """Latency budgets for the requested mode (tier default if unset)."""
        base = self.slo if self.slo is not None else default_slo(self.tier)
        if smoke:
            return base
        if self.full_slo is not None:
            return self.full_slo
        return base.scaled(FULL_SLO_SCALE)

    def build(self, smoke: bool = True) -> ScenarioInstance:
        """Materialize the workload (deterministic for a given size)."""
        rng = np.random.default_rng(self.seed)
        return self.builder(rng, self.sample_size(smoke))


# -- registry ----------------------------------------------------------------------

_REGISTRY: dict[str, Scenario] = {}


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


def register(scenario: Scenario) -> Scenario:
    """Add a scenario to the registry; duplicate names are an error."""
    if scenario.name in _REGISTRY:
        raise DataError(f"scenario {scenario.name!r} is already registered")
    _REGISTRY[scenario.name] = scenario
    return scenario


def unregister(name: str) -> None:
    """Remove a scenario (mainly for tests registering temporaries)."""
    if name not in _REGISTRY:
        raise DataError(f"no scenario named {name!r}")
    del _REGISTRY[name]


def get_scenario(name: str) -> Scenario:
    """Look up one scenario by name (raises DataError when absent)."""
    if name not in _REGISTRY:
        raise DataError(
            f"no scenario named {name!r}; registered: {scenario_names()}"
        )
    return _REGISTRY[name]


def scenario_names(tiers: str | Sequence[str] | None = None) -> list[str]:
    """Registered names in registration order, optionally tier-filtered.

    ``tiers`` may be a single tier name, a sequence of them, ``"all"``,
    or ``None`` (no filter).
    """
    wanted = _normalize_tiers(tiers)
    return [
        name
        for name, scenario in _REGISTRY.items()
        if wanted is None or scenario.tier in wanted
    ]


def all_scenarios(
    tiers: str | Sequence[str] | None = None,
) -> Iterator[Scenario]:
    """Iterate registered scenarios, optionally filtered by tier."""
    wanted = _normalize_tiers(tiers)
    for scenario in _REGISTRY.values():
        if wanted is None or scenario.tier in wanted:
            yield scenario


# -- built-in scenario builders ----------------------------------------------------


def _population_instance(
    population: PlantedPopulation, rng: np.random.Generator, n: int
) -> ScenarioInstance:
    return ScenarioInstance(
        table=population.sample_table(n, rng),
        truth=frozenset(population.planted_keys()),
        population=population,
    )


def _independence(rng: np.random.Generator, n: int) -> ScenarioInstance:
    return _population_instance(independent_population(rng, 4), rng, n)


def _single_pairwise(rng: np.random.Generator, n: int) -> ScenarioInstance:
    population = random_planted_population(
        rng, num_attributes=4, num_planted=1, strength=4.0, order=2
    )
    return _population_instance(population, rng, n)


def _chained_pairwise(rng: np.random.Generator, n: int) -> ScenarioInstance:
    population = chained_population(rng, num_attributes=5, strength=3.5)
    return _population_instance(population, rng, n)


def _order3_interaction(rng: np.random.Generator, n: int) -> ScenarioInstance:
    return _population_instance(medical_survey_population(), rng, n)


def _near_deterministic(rng: np.random.Generator, n: int) -> ScenarioInstance:
    population = near_deterministic_population(rng, strength=40.0)
    return _population_instance(population, rng, n)


def _skewed_marginals(rng: np.random.Generator, n: int) -> ScenarioInstance:
    population = skewed_population(
        rng, num_attributes=4, skew=8.0, num_planted=1, strength=5.0
    )
    return _population_instance(population, rng, n)


def _high_cardinality(rng: np.random.Generator, n: int) -> ScenarioInstance:
    population = random_planted_population(
        rng,
        num_attributes=3,
        num_planted=2,
        strength=4.0,
        order=2,
        min_values=5,
        max_values=6,
    )
    return _population_instance(population, rng, n)


def _sparse_counts(rng: np.random.Generator, n: int) -> ScenarioInstance:
    population = random_planted_population(
        rng, num_attributes=5, num_planted=2, strength=3.0, order=2
    )
    return _population_instance(population, rng, n)


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


def _streaming_drift(rng: np.random.Generator, n: int) -> ScenarioInstance:
    """Two stream phases with drifted margins but stable planted structure.

    The associations (what discovery should find) persist across the
    drift; only the margins move.  The table accumulates through
    :class:`~repro.data.streaming.TableBuilder`, the ingestion path the
    lifecycle layer uses.
    """
    base = chained_population(rng, num_attributes=4, strength=3.5)
    margins = _population_margins(base)
    shifted = build_planted_population(
        base.schema, drifted_margins(rng, margins, drift=0.5), base.planted
    )
    builder = TableBuilder(base.schema)
    first = n // 2
    builder.add_table(base.sample_table(first, rng))
    builder.add_table(shifted.sample_table(n - first, rng))
    return ScenarioInstance(
        table=builder.snapshot(),
        truth=frozenset(base.planted_keys()),
        population=base,
    )


# -- adversarial (full-tier) builders ----------------------------------------------


def _population_margins(
    population: PlantedPopulation,
) -> dict[str, np.ndarray]:
    """First-order margins of a population's joint, keyed by name."""
    axes = range(len(population.schema))
    return {
        name: population.joint.sum(
            axis=tuple(a for a in axes if a != axis)
        )
        for axis, name in enumerate(population.schema.names)
    }


def _orbit_instance(
    population: PlantedPopulation,
    rng: np.random.Generator,
    n: int,
    include_subsets: bool = False,
) -> ScenarioInstance:
    """Instance whose truth is the planted cells' equivalence orbit.

    Binary planted subsets saturate their whole interaction, so the
    engine may adopt any cell of the orbit (see
    :func:`repro.synth.adversarial.orbit_truth`); scenarios built this
    way gate on precision rather than exact-cell recall.
    """
    return ScenarioInstance(
        table=population.sample_table(n, rng),
        truth=frozenset(orbit_truth(population, include_subsets)),
        population=population,
    )


def _wide_order2(rng: np.random.Generator, n: int) -> ScenarioInstance:
    population = wide_population(
        rng, num_attributes=12, num_planted=3, strength=4.0, order=2
    )
    return _orbit_instance(population, rng, n)


def _wide_chain(rng: np.random.Generator, n: int) -> ScenarioInstance:
    population = chained_population(rng, num_attributes=8, strength=4.0)
    return _population_instance(population, rng, n)


def _order4_interaction(rng: np.random.Generator, n: int) -> ScenarioInstance:
    population = high_order_population(
        rng, num_attributes=6, order=4, strength=6.0, num_planted=1
    )
    return _orbit_instance(population, rng, n, include_subsets=True)


def _zipf_cardinality(rng: np.random.Generator, n: int) -> ScenarioInstance:
    population = heavy_tailed_population(
        rng,
        num_attributes=4,
        max_cardinality=8,
        exponent=1.2,
        num_planted=2,
        strength=5.0,
    )
    return _population_instance(population, rng, n)


def _zipf_head_tail(rng: np.random.Generator, n: int) -> ScenarioInstance:
    population = heavy_tailed_population(
        rng,
        num_attributes=5,
        max_cardinality=12,
        exponent=1.5,
        num_planted=3,
        strength=6.0,
    )
    return _population_instance(population, rng, n)


def _correlated_drift(rng: np.random.Generator, n: int) -> ScenarioInstance:
    """Two stream phases whose margins drift along one shared latent axis."""
    base = chained_population(rng, num_attributes=4, strength=3.5)
    margins = _population_margins(base)
    shifted = build_planted_population(
        base.schema,
        correlated_drifted_margins(rng, margins, drift=0.4, correlation=0.9),
        base.planted,
    )
    builder = TableBuilder(base.schema)
    first = n // 2
    builder.add_table(base.sample_table(first, rng))
    builder.add_table(shifted.sample_table(n - first, rng))
    return ScenarioInstance(
        table=builder.snapshot(),
        truth=frozenset(base.planted_keys()),
        population=base,
    )


def _near_singular(rng: np.random.Generator, n: int) -> ScenarioInstance:
    # Margin restoration concentrates the planted pair's *relative*
    # deviation in the starved corner cells, so the engine legitimately
    # adopts other cells of the same pair: score the orbit.
    population = near_singular_population(
        rng, num_attributes=4, epsilon=0.004, strength=6.0
    )
    return _orbit_instance(population, rng, n)


def _label_noise(rng: np.random.Generator, n: int) -> ScenarioInstance:
    """A strong planted pair seen through 8% uniform label noise."""
    population = random_planted_population(
        rng, num_attributes=4, num_planted=1, strength=5.0, order=2
    )
    dataset = apply_label_noise(population.sample(n, rng), rng, rate=0.08)
    return ScenarioInstance(
        table=dataset.to_contingency(),
        truth=frozenset(population.planted_keys()),
        population=population,
    )


def _duplicate_rows(rng: np.random.Generator, n: int) -> ScenarioInstance:
    """A planted pair whose dataset is inflated by 30% duplicated rows."""
    population = random_planted_population(
        rng, num_attributes=4, num_planted=1, strength=4.0, order=2
    )
    dataset = duplicate_rows(population.sample(n, rng), rng, fraction=0.3)
    return ScenarioInstance(
        table=dataset.to_contingency(),
        truth=frozenset(population.planted_keys()),
        population=population,
    )


def _dense_pairs(rng: np.random.Generator, n: int) -> ScenarioInstance:
    population = random_planted_population(
        rng, num_attributes=5, num_planted=4, strength=4.0, order=2
    )
    return _population_instance(population, rng, n)


def _excess_deficit(rng: np.random.Generator, n: int) -> ScenarioInstance:
    population = random_planted_population(
        rng, num_attributes=4, num_planted=2, strength=4.5, order=2
    )
    return _population_instance(population, rng, n)


def _mixed_order(rng: np.random.Generator, n: int) -> ScenarioInstance:
    """An order-2 cell and an order-3 cell planted in the same world."""
    schema = random_schema(rng, 5, min_values=2, max_values=3)
    margins = random_margins(rng, schema)
    names = schema.names
    planted = [
        PlantedCell(
            (names[0], names[1]),
            (
                int(rng.integers(schema.attribute(names[0]).cardinality)),
                int(rng.integers(schema.attribute(names[1]).cardinality)),
            ),
            4.0,
        ),
        PlantedCell(
            (names[2], names[3], names[4]),
            tuple(
                int(rng.integers(schema.attribute(name).cardinality))
                for name in names[2:]
            ),
            6.0,
        ),
    ]
    population = build_planted_population(schema, margins, planted)
    # The order-2 cell is scored exactly; the order-3 cell genuinely
    # shifts its pairwise marginals too, so its truth is the full orbit
    # including sub-subsets (the shadows are real structure, not noise).
    from itertools import combinations, product

    truth = {(planted[0].attributes, planted[0].values)}
    triple = planted[1].attributes
    subsets = [triple] + list(combinations(triple, 2))
    for subset in subsets:
        cards = [schema.attribute(name).cardinality for name in subset]
        for values in product(*(range(c) for c in cards)):
            truth.add((tuple(subset), tuple(values)))
    return ScenarioInstance(
        table=population.sample_table(n, rng),
        truth=frozenset(truth),
        population=population,
    )


def _star_hub(rng: np.random.Generator, n: int) -> ScenarioInstance:
    """One hub attribute pairwise-linked to every other attribute."""
    schema = random_schema(rng, 5, min_values=2, max_values=3)
    margins = random_margins(rng, schema)
    names = schema.names
    hub = names[0]
    planted = [
        PlantedCell(
            (hub, spoke),
            (
                int(rng.integers(schema.attribute(hub).cardinality)),
                int(rng.integers(schema.attribute(spoke).cardinality)),
            ),
            3.5,
        )
        for spoke in names[1:]
    ]
    population = build_planted_population(schema, margins, planted)
    return _population_instance(population, rng, n)


# -- stress-tier builders ----------------------------------------------------------


def _stress_wide_16(rng: np.random.Generator, n: int) -> ScenarioInstance:
    population = wide_population(
        rng, num_attributes=16, num_planted=4, strength=4.5, order=2
    )
    return _orbit_instance(population, rng, n)


def _stress_wide_order3(rng: np.random.Generator, n: int) -> ScenarioInstance:
    population = wide_population(
        rng, num_attributes=10, num_planted=2, strength=5.0, order=3
    )
    return _orbit_instance(population, rng, n, include_subsets=True)


def _stress_zipf_wide(rng: np.random.Generator, n: int) -> ScenarioInstance:
    population = heavy_tailed_population(
        rng,
        num_attributes=6,
        max_cardinality=10,
        exponent=1.1,
        num_planted=3,
        strength=6.0,
    )
    return _population_instance(population, rng, n)


def _stress_order5(rng: np.random.Generator, n: int) -> ScenarioInstance:
    population = high_order_population(
        rng, num_attributes=7, order=5, strength=8.0, num_planted=1
    )
    return _orbit_instance(population, rng, n, include_subsets=True)


def _stress_near_singular(rng: np.random.Generator, n: int) -> ScenarioInstance:
    population = near_singular_population(
        rng, num_attributes=5, epsilon=0.002, strength=7.0
    )
    return _orbit_instance(population, rng, n)


def _stress_corrupted(rng: np.random.Generator, n: int) -> ScenarioInstance:
    """Label noise and duplicate rows stacked on one chained world."""
    population = chained_population(rng, num_attributes=4, strength=4.0)
    dataset = population.sample(n, rng)
    dataset = apply_label_noise(dataset, rng, rate=0.05)
    dataset = duplicate_rows(dataset, rng, fraction=0.4)
    return ScenarioInstance(
        table=dataset.to_contingency(),
        truth=frozenset(population.planted_keys()),
        population=population,
    )


def _stress_correlated_drift(
    rng: np.random.Generator, n: int
) -> ScenarioInstance:
    """Three stream phases, each drifting along the same latent direction."""
    base = chained_population(rng, num_attributes=5, strength=4.0)
    builder = TableBuilder(base.schema)
    phases = 3
    margins = _population_margins(base)
    current = base
    for phase in range(phases):
        chunk = n // phases if phase < phases - 1 else n - 2 * (n // phases)
        builder.add_table(current.sample_table(chunk, rng))
        margins = correlated_drifted_margins(
            rng, margins, drift=0.35, correlation=0.9
        )
        current = build_planted_population(base.schema, margins, base.planted)
    return ScenarioInstance(
        table=builder.snapshot(),
        truth=frozenset(base.planted_keys()),
        population=base,
    )


def _stress_churn(rng: np.random.Generator, n: int) -> ScenarioInstance:
    """Eight small stream phases with independently drifting margins."""
    base = chained_population(rng, num_attributes=4, strength=4.0)
    builder = TableBuilder(base.schema)
    phases = 8
    margins = _population_margins(base)
    current = base
    consumed = 0
    for phase in range(phases):
        chunk = n // phases if phase < phases - 1 else n - consumed
        consumed += chunk
        builder.add_table(current.sample_table(chunk, rng))
        margins = drifted_margins(rng, margins, drift=0.25)
        current = build_planted_population(base.schema, margins, base.planted)
    return ScenarioInstance(
        table=builder.snapshot(),
        truth=frozenset(base.planted_keys()),
        population=base,
    )


def _register_builtins() -> None:
    register(
        Scenario(
            name="independence",
            description="4 independent attributes; nothing to find "
            "(false-alarm control)",
            seed=101,
            builder=_independence,
            max_order=3,
            gates=ConformanceGates(
                min_precision=1.0,
                min_recall=1.0,
                max_kl=0.05,
                max_false_alarms=0,
            ),
            tags=("null", "order2"),
            tier="smoke",
            attributes=4,
        )
    )
    register(
        Scenario(
            name="single-pairwise",
            description="one strong planted order-2 cell among 4 attributes",
            seed=202,
            builder=_single_pairwise,
            max_order=2,
            gates=ConformanceGates(
                min_precision=0.5, min_recall=1.0, max_kl=0.05
            ),
            tags=("order2",),
            tier="smoke",
            attributes=4,
        )
    )
    register(
        Scenario(
            name="chained-pairwise",
            description="order-2 dependencies chained along 5 attributes "
            "(A-B, B-C, C-D, D-E)",
            seed=303,
            builder=_chained_pairwise,
            max_order=2,
            gates=ConformanceGates(
                min_precision=0.5, min_recall=0.75, max_kl=0.08
            ),
            tags=("order2", "chain"),
            tier="smoke",
            attributes=5,
        )
    )
    register(
        Scenario(
            name="order3-interaction",
            description="medical-survey world with two order-2 links and "
            "one genuine order-3 interaction",
            seed=404,
            builder=_order3_interaction,
            max_order=3,
            gates=ConformanceGates(
                min_precision=0.4, min_recall=0.66, max_kl=0.05
            ),
            full_gates=ConformanceGates(
                min_precision=0.1, min_recall=1.0, max_kl=0.01
            ),
            tags=("order3",),
            tier="smoke",
            attributes=5,
        )
    )
    register(
        Scenario(
            name="near-deterministic",
            description="one pair boosted ~40x: an almost-deterministic "
            "IF-THEN rule",
            seed=505,
            builder=_near_deterministic,
            max_order=2,
            # A near-saturated pair genuinely shifts its whole 2-D
            # marginal, so the strict exact-key convention counts the
            # adjacent cells as false alarms; the gate asks for the rule
            # itself (recall 1.0) with bounded collateral adoptions.
            gates=ConformanceGates(
                min_precision=0.25, min_recall=1.0, max_kl=0.05
            ),
            tags=("order2", "extreme"),
            tier="smoke",
            attributes=3,
        )
    )
    register(
        Scenario(
            name="skewed-marginals",
            description="margins dominated by one value; planted link in "
            "the rare corner",
            seed=606,
            builder=_skewed_marginals,
            max_order=2,
            gates=ConformanceGates(
                min_precision=0.5, min_recall=1.0, max_kl=0.05
            ),
            tags=("order2", "skew"),
            tier="smoke",
            attributes=4,
        )
    )
    register(
        Scenario(
            name="high-cardinality",
            description="3 attributes with 5-6 values each (large candidate "
            "pools per subset)",
            seed=707,
            builder=_high_cardinality,
            max_order=2,
            gates=ConformanceGates(
                min_precision=0.5, min_recall=1.0, max_kl=0.08
            ),
            tags=("order2", "cardinality"),
            tier="smoke",
            attributes=3,
        )
    )
    register(
        Scenario(
            name="sparse-counts",
            description="5 attributes at a deliberately small sample size; "
            "tests false-alarm control when counts are thin",
            seed=808,
            builder=_sparse_counts,
            max_order=2,
            smoke_samples=500,
            full_samples=1500,
            # Thin counts keep this scenario's discovery conservative (it
            # may legitimately find nothing, scoring precision 0.0), so
            # the gates bound false alarms and fit quality, not recovery.
            gates=ConformanceGates(max_kl=0.30, max_false_alarms=2),
            full_gates=ConformanceGates(max_kl=0.15, max_false_alarms=2),
            tags=("order2", "sparse"),
            tier="smoke",
            attributes=5,
        )
    )
    register(
        Scenario(
            name="missing-data",
            description="telemetry world with 15% MCAR blanks, EM-completed "
            "before discovery",
            seed=909,
            builder=_missing_data,
            max_order=3,
            smoke_samples=3000,
            full_samples=20000,
            gates=ConformanceGates(
                min_precision=0.4, min_recall=0.5, max_kl=0.05
            ),
            full_gates=ConformanceGates(
                min_precision=0.15, min_recall=1.0, max_kl=0.01
            ),
            tags=("order3", "missing"),
            tier="smoke",
            attributes=4,
        )
    )
    register(
        Scenario(
            name="streaming-drift",
            description="two stream phases with drifted margins but stable "
            "planted links, merged via TableBuilder",
            seed=1010,
            builder=_streaming_drift,
            max_order=2,
            gates=ConformanceGates(
                min_precision=0.5, min_recall=0.66, max_kl=0.08
            ),
            tags=("order2", "streaming"),
            tier="smoke",
            attributes=4,
        )
    )
    # -- full tier: adversarial structure at CI-friendly sizes --------------
    register(
        Scenario(
            name="wide-order2",
            description="12 binary attributes, 3 planted pairs: wide "
            "candidate pools, sparse signal",
            seed=1111,
            builder=_wide_order2,
            max_order=2,
            gates=ConformanceGates(
                min_precision=0.75,
                min_recall=0.15,
                max_kl=0.60,
                max_false_alarms=1,
            ),
            full_gates=ConformanceGates(
                min_precision=0.75,
                min_recall=0.15,
                max_kl=0.15,
                max_false_alarms=1,
            ),
            tags=("order2", "wide"),
            tier="full",
            attributes=12,
        )
    )
    register(
        Scenario(
            name="wide-chain",
            description="order-2 chain along 8 attributes (A-B through G-H)",
            seed=1212,
            builder=_wide_chain,
            max_order=2,
            gates=ConformanceGates(
                min_precision=0.35, min_recall=0.35, max_kl=0.30
            ),
            full_gates=ConformanceGates(
                min_precision=0.40, min_recall=0.70, max_kl=0.08
            ),
            tags=("order2", "wide", "chain"),
            tier="full",
            attributes=8,
        )
    )
    register(
        Scenario(
            name="order4-interaction",
            description="one genuine order-4 cell over 6 binary attributes; "
            "all lower margins independent",
            seed=1313,
            builder=_order4_interaction,
            max_order=4,
            gates=ConformanceGates(
                min_precision=0.75,
                min_recall=0.10,
                max_kl=0.15,
                max_false_alarms=2,
            ),
            full_gates=ConformanceGates(
                min_precision=0.75,
                min_recall=0.25,
                max_kl=0.02,
                max_false_alarms=2,
            ),
            tags=("order4", "deep"),
            tier="full",
            attributes=6,
        )
    )
    register(
        Scenario(
            name="zipf-cardinality",
            description="heavy-tailed cardinalities (Zipf 1.2, max 8) with "
            "head-tail planted pairs",
            seed=1414,
            builder=_zipf_cardinality,
            max_order=2,
            gates=ConformanceGates(
                min_precision=0.4, min_recall=0.5, max_kl=0.30
            ),
            full_gates=ConformanceGates(
                min_precision=0.25, min_recall=0.5, max_kl=0.05
            ),
            tags=("order2", "zipf", "cardinality"),
            tier="full",
            attributes=4,
        )
    )
    register(
        Scenario(
            name="zipf-head-tail",
            description="5 attributes, Zipf 1.5 value masses up to "
            "cardinality 12; planted cells pair head with tail values",
            seed=1515,
            builder=_zipf_head_tail,
            max_order=2,
            gates=ConformanceGates(max_kl=0.60, max_false_alarms=6),
            full_gates=ConformanceGates(max_kl=0.15, max_false_alarms=6),
            tags=("order2", "zipf", "skew"),
            tier="full",
            attributes=5,
        )
    )
    register(
        Scenario(
            name="correlated-drift",
            description="two stream phases drifting along one shared latent "
            "direction (margins move together)",
            seed=1616,
            builder=_correlated_drift,
            max_order=2,
            gates=ConformanceGates(
                min_precision=0.30, min_recall=0.60, max_kl=0.10
            ),
            full_gates=ConformanceGates(
                min_precision=0.10,
                min_recall=0.60,
                max_kl=0.02,
                max_false_alarms=14,
            ),
            tags=("order2", "streaming", "drift"),
            tier="full",
            attributes=4,
        )
    )
    register(
        Scenario(
            name="near-singular",
            description="every margin's last value pinned to 0.4% mass: an "
            "almost-singular contingency table",
            seed=1717,
            builder=_near_singular,
            max_order=2,
            gates=ConformanceGates(
                min_precision=0.75, min_recall=0.20, max_kl=0.10
            ),
            full_gates=ConformanceGates(
                min_precision=0.75, min_recall=0.40, max_kl=0.02
            ),
            tags=("order2", "singular", "sparse"),
            tier="full",
            attributes=4,
        )
    )
    register(
        Scenario(
            name="label-noise",
            description="one strong pair seen through 8% uniform label "
            "noise (attenuated but recoverable)",
            seed=1818,
            builder=_label_noise,
            max_order=2,
            gates=ConformanceGates(
                min_precision=0.5, min_recall=1.0, max_kl=0.08
            ),
            tags=("order2", "corruption", "noise"),
            tier="full",
            attributes=4,
        )
    )
    register(
        Scenario(
            name="duplicate-rows",
            description="dataset inflated by 30% duplicated rows (an iid "
            "violation that overstates evidence)",
            seed=1919,
            builder=_duplicate_rows,
            max_order=2,
            gates=ConformanceGates(
                min_precision=0.5, min_recall=1.0, max_kl=0.08
            ),
            tags=("order2", "corruption", "duplicates"),
            tier="full",
            attributes=4,
        )
    )
    register(
        Scenario(
            name="dense-pairs",
            description="4 planted pairs among 5 attributes: dense true "
            "structure, precision under load",
            seed=2020,
            builder=_dense_pairs,
            max_order=2,
            gates=ConformanceGates(
                min_precision=0.5, min_recall=0.5, max_kl=0.15
            ),
            tags=("order2", "dense"),
            tier="full",
            attributes=5,
        )
    )
    register(
        Scenario(
            name="excess-deficit",
            description="one excess and one deficit cell planted together "
            "(multipliers above and below 1)",
            seed=2121,
            builder=_excess_deficit,
            max_order=2,
            gates=ConformanceGates(
                min_precision=0.5, min_recall=0.5, max_kl=0.08
            ),
            tags=("order2", "deficit"),
            tier="full",
            attributes=4,
        )
    )
    register(
        Scenario(
            name="mixed-order",
            description="an order-2 cell and an order-3 cell planted in the "
            "same 5-attribute world",
            seed=2222,
            builder=_mixed_order,
            max_order=3,
            gates=ConformanceGates(
                min_precision=0.75, min_recall=0.15, max_kl=0.10
            ),
            full_gates=ConformanceGates(
                min_precision=0.70, min_recall=0.30, max_kl=0.02
            ),
            tags=("order2", "order3", "mixed"),
            tier="full",
            attributes=5,
        )
    )
    register(
        Scenario(
            name="star-hub",
            description="one hub attribute pairwise-linked to all four "
            "spokes (degree-4 dependency star)",
            seed=2323,
            builder=_star_hub,
            max_order=2,
            # The hub's margin genuinely shifts under four planted pairs,
            # so collateral same-pair adoptions depress exact-key
            # precision; the gate asks for every spoke (recall) instead.
            gates=ConformanceGates(
                min_precision=0.25,
                min_recall=0.75,
                max_kl=0.10,
                max_false_alarms=12,
            ),
            tags=("order2", "star"),
            tier="full",
            attributes=5,
        )
    )
    # -- stress tier: nightly-only heavy workloads --------------------------
    register(
        Scenario(
            name="stress-wide-16",
            description="16 binary attributes (65k-cell joint), 4 planted "
            "pairs: the widest world in the fleet",
            seed=3131,
            builder=_stress_wide_16,
            max_order=2,
            gates=ConformanceGates(
                min_precision=0.75, min_recall=0.15, max_kl=2.50
            ),
            full_gates=ConformanceGates(
                min_precision=0.75, min_recall=0.15, max_kl=0.80
            ),
            tags=("order2", "wide", "stress"),
            tier="stress",
            attributes=16,
        )
    )
    register(
        Scenario(
            name="stress-wide-order3",
            description="10 binary attributes with order-3 planted cells: "
            "deep scan over a wide world",
            seed=3232,
            builder=_stress_wide_order3,
            max_order=3,
            gates=ConformanceGates(
                min_precision=0.75,
                min_recall=0.10,
                max_kl=0.60,
                max_false_alarms=2,
            ),
            full_gates=ConformanceGates(
                min_precision=0.75,
                min_recall=0.40,
                max_kl=0.05,
                max_false_alarms=2,
            ),
            tags=("order3", "wide", "stress"),
            tier="stress",
            attributes=10,
        )
    )
    register(
        Scenario(
            name="stress-zipf-wide",
            description="6 attributes, Zipf 1.1 masses up to cardinality "
            "10: heavy tails at width",
            seed=3333,
            builder=_stress_zipf_wide,
            max_order=2,
            gates=ConformanceGates(
                min_precision=0.20, max_kl=0.30, max_false_alarms=6
            ),
            full_gates=ConformanceGates(
                min_precision=0.20, max_kl=0.05, max_false_alarms=8
            ),
            tags=("order2", "zipf", "stress"),
            tier="stress",
            attributes=6,
        )
    )
    register(
        Scenario(
            name="stress-order5",
            description="one order-5 planted cell over 7 binary attributes; "
            "the deepest scan in the fleet",
            seed=3434,
            builder=_stress_order5,
            max_order=5,
            gates=ConformanceGates(
                min_precision=0.75,
                min_recall=0.02,
                max_kl=0.10,
                max_false_alarms=2,
            ),
            full_gates=ConformanceGates(
                min_precision=0.75,
                min_recall=0.10,
                max_kl=0.02,
                max_false_alarms=2,
            ),
            tags=("order5", "deep", "stress"),
            tier="stress",
            attributes=7,
        )
    )
    register(
        Scenario(
            name="stress-near-singular",
            description="5 attributes with margins pinned to 0.2% mass: "
            "near-singular at width",
            seed=3535,
            builder=_stress_near_singular,
            max_order=2,
            gates=ConformanceGates(
                min_precision=0.75, min_recall=0.05, max_kl=0.10
            ),
            full_gates=ConformanceGates(
                min_precision=0.75, min_recall=0.05, max_kl=0.02
            ),
            tags=("order2", "singular", "stress"),
            tier="stress",
            attributes=5,
        )
    )
    register(
        Scenario(
            name="stress-corrupted",
            description="5% label noise plus 40% duplicated rows stacked on "
            "a chained world",
            seed=3636,
            builder=_stress_corrupted,
            max_order=2,
            # Duplicated rows overstate evidence, so collateral same-pair
            # adoptions are expected; the gate bounds them while asking
            # for the full chain (recall 0.66+).
            gates=ConformanceGates(
                min_precision=0.15,
                min_recall=0.66,
                max_kl=0.05,
                max_false_alarms=14,
            ),
            tags=("order2", "corruption", "duplicates", "stress"),
            tier="stress",
            attributes=4,
        )
    )
    register(
        Scenario(
            name="stress-correlated-drift",
            description="three stream phases drifting along one shared "
            "latent direction",
            seed=3737,
            builder=_stress_correlated_drift,
            max_order=2,
            gates=ConformanceGates(
                min_precision=0.35, min_recall=0.40, max_kl=0.10
            ),
            full_gates=ConformanceGates(
                min_precision=0.25,
                min_recall=0.75,
                max_kl=0.02,
                max_false_alarms=12,
            ),
            tags=("order2", "streaming", "drift", "stress"),
            tier="stress",
            attributes=5,
        )
    )
    register(
        Scenario(
            name="stress-churn",
            description="eight small stream phases with independently "
            "drifting margins, merged via TableBuilder",
            seed=3838,
            builder=_stress_churn,
            max_order=2,
            gates=ConformanceGates(
                min_precision=0.4, min_recall=0.5, max_kl=0.20
            ),
            tags=("order2", "streaming", "churn", "stress"),
            tier="stress",
            attributes=4,
        )
    )


_register_builtins()
