"""Adversarial and stress-tier population generators.

The friendly generators in :mod:`repro.synth.generators` exercise the
*quality* axes of discovery — can the planted structure be found at all.
This module supplies the *scale and hostility* axes the stress tier of
the scenario fleet is built from:

- **wide worlds** — dozens of (binary) attributes, so candidate pools
  and marginalization costs grow combinatorially while the planted
  signal stays sparse;
- **high-order interactions** — order-4+ planted cells that only appear
  when the scan reaches deep orders;
- **heavy-tailed (Zipf) cardinality** — attribute cardinalities and
  value masses drawn from power laws, so a few cells carry almost all
  counts and most cells are starved;
- **correlated drift** — every attribute's margin shifts along one
  shared latent direction between stream phases, the worst case for
  drift detectors tuned to independent per-attribute movement;
- **near-singular tables** — margins pinned next to zero, producing
  slices whose expected counts vanish and contingency tables that are
  numerically almost rank-deficient;
- **corruptions** — label noise and duplicated rows applied to sampled
  datasets, diluting real associations and inflating spurious
  confidence respectively.

All generators are deterministic given their ``rng`` and return either
:class:`~repro.synth.generators.PlantedPopulation` (so conformance gates
can score recovery) or a corrupted :class:`~repro.data.dataset.Dataset`.
"""

from __future__ import annotations

import numpy as np

from repro.data.dataset import Dataset
from repro.data.schema import Attribute, Schema
from repro.exceptions import DataError
from repro.synth.generators import (
    PlantedCell,
    PlantedPopulation,
    build_planted_population,
    random_margins,
    random_planted_population,
    random_schema,
)

__all__ = [
    "apply_label_noise",
    "correlated_drifted_margins",
    "duplicate_rows",
    "heavy_tailed_population",
    "high_order_population",
    "near_singular_population",
    "orbit_truth",
    "wide_population",
    "zipf_cardinalities",
]

#: Hard cap on the dense joint a wide world may materialize.  The planted
#: populations (and ContingencyTable) hold the full tensor, so width is
#: bounded by memory — 2^20 float64 cells is 8 MiB, comfortably inside a
#: CI runner while still being "dozens of attributes" at cardinality 2.
MAX_WIDE_CELLS = 1 << 20


def wide_population(
    rng: np.random.Generator,
    num_attributes: int = 12,
    num_planted: int = 3,
    strength: float = 4.0,
    order: int = 2,
) -> PlantedPopulation:
    """A world that is wide rather than deep: many binary attributes.

    Cardinality is pinned to 2 so the dense joint stays materializable
    (``2**num_attributes`` cells, capped at :data:`MAX_WIDE_CELLS`); the
    pressure lands on the scan, whose candidate pool grows as
    ``C(num_attributes, order)`` subsets, and on every per-subset
    marginalization of the wide joint.
    """
    if num_attributes < 2:
        raise DataError("a wide world needs at least two attributes")
    if 2**num_attributes > MAX_WIDE_CELLS:
        raise DataError(
            f"{num_attributes} binary attributes would materialize "
            f"{2**num_attributes} cells (cap {MAX_WIDE_CELLS})"
        )
    return random_planted_population(
        rng,
        num_attributes=num_attributes,
        num_planted=num_planted,
        strength=strength,
        order=order,
        min_values=2,
        max_values=2,
    )


def high_order_population(
    rng: np.random.Generator,
    num_attributes: int = 6,
    order: int = 4,
    strength: float = 6.0,
    num_planted: int = 1,
) -> PlantedPopulation:
    """A population whose only planted structure sits at ``order`` >= 4.

    Every lower-order margin is (up to the margin-restoring IPF sweeps)
    independent, so a selector that stops scanning early — or that
    hallucinates pairwise shadows of the deep cell — is caught by the
    recovery gates.
    """
    if order < 4:
        raise DataError(
            f"high_order_population plants order-4+ cells, got order {order}"
        )
    if order > num_attributes:
        raise DataError(
            f"cannot plant an order-{order} cell over "
            f"{num_attributes} attributes"
        )
    return random_planted_population(
        rng,
        num_attributes=num_attributes,
        num_planted=num_planted,
        strength=strength,
        order=order,
        min_values=2,
        max_values=2,
    )


def zipf_cardinalities(
    rng: np.random.Generator,
    num_attributes: int,
    max_cardinality: int = 12,
    exponent: float = 1.5,
) -> list[int]:
    """Attribute cardinalities drawn from a truncated Zipf law.

    Cardinality ``k`` (2..``max_cardinality``) is drawn with probability
    proportional to ``k**-exponent``: most attributes stay small, a few
    grow long value lists — the heavy-tailed shape of real categorical
    telemetry.
    """
    if max_cardinality < 2:
        raise DataError(
            f"max_cardinality must be >= 2, got {max_cardinality}"
        )
    support = np.arange(2, max_cardinality + 1, dtype=float)
    weights = support**-exponent
    weights /= weights.sum()
    draws = rng.choice(support.size, size=num_attributes, p=weights)
    return [int(support[index]) for index in draws]


def heavy_tailed_population(
    rng: np.random.Generator,
    num_attributes: int = 4,
    max_cardinality: int = 12,
    exponent: float = 1.2,
    num_planted: int = 2,
    strength: float = 5.0,
) -> PlantedPopulation:
    """Zipf-everything: heavy-tailed cardinalities *and* value masses.

    Each attribute's cardinality comes from :func:`zipf_cardinalities`
    (with the first attribute forced to ``max_cardinality`` so the tail
    is always present) and its margin follows a shuffled Zipf law —
    a few head values soak up the mass while tail values starve.  The
    planted cells pair head values with tail values, so recovery
    requires significance decisions across count scales that differ by
    orders of magnitude.
    """
    if num_attributes < 2:
        raise DataError("need at least two attributes to plant pairs")
    cardinalities = zipf_cardinalities(
        rng, num_attributes, max_cardinality, exponent
    )
    cardinalities[0] = max_cardinality
    attributes = []
    for index, cardinality in enumerate(cardinalities):
        name = chr(ord("A") + index)
        attributes.append(
            Attribute(
                name,
                tuple(f"{name.lower()}{v + 1}" for v in range(cardinality)),
            )
        )
    schema = Schema(attributes)
    margins = {}
    for attribute in schema:
        ranks = np.arange(1, attribute.cardinality + 1, dtype=float)
        vector = ranks**-exponent
        # Small bounded jitter keeps ties broken without flattening the
        # tail; the floor keeps every value samplable.
        vector *= rng.uniform(0.9, 1.1, size=vector.size)
        vector = np.clip(vector / vector.sum(), 0.005, None)
        margins[attribute.name] = vector / vector.sum()
    names = schema.names
    planted = []
    for index in range(min(num_planted, num_attributes - 1)):
        left, right = names[index], names[index + 1]
        # Head value on one side, tail value on the other.
        values = (0, schema.attribute(right).cardinality - 1)
        planted.append(PlantedCell((left, right), values, strength))
    return build_planted_population(schema, margins, planted)


def correlated_drifted_margins(
    rng: np.random.Generator,
    margins: dict[str, np.ndarray],
    drift: float = 0.5,
    correlation: float = 0.9,
) -> dict[str, np.ndarray]:
    """Margins shifted along one shared latent direction.

    Unlike :func:`repro.synth.generators.drifted_margins` (independent
    per-attribute redistribution), every attribute here is tilted by the
    *same* latent scalar: value ``v`` of each margin is reweighted by
    ``exp(shift * loading_v)`` where the per-value loadings are drawn
    once and the scalar ``shift`` is shared, so the whole world moves
    coherently.  ``correlation`` in [0, 1] mixes the shared tilt with an
    independent per-attribute tilt; 1.0 is perfectly correlated drift,
    0.0 degenerates to independent drift.  ``drift`` scales the tilt
    magnitude.  Margins stay bounded away from zero.
    """
    if not 0.0 <= drift <= 1.0:
        raise DataError(f"drift must be in [0, 1], got {drift}")
    if not 0.0 <= correlation <= 1.0:
        raise DataError(
            f"correlation must be in [0, 1], got {correlation}"
        )
    shared_shift = float(rng.normal(0.0, 1.0))
    shifted = {}
    for name, vector in margins.items():
        vector = np.asarray(vector, dtype=float)
        loadings = rng.normal(0.0, 1.0, size=vector.size)
        own_shift = float(rng.normal(0.0, 1.0))
        shift = correlation * shared_shift + (1.0 - correlation) * own_shift
        tilted = vector * np.exp(drift * shift * loadings)
        tilted = np.clip(tilted / tilted.sum(), 0.02, None)
        shifted[name] = tilted / tilted.sum()
    return shifted


def near_singular_population(
    rng: np.random.Generator,
    num_attributes: int = 4,
    epsilon: float = 0.004,
    strength: float = 6.0,
) -> PlantedPopulation:
    """Margins pinned next to zero: an almost-singular contingency table.

    Every attribute's last value carries only ``epsilon`` mass, so the
    joint has whole slices whose expected counts round to zero at
    realistic sample sizes — the table is numerically near-singular and
    the fit must scale through near-empty margins without
    dividing by them.  One ordinary (head-value) pair is planted so the
    recovery gates still have a signal to ask for.
    """
    if not 0.0 < epsilon < 0.1:
        raise DataError(f"epsilon must be in (0, 0.1), got {epsilon}")
    if num_attributes < 2:
        raise DataError("need at least two attributes to plant a pair")
    # Cardinality >= 3 keeps the planted head-value pair off the starved
    # last value: with binary attributes the epsilon pin would leave the
    # association only in the invisible (last, last) corner.
    schema = random_schema(rng, num_attributes, min_values=3, max_values=4)
    margins = {}
    for attribute in schema:
        vector = rng.dirichlet([4.0] * attribute.cardinality)
        vector = np.clip(vector, 0.05, None)
        # Starve the last value: the near-singular corner of the table.
        vector[-1] = epsilon
        margins[attribute.name] = vector / vector.sum()
    names = schema.names
    planted = [PlantedCell((names[0], names[1]), (0, 0), strength)]
    return build_planted_population(schema, margins, planted)


def orbit_truth(
    population: PlantedPopulation, include_subsets: bool = False
) -> set[tuple[tuple[str, ...], tuple[int, ...]]]:
    """Every constraint key informationally equivalent to a planted cell.

    Planting one cell of a low-cardinality subset saturates the whole
    interaction: in a binary 2x2, an excess at ``(0, 0)`` *is* an excess
    at ``(1, 1)`` and a deficit on the off-diagonal, and the engine
    legitimately adopts whichever cell of that orbit the sample makes
    most significant.  This expands each planted cell to all value
    combinations over its attribute subset; with ``include_subsets``
    (for order-3+ plants) it also covers every size->=2 sub-subset,
    whose marginals a deep planted cell genuinely shifts.  Scenarios
    built on such orbits gate on precision ("every adoption lies on
    planted structure") rather than exact-cell recall.
    """
    from itertools import combinations, product

    schema = population.schema
    keys: set[tuple[tuple[str, ...], tuple[int, ...]]] = set()
    for cell in population.planted:
        subsets = [cell.attributes]
        if include_subsets:
            for size in range(2, len(cell.attributes)):
                subsets.extend(combinations(cell.attributes, size))
        for subset in subsets:
            cards = [schema.attribute(name).cardinality for name in subset]
            for values in product(*(range(c) for c in cards)):
                keys.add((tuple(subset), tuple(values)))
    return keys


def apply_label_noise(
    dataset: Dataset, rng: np.random.Generator, rate: float = 0.1
) -> Dataset:
    """Replace a fraction of entries with uniformly random values.

    Classic label noise: each cell of the sample matrix is, with
    probability ``rate``, independently overwritten by a uniform draw
    over its attribute's values (possibly the same value, as in the
    standard noise model).  Associations survive attenuated — the test
    is whether discovery still finds them without inventing structure
    from the noise.
    """
    if not 0.0 <= rate <= 1.0:
        raise DataError(f"noise rate must be in [0, 1], got {rate}")
    rows = np.array(dataset.rows)
    mask = rng.random(rows.shape) < rate
    for axis, attribute in enumerate(dataset.schema):
        noisy = rng.integers(
            attribute.cardinality, size=int(mask[:, axis].sum())
        )
        rows[mask[:, axis], axis] = noisy
    return Dataset(dataset.schema, rows)


def duplicate_rows(
    dataset: Dataset, rng: np.random.Generator, fraction: float = 0.3
) -> Dataset:
    """Append duplicates of randomly chosen rows (an iid violation).

    ``fraction`` of the original row count is re-sampled *with
    replacement* and appended, the way ETL replays and retry storms
    inflate real datasets.  Duplicates overstate the evidence for every
    association they touch; the gates check the significance machinery
    does not let bounded duplication manufacture false alarms.
    """
    if not 0.0 <= fraction <= 1.0:
        raise DataError(
            f"duplicate fraction must be in [0, 1], got {fraction}"
        )
    rows = np.array(dataset.rows)
    extra = int(round(fraction * rows.shape[0]))
    if extra:
        chosen = rng.integers(rows.shape[0], size=extra)
        rows = np.concatenate([rows, rows[chosen]], axis=0)
    return Dataset(dataset.schema, rows)
