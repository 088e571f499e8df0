"""The vectorized scan kernels against the scalar reference oracle.

The contract under test is *bit-identity*: on any table, constraint set
and model, :class:`~repro.significance.kernels.OrderScanKernel` must
reproduce :func:`~repro.significance.mml.reference_scan_order` exactly —
every float of every :class:`~repro.significance.result.CellTest` (m1,
m2, mean, sd, num_sd, predicted), the integer ranges, the determined
flags, the cell order, and therefore the greedy argmax — across
adoptions with selective cache invalidation, and end to end through the
discovery engine.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.data.contingency import ContingencyTable
from repro.data.schema import Attribute, Schema
from repro.discovery.config import DiscoveryConfig
from repro.discovery.engine import DiscoveryEngine
from repro.exceptions import ConstraintError, DataError
from repro.maxent.constraints import ConstraintSet
from repro.maxent.dual import fit_dual
from repro.maxent.model import MaxEntModel
from repro.scenarios.registry import get_scenario
from repro.discovery.profile import DiscoveryProfile
from repro.significance.kernels import OrderScanKernel
from repro.significance.mml import (
    most_significant,
    reference_scan_order,
    scan_order,
)

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def scan_worlds(draw, max_attributes=4, max_values=3):
    """A random (table, constraints, model) triple ready to scan.

    Some adopted constraints and occasionally a fitted (rather than
    independence) model, so feasible ranges, determined flags and cell
    factors all get exercised.
    """
    count = draw(st.integers(2, max_attributes))
    attributes = []
    for index in range(count):
        cardinality = draw(st.integers(2, max_values))
        attributes.append(
            Attribute(f"ATTR{index}", tuple(f"v{v}" for v in range(cardinality)))
        )
    schema = Schema(attributes)
    cells = schema.num_cells
    counts = draw(
        st.lists(st.integers(1, 12), min_size=cells, max_size=cells)
    )
    table = ContingencyTable(
        schema, np.array(counts, dtype=np.int64).reshape(schema.shape)
    )
    constraints = ConstraintSet.first_order(table)

    # Adopt a few random cells (skipping inconsistent ones) the way the
    # greedy loop would have.
    num_adopted = draw(st.integers(0, 4))
    for _ in range(num_adopted):
        order = draw(st.integers(2, count))
        subsets = table.subsets_of_order(order)
        subset = subsets[draw(st.integers(0, len(subsets) - 1))]
        values = tuple(
            draw(st.integers(0, schema.attribute(name).cardinality - 1))
            for name in subset
        )
        candidate = constraints.cell_from_table(table, subset, values)
        if candidate.probability >= 0.99:
            continue
        try:
            constraints.add_cell(candidate)
        except ConstraintError:
            continue

    model = MaxEntModel.independent(
        schema,
        {name: table.first_order_probabilities(name) for name in schema.names},
    )
    if draw(st.booleans()):
        try:
            model = fit_dual(
                constraints,
                initial=model,
                max_sweeps=40,
                require_convergence=False,
            ).model
        except ConstraintError:
            pass
    return table, constraints, model


class TestKernelMatchesReference:
    @SETTINGS
    @given(world=scan_worlds())
    def test_whole_order_scan_is_bit_identical(self, world):
        table, constraints, model = world
        for order in range(2, len(table.schema) + 1):
            reference = reference_scan_order(table, model, order, constraints)
            vectorized = OrderScanKernel(table, order, constraints).scan(model)
            assert vectorized == reference
            best_ref = most_significant(reference)
            best_vec = most_significant(vectorized)
            if best_ref is None:
                assert best_vec is None
            else:
                # Same argmax cell, not merely an equal-delta tie-mate.
                assert best_vec is vectorized[reference.index(best_ref)]

    @SETTINGS
    @given(world=scan_worlds(max_attributes=3))
    def test_greedy_adoption_loop_with_selective_invalidation(self, world):
        """Scan-adopt-rescan on one kernel matches a fresh reference scan
        every round — the data-side caches invalidate correctly."""
        table, constraints, model = world
        order = 2
        kernel = OrderScanKernel(table, order, constraints)
        for _round in range(4):
            reference = reference_scan_order(table, model, order, constraints)
            vectorized = kernel.scan(model)
            assert vectorized == reference
            best = most_significant(vectorized)
            if best is None:
                break
            constraint = constraints.cell_from_table(
                table, best.attributes, best.values
            )
            try:
                constraints.add_cell(constraint)
            except ConstraintError:
                break
            kernel.notify_adopted(constraint.key)

    @pytest.mark.parametrize(
        "cardinalities, adopted",
        [
            # Several shape groups in one batched build.
            ((2, 3, 4, 2), ()),
            # Order-3 subsets holding an adopted order-2 cell take the
            # lower-order correction; the others take the first-order
            # gather alone.
            ((2, 2, 3, 2), ((("ATTR0", "ATTR1"), (0, 1)),)),
            # At order 2, the adopted cell is masked out of its subset and
            # determines the sibling it leaves alone in its row.
            ((2, 2, 3), ((("ATTR0", "ATTR1"), (0, 0)),)),
        ],
        ids=["mixed-cardinalities", "order3-over-pair", "same-subset"],
    )
    def test_batched_build_branches_match_reference(
        self, cardinalities, adopted
    ):
        schema = Schema(
            [
                Attribute(f"ATTR{i}", tuple(f"v{v}" for v in range(size)))
                for i, size in enumerate(cardinalities)
            ]
        )
        counts = np.random.default_rng(5).integers(1, 40, size=schema.shape)
        table = ContingencyTable(schema, counts)
        constraints = ConstraintSet.first_order(table)
        for names, values in adopted:
            constraints.add_cell(
                constraints.cell_from_table(table, names, values)
            )
        model = fit_dual(
            constraints, max_sweeps=40, require_convergence=False
        ).model
        determined = False
        for order in range(2, len(schema) + 1):
            reference = reference_scan_order(table, model, order, constraints)
            tests = OrderScanKernel(table, order, constraints).scan(model)
            assert tests.best() == most_significant(reference)
            assert tests == reference
            determined |= any(test.determined for test in reference)
        assert determined == bool(adopted)

    def test_scan_order_facade_is_kernel_backed(self, table):
        from repro.baselines.independence import independence_model

        model = independence_model(table)
        constraints = ConstraintSet.first_order(table)
        assert scan_order(table, model, 2, constraints) == (
            reference_scan_order(table, model, 2, constraints)
        )

    def test_zero_mass_model_cell_exact_limits(self, table, schema):
        """A model assigning a candidate cell zero probability produces
        the exact degenerate limits (m1 = +inf, delta = -inf), not a
        math-domain error — in both scan paths, identically."""
        margins = {
            name: table.first_order_probabilities(name)
            for name in schema.names
        }
        margins["CANCER"] = np.array([0.0, 1.0])
        model = MaxEntModel.independent(schema, margins)
        constraints = ConstraintSet.first_order(table)
        reference = reference_scan_order(table, model, 2, constraints)
        vectorized = scan_order(table, model, 2, constraints)
        assert vectorized == reference
        zero_mass = [
            t for t in vectorized
            if "CANCER" in t.attributes
            and t.predicted_probability == 0.0
            and t.observed > 0
        ]
        assert zero_mass
        for test in zero_mass:
            assert test.m1 == float("inf")
            assert test.delta == float("-inf")
            assert test.significant


class TestKernelCaching:
    def test_notify_adopted_drops_only_sharing_subsets(self, table):
        constraints = ConstraintSet.first_order(table)
        kernel = OrderScanKernel(table, 2, constraints)
        from repro.baselines.independence import independence_model

        kernel.scan(independence_model(table))
        assert set(kernel._stats) == set(table.subsets_of_order(2))
        constraint = constraints.cell_from_table(
            table, ["SMOKING", "CANCER"], [0, 0]
        )
        constraints.add_cell(constraint)
        kernel.notify_adopted(constraint.key)
        assert ("SMOKING", "CANCER") not in kernel._stats
        assert ("SMOKING", "FAMILY_HISTORY") in kernel._stats
        assert ("CANCER", "FAMILY_HISTORY") in kernel._stats

    def test_lower_order_adoption_drops_containing_subsets(self, table):
        constraints = ConstraintSet.first_order(table)
        kernel = OrderScanKernel(table, 3, constraints)
        from repro.baselines.independence import independence_model

        kernel.scan(independence_model(table))
        assert set(kernel._stats) == {
            ("SMOKING", "CANCER", "FAMILY_HISTORY")
        }
        constraint = constraints.cell_from_table(
            table, ["SMOKING", "CANCER"], [0, 0]
        )
        constraints.add_cell(constraint)
        kernel.notify_adopted(constraint.key)
        assert not kernel._stats

    def test_higher_order_adoption_is_ignored(self, table):
        constraints = ConstraintSet.first_order(table)
        kernel = OrderScanKernel(table, 2, constraints)
        from repro.baselines.independence import independence_model

        kernel.scan(independence_model(table))
        before = dict(kernel._stats)
        kernel.notify_adopted(
            (("SMOKING", "CANCER", "FAMILY_HISTORY"), (0, 0, 0))
        )
        assert kernel._stats == before

    def test_instrumentation_counters(self, table):
        from repro.baselines.independence import independence_model

        constraints = ConstraintSet.first_order(table)
        kernel = OrderScanKernel(table, 2, constraints)
        model = independence_model(table)
        kernel.scan(model)
        kernel.scan(model)
        assert kernel.scan_calls == 2
        assert kernel.cells_evaluated == 32
        assert kernel.total_scan_seconds >= kernel.last_scan_seconds >= 0.0


class TestEngineEquivalence:
    @pytest.mark.parametrize("seed", [3, 11])
    def test_kernel_and_reference_engines_agree_exactly(self, seed):
        from repro.synth.surveys import medical_survey_population

        rng = np.random.default_rng(seed)
        table = medical_survey_population().sample_table(1500, rng)
        config = DiscoveryConfig(max_order=3)
        kernel_run = DiscoveryEngine(config).run(table)
        reference_run = DiscoveryEngine(
            config, scan_backend="reference"
        ).run(table)

        assert [c.key for c in kernel_run.found] == [
            c.key for c in reference_run.found
        ]
        assert [c.probability for c in kernel_run.found] == [
            c.probability for c in reference_run.found
        ]
        assert len(kernel_run.scans) == len(reference_run.scans)
        for ours, theirs in zip(kernel_run.scans, reference_run.scans):
            assert ours.order == theirs.order
            assert ours.tests == theirs.tests
            assert ours.chosen == theirs.chosen
        assert np.array_equal(
            kernel_run.model.joint(), reference_run.model.joint()
        )

    def test_unknown_scan_backend_rejected(self):
        with pytest.raises(DataError, match="scan backend"):
            DiscoveryEngine(scan_backend="simd")

    def test_engine_records_profile(self, table):
        result = DiscoveryEngine(DiscoveryConfig(max_order=2)).run(table)
        profile = result.profile
        assert isinstance(profile, DiscoveryProfile)
        assert profile.scan_calls > 0
        assert profile.fit_calls > 0
        assert profile.verify_calls > 0  # each order ends with one
        assert profile.total_seconds > 0.0
        assert len(profile.rows()) == 3

    def test_profile_counts_fit_cells(self, table):
        profile = DiscoveryEngine(DiscoveryConfig(max_order=2)).run(
            table
        ).profile
        assert 0 < profile.fit_cells
        assert profile.fit_cells <= profile.fit_sweeps * table.schema.num_cells
        fit_row = profile.rows()[1]
        assert fit_row[0] == "fit"
        assert fit_row[2] == (
            f"{profile.fit_sweeps} sweeps, {profile.fit_cells} cells"
        )

    def test_fit_cells_are_the_cells_the_fits_swept(self, table, monkeypatch):
        import repro.discovery.engine as engine_module

        fits = []

        def recording_fit(*args, **kwargs):
            fits.append(fit_dual(*args, **kwargs))
            return fits[-1]

        monkeypatch.setattr(engine_module, "fit_dual", recording_fit)
        profile = DiscoveryEngine(DiscoveryConfig(max_order=2)).run(
            table
        ).profile
        assert profile.fit_calls == len(fits)
        assert profile.fit_cells == sum(fit.cells_swept for fit in fits)

    def test_fit_cells_follow_the_components_not_the_joint(self):
        # 16 binary attributes joined by 4 planted pairs: each sweep works
        # on a few small component tensors, never the 65,536-cell joint.
        scenario = get_scenario("stress-wide-16")
        table = scenario.build(smoke=True).table
        profile = DiscoveryEngine(
            DiscoveryConfig(max_order=scenario.max_order)
        ).run(table).profile
        assert profile.fit_sweeps > 0
        assert profile.fit_cells <= 64 * profile.fit_sweeps


class TestScanOrderErrors:
    def test_invalid_order_raises(self, table):
        from repro.baselines.independence import independence_model

        constraints = ConstraintSet.first_order(table)
        with pytest.raises(DataError):
            scan_order(
                table, independence_model(table), 9, constraints
            )
