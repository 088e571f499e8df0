"""Discovery never builds the model's dense joint.

Every model-side marginal the discovery loop needs — the scans, the
rerun's re-verification tests, the fit — comes from the constraint-graph
components.  On a 16-attribute world the guard below makes building a
``2^16``-cell model tensor (through ``joint()`` or a whole-schema
``unnormalized()``) raise, serially and with two sharded workers.  Forked
workers inherit the guard too.
"""

import numpy as np
import pytest

from repro.data.contingency import ContingencyTable
from repro.discovery.config import DiscoveryConfig
from repro.discovery.engine import DiscoveryEngine
from repro.maxent.model import MaxEntModel
from repro.scenarios.registry import get_scenario


class JointBuilt(AssertionError):
    pass


@pytest.fixture(scope="module")
def wide_world():
    scenario = get_scenario("stress-wide-16")
    built = scenario.build(smoke=True)
    delta = built.population.sample(500, np.random.default_rng(3))
    merged = ContingencyTable(
        built.table.schema, built.table.counts + delta.to_contingency().counts
    )
    return scenario, built.table, merged


@pytest.fixture
def joint_guard(monkeypatch, wide_world):
    _scenario, table, _merged = wide_world
    full = table.schema.num_cells
    unnormalized = MaxEntModel.unnormalized

    def joint(self):
        raise JointBuilt("MaxEntModel.joint() called during discovery")

    def guarded_unnormalized(self):
        if self.schema.num_cells >= full:
            raise JointBuilt(f"a {self.schema.num_cells}-cell model tensor")
        return unnormalized(self)

    monkeypatch.setattr(MaxEntModel, "joint", joint)
    monkeypatch.setattr(MaxEntModel, "unnormalized", guarded_unnormalized)


@pytest.mark.parametrize(
    "workers",
    [
        pytest.param(1, id="serial"),
        pytest.param(2, id="sharded"),
    ],
)
def test_run_and_rerun_never_build_the_joint(wide_world, joint_guard, workers):
    scenario, table, merged = wide_world
    config = DiscoveryConfig(
        max_order=scenario.max_order,
        max_workers=workers,
        parallel_scan_threshold=0,
    )
    with DiscoveryEngine(config) as engine:
        result = engine.run(table)
        again = engine.rerun(merged, result)
    assert len(table.schema) == 16
    assert result.found, "the world should adopt constraints"
    expected = "sharded" if workers > 1 else "serial"
    for profile in (result.profile, again.profile):
        assert {entry["path"] for entry in profile.scan_paths} == {expected}
        # The scans read a few component cells, never the 2^16 joint.
        assert 0 < profile.scan_model_cells < table.schema.num_cells


def test_the_guard_trips_on_the_dense_joint(wide_world, joint_guard):
    _scenario, table, _merged = wide_world
    with pytest.raises(JointBuilt):
        MaxEntModel(table.schema).joint()
    with pytest.raises(JointBuilt):
        MaxEntModel(table.schema).unnormalized()
