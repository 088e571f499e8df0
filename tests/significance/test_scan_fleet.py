"""Fleet equivalence: discovery under the factored scan vs the dense oracle.

For every smoke-tier scenario, swapping the engine's scan for the frozen
dense one (and ``MaxEntModel.marginal`` for the dense marginal) must not
change which constraints are adopted, in what order, or the scan trace:
the same cells tested in the same order with the same decisions, every
float within 1e-12.
"""

import pytest
from dense_scan import assert_same_scan, dense_marginal, dense_scan_order

import repro.discovery.engine as engine_module
from repro.discovery.config import DiscoveryConfig
from repro.discovery.engine import DiscoveryEngine
from repro.maxent.model import MaxEntModel
from repro.scenarios.registry import get_scenario, scenario_names


def _discover(scenario, scan_backend):
    table = scenario.build(smoke=True).table
    config = DiscoveryConfig(max_order=scenario.max_order)
    with DiscoveryEngine(config, scan_backend=scan_backend) as engine:
        return engine.run(table)


def _chosen(scan):
    chosen = scan.chosen
    return None if chosen is None else (chosen.attributes, chosen.values)


@pytest.mark.parametrize("name", scenario_names("smoke"))
def test_scenario_scans_like_the_dense_oracle(name, monkeypatch):
    scenario = get_scenario(name)
    factored = _discover(scenario, "kernel")
    monkeypatch.setattr(engine_module, "reference_scan_order", dense_scan_order)
    monkeypatch.setattr(MaxEntModel, "marginal", dense_marginal)
    dense = _discover(scenario, "reference")
    assert [c.key for c in factored.found] == [c.key for c in dense.found]
    assert len(factored.scans) == len(dense.scans)
    for ours, theirs in zip(factored.scans, dense.scans):
        assert ours.order == theirs.order
        assert _chosen(ours) == _chosen(theirs)
        assert ours.fit_sweeps == theirs.fit_sweeps
        assert_same_scan(list(ours.tests), list(theirs.tests))
