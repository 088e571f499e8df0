"""Fleet equivalence: discovery under the factored fit vs the dense oracle.

For every smoke-tier scenario, swapping the discovery engine's fit for
the frozen dense IPF must not change which constraints are adopted, in
what order, or how many sweeps each refit takes.
"""

import pytest
from dense_ipf import dense_fit_ipf

import repro.discovery.engine as engine_module
from repro.discovery.config import DiscoveryConfig
from repro.discovery.engine import DiscoveryEngine
from repro.scenarios.registry import scenario_names, get_scenario


def _discover(scenario):
    table = scenario.build(smoke=True).table
    with DiscoveryEngine(DiscoveryConfig(max_order=scenario.max_order)) as engine:
        result = engine.run(table)
    return (
        [cell.key for cell in result.found],
        [scan.fit_sweeps for scan in result.scans],
    )


@pytest.mark.parametrize("name", scenario_names("smoke"))
def test_scenario_adopts_the_same_keys_and_sweeps_as_the_dense_fit(
    name, monkeypatch
):
    scenario = get_scenario(name)
    keys, sweeps = _discover(scenario)
    monkeypatch.setattr(engine_module, "fit_ipf", dense_fit_ipf)
    dense_keys, dense_sweeps = _discover(scenario)
    assert keys == dense_keys
    assert sweeps == dense_sweeps
