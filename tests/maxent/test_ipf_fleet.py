"""Fleet equivalence: discovery under the Newton fit vs the dense IPF oracle.

For every scenario in the fleet, swapping the discovery engine's fit
(:func:`repro.maxent.dual.fit_dual`) for the frozen dense IPF must not
change which constraints are adopted or in what order.  On every
constraint set the engine hands its fit, the factored IPF must take
the same sweeps as the dense one.

The fleet also discovers the same keys and the same fitted factors under
two ``PYTHONHASHSEED`` values.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from dense_ipf import dense_fit_ipf

import repro.discovery.engine as engine_module
from repro.discovery.config import DiscoveryConfig
from repro.discovery.engine import DiscoveryEngine
from repro.maxent.dual import fit_dual
from repro.maxent.ipf import fit_ipf
from repro.scenarios.registry import get_scenario, scenario_names

SRC = Path(__file__).resolve().parents[2] / "src"

def _discover(scenario, fit):
    """Adopted keys, the result, and every ``(constraints, initial,
    kwargs)`` the engine handed ``fit``, copied at the call."""
    calls = []

    def recording_fit(constraints, initial=None, **kwargs):
        calls.append(
            (
                constraints.copy(),
                None if initial is None else initial.copy(),
                kwargs,
            )
        )
        return fit(constraints, initial=initial, **kwargs)

    table = scenario.build(smoke=True).table
    config = DiscoveryConfig(max_order=scenario.max_order)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine_module, "fit_dual", recording_fit)
        with DiscoveryEngine(config) as engine:
            result = engine.run(table)
    return [cell.key for cell in result.found], result, calls


@pytest.mark.parametrize("name", scenario_names())
def test_scenario_adopts_the_same_keys_and_sweeps_as_the_dense_fit(name):
    scenario = get_scenario(name)
    keys, _, calls = _discover(scenario, fit_dual)
    dense_keys, _, _ = _discover(scenario, dense_fit_ipf)
    assert keys == dense_keys
    for constraints, initial, kwargs in calls:
        factored = fit_ipf(constraints, initial=initial, **kwargs)
        dense = dense_fit_ipf(constraints, initial=initial, **kwargs)
        assert factored.sweeps == dense.sweeps


SCRIPT = """
import json
from repro.discovery.config import DiscoveryConfig
from repro.discovery.engine import DiscoveryEngine
from repro.scenarios.registry import get_scenario, scenario_names

found = {}
for name in scenario_names():
    scenario = get_scenario(name)
    config = DiscoveryConfig(max_order=scenario.max_order)
    with DiscoveryEngine(config) as engine:
        result = engine.run(scenario.build(smoke=True).table)
    model = result.model
    found[name] = {
        "keys": [[list(c.attributes), list(c.values)] for c in result.found],
        "margins": [v.tobytes().hex() for v in model.margin_factors.values()],
        "cells": [float(v).hex() for v in model.cell_factors.values()],
        "a0": model.a0.hex(),
    }
print(json.dumps(found))
"""


def _fleet(hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(SRC))
    completed = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=600,
    )
    return json.loads(completed.stdout)


def test_fleet_is_identical_under_two_hash_seeds():
    first = _fleet("0")
    assert first == _fleet("4242")
    assert sorted(first) == sorted(scenario_names())
    for name, found in first.items():
        keys, _, _ = _discover(get_scenario(name), fit_dual)
        assert found["keys"] == [[list(n), list(v)] for n, v in keys]
