"""Cross-process determinism of the fit and of discovery.

Float products do not reassociate, so a fit that iterated a set (whose
order follows ``PYTHONHASHSEED``) would differ between processes in the
last ulp.  Two subprocesses under different hash seeds must produce
byte-identical factors and an identical knowledge-base dump.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

SCRIPT = """
import json
from repro.core.knowledge_base import ProbabilisticKnowledgeBase
from repro.discovery.config import DiscoveryConfig
from repro.maxent.constraints import ConstraintSet
from repro.maxent.ipf import fit_ipf
from repro.scenarios.registry import get_scenario

scenario = get_scenario("stress-wide-16")
instance = scenario.build(smoke=True)
table = instance.table
constraints = ConstraintSet.first_order(table)
for names, values in sorted(instance.truth):
    constraints.add_cell(constraints.cell_from_table(table, names, values))
model = fit_ipf(constraints).model
kb = ProbabilisticKnowledgeBase.from_data(
    table, DiscoveryConfig(max_order=scenario.max_order)
)
print(json.dumps({
    "margin_factors": {
        name: vector.tobytes().hex()
        for name, vector in model.margin_factors.items()
    },
    "cell_factors": [
        [list(names), list(values), factor.hex()]
        for (names, values), factor in model.cell_factors.items()
    ],
    "a0": model.a0.hex(),
    "kb": kb.to_dict(),
}))
"""


def _run(hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(SRC))
    completed = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=300,
    )
    return json.loads(completed.stdout)


def test_fit_and_discovery_identical_across_hash_seeds():
    first = _run("0")
    second = _run("4242")
    assert first["cell_factors"], "the planted cells must be constrained"
    assert first["margin_factors"] == second["margin_factors"]
    assert first["cell_factors"] == second["cell_factors"]
    assert first["a0"] == second["a0"]
    assert first["kb"] == second["kb"]
