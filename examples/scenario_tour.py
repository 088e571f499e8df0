"""Scenario tour: the conformance matrix over every registered workload.

:mod:`repro.scenarios` holds the fleet of seeded workloads with planted
ground truth.  This example walks the registry — a null world, planted
pairwise links, a genuine order-3 interaction, a near-deterministic
rule, skewed margins, high-cardinality axes, sparse counts, EM-completed
missing data, and a drifting stream — and for each one:

1. materializes the seeded workload (same table every run);
2. runs the Figure-3 discovery engine with per-stage profiling;
3. scores the adopted constraints against the planted ground truth
   (precision / recall, strict exact-key convention);
4. measures KL(empirical ‖ fitted) — how much of the sample the
   maximum-entropy model fails to explain;
5. compares against the chi-square and BIC baseline selectors;
6. checks the scenario's conformance gates — the same gates CI's
   scenario-matrix job enforces on every push.

Run with::

    python examples/scenario_tour.py [--full]
"""

import sys

from repro.eval.conformance import conformance_report
from repro.scenarios import all_scenarios, run_matrix


def main(argv: list[str]) -> int:
    smoke = "--full" not in argv
    mode = "smoke" if smoke else "full"
    print(f"scenario tour ({mode} sizes)\n")
    for scenario in all_scenarios():
        print(
            f"  {scenario.name}: {scenario.description} "
            f"[N={scenario.sample_size(smoke)}, max order "
            f"{scenario.max_order}]"
        )
    print()
    outcomes = run_matrix(smoke=smoke)
    print(conformance_report(outcomes))
    return 0 if all(outcome.passed for outcome in outcomes) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
