"""Scenario tour: the conformance matrix over the default-tier workloads.

:mod:`repro.scenarios` holds the fleet of seeded workloads with planted
ground truth.  This example walks the smoke and full tiers (the stress
tier is opt-in, as in ``repro scenarios run``) — a null world, planted
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
from repro.scenarios import DEFAULT_TIERS, all_scenarios, run_matrix


def main(argv: list[str]) -> int:
    smoke = "--full" not in argv
    mode = "smoke" if smoke else "full"
    # The default tiers, as `repro scenarios run` picks them; the stress
    # tier runs with `repro scenarios run --tier stress`.
    scenarios = list(all_scenarios(DEFAULT_TIERS))
    print(f"scenario tour ({mode} sizes, tiers {', '.join(DEFAULT_TIERS)})\n")
    for scenario in scenarios:
        print(
            f"  {scenario.name}: {scenario.description} "
            f"[N={scenario.sample_size(smoke)}, max order "
            f"{scenario.max_order}]"
        )
    print()
    outcomes = run_matrix([scenario.name for scenario in scenarios], smoke)
    print(conformance_report(outcomes))
    return 0 if all(outcome.passed for outcome in outcomes) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
