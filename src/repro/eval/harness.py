"""Experiment harness: regenerate every table and figure of the paper.

Each ``reproduce_*`` function returns ``(rows, text)`` — structured rows
for assertions plus a rendered report — and is shared by the benchmark
suite and the CLI.  Experiment ids are E1-E8 for the paper's artifacts
(Figures 1-4, Tables 1-2, Appendices A and B) and A1-A8 for the
ablations; each ``benchmarks/bench_*.py`` docstring opens with the id it
regenerates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.baselines.bic_selector import BICSelectorConfig, discover_bic
from repro.baselines.chi2_selector import Chi2SelectorConfig, discover_chi2
from repro.baselines.independence import independence_model
from repro.discovery.config import DiscoveryConfig
from repro.discovery.engine import discover
from repro.discovery.trace import DiscoveryResult
from repro.eval.paper import (
    PAPER_TABLE1,
    TABLE2_CELL,
    paper_table,
)
from repro.eval.tables import format_table
from repro.maxent import elimination
from repro.maxent.constraints import ConstraintSet
from repro.maxent.dual import fit_dual
from repro.maxent.gevarter import fit_gevarter
from repro.significance.mml import scan_order
from repro.synth.generators import (
    random_planted_population,
    recovery_score,
)


# -- E1 / E2: Figures 1 and 2 -------------------------------------------------------


def reproduce_figure1() -> str:
    """Figure 1: the two contingency-table slices."""
    table = paper_table()
    return (
        "FIGURE 1: DATA ON SMOKING AND CANCER (N = "
        f"{table.total})\n\n" + table.render("SMOKING", "CANCER")
    )


def reproduce_figure2() -> str:
    """Figure 2: same slices with marginal sums, plus the collapsed AB table."""
    table = paper_table()
    collapsed = table.marginal_table(["SMOKING", "CANCER"])
    return (
        "FIGURE 2: CANCER DATA WITH MARGINALS\n\n"
        + table.render("SMOKING", "CANCER", show_marginals=True)
        + "\n\nRELATION OF SMOKING TO CANCER (summed over FAMILY_HISTORY)\n"
        + collapsed.render("SMOKING", "CANCER", show_marginals=True)
    )


# -- E3: Table 1 --------------------------------------------------------------------


@dataclass
class Table1Comparison:
    """One cell's paper-vs-measured Table-1 row."""

    subset: tuple[str, str]
    values: tuple[int, int]
    ours_probability: float
    ours_mean: float
    ours_sd: float
    ours_num_sd: float
    ours_delta: float
    ours_ratio: float
    paper_delta: float
    paper_ratio: float | None
    sign_match: bool


def reproduce_table1() -> tuple[list[Table1Comparison], str]:
    """Table 1: second-order MML scan at the independence model."""
    table = paper_table()
    model = independence_model(table)
    constraints = ConstraintSet.first_order(table)
    tests = {
        (t.attributes, t.values): t
        for t in scan_order(table, model, 2, constraints)
    }
    comparisons = []
    for reference in PAPER_TABLE1:
        ours = tests[(reference.subset, reference.values)]
        comparisons.append(
            Table1Comparison(
                subset=reference.subset,
                values=reference.values,
                ours_probability=ours.predicted_probability,
                ours_mean=ours.mean,
                ours_sd=ours.sd,
                ours_num_sd=ours.num_sd,
                ours_delta=ours.delta,
                ours_ratio=ours.likelihood_ratio,
                paper_delta=reference.delta,
                paper_ratio=reference.ratio,
                sign_match=(ours.delta < 0) == (reference.delta < 0),
            )
        )
    headers = [
        "cell", "p (ours)", "mean", "sd", "#sd", "m2-m1 (ours)",
        "m2-m1 (paper)", "ratio (ours)", "ratio (paper)", "sign ok",
    ]
    rows = []
    for c in comparisons:
        label = "".join(n[0] for n in c.subset) + "".join(
            str(v + 1) for v in c.values
        )
        rows.append(
            [
                label,
                c.ours_probability,
                c.ours_mean,
                c.ours_sd,
                c.ours_num_sd,
                c.ours_delta,
                c.paper_delta,
                min(c.ours_ratio, 9999.0),
                c.paper_ratio if c.paper_ratio is not None else "<.1",
                c.sign_match,
            ]
        )
    text = "TABLE 1: SECOND-ORDER SIGNIFICANCE SCAN\n\n" + format_table(
        headers, rows
    )
    return comparisons, text


# -- E4: Table 2 --------------------------------------------------------------------

#: Trace columns shown for Table 2 (the paper's b, c, a's selection).
TABLE2_COLUMNS = [
    "a^SMOKING,FAMILY_HISTORY_1,2",
    "a^SMOKING_1",
    "a^SMOKING_2",
    "a^SMOKING_3",
    "a^CANCER_1",
    "a^CANCER_2",
    "a^FAMILY_HISTORY_1",
    "a^FAMILY_HISTORY_2",
    "a0",
]


def reproduce_table2(tol: float = 1e-10, max_sweeps: int = 200):
    """Table 2: Gevarter iteration trace fitting the N^AC(1,2) constraint.

    Returns ``(fit result, text)``; the fit's trace holds one full a-value
    snapshot per sweep, starting with the first-order initial values.
    """
    table = paper_table()
    constraints = ConstraintSet.first_order(table)
    subset, values = TABLE2_CELL
    constraints.add_cell(
        constraints.cell_from_table(table, list(subset), list(values))
    )
    fit = fit_gevarter(
        constraints, tol=tol, max_sweeps=max_sweeps, record_trace=True
    )
    headers = ["sweep"] + [c.split("^")[-1] for c in TABLE2_COLUMNS]
    rows = []
    for sweep, snapshot in enumerate(fit.trace):
        rows.append([sweep] + [snapshot[c] for c in TABLE2_COLUMNS])
    text = (
        "TABLE 2: ITERATIVE CALCULATION OF a VALUES "
        f"(converged={fit.converged}, sweeps={fit.sweeps})\n\n"
        + format_table(headers, rows, floatfmt=".4f")
    )
    return fit, text


# -- E5: Figure 3 (full discovery) ---------------------------------------------------


def reproduce_discovery(
    config: DiscoveryConfig | None = None,
) -> tuple[DiscoveryResult, str]:
    """Figure 3: the complete discovery run on the paper's data."""
    table = paper_table()
    result = discover(table, config)
    lines = ["FIGURE 3: FULL DISCOVERY RUN\n", result.summary(), ""]
    model = result.model
    lines.append("Sample queries against the acquired knowledge:")
    for query_target, query_given in [
        ({"CANCER": "yes"}, {"SMOKING": "smoker"}),
        ({"CANCER": "yes"}, {"SMOKING": "non-smoker"}),
        ({"CANCER": "yes"}, {"FAMILY_HISTORY": "yes"}),
        ({"CANCER": "yes"}, {}),
    ]:
        probability = (
            model.conditional(query_target, query_given)
            if query_given
            else model.probability(query_target)
        )
        given_text = (
            " | " + ", ".join(f"{k}={v}" for k, v in query_given.items())
            if query_given
            else ""
        )
        target_text = ", ".join(f"{k}={v}" for k, v in query_target.items())
        lines.append(f"  P({target_text}{given_text}) = {probability:.4f}")
    return result, "\n".join(lines)


# -- E6: Figure 4 (solver comparison) -------------------------------------------------


def reproduce_solver_comparison(tol: float = 1e-10):
    """Figure 4 ablation: Newton vs Gevarter convergence on the same system."""
    table = paper_table()
    constraints = ConstraintSet.first_order(table)
    subset, values = TABLE2_CELL
    constraints.add_cell(
        constraints.cell_from_table(table, list(subset), list(values))
    )
    newton = fit_dual(constraints, tol=tol)
    gevarter = fit_gevarter(constraints, tol=tol, record_trace=False)
    agreement = float(
        np.abs(newton.model.joint() - gevarter.model.joint()).max()
    )
    headers = ["solver", "iterations", "final violation", "joint max |diff|"]
    rows = [
        ["newton", newton.sweeps, newton.max_violation, agreement],
        ["gevarter", gevarter.sweeps, gevarter.max_violation, agreement],
    ]
    text = "FIGURE 4: SOLVER COMPARISON\n\n" + format_table(
        headers, rows, floatfmt=".3e"
    )
    return (newton, gevarter), text


# -- A1: selector recovery ablation ---------------------------------------------------


@dataclass
class RecoveryRow:
    """Recovery of planted structure by one selector on one trial."""

    selector: str
    trial: int
    precision: float
    recall: float
    found: int


def selector_recovery_experiment(
    seed: int = 0,
    trials: int = 5,
    n: int = 20000,
    num_attributes: int = 4,
    num_planted: int = 2,
    strength: float = 3.0,
) -> tuple[list[RecoveryRow], str]:
    """A1: MML vs chi-square vs BIC on planted-correlation populations."""
    rows: list[RecoveryRow] = []
    for trial in range(trials):
        rng = np.random.default_rng(seed + trial)
        population = random_planted_population(
            rng,
            num_attributes=num_attributes,
            num_planted=num_planted,
            strength=strength,
        )
        table = population.sample_table(n, rng)

        mml = discover(table, DiscoveryConfig(max_order=2))
        mml_keys = {(c.attributes, c.values) for c in mml.found}
        precision, recall = recovery_score(population, mml_keys)
        rows.append(RecoveryRow("mml", trial, precision, recall, len(mml_keys)))

        chi2 = discover_chi2(table, Chi2SelectorConfig(max_order=2))
        chi2_keys = {(c.attributes, c.values) for c in chi2.found}
        precision, recall = recovery_score(population, chi2_keys)
        rows.append(
            RecoveryRow("chi2", trial, precision, recall, len(chi2_keys))
        )

        bic = discover_bic(table, BICSelectorConfig(max_order=2))
        bic_keys = {(c.attributes, c.values) for c in bic.found}
        precision, recall = recovery_score(population, bic_keys)
        rows.append(RecoveryRow("bic", trial, precision, recall, len(bic_keys)))

    headers = ["selector", "mean precision", "mean recall", "mean found"]
    summary_rows = []
    for selector in ("mml", "chi2", "bic"):
        chosen = [r for r in rows if r.selector == selector]
        summary_rows.append(
            [
                selector,
                float(np.mean([r.precision for r in chosen])),
                float(np.mean([r.recall for r in chosen])),
                float(np.mean([r.found for r in chosen])),
            ]
        )
    text = (
        f"A1: PLANTED-CORRELATION RECOVERY ({trials} trials, N={n}, "
        f"{num_planted} planted order-2 cells, strength {strength})\n\n"
        + format_table(headers, summary_rows)
    )
    return rows, text


# -- A8: prior sensitivity ------------------------------------------------------------


@dataclass
class PriorSensitivityRow:
    """Discovery outcome under one hypothesis prior."""

    p_h2_prime: float
    prior_shift: float
    num_constraints: int
    first_key: tuple | None


def prior_sensitivity_experiment(
    priors: tuple[float, ...] = (0.5, 0.6, 0.8),
) -> tuple[list[PriorSensitivityRow], str]:
    """A8: how the p(H2') prior moves discovery on the paper's data.

    The paper notes p(H2') = .6 shifts (m2 - m1) by −.40 and .8 by −1.39 —
    more prior belief in further constraints makes the test more eager.
    The shift is monotone, so the adopted constraint count is
    non-decreasing in p(H2').
    """
    from repro.significance.mml import MMLPriors

    table = paper_table()
    rows: list[PriorSensitivityRow] = []
    for p in priors:
        config = DiscoveryConfig(
            priors=MMLPriors(p_h1=1.0 - p, p_h2_prime=p)
        )
        result = discover(table, config)
        rows.append(
            PriorSensitivityRow(
                p_h2_prime=p,
                prior_shift=config.priors.prior_shift,
                num_constraints=len(result.found),
                first_key=result.found[0].key if result.found else None,
            )
        )
    headers = ["p(H2')", "prior shift in m2-m1", "constraints found", "first adoption"]
    rendered = [
        [
            row.p_h2_prime,
            row.prior_shift,
            row.num_constraints,
            "none" if row.first_key is None else str(row.first_key),
        ]
        for row in rows
    ]
    text = (
        "A8: SENSITIVITY TO THE HYPOTHESIS PRIOR (paper data)\n\n"
        + format_table(headers, rendered)
    )
    return rows, text


# -- E8: Appendix B ------------------------------------------------------------------


def reproduce_appendix_b() -> tuple[list, str]:
    """E8: factored (elimination) vs dense partition sums and queries."""
    result, _ = reproduce_discovery()
    model = result.model
    dense_z = float(model.unnormalized().sum())
    factored_z = elimination.partition_sum(model)
    rows = [["partition sum", dense_z, factored_z, abs(dense_z - factored_z)]]
    queries = [
        ({"CANCER": "yes"}, {"SMOKING": "smoker"}),
        ({"CANCER": "yes"}, {"SMOKING": "smoker", "FAMILY_HISTORY": "yes"}),
    ]
    for target, given in queries:
        dense = model.conditional(target, given)
        factored = elimination.query(model, target, given)
        label = "P(" + ",".join(f"{k}={v}" for k, v in target.items()) + "|...)"
        rows.append([label, dense, factored, abs(dense - factored)])
    headers = ["quantity", "dense", "elimination", "|diff|"]
    text = "APPENDIX B: FACTORED VS DENSE EVALUATION\n\n" + format_table(
        headers, rows, floatfmt=".10f"
    )
    return rows, text
