"""One-shot experiment report: every paper artifact regenerated live.

:func:`generate_report` runs the full E1-E8 harness (and a reduced A1
recovery ablation) and assembles a single markdown document.  Exposed on
the CLI as ``repro report``.
"""

from __future__ import annotations

from pathlib import Path

from repro.eval import harness


def generate_report(recovery_trials: int = 2, recovery_n: int = 8000) -> str:
    """Run every experiment and return the assembled markdown report."""
    sections: list[tuple[str, str]] = []
    sections.append(("E1 — Figure 1", harness.reproduce_figure1()))
    sections.append(("E2 — Figure 2", harness.reproduce_figure2()))

    _comparisons, table1_text = harness.reproduce_table1()
    sections.append(("E3 — Table 1", table1_text))

    _fit, table2_text = harness.reproduce_table2()
    sections.append(("E4 — Table 2", table2_text))

    _result, discovery_text = harness.reproduce_discovery()
    sections.append(("E5 — Figure 3 (discovery)", discovery_text))

    _fits, solver_text = harness.reproduce_solver_comparison()
    sections.append(("E6 — Figure 4 (solvers)", solver_text))

    _rows, appendix_text = harness.reproduce_appendix_b()
    sections.append(("E8 — Appendix B", appendix_text))

    _rows, recovery_text = harness.selector_recovery_experiment(
        seed=0, trials=recovery_trials, n=recovery_n
    )
    sections.append(("A1 — selector recovery", recovery_text))

    parts = [
        "# Reproduction report",
        "",
        "Generated live by `repro report`: each section reruns one "
        "experiment of `repro.eval.harness` on the paper's data.",
        "",
    ]
    for title, body in sections:
        parts.append(f"## {title}")
        parts.append("")
        parts.append("```")
        parts.append(body)
        parts.append("```")
        parts.append("")
    return "\n".join(parts)


def write_report(
    path: str | Path, recovery_trials: int = 2, recovery_n: int = 8000
) -> Path:
    """Generate the report and write it to ``path``."""
    path = Path(path)
    path.write_text(generate_report(recovery_trials, recovery_n))
    return path
