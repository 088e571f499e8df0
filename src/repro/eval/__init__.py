"""Evaluation: paper fixtures, table rendering, reports, and scorecards.

The package holds the read-side of the validation fleet: paper fixtures
(:mod:`repro.eval.paper`), plain-text and markdown table rendering
(:mod:`repro.eval.tables`), the conformance-matrix report
(:mod:`repro.eval.conformance`), the experiment harness
(:mod:`repro.eval.harness`), and the cross-run scenario scorecard
(:mod:`repro.eval.scorecard`).
"""

from repro.eval.conformance import (
    conformance_report,
    render_baseline_comparison,
    render_conformance_matrix,
)
from repro.eval.paper import paper_schema, paper_table
from repro.eval.scorecard import (
    build_scorecard,
    render_scorecard_markdown,
    scenario_entries_from_trajectory,
)
from repro.eval.tables import format_table, markdown_table

__all__ = [
    "build_scorecard",
    "conformance_report",
    "format_table",
    "markdown_table",
    "paper_schema",
    "paper_table",
    "render_baseline_comparison",
    "render_conformance_matrix",
    "render_scorecard_markdown",
    "scenario_entries_from_trajectory",
]
