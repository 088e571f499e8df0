"""Scenario scorecard: per-scenario outcomes rolled up across runs.

One conformance run produces one JSON document; a trajectory of runs
produces a pile of them.  The scorecard is the aggregation layer: it
reads the scenario outcomes in those flat records (the per-scenario
entries embedded in ``benchmarks/run_all.py --json`` trajectory records,
and the outcome lists ``repro scenarios run --json`` writes), groups
them by scenario, and renders one markdown/JSON table with pass/fail and
trend columns — the report ``benchmarks/check_regression.py`` embeds and
the ``repro scorecard`` CLI prints.

The trend column compares each scenario's two most recent outcomes:
``regressed`` (passed, now failing), ``improved`` (failed, now passing),
``steady`` (no status change), or ``new`` (first recorded outcome).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.eval.tables import markdown_table

__all__ = [
    "build_scorecard",
    "render_scorecard_markdown",
    "scenario_entries_from_trajectory",
]


def _outcome_entry(metrics: dict, created_at: str, git_sha: str) -> dict:
    """Normalize one outcome document into a scorecard entry."""
    return {
        "scenario": metrics.get("scenario", "?"),
        "tier": metrics.get("tier", "smoke"),
        "smoke": bool(metrics.get("smoke", True)),
        "created_at": created_at,
        "git_sha": git_sha,
        "passed": bool(metrics.get("passed", False)),
        "precision": float(metrics.get("precision", 0.0)),
        "recall": float(metrics.get("recall", 0.0)),
        "kl": float(metrics.get("kl_empirical_fitted", 0.0)),
        "seconds": float(metrics.get("seconds", 0.0)),
        "query_p99_ms": float(
            (metrics.get("query_replay") or {}).get("p99_ms", 0.0)
        ),
        "gate_failures": list(metrics.get("gate_failures", ())),
        "slo_failures": list(metrics.get("slo_failures", ())),
    }


def scenario_entries_from_trajectory(records: Iterable[dict]) -> list[dict]:
    """Scorecard entries from flat run records, oldest first.

    Takes the record dicts ``benchmarks/run_all.py --json`` appends (each
    embeds a ``scenarios`` list and a ``timestamp``) and the outcome
    dicts ``repro scenarios run --json`` writes (each names one
    ``scenario``).  A bare outcome carries no timestamp, so it sorts
    before every timestamped record, in the order given.
    """
    entries: list[dict] = []
    for record in records:
        if "scenario" in record:
            entries.append(_outcome_entry(record, "", ""))
            continue
        created_at = str(record.get("timestamp", ""))
        git_sha = str(record.get("git_sha", ""))
        for metrics in record.get("scenarios") or ():
            entries.append(_outcome_entry(metrics, created_at, git_sha))
    entries.sort(key=lambda e: (e["created_at"], e["scenario"]))
    return entries


def _trend(history: Sequence[dict]) -> str:
    """Status movement between the two most recent outcomes."""
    if len(history) < 2:
        return "new"
    previous, latest = history[-2]["passed"], history[-1]["passed"]
    if previous and not latest:
        return "regressed"
    if not previous and latest:
        return "improved"
    return "steady"


def build_scorecard(entries: Iterable[dict]) -> dict:
    """Group outcome entries by scenario and summarize each history.

    Returns a JSON-ready document: per-scenario rows (latest metrics,
    run count, pass/fail, trend) plus fleet-level totals.  Entries are
    expected oldest-first, as
    :func:`scenario_entries_from_trajectory` returns them.
    """
    by_scenario: dict[str, list[dict]] = {}
    for entry in entries:
        by_scenario.setdefault(entry["scenario"], []).append(entry)

    rows = []
    for name in sorted(by_scenario):
        history = by_scenario[name]
        latest = history[-1]
        rows.append(
            {
                "scenario": name,
                "tier": latest["tier"],
                "runs": len(history),
                "passed": latest["passed"],
                "trend": _trend(history),
                "precision": latest["precision"],
                "recall": latest["recall"],
                "kl": latest["kl"],
                "query_p99_ms": latest["query_p99_ms"],
                "seconds": latest["seconds"],
                "last_run": latest["created_at"],
                "git_sha": latest["git_sha"],
                "gate_failures": latest["gate_failures"],
                "slo_failures": latest["slo_failures"],
            }
        )
    return {
        "scenarios": rows,
        "total_scenarios": len(rows),
        "total_outcomes": sum(len(h) for h in by_scenario.values()),
        "failing": [r["scenario"] for r in rows if not r["passed"]],
        "regressed": [r["scenario"] for r in rows if r["trend"] == "regressed"],
    }


def render_scorecard_markdown(scorecard: dict) -> str:
    """The scorecard as a markdown document with one table row per scenario."""
    lines = ["# Scenario scorecard", ""]
    rows = scorecard["scenarios"]
    if not rows:
        lines.append("No scenario outcomes recorded.")
        lines.append("")
        return "\n".join(lines)
    lines.append(
        f"{scorecard['total_scenarios']} scenarios, "
        f"{scorecard['total_outcomes']} recorded outcomes; "
        f"{len(scorecard['failing'])} failing, "
        f"{len(scorecard['regressed'])} regressed."
    )
    lines.append("")
    headers = [
        "scenario",
        "tier",
        "runs",
        "status",
        "trend",
        "precision",
        "recall",
        "KL",
        "q p99 ms",
        "last run",
    ]
    table_rows = []
    for row in rows:
        table_rows.append(
            [
                row["scenario"],
                row["tier"],
                row["runs"],
                "pass" if row["passed"] else "FAIL",
                row["trend"],
                f"{row['precision']:.2f}",
                f"{row['recall']:.2f}",
                f"{row['kl']:.4f}",
                f"{row['query_p99_ms']:.1f}",
                row["last_run"],
            ]
        )
    lines.append(markdown_table(headers, table_rows))
    failures = [r for r in rows if not r["passed"]]
    if failures:
        lines.append("")
        lines.append("## Failures")
        lines.append("")
        for row in failures:
            misses = row["gate_failures"] + row["slo_failures"]
            detail = "; ".join(misses) if misses else "unspecified"
            lines.append(f"- **{row['scenario']}**: {detail}")
    lines.append("")
    return "\n".join(lines)
