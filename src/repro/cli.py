"""Command-line interface: regenerate paper artifacts and run the pipeline.

Usage::

    repro figure1            # Figure 1 contingency tables
    repro figure2            # Figure 2 marginals
    repro table1             # Table 1 significance scan
    repro table2             # Table 2 a-value iteration
    repro discover           # full Figure-3 run on the paper data
    repro discover --csv data.csv --save kb.json   # fit and save (format 3)
    repro discover --workers 4                  # sharded scans, same answers
    repro update --kb kb.json --csv delta.csv      # warm-started update
    repro rules              # IF-THEN rules from the paper data
    repro recovery           # A1 selector-recovery ablation
    repro query "CANCER=yes | SMOKING=smoker"   # probability queries
    repro query --batch queries.txt             # one query per line
    repro query --mpe --given "SMOKING=smoker"  # most probable explanation
    repro scenarios list                        # registered workloads
    repro scenarios list --tier stress          # just the stress tier
    repro scenarios list --markdown             # docs/scenarios.md catalog
    repro scenarios run --smoke --json -        # conformance matrix (CI gate)
    repro scenarios run --smoke --workers 2     # parallel-equivalence pass
    repro scenarios run --tier stress --smoke   # nightly stress matrix
    repro scorecard --registry runs.db          # cross-run scenario scorecard
    repro serve                                 # serve the paper KB over HTTP
    repro serve --kb prod=kb.json --port 8741   # serve saved knowledge bases
    repro discover --store kb.db --name prod    # fit into the durable store
    repro update --store kb.db --name prod --csv delta.csv
    repro history prod --store kb.db            # list persisted revisions
    repro diff prod 0 2 --store kb.db           # diff two revisions
    repro serve --store kb.db                   # serve + persist every update
    repro runs import BENCH_discovery.json --registry runs.db
    repro runs list --registry runs.db          # recorded benchmark/scenario runs
"""

from __future__ import annotations

import argparse
import sys

from repro.core.knowledge_base import ProbabilisticKnowledgeBase
from repro.data.io import read_dataset_csv
from repro.discovery.config import DiscoveryConfig
from repro.discovery.engine import discover
from repro.eval import harness
from repro.eval.paper import paper_table


def _worker_count(text: str) -> int:
    """argparse type for --workers: a positive int (argparse exits 2)."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of Gevarter (1986): Automatic Probabilistic "
            "Knowledge Acquisition from Data"
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    subparsers.add_parser("figure1", help="Figure 1 contingency tables")
    subparsers.add_parser("figure2", help="Figure 2 marginal tables")
    subparsers.add_parser("table1", help="Table 1 significance scan")
    subparsers.add_parser("table2", help="Table 2 a-value iteration trace")
    subparsers.add_parser("solvers", help="Newton vs Gevarter comparison")
    subparsers.add_parser("appendixb", help="factored vs dense evaluation")

    discover_parser = subparsers.add_parser(
        "discover", help="run the full discovery pipeline"
    )
    discover_parser.add_argument(
        "--csv", help="CSV dataset to analyse (default: the paper's data)"
    )
    discover_parser.add_argument(
        "--max-order", type=int, default=None, help="highest order to scan"
    )
    discover_parser.add_argument(
        "--save",
        help=(
            "save the fitted knowledge base (format 3, with the audit "
            "trail, so it can be updated later with 'repro update')"
        ),
    )
    discover_parser.add_argument(
        "--profile",
        action="store_true",
        help=(
            "print a per-stage timing table (scan / fit / verify) from "
            "the discovery kernels' instrumentation, to stderr so stdout "
            "stays the summary"
        ),
    )
    discover_parser.add_argument(
        "--workers",
        type=_worker_count,
        default=1,
        help=(
            "worker processes for the candidate scans (default 1 = "
            "serial; results are bit-identical either way)"
        ),
    )
    discover_parser.add_argument(
        "--store",
        help=(
            "persist the fitted knowledge base into this durable store "
            "(SQLite; created if missing) with revision history"
        ),
    )
    discover_parser.add_argument(
        "--name",
        help=(
            "name in the store (with --store; default: the CSV stem, or "
            "'paper' for the paper's data)"
        ),
    )

    update_parser = subparsers.add_parser(
        "update",
        help="absorb new data into a saved knowledge base (warm-started)",
    )
    update_parser.add_argument(
        "--kb", help="saved knowledge-base JSON to update"
    )
    update_parser.add_argument(
        "--csv", required=True, help="CSV dataset with the new observations"
    )
    update_parser.add_argument(
        "--save",
        help="where to write the updated knowledge base (default: --kb)",
    )
    update_parser.add_argument(
        "--store",
        help=(
            "durable store holding the knowledge base (alternative to "
            "--kb); the new revision is persisted back with its artifact"
        ),
    )
    update_parser.add_argument(
        "--name",
        help="name in the store (with --store; default: the only stored KB)",
    )

    history_parser = subparsers.add_parser(
        "history",
        help="list the persisted revision history of a stored knowledge base",
    )
    history_parser.add_argument("name", help="knowledge-base name in the store")
    history_parser.add_argument(
        "--store", required=True, help="durable store path (SQLite)"
    )
    history_parser.add_argument(
        "--json",
        action="store_true",
        help="emit the revision rows as JSON instead of a table",
    )

    diff_parser = subparsers.add_parser(
        "diff",
        help="diff adopted constraints between two persisted revisions",
    )
    diff_parser.add_argument("name", help="knowledge-base name in the store")
    diff_parser.add_argument("revision_a", type=int, help="older revision")
    diff_parser.add_argument("revision_b", type=int, help="newer revision")
    diff_parser.add_argument(
        "--store", required=True, help="durable store path (SQLite)"
    )

    runs_parser = subparsers.add_parser(
        "runs",
        help="inspect or populate the benchmark/scenario run registry",
    )
    runs_sub = runs_parser.add_subparsers(dest="action", required=True)
    runs_list = runs_sub.add_parser(
        "list", help="show recorded runs (id, kind, when, cpus, smoke)"
    )
    runs_list.add_argument(
        "--registry", required=True, help="run-registry path (SQLite)"
    )
    runs_list.add_argument(
        "--kind", help="only runs of this kind (benchmark, scenario)"
    )
    runs_list.add_argument(
        "--smoke",
        action="store_true",
        help="only smoke-mode runs",
    )
    runs_list.add_argument(
        "--full",
        action="store_true",
        help="only full-size runs",
    )
    runs_list.add_argument(
        "--json",
        action="store_true",
        help="emit the run records as JSON instead of a table",
    )
    runs_import = runs_sub.add_parser(
        "import",
        help=(
            "one-shot import of a flat BENCH_discovery.json trajectory "
            "into the registry (idempotent: run_ids derive from content)"
        ),
    )
    runs_import.add_argument(
        "trajectory", help="flat trajectory JSON file to import"
    )
    runs_import.add_argument(
        "--registry", required=True, help="run-registry path (SQLite)"
    )
    runs_show = runs_sub.add_parser(
        "show", help="print one run's full metrics document as JSON"
    )
    runs_show.add_argument("run_id", help="run id (see 'repro runs list')")
    runs_show.add_argument(
        "--registry", required=True, help="run-registry path (SQLite)"
    )

    rules_parser = subparsers.add_parser(
        "rules", help="generate IF-THEN rules with probabilities"
    )
    rules_parser.add_argument("--csv", help="CSV dataset (default: paper data)")
    rules_parser.add_argument(
        "--min-probability", type=float, default=0.5
    )
    rules_parser.add_argument("--min-support", type=float, default=0.01)

    recovery_parser = subparsers.add_parser(
        "recovery", help="A1 selector-recovery ablation"
    )
    recovery_parser.add_argument("--trials", type=int, default=3)
    recovery_parser.add_argument("--seed", type=int, default=0)

    loglinear_parser = subparsers.add_parser(
        "loglinear", help="classical whole-margin log-linear selection"
    )
    loglinear_parser.add_argument("--csv", help="CSV dataset (default: paper data)")
    loglinear_parser.add_argument("--alpha", type=float, default=0.01)

    report_parser = subparsers.add_parser(
        "report", help="regenerate every experiment into one markdown report"
    )
    report_parser.add_argument(
        "--output", help="write to a file instead of stdout"
    )

    query_parser = subparsers.add_parser(
        "query", help="evaluate probability queries against a fitted model"
    )
    query_parser.add_argument(
        "expressions",
        nargs="*",
        help='query strings like "CANCER=yes | SMOKING=smoker"',
    )
    query_parser.add_argument(
        "--csv", help="CSV dataset to fit first (default: the paper's data)"
    )
    query_parser.add_argument(
        "--kb", help="load a saved knowledge-base JSON instead of fitting"
    )
    query_parser.add_argument(
        "--batch", help="file with one query per line, evaluated as a batch"
    )
    query_parser.add_argument(
        "--mpe",
        action="store_true",
        help="report the most probable explanation instead of a probability",
    )
    query_parser.add_argument(
        "--given", help='evidence for --mpe, e.g. "SMOKING=smoker"'
    )

    scenarios_parser = subparsers.add_parser(
        "scenarios",
        help="list or run the scenario conformance matrix",
    )
    scenarios_sub = scenarios_parser.add_subparsers(
        dest="action", required=True
    )
    scenarios_list = scenarios_sub.add_parser(
        "list", help="show the registered scenario workloads"
    )
    scenarios_list.add_argument(
        "--tier",
        action="append",
        choices=["smoke", "full", "stress", "all"],
        metavar="TIER",
        help=(
            "only scenarios in this tier (repeatable; smoke/full/stress/"
            "all; default: all tiers)"
        ),
    )
    scenarios_list.add_argument(
        "--markdown",
        action="store_true",
        help=(
            "emit the full markdown scenario catalog (the generator "
            "behind docs/scenarios.md)"
        ),
    )
    scenarios_run = scenarios_sub.add_parser(
        "run",
        help=(
            "run discovery + baselines on every registered scenario, "
            "score conformance, and fail on any gate miss"
        ),
    )
    scenarios_run.add_argument(
        "--scenario",
        action="append",
        metavar="NAME",
        help="run only this scenario (repeatable; default: all)",
    )
    scenarios_run.add_argument(
        "--tier",
        action="append",
        choices=["smoke", "full", "stress", "all"],
        metavar="TIER",
        help=(
            "run only scenarios in this tier (repeatable; smoke/full/"
            "stress/all; default: smoke+full — stress is opt-in)"
        ),
    )
    scenarios_run.add_argument(
        "--smoke",
        action="store_true",
        help=(
            "small sample sizes (also enabled by REPRO_BENCH_SMOKE=1, "
            "the CI convention)"
        ),
    )
    scenarios_run.add_argument(
        "--full",
        action="store_true",
        help="force full sample sizes even under REPRO_BENCH_SMOKE=1",
    )
    scenarios_run.add_argument(
        "--no-baselines",
        action="store_true",
        help="skip the chi-square / BIC baseline selectors",
    )
    scenarios_run.add_argument(
        "--json",
        nargs="?",
        const="-",
        default=None,
        metavar="PATH",
        help=(
            "emit per-scenario metrics as JSON to PATH ('-' or no value: "
            "stdout); the human-readable report then goes to stderr so "
            "stdout stays machine-parseable"
        ),
    )
    scenarios_run.add_argument(
        "--workers",
        type=_worker_count,
        default=1,
        help=(
            "worker processes for each scenario's discovery scans "
            "(default 1 = serial; conformance metrics are bit-identical)"
        ),
    )
    scenarios_run.add_argument(
        "--registry",
        metavar="PATH",
        help=(
            "record every scenario outcome in this run registry "
            "(SQLite; created if missing) under a content-derived run_id"
        ),
    )

    scorecard_parser = subparsers.add_parser(
        "scorecard",
        help=(
            "aggregate recorded scenario outcomes across runs into one "
            "markdown/JSON scorecard"
        ),
    )
    scorecard_parser.add_argument(
        "--registry",
        required=True,
        metavar="PATH",
        help="run registry (SQLite) holding recorded scenario outcomes",
    )
    scorecard_parser.add_argument(
        "--output",
        metavar="PATH",
        help="write the markdown scorecard here (default: stdout)",
    )
    scorecard_parser.add_argument(
        "--json",
        metavar="PATH",
        help="also write the scorecard as JSON to PATH",
    )
    scorecard_parser.add_argument(
        "--smoke",
        action="store_true",
        help="aggregate only smoke-size outcomes",
    )
    scorecard_parser.add_argument(
        "--full",
        action="store_true",
        help="aggregate only full-size outcomes",
    )
    scorecard_parser.add_argument(
        "--check",
        action="store_true",
        help="exit 1 when any scenario is failing or regressed",
    )

    serve_parser = subparsers.add_parser(
        "serve",
        help=(
            "serve knowledge bases over HTTP + WebSocket (query, batch, "
            "mpe, explain, hot-swapping update, revision subscriptions)"
        ),
    )
    serve_parser.add_argument(
        "--kb",
        action="append",
        metavar="NAME=PATH",
        help=(
            "host a saved knowledge-base JSON under NAME (repeatable); "
            "default: the paper's data as 'paper'"
        ),
    )
    serve_parser.add_argument(
        "--csv",
        help="fit a knowledge base from this CSV and host it as 'data'",
    )
    serve_parser.add_argument(
        "--host", default="127.0.0.1", help="bind address"
    )
    serve_parser.add_argument(
        "--port",
        type=int,
        default=8741,
        help="bind port (0 = ephemeral, printed at startup)",
    )
    serve_parser.add_argument(
        "--max-batch",
        type=int,
        default=64,
        help="flush a coalesced batch as soon as it reaches this size",
    )
    serve_parser.add_argument(
        "--pool-size",
        type=int,
        default=4,
        help="warm query sessions retained per knowledge base",
    )
    serve_parser.add_argument(
        "--store",
        help=(
            "durable store (SQLite): host every stored knowledge base at "
            "its latest revision and persist hosted updates back, so a "
            "restarted server resumes where the previous one stopped"
        ),
    )

    args = parser.parse_args(argv)
    if args.command == "figure1":
        print(harness.reproduce_figure1())
    elif args.command == "figure2":
        print(harness.reproduce_figure2())
    elif args.command == "table1":
        _comparisons, text = harness.reproduce_table1()
        print(text)
    elif args.command == "table2":
        _fit, text = harness.reproduce_table2()
        print(text)
    elif args.command == "solvers":
        _fits, text = harness.reproduce_solver_comparison()
        print(text)
    elif args.command == "appendixb":
        _rows, text = harness.reproduce_appendix_b()
        print(text)
    elif args.command == "discover":
        if args.name and not args.store:
            print("error: --name requires --store", file=sys.stderr)
            return 2
        table = _load_table(args.csv)
        config = DiscoveryConfig(
            max_order=args.max_order, max_workers=args.workers
        )
        if args.save or args.store:
            kb = ProbabilisticKnowledgeBase.from_data(table, config)
            result = kb.discovery
            print(result.summary())
            if args.save:
                kb.save(args.save)
                print(f"knowledge base saved to {args.save}")
            if args.store:
                from repro.store import KBStore

                name = args.name or _default_store_name(args.csv)
                with KBStore(args.store) as store:
                    sha = store.save(name, kb)
                print(
                    f"stored as {name!r} in {args.store} "
                    f"({len(kb.revisions)} update revisions, "
                    f"artifact {sha[:12]})"
                )
        else:
            result = discover(table, config)
            print(result.summary())
        if args.profile:
            # Diagnostics go to stderr: stdout carries the summary only,
            # so `repro discover --profile | ...` pipelines stay clean.
            print(f"\n{_render_profile(result)}", file=sys.stderr)
    elif args.command == "update":
        return _run_update(args)
    elif args.command == "history":
        return _run_store_command(_run_history, args)
    elif args.command == "diff":
        return _run_store_command(_run_diff, args)
    elif args.command == "runs":
        return _run_store_command(_run_runs, args)
    elif args.command == "rules":
        table = _load_table(args.csv)
        kb = ProbabilisticKnowledgeBase.from_data(table)
        rules = kb.rules(
            min_probability=args.min_probability,
            min_support=args.min_support,
        ).sorted_by_lift()
        print(rules.describe())
    elif args.command == "recovery":
        _rows, text = harness.selector_recovery_experiment(
            seed=args.seed, trials=args.trials
        )
        print(text)
    elif args.command == "loglinear":
        from repro.baselines.loglinear import LogLinearConfig, discover_loglinear

        table = _load_table(args.csv)
        result = discover_loglinear(table, LogLinearConfig(alpha=args.alpha))
        print(
            f"log-linear forward selection over N={table.total} samples "
            f"(alpha={args.alpha})"
        )
        for step in result.steps:
            print(
                f"  adopted margin over {step.attributes}: "
                f"G2={step.g2:.1f}, dof={step.dof}, p={step.p_value:.2e}"
            )
        print(
            f"interaction parameters spent: "
            f"{result.num_interaction_parameters()}"
        )
    elif args.command == "report":
        from repro.eval.report import generate_report, write_report

        if args.output:
            path = write_report(args.output)
            print(f"report written to {path}")
        else:
            print(generate_report())
    elif args.command == "query":
        return _run_query(args)
    elif args.command == "scenarios":
        return _run_scenarios(args)
    elif args.command == "scorecard":
        return _run_scorecard(args)
    elif args.command == "serve":
        return _run_serve(args)
    return 0


def _run_serve(args) -> int:
    import json

    from repro.exceptions import ReproError

    try:
        return _run_serve_inner(args)
    except (ReproError, OSError, json.JSONDecodeError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


def _run_serve_inner(args) -> int:
    import asyncio

    from repro.serve import ReproServer, ServeConfig

    kbs: dict[str, ProbabilisticKnowledgeBase] = {}
    for spec in args.kb or []:
        name, separator, path = spec.partition("=")
        if not separator or not name or not path:
            print(
                f"error: --kb expects NAME=PATH, got {spec!r}",
                file=sys.stderr,
            )
            return 2
        kbs[name] = ProbabilisticKnowledgeBase.load(path)
    if args.csv:
        kbs["data"] = ProbabilisticKnowledgeBase.from_data(
            read_dataset_csv(args.csv).to_contingency()
        )
    store = None
    if args.store:
        from repro.store import KBStore

        store = KBStore(args.store)
    # With a store, "nothing to host" means "host what is stored" —
    # only a storeless server defaults to the paper's knowledge base.
    if not kbs and (store is None or not store.names()):
        kbs["paper"] = ProbabilisticKnowledgeBase.from_data(paper_table())

    config = ServeConfig(max_batch=args.max_batch, pool_size=args.pool_size)
    server = ReproServer(
        host=args.host, port=args.port, config=config, store=store
    )
    for name, kb in kbs.items():
        server.add(name, kb)
    if store is not None:
        server.registry.add_all_from_store()

    async def run() -> None:
        await server.start()
        print(
            f"serving {sorted(server.registry.names())} on "
            f"http://{server.host}:{server.port} (Ctrl-C to stop)",
            file=sys.stderr,
        )
        try:
            await server.serve_forever()
        finally:
            await server.stop()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    return 0


def _run_update(args) -> int:
    import json

    from repro.exceptions import ReproError

    try:
        return _run_update_inner(args)
    except (ReproError, OSError, json.JSONDecodeError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


def _run_update_inner(args) -> int:
    if bool(args.kb) == bool(args.store):
        print(
            "error: pass exactly one of --kb FILE or --store PATH",
            file=sys.stderr,
        )
        return 2
    store = None
    if args.store:
        from repro.store import KBStore

        store = KBStore(args.store)
        name = args.name or _only_stored_name(store)
        kb = store.load(name)
        source = f"{name!r} in {args.store}"
    else:
        kb = ProbabilisticKnowledgeBase.load(args.kb)
        source = args.kb
    if not kb.can_update:
        print(
            f"error: {source} has no discovery audit trail (saved by an "
            f"older version?); refit with 'repro discover --save' first",
            file=sys.stderr,
        )
        return 2
    # Read the delta against the knowledge base's own schema so label
    # mismatches fail loudly instead of being re-inferred differently.
    delta = read_dataset_csv(args.csv, schema=kb.schema)
    revision = kb.update(delta)
    print(
        f"revision {revision.number} ({revision.mode}): absorbed "
        f"{revision.added_samples} samples, N={revision.sample_size}"
    )
    for names, values in revision.constraints_added:
        labels = ", ".join(
            f"{n}={kb.schema.attribute(n).value_at(v)}"
            for n, v in zip(names, values)
        )
        print(f"  + constraint P({labels})")
    for names, values in revision.constraints_dropped:
        labels = ", ".join(
            f"{n}={kb.schema.attribute(n).value_at(v)}"
            for n, v in zip(names, values)
        )
        print(f"  - constraint P({labels})")
    if store is not None:
        sha = store.save(name, kb)
        store.close()
        print(
            f"revision {revision.number} persisted to {source} "
            f"(artifact {sha[:12]})"
        )
        if args.save:
            kb.save(args.save)
            print(f"updated knowledge base also saved to {args.save}")
        return 0
    destination = args.save or args.kb
    kb.save(destination)
    print(f"updated knowledge base saved to {destination}")
    return 0


def _only_stored_name(store) -> str:
    """--store without --name: unambiguous only for a single-KB store."""
    from repro.exceptions import DataError

    names = store.names()
    if len(names) != 1:
        raise DataError(
            f"--name is required: the store holds {len(names)} knowledge "
            f"bases ({names})"
        )
    return names[0]


def _default_store_name(csv_path: str | None) -> str:
    from pathlib import Path

    return Path(csv_path).stem if csv_path else "paper"


def _run_store_command(inner, args) -> int:
    import json

    from repro.exceptions import ReproError

    try:
        return inner(args)
    except (ReproError, OSError, json.JSONDecodeError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


def _run_history(args) -> int:
    import json

    from repro.eval.tables import format_table
    from repro.store import KBStore

    with KBStore(args.store) as store:
        record = store.describe(args.name)
        rows = store.history(args.name)
    if args.json:
        print(
            json.dumps(
                [
                    {
                        "number": row.number,
                        "mode": row.mode,
                        "sample_size": row.sample_size,
                        "added_samples": row.added_samples,
                        "constraints_added": len(row.constraints_added),
                        "constraints_dropped": len(row.constraints_dropped),
                        "artifact": row.artifact_sha,
                        "created_at": row.created_at,
                    }
                    for row in rows
                ],
                indent=2,
            )
        )
        return 0
    print(
        f"{args.name}: {len(rows)} update revisions, latest artifact "
        f"{record.latest_artifact[:12]} (updated {record.updated_at})"
    )
    if rows:
        headers = ["rev", "mode", "N", "added", "+c", "-c", "artifact"]
        print(
            format_table(
                headers,
                [
                    [
                        row.number,
                        row.mode,
                        row.sample_size,
                        row.added_samples,
                        len(row.constraints_added),
                        len(row.constraints_dropped),
                        (
                            row.artifact_sha[:12]
                            if row.artifact_sha
                            else "(not captured)"
                        ),
                    ]
                    for row in rows
                ],
            )
        )
    return 0


def _run_diff(args) -> int:
    from repro.store import KBStore

    with KBStore(args.store) as store:
        diff = store.diff(args.name, args.revision_a, args.revision_b)
    print(diff.describe())
    return 0


def _run_runs(args) -> int:
    import json

    from repro.eval.tables import format_table
    from repro.store import RunRegistry

    with RunRegistry(args.registry) as registry:
        if args.action == "import":
            added = registry.import_trajectory(args.trajectory)
            total = len(registry.runs())
            print(
                f"imported {added} new runs from {args.trajectory} "
                f"({total} total in {args.registry})"
            )
            return 0
        if args.action == "show":
            record = registry.get(args.run_id)
            print(
                json.dumps(
                    {
                        "run_id": record.run_id,
                        "kind": record.kind,
                        "created_at": record.created_at,
                        "smoke": record.smoke,
                        "cpus": record.cpus,
                        "config_hash": record.config_hash,
                        "git_sha": record.git_sha,
                        "metrics": record.metrics,
                    },
                    indent=2,
                )
            )
            return 0
        smoke = True if args.smoke else (False if args.full else None)
        records = registry.runs(kind=args.kind, smoke=smoke)
    if args.json:
        print(
            json.dumps(
                [
                    {
                        "run_id": record.run_id,
                        "kind": record.kind,
                        "created_at": record.created_at,
                        "smoke": record.smoke,
                        "cpus": record.cpus,
                        "config_hash": record.config_hash,
                        "git_sha": record.git_sha,
                    }
                    for record in records
                ],
                indent=2,
            )
        )
        return 0
    headers = ["run_id", "kind", "created_at", "smoke", "cpus", "git"]
    print(
        format_table(
            headers,
            [
                [
                    record.run_id,
                    record.kind,
                    record.created_at,
                    "yes" if record.smoke else "no",
                    record.cpus,
                    record.git_sha[:10] if record.git_sha else "-",
                ]
                for record in records
            ],
        )
    )
    print(f"{len(records)} runs")
    return 0


def _run_query(args) -> int:
    import json

    from repro.exceptions import ReproError

    try:
        return _run_query_inner(args)
    except (ReproError, OSError, json.JSONDecodeError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


def _run_query_inner(args) -> int:
    from pathlib import Path

    from repro.core.query import parse_assignment

    if args.mpe and (args.expressions or args.batch):
        print(
            "error: --mpe finds the single most probable assignment; it "
            "cannot be combined with query expressions or --batch",
            file=sys.stderr,
        )
        return 2
    if args.given and not args.mpe:
        print(
            "error: --given only applies to --mpe; put evidence after the "
            'bar in the query itself, e.g. "CANCER=yes | SMOKING=smoker"',
            file=sys.stderr,
        )
        return 2
    if args.kb:
        kb = ProbabilisticKnowledgeBase.load(args.kb)
    else:
        kb = ProbabilisticKnowledgeBase.from_data(_load_table(args.csv))
    session = kb.session()
    if args.mpe:
        given = (
            parse_assignment(kb.schema, args.given) if args.given else None
        )
        labels, probability = session.most_probable(given)
        print("most probable explanation:")
        for name in kb.schema.names:
            print(f"  {name} = {labels[name]}")
        print(f"  P = {probability:.6f}")
        return 0
    texts = list(args.expressions)
    if args.batch:
        lines = Path(args.batch).read_text().splitlines()
        texts.extend(line.strip() for line in lines if line.strip())
    if not texts:
        print("no queries given; pass expressions, --batch FILE, or --mpe")
        return 2
    values = session.batch(texts)
    for text, value in zip(texts, values):
        print(f"{session.compile(text).description} = {value:.6f}")
    return 0


def _run_scenarios(args) -> int:
    from repro.exceptions import ReproError

    try:
        return _run_scenarios_inner(args)
    except (ReproError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


def _run_scorecard(args) -> int:
    from repro.exceptions import ReproError

    try:
        return _run_scorecard_inner(args)
    except (ReproError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


def _run_scorecard_inner(args) -> int:
    import json
    from pathlib import Path

    from repro.eval.scorecard import (
        build_scorecard,
        render_scorecard_markdown,
        scenario_entries_from_registry,
    )
    from repro.store import RunRegistry

    smoke = None
    if args.smoke and not args.full:
        smoke = True
    elif args.full and not args.smoke:
        smoke = False
    with RunRegistry(args.registry) as registry:
        entries = scenario_entries_from_registry(registry, smoke=smoke)
    scorecard = build_scorecard(entries)
    markdown = render_scorecard_markdown(scorecard)
    if args.output:
        Path(args.output).write_text(markdown + "\n")
        print(f"scorecard written to {args.output}", file=sys.stderr)
    else:
        print(markdown)
    if args.json:
        Path(args.json).write_text(json.dumps(scorecard, indent=2) + "\n")
        print(f"scorecard JSON written to {args.json}", file=sys.stderr)
    if args.check and (scorecard["failing"] or scorecard["regressed"]):
        for name in scorecard["failing"]:
            print(f"scorecard: {name} is failing", file=sys.stderr)
        for name in scorecard["regressed"]:
            print(f"scorecard: {name} regressed", file=sys.stderr)
        return 1
    return 0


def _run_scenarios_inner(args) -> int:
    import json
    import os

    from repro.eval.conformance import conformance_report
    from repro.eval.tables import format_table
    from repro.scenarios import (
        all_scenarios,
        outcome_to_dict,
        run_matrix,
    )

    if args.action == "list":
        tiers = args.tier if args.tier else None
        if args.markdown:
            from repro.scenarios.catalog import scenario_catalog_markdown

            print(scenario_catalog_markdown(tiers))
            return 0
        headers = [
            "name",
            "tier",
            "order",
            "attrs",
            "smoke N",
            "full N",
            "tags",
            "description",
        ]
        rows = [
            [
                scenario.name,
                scenario.tier,
                scenario.max_order,
                scenario.attributes,
                scenario.smoke_samples,
                scenario.full_samples,
                ",".join(scenario.tags),
                scenario.description,
            ]
            for scenario in all_scenarios(tiers)
        ]
        print(format_table(headers, rows))
        return 0

    smoke = args.smoke or os.environ.get("REPRO_BENCH_SMOKE") == "1"
    if args.full:
        smoke = False
    outcomes = run_matrix(
        names=args.scenario,
        smoke=smoke,
        include_baselines=not args.no_baselines,
        workers=args.workers,
        tiers=args.tier if args.tier else None,
    )
    if args.registry:
        from repro.scenarios import record_outcomes
        from repro.store import RunRegistry

        with RunRegistry(args.registry) as registry:
            records = record_outcomes(registry, outcomes)
        print(
            f"recorded {len(records)} scenario runs in {args.registry}: "
            + ", ".join(record.run_id for record in records),
            file=sys.stderr,
        )
    if args.json is not None:
        payload = json.dumps(
            [outcome_to_dict(outcome) for outcome in outcomes], indent=2
        )
        # Machine-parseable contract: with --json, stdout carries JSON
        # and nothing else; the human-readable report goes to stderr.
        print(conformance_report(outcomes), file=sys.stderr)
        if args.json == "-":
            print(payload)
        else:
            from pathlib import Path

            Path(args.json).write_text(payload + "\n")
            print(f"scenario metrics written to {args.json}", file=sys.stderr)
    else:
        print(conformance_report(outcomes))
    failed = [outcome for outcome in outcomes if not outcome.passed]
    if failed:
        for outcome in failed:
            for failure in outcome.gate_failures:
                print(
                    f"conformance gate miss: {outcome.scenario}: {failure}",
                    file=sys.stderr,
                )
            for failure in outcome.slo_failures:
                print(
                    f"latency SLO miss: {outcome.scenario}: {failure}",
                    file=sys.stderr,
                )
        return 1
    return 0


def _load_table(csv_path: str | None):
    if csv_path is None:
        return paper_table()
    return read_dataset_csv(csv_path).to_contingency()


def _render_profile(result) -> str:
    """Per-stage timing table from the discovery kernels' instrumentation."""
    from repro.eval.tables import format_table

    profile = result.profile
    if profile is None:
        return "no profile recorded (result was loaded, not fitted)"
    table = format_table(
        ["stage", "calls", "work", "seconds", "share"], profile.rows()
    )
    pool_scans = profile.scan_calls + profile.verify_calls
    text = (
        f"discovery stage timings (total {profile.total_seconds:.4f}s)\n"
        + table
        + f"\nmodel side: {profile.scan_model_cells} component cells "
        f"reduced over {pool_scans} pool scans, {profile.fit_cells} swept "
        f"over {profile.fit_calls} fits"
    )
    if profile.transports:
        rows = [
            [
                str(entry["order"]),
                entry["transport"],
                _format_bytes(entry.get("bytes_shared", 0)),
                _format_bytes(entry.get("bytes_pickled", 0)),
                f"{entry.get('broadcasts_skipped', 0)}"
                f"/{entry.get('broadcasts_total', 0)}",
                f"{entry.get('attach_ns', 0) / 1e6:.2f}",
            ]
            for entry in profile.transports
        ]
        transport_table = format_table(
            ["order", "transport", "shared", "pickled", "bcasts skipped",
             "attach ms"],
            rows,
        )
        text += (
            f"\n\nsharded-scan transport (total "
            f"{_format_bytes(profile.bytes_shared)} shared, "
            f"{_format_bytes(profile.bytes_pickled)} pickled, "
            f"{profile.broadcasts_skipped}/{profile.broadcasts_total} "
            f"broadcasts amortized)\n" + transport_table
        )
    return text


def _format_bytes(count: int) -> str:
    if count >= 1 << 20:
        return f"{count / (1 << 20):.1f} MiB"
    if count >= 1 << 10:
        return f"{count / (1 << 10):.1f} KiB"
    return f"{count} B"


if __name__ == "__main__":
    sys.exit(main())
