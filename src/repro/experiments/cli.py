"""Command-line experiment runner.

Regenerate any paper table or figure without pytest::

    python -m repro.experiments.cli --list
    python -m repro.experiments.cli westclass
    python -m repro.experiments.cli micol --full --seed 1
    python -m repro.experiments.cli xclass --jobs 4
    python -m repro.experiments.cli xclass lotclass --jobs 4
    python -m repro.experiments.cli lotclass --select lotclass.agnews/Ours
    python -m repro.experiments.cli cache-prune
    python -m repro.experiments.cli pca-figure
    python -m repro.experiments.cli westclass --trace /tmp/traces

Tables compile into one content-addressed artifact graph
(:mod:`repro.experiments.dag`): naming several tables in one invocation
shares their corpus/encode nodes, warm re-runs reuse every node from the
artifact store, and ``--select`` forces just the named subgraph to
recompute (``table.row`` for one row node, ``+node`` to include its
ancestors, ``node+`` its dependents). The ``[dag]`` footer reports
reused-vs-executed node counts. ``cache-prune`` sweeps DAG artifacts
left behind by old source trees, plus any leftover row-memo files of
the retired flat row engine.

``--trace DIR`` (or ``REPRO_TRACE=DIR``) records the run through
:mod:`repro.obs` and writes ``DIR/trace_<experiment>.jsonl``; render it
with ``python -m repro.obs.report DIR/trace_<experiment>.jsonl``.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from repro import obs
from repro.core import env as _env
from repro.evaluation.reporting import format_table
from repro.experiments import engine, figures, scheduler, tables
from repro.experiments.dag import ArtifactGraph

TABLES = {
    "westclass": (tables.westclass_table, "WeSTClass results table"),
    "conwea": (tables.conwea_table, "ConWea results table"),
    "lotclass-predictions": (
        lambda seed=0, fast=True, **engine_kwargs:
            tables.lotclass_prediction_rows(seed=seed, **engine_kwargs),
        "LOTClass Table 1 (MLM replacement predictions)",
    ),
    "lotclass": (tables.lotclass_table, "LOTClass results table"),
    "xclass-data": (tables.xclass_dataset_table, "X-Class dataset statistics"),
    "xclass": (tables.xclass_table, "X-Class results table"),
    "promptclass": (tables.promptclass_table, "PromptClass results table"),
    "weshclass": (tables.weshclass_table, "WeSHClass results table"),
    "taxoclass": (tables.taxoclass_table, "TaxoClass results table"),
    "taxogen": (tables.taxogen_table,
                "Taxonomy-repair ablation (given/perturbed/repaired)"),
    "metacat": (tables.metacat_tables, "MetaCat results tables"),
    "micol": (tables.micol_table, "MICoL results table"),
    "summary": (lambda seed=0, fast=True, **engine_kwargs:
                tables.summary_table(),
                "Method capability summary"),
}

FIGURES = {
    "pca-figure": "PCA of pooled PLM document representations",
    "confusion-figure": "k-means confusion matrix on pooled representations",
}


def _run_figure(name: str, seed: int) -> None:
    if name == "pca-figure":
        result = figures.pca_domain_figure(seed=seed)
        print(figures.render_pca_ascii(result["coordinates"], result["labels"]))
        print(f"separation ratio: {result['separation_ratio']:.2f}")
    else:
        result = figures.clustering_confusion_figure(seed=seed)
        print(result["rendered"])
        print(f"clustering accuracy: {result['clustering_accuracy']:.3f}")


def _dag_footer() -> "str | None":
    report = scheduler.take_last_dag_report()
    if report is None:
        return None
    return (f"\n[dag] nodes={report.nodes} reused={report.reused} "
            f"executed={report.executed} errors={report.errors} "
            f"merged={report.merged} jobs={report.jobs} "
            f"{report.seconds:.1f}s")


def _cache_prune(seed: int, fast: bool) -> int:
    """Sweep dead entries from the row-cache root and the DAG store.

    Top-level ``*.json`` files under the row-cache root are row-memo
    entries of the retired flat row engine: no code reads them, so all
    of them go. DAG artifacts survive on their stamped source digest or
    when their content digest is reachable from the currently compiled
    graphs — the scoped-digest scheme means a method edit re-addresses
    only that method's subgraph, so untouched nodes' artifacts stay live
    across source changes and must not be swept.
    """
    graph_digests: "set[str]" = set()
    for build in tables.REQUESTS.values():
        graph = ArtifactGraph()
        for node in build(seed, fast).nodes:
            graph.add(node)
        graph_digests.update(graph.digests().values())
    rows_dir = engine.default_cache_dir()
    removed_rows = 0
    for path in sorted(rows_dir.glob("*.json")):
        try:
            path.unlink()
        except OSError:
            continue
        removed_rows += 1
    dag_dir = scheduler.dag_store_dir(rows_dir)
    kept_dag, removed_dag = engine.RowMemo(dag_dir).prune(
        keep_keys=graph_digests)
    print(f"rows: removed {removed_rows} legacy row-memo entries ({rows_dir})")
    print(f"dag:  kept {kept_dag}, removed {removed_dag} ({dag_dir})")
    return 0


def main(argv: "list | None" = None) -> int:
    """Entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        description="Regenerate the tutorial's tables and figures."
    )
    parser.add_argument("experiment", nargs="*",
                        help="experiment id(s) (see --list); several tables "
                             "share one artifact graph; or 'cache-prune'")
    parser.add_argument("--list", action="store_true",
                        help="list available experiments")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--full", action="store_true",
                        help="run every dataset of the table (slower)")
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes for table rows "
                             "(default: REPRO_JOBS or 1 = serial)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the artifact store for this run")
    parser.add_argument("--timeout", type=float, default=None,
                        help="per-row timeout in seconds (parallel runs; "
                             "default: REPRO_ROW_TIMEOUT or none)")
    parser.add_argument("--select", action="append", default=None,
                        metavar="NODE",
                        help="force-recompute a DAG subgraph: 'table.row' "
                             "for one node, '+node' with ancestors, 'node+' "
                             "with dependents (repeatable)")
    parser.add_argument("--trace", type=Path, default=None, metavar="DIR",
                        help="write a JSONL run trace into DIR "
                             "(default: REPRO_TRACE or off)")
    args = parser.parse_args(argv)

    if args.list or not args.experiment:
        print("tables:")
        for key, (_, description) in TABLES.items():
            print(f"  {key:<22} {description}")
        print("figures:")
        for key, description in FIGURES.items():
            print(f"  {key:<22} {description}")
        return 0

    names = list(args.experiment)
    if names == ["cache-prune"]:
        return _cache_prune(args.seed, not args.full)
    for name in names:
        if name not in FIGURES and name not in TABLES:
            print(f"unknown experiment {name!r}; use --list", file=sys.stderr)
            return 2

    run_kwargs = dict(jobs=args.jobs,
                      use_cache=False if args.no_cache else None,
                      timeout=args.timeout)
    # Tables with a compile hook share ONE artifact graph per invocation
    # (cross-table corpus/encode dedup); the rest run individually.
    batched = [n for n in names if n in tables.REQUESTS]
    label = "+".join(names)

    trace_dir = args.trace if args.trace is not None else _env.trace_dir()
    if trace_dir is not None:
        obs.enable(f"cli:{label}")
    start = time.time()
    try:
        with obs.span(f"cli:{label}"):
            if batched:
                requests = [tables.REQUESTS[n](args.seed, not args.full)
                            for n in batched]
                results = scheduler.run_requests(requests,
                                                 select=args.select,
                                                 **run_kwargs)
                for name in batched:
                    _, description = TABLES[name]
                    print(format_table(results[name], title=description))
                footer = _dag_footer()
                if footer:
                    print(footer)
            for name in names:
                if name in batched:
                    continue
                if name in FIGURES:
                    _run_figure(name, args.seed)
                    continue
                fn, description = TABLES[name]
                rows = fn(seed=args.seed, fast=not args.full, **run_kwargs)
                print(format_table(rows, title=description))
                footer = _dag_footer()
                if footer:
                    print(footer)
    finally:
        if trace_dir is not None:
            tracer = obs.disable()
            path = tracer.write(Path(trace_dir) / f"trace_{label}.jsonl")
            print(obs.trace_footer(tracer, path))
    print(f"\n[{time.time() - start:.1f}s]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
