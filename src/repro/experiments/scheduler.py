"""Dependency-aware scheduler for the experiment artifact DAG.

This is the run half of the compile-then-run split
(:mod:`repro.experiments.dag` is the compile half) and the only way a
row executes: every paper table, and the streaming pipeline's drift
re-fit (:mod:`repro.pipeline.refit`, a one-node graph run with the
store off), goes through :func:`run_graph`. Given an
:class:`~repro.experiments.dag.ArtifactGraph`, the scheduler:

- **reuses** any node whose content digest is already in the artifact
  store — a :class:`~repro.experiments.engine.RowMemo` under
  ``<row-cache>/dag/`` keyed by node digest, so warm re-runs execute
  zero nodes and dirty re-runs execute exactly the re-addressed
  subgraph;
- **executes** the rest on the engine's spawn worker pool
  (:class:`~repro.experiments.engine._Worker`), dispatching a node only
  once every dependency has resolved, so independent subgraphs of
  different tables interleave freely across workers;
- **isolates failures**: an errored / timed-out / crashed node poisons
  only its transitive dependents (they report the engine's
  ``error``-column convention with an ``upstream <node> failed``
  message); sibling subgraphs run to completion, and error payloads are
  never stored.

Shared store: for the whole run, this process and every worker it
spawns see one encode-cache disk tier (:func:`_shared_store`). It holds
the encode node's hidden states and the PLM archives that let a graph
pre-train each model once, whichever worker needs it and at any
``--jobs``.

Determinism: node seeds are fixed at compile time (row nodes carry
:func:`engine.derive_row_seed` of their table seed and row name),
execution order never feeds back into any node's inputs, and worker
trace payloads are absorbed in topological order, so a ``--jobs N`` DAG
run is bit-identical to a cold serial run.

Observability: every executed node runs under a ``node:<name>`` span;
counters ``dag.nodes_total`` / ``dag.nodes_reused`` /
``dag.nodes_executed`` / ``dag.nodes_errors`` mirror the
:class:`DagReport` the CLI prints as the ``[dag]`` footer.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from multiprocessing.connection import wait as _wait_connections
from pathlib import Path

from repro import obs
from repro.core import env as _env
from repro.experiments import engine
from repro.experiments.dag import ArtifactGraph

_OK_STATES = ("reused", "executed", "static")
_BAD_STATES = ("error", "upstream-error")
_POLL_SECONDS = 0.05


@dataclass
class DagReport:
    """What one :func:`run_graph` call did (CLI ``[dag]`` footer material).

    ``statuses`` maps every node name to one of ``reused`` / ``executed``
    / ``static`` / ``error`` / ``upstream-error`` — the audit trail the
    determinism and ``--select`` tests assert on.
    """

    nodes: int = 0
    reused: int = 0
    executed: int = 0
    static: int = 0
    errors: int = 0
    merged: int = 0
    jobs: int = 1
    seconds: float = 0.0
    statuses: dict = field(default_factory=dict)


_LAST_DAG_REPORT: "list[DagReport]" = []


def take_last_dag_report() -> "DagReport | None":
    """Pop the report of the most recent :func:`run_graph` call."""
    return _LAST_DAG_REPORT.pop() if _LAST_DAG_REPORT else None


def dag_store_dir(cache_dir: "str | Path | None" = None) -> Path:
    """Artifact-store directory: ``<row-cache>/dag``.

    Kept under the row-cache root, so ``REPRO_ROW_CACHE_DIR`` moves it
    and the shared encode-cache tier next to it together.
    """
    base = Path(cache_dir) if cache_dir else engine.default_cache_dir()
    return base / "dag"


def run_graph(graph: ArtifactGraph, *, jobs: "int | None" = None,
              use_cache: "bool | None" = None,
              timeout: "float | None" = None,
              cache_dir: "str | Path | None" = None,
              force=()) -> dict:
    """Execute ``graph``; return ``{node name: {"metrics", "seconds"}}``.

    Nodes whose digest is in the artifact store are reused without
    executing — unless named in ``force`` (the ``--select`` set), which
    bypasses the store read so exactly the named subgraph recomputes.
    ``jobs <= 1`` runs topologically in-process; ``jobs > 1`` dispatches
    ready nodes onto a spawn pool as their dependencies resolve.
    """
    start = time.perf_counter()
    jobs = engine._resolve_jobs(jobs)
    timeout = engine._resolve_timeout(timeout)
    cache_dir = Path(cache_dir) if cache_dir else engine.default_cache_dir()
    store = (engine.RowMemo(dag_store_dir(cache_dir))
             if engine._resolve_use_cache(use_cache) else None)
    force = set(force)
    trace = obs.enabled()

    digests = graph.digests()
    order = graph.topological()
    report = DagReport(nodes=len(order), merged=graph.merged, jobs=jobs)
    statuses = report.statuses
    results: "dict[str, dict]" = {}
    traces: "dict[str, dict]" = {}

    to_run = []
    for name in order:
        node = graph.nodes[name]
        if node.runner is None:
            results[name] = {"metrics": {}, "seconds": 0.0}
            statuses[name] = "static"
            report.static += 1
            continue
        if store is not None and name not in force:
            hit = store.get(digests[name])
            if hit is not None:
                results[name] = hit
                statuses[name] = "reused"
                report.reused += 1
                continue
        to_run.append(name)

    obs.count("dag.nodes_total", len(order))
    obs.count("dag.nodes_reused", report.reused)

    def record(name: str, metrics: dict, seconds: float,
               payload: "dict | None" = None) -> None:
        if name in results:  # late result after a timeout/crash replacement
            return
        results[name] = {"metrics": metrics, "seconds": seconds}
        if payload is not None:
            traces[name] = payload
        if "error" in metrics:
            statuses[name] = "error"
            report.errors += 1
            obs.count("dag.nodes_errors")
        else:
            statuses[name] = "executed"
            report.executed += 1
            obs.count("dag.nodes_executed")
            if store is not None:
                store.put(digests[name], results[name])

    def record_upstream(name: str, failed: list) -> None:
        # Dependents of a failed node report the error-column convention
        # without occupying a worker; the distinct status separates the
        # cascade from its cause. Never stored: a fixed upstream run
        # must recompute them.
        if name in results:
            return
        results[name] = {
            "metrics": {"error": f"upstream {failed[0]} failed"},
            "seconds": 0.0,
        }
        statuses[name] = "upstream-error"
        report.errors += 1
        obs.count("dag.nodes_errors")

    with _shared_store(cache_dir):
        if to_run and jobs <= 1:
            for name in to_run:
                node = graph.nodes[name]
                failed = [d for d in node.deps
                          if statuses.get(d) in _BAD_STATES]
                if failed:
                    record_upstream(name, failed)
                    continue
                with obs.span(f"node:{name}"):
                    metrics, seconds = engine._execute_row(node, node.seed)
                record(name, metrics, seconds)
        elif to_run:
            _run_pool_graph(graph, to_run, statuses, jobs, timeout,
                            record, record_upstream, trace)
            if trace:
                # Absorb worker traces in topological order — not
                # completion order — so parallel trace content is
                # deterministic.
                for name in to_run:
                    payload = traces.get(name)
                    if payload is not None:
                        obs.tracer().absorb(payload)

    report.seconds = time.perf_counter() - start
    _LAST_DAG_REPORT.clear()
    _LAST_DAG_REPORT.append(report)
    return results


@contextmanager
def _shared_store(cache_dir: Path):
    """Share one store between this process and every worker it spawns.

    Unless ``REPRO_ENC_CACHE_DIR`` already names one, the encode cache's
    disk tier is exported next to the row-cache root for the duration
    of the run; spawned workers inherit the environment at spawn time.
    It holds the encode node's hidden states (disk hits for every row
    node, whichever process runs it) and the PLM archives rows load
    instead of pre-training (:func:`repro.experiments.tables._plm`).
    ``REPRO_ENC_CACHE=0`` turns the store off.
    """
    shared_enc = None
    if _env.enc_cache_enabled() and _env.enc_cache_dir() is None:
        shared_enc = str(engine._enc_cache_dir_for(cache_dir))
        os.environ["REPRO_ENC_CACHE_DIR"] = shared_enc
    try:
        yield
    finally:
        if shared_enc and os.environ.get("REPRO_ENC_CACHE_DIR") == shared_enc:
            del os.environ["REPRO_ENC_CACHE_DIR"]


def _run_pool_graph(graph, to_run, statuses, jobs, timeout,
                    record, record_upstream, trace) -> None:
    """Fan ``to_run`` out over a spawn pool of :class:`engine._Worker` s.

    ``to_run`` is topologically ordered; a node is dispatched once every
    dependency is in an OK state, and nodes whose dependencies failed
    are resolved as upstream errors without occupying a worker. Timeouts
    and crashes terminate only the affected worker; a fresh one takes
    its slot and the remaining nodes proceed.
    """
    ctx = multiprocessing.get_context("spawn")
    waiting = list(to_run)
    remaining = len(waiting)

    def sweep() -> int:
        """Resolve waiting nodes whose dependencies failed; cascades."""
        resolved = 0
        changed = True
        while changed:
            changed = False
            for name in list(waiting):
                node = graph.nodes[name]
                failed = [d for d in node.deps
                          if statuses.get(d) in _BAD_STATES]
                if failed:
                    record_upstream(name, failed)
                    waiting.remove(name)
                    resolved += 1
                    changed = True
        return resolved

    def next_ready() -> "str | None":
        for name in waiting:
            node = graph.nodes[name]
            if all(statuses.get(d) in _OK_STATES for d in node.deps):
                return name
        return None

    workers = []
    try:
        workers = [engine._Worker(ctx) for _ in range(min(jobs, remaining))]
        while remaining:
            remaining -= sweep()
            if not remaining:
                break
            for slot, worker in enumerate(workers):
                if worker.task is None:
                    name = next_ready()
                    if name is None:
                        continue
                    if not worker.process.is_alive():
                        worker.stop(force=True)
                        workers[slot] = worker = engine._Worker(ctx)
                    waiting.remove(name)
                    node = graph.nodes[name]
                    worker.assign((name, node, node.seed, trace), timeout)
            busy = [w for w in workers if w.task is not None]
            if not busy:
                # Nothing running and nothing ready: only reachable if a
                # waiting node's dependency can never resolve. The graph
                # forbids cycles, so this is a defensive fail-safe, not a
                # code path — resolve the stragglers as upstream errors
                # rather than spinning forever.
                for name in list(waiting):
                    blocked = [d for d in graph.nodes[name].deps
                               if statuses.get(d) not in _OK_STATES]
                    record_upstream(name, blocked or [name])
                    waiting.remove(name)
                    remaining -= 1
                continue
            ready = _wait_connections([w.conn for w in busy],
                                      timeout=_POLL_SECONDS)
            now = time.monotonic()
            for slot, worker in enumerate(workers):
                if worker.task is None:
                    continue
                name = worker.task[0]
                if worker.conn in ready:
                    try:
                        got, metrics, seconds, payload = worker.conn.recv()
                    except (EOFError, OSError):
                        record(name, {"error": "worker crashed"}, 0.0)
                        remaining -= 1
                        worker.stop(force=True)
                        workers[slot] = engine._Worker(ctx)
                        continue
                    record(got, metrics, seconds, payload)
                    remaining -= 1
                    worker.task = None
                    worker.deadline = None
                elif worker.deadline is not None and now > worker.deadline:
                    record(name, {"error": f"timeout after {timeout:g}s"},
                           float(timeout))
                    remaining -= 1
                    worker.stop(force=True)
                    workers[slot] = engine._Worker(ctx)
                elif not worker.process.is_alive():
                    record(name, {"error": "worker crashed"}, 0.0)
                    remaining -= 1
                    worker.stop(force=True)
                    workers[slot] = engine._Worker(ctx)
    finally:
        for worker in workers:
            worker.stop()


def run_requests(requests: list, *, jobs: "int | None" = None,
                 use_cache: "bool | None" = None,
                 timeout: "float | None" = None,
                 cache_dir: "str | Path | None" = None,
                 select=None) -> dict:
    """Compile ``requests`` into one shared graph, run it, assemble rows.

    Returns ``{request.table: rows}``. Compiling every request into a
    single :class:`ArtifactGraph` is where cross-table dedup happens:
    two tables declaring the same corpus or encode node share one
    artifact (``graph.merged`` counts the saves). ``select`` takes
    ``--select`` strings (``table.row``, ``+node``, ``node+``) resolved
    against the merged graph; the named nodes are forced to recompute.
    """
    graph = ArtifactGraph()
    for request in requests:
        for node in request.nodes:
            graph.add(node)
    force = graph.select(select) if select else ()
    results = run_graph(graph, jobs=jobs, use_cache=use_cache,
                        timeout=timeout, cache_dir=cache_dir, force=force)

    tables = {}
    for request in requests:
        rows = []
        for name in request.row_names:
            node = graph.nodes[name]
            payload = results[name]
            metrics = payload["metrics"]
            if metrics.get("__skip__"):
                continue
            row = dict(node.static)
            row.update(metrics)
            row["seconds"] = round(float(payload["seconds"]), 3)
            rows.append(row)
        if request.post is not None:
            rows = request.post(rows)
        tables[request.table] = rows
    return tables
