"""Experiment engine under the DAG scheduler: fan-out, reuse, re-keying.

Flat graphs of independent row nodes, the shape every results table
has, run through :func:`~repro.experiments.scheduler.run_graph`: the
worker pool must match the in-process path, the artifact store must
replay finished rows without calling their runners, a new table seed or
dataset must re-address a row, and failed rows are never stored.
Runners are module-level on purpose — nodes must pickle into spawn
workers.
"""

from __future__ import annotations

import pytest

from repro.experiments import engine, scheduler
from repro.experiments.dag import ArtifactGraph, DagNode
from repro.experiments.scheduler import run_graph

pytestmark = pytest.mark.harness


def _dataset(seed, name):
    return {"dataset": name}


def _metric_row(seed, base, log_path=None):
    if log_path is not None:
        with open(log_path, "a") as fh:
            fh.write("call\n")
    return {"score": (seed * 31 + base) % 997 / 997.0}


def _raising_row(seed, log_path):
    with open(log_path, "a") as fh:
        fh.write("call\n")
    raise ValueError("poisoned")


def _graph(n, table_seed=0, dataset=None, log_path=None):
    """``n`` row nodes seeded like a table; optionally on one dataset node."""
    graph = ArtifactGraph()
    deps = ()
    if dataset is not None:
        graph.add(DagNode(kind="corpus", name="dataset", runner=_dataset,
                          kwargs={"name": dataset}))
        deps = ("dataset",)
    extra = {"log_path": str(log_path)} if log_path is not None else {}
    for i in range(n):
        name = f"t.row{i}"
        graph.add(DagNode(kind="row", name=name, runner=_metric_row,
                          kwargs={"base": i, **extra}, deps=deps,
                          table="t", row=f"row{i}",
                          seed=engine.derive_row_seed(table_seed, name)))
    return graph


def _calls(log_path):
    try:
        return len(log_path.read_text().splitlines())
    except OSError:
        return 0


def _metrics(results):
    return {name: result["metrics"] for name, result in results.items()}


def test_parallel_rows_equal_serial_rows():
    serial = run_graph(_graph(6, table_seed=3), jobs=1, use_cache=False)
    parallel = run_graph(_graph(6, table_seed=3), jobs=4, use_cache=False)
    assert _metrics(parallel) == _metrics(serial)
    assert all("seconds" in result for result in serial.values())
    report = scheduler.take_last_dag_report()
    assert report.jobs == 4 and report.executed == 6 and report.errors == 0


def test_warm_memo_store_runs_zero_factories(tmp_path):
    log = tmp_path / "calls.log"
    cold = run_graph(_graph(4, log_path=log), jobs=1, cache_dir=tmp_path)
    assert _calls(log) == 4
    assert scheduler.take_last_dag_report().executed == 4

    warm = run_graph(_graph(4, log_path=log), jobs=1, cache_dir=tmp_path)
    assert _calls(log) == 4  # zero new runner calls
    report = scheduler.take_last_dag_report()
    assert report.reused == 4 and report.executed == 0
    assert warm == cold  # seconds included: payloads are replayed verbatim

    engine.clear_memo_memory()  # drop the memory tier: disk alone must hit
    disk = run_graph(_graph(4, log_path=log), jobs=1, cache_dir=tmp_path)
    assert _calls(log) == 4
    assert scheduler.take_last_dag_report().reused == 4
    assert disk == cold


def test_seed_and_dataset_changes_bust_the_memo_key(tmp_path):
    log = tmp_path / "calls.log"
    base = _graph(2, dataset="d0", log_path=log)
    run_graph(base, jobs=1, cache_dir=tmp_path)
    assert _calls(log) == 2

    reseeded = _graph(2, table_seed=1, dataset="d0", log_path=log)
    run_graph(reseeded, jobs=1, cache_dir=tmp_path)
    assert _calls(log) == 4  # new table seed -> recomputed

    moved = _graph(2, dataset="d1", log_path=log)
    run_graph(moved, jobs=1, cache_dir=tmp_path)
    assert _calls(log) == 6  # new dataset -> recomputed

    digest = base.digests()["t.row0"]
    assert reseeded.digests()["t.row0"] != digest
    assert moved.digests()["t.row0"] != digest


def test_errors_are_never_memoized(tmp_path):
    log = tmp_path / "calls.log"
    graph = ArtifactGraph()
    graph.add(DagNode(kind="row", name="t.boom", runner=_raising_row,
                      kwargs={"log_path": str(log)}))
    run_graph(graph, jobs=1, cache_dir=tmp_path)
    run_graph(graph, jobs=1, cache_dir=tmp_path)
    assert _calls(log) == 2  # re-attempted, not replayed
    report = scheduler.take_last_dag_report()
    assert report.statuses == {"t.boom": "error"} and report.reused == 0
