"""Experiment harness: one spec per paper table/figure.

Tables compile into a content-addressed artifact DAG
(:mod:`repro.experiments.dag`) executed by
:mod:`repro.experiments.scheduler` on the worker pool, seeding and
artifact store of :mod:`repro.experiments.engine`. The one Python entry
point for a table is ``run_requests([tables.REQUESTS[name](seed,
fast)])[name]``; the CLI compiles several tables into one graph the
same way.
"""

from repro.experiments.dag import ArtifactGraph, DagNode, TableRequest
from repro.experiments.engine import derive_row_seed
from repro.experiments.runner import evaluate_flat, evaluate_multilabel
from repro.experiments.scheduler import (
    DagReport,
    run_graph,
    run_requests,
    take_last_dag_report,
)
from repro.experiments import figures, tables

__all__ = [
    "ArtifactGraph",
    "DagNode",
    "DagReport",
    "TableRequest",
    "derive_row_seed",
    "evaluate_flat",
    "evaluate_multilabel",
    "run_graph",
    "run_requests",
    "take_last_dag_report",
    "tables",
    "figures",
]
