"""Drift-triggered re-fit through the experiment DAG scheduler.

When the drift monitor fires, the orchestrator calls :func:`run_refit`:
the retrain is a one-node :class:`~repro.experiments.dag.ArtifactGraph`
whose module-level :func:`refit_runner` rebuilds the training corpus
from the corpus store, fits a fresh model, and publishes it as the next
registry version — executed by
:func:`~repro.experiments.scheduler.run_graph` with the artifact store
off (a re-fit must actually run). Going through the scheduler buys the
usual guarantees for free: the node seed is
``derive_row_seed(seed, name)`` and the node name
``refit-<model>-<ordinal:03d>`` carries the re-fit ordinal, so re-fit
*N* of a stream trains identically wherever and whenever it runs —
which is what makes crash-resume byte-identical even when the crash
lands between a publish and the next checkpoint (the resumed run simply
re-derives the same model).

The registry publish happens *inside* the runner, so by the time
``run_graph`` returns, consumers resolving ``latest`` already see the
new version atomically; the orchestrator then reloads its own pinned
client.
"""

from __future__ import annotations

from repro.core.exceptions import PipelineError
from repro.core.supervision import Keywords, LabelNames
from repro.core.types import LabelSet


def resolve_method(name: str):
    """Method class for ``name`` (case/punctuation-insensitive)."""
    from repro.core.registry import method_registry

    wanted = name.lower().replace("-", "").replace("_", "")
    for info in method_registry().values():
        if info.name.lower().replace("-", "") == wanted and info.cls:
            return info.cls
    raise PipelineError(
        f"unknown method {name!r} for pipeline re-fit"
    )


def build_supervision(kind: str, labels: list, keywords: "dict | None"):
    """Weak supervision for the re-fit (``keywords`` or ``label-names``)."""
    label_set = LabelSet(labels=tuple(labels))
    if kind == "keywords":
        if not keywords:
            raise PipelineError(
                "supervision 'keywords' needs a keyword map in the stream "
                "meta"
            )
        return Keywords(label_set=label_set,
                        keywords={label: list(words)
                                  for label, words in keywords.items()})
    if kind in ("label-names", "labelnames"):
        return LabelNames(label_set=label_set)
    raise PipelineError(
        f"unknown supervision kind {kind!r} (use 'keywords' or "
        "'label-names')"
    )


def refit_runner(row_seed: int, *, store_dir: str, train_docs: "int | None",
                 method: str, method_kwargs: dict, supervision: str,
                 labels: list, keywords: "dict | None", registry_root: str,
                 model_name: str, provenance: dict) -> dict:
    """One re-fit node: rebuild corpus → fit → publish.

    Module-level and driven entirely by JSON-safe kwargs, so it runs
    identically in-process and in a spawn worker.
    """
    from repro.pipeline.store import CorpusStore
    from repro.serve.registry import ModelRegistry

    store = CorpusStore(store_dir)
    corpus = store.corpus(limit=train_docs)
    if not len(corpus):
        raise PipelineError(
            f"re-fit over empty corpus store {store_dir}"
        )
    cls = resolve_method(method)
    model = cls(seed=row_seed, **dict(method_kwargs))
    model.fit(corpus, build_supervision(supervision, labels, keywords))
    registry = ModelRegistry(registry_root)
    version = registry.publish(model_name, model, provenance=provenance)
    return {"version": version, "train_docs": len(corpus)}


def run_refit(*, store_dir, train_docs: "int | None", method: str,
              method_kwargs: dict, supervision: str, labels: list,
              keywords: "dict | None", registry_root, model_name: str,
              ordinal: int, seed: int, jobs: int = 1,
              reason: "str | None" = None) -> int:
    """Retrain + publish; returns the new registry version.

    ``ordinal`` is the re-fit count (0 = bootstrap fit), folded into the
    node name so each re-fit derives a distinct but reproducible seed.
    """
    from repro.experiments.dag import ArtifactGraph, DagNode
    from repro.experiments.engine import derive_row_seed
    from repro.experiments.scheduler import run_graph

    name = f"refit-{model_name}-{ordinal:03d}"
    graph = ArtifactGraph()
    graph.add(DagNode(
        kind="row",
        name=name,
        runner=refit_runner,
        kwargs={
            "store_dir": str(store_dir),
            "train_docs": train_docs,
            "method": method,
            "method_kwargs": dict(method_kwargs),
            "supervision": supervision,
            "labels": list(labels),
            "keywords": keywords,
            "registry_root": str(registry_root),
            "model_name": model_name,
            "provenance": {
                "pipeline": model_name,
                "refit_ordinal": ordinal,
                "reason": reason or "drift",
            },
        },
        seed=derive_row_seed(seed, name),
    ))
    metrics = run_graph(graph, jobs=jobs, use_cache=False)[name]["metrics"]
    if "error" in metrics:
        raise PipelineError(f"re-fit {name!r} failed: {metrics['error']}")
    return int(metrics["version"])
