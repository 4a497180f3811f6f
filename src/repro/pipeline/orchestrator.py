"""The streaming-pipeline orchestrator: stages, checkpoints, re-fits.

One :class:`Pipeline` owns a stream end to end::

    source.read → tokenize → dedupe → store ─┬→ classify → drift
                                             └→ checkpoint

The loop reads ``batch_size`` documents at the cursor, runs the typed
stages (:mod:`repro.pipeline.stages`), and — once ``bootstrap_docs``
documents are stored — fits the first model through the experiment
engine (:mod:`repro.pipeline.refit`), publishes it to the registry,
and classifies everything stored so far. From then on every batch is
classified as it lands, the drift monitor watches the predictions, and
a threshold breach triggers a re-fit + atomic registry republish +
client reload.

**Determinism / crash-resume contract.** Every piece of loop state is
a pure function of the stream config and the cursor: the source is
deterministic, dedupe outcomes replay identically, fits derive their
seeds from the re-fit ordinal, and classification requests are
submitted in fixed ``batch_size`` chunks so batch composition never
depends on timing. A checkpoint (atomic, every ``checkpoint_every``
batches and at clean exit) records the cursor plus the byte-exact
store state; resume truncates the store to the checkpoint and replays
from the cursor, so an interrupted-then-resumed run produces
*byte-identical* shards and prediction logs to an uninterrupted one.
Prediction records therefore carry the model **generation** (fit
ordinal, deterministic) rather than the registry version number (which
can differ when a crash orphans a published version); the pinned
registry version lives in the checkpoint, where resume needs it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro import obs
from repro.core import env as _env
from repro.core.exceptions import CheckpointError, PipelineError
from repro.pipeline.clients import EngineClient
from repro.pipeline.drift import DriftMonitor, DriftPolicy
from repro.pipeline.refit import run_refit
from repro.pipeline.source import StreamConfig, StreamSource
from repro.pipeline.stages import (
    ClassifyStage,
    DedupeStage,
    StageResult,
    StoreStage,
    TokenizeStage,
)
from repro.pipeline.store import CorpusStore


@dataclass(frozen=True)
class PipelineConfig:
    """Everything a pipeline run needs (meta.json round-trips it).

    Parameters
    ----------
    stream:
        The document source (:class:`StreamConfig`).
    name:
        Stream name; the store lives at ``<store_root>/<name>``.
    store_root / registry_root:
        Corpus-store and model-registry roots; default to the
        ``REPRO_CORPUS_DIR`` / ``REPRO_MODEL_DIR`` knobs.
    model_name:
        Registry model name (default ``<name>-<method>``).
    method / method_kwargs / supervision:
        What to (re)fit: a registered method, its constructor kwargs,
        and the weak-supervision kind (``keywords`` / ``label-names``).
    batch_size:
        Stream read size and classification chunk size.
    checkpoint_every:
        Batches between checkpoints.
    bootstrap_docs:
        Stored documents required before the first fit.
    train_docs:
        Cap on the training corpus for (re)fits (None = all stored).
    drift:
        Re-fit trigger thresholds (:class:`DriftPolicy`).
    shard_docs:
        Documents per corpus-store shard.
    seed:
        Table seed for fit-row seed derivation.
    jobs:
        Worker processes for the re-fit row (1 = in-process).
    warmup:
        Warm the serving client before classifying.
    """

    stream: StreamConfig = field(default_factory=StreamConfig)
    name: str = "stream"
    store_root: "str | None" = None
    registry_root: "str | None" = None
    model_name: "str | None" = None
    method: str = "westclass"
    method_kwargs: dict = field(default_factory=dict)
    supervision: str = "keywords"
    batch_size: int = 32
    checkpoint_every: int = 4
    bootstrap_docs: int = 64
    train_docs: "int | None" = None
    drift: DriftPolicy = field(default_factory=DriftPolicy)
    shard_docs: int = 256
    seed: int = 0
    jobs: int = 1
    warmup: bool = True

    def __post_init__(self):
        if self.batch_size < 1:
            raise PipelineError(
                f"batch_size must be >= 1, got {self.batch_size}")
        if self.checkpoint_every < 1:
            raise PipelineError(
                f"checkpoint_every must be >= 1, got {self.checkpoint_every}")

    @property
    def resolved_model_name(self) -> str:
        return self.model_name or f"{self.name}-{self.method}"

    def store_dir(self) -> Path:
        root = (Path(self.store_root) if self.store_root
                else _env.corpus_dir())
        return root / self.name

    def resolved_registry_root(self) -> Path:
        return (Path(self.registry_root) if self.registry_root
                else _env.model_dir())

    def to_meta(self) -> dict:
        return {
            "name": self.name,
            "stream": self.stream.to_state(),
            "model_name": self.resolved_model_name,
            "method": self.method,
            "method_kwargs": dict(self.method_kwargs),
            "supervision": self.supervision,
            "batch_size": self.batch_size,
            "checkpoint_every": self.checkpoint_every,
            "bootstrap_docs": self.bootstrap_docs,
            "train_docs": self.train_docs,
            "drift": self.drift.to_state(),
            "shard_docs": self.shard_docs,
            "seed": self.seed,
            "jobs": self.jobs,
            "warmup": self.warmup,
            "registry_root": str(self.resolved_registry_root()),
        }

    @classmethod
    def from_meta(cls, meta: dict, store_root) -> "PipelineConfig":
        # Streams recorded before the serving client was fixed to the
        # in-process one carry "backend"/"replicas"; an "engine" stream
        # was served in-process and resumes as before. A pool stream
        # logged no confidences, so it cannot replay byte-identically.
        backend = meta.get("backend", "engine")
        if backend != "engine":
            raise PipelineError(
                f"stream {meta.get('name')!r} was served through the "
                f"{backend!r} backend, which no longer exists; its "
                "prediction log cannot be resumed byte-identically "
                "in-process"
            )
        try:
            return cls(
                stream=StreamConfig.from_state(meta["stream"]),
                name=meta["name"],
                store_root=str(store_root),
                registry_root=meta["registry_root"],
                model_name=meta["model_name"],
                method=meta["method"],
                method_kwargs=dict(meta["method_kwargs"]),
                supervision=meta["supervision"],
                batch_size=int(meta["batch_size"]),
                checkpoint_every=int(meta["checkpoint_every"]),
                bootstrap_docs=int(meta["bootstrap_docs"]),
                train_docs=meta["train_docs"],
                drift=DriftPolicy.from_state(meta["drift"]),
                shard_docs=int(meta["shard_docs"]),
                seed=int(meta["seed"]),
                jobs=int(meta["jobs"]),
                warmup=bool(meta["warmup"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise PipelineError(
                f"malformed stream meta.json: {exc}"
            ) from exc


@dataclass
class PipelineReport:
    """What one :meth:`Pipeline.run` call did (CLI footer material)."""

    batches: int = 0
    ingested: int = 0
    deduped: int = 0
    classified: int = 0
    fits: int = 0
    refits: int = 0
    model_version: "int | None" = None
    cursor: int = 0
    exhausted: bool = False
    seconds: float = 0.0
    drift_levels: dict = field(default_factory=dict)
    latencies_s: list = field(default_factory=list)


class Pipeline:
    """Stream orchestrator over one corpus store + one registry model."""

    def __init__(self, config: PipelineConfig, resume: bool = False):
        self.config = config
        self.store = CorpusStore(config.store_dir(),
                                 shard_docs=config.shard_docs)
        checkpoint = self.store.read_checkpoint()
        if resume:
            if checkpoint is None:
                raise CheckpointError(
                    f"no checkpoint under {self.store.directory}; "
                    "nothing to resume"
                )
            # The checkpointed stream config is authoritative: resuming
            # with a different stream would corrupt the corpus.
            self.config = config = replace(
                config,
                stream=StreamConfig.from_state(checkpoint["stream"]))
            self.store.truncate_to(checkpoint["store"])
            self.cursor = int(checkpoint["cursor"])
            self.ingested = int(checkpoint["ingested"])
            self.deduped = int(checkpoint["deduped"])
            self.classified = int(checkpoint["classified"])
            self.fits = int(checkpoint["fits"])
            self.model_version = checkpoint["model_version"]
            drift_state = checkpoint.get("drift")
            self.monitor = (DriftMonitor.from_state(drift_state)
                            if drift_state else None)
        else:
            if checkpoint is not None:
                raise PipelineError(
                    f"stream store {self.store.directory} already has a "
                    "checkpoint; resume it (or point the pipeline at a "
                    "fresh REPRO_CORPUS_DIR)"
                )
            self.cursor = 0
            self.ingested = 0
            self.deduped = 0
            self.classified = 0
            self.fits = 0
            self.model_version = None
            self.monitor = None
        self.source = StreamSource(config.stream)
        if not resume:
            self.store.write_meta({
                **config.to_meta(),
                "labels": list(self.source.label_set.labels),
                "keywords": self.source.keywords,
            })
        self.tokenize = TokenizeStage()
        self.dedupe = DedupeStage(seen=self.store.load_hashes())
        self.store_stage = StoreStage(self.store)
        self._client = None

    @classmethod
    def resume(cls, name: str, store_root=None) -> "Pipeline":
        """Reopen stream ``name`` from its meta + checkpoint."""
        root = Path(store_root) if store_root else _env.corpus_dir()
        store = CorpusStore(root / name)
        meta = store.read_meta()
        return cls(PipelineConfig.from_meta(meta, root), resume=True)

    # -- model lifecycle -----------------------------------------------------
    @property
    def generation(self) -> "int | None":
        """Current model generation (fit ordinal), None before bootstrap."""
        return self.fits - 1 if self.fits else None

    def _fit(self, reason: str) -> None:
        """Fit generation ``self.fits``, publish, and (re)wire the client."""
        config = self.config
        ordinal = self.fits
        with obs.span("pipeline:refit", ordinal=ordinal, reason=reason):
            version = run_refit(
                store_dir=self.store.directory,
                train_docs=config.train_docs,
                method=config.method,
                method_kwargs=config.method_kwargs,
                supervision=config.supervision,
                labels=list(self.source.label_set.labels),
                keywords=self.source.keywords,
                registry_root=config.resolved_registry_root(),
                model_name=config.resolved_model_name,
                ordinal=ordinal,
                seed=config.seed,
                jobs=config.jobs,
                reason=reason,
            )
        self.fits = ordinal + 1
        self.model_version = version
        vocabulary = self._training_vocabulary()
        if self.monitor is None:
            self.monitor = DriftMonitor(config.drift, vocabulary)
        else:
            self.monitor.after_refit(vocabulary)
        if self._client is None:
            self._client = self._start_client(version)
        else:
            self._client.reload(version)

    def _start_client(self, version: int) -> EngineClient:
        from repro.serve.registry import ModelRegistry

        config = self.config
        return EngineClient(
            ModelRegistry(config.resolved_registry_root()),
            config.resolved_model_name, version, warmup=config.warmup)

    def _training_vocabulary(self) -> set:
        vocabulary = set()
        for record in self.store.iter_records(self.config.train_docs):
            vocabulary.update(record["tokens"])
        return vocabulary

    def _attach_client(self) -> None:
        """Serve the pinned version: on resume, start a client for the
        checkpointed one; after a failed reload, retry the switch."""
        if self.model_version is None:
            return
        if self._client is None:
            self._client = self._start_client(self.model_version)
        elif self._client.version != self.model_version:
            self._client.reload(self.model_version)

    # -- classification ------------------------------------------------------
    def _classify(self, docs: list, started: "float | None" = None,
                  report: "PipelineReport | None" = None) -> None:
        """Classify ``docs`` in fixed chunks; log + observe predictions."""
        config = self.config
        stage = ClassifyStage(self._client)
        for i in range(0, len(docs), config.batch_size):
            chunk = docs[i:i + config.batch_size]
            result = stage.process(chunk)
            scored = result.extra["predictions"]
            records = []
            for doc, (label, confidence, topk) in zip(chunk, scored):
                records.append({
                    "position": doc.metadata.get("position"),
                    "doc_id": doc.doc_id,
                    "label": label if isinstance(label, str)
                    else list(label),
                    "confidence": round(confidence, 6),
                    "topk": topk,
                    "model_gen": self.generation,
                })
            self.store.append_predictions(records)
            self.classified += len(chunk)
            if report is not None:
                report.classified += len(chunk)
                if started is not None:
                    now = time.perf_counter()
                    report.latencies_s.extend(
                        [now - started] * len(chunk))
            self.monitor.observe(chunk, scored)
            if self.monitor.should_refit():
                self.monitor.mark_triggered()
                if report is not None:
                    report.refits += 1
                self._fit(reason="drift")

    # -- checkpointing -------------------------------------------------------
    def checkpoint(self) -> None:
        """Atomically commit the resume state."""
        with obs.span("pipeline:checkpoint", cursor=self.cursor):
            self.store.write_checkpoint({
                "cursor": self.cursor,
                "ingested": self.ingested,
                "deduped": self.deduped,
                "classified": self.classified,
                "fits": self.fits,
                "model_version": self.model_version,
                "store": self.store.state(),
                "drift": self.monitor.to_state() if self.monitor else None,
                "stream": self.config.stream.to_state(),
            })

    # -- the loop ------------------------------------------------------------
    def run(self, max_batches: "int | None" = None,
            checkpoint_on_exit: bool = True,
            track_latency: bool = False) -> PipelineReport:
        """Process the stream (to exhaustion, or ``max_batches``).

        ``checkpoint_on_exit=False`` models a crash: whatever ran since
        the last periodic checkpoint is left uncommitted, and a resumed
        pipeline replays it byte-identically.
        """
        config = self.config
        report = PipelineReport(fits=self.fits,
                                model_version=self.model_version)
        start = time.perf_counter()
        self._attach_client()
        while max_batches is None or report.batches < max_batches:
            batch_start = time.perf_counter() if track_latency else None
            with obs.span("pipeline:batch", cursor=self.cursor):
                next_cursor, docs = self.source.read(
                    self.cursor, config.batch_size)
                if not docs:
                    report.exhausted = True
                    break
                result = self.tokenize.process(docs)
                result = self.dedupe.process(result.docs)
                result = self.store_stage.process(result)
                self.cursor = next_cursor
                self.ingested += len(result.docs)
                self.deduped += result.dropped
                report.ingested += len(result.docs)
                report.deduped += result.dropped
                obs.count("pipeline.batches")
                if self.model_version is None:
                    if self.store.docs >= config.bootstrap_docs:
                        self._fit(reason="bootstrap")
                        backlog = list(self.store.corpus())[self.classified:]
                        self._classify(backlog, batch_start, report)
                elif result.docs:
                    self._classify(result.docs, batch_start, report)
            report.batches += 1
            if report.batches % config.checkpoint_every == 0:
                self.checkpoint()
        # A stream shorter than bootstrap_docs still gets its model.
        if (report.exhausted and self.model_version is None
                and self.store.docs):
            self._fit(reason="bootstrap")
            backlog = list(self.store.corpus())[self.classified:]
            self._classify(backlog, None, report)
        if checkpoint_on_exit:
            self.checkpoint()
        report.fits = self.fits
        report.refits = max(0, self.fits - 1)
        report.model_version = self.model_version
        report.cursor = self.cursor
        report.seconds = time.perf_counter() - start
        if self.monitor is not None:
            report.drift_levels = self.monitor.levels()
        return report

    # -- status --------------------------------------------------------------
    def status(self) -> dict:
        """Current per-stage state (no serving client started)."""
        return pipeline_status(self.store)


def pipeline_status(store: CorpusStore) -> dict:
    """Status of the stream stored at ``store`` (meta + checkpoint)."""
    meta = store.read_meta()
    checkpoint = store.read_checkpoint()
    status = {
        "name": meta.get("name"),
        "model_name": meta.get("model_name"),
        "store_docs": store.docs,
        "predictions": store.predictions,
        "shards": len(store.shard_files()),
        "checkpoint": None,
    }
    if checkpoint is not None:
        drift = checkpoint.get("drift")
        status["checkpoint"] = {
            "cursor": checkpoint["cursor"],
            "ingested": checkpoint["ingested"],
            "deduped": checkpoint["deduped"],
            "classified": checkpoint["classified"],
            "fits": checkpoint["fits"],
            "model_version": checkpoint["model_version"],
            "drift_triggers": (drift or {}).get("triggers", 0),
        }
    return status
