"""Append-only sharded corpus store + atomic stream checkpoints.

One directory per stream under ``REPRO_CORPUS_DIR``
(:func:`repro.core.env.corpus_dir`)::

    <root>/<stream>/
        meta.json                # stream identity: labels, keywords, config
        shards/shard_00000.jsonl # append-only document shards
        predictions.jsonl        # append-only classification log
        checkpoint.json          # atomic resume state (schema below)

Documents append as one sorted-key JSON line each (position, doc id,
content hash, tokens, gold labels), rotating to a new shard every
``shard_docs`` documents. Appends are the *only* mutation during a run;
nothing is ever rewritten in place, which is what makes the byte-level
resume contract cheap to state: the checkpoint records the exact byte
length of every shard (and of the predictions log) at commit time, and
:meth:`CorpusStore.truncate_to` drops any un-checkpointed tail after a
crash. Because stream content is deterministic, re-processing from the
checkpoint cursor regenerates the truncated bytes exactly — an
interrupted-and-resumed run ends byte-identical to an uninterrupted
one.

A checkpoint reads no shard: the store keeps every sealed shard's
``{"bytes", "docs"}`` entry in memory (recorded when :meth:`append`
rotates past it, rebuilt by one rescan when the store opens or
truncates) and takes the open shard's entry from its document counter
plus one ``stat``. So a checkpoint costs the same at the end of a long
stream as at its start.

Checkpoint schema (``checkpoint.json``, written atomically via
tmp-then-``os.replace``)::

    {"schema": 1,
     "cursor": <next stream position>,
     "ingested": <docs appended>, "deduped": <docs dropped>,
     "classified": <predictions appended>,
     "model_version": <registry version serving at commit, or null>,
     "refits": <re-fit count>,
     "store": {"shards": {"shard_00000.jsonl": {"bytes": B, "docs": D}},
               "predictions_bytes": B, "shard_index": I, "docs_in_shard": D},
     "drift": <DriftMonitor state>, "stream": <StreamConfig state>}

Every failure is a typed :class:`~repro.core.exceptions.PipelineError`
(:class:`~repro.core.exceptions.CheckpointError` for checkpoint files),
never a bare json/OS error.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

from repro.core import env as _env
from repro.core.exceptions import CheckpointError, PipelineError
from repro.core.types import Corpus, Document

CHECKPOINT_SCHEMA = 1
META = "meta.json"
CHECKPOINT = "checkpoint.json"
PREDICTIONS = "predictions.jsonl"
SHARDS = "shards"


def content_hash(tokens: list) -> str:
    """Content identity of a document: blake2b over its token stream."""
    digest = hashlib.blake2b(digest_size=16)
    for token in tokens:
        digest.update(token.encode())
        digest.update(b"\x00")
    return digest.hexdigest()


def _atomic_write(path: Path, text: str) -> None:
    tmp = path.with_name(f".{path.name}.tmp-{os.getpid()}")
    tmp.write_text(text)
    os.replace(tmp, path)


class CorpusStore:
    """Append-only document + prediction store for one stream.

    Parameters
    ----------
    directory:
        Store directory (conventionally ``corpus_dir() / <stream>``).
    shard_docs:
        Documents per shard before rotation.
    """

    def __init__(self, directory: "str | Path", shard_docs: int = 512):
        if shard_docs < 1:
            raise PipelineError(f"shard_docs must be >= 1, got {shard_docs}")
        self.directory = Path(directory)
        self.shard_docs = shard_docs
        self.shard_dir = self.directory / SHARDS
        self.shard_dir.mkdir(parents=True, exist_ok=True)
        self._shard_index = 0
        self._docs_in_shard = 0
        self._docs = 0
        self._predictions = 0
        # Checkpoint entries of every shard but the open one.
        self._sealed: dict = {}
        self._recount()

    @classmethod
    def for_stream(cls, name: str, root: "str | Path | None" = None,
                   shard_docs: int = 512) -> "CorpusStore":
        """The store for stream ``name`` under ``REPRO_CORPUS_DIR``."""
        base = Path(root) if root is not None else _env.corpus_dir()
        return cls(base / name, shard_docs=shard_docs)

    # -- disk state ----------------------------------------------------------
    def _shard_path(self, index: int) -> Path:
        return self.shard_dir / f"shard_{index:05d}.jsonl"

    def shard_files(self) -> list:
        """Existing shard paths in shard order."""
        return sorted(self.shard_dir.glob("shard_*.jsonl"))

    def _recount(self) -> dict:
        """Rebuild in-memory counters from the files on disk.

        Returns every shard's ``{"bytes", "docs"}`` entry, keyed by file
        name; the ones before the open shard become :attr:`_sealed`.
        """
        shards = self.shard_files()
        entries = {}
        for path in shards:
            entries[path.name] = {
                "bytes": path.stat().st_size,
                "docs": sum(1 for _ in self._iter_lines(path)),
            }
        self._docs = sum(entry["docs"] for entry in entries.values())
        self._predictions = 0
        if shards:
            last = shards[-1]
            self._shard_index = int(last.stem.split("_")[1])
            self._docs_in_shard = entries[last.name]["docs"]
            if self._docs_in_shard >= self.shard_docs:
                self._shard_index += 1
                self._docs_in_shard = 0
        else:
            self._shard_index = 0
            self._docs_in_shard = 0
        predictions = self.directory / PREDICTIONS
        if predictions.exists():
            self._predictions = sum(
                1 for _ in self._iter_lines(predictions))
        self._seal(entries)
        return entries

    def _seal(self, entries: dict) -> None:
        """Keep the entries of every shard except the open one."""
        open_name = self._shard_path(self._shard_index).name
        self._sealed = {name: entry for name, entry in entries.items()
                        if name != open_name}

    @staticmethod
    def _iter_lines(path: Path):
        try:
            with open(path, "r") as fh:
                for line in fh:
                    if line.strip():
                        yield line
        except OSError as exc:
            raise PipelineError(
                f"corpus store file {path} is unreadable: {exc}") from exc

    # -- counters ------------------------------------------------------------
    @property
    def docs(self) -> int:
        """Documents currently stored."""
        return self._docs

    @property
    def predictions(self) -> int:
        """Predictions currently logged."""
        return self._predictions

    # -- meta ----------------------------------------------------------------
    def write_meta(self, payload: dict) -> None:
        """Record the stream identity (labels, keywords, config) once."""
        _atomic_write(self.directory / META,
                      json.dumps(payload, indent=2, sort_keys=True) + "\n")

    def read_meta(self) -> dict:
        path = self.directory / META
        if not path.exists():
            raise PipelineError(
                f"{path} does not exist (not a stream store?)")
        try:
            meta = json.loads(path.read_text())
        except (ValueError, OSError) as exc:
            raise PipelineError(f"{path} is unreadable: {exc}") from exc
        if not isinstance(meta, dict):
            raise PipelineError(f"{path} must hold a JSON object")
        return meta

    # -- appends -------------------------------------------------------------
    def append(self, docs: list, hashes: list) -> None:
        """Append ``docs`` (parallel to their content ``hashes``)."""
        if len(docs) != len(hashes):
            raise PipelineError(
                f"append got {len(docs)} docs but {len(hashes)} hashes")
        i = 0
        while i < len(docs):
            room = self.shard_docs - self._docs_in_shard
            chunk = docs[i:i + room]
            chunk_hashes = hashes[i:i + room]
            path = self._shard_path(self._shard_index)
            lines = []
            for doc, digest in zip(chunk, chunk_hashes):
                lines.append(json.dumps({
                    "position": doc.metadata.get("position"),
                    "doc_id": doc.doc_id,
                    "hash": digest,
                    "tokens": doc.tokens,
                    "labels": list(doc.labels),
                }, sort_keys=True))
            with open(path, "a") as fh:
                fh.write("\n".join(lines) + "\n")
            self._docs += len(chunk)
            self._docs_in_shard += len(chunk)
            if self._docs_in_shard >= self.shard_docs:
                self._sealed[path.name] = {"bytes": path.stat().st_size,
                                           "docs": self._docs_in_shard}
                self._shard_index += 1
                self._docs_in_shard = 0
            i += len(chunk)

    def append_predictions(self, records: list) -> None:
        """Append classification records (already JSON-safe dicts)."""
        if not records:
            return
        lines = [json.dumps(record, sort_keys=True) for record in records]
        with open(self.directory / PREDICTIONS, "a") as fh:
            fh.write("\n".join(lines) + "\n")
        self._predictions += len(records)

    # -- reads ---------------------------------------------------------------
    def iter_records(self, limit: "int | None" = None):
        """Stored document records in append order."""
        emitted = 0
        for path in self.shard_files():
            for line in self._iter_lines(path):
                if limit is not None and emitted >= limit:
                    return
                try:
                    record = json.loads(line)
                except ValueError as exc:
                    raise PipelineError(
                        f"corrupt corpus line in {path}: {exc}") from exc
                emitted += 1
                yield record

    def corpus(self, limit: "int | None" = None,
               name: "str | None" = None) -> Corpus:
        """The stored documents (first ``limit``) as a training corpus."""
        docs = [Document(doc_id=record["doc_id"],
                         tokens=list(record["tokens"]),
                         labels=tuple(record.get("labels") or ()),
                         metadata={"position": record.get("position")})
                for record in self.iter_records(limit)]
        return Corpus(docs, name=name or self.directory.name)

    def load_hashes(self) -> set:
        """Content hashes of every stored document (dedupe resume state)."""
        return {record["hash"] for record in self.iter_records()}

    def iter_predictions(self):
        """Logged predictions in append order."""
        path = self.directory / PREDICTIONS
        if not path.exists():
            return
        for line in self._iter_lines(path):
            try:
                yield json.loads(line)
            except ValueError as exc:
                raise PipelineError(
                    f"corrupt prediction line in {path}: {exc}") from exc

    # -- byte-level resume contract ------------------------------------------
    def state(self) -> dict:
        """Byte-exact snapshot for the checkpoint (shard + log lengths).

        Reads no shard: sealed shards' entries are kept in memory and the
        open shard's is its document counter plus one ``stat``.
        """
        shards = {name: dict(entry) for name, entry in self._sealed.items()}
        open_path = self._shard_path(self._shard_index)
        try:
            size = open_path.stat().st_size
        except FileNotFoundError:
            pass  # rotated, and nothing appended to the new shard yet
        else:
            shards[open_path.name] = {"bytes": size,
                                      "docs": self._docs_in_shard}
        predictions = self.directory / PREDICTIONS
        return {
            "shards": shards,
            "predictions_bytes": (predictions.stat().st_size
                                  if predictions.exists() else 0),
            "shard_index": self._shard_index,
            "docs_in_shard": self._docs_in_shard,
        }

    def truncate_to(self, state: dict) -> None:
        """Drop every byte appended after ``state`` was captured.

        Shards (and prediction-log bytes) beyond the recorded lengths
        are truncated; shard files the checkpoint never saw are
        deleted. After this, re-processing from the checkpoint cursor
        regenerates exactly the dropped bytes.
        """
        recorded = state.get("shards", {})
        for path in self.shard_files():
            if path.name not in recorded:
                path.unlink()
                continue
            want = int(recorded[path.name]["bytes"])
            have = path.stat().st_size
            if have < want:
                raise CheckpointError(
                    f"shard {path} holds {have} bytes but the checkpoint "
                    f"recorded {want}; the store was modified outside the "
                    "pipeline"
                )
            if have > want:
                with open(path, "r+b") as fh:
                    fh.truncate(want)
        predictions = self.directory / PREDICTIONS
        want = int(state.get("predictions_bytes", 0))
        if predictions.exists():
            have = predictions.stat().st_size
            if have < want:
                raise CheckpointError(
                    f"predictions log {predictions} holds {have} bytes but "
                    f"the checkpoint recorded {want}; the store was "
                    "modified outside the pipeline"
                )
            if have > want:
                with open(predictions, "r+b") as fh:
                    fh.truncate(want)
        elif want:
            raise CheckpointError(
                f"predictions log {predictions} is missing but the "
                f"checkpoint recorded {want} bytes"
            )
        entries = self._recount()
        self._shard_index = int(state.get("shard_index", self._shard_index))
        self._docs_in_shard = int(state.get("docs_in_shard",
                                            self._docs_in_shard))
        self._seal(entries)

    # -- checkpoints ---------------------------------------------------------
    def write_checkpoint(self, payload: dict) -> None:
        """Atomically commit ``payload`` as the stream checkpoint."""
        record = {"schema": CHECKPOINT_SCHEMA, **payload}
        _atomic_write(self.directory / CHECKPOINT,
                      json.dumps(record, indent=2, sort_keys=True) + "\n")

    def read_checkpoint(self) -> "dict | None":
        """The committed checkpoint, or ``None`` for a fresh stream."""
        path = self.directory / CHECKPOINT
        if not path.exists():
            return None
        try:
            payload = json.loads(path.read_text())
        except (ValueError, OSError) as exc:
            raise CheckpointError(
                f"checkpoint {path} is unreadable: {exc}; delete it to "
                "restart the stream from scratch") from exc
        if not isinstance(payload, dict):
            raise CheckpointError(f"checkpoint {path} must hold a JSON object")
        schema = payload.get("schema")
        if schema != CHECKPOINT_SCHEMA:
            raise CheckpointError(
                f"checkpoint {path} has schema {schema!r}; this build "
                f"reads schema {CHECKPOINT_SCHEMA}"
            )
        return payload

    def __repr__(self) -> str:
        return (f"CorpusStore(directory={str(self.directory)!r}, "
                f"docs={self._docs}, predictions={self._predictions})")
