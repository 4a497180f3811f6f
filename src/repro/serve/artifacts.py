"""Predict-only snapshots of fitted methods (the artifact store).

An artifact is a directory holding everything ``predict`` needs and
nothing ``fit`` needed:

- ``manifest.json`` — schema version, method identity, label space,
  per-file SHA-256 digests plus a combined content digest, and free-form
  provenance (dataset profile, seed, config);
- ``plm_<i>.npz`` — one archive per distinct
  :class:`~repro.plm.model.PretrainedLM` reachable from the method,
  written by :func:`repro.plm.io.save_plm` (dtype-faithful, bit-exact);
- ``state.pkl`` — the fitted method object with every PLM (and encode
  cache) swapped out via pickle persistent ids, so the heavy weights
  live in the npz archives and process-local caches never serialize.

``export_artifact(..., quantize="int8"|"float16")`` writes the PLM
archives in a quantized predict-only format (see :mod:`repro.plm.io`).
Because quantization is lossy, the export runs an **accuracy-delta
gate**: the quantized artifact is reloaded from the staging directory,
both models predict a caller-supplied probe corpus, and the export is
refused (:class:`ArtifactError`, nothing published) if macro-F1 between
the two prediction sets drops more than ``max_accuracy_delta``
percentage points. The measured delta is recorded in the manifest under
``quantize_check``.

Writes are atomic: the directory is assembled under a temp name and
renamed into place, so readers never observe a half-written artifact.
Loads verify digests by default and raise
:class:`~repro.core.exceptions.ArtifactError` naming the offending file
for any corruption — never a bare pickle/numpy error.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import pickle
import shutil
import time
from pathlib import Path

import numpy as np

from repro import obs
from repro.core.base import MultiLabelTextClassifier
from repro.core.enc_cache import EncodeCache
from repro.core.exceptions import ArtifactError
from repro.core.types import Corpus, Document
from repro.plm.io import QUANTIZE_MODES, load_plm, save_plm
from repro.plm.model import PretrainedLM

ARTIFACT_SCHEMA = 1
MANIFEST = "manifest.json"
STATE = "state.pkl"

#: Default accuracy-delta gate: quantized predictions may diverge from
#: full-precision ones by at most this many macro-F1 percentage points.
DEFAULT_MAX_ACCURACY_DELTA = 0.5


def as_corpus(docs, name: str = "request") -> Corpus:
    """Coerce request payloads into a :class:`Corpus`.

    Accepts a ready corpus, an iterable of raw strings, or an iterable
    of token lists; strings tokenize through the default tokenizer.
    """
    if isinstance(docs, Corpus):
        return docs
    documents = []
    for i, doc in enumerate(docs):
        if isinstance(doc, Document):
            documents.append(Document(doc_id=f"{name}-{i}", text=doc.text,
                                      tokens=list(doc.tokens)))
        elif isinstance(doc, str):
            documents.append(Document(doc_id=f"{name}-{i}", text=doc))
        else:
            documents.append(Document(doc_id=f"{name}-{i}",
                                      tokens=[str(t) for t in doc]))
    return Corpus(documents, name=name)


# ---------------------------------------------------------------------------
# PLM-aware pickling
# ---------------------------------------------------------------------------

class _ExportPickler(pickle.Pickler):
    """Pickler that externalizes PLMs and drops process-local caches."""

    def __init__(self, file, plms: list):
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self._plms = plms
        self._index: dict[int, int] = {}

    def persistent_id(self, obj):
        if isinstance(obj, PretrainedLM):
            key = id(obj)
            if key not in self._index:
                self._index[key] = len(self._plms)
                self._plms.append(obj)
            return ("repro.plm", self._index[key])
        if isinstance(obj, EncodeCache):
            # Caches are process-local working state, not model state.
            return ("repro.enc_cache", None)
        return None


class _ImportUnpickler(pickle.Unpickler):
    """Unpickler resolving persistent ids back to freshly loaded PLMs.

    A pickled encode cache resolves to None: served requests are unique
    documents, so caching their hidden states would only grow the
    process.
    """

    def __init__(self, file, plms: list):
        super().__init__(file)
        self._plms = plms

    def persistent_load(self, pid):
        kind, index = pid
        if kind == "repro.plm":
            return self._plms[index]
        if kind == "repro.enc_cache":
            return None
        raise ArtifactError(f"unknown persistent id {pid!r} in artifact state")


# ---------------------------------------------------------------------------
# Digests
# ---------------------------------------------------------------------------

def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _combined_digest(files: dict) -> str:
    digest = hashlib.sha256()
    for name in sorted(files):
        digest.update(f"{name}:{files[name]['sha256']}\n".encode())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# Quantization gate
# ---------------------------------------------------------------------------

def _multilabel_kinds(preds: list) -> set:
    """``{"multi"}``, ``{"single"}``, or both, over one prediction list.

    Label *sets* (tuples/lists/sets of labels) are "multi"; bare labels
    (strings/ints) are "single". Strings are iterable but must never be
    treated as label collections — iterating one silently scores its
    characters.
    """
    kinds = set()
    for pred in preds:
        if isinstance(pred, (tuple, list, set, frozenset)):
            kinds.add("multi")
        else:
            kinds.add("single")
    return kinds


def _prediction_delta(ref_preds: list, quant_preds: list) -> float:
    """Macro-F1 divergence, in percentage points, between two predictions.

    The full-precision predictions act as gold; 0.0 means the quantized
    model predicts identically on the probe set. Multi-label predictions
    (tuples/lists of labels) are scored as per-label binary F1 averaged
    over the union of predicted labels. Mixing single- and multi-label
    predictions — within either list, or between the reference and the
    quantized model — is refused: it means the quantized reload changed
    the model's prediction *shape*, which no F1 number can paper over.
    """
    from repro.evaluation.metrics import macro_f1

    if not ref_preds:
        return 0.0
    kinds = _multilabel_kinds(ref_preds) | _multilabel_kinds(quant_preds)
    if len(kinds) > 1:
        raise ArtifactError(
            "quantization gate cannot compare predictions of mixed "
            "arity: reference and quantized models must both return "
            "label sets (multi-label) or both return bare labels "
            "(single-label). Re-export with a probe matching the "
            "model's prediction contract, or fix the model reload."
        )
    if kinds == {"multi"}:
        labels = sorted({l for p in ref_preds for l in p}
                        | {l for p in quant_preds for l in p})
        if not labels:
            return 0.0
        f1s = []
        for label in labels:
            gold = [int(label in p) for p in ref_preds]
            pred = [int(label in p) for p in quant_preds]
            f1s.append(macro_f1(gold, pred, labels=[1]))
        score = float(np.mean(np.asarray(f1s, dtype=np.float64)))
    else:
        score = macro_f1(list(ref_preds), list(quant_preds))
    return (1.0 - score) * 100.0


def _reload_from_staging(tmp: Path, plm_files: list):
    """The quantized clone of the staged model (plms + state re-read)."""
    plms = [load_plm(tmp / name) for name in plm_files]
    with open(tmp / STATE, "rb") as fh:
        return _ImportUnpickler(fh, plms).load()


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------

def export_artifact(model, path: "str | Path", *,
                    provenance: "dict | None" = None,
                    overwrite: bool = False,
                    quantize: "str | None" = None,
                    probe=None,
                    max_accuracy_delta: "float | None" = DEFAULT_MAX_ACCURACY_DELTA) -> Path:
    """Snapshot fitted ``model`` into artifact directory ``path``.

    ``model`` is any fitted classifier with ``predict`` (the
    :mod:`repro.core.base` contract). ``provenance`` is recorded verbatim
    in the manifest (dataset profile, seed, config — anything that lets a
    reader re-derive the training run).

    ``quantize`` writes the PLM archives in a lossy predict-only format
    (``"int8"`` or ``"float16"``). A quantized export must pass the
    accuracy-delta gate: ``probe`` (a corpus, strings, or token lists of
    held-out documents) is predicted by both the full-precision model
    and the staged quantized artifact, and the export raises
    :class:`ArtifactError` — publishing nothing — if macro-F1 between
    the two drops more than ``max_accuracy_delta`` percentage points.
    Passing ``max_accuracy_delta=None`` explicitly skips the gate (the
    manifest then records no ``quantize_check``).
    """
    path = Path(path)
    if quantize is not None and quantize not in QUANTIZE_MODES:
        raise ArtifactError(
            f"unknown quantize mode {quantize!r} "
            f"(expected one of {QUANTIZE_MODES})"
        )
    if quantize is not None and max_accuracy_delta is not None and probe is None:
        raise ArtifactError(
            "quantized export requires a probe corpus for the "
            "accuracy-delta gate (or max_accuracy_delta=None to opt out)"
        )
    if path.exists():
        if not overwrite:
            raise ArtifactError(f"artifact {path} already exists")
        shutil.rmtree(path)
    fitted = getattr(model, "_fitted", True)
    if not fitted:
        raise ArtifactError(
            f"refusing to export unfitted model {type(model).__name__}"
        )

    tmp = path.with_name(f"{path.name}.tmp-{os.getpid()}")
    if tmp.exists():
        shutil.rmtree(tmp)
    tmp.mkdir(parents=True)
    try:
        with obs.span("serve:export", method=type(model).__name__,
                      quantize=quantize or "none"):
            plms: list[PretrainedLM] = []
            buffer = io.BytesIO()
            _ExportPickler(buffer, plms).dump(model)
            (tmp / STATE).write_bytes(buffer.getvalue())
            plm_files = []
            for i, plm in enumerate(plms):
                plm_files.append(f"plm_{i}.npz")
                save_plm(plm, tmp / f"plm_{i}.npz", quantize=quantize)

            quantize_check = None
            if quantize is not None and max_accuracy_delta is not None:
                probe_corpus = as_corpus(probe, name="probe")
                if len(probe_corpus) == 0:
                    raise ArtifactError(
                        "quantized export probe corpus is empty"
                    )
                staged = _reload_from_staging(tmp, plm_files)
                ref_preds = model.predict(probe_corpus)
                quant_preds = staged.predict(probe_corpus)
                delta = _prediction_delta(list(ref_preds), list(quant_preds))
                if delta > max_accuracy_delta:
                    raise ArtifactError(
                        f"refusing to publish {quantize} artifact: "
                        f"accuracy delta {delta:.2f} macro-F1 points on "
                        f"{len(probe_corpus)} probe docs exceeds the "
                        f"{max_accuracy_delta:.2f}-point gate"
                    )
                quantize_check = {
                    "probe_docs": len(probe_corpus),
                    "max_accuracy_delta": float(max_accuracy_delta),
                    "accuracy_delta": round(float(delta), 4),
                }
                obs.count("serve.quantize_gate_passed")

            files = {}
            for name in [STATE, *plm_files]:
                file_path = tmp / name
                files[name] = {"sha256": _sha256(file_path),
                               "bytes": file_path.stat().st_size}
            label_set = getattr(model, "label_set", None)
            manifest = {
                "schema": ARTIFACT_SCHEMA,
                "kind": "repro.serve.artifact",
                "method": type(model).__name__,
                "method_module": type(model).__module__,
                "multi_label": isinstance(model, MultiLabelTextClassifier),
                "labels": list(label_set.labels) if label_set is not None else None,
                "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
                "plms": plm_files,
                "quantize": quantize,
                "quantize_check": quantize_check,
                "files": files,
                "digest": _combined_digest(files),
                "provenance": dict(provenance or {}),
            }
            (tmp / MANIFEST).write_text(json.dumps(manifest, indent=2,
                                                   sort_keys=True) + "\n")
        os.replace(tmp, path)
    finally:
        if tmp.exists():
            shutil.rmtree(tmp)
    obs.count("serve.exports")
    return path


# ---------------------------------------------------------------------------
# Load
# ---------------------------------------------------------------------------

def read_manifest(path: "str | Path") -> dict:
    """The parsed, schema-checked manifest of artifact ``path``."""
    path = Path(path)
    manifest_path = path / MANIFEST
    if not manifest_path.exists():
        raise ArtifactError(f"{manifest_path} does not exist "
                            "(not an artifact directory?)")
    try:
        manifest = json.loads(manifest_path.read_text())
    except (ValueError, OSError) as exc:
        raise ArtifactError(f"{manifest_path} is unreadable: {exc}") from exc
    if not isinstance(manifest, dict) or manifest.get("kind") != "repro.serve.artifact":
        raise ArtifactError(f"{manifest_path} is not a repro model manifest")
    schema = manifest.get("schema")
    if schema != ARTIFACT_SCHEMA:
        raise ArtifactError(
            f"{manifest_path} has schema {schema!r}; this build reads "
            f"schema {ARTIFACT_SCHEMA}"
        )
    return manifest


def verify_artifact(path: "str | Path", manifest: "dict | None" = None) -> dict:
    """Check every payload file of ``path`` against its recorded digest.

    Returns the manifest; raises :class:`ArtifactError` naming the first
    missing or tampered file.
    """
    path = Path(path)
    manifest = manifest or read_manifest(path)
    files = manifest.get("files", {})
    for name, meta in files.items():
        file_path = path / name
        if not file_path.exists():
            raise ArtifactError(f"artifact file {file_path} is missing")
        actual = _sha256(file_path)
        if actual != meta.get("sha256"):
            raise ArtifactError(
                f"digest mismatch for {file_path}: manifest records "
                f"{meta.get('sha256')!r}, file hashes {actual!r}"
            )
    if manifest.get("digest") != _combined_digest(files):
        raise ArtifactError(
            f"combined content digest mismatch in {path / MANIFEST}"
        )
    return manifest


class ServableModel:
    """A loaded artifact: the fitted method plus its manifest.

    ``predict``/``scores`` accept raw strings, token lists, or a
    :class:`Corpus`; single- and multi-label methods are served through
    the same surface (the manifest records which one this is).
    """

    def __init__(self, model, manifest: dict, path: "Path | None" = None):
        self.model = model
        self.manifest = manifest
        self.path = path

    @property
    def labels(self) -> "list | None":
        return self.manifest.get("labels")

    @property
    def multi_label(self) -> bool:
        return bool(self.manifest.get("multi_label"))

    @property
    def quantize(self) -> "str | None":
        """Weight format of the artifact (``int8``/``float16``/None)."""
        return self.manifest.get("quantize")

    def predict(self, docs) -> list:
        """Predicted label (or label tuple, multi-label) per document."""
        return self.model.predict(as_corpus(docs))

    def scores(self, docs) -> np.ndarray:
        """(n_docs, n_labels) probabilities / relevance scores."""
        corpus = as_corpus(docs)
        if self.multi_label:
            return self.model.score(corpus)
        return self.model.predict_proba(corpus)

    def predict_scored(self, docs) -> tuple:
        """``(labels, scores)`` from one forward.

        The labels are the model's own rule (``labels_from``) over the
        matrix :meth:`scores` returns, so they equal :meth:`predict`.
        """
        scores = self.scores(docs)
        return self.model.labels_from(scores), scores

    def warmup(self) -> None:
        """One throwaway predict so first real requests skip lazy init."""
        with obs.span("serve:warmup", method=self.manifest.get("method")):
            self.predict([["warmup"]])

    def __repr__(self) -> str:
        return (f"ServableModel(method={self.manifest.get('method')}, "
                f"labels={len(self.labels or [])})")


def load_artifact(path: "str | Path", verify: bool = True) -> ServableModel:
    """Reconstruct the fitted method snapshotted at ``path``.

    With ``verify`` (the default) every payload file is digest-checked
    first, so a flipped bit fails loudly as :class:`ArtifactError` before
    any bytes are unpickled.
    """
    path = Path(path)
    with obs.span("serve:load", artifact=str(path)):
        manifest = read_manifest(path)
        if verify:
            verify_artifact(path, manifest)
        plms = []
        for name in manifest.get("plms", []):
            plms.append(load_plm(path / name))
        state_path = path / STATE
        try:
            with open(state_path, "rb") as fh:
                model = _ImportUnpickler(fh, plms).load()
        except ArtifactError:
            raise
        except FileNotFoundError:
            raise ArtifactError(f"artifact file {state_path} is missing") from None
        except Exception as exc:  # pickle raises a zoo of types on bad bytes
            raise ArtifactError(
                f"artifact state {state_path} is corrupt: "
                f"{type(exc).__name__}: {exc}"
            ) from exc
    obs.count("serve.loads")
    return ServableModel(model, manifest, path=path)
