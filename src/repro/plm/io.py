"""Saving and loading pre-trained models.

A fitted :class:`~repro.plm.model.PretrainedLM` serializes to a single
``.npz`` file: the parameter arrays (in ``Module.parameters()`` order), the
vocabulary tokens, counts, the config fields and the pre-training seed —
enough to rebuild the model, and the fine-tuning heads the provider
trains on it, bit-identically in another process, skipping pre-training.
Writes are atomic (a process-unique tmp file, then ``os.replace``).

The archive records its compute dtype explicitly (``meta["dtype"]``), and
:func:`load_plm` rebuilds the encoder *under that dtype* regardless of the
process-wide default (:func:`repro.nn.tensor.get_default_dtype`). A
float32-trained model therefore loads bit-exact in a float64-default
process and vice versa — ``Module.load_state_dict`` casts checkpoints to
the receiving parameters' dtype, so the parameters must be created at the
archive's dtype first.

Predict-only archives can be **quantized** (``quantize="int8"`` or
``"float16"``). int8 stores every matrix-shaped parameter as int8 codes
plus per-row float32 absmax scales (``scale_<i>``); vectors (biases,
norm gains) stay at full precision — they are tiny and their error would
be amplified by every token. float16 halves every float array. Both
variants dequantize back to the archive's compute dtype at load, and the
loaded encoder runs the packed predict-only forward
(:mod:`repro.plm.infer`) — quantization already forfeited bit-exactness
with the trainer, so the faster float32-ulp kernel costs nothing
further. Float archives keep the Tensor forward. Dequantization is
deterministic, so a quantized archive loads bit-identically across
processes and hosts.

Corrupt or truncated archives raise
:class:`~repro.core.exceptions.ArtifactError` naming the file, never a
bare numpy/zipfile/JSON error.
"""

from __future__ import annotations

import json
import os
import zipfile
from pathlib import Path

import numpy as np

from repro.core.exceptions import ArtifactError
from repro.nn.tensor import default_dtype
from repro.plm.config import PLMConfig
from repro.plm.encoder import TransformerEncoder
from repro.plm.infer import packed_encoder
from repro.plm.model import PretrainedLM
from repro.text.vocabulary import Vocabulary

#: Supported ``quantize=`` values for :func:`save_plm` / export_artifact.
QUANTIZE_MODES = ("int8", "float16")


def quantize_int8(array: np.ndarray) -> tuple:
    """Per-row absmax int8 codes and float32 scales for a float matrix.

    The scale keeps the row's leading axis with trailing singleton dims,
    so ``codes * scales`` broadcasts back to ``array.shape``. All-zero
    rows get scale 1.0 (codes are already 0), avoiding 0/0.
    """
    reduce_axes = tuple(range(1, array.ndim))
    absmax = np.abs(array).max(axis=reduce_axes, keepdims=True)
    scales = (absmax / 127.0).astype(np.float32)
    scales[absmax == 0.0] = np.float32(1.0)
    codes = np.rint(array / scales).astype(np.int8)
    return codes, scales


def dequantize_int8(codes: np.ndarray, scales: np.ndarray,
                    dtype: str) -> np.ndarray:
    """Reconstruct the float matrix from int8 codes and per-row scales."""
    return (codes.astype(dtype) * scales.astype(dtype))


def save_plm(plm: PretrainedLM, path: "str | Path",
             quantize: "str | None" = None) -> Path:
    """Serialize ``plm`` to ``path`` (``.npz`` appended if missing).

    ``quantize`` selects a predict-only weight format (see module
    docstring); ``None`` keeps the lossless full-precision archive.
    """
    if quantize is not None and quantize not in QUANTIZE_MODES:
        raise ArtifactError(
            f"unknown quantize mode {quantize!r} "
            f"(expected one of {QUANTIZE_MODES})"
        )
    path = Path(path)
    encoder = plm.encoder
    vocab = encoder.vocabulary
    tokens = [vocab.token(i) for i in range(len(vocab))]
    counts = [vocab.frequency(t) for t in tokens]
    state = encoder.state_dict()
    payload = {}
    for i, array in enumerate(state):
        if quantize == "int8" and array.ndim >= 2:
            codes, scales = quantize_int8(array)
            payload[f"param_{i}"] = codes
            payload[f"scale_{i}"] = scales
        elif quantize == "float16":
            payload[f"param_{i}"] = array.astype(np.float16)
        else:
            payload[f"param_{i}"] = array
    payload["meta"] = np.asarray(
        json.dumps(
            {
                "config": dict(encoder.config.__dict__),
                "tokens": tokens,
                "counts": counts,
                "n_params": len(state),
                # The compute dtype the parameters were trained at; load
                # rebuilds the encoder under it for bit-exact round-trips
                # (quantized variants dequantize back to this dtype).
                "dtype": str(np.dtype(state[0].dtype)) if state else "float32",
                "quantize": quantize,
                # The pre-training seed the fine-tuning heads derive from.
                "seed": int(plm.seed),
            }
        ),
        dtype=np.str_,
    )
    final = path if path.suffix == ".npz" else path.with_suffix(
        path.suffix + ".npz")
    # A process-unique tmp name, then an atomic rename: concurrent
    # writers of one archive never collide, and readers never see a
    # partial file.
    tmp = final.with_name(f".{final.name}.{os.getpid()}.tmp.npz")
    try:
        np.savez_compressed(tmp, **payload)
        os.replace(tmp, final)
    finally:
        tmp.unlink(missing_ok=True)
    return final


def load_plm(path: "str | Path") -> PretrainedLM:
    """Rebuild a :class:`PretrainedLM` saved by :func:`save_plm`.

    Quantized archives are dequantized deterministically back to the
    archive's compute dtype (pre-dtype-field archives fall back to the
    stored arrays' dtype — npz preserves it). The model carries no
    encode cache: :mod:`repro.plm.provider` attaches one where documents
    repeat. Raises
    :class:`ArtifactError` (naming ``path``) when the archive is corrupt,
    truncated, or missing expected entries.
    """
    path = Path(path)
    try:
        with np.load(path, allow_pickle=False) as data:
            meta = json.loads(str(data["meta"]))
            quantize = meta.get("quantize")
            dtype = meta.get("dtype") or "float32"
            arrays = []
            for i in range(meta["n_params"]):
                array = data[f"param_{i}"]
                if quantize == "int8" and array.dtype == np.int8:
                    array = dequantize_int8(array, data[f"scale_{i}"], dtype)
                elif quantize == "float16":
                    array = array.astype(dtype)
                arrays.append(array)
    except FileNotFoundError:
        raise ArtifactError(f"PLM archive {path} does not exist") from None
    except (zipfile.BadZipFile, OSError, ValueError, KeyError,
            json.JSONDecodeError) as exc:
        raise ArtifactError(
            f"PLM archive {path} is corrupt or truncated: {exc}"
        ) from exc
    dtype = meta.get("dtype") or (str(arrays[0].dtype) if arrays
                                  else "float32")
    config = PLMConfig(**meta["config"])
    n_specials = len(Vocabulary().specials)
    vocab = Vocabulary()
    for token, count in zip(meta["tokens"][n_specials:],
                            meta["counts"][n_specials:]):
        vocab.add(token, count=int(count))
    rng = np.random.default_rng(0)  # weights are overwritten below
    try:
        with default_dtype(dtype):
            encoder = TransformerEncoder(vocab, config, rng)
            encoder.load_state_dict(arrays)
    except ValueError as exc:
        raise ArtifactError(
            f"PLM archive {path} does not match its manifest: {exc}"
        ) from exc
    if quantize is not None:
        # Quantized archives are predict-only and already non-bit-exact
        # with the trainer, so they run the packed forward.
        packed_encoder(encoder)
    return PretrainedLM(encoder, seed=int(meta.get("seed", 0)))
