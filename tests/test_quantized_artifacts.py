"""Quantized predict-only artifacts: formats, gate, registry, CLI.

The contract under test: ``quantize="int8"`` / ``"float16"`` produce
smaller archives whose dequantized weights are deterministic — the same
archive loads bit-identically in this process and in a fresh
interpreter — and every quantized export passes through an
accuracy-delta gate that refuses to publish an artifact whose
predictions diverge from the float32 reference beyond the threshold.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.exceptions import ArtifactError
from repro.datasets import load_profile
from repro.methods import XClass
from repro.plm.io import (
    QUANTIZE_MODES,
    dequantize_int8,
    load_plm,
    quantize_int8,
    save_plm,
)
from repro.plm.model import PretrainedLM
from repro.serve import ModelRegistry, export_artifact, load_artifact
from repro.serve import artifacts as artifacts_mod

pytestmark = pytest.mark.serving

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(scope="module")
def quant_bundle():
    return load_profile("agnews", seed=0, scale=0.3)


@pytest.fixture(scope="module")
def fitted(quant_bundle, tiny_plm):
    model = XClass(plm=tiny_plm, seed=0)
    model.fit(quant_bundle.train_corpus, quant_bundle.label_names())
    return model


# ---------------------------------------------------------------------------
# Quantization kernels
# ---------------------------------------------------------------------------

def test_int8_codes_and_scales_shapes(rng):
    weights = rng.standard_normal((16, 8)).astype(np.float32)
    codes, scales = quantize_int8(weights)
    assert codes.dtype == np.int8 and codes.shape == weights.shape
    assert scales.dtype == np.float32 and scales.shape == (16, 1)
    # Absmax rows hit the full code range; reconstruction is close.
    assert np.abs(codes).max() == 127
    restored = dequantize_int8(codes, scales, "float32")
    assert restored.dtype == np.float32
    np.testing.assert_allclose(restored, weights,
                               atol=float(np.abs(weights).max()) / 127 + 1e-7)


def test_int8_zero_rows_do_not_divide_by_zero():
    weights = np.zeros((3, 4), dtype=np.float32)
    weights[1] = [1.0, -2.0, 0.5, 0.0]
    codes, scales = quantize_int8(weights)
    assert scales[0] == 1.0 and scales[2] == 1.0
    restored = dequantize_int8(codes, scales, "float32")
    np.testing.assert_array_equal(restored[0], 0.0)
    np.testing.assert_array_equal(restored[2], 0.0)


def test_int8_dequantization_is_deterministic(rng):
    weights = rng.standard_normal((32, 16)).astype(np.float32)
    codes, scales = quantize_int8(weights)
    a = dequantize_int8(codes, scales, "float32")
    b = dequantize_int8(codes.copy(), scales.copy(), "float32")
    np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------------------
# PLM archive round-trips
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("mode", QUANTIZE_MODES)
def test_quantized_archive_smaller_and_bit_stable(tiny_plm, tmp_path, mode):
    full = save_plm(tiny_plm, tmp_path / "full.npz")
    quant = save_plm(tiny_plm, tmp_path / f"{mode}.npz", quantize=mode)
    assert quant.stat().st_size < full.stat().st_size

    first = load_plm(quant)
    second = load_plm(quant)
    for a, b in zip(first.encoder.state_dict(), second.encoder.state_dict()):
        assert a.dtype == np.float32
        np.testing.assert_array_equal(a, b)

    # Lossy but close: dequantized weights track the originals.
    atol = {"int8": 5e-2, "float16": 5e-3}[mode]
    for ours, theirs in zip(tiny_plm.encoder.state_dict(),
                            first.encoder.state_dict()):
        np.testing.assert_allclose(ours, theirs, atol=atol)


def test_unknown_quantize_mode_is_typed_error(tiny_plm, tmp_path):
    with pytest.raises(ArtifactError, match="unknown quantize mode"):
        save_plm(tiny_plm, tmp_path / "bad.npz", quantize="int4")


def test_quantized_load_selects_packed_forward(tiny_plm, tmp_path,
                                              packed_forward_calls):
    docs = [["the", "team", "won"], ["markets", "fell"]]
    # A quantized manifest gives the packed forward ...
    quant = load_plm(save_plm(tiny_plm, tmp_path / "q.npz", quantize="int8"))
    PretrainedLM(quant.encoder, enc_cache=None).encode_tokens(docs)
    assert packed_forward_calls["n"] > 0
    # ... and a float archive the Tensor forward.
    packed_forward_calls["n"] = 0
    full = load_plm(save_plm(tiny_plm, tmp_path / "f.npz"))
    PretrainedLM(full.encoder, enc_cache=None).encode_tokens(docs)
    assert packed_forward_calls["n"] == 0


# ---------------------------------------------------------------------------
# Export gate
# ---------------------------------------------------------------------------

def test_quantized_export_records_gate_outcome(fitted, quant_bundle, tmp_path):
    probe = quant_bundle.test_corpus[:24]
    path = export_artifact(fitted, tmp_path / "int8", quantize="int8",
                           probe=probe)
    manifest = json.loads((path / "manifest.json").read_text())
    assert manifest["quantize"] == "int8"
    check = manifest["quantize_check"]
    assert check["probe_docs"] == 24
    assert check["accuracy_delta"] <= check["max_accuracy_delta"]

    loaded = load_artifact(path)
    assert loaded.quantize == "int8"
    # The quantized engine path serves real predictions over the probe.
    assert len(loaded.predict(quant_bundle.test_corpus.token_lists()[:8])) == 8


def test_gate_refuses_and_publishes_nothing(fitted, quant_bundle, tmp_path,
                                            monkeypatch):
    monkeypatch.setattr(artifacts_mod, "_prediction_delta",
                        lambda ref, quant: 7.5)
    target = tmp_path / "diverged"
    with pytest.raises(ArtifactError, match="accuracy delta 7.50"):
        export_artifact(fitted, target, quantize="int8",
                        probe=quant_bundle.test_corpus[:16])
    # Refusal is atomic: no half-written artifact directory remains.
    assert not target.exists()


def test_gate_scores_multilabel_predictions():
    delta = artifacts_mod._prediction_delta(
        [("a", "b"), ("c",)], [("a", "b"), ("c",)])
    assert delta == 0.0
    diverged = artifacts_mod._prediction_delta(
        [("a", "b"), ("c",)], [("a",), ("c", "b")])
    assert diverged > 0.0


def test_gate_refuses_mixed_arity_predictions():
    # A quantized reload that changes the prediction *shape* (bare labels
    # vs label sets) must fail typed, not produce a meaningless F1.
    with pytest.raises(ArtifactError, match="mixed\\s+arity"):
        artifacts_mod._prediction_delta(["a", "b"], [("a",), ("b",)])
    with pytest.raises(ArtifactError, match="mixed\\s+arity"):
        artifacts_mod._prediction_delta(["a", ("b",)], ["a", ("b",)])
    # Strings are bare labels, never iterated as label collections.
    assert artifacts_mod._prediction_delta(["ab", "cd"], ["ab", "cd"]) == 0.0


def test_quantized_export_requires_probe(fitted, tmp_path):
    with pytest.raises(ArtifactError, match="probe"):
        export_artifact(fitted, tmp_path / "noprobe", quantize="int8")
    # Explicitly opting out of the gate is allowed but recorded.
    path = export_artifact(fitted, tmp_path / "ungated", quantize="int8",
                           max_accuracy_delta=None)
    manifest = json.loads((path / "manifest.json").read_text())
    assert manifest["quantize_check"] is None


# ---------------------------------------------------------------------------
# Registry, CLI, cross-process stability
# ---------------------------------------------------------------------------

def test_registry_publishes_and_describes_variant(fitted, quant_bundle,
                                                  tmp_path):
    registry = ModelRegistry(tmp_path / "models")
    registry.publish("plain", fitted)
    registry.publish("small", fitted, quantize="int8",
                     probe=quant_bundle.test_corpus[:16])
    by_name = {row["name"]: row for row in registry.describe()}
    assert by_name["plain"]["quantize"] == "-"
    assert by_name["small"]["quantize"] == "int8"
    assert registry.load("small").quantize == "int8"


def test_cli_export_quantized(tmp_path, capsys):
    from repro import __main__ as entry

    root = str(tmp_path / "registry")
    rc = entry.main(["serve", "--root", root, "export", "--method", "xclass",
                     "--profile", "agnews", "--scale", "0.2",
                     "--name", "cli-int8", "--quantize", "int8",
                     "--probe-docs", "16"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "[int8]" in out and "gate:" in out

    assert entry.main(["serve", "--root", root, "inspect", "cli-int8"]) == 0
    manifest = json.loads(capsys.readouterr().out)
    assert manifest["quantize"] == "int8"
    assert manifest["quantize_check"]["probe_docs"] == 16


def test_quantized_predictions_bit_identical_across_processes(
        fitted, quant_bundle, tmp_path):
    path = export_artifact(fitted, tmp_path / "int8", quantize="int8",
                           probe=quant_bundle.test_corpus[:16])
    docs = quant_bundle.test_corpus.token_lists()[:12]
    reference = load_artifact(path).scores(docs)
    (tmp_path / "docs.json").write_text(json.dumps(docs))

    script = (
        "import json, sys\n"
        "import numpy as np\n"
        "from repro.serve import load_artifact\n"
        "artifact, docs_path, out_path = sys.argv[1:4]\n"
        "docs = json.loads(open(docs_path).read())\n"
        "np.save(out_path, load_artifact(artifact).scores(docs))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script, str(path),
         str(tmp_path / "docs.json"), str(tmp_path / "out.npy")],
        capture_output=True, text=True, timeout=300,
        env={**os.environ,
             "PYTHONPATH": str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", "")},
    )
    assert result.returncode == 0, result.stderr
    fresh = np.load(tmp_path / "out.npy")
    np.testing.assert_array_equal(fresh, reference)
