"""Model serving layer: artifact store, versioned registry, micro-batcher.

Training a weakly-supervised method is minutes-scale; classifying with a
trained one is milliseconds-scale. This package splits the two so trained
pipelines can be persisted, named, and served:

- :mod:`repro.serve.artifacts` — predict-only snapshots of fitted
  methods (PLM weights via :mod:`repro.plm.io`, method state, label
  space), written atomically with a schema version and content digest;
- :mod:`repro.serve.registry` — named models with monotonically
  increasing versions under ``REPRO_MODEL_DIR``, ``latest`` alias, and
  digest verification on load;
- :mod:`repro.serve.engine` — a thread-safe micro-batching server that
  coalesces concurrent classify requests into the PLM engine's batched
  encode path, with deadlines and load-shedding backpressure;
- :mod:`repro.serve.pool` — a multi-process replica pool: N worker
  processes, each a plain predict loop over the artifact, behind
  least-loaded dispatch, with typed cross-process error propagation;
- :mod:`repro.serve.http` — the stdlib JSON/HTTP front door over a pool
  (``/classify`` with 429/504 backpressure codes, ``/healthz``,
  ``/stats``).

CLI: ``python -m repro serve export|list|inspect|predict|pool|evict``.
"""

from repro.serve.artifacts import (
    ARTIFACT_SCHEMA,
    ServableModel,
    as_corpus,
    export_artifact,
    load_artifact,
    read_manifest,
)
from repro.serve.engine import ServeConfig, ServingEngine
from repro.serve.http import PoolServer
from repro.serve.pool import PoolConfig, ReplicaPool
from repro.serve.registry import ModelRegistry

__all__ = [
    "ARTIFACT_SCHEMA",
    "ServableModel",
    "as_corpus",
    "export_artifact",
    "load_artifact",
    "read_manifest",
    "ModelRegistry",
    "ServeConfig",
    "ServingEngine",
    "PoolConfig",
    "PoolServer",
    "ReplicaPool",
]
