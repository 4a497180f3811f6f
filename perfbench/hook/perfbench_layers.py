"""Benchmark-side layer timers for the traced run.

The traced run measures each layer of the program by wrapping calls into
that layer -- its public entry points, or, where a layer has no public
seam (spawn targets, the HTTP handler), the narrowest module-level one.
Nothing under ``src/`` changes: :func:`install` adds an import hook that
patches each target module right after it executes, before any other
module can bind its names, so the wrappers see every call.

Every process that installs the timers writes its totals to
``<dir>/<pid>.json`` when it exits; :func:`collect` reads them back.
Records per process:

- ``timers``: name -> [calls, seconds];
- ``samples``: name -> per-call milliseconds, for percentiles;
- ``counts``: name -> number;
- ``keyed``: name -> {request key: seconds}, to pair a client's request
  with the server-side time of the same request;
- ``role``: ``replica`` / ``dag-worker`` for spawn workers, ``setup``
  for set-up processes, else ``main``.
"""

from __future__ import annotations

import atexit
import functools
import importlib.abc
import json
import os
import sys
import threading
import time

_clock = time.perf_counter
_lock = threading.Lock()
_local = threading.local()

_timers: dict = {}
_samples: dict = {}
_counts: dict = {}
_keyed: dict = {}
_pool_requests: list = []
_engine_t0: dict = {}
_meta: dict = {"role": "main"}
_installed: list = []

BATCHER_THREAD = "repro-serve-batcher"


# ---------------------------------------------------------------------------
# recording
# ---------------------------------------------------------------------------

def observe(name: str, seconds: float, sample: bool = False) -> None:
    with _lock:
        entry = _timers.get(name)
        if entry is None:
            _timers[name] = [1, seconds]
        else:
            entry[0] += 1
            entry[1] += seconds
        if sample:
            _samples.setdefault(name, []).append(seconds * 1000.0)


def add(name: str, value: float = 1) -> None:
    with _lock:
        _counts[name] = _counts.get(name, 0) + value


def _flag(name: str) -> bool:
    return getattr(_local, name, False)


def doc_key(doc) -> str:
    """Stable key of one request document (text or token list)."""
    return doc if isinstance(doc, str) else " ".join(map(str, doc))


def _timed(fn, name: str, *, sample: bool = False, cover: bool = False,
           flag: "str | None" = None, after=None):
    """Wrap ``fn``: time every call under ``name``.

    ``cover`` marks a layer whose outermost calls count toward
    ``trace.coverage``; ``flag`` sets a thread-local marker while the call
    runs (so nested layers can tell who called them); ``after(args,
    kwargs, result, seconds)`` adds per-call detail.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        outer = cover and not _flag("covering")
        if outer:
            _local.covering = True
        if flag is not None:
            previous = _flag(flag)
            setattr(_local, flag, True)
        start = _clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            seconds = _clock() - start
            if flag is not None:
                setattr(_local, flag, previous)
            if outer:
                _local.covering = False
                observe("cover", seconds)
            observe(name, seconds, sample)
        if after is not None:
            after(args, kwargs, result, seconds)
        return result

    wrapper.__perfbench_wrapped__ = True
    return wrapper


def _wrap(owner, attr: str, name: str, **options) -> None:
    fn = getattr(owner, attr)
    if getattr(fn, "__perfbench_wrapped__", False):
        return
    setattr(owner, attr, _timed(fn, name, **options))


def _process_age_s() -> float:
    """Seconds since this process was created (from /proc)."""
    with open("/proc/self/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    ticks = os.sysconf("SC_CLK_TCK")
    with open("/proc/uptime") as fh:
        uptime = float(fh.read().split()[0])
    return uptime - int(fields[19]) / ticks


def _worker_entry(fn, role: str):
    """Wrap a spawn target: tag the process and time its start-up."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        _meta["role"] = role
        observe(f"worker.start.{role}", _process_age_s())
        return fn(*args, **kwargs)

    wrapper.__perfbench_wrapped__ = True
    return wrapper


# ---------------------------------------------------------------------------
# per-module patches
# ---------------------------------------------------------------------------

def _patch_serve_pool(m) -> None:
    _wrap(m.ReplicaPool, "__init__", "serve.pool.start")

    def classify_detail(args, kwargs, result, seconds):
        docs = args[1] if len(args) > 1 else kwargs["docs"]
        with _lock:
            _keyed.setdefault("serve.pool.classify", {})[
                doc_key(docs[0])] = seconds

    _wrap(m.ReplicaPool, "classify", "serve.pool.classify",
          after=classify_detail)

    submit = m.ReplicaPool.submit
    overloaded = m.Overloaded

    @functools.wraps(submit)
    def pool_submit(self, docs, *args, **kwargs):
        try:
            request = submit(self, docs, *args, **kwargs)
        except overloaded:
            add("serve.pool.shed")
            raise
        add("serve.pool.dispatched")
        with _lock:
            _pool_requests.append(request)
        return request

    m.ReplicaPool.submit = pool_submit
    m._pool_worker_main = _worker_entry(m._pool_worker_main, "replica")


def _patch_serve_engine(m) -> None:
    submit = m.ServingEngine.submit

    @functools.wraps(submit)
    def engine_submit(self, docs, *args, **kwargs):
        start = _clock()
        request = submit(self, docs, *args, **kwargs)
        with _lock:
            _engine_t0[id(request)] = start
        add("serve.engine.requests")
        return request

    m.ServingEngine.submit = engine_submit
    resolve = m.Request.resolve

    @functools.wraps(resolve)
    def request_resolve(self, result):
        now = _clock()
        with _lock:
            start = _engine_t0.pop(id(self), None)
        if start is not None:
            engine_s = now - start
            observe("serve.engine.request", engine_s)
            observe("serve.engine.queue_wait",
                    max(0.0, engine_s - getattr(_local, "batch_model_s", 0.0)),
                    sample=True)
        _local.resolved = True
        return resolve(self, result)

    m.Request.resolve = request_resolve


def _serving_call(fn, name: str):
    """ServableModel.predict/scores: batch accounting on batcher threads."""

    @functools.wraps(fn)
    def wrapper(self, docs, *args, **kwargs):
        batcher = threading.current_thread().name == BATCHER_THREAD
        if batcher and getattr(_local, "resolved", True):
            _local.resolved = False
            _local.batch_model_s = 0.0
            add("serve.engine.batches")
            add("serve.engine.docs", len(docs))
        encode_before = getattr(_local, "encode_s", 0.0)
        start = _clock()
        try:
            return fn(self, docs, *args, **kwargs)
        finally:
            seconds = _clock() - start
            if batcher:
                _local.batch_model_s += seconds
                add("serve.predict_calls")
                observe(name, seconds)
                encode_s = getattr(_local, "encode_s", 0.0) - encode_before
                observe("methods.head", max(0.0, seconds - encode_s))

    wrapper.__perfbench_wrapped__ = True
    return wrapper


def _patch_serve_artifacts(m) -> None:
    m.ServableModel.predict = _serving_call(m.ServableModel.predict,
                                            "serve.predict")
    m.ServableModel.scores = _serving_call(m.ServableModel.scores,
                                           "serve.scores")
    _wrap(m, "load_artifact", "serve.artifacts.load")


def _patch_serve_registry(m) -> None:
    _wrap(m.ModelRegistry, "publish", "serve.registry.publish")


def _patch_serve_http(m) -> None:
    _wrap(m._Handler, "do_POST", "serve.http.handler")


def _patch_enc_cache(m) -> None:
    def detail(args, kwargs, result, seconds):
        add("enc_cache.gets")
        if result is not None:
            add("enc_cache.hits")

    _wrap(m.EncodeCache, "get", "enc_cache.get", after=detail)


def _patch_plm_model(m) -> None:
    def detail(args, kwargs, result, seconds):
        add("plm.model.requested_docs", len(args[1]))
        _local.encode_s = getattr(_local, "encode_s", 0.0) + seconds

    _wrap(m.PretrainedLM, "_encode_ids", "plm.model.encode", cover=True,
          after=detail)


def _patch_plm_engine(m) -> None:
    def detail(args, kwargs, result, seconds):
        add("plm.model.encoded_docs", len(args[1]))

    _wrap(m, "encode_hidden", "plm.engine.encode_hidden", after=detail)
    _wrap(m, "run_encoder", "plm.engine.run", flag="in_engine")


def _patch_plm_encoder(m) -> None:
    pad_batch = m.pad_batch

    @functools.wraps(pad_batch)
    def timed_pad_batch(id_lists, pad_id, max_len):
        start = _clock()
        ids, pad_mask = pad_batch(id_lists, pad_id, max_len)
        if _flag("in_engine"):
            observe("plm.engine.pad", _clock() - start)
            add("plm.engine.batches")
            add("plm.engine.padded_tokens", int(ids.size))
            add("plm.engine.real_tokens", int(ids.size - pad_mask.sum()))
        return ids, pad_mask

    timed_pad_batch.__perfbench_wrapped__ = True
    m.pad_batch = timed_pad_batch

    def detail(args, kwargs, result, seconds):
        ids = args[1]
        pad_mask = args[2] if len(args) > 2 else kwargs.get("pad_mask")
        real = ids.size - (int(pad_mask.sum()) if pad_mask is not None else 0)
        add("plm.encoder.tokens", real)

    _wrap(m.TransformerEncoder, "forward", "plm.encoder.forward",
          flag="in_encoder", after=detail)


def _patch_nn_layers(m) -> None:
    forward = m.Embedding.forward

    @functools.wraps(forward)
    def embedding_forward(self, ids):
        if not _flag("in_encoder"):
            return forward(self, ids)
        start = _clock()
        try:
            return forward(self, ids)
        finally:
            observe("plm.encoder.embed", _clock() - start)

    embedding_forward.__perfbench_wrapped__ = True
    m.Embedding.forward = embedding_forward
    _wrap(m.MultiHeadSelfAttention, "forward", "plm.encoder.attention")
    _wrap(m.FeedForward, "forward", "plm.encoder.ffn")


def _patch_plm_infer(m) -> None:
    _wrap(m.PackedEncoder, "forward", "plm.infer.forward")


def _patch_pretrainer(m) -> None:
    _wrap(m, "pretrain_mlm", "nn.pretrain", cover=True)


def _patch_optim(m) -> None:
    for cls in (m.SGD, m.Adam):
        _wrap(cls, "step", "nn.step")


def _patch_classifiers(m) -> None:
    _wrap(m.TokenClassifier, "fit", "classifiers.fit", cover=True)


def _patch_catalog(m) -> None:
    _wrap(m, "load_profile", "datasets.generate", cover=True)


def _patch_taxogen_scoring(m) -> None:
    _wrap(m.EdgeScorer, "affinity_matrix", "taxogen.affinity", cover=True)
    _wrap(m.EdgeScorer, "_support", "taxogen.evidence.support")
    _wrap(m.EdgeScorer, "_estimate_lexicons", "taxogen.evidence.lexicons")


def _patch_taxogen_repair(m) -> None:
    _wrap(m.TaxonomyRepairer, "plan_edges", "taxogen.repair", cover=True)


def _patch_pipeline_source(m) -> None:
    _wrap(m.StreamSource, "read", "pipeline.source.read", cover=True)


def _patch_pipeline_stages(m) -> None:
    _wrap(m.TokenizeStage, "process", "pipeline.tokenize", cover=True)
    _wrap(m.DedupeStage, "process", "pipeline.dedupe", cover=True)
    _wrap(m.StoreStage, "process", "pipeline.store.stage", cover=True)
    _wrap(m.ClassifyStage, "process", "pipeline.classify", cover=True)


def _patch_pipeline_store(m) -> None:
    _wrap(m.CorpusStore, "append", "pipeline.store.append")
    _wrap(m.CorpusStore, "append_predictions", "pipeline.store.predictions",
          cover=True)
    _wrap(m.CorpusStore, "write_checkpoint", "pipeline.store.checkpoint",
          cover=True)


def _patch_pipeline_drift(m) -> None:
    _wrap(m.DriftMonitor, "observe", "pipeline.drift.observe", cover=True)


def _patch_pipeline_refit(m) -> None:
    _wrap(m, "run_refit", "pipeline.refit.fit", cover=True, sample=True)


def _patch_pipeline_clients(m) -> None:
    _wrap(m.EngineClient, "reload", "pipeline.refit.reload", cover=True,
          sample=True)


def _patch_experiments_engine(m) -> None:
    execute = m._execute_row

    @functools.wraps(execute)
    def execute_row(spec, row_seed):
        start = _clock()
        try:
            return execute(spec, row_seed)
        finally:
            kind = spec.name.split(":", 1)[0]
            if kind not in ("corpus", "encode"):
                kind = "row"
            observe(f"experiments.node.{kind}", _clock() - start)

    execute_row.__perfbench_wrapped__ = True
    m._execute_row = execute_row
    m._worker_main = _worker_entry(m._worker_main, "dag-worker")


PATCHES = {
    "repro.serve.pool": _patch_serve_pool,
    "repro.serve.engine": _patch_serve_engine,
    "repro.serve.artifacts": _patch_serve_artifacts,
    "repro.serve.registry": _patch_serve_registry,
    "repro.serve.http": _patch_serve_http,
    "repro.core.enc_cache": _patch_enc_cache,
    "repro.plm.model": _patch_plm_model,
    "repro.plm.engine": _patch_plm_engine,
    "repro.plm.encoder": _patch_plm_encoder,
    "repro.plm.infer": _patch_plm_infer,
    "repro.plm.pretrainer": _patch_pretrainer,
    "repro.nn.layers": _patch_nn_layers,
    "repro.nn.optim": _patch_optim,
    "repro.classifiers.base": _patch_classifiers,
    "repro.datasets.catalog": _patch_catalog,
    "repro.taxogen.scoring": _patch_taxogen_scoring,
    "repro.taxogen.repair": _patch_taxogen_repair,
    "repro.pipeline.source": _patch_pipeline_source,
    "repro.pipeline.stages": _patch_pipeline_stages,
    "repro.pipeline.store": _patch_pipeline_store,
    "repro.pipeline.drift": _patch_pipeline_drift,
    "repro.pipeline.refit": _patch_pipeline_refit,
    "repro.pipeline.clients": _patch_pipeline_clients,
    "repro.experiments.engine": _patch_experiments_engine,
}


class _PatchingFinder(importlib.abc.MetaPathFinder):
    """Finds target modules through the other finders, then patches them
    as soon as their code has run."""

    def find_spec(self, name, path, target=None):
        patch = PATCHES.get(name)
        if patch is None:
            return None
        for finder in sys.meta_path:
            if finder is self or not hasattr(finder, "find_spec"):
                continue
            spec = finder.find_spec(name, path, target)
            if spec is None or spec.loader is None:
                continue
            exec_module = spec.loader.exec_module

            def patched_exec(module, exec_module=exec_module, patch=patch):
                exec_module(module)
                patch(module)

            spec.loader.exec_module = patched_exec
            return spec
        return None


# ---------------------------------------------------------------------------
# lifecycle
# ---------------------------------------------------------------------------

def install(out_dir: str, role: str = "main") -> None:
    """Patch every target module this process imports from now on."""
    if _installed:
        return
    _meta["role"] = role
    already = [name for name in PATCHES if name in sys.modules]
    if already:
        raise RuntimeError(f"install the layer timers before importing "
                           f"{', '.join(already)}")
    _installed.append(out_dir)
    sys.meta_path.insert(0, _PatchingFinder())
    atexit.register(dump)


def calibrate(calls: int = 20000) -> float:
    """Seconds one timed wrapper adds to a call (for trace.overhead_frac)."""

    def noop():
        return None

    wrapped = _timed(noop, "perfbench.calibration")
    best = float("inf")
    for _ in range(3):
        start = _clock()
        for _ in range(calls):
            noop()
        plain = _clock() - start
        start = _clock()
        for _ in range(calls):
            wrapped()
        best = min(best, (_clock() - start - plain) / calls)
    with _lock:
        _timers.pop("perfbench.calibration", None)
    return max(best, 0.0)


def snapshot() -> dict:
    """This process's records, JSON-safe."""
    with _lock:
        pool = [r.latency_s for r in _pool_requests if r.latency_s is not None]
        return {
            "pid": os.getpid(),
            "role": _meta["role"],
            "timers": {k: list(v) for k, v in _timers.items()},
            "samples": {k: list(v) for k, v in _samples.items()},
            "counts": dict(_counts),
            "keyed": {k: dict(v) for k, v in _keyed.items()},
            "pool_latency_s": pool,
        }


def dump() -> None:
    """Write this process's records to ``<dir>/<pid>.json``."""
    if not _installed:
        return
    path = os.path.join(_installed[0], f"{os.getpid()}.json")
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(snapshot(), fh)
    os.replace(tmp, path)


def collect(out_dir: str) -> list:
    """Every process record written under ``out_dir`` (this one included).

    This process's own record is taken here rather than written at exit.
    """
    records = [snapshot()] if _installed else []
    _installed.clear()
    me = str(os.getpid())
    for entry in sorted(os.listdir(out_dir)):
        if entry.endswith(".json") and entry[:-5] != me:
            with open(os.path.join(out_dir, entry)) as fh:
                records.append(json.load(fh))
    return records
