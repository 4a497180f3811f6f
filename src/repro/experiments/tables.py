"""One function per paper table; each returns printable row dicts.

Every function takes ``seed`` (dataset + method seeding) and ``fast``
(True = fewer datasets / lighter methods; the default used by the bench
suite so a full run stays CPU-friendly), plus the scheduler knobs
``jobs``, ``use_cache`` and ``timeout`` (see
:mod:`repro.experiments.scheduler`).
Absolute numbers are not expected to match the paper — the *orderings*
asserted in the benches are.

Tables compile into :class:`~repro.experiments.dag.DagNode` graphs
(:func:`_table_request`): a module-level runner function plus plain-data
kwargs per row, never closures over live PLM/bundle objects, so nodes
pickle cleanly into spawn workers and key the artifact store. Runners
rebuild bundles and PLMs from ``(profile, table_seed)``; in-process
caches (``load_profile`` results here, pre-trained models in
``repro.plm.provider``) make that free after the first row a process
executes.

Every runner receives its node's derived per-row seed (it keys the
artifact store and is the seed for any row-local randomness a runner
introduces), but the experiment definitions — datasets, supervision,
and method construction — are seeded with the *table* seed, exactly as
the serial harness always did. Each row's inputs are pure node data
either way, so numbers are independent of execution order, and the
regenerated tables match the pre-engine serial output bit for bit.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.baselines import (
    PCEM,
    PTE,
    UNEC,
    BertSimpleMatch,
    ClassKG,
    Dataless,
    Doc2Cube,
    Doc2VecRanker,
    EDAContrastive,
    ESim,
    HierDataless,
    HierSVM,
    HierZeroShotTC,
    HIN2Vec,
    IRWithTfidf,
    MATCH,
    Metapath2Vec,
    PLSATopicModel,
    SemiBERT,
    SupervisedBERT,
    SupervisedCharCNN,
    SupervisedCNN,
    SupervisedHAN,
    TextGCN,
    UDAContrastive,
    UDASemiSupervised,
    ZeroShotEntail,
    ZeroShotEntailRanker,
)
from repro.baselines.fewshot import FewShotBERT, FewShotCNN, FewShotHAN
from repro.baselines.word2vec_match import Word2VecMatch
from repro.core.base import MultiLabelTextClassifier as _MLBase
from repro.core.registry import summary_rows
from repro.core.supervision import LabelNames as _LabelNames
from repro.core.supervision import require as _require
from repro.datasets import load_profile
from repro.evaluation.metrics import macro_f1, micro_f1
from repro.experiments.dag import DagNode, TableRequest, scope_for
from repro.experiments.engine import SKIP_ROW, derive_row_seed
from repro.experiments.scheduler import run_requests
from repro.experiments.runner import (
    evaluate_flat,
    evaluate_multilabel,
    gold_single,
)
from repro.experiments.views import coarse_view, dag_as_tree
from repro.hin.metapath import P_COCITED_P, P_REF_P
from repro.methods import (
    ConWea,
    Futex,
    LOTClass,
    MetaCat,
    MICoL,
    PromptClass,
    TaxoClass,
    WeSHClass,
    WeSTClass,
    XClass,
)
from repro.plm.provider import get_pretrained_lm
from repro.taxogen import (
    EdgeScorer,
    TaxonomyRepairer,
    edge_recovery,
    perturb_dag,
)


def _plm(bundle, seed: int):
    return get_pretrained_lm(target_corpus=bundle.train_corpus, seed=seed % 7)


def _fit_flat(classifier, bundle, supervision) -> dict:
    return evaluate_flat(classifier, bundle, supervision)


@lru_cache(maxsize=None)
def _bundle(profile: str, seed: int):
    """Per-process bundle cache: rows re-derive rather than pickle bundles."""
    return load_profile(profile, seed=seed)


@lru_cache(maxsize=None)
def _view(profile: str, seed: int, view: str):
    """``view`` is ``"fine"`` (as generated) or ``"coarse"`` (level-1)."""
    bundle = _bundle(profile, seed)
    return coarse_view(bundle) if view == "coarse" else bundle


def _make(entry: tuple, seed: int, **inject):
    """Construct a method from a ``(cls, kwargs, needs)`` table entry.

    ``needs`` names lazily-built dependencies (``plm``, ``tree``, ...);
    the matching ``inject`` thunk is only called when required, so e.g.
    a non-PLM row in a worker never pays PLM pre-training.
    """
    cls, kwargs, needs = entry
    kwargs = dict(kwargs)
    for name in needs:
        kwargs[name] = inject[name]()
    return cls(seed=seed, **kwargs)


# ---------------------------------------------------------------------------
# DAG compilation (see repro.experiments.dag / .scheduler)
# ---------------------------------------------------------------------------

def _corpus_node(node_seed: int, profile: str, table_seed: int) -> dict:
    """Build (and per-process cache) a dataset bundle; returns its shape.

    The artifact is the build itself — rows re-derive bundles from
    ``(profile, table_seed)`` in whatever process they land in, so this
    node carries only a fingerprint, not the bundle.
    """
    bundle = _bundle(profile, table_seed)
    return {"train_docs": len(bundle.train_corpus),
            "test_docs": len(bundle.test_corpus)}


def _encode_view(profile: str, seed: int, view: str):
    """Bundle whose train corpus seeds the PLM: ``plain`` (as generated)
    or ``auto`` (coarse level-1 when the profile has a tree)."""
    return (_xclass_bundle(profile, seed) if view == "auto"
            else _bundle(profile, seed))


def _encode_node(node_seed: int, profile: str, view: str,
                 table_seed: int) -> dict:
    """Pre-train the profile's PLM and stream every document through it.

    Materializes per-document hidden states into the shared
    :class:`~repro.core.enc_cache.EncodeCache` disk tier, so every row
    node downstream — in any worker process, for any table — encodes
    against warm shards instead of re-running the forward pass.
    """
    bundle = _encode_view(profile, table_seed, view)
    plm = _plm(bundle, table_seed)
    docs = (list(bundle.train_corpus.token_lists())
            + list(bundle.test_corpus.token_lists()))
    for start in range(0, len(docs), 64):  # bounded-memory streaming
        plm.encode_tokens(docs[start:start + 64])
    if plm.enc_cache is not None:
        plm.enc_cache.flush_shards()
    return {"docs_encoded": len(docs),
            "namespace": plm.cache_namespace if plm.enc_cache else ""}


def _table_request(table: str, seed: int, items: list,
                   post=None) -> TableRequest:
    """Compile row declarations into a :class:`TableRequest`.

    ``items`` are ``(row, runner, kwargs, static, profile, view,
    needs_plm, scope)`` tuples. Each row gets a ``corpus:`` dependency
    and — when the method consumes the PLM — an ``encode:`` dependency;
    corpus and encode nodes are declared once per ``(profile, view)``
    here and dedup *across* tables when requests merge into one graph.
    Row node seeds are :func:`derive_row_seed` of the table seed and
    the row name, so a row's numbers depend only on its identity and
    ``--jobs N`` output is bit-identical to serial.
    A ``runner=None`` item is a static row, emitted as-is.
    """
    nodes: "list[DagNode]" = []
    declared: "set[str]" = set()
    row_names: "list[str]" = []

    def declare(node: DagNode) -> str:
        if node.name not in declared:
            declared.add(node.name)
            nodes.append(node)
        return node.name

    for row, runner, kwargs, static, profile, view, needs_plm, scope in items:
        name = f"{table}.{row}"
        row_names.append(name)
        if runner is None:
            declare(DagNode(kind="row", name=name, static=static,
                            table=table, row=row))
            continue
        corpus = declare(DagNode(
            kind="corpus", name=f"corpus:{profile}@{seed}",
            runner=_corpus_node,
            kwargs={"profile": profile, "table_seed": seed},
            seed=derive_row_seed(seed, f"corpus:{profile}"),
        ))
        deps = [corpus]
        if needs_plm:
            deps.append(declare(DagNode(
                kind="encode", name=f"encode:{profile}@{seed}/{view}",
                runner=_encode_node,
                kwargs={"profile": profile, "view": view,
                        "table_seed": seed},
                deps=(corpus,),
                seed=derive_row_seed(seed, f"encode:{profile}/{view}"),
            )))
        declare(DagNode(kind="row", name=name, runner=runner, kwargs=kwargs,
                        deps=tuple(deps), scope=tuple(scope), table=table,
                        row=row, static=static,
                        seed=derive_row_seed(seed, row)))
    return TableRequest(table=table, nodes=nodes, row_names=row_names,
                        post=post)


def _run_table(request: TableRequest, *, jobs, use_cache, timeout,
               select=None, cache_dir=None) -> list:
    """Run one compiled table through the scheduler; returns its rows."""
    return run_requests([request], jobs=jobs, use_cache=use_cache,
                        timeout=timeout, cache_dir=cache_dir,
                        select=select)[request.table]


# ---------------------------------------------------------------------------
# T-WESTCLASS
# ---------------------------------------------------------------------------

_WESTCLASS_METHODS = {
    "IR with tf-idf": (IRWithTfidf, {}, (), ("LABELS", "KEYWORDS", "DOCS")),
    "Topic Model": (PLSATopicModel, {}, (), ("LABELS", "KEYWORDS")),
    "Dataless": (Dataless, {}, (), ("LABELS",)),
    "UNEC": (UNEC, {}, (), ("LABELS",)),
    "PTE": (PTE, {}, (), ("DOCS",)),
    "NoST-CNN": (WeSTClass, {"classifier": "cnn", "self_train": False}, (),
                 ("LABELS", "KEYWORDS", "DOCS")),
    "NoST-HAN": (WeSTClass, {"classifier": "han", "self_train": False}, (),
                 ("LABELS", "KEYWORDS", "DOCS")),
    "WeSTClass-HAN": (WeSTClass, {"classifier": "han"}, (),
                      ("LABELS", "KEYWORDS", "DOCS")),
    "WeSTClass-CNN": (WeSTClass, {"classifier": "cnn"}, (),
                      ("LABELS", "KEYWORDS", "DOCS")),
}


def _westclass_row(row_seed: int, profile: str, method: str,
                   table_seed: int) -> dict:
    bundle = _bundle(profile, table_seed)
    cls, kwargs, needs, supported = _WESTCLASS_METHODS[method]
    sups = {
        "LABELS": bundle.label_names(),
        "KEYWORDS": bundle.keywords(),
        "DOCS": bundle.labeled_documents(5, seed=table_seed),
    }
    row: dict = {}
    for sup_name in ("LABELS", "KEYWORDS", "DOCS"):
        if sup_name not in supported:
            row[f"{sup_name} macro"] = "-"
            row[f"{sup_name} micro"] = "-"
            continue
        metrics = _fit_flat(_make((cls, kwargs, needs), table_seed), bundle,
                            sups[sup_name])
        row[f"{sup_name} macro"] = metrics["macro_f1"]
        row[f"{sup_name} micro"] = metrics["micro_f1"]
    return row


def westclass_request(seed: int = 0, fast: bool = True) -> TableRequest:
    """Compiled WeSTClass pipeline: 3 corpora x 3 supervision types."""
    datasets = ["agnews"] if fast else ["nyt_small", "agnews", "yelp"]
    return _table_request("westclass", seed, [
        (f"{name}/{method}", _westclass_row,
         {"profile": name, "method": method, "table_seed": seed},
         {"Dataset": name, "Method": method}, name, "plain", False,
         scope_for(_WESTCLASS_METHODS[method][0]))
        for name in datasets for method in _WESTCLASS_METHODS
    ])


def westclass_table(seed: int = 0, fast: bool = True, *,
                    jobs: "int | None" = None,
                    use_cache: "bool | None" = None,
                    timeout: "float | None" = None,
                    select=None, cache_dir=None) -> list:
    """WeSTClass results table: 3 corpora x 3 supervision types."""
    return _run_table(westclass_request(seed, fast), jobs=jobs,
                      use_cache=use_cache, timeout=timeout, select=select,
                      cache_dir=cache_dir)


# ---------------------------------------------------------------------------
# T-CONWEA
# ---------------------------------------------------------------------------

_CONWEA_METHODS = {
    "IR-TF-IDF": (IRWithTfidf, {}, ()),
    "Dataless": (Dataless, {}, ()),
    "Word2Vec": (Word2VecMatch, {}, ()),
    "Doc2Cube": (Doc2Cube, {}, ()),
    "WeSTClass": (WeSTClass, {}, ()),
    "ConWea": (ConWea, {}, ("plm",)),
    "ConWea-NoCon": (ConWea, {"contextualize": False}, ("plm",)),
    "ConWea-NoExpan": (ConWea, {"expand": False}, ("plm",)),
    "ConWea-WSD": (ConWea, {"wsd_mode": True}, ("plm",)),
    "HAN-Supervised": (SupervisedHAN, {}, ()),
}


def _conwea_row(row_seed: int, profile: str, view: str, method: str,
                table_seed: int) -> dict:
    bundle = _view(profile, table_seed, view)
    # One PLM per corpus (fine and coarse views share the text).
    classifier = _make(_CONWEA_METHODS[method], table_seed,
                       plm=lambda: _plm(_bundle(profile, table_seed),
                                        table_seed))
    supervision = (
        bundle.label_names() if method == "Dataless" else bundle.keywords()
    )
    metrics = _fit_flat(classifier, bundle, supervision)
    return {"Micro-F1": metrics["micro_f1"], "Macro-F1": metrics["macro_f1"]}


def conwea_request(seed: int = 0, fast: bool = True) -> TableRequest:
    """Compiled ConWea pipeline: coarse/fine views + ablations.

    Both views fit against the *base* bundle's PLM (the views share the
    text), so every row of a profile hangs off one ``plain`` encode node.
    """
    profiles = ["nyt_fine"] if fast else ["nyt_fine", "twenty_news"]
    items = []
    for name in profiles:
        for view in ("coarse", "fine"):
            for method in _CONWEA_METHODS:
                cls, _, needs = _CONWEA_METHODS[method]
                items.append((
                    f"{name}-{view}/{method}", _conwea_row,
                    {"profile": name, "view": view, "method": method,
                     "table_seed": seed},
                    {"View": f"{name}-{view}", "Method": method},
                    name, "plain", "plm" in needs, scope_for(cls),
                ))
    return _table_request("conwea", seed, items)


def conwea_table(seed: int = 0, fast: bool = True, *,
                 jobs: "int | None" = None,
                 use_cache: "bool | None" = None,
                 timeout: "float | None" = None,
                 select=None, cache_dir=None) -> list:
    """ConWea results: coarse/fine views of two tree corpora + ablations."""
    return _run_table(conwea_request(seed, fast), jobs=jobs,
                      use_cache=use_cache, timeout=timeout, select=select,
                      cache_dir=cache_dir)


# ---------------------------------------------------------------------------
# T-LOTCLASS-1 (the MLM replacement-prediction demonstration)
# ---------------------------------------------------------------------------

def _lotclass_prediction_row(row_seed: int, theme: str, word: str,
                             table_seed: int) -> dict:
    bundle = _bundle("agnews", table_seed)
    plm = _plm(bundle, table_seed)
    context = None
    for doc in bundle.train_corpus:
        if doc.labels[0] == theme and word in doc.tokens[:24]:
            context = doc.tokens[:28]
            break
    if context is None:
        return dict(SKIP_ROW)
    position = context.index(word)
    predictions = [w for w, _ in plm.predict_masked(context, position,
                                                    top_k=10)]
    return {
        "Context topic": theme,
        "Sentence (prefix)": " ".join(context[:12]) + " ...",
        "Predictions": ", ".join(predictions),
    }


def lotclass_prediction_request(seed: int = 0, fast: bool = True,
                                word: str = "goal",
                                themes: tuple = ("sports", "business"),
                                ) -> TableRequest:
    """Compiled Table-1 pipeline (``fast`` accepted for registry
    uniformity; the demonstration has no full variant)."""
    return _table_request("lotclass-predictions", seed, [
        (f"agnews/{theme}/{word}", _lotclass_prediction_row,
         {"theme": theme, "word": word, "table_seed": seed},
         {}, "agnews", "plain", True, ())
        for theme in themes
    ])


def lotclass_prediction_rows(seed: int = 0, word: str = "goal",
                             themes: tuple = ("sports", "business"), *,
                             jobs: "int | None" = None,
                             use_cache: "bool | None" = None,
                             timeout: "float | None" = None,
                             select=None, cache_dir=None) -> list:
    """Paper Table 1 analog: MLM predictions for one surface form in two
    different topical contexts."""
    return _run_table(lotclass_prediction_request(seed, word=word,
                                                  themes=themes),
                      jobs=jobs, use_cache=use_cache, timeout=timeout,
                      select=select, cache_dir=cache_dir)


# ---------------------------------------------------------------------------
# T-LOTCLASS-2
# ---------------------------------------------------------------------------

_LOTCLASS_METHODS = {
    "Dataless": (Dataless, {}, (), "names"),
    "WeSTClass": (WeSTClass, {}, (), "names"),
    "BERT w. simple match": (BertSimpleMatch, {}, ("plm",), "names"),
    "Ours w/o. self train": (LOTClass, {"self_train": False}, ("plm",),
                             "names"),
    "Ours": (LOTClass, {}, ("plm",), "names"),
    "UDA (semi-sup.)": (UDASemiSupervised, {}, ("plm",), "docs"),
    "char-CNN (supervised)": (SupervisedCharCNN, {"epochs": 6}, (), "names"),
    "BERT (supervised)": (SupervisedBERT, {}, ("plm",), "names"),
}


def _lotclass_row(row_seed: int, profile: str, method: str,
                  table_seed: int) -> dict:
    bundle = _bundle(profile, table_seed)
    cls, kwargs, needs, sup_kind = _LOTCLASS_METHODS[method]
    classifier = _make((cls, kwargs, needs), table_seed,
                       plm=lambda: _plm(bundle, table_seed))
    supervision = (bundle.label_names() if sup_kind == "names"
                   else bundle.labeled_documents(8, seed=table_seed))
    metrics = _fit_flat(classifier, bundle, supervision)
    return {"Accuracy": metrics["micro_f1"]}


def lotclass_request(seed: int = 0, fast: bool = True) -> TableRequest:
    """Compiled LOTClass pipeline."""
    datasets = ["agnews"] if fast else ["agnews", "dbpedia", "imdb",
                                       "amazon_polarity"]
    return _table_request("lotclass", seed, [
        (f"{name}/{method}", _lotclass_row,
         {"profile": name, "method": method, "table_seed": seed},
         {"Dataset": name, "Method": method}, name, "plain",
         "plm" in _LOTCLASS_METHODS[method][2],
         scope_for(_LOTCLASS_METHODS[method][0]))
        for name in datasets for method in _LOTCLASS_METHODS
    ])


def lotclass_table(seed: int = 0, fast: bool = True, *,
                   jobs: "int | None" = None,
                   use_cache: "bool | None" = None,
                   timeout: "float | None" = None,
                   select=None, cache_dir=None) -> list:
    """LOTClass results table (accuracy, label names only)."""
    return _run_table(lotclass_request(seed, fast), jobs=jobs,
                      use_cache=use_cache, timeout=timeout, select=select,
                      cache_dir=cache_dir)


# ---------------------------------------------------------------------------
# T-XCLASS-DATA / T-XCLASS
# ---------------------------------------------------------------------------

XCLASS_PROFILES_FAST = ["agnews", "nyt_small", "yelp"]
XCLASS_PROFILES_FULL = ["agnews", "twenty_news", "nyt_small", "nyt_topic",
                        "nyt_location", "yelp", "dbpedia"]


@lru_cache(maxsize=None)
def _xclass_bundle(name: str, seed: int):
    bundle = _bundle(name, seed)
    if bundle.tree is not None:
        bundle = coarse_view(bundle)
    return bundle


def _xclass_stats_row(row_seed: int, profile: str, table_seed: int) -> dict:
    return _xclass_bundle(profile, table_seed).stats()


def xclass_dataset_request(seed: int = 0, fast: bool = True) -> TableRequest:
    """Compiled X-Class dataset-statistics pipeline."""
    names = XCLASS_PROFILES_FAST if fast else XCLASS_PROFILES_FULL
    return _table_request("xclass-data", seed, [
        (f"{name}/stats", _xclass_stats_row,
         {"profile": name, "table_seed": seed}, {}, name, "plain", False, ())
        for name in names
    ])


def xclass_dataset_table(seed: int = 0, fast: bool = True, *,
                         jobs: "int | None" = None,
                         use_cache: "bool | None" = None,
                         timeout: "float | None" = None,
                         select=None, cache_dir=None) -> list:
    """X-Class dataset-statistics table."""
    return _run_table(xclass_dataset_request(seed, fast), jobs=jobs,
                      use_cache=use_cache, timeout=timeout, select=select,
                      cache_dir=cache_dir)


_XCLASS_METHODS = {
    "Supervised": (SupervisedBERT, {}, ("plm",)),
    "WeSTClass": (WeSTClass, {}, ()),
    "ConWea": (ConWea, {}, ("plm",)),
    "LOTClass": (LOTClass, {}, ("plm",)),
    "X-Class": (XClass, {}, ("plm",)),
    "X-Class-Rep": (XClass, {"variant": "rep"}, ("plm",)),
    "X-Class-Align": (XClass, {"variant": "align"}, ("plm",)),
}


def _xclass_row(row_seed: int, profile: str, method: str,
                table_seed: int) -> dict:
    bundle = _xclass_bundle(profile, table_seed)
    classifier = _make(_XCLASS_METHODS[method], table_seed,
                       plm=lambda: _plm(bundle, table_seed))
    supervision = (
        bundle.keywords() if method == "ConWea" else bundle.label_names()
    )
    metrics = _fit_flat(classifier, bundle, supervision)
    return {"Micro-F1": metrics["micro_f1"], "Macro-F1": metrics["macro_f1"]}


def xclass_request(seed: int = 0, fast: bool = True) -> TableRequest:
    """Compiled X-Class pipeline (rows fit on the ``auto`` view)."""
    names = XCLASS_PROFILES_FAST if fast else XCLASS_PROFILES_FULL
    return _table_request("xclass", seed, [
        (f"{name}/{method}", _xclass_row,
         {"profile": name, "method": method, "table_seed": seed},
         {"Dataset": name, "Method": method}, name, "auto",
         "plm" in _XCLASS_METHODS[method][2],
         scope_for(_XCLASS_METHODS[method][0]))
        for name in names for method in _XCLASS_METHODS
    ])


def xclass_table(seed: int = 0, fast: bool = True, *,
                 jobs: "int | None" = None,
                 use_cache: "bool | None" = None,
                 timeout: "float | None" = None,
                 select=None, cache_dir=None) -> list:
    """X-Class results table (micro/macro F1, label names only)."""
    return _run_table(xclass_request(seed, fast), jobs=jobs,
                      use_cache=use_cache, timeout=timeout, select=select,
                      cache_dir=cache_dir)


# ---------------------------------------------------------------------------
# T-PROMPT
# ---------------------------------------------------------------------------

_PROMPTCLASS_METHODS = {
    "WeSTClass": (WeSTClass, {}, (), "names"),
    "ConWea": (ConWea, {}, ("plm",), "keywords"),
    "LOTClass": (LOTClass, {}, ("plm",), "names"),
    "XClass": (XClass, {}, ("plm",), "names"),
    "ClassKG": (ClassKG, {}, (), "keywords"),
    "RoBERTa (0-shot)": (PromptClass, {"prompt_backend": "mlm",
                                       "zero_shot_only": True},
                         ("plm",), "names"),
    "ELECTRA (0-shot)": (PromptClass, {"prompt_backend": "electra",
                                       "zero_shot_only": True},
                         ("plm",), "names"),
    "PromptClass ELECTRA+BERT": (PromptClass, {"prompt_backend": "electra",
                                               "head_backend": "bert"},
                                 ("plm",), "names"),
    "PromptClass RoBERTa+RoBERTa": (PromptClass, {"prompt_backend": "mlm",
                                                  "head_backend": "roberta"},
                                    ("plm",), "names"),
    "PromptClass ELECTRA+ELECTRA": (PromptClass,
                                    {"prompt_backend": "electra",
                                     "head_backend": "electra", "blend": 0.4},
                                    ("plm",), "names"),
    "Fully Supervised": (SupervisedBERT, {}, ("plm",), "names"),
}


@lru_cache(maxsize=None)
def _coarse_if_tree(profile: str, seed: int):
    bundle = _bundle(profile, seed)
    if bundle.tree is not None:
        bundle = coarse_view(bundle)
    return bundle


def _promptclass_row(row_seed: int, profile: str, method: str,
                     table_seed: int) -> dict:
    bundle = _coarse_if_tree(profile, table_seed)
    cls, kwargs, needs, sup_kind = _PROMPTCLASS_METHODS[method]
    classifier = _make((cls, kwargs, needs), table_seed,
                       plm=lambda: _plm(bundle, table_seed))
    supervision = (bundle.keywords() if sup_kind == "keywords"
                   else bundle.label_names())
    metrics = _fit_flat(classifier, bundle, supervision)
    return {"Micro-F1": metrics["micro_f1"], "Macro-F1": metrics["macro_f1"]}


def promptclass_request(seed: int = 0, fast: bool = True) -> TableRequest:
    """Compiled PromptClass pipeline (rows fit on the ``auto`` view)."""
    datasets = ["agnews"] if fast else ["agnews", "twenty_news", "yelp",
                                       "imdb"]
    return _table_request("promptclass", seed, [
        (f"{name}/{method}", _promptclass_row,
         {"profile": name, "method": method, "table_seed": seed},
         {"Dataset": name, "Method": method}, name, "auto",
         "plm" in _PROMPTCLASS_METHODS[method][2],
         scope_for(_PROMPTCLASS_METHODS[method][0]))
        for name in datasets for method in _PROMPTCLASS_METHODS
    ])


def promptclass_table(seed: int = 0, fast: bool = True, *,
                      jobs: "int | None" = None,
                      use_cache: "bool | None" = None,
                      timeout: "float | None" = None,
                      select=None, cache_dir=None) -> list:
    """PromptClass results table (micro/macro F1, label names only)."""
    return _run_table(promptclass_request(seed, fast), jobs=jobs,
                      use_cache=use_cache, timeout=timeout, select=select,
                      cache_dir=cache_dir)


# ---------------------------------------------------------------------------
# T-WESHCLASS
# ---------------------------------------------------------------------------

_WESHCLASS_METHODS = {
    "Hier-Dataless": (HierDataless, {}, ("tree", "concept_themes"),
                      ("KEYWORDS",)),
    "Hier-SVM": (HierSVM, {}, ("tree",), ("DOCS",)),
    "CNN": (WeSTClass, {"self_train": False}, (), ("KEYWORDS", "DOCS")),
    "WeSTClass": (WeSTClass, {}, (), ("KEYWORDS", "DOCS")),
    "No-global": (WeSHClass, {"use_global": False}, ("tree",),
                  ("KEYWORDS", "DOCS")),
    "No-vMF": (WeSHClass, {"use_vmf": False}, ("tree",),
               ("KEYWORDS", "DOCS")),
    "No-self-train": (WeSHClass, {"self_train": False}, ("tree",),
                      ("KEYWORDS", "DOCS")),
    "WeSHClass": (WeSHClass, {}, ("tree",), ("KEYWORDS", "DOCS")),
}


def _weshclass_row(row_seed: int, profile: str, method: str,
                   table_seed: int) -> dict:
    bundle = _bundle(profile, table_seed)
    tree = bundle.tree
    assert tree is not None
    cls, kwargs, needs, supported = _WESHCLASS_METHODS[method]
    sups = {
        "KEYWORDS": bundle.keywords(),
        "DOCS": bundle.labeled_documents(3, seed=table_seed),
    }
    row: dict = {}
    for sup_name in ("KEYWORDS", "DOCS"):
        if sup_name not in supported:
            row[f"{sup_name} macro"] = "-"
            row[f"{sup_name} micro"] = "-"
            continue
        classifier = _make(
            (cls, kwargs, needs), table_seed, tree=lambda: tree,
            concept_themes=lambda: tuple(c.theme
                                         for c in bundle.profile.classes),
        )
        # Hier-Dataless consumes label names; map accordingly.
        supervision = (
            bundle.label_names() if method == "Hier-Dataless"
            else sups[sup_name]
        )
        metrics = _fit_flat(classifier, bundle, supervision)
        row[f"{sup_name} macro"] = metrics["macro_f1"]
        row[f"{sup_name} micro"] = metrics["micro_f1"]
    return row


def weshclass_request(seed: int = 0, fast: bool = True) -> TableRequest:
    """Compiled WeSHClass pipeline (no PLM rows; corpus nodes only)."""
    profiles = ["arxiv_tree"] if fast else ["nyt_fine", "arxiv_tree",
                                            "yelp_tree"]
    return _table_request("weshclass", seed, [
        (f"{name}/{method}", _weshclass_row,
         {"profile": name, "method": method, "table_seed": seed},
         {"Dataset": name, "Method": method}, name, "plain", False,
         scope_for(_WESHCLASS_METHODS[method][0]))
        for name in profiles for method in _WESHCLASS_METHODS
    ])


def weshclass_table(seed: int = 0, fast: bool = True, *,
                    jobs: "int | None" = None,
                    use_cache: "bool | None" = None,
                    timeout: "float | None" = None,
                    select=None, cache_dir=None) -> list:
    """WeSHClass results table: trees x {KEYWORDS, DOCS} + ablations."""
    return _run_table(weshclass_request(seed, fast), jobs=jobs,
                      use_cache=use_cache, timeout=timeout, select=select,
                      cache_dir=cache_dir)


# ---------------------------------------------------------------------------
# T-TAXOCLASS
# ---------------------------------------------------------------------------

class _PathAsSet:
    """Adapter: a single-label hierarchical method scored as multi-label.

    The predicted leaf's ancestor closure becomes the label set; the
    ranking orders labels by predicted path probability mass.
    """

    def __init__(self, inner, dag):
        self.inner = inner
        self.dag = dag

    def fit(self, corpus, supervision):
        self.inner.fit(corpus, supervision)
        return self

    def predict(self, corpus, threshold: float = 0.5, top_k=None):
        out = []
        for label in self.inner.predict(corpus):
            out.append(tuple(sorted(self.dag.closure([label]))))
        return out

    def rank(self, corpus):
        proba = self.inner.predict_proba(corpus)
        labels = list(self.inner.label_set.labels)
        rankings = []
        for row in proba:
            mass = {l: 0.0 for l in labels}
            for j, leaf in enumerate(labels):
                for node in self.dag.closure([leaf]):
                    if node in mass:
                        mass[node] += float(row[j])
            rankings.append(sorted(mass, key=mass.get, reverse=True))
        return rankings


def _taxoclass_leaf_supervision(bundle):
    """Leaf-label view for the single-path semi-supervised baselines.

    Only a minority of classes get labeled documents: with 10^4-10^5
    category taxonomies, labeling every class is exactly what the
    TaxoClass setting rules out.
    """
    from repro.core.supervision import LabeledDocuments
    from repro.core.types import LabelSet

    leaf_docs: "dict[str, list]" = {}
    for doc in bundle.train_corpus:
        core = doc.metadata.get("core_labels", list(doc.labels))
        leaf_docs.setdefault(core[0], []).append(doc)
    covered = sorted(leaf_docs)[: max(2, int(len(leaf_docs) * 0.4))]
    few = {label: leaf_docs[label][:3] for label in covered}
    leaf_label_set = LabelSet(
        labels=tuple(sorted(few)),
        names={l: bundle.label_set.names.get(l, l) for l in few},
    )
    return LabeledDocuments(label_set=leaf_label_set, documents=few)


def _taxoclass_row(row_seed: int, profile: str, method: str,
                   table_seed: int) -> dict:
    bundle = _bundle(profile, table_seed)
    dag = bundle.dag
    assert dag is not None
    if method == "WeSHClass":
        classifier = _PathAsSet(WeSHClass(tree=dag_as_tree(dag),
                                          seed=table_seed), dag)
        supervision = _taxoclass_leaf_supervision(bundle)
    elif method == "SS-PCEM":
        classifier = _PathAsSet(PCEM(seed=table_seed), dag)
        supervision = _taxoclass_leaf_supervision(bundle)
    elif method == "Semi-BERT":
        classifier = SemiBERT(plm=_plm(bundle, table_seed), fraction=0.3,
                              seed=table_seed)
        supervision = bundle.label_names()
    elif method == "Hier-0Shot-TC":
        classifier = HierZeroShotTC(dag=dag, plm=_plm(bundle, table_seed),
                                    seed=table_seed)
        supervision = bundle.label_names()
    else:  # TaxoClass
        classifier = TaxoClass(dag=dag, plm=_plm(bundle, table_seed),
                               seed=table_seed)
        supervision = bundle.label_names()
    metrics = evaluate_multilabel(classifier, bundle, supervision, ks=(1,))
    return {"Example-F1": metrics["example_f1"], "P@1": metrics["p@1"]}


_TAXOCLASS_METHODS = ("WeSHClass", "SS-PCEM", "Semi-BERT", "Hier-0Shot-TC",
                      "TaxoClass")

# The taxoclass runner branches instead of reading a method dict, so its
# compile-time facts (PLM consumption, method-unit scope) live here.
_TAXOCLASS_PLM = ("Semi-BERT", "Hier-0Shot-TC", "TaxoClass")
_TAXOCLASS_SCOPE = {
    "WeSHClass": scope_for(WeSHClass),
    "SS-PCEM": scope_for(PCEM),
    "Semi-BERT": scope_for(SemiBERT),
    "Hier-0Shot-TC": scope_for(HierZeroShotTC),
    "TaxoClass": scope_for(TaxoClass),
}


def taxoclass_request(seed: int = 0, fast: bool = True) -> TableRequest:
    """Compiled TaxoClass pipeline."""
    profiles = ["amazon_dag"] if fast else ["amazon_dag", "dbpedia_dag"]
    return _table_request("taxoclass", seed, [
        (f"{name}/{method}", _taxoclass_row,
         {"profile": name, "method": method, "table_seed": seed},
         {"Dataset": name, "Method": method}, name, "plain",
         method in _TAXOCLASS_PLM, _TAXOCLASS_SCOPE[method])
        for name in profiles for method in _TAXOCLASS_METHODS
    ])


def taxoclass_table(seed: int = 0, fast: bool = True, *,
                    jobs: "int | None" = None,
                    use_cache: "bool | None" = None,
                    timeout: "float | None" = None,
                    select=None, cache_dir=None) -> list:
    """TaxoClass results table (Example-F1, P@1) on DAG profiles."""
    return _run_table(taxoclass_request(seed, fast), jobs=jobs,
                      use_cache=use_cache, timeout=timeout, select=select,
                      cache_dir=cache_dir)


# ---------------------------------------------------------------------------
# T-TAXOGEN
# ---------------------------------------------------------------------------

def _taxogen_taxonomy(bundle, arm: str, table_seed: int) -> tuple:
    """The DAG an ablation arm classifies against, plus recovery stats.

    ``given`` uses the profile's taxonomy as-is; ``perturbed`` damages it
    deterministically (re-parents, leaf deletions, spurious edges);
    ``repaired`` runs the entailment-scored repairer over the damaged
    taxonomy and reports the edge-recovery fraction.
    """
    dag = bundle.dag
    assert dag is not None
    if arm == "given":
        return dag, None
    perturbed, perturbation = perturb_dag(
        dag, seed=table_seed + 1, n_reparent=4, n_delete=2, n_spurious=2)
    if arm == "perturbed":
        return perturbed, None
    scorer = EdgeScorer.from_bundle(bundle, plm=_plm(bundle, table_seed))
    repaired, _plan = TaxonomyRepairer(scorer).repair_dag(perturbed)
    return repaired, edge_recovery(perturbation, repaired)


def _taxogen_leaf_supervision(bundle, dag):
    """Leaf supervision restricted to labels the (damaged) taxonomy has."""
    from repro.core.supervision import LabeledDocuments
    from repro.core.types import LabelSet

    sup = _taxoclass_leaf_supervision(bundle)
    keep = {l: docs for l, docs in sup.documents.items() if l in dag}
    label_set = LabelSet(
        labels=tuple(sorted(keep)),
        names={l: bundle.label_set.names.get(l, l) for l in keep},
    )
    return LabeledDocuments(label_set=label_set, documents=keep)


def _taxogen_row(row_seed: int, profile: str, method: str, taxonomy: str,
                 table_seed: int) -> dict:
    bundle = _bundle(profile, table_seed)
    dag, recovery = _taxogen_taxonomy(bundle, taxonomy, table_seed)
    if method == "WeSHClass":
        classifier = _PathAsSet(WeSHClass(tree=dag_as_tree(dag),
                                          seed=table_seed), dag)
        supervision = _taxogen_leaf_supervision(bundle, dag)
    elif method == "FUTEX":
        classifier = Futex(dag=dag, plm=_plm(bundle, table_seed),
                           seed=table_seed)
        supervision = bundle.label_names()
    else:  # TaxoClass
        classifier = TaxoClass(dag=dag, plm=_plm(bundle, table_seed),
                               seed=table_seed)
        supervision = bundle.label_names()
    metrics = evaluate_multilabel(classifier, bundle, supervision, ks=(1,))
    return {"Example-F1": metrics["example_f1"], "P@1": metrics["p@1"],
            "EdgeRecovery": ("-" if recovery is None
                             else round(recovery["recovered_fraction"], 3))}


_TAXOGEN_METHODS_FAST = ("TaxoClass", "FUTEX")
_TAXOGEN_METHODS = ("TaxoClass", "FUTEX", "WeSHClass")
_TAXOGEN_ARMS = ("given", "perturbed", "repaired")
_TAXOGEN_SCOPE = {
    "TaxoClass": scope_for(TaxoClass),
    "FUTEX": scope_for(Futex),
    "WeSHClass": scope_for(WeSHClass),
}


def taxogen_request(seed: int = 0, fast: bool = True) -> TableRequest:
    """Compiled taxonomy-repair ablation pipeline."""
    methods = _TAXOGEN_METHODS_FAST if fast else _TAXOGEN_METHODS
    profile = "arxiv_sections"
    return _table_request("taxogen", seed, [
        (f"{profile}/{method}/{arm}", _taxogen_row,
         {"profile": profile, "method": method, "taxonomy": arm,
          "table_seed": seed},
         {"Dataset": profile, "Method": method, "Taxonomy": arm},
         profile, "plain",
         method in ("TaxoClass", "FUTEX") or arm == "repaired",
         _TAXOGEN_SCOPE[method])
        for method in methods for arm in _TAXOGEN_ARMS
    ])


def taxogen_table(seed: int = 0, fast: bool = True, *,
                  jobs: "int | None" = None,
                  use_cache: "bool | None" = None,
                  timeout: "float | None" = None,
                  select=None, cache_dir=None) -> list:
    """Taxonomy-repair ablation (given vs perturbed vs repaired DAG)."""
    return _run_table(taxogen_request(seed, fast), jobs=jobs,
                      use_cache=use_cache, timeout=timeout, select=select,
                      cache_dir=cache_dir)


# ---------------------------------------------------------------------------
# T-METACAT
# ---------------------------------------------------------------------------

_METACAT_METHODS = {
    "CNN": (FewShotCNN, {}, ()),
    "HAN": (FewShotHAN, {}, ()),
    "PTE": (PTE, {}, ()),
    "WeSTClass": (WeSTClass, {}, ()),
    "PCEM": (PCEM, {}, ()),
    "BERT": (FewShotBERT, {}, ("plm",)),
    "ESim": (ESim, {}, ()),
    "Metapath2vec": (Metapath2Vec, {}, ()),
    "HIN2vec": (HIN2Vec, {}, ()),
    "TextGCN": (TextGCN, {}, ()),
    "MetaCat": (MetaCat, {}, ()),
}


def _metacat_row(row_seed: int, profile: str, method: str,
                 table_seed: int) -> dict:
    bundle = _bundle(profile, table_seed)
    classifier = _make(_METACAT_METHODS[method], table_seed,
                       plm=lambda: _plm(bundle, table_seed))
    docs = bundle.labeled_documents(5, seed=table_seed)
    metrics = _fit_flat(classifier, bundle, docs)
    return {"Micro-F1": metrics["micro_f1"], "Macro-F1": metrics["macro_f1"]}


def metacat_request(seed: int = 0, fast: bool = True) -> TableRequest:
    """Compiled MetaCat pipeline (static ``-`` rows stay off the pool)."""
    profiles = ["github_bio"] if fast else ["github_bio", "github_ai",
                                            "github_sec", "amazon_meta",
                                            "twitter"]
    items = []
    for name in profiles:
        # Reproduce the paper's "-" (OOM) entries: TextGCN is excluded on
        # the two largest profiles.
        textgcn_ok = name not in ("github_sec", "amazon_meta")
        for method in _METACAT_METHODS:
            if method == "TextGCN" and not textgcn_ok:
                items.append((f"{name}/{method}", None, {},
                              {"Dataset": name, "Method": method,
                               "Micro-F1": "-", "Macro-F1": "-"},
                              name, "plain", False, ()))
                continue
            items.append((f"{name}/{method}", _metacat_row,
                          {"profile": name, "method": method,
                           "table_seed": seed},
                          {"Dataset": name, "Method": method},
                          name, "plain",
                          "plm" in _METACAT_METHODS[method][2],
                          scope_for(_METACAT_METHODS[method][0])))
    return _table_request("metacat", seed, items)


def metacat_tables(seed: int = 0, fast: bool = True, *,
                   jobs: "int | None" = None,
                   use_cache: "bool | None" = None,
                   timeout: "float | None" = None,
                   select=None, cache_dir=None) -> list:
    """MetaCat Tables 2+3: micro and macro F1 on the metadata profiles."""
    return _run_table(metacat_request(seed, fast), jobs=jobs,
                      use_cache=use_cache, timeout=timeout, select=select,
                      cache_dir=cache_dir)


# ---------------------------------------------------------------------------
# T-MICOL
# ---------------------------------------------------------------------------

_MICOL_MATCH_FRACTIONS = {
    "MATCH (2%)": "2%",
    "MATCH (10%)": "10%",
    "MATCH (30%)": "30%",
    "MATCH (full)": "full",
}

_MICOL_METHODS = ("Doc2Vec", "SciBERT", "ZeroShot-Entail", "SPECTER", "EDA",
                  "UDA", "MICoL (Bi, P->P<-P)", "MICoL (Bi, P<-(PP)->P)",
                  "MICoL (Cross, P->P<-P)", "MICoL (Cross, P<-(PP)->P)",
                  ) + tuple(_MICOL_MATCH_FRACTIONS)


def _match_size(fraction: str, n: int) -> int:
    # Scaled analogs of MATCH's 10K / 50K / 100K / full training sets.
    return {"2%": max(4, n // 50), "10%": n // 10,
            "30%": int(n * 0.3), "full": n}[fraction]


def _micol_classifier(method: str, bundle, table_seed: int):
    plm = lambda: _plm(bundle, table_seed)  # noqa: E731 - lazy build
    if method == "Doc2Vec":
        return Doc2VecRanker(seed=table_seed)
    if method == "SciBERT":
        return _StaticConceptRanker(seed=table_seed)
    if method == "ZeroShot-Entail":
        return ZeroShotEntailRanker(plm=plm(), seed=table_seed)
    if method == "SPECTER":
        return MICoL(plm=plm(), fine_tune=False, seed=table_seed)
    if method == "EDA":
        return EDAContrastive(plm=plm(), seed=table_seed)
    if method == "UDA":
        return UDAContrastive(plm=plm(), seed=table_seed)
    if method.startswith("MICoL"):
        encoder = "bi" if "(Bi" in method else "cross"
        metapath = P_REF_P if "P->P<-P" in method else P_COCITED_P
        return MICoL(plm=plm(), encoder=encoder, metapath=metapath,
                     seed=table_seed)
    fraction = _MICOL_MATCH_FRACTIONS[method]
    return MATCH(plm=plm(),
                 n_train_examples=_match_size(fraction,
                                              len(bundle.train_corpus)),
                 seed=table_seed)


def _micol_row(row_seed: int, profile: str, method: str,
               table_seed: int) -> dict:
    from repro.evaluation.ranking import per_example_precision_at_k

    bundle = _bundle(profile, table_seed)
    classifier = _micol_classifier(method, bundle, table_seed)
    metrics = evaluate_multilabel(classifier, bundle, bundle.label_names(),
                                  ks=(1, 3, 5))
    gold = [set(d.labels) for d in bundle.test_corpus]
    scores = per_example_precision_at_k(
        gold, classifier.rank(bundle.test_corpus), 5
    )
    return {
        "P@1": metrics["p@1"],
        "P@3": metrics["p@3"],
        "P@5": metrics["p@5"],
        "NDCG@3": metrics["ndcg@3"],
        "NDCG@5": metrics["ndcg@5"],
        "_p5_scores": [float(s) for s in scores],
    }


def _micol_post(profiles: list, seed: int, significance: bool):
    """Post-assembly hook: pop hidden P@5 scores, mark significance.

    Runs in the parent over the assembled rows — table-level work that
    compares rows against each other has no single-node home, so it
    rides on the request, not the graph.
    """

    def post(rows: list) -> list:
        from repro.evaluation.significance import paired_bootstrap_pvalue

        # Per-document P@5 scores ride along as a hidden column; pop
        # them before rendering and (optionally) run the significance
        # pass.
        per_profile: "dict[str, dict[str, np.ndarray]]" = {}
        for row in rows:
            scores = row.pop("_p5_scores", None)
            if scores is not None:
                per_profile.setdefault(row["Dataset"], {})[row["Method"]] = (
                    np.asarray(scores)
                )
        if significance:
            for name in profiles:
                per_method_scores = per_profile.get(name, {})
                # The paper's ** markers: significantly below the best
                # MICoL variant under a paired bootstrap on per-document
                # P@5.
                micol_names = [m for m in per_method_scores
                               if m.startswith("MICoL")]
                if not micol_names:
                    continue
                best_micol = max(micol_names,
                                 key=lambda m: per_method_scores[m].mean())
                reference = per_method_scores[best_micol]
                for row in rows:
                    if row["Dataset"] != name:
                        continue
                    method_name = row["Method"]
                    if method_name.startswith(("MICoL", "MATCH")):
                        row["sig"] = ""
                        continue
                    if method_name not in per_method_scores:
                        continue  # error row: no per-document scores
                    p_value = paired_bootstrap_pvalue(
                        reference, per_method_scores[method_name], seed=seed
                    )
                    row["sig"] = "**" if p_value < 0.01 else (
                        "*" if p_value < 0.05 else ""
                    )
        return rows

    return post


def micol_request(seed: int = 0, fast: bool = True,
                  significance: bool = True) -> TableRequest:
    """Compiled MICoL pipeline with the significance post-pass."""
    profiles = ["magcs"] if fast else ["magcs", "pubmed"]
    return _table_request("micol", seed, [
        (f"{name}/{method}", _micol_row,
         {"profile": name, "method": method, "table_seed": seed},
         {"Dataset": name, "Method": method}, name, "plain",
         method not in ("Doc2Vec", "SciBERT"),
         scope_for(MICoL, MATCH))
        for name in profiles for method in _MICOL_METHODS
    ], post=_micol_post(profiles, seed, significance))


def micol_table(seed: int = 0, fast: bool = True,
                significance: bool = True, *,
                jobs: "int | None" = None,
                use_cache: "bool | None" = None,
                timeout: "float | None" = None,
                select=None, cache_dir=None) -> list:
    """MICoL results table (P@k, NDCG@k) with the MATCH crossover rows.

    With ``significance`` on, zero-shot rows whose per-document P@5 is
    significantly below the best MICoL variant (one-sided paired
    bootstrap, p < 0.01) carry the paper's ``**`` marker.
    """
    return _run_table(micol_request(seed, fast, significance), jobs=jobs,
                      use_cache=use_cache, timeout=timeout, select=select,
                      cache_dir=cache_dir)


class _StaticConceptRanker(_MLBase):
    """Label ranking by cosine in the external (never target-adapted)
    concept space — the un-fine-tuned generic-encoder ("SciBERT") row."""

    def __init__(self, dim: int = 48, seed=0):
        super().__init__(seed=seed)
        self.dim = dim
        self.space = None
        self._label_matrix = None

    def _fit(self, corpus, supervision) -> None:
        _require(supervision, _LabelNames)
        from repro.baselines.dataless import _general_space
        from repro.nn.functional import l2_normalize
        from repro.text.tokenizer import tokenize

        assert self.label_set is not None
        self.space = _general_space(self.dim, seed=0)
        rows = []
        for label in self.label_set:
            tokens = list(self.label_set.name_tokens(label))
            tokens += tokenize(self.label_set.description_of(label))
            rows.append(np.mean([self.space.vector(t) for t in tokens], axis=0))
        self._label_matrix = l2_normalize(np.stack(rows))

    def _score(self, corpus) -> np.ndarray:
        from repro.embeddings.doc import doc_embeddings

        docs = doc_embeddings(corpus.token_lists(), self.space)
        return docs @ self._label_matrix.T


# ---------------------------------------------------------------------------
# T-SUMMARY
# ---------------------------------------------------------------------------

def summary_table() -> list:
    """The tutorial's closing capability matrix, generated from the
    method registry."""
    return summary_rows()


# ---------------------------------------------------------------------------
# Request registry
# ---------------------------------------------------------------------------

#: Table name -> ``(seed, fast) -> TableRequest`` compile hook. The CLI
#: compiles every requested table through this registry into ONE shared
#: graph, so corpus/encode nodes dedup across tables in a single run.
#: ``summary`` is registry-generated (no pipeline) and stays off the DAG.
REQUESTS = {
    "westclass": westclass_request,
    "conwea": conwea_request,
    "lotclass-predictions": lotclass_prediction_request,
    "lotclass": lotclass_request,
    "xclass-data": xclass_dataset_request,
    "xclass": xclass_request,
    "promptclass": promptclass_request,
    "weshclass": weshclass_request,
    "taxoclass": taxoclass_request,
    "taxogen": taxogen_request,
    "metacat": metacat_request,
    "micol": micol_request,
}
