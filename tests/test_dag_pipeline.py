"""DAG pipeline: determinism, failure isolation, --select, scoped digests.

The acceptance contract of the incremental pipeline: a ``--jobs N`` DAG
run is bit-identical to a cold serial run, a crashed, hung or
out-of-memory node poisons only its transitive dependents, ``--select``
recomputes exactly the named subgraph, a fully-warm run of two
corpus-sharing tables executes zero nodes, and the scoped source
digests re-address exactly the touched method's subgraph. Runners are
module-level on purpose — nodes must pickle into spawn workers.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.experiments import dag, engine, scheduler
from repro.experiments.dag import ArtifactGraph, DagNode, TableRequest
from repro.experiments.scheduler import run_graph, run_requests

pytestmark = pytest.mark.harness


def _corpus(seed, offset=0):
    return {"docs": 40 + offset + seed % 7}


def _metric_row(seed, factor=1):
    return {"score": (seed * 31 + factor) % 997 / 997.0}


def _raising_row(seed):
    raise ValueError("poisoned")


def _exiting_row(seed):
    os._exit(3)


def _oom_row(seed):
    raise MemoryError


def _hanging_row(seed):
    time.sleep(120.0)
    return {}


def _demo_request(table="t1", rows=3):
    """A table whose rows all hang off one shared corpus node."""
    corpus = DagNode(kind="corpus", name="corpus:demo", runner=_corpus,
                     kwargs={"offset": 1}, seed=11)
    nodes, row_names = [corpus], []
    for i in range(rows):
        name = f"{table}.r{i}"
        nodes.append(DagNode(kind="row", name=name, runner=_metric_row,
                             kwargs={"factor": i + 1}, deps=("corpus:demo",),
                             table=table, row=f"r{i}",
                             static={"Method": f"m{i}"},
                             seed=engine.derive_row_seed(0, f"{table}.r{i}")))
        row_names.append(name)
    return TableRequest(table=table, nodes=nodes, row_names=row_names)


def _strip(rows):
    return [{k: v for k, v in row.items() if k != "seconds"} for row in rows]


# ---------------------------------------------------------------------------
# Determinism: parallel == serial, bit for bit
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("jobs", [1, 2, 4])
def test_parallel_run_is_bit_identical_to_serial(jobs):
    serial = run_requests([_demo_request()], jobs=1, use_cache=False)
    result = run_requests([_demo_request()], jobs=jobs, use_cache=False)
    assert _strip(result["t1"]) == _strip(serial["t1"])
    assert all("seconds" in row for row in result["t1"])
    report = scheduler.take_last_dag_report()
    assert report.jobs == jobs
    assert report.executed == 4 and report.errors == 0


def test_row_node_seeds_derive_from_table_seed_and_name():
    # A row node carries derive_row_seed(table_seed, node name), so its
    # numbers depend only on its identity, never on where it runs.
    request = _demo_request()
    for node in request.nodes:
        if node.kind == "row":
            assert node.seed == engine.derive_row_seed(0, node.name)


def test_row_seeds_are_stable_and_sharded():
    # Pinned: derived seeds feed node digests and every row's numbers.
    assert engine.derive_row_seed(0, "row0") == 1548062754
    assert engine.derive_row_seed(1, "row0") == 2085109840
    assert engine.derive_row_seed(0, "row1") == 2127226448


def test_static_rows_pass_through():
    request = TableRequest(
        table="t",
        nodes=[DagNode(kind="row", name="t.static", table="t", row="static",
                       static={"Method": "TextGCN", "Micro-F1": "-"})],
        row_names=["t.static"])
    rows = run_requests([request], jobs=1, use_cache=False)["t"]
    assert rows == [{"Method": "TextGCN", "Micro-F1": "-", "seconds": 0.0}]
    assert scheduler.take_last_dag_report().statuses == {"t.static": "static"}


# ---------------------------------------------------------------------------
# Failure isolation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("jobs", [1, 2])
def test_failed_node_poisons_only_its_dependents(jobs):
    graph = ArtifactGraph()
    graph.add(DagNode(kind="corpus", name="ok_root", runner=_corpus))
    graph.add(DagNode(kind="corpus", name="bad_root", runner=_raising_row))
    graph.add(DagNode(kind="row", name="victim", runner=_metric_row,
                      deps=("bad_root",)))
    graph.add(DagNode(kind="row", name="bystander", runner=_metric_row,
                      deps=("ok_root",)))
    results = run_graph(graph, jobs=jobs, use_cache=False)
    statuses = scheduler.take_last_dag_report().statuses
    assert statuses["bad_root"] == "error"
    assert statuses["victim"] == "upstream-error"
    assert statuses["ok_root"] == "executed"
    assert statuses["bystander"] == "executed"
    assert results["bad_root"]["metrics"]["error"] == "ValueError: poisoned"
    assert results["victim"]["metrics"]["error"] == "upstream bad_root failed"
    assert "score" in results["bystander"]["metrics"]


def test_worker_crash_isolates_like_an_error():
    graph = ArtifactGraph()
    graph.add(DagNode(kind="corpus", name="dies", runner=_exiting_row))
    graph.add(DagNode(kind="row", name="victim", runner=_metric_row,
                      deps=("dies",)))
    graph.add(DagNode(kind="row", name="bystander", runner=_metric_row))
    results = run_graph(graph, jobs=2, use_cache=False)
    statuses = scheduler.take_last_dag_report().statuses
    assert results["dies"]["metrics"]["error"] == "worker crashed"
    assert statuses["victim"] == "upstream-error"
    assert "score" in results["bystander"]["metrics"]


@pytest.mark.parametrize("jobs", [1, 2])
def test_memory_error_renders_as_dash(jobs):
    graph = ArtifactGraph()
    graph.add(DagNode(kind="row", name="oom", runner=_oom_row))
    graph.add(DagNode(kind="row", name="bystander", runner=_metric_row))
    results = run_graph(graph, jobs=jobs, use_cache=False)
    assert results["oom"]["metrics"] == {"error": "-"}  # the papers' "-"
    assert "score" in results["bystander"]["metrics"]
    assert scheduler.take_last_dag_report().statuses["oom"] == "error"


def test_hung_node_times_out_without_killing_the_graph():
    graph = ArtifactGraph()
    graph.add(DagNode(kind="corpus", name="hang", runner=_hanging_row))
    graph.add(DagNode(kind="row", name="victim", runner=_metric_row,
                      deps=("hang",)))
    graph.add(DagNode(kind="row", name="bystander", runner=_metric_row))
    # The per-node deadline starts at dispatch, so it also covers worker
    # startup — keep it comfortably above spawn+import cost.
    results = run_graph(graph, jobs=2, use_cache=False, timeout=15.0)
    statuses = scheduler.take_last_dag_report().statuses
    assert results["hang"]["metrics"]["error"] == "timeout after 15s"
    assert statuses["hang"] == "error"
    assert statuses["victim"] == "upstream-error"
    assert "score" in results["bystander"]["metrics"]


def test_error_artifacts_are_never_stored(tmp_path):
    graph = ArtifactGraph()
    graph.add(DagNode(kind="corpus", name="bad_root", runner=_raising_row))
    run_graph(graph, jobs=1, use_cache=True, cache_dir=tmp_path)
    assert scheduler.take_last_dag_report().statuses["bad_root"] == "error"
    # A fixed upstream must recompute, so the failure is not memoized.
    assert not list(scheduler.dag_store_dir(tmp_path).glob("*.json"))


# ---------------------------------------------------------------------------
# Warm reuse and --select
# ---------------------------------------------------------------------------

def test_warm_shared_tables_execute_zero_nodes(tmp_path):
    requests = [_demo_request("t1"), _demo_request("t2")]
    cold = run_requests(requests, jobs=1, use_cache=True, cache_dir=tmp_path)
    report = scheduler.take_last_dag_report()
    assert report.merged == 1  # corpus:demo declared by both tables
    assert report.executed == report.nodes == 7

    engine.clear_memo_memory()  # reuse must come from the disk tier
    warm = run_requests([_demo_request("t1"), _demo_request("t2")],
                        jobs=4, use_cache=True, cache_dir=tmp_path)
    report = scheduler.take_last_dag_report()
    assert report.executed == 0 and report.reused == 7
    assert warm == cold  # seconds included: payloads replay verbatim


def test_memory_tier_is_scoped_to_the_store_directory(tmp_path):
    graph = ArtifactGraph()
    graph.add(DagNode(kind="row", name="only", runner=_metric_row))
    run_graph(graph, jobs=1, use_cache=True, cache_dir=tmp_path / "a")
    assert scheduler.take_last_dag_report().statuses == {"only": "executed"}

    # Same digest, different (empty) store: the memory tier must not
    # answer for a directory that never held the artifact.
    run_graph(graph, jobs=1, use_cache=True, cache_dir=tmp_path / "b")
    assert scheduler.take_last_dag_report().statuses == {"only": "executed"}
    assert list(scheduler.dag_store_dir(tmp_path / "b").glob("*.json"))


def test_select_recomputes_exactly_the_named_subgraph(tmp_path):
    run_requests([_demo_request()], jobs=1, use_cache=True,
                 cache_dir=tmp_path)
    scheduler.take_last_dag_report()

    run_requests([_demo_request()], jobs=1, use_cache=True,
                 cache_dir=tmp_path, select=["t1.r1"])
    statuses = scheduler.take_last_dag_report().statuses
    assert statuses == {"corpus:demo": "reused", "t1.r0": "reused",
                        "t1.r1": "executed", "t1.r2": "reused"}

    # +node pulls ancestors into the forced set; node+ its dependents.
    run_requests([_demo_request()], jobs=1, use_cache=True,
                 cache_dir=tmp_path, select=["+t1.r1"])
    statuses = scheduler.take_last_dag_report().statuses
    assert statuses["corpus:demo"] == "executed"
    assert statuses["t1.r1"] == "executed" and statuses["t1.r0"] == "reused"

    run_requests([_demo_request()], jobs=1, use_cache=True,
                 cache_dir=tmp_path, select=["corpus:demo+"])
    report = scheduler.take_last_dag_report()
    assert report.executed == 4 and report.reused == 0


def test_select_unknown_node_names_the_graph():
    graph = ArtifactGraph()
    graph.add(DagNode(kind="corpus", name="only", runner=_corpus))
    with pytest.raises(ValueError, match="unknown DAG node 'nope'"):
        graph.select(["nope"])


# ---------------------------------------------------------------------------
# Graph construction and content addressing
# ---------------------------------------------------------------------------

def test_identical_declarations_merge_and_conflicts_raise():
    graph = ArtifactGraph()
    graph.add(DagNode(kind="corpus", name="c", runner=_corpus,
                      kwargs={"offset": 1}))
    graph.add(DagNode(kind="corpus", name="c", runner=_corpus,
                      kwargs={"offset": 1}))
    assert graph.merged == 1 and len(graph.nodes) == 1
    with pytest.raises(ValueError, match="conflicting declarations"):
        graph.add(DagNode(kind="corpus", name="c", runner=_corpus,
                          kwargs={"offset": 2}))
    with pytest.raises(ValueError, match="undeclared node"):
        graph.add(DagNode(kind="row", name="r", runner=_metric_row,
                          deps=("ghost",)))


def test_digests_fold_kwargs_seed_and_upstream_changes():
    def build(offset=1, seed=0, factor=1):
        graph = ArtifactGraph()
        graph.add(DagNode(kind="corpus", name="c", runner=_corpus,
                          kwargs={"offset": offset}))
        graph.add(DagNode(kind="row", name="r", runner=_metric_row,
                          kwargs={"factor": factor}, deps=("c",), seed=seed))
        return graph.digests()

    base = build()
    assert build() == base  # pure function of declared inputs
    assert build(factor=2)["r"] != base["r"]
    assert build(seed=1)["r"] != base["r"]
    changed = build(offset=9)
    assert changed["c"] != base["c"]
    assert changed["r"] != base["r"]  # upstream change re-addresses the row


# ---------------------------------------------------------------------------
# Scoped source digests
# ---------------------------------------------------------------------------

@pytest.fixture()
def fake_tree(tmp_path):
    files = {
        "core/util.py": "x = 1\n",
        "methods/foo/model.py": "foo = 1\n",
        "methods/bar/model.py": "bar = 1\n",
        "methods/westclass/model.py": "west = 1\n",
        "methods/weshclass/model.py": "wesh = 1\n",
        "methods/conwea/model.py": "conwea = 1\n",
    }
    for rel, text in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    dag.set_source_root(tmp_path)
    try:
        yield tmp_path
    finally:
        dag.set_source_root(None)


def test_touching_a_method_unit_moves_only_that_unit(fake_tree):
    before = dict(dag.unit_digests())
    (fake_tree / "methods/foo/model.py").write_text("foo = 2\n")
    after = dag.unit_digests(refresh=True)
    assert after["methods/foo"] != before["methods/foo"]
    assert after["methods/bar"] == before["methods/bar"]
    assert after["shared"] == before["shared"]


def test_touching_shared_code_moves_every_scope(fake_tree):
    before = dict(dag.unit_digests())
    comp_foo = dag.source_component(("methods/foo",))
    (fake_tree / "core/util.py").write_text("x = 2\n")
    after = dag.unit_digests(refresh=True)
    assert after["shared"] != before["shared"]
    assert after["methods/foo"] == before["methods/foo"]
    # Every node carries the shared digest, so its component moves too.
    assert dag.source_component(("methods/foo",)) != comp_foo


def test_method_unit_deps_fold_transitively(fake_tree):
    before_wesh = dag.source_component(("methods/weshclass",))
    (fake_tree / "methods/westclass/model.py").write_text("west = 2\n")
    dag.unit_digests(refresh=True)
    # WeSHClass reuses WeSTClass internals (METHOD_UNIT_DEPS), so its
    # effective digest must move with its dependency.
    assert dag.source_component(("methods/weshclass",)) != before_wesh


def test_shared_method_units_fold_into_shared(fake_tree):
    before = dict(dag.unit_digests())
    (fake_tree / "methods/conwea/model.py").write_text("conwea = 2\n")
    after = dag.unit_digests(refresh=True)
    assert after["shared"] != before["shared"]  # conwea is baseline-shared


def test_scoped_node_digests_invalidate_selectively(fake_tree):
    def digests():
        graph = ArtifactGraph()
        graph.add(DagNode(kind="row", name="foo_row", runner=_metric_row,
                          scope=("methods/foo",)))
        graph.add(DagNode(kind="row", name="bar_row", runner=_metric_row,
                          scope=("methods/bar",)))
        return graph.digests()

    before = digests()
    (fake_tree / "methods/foo/model.py").write_text("foo = 3\n")
    dag.unit_digests(refresh=True)
    after = digests()
    assert after["foo_row"] != before["foo_row"]
    assert after["bar_row"] == before["bar_row"]


def test_method_unit_and_scope_for():
    class Shared:
        pass

    class Foo:
        pass

    class Conwea:
        pass

    Shared.__module__ = "repro.core.util"
    Foo.__module__ = "repro.methods.foo.model"
    Conwea.__module__ = "repro.methods.conwea.model"
    assert dag.method_unit(Shared) is None
    assert dag.method_unit(Foo) == "methods/foo"
    # Units already folded into the shared digest are dropped from scopes.
    assert dag.scope_for(Foo, Shared, Conwea) == ("methods/foo",)


def test_declared_unit_tables_match_the_import_graph():
    """Staleness check: the hand-maintained scoping tables vs the tree.

    Every submodule-level ``repro.methods.<pkg>`` reference in the real
    source must be declared — inside ``methods/`` via METHOD_UNIT_DEPS,
    elsewhere via SHARED_METHOD_UNITS — and every declaration must still
    correspond to a real reference (no dead entries).
    """
    references = dag.scan_method_references(dag._DEFAULT_SOURCE_ROOT)
    declared_shared = set(dag.SHARED_METHOD_UNITS)
    for unit, referenced in references.items():
        if unit == "shared":
            missing = referenced - declared_shared
            assert not missing, (
                f"shared code references {sorted(missing)}: add them to "
                "SHARED_METHOD_UNITS")
        else:
            declared = set(dag.METHOD_UNIT_DEPS.get(unit, ()))
            missing = referenced - declared
            assert not missing, (
                f"{unit} references {sorted(missing)}: add them to "
                "METHOD_UNIT_DEPS")
    for unit, deps in dag.METHOD_UNIT_DEPS.items():
        assert set(deps) <= references.get(unit, set()), (
            f"METHOD_UNIT_DEPS[{unit!r}] lists units the source no longer "
            "references")
    assert declared_shared <= references.get("shared", set()), (
        "SHARED_METHOD_UNITS lists units shared code no longer references")


# ---------------------------------------------------------------------------
# Store pruning
# ---------------------------------------------------------------------------

def test_prune_sweeps_dead_tree_entries(tmp_path):
    memo = engine.RowMemo(tmp_path)
    memo.put("live", {"metrics": {"A": 1.0}, "seconds": 0.1})
    (tmp_path / "stale.json").write_text(json.dumps(
        {"metrics": {"A": 2.0}, "seconds": 0.1, "tree": "dead-digest"}))
    (tmp_path / "unstamped.json").write_text(json.dumps(
        {"metrics": {}, "seconds": 0.0}))
    (tmp_path / "broken.json").write_text("{not json")

    assert memo.get("stale") is not None  # loads into the memory tier
    kept, removed = memo.prune()
    assert (kept, removed) == (1, 3)
    assert memo.get("stale") is None  # memory tier was popped too
    engine.clear_memo_memory()
    assert memo.get("live") is not None  # current-tree entry survives


def test_prune_keep_keys_pin_entries_across_trees(tmp_path):
    memo = engine.RowMemo(tmp_path)
    (tmp_path / "pinned.json").write_text(json.dumps(
        {"metrics": {}, "seconds": 0.0, "tree": "dead-digest"}))
    (tmp_path / "doomed.json").write_text(json.dumps(
        {"metrics": {}, "seconds": 0.0, "tree": "dead-digest"}))
    kept, removed = memo.prune(keep_keys={"pinned"})
    assert (kept, removed) == (1, 1)
    assert (tmp_path / "pinned.json").exists()
    assert not (tmp_path / "doomed.json").exists()


def test_cache_prune_cli_reports_both_stores(tmp_path, monkeypatch, capsys,
                                            tiny_plm):
    from repro.experiments import cli
    from repro.plm.io import save_plm

    monkeypatch.setenv("REPRO_ROW_CACHE_DIR", str(tmp_path))
    # Row-memo files at the row-cache root are unreadable by any code,
    # whatever tree they were stamped with: all of them are swept.
    (tmp_path / "current.json").write_text(json.dumps(
        {"metrics": {}, "seconds": 0.0, "tree": engine.source_version()}))
    (tmp_path / "stale.json").write_text(json.dumps(
        {"metrics": {}, "seconds": 0.0, "tree": "dead-digest"}))
    dag_dir = scheduler.dag_store_dir(tmp_path)
    engine.RowMemo(dag_dir).put("live", {"metrics": {}, "seconds": 0.0})
    (dag_dir / "orphan.json").write_text(json.dumps(
        {"metrics": {}, "seconds": 0.0, "tree": "dead-digest"}))
    # PLM archives live in one directory per shared source digest; only
    # the current source's directory survives.
    enc_dir = tmp_path / "enc"
    monkeypatch.setenv("REPRO_ENC_CACHE_DIR", str(enc_dir))
    plm_dir = enc_dir / "plm"
    live = plm_dir / dag.source_component(()) / "live.npz"
    stale = plm_dir / "dead-digest" / "stale.npz"
    for archive in (live, stale):
        archive.parent.mkdir(parents=True)
    save_plm(tiny_plm, live)
    stale.write_bytes(b"npz")
    # Hidden-state namespaces survive only when a kept archive's model
    # owns them.
    live_ns = enc_dir / tiny_plm.cache_namespace
    stale_ns = enc_dir / ("0" * 32)
    for namespace in (live_ns, stale_ns):
        namespace.mkdir()
        (namespace / "shard_0.idx.json").write_text("{}")
    # Per-document .npz hidden states of the retired disk tier go, in a
    # live namespace and in a directory that holds nothing else.
    npz_only = enc_dir / ("2" * 32)
    npz_only.mkdir()
    legacy = [live_ns / "doc.npz", npz_only / "a.npz", npz_only / "b.npz"]
    for path in legacy:
        path.write_bytes(b"npz")
    # The cache directory is user-set and may hold data the cache does
    # not own: a directory that is not a namespace of shards survives.
    foreign = [enc_dir / "rows", enc_dir / ("1" * 32)]
    for directory in foreign:
        directory.mkdir()
        (directory / "keep.json").write_text("{}")

    assert cli.main(["cache-prune"]) == 0
    out = capsys.readouterr().out
    assert f"rows: removed 2 legacy row-memo entries ({tmp_path})" in out
    assert "dag:  kept 1, removed 1" in out
    assert f"plm:  kept 1, removed 1 ({plm_dir})" in out
    assert f"enc:  kept 1, removed 1 ({enc_dir})" in out
    assert (f"npz:  removed 3 legacy per-document hidden states "
            f"({enc_dir})") in out
    assert not list(tmp_path.glob("*.json"))
    assert (dag_dir / "live.json").exists()
    assert live.exists() and not stale.parent.exists()
    assert live_ns.exists() and not stale_ns.exists()
    assert (live_ns / "shard_0.idx.json").exists()
    assert not any(path.exists() for path in legacy)
    assert not npz_only.exists()
    assert all((directory / "keep.json").exists() for directory in foreign)


# ---------------------------------------------------------------------------
# Drift re-fit: a one-node graph
# ---------------------------------------------------------------------------

def _refit_kwargs(tmp_path, **overrides):
    kwargs = dict(store_dir=tmp_path / "store", train_docs=None,
                  method="westclass", method_kwargs={},
                  supervision="label-names", labels=["a", "b"],
                  keywords=None, registry_root=tmp_path / "models",
                  model_name="live", ordinal=2, seed=7)
    kwargs.update(overrides)
    return kwargs


def test_refit_is_one_pinned_node(tmp_path, monkeypatch):
    from repro.pipeline import refit

    seen = {}

    def fake_run_graph(graph, **kwargs):
        seen["graph"], seen["kwargs"] = graph, kwargs
        return {"refit-live-002": {"metrics": {"version": 5},
                                   "seconds": 0.0}}

    monkeypatch.setattr(scheduler, "run_graph", fake_run_graph)
    assert refit.run_refit(**_refit_kwargs(tmp_path), jobs=2) == 5
    graph = seen["graph"]
    assert list(graph.nodes) == ["refit-live-002"]
    node = graph.nodes["refit-live-002"]
    assert node.runner is refit.refit_runner and node.deps == ()
    # Pinned: re-fit N of a stream trains with this seed wherever it
    # runs, which is what keeps crash-resume byte-identical.
    assert node.seed == engine.derive_row_seed(7, "refit-live-002")
    assert node.seed == 695190176
    assert seen["kwargs"] == {"jobs": 2, "use_cache": False}


def test_failed_refit_node_raises_pipeline_error(tmp_path):
    from repro.core.exceptions import PipelineError
    from repro.pipeline import refit

    with pytest.raises(PipelineError,
                       match="re-fit 'refit-live-002' failed: .*empty"):
        refit.run_refit(**_refit_kwargs(tmp_path))
