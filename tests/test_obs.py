"""Observability layer: spans, counters, worker merge, report, CLI.

The node runners are module-level so they pickle into spawn workers —
the worker-side tracer records their spans/counters and the parent
merges the exported payloads (the cross-process half of the tracer
contract).
"""

import json

import pytest

from repro import obs
from repro.experiments import cli
from repro.experiments.dag import ArtifactGraph, DagNode
from repro.experiments.engine import derive_row_seed
from repro.experiments.scheduler import run_graph
from repro.obs import report
from repro.obs.tracer import NULL_SPAN, Tracer

pytestmark = pytest.mark.obs


@pytest.fixture(autouse=True)
def _clean_tracer():
    """Never leak an enabled tracer into (or out of) a test."""
    obs.disable()
    yield
    obs.disable()


def _counting_row(row_seed, weight=1):
    obs.count("test.work", weight)
    with obs.span("compute"):
        pass
    return {"score": row_seed % 10}


def _graph(n, table_seed=0):
    graph = ArtifactGraph()
    for i in range(n):
        graph.add(DagNode(kind="row", name=f"row{i}", runner=_counting_row,
                          kwargs={"weight": i + 1},
                          seed=derive_row_seed(table_seed, f"row{i}")))
    return graph


def _span_events(tracer):
    return [e for e in tracer.events() if e["type"] == "span"]


def _stable_events(tracer):
    """Trace events with the timing fields stripped (determinism oracle)."""
    out = []
    for event in tracer.events():
        out.append({k: v for k, v in event.items() if k not in ("t0", "dur")})
    return out


# ---------------------------------------------------------------------------
# Core tracer behaviour
# ---------------------------------------------------------------------------

def test_span_nesting_paths_and_completion_order():
    obs.enable("unit")
    with obs.span("outer"):
        with obs.span("mid", size=3):
            with obs.span("leaf"):
                pass
        with obs.span("leaf"):
            pass
    tracer = obs.disable()
    events = _span_events(tracer)
    # Completion order: children close before their parents.
    assert [e["path"] for e in events] == [
        "outer/mid/leaf", "outer/mid", "outer/leaf", "outer",
    ]
    assert events[1]["attrs"] == {"size": 3}
    assert all(e["dur"] >= 0 and e["t0"] >= 0 for e in events)


def test_counters_accumulate_and_finalize_sorted():
    obs.enable("unit")
    obs.count("b", 2)
    obs.count("a")
    obs.count("b", 0.5)
    assert obs.counter("b") == 2.5
    tracer = obs.disable()
    counters = [e for e in tracer.events() if e["type"] == "counters"]
    assert counters == [{"type": "counters", "values": {"a": 1, "b": 2.5}}]
    assert tracer.events()[-1]["type"] == "end"


def test_disabled_hooks_are_noops():
    assert not obs.enabled()
    assert obs.span("anything", k=1) is NULL_SPAN
    assert obs.count("anything") is None
    assert obs.counter("anything") == 0
    assert obs.tracer() is None
    assert obs.disable() is None  # idempotent


def test_nested_enable_is_an_error():
    obs.enable("first")
    with pytest.raises(RuntimeError, match="first"):
        obs.enable("second")


def test_export_absorb_reroots_and_sums():
    child = Tracer("row:t/r0")
    with child.span("row:t/r0", {}):
        child.count("work", 2)
    parent = Tracer("run")
    parent.count("work", 1)
    with parent.span("table", {}) as _:
        parent.absorb(child.export())
    events = [e for e in parent.export()["events"]]
    assert events[0]["path"] == "table/row:t/r0"
    assert events[0]["remote"] is True
    assert parent.counters["work"] == 3


def test_gauges_keep_the_peak_and_merge_by_max():
    obs.enable("gauges")
    obs.gauge("serve.queue_depth", 3)
    obs.gauge("serve.queue_depth", 7)
    obs.gauge("serve.queue_depth", 2)  # below the peak: ignored
    assert obs.gauge_value("serve.queue_depth") == 7
    assert obs.gauge_value("unset") == 0

    tracer = obs.disable()
    assert tracer.gauges == {"serve.queue_depth": 7}
    # Gauges fold into the counters event so the JSONL schema stays v1.
    counters = [e for e in tracer.events() if e["type"] == "counters"]
    assert counters[0]["values"]["serve.queue_depth"] == 7

    # Disabled: all gauge hooks are no-ops.
    assert obs.gauge("anything", 1) is None
    assert obs.gauge_value("anything") == 0


def test_absorb_merges_worker_gauges_max_wise():
    parent = Tracer("pool")
    parent.gauge("pool.replica_busy", 2)
    for peak in (1, 4, 3):
        child = Tracer("replica")
        child.gauge("pool.replica_busy", peak)
        parent.absorb(child.export(), prefix="pool/replica")
    assert parent.gauges["pool.replica_busy"] == 4  # max, never a sum


def test_trace_footer_lists_gauge_peaks(tmp_path):
    obs.enable("footer")
    obs.count("serve.requests", 5)
    tracer = obs.disable()
    path = tracer.write(tmp_path / "t.jsonl")
    assert obs.trace_footer(tracer, path) == f"[trace] {path}"

    obs.enable("footer2")
    obs.gauge("serve.queue_depth", 9)
    obs.gauge("pool.replica_busy", 2)
    tracer = obs.disable()
    path = tracer.write(tmp_path / "t2.jsonl")
    assert obs.trace_footer(tracer, path) == (
        f"[trace] {path} [gauges pool.replica_busy=2 serve.queue_depth=9]")


# ---------------------------------------------------------------------------
# JSONL round-trip and report
# ---------------------------------------------------------------------------

def test_jsonl_round_trip(tmp_path):
    obs.enable("rt")
    with obs.span("phase"):
        obs.count("n", 7)
    path = obs.disable().write(tmp_path / "t.jsonl")
    events = report.load_events(path)
    assert events[0] == {"type": "begin", "schema": 1, "name": "rt"}
    assert events[-1]["type"] == "end"
    assert report.counters(events) == {"n": 7}
    # Every line is a self-contained JSON object (greppable contract).
    for line in path.read_text().splitlines():
        assert isinstance(json.loads(line), dict)


def test_report_tree_rolls_up_slashed_span_names():
    obs.enable("tree")
    with obs.span("root"):
        with obs.span("row:t/a"):
            pass
        with obs.span("row:t/b"):
            pass
    tracer = obs.disable()
    tree = report.build_tree(tracer.events())
    row = tree.children["root"].children["row:t"]
    # The virtual "row:t" level inherits its children's totals.
    assert set(row.children) == {"a", "b"}
    assert row.calls == 2
    assert row.seconds == pytest.approx(
        row.children["a"].seconds + row.children["b"].seconds)
    rendered = report.render_tree(tracer.events())
    assert "row:t" in rendered and "x2" in rendered


# ---------------------------------------------------------------------------
# Worker-boundary merge (the parallel engine contract)
# ---------------------------------------------------------------------------

def test_counters_and_spans_merge_across_spawn_workers():
    obs.enable("pool")
    results = run_graph(_graph(4), jobs=2, use_cache=False)
    tracer = obs.disable()
    assert len(results) == 4
    # Counters merged by summation: weights 1+2+3+4.
    assert tracer.counters["test.work"] == 10
    assert tracer.counters["dag.nodes_executed"] == 4
    remote = [e for e in _span_events(tracer) if e.get("remote")]
    node_spans = [e for e in remote if e["name"].startswith("node:row")]
    assert len(node_spans) == 4
    # Worker-side nesting survives the pipe: compute sits under its node.
    compute = [e for e in remote if e["name"] == "compute"]
    assert {e["path"] for e in compute} == {
        f"node:row{i}/compute" for i in range(4)
    }


def test_parallel_trace_content_is_deterministic():
    runs = []
    for _ in range(2):
        obs.enable("det")
        run_graph(_graph(5, table_seed=1), jobs=2, use_cache=False)
        runs.append(_stable_events(obs.disable()))
    assert runs[0] == runs[1]


def test_serial_rows_record_local_spans():
    obs.enable("serial")
    run_graph(_graph(2), jobs=1, use_cache=False)
    tracer = obs.disable()
    spans = _span_events(tracer)
    assert [e["name"] for e in spans if e["name"].startswith("node:")] == [
        "node:row0", "node:row1",
    ]
    assert not any(e.get("remote") for e in spans)


def test_memo_hits_count_without_rerunning(tmp_path):
    run_graph(_graph(3), jobs=1, use_cache=True, cache_dir=tmp_path)
    obs.enable("memo")
    run_graph(_graph(3), jobs=1, use_cache=True, cache_dir=tmp_path)
    tracer = obs.disable()
    assert tracer.counters["dag.nodes_reused"] == 3
    assert tracer.counters.get("dag.nodes_executed", 0) == 0


# ---------------------------------------------------------------------------
# CLI wiring
# ---------------------------------------------------------------------------

def test_coverage_accounts_for_wall_clock():
    import time

    obs.enable("cov")
    with obs.span("work"):
        time.sleep(0.05)
    tracer = obs.disable()
    # The root span must account for >=95% of the traced wall-clock —
    # the enable/finalize overhead outside it is microseconds.
    assert report.coverage(tracer.events()) >= 0.95


def test_cli_trace_flag_writes_trace(tmp_path, capsys):
    assert cli.main(["summary", "--trace", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    path = tmp_path / "trace_summary.jsonl"
    assert f"[trace] {path}" in out
    events = report.load_events(path)
    assert events[0]["name"] == "cli:summary"
    assert [e["name"] for e in events if e.get("type") == "span"] == [
        "cli:summary",
    ]
    assert not obs.enabled()  # CLI cleans up its tracer


def test_cli_trace_env_var(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_TRACE", str(tmp_path / "envtrace"))
    assert cli.main(["summary"]) == 0
    capsys.readouterr()
    assert (tmp_path / "envtrace" / "trace_summary.jsonl").exists()
