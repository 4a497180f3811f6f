"""Perf-regression harness: history store, calibrated gate, CI schemas.

The acceptance contract: a synthetic 2x slowdown appended to a history
file fails the gate on any host (the tolerance product is capped below
2x), ordinary drift passes, ``write_bench_artifact`` stamps every
artifact and history record with git SHA + host calibration, and a
``BENCH_*.json`` nobody registered fails the artifact check.
"""

from __future__ import annotations

import importlib.util
import json
import re
import sys
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
if str(BENCHMARKS) not in sys.path:
    sys.path.insert(0, str(BENCHMARKS))

import check_bench_artifacts as cba  # noqa: E402
import check_regression as cr  # noqa: E402
import hostcal  # noqa: E402


def _load_bench_conftest():
    """The benchmarks conftest under a non-colliding module name."""
    name = "bench_conftest_for_tests"
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.spec_from_file_location(name,
                                                 BENCHMARKS / "conftest.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


pytestmark = pytest.mark.harness


def _record(seconds: float, speedup: float = 2.0, jitter: float = 1.1,
            host: str = "hostA", sha: str = "cafe") -> dict:
    return {
        "name": "serving",
        "sha": sha,
        "host": host,
        "created": "2026-08-01T00:00:00Z",
        "calibration": {"batch_gain": 5.0, "jitter": jitter},
        "metrics": {"unbatched_seconds": seconds, "speedup": speedup},
    }


def _write_history(directory: Path, name: str, records: list) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{name}.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    return path


# ---------------------------------------------------------------------------
# The gate
# ---------------------------------------------------------------------------

def test_synthetic_2x_slowdown_fails(tmp_path):
    records = [_record(1.0) for _ in range(4)] + [_record(2.0)]
    _write_history(tmp_path, "serving", records)
    report = cr.check_all(tmp_path, ["serving"])
    assert report["regressed"] == ["serving"]
    bad = [c for c in report["results"][0]["comparisons"] if c["regressed"]]
    assert [c["metric"] for c in bad] == ["unbatched_seconds"]
    assert bad[0]["ratio"] == 2.0
    assert bad[0]["tolerance"] < 2.0


def test_modest_drift_passes(tmp_path):
    records = [_record(1.0) for _ in range(4)] + [_record(1.05)]
    _write_history(tmp_path, "serving", records)
    report = cr.check_all(tmp_path, ["serving"])
    assert report["regressed"] == []


def test_higher_is_better_direction(tmp_path):
    # Wall time steady, but the speedup ratio halved: still a regression.
    records = [_record(1.0, speedup=4.0) for _ in range(4)]
    records.append(_record(1.0, speedup=2.0))
    _write_history(tmp_path, "serving", records)
    report = cr.check_all(tmp_path, ["serving"])
    assert report["regressed"] == ["serving"]
    bad = [c for c in report["results"][0]["comparisons"] if c["regressed"]]
    assert [c["metric"] for c in bad] == ["speedup"]


def test_single_record_has_no_baseline(tmp_path):
    _write_history(tmp_path, "serving", [_record(1.0)])
    report = cr.check_all(tmp_path, ["serving"])
    result = report["results"][0]
    assert result["status"] == "no baseline"
    assert result["baseline"] == "insufficient-history"
    assert result["n_baselines"] == 0
    assert report["regressed"] == []


def test_empty_and_missing_history_pass_vacuously(tmp_path):
    # A fresh clone: the history file may be empty or absent entirely.
    _write_history(tmp_path, "serving", [])
    report = cr.check_all(tmp_path, ["serving", "serving_pool"])
    assert report["regressed"] == []
    assert report["checked"] == 2
    for result in report["results"]:
        assert result["status"] == "no baseline"
        assert result["baseline"] == "insufficient-history"
        assert result["comparisons"] == []
    # main() exits 0 on the same input instead of crashing the gate.
    rc = cr.main(["serving", "--history", str(tmp_path),
                  "--report", str(tmp_path / "report.json")])
    assert rc == 0
    written = json.loads((tmp_path / "report.json").read_text())
    assert written["results"][0]["baseline"] == "insufficient-history"


def test_baselines_window_is_bounded(tmp_path):
    # Old slow records beyond --last must not drag the median up.
    records = ([_record(9.0) for _ in range(10)]
               + [_record(1.0) for _ in range(5)] + [_record(1.9)])
    _write_history(tmp_path, "serving", records)
    report = cr.check_all(tmp_path, ["serving"], last=5)
    result = report["results"][0]
    assert result["n_baselines"] == 5
    seconds = [c for c in result["comparisons"]
               if c["metric"] == "unbatched_seconds"][0]
    assert seconds["baseline_median"] == 1.0
    assert seconds["regressed"]  # 1.9x over a 1.0 median breaches 1.5x


def test_tolerance_widens_with_jitter_but_stays_capped():
    calm = [_record(1.0, jitter=1.0) for _ in range(3)]
    assert cr.tolerance_for(_record(1.0, jitter=1.0), calm) == 1.5
    # A noisier current host widens the allowance, but never to 2x.
    assert cr.tolerance_for(_record(1.0, jitter=1.2), calm) == pytest.approx(1.8)
    assert cr.tolerance_for(_record(1.0, jitter=50.0), calm) <= cr.TOLERANCE_CAP
    assert cr.TOLERANCE_CAP < 2.0


def test_tolerance_widens_across_hosts():
    baselines = [_record(1.0, host="hostA") for _ in range(3)]
    same = cr.tolerance_for(_record(1.0, host="hostA"), baselines)
    other = cr.tolerance_for(_record(1.0, host="hostB"), baselines)
    assert other == pytest.approx(same * cr.CROSS_HOST_WIDENING)


def test_tolerance_detail_itemizes_every_adjustment():
    calm = [_record(1.0, jitter=1.0, host="hostA") for _ in range(3)]
    detail = cr.tolerance_detail(_record(1.0, jitter=1.2, host="hostB"), calm)
    assert detail["base"] == cr.BASE_TOLERANCE
    assert detail["jitter_ratio"] == pytest.approx(1.2)
    assert detail["jitter_widening"] == pytest.approx(1.2)
    assert detail["cross_host"] is True
    assert detail["cross_host_widening"] == cr.CROSS_HOST_WIDENING
    assert detail["capped"] is False
    assert detail["tolerance"] == pytest.approx(
        cr.BASE_TOLERANCE * 1.2 * cr.CROSS_HOST_WIDENING)
    # tolerance_for stays the plain-float view of the same computation.
    assert cr.tolerance_for(_record(1.0, jitter=1.2, host="hostB"),
                            calm) == detail["tolerance"]
    # Max jitter widening alone stays under the cap (1.5 * 1.25 = 1.875);
    # stacking the cross-host factor pushes past it and trips the flag.
    wild = cr.tolerance_detail(_record(1.0, jitter=50.0, host="hostB"), calm)
    assert wild["jitter_widening"] == cr.MAX_JITTER_WIDENING
    assert wild["capped"] is True
    assert wild["tolerance"] == cr.TOLERANCE_CAP


def test_report_carries_tolerance_detail_and_logs_cross_host(tmp_path,
                                                             capsys):
    records = ([_record(1.0, host="hostA") for _ in range(3)]
               + [_record(1.0, host="hostB")])
    _write_history(tmp_path / "history", "serving", records)
    report_path = tmp_path / "report.json"
    rc = cr.main(["--history", str(tmp_path / "history"),
                  "--report", str(report_path), "serving"])
    assert rc == 0
    assert "cross-host baseline" in capsys.readouterr().out
    written = json.loads(report_path.read_text())
    detail = written["results"][0]["tolerance_detail"]
    assert detail["cross_host"] is True
    assert detail["cross_host_widening"] == cr.CROSS_HOST_WIDENING
    for comparison in written["results"][0]["comparisons"]:
        assert comparison["tolerance"] == pytest.approx(detail["tolerance"],
                                                        abs=1e-4)


def test_main_exits_nonzero_and_writes_report(tmp_path, capsys):
    records = [_record(1.0) for _ in range(3)] + [_record(2.0)]
    _write_history(tmp_path / "history", "serving", records)
    report_path = tmp_path / "BENCH_regression.json"
    rc = cr.main(["--history", str(tmp_path / "history"),
                  "--report", str(report_path), "serving"])
    assert rc == 1
    assert "REGRESSED" in capsys.readouterr().err
    report = json.loads(report_path.read_text())
    assert report["regressed"] == ["serving"]
    assert report["meta"]["calibration"]["jitter"] >= 1.0

    # Fixing the regression turns the same invocation green.
    _write_history(tmp_path / "history", "serving",
                   records[:-1] + [_record(1.01)])
    assert cr.main(["--history", str(tmp_path / "history"),
                    "--report", str(report_path), "serving"]) == 0


def test_every_registered_metric_has_a_schema():
    # A history name the gate checks must be an artifact CI validates.
    assert set(cr.METRICS) <= set(cba.SCHEMAS)


# ---------------------------------------------------------------------------
# Missing metrics (present in history, absent from the fresh record)
# ---------------------------------------------------------------------------

def _record_without_speedup(seconds: float) -> dict:
    record = _record(seconds)
    del record["metrics"]["speedup"]
    return record


def test_vanished_metric_reports_missing_not_ok(tmp_path):
    # Baselines carry `speedup`; the fresh record dropped it. Before the
    # fix this silently passed as `ok` — a renamed metric disabled its
    # own regression check.
    records = [_record(1.0) for _ in range(4)]
    records.append(_record_without_speedup(1.0))
    _write_history(tmp_path, "serving", records)
    report = cr.check_all(tmp_path, ["serving"])
    result = report["results"][0]
    assert result["status"] == "missing"
    assert report["missing"] == ["serving"]
    assert report["regressed"] == []
    gone = [c for c in result["comparisons"] if c.get("status") == "missing"]
    assert [c["metric"] for c in gone] == ["speedup"]
    assert gone[0]["current"] is None
    assert gone[0]["baseline_median"] == 2.0


def test_regression_outranks_missing(tmp_path):
    # A record that both regressed and lost a metric reports `regressed`.
    records = [_record(1.0) for _ in range(4)]
    records.append(_record_without_speedup(2.5))
    _write_history(tmp_path, "serving", records)
    report = cr.check_all(tmp_path, ["serving"])
    assert report["results"][0]["status"] == "regressed"
    assert report["regressed"] == ["serving"]
    assert report["missing"] == []


def test_brand_new_metric_is_not_missing(tmp_path):
    # The inverse hole: a metric no baseline ever recorded (its very
    # first run) has nothing to compare against and stays quiet.
    records = [_record_without_speedup(1.0) for _ in range(4)]
    records.append(_record(1.0))
    _write_history(tmp_path, "serving", records)
    report = cr.check_all(tmp_path, ["serving"])
    assert report["results"][0]["status"] == "ok"
    assert report["missing"] == []


def test_full_mode_fails_on_missing_but_named_mode_reports(tmp_path, capsys):
    records = [_record(1.0) for _ in range(4)]
    records.append(_record_without_speedup(1.0))
    _write_history(tmp_path / "history", "serving", records)
    report_path = tmp_path / "BENCH_regression.json"

    # Named mode (developer iterating on one bench): reported, rc 0.
    rc = cr.main(["--history", str(tmp_path / "history"),
                  "--report", str(report_path), "serving"])
    assert rc == 0
    assert "MISSING speedup" in capsys.readouterr().err

    # Full mode (CI gate): the vanished metric fails the run.
    rc = cr.main(["--history", str(tmp_path / "history"),
                  "--report", str(report_path)])
    assert rc == 1
    assert "MISSING speedup" in capsys.readouterr().err
    report = json.loads(report_path.read_text())
    assert report["missing"] == ["serving"]


# ---------------------------------------------------------------------------
# Artifact schema check
# ---------------------------------------------------------------------------

def _valid_serving_payload() -> dict:
    return {
        "unbatched_seconds": 1.0, "batched_seconds": 0.5, "speedup": 2.0,
        "batched_p50_ms": 5.0, "batched_p99_ms": 9.0,
        "unbatched_p50_ms": 10.0, "unbatched_p99_ms": 20.0,
        "n_requests": 64, "n_clients": 8, "batches": 9, "shed_demo": {},
    }


def test_unknown_bench_artifact_fails_full_check(tmp_path, monkeypatch):
    monkeypatch.setattr(cba, "HERE", tmp_path)
    (tmp_path / "BENCH_serving.json").write_text(
        json.dumps(_valid_serving_payload()))
    assert cba.main([]) == 0
    (tmp_path / "BENCH_mystery.json").write_text("{}")
    assert cba.unknown_artifacts(tmp_path) == ["mystery"]
    assert cba.main([]) == 1


def test_missing_keys_and_non_numeric_values_fail(tmp_path, monkeypatch):
    monkeypatch.setattr(cba, "HERE", tmp_path)
    payload = _valid_serving_payload()
    payload.pop("speedup")
    payload["batched_seconds"] = "fast"
    (tmp_path / "BENCH_serving.json").write_text(json.dumps(payload))
    problems = cba.check_artifact("serving")
    assert any("speedup" in p for p in problems)
    assert any("batched_seconds" in p and "numeric" in p for p in problems)


def test_serving_pool_artifact_is_registered(tmp_path, monkeypatch):
    # The pool bench is wired into both CI gates: schema + regression.
    assert "serving_pool" in cba.SCHEMAS
    assert cr.METRICS["serving_pool"]["speedup_4v1"] == "higher"
    assert cr.METRICS["serving_pool"]["p99_ms_r4"] == "lower"

    monkeypatch.setattr(cba, "HERE", tmp_path)
    payload = {
        "closed_rps_engine": 750.0,
        "closed_rps_r1": 700.0, "closed_rps_r2": 1200.0,
        "closed_rps_r4": 1400.0, "speedup_4v1": 2.0, "min_speedup": 1.8,
        "p50_ms_r4": 2.0, "p99_ms_r4": 6.0, "p999_ms_r4": 11.0,
        "replicas": {}, "n_clients": 8, "open_rate_rps": 900.0,
        "calibration": {"jitter": 1.0},
    }
    (tmp_path / "BENCH_serving_pool.json").write_text(json.dumps(payload))
    assert cba.check_artifact("serving_pool") == []
    payload.pop("p999_ms_r4")
    (tmp_path / "BENCH_serving_pool.json").write_text(json.dumps(payload))
    assert any("p999_ms_r4" in p
               for p in cba.check_artifact("serving_pool"))


def test_dag_pipeline_artifact_is_registered(tmp_path, monkeypatch):
    # The DAG bench is wired into both CI gates: schema + regression.
    assert "dag_pipeline" in cba.SCHEMAS
    assert cr.METRICS["dag_pipeline"]["cold_seconds"] == "lower"
    assert cr.METRICS["dag_pipeline"]["dirty_speedup"] == "higher"
    assert cr.METRICS["dag_pipeline"]["dedup_ratio"] == "higher"

    monkeypatch.setattr(cba, "HERE", tmp_path)
    payload = {
        "cold_seconds": 8.0, "dirty_seconds": 0.4, "warm_seconds": 0.05,
        "dirty_speedup": 20.0, "min_dirty_speedup": 2.5,
        "warm_speedup": 160.0, "dedup_ratio": 1.11,
        "nodes_executed_warm": 0, "tables": [], "nodes_total": 9,
        "nodes_merged": 1, "calibration": {"jitter": 1.0},
    }
    (tmp_path / "BENCH_dag_pipeline.json").write_text(json.dumps(payload))
    assert cba.check_artifact("dag_pipeline") == []
    payload.pop("dirty_speedup")
    (tmp_path / "BENCH_dag_pipeline.json").write_text(json.dumps(payload))
    assert any("dirty_speedup" in p
               for p in cba.check_artifact("dag_pipeline"))


# ---------------------------------------------------------------------------
# Stamping and the history store
# ---------------------------------------------------------------------------

def test_write_bench_artifact_stamps_and_appends_history(tmp_path,
                                                         monkeypatch):
    bc = _load_bench_conftest()
    monkeypatch.setattr(bc, "ARTIFACT_DIR", tmp_path)
    monkeypatch.setattr(bc, "HISTORY_DIR", tmp_path / "history")

    payload = {"seconds": 1.25, "speedup": 2.0, "full": False,
               "rows": [{"Method": "XClass"}], "label": "demo"}
    path = bc.write_bench_artifact("demo", payload)
    assert path == tmp_path / "BENCH_demo.json"

    written = json.loads(path.read_text())
    meta = written["meta"]
    assert meta["sha"] == _expected_sha()
    assert meta["host"] == hostcal.host() != ""
    assert meta["calibration"]["batch_gain"] > 0
    assert meta["calibration"]["jitter"] >= 1.0

    bc.write_bench_artifact("demo", payload)
    lines = (tmp_path / "history" / "demo.jsonl").read_text().splitlines()
    assert len(lines) == 2
    record = json.loads(lines[0])
    assert record["name"] == "demo" and record["sha"] == meta["sha"]
    # Only scalar numerics survive into metrics: no tables, no strings,
    # and `full` (a bool) is not a perf number.
    assert record["metrics"] == {"seconds": 1.25, "speedup": 2.0}


def _expected_sha() -> str:
    """HEAD's 40-hex SHA in a git checkout, else the documented
    ``"unknown"`` (e.g. a tree exported with ``git archive``)."""
    import subprocess

    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=BENCHMARKS,
                             capture_output=True, text=True)
    except OSError:  # no git binary
        return "unknown"
    head = out.stdout.strip()
    if out.returncode != 0 or not head:
        return "unknown"
    assert re.fullmatch(r"[0-9a-f]{40}", head)
    return head


def test_stamp_matches_git_head():
    assert hostcal.git_sha() == _expected_sha()
