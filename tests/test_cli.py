"""Tests for the experiment CLI."""

import pytest

from repro.experiments.cli import FIGURES, TABLES, main
from repro.experiments.tables import REQUESTS


def test_cli_list(capsys):
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    assert "westclass" in out and "pca-figure" in out


def test_cli_list_prints_every_id_once(capsys):
    assert main(["--list"]) == 0
    ids = [line.split()[0] for line in capsys.readouterr().out.splitlines()
           if line.startswith("  ")]
    assert ids == [*TABLES, *FIGURES]


def test_cli_no_args_lists(capsys):
    assert main([]) == 0
    assert "tables:" in capsys.readouterr().out


def test_cli_unknown_experiment(capsys):
    assert main(["not-real"]) == 2


def test_cli_summary_table(capsys):
    assert main(["summary"]) == 0
    out = capsys.readouterr().out
    assert "WeSTClass" in out and "MICoL" in out


def test_cli_registry_complete():
    # Every paper experiment id has a CLI entry.
    assert set(TABLES) >= {
        "westclass", "conwea", "lotclass", "lotclass-predictions",
        "xclass", "xclass-data", "promptclass", "weshclass", "taxoclass",
        "metacat", "micol", "summary",
    }
    assert set(FIGURES) == {"pca-figure", "confusion-figure"}


def test_cli_tables_are_the_request_registry_plus_summary():
    assert set(TABLES) == set(REQUESTS) | {"summary"}


@pytest.mark.parametrize("fast", [True, False])
def test_request_hooks_compile_their_own_table(fast):
    for name, build in REQUESTS.items():
        request = build(0, fast)
        assert request.table == name
        assert request.row_names
        assert len(set(request.row_names)) == len(request.row_names)


def test_cli_runs_a_table_through_the_dag(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_ROW_CACHE_DIR", str(tmp_path / "rows"))
    assert main(["xclass-data", "--no-cache"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "X-Class dataset statistics"
    rows = lines[3:lines.index("")]
    assert [row.split()[0] for row in rows] == ["agnews", "nyt_small", "yelp"]
    assert any(line.startswith("[dag] nodes=6 ") for line in lines)
