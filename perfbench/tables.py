"""``tables``: cold T-TAXOGEN regeneration through the DAG scheduler.

Runs ``python -m repro.experiments.cli taxogen --jobs 2`` as a user does,
from empty row-memo and encode stores: corpus generation, PLM
pretraining and NLI fine-tuning, pair scoring, taxonomy repair and the
TaxoClass/FUTEX fits, spread over spawn workers. Then it regenerates the
table again from the now warm artifact store (the incremental path),
which must execute no node.

The table seed is the workload seed modulo :data:`GOLDEN_SEEDS`; the
rows, without the ``seconds`` column, must equal the golden digest
recorded for that table seed in ``golden_tables.json``, and the warm
rerun must print the same rows.

Set-up is the CLI's own start-up (``--list``: interpreter, imports,
table registry), the median of three.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time

from common import BENCH_DIR, NPROC, median, reaped_children_rss_mb

#: Whether the program runs inside the benchmark process.
IN_PROCESS = False
JOBS = 2
GOLDEN_SEEDS = 4
TEST_DOCS = 200  # arxiv_sections test split: documents scored per row
GOLDEN_FILE = BENCH_DIR / "golden_tables.json"


def cli(env: dict, *args) -> tuple:
    """Run the experiments CLI; returns (stdout, wall seconds)."""
    start = time.perf_counter()
    out = subprocess.run([sys.executable, "-m", "repro.experiments.cli",
                          *args], env=env, capture_output=True,
                         text=True, timeout=600)
    seconds = time.perf_counter() - start
    if out.returncode != 0:
        raise RuntimeError(f"experiments cli {args} failed: "
                           f"{out.stderr[-2000:]}")
    return out.stdout, seconds


def parse_rows(stdout: str) -> tuple:
    """(rows without ``seconds``, row seconds, ``[dag]`` footer fields)."""
    lines = stdout.splitlines()
    header = next(i for i, line in enumerate(lines)
                  if line.startswith("Dataset "))
    columns = [c.strip() for c in lines[header].split("|")]
    rows, seconds = [], []
    for line in lines[header + 2:]:
        if " | " not in line:
            break
        cells = dict(zip(columns, (c.strip() for c in line.split("|"))))
        seconds.append(float(cells.pop("seconds")))
        rows.append(cells)
    footer = next(line for line in lines if line.startswith("[dag]"))
    fields = dict(item.split("=", 1) for item in footer.split()[1:-1])
    return rows, seconds, fields


def rows_digest(rows: list) -> str:
    return hashlib.sha256(json.dumps(rows, sort_keys=True).encode()
                          ).hexdigest()


def run(bench, seconds: float) -> dict:
    table_seed = bench.seed % GOLDEN_SEEDS
    starts = [cli(bench.env, "--list")[1] for _ in range(3)]
    cpu0 = os.times()
    stdout, wall_s = cli(bench.env, "taxogen", "--jobs", str(JOBS),
                          "--seed", str(table_seed))
    cpu1 = os.times()
    rows, _, dag = parse_rows(stdout)
    # The warm rerun's layer records stay out of the cold run's.
    env = dict(bench.env)
    if bench.trace:
        env["PERFBENCH_LAYERS_DIR"] = str(bench.dir)
    warm_out, warm_s = cli(env, "taxogen", "--jobs", str(JOBS),
                             "--seed", str(table_seed))
    warm, _, warm_dag = parse_rows(warm_out)

    golden = json.loads(GOLDEN_FILE.read_text())
    wrong = (rows_digest(rows) != golden.get(str(table_seed))) \
        + (warm != rows) + (int(warm_dag["executed"]) != 0)
    cpu_s = (cpu1.children_user + cpu1.children_system
             - cpu0.children_user - cpu0.children_system)
    e2e = {
        "setup_s": median(starts),
        # The CLI prints every row when the regeneration ends, so that is
        # when each row reaches its user. (The six per-row durations mix
        # two rows that carry a worker's PLM pretraining with four that
        # run beside them: too few and too mixed for a steady percentile.)
        "latency_p50_ms": 1000.0 * wall_s,
        "latency_p99_ms": 1000.0 * wall_s,
        "throughput_docs_s": len(rows) * TEST_DOCS / wall_s,
        "wall_s": wall_s,
        "peak_rss_mb": reaped_children_rss_mb(),
    }
    extra = {
        "failed_frac": wrong / (len(rows) + 2),
        "proc.cpu_util": cpu_s / (wall_s * NPROC),
        "cpu_s": cpu_s,
        "wall_s": wall_s,
        "experiments.dag.nodes_executed": int(dag["executed"]),
        "experiments.dag.nodes_reused": int(warm_dag["reused"]),
    }
    print(f"# tables: seed {table_seed}, {len(rows)} rows in {wall_s:.1f}s, "
          f"digest {rows_digest(rows)[:16]}, warm rerun {warm_s:.1f}s, "
          f"wrong {wrong}", file=sys.stderr)
    return {"e2e": e2e, "extra": extra, "correct": wrong == 0,
            "attempted": len(rows) + 2, "failed": wrong}


def traced(merged, extra: dict) -> dict:
    """tables specifics: the workers' busy share and node coverage."""
    workers = merged.role("dag-worker")
    node_s = sum(workers.seconds(f"experiments.node.{kind}")
                 for kind in ("corpus", "encode", "row"))
    return {
        "experiments.dag.nodes_executed":
            extra["experiments.dag.nodes_executed"],
        "experiments.dag.nodes_reused": extra["experiments.dag.nodes_reused"],
        "experiments.scheduler.busy_frac": node_s / (extra["wall_s"] * JOBS),
        "trace.coverage": workers.seconds("cover") / node_s if node_s else 0.0,
    }
