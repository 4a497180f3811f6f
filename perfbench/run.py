"""The repository benchmark: one command, three workloads.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload serve-http --seed 1 --seconds 10 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

- ``serve-http`` (:mod:`serve_http`) -- HTTP front door, closed loop;
- ``stream`` (:mod:`stream`) -- the streaming pipeline with one drift
  re-fit;
- ``tables`` (:mod:`tables`) -- cold T-TAXOGEN regeneration over the DAG
  scheduler.

``--trace 0`` measures the end-to-end metrics with nothing added to the
program. ``--trace 1`` is a separate run with the benchmark's layer
timers installed in every process (``hook/``) and prints the per-layer
metrics. Every run checks the program's outputs. The last line of
standard output is the JSON result; the lines before it record the
environment the run measured.

The program is run from ``src/`` of the checkout; nothing is built.
Every store the program writes lives under ``.perfbench_runs/`` and is
deleted when the run ends.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from pathlib import Path

import common
import layer_metrics
import serve_http
import stream
import tables

WORKLOADS = {
    "serve-http": serve_http,
    "stream": stream,
    "tables": tables,
}


def _untraced_walls(workload: str) -> Path:
    return common.RUNS_DIR / f"untraced-{workload}.json"


def _remember_wall(workload: str, wall_s: float) -> None:
    """Keep the last untraced ``wall_s`` values for trace.overhead_frac."""
    path = _untraced_walls(workload)
    walls = json.loads(path.read_text()) if path.exists() else []
    path.write_text(json.dumps((walls + [wall_s])[-9:]))


def _overhead_frac(workload: str, result: dict, wrapper_s: float) -> float:
    """The traced ``wall_s`` against the median of earlier untraced runs
    in this checkout; without any, the timers' calibrated cost over the
    CPU time of the processes under test."""
    path = _untraced_walls(workload)
    if path.exists():
        return result["e2e"]["wall_s"] / common.median(
            json.loads(path.read_text())) - 1.0
    cpu_s = result["extra"]["cpu_s"]
    return wrapper_s / cpu_s if cpu_s else 0.0


def _per_layer(module, run, result: dict, declared: dict) -> dict:
    import perfbench_layers

    records = run.layer_records()
    metrics = layer_metrics.layer_metrics(records,
                                          perfbench_layers.calibrate())
    merged = layer_metrics.Merged(records)
    extra = result["extra"]
    metrics.update(module.traced(merged, extra))
    metrics["failed_frac"] = extra["failed_frac"]
    metrics["proc.cpu_util"] = extra["proc.cpu_util"]
    metrics["trace.overhead_frac"] = _overhead_frac(
        run.workload, result, metrics.pop("trace.wrapper_s"))
    return {entry["name"]: (metrics.get(entry["name"], 0.0), entry["unit"])
            for entry in declared["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not common.program_present():
        print(f"error: no program sources under {common.SRC}",
              file=sys.stderr)
        return 2
    declared = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    module = WORKLOADS[args.workload]
    run = common.Run(args.workload, args.seed, bool(args.trace))
    try:
        run.enter(module.IN_PROCESS)
        print("# env " + json.dumps(common.environment_record(),
                                    sort_keys=True), flush=True)
        result = module.run(run, args.seconds)
        if args.trace:
            metrics = _per_layer(module, run, result, declared)
        else:
            _remember_wall(args.workload, result["e2e"]["wall_s"])
            metrics = {entry["name"]: (result["e2e"][entry["name"]],
                                       entry["unit"])
                       for entry in declared["end_to_end"]}
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        run.close()
    print("# metrics " + json.dumps({k: v for k, (v, _) in metrics.items()}),
          file=sys.stderr)
    common.emit(result["correct"], result["attempted"], result["failed"],
                metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
