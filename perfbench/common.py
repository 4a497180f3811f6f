"""Shared plumbing for the benchmark workloads.

- :class:`Run` -- one benchmark invocation: a fresh scratch directory in
  the checkout (registry, corpus store, row memo and encode stores all
  live under it and are deleted at the end), the child-process
  environment, and the traced-run layer records.
- Statistics: percentiles, medians.
- Process accounting from ``/proc``: CPU seconds and peak RSS of a
  process tree.
- :func:`environment_record` -- git SHA (or a digest of ``src/`` when
  the checkout is not a git repository), nproc, Python/numpy versions
  and the BLAS thread configuration, as found.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
HOOK_DIR = BENCH_DIR / "hook"
RUNS_DIR = ROOT / ".perfbench_runs"

#: Thread-count variables of the BLAS/OpenMP runtimes numpy may load.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

NPROC = os.cpu_count() or 1


def program_present() -> bool:
    """Whether the checkout holds the program's sources."""
    return (SRC / "repro" / "__init__.py").is_file()


class Run:
    """Scratch space and environment of one benchmark invocation."""

    def __init__(self, workload: str, seed: int, trace: bool):
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.dir = RUNS_DIR / f"{workload}-{os.getpid()}-{time.time_ns()}"
        self.dir.mkdir(parents=True)
        self.layers_dir = self.dir / "layers"
        self.layers_dir.mkdir()
        self.models = self.dir / "models"
        self.corpus = self.dir / "corpus"
        self.rows = self.dir / "rows"
        self.env = dict(os.environ)
        path = [str(SRC)]
        if trace:
            path.insert(0, str(HOOK_DIR))
            self.env["PERFBENCH_LAYERS_DIR"] = str(self.layers_dir)
        if self.env.get("PYTHONPATH"):
            path.append(self.env["PYTHONPATH"])
        self.env["PYTHONPATH"] = os.pathsep.join(path)
        # Fresh stores per run; the program reads these knobs itself.
        self.env["REPRO_MODEL_DIR"] = str(self.models)
        self.env["REPRO_CORPUS_DIR"] = str(self.corpus)
        self.env["REPRO_ROW_CACHE_DIR"] = str(self.rows)
        self.env.pop("REPRO_ENC_CACHE_DIR", None)
        self.env.pop("REPRO_TRACE", None)

    def enter(self, in_process: bool) -> None:
        """Make this process run the program the way children do.

        ``in_process`` workloads run the program inside this process, so
        a traced run installs the layer timers here too.
        """
        os.environ.clear()
        os.environ.update(self.env)
        for entry in reversed(self.env["PYTHONPATH"].split(os.pathsep)):
            if entry not in sys.path:
                sys.path.insert(0, entry)
        if self.trace and in_process:
            import perfbench_layers

            perfbench_layers.install(str(self.layers_dir))

    def layer_records(self) -> list:
        """Layer records of every process of this run (traced runs)."""
        if not self.trace:
            return []
        import perfbench_layers

        return perfbench_layers.collect(str(self.layers_dir))

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def percentile(values, q: float) -> float:
    """``q``-th percentile (0-100) with linear interpolation."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = (len(ordered) - 1) * q / 100.0
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def median(values) -> float:
    return percentile(values, 50.0)


# ---------------------------------------------------------------------------
# process accounting
# ---------------------------------------------------------------------------

_TICKS = os.sysconf("SC_CLK_TCK")


def _stat(pid: int) -> "list | None":
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()
    except OSError:
        return None


def process_tree(root: int) -> list:
    """``root`` and every live descendant pid."""
    children: dict = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat(int(entry))
            if fields is not None:
                children.setdefault(int(fields[1]), []).append(int(entry))
    tree, todo = [], [root]
    while todo:
        pid = todo.pop()
        tree.append(pid)
        todo.extend(children.get(pid, ()))
    return tree


def tree_cpu_s(root: int) -> float:
    """CPU seconds used so far by ``root``'s process tree.

    Counts each live process's own time plus the time of the children it
    has already reaped, so processes that exited are not lost.
    """
    total = 0
    for pid in process_tree(root):
        fields = _stat(pid)
        if fields is not None:
            total += sum(int(f) for f in fields[11:15])
    return total / _TICKS


def tree_rss_mb(root: int) -> float:
    """Largest peak RSS (VmHWM) among ``root``'s live process tree."""
    peak = 0
    for pid in process_tree(root):
        try:
            with open(f"/proc/{pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        peak = max(peak, int(line.split()[1]))
        except OSError:
            pass
    return peak / 1024.0


def reaped_children_rss_mb() -> float:
    """Largest peak RSS among reaped child processes (and theirs)."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# run record
# ---------------------------------------------------------------------------

def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _git_sha() -> "str | None":
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment_record() -> dict:
    """What the numbers were measured on."""
    import numpy

    blas = {}
    try:
        config = numpy.show_config(mode="dicts")
        info = config.get("Build Dependencies", {}).get("blas", {})
        blas = {"name": info.get("name"), "version": info.get("version"),
                "config": info.get("openblas configuration")}
    except (TypeError, AttributeError):
        pass
    return {
        "git_sha": _git_sha(),
        "src_digest": _source_digest(),
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": {name: os.environ.get(name, "unset")
                         for name in BLAS_THREAD_VARS},
        "repro_env": sorted(k for k in os.environ
                            if k.startswith(("REPRO_ENGINE_", "REPRO_NN_"))),
    }


def emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    """Print the result line (the last line of standard output)."""
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(max(1, attempted)),
        "failed": int(failed),
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }), flush=True)
