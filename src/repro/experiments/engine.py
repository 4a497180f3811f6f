"""Worker pool, seeding, and artifact store behind the experiment DAG.

Every paper table compiles into a content-addressed artifact graph
(:mod:`repro.experiments.dag`) that :mod:`repro.experiments.scheduler`
runs — the one way a table row, or a drift re-fit, executes. This
module holds the three pieces the scheduler builds on:

- **Deterministic sharded seeding** — each node's seed is derived from
  ``(table_seed, node_name)`` by :func:`derive_row_seed`, so its numbers
  depend only on its own identity, never on execution order or
  placement. Parallel output is therefore bit-identical to serial output.
- **Spawn worker pool** — :class:`_Worker` is one persistent
  ``multiprocessing`` (spawn) process plus its duplex pipe; the
  in-process PLM/bundle caches amortize across the nodes a worker
  executes, and a hung or crashed worker can be terminated and replaced
  without touching its siblings. :func:`_execute_row` runs one node
  (``node.runner(seed, **node.kwargs)``) and turns its failures into the
  ``error``-column convention: ``MemoryError`` renders as the papers'
  literal ``"-"``; any other exception yields ``ExcName: message``.
- **Artifact store** — :class:`RowMemo` keeps finished node payloads as
  JSON files under ``<row-cache>/dag`` (``REPRO_ROW_CACHE_DIR`` sets the
  row-cache root), fronted by an in-memory tier keyed by store directory
  and node digest. Writes are atomic (tmp-then-``os.replace``); corrupt
  entries read as misses.

When tracing is enabled (:mod:`repro.obs`), a worker runs each node under
a ``node:<name>`` span inside a short-lived worker-side tracer whose
export travels back through the result pipe alongside the metrics.

Env knobs (all read through :mod:`repro.core.env`): ``REPRO_JOBS``
(default worker count), ``REPRO_ROW_CACHE`` (``0`` disables the store),
``REPRO_ROW_CACHE_DIR`` (store location), ``REPRO_ROW_TIMEOUT`` (default
per-node timeout, seconds).
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from pathlib import Path

from repro import obs
from repro.core import env as _env

#: Sentinel a runner may return to drop its row from the table (mirrors
#: the seed harness skipping e.g. a theme with no matching context).
SKIP_ROW = {"__skip__": True}

_ROW_SEED_SPAN = 2**31


# ---------------------------------------------------------------------------
# Seeding
# ---------------------------------------------------------------------------

def derive_row_seed(table_seed: int, row_name: str) -> int:
    """Deterministic per-node seed from ``(table_seed, row_name)``.

    Stable across processes and Python versions (blake2b, not ``hash``),
    so a node produces identical numbers wherever and whenever it runs.
    """
    payload = f"{int(table_seed)}\x1f{row_name}".encode("utf-8")
    digest = hashlib.blake2b(payload, digest_size=8).digest()
    return int.from_bytes(digest[:4], "big") % _ROW_SEED_SPAN


_SOURCE_VERSION: "list[str]" = []


def source_version() -> str:
    """Digest of the ``repro`` source tree (the store's ``tree`` stamp).

    Hashing file contents (not mtimes) keeps the stamp stable across
    checkouts while changing whenever any source changes.
    """
    if _SOURCE_VERSION:
        return _SOURCE_VERSION[0]
    root = Path(__file__).resolve().parents[1]  # src/repro
    h = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        if "__pycache__" in rel:
            continue
        h.update(rel.encode("utf-8"))
        h.update(b"\x00")
        h.update(path.read_bytes())
        h.update(b"\x00")
    _SOURCE_VERSION.append(h.hexdigest()[:16])
    return _SOURCE_VERSION[0]


# ---------------------------------------------------------------------------
# Artifact store
# ---------------------------------------------------------------------------

_MEMO_MEMORY: "dict[tuple[str, str], dict]" = {}


def default_cache_dir() -> Path:
    """Row-cache root (``REPRO_ROW_CACHE_DIR`` or the XDG default)."""
    return _env.row_cache_dir()


def clear_memo_memory() -> None:
    """Drop the in-memory tier (benches use this to force disk reads)."""
    _MEMO_MEMORY.clear()


class RowMemo:
    """Two-tier (memory + JSON files) store of finished node payloads."""

    def __init__(self, directory: "str | Path"):
        self.directory = Path(directory)

    def _memory_key(self, key: str) -> tuple:
        # The memory tier is shared by every store in the process, so a
        # digest alone must not answer for a different directory.
        return (str(self.directory), key)

    def get(self, key: str) -> "dict | None":
        payload = _MEMO_MEMORY.get(self._memory_key(key))
        if payload is None:
            try:
                raw = (self.directory / f"{key}.json").read_text()
                payload = json.loads(raw)
            except (OSError, ValueError):
                return None
            if not isinstance(payload, dict) or "metrics" not in payload:
                return None  # corrupt entry: treat as a miss
            _MEMO_MEMORY[self._memory_key(key)] = payload
        # Callers mutate rows (merge static columns, significance
        # markers); hand out a copy so tiers stay pristine.
        return {"metrics": dict(payload["metrics"]),
                "seconds": payload.get("seconds", 0.0)}

    def put(self, key: str, payload: dict) -> None:
        _MEMO_MEMORY[self._memory_key(key)] = {
            "metrics": dict(payload["metrics"]),
            "seconds": payload.get("seconds", 0.0)}
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            # Stamp the source digest the entry was written under so
            # prune() can tell live entries from leftovers of old
            # checkouts without recomputing any keys.
            disk = dict(payload)
            disk.setdefault("tree", source_version())
            tmp = self.directory / f".{key}.{os.getpid()}.tmp"
            tmp.write_text(json.dumps(disk, sort_keys=True))
            os.replace(tmp, self.directory / f"{key}.json")
        except OSError:
            pass  # a read-only cache dir degrades to memory-only

    def prune(self, keep_digest: "str | None" = None,
              keep_keys=()) -> tuple:
        """Sweep entries from dead source trees; returns (kept, removed).

        An entry survives if its stamped ``tree`` equals ``keep_digest``
        (default: the current :func:`source_version`) or its key is in
        ``keep_keys`` — node digests are scoped, so an artifact can
        outlive a whole-tree change (the ``cache-prune`` CLI passes the
        compiled graphs' digests). Unstamped or unreadable entries are
        removed: they predate the stamp and cannot be keyed by any
        current run.
        """
        if keep_digest is None:
            keep_digest = source_version()
        keep_keys = frozenset(keep_keys)
        kept = removed = 0
        try:
            entries = sorted(self.directory.glob("*.json"))
        except OSError:
            return (0, 0)
        for path in entries:
            key = path.stem
            if key in keep_keys:
                kept += 1
                continue
            try:
                payload = json.loads(path.read_text())
                tree = (payload.get("tree")
                        if isinstance(payload, dict) else None)
            except (OSError, ValueError):
                tree = None
            if tree == keep_digest:
                kept += 1
                continue
            try:
                path.unlink()
            except OSError:
                continue
            _MEMO_MEMORY.pop(self._memory_key(key), None)
            removed += 1
        return (kept, removed)


# ---------------------------------------------------------------------------
# Node execution (shared by the serial path and the workers)
# ---------------------------------------------------------------------------

def _execute_row(spec, row_seed: int) -> tuple:
    """Run one node; exceptions become ``error`` cells, never escapes.

    ``spec`` is a :class:`~repro.experiments.dag.DagNode` (anything with
    ``.runner`` and ``.kwargs``).
    """
    start = time.perf_counter()
    try:
        metrics = spec.runner(row_seed, **spec.kwargs)
    except MemoryError:  # the tables' literal "-" case
        metrics = {"error": "-"}
    except Exception as exc:  # noqa: BLE001 - isolate node failures
        metrics = {"error": f"{type(exc).__name__}: {exc}"}
    return metrics, time.perf_counter() - start


def _worker_main(conn) -> None:
    """Worker loop: receive ``(task_id, node, seed, trace)``, send results.

    When ``trace`` is set the node runs under a fresh worker-side tracer;
    its exported spans and counters ride back with the metrics and the
    parent re-roots them into the run trace (:meth:`Tracer.absorb`).
    """
    while True:
        try:
            task = conn.recv()
        except (EOFError, OSError):
            return
        if task is None:
            return
        task_id, spec, row_seed, trace = task
        payload = None
        if trace:
            name = f"node:{spec.name}"
            obs.enable(name)
            with obs.span(name):
                metrics, seconds = _execute_row(spec, row_seed)
            payload = obs.disable().export()
        else:
            metrics, seconds = _execute_row(spec, row_seed)
        try:
            conn.send((task_id, metrics, seconds, payload))
        except (BrokenPipeError, OSError):
            return


class _Worker:
    """One pool slot: a spawn process plus its duplex pipe."""

    def __init__(self, ctx):
        self.conn, child = ctx.Pipe(duplex=True)
        self.process = ctx.Process(target=_worker_main, args=(child,),
                                   daemon=True)
        self.process.start()
        child.close()
        self.task = None  # (task_id, node, seed, trace) currently running
        self.deadline = None

    def assign(self, task: tuple, timeout: "float | None") -> None:
        self.conn.send(task)
        self.task = task
        self.deadline = time.monotonic() + timeout if timeout else None

    def stop(self, force: bool = False) -> None:
        if not force:
            try:
                self.conn.send(None)
            except (BrokenPipeError, OSError):
                pass
            self.process.join(timeout=1.0)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=1.0)
        self.conn.close()


def _enc_cache_dir_for(cache_dir: Path) -> Path:
    """Shared encode-cache disk tier next to the row-cache root."""
    return Path(cache_dir).parent / "enc"


# ---------------------------------------------------------------------------
# Knob resolution (explicit argument, else the environment)
# ---------------------------------------------------------------------------

def _resolve_jobs(jobs: "int | None") -> int:
    if jobs is not None:
        return max(1, int(jobs))
    return _env.jobs()


def _resolve_use_cache(use_cache: "bool | None") -> bool:
    if use_cache is not None:
        return bool(use_cache)
    return _env.row_cache_enabled()


def _resolve_timeout(timeout: "float | None") -> "float | None":
    if timeout is not None:
        return float(timeout) if timeout > 0 else None
    return _env.row_timeout()
