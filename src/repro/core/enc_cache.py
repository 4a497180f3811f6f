"""Cross-method encode cache for PLM document representations.

Every surveyed method re-encodes the same corpora through the same frozen
encoder, so per-document hidden states are cached process-wide, keyed by

- a **namespace**: the owning PLM's content identity (config plus a digest
  of its parameter arrays — stable across processes for identical models),
- a **document key**: a digest of the document's encoded token ids, so two
  surface-different documents that map to the same ids share one entry.

Two tiers:

- a bounded in-memory LRU (default 256 MB, ``REPRO_ENC_CACHE_BYTES``);
  the budget is a hard ceiling — an insert that cannot fit even after
  evicting everything else is itself dropped from the memory tier, so
  ``nbytes`` never exceeds ``max_bytes``;
- an optional on-disk tier (``REPRO_ENC_CACHE_DIR`` or the ``disk_dir``
  argument) of **mmap shards**: each namespace is one directory of flat
  ``.npy`` files of up to :data:`SHARD_DOCS` concatenated documents, each
  with a JSON offset index alongside. Disk hits are served as zero-copy
  ``np.load(..., mmap_mode="r")`` slice views and are *not* promoted
  into the memory tier — the OS page cache already holds the hot pages,
  so an XL corpus can stream through a small memory budget without
  thrashing the LRU. A shard is written every :data:`SHARD_DOCS` puts,
  on :meth:`EncodeCache.flush_shards`, and for the pending tail when the
  cache is collected or its process exits, so a ``put`` outlives it.

Set ``REPRO_ENC_CACHE=0`` to disable the cache entirely (the provider then
wires no cache into the models it builds).
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import uuid
import weakref
from collections import OrderedDict
from pathlib import Path

import numpy as np

from repro import obs
from repro.core import env as _env

_DEFAULT_MAX_BYTES = 256 << 20

#: Documents per mmap disk shard.
SHARD_DOCS = 256


def doc_key(ids: np.ndarray) -> str:
    """Stable digest of a document's encoded token ids."""
    ids = np.ascontiguousarray(np.asarray(ids, dtype=np.int64))
    return hashlib.blake2b(ids.tobytes(), digest_size=16).hexdigest()


def array_digest(arrays: list, extra: str = "") -> str:
    """Stable digest of a sequence of numpy arrays (model identity).

    ``extra`` folds non-array identity (e.g. a config repr) into the hash.
    """
    h = hashlib.blake2b(digest_size=16)
    if extra:
        h.update(extra.encode("utf-8"))
    for array in arrays:
        h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()


def _write_shard(directory: Path, pending: list) -> None:
    """Write ``(key, array)`` pairs as one mmap shard plus its index."""
    arrays = [np.ascontiguousarray(value) for _, value in pending]
    dtype = np.dtype(arrays[0].dtype)
    flat = np.concatenate(
        [a.reshape(-1).astype(dtype, copy=False) for a in arrays]
    )
    index: dict = {"dtype": str(dtype), "docs": {}}
    offset = 0
    for (key, _), array in zip(pending, arrays):
        index["docs"][key] = [offset, list(array.shape)]
        offset += array.size
    directory.mkdir(parents=True, exist_ok=True)
    # A fresh name per shard: readers map offsets by file name, so a
    # shard must never be replaced by another one (pids get reused).
    stem = f"shard_{uuid.uuid4().hex}"
    data_path = directory / f"{stem}.npy"
    tmp_data = directory / f"{stem}.tmp.npy"
    np.save(tmp_data, flat)
    tmp_data.replace(data_path)
    # The data file lands before its index: readers discover shards
    # through .idx.json files, so a crash between the two renames
    # leaves an orphaned (ignored) .npy, never a dangling index.
    idx_path = directory / f"{stem}.idx.json"
    tmp_idx = directory / f"{stem}.tmp.idx.json"
    tmp_idx.write_text(json.dumps(index))
    tmp_idx.replace(idx_path)
    obs.count("enc_cache.shards_written")


def _flush_pending(disk_dir: "Path | None", pending: dict) -> None:
    """Write (and forget) every namespace's pending documents."""
    while pending:
        namespace, docs = pending.popitem()
        _write_shard(disk_dir / namespace, docs)


def _flush_at_exit(disk_dir: Path, pending: dict) -> None:
    # A cache root deleted while the process ran stays deleted: the
    # tail is dropped, not written into a recreated tree.
    try:
        if disk_dir.is_dir():
            _flush_pending(disk_dir, pending)
    except OSError:
        pass  # a cache: an unwritten tail only costs a re-encode


class EncodeCache:
    """Bounded LRU over per-document arrays with an optional disk tier."""

    def __init__(self, max_bytes: int = _DEFAULT_MAX_BYTES,
                 disk_dir: "str | Path | None" = None):
        self.max_bytes = int(max_bytes)
        self.disk_dir = Path(disk_dir) if disk_dir else None
        self._entries: "OrderedDict[tuple, np.ndarray]" = OrderedDict()
        self._bytes = 0
        # Shard state: docs awaiting flush, the per-namespace shard
        # offset index, which .idx.json files were already folded in,
        # the open mmaps and the directory-mtime memo.
        self._pending: "dict[str, list]" = {}
        self._shard_index: "dict[str, dict]" = {}
        self._scanned: "dict[str, set]" = {}
        self._mmaps: "dict[str, np.ndarray]" = {}
        self._dir_state: "dict[str, int]" = {}
        self._scan_lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0
        self.evictions = 0
        self.rescans = 0
        if self.disk_dir is not None:
            self.disk_dir.mkdir(parents=True, exist_ok=True)
            # Runs on collection and at interpreter exit (spawn workers
            # included): a tail shorter than SHARD_DOCS still reaches disk.
            weakref.finalize(self, _flush_at_exit, self.disk_dir,
                             self._pending)

    @classmethod
    def from_env(cls) -> "EncodeCache | None":
        """Cache configured from the environment; None when disabled."""
        if not _env.enc_cache_enabled():
            return None
        return cls(max_bytes=_env.enc_cache_bytes(_DEFAULT_MAX_BYTES),
                   disk_dir=_env.enc_cache_dir())

    # -- lookup ---------------------------------------------------------------
    def get(self, namespace: str, key: str) -> "np.ndarray | None":
        """Cached array for (namespace, key), consulting every tier."""
        entry = self._entries.get((namespace, key))
        if entry is not None:
            self._entries.move_to_end((namespace, key))
        elif self.disk_dir is not None:
            entry = self._shard_get(namespace, key)
            if entry is not None:
                # Served straight off the mmap: no promotion, the page
                # cache is the warm tier for shard-resident documents.
                self.disk_hits += 1
                obs.count("enc_cache.disk_hits")
        if entry is None:
            self.misses += 1
            obs.count("enc_cache.misses")
            return None
        self.hits += 1
        obs.count("enc_cache.hits")
        return entry

    def put(self, namespace: str, key: str, value: np.ndarray) -> None:
        """Insert ``value``, evicting least-recently-used entries over budget."""
        self._insert(namespace, key, value)
        if self.disk_dir is not None:
            pending = self._pending.setdefault(namespace, [])
            pending.append((key, value))
            if len(pending) >= SHARD_DOCS:
                _write_shard(self.disk_dir / namespace,
                             self._pending.pop(namespace))

    def _insert(self, namespace: str, key: str, value: np.ndarray) -> None:
        full_key = (namespace, key)
        previous = self._entries.pop(full_key, None)
        if previous is not None:
            self._bytes -= previous.nbytes
        if value.nbytes > self.max_bytes:
            # The value alone exceeds the whole budget (e.g. one long
            # document): admitting it would flush every other entry and
            # still leave nbytes over max_bytes. The caller already holds
            # the array (and the disk tier may keep a copy), so the
            # memory tier just declines it — max_bytes is a hard ceiling.
            self.evictions += 1
            return
        self._entries[full_key] = value
        self._bytes += value.nbytes
        while self._bytes > self.max_bytes and len(self._entries) > 1:
            _, evicted = self._entries.popitem(last=False)
            self._bytes -= evicted.nbytes
            self.evictions += 1

    # -- mmap shards -----------------------------------------------------------
    def flush_shards(self) -> None:
        """Flush every namespace's pending documents to disk shards."""
        _flush_pending(self.disk_dir, self._pending)

    def _shard_get(self, namespace: str, key: str) -> "np.ndarray | None":
        """Mmap-backed view of ``key`` from the namespace's shards."""
        location = self._shard_index.get(namespace, {}).get(key)
        if location is None:
            self._rescan_shards(namespace)
            location = self._shard_index.get(namespace, {}).get(key)
            if location is None:
                return None
        path, offset, shape, dtype = location
        try:
            # One open mmap per shard file: repeated hits are a dict
            # lookup plus a zero-copy slice view, not an np.load each.
            flat = self._mmaps.get(path)
            if flat is None:
                flat = np.load(path, mmap_mode="r")
                self._mmaps[path] = flat
            size = int(np.prod(np.asarray(shape, dtype=np.int64)))
            return flat[offset:offset + size].reshape(shape)
        except (OSError, ValueError):
            # Shard vanished or is unreadable: forget it and miss. The
            # directory-state memo is dropped too, so the next miss
            # rescans even if the deletion didn't touch the dir mtime.
            self._mmaps.pop(path, None)
            self._dir_state.pop(namespace, None)
            idx_name = Path(path).name[: -len(".npy")] + ".idx.json"
            self._scanned.get(namespace, set()).discard(idx_name)
            self._shard_index[namespace] = {
                k: v for k, v in self._shard_index.get(namespace, {}).items()
                if v[0] != path
            }
            return None

    def _rescan_shards(self, namespace: str) -> None:
        """Fold any new shard indexes (e.g. from worker processes) in.

        Memoized on the namespace directory's mtime: when no writer has
        touched the directory since the last scan, this is one ``stat``
        — O(1) on the miss hot path instead of a glob plus JSON reads.
        The state is recorded *before* scanning, so an index landing
        mid-scan bumps the mtime past the memo and the next miss
        rescans.
        """
        directory = self.disk_dir / namespace
        try:
            state = os.stat(directory).st_mtime_ns
        except OSError:
            return  # no directory yet: nothing to fold
        # One scanner at a time: a second thread arriving mid-fold must
        # wait for the complete index rather than skipping names the
        # first thread claimed in `seen` and missing on its lookup.
        with self._scan_lock:
            if self._dir_state.get(namespace) == state:
                return
            self.rescans += 1
            obs.count("enc_cache.rescans")
            seen = self._scanned.setdefault(namespace, set())
            docs = self._shard_index.setdefault(namespace, {})
            for idx_path in sorted(directory.glob("shard_*.idx.json")):
                if idx_path.name in seen:
                    continue
                seen.add(idx_path.name)
                try:
                    index = json.loads(idx_path.read_text())
                except (OSError, ValueError):
                    continue
                data_path = str(
                    idx_path.with_name(
                        idx_path.name[: -len(".idx.json")] + ".npy"))
                dtype = index.get("dtype", "float32")
                for key, (offset, shape) in index.get("docs", {}).items():
                    docs[key] = (data_path, int(offset), list(shape), dtype)
            self._dir_state[namespace] = state

    # -- maintenance ----------------------------------------------------------
    def clear(self) -> None:
        """Drop the in-memory tier (disk entries are left in place)."""
        self._entries.clear()
        self._bytes = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def nbytes(self) -> int:
        """Bytes currently held by the memory tier."""
        return self._bytes

    def stats(self) -> dict:
        """Hit/miss/eviction counters plus current occupancy."""
        return {
            "entries": len(self._entries),
            "bytes": self._bytes,
            "hits": self.hits,
            "misses": self.misses,
            "disk_hits": self.disk_hits,
            "evictions": self.evictions,
            "rescans": self.rescans,
        }

    def __repr__(self) -> str:
        return (f"EncodeCache(entries={len(self._entries)}, "
                f"bytes={self._bytes}, max_bytes={self.max_bytes})")
