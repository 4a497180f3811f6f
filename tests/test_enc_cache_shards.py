"""Encode-cache tiers: memory accounting boundary and mmap shards.

Memory tier: ``max_bytes`` is a hard ceiling — boundary inserts are
admitted exactly up to the budget, never-fitting inserts are declined
without evicting what already fits. Shard tier: documents stream to
flat mmap shards with a JSON offset index, read back bit-identically
(including by fresh cache instances, other processes and concurrent
readers) as zero-copy memmap views that never re-enter the memory tier.
A tail shorter than ``SHARD_DOCS`` reaches disk when its process exits.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core import enc_cache
from repro.core.enc_cache import EncodeCache, doc_key

pytestmark = pytest.mark.engine

SRC = Path(__file__).resolve().parent.parent / "src"


def _doc(rng, tokens: int, dim: int = 8) -> np.ndarray:
    return rng.standard_normal((tokens, dim)).astype(np.float32)


def _python(script: str, *args) -> str:
    """Run ``script`` in a fresh interpreter with ``src`` importable."""
    result = subprocess.run(
        [sys.executable, "-c", script, *map(str, args)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ,
             "PYTHONPATH": str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", "")},
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


# ---------------------------------------------------------------------------
# Memory-tier accounting
# ---------------------------------------------------------------------------

def test_insert_exactly_at_budget_is_admitted():
    cache = EncodeCache(max_bytes=128)
    value = np.zeros(32, dtype=np.float32)  # exactly 128 bytes
    cache.put("ns", "a", value)
    assert cache.nbytes == 128 and len(cache) == 1
    assert cache.evictions == 0


def test_never_fitting_insert_is_declined_not_churned():
    cache = EncodeCache(max_bytes=128)
    cache.put("ns", "keep", np.zeros(16, dtype=np.float32))  # 64 bytes
    cache.put("ns", "huge", np.zeros(64, dtype=np.float32))  # 256 bytes
    # The oversized value is declined outright; the resident entry and
    # its accounting are untouched (no evict-everything-then-fail churn).
    assert cache.get("ns", "keep") is not None
    assert cache.get("ns", "huge") is None
    assert cache.nbytes == 64
    assert cache.evictions == 1  # the declined insert is counted


def test_lru_eviction_keeps_bytes_under_budget(rng):
    cache = EncodeCache(max_bytes=256)
    for i in range(8):
        cache.put("ns", f"doc{i}", np.zeros(16, dtype=np.float32))  # 64 each
        assert cache.nbytes <= 256
    assert len(cache) == 4  # the 4 most recent fit
    assert cache.get("ns", "doc0") is None
    assert cache.get("ns", "doc7") is not None


def test_replacing_an_entry_does_not_double_count():
    cache = EncodeCache(max_bytes=256)
    cache.put("ns", "a", np.zeros(16, dtype=np.float32))
    cache.put("ns", "a", np.zeros(32, dtype=np.float32))
    assert cache.nbytes == 128 and len(cache) == 1


# ---------------------------------------------------------------------------
# Shard tier
# ---------------------------------------------------------------------------

def test_shards_round_trip_bit_identical(tmp_path, rng, monkeypatch):
    monkeypatch.setattr(enc_cache, "SHARD_DOCS", 4)
    writer = EncodeCache(max_bytes=1 << 20, disk_dir=tmp_path)
    docs = {f"doc{i}": _doc(rng, tokens=3 + i) for i in range(10)}
    for key, value in docs.items():
        writer.put("ns", key, value)
    writer.flush_shards()

    shard_files = sorted(tmp_path.rglob("shard_*.npy"))
    index_files = sorted(tmp_path.rglob("shard_*.idx.json"))
    assert len(shard_files) == 3 and len(index_files) == 3
    for idx in index_files:
        payload = json.loads(idx.read_text())
        assert payload["dtype"] == "float32"

    # A fresh instance (fresh process stand-in) reads everything back
    # bit-identically as zero-copy memmap views, not memory-tier copies.
    reader = EncodeCache(max_bytes=1 << 20, disk_dir=tmp_path)
    for key, value in docs.items():
        got = reader.get("ns", key)
        assert isinstance(got, np.memmap)
        np.testing.assert_array_equal(got, value)
    assert reader.disk_hits == len(docs)
    assert reader.nbytes == 0, "shard hits must not promote into memory"


def test_shard_hits_bypass_memory_tier(tmp_path, rng, monkeypatch):
    monkeypatch.setattr(enc_cache, "SHARD_DOCS", 2)
    cache = EncodeCache(max_bytes=64, disk_dir=tmp_path)
    big = _doc(rng, tokens=16)  # 512 bytes: never fits in memory
    cache.put("ns", "big0", big)
    cache.put("ns", "big1", big)
    assert cache.nbytes == 0
    got = cache.get("ns", "big0")
    np.testing.assert_array_equal(got, big)
    assert cache.disk_hits == 1 and cache.nbytes == 0


def test_pending_docs_surface_after_flush(tmp_path, rng):
    cache = EncodeCache(max_bytes=0, disk_dir=tmp_path)
    value = _doc(rng, tokens=4)
    cache.put("ns", "pending", value)
    assert not list(tmp_path.rglob("shard_*.npy"))
    cache.flush_shards()
    reader = EncodeCache(max_bytes=0, disk_dir=tmp_path)
    np.testing.assert_array_equal(reader.get("ns", "pending"), value)


def test_reader_discovers_other_writers_shards(tmp_path, rng):
    """A long-lived cache lazily folds in shards written by workers."""
    reader = EncodeCache(max_bytes=1 << 20, disk_dir=tmp_path)
    assert reader.get("ns", "w0") is None  # nothing yet

    _python(
        "import sys\n"
        "import numpy as np\n"
        "from repro.core.enc_cache import EncodeCache\n"
        "cache = EncodeCache(max_bytes=1 << 20, disk_dir=sys.argv[1])\n"
        "rng = np.random.default_rng(7)\n"
        "for i in range(4):\n"
        "    cache.put('ns', f'w{i}',\n"
        "              rng.standard_normal((5, 8)).astype(np.float32))\n"
        "cache.flush_shards()\n",
        tmp_path)

    rng7 = np.random.default_rng(7)
    expected = [rng7.standard_normal((5, 8)).astype(np.float32)
                for _ in range(4)]
    for i in range(4):
        np.testing.assert_array_equal(reader.get("ns", f"w{i}"), expected[i])


def test_concurrent_writers_of_the_same_keys_never_collide(tmp_path):
    """Two processes putting the same keys at once both land intact.

    Neither writer flushes: each writes one full shard on its 256th put
    and its 44-document tail at exit. Every shard gets a uuid name, so
    the two writers' files never replace each other, and each rename
    consumes its temporary file.
    """
    script = (
        "import sys, time\n"
        "import numpy as np\n"
        "from repro.core.enc_cache import EncodeCache\n"
        "cache = EncodeCache(max_bytes=0, disk_dir=sys.argv[1])\n"
        "value = np.zeros((64, 32), dtype=np.float32)\n"
        "while time.time() < float(sys.argv[2]):\n"
        "    time.sleep(0.001)\n"
        "for i in range(300):\n"
        "    cache.put('ns', f'k{i}', value)\n"
    )
    env = {**os.environ,
           "PYTHONPATH": str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", "")}
    start = f"{time.time() + 3.0:.3f}"  # both begin after interpreter start
    writers = [subprocess.Popen([sys.executable, "-c", script, str(tmp_path),
                                 start], env=env, stderr=subprocess.PIPE,
                                text=True) for _ in range(2)]
    for writer in writers:
        _, stderr = writer.communicate(timeout=120)
        assert writer.returncode == 0, stderr
    reader = EncodeCache(max_bytes=0, disk_dir=tmp_path)
    for i in range(300):
        np.testing.assert_array_equal(reader.get("ns", f"k{i}"),
                                      np.zeros((64, 32), dtype=np.float32))
    # One full shard plus one exit tail per writer, none replaced.
    assert len(list(tmp_path.glob("ns/shard_*.idx.json"))) == 4
    assert not list(tmp_path.rglob("*.tmp.*"))


def test_process_exit_writes_the_pending_tail(tmp_path):
    """Fewer than SHARD_DOCS puts and no flush still reach the next process.

    The cache root does not exist beforehand: the cache creates it.
    """
    root = tmp_path / "new" / "enc"
    _python(
        "import sys\n"
        "import numpy as np\n"
        "from repro.core.enc_cache import EncodeCache\n"
        "cache = EncodeCache(max_bytes=1 << 20, disk_dir=sys.argv[1])\n"
        "for i in range(10):\n"
        "    cache.put('ns', f'd{i}', np.full((3, 4), i, dtype=np.float32))\n",
        root)
    out = _python(
        "import sys\n"
        "import numpy as np\n"
        "from repro.core.enc_cache import EncodeCache\n"
        "cache = EncodeCache(max_bytes=1 << 20, disk_dir=sys.argv[1])\n"
        "for i in range(10):\n"
        "    got = cache.get('ns', f'd{i}')\n"
        "    assert got is not None, i\n"
        "    assert (got == np.full((3, 4), i, dtype=np.float32)).all()\n"
        "print(cache.disk_hits)\n",
        root)
    assert out.split() == ["10"]


def test_process_exit_does_not_recreate_a_deleted_root(tmp_path):
    """A cache root removed while the process runs stays removed."""
    root = tmp_path / "enc"
    _python(
        "import shutil, sys\n"
        "import numpy as np\n"
        "from repro.core.enc_cache import EncodeCache\n"
        "cache = EncodeCache(max_bytes=1 << 20, disk_dir=sys.argv[1])\n"
        "cache.put('ns', 'd0', np.zeros((3, 4), dtype=np.float32))\n"
        "shutil.rmtree(sys.argv[1])\n",
        root)
    assert not root.exists()


def test_concurrent_shard_reads_are_consistent(tmp_path, rng, monkeypatch):
    monkeypatch.setattr(enc_cache, "SHARD_DOCS", 8)  # several shards
    writer = EncodeCache(max_bytes=1 << 20, disk_dir=tmp_path)
    docs = {f"doc{i}": _doc(rng, tokens=4 + (i % 5)) for i in range(32)}
    for key, value in docs.items():
        writer.put("ns", key, value)
    writer.flush_shards()

    reader = EncodeCache(max_bytes=1 << 20, disk_dir=tmp_path)
    errors = []

    def hammer():
        try:
            for _ in range(20):
                for key, value in docs.items():
                    np.testing.assert_array_equal(reader.get("ns", key), value)
        except Exception as exc:  # propagated to the main thread below
            errors.append(exc)

    threads = [threading.Thread(target=hammer) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors, errors


def test_corrupt_shard_is_forgotten_not_fatal(tmp_path, rng):
    writer = EncodeCache(max_bytes=1 << 20, disk_dir=tmp_path)
    value = _doc(rng, tokens=4)
    writer.put("ns", "a", value)
    writer.put("ns", "b", value)
    writer.flush_shards()
    reader = EncodeCache(max_bytes=1 << 20, disk_dir=tmp_path)
    for shard in tmp_path.rglob("shard_*.npy"):
        shard.unlink()  # index survives, data is gone
    assert reader.get("ns", "a") is None  # miss, no exception
    assert reader.misses == 1


def test_shard_rescan_memoized_while_directory_unchanged(tmp_path, rng):
    writer = EncodeCache(max_bytes=1 << 20, disk_dir=tmp_path)
    value = _doc(rng, tokens=4)
    writer.put("ns", "a", value)
    writer.flush_shards()

    reader = EncodeCache(max_bytes=1 << 20, disk_dir=tmp_path)
    np.testing.assert_array_equal(reader.get("ns", "a"), value)
    assert reader.rescans == 1  # first miss in the tier pays one scan
    # Repeated misses with an untouched directory are one stat() each,
    # not a re-glob: the rescan counter must not move.
    assert reader.get("ns", "absent0") is None
    assert reader.get("ns", "absent1") is None
    assert reader.rescans == 1
    assert reader.stats()["rescans"] == 1


def test_directory_mtime_change_triggers_exactly_one_rescan(tmp_path, rng):
    writer = EncodeCache(max_bytes=1 << 20, disk_dir=tmp_path)
    first = _doc(rng, tokens=4)
    writer.put("ns", "a", first)
    writer.flush_shards()
    reader = EncodeCache(max_bytes=1 << 20, disk_dir=tmp_path)
    np.testing.assert_array_equal(reader.get("ns", "a"), first)
    assert reader.rescans == 1

    late = _doc(rng, tokens=6)
    writer.put("ns", "late0", late)
    writer.put("ns", "late1", late)
    writer.flush_shards()
    # Writing the shard touches the namespace dir; bump the mtime
    # explicitly so the test does not depend on filesystem timestamp
    # granularity.
    directory = tmp_path / "ns"
    stat = os.stat(directory)
    os.utime(directory, ns=(stat.st_atime_ns, stat.st_mtime_ns + 1))

    np.testing.assert_array_equal(reader.get("ns", "late0"), late)
    assert reader.rescans == 2
    # The fresh scan re-memoizes: further misses stay scan-free.
    assert reader.get("ns", "absent") is None
    assert reader.rescans == 2


def test_missing_namespace_directory_records_no_memo(tmp_path, rng):
    reader = EncodeCache(max_bytes=1 << 20, disk_dir=tmp_path)
    assert reader.get("ns", "w0") is None  # no directory yet: no scan
    assert reader.rescans == 0

    writer = EncodeCache(max_bytes=1 << 20, disk_dir=tmp_path)
    value = _doc(rng, tokens=4)
    writer.put("ns", "w0", value)
    writer.put("ns", "w1", value)
    writer.flush_shards()
    np.testing.assert_array_equal(reader.get("ns", "w0"), value)
    assert reader.rescans == 1


def test_vanished_shard_invalidates_rescan_memo(tmp_path, rng):
    writer = EncodeCache(max_bytes=1 << 20, disk_dir=tmp_path)
    value = _doc(rng, tokens=4)
    writer.put("ns", "a", value)
    writer.put("ns", "b", value)
    writer.flush_shards()
    reader = EncodeCache(max_bytes=1 << 20, disk_dir=tmp_path)
    # A plain miss folds the index and memoizes the directory state
    # without opening the shard's mmap (an open mmap would outlive the
    # unlink below).
    assert reader.get("ns", "zzz") is None
    assert reader.rescans == 1

    for shard in (tmp_path / "ns").rglob("shard_*.npy"):
        shard.unlink()
    assert reader.get("ns", "a") is None  # unreadable: forgotten, memo dropped

    # A later shard must be folded in even when the deletion left the
    # directory mtime where the memo saw it: the error path drops the
    # memo and discards the dead .idx.json from the scanned set.
    writer2 = EncodeCache(max_bytes=1 << 20, disk_dir=tmp_path)
    writer2.put("ns", "c", value)
    writer2.put("ns", "d", value)
    writer2.flush_shards()
    np.testing.assert_array_equal(reader.get("ns", "c"), value)
    assert reader.rescans == 2


def test_doc_key_stable_across_dtypes():
    ids32 = np.asarray([1, 2, 3], dtype=np.int32)
    ids64 = np.asarray([1, 2, 3], dtype=np.int64)
    assert doc_key(ids32) == doc_key(ids64)
