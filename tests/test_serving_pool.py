"""Replica-pool tests: dispatch, typed errors, HTTP front door, CLI.

The contract under test: a pool of worker processes, each a plain
predict loop over the artifact, answers bit-identically to a single
in-process :class:`ServingEngine`; backpressure and deadline errors
cross the process boundary *typed*; a crashed worker fails only its own
in-flight requests; and the HTTP layer maps those errors onto
429/504/503 status codes.

The fake models here are module-level classes on purpose: pool workers
are ``spawn`` processes that unpickle the artifact's ``state.pkl``, so
everything it references must be importable from a fresh interpreter.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.exceptions import (
    DeadlineExceeded,
    Overloaded,
    ServingError,
)
from repro.datasets import load_profile
from repro.methods import XClass
from repro.serve import (
    ModelRegistry,
    PoolConfig,
    PoolServer,
    ReplicaPool,
    ServeConfig,
    ServingEngine,
    export_artifact,
)
from repro.serve import pool as pool_mod

pytestmark = pytest.mark.serving

SRC = Path(__file__).resolve().parent.parent / "src"


class SlowModel:
    """Picklable fake whose predict blocks (drives overload/deadline)."""

    def __init__(self, delay_s: float = 0.25):
        self.delay_s = delay_s

    def predict(self, docs):
        time.sleep(self.delay_s)
        return ["slow"] * len(docs)


class CallCountModel:
    """Picklable fake that answers with its own 1-based predict count."""

    def __init__(self):
        self.calls = 0

    def predict(self, docs):
        self.calls += 1
        return [self.calls] * len(docs)


class TokenCountModel:
    """Picklable fake: label = the document's token count."""

    def predict(self, docs):
        return [f"label-{len(doc)}" for doc in docs]


class ThreadCountModel:
    """Picklable fake that answers with its process's Python thread count."""

    def predict(self, docs):
        return [threading.active_count()] * len(docs)


class BlasThreadsModel:
    """Picklable fake that answers with its process's BLAS thread vars."""

    def predict(self, docs):
        return [tuple(os.environ.get(name)
                      for name in pool_mod.BLAS_THREAD_VARS)] * len(docs)


@pytest.fixture(scope="module")
def pool_bundle():
    return load_profile("agnews", seed=0, scale=0.2)


@pytest.fixture(scope="module")
def pool_registry(pool_bundle, tiny_plm, tmp_path_factory):
    model = XClass(plm=tiny_plm, seed=0)
    model.fit(pool_bundle.train_corpus, pool_bundle.label_names())
    registry = ModelRegistry(tmp_path_factory.mktemp("pool-registry"))
    registry.publish("pool-x", model, provenance={"test": "serving_pool"})
    return registry


@pytest.fixture(scope="module")
def xpool(pool_registry):
    config = PoolConfig(replicas=2, warmup=False)
    with ReplicaPool.from_registry(pool_registry, "pool-x",
                                   config=config) as pool:
        yield pool


@pytest.fixture(scope="module")
def http_server(xpool):
    with PoolServer(xpool, port=0).start() as server:
        yield server


@pytest.fixture()
def slow_pool(tmp_path):
    path = export_artifact(SlowModel(), tmp_path / "slow")
    pool = ReplicaPool(path, config=PoolConfig(
        replicas=1, max_queue=4, warmup=False))
    yield pool
    pool.close()


def _http(server, method, path, body=None):
    conn = http.client.HTTPConnection(*server.address, timeout=60)
    try:
        headers = {"Content-Type": "application/json"} if body else {}
        conn.request(method, path, body=body, headers=headers)
        resp = conn.getresponse()
        payload = json.loads(resp.read().decode("utf-8"))
        return resp.status, payload, dict(resp.getheaders())
    finally:
        conn.close()


# ---------------------------------------------------------------------------
# Pool dispatch and equivalence
# ---------------------------------------------------------------------------

def test_pool_matches_single_engine_bit_identical(xpool, pool_registry,
                                                  pool_bundle):
    docs = pool_bundle.test_corpus.token_lists()[:16]
    with ServingEngine(pool_registry.load("pool-x"),
                       ServeConfig(warmup=False)) as engine:
        expected = engine.classify(docs, timeout=120)

    # Whole-batch and per-doc dispatch both reproduce the single engine.
    assert xpool.classify(docs, timeout=120) == list(expected)
    singles = [xpool.submit([doc]) for doc in docs]
    assert [r.wait(120)[0] for r in singles] == list(expected)
    assert xpool.labels == pool_registry.load("pool-x").labels


def test_scores_bit_identical_at_one_blas_thread(pool_registry, pool_bundle,
                                                 tmp_path):
    """Replicas run one BLAS thread; offline callers run the default.

    ``predict_scored`` scores from a process at ``OPENBLAS_NUM_THREADS=1``
    must equal this process's byte for byte, on short and longer-than-
    ``max_len`` documents mixed in one call.
    """
    lists = pool_bundle.test_corpus.token_lists()
    docs = ([tokens[:3] for tokens in lists[:16]]
            + [lists[i] + lists[i + 1] + lists[i + 2] for i in range(16, 32)])
    _, reference = pool_registry.load("pool-x").predict_scored(docs)
    path = pool_registry.version_dir(
        "pool-x", pool_registry.resolve("pool-x", "latest"))
    (tmp_path / "docs.json").write_text(json.dumps(docs))
    script = (
        "import json, sys\n"
        "import numpy as np\n"
        "from repro.serve import load_artifact\n"
        "artifact, docs_path, out_path = sys.argv[1:4]\n"
        "docs = json.loads(open(docs_path).read())\n"
        "np.save(out_path, load_artifact(artifact).predict_scored(docs)[1])\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script, str(path), str(tmp_path / "docs.json"),
         str(tmp_path / "out.npy")],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1",
             "PYTHONPATH": str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", "")},
    )
    assert result.returncode == 0, result.stderr
    fresh = np.load(tmp_path / "out.npy")
    assert fresh.dtype == reference.dtype and fresh.shape == reference.shape
    assert fresh.tobytes() == reference.tobytes()


def test_pool_spreads_load_and_reports_stats(xpool, pool_bundle):
    docs = pool_bundle.test_corpus.token_lists()[:12]
    requests = [xpool.submit([doc]) for doc in docs]
    for request in requests:
        request.wait(120)
        assert request.done() and request.latency_s >= 0

    stats = xpool.stats()
    assert stats["alive"] == 2 and stats["replicas"] == 2
    assert stats["completed"] >= len(docs)
    assert stats["replica_busy_max"] >= 2  # both replicas held work at once
    per_replica = stats["per_replica"]
    assert len(per_replica) == 2
    # Least-loaded dispatch actually used both workers.
    assert all(r["dispatched"] > 0 for r in per_replica)
    assert sum(r["dispatched"] for r in per_replica) == stats["dispatched"]
    assert all(r["completed"] == r["dispatched"] for r in per_replica)


def test_pool_worker_is_a_single_thread(tmp_path):
    path = export_artifact(ThreadCountModel(), tmp_path / "threads")
    with ReplicaPool(path, config=PoolConfig(replicas=1,
                                             warmup=False)) as pool:
        assert pool.classify([["a"], ["b"]], timeout=60) == [1, 1]


def test_pool_warmup_runs_before_traffic(tmp_path):
    path = export_artifact(CallCountModel(), tmp_path / "calls")
    # With warmup, each worker's one throwaway predict comes first.
    for warmup, first in ((False, 1), (True, 2)):
        with ReplicaPool(path, config=PoolConfig(replicas=1,
                                                 warmup=warmup)) as pool:
            assert pool.classify([["a"]], timeout=60) == [first]


def test_pool_worker_runs_one_blas_thread_unless_set(tmp_path, monkeypatch):
    path = export_artifact(BlasThreadsModel(), tmp_path / "blas")
    config = PoolConfig(replicas=1, warmup=False)
    for name in pool_mod.BLAS_THREAD_VARS:
        monkeypatch.delenv(name, raising=False)
    with ReplicaPool(path, config=config) as pool:
        assert pool.classify([["a"]], timeout=60) == [("1", "1", "1")]
    # The variables reach the worker only, not the parent's environment.
    assert not any(name in os.environ for name in pool_mod.BLAS_THREAD_VARS)

    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    with ReplicaPool(path, config=config) as pool:
        assert pool.classify([["a"]], timeout=60) == [("2", "1", "1")]
    assert os.environ["OPENBLAS_NUM_THREADS"] == "2"
    assert "OMP_NUM_THREADS" not in os.environ


def test_pool_close_drain_resolves_every_accepted_request_exactly_once(
        tmp_path, monkeypatch):
    """Concurrent submitters racing ``ReplicaPool.close()``.

    Every request the pool *accepted* must settle exactly once (no lost
    futures, no double resolution), and every submit that loses the
    race must raise the typed closed error rather than hang.
    """
    settlements = []  # every Request.resolve/fail call lands here

    class AuditedRequest(pool_mod.Request):
        __slots__ = ()

        def resolve(self, result):
            settlements.append(self)
            super().resolve(result)

        def fail(self, error):
            settlements.append(self)
            super().fail(error)

    monkeypatch.setattr(pool_mod, "Request", AuditedRequest)
    path = export_artifact(TokenCountModel(), tmp_path / "tokens")
    pool = ReplicaPool(path, config=PoolConfig(replicas=1, warmup=False,
                                               max_queue=100_000))
    n_submitters = 4
    accepted: list = []
    closed_errors: list = []
    barrier = threading.Barrier(n_submitters + 1)

    def submitter():
        barrier.wait()
        while True:
            try:
                accepted.append(pool.submit([["tok"] * 3]))
            except Overloaded:
                continue
            except ServingError as exc:
                closed_errors.append(exc)
                return

    threads = [threading.Thread(target=submitter)
               for _ in range(n_submitters)]
    for t in threads:
        t.start()
    barrier.wait()
    time.sleep(0.05)  # let the race build a backlog
    pool.close()
    for t in threads:
        t.join(30)
        assert not t.is_alive(), "submitter hung instead of erroring"

    assert len(closed_errors) == n_submitters
    assert all("closed" in str(exc) for exc in closed_errors)
    assert accepted, "race produced no accepted requests"
    # Exactly once: no request settles twice, every accepted one settles.
    assert len({id(r) for r in settlements}) == len(settlements)
    assert {id(r) for r in accepted} <= {id(r) for r in settlements}
    # Drain means resolution, not failure, for every accepted request.
    for request in accepted:
        assert request.done()
        assert request.wait(5) == ["label-3"]
    assert pool.stats()["replica_deaths"] == 0


# ---------------------------------------------------------------------------
# Typed errors across the process boundary
# ---------------------------------------------------------------------------

def test_pool_overload_sheds_typed(slow_pool):
    accepted = [slow_pool.submit([[f"d{i}"]]) for i in range(4)]
    with pytest.raises(Overloaded, match="max_queue"):
        slow_pool.submit([["overflow"]])
    assert slow_pool.stats()["shed"] == 1
    for request in accepted:
        assert request.wait(60) == ["slow"]


def test_pool_deadline_miss_is_typed(slow_pool):
    slow_pool.submit([["blocker"]])
    # Let the worker take the blocker into predict (0.25s) so the late
    # request queues behind it instead of joining its batch.
    time.sleep(0.1)
    late = slow_pool.submit([["late"]], deadline_s=0.05)
    with pytest.raises(DeadlineExceeded):
        late.wait(60)
    assert slow_pool.stats()["deadline_miss"] == 1


def test_replica_crash_fails_inflight_and_pool_survives(tmp_path):
    path = export_artifact(SlowModel(), tmp_path / "slow")
    pool = ReplicaPool(path, config=PoolConfig(
        replicas=2, max_queue=8, warmup=False))
    try:
        # Least-loaded dispatch alternates: two requests on each replica.
        requests = [pool.submit([[f"d{i}"]]) for i in range(4)]
        victim = pool.stats()["per_replica"][0]
        assert victim["in_flight"] == 2
        os.kill(victim["pid"], signal.SIGKILL)
        doomed, survived = requests[0::2], requests[1::2]
        for request in doomed:
            with pytest.raises(ServingError, match="died"):
                request.wait(30)
        for request in survived:
            assert request.wait(60) == ["slow"]

        deadline = time.monotonic() + 10
        while pool.alive_count() > 1 and time.monotonic() < deadline:
            time.sleep(0.05)
        stats = pool.stats()
        assert stats["alive"] == 1 and stats["replica_deaths"] == 1
        # The survivor keeps serving.
        assert pool.classify([["b"]], timeout=60) == ["slow"]
    finally:
        pool.close()


def test_all_replicas_dead_is_typed(pool_registry):
    pool = ReplicaPool.from_registry(
        pool_registry, "pool-x", config=PoolConfig(replicas=2, warmup=False))
    try:
        for entry in pool.stats()["per_replica"]:
            os.kill(entry["pid"], signal.SIGKILL)
        deadline = time.monotonic() + 10
        while pool.alive_count() > 0 and time.monotonic() < deadline:
            time.sleep(0.05)
        with pytest.raises(ServingError, match="no live replicas"):
            pool.submit([["x"]])
    finally:
        pool.close()
    with pytest.raises(ServingError, match="closed"):
        pool.submit([["late"]])


# ---------------------------------------------------------------------------
# HTTP front door
# ---------------------------------------------------------------------------

def test_http_healthz_and_stats(http_server):
    status, payload, _ = _http(http_server, "GET", "/healthz")
    assert status == 200
    assert payload == {"status": "ok", "alive": 2}

    status, payload, _ = _http(http_server, "GET", "/stats")
    assert status == 200
    assert payload["alive"] == 2
    assert [r["replica"] for r in payload["per_replica"]] == [0, 1]
    assert sum(r["dispatched"] for r in payload["per_replica"]) == \
        payload["dispatched"]

    status, _, _ = _http(http_server, "GET", "/nope")
    assert status == 404


def test_http_stats_is_not_a_served_request(http_server, xpool, pool_bundle):
    xpool.classify(pool_bundle.test_corpus.token_lists()[:1], timeout=120)
    for _ in range(3):
        status, payload, _ = _http(http_server, "GET", "/stats")
        assert status == 200
    assert payload["in_flight"] == 0
    assert payload["completed"] == payload["dispatched"]
    assert all(r["completed"] == r["dispatched"]
               for r in payload["per_replica"])


def test_http_classify_matches_pool(http_server, xpool, pool_bundle):
    docs = pool_bundle.test_corpus.token_lists()[:4]
    expected = xpool.classify(docs, timeout=120)
    status, payload, _ = _http(http_server, "POST", "/classify",
                               json.dumps({"docs": docs}))
    assert status == 200
    assert payload == {"labels": list(expected)}


def test_http_bad_requests_are_400(http_server, xpool):
    dispatched = xpool.stats()["dispatched"]
    docs = [["d"]]
    for body in ("{nope", json.dumps({"docs": []}), json.dumps({"no": 1}),
                 json.dumps({"docs": docs, "deadline_s": "soon"}),
                 json.dumps({"docs": docs, "timeout_s": "soon"}),
                 json.dumps({"docs": docs, "deadline_s": True}),
                 json.dumps({"docs": docs, "timeout_s": False}),
                 json.dumps({"docs": docs, "deadline_s": -1}),
                 json.dumps({"docs": docs, "timeout_s": -0.5}),
                 json.dumps({"docs": docs, "deadline_s": float("nan")}),
                 json.dumps({"docs": docs, "timeout_s": float("inf")}),
                 json.dumps({"docs": docs, "deadline_s": 10 ** 400})):
        status, payload, _ = _http(http_server, "POST", "/classify", body)
        assert status == 400, body
        assert payload["error"] == "bad-request"
    # Rejected before dispatch: no replica saw any of them.
    assert xpool.stats()["dispatched"] == dispatched


class _InstantPool:
    """Pool stand-in that answers at once: isolates the HTTP layer.

    A request whose first document is ``["overload"]`` is shed, so the
    429 path can be driven without a real backlog.
    """

    def classify(self, docs, deadline_s=None, timeout=None):
        if docs[0] == ["overload"]:
            raise Overloaded("stub pool is full")
        return ["x"] * len(docs)


def test_http_keepalive_round_trip_has_no_ack_stall():
    # With Nagle on and the body in a second send, each keep-alive answer
    # waited for the client's delayed ACK: a median of ~40 ms. Without
    # the stall the round trip is well under a millisecond.
    body = json.dumps({"docs": [["a", "b"]] * 8})
    headers = {"Content-Type": "application/json"}
    with PoolServer(_InstantPool(), port=0).start() as server:
        conn = http.client.HTTPConnection(*server.address, timeout=60)
        try:
            rtts = []
            for _ in range(50):
                start = time.perf_counter()
                conn.request("POST", "/classify", body=body, headers=headers)
                resp = conn.getresponse()
                assert json.loads(resp.read()) == {"labels": ["x"] * 8}
                rtts.append(time.perf_counter() - start)

            # Error replies leave in the same single write; the framing
            # must hold, so the connection stays usable after them.
            conn.request("POST", "/classify", body=b"{not json",
                         headers=headers)
            resp = conn.getresponse()
            assert resp.status == 400
            assert json.loads(resp.read())["error"] == "bad-request"

            conn.request("POST", "/classify",
                         body=json.dumps({"docs": [["overload"]]}),
                         headers=headers)
            resp = conn.getresponse()
            assert resp.status == 429
            assert resp.getheader("Retry-After") == "1"
            assert json.loads(resp.read())["error"] == "overloaded"

            conn.request("POST", "/classify", body=body, headers=headers)
            resp = conn.getresponse()
            assert resp.status == 200
            assert json.loads(resp.read()) == {"labels": ["x"] * 8}
        finally:
            conn.close()
    rtts.sort()
    assert rtts[len(rtts) // 2] < 0.010, rtts


def test_http09_request_gets_a_bare_body(http_server):
    # HTTP/0.9 has no status line or headers: the one write is the body.
    # (The stdlib still reads a header block, so the blank line ends it.)
    with socket.create_connection(http_server.address, timeout=60) as sock:
        sock.sendall(b"GET /healthz\r\n\r\n")
        data = b""
        while chunk := sock.recv(4096):
            data += chunk
    assert json.loads(data) == {"status": "ok", "alive": 2}


def test_http_backpressure_maps_to_429_and_504(tmp_path):
    path = export_artifact(SlowModel(), tmp_path / "slow")
    pool = ReplicaPool(path, config=PoolConfig(
        replicas=1, max_queue=2, warmup=False))
    try:
        with PoolServer(pool, port=0).start() as server:
            blockers = [pool.submit([["a"]]), pool.submit([["b"]])]
            status, payload, headers = _http(
                server, "POST", "/classify", json.dumps({"docs": [["c"]]}))
            assert status == 429
            assert payload["error"] == "overloaded"
            assert headers.get("Retry-After") == "1"
            for request in blockers:
                request.wait(60)

            pool.submit([["blocker"]])
            # As in test_pool_deadline_miss_is_typed: let the worker take
            # the blocker into predict so "late" cannot join its batch.
            time.sleep(0.1)
            status, payload, _ = _http(
                server, "POST", "/classify",
                json.dumps({"docs": [["late"]], "deadline_s": 0.05}))
            assert status == 504
            assert payload["error"] == "deadline-exceeded"
    finally:
        pool.close()


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_pool_serves_http_and_exits_clean(pool_registry, tmp_path,
                                              pool_bundle, capsys):
    from repro.serve.cli import main

    port_file = tmp_path / "port.txt"
    rc: dict = {}

    def run():
        rc["value"] = main(["--root", str(pool_registry.root), "pool",
                            "pool-x", "--replicas", "2", "--port", "0",
                            "--max-seconds", "5",
                            "--port-file", str(port_file), "--no-warmup"])

    thread = threading.Thread(target=run)
    thread.start()
    try:
        deadline = time.monotonic() + 60
        while not port_file.exists() and time.monotonic() < deadline:
            time.sleep(0.1)
        assert port_file.exists(), "pool CLI never wrote its port file"
        host, port = port_file.read_text().split()

        conn = http.client.HTTPConnection(host, int(port), timeout=60)
        try:
            conn.request("GET", "/healthz")
            assert conn.getresponse().read() is not None
            doc = pool_bundle.test_corpus.token_lists()[0]
            conn.request("POST", "/classify",
                         body=json.dumps({"docs": [doc]}),
                         headers={"Content-Type": "application/json"})
            resp = conn.getresponse()
            assert resp.status == 200
            assert json.loads(resp.read().decode())["labels"]
        finally:
            conn.close()
    finally:
        thread.join(90)
    assert not thread.is_alive(), "pool CLI failed to exit after max-seconds"
    assert rc["value"] == 0
    out = capsys.readouterr()
    assert "listening on http://" in out.out
    assert "[pool] dispatched=" in out.err
