"""``serve-http``: the HTTP front door under a closed loop.

Set-up, as a user runs it: ``python -m repro serve export --method
xclass --profile agnews`` (default ``PLMConfig``, float32 artifact), then
``python -m repro serve pool <model> --replicas 2`` as its own process.
One client process with 2 threads, each holding one keep-alive HTTP
connection, sends ``POST /classify`` requests of 8 documents -- 4 short
(8 tokens) and 4 at ``max_len`` -- that are unique across the whole run,
so cross-request batching and the encode cache never help.

The loop runs for ``--seconds`` and at least :data:`MIN_REQUESTS`
requests, so at least 10 round trips fall beyond p99. The labels of the
first :data:`MIN_REQUESTS` answers must equal an offline
``ServableModel.predict`` of the same documents.
"""

from __future__ import annotations

import http.client
import json
import signal
import subprocess
import sys
import threading
import time

from common import NPROC, median, percentile, tree_cpu_s, tree_rss_mb

#: Whether the program runs inside the benchmark process.
IN_PROCESS = False
MODEL = "bench-xclass"
DOCS_PER_REQUEST = 8
SHORT_TOKENS = 8
MIN_REQUESTS = 1010
MAX_MEASURE_S = 100.0
CLIENTS = 2
START_TIMEOUT_S = 120.0


def request_docs(seed: int, count: int, plm) -> list:
    """``count`` requests of unique documents generated from ``seed``.

    Documents are drawn from the agnews profile: a short document is an
    8-token window of one generated document, a long one joins three
    documents and cuts the result at ``max_len`` tokens. No two encode to
    the same ids under ``plm``, so the encode cache can never hit.
    """
    from repro.core.types import Document
    from repro.datasets import load_profile

    pool = [doc.tokens for doc in
            load_profile("agnews", seed=seed, scale=4.0).train_corpus]
    half = DOCS_PER_REQUEST // 2
    seen: set = {tuple(plm.vocabulary.encode(["warmup"]))}
    shorts, longs = [], []
    n = len(pool)
    step = 0
    while len(shorts) < count * half or len(longs) < count * half:
        for i in range(n):
            tokens = pool[i]
            start = step % max(1, len(tokens) - SHORT_TOKENS)
            short = " ".join(tokens[start:start + SHORT_TOKENS])
            joined = tokens + pool[(i + 1 + step) % n] + pool[(i + 7 + step) % n]
            long = " ".join(joined[step % 5:][:plm.max_len])
            for text, bucket in ((short, shorts), (long, longs)):
                ids = tuple(plm.vocabulary.encode(
                    Document(doc_id="d", text=text).tokens)[:plm.max_len])
                if ids not in seen and len(bucket) < count * half:
                    seen.add(ids)
                    bucket.append(text)
        step += 1
    return [shorts[r * half:(r + 1) * half] + longs[r * half:(r + 1) * half]
            for r in range(count)]


class _Client(threading.Thread):
    """One keep-alive connection sending requests until told to stop."""

    def __init__(self, port: int, take, results: list, stop: threading.Event):
        super().__init__(daemon=True)
        self.port = port
        self.take = take
        self.results = results
        self.stop = stop
        self.error: "Exception | None" = None

    def run(self) -> None:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            while not self.stop.is_set():
                item = self.take()
                if item is None:
                    break
                index, docs = item
                body = json.dumps({"docs": docs})
                start = time.perf_counter()
                conn.request("POST", "/classify", body,
                             {"Content-Type": "application/json"})
                response = conn.getresponse()
                payload = response.read()
                end = time.perf_counter()
                labels = (json.loads(payload).get("labels")
                          if response.status == 200 else None)
                self.results.append((index, end - start, end, labels))
        except Exception as exc:  # reported as a failed run
            self.error = exc
        finally:
            conn.close()


def _healthy(port: int) -> bool:
    try:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=2)
        conn.request("GET", "/healthz")
        ok = conn.getresponse().status == 200
        conn.close()
        return ok
    except OSError:
        return False


def start_server(bench) -> tuple:
    """Launch ``serve pool``; returns (process, port, seconds to healthy)."""
    port_file = bench.dir / "port"
    start = time.perf_counter()
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "pool", MODEL,
         "--replicas", "2", "--port", "0", "--port-file", str(port_file)],
        env=bench.env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True)
    deadline = start + START_TIMEOUT_S
    port = None
    while time.perf_counter() < deadline and process.poll() is None:
        if port is None and port_file.exists():
            text = port_file.read_text().split()
            if len(text) == 2:
                port = int(text[1])
        if port is not None and _healthy(port):
            return process, port, time.perf_counter() - start
        time.sleep(0.02)
    stop_server(process)
    raise RuntimeError(f"serve pool did not become healthy: "
                       f"{process.stderr.read()[-2000:]}")


def stop_server(process) -> None:
    """Interrupt the server (it drains the pool and exits) and reap it."""
    if process.poll() is None:
        process.send_signal(signal.SIGINT)
        try:
            process.wait(60)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait(10)
    if process.stderr is not None:
        process.stderr.close()


def run(bench, seconds: float) -> dict:
    # -- set-up: fit + publish, then start the server --------------------
    start = time.perf_counter()
    export = subprocess.run(
        [sys.executable, "-m", "repro", "serve", "export", "--method",
         "xclass", "--profile", "agnews", "--name", MODEL],
        env={**bench.env, "PERFBENCH_ROLE": "setup"}, capture_output=True,
        text=True, timeout=600)
    export_s = time.perf_counter() - start
    if export.returncode != 0:
        raise RuntimeError(f"serve export failed: {export.stderr[-2000:]}")
    from repro.serve.registry import ModelRegistry

    servable = ModelRegistry(bench.models).load(MODEL)
    requests = request_docs(bench.seed, 4 * MIN_REQUESTS, servable.model.plm)
    server, port, start_s = start_server(bench)

    # -- measured closed loop -------------------------------------------
    results: list = []
    stop = threading.Event()
    lock = threading.Lock()
    issued = [0]

    def take():
        with lock:
            index = issued[0]
            if index == len(requests):
                return None
            issued[0] += 1
        return index, requests[index]

    try:
        cpu_before = tree_cpu_s(server.pid)
        t0 = time.perf_counter()
        clients = [_Client(port, take, results, stop) for _ in range(CLIENTS)]
        for client in clients:
            client.start()
        while True:
            time.sleep(0.05)
            elapsed = time.perf_counter() - t0
            done = len(results)
            if any(c.error for c in clients) or elapsed > MAX_MEASURE_S:
                break
            if elapsed >= seconds and done >= MIN_REQUESTS:
                break
            if issued[0] == len(requests):
                break
        stop.set()
        for client in clients:
            client.join(60)
        wall = time.perf_counter() - t0
        cpu_s = tree_cpu_s(server.pid) - cpu_before
        rss_mb = tree_rss_mb(server.pid)
    finally:
        stop.set()
        stop_server(server)
    errors = [c.error for c in clients if c.error is not None]
    if errors:
        raise RuntimeError(f"client failed: {errors[0]!r}")

    # -- correctness: the first MIN_REQUESTS answers vs offline predict --
    checked = sorted(results)[:MIN_REQUESTS]
    docs = [doc for index, *_ in checked for doc in requests[index]]
    reference = [l if isinstance(l, str) else list(l)
                 for l in servable.predict(docs)]
    wrong = 0
    for n, (index, _, _, labels) in enumerate(checked):
        expected = reference[n * DOCS_PER_REQUEST:(n + 1) * DOCS_PER_REQUEST]
        wrong += labels is not None and labels != expected
    failed = wrong + sum(1 for r in results if r[3] is None)
    attempted = len(results)

    rtts_ms = [r[1] * 1000.0 for r in results]
    ends = sorted(r[2] for r in results)
    block = min(1000, len(ends))
    e2e = {
        "setup_s": export_s + start_s,
        "latency_p50_ms": median(rtts_ms),
        "latency_p99_ms": percentile(rtts_ms, 99),
        "throughput_docs_s": attempted * DOCS_PER_REQUEST / wall,
        "wall_s": ends[block - 1] - t0,
        "peak_rss_mb": rss_mb,
    }
    extra = {
        "failed_frac": failed / max(1, attempted),
        "proc.cpu_util": cpu_s / (wall * NPROC),
        "cpu_s": cpu_s,
        "rtt_by_key": {requests[index][0]: rtt
                       for index, rtt, _, _ in results},
    }
    print(f"# serve-http: {attempted} requests in {wall:.1f}s, "
          f"export {export_s:.1f}s, "
          f"server start {start_s:.2f}s, wrong {wrong}", file=sys.stderr)
    return {"e2e": e2e, "extra": extra, "correct": failed == 0,
            "attempted": attempted, "failed": failed}


def traced(merged, extra: dict) -> dict:
    """serve-http specifics: HTTP self time per request, coverage."""
    classify = merged.keyed.get("serve.pool.classify", {})
    rtt = extra["rtt_by_key"]
    self_ms = [1000.0 * (rtt[key] - classify[key])
               for key in rtt if key in classify]
    handler_s = merged.seconds("serve.http.handler")
    below_ms = [1000.0 * classify[key] for key in rtt if key in classify]
    print(f"# serve-http self time p50: serve.http {median(self_ms):.1f} ms, "
          f"everything below it (ReplicaPool.classify) "
          f"{median(below_ms):.1f} ms", file=sys.stderr)
    return {
        "serve.http.self_ms.p50": median(self_ms),
        "serve.http.self_ms.p99": percentile(self_ms, 99),
        "serve.http.requests": merged.calls("serve.http.handler"),
        "trace.coverage": handler_s / sum(rtt.values()) if rtt else 0.0,
    }
