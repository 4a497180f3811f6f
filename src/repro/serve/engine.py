"""Micro-batching serving engine with deadlines and backpressure.

Concurrent ``classify`` calls land in a bounded, thread-safe queue; a
single batcher thread drains it, coalescing adjacent requests into one
``predict`` over the concatenated documents. For PLM-backed methods that
one predict flows into the inference engine's length-bucketed
token-budget batches (:mod:`repro.plm.engine`), so N concurrent
one-document requests cost far fewer than N encoder batches.

State machine of a request:

- **queued** — accepted by :meth:`ServingEngine.submit`; the queue is
  bounded, and a full queue sheds the request with a typed
  :class:`~repro.core.exceptions.Overloaded` instead of blocking the
  submitter (backpressure);
- **batched** — the batcher popped it, possibly after waiting up to
  ``batch_window_s`` for concurrent requests to coalesce;
- **served / failed** — results are split back per request; requests
  whose deadline passed while queued fail with
  :class:`~repro.core.exceptions.DeadlineExceeded` and never reach the
  model.

Shutdown is graceful by default: :meth:`ServingEngine.close` stops
intake, drains what is queued, then joins the batcher thread.

Instrumentation (:mod:`repro.obs`): ``serve:enqueue`` / ``serve:batch``
/ ``serve:predict`` spans and ``serve.requests`` / ``serve.batches`` /
``serve.batched_docs`` / ``serve.shed`` / ``serve.deadline_miss``
counters plus a ``serve.queue_depth`` high-water gauge;
:meth:`ServingEngine.stats` mirrors the counters tracer-free
(``queue_depth_max`` is the gauge's peak).
"""

from __future__ import annotations

import threading
import time
from collections import Counter, deque
from dataclasses import dataclass

from repro import obs
from repro.core.exceptions import DeadlineExceeded, Overloaded, ServingError


@dataclass(frozen=True)
class ServeConfig:
    """Serving-engine knobs.

    Parameters
    ----------
    max_batch_docs:
        Document budget per coalesced ``predict`` call.
    max_queue:
        Pending-request bound; submits beyond it shed with ``Overloaded``.
    batch_window_s:
        How long the batcher lingers for more requests after the first.
    default_deadline_s:
        Deadline applied to requests that don't set one (None = none).
    warmup:
        Run one throwaway predict before accepting traffic.
    """

    max_batch_docs: int = 64
    max_queue: int = 128
    batch_window_s: float = 0.002
    default_deadline_s: "float | None" = None
    warmup: bool = True


class Request:
    """One in-flight classify request (a minimal future).

    ``deadline`` is an absolute ``time.monotonic()`` instant (None = no
    deadline). The engine and the replica pool both hand these out.
    """

    __slots__ = ("docs", "deadline", "result", "error", "_done",
                 "created_at", "done_at")

    def __init__(self, docs: list, deadline: "float | None"):
        self.docs = docs
        self.deadline = deadline
        self.result: "list | None" = None
        self.error: "Exception | None" = None
        self._done = threading.Event()
        self.created_at = time.monotonic()
        self.done_at: "float | None" = None

    def resolve(self, result: list) -> None:
        self.done_at = time.monotonic()
        self.result = result
        self._done.set()

    def fail(self, error: Exception) -> None:
        self.done_at = time.monotonic()
        self.error = error
        self._done.set()

    def done(self) -> bool:
        return self._done.is_set()

    @property
    def latency_s(self) -> "float | None":
        """Submit-to-completion wall clock (None while pending)."""
        if self.done_at is None:
            return None
        return self.done_at - self.created_at

    def wait(self, timeout: "float | None" = None) -> list:
        """Block for the result; re-raises the failure if the request died."""
        if not self._done.wait(timeout):
            raise TimeoutError("request still pending after "
                               f"{timeout}s (server overloaded or closed?)")
        if self.error is not None:
            raise self.error
        assert self.result is not None
        return self.result


def serve_batch(model, batch: "list[Request]",
                stats: "dict | None" = None) -> None:
    """Answer one coalesced batch of requests.

    Requests whose deadline has passed fail with
    :class:`~repro.core.exceptions.DeadlineExceeded` and never reach the
    model; the rest run as one ``model.predict`` over their concatenated
    documents, and the predictions are split back per request in order.
    A predict that raises fails every live request with that exception.
    ``stats`` (``deadline_miss`` / ``errors`` / ``batches`` /
    ``batched_docs`` / ``served`` counts) is updated before any request
    settles, so a woken caller reads current numbers. The engine's
    batcher and each replica-pool worker both call this.
    """
    if stats is None:
        stats = Counter()
    now = time.monotonic()
    live = []
    for request in batch:
        if request.deadline is not None and now > request.deadline:
            stats["deadline_miss"] += 1
            obs.count("serve.deadline_miss")
            request.fail(DeadlineExceeded(
                f"deadline passed {now - request.deadline:.3f}s before "
                "the request was batched"
            ))
        else:
            live.append(request)
    if not live:
        return
    all_docs = [doc for request in live for doc in request.docs]
    with obs.span("serve:batch", requests=len(live), docs=len(all_docs)):
        try:
            with obs.span("serve:predict"):
                results = model.predict(all_docs)
        except Exception as exc:  # fail the whole batch, keep serving
            stats["errors"] += len(live)
            obs.count("serve.errors", len(live))
            for request in live:
                request.fail(exc)
            return
    stats["batches"] += 1
    stats["batched_docs"] += len(all_docs)
    stats["served"] += len(live)
    obs.count("serve.batches")
    obs.count("serve.batched_docs", len(all_docs))
    offset = 0
    for request in live:
        request.resolve(list(results[offset:offset + len(request.docs)]))
        offset += len(request.docs)


class ServingEngine:
    """Thread-safe micro-batching front end over a loaded model.

    ``model`` is anything with ``predict(docs) -> list`` aligned with the
    input (a :class:`~repro.serve.artifacts.ServableModel`); documents
    are strings or token lists.
    """

    def __init__(self, model, config: "ServeConfig | None" = None):
        self.model = model
        self.config = config or ServeConfig()
        self._pending: "deque[Request]" = deque()
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._closed = False
        self._abort = False
        self._stats = {"requests": 0, "served": 0, "batches": 0,
                       "batched_docs": 0, "shed": 0, "deadline_miss": 0,
                       "errors": 0, "queue_depth_max": 0}
        if self.config.warmup and hasattr(model, "warmup"):
            model.warmup()
        self._thread = threading.Thread(target=self._loop,
                                        name="repro-serve-batcher",
                                        daemon=True)
        self._thread.start()

    # -- intake --------------------------------------------------------------
    def submit(self, docs, deadline_s: "float | None" = None) -> Request:
        """Enqueue ``docs`` (list of strings / token lists); non-blocking.

        Raises :class:`Overloaded` when the queue is at ``max_queue`` —
        callers are expected to back off and retry.
        """
        docs = list(docs)
        if deadline_s is None:
            deadline_s = self.config.default_deadline_s
        deadline = (time.monotonic() + deadline_s
                    if deadline_s is not None else None)
        request = Request(docs, deadline)
        with obs.span("serve:enqueue", docs=len(docs)):
            with self._not_empty:
                if self._closed:
                    raise ServingError("serving engine is closed")
                if len(self._pending) >= self.config.max_queue:
                    self._stats["shed"] += 1
                    obs.count("serve.shed")
                    raise Overloaded(
                        f"serving queue full ({self.config.max_queue} "
                        "pending requests); retry later"
                    )
                self._pending.append(request)
                self._stats["requests"] += 1
                depth = len(self._pending)
                if depth > self._stats["queue_depth_max"]:
                    self._stats["queue_depth_max"] = depth
                self._not_empty.notify()
        obs.count("serve.requests")
        obs.gauge("serve.queue_depth", depth)
        return request

    def classify(self, docs, deadline_s: "float | None" = None,
                 timeout: "float | None" = None) -> list:
        """Submit and block for the labels (convenience wrapper)."""
        return self.submit(docs, deadline_s=deadline_s).wait(timeout)

    # -- batching loop -------------------------------------------------------
    def _take_batch(self) -> "list[Request] | None":
        """Pop a coalesced batch; None when closed and drained."""
        with self._not_empty:
            while not self._pending:
                if self._closed:
                    return None
                self._not_empty.wait(0.05)
            batch = [self._pending.popleft()]
        n_docs = len(batch[0].docs)
        window_end = time.monotonic() + self.config.batch_window_s
        while n_docs < self.config.max_batch_docs:
            with self._not_empty:
                if self._pending:
                    nxt = self._pending[0]
                    if n_docs + len(nxt.docs) > self.config.max_batch_docs:
                        break
                    batch.append(self._pending.popleft())
                    n_docs += len(nxt.docs)
                    continue
                if self._closed:
                    break
                remaining = window_end - time.monotonic()
                if remaining <= 0:
                    break
                self._not_empty.wait(remaining)
        return batch

    def _loop(self) -> None:
        while True:
            batch = self._take_batch()
            if batch is None:
                return
            if self._abort:
                for request in batch:
                    request.fail(ServingError("serving engine shut down"))
                continue
            serve_batch(self.model, batch, self._stats)

    # -- lifecycle -----------------------------------------------------------
    def stats(self) -> dict:
        """Counter snapshot (requests/served/batches/shed/...)."""
        with self._lock:
            return dict(self._stats)

    def close(self, drain: bool = True, timeout: "float | None" = 30.0) -> None:
        """Stop intake; drain queued requests (default) or abort them."""
        with self._not_empty:
            if self._closed:
                return
            self._closed = True
            self._abort = not drain
            self._not_empty.notify_all()
        self._thread.join(timeout)
        if self._thread.is_alive():
            raise ServingError(f"batcher failed to drain within {timeout}s")

    def __enter__(self) -> "ServingEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close(drain=exc_type is None)
        return False
