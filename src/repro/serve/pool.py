"""Multi-process replica pool: N worker processes, each a plain predict loop.

The single-process :class:`~repro.serve.engine.ServingEngine` tops out
at one core: its batcher thread serializes every predict. The pool
scales that out by running N worker *processes* over the same artifact,
behind a least-loaded dispatcher in the parent:

- each worker loads the artifact itself (the parent digest-verifies it
  once) and runs one loop on its main thread: receive a request, drain
  whatever else is already waiting in the pipe (up to
  ``max_batch_docs``, with no timer), fail the requests whose deadline
  has passed, run one ``predict`` over the rest, and reply per request.
  Batches form from backlog only, so a lone request never waits out a
  batch window;
- requests go to the live replica with the fewest in-flight requests;
  when every replica is at ``max_queue`` the submit sheds with
  :class:`~repro.core.exceptions.Overloaded` (same backpressure
  contract as the single engine, enforced at admission);
- deadlines are absolute ``time.monotonic()`` instants fixed at submit
  (the clock is system-wide, so workers compare against it directly):
  time spent waiting in the pipe counts;
- worker-raised errors travel back *typed*: ``Overloaded``,
  ``DeadlineExceeded``, and friends re-raise as themselves in the
  caller; a crashed worker fails its in-flight requests with
  :class:`~repro.core.exceptions.ServingError` and is removed from
  rotation (remaining replicas keep serving);
- close stops admission, waits for admitted submits to finish writing
  to their pipe, then sends each worker a ``shutdown`` message behind
  the requests already in its pipe, so every accepted request resolves
  exactly once and every later submit raises ``ServingError``.

A worker answers each batch with the engine's own batch rule
(:func:`~repro.serve.engine.serve_batch`: deadline check, one predict,
split back per request in order), so a pool ``classify`` returns
bit-identical labels to a lone ``ServingEngine`` over the same
artifact.

Instrumentation (:mod:`repro.obs`): parent-side ``pool.requests`` /
``pool.shed`` / ``pool.replica_deaths`` counters and a
``pool.replica_busy`` high-water gauge; workers record ``serve:batch`` /
``serve:predict`` spans and ``serve.batches`` / ``serve.batched_docs``
counters, export their tracer at shutdown, and the parent absorbs it
under ``pool/replica<i>`` at close.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from dataclasses import dataclass
from multiprocessing import get_context
from pathlib import Path

from repro import obs
from repro.core import exceptions as _exceptions
from repro.core.exceptions import (
    DeadlineExceeded,
    Overloaded,
    ServingError,
)
from repro.serve.artifacts import load_artifact, read_manifest, verify_artifact
from repro.serve.engine import Request, serve_batch


@dataclass(frozen=True)
class PoolConfig:
    """Replica-pool knobs.

    Parameters
    ----------
    replicas:
        Worker processes to spawn.
    max_queue:
        Per-replica in-flight bound enforced at admission; when every
        live replica is full, submits shed with ``Overloaded``.
    max_batch_docs:
        Document budget of one worker ``predict``.
    default_deadline_s:
        Deadline applied to requests that don't set one (None = none).
    warmup:
        Each worker runs one throwaway predict before reporting ready.
    verify:
        Digest-verify the artifact once in the parent before spawning
        (workers trust the parent's check).
    start_timeout_s:
        How long to wait for every replica to load + warm up.
    """

    replicas: int = 2
    max_queue: int = 32
    max_batch_docs: int = 64
    default_deadline_s: "float | None" = None
    warmup: bool = True
    verify: bool = True
    start_timeout_s: float = 120.0


class _Replica:
    """Parent-side handle for one worker process."""

    __slots__ = ("index", "process", "conn", "send_lock", "in_flight",
                 "alive", "ready", "fatal", "receiver", "trace_payload",
                 "dispatched", "completed")

    def __init__(self, index: int, process, conn):
        self.index = index
        self.process = process
        self.conn = conn
        self.send_lock = threading.Lock()
        self.in_flight: "dict[int, Request]" = {}
        self.alive = True
        self.ready = threading.Event()
        self.fatal: "Exception | None" = None
        self.receiver: "threading.Thread | None" = None
        self.trace_payload: "dict | None" = None
        self.dispatched = 0
        self.completed = 0

    def send(self, msg: tuple) -> None:
        with self.send_lock:
            self.conn.send(msg)


def _rebuild_error(kind: str, message: str) -> Exception:
    """Reconstruct a worker-raised exception from its (type name, str).

    Typed serving/artifact errors round-trip as themselves so callers
    keep one ``except Overloaded`` path for a local engine and a pool;
    unknown types degrade to ``ServingError`` with the original name in
    the message.
    """
    cls = getattr(_exceptions, kind, None)
    if isinstance(cls, type) and issubclass(cls, _exceptions.ReproError):
        return cls(message)
    import builtins

    cls = getattr(builtins, kind, None)
    if isinstance(cls, type) and issubclass(cls, Exception):
        try:
            return cls(message)
        except Exception:
            pass
    return ServingError(f"{kind}: {message}")


def _answer(servable, batch: list, conn) -> None:
    """Serve drained ``("req", id, docs, deadline)`` messages as one batch
    and send one ``("ok"|"err", id, ...)`` reply per request."""
    requests = [Request(docs, deadline) for _, _, docs, deadline in batch]
    serve_batch(servable, requests)
    for (_, req_id, _, _), request in zip(batch, requests):
        if request.error is None:
            conn.send(("ok", req_id, request.result))
        else:
            conn.send(("err", req_id, type(request.error).__name__,
                       str(request.error)))


def _pool_worker_main(replica_id: int, artifact_dir: str, max_batch_docs: int,
                      warmup: bool, trace: bool, conn) -> None:
    """Worker entry point (spawn target; must stay module-level).

    Loads the artifact, then loops on the main thread: block for one
    ``("req", id, docs, deadline)`` message, drain what else is already
    in the pipe up to ``max_batch_docs``, and answer the batch with one
    ``("ok"|"err", id, ...)`` per request. A ``("shutdown",)`` message
    (or a closed pipe) ends the loop once the batch in hand is answered;
    the worker then ships its trace and exits.
    """
    try:
        if trace:
            obs.enable(f"replica{replica_id}")
        servable = load_artifact(artifact_dir, verify=False)
        if warmup:
            servable.warmup()
        conn.send(("ready", os.getpid()))
    except BaseException as exc:
        try:
            conn.send(("fatal", type(exc).__name__, str(exc)))
        except OSError:
            pass
        return

    held = None  # a drained request that would have overflowed its batch
    stop = False
    try:
        while not stop:
            msg = held if held is not None else conn.recv()
            held = None
            if msg[0] != "req":
                break
            batch, n_docs = [msg], len(msg[2])
            while n_docs < max_batch_docs and conn.poll():
                msg = conn.recv()
                if msg[0] != "req":
                    stop = True
                    break
                if n_docs + len(msg[2]) > max_batch_docs:
                    held = msg
                    break
                batch.append(msg)
                n_docs += len(msg[2])
            _answer(servable, batch, conn)
    except (EOFError, OSError):
        pass
    finally:
        if trace:
            tracer = obs.disable()
            if tracer is not None:
                try:
                    conn.send(("trace", tracer.export()))
                except OSError:
                    pass
        conn.close()


class ReplicaPool:
    """N worker processes serving one artifact.

    ``artifact`` is an artifact directory (as produced by
    :func:`~repro.serve.artifacts.export_artifact` or a registry version
    dir); use :meth:`from_registry` for ``name@version`` refs. The pool
    is ready (every replica loaded + warmed) when the constructor
    returns.
    """

    def __init__(self, artifact: "str | Path",
                 config: "PoolConfig | None" = None):
        self.path = Path(artifact)
        self.config = config or PoolConfig()
        if self.config.replicas < 1:
            raise ServingError("a pool needs at least one replica")
        self.manifest = read_manifest(self.path)
        if self.config.verify:
            verify_artifact(self.path, self.manifest)
        self._trace = obs.enabled()
        self._lock = threading.Lock()
        self._sent = threading.Condition(self._lock)
        self._sending = 0  # registered requests not yet in their pipe
        self._closed = False
        self._ids = itertools.count()
        self._stats = {"dispatched": 0, "completed": 0, "failed": 0,
                       "shed": 0, "deadline_miss": 0, "replica_deaths": 0,
                       "replica_busy_max": 0}
        self._replicas: "list[_Replica]" = []
        try:
            ctx = get_context("spawn")
            for i in range(self.config.replicas):
                parent_conn, child_conn = ctx.Pipe(duplex=True)
                process = ctx.Process(
                    target=_pool_worker_main,
                    args=(i, str(self.path), self.config.max_batch_docs,
                          self.config.warmup, self._trace, child_conn),
                    daemon=True,
                    name=f"repro-pool-replica-{i}",
                )
                replica = _Replica(i, process, parent_conn)
                process.start()
                child_conn.close()
                replica.receiver = threading.Thread(
                    target=self._recv_loop, args=(replica,), daemon=True,
                    name=f"repro-pool-recv-{i}")
                replica.receiver.start()
                self._replicas.append(replica)
            self._await_ready()
        except BaseException:
            self.close(timeout=5.0)
            raise

    @classmethod
    def from_registry(cls, registry, name: str,
                      version: "int | str" = "latest",
                      config: "PoolConfig | None" = None) -> "ReplicaPool":
        """Pool over ``name@version`` from a :class:`ModelRegistry`."""
        resolved = registry.resolve(name, version)
        return cls(registry.version_dir(name, resolved), config=config)

    # -- startup -------------------------------------------------------------
    def _await_ready(self) -> None:
        deadline = time.monotonic() + self.config.start_timeout_s
        for replica in self._replicas:
            remaining = deadline - time.monotonic()
            if not replica.ready.wait(max(0.0, remaining)):
                raise ServingError(
                    f"replica {replica.index} failed to become ready "
                    f"within {self.config.start_timeout_s}s"
                )
            if replica.fatal is not None:
                raise ServingError(
                    f"replica {replica.index} failed to start: "
                    f"{replica.fatal}"
                )
            if not replica.alive:
                raise ServingError(
                    f"replica {replica.index} died during startup"
                )

    # -- receive path --------------------------------------------------------
    def _recv_loop(self, replica: _Replica) -> None:
        while True:
            try:
                msg = replica.conn.recv()
            except (EOFError, OSError):
                break
            kind = msg[0]
            if kind == "ok":
                self._complete(replica, msg[1], result=msg[2])
            elif kind == "err":
                self._complete(replica, msg[1],
                               error=_rebuild_error(msg[2], msg[3]))
            elif kind == "ready":
                replica.ready.set()
            elif kind == "fatal":
                replica.fatal = _rebuild_error(msg[1], msg[2])
                replica.ready.set()
            elif kind == "trace":
                replica.trace_payload = msg[1]
        with self._lock:
            was_alive = replica.alive
            replica.alive = False
            pending = list(replica.in_flight.values())
            replica.in_flight.clear()
            clean = self._closed and not pending
            if was_alive and not clean:
                self._stats["replica_deaths"] += 1
            self._stats["failed"] += len(pending)
        replica.ready.set()
        if not clean:
            obs.count("pool.replica_deaths")
        error = ServingError(
            f"replica {replica.index} died with {len(pending)} "
            "request(s) in flight"
        )
        for request in pending:
            request.fail(error)

    def _complete(self, replica: _Replica, req_id: int,
                  result: "list | None" = None,
                  error: "Exception | None" = None) -> None:
        with self._lock:
            request = replica.in_flight.pop(req_id, None)
            if request is None:
                return
            if error is None:
                self._stats["completed"] += 1
                replica.completed += 1
            else:
                self._stats["failed"] += 1
                if isinstance(error, DeadlineExceeded):
                    self._stats["deadline_miss"] += 1
        if error is None:
            request.resolve(result)
        else:
            request.fail(error)

    # -- intake --------------------------------------------------------------
    def submit(self, docs, deadline_s: "float | None" = None) -> Request:
        """Dispatch ``docs`` to the least-loaded live replica.

        Raises :class:`Overloaded` when every live replica already holds
        ``max_queue`` in-flight requests, :class:`ServingError` when the
        pool is closed or every replica has died.
        """
        docs = list(docs)
        if deadline_s is None:
            deadline_s = self.config.default_deadline_s
        request = Request(docs, None if deadline_s is None
                          else time.monotonic() + deadline_s)
        with self._lock:
            if self._closed:
                raise ServingError("replica pool is closed")
            live = [r for r in self._replicas if r.alive]
            if not live:
                raise ServingError(
                    "no live replicas (every worker died); "
                    "close the pool and restart"
                )
            replica = min(live, key=lambda r: (len(r.in_flight), r.index))
            if len(replica.in_flight) >= self.config.max_queue:
                self._stats["shed"] += 1
                obs.count("pool.shed")
                raise Overloaded(
                    f"all {len(live)} replica(s) at max_queue="
                    f"{self.config.max_queue}; retry later"
                )
            req_id = next(self._ids)
            replica.in_flight[req_id] = request
            self._sending += 1
            replica.dispatched += 1
            self._stats["dispatched"] += 1
            busy = sum(1 for r in self._replicas if r.in_flight)
            if busy > self._stats["replica_busy_max"]:
                self._stats["replica_busy_max"] = busy
        obs.count("pool.requests")
        obs.gauge("pool.replica_busy", busy)
        try:
            replica.send(("req", req_id, docs, request.deadline))
        except (OSError, ValueError) as exc:
            self._complete(replica, req_id, error=ServingError(
                f"replica {replica.index} pipe broke: {exc}"))
            raise request.error from exc
        finally:
            with self._lock:
                self._sending -= 1
                if not self._sending:
                    self._sent.notify_all()
        return request

    def classify(self, docs, deadline_s: "float | None" = None,
                 timeout: "float | None" = None) -> list:
        """Submit and block for the labels (convenience wrapper)."""
        return self.submit(docs, deadline_s=deadline_s).wait(timeout)

    # -- introspection -------------------------------------------------------
    @property
    def labels(self) -> "list | None":
        return self.manifest.get("labels")

    def alive_count(self) -> int:
        with self._lock:
            return sum(1 for r in self._replicas if r.alive)

    def stats(self) -> dict:
        """Pool counters + per-replica ``dispatched`` / ``completed``."""
        with self._lock:
            snapshot = dict(self._stats)
            snapshot["replicas"] = len(self._replicas)
            snapshot["alive"] = sum(1 for r in self._replicas if r.alive)
            snapshot["in_flight"] = sum(len(r.in_flight)
                                        for r in self._replicas)
            snapshot["per_replica"] = [
                {"replica": r.index, "alive": r.alive,
                 "in_flight": len(r.in_flight), "pid": r.process.pid,
                 "dispatched": r.dispatched, "completed": r.completed}
                for r in self._replicas
            ]
        return snapshot

    # -- lifecycle -----------------------------------------------------------
    def close(self, timeout: float = 30.0) -> None:
        """Answer what each replica holds, then stop every replica.

        Safe to call twice and after worker crashes.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            replicas = list(self._replicas)
            # A submit registers under the lock but sends after it; wait
            # for those sends, or shutdown could overtake one in the pipe.
            self._sent.wait_for(lambda: not self._sending, timeout)
        for replica in replicas:
            if replica.alive:
                try:
                    replica.send(("shutdown",))
                except (OSError, ValueError):
                    pass
        deadline = time.monotonic() + timeout
        for replica in replicas:
            remaining = max(0.1, deadline - time.monotonic())
            replica.process.join(remaining)
            if replica.process.is_alive():
                replica.process.terminate()
                replica.process.join(5.0)
        for replica in replicas:
            try:
                replica.conn.close()
            except OSError:
                pass
            if replica.receiver is not None:
                replica.receiver.join(5.0)
        if self._trace and obs.enabled():
            tracer = obs.tracer()
            for replica in replicas:
                if replica.trace_payload is not None:
                    tracer.absorb(replica.trace_payload,
                                  prefix=f"pool/replica{replica.index}")
                    replica.trace_payload = None
        # Anything still unresolved after the drain window (crashed or
        # wedged worker) must not hang its waiter forever.
        for replica in replicas:
            with self._lock:
                pending = list(replica.in_flight.values())
                replica.in_flight.clear()
            for request in pending:
                request.fail(ServingError(
                    f"pool closed with the request still pending on "
                    f"replica {replica.index}"))

    def __enter__(self) -> "ReplicaPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def __repr__(self) -> str:
        return (f"ReplicaPool(artifact={str(self.path)!r}, "
                f"replicas={self.config.replicas}, "
                f"alive={self.alive_count()})")
