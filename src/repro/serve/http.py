"""Stdlib JSON/HTTP front door over a replica pool.

A thin :class:`http.server.ThreadingHTTPServer` that maps the pool's
typed failure modes onto HTTP status codes — the wire contract of the
serving layer:

==========  ===========================================  ==============
endpoint    body                                         status
==========  ===========================================  ==============
POST
/classify   ``{"docs": [...], "deadline_s": 0.5?,``      200 ``{"labels": [...]}``
            ``"timeout_s": 5?}`` →
            malformed JSON / missing docs / a limit      400 ``{"error": "bad-request"}``
            that is not a finite non-negative number
            pool sheds (every replica full)              429 ``{"error": "overloaded"}`` (+ ``Retry-After``)
            deadline passed before serving               504 ``{"error": "deadline-exceeded"}``
            pool closed / every replica dead             503 ``{"error": "unavailable"}``
            model raised                                 500 ``{"error": "internal"}``
GET
/healthz    ``{"status": "ok", "alive": N}``             200 (503 once unservable)
GET /stats  pool counters + per-replica counters         200
==========  ===========================================  ==============

``docs`` entries are raw strings or token lists (same payloads
``ServingEngine`` takes). ``deadline_s`` bounds the time until a replica
starts the request's predict; ``timeout_s`` bounds how long the handler
waits for the answer (503 when it runs out). Each connection is handled
on its own thread; concurrency then flows through the pool's
least-loaded dispatch, so the HTTP layer adds no queueing of its own.
"""

from __future__ import annotations

import json
import math
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.core.exceptions import (
    DeadlineExceeded,
    Overloaded,
    ReproError,
    ServingError,
)

#: Bound accepted request bodies (64 MiB): the front door should shed
#: absurd payloads before json-decoding them into memory.
MAX_BODY_BYTES = 64 << 20


def _seconds(value) -> "float | None":
    """``value`` as finite, non-negative seconds (None passes through).

    Raises ValueError for anything else, booleans included: JSON
    ``true`` decodes to ``True``, which Python counts as the int 1.
    """
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError("must be a number")
    try:
        seconds = float(value)
    except OverflowError:
        seconds = math.inf
    if not 0.0 <= seconds < math.inf:
        raise ValueError("must be finite and non-negative")
    return seconds


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "repro-serve"
    # TCP_NODELAY: a small answer must not sit in the kernel waiting for
    # the client's delayed ACK (a fixed ~40 ms per keep-alive request).
    disable_nagle_algorithm = True

    # The default handler logs every request to stderr; the pool CLI
    # owns the terminal, so stay quiet.
    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass

    def _reply(self, status: int, payload: dict,
               headers: "dict | None" = None) -> None:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        # The status line, headers and body leave in one write, so no
        # client's ACK timing can hold the body back behind the headers.
        if self.request_version == "HTTP/0.9":  # no head, as in end_headers
            self._headers_buffer = [body]
        else:
            self._headers_buffer.append(b"\r\n" + body)
        try:
            self.flush_headers()
        except (BrokenPipeError, ConnectionResetError):
            pass

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        pool = self.server.pool
        if self.path == "/healthz":
            alive = pool.alive_count()
            if alive > 0:
                self._reply(200, {"status": "ok", "alive": alive})
            else:
                self._reply(503, {"status": "unavailable", "alive": 0})
        elif self.path == "/stats":
            self._reply(200, pool.stats())
        else:
            self._reply(404, {"error": "not-found", "path": self.path})

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        if self.path != "/classify":
            self._reply(404, {"error": "not-found", "path": self.path})
            return
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            length = -1
        if length < 0 or length > MAX_BODY_BYTES:
            self._reply(400, {"error": "bad-request",
                              "detail": "missing or oversized body"})
            return
        try:
            payload = json.loads(self.rfile.read(length) or b"null")
        except ValueError as exc:
            self._reply(400, {"error": "bad-request",
                              "detail": f"invalid JSON: {exc}"})
            return
        if not isinstance(payload, dict) or not isinstance(
                payload.get("docs"), list) or not payload["docs"]:
            self._reply(400, {"error": "bad-request",
                              "detail": "body must be an object with a "
                                        "non-empty 'docs' array"})
            return
        limits = {}
        for key in ("deadline_s", "timeout_s"):
            try:
                limits[key] = _seconds(payload.get(key))
            except ValueError as exc:
                self._reply(400, {"error": "bad-request",
                                  "detail": f"{key!r} {exc}"})
                return
        try:
            labels = self.server.pool.classify(
                payload["docs"], deadline_s=limits["deadline_s"],
                timeout=limits["timeout_s"])
        except Overloaded as exc:
            self._reply(429, {"error": "overloaded", "detail": str(exc)},
                        headers={"Retry-After": "1"})
        except DeadlineExceeded as exc:
            self._reply(504, {"error": "deadline-exceeded",
                              "detail": str(exc)})
        except (ServingError, TimeoutError) as exc:
            self._reply(503, {"error": "unavailable", "detail": str(exc)})
        except ReproError as exc:
            self._reply(500, {"error": "internal",
                              "type": type(exc).__name__,
                              "detail": str(exc)})
        except Exception as exc:  # model/transport zoo: stay serving
            self._reply(500, {"error": "internal",
                              "type": type(exc).__name__,
                              "detail": str(exc)})
        else:
            labels = [list(l) if isinstance(l, (tuple, set, frozenset))
                      else l for l in labels]
            self._reply(200, {"labels": labels})


class PoolServer:
    """HTTP front end bound to a :class:`~repro.serve.pool.ReplicaPool`.

    ``port=0`` binds an ephemeral port (read :attr:`address` after
    construction). The server thread is a daemon; :meth:`close` shuts
    it down without touching the pool (the caller owns pool lifecycle).
    """

    def __init__(self, pool, host: str = "127.0.0.1", port: int = 0):
        self.pool = pool
        self._server = ThreadingHTTPServer((host, port), _Handler)
        self._server.daemon_threads = True
        self._server.pool = pool
        self._thread: "threading.Thread | None" = None
        self._serving = False

    @property
    def address(self) -> tuple:
        """The bound ``(host, port)``."""
        return self._server.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "PoolServer":
        """Serve on a background daemon thread; returns self."""
        if self._thread is not None:
            raise ServingError("server already started")
        self._serving = True
        self._thread = threading.Thread(target=self._server.serve_forever,
                                        kwargs={"poll_interval": 0.1},
                                        daemon=True, name="repro-pool-http")
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread (the CLI's blocking mode)."""
        self._serving = True
        self._server.serve_forever(poll_interval=0.1)

    def close(self) -> None:
        """Stop accepting and release the socket (idempotent)."""
        if self._serving:
            # shutdown() blocks on serve_forever's exit handshake and
            # would hang forever if the loop never started.
            self._serving = False
            self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(5.0)
            self._thread = None

    def __enter__(self) -> "PoolServer":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False
