"""Minimal asyncio HTTP/1.1 front-end for the mapping daemon.

Stdlib-only by design (the repo adds no dependencies): a small
hand-rolled request parser over ``asyncio`` streams, JSON in / JSON out,
``Connection: close`` on every response. The route table is the whole
API surface:

====== ========================== ==========================================
method path                       handler
====== ========================== ==========================================
POST   ``/jobs``                  submit (idempotent; job id = cache key)
GET    ``/jobs/{id}``             status document
GET    ``/jobs/{id}/result``      stored result payload (done jobs only)
DELETE ``/jobs/{id}``             cancel (queued jobs only)
GET    ``/healthz``               liveness + queue/latency view
GET    ``/metrics``               :class:`MetricsRegistry` snapshot
====== ========================== ==========================================

Every request runs inside an observability span and bumps
``serve.http_requests``; malformed requests get a 400 and never reach
the daemon's state machine.
"""

from __future__ import annotations

import asyncio
import json

from repro.observability.metrics import get_registry
from repro.observability.trace import span
from repro.utils.logconf import get_logger

__all__ = ["HttpApi"]

log = get_logger("serve.http")

#: Request line + each header line are capped well below this.
_MAX_LINE = 8192
#: Largest request body accepted (job specs are a few KB).
_MAX_BODY = 4 * 1024 * 1024
#: Per-request read budget; slow clients must not block shutdown.
_READ_TIMEOUT = 30.0

_STATUS_TEXT = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    410: "Gone",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class _BadRequest(Exception):
    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


class HttpApi:
    """Bridges raw connections onto the daemon's synchronous state machine."""

    def __init__(self, daemon):
        self.daemon = daemon
        self._requests = get_registry().counter("serve.http_requests")

    # -- wire handling --------------------------------------------------------------
    async def handle(self, reader: asyncio.StreamReader,
                     writer: asyncio.StreamWriter) -> None:
        status, doc = 500, {"error": "internal error"}
        method = path = "-"
        try:
            method, path, body = await asyncio.wait_for(
                self._read_request(reader), timeout=_READ_TIMEOUT)
            status, doc = self.dispatch(method, path, body)
        except _BadRequest as exc:
            status, doc = exc.status, {"error": str(exc)}
        except (asyncio.TimeoutError, asyncio.IncompleteReadError,
                ConnectionError):
            writer.close()
            return
        except Exception as exc:  # pragma: no cover - defensive
            log.error("unhandled error serving %s %s: %s", method, path, exc)
            status, doc = 500, {"error": f"internal error: {exc}"}
        body_bytes = (json.dumps(doc, sort_keys=True) + "\n").encode()
        # A body-level retry hint doubles as the standard header so
        # clients that never parse the body (and ServeClient, which
        # honors the header on 429/503) still see it.
        extra = ""
        retry_after = doc.get("retry_after_seconds")
        if isinstance(retry_after, (int, float)) and retry_after > 0:
            extra = f"Retry-After: {max(1, int(round(retry_after)))}\r\n"
        head = (
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body_bytes)}\r\n"
            f"{extra}"
            f"Connection: close\r\n"
            f"\r\n"
        ).encode()
        try:
            writer.write(head + body_bytes)
            await writer.drain()
        except ConnectionError:
            pass
        finally:
            writer.close()

    async def _read_request(self, reader: asyncio.StreamReader):
        request_line = await reader.readline()
        if not request_line:
            raise ConnectionError("client closed before sending a request")
        if len(request_line) > _MAX_LINE:
            raise _BadRequest(400, "request line too long")
        parts = request_line.decode("latin-1").split()
        if len(parts) < 2:
            raise _BadRequest(400, "malformed request line")
        method, path = parts[0].upper(), parts[1]
        content_length = 0
        while True:
            line = await reader.readline()
            if len(line) > _MAX_LINE:
                raise _BadRequest(400, "header line too long")
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                try:
                    content_length = int(value.strip())
                except ValueError:
                    raise _BadRequest(400, "bad Content-Length") from None
        if content_length > _MAX_BODY:
            raise _BadRequest(413, "request body too large")
        body = (await reader.readexactly(content_length)
                if content_length else b"")
        return method, path, body

    # -- routing --------------------------------------------------------------------
    def dispatch(self, method: str, path: str,
                 body: bytes) -> tuple[int, dict]:
        """Route one parsed request; returns ``(status, json_doc)``."""
        self._requests.inc()
        path = path.partition("?")[0].rstrip("/") or "/"
        with span("serve.http", method=method, path=path):
            if path == "/healthz":
                return self._get_only(method, self.daemon.healthz)
            if path == "/metrics":
                return self._get_only(method, self.daemon.metrics)
            if path == "/jobs":
                if method != "POST":
                    return 405, {"error": "use POST /jobs to submit"}
                return self.daemon.submit(self._json_body(body))
            if path.startswith("/jobs/"):
                rest = path[len("/jobs/"):]
                if rest.endswith("/result"):
                    key = rest[: -len("/result")]
                    if method != "GET":
                        return 405, {"error": "use GET for results"}
                    return self.daemon.result(key)
                if "/" in rest:
                    return 404, {"error": f"no such route {path!r}"}
                if method == "GET":
                    return self.daemon.status(rest)
                if method == "DELETE":
                    return self.daemon.cancel(rest)
                return 405, {"error": "use GET (status) or DELETE (cancel)"}
            return 404, {"error": f"no such route {path!r}"}

    @staticmethod
    def _get_only(method: str, handler) -> tuple[int, dict]:
        if method != "GET":
            return 405, {"error": "GET only"}
        return handler()

    @staticmethod
    def _json_body(body: bytes) -> dict:
        if not body:
            raise _BadRequest(400, "request body required")
        try:
            doc = json.loads(body)
        except ValueError as exc:
            raise _BadRequest(400, f"invalid JSON body: {exc}") from None
        if not isinstance(doc, dict):
            raise _BadRequest(400, "JSON body must be an object")
        return doc
