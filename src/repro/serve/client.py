"""Client for the mapping daemon's HTTP API (``repro submit`` etc.).

Stdlib :mod:`urllib.request` only. The daemon's URL is discovered in
order of explicitness:

1. an explicit ``--url`` argument;
2. the ``REPRO_SERVE_URL`` environment variable;
3. the ``serve.json`` ready file a running daemon keeps under its cache
   directory (written on startup, removed on clean exit).

Every method returns ``(http_status, parsed_json)``; HTTP error codes
are data (the daemon encodes tenant-quota rejections as 429, state
conflicts as 409), while transport failures — daemon not running,
connection refused — raise :class:`~repro.errors.ServiceError`.

Transient failures are retried with bounded full-jitter backoff:
connection-level errors (``URLError`` — the daemon restarting, a
dropped socket) and 503 responses (the daemon draining). This is safe
for every endpoint because the API is idempotent by construction — the
job id *is* the spec's cache key, so a resubmitted spec joins the
existing job rather than executing twice. 429s (tenant-quota
rejections) are deliberate policy answers and are never retried on the
client's own initiative — but when a 429/503 carries a ``Retry-After``
header, the *server* has invited the retry, and the client honors the
server's delay (clamped, counted in a retry attempt) in place of its
own jittered backoff.
"""

from __future__ import annotations

import json
import os
import time
import urllib.error
import urllib.request
from pathlib import Path

from repro.errors import ConfigError, ServiceError
from repro.observability.metrics import get_registry
from repro.service.supervision import full_jitter_delay

__all__ = ["ENV_URL", "ServeClient", "discover_url"]

ENV_URL = "REPRO_SERVE_URL"

#: States after which a job's document stops changing.
_TERMINAL = frozenset({"done", "failed", "cancelled", "drained"})

#: HTTP statuses worth retrying: the daemon said "not right now", not
#: "no". 429 is absent on purpose — tenant-quota rejections are
#: policy, and hammering them would fight the backpressure mechanism.
#: (A 429 *with* a Retry-After header is different: the server named
#: its price, so the client may pay it — see ``_retry_after_of``.)
_RETRYABLE_STATUSES = frozenset({503})

#: Statuses on which a server-sent Retry-After header is honored.
_RETRY_AFTER_STATUSES = frozenset({429, 503})

#: Ceiling on a server-sent Retry-After delay (seconds) — a typo'd or
#: hostile header must not park the client for an hour.
_MAX_RETRY_AFTER = 30.0


def discover_url(url: str | None = None,
                 cache_dir: str | None = None) -> str:
    """Resolve the daemon URL; raises :class:`ServiceError` if unfindable."""
    if url:
        return url.rstrip("/")
    env = os.environ.get(ENV_URL, "").strip()
    if env:
        return env.rstrip("/")
    if cache_dir:
        from repro.serve.daemon import READY_NAME

        ready = Path(cache_dir) / READY_NAME
        try:
            doc = json.loads(ready.read_text())
            found = doc.get("url")
            if isinstance(found, str) and found:
                return found.rstrip("/")
        except FileNotFoundError:
            raise ServiceError(
                f"no daemon ready file at {ready}; is `repro serve "
                f"--cache {cache_dir}` running?") from None
        except (OSError, ValueError) as exc:
            raise ServiceError(f"unreadable ready file {ready}: {exc}") from exc
    raise ServiceError(
        "no daemon URL: pass --url, set $REPRO_SERVE_URL, or point "
        "--cache at a running daemon's cache directory")


class ServeClient:
    """Thin JSON-over-HTTP client bound to one daemon URL.

    ``retries`` bounds *extra* attempts after a transient failure
    (``URLError`` or a retryable HTTP status); ``backoff`` is the
    full-jitter cap base, seeded from the request path so concurrent
    clients don't thunder-herd a restarting daemon.
    """

    def __init__(self, url: str, timeout: float = 30.0,
                 retries: int = 2, backoff: float = 0.25):
        if retries < 0:
            raise ConfigError("retries must be >= 0")
        if backoff < 0:
            raise ConfigError("backoff must be >= 0")
        self.url = url.rstrip("/")
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        # Injection seam for tests (and, later, instrumented transports).
        self._urlopen = urllib.request.urlopen

    def _request(self, method: str, path: str,
                 doc: dict | None = None) -> tuple[int, dict]:
        data = None
        headers = {"Accept": "application/json"}
        if doc is not None:
            data = json.dumps(doc).encode()
            headers["Content-Type"] = "application/json"
        attempt = 0
        while True:
            attempt += 1
            req = urllib.request.Request(self.url + path, data=data,
                                         headers=headers, method=method)
            try:
                with self._urlopen(req, timeout=self.timeout) as resp:
                    return resp.status, self._parse(resp.read())
            except urllib.error.HTTPError as exc:
                # 4xx/5xx carry a JSON body describing why; that is API
                # data, not a transport failure.
                code, body = exc.code, self._parse(exc.read())
                retry_after = self._retry_after_of(exc, code)
                if retry_after is not None and attempt <= self.retries:
                    # The server named a delay: honor it in place of our
                    # own jittered guess (quota rejections become
                    # retryable only through this invitation).
                    get_registry().counter(
                        "serve.client_retry_after_honored").inc()
                    get_registry().counter("serve.client_retries").inc()
                    time.sleep(retry_after)
                    continue
                if (code not in _RETRYABLE_STATUSES
                        or attempt > self.retries):
                    return code, body
            except urllib.error.URLError as exc:
                if attempt > self.retries:
                    raise ServiceError(
                        f"cannot reach daemon at {self.url} after "
                        f"{attempt} attempt(s): {exc.reason}") from exc
            get_registry().counter("serve.client_retries").inc()
            time.sleep(full_jitter_delay(self.backoff, attempt, path))

    @staticmethod
    def _retry_after_of(exc, code: int) -> float | None:
        """Parsed, clamped Retry-After delay, or None when absent/invalid.

        Only delta-seconds form is understood (what the daemon emits);
        HTTP-date values are ignored rather than misparsed.
        """
        if code not in _RETRY_AFTER_STATUSES:
            return None
        headers = getattr(exc, "headers", None)
        raw = headers.get("Retry-After") if headers is not None else None
        if raw is None:
            return None
        try:
            seconds = float(str(raw).strip())
        except ValueError:
            return None
        if seconds < 0:
            return None
        return min(seconds, _MAX_RETRY_AFTER)

    @staticmethod
    def _parse(raw: bytes) -> dict:
        try:
            doc = json.loads(raw) if raw else {}
        except ValueError:
            doc = {"error": raw.decode(errors="replace")[:200]}
        return doc if isinstance(doc, dict) else {"value": doc}

    # -- API ------------------------------------------------------------------------
    def submit(self, spec: dict, tenant: str | None = None,
               deadline_seconds: float | None = None) -> tuple[int, dict]:
        doc: dict = {"spec": spec}
        if tenant is not None:
            doc["tenant"] = tenant
        if deadline_seconds is not None:
            doc["deadline_seconds"] = deadline_seconds
        return self._request("POST", "/jobs", doc)

    def status(self, job_id: str) -> tuple[int, dict]:
        return self._request("GET", f"/jobs/{job_id}")

    def result(self, job_id: str) -> tuple[int, dict]:
        return self._request("GET", f"/jobs/{job_id}/result")

    def cancel(self, job_id: str) -> tuple[int, dict]:
        return self._request("DELETE", f"/jobs/{job_id}")

    def healthz(self) -> tuple[int, dict]:
        return self._request("GET", "/healthz")

    def metrics(self) -> tuple[int, dict]:
        return self._request("GET", "/metrics")

    def wait(self, job_id: str, timeout: float | None = None,
             poll: float = 0.2) -> dict:
        """Poll until ``job_id`` reaches a terminal state; returns the
        final status document. :class:`ServiceError` on timeout."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            code, doc = self.status(job_id)
            if code != 200:
                raise ServiceError(
                    f"status poll for {job_id} failed ({code}): "
                    f"{doc.get('error', doc)}")
            if doc.get("state") in _TERMINAL:
                return doc
            if deadline is not None and time.monotonic() >= deadline:
                raise ServiceError(
                    f"timed out after {timeout:.3g}s waiting for {job_id} "
                    f"(last state {doc.get('state')!r})")
            time.sleep(poll)
