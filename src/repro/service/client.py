"""Blocking HTTP client for the solve service (stdlib ``http.client``).

The client is the reference consumer of the protocol in
``docs/SERVICE.md``: every endpoint has a one-method wrapper, SSE
streams surface as generators of ``(event, data)`` pairs, and server
rejections raise :class:`ServiceError` carrying the protocol error
code.  Used by the smoke tests, ``examples/service_client.py`` and the
``service-mix`` workload of ``python3 -m bench``.

Typical use::

    client = ServiceClient(port=8080)
    job = client.submit("min: 1 x1;\\n+1 x1 +1 x2 >= 1;\\n")
    for event, data in client.events(job["id"]):
        print(event, data)
    result = client.wait(job["id"])["result"]
"""

from __future__ import annotations

import http.client
import json
import time
from typing import Any, Dict, Iterator, Optional, Tuple

from .protocol import ERROR_CODES


class ServiceError(Exception):
    """A server-side rejection, carrying the protocol error code."""

    def __init__(self, code: str, status: int, message: str):
        super().__init__("%s (%d): %s" % (code, status, message))
        #: Protocol error code (a key of :data:`ERROR_CODES`).
        self.code = code
        #: HTTP status the server answered with.
        self.status = status
        #: Human-readable rejection message.
        self.message = message


def _raise_for_error(status: int, body: bytes) -> None:
    """Translate an error response body into :class:`ServiceError`."""
    try:
        payload = json.loads(body.decode("utf-8"))
        error = payload["error"]
        code, message = error["code"], error["message"]
    except Exception:
        code, message = "internal", body.decode("utf-8", "replace").strip()
    if code not in ERROR_CODES:
        code = "internal"
    raise ServiceError(code, status, message)


class ServiceClient:
    """One service endpoint; a fresh connection per request.

    Connection-per-request matches the server's ``Connection: close``
    policy, keeps the client trivially thread-safe, and means a single
    client object can be shared by the bench harness's submitter
    threads.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8080,
        timeout: float = 300.0,
    ):
        self.host = host
        self.port = port
        self.timeout = timeout

    # ------------------------------------------------------------------
    def _request(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, Any]] = None,
    ) -> Tuple[int, bytes]:
        """Issue one request and return ``(status, body_bytes)``."""
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            payload = None
            headers = {}
            if body is not None:
                payload = json.dumps(body).encode("utf-8")
                headers["Content-Type"] = "application/json"
            conn.request(method, path, body=payload, headers=headers)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def _json(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, Any]] = None,
        expect: int = 200,
    ) -> Dict[str, Any]:
        """Issue a request expecting a JSON body; raise on rejection."""
        status, raw = self._request(method, path, body)
        if status != expect:
            _raise_for_error(status, raw)
        return json.loads(raw.decode("utf-8"))

    # ------------------------------------------------------------------
    def submit(
        self,
        instance: str,
        solver: Optional[str] = None,
        options: Optional[Dict[str, Any]] = None,
        timeout: Optional[float] = None,
        proof: bool = False,
        cache: bool = True,
        progress_interval: Optional[int] = None,
    ) -> Dict[str, Any]:
        """``POST /jobs``: submit OPB text; returns the job resource.

        Cache hits come back already terminal (``state == "done"`` with
        the result attached) — check before polling.
        """
        body: Dict[str, Any] = {"instance": instance}
        if solver is not None:
            body["solver"] = solver
        if options:
            body["options"] = options
        if timeout is not None:
            body["timeout"] = timeout
        if proof:
            body["proof"] = True
        if not cache:
            body["cache"] = False
        if progress_interval is not None:
            body["progress_interval"] = progress_interval
        return self._json("POST", "/jobs", body, expect=202)

    def get(self, job_id: str) -> Dict[str, Any]:
        """``GET /jobs/{id}``: the current job resource."""
        return self._json("GET", "/jobs/%s" % job_id)

    def cancel(self, job_id: str) -> Dict[str, Any]:
        """``DELETE /jobs/{id}``: cooperative cancel."""
        return self._json("DELETE", "/jobs/%s" % job_id)

    def health(self) -> Dict[str, Any]:
        """``GET /healthz``: liveness plus queue/cache counters."""
        return self._json("GET", "/healthz")

    def metrics_text(self) -> str:
        """``GET /metrics``: the text exposition, verbatim."""
        status, raw = self._request("GET", "/metrics")
        if status != 200:
            _raise_for_error(status, raw)
        return raw.decode("utf-8")

    # ------------------------------------------------------------------
    def events(self, job_id: str) -> Iterator[Tuple[str, Any]]:
        """``GET /jobs/{id}/events``: stream SSE until the job ends.

        Yields ``(event, data)`` pairs — the full event log from the
        start, then live events as they happen; the generator ends when
        the server closes the stream (job terminal).
        """
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            conn.request("GET", "/jobs/%s/events" % job_id)
            response = conn.getresponse()
            if response.status != 200:
                _raise_for_error(response.status, response.read())
            event: Optional[str] = None
            data_parts = []
            while True:
                raw = response.readline()
                if not raw:
                    break
                line = raw.decode("utf-8").rstrip("\r\n")
                if line.startswith("event:"):
                    event = line[len("event:"):].strip()
                elif line.startswith("data:"):
                    data_parts.append(line[len("data:"):].strip())
                elif not line and event is not None:
                    yield event, json.loads("".join(data_parts) or "null")
                    event, data_parts = None, []
        finally:
            conn.close()

    def wait(
        self,
        job_id: str,
        timeout: Optional[float] = None,
        poll: float = 0.05,
    ) -> Dict[str, Any]:
        """Poll ``GET /jobs/{id}`` until terminal; returns the resource.

        Raises :class:`TimeoutError` if the job is still live after
        ``timeout`` seconds (None = wait forever).
        """
        start = time.monotonic()
        while True:
            job = self.get(job_id)
            if job["state"] in ("done", "cancelled", "failed"):
                return job
            if timeout is not None and time.monotonic() - start > timeout:
                raise TimeoutError(
                    "job %s still %s after %.1fs"
                    % (job_id, job["state"], timeout)
                )
            time.sleep(poll)

    def solve(
        self,
        instance: str,
        solver: Optional[str] = None,
        options: Optional[Dict[str, Any]] = None,
        timeout: Optional[float] = None,
        proof: bool = False,
        cache: bool = True,
    ) -> Dict[str, Any]:
        """Submit and block for the result payload (convenience).

        Raises :class:`ServiceError` (code ``internal``) if the job ends
        cancelled or failed instead of done.
        """
        job = self.submit(
            instance,
            solver=solver,
            options=options,
            timeout=timeout,
            proof=proof,
            cache=cache,
        )
        if job["state"] != "done":
            job = self.wait(job["id"], timeout=self.timeout)
        if job["state"] != "done":
            raise ServiceError(
                "internal",
                500,
                "job %s ended %s (%s)"
                % (
                    job["id"],
                    job["state"],
                    job.get("error") or job.get("reason") or "no detail",
                ),
            )
        return job["result"]
