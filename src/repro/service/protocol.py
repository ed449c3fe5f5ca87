"""Wire protocol of the solve service: states, events, errors, requests.

Everything the HTTP layer and the client agree on lives here, away from
any asyncio machinery, so the protocol can be validated (and the docs
cross-checked) without starting a server.  ``docs/SERVICE.md`` is the
human-readable reference for this module; the service smoke tests parse
that document and assert it names exactly the states in
:data:`JOB_STATES` and the event types in :data:`SSE_EVENT_TYPES`.
"""

from __future__ import annotations

import io
import json
from typing import Any, Dict, Mapping, Optional

from ..api import canonical_name as resolve_solver
from ..core.options import SolverOptions
from ..pb.instance import InfeasibleConstraintError, PBInstance
from ..pb.opb import OPBError, parse

#: Job lifecycle states (see the state machine in docs/SERVICE.md).
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
CANCELLED = "cancelled"
FAILED = "failed"

JOB_STATES = (QUEUED, RUNNING, DONE, CANCELLED, FAILED)

#: States a job never leaves once entered.
TERMINAL_STATES = (DONE, CANCELLED, FAILED)

#: Server-Sent Event types, in the order a fully ordinary job emits
#: them.  Every event the server writes uses one of these names; the
#: smoke test cross-checks the set against docs/SERVICE.md *and*
#: against the events observed on a live stream.
SSE_EVENT_TYPES = (
    "queued",      # job admitted; data carries the queue position
    "started",     # a worker process picked the job up
    "progress",    # periodic solver heartbeat (conflicts/decisions/bounds)
    "incumbent",   # the solver found an improving solution
    "result",      # terminal: the solve finished (possibly from cache)
    "cancelled",   # terminal: client cancel or deadline kill
    "failed",      # terminal: the worker errored or died
)

#: Error code -> HTTP status.  Error bodies are
#: ``{"error": {"code": ..., "message": ...}}``.
ERROR_CODES = {
    "bad_request": 400,
    "unknown_solver": 400,
    "unsupported": 400,
    "not_found": 404,
    "method_not_allowed": 405,
    "conflict": 409,
    "payload_too_large": 413,
    "queue_full": 503,
    "internal": 500,
}

#: Option names accepted in a submission's ``options`` object: the
#: scalar :class:`SolverOptions` knobs (no callbacks, no instruments).
ALLOWED_OPTION_KEYS = frozenset(SolverOptions().describe()) - {
    "profile",
    "progress_interval",
}

#: Submission body size cap (bytes) enforced by the HTTP layer.
MAX_BODY_BYTES = 8 * 1024 * 1024


class ProtocolError(Exception):
    """A request the server rejects; carries the protocol error code."""

    def __init__(self, code: str, message: str):
        if code not in ERROR_CODES:
            raise ValueError("unknown protocol error code %r" % code)
        super().__init__(message)
        self.code = code
        self.status = ERROR_CODES[code]
        self.message = message

    def to_json(self) -> Dict[str, Any]:
        """The JSON error body for this rejection."""
        return {"error": {"code": self.code, "message": self.message}}


class SubmitRequest:
    """A validated job submission.

    Fields mirror the ``POST /jobs`` body documented in
    docs/SERVICE.md: ``instance`` (OPB text, parsed here), ``solver``
    (registry name, resolved to its canonical form), ``options`` (a
    whitelisted subset of the scalar :class:`SolverOptions` knobs),
    ``timeout`` (the per-job deadline in seconds), ``proof`` (attach a
    checkable certificate) and ``cache`` (allow canonical-form cache
    hits; proof jobs always bypass).
    """

    __slots__ = (
        "instance",
        "instance_text",
        "solver",
        "options",
        "timeout",
        "proof",
        "cache",
        "progress_interval",
    )

    def __init__(
        self,
        instance: PBInstance,
        instance_text: str,
        solver: str,
        options: Dict[str, Any],
        timeout: Optional[float],
        proof: bool,
        cache: bool,
        progress_interval: int,
    ):
        self.instance = instance
        self.instance_text = instance_text
        self.solver = solver
        self.options = options
        self.timeout = timeout
        self.proof = proof
        self.cache = cache
        self.progress_interval = progress_interval

    # ------------------------------------------------------------------
    @classmethod
    def from_json(cls, data: Any) -> "SubmitRequest":
        """Validate a decoded ``POST /jobs`` body.

        Raises :class:`ProtocolError` with a client-attributable code on
        any malformed field; nothing about the request is trusted past
        this point.
        """
        if not isinstance(data, dict):
            raise ProtocolError("bad_request", "request body must be a JSON object")
        unknown = set(data) - {
            "instance", "solver", "options", "timeout", "proof", "cache",
            "progress_interval",
        }
        if unknown:
            raise ProtocolError(
                "bad_request", "unknown field(s): %s" % ", ".join(sorted(unknown))
            )
        text = data.get("instance")
        if not isinstance(text, str) or not text.strip():
            raise ProtocolError(
                "bad_request", "'instance' must be non-empty OPB text"
            )
        try:
            instance = parse(io.StringIO(text))
        except (OPBError, InfeasibleConstraintError, ValueError) as exc:
            raise ProtocolError("bad_request", "instance does not parse: %s" % exc)

        solver = data.get("solver", "bsolo-lpr")
        if not isinstance(solver, str):
            raise ProtocolError("bad_request", "'solver' must be a string")
        try:
            solver = resolve_solver(solver)
        except Exception as exc:
            raise ProtocolError("unknown_solver", str(exc))

        raw_options = data.get("options", {})
        if not isinstance(raw_options, dict):
            raise ProtocolError("bad_request", "'options' must be an object")
        bad_keys = set(raw_options) - ALLOWED_OPTION_KEYS
        if bad_keys:
            raise ProtocolError(
                "bad_request",
                "unsupported option(s): %s (allowed: %s)"
                % (
                    ", ".join(sorted(bad_keys)),
                    ", ".join(sorted(ALLOWED_OPTION_KEYS)),
                ),
            )
        try:
            options = SolverOptions(**raw_options)
        except (TypeError, ValueError) as exc:
            raise ProtocolError("bad_request", "invalid options: %s" % exc)

        timeout = data.get("timeout")
        if timeout is not None:
            if not isinstance(timeout, (int, float)) or isinstance(timeout, bool) \
                    or timeout <= 0:
                raise ProtocolError(
                    "bad_request", "'timeout' must be a positive number of seconds"
                )
            timeout = float(timeout)

        proof = data.get("proof", False)
        if not isinstance(proof, bool):
            raise ProtocolError("bad_request", "'proof' must be a boolean")
        if proof and not solver.startswith("bsolo"):
            raise ProtocolError(
                "unsupported",
                "proof=true requires a bsolo-* solver (solver %r does not "
                "log derivations)" % solver,
            )

        cache = data.get("cache", True)
        if not isinstance(cache, bool):
            raise ProtocolError("bad_request", "'cache' must be a boolean")

        progress_interval = data.get("progress_interval", 200)
        if not isinstance(progress_interval, int) \
                or isinstance(progress_interval, bool) or progress_interval < 1:
            raise ProtocolError(
                "bad_request", "'progress_interval' must be a positive integer"
            )

        return cls(
            instance=instance,
            instance_text=text,
            solver=solver,
            options=dict(raw_options),
            timeout=timeout,
            proof=proof,
            cache=cache,
            progress_interval=progress_interval,
        )


def format_sse(event: str, data: Mapping[str, Any]) -> bytes:
    """Render one Server-Sent Event frame (``event:``/``data:`` lines).

    ``event`` must come from :data:`SSE_EVENT_TYPES`; the JSON payload
    is rendered with sorted keys so traces diff deterministically.
    """
    if event not in SSE_EVENT_TYPES:
        raise ValueError("unknown SSE event type %r" % event)
    return (
        "event: %s\ndata: %s\n\n" % (event, json.dumps(data, sort_keys=True))
    ).encode("utf-8")


def parse_sse(lines) -> Any:
    """Iterate ``(event, data)`` pairs from an SSE line stream.

    Accepts any iterable of ``str`` lines (trailing newlines optional)
    and yields the event name with the decoded JSON payload; used by the
    client and by tests replaying captured streams.
    """
    event: Optional[str] = None
    data_parts = []
    for raw in lines:
        line = raw.rstrip("\r\n")
        if line.startswith("event:"):
            event = line[len("event:"):].strip()
        elif line.startswith("data:"):
            data_parts.append(line[len("data:"):].strip())
        elif not line:
            if event is not None:
                yield event, json.loads("".join(data_parts) or "null")
            event, data_parts = None, []
    if event is not None:
        yield event, json.loads("".join(data_parts) or "null")
