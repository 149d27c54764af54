"""Request/response protocol of the decomposition service.

One request is one JSON object (NDJSON-framed on the unix socket, the
POST body over HTTP)::

    {"source": "rd84"}                                   # minimal
    {"id": "q1", "tenant": "ci", "flow": "compare",
     "source": {"kind": "blif", "body": ".model ..."},
     "config": {"use_dontcares": true}, "stream": true}

Responses are NDJSON event frames; a non-streaming request receives
only the final frame.  Every frame carries an ``event`` key:
``accepted``, ``cache``, ``coalesced``, ``queued``, ``dispatch``,
``beat``, ``retry``, ``shed``, ``result`` and ``error`` (see
``docs/SERVICE.md`` for the full schemas).

Parsing is *defensive by contract*: every malformed, oversized or
unauthorized request maps to a typed :class:`ServeError` subclass with
a stable machine-readable ``code`` (and an HTTP status for the HTTP
front-end) — the daemon converts them into ``error`` frames and keeps
serving.  Nothing a client sends may take the daemon down.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

from repro.config import FlowConfig

#: Frame/body ceiling (bytes) unless overridden per daemon.
MAX_FRAME_ENV = "REPRO_SERVE_MAX_FRAME_BYTES"
DEFAULT_MAX_FRAME_BYTES = 4 * 1024 * 1024

#: Flows the service accepts (same set as the batch tier).
FLOWS = ("map", "compare")

#: Engine-config keys a request may set, with their validators.
_CONFIG_FIELDS: Dict[str, Callable[[Any], bool]] = {
    "use_dontcares": lambda v: isinstance(v, bool),
    "verify": lambda v: isinstance(v, bool),
    "time_budget": lambda v: isinstance(v, (int, float)) and v >= 0,
    "node_budget": lambda v: isinstance(v, int) and v >= 0,
}

#: Hard ceiling on per-request crash retries.
MAX_RETRIES = 5


def default_max_frame_bytes() -> int:
    raw = os.environ.get(MAX_FRAME_ENV, "")
    try:
        return max(1024, int(raw)) if raw else DEFAULT_MAX_FRAME_BYTES
    except ValueError:
        return DEFAULT_MAX_FRAME_BYTES


# ---------------------------------------------------------------------
# Typed errors
# ---------------------------------------------------------------------

class ServeError(Exception):
    """Base of the typed request-failure taxonomy.

    ``code`` is the stable machine-readable discriminator clients and
    tests key on; ``http_status`` is what the HTTP front-end replies.
    """

    code = "internal"
    http_status = 500

    def as_frame(self, request_id: Optional[str] = None
                 ) -> Dict[str, Any]:
        frame: Dict[str, Any] = {"event": "error", "error": self.code,
                                 "message": str(self)}
        if request_id is not None:
            frame["id"] = request_id
        return frame


class BadFrame(ServeError):
    """The wire frame is not parseable JSON (truncated, binary, ...)."""

    code = "bad-frame"
    http_status = 400


class BadRequest(ServeError):
    """Structurally invalid request object."""

    code = "bad-request"
    http_status = 400


class BadSource(ServeError):
    """The source descriptor or its body does not parse/build."""

    code = "bad-source"
    http_status = 422


class TooLarge(ServeError):
    """Frame or inline body over the configured byte ceiling."""

    code = "too-large"
    http_status = 413


class Overloaded(ServeError):
    """Admission control rejected the request (queue full)."""

    code = "overloaded"
    http_status = 503


class ShuttingDown(ServeError):
    """The daemon is draining and accepts no new work."""

    code = "shutting-down"
    http_status = 503


# ---------------------------------------------------------------------
# Requests
# ---------------------------------------------------------------------

@dataclass
class ServeRequest:
    """A validated decomposition request."""

    source: Dict[str, Any]
    flow: str = "map"
    tenant: str = "default"
    id: Optional[str] = None
    config: Dict[str, Any] = field(default_factory=dict)
    stream: bool = False
    include_blif: bool = False
    timeout: Optional[float] = None
    retries: Optional[int] = None
    test_hook: Optional[str] = None

    def job_config(self, base: Optional[FlowConfig] = None
                   ) -> Dict[str, Any]:
        """The job/cache config dict: the request's config laid over the
        daemon's own flow (``base``, default the built-in settings) and
        encoded by :meth:`FlowConfig.job_config` — the same encoding the
        CLI uses, so identical work shares cache entries across tiers.
        """
        return (base or FlowConfig()).apply(self.config) \
            .job_config(self.flow)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise BadRequest(message)


def _parse_source(raw: Any, *, allow_files: bool,
                  max_body_bytes: int) -> Dict[str, Any]:
    """Normalize a request source into a jobspec descriptor."""
    from repro.runtime import jobspec

    if isinstance(raw, str):
        _require(0 < len(raw) <= 512, "source string must be 1-512 chars")
        if "!" in raw:
            raise BadRequest(
                "manifest test hooks ('!crash'/'!hang') are not part of "
                "the request grammar; use the 'test_hook' field")
        try:
            source = jobspec.parse_manifest_entry(raw)["source"]
        except ValueError as exc:
            raise BadSource(str(exc))
        if source["kind"] in ("pla", "blif") and not allow_files:
            raise BadSource(
                "file-backed sources are disabled on this daemon "
                "(start with --allow-files to serve pla:/blif: paths)")
        return source
    if not isinstance(raw, dict):
        raise BadRequest("source must be a string or an object")
    kind = raw.get("kind")
    if kind in ("pla", "blif"):
        body = raw.get("body")
        if body is None:
            if not allow_files:
                raise BadSource(
                    "file-backed sources are disabled on this daemon "
                    "(start with --allow-files, or inline the text via "
                    "'body')")
            path = raw.get("path")
            _require(isinstance(path, str) and path,
                     f"{kind} source needs a 'body' or 'path' string")
            return {"kind": kind, "path": path}
        _require(isinstance(body, str), "'body' must be a string")
        if len(body.encode("utf-8", "replace")) > max_body_bytes:
            raise TooLarge(
                f"inline {kind} body over the {max_body_bytes}-byte "
                f"ceiling")
        return {"kind": kind, "body": body}
    if kind in ("benchmark", "generator"):
        name = raw.get("name")
        _require(isinstance(name, str) and 0 < len(name) <= 128,
                 f"{kind} source needs a 'name' string")
        return {"kind": kind, "name": name}
    if kind == "synthetic":
        try:
            inputs = int(raw.get("inputs"))
            outputs = int(raw.get("outputs"))
        except (TypeError, ValueError):
            raise BadRequest(
                "synthetic source needs integer 'inputs'/'outputs'")
        _require(isinstance(raw.get("name"), str), "synthetic source "
                 "needs a 'name' string")
        _require(1 <= inputs <= 64 and 1 <= outputs <= 64,
                 "synthetic inputs/outputs must be in [1, 64]")
        source = {"kind": "synthetic", "name": raw["name"],
                  "inputs": inputs, "outputs": outputs}
        if raw.get("seed") is not None:
            source["seed"] = str(raw["seed"])
        return source
    raise BadRequest(
        f"unknown source kind {kind!r} (use a string entry, or an "
        f"object with kind pla/blif/benchmark/generator/synthetic)")


def parse_request(obj: Any, *, allow_files: bool = False,
                  allow_test_hooks: bool = False,
                  max_body_bytes: Optional[int] = None) -> ServeRequest:
    """Validate a decoded JSON object into a :class:`ServeRequest`.

    Raises a typed :class:`ServeError` on every malformed shape; never
    lets an arbitrary exception escape for client-controlled input.
    """
    if max_body_bytes is None:
        max_body_bytes = default_max_frame_bytes()
    if not isinstance(obj, dict):
        raise BadRequest("request must be a JSON object")
    unknown = set(obj) - {"id", "tenant", "flow", "source", "config",
                          "stream", "include_blif", "timeout", "retries",
                          "test_hook"}
    _require(not unknown,
             f"unknown request field(s): {', '.join(sorted(unknown))}")
    request_id = obj.get("id")
    if request_id is not None:
        _require(isinstance(request_id, str) and 0 < len(request_id) <= 128,
                 "'id' must be a 1-128 char string")
    tenant = obj.get("tenant", "default")
    _require(isinstance(tenant, str) and 0 < len(tenant) <= 64,
             "'tenant' must be a 1-64 char string")
    flow = obj.get("flow", "map")
    _require(flow in FLOWS, f"unknown flow {flow!r} (use map or compare)")
    if "source" not in obj:
        raise BadRequest("request needs a 'source'")
    source = _parse_source(obj["source"], allow_files=allow_files,
                           max_body_bytes=max_body_bytes)
    config = obj.get("config", {})
    _require(isinstance(config, dict), "'config' must be an object")
    for key, value in config.items():
        validator = _CONFIG_FIELDS.get(key)
        if validator is None:
            raise BadRequest(
                f"unknown config key {key!r} (known: "
                f"{', '.join(sorted(_CONFIG_FIELDS))})")
        _require(validator(value), f"bad value for config key {key!r}")
    stream = obj.get("stream", False)
    _require(isinstance(stream, bool), "'stream' must be a boolean")
    include_blif = obj.get("include_blif", False)
    _require(isinstance(include_blif, bool),
             "'include_blif' must be a boolean")
    timeout = obj.get("timeout")
    if timeout is not None:
        _require(isinstance(timeout, (int, float)) and 0 < timeout <= 86400,
                 "'timeout' must be in (0, 86400] seconds")
        timeout = float(timeout)
    retries = obj.get("retries")
    if retries is not None:
        _require(isinstance(retries, int)
                 and 0 <= retries <= MAX_RETRIES,
                 f"'retries' must be an integer in [0, {MAX_RETRIES}]")
    test_hook = obj.get("test_hook")
    if test_hook is not None:
        if not allow_test_hooks:
            raise BadRequest(
                "'test_hook' is disabled on this daemon (start with "
                "--allow-test-hooks; chaos/CI only)")
        _require(isinstance(test_hook, str) and test_hook.split(":")[0]
                 in ("crash", "hang"), "'test_hook' must be "
                 "'crash[:n]' or 'hang[:seconds]'")
    return ServeRequest(source=source, flow=flow, tenant=tenant,
                        id=request_id, config=dict(config),
                        stream=stream, include_blif=include_blif,
                        timeout=timeout, retries=retries,
                        test_hook=test_hook)


# ---------------------------------------------------------------------
# Result shaping
# ---------------------------------------------------------------------

def strip_record(record: Optional[Dict[str, Any]],
                 include_blif: bool) -> Optional[Dict[str, Any]]:
    """Drop BLIF bodies from a result record unless requested (same
    policy as batch JSONL rows)."""
    if record is None or include_blif:
        return record
    slim = {k: v for k, v in record.items() if k != "blif"}
    for driver in ("mulopII", "mulop_dc"):
        if isinstance(slim.get(driver), dict):
            slim[driver] = {k: v for k, v in slim[driver].items()
                            if k != "blif"}
    return slim
