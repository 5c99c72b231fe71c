"""HTTP API of the control plane: routes, handlers, JSON rendering.

Transport-free by design: :class:`Request` in, :class:`Response` out —
the asyncio server (:mod:`repro.service.server`) does the socket work,
tests drive handlers directly, and the whole layer stays a pure
function of (registry, queue, metrics) state.

==========  =============================  ======================================
Method      Path                           Meaning
==========  =============================  ======================================
``POST``    ``/v1/studies``                submit a config; idempotent per hash
``GET``     ``/v1/runs``                   list runs (``offset``/``limit``)
``GET``     ``/v1/runs/{id}``              one run + live progress (``days=1``
                                           adds per-task manifest rows)
``GET``     ``/v1/runs/{id}/results``      results digest + summary (done only)
``GET``     ``/v1/runs/{id}/figures/{n}``  rendered figure report (text/plain)
``POST``    ``/v1/runs/{id}/cancel``       cancel queued/running run
``POST``    ``/v1/runs/{id}/resume``       re-queue a cancelled/failed run
``GET``     ``/v1/healthz``                liveness + queue occupancy
``GET``     ``/v1/metricsz``               Prometheus textfile exposition
==========  =============================  ======================================

Failures follow the typed-error contract (RPR009):
:func:`handle_request` surfaces only :class:`ServiceError` subclasses;
request-attributable ones render as their 4xx with a machine-readable
``{"error": {"code", "message"}}`` body, anything else as a typed 500.
A malformed request can never produce a traceback.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from repro.service import registry as reg
from repro.service.errors import (
    ApiError,
    BadRequestError,
    ConflictError,
    MethodNotAllowedError,
    NotFoundError,
    ServiceError,
)
from repro.service.queue import JobQueue
from repro.service.registry import RunRecord, RunRegistry, paginate
from repro.service.results import figure_module
from repro.telemetry.export import RunTelemetry, prometheus_text
from repro.telemetry.metrics import MetricRegistry

#: Hard cap on ``limit`` so one request cannot ask for the world.
MAX_PAGE_LIMIT = 500

JSON_TYPE = "application/json"
TEXT_TYPE = "text/plain; charset=utf-8"


@dataclass(frozen=True)
class Request:
    """One parsed HTTP request, transport details already stripped."""

    method: str
    path: str
    query: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""


@dataclass(frozen=True)
class Response:
    """What a handler returns; the server adds the HTTP framing."""

    status: int
    body: bytes
    content_type: str = JSON_TYPE
    #: Route label for the request metrics ("" when unrouted).
    route: str = ""

    @classmethod
    def json(
        cls, status: int, payload: object, route: str = ""
    ) -> "Response":
        blob = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        return cls(status, blob.encode("utf-8"), JSON_TYPE, route)

    @classmethod
    def text(cls, status: int, text: str, route: str = "") -> "Response":
        return cls(status, text.encode("utf-8"), TEXT_TYPE, route)


def record_payload(record: RunRecord) -> dict:
    return {
        "id": record.run_id,
        "seq": record.seq,
        "state": record.state,
        "config": record.config,
        "config_hash": record.config_hash,
        "cancel_requested": record.cancel_requested,
        "error": record.error,
        "attempts": record.attempts,
        "created_at": record.created_at,
        "started_at": record.started_at,
        "finished_at": record.finished_at,
    }


class Api:
    """Handler table over one registry + queue + metrics bundle."""

    def __init__(
        self,
        registry: RunRegistry,
        queue: JobQueue,
        metrics: Optional[MetricRegistry] = None,
    ) -> None:
        self.registry = registry
        self.queue = queue
        self.metrics = metrics if metrics is not None else queue.metrics

    # -- routing -------------------------------------------------------

    def dispatch(self, request: Request) -> Response:
        segments = [s for s in request.path.split("/") if s]
        if not segments or segments[0] != "v1":
            raise NotFoundError(f"no route at {request.path!r}")
        rest = segments[1:]
        route: Optional[Tuple[str, Callable[[], Response]]] = None
        if rest == ["healthz"]:
            route = ("healthz", lambda: self._healthz(request))
        elif rest == ["metricsz"]:
            route = ("metricsz", lambda: self._metricsz(request))
        elif rest == ["studies"]:
            route = ("studies", lambda: self._studies(request))
        elif rest == ["runs"]:
            route = ("runs", lambda: self._runs(request))
        elif len(rest) == 2 and rest[0] == "runs":
            route = ("run", lambda: self._run(request, rest[1]))
        elif len(rest) == 3 and rest[0] == "runs" and rest[2] == "results":
            route = ("results", lambda: self._results(request, rest[1]))
        elif len(rest) == 3 and rest[0] == "runs" and rest[2] == "cancel":
            route = ("cancel", lambda: self._cancel(request, rest[1]))
        elif len(rest) == 3 and rest[0] == "runs" and rest[2] == "resume":
            route = ("resume", lambda: self._resume(request, rest[1]))
        elif len(rest) == 4 and rest[0] == "runs" and rest[2] == "figures":
            route = (
                "figure",
                lambda: self._figure(request, rest[1], rest[3]),
            )
        if route is None:
            raise NotFoundError(f"no route at {request.path!r}")
        return route[1]()

    # -- helpers -------------------------------------------------------

    @staticmethod
    def _require_method(request: Request, allowed: str) -> None:
        if request.method != allowed:
            raise MethodNotAllowedError(
                f"{request.method} not allowed here (use {allowed})"
            )

    @staticmethod
    def _json_body(request: Request) -> object:
        if not request.body:
            raise BadRequestError("request body must be a JSON object")
        try:
            return json.loads(request.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise BadRequestError(f"body is not valid JSON: {exc}") from exc

    @staticmethod
    def _int_param(
        query: Dict[str, str], name: str, default: int, minimum: int
    ) -> int:
        raw = query.get(name)
        if raw is None:
            return default
        try:
            value = int(raw)
        except ValueError as exc:
            raise BadRequestError(
                f"query parameter {name!r} must be an integer "
                f"(got {raw!r})"
            ) from exc
        if value < minimum:
            raise BadRequestError(
                f"query parameter {name!r} must be >= {minimum}"
            )
        return value

    def _get_record(self, run_id: str) -> RunRecord:
        try:
            return self.registry.get(run_id)
        except reg.UnknownRunError as exc:
            raise NotFoundError(str(exc)) from exc

    def _progress(self, run_id: str, include_days: bool) -> Optional[dict]:
        """Live execution progress from the checkpoint-tier manifest."""
        path = self.registry.manifest_path(run_id)
        try:
            manifest = json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            return None
        except (OSError, json.JSONDecodeError) as exc:
            # A manifest mid-write is not an error; report it unreadable.
            return {"unreadable": str(exc)}
        progress = {
            key: manifest.get(key)
            for key in (
                "planned_days",
                "planned_tasks",
                "completed",
                "failed",
                "checkpoint_hits",
                "retries",
                "crashes",
                "shards",
                "spills",
                "wall_time",
                "execution",
            )
        }
        if include_days:
            progress["days"] = manifest.get("days", [])
        if manifest.get("data_quality"):
            progress["data_quality"] = manifest["data_quality"]
        return progress

    # -- handlers ------------------------------------------------------

    def _healthz(self, request: Request) -> Response:
        self._require_method(request, "GET")
        states = [record.state for record in self.registry.list()]
        return Response.json(
            200,
            {
                "status": "ok",
                "runs": len(states),
                "active": self.queue.active_runs,
                "queued": states.count(reg.QUEUED),
                "max_active": self.queue.max_active,
            },
            route="healthz",
        )

    def _metricsz(self, request: Request) -> Response:
        self._require_method(request, "GET")
        text = prometheus_text(
            RunTelemetry(metrics=self.metrics.snapshot())
        )
        return Response.text(200, text, route="metricsz")

    def _studies(self, request: Request) -> Response:
        self._require_method(request, "POST")
        payload = self._json_body(request)
        known = False
        if isinstance(payload, dict):
            # Peek for idempotency *before* submit so the status code can
            # distinguish created (201) from already-known (200).
            try:
                from repro.service import configs

                config, _ = configs.build_config(payload)
                known = configs.run_id_for(config) in self.registry
            except BadRequestError:
                known = False
        record = self.queue.submit(payload)
        return Response.json(
            200 if known else 201,
            {"run": record_payload(record)},
            route="studies",
        )

    def _runs(self, request: Request) -> Response:
        self._require_method(request, "GET")
        offset = self._int_param(request.query, "offset", 0, 0)
        limit = self._int_param(request.query, "limit", 50, 1)
        if limit > MAX_PAGE_LIMIT:
            raise BadRequestError(
                f"query parameter 'limit' must be <= {MAX_PAGE_LIMIT}"
            )
        state = request.query.get("state")
        records = self.registry.list()
        if state is not None:
            if state not in reg.STATES:
                raise BadRequestError(
                    f"unknown state filter {state!r} "
                    f"(choose from {', '.join(reg.STATES)})"
                )
            records = [r for r in records if r.state == state]
        page = paginate(records, offset, limit)
        return Response.json(
            200,
            {
                "runs": [record_payload(r) for r in page.runs],
                "total": page.total,
                "offset": page.offset,
                "limit": page.limit,
                "next_offset": page.next_offset,
            },
            route="runs",
        )

    def _run(self, request: Request, run_id: str) -> Response:
        self._require_method(request, "GET")
        record = self._get_record(run_id)
        include_days = request.query.get("days") == "1"
        payload = record_payload(record)
        payload["progress"] = self._progress(run_id, include_days)
        return Response.json(200, {"run": payload}, route="run")

    def _results(self, request: Request, run_id: str) -> Response:
        self._require_method(request, "GET")
        record = self._get_record(run_id)
        if record.state != reg.DONE:
            raise ConflictError(
                f"run {run_id} is {record.state}; results are available "
                "once it is done"
            )
        path = self.registry.results_path(run_id)
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError as exc:
            raise NotFoundError(
                f"run {run_id} has no results artifact"
            ) from exc
        except (OSError, json.JSONDecodeError) as exc:
            raise ServiceError(
                f"run {run_id}: results artifact unreadable: {exc}"
            ) from exc
        return Response.json(200, {"results": payload}, route="results")

    def _figure(self, request: Request, run_id: str, name: str) -> Response:
        self._require_method(request, "GET")
        record = self._get_record(run_id)
        if record.state != reg.DONE:
            raise ConflictError(
                f"run {run_id} is {record.state}; figures are available "
                "once it is done"
            )
        figure_module(name)
        path = self.registry.figures_dir(run_id) / f"{name}.txt"
        try:
            text = path.read_text(encoding="utf-8")
        except FileNotFoundError as exc:
            raise NotFoundError(
                f"run {run_id}: figure {name!r} not rendered"
            ) from exc
        except OSError as exc:
            raise ServiceError(
                f"run {run_id}: figure {name!r} unreadable: {exc}"
            ) from exc
        return Response.text(200, text, route="figure")

    def _cancel(self, request: Request, run_id: str) -> Response:
        self._require_method(request, "POST")
        self._get_record(run_id)
        record = self.queue.cancel(run_id)
        return Response.json(
            200, {"run": record_payload(record)}, route="cancel"
        )

    def _resume(self, request: Request, run_id: str) -> Response:
        self._require_method(request, "POST")
        self._get_record(run_id)
        record = self.queue.resume(run_id)
        return Response.json(
            200, {"run": record_payload(record)}, route="resume"
        )


def handle_request(api: Api, request: Request) -> Response:
    """Dispatch one request; failures become typed error responses.

    The RPR009 contract point: only :class:`ServiceError` subclasses may
    escape, and in practice none do — :class:`ApiError` renders as its
    status, any other :class:`ServiceError` as a typed 500 — so the
    transport below never sees an exception it has to guess about.
    """
    try:
        response = api.dispatch(request)
    except ApiError as exc:
        response = Response.json(
            exc.status, exc.to_payload(), route="error"
        )
    except ServiceError as exc:
        api.metrics.counter("service_internal_errors").inc()
        response = Response.json(
            500,
            {"error": {"code": "internal", "message": str(exc)}},
            route="error",
        )
    api.metrics.counter(
        "service_http_requests",
        method=request.method,
        route=response.route or "none",
        status=response.status,
    ).inc()
    return response
